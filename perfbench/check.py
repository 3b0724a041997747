"""Output checks against the golden copies stored in perfbench/golden.

The golden copies were made from the default seed (0) by make_golden.py.
An operation that succeeded in the golden copy must give the same output
now; one that failed there may still fail.  For other seeds:

* suite: identities that take no sampled arguments must report exactly
  the golden reports; the seeded ones must pass as often as in the golden copy.
* eval: the golden copy holds the canonical string of every expression the
  workload can request, and each value is checked by evaluating that string
  at the request's point, with integer arithmetic written here.
"""

from __future__ import annotations

import json
import os
import re
from fractions import Fraction
from functools import lru_cache

from workloads import SEEDED_SUITE_IDS

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
DEFAULT_SEED = 0


def _load(name: str):
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
        return json.load(fh)


def _same(golden: dict, got: dict) -> bool:
    return got == golden or not golden.get("passed", True)


def check_suite(outputs: list, seed: int) -> list[str]:
    golden = _load("suite.json")
    if seed == DEFAULT_SEED:
        if len(outputs) != len(golden):
            return [f"suite: {len(outputs)} reports, golden has {len(golden)}"]
        return [f"suite: report {i} differs: {got}" for i, (want, got)
                in enumerate(zip(golden, outputs)) if not _same(want, got)]
    errors = []
    fixed_want = [r for r in golden if r["identity_id"] not in SEEDED_SUITE_IDS]
    fixed_got = [r for r in outputs if r["identity_id"] not in SEEDED_SUITE_IDS]
    if len(fixed_got) != len(fixed_want):
        errors.append(f"suite: {len(fixed_got)} unseeded reports, golden has {len(fixed_want)}")
    errors += [f"suite: report differs: {got}" for want, got in zip(fixed_want, fixed_got)
               if not _same(want, got)]
    for identity in SEEDED_SUITE_IDS:
        want = [r for r in golden if r["identity_id"] == identity]
        got = [r for r in outputs if r["identity_id"] == identity]
        if len(got) != len(want):
            errors.append(f"suite: {identity} made {len(got)} checks, golden {len(want)}")
        elif sum(r["passed"] for r in got) < sum(r["passed"] for r in want):
            errors.append(f"suite: {identity} fails checks that passed in the golden copy")
    return errors


_TERM = re.compile(r"^(?:(\d+)(?:/(\d+))?)?((?:\*?[qtX](?:\^\d+)?)*)$")
_FACTOR = re.compile(r"([qtX])(?:\^(\d+))?")


def _poly_terms(text: str) -> list[tuple[Fraction, int, int, int]]:
    """Terms (coefficient, e_q, e_t, e_X) of a polynomial in the canonical grammar."""
    terms = []
    for sign, body in re.findall(r"(^-?|[+-] )([^ ]+)", text.strip()):
        m = _TERM.match(body)
        if not m:
            raise ValueError(f"bad term {body!r}")
        coeff = Fraction(int(m.group(1) or 1), int(m.group(2) or 1))
        exps = {"q": 0, "t": 0, "X": 0}
        for var, e in _FACTOR.findall(m.group(3)):
            exps[var] += int(e or 1)
        terms.append((-coeff if sign.startswith("-") else coeff, exps["q"], exps["t"], exps["X"]))
    return terms


@lru_cache(maxsize=None)
def _rational_terms(text: str):
    m = re.fullmatch(r"\((.*)\)/\((.*)\)", text)
    if m:
        return _poly_terms(m.group(1)), _poly_terms(m.group(2))
    return _poly_terms(text), [(Fraction(1), 0, 0, 0)]


def _eval_poly(terms, point) -> Fraction:
    """Exact value at point = ((qn, qd), (tn, td), (xn, xd)), in integers until the end."""
    (qn, qd), (tn, td), (xn, xd) = point
    top = [max(t[k] for t in terms) for k in (1, 2, 3)]
    total = Fraction(0)
    for coeff, a, b, c in terms:
        total += coeff * (qn ** a * qd ** (top[0] - a) * tn ** b * td ** (top[1] - b)
                          * xn ** c * xd ** (top[2] - c))
    return total / (qd ** top[0] * td ** top[1] * xd ** top[2])


def value_of(canonical: str, point) -> Fraction:
    num, den = _rational_terms(canonical)
    fracs = [Fraction(v) for v in point]
    pt = [(f.numerator, f.denominator) for f in fracs]
    return _eval_poly(num, pt) / _eval_poly(den, pt)


def _gaussian(m: int, k: int, q: Fraction) -> Fraction:
    def poch(j):
        out = Fraction(1)
        for i in range(1, j + 1):
            out *= 1 - q ** i
        return out
    return poch(m) / (poch(m - k) * poch(k)) if 0 <= k <= m else Fraction(0)


def _oracle(expr: str, point):
    """Independent value for expressions that fail in the golden copy, if known."""
    m = re.fullmatch(r"gaussian\((\d+);(\d+)\)", expr)
    if m:
        return _gaussian(int(m.group(1)), int(m.group(2)), Fraction(point[0]))
    return None


def check_eval(requests: list, outputs: list) -> list[str]:
    golden = _load("eval.json")
    errors = []
    for (expr, point), got in zip(requests, outputs):
        want = golden[expr]
        if isinstance(want, str):
            expected = value_of(want, point)
        elif isinstance(got, dict):
            continue  # failed in the golden copy too
        else:
            expected = _oracle(expr, point)
        if isinstance(got, dict) or expected is None or Fraction(got) != expected:
            errors.append(f"eval: {expr} at {point} gave {got}, want {expected}")
    return errors


def check(workload: str, inputs: dict, seed: int, outputs: list) -> list[str]:
    """Every mismatch between outputs and the golden copies; empty when correct."""
    if workload == "suite":
        return check_suite(outputs, seed)
    return check_eval(inputs["requests"], outputs)
