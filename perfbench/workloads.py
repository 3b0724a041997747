"""Seeded inputs of the two workloads.

Every input is built here from the workload seed alone, without importing
the program, so that the program under test receives only generated data.
The same seed always gives the same inputs.
"""

from __future__ import annotations

import random

WORKLOADS = ("suite", "eval")

#: The identity ids registered when this benchmark was defined.  Pinned, so
#: that registering a new identity changes no workload.
SUITE_IDS = (
    "inclusion-order", "poch-recurrence", "poch-negative-index",
    "poch-partition-single-part", "flip-formula", "limit-rule",
    "h-factor-normalization", "w-skew-triangularity", "w-rect", "w-staircase",
    "w-vanishing", "w-symmetry", "w-duality", "w-bar-limit-exists",
    "gaussian-reduction", "qt-binomial-rect", "binomial-theorem",
    "qt-number-reduction", "bracket-rect", "bracket-binomial-relation",
    "change-of-basis-u", "change-of-basis-v", "uv-inversion", "h-g-flip",
    "u-limit-closed-form", "v-limit-closed-form", "stirling-diagonal",
    "stirling-zero", "defining-expansion-s1", "defining-expansion-s2",
    "stirling-inversion", "valgebra-identity", "adjacent-weight", "x0-sums",
    "root-vanishing", "classical-stirling",
)

#: Identities whose sampled arguments depend on the suite seed.
SEEDED_SUITE_IDS = frozenset({
    "w-rect", "w-symmetry", "w-duality", "qt-number-reduction",
    "bracket-binomial-relation",
})

#: n <= 3 with parts <= 1: the full suite, 403 checks, in 2.5 to 3.5 s (2-core
#: Xeon KVM guest, CPython 3.11, sympy 1.14), so that a 60 s run holds a dozen
#: repetitions and their medians stay steady on a shared host.  Parts <= 2
#: takes 17 to 20 s and the default parts <= 3 about 50 s.
SUITE_N_MAX = 3
SUITE_PART_MAX = 1

EVAL_N_MAX = 3
EVAL_PART_MAX = 2
#: Prime bases of q, t and X, and the exponents a point may use.  Every
#: denominator is a product of monomials and factors of 1 - q^i t^j X^k, which
#: cannot vanish at distinct prime powers unless i = j = k = 0.
EVAL_BASES = (2, 3, 5)
EVAL_EXPONENTS = (-2, -1, 1, 2)
EVAL_REPEATS = 4  # one cold request per expression, then warm ones
EVAL_COLD_ORDER_SEED = 0


def _box(n: int, part_max: int) -> list[tuple[int, ...]]:
    """Partitions of ambient length n with parts <= part_max, lexicographically."""
    if n == 0:
        return [()]
    out = []
    for first in range(part_max + 1):
        out.extend((first,) + rest for rest in _box(n - 1, first))
    return out


def _contains(lam, mu) -> bool:
    return all(m <= l for l, m in zip(lam, mu))


def _horizontal_strip(lam, mu) -> bool:
    n = len(lam)
    return all(lam[i] >= mu[i] and (i + 1 == n or mu[i] >= lam[i + 1]) for i in range(n))


def _expr(name: str, *groups) -> str:
    return f"{name}(" + ";".join(",".join(str(v) for v in g) for g in groups) + ")"


def eval_universe() -> list[str]:
    """Every expression the eval workload may request, in a fixed order.

    `h` is drawn only on horizontal-strip pairs, since any other pair is
    correctly refused.  `gaussian(m;k)` keeps the two-group syntax of the
    command-line examples.
    """
    out = []
    for n in range(1, EVAL_N_MAX + 1):
        box = _box(n, EVAL_PART_MAX)
        for lam in box:
            out += [_expr("qt_number", lam), _expr("bracket_rect", lam),
                    _expr("f", lam), _expr("w_staircase", lam)]
            for mu in box:
                if _contains(lam, mu):
                    out += [_expr(k, lam, mu) for k in ("s1", "s2", "u", "v")]
                if _horizontal_strip(lam, mu):
                    out.append(_expr("h", lam, mu))
                out += [_expr(k, lam, mu) for k in ("binomial", "bracket")]
                out += [_expr(k, mu, lam) for k in ("w", "w_hat")]
    for m in range(EVAL_N_MAX + 1):
        out += [_expr("gaussian", (m,), (k,)) for k in range(m + 1)]
    return out


def suite_inputs(seed: int) -> dict:
    return {"ids": list(SUITE_IDS), "n_max": SUITE_N_MAX,
            "part_max": SUITE_PART_MAX, "seed": seed}


def eval_inputs(seed: int) -> dict:
    """Each expression requested EVAL_REPEATS times at distinct points, interleaved.

    The first request of each expression is cold; the rest read the memos.
    Cold requests come in one shuffled order, the same for every seed: the
    memos a cold request finds then do not depend on the seed, and the
    slowest requests are spread over the run instead of bunched by kind.
    The seed picks the points, and where the warm requests fall among the
    cold ones and in what order.  A point is [q, t, X] as strings of exact
    rationals.
    """
    rng = random.Random(seed)
    exponents = [(a, b, c) for a in EVAL_EXPONENTS for b in EVAL_EXPONENTS
                 for c in EVAL_EXPONENTS]
    universe = eval_universe()
    random.Random(EVAL_COLD_ORDER_SEED).shuffle(universe)
    cold, later = [], {}
    for expr in universe:
        points = [[_prime_power(p, e) for p, e in zip(EVAL_BASES, exps)]
                  for exps in rng.sample(exponents, EVAL_REPEATS)]
        cold.append([expr, points[0]])
        later[expr] = [[expr, point] for point in points[1:]]
    # a random merge: the next request is warm with the chance a uniform
    # shuffle would give it, drawn from the expressions already requested
    cold.reverse()
    warm, requests = [], []
    warm_left = len(cold) * (EVAL_REPEATS - 1)
    while cold or warm:
        if warm and (not cold or rng.random() < warm_left / (warm_left + len(cold))):
            requests.append(warm.pop(rng.randrange(len(warm))))
            warm_left -= 1
        else:
            requests.append(cold.pop())
            warm += later[requests[-1][0]]
    return {"requests": requests}


def _prime_power(p: int, e: int) -> str:
    return str(p ** e) if e >= 0 else f"1/{p ** -e}"


BOUNDS = {
    "suite": {"n_max": SUITE_N_MAX, "part_max": SUITE_PART_MAX},
    "eval": {"n_max": EVAL_N_MAX, "part_max": EVAL_PART_MAX, "repeats": EVAL_REPEATS},
}


def inputs(workload: str, seed: int) -> dict:
    return {"suite": suite_inputs, "eval": eval_inputs}[workload](seed)
