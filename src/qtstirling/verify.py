"""Identity-verification suite, table emission and exact point evaluation.

Every identity the library claims is one row of the table `_TABLE` below,
under a stable id, and is checked by exact rational-function equality over
configurable desk-scale index bounds.  A row enumerates index dicts from the
bounds (and, for the sampled identities, the seed) and checks each one.
A check returns one verdict (flags, witness): flags join the report, and
the witness, computed by the check only on failure, is None when the
identity holds (`_equal` gives the canonical LHS - RHS).  `_Row.judge` turns
each index dict and verdict into an IdentityReport whose index_data is the
indices as JSON; a check or an enumerator that raises becomes a failing
report (`_raised`), except that a RecursionError propagates: an index too
deep for the interpreter is bad input.  `check_identity` runs one row at
chosen indices.
Nothing here reads or writes a file: `run_suite` and `emit_table` return
their results, and the command line writes them.
The paper's expansions are data too: a row of `_EXPANSIONS` gives
coefficient(nu, mu) and basis(mu), an X power and a factor list, and the
expansion at nu sums their products over mu <= nu.  The sum is memoised
per (nu, kind); the rows that substitute X term by term substitute into
the basis's exponent vectors alone, and `binomial_product` builds it.
Bounds: every row that enumerates partitions takes one box per ambient
length n in 1..n_max, the partitions with parts up to part_max (by default
n <= 3 and parts <= 3).
"""

from __future__ import annotations

import csv
import io
import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice, permutations, product
from math import prod
from operator import index
from typing import Any, Callable, Iterable, Iterator, Optional

from .algebra import (
    ONE,
    RationalFn,
    T,
    X,
    ZERO,
    _fsum,
    _image,
    canonical_str,
    evaluate,
    flip_qt,
    memo,
    monomial_rf,
    q_pow,
    subs_rational,
    t_pow,
    x_pow,
)
from .partitions import (
    Partition,
    _bounded_descending,
    contains,
    is_horizontal_strip,
    n_stat,
    n_stat_conj,
    partitions_in_box,
    rectangle,
    subpartitions,
    weight,
    zeros,
)
from .pochhammer import (
    Factors,
    binomial_product,
    partition_factors,
    poch,
    poch_partition,
    poch_partition_flipped,
    qt_factors,
)
from .qtnumbers import (
    XBAR,
    _bracket_rect_factors,
    _t_ratio_bracket,
    bracket_rect,
    g_product,
    gaussian_binomial,
    h_product,
    qt_binomial,
    qt_binomial_rect,
    qt_bracket,
    qt_number,
)
from .reports import IdentityReport
from .stirling import (
    _product_entry,
    f_factor,
    ordinary_alpha_stirling,
    s1,
    s2,
    u_limit,
    u_limit_direct,
    u_matrix,
    v_limit,
    v_limit_direct,
    v_matrix,
)
from .wfunctions import (
    generic_staircase_args,
    h_factor,
    staircase_args,
    w_hat_multi,
    w_multi,
    w_skew_single,
    w_staircase,
)

__all__ = [
    "SuiteConfig",
    "MANIFEST",
    "run_suite",
    "check_identity",
    "emit_table",
    "eval_point",
    "classical_stirling1",
    "classical_stirling2",
    "falling_factorial_coefficients",
]


@dataclass
class SuiteConfig:
    """Bounds, identity filter and seed for sampled checks."""

    n_max: int = 3
    part_max: int = 3
    identities: Optional[list[str]] = None
    seed: int = 0

    def __post_init__(self):
        # bounds are integers, as Partition's parts are; a float is a TypeError
        self.n_max, self.part_max = index(self.n_max), index(self.part_max)
        if isinstance(self.identities, str):
            raise ValueError("identities must be a list of ids, not one string")
        if self.n_max < 1:
            raise ValueError("n_max must be at least 1")
        if self.part_max < 0:
            raise ValueError("part_max must be nonnegative")


# ---------------------------------------------------------------------------
# classical oracles (independent of the qt machinery)
# ---------------------------------------------------------------------------

def falling_factorial_coefficients(m: int) -> list[int]:
    """Coefficients of x(x-1)...(x-m+1) in the power basis, degree 0..m."""
    coeffs = [1]
    for j in range(m):
        shifted = [0] + coeffs
        coeffs = [shifted[k] - (j * coeffs[k] if k < len(coeffs) else 0) for k in range(len(shifted))]
    return coeffs


def classical_stirling1(m: int, k: int) -> int:
    """Signed Stirling number of the first kind, from the expansion oracle."""
    coeffs = falling_factorial_coefficients(m)
    return coeffs[k] if 0 <= k < len(coeffs) else 0


def classical_stirling2(m: int, k: int) -> int:
    """Stirling number of the second kind, by S(i, j) = j S(i-1, j) + S(i-1, j-1)."""
    if not 0 <= k <= m:
        return 0
    row = [1] + [0] * k  # S(i, j) for j = 0..k, from i = 0
    for i in range(1, m + 1):
        for j in range(min(i, k), 0, -1):
            row[j] = j * row[j] + row[j - 1]
        row[0] = 0
    return row[k]


# ---------------------------------------------------------------------------
# checks of the identities that take more than an expression
# ---------------------------------------------------------------------------

#: A check's verdict: (flags, witness), witness None when the identity holds.
_Verdict = tuple[dict, Optional[str]]


def _equal(lhs: RationalFn, rhs: RationalFn) -> _Verdict:
    """The verdict of lhs == rhs; the witness is the canonical LHS - RHS."""
    return {}, None if lhs == rhs else canonical_str(lhs - rhs)


def _holds(ok: bool, witness: str) -> _Verdict:
    """The verdict of a check whose failure has a fixed explanation."""
    return {}, None if ok else witness


def _limit_bracket_factors(mu: Partition) -> Factors:
    """The factors of prod_i (1 - X t^{n-i})^{mu_i} / (1 - q t^{n-i})^{mu_i}."""
    xs = [((0, mu.n - i, 1), m) for i, m in enumerate(mu, start=1) if m]
    return chain(xs, qt_factors([-m for m in mu]))


def _limit_bracket(mu: Partition) -> RationalFn:
    """The product of _limit_bracket_factors(mu)."""
    return binomial_product(_limit_bracket_factors(mu))


#: kind -> (coefficient(nu, mu), basis(mu)): the binomial theorem (its coefficient
#: (-1)^|mu| q^{n(mu')} t^{-n(mu)} [nu mu] is v(nu, mu)), the changes of basis u and v,
#: and the defining expansions s1 and s2.  A basis is a pair (k, factors), X^k times
#: the product of the factor list: X^|mu|, (X; 1/q, 1/t)_mu, `_limit_bracket` and
#: `bracket_rect`.  No term has X in its denominator.
#: Each lambda looks its names up per call, so a traced or patched function is the one run.
_EXPANSIONS: dict[str, tuple[Callable[..., RationalFn], Callable[..., tuple[int, Iterable]]]] = {
    "binomial": (lambda nu, mu: v_matrix(nu, mu), lambda mu: (weight(mu), ())),
    "u": (lambda nu, mu: u_matrix(nu, mu), lambda mu: (weight(mu), ())),
    "v": (lambda nu, mu: v_matrix(nu, mu), lambda mu: (0, partition_factors((0, 0, 1), mu, True))),
    "s1": (lambda nu, mu: monomial_rf(e_q=-n_stat_conj(nu),
                                      e_t=2 * n_stat(mu) - (nu.n - 1) * weight(mu)) * s1(nu, mu),
           lambda mu: (0, _limit_bracket_factors(mu))),
    "s2": (lambda nu, mu: monomial_rf(e_q=n_stat_conj(mu),
                                      e_t=-2 * n_stat(nu) + (nu.n - 1) * weight(nu)) * s2(nu, mu),
           lambda mu: (0, _bracket_rect_factors(mu))),
}


@memo
def _expansion(nu: Partition, kind: str) -> RationalFn:
    """The expansion of kind at nu: coefficient(nu, mu) * basis(mu) summed over mu <= nu."""
    return _fsum(term for _, term in _terms_at(nu, kind, X))


def _terms_at(nu: Partition, kind: str, x) -> Iterator[tuple[Partition, RationalFn]]:
    """(mu, term at X = x) for every term of the expansion of kind at nu.

    x is 0 or a monomial q^a0 t^b0 X^c0 of coefficient 1.  No coefficient has
    X in it, and a basis is X^k times a factor list, so the substitution acts
    on exponent vectors: (a, b, c) -> (a + c a0, b + c b0, c c0), and X = 0
    drops every factor with c > 0 (no basis has c < 0) and zeroes a positive
    X power.
    `binomial_product` then builds the substituted basis; nothing is
    multiplied out before X is substituted.
    """
    coefficient, basis = _EXPANSIONS[kind]
    c0, (a0, b0, x0) = _image(x)
    if c0 not in (0, 1):
        raise ValueError(f"X = {x!r} is neither 0 nor a monomial of coefficient 1")
    for mu in subpartitions(nu):
        k, factors = basis(mu)
        if c0 == 0:
            power = ZERO if k > 0 else ONE
            factors = [(m, e) for m, e in factors if m[2] == 0]
        else:
            power = monomial_rf(e_q=k * a0, e_t=k * b0, e_X=k * x0)
            factors = [((a + c * a0, b + c * b0, c * x0), e) for (a, b, c), e in factors]
        yield mu, coefficient(nu, mu) * (power * binomial_product(factors))


def _x0_sums(nu: Partition) -> _Verdict:
    """The x = 0 summation identities for both kinds.

    The first-kind sum is run under both candidate t-exponent readings
    (2n(mu) - (n-1)|mu| and 2n(mu) + (n-1)|mu|); the report records which
    one holds.  The check passes when the minus reading and the second-kind
    sum both hold.
    """
    n = nu.n
    lhs = binomial_product(qt_factors([-m for m in nu]))
    first = list(_terms_at(nu, "s1", ZERO))
    outcomes = {
        "s1_exponent_minus": _fsum(v for _, v in first) == lhs,
        "s1_exponent_plus": _fsum(t_pow(2 * (n - 1) * weight(mu)) * v for mu, v in first) == lhs,
        "s2": _fsum(v for _, v in _terms_at(nu, "s2", ZERO)) == lhs,
    }
    passed = outcomes["s1_exponent_minus"] and outcomes["s2"]
    return outcomes, None if passed else f"outcomes: {outcomes}"


def _root_vanishing(nu: Partition, j: int, m: int) -> _Verdict:
    """Root vanishing of the bracket expansion at X = q^m t^{1-j}.

    For m = 0 the restricted-support sums are asserted as well: the
    first-kind survivors have mu_{n+1-j} = 0 (the limit-bracket factor
    kills the rest) and the second-kind survivors have mu_j = 0 (the
    bracket itself vanishes otherwise); the second-kind identity needs
    nu_{n+1-j} >= 1 so that its left side vanishes too.  The restricted
    sums are taken term by term at the root.
    """
    n = nu.n
    if not 1 <= j <= n:
        raise ValueError(f"j must lie in 1..{n}")
    if not 0 <= m < nu[j - 1]:
        raise ValueError(f"m must lie in 0..{nu[j - 1] - 1}")
    root = monomial_rf(e_q=m, e_t=1 - j)
    checks: dict[str, bool] = {}
    checks["s1_full_sum"] = subs_rational(_expansion(nu, "s1"), X=root).is_zero
    if m == 0:
        restricted = _fsum(term for mu, term in _terms_at(nu, "s1", root) if mu[n - j] == 0)
        checks["s1_restricted"] = restricted.is_zero
        if nu[n - j] >= 1:
            restricted2 = _fsum(term for mu, term in _terms_at(nu, "s2", root)
                                if mu[j - 1] == 0 and mu != nu)
            checks["s2_restricted"] = restricted2.is_zero
    return checks, None if all(checks.values()) else f"checks: {checks}"


def _delta(lam: Partition, mu: Partition) -> RationalFn:
    """The unit of the V-algebra: ONE at lam == mu, ZERO elsewhere."""
    return ONE if lam == mu else ZERO


def _pairs(bound: Partition) -> Iterator[tuple[Partition, Partition]]:
    """(lam, mu) for every lam <= bound, then every mu <= lam, each lexicographically ascending."""
    for lam in subpartitions(bound):
        for mu in subpartitions(lam):
            yield lam, mu


def _uv_inversion(nu: Partition) -> _Verdict:
    """sum_{mu <= lam <= nu} u(nu, lam) v(lam, mu) = delta_{nu, mu} for every mu <= nu.

    A failure records the first mu where the sum is off, and LHS - RHS there.
    """
    for mu in subpartitions(nu):
        total = _product_entry(u_matrix, v_matrix, nu, mu)
        expected = _delta(nu, mu)
        if total != expected:
            return {"mu": mu}, canonical_str(total - expected)
    return {}, None


def _inclusion_order(n: int, part_max: int) -> _Verdict:
    """Reflexivity, antisymmetry and transitivity of inclusion on one box."""
    box = list(partitions_in_box(n, part_max))
    ok = all(contains(lam, lam) for lam in box)
    for a in box:
        for b in box:
            if contains(a, b) and contains(b, a) and a != b:
                ok = False
            for c in box:
                if contains(a, b) and contains(b, c) and not contains(a, c):
                    ok = False
    return _holds(ok, "partial-order axiom violated")


def _limit_rule(mu: Partition, x: RationalFn) -> _Verdict:
    # a^|mu| (x/a)_mu at a -> 0, with X standing in for a
    wt = weight(mu)
    value = subs_rational(x_pow(wt) * poch_partition(x * x_pow(-1), mu), X=ZERO)
    sign = -1 if wt % 2 else 1
    return _equal(value, sign * x ** wt * monomial_rf(e_q=n_stat_conj(mu), e_t=-n_stat(mu)))


def _flip_formula(mu: Partition, x: RationalFn) -> _Verdict:
    """x^|mu| (1/x; q, t)_mu = (-1)^|mu| q^{n(mu')} t^{-n(mu)} (x; 1/q, 1/t)_mu."""
    w = weight(mu)
    lhs = x ** w * poch_partition(x.inverse(), mu)
    sign = -1 if w % 2 else 1
    return _equal(lhs, sign * monomial_rf(e_q=n_stat_conj(mu), e_t=-n_stat(mu))
                  * poch_partition_flipped(x, mu))


def _w_rect(n: int, k: int, args: tuple[RationalFn, ...]) -> _Verdict:
    """w at the rectangle (k^n) is q^{-nk} prod_x (q^{1-k} x; q)_k."""
    lhs = w_multi(rectangle(k, n), args)
    return _equal(lhs, prod((poch(q_pow(1 - k) * x, k) for x in args), start=q_pow(-n * k)))


def _w_vanishing(mu: Partition, lam: Partition) -> _Verdict:
    """w_mu(q^lam t^delta) = 0: w vanishes when mu is not contained in lam."""
    if contains(lam, mu):
        raise ValueError("vanishing check requires mu not contained in lam")
    return _equal(w_multi(mu, staircase_args(lam.parts)), ZERO)


def _w_symmetric(mu: Partition, args: tuple[RationalFn, ...]) -> _Verdict:
    base = w_multi(mu, args)
    return _holds(all(w_multi(mu, perm) == base for perm in permutations(args)),
                  "permuted value differs")


def _w_duality(mu: Partition, args: tuple[RationalFn, ...]) -> _Verdict:
    """w-hat_mu(x; q, t) = q^-|mu| t^{-2n(mu)+(n-1)|mu|} w_mu(1/x; 1/q, 1/t).

    The t-exponent is the one consistent with the recursion-built dual
    function (the normalization the u change-of-basis needs); the variant
    with -(n-1)|mu| belongs to a dual rescaled by t^{2(n-1)|mu|} and fails
    here for every nonempty mu when n > 1.  Both are exercised in tests.
    """
    n, wt = mu.n, weight(mu)
    lhs = w_hat_multi(mu, args)
    flipped = subs_rational(w_multi(mu, args), q=q_pow(-1), t=t_pow(-1), X=monomial_rf(e_X=-1))
    return _equal(lhs, monomial_rf(e_q=-wt, e_t=-2 * n_stat(mu) + (n - 1) * wt) * flipped)


def _w_bar_exists(mu: Partition, lam: Partition) -> _Verdict:
    """Both limits w-bar(mu, lam), plain and inverted, exist.

    They are read through the memoised u_limit and v_limit, which call w_bar
    without and with inversion and raise exactly when it raises, so the
    limit rows and the Stirling numbers reuse them.  A PoleError escapes as
    the failure.
    """
    u_limit(lam, mu)
    v_limit(lam, mu)
    return {}, None


def _gaussian_reduction(m: int, k: int) -> _Verdict:
    """The qt-binomial of one part is free of t and is the q-binomial; the witness is its value."""
    value = qt_binomial(Partition((m,)), Partition((k,)))
    t_free = value == subs_rational(value, t=1)  # an image of coefficient 1 keeps the factor maps
    return {}, None if value == gaussian_binomial(m, k) and t_free else canonical_str(value)


def _qt_number_agrees(z: tuple[int, ...], n: Optional[int] = None) -> _Verdict:
    """[z]_(1^n) as bracket and as binomial both equal the qt-number [z].

    With n = 1, [z] for z = (m,) is instead compared with the q-number [m]_q.
    A failure's witness is the bracket (or q-number) minus [z].
    """
    rhs = qt_number(z)
    if n is not None:
        if n != 1 or len(z) != 1:
            raise ValueError("the q-number reduction takes n = 1 and one entry z = (m,)")
        return _equal(_fsum(q_pow(i) for i in range(z[0])), rhs)
    ones = rectangle(1, len(z))
    bracket = qt_bracket(z, ones)
    ok = bracket == rhs and qt_binomial(z, ones) == rhs
    return {}, None if ok else canonical_str(bracket - rhs)


def _bracket_binomial_relation(z, mu: Partition) -> _Verdict:
    """[z]_mu against the prefactored qt-binomial form."""
    n = mu.n
    lhs = qt_bracket(z, mu)
    pref = t_pow(-2 * n_stat(mu) + (n - 1) * weight(mu)) * g_product(mu)
    pref = pref * binomial_product(qt_factors([-m for m in mu]))
    return _equal(lhs, pref * _t_ratio_bracket(mu) / h_product(mu) * qt_binomial(z, mu))


def _hg_flip(mu: Partition) -> _Verdict:
    """Flip covariance of the pair products h and g; a failure says which holds."""
    n, wt = mu.n, weight(mu)
    h = h_product(mu)
    ok_h = flip_qt(h) == t_pow(2 * n_stat(mu) - (n - 1) * wt) * h
    g = g_product(mu)
    sign = -1 if wt % 2 else 1
    ok_g = flip_qt(g) == sign * monomial_rf(
        e_q=-wt - n_stat_conj(mu), e_t=n_stat(mu) - (n - 1) * wt
    ) * g
    return {}, None if ok_h and ok_g else f"h ok: {ok_h}, g ok: {ok_g}"


def _stirling_diagonal(lam: Partition) -> _Verdict:
    one, two = s1(lam, lam), s2(lam, lam)
    ok = one == ONE and two == ONE
    return {}, None if ok else f"s1: {canonical_str(one)}, s2: {canonical_str(two)}"


def _valgebra_product(bound: Partition, factors, expected, witness: str) -> _Verdict:
    """a * b == expected in the V-algebra for each (a, b) of factors, at every pair within the bound."""
    return _holds(all(_product_entry(a, b, lam, mu) == expected(lam, mu)
                      for a, b in factors for lam, mu in _pairs(bound)), witness)


def _classical_stirling(m: int, k: int) -> _Verdict:
    """s1 and s2 of ((m), (k)) at t = q, q -> 1, against the classical oracles."""
    nu, mu = Partition((m,)), Partition((k,))
    got = ordinary_alpha_stirling("s1", nu, mu, 1), ordinary_alpha_stirling("s2", nu, mu, 1)
    want = classical_stirling1(m, k), classical_stirling2(m, k)
    return {}, None if got == want else "got ({}, {}), want ({}, {})".format(
        *map(canonical_str, got), *want)


# ---------------------------------------------------------------------------
# the identity table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Row:
    """One identity: an index enumerator and a check of those indices.

    indices(cfg) yields index dicts, and check(**indices) gives the verdict
    (flags, witness), whose flags join the index data and whose witness is
    None when the identity holds.
    """

    indices: Callable[[SuiteConfig], Iterable[dict]]
    check: Callable[..., _Verdict]

    def judge(self, identity_id: str, indices: dict) -> IdentityReport:
        """The report of one check; an exception of the check propagates."""
        flags, witness = self.check(**indices)
        data = {key: _plain(value) for key, value in chain(indices.items(), flags.items())}
        return IdentityReport(identity_id, data, passed=witness is None, witness=witness)


def _raised(identity_id: str, indices: dict, exc: Exception) -> IdentityReport:
    """The failing report of a check, or an enumerator ({} indices), that raised exc."""
    data = {key: _plain(value) for key, value in indices.items()}
    return IdentityReport(identity_id, data, passed=False, witness=f"{type(exc).__name__}: {exc}")


def _plain(value):
    """An index as report JSON: a partition as its parts, a function as its canonical string."""
    if isinstance(value, Partition):
        return list(value.parts)
    if isinstance(value, RationalFn):
        return str(value)
    if value is XBAR:
        return "xbar"
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


def _boxed(indices: Callable[..., Iterable[dict]],
           draw: Optional[Callable[[random.Random, int], Any]] = None):
    """Enumerator of indices(n, cap) over the boxes of a run, n in 1..n_max at cap = part_max.

    With draw, indices(n, cap, draw(rng, n)) also gets values drawn once per
    box from one random.Random(cfg.seed) per run.
    """
    def enumerate_indices(cfg: SuiteConfig) -> Iterator[dict]:
        rng = random.Random(cfg.seed) if draw else None
        cap = cfg.part_max
        for n in range(1, cfg.n_max + 1):
            yield from (indices(n, cap) if draw is None else indices(n, cap, draw(rng, n)))
    return enumerate_indices


def _each(key: str):
    """Enumerator of {key: p} for every partition p of every box of a run."""
    return _boxed(lambda n, cap: ({key: p} for p in partitions_in_box(n, cap)))


def _sample_exponent_args(rng: random.Random, n: int) -> tuple[RationalFn, ...]:
    """n monomial arguments q^e t^s, with distinct e >= 2 and s in 0..2."""
    exps = rng.sample(range(2, max(11, n + 2)), n)
    return tuple(monomial_rf(e_q=e, e_t=rng.randrange(0, 3)) for e in exps)


def _h_factor_indices(cfg: SuiteConfig) -> Iterator[dict]:
    yield from _each("mu")(cfg)
    for m in range(1, 5):
        # any single-row skew pair: both index products are empty
        yield {"lam": Partition((m,)), "mu": Partition((m - 1,))}


def _qt_number_indices(cfg: SuiteConfig) -> Iterator[dict]:
    yield from _boxed(lambda n, cap, zs: ({"z": z} for z in zs),
                      draw=lambda rng, n: [tuple(rng.randrange(0, 5) for _ in range(n))
                                           for _ in range(2)])(cfg)
    for m in range(6):
        yield {"z": (m,), "n": 1}


#: (lam, mu) for lam in every box and mu <= lam.
_LAM_MU = _boxed(lambda n, cap: (
    {"lam": lam, "mu": mu} for lam, mu in _pairs(rectangle(cap, n))))
#: {"bound": the rectangle} of every box
_BOUNDS = _boxed(lambda n, cap: [{"bound": rectangle(cap, n)}])
#: the points x of limit-rule
_LIMIT_POINTS = (monomial_rf(e_q=2, e_t=1), t_pow(3) * q_pow(1), q_pow(1))

_TABLE: dict[str, _Row] = {
    "inclusion-order": _Row(_boxed(lambda n, cap: [{"n": n, "part_max": cap}]), _inclusion_order),
    "poch-recurrence": _Row(
        lambda cfg: ({"m": m} for m in range(7)),
        lambda m: _equal(poch(X * T, m + 1), poch(X * T, m) * (ONE - X * T * q_pow(m)))),
    "poch-negative-index": _Row(
        lambda cfg: ({"m": m} for m in range(1, 6)),
        lambda m: _equal(poch(X, -m) * poch(X * q_pow(-m), m), ONE)),
    "poch-partition-single-part": _Row(
        lambda cfg: ({"m": m} for m in range(7)),
        lambda m: _equal(poch_partition(X, Partition((m,))), poch(X, m))),
    "flip-formula": _Row(
        _boxed(lambda n, cap: ({"mu": mu, "x": X} for mu in partitions_in_box(n, cap))),
        _flip_formula),
    "limit-rule": _Row(
        _boxed(lambda n, cap: (
            {"mu": mu, "x": x} for mu in partitions_in_box(n, cap) for x in _LIMIT_POINTS)),
        _limit_rule),
    "h-factor-normalization": _Row(
        _h_factor_indices, lambda mu, lam=None: _equal(h_factor(mu if lam is None else lam, mu), ONE)),
    "w-skew-triangularity": _Row(
        _boxed(lambda n, cap: (
            {"lam": lam, "mu": mu} for lam, mu in product(partitions_in_box(n, cap), repeat=2)
            if not is_horizontal_strip(lam, mu))),
        lambda lam, mu: _equal(w_skew_single(lam, mu, X), ZERO)),
    "w-rect": _Row(
        _boxed(lambda n, cap, arg_sets: (
            {"n": n, "k": k, "args": xs} for k in range(cap + 1) for xs in arg_sets),
            draw=lambda rng, n: [_sample_exponent_args(rng, n), generic_staircase_args(n)]),
        _w_rect),
    "w-staircase": _Row(
        _each("mu"),
        lambda mu: _equal(w_staircase(mu, X), w_multi(mu, generic_staircase_args(mu.n)))),
    "w-vanishing": _Row(
        _boxed(lambda n, cap: (
            {"mu": mu, "lam": lam} for mu, lam in product(partitions_in_box(n, cap), repeat=2)
            if not contains(lam, mu))),
        _w_vanishing),
    "w-symmetry": _Row(
        _boxed(lambda n, cap, xs: (
            {"mu": mu, "args": xs} for mu in partitions_in_box(n, cap)), draw=_sample_exponent_args),
        _w_symmetric),
    "w-duality": _Row(
        _boxed(lambda n, cap, arg_sets: (
            {"mu": mu, "args": xs} for mu in partitions_in_box(n, cap) for xs in arg_sets),
            draw=lambda rng, n: [generic_staircase_args(n), _sample_exponent_args(rng, n)]),
        _w_duality),
    "w-bar-limit-exists": _Row(
        _boxed(lambda n, cap: (
            {"mu": mu, "lam": lam} for mu, lam in product(partitions_in_box(n, cap), repeat=2)
            if contains(lam, mu))),
        _w_bar_exists),
    "gaussian-reduction": _Row(
        lambda cfg: ({"m": m, "k": k} for m in range(7) for k in range(m + 1)), _gaussian_reduction),
    "qt-binomial-rect": _Row(
        _each("mu"), lambda mu: _equal(qt_binomial(XBAR, mu), qt_binomial_rect(mu))),
    "binomial-theorem": _Row(
        _each("lam"), lambda lam: _equal(poch_partition(X, lam), _expansion(lam, "binomial"))),
    "qt-number-reduction": _Row(_qt_number_indices, _qt_number_agrees),
    "bracket-rect": _Row(
        _each("mu"), lambda mu: _equal(qt_bracket(XBAR, mu), bracket_rect(mu))),
    "bracket-binomial-relation": _Row(
        _boxed(lambda n, cap, zs: (
            {"z": z, "mu": mu} for mu in partitions_in_box(n, cap) for z in zs),
            draw=lambda rng, n: [tuple(rng.randrange(0, 5) for _ in range(n)), XBAR]),
        _bracket_binomial_relation),
    "change-of-basis-u": _Row(
        _each("lam"), lambda lam: _equal(poch_partition_flipped(X, lam), _expansion(lam, "u"))),
    "change-of-basis-v": _Row(
        _each("lam"), lambda lam: _equal(x_pow(weight(lam)), _expansion(lam, "v"))),
    "uv-inversion": _Row(_each("nu"), _uv_inversion),
    "h-g-flip": _Row(_each("mu"), _hg_flip),
    "u-limit-closed-form": _Row(
        _LAM_MU, lambda lam, mu: _equal(u_limit(lam, mu), u_limit_direct(lam, mu))),
    "v-limit-closed-form": _Row(
        _LAM_MU, lambda lam, mu: _equal(v_limit(lam, mu), v_limit_direct(lam, mu))),
    "stirling-diagonal": _Row(_each("lam"), _stirling_diagonal),
    "stirling-zero": _Row(
        _boxed(lambda n, cap: (
            {"lam": lam} for lam in partitions_in_box(n, cap) if lam[n - 1] != 0)),
        lambda lam: _holds(s1(lam, zeros(lam.n)).is_zero and s2(lam, zeros(lam.n)).is_zero,
                           "nonzero value at the empty partition")),
    "defining-expansion-s1": _Row(
        _each("nu"), lambda nu: _equal(bracket_rect(nu), _expansion(nu, "s1"))),
    "defining-expansion-s2": _Row(
        _each("nu"), lambda nu: _equal(_limit_bracket(nu), _expansion(nu, "s2"))),
    "stirling-inversion": _Row(
        _BOUNDS, lambda bound: _valgebra_product(bound, ((s1, s2), (s2, s1)), _delta,
                                                 "a product of s1 and s2 differs from delta")),
    "valgebra-identity": _Row(
        _BOUNDS, lambda bound: _valgebra_product(bound, ((_delta, s1), (s1, _delta)), s1,
                                                 "delta is not neutral for s1")),
    "adjacent-weight": _Row(
        _boxed(lambda n, cap: (
            {"nu": nu, "mu": mu} for nu, mu in _pairs(rectangle(cap, n))
            if weight(nu) - weight(mu) == 1)),
        lambda nu, mu: _equal(s1(nu, mu), -s2(nu, mu))),
    "x0-sums": _Row(_each("nu"), _x0_sums),
    "root-vanishing": _Row(
        _boxed(lambda n, cap: (
            {"nu": nu, "j": j, "m": m} for nu in partitions_in_box(n, cap)
            for j in range(1, n + 1) for m in range(nu[j - 1]))),
        _root_vanishing),
    "classical-stirling": _Row(
        lambda cfg: ({"m": m, "k": k} for m in range(6) for k in range(m + 1)), _classical_stirling),
}

#: Every identity the suite must register; the completeness test enumerates this.
MANIFEST: tuple[str, ...] = tuple(_TABLE)


def check_identity(identity_id: str, **indices) -> IdentityReport:
    """Check one identity at one index dict, as the suite would report it.

    The indices are an index dict of the identity's enumerator, with
    partitions and functions as objects, e.g.
    check_identity("flip-formula", mu=Partition((2, 1)), x=X) or
    check_identity("root-vanishing", nu=Partition((2, 1)), j=1, m=1).
    The report's index_data is the same dict as plain JSON, followed by the
    flags of the check's verdict.  An exception of the check propagates; the
    suite reports it instead.
    """
    if identity_id not in _TABLE:
        raise ValueError(f"unknown identity {identity_id!r}")
    return _TABLE[identity_id].judge(identity_id, indices)


def run_suite(cfg: SuiteConfig) -> list[IdentityReport]:
    """Run all (or the selected) identities; failures are data, not exceptions.

    A check or an enumerator that raises becomes a failing report, except
    for RecursionError: an index too deep for the interpreter is bad input,
    not a failing identity, so it propagates as it does from emit_table and
    eval_point.
    """
    selected = cfg.identities if cfg.identities else list(_TABLE)
    unknown = [i for i in selected if i not in _TABLE]
    if unknown:
        raise ValueError(f"unknown identities: {unknown}")
    reports: list[IdentityReport] = []
    for identity_id, row in _TABLE.items():
        if identity_id not in selected:
            continue
        started = time.perf_counter()
        try:
            for indices in row.indices(cfg):
                try:
                    report = row.judge(identity_id, indices)
                except RecursionError:
                    raise
                except Exception as exc:  # a PoleError here is a genuine failure
                    report = _raised(identity_id, indices, exc)
                report.elapsed = time.perf_counter() - started
                started = time.perf_counter()
                reports.append(report)
        except RecursionError:
            raise
        except Exception as exc:  # from an enumerator
            reports.append(_raised(identity_id, {}, exc))
    return reports


# ---------------------------------------------------------------------------
# tables and point evaluation
# ---------------------------------------------------------------------------

#: The eval ids `table` can emit, each built by its `_EVAL_EXPRS` builder.
_TABLE_KINDS = ("s1", "s2", "binomial", "bracket")
#: The most chains mu <= lam <= nu <= bound a table may hold: the terms that its
#: s1 and s2 entries sum.  They bound a table's work, where its (nu, mu) pairs
#: did not: the pairs under one part N number about N^2/2 and the chains
#: C(N+3, 3).  (4,4,4) and (3,3,3,3) hold 4116 chains each, (5,5,5) 14112
#: and (47,) 19600; (48,) holds 20825 and (10,10) 26026.
_TABLE_CHAINS_MAX = 20000


def _chains(bound: Partition) -> Iterator[int]:
    """A 1 for each chain mu <= lam <= nu <= bound, walked lazily, never through the lattice memo."""
    for nu in _bounded_descending([(0, p) for p in bound.parts]):
        for lam in _bounded_descending([(0, p) for p in nu]):
            for _ in _bounded_descending([(0, p) for p in lam]):
                yield 1


def emit_table(kind: str, bound: Partition, fmt: str = "json") -> str:
    """The text of all entries (nu, mu, value) for mu <= nu <= bound, as JSON or CSV.

    A bound with more than _TABLE_CHAINS_MAX chains, as every bound with a
    part of 48 or more has, is a ValueError before any entry is computed;
    the chains are counted lazily, up to one past the cap.
    """
    if kind not in _TABLE_KINDS:
        raise ValueError(f"unknown table kind {kind!r}")
    if fmt not in ("json", "csv"):
        raise ValueError(f"unknown format {fmt!r}")
    if sum(islice(_chains(bound), _TABLE_CHAINS_MAX + 1)) > _TABLE_CHAINS_MAX:
        spelled = ",".join(map(str, bound.parts))
        raise ValueError(f"the bound {spelled} holds more than {_TABLE_CHAINS_MAX} chains "
                         "mu <= lam <= nu")
    fn = _EVAL_EXPRS[kind][1]
    entries = [(nu, mu, canonical_str(fn(nu.parts, mu.parts))) for nu, mu in _pairs(bound)]
    if fmt == "json":
        doc = {
            "n": bound.n,
            "bound": list(bound.parts),
            "entries": [
                {"nu": list(nu.parts), "mu": list(mu.parts), "value": value}
                for nu, mu, value in entries
            ],
        }
        return json.dumps(doc, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, quoting=csv.QUOTE_ALL, lineterminator="\n")
    writer.writerow(["nu", "mu", "value"])
    for nu, mu, value in entries:
        writer.writerow([",".join(map(str, nu.parts)), ",".join(map(str, mu.parts)), value])
    return buf.getvalue()


def _gaussian(m: tuple[int, ...], k: tuple[int, ...]) -> RationalFn:
    if len(m) != 1 or len(k) != 1:
        got = ";".join(",".join(map(str, g)) for g in (m, k))
        raise ValueError(f"gaussian takes one integer in each group m;k, got {got}")
    return gaussian_binomial(m[0], k[0])


#: name -> (number of ';'-separated integer groups, builder)
_EVAL_EXPRS: dict[str, tuple[int, Callable[..., RationalFn]]] = {
    "qt_number": (1, lambda z: qt_number(z)),
    "binomial": (2, lambda z, mu: qt_binomial(z, Partition(mu))),
    "bracket": (2, lambda z, mu: qt_bracket(z, Partition(mu))),
    "bracket_rect": (1, lambda mu: bracket_rect(Partition(mu))),
    "gaussian": (2, _gaussian),
    "s1": (2, lambda nu, mu: s1(Partition(nu), Partition(mu))),
    "s2": (2, lambda nu, mu: s2(Partition(nu), Partition(mu))),
    "u": (2, lambda lam, mu: u_matrix(Partition(lam), Partition(mu))),
    "v": (2, lambda lam, mu: v_matrix(Partition(lam), Partition(mu))),
    "f": (1, lambda mu: f_factor(Partition(mu))),
    "h": (2, lambda lam, mu: h_factor(Partition(lam), Partition(mu))),
    "w": (2, lambda mu, z: w_multi(Partition(mu), staircase_args(z))),
    "w_hat": (2, lambda mu, z: w_hat_multi(Partition(mu), staircase_args(z))),
    "w_staircase": (1, lambda mu: w_staircase(Partition(mu), X)),
}


#: The largest absolute value of an integer in an expression id.  Degrees
#: grow at least linearly in an id's integers: at this bound qt_number already
#: builds a polynomial of 100000 terms and f an integer of 456574 digits.  The
#: bound does not make every id below it fast: bracket_rect's degree grows
#: with the square of its parts.
_ID_INT_MAX = 100000


@memo
def parse_expression(expr: str) -> RationalFn:
    """Evaluate an expression id of the form name(ints;ints;...) symbolically.

    Each ';'-separated group of comma-separated integers is one argument of
    the quantity named; an empty group or a wrong number of groups is a
    ValueError, and so is an integer past _ID_INT_MAX in absolute value.
    Values are memoised once, under the id string exactly as given, so a
    repeated id costs one memo hit and is not parsed or checked again; an id
    that raises stores nothing.  Two spellings of one id (say, with other
    whitespace) are two entries with equal values, one object only where the
    builder keeps its own memo.
    Examples: "qt_number(2,1)", "s1(2,1;1,0)", "binomial(2;1)", "gaussian(2;1)".
    """
    expr = expr.strip()
    if not expr.endswith(")") or "(" not in expr:
        raise ValueError(f"malformed expression {expr!r}")
    name, _, inner = expr[:-1].partition("(")
    name = name.strip()
    if name not in _EVAL_EXPRS:
        raise ValueError(f"unknown expression id {name!r}; known: {sorted(_EVAL_EXPRS)}")
    groups = []
    for chunk in inner.split(";"):
        chunk = chunk.strip()
        if not chunk:
            raise ValueError(f"empty argument group in {expr!r}")
        groups.append(tuple(int(v) for v in chunk.split(",")))
    arity, build = _EVAL_EXPRS[name]
    if len(groups) != arity:
        raise ValueError(f"{name} takes {arity} argument group(s), got {len(groups)}")
    if max(map(abs, chain(*groups))) > _ID_INT_MAX:
        spelled = ";".join(",".join(map(str, g)) for g in groups)
        raise ValueError(f"an integer of {name}({spelled}) exceeds {_ID_INT_MAX} in absolute value")
    return build(*groups)


def eval_point(expr: str, q0, t0, x0=0) -> Fraction:
    """Exact rational value of a library quantity at a rational point.

    The rational function comes from parse_expression, whose one memo is
    keyed by the id string as given: a repeated id costs one memo hit plus
    one integer evaluation (algebra.evaluate) and is not parsed again.
    """
    return evaluate(parse_expression(expr), q0, t0, x0)
