"""Identity-verification suite, table emission and exact point evaluation.

Every identity the library claims is registered here under a stable id and
checked by exact rational-function equality over configurable desk-scale
index bounds.  Default bounds: partitions with parts up to part_max for
ambient n <= 2, and parts up to min(part_max, 2) for n = 3, which keeps a
full run in the minutes range.  The w-function layer runs at the full
part_max for every n.
"""

from __future__ import annotations

import csv
import io
import json
import random
import time
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import Callable, Iterator, Optional

from .algebra import (
    ONE,
    Q,
    RationalFn,
    T,
    X,
    ZERO,
    canonical_str,
    evaluate,
    limit_q_to_1,
    memo,
    monomial_rf,
    q_pow,
    subs_rational,
    substitute_t_eq_q_pow,
    t_pow,
    x_pow,
)
from .partitions import (
    Partition,
    contains,
    is_horizontal_strip,
    n_stat,
    n_stat_conj,
    partitions_between,
    partitions_in_box,
    rectangle,
    subpartitions,
    weight,
    zeros,
)
from .pochhammer import (
    flip_poch_identity_check,
    poch,
    poch_partition,
    poch_partition_flipped,
    qt_factor_product,
)
from .qtnumbers import (
    XBAR,
    binomial_theorem_check,
    bracket_binomial_relation_check,
    bracket_rect,
    gaussian_binomial,
    qt_binomial,
    qt_binomial_rect,
    qt_bracket,
    qt_number,
)
from .reports import IdentityReport, equality_report, zero_report
from .stirling import (
    f_factor,
    hg_flip_check,
    identity_matrix,
    s1,
    s2,
    stirling_inversion_check,
    stirling_matrix,
    u_limit,
    u_limit_direct,
    u_matrix,
    uv_inversion_check,
    v_limit,
    v_limit_direct,
    v_matrix,
    valgebra_multiply,
)
from .wfunctions import (
    duality_check,
    generic_staircase_args,
    h_factor,
    staircase_args,
    w_bar,
    w_hat_multi,
    w_multi,
    w_skew_single,
    w_staircase,
    w_vanishing_check,
)

__all__ = [
    "SuiteConfig",
    "MANIFEST",
    "registered_identities",
    "run_suite",
    "check_x0_sums",
    "check_root_vanishing",
    "emit_table",
    "eval_point",
    "classical_stirling1",
    "classical_stirling2",
    "falling_factorial_coefficients",
]


@dataclass
class SuiteConfig:
    """Bounds, identity filter, seed for sampled checks, optional report path."""

    n_max: int = 3
    part_max: int = 3
    identities: Optional[list[str]] = None
    seed: int = 0
    output_path: Optional[str] = None

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError("n_max must be at least 1")
        if self.part_max < 0:
            raise ValueError("part_max must be nonnegative")

    def w_boxes(self) -> Iterator[tuple[int, int]]:
        for n in range(1, self.n_max + 1):
            yield n, self.part_max

    def stirling_boxes(self) -> Iterator[tuple[int, int]]:
        for n in range(1, self.n_max + 1):
            yield n, self.part_max if n <= 2 else min(self.part_max, 2)


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
    """Stirling number of the second kind, by inverting the first-kind matrix."""
    size = m + 1
    a = [[classical_stirling1(i, j) for j in range(size)] for i in range(size)]
    inv = [[Fraction(0)] * size for _ in range(size)]
    for i in range(size):
        inv[i][i] = Fraction(1)
        for j in range(i - 1, -1, -1):
            acc = Fraction(0)
            for r in range(j + 1, i + 1):
                acc += inv[i][r] * a[r][j]
            inv[i][j] = -acc
    value = inv[m][k]
    assert value.denominator == 1
    return int(value)


# ---------------------------------------------------------------------------
# section-4 checks
# ---------------------------------------------------------------------------

def _limit_bracket(mu: Partition) -> RationalFn:
    # prod_i (1 - X t^{n-i})^{mu_i} / (1 - q t^{n-i})^{mu_i}
    n = mu.n
    out = ONE
    for i in range(1, n + 1):
        if mu[i - 1]:
            out = out * ((ONE - monomial_rf(e_t=n - i, e_X=1))
                         / (ONE - monomial_rf(e_q=1, e_t=n - i))) ** mu[i - 1]
    return out


def _inv_qt_powers(mu: Partition) -> RationalFn:
    # prod_i (1 - q t^{n-i})^{-mu_i}
    return qt_factor_product([-m for m in mu])


def _expansion_s1_sum(nu: Partition, restrict: Optional[Callable[[Partition], bool]] = None) -> RationalFn:
    n = nu.n
    total = ZERO
    for mu in subpartitions(nu):
        if restrict is not None and not restrict(mu):
            continue
        coeff = monomial_rf(e_q=-n_stat_conj(nu), e_t=2 * n_stat(mu) - (n - 1) * weight(mu))
        total = total + coeff * s1(nu, mu) * _limit_bracket(mu)
    return total


def _expansion_s2_sum(nu: Partition, restrict: Optional[Callable[[Partition], bool]] = None) -> RationalFn:
    n = nu.n
    total = ZERO
    for mu in subpartitions(nu):
        if restrict is not None and not restrict(mu):
            continue
        coeff = monomial_rf(e_q=n_stat_conj(mu), e_t=-2 * n_stat(nu) + (n - 1) * weight(nu))
        total = total + coeff * s2(nu, mu) * bracket_rect(mu)
    return total


def check_x0_sums(nu: Partition) -> IdentityReport:
    """The x = 0 summation identities for both kinds.

    The first-kind sum is run under both candidate t-exponent readings
    (2n(mu) - (n-1)|mu| and 2n(mu) + (n-1)|mu|); the report records which
    one holds.  The check passes when the minus reading and the second-kind
    sum both hold.
    """
    n = nu.n
    lhs = _inv_qt_powers(nu)
    outcomes = {}
    for label, sign in (("s1_exponent_minus", -1), ("s1_exponent_plus", +1)):
        total = ZERO
        for mu in subpartitions(nu):
            coeff = monomial_rf(e_q=-n_stat_conj(nu), e_t=2 * n_stat(mu) + sign * (n - 1) * weight(mu))
            total = total + coeff * s1(nu, mu) * _inv_qt_powers(mu)
        outcomes[label] = total == lhs
    total = ZERO
    for mu in subpartitions(nu):
        coeff = monomial_rf(e_q=n_stat_conj(mu), e_t=-2 * n_stat(nu) + (n - 1) * weight(nu))
        total = total + coeff * s2(nu, mu) * _inv_qt_powers(mu)
    outcomes["s2"] = total == lhs
    passed = outcomes["s1_exponent_minus"] and outcomes["s2"]
    return IdentityReport(
        "x0-sums",
        {"nu": list(nu.parts), **outcomes},
        passed=passed,
        witness=None if passed else f"outcomes: {outcomes}",
    )


def check_root_vanishing(nu: Partition, j: int, m_j: int) -> IdentityReport:
    """Root vanishing of the bracket expansion at X = q^{m_j} t^{1-j}.

    For m_j = 0 the restricted-support sums are asserted as well: the
    first-kind survivors have mu_{n+1-j} = 0 (the limit-bracket factor
    kills the rest) and the second-kind survivors have mu_j = 0 (the
    bracket itself vanishes otherwise); the second-kind identity needs
    nu_{n+1-j} >= 1 so that its left side vanishes too.
    """
    n = nu.n
    if not 1 <= j <= n:
        raise ValueError(f"j must lie in 1..{n}")
    if not 0 <= m_j < nu[j - 1]:
        raise ValueError(f"m_j must lie in 0..{nu[j - 1] - 1}")
    root = monomial_rf(e_q=m_j, e_t=1 - j)
    checks: dict[str, bool] = {}
    full = subs_rational(_expansion_s1_sum(nu), X=root)
    checks["s1_full_sum"] = full.is_zero
    if m_j == 0:
        restricted = subs_rational(
            _expansion_s1_sum(nu, restrict=lambda mu: mu[n - j] == 0), X=root
        )
        checks["s1_restricted"] = restricted.is_zero
        if nu[n - j] >= 1:
            restricted2 = subs_rational(
                _expansion_s2_sum(nu, restrict=lambda mu: mu[j - 1] == 0 and mu != nu), X=root
            )
            checks["s2_restricted"] = restricted2.is_zero
    passed = all(checks.values())
    return IdentityReport(
        "root-vanishing",
        {"nu": list(nu.parts), "j": j, "m": m_j, **checks},
        passed=passed,
        witness=None if passed else f"checks: {checks}",
    )


# ---------------------------------------------------------------------------
# identity registry
# ---------------------------------------------------------------------------

_REGISTRY: dict[str, Callable[[SuiteConfig], Iterator[IdentityReport]]] = {}


def _identity(identity_id: str):
    def wrap(fn):
        _REGISTRY[identity_id] = fn
        return fn
    return wrap


def registered_identities() -> list[str]:
    return list(_REGISTRY)


def _sample_exponent_args(rng: random.Random, n: int) -> tuple[RationalFn, ...]:
    exps = rng.sample(range(2, 11), n)
    return tuple(monomial_rf(e_q=e, e_t=rng.randrange(0, 3)) for e in exps)


@_identity("inclusion-order")
def _chk_inclusion(cfg: SuiteConfig) -> Iterator[IdentityReport]:
    for n, cap in cfg.stirling_boxes():
        box = list(partitions_in_box(n, cap))
        ok = all(contains(lam, lam) for lam in box)
        for a in box:
            for b in box:
                if contains(a, b) and contains(b, a) and a != b:
                    ok = False
                for c in box:
                    if contains(a, b) and contains(b, c) and not contains(a, c):
                        ok = False
        yield IdentityReport("inclusion-order", {"n": n, "part_max": cap}, passed=ok,
                             witness=None if ok else "partial-order axiom violated")


@_identity("poch-recurrence")
def _chk_poch_rec(cfg: SuiteConfig) -> Iterator[IdentityReport]:
    a = X * t_pow(1)
    for m in range(0, 7):
        lhs = poch(a, m + 1)
        rhs = poch(a, m) * (ONE - a * q_pow(m))
        yield equality_report("poch-recurrence", {"m": m}, lhs, rhs)


@_identity("poch-negative-index")
def _chk_poch_neg(cfg: SuiteConfig) -> Iterator[IdentityReport]:
    a = X
    for m in range(1, 6):
        lhs = poch(a, -m) * poch(a * q_pow(-m), m)
        yield equality_report("poch-negative-index", {"m": m}, lhs, ONE)


@_identity("poch-partition-single-part")
def _chk_poch_single(cfg: SuiteConfig) -> Iterator[IdentityReport]:
    a = X
    for m in range(0, 7):
        lhs = poch_partition(a, Partition((m,)))
        yield equality_report("poch-partition-single-part", {"m": m}, lhs, poch(a, m))


@_identity("flip-formula")
def _chk_flip(cfg: SuiteConfig) -> Iterator[IdentityReport]:
    for n, cap in cfg.w_boxes():
        for mu in partitions_in_box(n, cap):
            yield flip_poch_identity_check(X, mu)


@_identity("limit-rule")
def _chk_limit_rule(cfg: SuiteConfig) -> Iterator[IdentityReport]:
    # a^|mu| (x/a)_mu at a -> 0, with X standing in for a
    points = (monomial_rf(e_q=2, e_t=1), t_pow(3) * q_pow(1), q_pow(1))
    for n, cap in cfg.stirling_boxes():
        for mu in partitions_in_box(n, cap):
            wt = weight(mu)
            for x0 in points:
                value = subs_rational(x_pow(wt) * poch_partition(x0 * x_pow(-1), mu), X=ZERO)
                sign = -1 if wt % 2 else 1
                expect = sign * x0 ** wt * monomial_rf(e_q=n_stat_conj(mu), e_t=-n_stat(mu))
                yield equality_report("limit-rule", {"mu": list(mu.parts), "x": str(x0)}, value, expect)


@_identity("h-factor-normalization")
def _chk_h_norm(cfg: SuiteConfig) -> Iterator[IdentityReport]:
    for n, cap in cfg.w_boxes():
        for mu in partitions_in_box(n, cap):
            yield equality_report("h-factor-normalization", {"mu": list(mu.parts)},
                                  h_factor(mu, mu), ONE)
    for m in range(1, 5):
        # any single-row skew pair: both index products are empty
        yield equality_report("h-factor-normalization", {"lam": [m], "mu": [m - 1]},
                              h_factor(Partition((m,)), Partition((m - 1,))), ONE)


@_identity("w-skew-triangularity")
def _chk_skew_tri(cfg: SuiteConfig) -> Iterator[IdentityReport]:
    for n, cap in cfg.w_boxes():
        box = list(partitions_in_box(n, cap))
        for lam in box:
            for mu in box:
                if is_horizontal_strip(lam, mu):
                    continue
                yield zero_report("w-skew-triangularity",
                                  {"lam": list(lam.parts), "mu": list(mu.parts)},
                                  w_skew_single(lam, mu, X))


@_identity("w-rect")
def _chk_w_rect(cfg: SuiteConfig) -> Iterator[IdentityReport]:
    rng = random.Random(cfg.seed)
    for n, cap in cfg.w_boxes():
        arg_sets = [_sample_exponent_args(rng, n), generic_staircase_args(n)]
        for k in range(0, cap + 1):
            mu = rectangle(k, n)
            for xs in arg_sets:
                lhs = w_multi(mu, xs)
                rhs = q_pow(-n * k)
                for x in xs:
                    rhs = rhs * poch(q_pow(1 - k) * x, k)
                yield equality_report("w-rect", {"n": n, "k": k, "args": [str(x) for x in xs]},
                                      lhs, rhs)


@_identity("w-staircase")
def _chk_w_staircase(cfg: SuiteConfig) -> Iterator[IdentityReport]:
    for n, cap in cfg.w_boxes():
        for mu in partitions_in_box(n, cap):
            lhs = w_staircase(mu, X)
            rhs = w_multi(mu, generic_staircase_args(n))
            yield equality_report("w-staircase", {"mu": list(mu.parts)}, lhs, rhs)


@_identity("w-vanishing")
def _chk_w_vanishing(cfg: SuiteConfig) -> Iterator[IdentityReport]:
    for n, cap in cfg.w_boxes():
        box = list(partitions_in_box(n, cap))
        zero_on_contained: list[tuple] = []
        for mu in box:
            for lam in box:
                if contains(lam, mu):
                    if weight(mu) and w_multi(mu, staircase_args(lam.parts)).is_zero:
                        zero_on_contained.append((mu.parts, lam.parts))
                    continue
                yield w_vanishing_check(mu, lam)
        if zero_on_contained:
            # flagged for review, not a failure: the theory does not pin these down
            yield IdentityReport("w-vanishing",
                                 {"n": n, "flagged_zero_on_contained": zero_on_contained},
                                 passed=True)


@_identity("w-symmetry")
def _chk_w_symmetry(cfg: SuiteConfig) -> Iterator[IdentityReport]:
    rng = random.Random(cfg.seed)
    for n, cap in cfg.w_boxes():
        xs = _sample_exponent_args(rng, n)
        for mu in partitions_in_box(n, cap):
            base = w_multi(mu, xs)
            ok = all(w_multi(mu, perm) == base for perm in permutations(xs))
            yield IdentityReport("w-symmetry",
                                 {"mu": list(mu.parts), "args": [str(x) for x in xs]},
                                 passed=ok,
                                 witness=None if ok else "permuted value differs")


@_identity("w-duality")
def _chk_w_duality(cfg: SuiteConfig) -> Iterator[IdentityReport]:
    rng = random.Random(cfg.seed)
    for n, cap in cfg.w_boxes():
        arg_sets = [generic_staircase_args(n), _sample_exponent_args(rng, n)]
        for mu in partitions_in_box(n, cap):
            for xs in arg_sets:
                yield duality_check(mu, xs)


@_identity("w-bar-limit-exists")
def _chk_w_bar_exists(cfg: SuiteConfig) -> Iterator[IdentityReport]:
    for n, cap in cfg.stirling_boxes():
        box = list(partitions_in_box(n, cap))
        for mu in box:
            for lam in box:
                if not contains(lam, mu):
                    continue
                for invert in (False, True):
                    w_bar(mu, lam, invert=invert)  # PoleError would escape as failure
                yield IdentityReport("w-bar-limit-exists",
                                     {"mu": list(mu.parts), "lam": list(lam.parts)}, passed=True)


@_identity("gaussian-reduction")
def _chk_gaussian(cfg: SuiteConfig) -> Iterator[IdentityReport]:
    for m in range(0, 7):
        for k in range(0, m + 1):
            value = qt_binomial(Partition((m,)), Partition((k,)))
            t_free = value == subs_rational(value, t=7)
            ok = value == gaussian_binomial(m, k) and t_free
            yield IdentityReport("gaussian-reduction", {"m": m, "k": k}, passed=ok,
                                 witness=None if ok else canonical_str(value))


@_identity("qt-binomial-rect")
def _chk_binom_rect(cfg: SuiteConfig) -> Iterator[IdentityReport]:
    for n, cap in cfg.stirling_boxes():
        for mu in partitions_in_box(n, cap):
            yield equality_report("qt-binomial-rect", {"mu": list(mu.parts)},
                                  qt_binomial(XBAR, mu), qt_binomial_rect(mu))


@_identity("binomial-theorem")
def _chk_binom_thm(cfg: SuiteConfig) -> Iterator[IdentityReport]:
    for n, cap in cfg.stirling_boxes():
        for lam in partitions_in_box(n, cap):
            yield binomial_theorem_check(lam)


@_identity("qt-number-reduction")
def _chk_qt_number(cfg: SuiteConfig) -> Iterator[IdentityReport]:
    rng = random.Random(cfg.seed)
    for n, cap in cfg.stirling_boxes():
        ones = rectangle(1, n)
        for _ in range(2):
            z = tuple(rng.randrange(0, 5) for _ in range(n))
            lhs = qt_bracket(z, ones)
            mid = qt_binomial(z, ones)
            rhs = qt_number(z)
            ok = lhs == rhs and mid == rhs
            yield IdentityReport("qt-number-reduction", {"z": list(z)}, passed=ok,
                                 witness=None if ok else canonical_str(lhs - rhs))
    for m in range(0, 6):
        lhs = qt_number((m,))
        rhs = (ONE - q_pow(m)) / (ONE - Q)
        yield equality_report("qt-number-reduction", {"z": [m], "n": 1}, lhs, rhs)


@_identity("bracket-rect")
def _chk_bracket_rect(cfg: SuiteConfig) -> Iterator[IdentityReport]:
    for n, cap in cfg.stirling_boxes():
        for mu in partitions_in_box(n, cap):
            lhs = qt_bracket(XBAR, mu)
            yield equality_report("bracket-rect", {"mu": list(mu.parts)}, lhs, bracket_rect(mu))


@_identity("bracket-binomial-relation")
def _chk_bracket_binom(cfg: SuiteConfig) -> Iterator[IdentityReport]:
    rng = random.Random(cfg.seed)
    for n, cap in cfg.stirling_boxes():
        zs = [tuple(rng.randrange(0, 5) for _ in range(n)), XBAR]
        for mu in partitions_in_box(n, cap):
            for z in zs:
                yield bracket_binomial_relation_check(z, mu)


@_identity("change-of-basis-u")
def _chk_basis_u(cfg: SuiteConfig) -> Iterator[IdentityReport]:
    for n, cap in cfg.stirling_boxes():
        for lam in partitions_in_box(n, cap):
            lhs = poch_partition_flipped(X, lam)
            rhs = ZERO
            for mu in subpartitions(lam):
                rhs = rhs + u_matrix(lam, mu) * x_pow(weight(mu))
            yield equality_report("change-of-basis-u", {"lam": list(lam.parts)}, lhs, rhs)


@_identity("change-of-basis-v")
def _chk_basis_v(cfg: SuiteConfig) -> Iterator[IdentityReport]:
    for n, cap in cfg.stirling_boxes():
        for lam in partitions_in_box(n, cap):
            lhs = x_pow(weight(lam))
            rhs = ZERO
            for mu in subpartitions(lam):
                rhs = rhs + v_matrix(lam, mu) * poch_partition_flipped(X, mu)
            yield equality_report("change-of-basis-v", {"lam": list(lam.parts)}, lhs, rhs)


@_identity("uv-inversion")
def _chk_uv_inv(cfg: SuiteConfig) -> Iterator[IdentityReport]:
    for n, cap in cfg.stirling_boxes():
        for nu in partitions_in_box(n, cap):
            yield uv_inversion_check(nu)


@_identity("h-g-flip")
def _chk_hg(cfg: SuiteConfig) -> Iterator[IdentityReport]:
    for n, cap in cfg.stirling_boxes():
        for mu in partitions_in_box(n, cap):
            yield hg_flip_check(mu)


@_identity("u-limit-closed-form")
def _chk_u_limit(cfg: SuiteConfig) -> Iterator[IdentityReport]:
    for n, cap in cfg.stirling_boxes():
        box = list(partitions_in_box(n, cap))
        for lam in box:
            for mu in subpartitions(lam):
                yield equality_report("u-limit-closed-form",
                                      {"lam": list(lam.parts), "mu": list(mu.parts)},
                                      u_limit(lam, mu), u_limit_direct(lam, mu))


@_identity("v-limit-closed-form")
def _chk_v_limit(cfg: SuiteConfig) -> Iterator[IdentityReport]:
    for n, cap in cfg.stirling_boxes():
        box = list(partitions_in_box(n, cap))
        for lam in box:
            for mu in subpartitions(lam):
                yield equality_report("v-limit-closed-form",
                                      {"lam": list(lam.parts), "mu": list(mu.parts)},
                                      v_limit(lam, mu), v_limit_direct(lam, mu))


@_identity("stirling-diagonal")
def _chk_diag(cfg: SuiteConfig) -> Iterator[IdentityReport]:
    for n, cap in cfg.stirling_boxes():
        for lam in partitions_in_box(n, cap):
            ok = s1(lam, lam) == ONE and s2(lam, lam) == ONE
            yield IdentityReport("stirling-diagonal", {"lam": list(lam.parts)}, passed=ok,
                                 witness=None if ok else
                                 f"s1: {canonical_str(s1(lam, lam))}, s2: {canonical_str(s2(lam, lam))}")


@_identity("stirling-zero")
def _chk_zero(cfg: SuiteConfig) -> Iterator[IdentityReport]:
    for n, cap in cfg.stirling_boxes():
        origin = zeros(n)
        for lam in partitions_in_box(n, cap):
            if lam[n - 1] == 0:
                continue
            ok = s1(lam, origin).is_zero and s2(lam, origin).is_zero
            yield IdentityReport("stirling-zero", {"lam": list(lam.parts)}, passed=ok,
                                 witness=None if ok else "nonzero value at the empty partition")


@_identity("defining-expansion-s1")
def _chk_defn_s1(cfg: SuiteConfig) -> Iterator[IdentityReport]:
    for n, cap in cfg.stirling_boxes():
        for nu in partitions_in_box(n, cap):
            yield equality_report("defining-expansion-s1", {"nu": list(nu.parts)},
                                  bracket_rect(nu), _expansion_s1_sum(nu))


@_identity("defining-expansion-s2")
def _chk_defn_s2(cfg: SuiteConfig) -> Iterator[IdentityReport]:
    for n, cap in cfg.stirling_boxes():
        for nu in partitions_in_box(n, cap):
            yield equality_report("defining-expansion-s2", {"nu": list(nu.parts)},
                                  _limit_bracket(nu), _expansion_s2_sum(nu))


@_identity("stirling-inversion")
def _chk_stirling_inv(cfg: SuiteConfig) -> Iterator[IdentityReport]:
    for n, cap in cfg.stirling_boxes():
        yield stirling_inversion_check(rectangle(cap, n))


@_identity("valgebra-identity")
def _chk_valgebra(cfg: SuiteConfig) -> Iterator[IdentityReport]:
    for n, cap in cfg.stirling_boxes():
        bound = rectangle(min(cap, 2), n)
        a = stirling_matrix("s1", bound)
        delta = identity_matrix(bound)
        ok = valgebra_multiply(delta, a) == a and valgebra_multiply(a, delta) == a
        yield IdentityReport("valgebra-identity", {"bound": list(bound.parts)}, passed=ok,
                             witness=None if ok else "identity matrix is not neutral")


@_identity("adjacent-weight")
def _chk_adjacent(cfg: SuiteConfig) -> Iterator[IdentityReport]:
    for n, cap in cfg.stirling_boxes():
        box = list(partitions_in_box(n, cap))
        for nu in box:
            for mu in subpartitions(nu):
                if weight(nu) - weight(mu) != 1:
                    continue
                lhs, rhs = s1(nu, mu), s2(nu, mu)
                ok = lhs == -rhs
                yield IdentityReport("adjacent-weight",
                                     {"nu": list(nu.parts), "mu": list(mu.parts)}, passed=ok,
                                     witness=None if ok else canonical_str(lhs + rhs))


@_identity("x0-sums")
def _chk_x0(cfg: SuiteConfig) -> Iterator[IdentityReport]:
    for n, cap in cfg.stirling_boxes():
        for nu in partitions_in_box(n, cap):
            yield check_x0_sums(nu)


@_identity("root-vanishing")
def _chk_roots(cfg: SuiteConfig) -> Iterator[IdentityReport]:
    for n, cap in cfg.stirling_boxes():
        for nu in partitions_in_box(n, cap):
            for j in range(1, n + 1):
                for m_j in range(0, nu[j - 1]):
                    yield check_root_vanishing(nu, j, m_j)


@_identity("classical-stirling")
def _chk_classical(cfg: SuiteConfig) -> Iterator[IdentityReport]:
    for m in range(0, 6):
        for k in range(0, m + 1):
            v1 = limit_q_to_1(substitute_t_eq_q_pow(s1(Partition((m,)), Partition((k,))), 1))
            v2 = limit_q_to_1(substitute_t_eq_q_pow(s2(Partition((m,)), Partition((k,))), 1))
            c1 = classical_stirling1(m, k)
            c2 = classical_stirling2(m, k)
            ok = v1 == c1 and v2 == c2
            yield IdentityReport("classical-stirling", {"m": m, "k": k}, passed=ok,
                                 witness=None if ok else
                                 f"got ({canonical_str(v1)}, {canonical_str(v2)}), want ({c1}, {c2})")


#: Every identity the suite must register; the completeness test enumerates this.
MANIFEST: tuple[str, ...] = tuple(_REGISTRY)


def run_suite(cfg: SuiteConfig) -> list[IdentityReport]:
    """Run all (or the selected) identities; failures are data, not exceptions.

    The report file, if any, is opened before the first identity runs, so an
    unwritable path raises OSError at once.
    """
    selected = cfg.identities if cfg.identities else list(_REGISTRY)
    unknown = [i for i in selected if i not in _REGISTRY]
    if unknown:
        raise ValueError(f"unknown identities: {unknown}")
    reports: list[IdentityReport] = []
    with _open_output(cfg.output_path) as fh:
        for identity_id in _REGISTRY:
            if identity_id not in selected:
                continue
            started = time.perf_counter()
            try:
                for report in _REGISTRY[identity_id](cfg):
                    report.elapsed = time.perf_counter() - started
                    started = time.perf_counter()
                    reports.append(report)
            except Exception as exc:  # a PoleError here is a genuine failure
                reports.append(IdentityReport(identity_id, {}, passed=False,
                                              witness=f"{type(exc).__name__}: {exc}"))
        if fh is not None:
            json.dump([r.to_json_dict() for r in reports], fh, indent=2)
            fh.write("\n")
    return reports


def _open_output(path: Optional[str]):
    """The file at path opened for writing, or a context yielding None without a path."""
    return open(path, "w", encoding="utf-8", newline="\n") if path else nullcontext()


# ---------------------------------------------------------------------------
# tables and point evaluation
# ---------------------------------------------------------------------------

_TABLE_KINDS: dict[str, Callable[[Partition, Partition], RationalFn]] = {
    "s1": lambda nu, mu: s1(nu, mu),
    "s2": lambda nu, mu: s2(nu, mu),
    "binomial": lambda nu, mu: qt_binomial(nu, mu),
    "bracket": lambda nu, mu: qt_bracket(nu.parts, mu),
}


def emit_table(kind: str, bound: Partition, fmt: str = "json", path: Optional[str] = None) -> str:
    """Write all entries (nu, mu, value) for mu <= nu <= bound; returns the text.

    The file at path is opened before any entry is computed, so an
    unwritable path raises OSError at once.
    """
    if kind not in _TABLE_KINDS:
        raise ValueError(f"unknown table kind {kind!r}")
    if fmt not in ("json", "csv"):
        raise ValueError(f"unknown format {fmt!r}")
    fn = _TABLE_KINDS[kind]
    with _open_output(path) as fh:
        entries = []
        for nu in subpartitions(bound):
            for mu in subpartitions(nu):
                entries.append((nu, mu, canonical_str(fn(nu, mu))))
        if fmt == "json":
            doc = {
                "n": bound.n,
                "bound": list(bound.parts),
                "entries": [
                    {"nu": list(nu.parts), "mu": list(mu.parts), "value": value}
                    for nu, mu, value in entries
                ],
            }
            text = json.dumps(doc, indent=2) + "\n"
        else:
            buf = io.StringIO()
            writer = csv.writer(buf, quoting=csv.QUOTE_ALL, lineterminator="\n")
            writer.writerow(["nu", "mu", "value"])
            for nu, mu, value in entries:
                writer.writerow([",".join(map(str, nu.parts)), ",".join(map(str, mu.parts)), value])
            text = buf.getvalue()
        if fh is not None:
            fh.write(text)
    return text


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


@memo
def _expression_value(name: str, groups: tuple[tuple[int, ...], ...]) -> RationalFn:
    return _EVAL_EXPRS[name][1](*groups)


def parse_expression(expr: str) -> RationalFn:
    """Evaluate an expression id of the form name(ints;ints;...) symbolically.

    Each ';'-separated group of comma-separated integers is one argument of
    the quantity named; an empty group or a wrong number of groups is a
    ValueError.  Values are memoised under (name, integer groups), so
    spellings of one id that differ only in whitespace share an entry;
    a build that raises stores nothing.
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
    arity = _EVAL_EXPRS[name][0]
    if len(groups) != arity:
        raise ValueError(f"{name} takes {arity} argument group(s), got {len(groups)}")
    return _expression_value(name, tuple(groups))


def eval_point(expr: str, q0, t0, x0=0) -> Fraction:
    """Exact rational value of a library quantity at a rational point.

    The rational function comes from parse_expression's memo, so a repeated
    id costs one lookup plus one integer evaluation (algebra.evaluate).
    """
    return evaluate(parse_expression(expr), q0, t0, x0)
