"""Finite and partition q-Pochhammer symbols, negative indices, the flip formula.

The products of binomials are checked against references that multiply them
out factor by factor, as the library did before `binomial_product`.
"""

from fractions import Fraction
from itertools import combinations, product
from math import factorial

import pytest

from qtstirling import algebra, pochhammer
from qtstirling.algebra import (
    ONE,
    PoleError,
    Q,
    RationalFn,
    T,
    X,
    ZERO,
    canonical_str,
    clear_cache,
    const,
    monomial_rf,
    q_pow,
    t_pow,
)
from qtstirling.partitions import (
    Partition,
    contains,
    is_horizontal_strip,
    n_stat,
    n_stat_conj,
    partitions_in_box,
    weight,
)
from qtstirling.pochhammer import (
    _multiplied,
    _vector,
    binomial_product,
    poch,
    poch_factors,
    poch_partition,
    poch_partition_flipped,
    qt_factors,
)
from qtstirling.qtnumbers import (
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
from qtstirling.stirling import f_factor, u_matrix
from qtstirling.verify import _limit_bracket, check_identity
from qtstirling.wfunctions import (
    h_factor,
    staircase_args,
    w_hat_multi,
    w_hat_skew_single,
    w_multi,
    w_skew_single,
    w_staircase,
)

P = Partition


def test_poch_direct_product():
    a = X
    assert poch(a, 3) == (ONE - X) * (ONE - X * Q) * (ONE - X * Q**2)
    assert poch(a, 0) == ONE
    assert canonical_str(poch(a, -1)) == "(q)/(q - X)"


def test_poch_negative_index_rule():
    a = X
    for m in range(1, 7):
        assert poch(a, -m) == poch(a * q_pow(-m), m).inverse()
        assert poch(a, -m) * poch(a * q_pow(-m), m) == ONE


def test_poch_negative_pole():
    # (q^2; q)_{-2} inverts (q^2 q^{-2}; q)_2 = (1; q)_2 which vanishes
    with pytest.raises(PoleError):
        poch(Q**2, -2)
    # the vanishing factor is the first, or an inner one, of the inverted product
    with pytest.raises(PoleError):
        poch(Q, -1)
    with pytest.raises(PoleError):
        poch(Q**3, -4)


def test_poch_recurrence():
    a = X * T
    for m in range(0, 7):
        assert poch(a, m + 1) == poch(a, m) * (ONE - a * q_pow(m))


def test_poch_partition_expansion():
    a = X
    expected = (ONE - X) * (ONE - X * Q) * (ONE - X / T)
    assert poch_partition(a, P((2, 1))) == expected
    assert poch_partition(a, P((0, 0, 0))) == ONE


def test_poch_partition_single_part_reduces():
    a = X * Q
    for m in range(0, 7):
        assert poch_partition(a, P((m,))) == poch(a, m)


def test_flipped_base_builds_reciprocals():
    # (X; 1/q, 1/t)_(2,1) = (1-X)(1-X/q) * (1-Xt)
    expected = (ONE - X) * (ONE - X / Q) * (ONE - X * T)
    assert poch_partition_flipped(X, P((2, 1))) == expected


def test_flip_identity_small():
    r = check_identity("flip-formula", mu=P((1,)), x=X)
    assert r.passed
    r = check_identity("flip-formula", mu=P((0, 0)), x=X)
    assert r.passed
    r = check_identity("flip-formula", mu=P((2, 1)), x=X)
    assert r.passed


@pytest.mark.parametrize("n", [1, 2, 3])
def test_flip_identity_range(n):
    for mu in partitions_in_box(n, 3):
        assert check_identity("flip-formula", mu=mu, x=X).passed


def test_flip_identity_composite_argument():
    assert check_identity("flip-formula", mu=P((2, 1)), x=X * Q**2 / T).passed


#: the exponent vectors (a, b, x) of the monomials 1, q, X and X t in a factor list
_V1, _VQ, _VX, _VXT = (0, 0, 0), (1, 0, 0), (0, 0, 1), (0, 1, 1)


def test_binomial_product_edge_cases():
    assert binomial_product([]) == ONE
    assert binomial_product([(_V1, 1)]) == ZERO
    assert binomial_product([(_VX, 1), (_V1, 2), (_VQ, -1)]) == ZERO
    with pytest.raises(PoleError):
        binomial_product([(_V1, 1), (_V1, -1)])
    with pytest.raises(PoleError):
        binomial_product([(_V1, -1), (_VX, 1), (_V1, 1)])


def test_binomial_product_merges_equal_factors_only():
    assert binomial_product([(_VX, 1), (_VXT, -2), (_VX, 2), (_VXT, 2)]) == (ONE - X) ** 3
    assert binomial_product([(_VQ, 1), (_VQ, -1)]) == ONE
    # (1 - q^2) / (1 - q) = 1 + q: different binomials, reduced by the operators
    assert binomial_product([((2, 0, 0), 1), (_VQ, -1)]) == ONE + Q
    assert binomial_product([(_VQ, 0), (_VX, -3)]) == ((ONE - X) ** 3).inverse()


def _product_memo_traffic():
    info = _multiplied.cache_info()
    return info.hits, info.misses


def test_binomial_product_is_the_product_memo():
    # h_product keeps no memo of its own: its second call is one hit of the product memo
    clear_cache()
    mu = P((2, 1, 0))
    value = h_product(mu)
    hits, misses = _product_memo_traffic()
    assert misses >= 1
    assert h_product(mu) == value
    assert _product_memo_traffic() == (hits + 1, misses)


def test_a_binomial_power_two_lists_share_is_built_once(monkeypatch):
    # a list is multiplied from its single-factor entries, so the product memo
    # holds each power and a second list that shares one does not build it again
    clear_cache()
    calls = []
    real = algebra.binomial_power

    def counted(m, e):
        calls.append((m, e))
        return real(m, e)

    monkeypatch.setattr(algebra, "binomial_power", counted)
    monkeypatch.setattr(pochhammer, "binomial_power", counted)
    shared = ((1, 1, 0), 2)
    first = binomial_product([shared, (_VQ, 1)])
    second = binomial_product([shared, ((0, 1, 0), -1)])
    assert calls.count(shared) == 1
    assert first == (ONE - Q * T) ** 2 * (ONE - Q)
    assert second == (ONE - Q * T) ** 2 / (ONE - T)


def test_w_and_w_hat_share_their_strip_products():
    # the h factor and the strip ratio of a strip are one product, built once for w and w-hat
    clear_cache()
    lam, nu, x = P((2, 1)), P((1, 0)), monomial_rf(e_q=2, e_t=1)
    assert not w_skew_single(lam, nu, x).is_zero
    hits, misses = _product_memo_traffic()
    assert not w_hat_skew_single(lam, nu, x).is_zero
    assert _product_memo_traffic() == (hits + 1, misses)


# ---------------------------------------------------------------------------
# references: each product multiplied out factor by factor
# ---------------------------------------------------------------------------

def _ref_poch(a, m, base=Q):
    if m < 0:
        inv = _ref_poch(a * base ** m, -m, base)
        if inv.is_zero:
            raise PoleError("negative-index Pochhammer hits a vanishing factor")
        return inv.inverse()
    out = ONE
    power = ONE
    for _ in range(m):
        out = out * (ONE - a * power)
        power = power * base
    return out


def _ref_flipped(a, lam):
    out = ONE
    for i, part in enumerate(lam, start=1):
        out = out * _ref_poch(a * t_pow(i - 1), part, base=q_pow(-1))
    return out


def _ref_qt(exps):
    n = len(exps)
    out = ONE
    for i, e in enumerate(exps, start=1):
        out = out * (ONE - monomial_rf(e_q=1, e_t=n - i)) ** e
    return out


def _ref_pairs(mu, c, s):
    out = ONE
    for i, j in combinations(range(mu.n), 2):
        out = out * _ref_poch(monomial_rf(e_q=c, e_t=j - i + s), mu[i] - mu[j])
    return out


def _ref_h_factor(lam, mu):
    num = ONE
    den = ONE
    for j in range(2, lam.n + 1):
        m = mu[j - 2] - lam[j - 1]
        for i in range(1, j):
            num = num * _ref_poch(monomial_rf(e_q=mu[i - 1] - mu[j - 2], e_t=j - i), m)
            num = num * _ref_poch(monomial_rf(e_q=lam[i - 1] - mu[j - 2] + 1, e_t=j - i - 1), m)
            den = den * _ref_poch(monomial_rf(e_q=mu[i - 1] - mu[j - 2] + 1, e_t=j - i - 1), m)
            den = den * _ref_poch(monomial_rf(e_q=lam[i - 1] - mu[j - 2], e_t=j - i), m)
    return num / den


def _ref_w_skew_single(lam, mu, x):
    # (1/x; q, t)_lam / (1/x; q, t)_mu over the strip cells, times the prefactors
    ratio = ONE
    for i in range(1, lam.n + 1):
        for k in range(mu[i - 1], lam[i - 1]):
            ratio = ratio * (ONE - x.inverse() * t_pow(1 - i) * q_pow(k))
    d = weight(lam) - weight(mu)
    pref = (-1) ** d * x ** d * q_pow(n_stat_conj(mu) - n_stat_conj(lam) - d)
    return pref * _ref_h_factor(lam, mu) * ratio


def _ref_f_factor(mu):
    n = mu.n
    out = ONE
    for i in range(1, n):
        out = out * (ONE - T) ** (mu[i - 1] - mu[i]) / (ONE - t_pow(n - i)) ** mu[i - 1]
    for i in range(1, n + 1):
        for j in range(i + 2, n + 1):
            out = out * ((ONE - t_pow(j - i)) / (ONE - t_pow(j - i - 1))) ** (mu[i - 1] - mu[j - 1])
    denom = factorial(mu[n - 1])
    for i in range(1, n):
        denom *= factorial(mu[i - 1] - mu[i])
    return out / const(Fraction(denom))


def _ref_limit_bracket(mu):
    n = mu.n
    out = ONE
    for i in range(1, n + 1):
        out = out * ((ONE - monomial_rf(e_t=n - i, e_X=1)) / (ONE - monomial_rf(e_q=1, e_t=n - i))) ** mu[i - 1]
    return out


_BOX = [mu for n in (1, 2, 3) for mu in partitions_in_box(n, 3)]


@pytest.mark.parametrize("mu", _BOX, ids=str)
def test_products_match_multiplied_out_references(mu):
    assert h_product(mu) == _ref_pairs(mu, 1, 0) / _ref_pairs(mu, 1, -1)
    assert _t_ratio_bracket(mu) == _ref_pairs(mu, 0, 0) / _ref_pairs(mu, 0, 1)
    assert w_staircase(mu, X) == q_pow(-weight(mu)) * _ref_flipped(X, mu) * _ref_pairs(mu, 0, 1) / _ref_pairs(mu, 0, 0)
    assert bracket_rect(mu) == _ref_flipped(X, mu) * _ref_qt([-m for m in mu])
    assert _limit_bracket(mu) == _ref_limit_bracket(mu)
    assert f_factor(mu) == _ref_f_factor(mu)
    assert poch_partition_flipped(X * T, mu) == _ref_flipped(X * T, mu)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_skew_products_match_multiplied_out_references(n):
    box = list(partitions_in_box(n, 3))
    pairs = [(lam, mu) for lam, mu in product(box, repeat=2) if is_horizontal_strip(lam, mu)]
    assert pairs
    for lam, mu in pairs:
        assert h_factor(lam, mu) == _ref_h_factor(lam, mu)
        for x in (X, monomial_rf(e_q=2, e_t=1)):
            assert w_skew_single(lam, mu, x) == _ref_w_skew_single(lam, mu, x)


def test_qt_number_and_gaussian_match_multiplied_out_references():
    for n in (1, 2, 3):
        for z in product(range(4), repeat=n):
            expected = _ref_qt([-1] * n)
            for i, v in enumerate(z, start=1):
                expected = expected * (ONE - monomial_rf(e_q=v, e_t=n - i))
            assert qt_number(z) == expected
    for m in range(7):
        for k in range(m + 1):
            assert gaussian_binomial(m, k) == _ref_poch(Q, m) / (_ref_poch(Q, m - k) * _ref_poch(Q, k))


def test_negative_poch_matches_inverted_reference():
    for a in (X, X * T, Q**2, X / Q):
        for m in range(-4, 0):
            for base in (Q, q_pow(-1)):
                try:
                    expected = _ref_poch(a, m, base)
                except PoleError:
                    with pytest.raises(PoleError):
                        poch(a, m, base)
                    continue
                assert poch(a, m, base) == expected


# ---------------------------------------------------------------------------
# merged prefactors against the same values built from separate products
# ---------------------------------------------------------------------------

def _strip_ratio(lam, mu, x):
    """(1/x; q, t)_lam / (1/x; q, t)_mu over the strip cells, as its own product."""
    a, b, c = _vector(x, "x")
    return binomial_product(
        f for i, (top, bottom) in enumerate(zip(lam, mu)) if top > bottom
        for f in poch_factors((bottom - a, -i - b, -c), top - bottom))


def _separate_qt_binomial(z, mu):
    if not contains(z, mu):
        return ZERO
    n = mu.n
    pref = monomial_rf(e_q=weight(mu), e_t=2 * n_stat(mu) + (1 - n) * weight(mu))
    return pref / g_product(mu) * h_product(mu) * w_multi(mu, staircase_args(z.parts))


def _separate_u_matrix(lam, mu):
    if not contains(lam, mu):
        return ZERO
    pref = monomial_rf(e_q=weight(mu), e_t=2 * n_stat(mu))
    return pref / g_product(mu) * h_product(mu) * w_hat_multi(mu, staircase_args(lam.parts))


def _separate_qt_bracket(z, mu):
    out = q_pow(weight(mu)) * binomial_product(qt_factors([-m for m in mu]))
    return out * _t_ratio_bracket(mu) * w_multi(mu, staircase_args(z.parts))


def _separate_qt_binomial_rect(mu):
    out = t_pow(2 * n_stat(mu) + (1 - mu.n) * weight(mu)) / g_product(mu)
    out = out * poch_partition_flipped(X, mu)
    return out * h_product(mu) / _t_ratio_bracket(mu)


def _separate_w_skew_single(lam, mu, x):
    d = weight(lam) - weight(mu)
    pref = (-1) ** d * x ** d * q_pow(n_stat_conj(mu) - n_stat_conj(lam) - d)
    return pref * h_factor(lam, mu) * _strip_ratio(lam, mu, x)


def _separate_w_hat_skew_single(lam, mu, x):
    pref = t_pow(-n_stat(lam) + weight(mu) + n_stat(mu))
    return pref * h_factor(lam, mu) * _strip_ratio(lam, mu, x)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_merged_prefactors_match_the_products_they_replace(n):
    # each prefactor is one factor list; the reference multiplies h, g, the t-ratio, the h
    # factor and the strip ratio as products of their own
    box = list(partitions_in_box(n, 3))
    for mu in box:
        assert qt_binomial_rect(mu) == _separate_qt_binomial_rect(mu)
        for z in box:
            assert qt_binomial(z, mu) == _separate_qt_binomial(z, mu), (z, mu)
            assert u_matrix(z, mu) == _separate_u_matrix(z, mu), (z, mu)
            assert qt_bracket(z, mu) == _separate_qt_bracket(z, mu), (z, mu)
            if is_horizontal_strip(z, mu):
                for x in (X, monomial_rf(e_q=2, e_t=1), *staircase_args(z.parts)):
                    assert w_skew_single(z, mu, x) == _separate_w_skew_single(z, mu, x)
                    assert w_hat_skew_single(z, mu, x) == _separate_w_hat_skew_single(z, mu, x)


#: every public entry point that turns a RationalFn argument into a factor list, directly or
#: through the skew w's, as a function of that argument
_ENTRY_POINTS = {
    "poch": lambda a: poch(a, 2),
    "poch-base": lambda a: poch(X, 2, base=a),
    "poch_partition": lambda a: poch_partition(a, P((2, 1))),
    "poch_partition_flipped": lambda a: poch_partition_flipped(a, P((2, 1))),
    "w_staircase": lambda a: w_staircase(P((2, 1)), a),
    "w_skew_single": lambda a: w_skew_single(P((2, 1)), P((1, 0)), a),
    "w_hat_skew_single": lambda a: w_hat_skew_single(P((2, 1)), P((1, 0)), a),
    "w_multi": lambda a: w_multi(P((2, 1)), (a, Q**3)),
    "w_hat_multi": lambda a: w_hat_multi(P((2, 1)), (a, Q**3)),
    # the rest vanishes here, so no skew w ever reads the first argument
    "w_multi-rest-vanishes": lambda a: w_multi(P((1, 1)), (a, ONE)),
    "w_hat_multi-rest-vanishes": lambda a: w_hat_multi(P((1, 1)), (a, ONE)),
    "qt_bracket": lambda a: qt_bracket((2, 1), P((1, 0)), s=a),
}


@pytest.mark.parametrize("entry", _ENTRY_POINTS)
@pytest.mark.parametrize("bad", [2 * X, ONE + X, ZERO], ids=["2X", "1+X", "0"])
def test_arguments_that_are_not_monomials_of_coefficient_one_are_refused(entry, bad):
    with pytest.raises(ValueError, match="is not a monomial .* of coefficient 1") as info:
        _ENTRY_POINTS[entry](bad)
    assert "substitution image" not in str(info.value)
    # a composite monomial is an argument like any other
    assert isinstance(_ENTRY_POINTS[entry](X * Q**2 / T), RationalFn)


@pytest.mark.parametrize("build, products", [
    (lambda: h_product(P((3, 1, 0))), 0),
    (lambda: bracket_rect(P((3, 1, 0))), 0),
    (lambda: poch(X, 3), 0),
    (lambda: f_factor(P((3, 1, 0))), 1),  # the division by its factorial constant
    (lambda: w_staircase(P((3, 1, 0)), X), 1),  # its monomial prefactor
], ids=["h_product", "bracket_rect", "poch", "f_factor", "w_staircase"])
def test_a_product_memo_hit_does_no_rational_arithmetic(monkeypatch, build, products):
    # the factor list is built from exponent vectors, so a warm call multiplies nothing
    value = build()
    real = RationalFn.__mul__
    calls = []

    def counted(self, other):
        calls.append(other)
        return real(self, other)

    monkeypatch.setattr(RationalFn, "__mul__", counted)
    monkeypatch.setattr(RationalFn, "__rmul__", counted)
    assert build() == value
    assert len(calls) == products
