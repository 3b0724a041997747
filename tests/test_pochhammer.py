"""Finite and partition q-Pochhammer symbols, negative indices, the flip formula.

The products of binomials are checked against references that multiply them
out factor by factor, as the library did before `binomial_product`.
"""

from fractions import Fraction
from itertools import combinations, product
from math import factorial

import pytest

from qtstirling.algebra import (
    ONE,
    PoleError,
    Q,
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
    is_horizontal_strip,
    n_stat_conj,
    partitions_in_box,
    weight,
)
from qtstirling.pochhammer import (
    _multiplied,
    binomial_product,
    poch,
    poch_partition,
    poch_partition_flipped,
)
from qtstirling.qtnumbers import (
    _t_ratio_bracket,
    bracket_rect,
    gaussian_binomial,
    h_product,
    qt_number,
)
from qtstirling.stirling import f_factor
from qtstirling.verify import _limit_bracket, check_identity
from qtstirling.wfunctions import h_factor, w_hat_skew_single, w_skew_single, w_staircase

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


def test_binomial_product_edge_cases():
    assert binomial_product([]) == ONE
    assert binomial_product([(ONE, 1)]) == ZERO
    assert binomial_product([(X, 1), (ONE, 2), (Q, -1)]) == ZERO
    with pytest.raises(PoleError):
        binomial_product([(ONE, 1), (ONE, -1)])
    with pytest.raises(PoleError):
        binomial_product([(ONE, -1), (X, 1), (ONE, 1)])


def test_binomial_product_merges_equal_factors_only():
    assert binomial_product([(X, 1), (X * T, -2), (X, 2), (X * T, 2)]) == (ONE - X) ** 3
    assert binomial_product([(Q, 1), (Q, -1)]) == ONE
    # (1 - q^2) / (1 - q) = 1 + q: different binomials, reduced by the operators
    assert binomial_product([(Q**2, 1), (Q, -1)]) == ONE + Q
    assert binomial_product([(Q, 0), (X, -3)]) == ((ONE - X) ** 3).inverse()


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


def test_w_and_w_hat_share_their_strip_products():
    # the h factor and the strip ratio of a strip are built once for w and w-hat
    clear_cache()
    lam, nu, x = P((2, 1)), P((1, 0)), monomial_rf(e_q=2, e_t=1)
    assert not w_skew_single(lam, nu, x).is_zero
    hits, misses = _product_memo_traffic()
    assert not w_hat_skew_single(lam, nu, x).is_zero
    assert _product_memo_traffic() == (hits + 2, misses)


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
