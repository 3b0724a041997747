"""qt-binomials, brackets and their reductions."""

from fractions import Fraction

import pytest

from qtstirling.algebra import (
    ONE,
    Q,
    T,
    X,
    ZERO,
    _unpack,
    evaluate,
    monomial_rf,
    subs_rational,
)
from qtstirling.partitions import Partition, rectangle, zeros
from qtstirling.pochhammer import poch, poch_partition
from qtstirling.qtnumbers import (
    XBAR,
    bracket_rect,
    gaussian_binomial,
    qt_binomial,
    qt_binomial_rect,
    qt_bracket,
    qt_number,
)
from qtstirling.verify import check_identity

P = Partition


def test_binomial_trivial_cases():
    assert qt_binomial(zeros(2), zeros(2)) == ONE
    assert qt_binomial(P((2,)), P((1,))) == ONE + Q
    assert qt_binomial(P((1, 1)), P((1, 1))) == ONE


def test_binomial_vanishes_off_containment():
    assert qt_binomial(P((1, 0)), P((1, 1))) == ZERO
    assert qt_binomial(P((2, 2)), P((3, 0))) == ZERO


def test_binomial_accepts_unsorted_vectors():
    value = qt_binomial((1, 3), P((1, 0)))
    assert value != ZERO  # no sorting, no containment filtering for plain vectors


def test_gaussian_reduction_table():
    # (q)_m / ((q)_{m-k} (q)_k) via explicit products, m <= 6
    for m in range(0, 7):
        for k in range(0, m + 1):
            value = qt_binomial(P((m,)), P((k,)))
            oracle = poch(Q, m) / (poch(Q, m - k) * poch(Q, k))
            assert value == oracle
            assert value == gaussian_binomial(m, k)
            assert subs_rational(value, t=5) == value  # t-free


def test_gaussian_binomial_at_two():
    assert evaluate(gaussian_binomial(2, 1), 2, 0) == 3


def test_gaussian_binomial_outside_its_range():
    # 0 off 0 <= k <= m; for m < 0, (q)_m has a pole, and k = 0 would be 1
    for m, k in ((0, -1), (0, 1), (3, -1), (3, 4)):
        assert gaussian_binomial(m, k) == ZERO
    for m, k in ((-1, 0), (-1, -1), (-2, 1), (-3, -5)):
        with pytest.raises(ValueError, match="m >= 0"):
            gaussian_binomial(m, k)


def test_binomial_rect_matches_definition():
    for parts in [(0, 0), (1, 0), (2, 1), (2, 2), (1, 1, 0), (2, 1, 1)]:
        mu = P(parts)
        assert qt_binomial(XBAR, mu) == qt_binomial_rect(mu)
    assert qt_binomial_rect(zeros(2)) == ONE


def test_binomial_theorem_examples():
    assert check_identity("binomial-theorem", lam=P((1,))).passed
    assert check_identity("binomial-theorem", lam=P((0, 0))).passed
    assert check_identity("binomial-theorem", lam=P((2, 1))).passed
    assert check_identity("binomial-theorem", lam=P((2, 2, 1))).passed


def test_binomial_theorem_expansion_oracle():
    # expand (X)_lam directly and compare coefficient lists in X
    lam = P((2, 1))
    lhs = poch_partition(X, lam)
    rhs = ZERO
    from qtstirling.algebra import x_pow
    from qtstirling.partitions import n_stat, n_stat_conj, subpartitions, weight

    for mu in subpartitions(lam):
        wt = weight(mu)
        sign = -1 if wt % 2 else 1
        rhs = rhs + sign * monomial_rf(e_q=n_stat_conj(mu), e_t=-n_stat(mu)) * qt_binomial(lam, mu) * x_pow(wt)
    assert lhs == rhs


def test_qt_bracket_trivial():
    assert qt_bracket((0, 0), zeros(2)) == ONE
    assert qt_bracket(XBAR, zeros(3)) == ONE


def test_qt_bracket_reduces_to_qt_number():
    for z in [(2, 1), (3, 0), (4, 4)]:
        assert qt_bracket(z, rectangle(1, 2)) == qt_number(z)
        assert qt_binomial(z, rectangle(1, 2)) == qt_number(z)


def test_qt_number_values():
    assert qt_number((1, 1)) == ONE
    for m in range(0, 6):
        assert qt_number((m,)) == (ONE - Q**m) / (ONE - Q)
    assert qt_number((2, 1)) == (ONE - Q**2 * T) / (ONE - Q * T)


def test_qt_number_reduction_one_variable():
    # [m] against the q-number 1 + q + ... + q^{m-1}, a sum of monomials
    for m in range(0, 6):
        assert check_identity("qt-number-reduction", z=(m,), n=1).passed
    with pytest.raises(ValueError):
        check_identity("qt-number-reduction", z=(2, 1), n=1)


def test_qt_number_spot_value():
    assert evaluate(qt_number((2, 1)), Fraction(1, 2), Fraction(1, 3)) == Fraction(11, 10)


def test_bracket_rect_forms():
    assert bracket_rect(zeros(2)) == ONE
    for parts in [(1, 0), (2, 1), (1, 1, 1)]:
        mu = P(parts)
        assert qt_bracket(XBAR, mu) == bracket_rect(mu)
    # X = 1 (x = 0) kills the bracket when mu_1 >= 1
    assert subs_rational(bracket_rect(P((2, 1))), X=1) == ZERO


def test_bracket_rect_single_variable():
    # n=1: prod_k (1 - X q^{-k}) / (1-q)^m, the classical falling-type bracket
    for m in range(0, 5):
        mu = P((m,))
        expected = poch(X, m, base=monomial_rf(e_q=-1)) / (ONE - Q) ** m
        assert bracket_rect(mu) == expected


def test_bracket_rect_polynomial_degree():
    # clearing the (1 - q t^{n-i}) powers leaves a polynomial in X of degree
    # |mu| over Q(q, t): each factor (1 - X t^{i-1} q^{-k}), k < mu_i, of
    # (X t^{i-1}; 1/q)_{mu_i} leaves q^k below the line, q^{n(mu')} in all
    from qtstirling.partitions import n_stat_conj, weight

    mu = P((2, 1))
    cleared = bracket_rect(mu)
    for i in range(1, 3):
        cleared = cleared * (ONE - monomial_rf(e_q=1, e_t=2 - i)) ** mu[i - 1]
    assert cleared.den == monomial_rf(e_q=n_stat_conj(mu)).num  # q^1
    assert max(_unpack(key)[2] for key in cleared.num) == weight(mu)


def test_bracket_binomial_relation():
    assert check_identity("bracket-binomial-relation", z=(2, 1), mu=rectangle(1, 2)).passed
    assert check_identity("bracket-binomial-relation", z=(0, 0), mu=zeros(2)).passed
    assert check_identity("bracket-binomial-relation", z=(2, 1), mu=P((2, 1))).passed
    assert check_identity("bracket-binomial-relation", z=XBAR, mu=P((2, 1))).passed


def test_bracket_with_multiplicative_shift():
    # <s>_mu with s = X at z = 0-bar, spot case mu=(1), n=1:
    # q / (1-q) * w_(1)(X) = q/(1-q) * (1-X)/q = (1-X)/(1-q)
    got = qt_bracket((0,), P((1,)), s=X)
    assert got == (ONE - X) / (ONE - Q)


@pytest.mark.parametrize("bad", [2.5, "3", Fraction(5, 2)])
def test_exponents_that_are_not_integers_are_refused(bad):
    # never truncated: qt_number((2.5,)) once read as qt_number((2,))
    for build in (lambda: qt_number((bad,)),
                  lambda: qt_binomial((bad, 0), P((1, 0))),
                  lambda: qt_bracket((bad, 1), P((1, 0)))):
        with pytest.raises(TypeError):
            build()
    assert qt_number((True,)) == qt_number((1,))
