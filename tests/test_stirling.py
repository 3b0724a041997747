"""Stirling numbers: explicit formulas, limits, the V-algebra, inversions."""

from fractions import Fraction

import pytest

from qtstirling import verify
from qtstirling.algebra import (
    ONE,
    PoleError,
    Polynomial,
    Q,
    T,
    ZERO,
    clear_cache,
    const,
    limit_q_to_1,
)
from qtstirling.partitions import Partition, partitions_in_box, subpartitions, zeros
from qtstirling.stirling import (
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
from qtstirling.verify import _delta, _pairs, check_identity

P = Partition


def test_f_factor_values():
    assert f_factor(zeros(2)) == ONE
    # n = 1: all t-products empty, the factorial divides
    assert f_factor(P((3,))) == const(Fraction(1, 6))
    # n = 2, mu = (2,1): (1-t)^1 / (1-t)^2 / (1! * 1!)
    assert f_factor(P((2, 1))) == ONE / (ONE - T)


def test_u_matrix_values():
    assert u_matrix(P((1,)), P((0,))) == ONE
    assert u_matrix(P((1,)), P((1,))) == -ONE
    assert u_matrix(P((1, 0)), P((1, 1))) == ZERO
    # n=1 closed form q^m (q^{-l}; q)_m / (q)_m
    from qtstirling.algebra import q_pow
    from qtstirling.pochhammer import poch

    for l in range(0, 5):
        for m in range(0, l + 1):
            expected = q_pow(m) * poch(q_pow(-l), m) / poch(Q, m)
            assert u_matrix(P((l,)), P((m,))) == expected


def test_v_matrix_values():
    assert v_matrix(zeros(2), zeros(2)) == ONE
    assert v_matrix(P((1,)), P((1,))) == -ONE
    assert v_matrix(P((2,)), P((1,))) == -(ONE + Q)
    assert v_matrix(P((1, 0)), P((1, 1))) == ZERO


def test_u_v_limits_cross_paths():
    for n, cap in ((1, 3), (2, 2)):
        for lam in partitions_in_box(n, cap):
            for mu in subpartitions(lam):
                assert u_limit(lam, mu) == u_limit_direct(lam, mu)
                assert v_limit(lam, mu) == v_limit_direct(lam, mu)


def test_u_limit_example():
    # lim u((1),(1),1/q,1/t) = -1: w-bar = 1, f = 1
    assert u_limit(P((1,)), P((1,))) == -ONE
    # n=1 limits are binomial coefficients
    assert u_limit(P((4,)), P((2,))) == 6


def test_s1_hand_values():
    assert s1(P((1,)), P((1,))) == ONE
    assert s1(P((2,)), P((1,))) == -ONE
    assert s1(P((3,)), P((1,))) == ONE + Q
    assert s1(P((2,)), P((0,))) == ZERO
    assert s1(P((1, 0)), P((1, 1))) == ZERO


def test_s2_hand_values():
    assert s2(P((2,)), P((1,))) == ONE
    assert s2(P((3,)), P((1,))) == ONE
    # q-Stirling second kind: s2(3,2) -> [2]_q = 1 + q at q->1 gives 3... value check at q->1 below
    assert limit_q_to_1(s2(P((3,)), P((2,)))) == 3


def test_diagonal_and_zero():
    for n, cap in ((1, 3), (2, 3), (3, 2)):
        for lam in partitions_in_box(n, cap):
            assert s1(lam, lam) == ONE
            assert s2(lam, lam) == ONE
            if lam[n - 1] != 0:
                assert s1(lam, zeros(n)) == ZERO
                assert s2(lam, zeros(n)) == ZERO


def test_uv_inversion():
    assert check_identity("uv-inversion", nu=zeros(2)).passed
    assert check_identity("uv-inversion", nu=P((2, 1))).passed
    assert check_identity("uv-inversion", nu=P((3,))).passed


def test_adjacent_weight_antisymmetry():
    for (nu, mu) in [(P((2, 1)), P((1, 1))), (P((2, 1)), P((2, 0))),
                     (P((1,)), P((0,))), (P((2, 2, 1)), P((2, 2, 0)))]:
        assert s1(nu, mu) == -s2(nu, mu)


def test_valgebra_identity_neutral():
    assert check_identity("valgebra-identity", bound=P((2, 1))).passed


def test_stirling_matrix_inverse_pair():
    for bound in [P((1,)), P((2, 1)), P((3,)), P((2, 2))]:
        assert check_identity("stirling-inversion", bound=bound).passed


def test_stirling_inversion_reads_s2(monkeypatch):
    # s1 * (2 s2) = 2 delta, so the row must fail once it reads the scaled s2
    monkeypatch.setattr(verify, "s2", lambda nu, mu: 2 * s2(nu, mu))
    assert not check_identity("stirling-inversion", bound=P((1,))).passed


def test_uv_matrix_inverse_pair():
    # both orders: the uv-inversion row checks u * v only
    for lam, mu in _pairs(P((2, 2))):
        assert _product_entry(u_matrix, v_matrix, lam, mu) == _delta(lam, mu)
        assert _product_entry(v_matrix, u_matrix, lam, mu) == _delta(lam, mu)


def test_hg_flip():
    for parts in [(1, 0), (2, 1), (2, 2), (3, 1), (2, 1, 0)]:
        assert check_identity("h-g-flip", mu=P(parts)).passed


def test_ordinary_alpha_stirling():
    # alpha = 1 at n = 1 reduces to the classical values
    assert ordinary_alpha_stirling("s1", P((4,)), P((2,)), 1) == 11
    assert ordinary_alpha_stirling("s2", P((4,)), P((2,)), 1) == 7
    # a two-row value at alpha = 2, by hand: s1((2,0),(1,0)) =
    # (2 - t - qt)/(t(qt - 1)); at t = q^2 both (2 - q^2 - q^3) and
    # (q^3 - 1) carry one factor (q - 1), leaving -(q^2+2q+2)/(q^2(q^2+q+1))
    assert s1(P((2, 0)), P((1, 0))) == (const(2) - T - Q * T) / (T * (Q * T - ONE))
    assert ordinary_alpha_stirling("s1", P((2, 0)), P((1, 0)), 2) == const(Fraction(-5, 3))
    # every entry on the bound (2,0) has a limit at alpha = 2, and the
    # limits still invert each other in the V-algebra
    def a1(lam, mu):
        return ordinary_alpha_stirling("s1", lam, mu, 2)

    def a2(lam, mu):
        return ordinary_alpha_stirling("s2", lam, mu, 2)

    for lam, mu in _pairs(P((2, 0))):
        assert _product_entry(a1, a2, lam, mu) == _delta(lam, mu)
        assert _product_entry(a2, a1, lam, mu) == _delta(lam, mu)
    # s1((2,1),(1,0)) = (1-t)/(1-qt)^2 has a pole at q = 1 once t = q^2
    with pytest.raises(PoleError):
        ordinary_alpha_stirling("s1", P((2, 1)), P((1, 0)), 2)
    # an unknown kind is a ValueError, as an unknown identity or table kind is
    with pytest.raises(ValueError, match="'s1', 's2'"):
        ordinary_alpha_stirling("s3", P((1,)), P((0,)), 1)


def test_s1_off_containment_zero():
    assert s1(P((1, 1)), P((2, 0))) == ZERO
    assert s2(P((1, 1)), P((2, 0))) == ZERO


def test_stirling_tables_take_no_polynomial_gcd(monkeypatch):
    # every denominator s1 and s2 meet is a product of binomials with a known
    # factor map, so the operators reduce by trial division, never by gcd
    calls = []
    gcd = Polynomial.gcd

    def counted(f, g):
        calls.append((f, g))
        return gcd(f, g)

    monkeypatch.setattr(Polynomial, "gcd", counted)
    clear_cache()
    for nu, mu in _pairs(P((2, 2, 1))):
        s1(nu, mu)
        s2(nu, mu)
    assert calls == []
