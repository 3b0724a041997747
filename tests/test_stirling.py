"""Stirling numbers: explicit formulas, limits, the V-algebra, inversions."""

from fractions import Fraction

import pytest

from qtstirling.algebra import (
    ONE,
    PoleError,
    Q,
    T,
    ZERO,
    const,
    limit_q_to_1,
)
from qtstirling.partitions import Partition, partitions_in_box, subpartitions, zeros
from qtstirling.stirling import (
    f_factor,
    identity_matrix,
    matrix_from_function,
    ordinary_alpha_stirling,
    s1,
    s2,
    stirling_matrix,
    u_limit,
    u_limit_direct,
    u_matrix,
    v_limit,
    v_limit_direct,
    v_matrix,
    valgebra_multiply,
)
from qtstirling.verify import check_identity

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
    bound = P((2, 1))
    a = stirling_matrix("s1", bound)
    delta = identity_matrix(bound)
    assert valgebra_multiply(delta, a) == a
    assert valgebra_multiply(a, delta) == a


def test_valgebra_shape_mismatch():
    with pytest.raises(ValueError):
        valgebra_multiply(identity_matrix(P((1,))), identity_matrix(P((2,))))


def test_stirling_matrix_inverse_pair():
    for bound in [P((1,)), P((2, 1)), P((3,)), P((2, 2))]:
        assert check_identity("stirling-inversion", bound=bound).passed


def test_uv_matrix_inverse_pair():
    bound = P((2, 2))
    u = stirling_matrix("u", bound)
    v = stirling_matrix("v", bound)
    ident = identity_matrix(bound)
    assert valgebra_multiply(u, v) == ident
    assert valgebra_multiply(v, u) == ident


def test_matrix_triangularity():
    m = stirling_matrix("s1", P((2, 1)))
    for (lam, mu) in m.entries:
        assert all(a >= b for a, b in zip(lam, mu))
    assert m.entry(P((1, 0)), P((1, 1))) == ZERO


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
    bound = P((2, 0))
    m1 = matrix_from_function(bound, lambda lam, mu: ordinary_alpha_stirling("s1", lam, mu, 2))
    m2 = matrix_from_function(bound, lambda lam, mu: ordinary_alpha_stirling("s2", lam, mu, 2))
    assert valgebra_multiply(m1, m2) == identity_matrix(bound)
    assert valgebra_multiply(m2, m1) == identity_matrix(bound)
    # s1((2,1),(1,0)) = (1-t)/(1-qt)^2 has a pole at q = 1 once t = q^2
    with pytest.raises(PoleError):
        ordinary_alpha_stirling("s1", P((2, 1)), P((1, 0)), 2)


def test_s1_off_containment_zero():
    assert s1(P((1, 1)), P((2, 0))) == ZERO
    assert s2(P((1, 1)), P((2, 0))) == ZERO
