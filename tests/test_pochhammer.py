"""Finite and partition q-Pochhammer symbols, negative indices, the flip formula."""

import pytest

from qtstirling.algebra import ONE, PoleError, Q, T, X, canonical_str, q_pow, t_pow
from qtstirling.partitions import Partition, partitions_in_box
from qtstirling.pochhammer import (
    poch,
    poch_multi,
    poch_partition,
    poch_partition_flipped,
)
from qtstirling.verify import check_identity

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


def test_poch_multi():
    lam = P((2, 1))
    a, b = X, Q * T
    assert poch_multi([a, b], lam) == poch_partition(a, lam) * poch_partition(b, lam)
    assert poch_multi([], lam) == ONE
    assert poch_multi([a], lam) == poch_partition(a, lam)


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
