"""Partition lattice, interlacing, statistics; brute-force enumeration oracles."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtstirling import partitions
from qtstirling.algebra import _MEMOS, clear_cache
from qtstirling.partitions import (
    Partition,
    contains,
    horizontal_strip_predecessors,
    is_horizontal_strip,
    n_stat,
    n_stat_conj,
    partitions_between,
    partitions_in_box,
    subpartitions,
    weight,
    zeros,
)

P = Partition


def conjugate(mu):
    """Reference transpose of the Young diagram; ambient length max(mu_1, 1)."""
    m = max(mu.parts[0], 1)
    return P(tuple(sum(1 for p in mu.parts if p > i) for i in range(m)))


def brute_force_subpartitions(lam):
    """Independent oracle: filter the full coordinate grid."""
    grids = product(*[range(0, p + 1) for p in lam.parts])
    return sorted(
        g for g in grids if all(g[i] >= g[i + 1] for i in range(len(g) - 1))
    )


def brute_force_strip_predecessors(lam):
    """Independent oracle straight from the interlacing definition."""
    out = []
    for g in product(*[range(0, lam.parts[0] + 1)] * lam.n):
        if all(g[i] >= g[i + 1] for i in range(len(g) - 1)):
            if is_horizontal_strip(lam, P(g)):
                out.append(g)
    return sorted(out)


def test_validation():
    with pytest.raises(ValueError):
        P(())
    with pytest.raises(ValueError):
        P((1, 2))
    with pytest.raises(ValueError):
        P((1, -1))
    # a part that is not an integer is refused, never truncated
    for parts in ((2.7, 1), ("3", True), (1.0,), (Fraction(3),)):
        with pytest.raises(TypeError):
            P(parts)
    assert P((True, 0)).parts == (1, 0)


def test_partition_value_behaviour():
    import copy
    import pickle

    mu = P((2, 1))
    assert repr(mu) == "Partition(parts=(2, 1))"
    assert mu == P([2, 1]) and hash(mu) == hash(P([2, 1])) == hash(((2, 1),))
    assert mu != (2, 1) and mu != P((2, 1, 0)) and mu != "(2,1)"
    with pytest.raises(AttributeError):
        mu.parts = (3, 1)
    with pytest.raises(AttributeError):
        mu.extra = 1
    with pytest.raises(AttributeError):
        del mu.parts
    assert mu.parts == (2, 1)
    assert copy.copy(mu) == copy.deepcopy(mu) == pickle.loads(pickle.dumps(mu)) == mu


def test_statistics():
    assert weight(P((3, 1, 0))) == 4
    assert weight(P((0, 0))) == 0
    assert weight(P((2, 2, 2))) == 6
    assert n_stat(P((3, 1))) == 1
    assert n_stat_conj(P((3, 1))) == 3
    assert n_stat(P((7,))) == 0
    assert n_stat(P((2, 2))) == 2
    assert n_stat_conj(P((2, 2))) == 2


def test_conjugate():
    assert conjugate(P((3, 1))) == P((2, 1, 1))
    assert conjugate(P((0, 0))) == P((0,))
    twice = conjugate(conjugate(P((3, 2, 1))))
    assert twice == P((3, 2, 1))


def test_contains():
    assert contains(P((2, 1)), P((1, 1)))
    assert not contains(P((3, 1)), P((2, 2)))
    assert contains(P((2, 1)), P((2, 1)))
    with pytest.raises(ValueError):
        contains(P((2, 1)), P((1,)))


def test_horizontal_strip():
    assert is_horizontal_strip(P((2, 1)), P((1, 1)))
    assert is_horizontal_strip(P((3, 3)), P((3, 1)))
    assert not is_horizontal_strip(P((3, 3)), P((1, 1)))
    lam = P((4, 2, 1))
    assert is_horizontal_strip(lam, lam)


def test_subpartitions_against_oracle():
    lam = P((2, 1))
    got = [p.parts for p in subpartitions(lam)]
    assert got == brute_force_subpartitions(lam)
    assert len(got) == 5
    assert got == sorted(got)  # lexicographic ascending

    assert [p.parts for p in subpartitions(P((0, 0, 0)))] == [(0, 0, 0)]
    assert len(list(subpartitions(P((4,))))) == 5

    for parts in [(3,), (2, 2), (3, 1), (4, 2, 1), (2, 2, 2)]:
        lam = P(parts)
        assert [p.parts for p in subpartitions(lam)] == brute_force_subpartitions(lam)


def test_strip_predecessors_against_oracle():
    lam = P((2, 1))
    got = [p.parts for p in horizontal_strip_predecessors(lam)]
    assert got == [(1, 0), (1, 1), (2, 0), (2, 1)]
    assert got == brute_force_strip_predecessors(lam)

    z = P((0, 0))
    assert list(horizontal_strip_predecessors(z)) == [z]
    assert [p.parts for p in horizontal_strip_predecessors(P((3,)))] == [(0,), (1,), (2,), (3,)]

    for parts in [(3, 1), (2, 2, 1), (3, 3)]:
        lam = P(parts)
        assert [p.parts for p in horizontal_strip_predecessors(lam)] == brute_force_strip_predecessors(lam)


def test_partitions_between():
    got = [p.parts for p in partitions_between(P((1, 0)), P((2, 1)))]
    assert got == [(1, 0), (1, 1), (2, 0), (2, 1)]
    assert [p.parts for p in partitions_between(P((2, 1)), P((2, 1)))] == [(2, 1)]


def test_zeros():
    assert zeros(3) == P((0, 0, 0))


_box = st.integers(1, 3).flatmap(
    lambda n: st.lists(st.integers(0, 4), min_size=n, max_size=n).map(
        lambda parts: P(tuple(sorted(parts, reverse=True)))
    )
)


@given(_box, _box, _box)
@settings(max_examples=80, deadline=None)
def test_contains_partial_order(a, b, c):
    if not (a.n == b.n == c.n):
        return
    assert contains(a, a)
    if contains(a, b) and contains(b, a):
        assert a == b
    if contains(a, b) and contains(b, c):
        assert contains(a, c)


@given(_box, _box)
@settings(max_examples=80, deadline=None)
def test_strip_implies_containment(lam, nu):
    if lam.n != nu.n:
        return
    if is_horizontal_strip(lam, nu):
        assert contains(lam, nu)


@given(_box)
@settings(max_examples=80, deadline=None)
def test_conjugate_statistics(mu):
    assert weight(conjugate(mu)) == weight(mu)
    assert n_stat(mu) == n_stat_conj(conjugate(mu))


def test_box_enumeration_matches_subpartitions():
    box = list(partitions_in_box(2, 3))
    assert len(box) == 10
    assert box == list(subpartitions(P((3, 3))))


def _decreasing_grid(n, top):
    """Every weakly decreasing n-tuple of parts <= top, by filtering the full grid, ascending."""
    return [g for g in product(range(top + 1), repeat=n)
            if all(g[i] >= g[i + 1] for i in range(n - 1))]


def test_enumerators_match_a_filtered_grid_up_to_four_parts_of_four():
    for n in range(1, 5):
        grid = _decreasing_grid(n, 4)
        assert [p.parts for p in partitions_in_box(n, 4)] == grid
        for lam in map(P, grid):
            below = [g for g in grid if contains(lam, P(g))]
            assert [p.parts for p in subpartitions(lam)] == below
            assert [p.parts for p in horizontal_strip_predecessors(lam)] == [
                g for g in below if is_horizontal_strip(lam, P(g))]
            for mu in map(P, below):
                assert [p.parts for p in partitions_between(mu, lam)] == [
                    g for g in below if contains(P(g), mu)]


def test_enumerated_partitions_equal_and_hash_as_built_ones():
    lam = P((3, 2, 2, 1))
    for got in (*subpartitions(lam), *horizontal_strip_predecessors(lam),
                *partitions_between(P((1, 1, 0, 0)), lam), *partitions_in_box(2, 3)):
        built = P(got.parts)
        assert got == built and hash(got) == hash(built) == hash((got.parts,))
        with pytest.raises(AttributeError):
            got.parts = (0,)


def test_the_box_memo_is_one_package_memo_that_clear_cache_empties():
    assert partitions._box in _MEMOS
    list(subpartitions(P((2, 1))))
    assert partitions._box.cache_info().currsize > 0
    clear_cache()
    assert partitions._box.cache_info().currsize == 0
    # an interval visited again is the kept tuple, not a new enumeration
    first = list(partitions_between(P((0, 0)), P((2, 1))))
    assert all(a is b for a, b in zip(first, subpartitions(P((2, 1)))))


def test_a_box_past_the_memo_limit_is_enumerated_afresh(monkeypatch):
    monkeypatch.setattr(partitions, "_BOX_MAX", 4)
    clear_cache()
    lam = P((2, 1))  # 5 subpartitions
    assert [p.parts for p in subpartitions(lam)] == brute_force_subpartitions(lam)
    assert partitions._box(((0, 2), (0, 1))) is None
    assert len(partitions._box(((0, 2), (0, 0)))) == 3
    clear_cache()
