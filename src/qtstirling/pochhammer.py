"""Finite q-Pochhammer symbols and their partition-indexed extensions.

poch(a, m) is the finite product prod_{k=0}^{m-1} (1 - a q^k), extended to
negative m by poch(a, m) = 1 / poch(a q^m, -m).  The partition symbol is
(a; q, t)_lam = prod_i (a t^(1-i); q)_{lam_i}.  Arguments may be arbitrary
rational functions of q, t, X, and flipped-base symbols (base 1/q, 1/t) are
built from explicit reciprocals so that X is never flipped by accident.
"""

from __future__ import annotations

from itertools import combinations
from typing import Optional, Sequence

from .algebra import ONE, PoleError, Q, RationalFn, monomial_rf, q_pow, t_pow
from .partitions import Partition

__all__ = [
    "poch",
    "poch_partition",
    "poch_partition_flipped",
    "poch_multi",
]

def poch(a: RationalFn, m: int, base: Optional[RationalFn] = None) -> RationalFn:
    """(a; base)_m with base defaulting to q; negative m inverts the product."""
    if base is None:
        base = Q
    if m >= 0:
        out = ONE
        power = ONE
        for _ in range(m):
            out = out * (ONE - a * power)
            power = power * base
        return out
    inv = poch(a * base ** m, -m, base)
    if inv.is_zero:
        raise PoleError("negative-index Pochhammer hits a vanishing factor")
    return inv.inverse()


def poch_partition(a: RationalFn, lam: Partition) -> RationalFn:
    """(a; q, t)_lam = prod_i (a t^(1-i); q)_{lam_i}."""
    out = ONE
    for i, part in enumerate(lam, start=1):
        out = out * poch(a * t_pow(1 - i), part)
    return out


def poch_partition_flipped(a: RationalFn, lam: Partition) -> RationalFn:
    """(a; 1/q, 1/t)_lam, built with explicit reciprocal bases."""
    out = ONE
    qinv = q_pow(-1)
    for i, part in enumerate(lam, start=1):
        out = out * poch(a * t_pow(i - 1), part, base=qinv)
    return out


def poch_multi(args: Sequence[RationalFn], lam: Partition) -> RationalFn:
    """(a_1, ..., a_k; q, t)_lam, the product over all arguments."""
    out = ONE
    for a in args:
        out = out * poch_partition(a, lam)
    return out


def qt_factor_product(exps: Sequence[int]) -> RationalFn:
    """prod_i (1 - q t^{n-i})^{e_i} over the n = len(exps) exponents e_i."""
    n = len(exps)
    out = ONE
    for i, e in enumerate(exps, start=1):
        if e:
            out = out * (ONE - monomial_rf(e_q=1, e_t=n - i)) ** e
    return out


def pair_poch_product(mu: Partition, c: int, s: int) -> RationalFn:
    """prod_{i<j} (q^c t^{j-i+s}; q)_{mu_i - mu_j}."""
    out = ONE
    for i, j in combinations(range(mu.n), 2):
        d = mu[i] - mu[j]
        if d:
            out = out * poch(monomial_rf(e_q=c, e_t=j - i + s), d)
    return out

