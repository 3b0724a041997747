"""Finite q-Pochhammer symbols and every other product of binomials.

poch(a, m) is the finite product prod_{k=0}^{m-1} (1 - a q^k), extended to
negative m by poch(a, m) = 1 / poch(a q^m, -m).  The partition symbol is
(a; q, t)_lam = prod_i (a t^(1-i); q)_{lam_i}.  Arguments may be arbitrary
rational functions of q, t, X, and flipped-base symbols (base 1/q, 1/t) are
built from explicit reciprocals so that X is never flipped by accident.

Every product of binomials in the package, these symbols and their quotients
included, is a factor list of pairs (a, e) standing for (1 - a)^e, built by
the generators below.  `binomial_product` is the one place that multiplies
such a list out; it adds up the exponents of equal a first, so a factor that
a quotient divides out again is never formed.  Each (1 - a)^e comes from
`algebra.binomial_power`, which gives it the cyclotomic factor map of
1 - a when a is a monomial of coefficient 1, as every a the library forms
is.  The product then cancels by those maps, without a gcd, and is cached,
keyed by its merged factor list: the package's one memo of such products.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator, Optional, Sequence

from .algebra import ONE, PoleError, Q, RationalFn, ZERO, binomial_power, memo, monomial_rf, q_pow, t_pow
from .partitions import Partition

__all__ = [
    "poch",
    "poch_partition",
    "poch_partition_flipped",
]

Factors = Iterator[tuple[RationalFn, int]]


def binomial_product(factors: Iterable[tuple[RationalFn, int]]) -> RationalFn:
    """prod (1 - a)^e over the pairs (a, e), the exponents of equal a summed first.

    Only equal a merge: (1 - q^2) and (1 - q) share the factor (1 - q), and
    their quotient is left to the RationalFn operators and the factor maps.
    A vanishing factor (a = 1) raises PoleError if any pair gives it a
    negative exponent, even when other pairs cancel it, and otherwise makes
    the product ZERO.  Each product is cached by its merged factor list.
    """
    exps: dict[RationalFn, int] = {}
    for a, e in factors:
        if e < 0 and a == ONE:
            raise PoleError("a vanishing binomial factor is divided by")
        exps[a] = exps.get(a, 0) + e
    return ZERO if exps.get(ONE) else _multiplied(tuple((a, e) for a, e in exps.items() if e))


@memo
def _multiplied(factors: tuple[tuple[RationalFn, int], ...]) -> RationalFn:
    """prod (1 - a)^e over the merged pairs (a, e) of nonzero e, in their order."""
    out = ONE
    for a, e in factors:
        out = out * binomial_power(a, e)
    return out


def poch_factors(a: RationalFn, m: int, base: RationalFn = Q, e: int = 1) -> Factors:
    """The factors of (a; base)_m^e; negative m inverts."""
    if m < 0:
        a, m, e = a * base ** m, -m, -e
    for k in range(m):
        if k:
            a = a * base
        yield a, e


def partition_factors(a: RationalFn, lam: Partition, flipped: bool = False) -> Factors:
    """The factors of (a; q, t)_lam, or of (a; 1/q, 1/t)_lam when flipped."""
    base = q_pow(-1) if flipped else Q
    for i, part in enumerate(lam, start=1):
        if part:
            yield from poch_factors(a * t_pow(i - 1 if flipped else 1 - i), part, base)


def pair_factors(mu: Partition, c: int, s: int, e: int = 1) -> Factors:
    """The factors of prod_{i<j} (q^c t^{j-i+s}; q)_{mu_i - mu_j}^e."""
    for i, j in combinations(range(mu.n), 2):
        d = mu[i] - mu[j]
        if d:
            yield from poch_factors(monomial_rf(e_q=c, e_t=j - i + s), d, e=e)


def qt_factors(exps: Sequence[int]) -> Factors:
    """The factors of prod_i (1 - q t^{n-i})^{e_i} over the n = len(exps) exponents e_i."""
    n = len(exps)
    for i, e in enumerate(exps, start=1):
        if e:
            yield monomial_rf(e_q=1, e_t=n - i), e


def poch(a: RationalFn, m: int, base: Optional[RationalFn] = None) -> RationalFn:
    """(a; base)_m with base defaulting to q; negative m inverts the product."""
    return binomial_product(poch_factors(a, m, Q if base is None else base))


def poch_partition(a: RationalFn, lam: Partition) -> RationalFn:
    """(a; q, t)_lam = prod_i (a t^(1-i); q)_{lam_i}."""
    return binomial_product(partition_factors(a, lam))


def poch_partition_flipped(a: RationalFn, lam: Partition) -> RationalFn:
    """(a; 1/q, 1/t)_lam, built with explicit reciprocal bases."""
    return binomial_product(partition_factors(a, lam, flipped=True))

