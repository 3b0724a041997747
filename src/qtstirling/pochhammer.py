"""Finite q-Pochhammer symbols and every other product of binomials.

poch(a, m) is the finite product prod_{k=0}^{m-1} (1 - a q^k), extended to
negative m by poch(a, m) = 1 / poch(a q^m, -m).  The partition symbol is
(a; q, t)_lam = prod_i (a t^(1-i); q)_{lam_i}.  Arguments are monomials
q^a t^b X^x of coefficient 1; anything else is a ValueError.

Every product of binomials in the package is a factor list of pairs
((a, b, x), e) standing for (1 - q^a t^b X^x)^e, which the generators below
build by integer arithmetic on exponent vectors.  `binomial_product` is the
one place that multiplies such a list out; it adds up the exponents of equal
vectors first, so a factor that a quotient divides out again is never
formed.  Each power comes from `algebra.binomial_power` with the cyclotomic
factor map of its binomial, so the product cancels without a gcd.  It is
cached, keyed by its merged factor list: the package's one memo of such
products.  A list of several factors is multiplied from its single-factor
entries, so that memo holds every binomial power too, and each is built
once.  A prefactor that is a product of several such products (h / g, the
bracket's t-ratio with its qt factors, the h factor with the strip ratio)
is one merged list too, so it is multiplied out and cancelled once.
"""

from __future__ import annotations

from contextlib import suppress
from itertools import combinations
from typing import Iterable, Iterator, Optional, Sequence

from .algebra import ONE, PoleError, RationalFn, ZERO, _image, binomial_power, memo
from .partitions import Partition

__all__ = [
    "poch",
    "poch_partition",
    "poch_partition_flipped",
]

Vector = tuple[int, int, int]
Factors = Iterator[tuple[Vector, int]]


def binomial_product(factors: Iterable[tuple[Vector, int]]) -> RationalFn:
    """prod (1 - q^a t^b X^x)^e over the pairs ((a, b, x), e), equal vectors merged first.

    Only equal vectors merge: (1 - q^2) and (1 - q) share the factor (1 - q),
    and their quotient is left to the RationalFn operators and the factor maps.
    The vanishing factor (0, 0, 0) raises PoleError if any pair gives it a
    negative exponent, even when other pairs cancel it, and otherwise makes
    the product ZERO.  Each product is cached by its merged factor list.
    """
    exps: dict[Vector, int] = {}
    for m, e in factors:
        if e < 0 and m == (0, 0, 0):
            raise PoleError("a vanishing binomial factor is divided by")
        exps[m] = exps.get(m, 0) + e
    return ZERO if exps.get((0, 0, 0)) else _multiplied(tuple((m, e) for m, e in exps.items() if e))


@memo
def _multiplied(factors: tuple[tuple[Vector, int], ...]) -> RationalFn:
    """prod (1 - q^a t^b X^x)^e over the merged pairs ((a, b, x), e), in their order.

    Only a one-factor list calls `binomial_power`; a longer one multiplies
    the memoised single-factor entries, so each power is built once.
    """
    if len(factors) == 1:
        return binomial_power(*factors[0])
    out = ONE
    for factor in factors:
        out = out * _multiplied((factor,))
    return out


def _vector(a: RationalFn, name: str) -> Vector:
    """The exponent vector (a, b, x) of a = q^a t^b X^x; any other argument is a ValueError."""
    with suppress(ValueError):
        c, m = _image(a)
        if c == 1:
            return m
    raise ValueError(f"{name} = {a!r} is not a monomial q^a*t^b*X^x of coefficient 1")


def poch_factors(a: Vector, m: int, base: Vector = (1, 0, 0), e: int = 1) -> Factors:
    """The factors of (a; base)_m^e; negative m inverts."""
    if m < 0:
        a, m, e = tuple(x + m * y for x, y in zip(a, base)), -m, -e
    for k in range(m):
        yield (a[0] + k * base[0], a[1] + k * base[1], a[2] + k * base[2]), e


def partition_factors(a: Vector, lam: Partition, flipped: bool = False, e: int = 1) -> Factors:
    """The factors of (a; q, t)_lam^e, or of (a; 1/q, 1/t)_lam^e when flipped."""
    base = (-1, 0, 0) if flipped else (1, 0, 0)
    for i, part in enumerate(lam):
        yield from poch_factors((a[0], a[1] + (i if flipped else -i), a[2]), part, base, e)


def pair_factors(mu: Partition, c: int, s: int, e: int = 1) -> Factors:
    """The factors of prod_{i<j} (q^c t^{j-i+s}; q)_{mu_i - mu_j}^e."""
    for i, j in combinations(range(mu.n), 2):
        yield from poch_factors((c, j - i + s, 0), mu[i] - mu[j], e=e)


def qt_factors(exps: Sequence[int]) -> Factors:
    """The factors of prod_i (1 - q t^{n-i})^{e_i} over the n = len(exps) exponents e_i."""
    n = len(exps)
    for i, e in enumerate(exps, start=1):
        if e:
            yield (1, n - i, 0), e


def poch(a: RationalFn, m: int, base: Optional[RationalFn] = None) -> RationalFn:
    """(a; base)_m with base defaulting to q; negative m inverts the product."""
    base = (1, 0, 0) if base is None else _vector(base, "base")
    return binomial_product(poch_factors(_vector(a, "a"), m, base))


def poch_partition(a: RationalFn, lam: Partition) -> RationalFn:
    """(a; q, t)_lam = prod_i (a t^(1-i); q)_{lam_i}."""
    return binomial_product(partition_factors(_vector(a, "a"), lam))


def poch_partition_flipped(a: RationalFn, lam: Partition) -> RationalFn:
    """(a; 1/q, 1/t)_lam, built with explicit reciprocal bases."""
    return binomial_product(partition_factors(_vector(a, "a"), lam, flipped=True))
