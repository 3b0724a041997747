"""Limiting well-poised Macdonald functions.

Single-variable skew closed forms w and w-hat, the multivariable recursion
(peeling one argument at a time over horizontal-strip predecessors), the
staircase closed form, vanishing, duality between w and w-hat, and the
q -> 1 limits w-bar that feed the Stirling formulas.

The skew closed form keeps the Pochhammer ratio (1/x)_lam / (1/x)_mu as a
single cancelled product over the strip cells, so no spurious poles appear
when arguments specialize to staircase points.  That ratio and the h factor
of the strip are one merged factor list, so w and w-hat share one product
per strip and argument, times a monomial prefactor each.
"""

from __future__ import annotations

from itertools import chain
from operator import index
from typing import Sequence

from .algebra import (
    ONE,
    RationalFn,
    ZERO,
    _fsum,
    flip_qt,
    limit_q_to_1,
    memo,
    monomial_rf,
    q_pow,
    t_pow,
)
from .partitions import (
    Partition,
    horizontal_strip_predecessors,
    is_horizontal_strip,
    n_stat,
    n_stat_conj,
    weight,
)
from .pochhammer import (
    Factors,
    _vector,
    binomial_product,
    pair_factors,
    partition_factors,
    poch_factors,
)

__all__ = [
    "NotAStripError",
    "h_factor",
    "w_skew_single",
    "w_hat_skew_single",
    "w_multi",
    "w_hat_multi",
    "w_staircase",
    "w_bar",
    "staircase_args",
    "generic_staircase_args",
]


class NotAStripError(ValueError):
    """The skew pair is not a horizontal strip."""


def staircase_args(z: Sequence[int]) -> tuple[RationalFn, ...]:
    """Arguments q^{z_i} * t^{n-i} for an integer vector z; an entry that is not an
    integer (operator.index) is a TypeError, not truncated."""
    n = len(z)
    return tuple(monomial_rf(e_q=index(z[i]), e_t=n - 1 - i) for i in range(n))


def generic_staircase_args(n: int) -> tuple[RationalFn, ...]:
    """Arguments X * t^{n-i}, the generic staircase specialization."""
    return tuple(monomial_rf(e_t=n - 1 - i, e_X=1) for i in range(n))


def _h_strip_factors(lam: Partition, mu: Partition) -> Factors:
    """The factors of h_factor(lam, mu), lam / mu a horizontal strip."""
    for j in range(2, lam.n + 1):
        m = mu[j - 2] - lam[j - 1]
        for i in range(1, j):
            yield from poch_factors((mu[i - 1] - mu[j - 2], j - i, 0), m)
            yield from poch_factors((lam[i - 1] - mu[j - 2] + 1, j - i - 1, 0), m)
            yield from poch_factors((mu[i - 1] - mu[j - 2] + 1, j - i - 1, 0), m, e=-1)
            yield from poch_factors((lam[i - 1] - mu[j - 2], j - i, 0), m, e=-1)


def h_factor(lam: Partition, mu: Partition) -> RationalFn:
    """The interlacing factor of the skew closed forms (equals 1 for lam = mu)."""
    if not is_horizontal_strip(lam, mu):
        raise NotAStripError(f"{lam}/{mu} is not a horizontal strip")
    return binomial_product(_h_strip_factors(lam, mu))


def _strip_product(lam: Partition, mu: Partition, x: RationalFn) -> RationalFn:
    """h_factor(lam, mu) * (1/x; q, t)_lam / (1/x; q, t)_mu as one product, the
    Pochhammer ratio cancelled to the strip cells, lam / mu a horizontal strip."""
    a, b, c = _vector(x, "x")
    return binomial_product(chain(_h_strip_factors(lam, mu), (
        f for i, (top, bottom) in enumerate(zip(lam, mu)) if top > bottom
        for f in poch_factors((bottom - a, -i - b, -c), top - bottom))))


@memo
def w_skew_single(lam: Partition, mu: Partition, x: RationalFn) -> RationalFn:
    """Single-variable skew w, x a monomial of coefficient 1; zero off horizontal strips."""
    if not is_horizontal_strip(lam, mu):
        return ZERO
    d = weight(lam) - weight(mu)
    sign = -1 if d % 2 else 1
    pref = sign * x ** d * q_pow(n_stat_conj(mu) - n_stat_conj(lam) - d)
    return pref * _strip_product(lam, mu, x)


@memo
def w_hat_skew_single(lam: Partition, mu: Partition, x: RationalFn) -> RationalFn:
    """Single-variable skew dual w-hat, x as for w_skew_single; zero off horizontal strips."""
    if not is_horizontal_strip(lam, mu):
        return ZERO
    return t_pow(-n_stat(lam) + weight(mu) + n_stat(mu)) * _strip_product(lam, mu, x)


@memo
def _w_rec(lam: Partition, xs: tuple[RationalFn, ...], dual: bool) -> RationalFn:
    # called with positional arguments only, so that every call shares one memo key
    if not xs:
        return ONE if weight(lam) == 0 else ZERO
    rest = xs[1:]
    ell = len(rest)
    # read each argument before the inner values, since a vanishing rest skips the skew w's
    a, b, c = _vector(xs[0], "x")
    y_shift = monomial_rf(a, b - ell, c)
    terms = []
    for nu in horizontal_strip_predecessors(lam):
        inner = _w_rec(nu, rest, dual)
        if inner.is_zero:
            continue
        skew = (w_hat_skew_single if dual else w_skew_single)(lam, nu, y_shift)
        if skew.is_zero:
            continue
        term = skew * inner
        if not dual:
            term = t_pow(ell * (weight(lam) - weight(nu))) * term
        terms.append(term)
    return _fsum(terms)


def _argument_tuple(mu: Partition, xs: Sequence[RationalFn]) -> tuple[RationalFn, ...]:
    xs = tuple(xs)
    if len(xs) != mu.n:
        raise ValueError(f"need {mu.n} arguments for {mu}, got {len(xs)}")
    return xs


def w_multi(mu: Partition, xs: Sequence[RationalFn]) -> RationalFn:
    """w_mu(x_1, ..., x_n; q, t) by the horizontal-strip recursion; each x is a monomial of
    coefficient 1, and any other argument is a ValueError."""
    return _w_rec(mu, _argument_tuple(mu, xs), False)


def w_hat_multi(mu: Partition, xs: Sequence[RationalFn]) -> RationalFn:
    """Dual w-hat_mu(x_1, ..., x_n; q, t) via the strip recursion without t-weights."""
    return _w_rec(mu, _argument_tuple(mu, xs), True)


def w_staircase(mu: Partition, x: RationalFn) -> RationalFn:
    """Closed form of w_mu at (x t^{n-1}, ..., x t, x), x a monomial of coefficient 1."""
    return q_pow(-weight(mu)) * binomial_product(chain(partition_factors(
        _vector(x, "x"), mu, flipped=True), pair_factors(mu, 0, 1), pair_factors(mu, 0, 0, e=-1)))


def w_bar(mu: Partition, lam: Partition, invert: bool = False) -> RationalFn:
    """The q -> 1 limit of (1-q)^{-mu_1} w_mu at the staircase point of lam.

    With invert=True the limit is taken of the parameter-flipped value, i.e.
    of w_mu(q^-lam t^-delta; 1/q, 1/t), which is the form entering the
    first-kind Stirling sum.  A PoleError means the limit genuinely diverges.
    """
    if mu.n != lam.n:
        raise ValueError("mu and lam must share the ambient length")
    value = w_multi(mu, staircase_args(lam.parts))
    if invert:
        value = flip_qt(value)
    return limit_q_to_1(value, mu[0])
