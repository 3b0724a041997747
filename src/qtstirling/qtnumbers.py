"""qt-binomial coefficients and the qt-bracket family.

The qt-binomial generalizes the Gaussian polynomial to partition indices,
via the w function evaluated at staircase points q^z t^delta(n).  The
exponent vector z may be any integer vector (no sorting is applied), or the
generic single variable x-bar, realized through X = q^x.  Brackets combine
a multiplicative shift s with the exponential vector z.
"""

from __future__ import annotations

from itertools import chain
from operator import index
from typing import Sequence, Union

from .algebra import ONE, RationalFn, ZERO, monomial_rf, q_pow, t_pow
from .partitions import (
    Partition,
    contains,
    n_stat,
    weight,
)
from .pochhammer import (
    Factors,
    binomial_product,
    pair_factors,
    partition_factors,
    poch_factors,
    qt_factors,
)
from .wfunctions import generic_staircase_args, staircase_args, w_multi

__all__ = [
    "XBAR",
    "ZVector",
    "h_product",
    "g_product",
    "qt_binomial",
    "qt_binomial_rect",
    "gaussian_binomial",
    "qt_bracket",
    "qt_number",
    "bracket_rect",
]


class _XBar:
    """Marker for the generic diagonal vector (x, ..., x), realized via X."""

    def __repr__(self):
        return "XBAR"


XBAR = _XBar()

ZVector = Union[Partition, Sequence[int], _XBar]


def _z_entries(z: ZVector, n: int) -> tuple:
    if isinstance(z, _XBar):
        return generic_staircase_args(n)
    if isinstance(z, Partition):
        z = z.parts
    if len(z) != n:
        raise ValueError(f"exponent vector {z} does not match ambient length {n}")
    return staircase_args(z)


def _h_factors(mu: Partition, e: int = 1) -> Factors:
    """The factors of h_product(mu)^e."""
    return chain(pair_factors(mu, 1, 0, e), pair_factors(mu, 1, -1, -e))


def _g_factors(mu: Partition, e: int = 1) -> Factors:
    """The factors of g_product(mu)^e."""
    return partition_factors((1, mu.n - 1, 0), mu, e=e)


def _t_ratio_factors(mu: Partition, e: int = 1) -> Factors:
    """The factors of (prod_{i<j} (t^{j-i})_{mu_i-mu_j} / (t^{j-i+1})_{mu_i-mu_j})^e."""
    return chain(pair_factors(mu, 0, 0, e), pair_factors(mu, 0, 1, -e))


def h_product(mu: Partition) -> RationalFn:
    """prod_{i<j} (q t^{j-i})_{mu_i - mu_j} / (q t^{j-i-1})_{mu_i - mu_j}."""
    return binomial_product(_h_factors(mu))


def g_product(mu: Partition) -> RationalFn:
    """(q t^{n-1}; q, t)_mu = prod_i (q t^{n-i}; q)_{mu_i}."""
    return binomial_product(_g_factors(mu))


def _t_ratio_bracket(mu: Partition) -> RationalFn:
    """The product of _t_ratio_factors(mu)."""
    return binomial_product(_t_ratio_factors(mu))


def _h_over_g(mu: Partition) -> RationalFn:
    """h_product(mu) / g_product(mu) as one product: the prefactor of qt_binomial and u_matrix."""
    return binomial_product(chain(_h_factors(mu), _g_factors(mu, -1)))


def qt_binomial(z: ZVector, mu: Partition) -> RationalFn:
    """The qt-binomial coefficient of z over mu."""
    n = mu.n
    if isinstance(z, Partition) and not contains(z, mu):
        return ZERO
    args = _z_entries(z, n)
    pref = monomial_rf(e_q=weight(mu), e_t=2 * n_stat(mu) + (1 - n) * weight(mu))
    return pref * _h_over_g(mu) * w_multi(mu, args)


def qt_binomial_rect(mu: Partition) -> RationalFn:
    """Closed form of the qt-binomial at z = x-bar, as a rational function of X."""
    n = mu.n
    return t_pow(2 * n_stat(mu) + (1 - n) * weight(mu)) * binomial_product(chain(
        _g_factors(mu, -1), partition_factors((0, 0, 1), mu, True), _h_factors(mu),
        _t_ratio_factors(mu, -1)))


def gaussian_binomial(m: int, k: int) -> RationalFn:
    """(q)_m / ((q)_{m-k} (q)_k), the one-variable q-binomial coefficient.

    It is 0 for k < 0 or k > m >= 0; m < 0 is a ValueError, since (q)_m has
    a pole there.
    """
    if m < 0:
        raise ValueError(f"gaussian_binomial takes m >= 0, got {m}")
    if k < 0 or k > m:
        return ZERO
    return binomial_product(chain(poch_factors((1, 0, 0), m), poch_factors((1, 0, 0), m - k, e=-1),
                                  poch_factors((1, 0, 0), k, e=-1)))


def qt_bracket(z: ZVector, mu: Partition, s: RationalFn = ONE) -> RationalFn:
    """The mu-shifted qt-number [z, s]_mu with shift s, a monomial of coefficient 1."""
    n = mu.n
    args = tuple(s * entry for entry in _z_entries(z, n))
    out = binomial_product(chain(qt_factors([-m for m in mu]), _t_ratio_factors(mu)))
    return q_pow(weight(mu)) * out * w_multi(mu, args)


def qt_number(z: Sequence[int]) -> RationalFn:
    """[z] = prod_i (1 - q^{z_i} t^{n-i}) / (1 - q t^{n-i}); an entry of z that is
    not an integer (operator.index) is a TypeError, not truncated."""
    if isinstance(z, Partition):
        z = z.parts
    n = len(z)
    zs = [((index(z[i - 1]), n - i, 0), 1) for i in range(1, n + 1)]
    return binomial_product(chain(qt_factors([-1] * n), zs))


def _bracket_rect_factors(mu: Partition) -> Factors:
    """The factors of bracket_rect(mu)."""
    return chain(partition_factors((0, 0, 1), mu, True), qt_factors([-m for m in mu]))


def bracket_rect(mu: Partition) -> RationalFn:
    """The bracket at the generic diagonal point, prod_i (X t^{i-1}; 1/q)_{mu_i} / (1-q t^{n-i})^{mu_i}."""
    return binomial_product(_bracket_rect_factors(mu))

