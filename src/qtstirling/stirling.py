"""Multiple qt-Stirling numbers of the first and second kind.

The explicit formulas combine the change-of-basis matrices u and v, their
q -> 1 limits (computed two independent ways: a closed form through w-bar
and the f-factor, and directly by flipping parameters and cancelling), and
monomial prefactors.  The V-algebra is the algebra of functions of pairs
mu <= lam under the inclusion ordering; its product is `_product_entry`,
whose (lam, mu) entry sums a(lam, nu) * b(nu, mu) over mu <= nu <= lam.  s1
and s2 are such products, and the inversion identities are statements
about them.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Callable

from .algebra import (
    RationalFn,
    ZERO,
    _fsum,
    const,
    flip_qt,
    limit_q_to_1,
    memo,
    monomial_rf,
    substitute_t_eq_q_pow,
    t_pow,
)
from .partitions import (
    Partition,
    contains,
    n_stat,
    n_stat_conj,
    partitions_between,
    weight,
)
from .pochhammer import binomial_product, qt_factors
from .qtnumbers import _h_over_g, qt_binomial
from .wfunctions import staircase_args, w_bar, w_hat_multi

__all__ = [
    "f_factor",
    "u_matrix",
    "v_matrix",
    "u_limit",
    "v_limit",
    "u_limit_direct",
    "v_limit_direct",
    "s1",
    "s2",
    "ordinary_alpha_stirling",
]


def f_factor(mu: Partition) -> RationalFn:
    """The t-rational factor entering both Stirling limit formulas.

    Every symbol here is the q -> 1 degeneration of the corresponding
    Pochhammer, so (a)_m means (1 - a)^m, and the factorials divide.
    """
    n = mu.n
    factors = []
    for i in range(1, n):
        factors += [((0, 1, 0), mu[i - 1] - mu[i]), ((0, n - i, 0), -mu[i - 1])]
    for i in range(1, n + 1):
        for j in range(i + 2, n + 1):
            d = mu[i - 1] - mu[j - 1]
            factors += [((0, j - i, 0), d), ((0, j - i - 1, 0), -d)]
    denom = factorial(mu[n - 1])
    for i in range(1, n):
        denom *= factorial(mu[i - 1] - mu[i])
    return binomial_product(factors) / const(Fraction(denom))


@memo
def u_matrix(lam: Partition, mu: Partition) -> RationalFn:
    """u(lam, mu) = q^|mu| t^{2n(mu)} / (q t^{n-1})_mu * h(mu) * w-hat_mu(q^lam t^delta)."""
    if not contains(lam, mu):
        return ZERO
    pref = monomial_rf(e_q=weight(mu), e_t=2 * n_stat(mu))
    return pref * _h_over_g(mu) * w_hat_multi(mu, staircase_args(lam.parts))


@memo
def v_matrix(lam: Partition, mu: Partition) -> RationalFn:
    """v(lam, mu) = (-1)^|mu| q^{n(mu')} t^{-n(mu)} * qt_binomial(lam, mu)."""
    if not contains(lam, mu):
        return ZERO
    sign = -1 if weight(mu) % 2 else 1
    return sign * monomial_rf(e_q=n_stat_conj(mu), e_t=-n_stat(mu)) * qt_binomial(lam, mu)


@memo
def u_limit(lam: Partition, mu: Partition) -> RationalFn:
    """lim_{q->1} u(lam, mu, 1/q, 1/t) via the w-bar closed form."""
    if not contains(lam, mu):
        return ZERO
    n, wt = mu.n, weight(mu)
    sign = -1 if wt % 2 else 1
    return sign * t_pow(n_stat(mu) - (n - 1) * wt) * w_bar(mu, lam, invert=False) * f_factor(mu)


@memo
def v_limit(lam: Partition, mu: Partition) -> RationalFn:
    """lim_{q->1} v(lam, mu, 1/q, 1/t) via the w-bar closed form."""
    if not contains(lam, mu):
        return ZERO
    n, wt = mu.n, weight(mu)
    return t_pow((n - 1) * wt) * w_bar(mu, lam, invert=True) * f_factor(mu)


def u_limit_direct(lam: Partition, mu: Partition) -> RationalFn:
    """The same limit computed by flipping parameters and cancelling at q = 1."""
    return limit_q_to_1(flip_qt(u_matrix(lam, mu)), 0)


def v_limit_direct(lam: Partition, mu: Partition) -> RationalFn:
    """Direct flip-then-cancel route for the v limit."""
    return limit_q_to_1(flip_qt(v_matrix(lam, mu)), 0)


_Entry = Callable[[Partition, Partition], RationalFn]


def _product_entry(a: _Entry, b: _Entry, lam: Partition, mu: Partition) -> RationalFn:
    """sum_{mu <= nu <= lam} a(lam, nu) * b(nu, mu): the (lam, mu) entry of a V-algebra product."""
    return _fsum(a(lam, nu) * b(nu, mu) for nu in partitions_between(mu, lam))


@memo
def s1(nu: Partition, mu: Partition) -> RationalFn:
    """qt-Stirling number of the first kind."""
    if not contains(nu, mu):
        return ZERO
    n = nu.n
    pref = monomial_rf(e_q=n_stat_conj(nu), e_t=-2 * n_stat(mu) + (n - 1) * weight(mu))
    pref = pref * binomial_product(qt_factors([m - v for m, v in zip(mu, nu)]))
    return pref * _product_entry(
        lambda row, lam: u_matrix(row, lam) * t_pow(-(n - 1) * weight(lam)), v_limit, nu, mu)


@memo
def s2(nu: Partition, mu: Partition) -> RationalFn:
    """qt-Stirling number of the second kind."""
    if not contains(nu, mu):
        return ZERO
    n = nu.n
    pref = monomial_rf(e_q=-n_stat_conj(mu), e_t=2 * n_stat(nu) - (n - 1) * weight(nu))
    pref = pref * binomial_product(qt_factors([m - v for m, v in zip(mu, nu)]))
    return pref * _product_entry(
        lambda row, lam: u_limit(row, lam) * t_pow((n - 1) * weight(lam)), v_matrix, nu, mu)


def ordinary_alpha_stirling(kind: str, nu: Partition, mu: Partition, alpha: int) -> RationalFn:
    """Ordinary alpha-Stirling value: substitute t = q^alpha, then send q -> 1.

    Raises PoleError when that limit does not exist.  For n >= 2 this
    happens: s1((2,1),(1,0)) = (1-t)/(1-qt)^2 has a pole at q = 1 once
    t = q^alpha, for every alpha >= 1.
    """
    if kind not in ("s1", "s2"):
        raise ValueError(f"unknown Stirling kind {kind!r}; known: 's1', 's2'")
    return limit_q_to_1(substitute_t_eq_q_pow((s1 if kind == "s1" else s2)(nu, mu), alpha), 0)
