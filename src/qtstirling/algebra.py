"""Exact arithmetic in Q(q, t, X).

Values are reduced ratios of sparse polynomials in the three
indeterminates q, t, X.  X stands for the generic exponential q^x, so
every quantity in the library lives in this one field.

A `Polynomial` is a dict {packed monomial: int coefficient}.  The monomial
q^a t^b X^x packs into one int of four 32-bit fields, from the top: the
total degree a + b + x, then a, b and x.  The top bit of each field is a
guard that stays clear.  So the order of the keys as integers is graded lex
order q > t > X, and the leading monomial is the builtin `max(p)`.  A
product of monomials is the sum of their keys.  m divides k exactly when
(k - m) & _GUARD is 0, because a field of k below the same field of m
borrows and sets that field's guard bit.  An exponent or degree that would
reach a guard bit raises OverflowError instead of wrapping.

`_exquo` divides exactly, popping the leading terms of the remainder from
a heap, and gives up at the first one that the divisor's leading term does
not divide.  `Polynomial.gcd` is the heuristic gcd of Char, Geddes and
Gonnet (J. Symbolic Comput. 7, 1989), as sympy's `heugcd` runs it (Liao and
Fateman, ISSAC 1995).  It evaluates q, then t, then X at a large integer,
takes the integer gcd, and interpolates back in balanced base-x digits.  A
candidate counts only once it divides both inputs.  When a variable occurs
in one operand only, the gcd is first folded over that operand's
coefficients in the variable, where the heuristic would fail on some inputs.

A RationalFn is the pair (num, den) of integer polynomials: `f.num` and
`f.den` are the stored pair itself, and the pair alone decides equality,
hashing, evaluation and the canonical string.  The pair is canonical: num
and den are coprime over ZZ, integer content included, and the leading
coefficient of den is positive.  So every Polynomial has int coefficients,
and no product, sum, gcd or evaluation ever meets a rational coefficient.
Rationals enter only through `const`, the images of a substitution,
`parse_rational` and `RationalFn(num, den)` on ints and Fractions, and are
cleared to integers there.

The operators keep the pair canonical without a gcd.  Every quantity the
library builds is a product, quotient or sum of binomials 1 - m, m a
monomial, so every denominator is an integer times a monomial times
cyclotomic factors Phi_d(m') of monomials m', each irreducible.  Beside the
pair a value carries the factor map {(d, m'): e} of den and, where known,
of num (a sum's numerator has none).  One rule, `_split`, builds every map:
Phi_d(y^n) is the product of Phi_D(y) over the D | dn with
D / gcd(D, n) = d, for y primitive; `binomial_power` reads the map of
1 - m = -Phi_1(m) from it, m given by its exponent vector (a, b, x), as
in every factor list.  Canonical operands are coprime, so a product
a/b * c/d needs only the cross gcds (a, d) and (c, b).  When c and d are
one term each, those gcds are a content and the least shared monomial, so
the product shifts the keys of a/b and scales its coefficients, and a/b
keeps its factor maps.  A sum of any number of terms, `_fsum`, puts them
over the lcm of their denominators, read off the den maps: the lcm of the
contents, the largest monomial and the top exponent of each Phi key.  Each
numerator times its cofactor, a product of known factors, is added without
a division, and the sum is cancelled once.  By Henrici's argument (JACM 3,
1956; a + b is its two-term case) a factor that one term alone reaches at
its top exponent divides every other summand but not that one, so only the
factors that two or more terms reach are trial-divided, and content and
monomial by an integer gcd and `_low`.  Each cross gcd of a product has a
factor map on one side at least, so `_cancel` finds it by exponent
arithmetic, or by dividing the other side by the known factors with
`_exquo`, which is exact because they are irreducible.
A monomial substitution with images of coefficient 1 or 0 (flips, q -> 1,
t = q^alpha, X -> 0) sends each Phi_d(m') to an integer, a monomial or
Phi_d of the image of m', which `_split` splits, and reduces the same way.
Every gcd divided out has a positive leading coefficient, and leading
coefficients multiply under a monomial order, so the new denominator's
stays positive.  Every other pair becomes a value in one place, `_reduce`:
those of `RationalFn(num, den)`, `parse_rational` and a substitution, and
the cross product by which `_fsum` adds a term whose den map is unknown.
Only where neither map is known does `_cancel` fall back to
`Polynomial.gcd`, and no row of `check`, `eval` or `table` reaches that
fallback: only values built by `RationalFn(num, den)` or `parse_rational`
with a denominator of several terms do, with what is computed from them,
and the images of a substitution with an image of another coefficient.

The canonical string grammar of `canonical_str` is regular, so
`parse_rational` reads it with a few regular expressions, not a parser.
"""

from __future__ import annotations

import os
import re
from heapq import heapify, heappop, heappush
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations
from math import gcd, isqrt, lcm, prod
from operator import index
from types import SimpleNamespace
from typing import Callable, Mapping, Union

__all__ = [
    "Polynomial",
    "PoleError",
    "RationalFn",
    "ZERO",
    "ONE",
    "Q",
    "T",
    "X",
    "const",
    "monomial_rf",
    "q_pow",
    "t_pow",
    "x_pow",
    "flip_qt",
    "evaluate",
    "limit_q_to_1",
    "substitute_t_eq_q_pow",
    "subs_rational",
    "canonical_str",
    "parse_rational",
    "clear_cache",
]

_VARS = ("q", "t", "X")


class PoleError(ArithmeticError):
    """An evaluation, substitution or limit hit a vanishing denominator."""


#: Entries each memo keeps, read once at import.  0 turns every memo off; a
#: value that is not an integer, or is negative, falls back to 200000 (lru_cache
#: would read a negative size as 0).
try:
    _MEMO_SIZE = int(os.environ.get("QTSTIRLING_CACHE_SIZE", "200000"))
except ValueError:
    _MEMO_SIZE = 200000
if _MEMO_SIZE < 0:
    _MEMO_SIZE = 200000
_MEMOS: list = []


def memo(fn: Callable) -> Callable:
    """Memoise fn in an LRU cache of _MEMO_SIZE entries that clear_cache() empties,
    keyed by type too, so that 2 and 2.0 are two keys."""
    cached = lru_cache(maxsize=_MEMO_SIZE, typed=True)(fn)
    _MEMOS.append(cached)
    return cached


def clear_cache():
    """Empty every memo in the package (observationally transparent)."""
    for cached in _MEMOS:
        cached.cache_clear()


# ---------------------------------------------------------------------------
# packed monomials
# ---------------------------------------------------------------------------

#: Fields of a key, from the top: degree at bit 96, e_q at 64, e_t at 32, e_X at 0.
_MASK = (1 << 31) - 1  # the value bits of one field: the largest exponent or degree
_SHIFTS = (64, 32, 0)
_UNITS = tuple(1 << 96 | 1 << s for s in _SHIFTS)  # the keys of q, t and X
_GUARD = sum(1 << s + 31 for s in (96, *_SHIFTS))
_DEG_GUARD = 1 << 127


def _pack(e_q: int, e_t: int, e_X: int) -> int:
    """The key of q^e_q t^e_t X^e_X; OverflowError past the degree a field holds."""
    if e_q < 0 or e_t < 0 or e_X < 0:
        raise ValueError(f"bad monomial {(e_q, e_t, e_X)!r}")
    deg = e_q + e_t + e_X
    if deg > _MASK:
        raise OverflowError(f"a monomial degree exceeds {_MASK}")
    return deg << 96 | e_q << 64 | e_t << 32 | e_X


def _unpack(key: int) -> tuple[int, int, int]:
    return key >> 64 & _MASK, key >> 32 & _MASK, key & _MASK


def _low(f: Mapping[int, object], g: Mapping[int, object]) -> int:
    """The key of the least exponent of each variable over the terms of f and g."""
    keys = [*f, *g]
    return _pack(min([k >> 64 & _MASK for k in keys]), min([k >> 32 & _MASK for k in keys]),
                 min([k & _MASK for k in keys]))


# ---------------------------------------------------------------------------
# the polynomial kernel
# ---------------------------------------------------------------------------

class Polynomial(dict):
    """A sparse polynomial in q, t, X: {packed monomial: nonzero int coefficient}.

    The numerator and denominator of every RationalFn are Polynomials.  An
    instance is immutable once built, and results may share their operands.
    """

    __slots__ = ()

    @property
    def LC(self):
        """The leading coefficient under graded lex order."""
        return self[max(self)]

    @property
    def is_ground(self) -> bool:
        return not self or (len(self) == 1 and 0 in self)

    def __neg__(self):
        return Polynomial({k: -c for k, c in self.items()})

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return _add((self, other))

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return _add((self, -other))

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return _mul(self, other)

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            raise ValueError("negative exponent of a polynomial")
        if k == 0:
            return Polynomial({0: 1})
        if not self:
            return self
        if (max(self) >> 96) * k > _MASK:
            raise OverflowError(f"a monomial degree exceeds {_MASK}")
        if len(self) == 1:
            (m, c), = self.items()
            return Polynomial({m * k: c**k})
        out, base = None, self
        while True:
            if k & 1:
                out = base if out is None else _mul(out, base)
            k >>= 1
            if not k:
                return out
            base = _mul(base, base)

    def gcd(self, g: "Polynomial") -> "Polynomial":
        """The gcd over ZZ, integer content included, with positive leading coefficient."""
        f = self
        if not f or not g:
            h = f or g
            return -h if h and h.LC < 0 else h
        if len(f) == 1 or len(g) == 1:
            return Polynomial({_low(f, g): gcd(*f.values(), *g.values())})
        for v, shift in enumerate(_SHIFTS):
            in_f = any(k >> shift & _MASK for k in f)
            if in_f != any(k >> shift & _MASK for k in g):
                # only one operand has variable v: the gcd divides each of that
                # operand's coefficients in v, so fold them into the other one
                h = g if in_f else f
                for c in _coefficients(f if in_f else g, v):
                    h = h.gcd(c)
                    if h == _Z1:
                        break
                return h
        h = _heugcd(f, g, 0)[0]
        return -h if h.LC < 0 else h


Polynomial.ring = SimpleNamespace(one=Polynomial({0: 1}))
_Z1 = Polynomial.ring.one


def _add(polys) -> Polynomial:
    """The sum of an iterable of polynomials, one at a time, into a copy of the first."""
    polys = iter(polys)
    out = Polynomial(next(polys))
    get = out.get
    for g in polys:
        for k, c in g.items():
            c += get(k, 0)
            if c:
                out[k] = c
            else:
                del out[k]
    return out


def _mul(f: Polynomial, g: Polynomial) -> Polynomial:
    if not f or not g:
        return Polynomial()
    if len(f) < len(g):
        f, g = g, f
    if (max(f) + max(g)) & _DEG_GUARD:
        raise OverflowError(f"a monomial degree exceeds {_MASK}")
    if len(g) == 1:
        (m, c), = g.items()
        if c == 1:
            return f if m == 0 else Polynomial({k + m: v for k, v in f.items()})
        return Polynomial({k + m: v * c for k, v in f.items()})
    out = Polynomial()
    get = out.get
    terms = list(f.items())
    for m, c in g.items():
        for k, v in terms:
            k += m
            out[k] = get(k, 0) + v * c
    for k in [k for k, v in out.items() if not v]:
        del out[k]
    return out


def _exquo(f: Polynomial, g: Polynomial) -> Union[Polynomial, None]:
    """f / g for integer polynomials, g nonzero, or None when g does not divide f.

    Each step divides the leading term of the remainder by that of g, and
    the first one that does not divide ends the division: a multiple of g
    has every leading term divisible by g's.
    """
    lead = max(g)
    lc = g[lead]
    tail = [(k - lead, v) for k, v in g.items() if k != lead]
    rem = dict(f)
    get = rem.get
    heap = [-k for k in rem]
    heapify(heap)
    out = Polynomial()
    while heap:
        k = -heappop(heap)
        v = rem.pop(k, 0)
        if not v:  # cancelled since it was pushed
            continue
        d = k - lead
        if d & _GUARD or v % lc:
            return None
        v //= lc
        out[d] = v
        for m, w in tail:
            m += k
            old = get(m)
            if old is None:
                rem[m] = -v * w
                heappush(heap, -m)
            else:
                w = old - v * w
                if w:
                    rem[m] = w
                else:
                    del rem[m]
    return out


def _coefficients(p: Polynomial, v: int) -> list[Polynomial]:
    """The coefficients of p as a polynomial in variable v, each free of v, shortest first."""
    shift, unit = _SHIFTS[v], _UNITS[v]
    out: dict[int, Polynomial] = {}
    for k, c in p.items():
        e = k >> shift & _MASK
        out.setdefault(e, Polynomial())[k - e * unit] = c
    return sorted(out.values(), key=len)


def _content(p: Polynomial) -> int:
    """The gcd of p's integer coefficients (positive for nonzero p)."""
    return gcd(*p.values())


def _moved(p: Polynomial, shift: int, div: int, c: int) -> Polynomial:
    """p with every key plus shift and every coefficient divided exactly by div, times c.

    The new keys are valid monomials; only a positive shift can raise the
    degree field, which is the top one, past its guard bit.
    """
    if not shift and div == c == 1:
        return p
    if shift > 0 and (max(p) + shift) & _DEG_GUARD:
        raise OverflowError(f"a monomial degree exceeds {_MASK}")
    return Polynomial({k + shift: v // div * c for k, v in p.items()})


#: Evaluation points heugcd tries before it gives up.
_HEU_GCD_MAX = 6


def _evaluate_at(p: Polynomial, v: int, x: int):
    """p with variable v set to the integer x: a Polynomial, or an int when v is X."""
    shift, unit = _SHIFTS[v], _UNITS[v]
    powers = {}
    out: dict[int, int] = {}
    for k, c in p.items():
        e = k >> shift & _MASK
        if e:
            k -= e * unit
            power = powers.get(e)
            if power is None:
                power = powers[e] = x**e
            c *= power
        out[k] = out.get(k, 0) + c
    if v == 2:
        return out.get(0, 0)
    return Polynomial({k: c for k, c in out.items() if c})


def _interpolate(h, v: int, x: int) -> Polynomial:
    """The polynomial whose coefficient of var_v^i holds the balanced base-x
    digit i of each coefficient of h (an int when v is X), made to lead positive."""
    unit, half = _UNITS[v], x // 2
    out = Polynomial()
    for k, c in h.items() if isinstance(h, Polynomial) else ((0, h),):
        while c:
            r = c % x
            if r > half:
                r -= x
            if r:
                out[k] = r
            c = (c - r) // x
            k += unit
    return -out if out.LC < 0 else out


def _heugcd(f: Polynomial, g: Polynomial, v: int) -> tuple[Polynomial, Polynomial, Polynomial]:
    """(h, f/h, g/h) for h = gcd(f, g), up to sign, by the heuristic gcd.

    f and g are nonzero integer polynomials in variable v of (q, t, X) and
    the ones after it.  Variable v is set to an integer x, the gcd of the two
    images (by recursion on the next variable, or an integer gcd after X) is
    interpolated back, and its primitive part is kept if it divides f and g.
    Else the image of a cofactor is interpolated and tried the same way.
    x grows for each of the _HEU_GCD_MAX tries; then ArithmeticError, where
    sympy raises HeuristicGCDFailed.
    """
    c = gcd(_content(f), _content(g))
    f, g = _moved(f, 0, c, 1), _moved(g, 0, c, 1)
    f_norm, g_norm = max(map(abs, f.values())), max(map(abs, g.values()))
    bound = 2 * min(f_norm, g_norm) + 29
    x = max(min(bound, 99 * isqrt(bound)),
            2 * min(f_norm // abs(f.LC), g_norm // abs(g.LC)) + 4)
    for _ in range(_HEU_GCD_MAX):
        ff, gg = _evaluate_at(f, v, x), _evaluate_at(g, v, x)
        if ff and gg:
            if v == 2:
                h = gcd(ff, gg)
                cff, cfg = ff // h, gg // h
            else:
                h, cff, cfg = _heugcd(ff, gg, v + 1)
            h = _interpolate(h, v, x)
            h = _moved(h, 0, _content(h), 1)
            cff_ = _exquo(f, h)
            if cff_ is not None:
                cfg_ = _exquo(g, h)
                if cfg_ is not None:
                    return _moved(h, 0, 1, c), cff_, cfg_
            cff = _interpolate(cff, v, x)
            h = _exquo(f, cff)
            if h is not None:
                cfg_ = _exquo(g, h)
                if cfg_ is not None:
                    return _moved(h, 0, 1, c), cff, cfg_
            cfg = _interpolate(cfg, v, x)
            h = _exquo(g, cfg)
            if h is not None:
                cff_ = _exquo(f, h)
                if cff_ is not None:
                    return _moved(h, 0, 1, c), cff_, cfg
        x = 73794 * x * isqrt(isqrt(x)) // 27011
    raise ArithmeticError("heuristic gcd failed")


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------

def _ground(c: int) -> Polynomial:
    """The constant integer polynomial c."""
    return Polynomial({0: c}) if c else Polynomial()


def _integer_parts(v) -> tuple[Polynomial, int]:
    """(p, L) with v == p / L, p with int coefficients and L a positive integer.

    v is an int, a Fraction or a Polynomial with int coefficients (L is 1);
    anything else raises TypeError.
    """
    if isinstance(v, Polynomial):
        if not all(type(c) is int for c in v.values()):
            raise TypeError("a Polynomial has int coefficients")
        return v, 1
    if isinstance(v, (int, Fraction)):
        v = Fraction(v)
        return _ground(v.numerator), v.denominator
    raise TypeError(f"cannot build a polynomial from {type(v).__name__}")


# ---------------------------------------------------------------------------
# cyclotomic factor maps
# ---------------------------------------------------------------------------

#: A factor map {(d, m): e} stands for the product of Phi_d(m)^e, Phi_d the
#: d-th cyclotomic polynomial and m = (a, b, x) the exponent vector of
#: q^a t^b X^x, primitive and with its first nonzero entry positive.  Each
#: Phi_d(m) is irreducible over ZZ.  The map of p is complete when p is an
#: integer times a monomial times that product.  A map is never changed once
#: built, so this one empty map serves every monomial.
_NO_FACTORS: dict = {}


def _one_term_map(p: Polynomial) -> Union[dict, None]:
    """The factor map of p when p has one term (it is empty), else None: unknown."""
    return _NO_FACTORS if len(p) == 1 else None


def _divisors(n: int) -> list[int]:
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def _cyclotomic(d: int) -> tuple[int, ...]:
    """The coefficients of Phi_d(y), constant term first.

    For d > 1, Phi_d is the product of (1 - y^(d/s))^mu(s) over the
    squarefree divisors s of d, taken as power series up to degree phi(d).
    Not memoised: its one caller, _factor_poly, is.
    """
    if d == 1:
        return (-1, 1)
    primes = []
    for p in _divisors(d)[1:]:  # ascending, so p is prime iff no smaller prime divides it
        if all(p % r for r in primes):
            primes.append(p)
    top = d
    for p in primes:
        top = top // p * (p - 1)
    c = [1] + [0] * top
    for r in range(len(primes) + 1):
        for s in combinations(primes, r):
            e = d // prod(s)
            if r % 2:  # divide by 1 - y^e
                for i in range(e, top + 1):
                    c[i] += c[i - e]
            else:  # multiply by 1 - y^e
                for i in range(top, e - 1, -1):
                    c[i] -= c[i - e]
    return tuple(c)


@memo
def _factor_poly(key: tuple) -> Polynomial:
    """Phi_d(m) for key (d, m) as a polynomial, v^phi(d) Phi_d(u/v) with m = u/v,
    made to lead positive: its leading coefficient is then 1."""
    d, m = key
    u = _pack(*(max(e, 0) for e in m))
    v = _pack(*(max(-e, 0) for e in m))
    coeffs = _cyclotomic(d)
    top = len(coeffs) - 1
    if top * max(u >> 96, v >> 96) > _MASK:
        raise OverflowError(f"a monomial degree exceeds {_MASK}")
    p = Polynomial({i * u + (top - i) * v: c for i, c in enumerate(coeffs) if c})
    return -p if p.LC < 0 else p


@memo
def _split(d: int, m: tuple[int, int, int]) -> dict:
    """The factor map of Phi_d(q^a t^b X^x), m = (a, b, x) nonzero.

    With m = y^(+-g), y primitive with its first nonzero entry positive,
    Phi_d(y^g) is the product of Phi_D(y) over the D | dg with
    D / gcd(D, g) = d, and Phi_d(y^-g) is that up to a sign and a monomial.
    """
    g = gcd(*m)
    sign = 1 if next(e for e in m if e) > 0 else -1
    y = tuple(sign * e // g for e in m)
    return {(D, y): 1 for D in _divisors(d * g) if D // gcd(D, g) == d}


def _map_image(fmap, images: tuple):
    """The factor map of the image of a polynomial with map fmap (None: unknown)
    under images of coefficient 1 or 0.  A factor Phi_d(m) leaves the map when a
    variable of m goes to 0 (it goes to a monomial) or m goes to 1 (an integer)."""
    if fmap is None:
        return None
    out: dict = {}
    for (d, m), e in fmap.items():
        if any(k and not c for k, (c, _) in zip(m, images)):
            continue
        image = tuple(sum(k * mono[j] for k, (_, mono) in zip(m, images)) for j in range(3))
        if any(image):
            for key in _split(d, image):  # each with exponent 1
                out[key] = out.get(key, 0) + e
    return out


def _merge(f, g):
    """The factor map of a product from those of its factors; None if one is unknown."""
    if f is None or g is None:
        return None
    if not g:
        return f
    if not f:
        return g
    out = dict(f)
    for k, e in g.items():
        out[k] = out.get(k, 0) + e
    return out


def _less(f, common: dict):
    """The factor map f with the exponents of common, which it holds, taken off."""
    if f is None or not common:
        return f
    out = dict(f)
    for k, e in common.items():
        e = out[k] - e
        if e:
            out[k] = e
        else:
            del out[k]
    return out


def _divide_out(a: Polynomial, fmap: dict) -> tuple:
    """(a / h, fh, h) for h the factors of fmap that divide a, each as often as it does up to
    its exponent there, found by `_exquo`, which is exact because they are irreducible."""
    common, h = {}, _Z1
    for key, e in fmap.items():
        p, k = _factor_poly(key), 0
        while k < e:
            quotient = _exquo(a, p)
            if quotient is None:
                break
            a, k = quotient, k + 1
        if k:
            common[key] = k
            h = _mul(h, p ** k)
    return a, common, h


def _cancel(a: Polynomial, fa, b: Polynomial, fb) -> tuple:
    """(a/h, fa', b/h, fb') for h = gcd(a, b) over ZZ of the nonzero a and b.

    fa and fb are the complete factor maps of a and b, or None where
    unknown, and fa', fb' are those of the cofactors.  h is the integer
    content and monomial that a and b share, times the factors of the maps.
    With both maps known those factors are exponent arithmetic; with one,
    each factor of it divides the other polynomial as often as `_exquo`
    allows, which is exact because the factors are irreducible.  Only with
    neither does the rest of h come from `Polynomial.gcd`, and then the
    cofactors get their one-term maps.  Given a map, h is found to be 1 at
    once when a or b is 1.
    """
    if fb is None and fa is not None:
        b, fb, a, fa = _cancel(b, fb, a, fa)
        return a, fa, b, fb
    if fb is not None and ((len(a) == 1 and a.get(0) == 1) or (len(b) == 1 and b.get(0) == 1)):
        return a, fa, b, fb
    low = 0 if 0 in a or 0 in b else _low(a, b)
    c = gcd(*b.values(), *a.values())
    a, b = _moved(a, -low, c, 1), _moved(b, -low, c, 1)
    if fb is None:
        # a and b now share no content and no monomial, so their gcd is 1 or
        # has several terms
        if len(a) > 1 and len(b) > 1:
            g = a.gcd(b)
            if len(g) > 1:
                a, b = _exquo(a, g), _exquo(b, g)
        return a, _one_term_map(a), b, _one_term_map(b)
    common, h = {}, _Z1
    if fa is not None:
        small, big = (fa, fb) if len(fa) <= len(fb) else (fb, fa)
        for key, e in small.items():
            k = min(e, big.get(key, 0))
            if k:
                common[key] = k
                h = _mul(h, _factor_poly(key) ** k)
        if common:
            a = _exquo(a, h)
    elif len(a) > 1:
        a, common, h = _divide_out(a, fb)
    if common:
        b = _exquo(b, h)
        fa, fb = _less(fa, common), _less(fb, common)
    return a, fa, b, fb


class RationalFn:
    """A reduced rational function in q, t, X; immutable and hashable.

    `num` and `den` are the canonical integer pair the module docstring
    describes: Polynomials with int coefficients, coprime over ZZ, den with
    positive leading coefficient.

    Supports +, -, *, /, ** (integer exponent, negative inverts) with
    automatic coercion of ints and Fractions.  Structural equality of the
    canonical form coincides with equality of values, and a constant
    hashes like its Fraction value, so `ONE == 1` and `hash(ONE) == hash(1)`.

    `RationalFn(num, den)` takes ints, Fractions or int-coefficient
    Polynomials, clears them to an integer pair and returns its value from
    `_reduce`, as `parse_rational` and substitution do.  A value built so
    knows the factor maps of num and den only where they have one term.
    """

    __slots__ = ("num", "den", "_num_map", "_den_map", "_hash", "_point")

    def __new__(cls, num, den=None):
        num, num_scale = _integer_parts(num)
        den, den_scale = (_Z1, 1) if den is None else _integer_parts(den)
        # num/den == (num * den_scale) / (den * num_scale)
        return _reduce(_moved(num, 0, 1, den_scale), None, _moved(den, 0, 1, num_scale), None)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFn is immutable")

    @property
    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = const(other)
        if not isinstance(other, RationalFn):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            pass
        n, d = self.num, self.den
        if d.is_ground and n.is_ground:  # a constant hashes like its Fraction value
            h = hash(Fraction(n.get(0, 0), d[0]))
        else:
            h = hash((frozenset(n.items()), frozenset(d.items())))
        _set_hash(self, h)
        return h

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _fsum((self, other))

    __radd__ = __add__

    def __neg__(self):
        return _make(-self.num, self.den, self._num_map, self._den_map)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.num or not other.num:
            return ZERO
        if len(other.num) == 1 == len(other.den):
            return _by_term(self, other)
        if len(self.num) == 1 == len(self.den):
            return _by_term(other, self)
        a, fa, d, fd = _cancel(self.num, self._num_map, other.den, other._den_map)
        c, fc, b, fb = _cancel(other.num, other._num_map, self.den, self._den_map)
        return _make(a * c, b * d, _merge(fa, fc), _merge(fb, fd))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def inverse(self) -> "RationalFn":
        n, d = self.num, self.den
        if not n:
            raise ZeroDivisionError("division by the zero rational function")
        if n.LC < 0:
            d, n = -d, -n
        return _make(d, n, self._den_map, self._num_map)

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        if k == 0:
            return ONE
        return _make(self.num ** k, self.den ** k,
                     _power(self._num_map, k), _power(self._den_map, k))

    def __repr__(self):
        return f"RationalFn({canonical_str(self)!r})"

    def __str__(self):
        return canonical_str(self)


_set_num = RationalFn.num.__set__
_set_den = RationalFn.den.__set__
_set_num_map = RationalFn._num_map.__set__
_set_den_map = RationalFn._den_map.__set__
_set_hash = RationalFn._hash.__set__
_set_point = RationalFn._point.__set__


def _make(n: Polynomial, d: Polynomial, num_map=None, den_map=None) -> RationalFn:
    """The RationalFn of an integer pair that is already canonical, with the
    complete factor maps of n and d where known (None: unknown)."""
    f = object.__new__(RationalFn)
    _set_num(f, n)
    _set_den(f, d)
    _set_num_map(f, num_map)
    _set_den_map(f, den_map)
    return f


def _by_term(f: RationalFn, g: RationalFn) -> RationalFn:
    """f * g for g one term over one term: a key shift of f's pair that keeps f's maps.

    The cross gcds (f.num, g.den) and (g.num, f.den) are each a content and
    the least monomial the two sides share, an integer gcd and a `_low`, and
    one `_moved` per side divides them out and multiplies by g's side.
    """
    (m, c), = g.num.items()
    (k, d), = g.den.items()
    a, b = f.num, f.den
    ca = 1 if d == 1 else gcd(d, *a.values())
    cb = 1 if c in (1, -1) else gcd(c, *b.values())
    la = 0 if k == 0 or 0 in a else _low(a, g.den)
    lb = 0 if m == 0 or 0 in b else _low(b, g.num)
    return _make(_moved(a, m - lb - la, ca, c // cb), _moved(b, k - la - lb, cb, d // ca),
                 f._num_map, f._den_map)


def _reduce(num: Polynomial, num_map, den: Polynomial, den_map) -> RationalFn:
    """The value of an integer pair num/den that the operators did not build.

    `_cancel` removes the gcd by the complete factor maps num_map and den_map
    (None: unknown) and den is made to lead positive: the invariant that the
    operators keep without this function.  Given neither map, `_cancel` takes
    the gcd fallback and the value knows the one-term maps only.
    """
    if not den:
        raise ZeroDivisionError("division by the zero rational function")
    if not num:
        return ZERO
    num, num_map, den, den_map = _cancel(num, num_map, den, den_map)
    if den.LC < 0:
        num, den = -num, -den
    return _make(num, den, num_map, den_map)


def _popped(items: list):
    """(i, items[i]) from the last index down, each item popped off the list as it is yielded."""
    while items:
        yield len(items) - 1, items.pop()


def _fsum(values) -> RationalFn:
    """The sum of the RationalFn values over the lcm of their denominators, reduced once;
    a value whose den map is unknown is cross-multiplied onto the total by `_reduce`."""
    terms, unmapped = [], []
    for f in values:
        if f.num:
            (unmapped if f._den_map is None else terms).append(f)
    total = terms[0] if len(terms) == 1 else ZERO
    if len(terms) > 1:
        # each den is c * x^m * prod P^e with P = _factor_poly(key) leading with 1, so c is
        # its leading coefficient; top[key] = [the largest e, how many terms reach it]
        top, leads, heads, lows = {}, [], [], []
        for f in terms:
            leads.append(max(f.den))
            heads.append(f.den[leads[-1]])
            lows.append(0 if 0 in f.den else _low(f.den, ()))
            for key, e in f._den_map.items():
                reach = top.get(key)
                if reach is None or e > reach[0]:
                    top[key] = [e, 1]
                elif e == reach[0]:
                    reach[1] += 1
        c, m = lcm(*heads), _pack(*map(max, zip(*map(_unpack, lows))))

        def times_cofactor(p, f, i):  # p times the lcm over the den of term f = terms[i]
            p = _moved(p, m - lows[i], 1, c // heads[i])
            for key, (e, _) in top.items():
                if e > f._den_map.get(key, 0):
                    p = _mul(p, _factor_poly(key) ** (e - f._den_map.get(key, 0)))
            return p

        j = leads.index(max(leads))  # a den of the largest degree has the least cofactor
        least = terms[j]
        # let each term go once it is added, so that the products are not all held at once
        num = _add(times_cofactor(f.num, f, i) for i, f in _popped(terms))
        if not num:
            return _fsum(unmapped)
        den = times_cofactor(least.den, least, j)
        num, common, h = _divide_out(num, {key: e for key, (e, n) in top.items() if n > 1})
        if common:
            den = _exquo(den, h)
        g = 1 if c == 1 else gcd(c, *num.values())
        low = 0 if not m or 0 in num else _low(num, (m,))
        num, den = _moved(num, -low, g, 1), _moved(den, -low, g, 1)
        total = _make(num, den, _one_term_map(num), _less({k: e for k, (e, _) in top.items()}, common))
    for f in unmapped:
        total = (_reduce(total.num * f.den + f.num * total.den, None, total.den * f.den, None)
                 if total.num else f)
    return total


def _power(fmap, k: int):
    """The factor map of p^k from that of p, k >= 1."""
    if not fmap or k == 1:
        return fmap
    return {key: e * k for key, e in fmap.items()}


def _point_form(f: RationalFn) -> tuple[list, list, tuple[int, int, int]]:
    """(num, den, top): the terms (e_q, e_t, e_X, c) of the pair and the largest
    exponent of each variable over both, kept on f once built."""
    try:
        return f._point
    except AttributeError:
        pass
    num = [(k >> 64 & _MASK, k >> 32 & _MASK, k & _MASK, c) for k, c in f.num.items()]
    den = [(k >> 64 & _MASK, k >> 32 & _MASK, k & _MASK, c) for k, c in f.den.items()]
    top = tuple(max([term[v] for term in chain(num, den)]) for v in range(3))
    point = (num, den, top)
    _set_point(f, point)
    return point


def _coerce(v):
    if isinstance(v, RationalFn):
        return v
    if isinstance(v, (int, Fraction)):
        return const(v)
    return NotImplemented


@memo
def const(c: Union[int, Fraction]) -> RationalFn:
    """The constant rational function c, an int or a Fraction; anything else is a TypeError."""
    if not isinstance(c, (int, Fraction)):
        raise TypeError(f"a constant is an int or a Fraction, not {type(c).__name__}")
    c = Fraction(c)
    num = _ground(c.numerator)
    return _make(num, _ground(c.denominator), _one_term_map(num), _NO_FACTORS)


@memo
def monomial_rf(e_q: int = 0, e_t: int = 0, e_X: int = 0) -> RationalFn:
    """The monomial q^e_q * t^e_t * X^e_X; negative exponents go to the denominator.
    An exponent that is not an integer (operator.index) is a TypeError."""
    e_q, e_t, e_X = index(e_q), index(e_t), index(e_X)
    num = _pack(max(e_q, 0), max(e_t, 0), max(e_X, 0))
    den = _pack(max(-e_q, 0), max(-e_t, 0), max(-e_X, 0))
    return _make(Polynomial({num: 1}), Polynomial({den: 1}), _NO_FACTORS, _NO_FACTORS)


def q_pow(k: int) -> RationalFn:
    return monomial_rf(e_q=k)


def t_pow(k: int) -> RationalFn:
    return monomial_rf(e_t=k)


def x_pow(k: int) -> RationalFn:
    return monomial_rf(e_X=k)


ZERO = _make(Polynomial(), _Z1, None, _NO_FACTORS)
ONE = _make(_Z1, _Z1, _NO_FACTORS, _NO_FACTORS)
Q = monomial_rf(e_q=1)
T = monomial_rf(e_t=1)
X = monomial_rf(e_X=1)


def binomial_power(m: tuple[int, int, int], e: int) -> RationalFn:
    """(1 - q^a t^b X^x)^e, with its factor maps, for the nonzero exponent vector m = (a, b, x)."""
    u = _pack(*(max(k, 0) for k in m))
    v = _pack(*(max(-k, 0) for k in m))
    one_minus = _make(Polynomial({v: 1, u: -1}), Polynomial({v: 1}), _split(1, m), _NO_FACTORS)
    return one_minus if e == 1 else one_minus ** e


# ---------------------------------------------------------------------------
# monomial substitution: flips, specialisations, limits
# ---------------------------------------------------------------------------

#: The image of a variable is a pair (c, (a, b, x)) standing for
#: c * q^a * t^b * X^x, with c a rational, and c == 0 for the image 0.
_KEEP = ((1, (1, 0, 0)), (1, (0, 1, 0)), (1, (0, 0, 1)))
_FLIP = ((1, (-1, 0, 0)), (1, (0, -1, 0)), _KEEP[2])


def _scaled_powers(x: Union[int, Fraction], top: int) -> list[int]:
    """[a^i * b^(top - i) for i in 0..top], where x = a/b in lowest terms.

    The table is allocated once; a's powers fill it upwards and b's scale it
    downwards, each in one pass that is skipped when a or b is 1.
    """
    a, b = x.numerator, x.denominator
    out = [1] * (top + 1)
    if a != 1:
        p = 1
        for i in range(1, top + 1):
            p *= a
            out[i] = p
    if b != 1:
        p = 1
        for i in range(top - 1, -1, -1):
            p *= b
            out[i] *= p
    return out


def _remap(f: RationalFn, images: tuple, pole: str) -> RationalFn:
    """f with (q, t, X) sent to the three images, reduced once.

    A zero image zeroes every term with a positive power of its variable.
    An image constant c = a/b turns q^i into a^i b^(D - i) times the image
    monomial to the i, D the largest power of q in num and den together:
    both gain the factor b^D, which cancels, so coefficients stay integers.
    Exponents may go negative; num and den are shifted by their common
    minimum exponents, which leaves the quotient unchanged.  Raises
    PoleError(pole) when the denominator maps to zero.

    When den's factor map is known and every image has coefficient 1 or 0
    (flips, q -> 1, t = q^alpha, X -> 0), the maps go to their images;
    otherwise the pair goes to `_reduce` with neither map.
    """
    n, d, top = _point_form(f)
    tables = [(v, _scaled_powers(Fraction(c), top[v])) for v, (c, _) in enumerate(images) if c != 1]
    (qa, qb, qx), (ta, tb, tx), (xa, xb, xx) = (image for _, image in images)
    pair = []
    for terms in (n, d):
        out: dict[tuple, int] = {}
        for term in terms:
            i, j, k, c = term
            for v, table in tables:
                c *= table[term[v]]
            key = (i * qa + j * ta + k * xa, i * qb + j * tb + k * xb, i * qx + j * tx + k * xx)
            out[key] = out.get(key, 0) + c
        pair.append({m: c for m, c in out.items() if c})
    num, den = pair
    if not den:
        raise PoleError(pole)
    lq, lt, lx = (min([m[j] for m in chain(num, den)]) for j in range(3))
    num, den = (Polynomial({_pack(a - lq, b - lt, x - lx): c for (a, b, x), c in terms.items()})
                for terms in (num, den))
    if not num:
        return ZERO
    # the maps have images only under images of coefficient 1 or 0
    mapped = f._den_map is not None and all(c in (0, 1) for c, _ in images)
    return _reduce(num, _map_image(f._num_map, images) if mapped else None,
                   den, _map_image(f._den_map, images) if mapped else None)


def _image(v) -> tuple:
    """The monomial image a caller passed for one variable."""
    f = _coerce(v)
    if f is NotImplemented or (f.num and (len(f.num) != 1 or len(f.den) != 1)):
        raise ValueError(f"substitution image {v!r} is not a monomial c*q^a*t^b*X^x or 0")
    if not f.num:
        return 0, (0, 0, 0)
    (m_num, a), = f.num.items()
    (m_den, b), = f.den.items()
    return a if b == 1 else Fraction(a, b), tuple(x - y for x, y in zip(_unpack(m_num), _unpack(m_den)))


def flip_qt(f: RationalFn) -> RationalFn:
    """The canonical form of f(1/q, 1/t, X).  X itself is never flipped."""
    return _remap(f, _FLIP, "flip hits a pole")


#: The point types evaluate uses as given; anything else goes through Fraction().
_EXACT = (int, Fraction)
#: The power table of a variable that a value lacks.
_ABSENT = (1,)


def evaluate(f: RationalFn, q0, t0, X0=0) -> Fraction:
    """Exact value of f at a rational point, computed over the integers.

    With q0 = a/b and D the largest power of q in num and den together,
    each q^i becomes a^i b^(D - i): both sums gain the same factor b^D,
    which cancels in the quotient; likewise for t and X.  The pair's
    coefficients are integers, so both sums are integers and one Fraction
    is built at the end.  A variable f lacks (D = 0) gets no table, and X
    no factor in the sums.  Raises PoleError exactly when the denominator
    sum is 0, before the numerator sum is taken.
    """
    if type(q0) not in _EXACT:
        q0 = Fraction(q0)
    if type(t0) not in _EXACT:
        t0 = Fraction(t0)
    if type(X0) not in _EXACT:
        X0 = Fraction(X0)
    num, den, (top_q, top_t, top_x) = _point_form(f)
    tq = _scaled_powers(q0, top_q) if top_q else _ABSENT
    tt = _scaled_powers(t0, top_t) if top_t else _ABSENT
    if top_x:
        tx = _scaled_powers(X0, top_x)
        d = sum([c * tq[i] * tt[j] * tx[k] for i, j, k, c in den])
    else:
        d = sum([c * tq[i] * tt[j] for i, j, _, c in den])
    if d == 0:
        raise PoleError(f"denominator vanishes at q={q0}, t={t0}, X={X0}")
    if top_x:
        return Fraction(sum([c * tq[i] * tt[j] * tx[k] for i, j, k, c in num]), d)
    return Fraction(sum([c * tq[i] * tt[j] for i, j, _, c in num]), d)


def subs_rational(f: RationalFn, q=None, t=None, X=None) -> RationalFn:
    """Substitute monomial images for any of q, t, X.

    Each image is a nonzero monomial c * q^a * t^b * X^x (negative exponents
    allowed, so constants and 1/q count), or 0; an int, Fraction or
    RationalFn of that form.  Any other image raises ValueError.
    Unspecified variables stay fixed.  Raises PoleError when the
    substituted denominator collapses to zero.
    """
    images = tuple(
        keep if v is None else _image(v) for v, keep in zip((q, t, X), _KEEP)
    )
    return _remap(f, images, "substitution hits a pole")


def limit_q_to_1(f: RationalFn, prefactor_order: int = 0) -> RationalFn:
    """Value at q=1 of (1-q)^(-prefactor_order) * f, by exact cancellation.

    The result is a rational function of t and X only.  Raises PoleError
    when the reduced denominator still vanishes at q=1, i.e. the limit does
    not exist at the requested order.  A prefactor_order that is not an
    integer (operator.index) is a TypeError.
    """
    prefactor_order = index(prefactor_order)
    if prefactor_order < 0:
        raise ValueError("prefactor_order must be nonnegative")
    if prefactor_order:
        f = f / binomial_power((1, 0, 0), prefactor_order)
    return _remap(f, ((1, (0, 0, 0)), *_KEEP[1:]),
                  "limit q->1 does not exist at this order")


def substitute_t_eq_q_pow(f: RationalFn, alpha: int) -> RationalFn:
    """Substitute t = q^alpha (alpha a positive integer) and re-canonicalize;
    an alpha that is not an integer (operator.index) is a TypeError."""
    alpha = index(alpha)
    if alpha < 1:
        raise ValueError("alpha must be a positive integer")
    return _remap(f, (_KEEP[0], (1, (alpha, 0, 0)), _KEEP[2]),
                  "substitution t = q^alpha hits a pole")


# ---------------------------------------------------------------------------
# canonical strings and parsing
# ---------------------------------------------------------------------------

#: Integers of at most this many bits convert to and from decimal in one call,
#: below CPython's smallest settable limit on str(int) and int(str) (640 digits).
_DIRECT_BITS = 2000
_DIRECT_DIGITS = 600


def _int_str(n: int) -> str:
    """Decimal digits of n >= 0, in halves for long n, so that no call meets
    CPython's digit limit on str(int)."""
    if n.bit_length() <= _DIRECT_BITS:
        return str(n)
    k = n.bit_length() * 3 // 20  # about half the digits of n
    hi, lo = divmod(n, 10**k)
    return _int_str(hi) + _int_str(lo).zfill(k)


def _parse_int(s: str) -> int:
    """The int a digit run spells, in halves for long runs (see _int_str)."""
    if len(s) <= _DIRECT_DIGITS:
        return int(s)
    k = len(s) // 2
    return _parse_int(s[:-k]) * 10**k + _parse_int(s[-k:])


def _poly_str(p: Polynomial, scale: int) -> str:
    """The integer polynomial p divided by scale, in the canonical grammar."""
    if not p:
        return "0"
    pieces = []
    for key in sorted(p, reverse=True):
        mono = "*".join(name if e == 1 else f"{name}^{e}"
                        for name, e in zip(_VARS, _unpack(key)) if e)
        c = p[key]
        g = gcd(c, scale)
        a, b = abs(c) // g, scale // g
        mag = _int_str(a) if b == 1 else f"{_int_str(a)}/{_int_str(b)}"
        if not mono:
            body = mag
        elif a == b == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        pieces.append(("-" if c < 0 else "+", body))
    sign, body = pieces[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out


def canonical_str(f: RationalFn) -> str:
    """Serialize in the canonical grammar, e.g. "(q^2*t - 1)/(q - 1)".

    Both halves of the pair are divided by the content of den, so the
    printed denominator is integer-primitive.
    """
    scale = _content(f.den)
    if f.den.is_ground:
        return _poly_str(f.num, scale)
    return f"({_poly_str(f.num, scale)})/({_poly_str(f.den, scale)})"


#: The canonical grammar is regular.  A factor is an integer, an integer
#: coefficient a/b, or q, t, X with an optional ^power; a term is a
#: *-product of factors; a polynomial is signed terms.  Whitespace may
#: separate any two tokens but not split a digit run.  Every repetition is
#: delimited by a character (/, ^, *, a sign) that no digit run contains, so
#: a failed match backtracks at most linearly.  The patterns stay strings, so
#: import compiles none: `re` compiles each on first use and caches it.
_FACTOR = r"(?:\d+(?:\s*/\s*\d+)?|[qtX](?:\s*\^\s*\d+)?)"
_TERM = rf"{_FACTOR}(?:\s*\*\s*{_FACTOR})*"
_POLY = rf"\s*[+-]?\s*{_TERM}(?:\s*[+-]\s*{_TERM})*\s*"
_SIGNED_TERMS = rf"([+-]?)\s*({_TERM})"
_FACTOR_PARTS = r"(\d+)(?:\s*/\s*(\d+))?|([qtX])(?:\s*\^\s*(\d+))?"
#: "(num)/(den)" with paren-free parts, whitespace allowed inside the parentheses only.
_QUOTIENT = r"\(([^()]*)\)/\(([^()]*)\)"


def _parse_poly(s: str) -> tuple[Polynomial, int]:
    """(p, L): s spells the polynomial p / L, with p's coefficients and L
    cleared to integers; ValueError if s is not a polynomial.

    Repeated factors multiply, and terms with equal monomials add.  A
    coefficient a/0 raises ZeroDivisionError, but only once the whole
    string has matched.  An exponent past the degree a key holds raises
    OverflowError.
    """
    if not re.fullmatch(_POLY, s):
        raise ValueError(f"not a polynomial in the canonical grammar: {s!r}")
    terms: dict[tuple, Fraction] = {}
    for sign, term in re.findall(_SIGNED_TERMS, s):
        coeff = Fraction(-1 if sign == "-" else 1)
        exps = [0, 0, 0]
        for num, den, var, e in re.findall(_FACTOR_PARTS, term):
            if var:
                exps[_VARS.index(var)] += _parse_int(e or "1")
            else:
                coeff *= Fraction(_parse_int(num), _parse_int(den or "1"))
        monom = tuple(exps)
        terms[monom] = terms.get(monom, 0) + coeff
    packed = {_pack(*m): c for m, c in terms.items()}
    scale = lcm(*(c.denominator for c in packed.values()))
    return Polynomial({k: c.numerator * (scale // c.denominator)
                       for k, c in packed.items() if c}), scale


def parse_rational(text: str) -> RationalFn:
    """Parse the canonical grammar back into a RationalFn.

    Accepts a bare expanded polynomial ("q^2*t - 1"), the quotient form
    "(num)/(den)", and fraction coefficients like "1/2*q".
    """
    s = text.strip()
    while s.startswith("(") and s.endswith(")") and not re.fullmatch(_QUOTIENT, s):
        s = s[1:-1].strip()
    quotient = re.fullmatch(_QUOTIENT, s)
    if quotient:
        (num, a), (den, b) = map(_parse_poly, quotient.groups())
        return RationalFn(_moved(num, 0, 1, b), _moved(den, 0, 1, a))
    return RationalFn(*_parse_poly(s))
