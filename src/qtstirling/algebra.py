"""Exact arithmetic in Q(q, t, X).

Values are reduced ratios of sparse polynomials in the three
indeterminates q, t, X.  X stands for the generic exponential q^x, so
every quantity in the library lives in this one field.

A RationalFn stores its value as a pair (n, d) of polynomials in one
integer ring ZZ[q, t, X] under graded lex q > t > X.  The pair is
canonical: n and d are coprime over ZZ, integer content included, and the
leading coefficient of d is positive.  So no product, sum, gcd or
evaluation ever meets a rational coefficient.  Rationals enter only
through `const`, the images of a substitution, `parse_rational` and
`RationalFn(num, den)` on polynomials over QQ, and are cleared to
integers there.  The public polynomial face stays over QQ: `polynomial`,
`poly_terms`, and the read-only views `f.num` and `f.den`, in which den is
integer-primitive with positive leading coefficient.

The operators keep the pair canonical without a full gcd.  Canonical
operands are coprime, so a product a/b * c/d needs only the cross gcds
(a, d) and (c, b); a sum follows Henrici: with g = gcd(b, d) the only
common factor left in a*(d/g) + c*(b/g) over (b/g)*(d/g)*g divides g.
Every gcd divided out has a positive leading coefficient, and leading
coefficients multiply under a monomial order, so the new denominator's
stays positive.  Only values built from outside (`RationalFn(num, den)`,
substitution, parsing) run the full reduction `_canonical`.

The canonical string grammar of `canonical_str` is regular, so
`parse_rational` reads it with a few compiled patterns, not a parser.
"""

from __future__ import annotations

import os
import re
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import gcd, lcm
from typing import Callable, Iterator, Mapping, NamedTuple, Union

from sympy.polys.domains import QQ, ZZ
from sympy.polys.rings import PolyElement, ring

__all__ = [
    "Monomial",
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
    "poly_terms",
    "polynomial",
    "flip_qt",
    "evaluate",
    "limit_q_to_1",
    "substitute_t_eq_q_pow",
    "subs_rational",
    "canonical_str",
    "parse_rational",
]

#: The public face: `polynomial`, `poly_terms`, `.num` and `.den` are over QQ.
_RING = ring("q,t,X", QQ, "grlex")[0]
#: The ring of every stored pair.
_ZRING = ring("q,t,X", ZZ, "grlex")[0]
_zpoly = _ZRING.dtype  # integer polynomial from a term map, coefficients as given
_Z1 = _ZRING.one
_ORIGIN = (0, 0, 0)

#: Sparse multivariate polynomial (term map monomial -> coeff).
Polynomial = PolyElement

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
    """Memoise fn in an LRU cache of _MEMO_SIZE entries that clear_cache() empties."""
    cached = lru_cache(maxsize=_MEMO_SIZE)(fn)
    _MEMOS.append(cached)
    return cached


def clear_cache():
    """Empty every memo in the package (observationally transparent)."""
    for cached in _MEMOS:
        cached.cache_clear()


class Monomial(NamedTuple):
    """Exponent triple (e_q, e_t, e_X); exponents are never negative."""

    e_q: int
    e_t: int
    e_X: int


def _to_fraction(c) -> Fraction:
    return Fraction(int(c.numerator), int(c.denominator))


def polynomial(terms: Mapping[tuple, Union[int, Fraction]]) -> Polynomial:
    """Build a polynomial over QQ from a term map {(e_q, e_t, e_X): coefficient}."""
    out = {}
    for monom, c in terms.items():
        monom = tuple(int(e) for e in monom)
        if len(monom) != 3 or any(e < 0 for e in monom):
            raise ValueError(f"bad monomial {monom!r}")
        out[monom] = QQ(int(c.numerator), int(c.denominator))
    return _RING(out)


def poly_terms(p: Polynomial) -> Iterator[tuple[Monomial, Fraction]]:
    """Terms of p in descending canonical (graded lex) order."""
    for monom, c in sorted(p.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True):
        yield Monomial(*monom), _to_fraction(c)


def _ground(c: int) -> Polynomial:
    """The constant integer polynomial c."""
    return _zpoly({_ORIGIN: ZZ(c)}) if c else _ZRING.zero


def _integer_parts(v) -> tuple[Polynomial, int]:
    """(p, L) with v == p / L, p over ZZ and L a positive integer.

    v is an int, a Fraction or a polynomial over QQ; L is then the lcm of
    its coefficient denominators.
    """
    if isinstance(v, PolyElement):
        scale = lcm(*(int(c.denominator) for c in v.values()))
        return _zpoly({m: ZZ(int(c.numerator) * (scale // int(c.denominator)))
                       for m, c in v.items()}), scale
    if isinstance(v, (int, Fraction)):
        v = Fraction(v)
        return _ground(v.numerator), v.denominator
    raise TypeError(f"cannot build a polynomial from {type(v).__name__}")


def _content(p: Polynomial) -> int:
    """The gcd of p's integer coefficients (positive for nonzero p)."""
    return gcd(*p.values())


def _shift(p: Polynomial, low: tuple, c: int) -> Polynomial:
    """p divided by c * q^low[0] t^low[1] X^low[2], which divides it exactly."""
    a, b, x = low
    return _zpoly({(i - a, j - b, k - x): v // c for (i, j, k), v in p.items()})


def _gcd_parts(f: Polynomial, g: Polynomial) -> tuple[Polynomial, Polynomial, Polynomial]:
    """(h, f/h, g/h) for h = gcd(f, g) over ZZ of the nonzero f and g.

    h includes the integer content and has a positive leading coefficient.
    When f or g is the constant 1 (most often the denominator of a
    polynomial operand), h is 1 at once, before any term is walked.
    When f or g has one term, h is the monomial of the minimum exponents
    over the terms of both times the integer gcd of all their
    coefficients, found without sympy.  Otherwise h is PolyElement.gcd's
    and the cofactors come from exact division.
    """
    if (len(f) == 1 and f.get(_ORIGIN) == 1) or (len(g) == 1 and g.get(_ORIGIN) == 1):
        return _Z1, f, g
    if len(f) == 1 or len(g) == 1:
        low = tuple(map(min, zip(*chain(f, g))))
        c = gcd(*f.values(), *g.values())
        if c == 1 and not any(low):
            return _Z1, f, g
        return _zpoly({low: ZZ(c)}), _shift(f, low, c), _shift(g, low, c)
    h = f.gcd(g)
    if h.is_ground:
        c = abs(h[_ORIGIN])
        if c == 1:
            return _Z1, f, g
        return _ground(c), _shift(f, _ORIGIN, c), _shift(g, _ORIGIN, c)
    if h.LC < 0:  # sympy's gcd is not always positive under this ring's order
        h = -h
    return h, f.exquo(h), g.exquo(h)


def _canonical(num: Polynomial, den: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Full reduction of the integer pair num/den: remove the gcd, then fix the sign.

    Only values built from outside the operators need it.  The operators
    rely on the invariant it establishes (num and den coprime over ZZ, den
    with positive leading coefficient): products divide out the two cross
    gcds, sums follow Henrici, inverses swap and fix the sign, and none of
    them calls this function.
    """
    if not den:
        raise ZeroDivisionError("division by the zero rational function")
    if not num:
        return _ZRING.zero, _ZRING.one
    _, num, den = _gcd_parts(num, den)
    if den.LC < 0:
        num, den = -num, -den
    return num, den


def _qq_view(p: Polynomial, scale: int) -> Polynomial:
    """The integer polynomial p divided by scale, over QQ."""
    return _RING.dtype({m: QQ(int(c), scale) for m, c in p.items()})


class RationalFn:
    """A reduced rational function in q, t, X; immutable and hashable.

    Stored as the canonical integer pair (n, d) the module docstring
    describes.  `num` and `den` are read-only views over QQ, scaled so that
    den is integer-primitive with positive leading coefficient.

    Supports +, -, *, /, ** (integer exponent, negative inverts) with
    automatic coercion of ints and Fractions.  Structural equality of the
    canonical form coincides with equality of values, and a constant
    hashes like its Fraction value, so `ONE == 1` and `hash(ONE) == hash(1)`.

    `RationalFn(num, den)` takes ints, Fractions or polynomials over QQ and
    reduces them; with `_canon=True` the caller vouches that num/den are
    already in the form of the views, and nothing is reduced.
    """

    __slots__ = ("_n", "_d", "_hash")

    def __init__(self, num, den=None, _canon=False):
        num, num_scale = _integer_parts(num)
        den, den_scale = (_Z1, 1) if den is None else _integer_parts(den)
        # num/den == (num * den_scale) / (den * num_scale)
        if den_scale != 1:
            num = num.mul_ground(ZZ(den_scale))
        if num_scale != 1:
            den = den.mul_ground(ZZ(num_scale))
        if not _canon:
            num, den = _canonical(num, den)
        _set_n(self, num)
        _set_d(self, den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFn is immutable")

    @property
    def num(self) -> Polynomial:
        """The numerator over QQ, matching `den`."""
        return _qq_view(self._n, _content(self._d))

    @property
    def den(self) -> Polynomial:
        """The denominator over QQ: integer-primitive, positive leading coefficient."""
        return _qq_view(self._d, _content(self._d))

    @property
    def is_zero(self) -> bool:
        return not self._n

    @property
    def is_one(self) -> bool:
        return self._n == self._d

    def __bool__(self):
        return bool(self._n)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = const(other)
        if not isinstance(other, RationalFn):
            return NotImplemented
        return self._n == other._n and self._d == other._d

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            pass
        n, d = self._n, self._d
        if d.is_ground and n.is_ground:  # a constant hashes like its Fraction value
            h = hash(Fraction(int(n.get(_ORIGIN, 0)), int(d[_ORIGIN])))
        else:
            # PolyElement caches its own hash, which can go stale after the
            # in-place arithmetic sympy uses internally; hash the term data.
            h = hash((frozenset(n.items()), frozenset(d.items())))
        _set_hash(self, h)
        return h

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other._n:
            return self
        if not self._n:
            return other
        # Henrici: num/den below share no factor outside g = gcd(b, d).
        g, b, d = _gcd_parts(self._d, other._d)
        num = self._n * d + other._n * b
        if not num:
            return ZERO
        den = b * d
        if g is not _Z1:
            _, num, g = _gcd_parts(num, g)
            den = den * g
        return _make(num, den)

    __radd__ = __add__

    def __neg__(self):
        return _make(-self._n, self._d)

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
        if not self._n or not other._n:
            return ZERO
        _, a, d = _gcd_parts(self._n, other._d)
        _, c, b = _gcd_parts(other._n, self._d)
        return _make(a * c, b * d)

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
        n, d = self._n, self._d
        if not n:
            raise ZeroDivisionError("division by the zero rational function")
        if n.LC < 0:
            return _make(-d, -n)
        return _make(d, n)

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        if k == 0:
            return ONE
        return _make(self._n ** k, self._d ** k)

    def __repr__(self):
        return f"RationalFn({canonical_str(self)!r})"

    def __str__(self):
        return canonical_str(self)


_set_n = RationalFn._n.__set__
_set_d = RationalFn._d.__set__
_set_hash = RationalFn._hash.__set__


def _make(n: Polynomial, d: Polynomial) -> RationalFn:
    """The RationalFn of an integer pair that is already canonical."""
    f = object.__new__(RationalFn)
    _set_n(f, n)
    _set_d(f, d)
    return f


def _coerce(v):
    if isinstance(v, RationalFn):
        return v
    if isinstance(v, (int, Fraction)):
        return const(v)
    return NotImplemented


@memo
def const(c: Union[int, Fraction]) -> RationalFn:
    """The constant rational function c."""
    c = Fraction(c)
    return _make(_ground(c.numerator), _ground(c.denominator))


@memo
def monomial_rf(e_q: int = 0, e_t: int = 0, e_X: int = 0) -> RationalFn:
    """The monomial q^e_q * t^e_t * X^e_X; negative exponents go to the denominator."""
    num = (max(e_q, 0), max(e_t, 0), max(e_X, 0))
    den = (max(-e_q, 0), max(-e_t, 0), max(-e_X, 0))
    return _make(_zpoly({num: ZZ.one}), _zpoly({den: ZZ.one}))


def q_pow(k: int) -> RationalFn:
    return monomial_rf(e_q=k)


def t_pow(k: int) -> RationalFn:
    return monomial_rf(e_t=k)


def x_pow(k: int) -> RationalFn:
    return monomial_rf(e_X=k)


ZERO = _make(_ZRING.zero, _ZRING.one)
ONE = _make(_ZRING.one, _ZRING.one)
Q = monomial_rf(e_q=1)
T = monomial_rf(e_t=1)
X = monomial_rf(e_X=1)


# ---------------------------------------------------------------------------
# monomial substitution: flips, specialisations, limits
# ---------------------------------------------------------------------------

#: The image of a variable is a pair (c, (a, b, x)) standing for
#: c * q^a * t^b * X^x, with c a rational, and c == 0 for the image 0.
_KEEP = ((1, (1, 0, 0)), (1, (0, 1, 0)), (1, (0, 0, 1)))
_FLIP = ((1, (-1, 0, 0)), (1, (0, -1, 0)), _KEEP[2])


def _scaled_powers(x: Fraction, top: int) -> list[int]:
    """[a^i * b^(top - i) for i in 0..top], where x = a/b in lowest terms."""
    a, b = x.numerator, x.denominator
    up, down = [1], [1]
    for _ in range(top):
        up.append(up[-1] * a)
        down.append(down[-1] * b)
    return [u * down[top - i] for i, u in enumerate(up)]


def _remap(f: RationalFn, images: tuple, pole: str) -> RationalFn:
    """f with (q, t, X) sent to the three images, canonicalised once.

    A zero image zeroes every term with a positive power of its variable.
    An image constant c = a/b turns q^i into a^i b^(D - i) times the image
    monomial to the i, D the largest power of q in num and den together:
    both gain the factor b^D, which cancels, so coefficients stay integers.
    Exponents may go negative; num and den are shifted by their common
    minimum exponents, which leaves the quotient unchanged.  Raises
    PoleError(pole) when the denominator maps to zero.
    """
    n, d = f._n, f._d
    tables = [None if c == 1 else _scaled_powers(Fraction(c), max(m[v] for m in chain(n, d)))
              for v, (c, _) in enumerate(images)]
    maps = []
    for p in (n, d):
        out: dict[tuple, int] = {}
        for monom, c in p.items():
            exps = [0, 0, 0]
            for k, (_, image), table in zip(monom, images, tables):
                if table is not None:
                    c = c * table[k]
                if k:
                    for j in range(3):
                        exps[j] += k * image[j]
            key = tuple(exps)
            out[key] = out.get(key, 0) + c
        maps.append({m: c for m, c in out.items() if c})
    num, den = maps
    if not den:
        raise PoleError(pole)
    low = [min(m[j] for m in chain(num, den)) for j in range(3)]
    return _make(*_canonical(*(
        _zpoly({tuple(e - s for e, s in zip(m, low)): c for m, c in terms.items()})
        for terms in (num, den)
    )))


def _image(v) -> tuple:
    """The monomial image a caller passed for one variable."""
    f = _coerce(v)
    if f is NotImplemented or (f._n and (len(f._n) != 1 or len(f._d) != 1)):
        raise ValueError(f"substitution image {v!r} is not a monomial c*q^a*t^b*X^x or 0")
    if not f._n:
        return 0, (0, 0, 0)
    (m_num, a), = f._n.items()
    (m_den, b), = f._d.items()
    return Fraction(int(a), int(b)), tuple(x - y for x, y in zip(m_num, m_den))


def flip_qt(f: RationalFn) -> RationalFn:
    """The canonical form of f(1/q, 1/t, X).  X itself is never flipped."""
    return _remap(f, _FLIP, "flip hits a pole")


def _integer_sum(p: Polynomial, tables: list[list[int]]) -> int:
    """The sum of c * tq[i] * tt[j] * tX[k] over the terms c q^i t^j X^k of p."""
    tq, tt, tx = tables
    total = 0
    for (i, j, k), c in p.items():
        total += c * tq[i] * tt[j] * tx[k]
    return int(total)


def evaluate(f: RationalFn, q0, t0, X0=0) -> Fraction:
    """Exact value of f at a rational point, computed over the integers.

    With q0 = a/b and D the largest power of q in num and den together,
    each q^i becomes a^i b^(D - i): both sums gain the same factor b^D,
    which cancels in the quotient; likewise for t and X.  The pair's
    coefficients are integers, so both sums are integers and one Fraction
    is built at the end.  Raises PoleError exactly when the denominator
    sum is 0.
    """
    point = (Fraction(q0), Fraction(t0), Fraction(X0))
    monoms = list(chain(f._n, f._d))
    tables = [_scaled_powers(x, max(m[v] for m in monoms)) for v, x in enumerate(point)]
    den = _integer_sum(f._d, tables)
    if den == 0:
        q0, t0, X0 = point
        raise PoleError(f"denominator vanishes at q={q0}, t={t0}, X={X0}")
    return Fraction(_integer_sum(f._n, tables), den)


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
    not exist at the requested order.
    """
    if prefactor_order < 0:
        raise ValueError("prefactor_order must be nonnegative")
    if prefactor_order:
        f = f / (ONE - Q) ** prefactor_order
    return _remap(f, ((1, (0, 0, 0)), *_KEEP[1:]),
                  "limit q->1 does not exist at this order")


def substitute_t_eq_q_pow(f: RationalFn, alpha: int) -> RationalFn:
    """Substitute t = q^alpha (alpha a positive integer) and re-canonicalize."""
    if alpha < 1:
        raise ValueError("alpha must be a positive integer")
    return _remap(f, (_KEEP[0], (1, (alpha, 0, 0)), _KEEP[2]),
                  "substitution t = q^alpha hits a pole")


# ---------------------------------------------------------------------------
# canonical strings and parsing
# ---------------------------------------------------------------------------

def _poly_str(p: Polynomial) -> str:
    if not p:
        return "0"
    pieces = []
    for monom, coeff in poly_terms(p):
        mono_bits = []
        for name, e in zip(_VARS, monom):
            if e == 1:
                mono_bits.append(name)
            elif e:
                mono_bits.append(f"{name}^{e}")
        mono = "*".join(mono_bits)
        mag = abs(coeff)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        pieces.append(("-" if coeff < 0 else "+", body))
    sign, body = pieces[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out


def canonical_str(f: RationalFn) -> str:
    """Serialize in the canonical grammar, e.g. "(q^2*t - 1)/(q - 1)".

    The coefficients are those of the views `num` and `den`.
    """
    if f._d.is_ground:
        return _poly_str(f.num)
    return f"({_poly_str(f.num)})/({_poly_str(f.den)})"


#: The canonical grammar is regular.  A factor is an integer, an integer
#: coefficient a/b, or q, t, X with an optional ^power; a term is a
#: *-product of factors; a polynomial is signed terms.  Whitespace may
#: separate any two tokens but not split a digit run.  Every repetition is
#: delimited by a character (/, ^, *, a sign) that no digit run contains, so
#: a failed match backtracks at most linearly.
_FACTOR = r"(?:\d+(?:\s*/\s*\d+)?|[qtX](?:\s*\^\s*\d+)?)"
_TERM = rf"{_FACTOR}(?:\s*\*\s*{_FACTOR})*"
_POLY = re.compile(rf"\s*[+-]?\s*{_TERM}(?:\s*[+-]\s*{_TERM})*\s*")
_SIGNED_TERMS = re.compile(rf"([+-]?)\s*({_TERM})")
_FACTOR_PARTS = re.compile(r"(\d+)(?:\s*/\s*(\d+))?|([qtX])(?:\s*\^\s*(\d+))?")
#: "(num)/(den)" with paren-free parts, whitespace allowed inside the parentheses only.
_QUOTIENT = re.compile(r"\(([^()]*)\)/\(([^()]*)\)")


def _parse_poly(s: str) -> Polynomial:
    """The polynomial over QQ that s spells; ValueError if s is not one.

    Repeated factors multiply, and terms with equal monomials add.  A
    coefficient a/0 raises ZeroDivisionError, but only once the whole
    string has matched.
    """
    if not _POLY.fullmatch(s):
        raise ValueError(f"not a polynomial in the canonical grammar: {s!r}")
    terms: dict[tuple, Fraction] = {}
    for sign, term in _SIGNED_TERMS.findall(s):
        coeff = Fraction(-1 if sign == "-" else 1)
        exps = [0, 0, 0]
        for num, den, var, e in _FACTOR_PARTS.findall(term):
            if var:
                exps[_VARS.index(var)] += int(e or 1)
            else:
                coeff *= Fraction(int(num), int(den or 1))
        monom = tuple(exps)
        terms[monom] = terms.get(monom, 0) + coeff
    return polynomial(terms)


def parse_rational(text: str) -> RationalFn:
    """Parse the canonical grammar back into a RationalFn.

    Accepts a bare expanded polynomial ("q^2*t - 1"), the quotient form
    "(num)/(den)", and fraction coefficients like "1/2*q".
    """
    s = text.strip()
    while s.startswith("(") and s.endswith(")") and not _QUOTIENT.fullmatch(s):
        s = s[1:-1].strip()
    quotient = _QUOTIENT.fullmatch(s)
    if quotient:
        num, den = quotient.groups()
        return RationalFn(_parse_poly(num), _parse_poly(den))
    return RationalFn(_parse_poly(s))
