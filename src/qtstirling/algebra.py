"""Exact arithmetic in Q(q, t, X).

Values are reduced ratios of sparse polynomials over the rationals in the
three indeterminates q, t, X.  X stands for the generic exponential q^x, so
every quantity in the library lives in this one field.  Canonical form:
numerator and denominator coprime, denominator an integer-primitive
polynomial with positive leading coefficient under graded lex q > t > X.

The operators keep that form without a full gcd.  Canonical operands are
coprime, so a product a/b * c/d needs only the cross gcds (a, d) and
(c, b); a sum follows Henrici: with g = gcd(b, d) the only common factor
left in a*(d/g) + c*(b/g) over (b/g)*(d/g)*g divides g.  Every gcd divided
out is scaled to an integer-primitive polynomial with positive leading
coefficient, so by Gauss's lemma the new denominator is already in
canonical form.  Only values built from outside (`RationalFn(num, den)`,
substitution, parsing) run the full reduction `_canonical`.
"""

from __future__ import annotations

import os
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import lcm
from typing import Callable, Iterator, Mapping, NamedTuple, Union

from sympy.polys.domains import QQ
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

_RING, _PQ, _PT, _PX = ring("q,t,X", QQ, "grlex")

#: Sparse multivariate polynomial over the rationals (term map monomial -> coeff).
Polynomial = PolyElement

_VARS = ("q", "t", "X")


class PoleError(ArithmeticError):
    """An evaluation, substitution or limit hit a vanishing denominator."""


#: Entries each memo keeps, read once at import.
try:
    _MEMO_SIZE = int(os.environ.get("QTSTIRLING_CACHE_SIZE", "200000"))
except ValueError:
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


def _to_coeff(c) -> object:
    if isinstance(c, int):
        return QQ(c)
    return QQ(int(c.numerator), int(c.denominator))


def polynomial(terms: Mapping[tuple, Union[int, Fraction]]) -> Polynomial:
    """Build a polynomial from a term map {(e_q, e_t, e_X): coefficient}."""
    out = {}
    for monom, c in terms.items():
        monom = tuple(int(e) for e in monom)
        if len(monom) != 3 or any(e < 0 for e in monom):
            raise ValueError(f"bad monomial {monom!r}")
        out[monom] = _to_coeff(c)
    return _RING(out)


def poly_terms(p: Polynomial) -> Iterator[tuple[Monomial, Fraction]]:
    """Terms of p in descending canonical (graded lex) order."""
    for monom, c in sorted(p.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True):
        yield Monomial(*monom), _to_fraction(c)


def _poly_key(p: Polynomial) -> frozenset:
    return frozenset((m, int(c.numerator), int(c.denominator)) for m, c in p.items())


_P1 = _RING.one


def _shift(p: Polynomial, low: tuple) -> Polynomial:
    """p divided by the monomial q^low[0] t^low[1] X^low[2]."""
    a, b, x = low
    return _RING.dtype({(i - a, j - b, k - x): c for (i, j, k), c in p.items()})


def _gcd_parts(f: Polynomial, g: Polynomial) -> tuple[Polynomial, Polynomial, Polynomial]:
    """(h, f/h, g/h) for a gcd h of the nonzero f and g.

    h is integer-primitive with positive leading coefficient, so f/h and
    g/h keep those properties of f and g.  When f or g has one term, h is
    the monomial of the minimum exponents over the terms of both, found
    without a coefficient gcd; otherwise it is PolyElement.gcd's.
    """
    if len(f) == 1 or len(g) == 1:
        low = tuple(map(min, zip(*chain(f, g))))
        if not any(low):
            return _P1, f, g
        return _RING.dtype({low: QQ(1)}), _shift(f, low), _shift(g, low)
    h = f.gcd(g)
    if h.is_ground:
        return _P1, f, g
    h = h.primitive()[1]
    if h.LC < 0:  # sympy's gcd is not always monic under this ring's order
        h = -h
    return h, f.exquo(h), g.exquo(h)


def _unit_normal(num: Polynomial, den: Polynomial) -> tuple[Polynomial, Polynomial]:
    """num/den with den scaled to integer-primitive with positive leading coefficient."""
    c, den = den.primitive()
    if den.LC < 0:
        c, den = -c, -den
    if c != 1:
        num = num.quo_ground(c)
    return num, den


def _canonical(num: Polynomial, den: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Full reduction of num/den: remove the gcd, then fix content and sign.

    Only values built from outside the operators need it.  The operators
    rely on the invariant it establishes (num and den coprime, den
    integer-primitive with positive leading coefficient): products divide
    out the two cross gcds, sums follow Henrici, inverses swap and fix
    content and sign, and none of them calls this function.
    """
    if not den:
        raise ZeroDivisionError("division by the zero rational function")
    if not num:
        return _RING.zero, _RING.one
    _, num, den = _gcd_parts(num, den)
    return _unit_normal(num, den)


class RationalFn:
    """A reduced rational function in q, t, X; immutable and hashable.

    Supports +, -, *, /, ** (integer exponent, negative inverts) with
    automatic coercion of ints and Fractions.  Structural equality of the
    canonical form coincides with equality of values.
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num, den=None, _canon=False):
        num = _coerce_poly(num)
        den = _RING.one if den is None else _coerce_poly(den)
        if not _canon:
            num, den = _canonical(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFn is immutable")

    @property
    def is_zero(self) -> bool:
        return not self.num

    @property
    def is_one(self) -> bool:
        return self.num == self.den

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = const(other)
        if not isinstance(other, RationalFn):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # PolyElement caches its own hash, which can go stale after the
        # in-place arithmetic sympy uses internally; hash the term data.
        h = self._hash
        if h is None:
            h = hash((_poly_key(self.num), _poly_key(self.den)))
            object.__setattr__(self, "_hash", h)
        return h

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.num:
            return self
        if not self.num:
            return other
        # Henrici: num/den below share no factor outside g = gcd(b, d).
        g, b, d = _gcd_parts(self.den, other.den)
        num = self.num * d + other.num * b
        if not num:
            return ZERO
        den = b * d
        if g != _P1:
            _, num, g = _gcd_parts(num, g)
            den = den * g
        return RationalFn(num, den, _canon=True)

    __radd__ = __add__

    def __neg__(self):
        return RationalFn(-self.num, self.den, _canon=True)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.num or not other.num:
            return ZERO
        _, a, d = _gcd_parts(self.num, other.den)
        _, c, b = _gcd_parts(other.num, self.den)
        return RationalFn(a * c, b * d, _canon=True)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return _coerce(other) * self.inverse()

    def inverse(self) -> "RationalFn":
        if not self.num:
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFn(*_unit_normal(self.den, self.num), _canon=True)

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        if k == 0:
            return ONE
        return RationalFn(self.num ** k, self.den ** k, _canon=True)

    def __repr__(self):
        return f"RationalFn({canonical_str(self)!r})"

    def __str__(self):
        return canonical_str(self)


def _coerce_poly(v) -> Polynomial:
    if isinstance(v, PolyElement):
        return v
    if isinstance(v, int):
        return _RING.ground_new(QQ(v))
    if isinstance(v, Fraction):
        return _RING.ground_new(QQ(v.numerator, v.denominator))
    raise TypeError(f"cannot build a polynomial from {type(v).__name__}")


def _coerce(v):
    if isinstance(v, RationalFn):
        return v
    if isinstance(v, (int, Fraction)):
        return const(v)
    return NotImplemented


@memo
def const(c: Union[int, Fraction]) -> RationalFn:
    """The constant rational function c."""
    return RationalFn(_coerce_poly(c))


@memo
def monomial_rf(e_q: int = 0, e_t: int = 0, e_X: int = 0) -> RationalFn:
    """The monomial q^e_q * t^e_t * X^e_X; negative exponents go to the denominator."""
    num = {(max(e_q, 0), max(e_t, 0), max(e_X, 0)): QQ(1)}
    den = {(max(-e_q, 0), max(-e_t, 0), max(-e_X, 0)): QQ(1)}
    return RationalFn(_RING(num), _RING(den), _canon=True)


def q_pow(k: int) -> RationalFn:
    return monomial_rf(e_q=k)


def t_pow(k: int) -> RationalFn:
    return monomial_rf(e_t=k)


def x_pow(k: int) -> RationalFn:
    return monomial_rf(e_X=k)


ZERO = RationalFn(_RING.zero, _RING.one, _canon=True)
ONE = RationalFn(_RING.one, _RING.one, _canon=True)
Q = monomial_rf(e_q=1)
T = monomial_rf(e_t=1)
X = monomial_rf(e_X=1)


# ---------------------------------------------------------------------------
# monomial substitution: flips, specialisations, limits
# ---------------------------------------------------------------------------

#: The image of a variable is a pair (c, (a, b, x)) standing for
#: c * q^a * t^b * X^x, with c == 0 for the image 0.
_KEEP = ((QQ(1), (1, 0, 0)), (QQ(1), (0, 1, 0)), (QQ(1), (0, 0, 1)))
_FLIP = ((QQ(1), (-1, 0, 0)), (QQ(1), (0, -1, 0)), _KEEP[2])


def _remap(f: RationalFn, images: tuple, pole: str) -> RationalFn:
    """f with (q, t, X) sent to the three images, canonicalised once.

    A zero image zeroes every term with a positive power of its variable.
    Exponents may go negative; num and den are shifted by their common
    minimum exponents, which leaves the quotient unchanged.  Raises
    PoleError(pole) when the denominator maps to zero.
    """
    maps = []
    for p in (f.num, f.den):
        out: dict[tuple, object] = {}
        for monom, c in p.items():
            exps = [0, 0, 0]
            for k, (ck, image) in zip(monom, images):
                if k:
                    c = c * ck ** k
                    for j in range(3):
                        exps[j] += k * image[j]
            key = tuple(exps)
            acc = out.get(key)
            out[key] = c if acc is None else acc + c
        maps.append({m: c for m, c in out.items() if c})
    num, den = maps
    if not den:
        raise PoleError(pole)
    low = [min(m[j] for m in chain(num, den)) for j in range(3)]
    return RationalFn(*(
        _RING({tuple(e - s for e, s in zip(m, low)): c for m, c in terms.items()})
        for terms in (num, den)
    ))


def _image(v) -> tuple:
    """The monomial image a caller passed for one variable."""
    f = _coerce(v)
    if f is NotImplemented or (f.num and (len(f.num) != 1 or len(f.den) != 1)):
        raise ValueError(f"substitution image {v!r} is not a monomial c*q^a*t^b*X^x or 0")
    if not f.num:
        return QQ(0), (0, 0, 0)
    (m_num, c), = f.num.items()
    (m_den, _), = f.den.items()
    return c, tuple(a - b for a, b in zip(m_num, m_den))


def flip_qt(f: RationalFn) -> RationalFn:
    """The canonical form of f(1/q, 1/t, X).  X itself is never flipped."""
    return _remap(f, _FLIP, "flip hits a pole")


def _scaled_powers(x: Fraction, top: int) -> list[int]:
    """[a^i * b^(top - i) for i in 0..top], where x = a/b in lowest terms."""
    a, b = x.numerator, x.denominator
    up, down = [1], [1]
    for _ in range(top):
        up.append(up[-1] * a)
        down.append(down[-1] * b)
    return [u * down[top - i] for i, u in enumerate(up)]


def _integer_sum(p: Polynomial, tables: list[list[int]]) -> tuple[int, int]:
    """(s, L): L is the lcm of p's coefficient denominators and s the
    integer sum of L*c * tq[i] * tt[j] * tX[k] over the terms c q^i t^j X^k."""
    scale = lcm(*(int(c.denominator) for c in p.values()))
    tq, tt, tx = tables
    total = 0
    for (i, j, k), c in p.items():
        total += int(c.numerator) * (scale // int(c.denominator)) * tq[i] * tt[j] * tx[k]
    return total, scale


def evaluate(f: RationalFn, q0, t0, X0=0) -> Fraction:
    """Exact value of f at a rational point, computed over the integers.

    With q0 = a/b and D the largest power of q in num and den together,
    each q^i becomes a^i b^(D - i): both sums gain the same factor b^D,
    which cancels in the quotient; likewise for t and X.  Each polynomial
    is also scaled by the lcm of its coefficient denominators, so both
    sums are integers and one Fraction is built at the end.  Raises
    PoleError exactly when the scaled denominator sum is 0.
    """
    point = (Fraction(q0), Fraction(t0), Fraction(X0))
    monoms = list(chain(f.num, f.den))
    tables = [_scaled_powers(x, max(m[v] for m in monoms)) for v, x in enumerate(point)]
    den, den_scale = _integer_sum(f.den, tables)
    if den == 0:
        q0, t0, X0 = point
        raise PoleError(f"denominator vanishes at q={q0}, t={t0}, X={X0}")
    num, num_scale = _integer_sum(f.num, tables)
    return Fraction(num * den_scale, den * num_scale)


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
    return _remap(f, ((QQ(1), (0, 0, 0)), *_KEEP[1:]),
                  "limit q->1 does not exist at this order")


def substitute_t_eq_q_pow(f: RationalFn, alpha: int) -> RationalFn:
    """Substitute t = q^alpha (alpha a positive integer) and re-canonicalize."""
    if alpha < 1:
        raise ValueError("alpha must be a positive integer")
    return _remap(f, (_KEEP[0], (QQ(1), (alpha, 0, 0)), _KEEP[2]),
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
    """Serialize in the canonical grammar, e.g. "(q^2*t - 1)/(q - 1)"."""
    if f.den == _RING.one:
        return _poly_str(f.num)
    return f"({_poly_str(f.num)})/({_poly_str(f.den)})"


class _Tokens:
    def __init__(self, text: str):
        self.toks: list[str] = []
        i, n = 0, len(text)
        while i < n:
            ch = text[i]
            if ch.isspace():
                i += 1
            elif ch.isdigit():
                j = i
                while j < n and text[j].isdigit():
                    j += 1
                self.toks.append(text[i:j])
                i = j
            elif ch in "qtX^*+-/()":
                self.toks.append(ch)
                i += 1
            else:
                raise ValueError(f"unexpected character {ch!r} in rational-function string")
        self.pos = 0

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise ValueError("unexpected end of rational-function string")
        self.pos += 1
        return tok


def _parse_poly(tk: _Tokens, stop_at_close: bool = False) -> Polynomial:
    terms: dict[tuple, object] = {}
    sign = 1
    tok = tk.peek()
    if tok in ("+", "-"):
        tk.next()
        sign = -1 if tok == "-" else 1
    while True:
        coeff, exps = _parse_term(tk)
        monom = tuple(exps)
        c = QQ(coeff.numerator, coeff.denominator) * sign
        acc = terms.get(monom)
        total = c if acc is None else acc + c
        if total:
            terms[monom] = total
        else:
            terms.pop(monom, None)
        tok = tk.peek()
        if tok in ("+", "-"):
            tk.next()
            sign = -1 if tok == "-" else 1
            continue
        if tok is None or (stop_at_close and tok == ")"):
            return _RING(terms)
        raise ValueError(f"unexpected token {tok!r} in polynomial")


def _parse_term(tk: _Tokens) -> tuple[Fraction, list[int]]:
    coeff = Fraction(1)
    exps = [0, 0, 0]
    saw_factor = False
    while True:
        tok = tk.peek()
        if tok is not None and tok.isdigit():
            tk.next()
            value = Fraction(int(tok))
            if tk.peek() == "/":
                tk.next()
                den = tk.next()
                if not den.isdigit():
                    raise ValueError("expected integer after '/' in coefficient")
                value /= int(den)
            coeff *= value
            saw_factor = True
        elif tok in _VARS:
            tk.next()
            e = 1
            if tk.peek() == "^":
                tk.next()
                etok = tk.next()
                if not etok.isdigit():
                    raise ValueError("expected integer exponent after '^'")
                e = int(etok)
            exps[_VARS.index(tok)] += e
            saw_factor = True
        else:
            raise ValueError(f"unexpected token {tok!r} in term")
        if tk.peek() == "*":
            tk.next()
            continue
        if not saw_factor:
            raise ValueError("empty term")
        return coeff, exps


def parse_rational(text: str) -> RationalFn:
    """Parse the canonical grammar back into a RationalFn.

    Accepts a bare expanded polynomial ("q^2*t - 1"), the quotient form
    "(num)/(den)", and fraction coefficients like "1/2*q".
    """
    s = text.strip()
    if s.startswith("("):
        depth = 0
        for i, ch in enumerate(s):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0:
                    if i == len(s) - 1:
                        return parse_rational(s[1:-1])
                    if s[i + 1 : i + 3] == "/(" and s.endswith(")"):
                        num = _parse_only_poly(s[1:i])
                        den = _parse_only_poly(s[i + 3 : -1])
                        return RationalFn(num, den)
                    break
    return RationalFn(_parse_only_poly(s))


def _parse_only_poly(s: str) -> Polynomial:
    tk = _Tokens(s)
    p = _parse_poly(tk)
    if tk.peek() is not None:
        raise ValueError(f"trailing tokens in {s!r}")
    return p
