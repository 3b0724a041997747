"""Exact-arithmetic core: canonical forms, flips, limits, parsing."""

import operator
import re
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.polys.domains import QQ, ZZ
from sympy.polys.rings import ring

from qtstirling.algebra import (
    ONE,
    PoleError,
    Polynomial,
    Q,
    RationalFn,
    T,
    X,
    ZERO,
    _cyclotomic,
    _exquo,
    _factor_poly,
    _fsum,
    _make,
    _pack,
    _unpack,
    binomial_power,
    canonical_str,
    clear_cache,
    const,
    evaluate,
    flip_qt,
    limit_q_to_1,
    monomial_rf,
    parse_rational,
    q_pow,
    subs_rational,
    substitute_t_eq_q_pow,
    t_pow,
)

#: sympy is the independent oracle of these tests; the library does not import it.
_SQQ = ring("q,t,X", QQ, "grlex")[0]
_SZZ = ring("q,t,X", ZZ, "grlex")[0]


def _poly(terms):
    """The kernel polynomial of {(e_q, e_t, e_X): int coefficient}, zero terms dropped."""
    return Polynomial({_pack(*m): c for m, c in terms.items() if c})


def _terms(p):
    """The terms ((e_q, e_t, e_X), c) of the kernel polynomial p."""
    return [(_unpack(key), c) for key, c in p.items()]


def _to_sympy(p, R=_SZZ):
    """The kernel polynomial p in the sympy ring R."""
    return R({m: c for m, c in _terms(p)})


def _from_sympy(p):
    """A sympy ring element with integer coefficients as a kernel polynomial."""
    assert all(c.denominator == 1 for c in p.values())
    return _poly({m: int(c.numerator) for m, c in p.items()})


_P1 = _poly({(0, 0, 0): 1})


def test_gcd_reduction():
    assert (ONE - Q**2) / (ONE - Q) == ONE + Q


def test_multiplicative_inverse():
    f = (ONE - Q * T) / (ONE - T)
    assert f * f.inverse() == ONE


def test_additive_cancellation():
    assert (ONE - Q) + (Q - ONE) == ZERO


def test_division_by_zero_function():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO
    with pytest.raises(ZeroDivisionError):
        RationalFn(1, 0)


def test_pow_negative_inverts():
    f = (ONE + Q) / (ONE - T)
    assert f**-2 == (f.inverse()) ** 2
    assert f**0 == ONE


def test_flip_basic():
    assert flip_qt(Q) == ONE / Q
    assert canonical_str(flip_qt(ONE - Q * T)) == "(q*t - 1)/(q*t)"
    f = (ONE + Q) / (ONE - T)
    assert flip_qt(flip_qt(f)) == f


def test_flip_leaves_x_alone():
    f = X * Q / (ONE - T * X)
    g = flip_qt(f)
    assert subs_rational(g, q=Fraction(2), t=Fraction(3)) == subs_rational(
        f, q=Fraction(1, 2), t=Fraction(1, 3)
    )


def test_evaluate_examples():
    assert evaluate(ONE + Q, Fraction(1, 2), 0) == Fraction(3, 2)
    with pytest.raises(PoleError):
        evaluate(ONE / (ONE - Q), 1, 0)
    assert evaluate((ONE - Q**2) / (ONE - Q), 1, 0) == 2


def test_limit_examples():
    assert limit_q_to_1((ONE - Q) * (ONE - T), 1) == ONE - T
    assert limit_q_to_1(ONE - Q**2, 1) == 2
    with pytest.raises(PoleError):
        limit_q_to_1((ONE - T * Q) / (ONE - Q), 0)
    with pytest.raises(ValueError):
        limit_q_to_1(ONE, -1)


def test_substitute_t_eq_q_pow():
    assert substitute_t_eq_q_pow(ONE - Q * T, 1) == ONE - Q**2
    assert substitute_t_eq_q_pow(ONE - T, 2) == ONE - Q**2
    assert substitute_t_eq_q_pow(T / (ONE - Q * T), 1) == Q / (ONE - Q**2)
    with pytest.raises(ValueError):
        substitute_t_eq_q_pow(T, 0)


@pytest.mark.parametrize("bad", [1.5, 1.0, 0.5, "2", Fraction(2)])
def test_integer_arguments_of_the_substitutions_are_checked(bad):
    # refused at the boundary (operator.index), never truncated or failing deep in _pack
    f = (ONE - Q) * (ONE - Q * T)
    with pytest.raises(TypeError):
        substitute_t_eq_q_pow(f, bad)
    with pytest.raises(TypeError):
        limit_q_to_1(f, bad)
    assert substitute_t_eq_q_pow(f, True) == substitute_t_eq_q_pow(f, 1)
    assert limit_q_to_1(f, True) == limit_q_to_1(f, 1) == ONE - T


def test_subs_rational_pole():
    with pytest.raises(PoleError):
        subs_rational(ONE / (ONE - X), X=1)


def test_canonical_string_form():
    f = (Q**2 * T - ONE) / (Q - ONE)
    assert canonical_str(f) == "(q^2*t - 1)/(q - 1)"
    assert canonical_str(ZERO) == "0"
    assert canonical_str(const(Fraction(-3, 2)) * Q) == "-3/2*q"


def test_parse_roundtrip_fixture():
    for text in ["(q^2*t - 1)/(q - 1)", "q + 1", "-X + 1", "1/2*q^2*t*X - 3", "0"]:
        f = parse_rational(text)
        assert canonical_str(f) == text


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_rational("q +")
    with pytest.raises(ValueError):
        parse_rational("y + 1")


def test_monomial_rf_negative_exponents():
    f = monomial_rf(e_q=-2, e_t=1)
    assert f == T / Q**2
    assert canonical_str(f) == "(t)/(q^2)"
    with pytest.raises(ValueError):  # a packed key holds no negative exponent
        _pack(-1, 0, 0)


def test_memoised_constructors_refuse_non_integers_before_and_after_caching():
    # the memos key by type, so a float never reads the entry of an equal int
    clear_cache()
    for _ in range(2):
        with pytest.raises(TypeError):
            q_pow(2.0)
        for c in (1.0, 0.1, "1/2"):
            with pytest.raises(TypeError):
                const(c)
        assert q_pow(2) == Q * Q and const(1) == ONE and const(True) == ONE


def test_fraction_coefficients_are_refused():
    with pytest.raises(TypeError):
        RationalFn(Polynomial({_pack(1, 0, 0): Fraction(1, 2)}))
    with pytest.raises(TypeError):
        RationalFn(ONE.num, Polynomial({0: Fraction(2)}))


# -- property-based checks ---------------------------------------------------

_small_poly = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2)),
    st.integers(-4, 4),
    min_size=1,
    max_size=4,
).map(_poly)


@st.composite
def rationals(draw):
    num = draw(_small_poly)
    den = draw(_small_poly)
    if not den:
        den = _P1
    return RationalFn(num, den)


@given(rationals(), _small_poly)
@settings(max_examples=60, deadline=None)
def test_canonical_form_unique(f, c):
    if not c:
        return
    g = RationalFn(f.num * c, f.den * c)
    assert g == f
    assert canonical_str(g) == canonical_str(f)
    assert hash(g) == hash(f)


@given(rationals())
@settings(max_examples=60, deadline=None)
def test_flip_involution(f):
    assert flip_qt(flip_qt(f)) == f


@given(rationals())
@settings(max_examples=60, deadline=None)
def test_parse_canonical_roundtrip(f):
    assert parse_rational(canonical_str(f)) == f


@given(rationals(), rationals(), st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_evaluate_commutes_with_field_ops(f, g, k):
    pt = (Fraction(2, 3), Fraction(5, 7), Fraction(1, 4))
    try:
        fv, gv = evaluate(f, *pt), evaluate(g, *pt)
        hv = evaluate(f * g + f**k, *pt)
    except PoleError:
        return
    assert hv == fv * gv + fv**k


@given(rationals(), st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_limit_prefactor_consistency(f, k):
    try:
        base = limit_q_to_1(f, 0)
    except PoleError:
        return
    assert limit_q_to_1(f * (ONE - Q) ** k, k) == base


# -- monomial substitution against a term-by-term reference -------------------

def _subs_reference(f, images):
    """f with q, t, X replaced by images, summed term by term in RationalFn arithmetic."""

    def subs_poly(p):
        total = ZERO
        for monom, c in _terms(p):
            term = const(c)
            for image, e in zip(images, monom):
                term = term * image**e
            total = total + term
        return total

    den = subs_poly(f.den)
    if den.is_zero:
        raise PoleError("reference substitution hits a pole")
    return subs_poly(f.num) / den


_images = st.one_of(
    st.just(ZERO),
    st.integers(-3, 3).filter(bool).map(const),
    st.tuples(
        st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool),
        st.integers(-2, 2), st.integers(-2, 2), st.integers(-2, 2),
    ).map(lambda c: const(c[0]) * monomial_rf(*c[1:])),
)


def _same_or_both_pole(got, want):
    try:
        expected = want()
    except PoleError:
        with pytest.raises(PoleError):
            got()
        return
    assert got() == expected


@given(rationals(), _images, _images, _images)
@settings(max_examples=80, deadline=None)
def test_subs_rational_matches_reference(f, q, t, x):
    _same_or_both_pole(lambda: subs_rational(f, q=q, t=t, X=x),
                       lambda: _subs_reference(f, (q, t, x)))
    _same_or_both_pole(lambda: subs_rational(f, t=t),
                       lambda: _subs_reference(f, (Q, t, X)))


@given(rationals(), st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_flip_limit_specialise_match_reference(f, alpha):
    assert flip_qt(f) == _subs_reference(f, (Q.inverse(), T.inverse(), X))
    _same_or_both_pole(lambda: substitute_t_eq_q_pow(f, alpha),
                       lambda: _subs_reference(f, (Q, Q**alpha, X)))
    _same_or_both_pole(lambda: limit_q_to_1(f),
                       lambda: _subs_reference(f, (ONE, T, X)))


def test_subs_rational_rejects_non_monomial_image():
    with pytest.raises(ValueError):
        subs_rational(Q, q=ONE + T)
    with pytest.raises(ValueError):
        subs_rational(Q, X=Q / (ONE - T))


# -- the operators against an independent reduction -------------------------

def _reference(num, den):
    """The canonical pair of num/den, as sympy's cancel over ZZ reduces it:
    coprime over ZZ, content included, with positive leading coefficient of den."""
    num, den = _to_sympy(num).cancel(_to_sympy(den))
    return _make(_from_sympy(num), _from_sympy(den))


def _rf(num_terms, den_terms):
    return RationalFn(_poly(num_terms), _poly(den_terms))


#: Factors in one base that are not coprime: (1 - q^2) = (1 - q)(1 + q).
_SHARED = (_poly({(0, 0, 0): 1, (1, 0, 0): -1}),
           _poly({(0, 0, 0): 1, (2, 0, 0): -1}),
           _poly({(0, 0, 0): 1, (1, 1, 0): -1}))


@st.composite
def _factored(draw):
    """A small rational times a product of the shared factors to powers in -2..2."""
    num, den = draw(_small_poly), draw(_small_poly)
    if not den:
        den = _P1
    for factor in _SHARED:
        e = draw(st.integers(-2, 2))
        if e > 0:
            num = num * factor**e
        elif e < 0:
            den = den * factor**-e
    return RationalFn(num, den)


#: _images adds ZERO and single-term values.
_operands = st.one_of(rationals(), _factored(), st.just(ONE), _images)


@given(_operands, _operands, st.integers(-3, 3))
@example(_rf({(0, 0, 0): 1}, {(0, 0, 0): 1, (2, 0, 0): -1}),
         _rf({(1, 0, 0): -1}, {(0, 0, 0): 1, (2, 0, 0): -1}), 2)
@example(_rf({(0, 0, 0): 2}, {(0, 0, 0): 1, (1, 0, 0): -1}),
         _rf({(0, 0, 0): 3, (1, 0, 0): 3}, {(0, 0, 0): 1, (2, 0, 0): -1}), -1)
@example(_rf({(0, 0, 0): 1}, {(2, 1, 0): 1}), _rf({(0, 1, 0): 1, (0, 0, 1): 1}, {(1, 2, 0): 1}), 0)
# sympy deflates t^3 -> t here, and its gcd comes back with a negative leading term
@example(_rf({(0, 0, 0): 1}, {(1, 3, 1): 3, (2, 0, 2): -1}),
         _rf({(0, 0, 0): 1}, {(1, 3, 1): 3, (2, 0, 2): -1}), 1)
@settings(max_examples=200, deadline=None)
def test_operators_match_reference_reduction(f, g, k):
    a, b, c, d = f.num, f.den, g.num, g.den
    cases = [("+", f + g, a * d + c * b, b * d),
             ("-", f - g, a * d - c * b, b * d),
             ("*", f * g, a * c, b * d)]
    if g:
        cases.append(("/", f / g, a * d, b * c))
    if f:
        cases.append(("inverse", f.inverse(), b, a))
    if k == 0:
        cases.append(("**", f**k, _P1, _P1))
    elif k > 0 or f:
        num, den = (a, b) if k > 0 else (b, a)
        cases.append(("**", f**k, num ** abs(k), den ** abs(k)))
    for op, got, num, den in cases:
        want = _reference(num, den)
        assert got == want, op
        assert canonical_str(got) == canonical_str(want), op


# -- the stored integer pair ---------------------------------------------------

@given(_operands, _operands, st.integers(-3, 3))
@settings(max_examples=100, deadline=None)
def test_operators_keep_the_integer_pair_canonical(f, g, k):
    results = [f, g, f + g, f - g, f * g, -f]
    if g:
        results.append(f / g)
    if f:
        results.append(f.inverse())
    if k >= 0 or f:
        results.append(f**k)
    for h in results:
        n, d = h.num, h.den
        assert type(n) is Polynomial and type(d) is Polynomial
        assert all(type(c) is int and c for c in (*n.values(), *d.values()))
        n, d = _to_sympy(n), _to_sympy(d)
        assert n.gcd(d) == _SZZ.one  # coprime over ZZ, integer content included
        assert d.LC > 0


# -- products with a one-term side: a key shift, no cancellation -----------------

_coefficients = st.one_of(st.integers(-12, 12).filter(bool),
                          st.fractions(min_value=-6, max_value=6, max_denominator=12).filter(bool))

#: one term over one term: an int, a Fraction, or a coefficient times a monomial whose
#: exponents may be negative, as a RationalFn
_one_terms = st.one_of(
    _coefficients,
    _coefficients.map(const),
    st.tuples(_coefficients, st.integers(-3, 3), st.integers(-3, 3), st.integers(-2, 2))
    .map(lambda c: const(c[0]) * monomial_rf(*c[1:])),
)


@given(_operands, _one_terms)
# 2q/(4 - 4t) * 6/q^2: the pair shares the content 2 and the monomial q across
@example(_rf({(1, 0, 0): 2}, {(0, 0, 0): 4, (0, 1, 0): -4}), const(6) * q_pow(-2))
@example(_rf({(0, 2, 0): 3, (1, 1, 0): -6}, {(2, 0, 1): 4, (0, 0, 0): 2}),
         const(Fraction(-4, 9)) * monomial_rf(1, -2, -1))
@settings(max_examples=200, deadline=None)
def test_products_with_a_one_term_side_match_reference_reduction(f, g):
    term = g if isinstance(g, RationalFn) else const(g)
    want = _reference(f.num * term.num, f.den * term.den)
    for got in (f * g, g * f):
        assert got == want
        assert canonical_str(got) == canonical_str(want)
        if f:  # the one-term side has no factors, so f's maps carry over as they are
            assert got._num_map is f._num_map and got._den_map is f._den_map
    assert f / g == _reference(f.num * term.den, f.den * term.num)


def test_a_product_with_a_monomial_cancels_nothing(monkeypatch):
    from qtstirling import algebra

    f, want = ONE - T, _rf({(3, 0, 0): 1, (3, 1, 0): -1}, {(0, 0, 0): 1})
    calls = []
    for name in ("_cancel", "_exquo"):
        real = getattr(algebra, name)
        monkeypatch.setattr(algebra, name, lambda *args, real=real, name=name: (
            calls.append(name), real(*args))[1])
    assert f * q_pow(3) == want
    assert calls == []


def _integer_terms(p):
    return all(type(c) is int for c in p.values())


def test_multi_term_products_reach_polynomial_gcd(monkeypatch):
    f = (ONE + T) / (ONE - Q**2)
    g = (ONE - Q) / (ONE + Q * T)
    calls = []
    gcd = Polynomial.gcd

    def counted(a, b):
        calls.append((a, b))
        return gcd(a, b)

    monkeypatch.setattr(Polynomial, "gcd", counted)
    assert f * g == (ONE + T) / ((ONE + Q) * (ONE + Q * T))
    assert calls
    assert all(_integer_terms(a) and _integer_terms(b) for a, b in calls)
    assert type(ONE.num) is Polynomial and ONE.num.ring.one == _P1


# -- the kernel's gcd and exact division against sympy ---------------------------

_BIG = 10**30

#: Integer polynomials of total degree up to 8, with small or 30-digit coefficients.
_int_poly = st.dictionaries(
    st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8)).filter(lambda m: sum(m) <= 8),
    st.one_of(st.integers(-4, 4), st.integers(-_BIG, _BIG)),
    min_size=1,
    max_size=5,
).map(_poly)


def _sympy_exquo(p, d):
    """p / d over ZZ by sympy's division over QQ, or None when d does not divide p."""
    quotient, remainder = _to_sympy(p, _SQQ).div(_to_sympy(d, _SQQ))
    if remainder or any(c.denominator != 1 for c in quotient.values()):
        return None
    return _from_sympy(quotient)


_Q1, _Q2 = _SHARED[:2]  # 1 - q and 1 - q^2


@given(_int_poly, _int_poly, _int_poly, st.lists(st.integers(0, 2), max_size=3),
       st.integers(1, _BIG))
@example(_P1, _P1, _P1, [0, 1], 1)
@example(_Q1, _Q2, _P1, [], 1)
@example(_Q2, _Q1 * _Q1, _P1, [1, 1], 6)
@example(_poly({(0, 0, 0): 3, (1, 0, 0): -3}), _poly({(0, 0, 0): 2, (2, 0, 0): -2}),
         _P1, [], 1)
@settings(max_examples=150, deadline=None)
def test_kernel_gcd_and_exact_division_match_sympy(a, b, common, shared, content):
    for i in shared:
        common = common * _SHARED[i]
    common = common * _poly({(0, 0, 0): content})
    if not a or not b or not common:
        return
    f, g = a * common, b * common
    h = f.gcd(g)
    want = _to_sympy(f).gcd(_to_sympy(g))
    assert _to_sympy(h) == (-want if want.LC < 0 else want)
    assert all(type(c) is int for c in h.values()) and h.LC > 0
    for p in (f, g):
        quotient = _exquo(p, h)
        assert quotient is not None and quotient * h == p
    assert _exquo(f, common) == a
    for p, d in ((f, g), (g, f), (f, b), (f, a + _P1)):
        if d:
            assert _exquo(p, d) == _sympy_exquo(p, d)



#: The (e_q, e_t, c) terms of two gcd operands on which the heuristic gcd
#: failed, as sympy's sparse heugcd does.  root-vanishing produced them at
#: nu = (2,2,2,2,0) and (2,2,2,2,1), j = 1, m = 0 (check --n-max 5
#: --part-max 2) while the operators still took gcds.  The first operand of
#: each pair has no q.
_NO_Q_PAIRS = (
    (
        (
            (0, 3, -1), (0, 4, 2), (0, 5, 1), (0, 6, -2), (0, 7, -1), (0, 8, -4), (0, 9, 4),
            (0, 10, 4), (0, 11, 2), (0, 13, -10), (0, 15, 2), (0, 16, 4), (0, 17, 4), (0, 18, -4),
            (0, 19, -1), (0, 20, -2), (0, 21, 1), (0, 22, 2), (0, 23, -1),
        ),
        (
            (4, 11, 1), (5, 12, -2), (5, 13, -2), (5, 14, -2), (5, 15, -2), (6, 13, 1), (6, 14, 4),
            (6, 15, 5), (6, 16, 8), (6, 17, 5), (6, 18, 4), (6, 19, 1), (7, 15, -2), (7, 16, -4),
            (7, 17, -10), (7, 18, -12), (7, 19, -12), (7, 20, -10), (7, 21, -4), (7, 22, -2),
            (8, 17, 1), (8, 18, 4), (8, 19, 9), (8, 20, 12), (8, 21, 18), (8, 22, 12), (8, 23, 9),
            (8, 24, 4), (8, 25, 1), (9, 20, -2), (9, 21, -4), (9, 22, -10), (9, 23, -12),
            (9, 24, -12), (9, 25, -10), (9, 26, -4), (9, 27, -2), (10, 23, 1), (10, 24, 4),
            (10, 25, 5), (10, 26, 8), (10, 27, 5), (10, 28, 4), (10, 29, 1), (11, 27, -2),
            (11, 28, -2), (11, 29, -2), (11, 30, -2), (12, 31, 1),
        ),
    ),
    (
        (
            (0, 0, 1), (0, 1, -1), (0, 2, -2), (0, 5, 6), (0, 6, 3), (0, 7, -3), (0, 8, -6),
            (0, 9, -10), (0, 10, 4), (0, 11, 8), (0, 12, 8), (0, 13, 4), (0, 14, -10), (0, 15, -6),
            (0, 16, -3), (0, 17, 3), (0, 18, 6), (0, 21, -2), (0, 22, -1), (0, 23, 1),
        ),
        (
            (4, 7, -1), (5, 8, 3), (5, 9, 2), (5, 10, 2), (5, 11, 2), (6, 9, -3), (6, 10, -6),
            (6, 11, -7), (6, 12, -10), (6, 13, -5), (6, 14, -4), (6, 15, -1), (7, 10, 1),
            (7, 11, 6), (7, 12, 9), (7, 13, 18), (7, 14, 17), (7, 15, 16), (7, 16, 11), (7, 17, 4),
            (7, 18, 2), (8, 12, -2), (8, 13, -5), (8, 14, -14), (8, 15, -21), (8, 16, -24),
            (8, 17, -28), (8, 18, -16), (8, 19, -11), (8, 20, -4), (8, 21, -1), (9, 14, 1),
            (9, 15, 4), (9, 16, 11), (9, 17, 16), (9, 18, 28), (9, 19, 24), (9, 20, 21),
            (9, 21, 14), (9, 22, 5), (9, 23, 2), (10, 17, -2), (10, 18, -4), (10, 19, -11),
            (10, 20, -16), (10, 21, -17), (10, 22, -18), (10, 23, -9), (10, 24, -6), (10, 25, -1),
            (11, 20, 1), (11, 21, 4), (11, 22, 5), (11, 23, 10), (11, 24, 7), (11, 25, 6),
            (11, 26, 3), (12, 24, -2), (12, 25, -2), (12, 26, -2), (12, 27, -3), (13, 28, 1),
        ),
    ),
)


@pytest.mark.parametrize("pair", _NO_Q_PAIRS)
def test_gcd_of_operands_where_one_lacks_a_variable(pair):
    from sympy import Poly

    f, g = (_poly({(a, b, 0): c for a, b, c in terms}) for terms in pair)
    # sympy's dense gcd is the oracle
    want = Poly(_to_sympy(f).as_expr(), *_SZZ.symbols).gcd(Poly(_to_sympy(g).as_expr(), *_SZZ.symbols))
    want = _to_sympy(_poly({m: int(c) for m, c in want.terms()}))
    assert want.as_expr() in (_SZZ.symbols[1] ** 3, 1)
    for h in (f.gcd(g), g.gcd(f)):
        assert _to_sympy(h) == want


# -- cyclotomic factor maps ------------------------------------------------------

#: Exponent vectors (a, b, x) of monomials q^a t^b X^x other than 1, negative exponents included.
_exponents = st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(-1, 1)).filter(any)
_monomials = _exponents.map(lambda e: monomial_rf(*e))


def _forget(f):
    """f rebuilt from its pair: the same value, with no factor map known past one term."""
    return RationalFn(f.num, f.den)


@st.composite
def _binomial_values(draw):
    """(value, plain): a product, quotient or sum of binomials (1 - m)^e, times
    coefficients and monomials, flipped, sent to q = 1, with a variable set to
    0, with t = q^alpha and with X sent to q^m t^s along the way, and the same
    steps replayed on map-free values.

    The last two can send a factor Phi_d(y) with d > 1 to Phi_d(y'^g) with g > 1,
    the image case of the splitting rule that a binomial 1 - y^g never reaches.
    """
    value = plain = binomial_power(draw(_exponents), draw(st.sampled_from([-2, -1, 1, 2])))
    for _ in range(draw(st.integers(0, 5))):
        op = draw(st.sampled_from(["*", "/", "+", "-", "term", "flip", "limit", "zero", "alpha",
                                   "root", "sum"]))
        if op in ("flip", "limit", "zero", "alpha", "root"):
            var = draw(st.sampled_from(["q", "t", "X"]))
            alpha = draw(st.integers(1, 3))
            root = monomial_rf(draw(st.integers(0, 2)), draw(st.integers(-2, 0)))
            fn = {"flip": flip_qt, "limit": limit_q_to_1,
                  "zero": lambda f: subs_rational(f, **{var: 0}),
                  "alpha": lambda f: substitute_t_eq_q_pow(f, alpha),
                  "root": lambda f: subs_rational(f, X=root)}[op]
            try:
                value, plain = fn(value), fn(_forget(plain))
            except PoleError:
                with pytest.raises(PoleError):
                    fn(_forget(plain))
            continue
        if op == "term":  # one term over one term, on either side of the product
            term = draw(_coefficients) * draw(_monomials)
            if draw(st.booleans()):
                value, plain = value * term, _forget(plain) * term
            else:
                value, plain = term * value, term * _forget(plain)
            continue
        if op == "sum":  # the n-ary sum, with one to three more terms
            others = [binomial_power(draw(_exponents), draw(st.sampled_from([-2, -1, 1, 2])))
                      * draw(_monomials) for _ in range(draw(st.integers(1, 3)))]
            value, plain = _fsum([value, *others]), _fsum([_forget(plain), *map(_forget, others)])
            continue
        other = binomial_power(draw(_exponents), draw(st.sampled_from([-2, -1, 1, 2])))
        if op != "/":
            other = other * draw(_monomials)
        apply = {"*": operator.mul, "/": operator.truediv, "+": operator.add, "-": operator.sub}[op]
        value, plain = apply(value, other), apply(_forget(plain), _forget(other))
    return value, plain


def _sympy_factors(p):
    """{terms: exponent} over the irreducible factors of p that are not monomials, by sympy."""
    out = {}
    for factor, e in _to_sympy(p).factor_list()[1]:
        if len(factor) > 1:
            factor = _from_sympy(factor)
            out[frozenset((-factor if factor.LC < 0 else factor).items())] = e
    return out


def _replayed(fn, f):
    """(fn(f), fn(f rebuilt from its pair)), as _binomial_values draws them."""
    return fn(f), fn(_forget(f))


@given(_binomial_values())
# t = q^2 sends Phi_2(t), Phi_3(t), Phi_6(t) to Phi_4(q), Phi_3(q) Phi_6(q), Phi_12(q);
# X = q^2 t^-2 splits the factors of both sides the same way in y = q/t
@example(_replayed(lambda f: substitute_t_eq_q_pow(f, 2), binomial_power((0, 6, 0), -1)))
@example(_replayed(lambda f: subs_rational(f, X=monomial_rf(2, -2)),
                   binomial_power((0, 0, 6), 1) / binomial_power((0, 0, 4), 1)))
# two terms reach the top exponent of 1 - q, which cancels once: 1/(1 - q) + 1/(1 - t)
@example(_replayed(lambda f: _fsum([f, -Q * f, binomial_power((0, 1, 0), -1)]),
                   binomial_power((1, 0, 0), -2)))
# a product with one term over one term keeps the other side's maps
@example(_replayed(lambda f: const(Fraction(-6, 5)) * monomial_rf(2, -1, 1) * f,
                   binomial_power((1, 2, 0), 2) / binomial_power((0, 2, 1), 1)))
@settings(max_examples=120, deadline=None)
def test_factor_maps_are_complete_and_irreducible(values):
    value, plain = values
    assert value == plain  # the maps reduce the pair exactly as the gcd does
    assert value._den_map is not None
    for p, fmap in ((value.den, value._den_map), (value.num, value._num_map)):
        if fmap is None:
            continue
        # expanding the map gives p up to an integer and a monomial
        expanded = _P1
        for key, e in fmap.items():
            expanded = expanded * _factor_poly(key) ** e
        assert len(_exquo(p, expanded)) == 1
        # and its factors are exactly sympy's, each irreducible, with their multiplicities
        got = {frozenset(_factor_poly(key).items()): e for key, e in fmap.items()}
        assert len(got) == len(fmap)
        assert got == _sympy_factors(p)


# -- the n-ary sum -----------------------------------------------------------------

#: Exponent vectors that share cyclotomic factors: 1 - q^2 = (1 - q)(1 + q), and so on.
_shared_exponents = st.sampled_from([(1, 0, 0), (2, 0, 0), (0, 1, 0), (1, 1, 0), (2, 2, 0),
                                     (1, -1, 0), (0, 0, 1)])


@st.composite
def _binomial_products(draw):
    """A coefficient times a monomial times up to three binomial powers (1 - m)^e."""
    value = const(draw(_coefficients)) * draw(_monomials)
    for _ in range(draw(st.integers(0, 3))):
        m = draw(st.one_of(_shared_exponents, _exponents))
        value = value * binomial_power(m, draw(st.sampled_from([-2, -1, 1, 2])))
    return value


_summands = st.one_of(
    _binomial_products(),
    # a sum of two: its num map is not known
    st.tuples(_binomial_products(), _binomial_products()).map(lambda fg: fg[0] + fg[1]),
    _coefficients.map(const),
    st.tuples(_coefficients, _exponents).map(lambda c: const(c[0]) * monomial_rf(*c[1])),
    # rebuilt from its pair: its den map is not known, so it is cross-multiplied onto the sum
    _binomial_products().map(_forget),
    st.just(ZERO),
)


@st.composite
def _summand_lists(draw):
    """Up to five summands, and sometimes the negatives of some of them, so that terms cancel."""
    values = draw(st.lists(_summands, max_size=5))
    if values and draw(st.booleans()):
        values += [-f for f in draw(st.lists(st.sampled_from(values), max_size=len(values)))]
        values = draw(st.permutations(values))
    return values


def _pairwise_reference(values):
    """The canonical pair of the sum, added one term at a time over the product of the
    two denominators, each partial sum reduced by sympy's cancel over ZZ."""
    num, den = _SZZ.zero, _SZZ.one
    for f in values:
        num, den = (num * _to_sympy(f.den) + _to_sympy(f.num) * den).cancel(den * _to_sympy(f.den))
    return _make(_from_sympy(num), _from_sympy(den))


@given(_summand_lists())
@example([binomial_power((1, 0, 0), -1), -binomial_power((1, 0, 0), -1)])
# (1 - q)^2 at the top twice, and the sum keeps one of them
@example([binomial_power((1, 0, 0), -2), -Q * binomial_power((1, 0, 0), -2),
          binomial_power((0, 1, 0), -1)])
@example([binomial_power((2, 0, 0), -1), Q * binomial_power((2, 0, 0), -1),
          -binomial_power((1, 0, 0), -1)])
@example([const(Fraction(1, 6)) * q_pow(-2), const(Fraction(1, 4)) * monomial_rf(-1, -3),
          const(Fraction(-5, 12)) * t_pow(-1)])
@settings(max_examples=150, deadline=None)
def test_the_nary_sum_matches_the_reduced_pairwise_sum(values):
    got = _fsum(values)
    want = _pairwise_reference(values)
    assert got == want
    assert canonical_str(got) == canonical_str(want)
    assert _fsum(reversed(values)) == got
    if all(f._den_map is not None for f in values):
        assert got._den_map is not None
        expanded = _P1
        for key, e in got._den_map.items():
            expanded = expanded * _factor_poly(key) ** e
        assert len(_exquo(got.den, expanded)) == 1


def test_the_empty_and_one_term_sums():
    assert _fsum([]) is ZERO and _fsum([ZERO, ZERO]) is ZERO
    f = binomial_power((1, 1, 0), -2)
    for values in ([f], [ZERO, f, ZERO], iter([f])):
        assert _fsum(values) is f
    g = _forget(f)  # its den map is not known
    assert g._den_map is None and _fsum([g]) is g
    assert f + ZERO is f and ZERO + f is f


def test_a_sum_that_reaches_each_top_exponent_once_divides_nothing(monkeypatch):
    from qtstirling import algebra

    # the top exponents: (1 - q)^2 in the first term alone, (1 - t) in the second, (1 - q t) in
    # the third, so by Henrici's argument no factor can divide the summed numerator
    terms = [binomial_power((1, 0, 0), -2),
             q_pow(-1) * binomial_power((0, 1, 0), -1) * binomial_power((1, 0, 0), -1),
             const(Fraction(1, 3)) * binomial_power((1, 1, 0), -1) * binomial_power((0, 1, 0), 2)]
    want = _pairwise_reference(terms)
    same_top = [binomial_power((1, 0, 0), -1), -Q * binomial_power((1, 0, 0), -1)]
    calls = []
    real = algebra._exquo
    monkeypatch.setattr(algebra, "_exquo", lambda f, g: (calls.append(g), real(f, g))[1])
    assert _fsum(terms) == want
    assert calls == []
    # two terms reach the top exponent of 1 - q: that factor is tried, and it cancels
    assert _fsum(same_top) == ONE
    assert calls and all(g == _factor_poly((1, (1, 0, 0))) for g in calls)


def test_cyclotomic_coefficients_match_sympy():
    from sympy import Poly, Symbol, cyclotomic_poly

    y = Symbol("y")
    # 105 = 3*5*7 is the first index with a coefficient other than 0 and +-1
    # 729 = 3^6 has one prime; 2310 = 2*3*5*7*11 has five
    for d in [*range(1, 41), 105, 385, 729, 1155, 2310]:
        assert _cyclotomic(d) == tuple(reversed(Poly(cyclotomic_poly(d, y), y).all_coeffs())), d


def test_binomial_power_maps_every_cyclotomic_factor():
    # 1 - q^6 t^-3 = -(1 - y^3) t^-3 with y = q^2 t^-1: Phi_1(y) Phi_3(y)
    f = binomial_power((6, -3, 0), 1)
    assert f == ONE - monomial_rf(6, -3)
    assert f._num_map == {(1, (2, -1, 0)): 1, (3, (2, -1, 0)): 1} and f._den_map == {}
    # Phi_3(y) = y^2 + y + 1, times t^2
    assert sorted(_terms(_factor_poly((3, (2, -1, 0))))) == [((0, 2, 0), 1), ((2, 1, 0), 1),
                                                             ((4, 0, 0), 1)]
    # at q = 1, Phi_1(q^2 t^-1) goes to Phi_1(t) and Phi_3 to Phi_3(t)
    g = limit_q_to_1(ONE / f)
    assert g == ONE / (ONE - t_pow(-3))
    assert g._den_map == {(1, (0, 1, 0)): 1, (3, (0, 1, 0)): 1}


def test_values_built_outside_the_operators_know_only_one_term_maps():
    # the maps decide which cancellation later products take, so they are pinned:
    # unknown (None) for a side of several terms, empty for a side of one term
    for value, want in (
        (RationalFn((Q + T).num), (None, {})),
        (parse_rational("(q + t)/(q - 1)"), (None, None)),
        (subs_rational(ONE - Q, q=Fraction(1, 2)), ({}, {})),
    ):
        assert (value._num_map, value._den_map) == want, value


def test_import_and_runs_leave_sympy_unloaded():
    import os
    import subprocess
    import sys

    import qtstirling

    script = (
        "import sys\n"
        "import qtstirling\n"
        "assert 'sympy' not in sys.modules, 'import'\n"
        "qtstirling.Q * (qtstirling.ONE - qtstirling.T)\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('qtstirling'))\n"
        "assert loaded == ['qtstirling', 'qtstirling.algebra'], loaded\n"
        "assert 'dataclasses' not in sys.modules, 'dataclasses at import'\n"
        "qtstirling.s1(qtstirling.Partition((1,)), qtstirling.Partition((0,)))\n"
        "assert 'dataclasses' not in sys.modules, 'dataclasses at s1'\n"
        "from qtstirling.verify import SuiteConfig, emit_table, eval_point, run_suite\n"
        "from qtstirling.partitions import Partition\n"
        "assert all(r.passed for r in run_suite(SuiteConfig(n_max=2, part_max=1)))\n"
        "eval_point('s1(2,1;1,0)', 1, 2, 3)\n"
        "emit_table('s2', Partition((2, 1)), 'csv')\n"
        "assert not [m for m in sys.modules if m.split('.')[0] == 'sympy'], 'runs'\n"
    )
    src = qtstirling.__file__.rsplit("/qtstirling/", 1)[0]
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr


# -- limits of the packed key and of decimal conversion --------------------------

@pytest.mark.parametrize("build", [
    lambda: Q ** (2**40),
    lambda: q_pow(2**40),
    lambda: q_pow(2**29) ** 5,
    lambda: q_pow(2**30) * q_pow(2**30),
    lambda: (ONE - T) * q_pow(2**31 - 1),
    lambda: q_pow(1 - 2**31) / (ONE - T),
    lambda: parse_rational("q^99999999999"),
    lambda: substitute_t_eq_q_pow(T ** (2**30), 2),
    lambda: flip_qt(ONE / (ONE - q_pow(2**31 - 1) * T)),
])
def test_exponents_past_a_field_raise_overflow(build):
    with pytest.raises(OverflowError):
        build()


def test_largest_degree_still_packs():
    f = q_pow(2**31 - 1)
    assert canonical_str(f) == f"q^{2**31 - 1}"
    assert parse_rational(canonical_str(f)) == f


@pytest.mark.parametrize("f", [const(10**5000) * Q,
                               const(Fraction(-(7**6000), 3**9000)) * (ONE + T),
                               (const(10**4400) + Q) / (ONE - const(3**10000) * X)])
def test_coefficients_past_the_str_digit_limit_round_trip(f):
    import sys

    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    text = canonical_str(f)
    assert parse_rational(text) == f
    assert canonical_str(parse_rational(text)) == text
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_long_coefficient_prints_every_digit():
    assert canonical_str(const(10**5000) * Q) == "1" + "0" * 5000 + "*q"
    assert canonical_str(const(Fraction(1, 10**5000) - 1)) == "-" + "9" * 5000 + "/1" + "0" * 5000


# -- the hash/equality contract and reflected operators ------------------------

@pytest.mark.parametrize("f, value", [(ONE, 1), (ZERO, 0),
                                      (const(Fraction(-3, 2)), Fraction(-3, 2))])
def test_constants_hash_like_their_value(f, value):
    assert f == value and value == f
    assert hash(f) == hash(value)
    assert {value: "a"}.get(f) == "a"
    assert {f: "a"}.get(value) == "a"


@pytest.mark.parametrize("f", [ZERO, ONE, Q / (ONE - T)])
@pytest.mark.parametrize("op", [operator.sub, operator.truediv])
def test_reflected_operators_reject_other_types(f, op):
    # str has no - or /, so Python's own TypeError names both operand types
    with pytest.raises(TypeError, match="'str' and 'RationalFn'"):
        op("a", f)


# -- point evaluation against a Fraction-per-term reference --------------------

def _eval_poly_reference(p, q0, t0, X0):
    """p at a rational point, summed one Fraction term at a time."""
    total = Fraction(0)
    for (a, b, x), c in _terms(p):
        total += c * q0**a * t0**b * X0**x
    return total


#: _operands times a rational constant, so that the pair carries integer content.
_eval_operands = st.tuples(
    _operands, st.fractions(min_value=-3, max_value=3, max_denominator=6).filter(bool),
).map(lambda fc: fc[0] * fc[1])

#: Coordinates of each kind evaluate takes: Fractions and ints, used as they
#: are, and floats, which it converts with Fraction().
_coords = st.one_of(st.just(Fraction(0)),
                    st.fractions(min_value=-3, max_value=3, max_denominator=5),
                    st.integers(min_value=-3, max_value=3),
                    st.sampled_from([0.5, -1.25, 2.0]))


@given(_eval_operands, _coords, _coords, st.one_of(st.none(), _coords))
@example(ONE + Q, Fraction(1, 3), Fraction(0), None)
@example((ONE + Q) * Fraction(1, 2), Fraction(1, 3), Fraction(2), Fraction(1, 2))
@example(ONE / (ONE - Q * T), Fraction(-3, 2), Fraction(-2, 3), Fraction(0))
@example(ZERO, Fraction(0), Fraction(0), None)
@example((ONE - Q * T) / (ONE + T), 2, Fraction(1, 3), Fraction(5, 2))  # no X, at X != 0
@example(ONE / (ONE - Q * X), 3, -1, 0.5)
@settings(max_examples=300, deadline=None)
def test_evaluate_matches_fraction_reference(f, q0, t0, X0):
    point = (q0, t0) if X0 is None else (q0, t0, X0)
    q0, t0, X0 = (Fraction(0 if x is None else x) for x in (q0, t0, X0))
    den = _eval_poly_reference(f.den, q0, t0, X0)
    if den == 0:
        with pytest.raises(PoleError):
            evaluate(f, *point)
        return
    got = evaluate(f, *point)
    assert isinstance(got, Fraction)
    assert got == _eval_poly_reference(f.num, q0, t0, X0) / den


# -- the canonical grammar against the tokenizer parser it replaced ------------

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


def _reference_poly(tk: _Tokens):
    terms: dict[tuple, Fraction] = {}
    sign = 1
    tok = tk.peek()
    if tok in ("+", "-"):
        tk.next()
        sign = -1 if tok == "-" else 1
    while True:
        coeff, exps = _reference_term(tk)
        monom = tuple(exps)
        terms[monom] = terms.get(monom, 0) + coeff * sign
        tok = tk.peek()
        if tok in ("+", "-"):
            tk.next()
            sign = -1 if tok == "-" else 1
            continue
        if tok is None:
            return _fraction_poly(terms)
        raise ValueError(f"unexpected token {tok!r} in polynomial")


def _reference_term(tk: _Tokens):
    coeff = Fraction(1)
    exps = [0, 0, 0]
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
        elif tok in ("q", "t", "X"):
            tk.next()
            e = 1
            if tk.peek() == "^":
                tk.next()
                etok = tk.next()
                if not etok.isdigit():
                    raise ValueError("expected integer exponent after '^'")
                e = int(etok)
            exps["qtX".index(tok)] += e
        else:
            raise ValueError(f"unexpected token {tok!r} in term")
        if tk.peek() == "*":
            tk.next()
            continue
        return coeff, exps


def _fraction_poly(terms):
    """The polynomial {(e_q, e_t, e_X): Fraction} as a RationalFn, every monomial packed."""
    scale = lcm(*(c.denominator for c in terms.values()))
    packed = {_pack(*m): c * scale for m, c in terms.items()}
    return RationalFn(Polynomial({k: int(c) for k, c in packed.items() if c}), scale)


def _reference_only_poly(s: str):
    tk = _Tokens(s)
    p = _reference_poly(tk)
    if tk.peek() is not None:
        raise ValueError(f"trailing tokens in {s!r}")
    return p


def _reference_parse(text: str) -> RationalFn:
    """The tokenizer and recursive-descent parser that parse_rational replaced."""
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
                        return _reference_parse(s[1:-1])
                    if s[i + 1 : i + 3] == "/(" and s.endswith(")"):
                        num = _reference_only_poly(s[1:i])
                        den = _reference_only_poly(s[i + 3 : -1])
                        return num / den
                    break
    return _reference_only_poly(s)


def _outcome(parse, text):
    """parse(text), or the type of the ValueError or ZeroDivisionError it raises."""
    try:
        return parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc)


#: The grammar's tokens, whitespace, and the foreign letter y.
_TOKENS = ("0", "1", "2", "12", "q", "t", "X", "^", "*", "/", "+", "-",
           "(", ")", ")/(", " ", "\t", "y")
_token_soup = st.lists(st.sampled_from(_TOKENS), max_size=16).map("".join)


@st.composite
def _grammar_text(draw):
    """A polynomial or quotient in the canonical grammar, spaced at random.

    Half the time one token of _TOKENS is spliced in at a random place, so
    that many of these strings sit just outside the language.
    """
    def poly():
        tokens = [draw(st.sampled_from(["", "+", "-"]))]
        for i in range(draw(st.integers(1, 3))):
            if i:
                tokens.append(draw(st.sampled_from(["+", "-"])))
            for j in range(draw(st.integers(1, 3))):
                if j:
                    tokens.append("*")
                digits = str(draw(st.integers(0, 12)))
                tokens += draw(st.sampled_from([
                    [digits], [digits, "/", str(draw(st.integers(0, 5)))],
                    [draw(st.sampled_from("qtX"))],
                    [draw(st.sampled_from("qtX")), "^", digits],
                ]))
        return "".join(tok + draw(st.sampled_from(["", "", " ", " \t "])) for tok in tokens)

    form = draw(st.sampled_from(["{}", "({})/({})", "( {} )", "(({})/({}))"]))
    text = form.format(*(poly() for _ in range(form.count("{}"))))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(_TOKENS)) + text[at:]
    return text


#: A coefficient denominator that is zero.
_ZERO_DENOMINATOR = re.compile(r"/(\s*)0+(?!\d)")


@given(st.one_of(_token_soup, _grammar_text()))
@settings(max_examples=600, deadline=None)
def test_parse_rational_matches_tokenizer_reference(text):
    want, got = _outcome(_reference_parse, text), _outcome(parse_rational, text)
    if isinstance(want, RationalFn):
        assert isinstance(got, RationalFn) and got == want
    elif (want, got) == (ZeroDivisionError, ValueError):
        # The reference divides by a zero coefficient denominator before it
        # reaches the syntax error; the string must then be malformed.
        assert _outcome(_reference_parse, _ZERO_DENOMINATOR.sub(r"/\g<1>1", text)) is ValueError
    else:
        assert got is want


@pytest.mark.parametrize("text, want", [
    ("1 / 2*q", "1/2*q"),
    ("q ^ 2", "q^2"),
    ("( q )/( t )", "(q)/(t)"),
    ("((q)/(t))", "(q)/(t)"),
    ("q*q*2*3", "6*q^2"),
    ("q^0", "1"),
    ("+q", "q"),
    ("1 2", ValueError),
    ("(q) / (t)", ValueError),
    ("", ValueError),
    ("-", ValueError),
    ("q - -t", ValueError),
    ("1/0*q", ZeroDivisionError),
    ("(1)/(0)", ZeroDivisionError),
])
def test_parse_rational_edge_strings(text, want):
    for parse in (parse_rational, _reference_parse):
        if isinstance(want, str):
            assert canonical_str(parse(text)) == want
        else:
            with pytest.raises(want):
                parse(text)


@pytest.mark.parametrize("text", ["1/0*q +", "q + 1/0 2", "(1/0*q +)/(t)"])
def test_malformed_string_with_zero_denominator_is_a_syntax_error(text):
    with pytest.raises(ValueError):
        parse_rational(text)
    with pytest.raises(ZeroDivisionError):
        _reference_parse(text)


def test_parse_rational_long_and_deep_inputs():
    assert parse_rational(" + ".join(["q*t^2"] * 20000)) == 20000 * Q * T**2
    with pytest.raises(ValueError):
        parse_rational("1" * 100000 + "y")
    assert parse_rational("(" * 3000 + "(q)/(t)" + ")" * 3000) == Q / T
    with pytest.raises(ValueError):
        parse_rational("(" * 3000 + "q" + ")" * 2999)
