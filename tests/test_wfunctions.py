"""Limiting Macdonald functions: closed forms vs recursion, duality, limits."""

from fractions import Fraction
from itertools import permutations

import pytest

from qtstirling.algebra import (
    ONE,
    Q,
    T,
    X,
    ZERO,
    canonical_str,
    clear_cache,
    monomial_rf,
    q_pow,
    subs_rational,
    t_pow,
)
from qtstirling.partitions import (
    Partition,
    horizontal_strip_predecessors,
    partitions_in_box,
    rectangle,
    subpartitions,
    weight,
    zeros,
)
from qtstirling.pochhammer import poch, poch_partition_flipped
from qtstirling.wfunctions import (
    NotAStripError,
    generic_staircase_args,
    h_factor,
    staircase_args,
    w_bar,
    w_hat_multi,
    w_hat_skew_single,
    w_multi,
    w_skew_single,
    w_staircase,
)
from qtstirling.verify import check_identity

P = Partition


def rect_oracle(k, xs):
    """Independent closed form for rectangular indices."""
    out = q_pow(-len(xs) * k)
    for x in xs:
        out = out * poch(q_pow(1 - k) * x, k)
    return out


def test_argument_entries():
    assert staircase_args((2, 1)) == (Q**2 * T, Q)
    assert generic_staircase_args(2) == (X * T, X)
    # an exponent that is not an integer is refused, never truncated
    for bad in (2.5, 1.7, "3", Fraction(5, 2)):
        with pytest.raises(TypeError):
            staircase_args((bad, 0))


def test_h_factor_diagonal_and_single_row():
    assert h_factor(P((2, 1)), P((2, 1))) == ONE
    assert h_factor(P((5,)), P((3,))) == ONE
    with pytest.raises(NotAStripError):
        h_factor(P((1, 1)), P((0, 0)))


def test_h_factor_four_ratio_oracle():
    # (2,0)/(1,0): the index m = mu_1 - lam_2 = 1; expand the four symbols directly
    lam, mu = P((2, 0)), P((1, 0))
    oracle = ((ONE - T) * (ONE - Q**2)) / ((ONE - Q) * (ONE - Q * T))
    assert h_factor(lam, mu) == oracle


def test_skew_single_values():
    assert w_skew_single(P((1,)), P((0,)), X) == (ONE - X) / Q
    assert w_skew_single(P((2, 1)), P((2, 1)), X) == ONE
    # (2)/(1): (-x/q) q^{-n(lam')} (1 - q x^{-1}) expanded by hand
    expected = (q_pow(-2)) * (Q - X) * -ONE  # (-x/q) q^{-1} (1 - q/x) = (x... )
    got = w_skew_single(P((2,)), P((1,)), X)
    assert got == (X - Q) * q_pow(-2) * -ONE
    assert got == (Q - X) / Q**2


def test_skew_single_triangularity():
    assert w_skew_single(P((1, 1)), P((0, 0)), X) == ZERO
    assert w_hat_skew_single(P((2, 2)), P((1, 0)), X) == ZERO


def test_hat_skew_single_values():
    assert w_hat_skew_single(P((0, 0)), P((0, 0)), X) == ONE
    assert w_hat_skew_single(P((1,)), P((0,)), X) == ONE - X.inverse()
    # diagonal carries t^{|lam|}
    assert w_hat_skew_single(P((2, 1)), P((2, 1)), X) == T**3


def test_w_multi_rectangular():
    xs2 = (monomial_rf(e_q=2, e_t=1), monomial_rf(e_q=5))
    for n, xs in ((1, (X,)), (2, xs2)):
        for k in range(0, 4):
            mu = rectangle(k, n)
            assert w_multi(mu, xs) == rect_oracle(k, xs)
    xs3 = generic_staircase_args(3)
    for k in range(0, 4):
        assert w_multi(rectangle(k, 3), xs3) == rect_oracle(k, xs3)


def test_w_multi_zero_partition():
    assert w_multi(zeros(3), generic_staircase_args(3)) == ONE


def test_w_multi_argument_count():
    with pytest.raises(ValueError):
        w_multi(P((1, 1)), (X,))


def test_w_multi_staircase_closed_form():
    # mu=(1,1), n=2 at (Xt, X) against the independent staircase product
    mu = P((1, 1))
    closed = q_pow(-2) * poch_partition_flipped(X, mu)
    assert w_multi(mu, (X * T, X)) == closed
    assert w_staircase(mu, X) == closed

    for parts in [(1,), (2, 1), (3, 1), (2, 2, 1)]:
        mu = P(parts)
        assert w_staircase(mu, X) == w_multi(mu, generic_staircase_args(mu.n))


def test_w_staircase_closed_form_value():
    assert w_staircase(P((1,)), X) == (ONE - X) / Q
    assert w_staircase(zeros(2), X) == ONE


def test_vanishing():
    assert check_identity("w-vanishing", mu=P((2,)), lam=P((1,))).passed
    assert check_identity("w-vanishing", mu=P((1, 1)), lam=P((2, 0))).passed
    assert check_identity("w-vanishing", mu=P((2, 1)), lam=P((1, 1))).passed
    with pytest.raises(ValueError):
        check_identity("w-vanishing", mu=P((1, 0)), lam=P((2, 1)))


@pytest.mark.parametrize("n, cap", [(1, 3), (2, 3), (3, 3), (4, 2)])
def test_w_nonzero_on_contained(n, cap):
    # the converse of w-vanishing: w_mu(q^lam t^delta) != 0 for nonempty mu <= lam
    for lam in partitions_in_box(n, cap):
        for mu in subpartitions(lam):
            if weight(mu):
                assert not w_multi(mu, staircase_args(lam.parts)).is_zero, (mu, lam)


def test_symmetry_exhaustive_small():
    xs = (monomial_rf(e_q=2, e_t=1), monomial_rf(e_q=5, e_t=2), monomial_rf(e_q=9))
    for mu in [P((1, 1, 0)), P((2, 1, 1)), P((2, 2, 0))]:
        base = w_multi(mu, xs)
        for perm in permutations(xs):
            assert w_multi(mu, perm) == base


def test_duality():
    assert check_identity("w-duality", mu=P((1,)), args=(X,)).passed
    assert check_identity("w-duality", mu=zeros(2), args=generic_staircase_args(2)).passed
    assert check_identity("w-duality", mu=P((2, 1)), args=generic_staircase_args(2)).passed
    assert check_identity("w-duality", mu=P((2, 1)),
                          args=(monomial_rf(e_q=2, e_t=1), monomial_rf(e_q=5))).passed


def test_duality_rejected_exponent_reading():
    # with the t-exponent -2n(mu)-(n-1)|mu| the relation fails for n > 1
    mu = P((1, 0))
    xs = generic_staircase_args(2)
    from qtstirling.partitions import n_stat

    lhs = w_hat_multi(mu, xs)
    flipped = subs_rational(w_multi(mu, xs), q=q_pow(-1), t=t_pow(-1), X=monomial_rf(e_X=-1))
    rejected = monomial_rf(e_q=-1, e_t=-2 * n_stat(mu) - 1) * flipped
    assert lhs != rejected
    accepted = monomial_rf(e_q=-1, e_t=-2 * n_stat(mu) + 1) * flipped
    assert lhs == accepted


def _w_hat_multi_literal(mu, xs):
    """The other (rejected) reading of the dual recursion.

    It repeats the full skew pair lam/mu in the summand instead of passing to
    the intermediate partition, and fails the duality relation.
    """

    def rec(lam, args):
        if len(args) == 1:
            return w_hat_skew_single(lam, Partition((0,) * lam.n), args[0])
        y, rest = args[0], args[1:]
        ell = len(rest)
        s = ZERO
        for nu in horizontal_strip_predecessors(lam):
            s = s + w_hat_skew_single(lam, nu, y * t_pow(-ell))
        return s * rec(lam, rest)

    return rec(mu, tuple(xs))


def test_dual_recursion_literal_reading_rejected():
    # repeating the full skew pair in the summand breaks duality
    mu = P((1, 1))
    xs = generic_staircase_args(2)
    assert _w_hat_multi_literal(mu, xs) != w_hat_multi(mu, xs)
    assert check_identity("w-duality", mu=mu, args=xs).passed


def test_w_bar_values():
    assert w_bar(zeros(2), zeros(2)) == ONE
    assert w_bar(P((1,)), P((1,))) == ONE
    assert w_bar(P((2,)), P((2,))) == 2
    assert w_bar(P((2,)), P((2,)), invert=True) == 2
    v = w_bar(P((1, 1)), P((1, 1)))
    assert v == ONE - T
    assert canonical_str(w_bar(P((2, 1)), P((2, 1)), invert=True)) == "(t - 1)/(t^2)"


def test_w_bar_requires_matching_ambient():
    with pytest.raises(ValueError):
        w_bar(P((1,)), P((1, 0)))


def test_cache_transparency():
    mu = P((2, 1))
    xs = generic_staircase_args(2)
    value = w_multi(mu, xs)
    clear_cache()
    assert w_multi(mu, xs) == value


def test_cache_cap_env():
    # the cap is read once, at import, so it takes a fresh interpreter
    import os
    import subprocess
    import sys

    import qtstirling

    code = (
        "from qtstirling.algebra import canonical_str\n"
        "from qtstirling.partitions import Partition\n"
        "from qtstirling.wfunctions import _w_rec, generic_staircase_args, w_multi\n"
        "print(canonical_str(w_multi(Partition((2, 2)), generic_staircase_args(2))))\n"
        "print(_w_rec.cache_info().maxsize)\n"
        "from qtstirling.verify import parse_expression\n"
        "print(parse_expression.cache_info().maxsize)\n"
    )
    src = os.path.dirname(os.path.dirname(qtstirling.__file__))
    env = {**os.environ, "QTSTIRLING_CACHE_SIZE": "4", "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    value, maxsize, eval_maxsize = proc.stdout.splitlines()
    assert value == canonical_str(rect_oracle(2, generic_staircase_args(2)))
    assert maxsize == "4"
    assert eval_maxsize == "4"


@pytest.mark.parametrize("value, maxsize", [("-5", 200000), ("many", 200000), ("0", 0)])
def test_cache_cap_env_bad_values(value, maxsize):
    # a negative or non-integer cap falls back to the default; 0 turns every memo off
    import os
    import subprocess
    import sys

    import qtstirling

    code = (
        "import qtstirling.cli\n"
        "from qtstirling.algebra import _MEMOS\n"
        "print(len(_MEMOS), sorted({f.cache_info().maxsize for f in _MEMOS}))\n"
    )
    src = os.path.dirname(os.path.dirname(qtstirling.__file__))
    env = {**os.environ, "QTSTIRLING_CACHE_SIZE": value, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [str(len(_package_memos())), f"[{maxsize}]"]


def _package_memos():
    import importlib
    import pkgutil

    import qtstirling

    memos = {}
    for info in pkgutil.iter_modules(qtstirling.__path__):
        module = importlib.import_module(f"qtstirling.{info.name}")
        for value in vars(module).values():
            if callable(getattr(value, "cache_info", None)):
                memos[id(value)] = value
    return list(memos.values())


def test_clear_cache_empties_every_memo():
    from qtstirling.stirling import s1, s2, u_matrix, v_matrix
    from qtstirling.verify import parse_expression

    nu, mu = P((2, 1)), P((1, 0))
    s1(nu, mu)
    s2(nu, mu)
    u_matrix(nu, mu)
    v_matrix(nu, mu)
    w_multi(P((2, 1)), generic_staircase_args(2))
    parse_expression("binomial(2,1;1,0)")
    memos = _package_memos()
    assert parse_expression in memos
    assert all(f.cache_info().currsize
               for f in (s1, s2, u_matrix, v_matrix, parse_expression))
    clear_cache()
    assert {f.__name__: f.cache_info().currsize for f in memos} == {f.__name__: 0 for f in memos}


def test_concurrent_reads_consistent():
    from concurrent.futures import ThreadPoolExecutor

    clear_cache()
    mus = [mu for mu in partitions_in_box(2, 3)]
    serial = [w_multi(mu, generic_staircase_args(2)) for mu in mus]
    clear_cache()
    with ThreadPoolExecutor(max_workers=4) as pool:
        parallel = list(pool.map(lambda m: w_multi(m, generic_staircase_args(2)), mus))
    assert serial == parallel
