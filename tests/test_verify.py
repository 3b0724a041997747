"""Suite plumbing: registry completeness, determinism, tables, eval, CLI."""

import argparse
import hashlib
import importlib
import inspect
import json
import pkgutil
import subprocess
import sys
from fractions import Fraction
from itertools import product

import pytest

import qtstirling
from qtstirling import algebra, cli, partitions, stirling, verify
from qtstirling.algebra import (
    ONE,
    X,
    ZERO,
    PoleError,
    Polynomial,
    canonical_str,
    clear_cache,
    monomial_rf,
    subs_rational,
    t_pow,
    x_pow,
)
from qtstirling.partitions import (
    Partition,
    n_stat,
    n_stat_conj,
    partitions_between,
    partitions_in_box,
    subpartitions,
    weight,
)
from qtstirling.pochhammer import binomial_product, poch_partition_flipped
from qtstirling.qtnumbers import XBAR, bracket_rect, qt_binomial, qt_bracket
from qtstirling.stirling import s1, s2
from qtstirling.verify import (
    _EVAL_EXPRS,
    MANIFEST,
    SuiteConfig,
    check_identity,
    classical_stirling1,
    classical_stirling2,
    emit_table,
    eval_point,
    falling_factorial_coefficients,
    parse_expression,
    run_suite,
)

P = Partition


def test_manifest_completeness():
    assert len(set(MANIFEST)) == len(MANIFEST)
    expected_core = {
        "flip-formula", "limit-rule", "w-rect", "w-staircase", "w-vanishing",
        "w-symmetry", "w-duality", "binomial-theorem", "gaussian-reduction",
        "bracket-binomial-relation", "change-of-basis-u", "change-of-basis-v",
        "uv-inversion", "stirling-diagonal", "stirling-zero", "stirling-inversion",
        "defining-expansion-s1", "defining-expansion-s2", "adjacent-weight",
        "x0-sums", "root-vanishing", "classical-stirling",
    }
    assert expected_core <= set(MANIFEST)


#: Every name `import qtstirling` binds: 72 functions, classes and constants
#: and the 8 submodules (cli is not among them).
_PACKAGE_NAMES = [
    "IdentityReport", "MANIFEST", "NotAStripError", "ONE", "Partition", "PoleError", "Q",
    "RationalFn", "SuiteConfig", "T", "X", "XBAR", "ZERO", "algebra", "bracket_rect",
    "canonical_str", "check_identity", "classical_stirling1", "classical_stirling2", "const",
    "contains", "emit_table", "eval_point", "evaluate", "f_factor", "flip_qt", "g_product",
    "gaussian_binomial", "generic_staircase_args", "h_factor", "h_product",
    "horizontal_strip_predecessors", "is_horizontal_strip", "limit_q_to_1", "monomial_rf",
    "n_stat", "n_stat_conj", "ordinary_alpha_stirling", "parse_rational", "partitions",
    "partitions_between", "partitions_in_box", "poch", "poch_partition",
    "poch_partition_flipped", "pochhammer", "q_pow", "qt_binomial", "qt_binomial_rect",
    "qt_bracket", "qt_number", "qtnumbers", "rectangle", "reports", "run_suite", "s1", "s2",
    "staircase_args", "stirling", "subpartitions", "subs_rational", "substitute_t_eq_q_pow",
    "t_pow", "u_limit", "u_limit_direct", "u_matrix", "v_limit", "v_limit_direct", "v_matrix",
    "verify", "w_bar", "w_hat_multi", "w_hat_skew_single", "w_multi", "w_skew_single",
    "w_staircase", "weight", "wfunctions", "x_pow", "zeros",
]


def test_every_exported_function_and_class_is_defined_in_its_module():
    foreign = []
    for info in pkgutil.iter_modules(qtstirling.__path__):
        module = importlib.import_module(f"qtstirling.{info.name}")
        for name in getattr(module, "__all__", ()):
            value = getattr(module, name)
            is_defined = isinstance(value, type) or inspect.isfunction(inspect.unwrap(value))
            if is_defined and value.__module__ != module.__name__:
                foreign.append(f"{module.__name__}.{name}")
    assert not foreign
    # the package namespace: the 72 names and 8 submodules an eager import bound,
    # each the very object its module defines, loaded on first access
    assert qtstirling.__all__ == _PACKAGE_NAMES
    for name in _PACKAGE_NAMES:
        value = getattr(qtstirling, name)
        home = sys.modules[f"qtstirling.{qtstirling._LAZY.get(name, 'algebra')}"]
        assert value is (home if inspect.ismodule(value) else getattr(home, name)), name
    star = {}
    exec("from qtstirling import *", star)
    assert sorted(set(star) - {"__builtins__"}) == _PACKAGE_NAMES
    assert set(_PACKAGE_NAMES) <= set(dir(qtstirling))
    with pytest.raises(AttributeError):
        qtstirling.not_a_name
    assert not hasattr(qtstirling, "falling_factorial_coefficients")


def test_classical_oracles():
    assert falling_factorial_coefficients(4) == [0, -6, 11, -6, 1]
    assert classical_stirling1(4, 2) == 11
    assert classical_stirling1(3, 1) == 2
    assert classical_stirling2(4, 2) == 7
    assert classical_stirling2(5, 3) == 25
    assert classical_stirling2(0, 0) == 1
    # outside 0 <= k <= m both kinds are 0
    assert [classical_stirling2(3, k) for k in (-1, 4)] == [0, 0]
    assert [classical_stirling1(3, k) for k in (-1, 4)] == [0, 0]


def test_config_validation():
    with pytest.raises(ValueError):
        SuiteConfig(n_max=0)
    with pytest.raises(ValueError):
        run_suite(SuiteConfig(identities=["not-an-identity"]))
    # a bound that is not an integer would reach range() in the checks, not here
    with pytest.raises(TypeError):
        SuiteConfig(n_max=2.5)
    with pytest.raises(TypeError):
        SuiteConfig(part_max=1.5)
    with pytest.raises(TypeError):
        SuiteConfig(n_max=Fraction(2))
    # a string would be read as a list of one-letter ids
    with pytest.raises(ValueError, match="list"):
        SuiteConfig(identities="w-rect")


def test_suite_filtering_contract():
    reports = run_suite(SuiteConfig(n_max=1, part_max=2, identities=["stirling-diagonal"]))
    assert reports
    assert {r.identity_id for r in reports} == {"stirling-diagonal"}
    assert all(r.passed for r in reports)


def test_suite_small_bounds_all_pass():
    reports = run_suite(SuiteConfig(n_max=1, part_max=3))
    assert all(r.passed for r in reports)
    reports = run_suite(SuiteConfig(n_max=2, part_max=2))
    assert all(r.passed for r in reports)


def test_suite_determinism(tmp_path):
    def snapshot():
        reports = run_suite(SuiteConfig(n_max=2, part_max=1, seed=7))
        return [(r.identity_id, json.dumps(r.index_data, sort_keys=True), r.passed, r.witness)
                for r in reports]

    assert snapshot() == snapshot()


#: SHA-256 of the suite report (every record without "elapsed", as JSON with
#: indent 2) at (n_max, part_max, seed); a refactor of the registry must keep it.
_REPORT_DIGESTS = [
    (2, 2, 0, 447, "3d622370146c023f43dca1c217f96d25e1fcbbb113fcb98b905b2b4537e9702b"),
    (3, 1, 7, 403, "3488f8e994c8a4214da737db0f3548b66d6375b25fd81a644b2edb87987dd1f8"),
    (3, 3, 0, 2428, "a12d22ed3a66b93d525b935b8dadc414496fc5a13f1f1608692a273788300dba"),
    # the n = 4 roots of root-vanishing and x0-sums, about 1.1 s
    (4, 2, 0, 2037, "613027e1d98b0d4fdebb051a8d891633051b46b423fba05c36e2c2c943cafcad"),
]


@pytest.mark.parametrize("n_max, part_max, seed, count, digest", _REPORT_DIGESTS)
def test_suite_report_is_pinned(n_max, part_max, seed, count, digest):
    records = []
    for r in run_suite(SuiteConfig(n_max=n_max, part_max=part_max, seed=seed)):
        record = r.to_json_dict()
        del record["elapsed"]
        records.append(record)
    assert len(records) == count
    text = json.dumps(records, indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_check_identity_reproduces_every_suite_report():
    cfg = SuiteConfig(n_max=3, part_max=1, seed=7)
    suite = iter(run_suite(cfg))
    for identity_id, row in verify._TABLE.items():
        for indices in row.indices(cfg):
            want = next(suite).to_json_dict()
            got = check_identity(identity_id, **indices).to_json_dict()
            del want["elapsed"], got["elapsed"]
            assert got == want
    assert next(suite, None) is None


def test_suite_report_without_memos_is_pinned():
    # QTSTIRLING_CACHE_SIZE=0 turns every memo off; it is read at import, so a fresh interpreter
    import os

    import qtstirling

    n_max, part_max, seed, count, digest = _REPORT_DIGESTS[1]
    code = (
        "import hashlib, json\n"
        "from qtstirling.algebra import _MEMOS\n"
        "from qtstirling.verify import SuiteConfig, run_suite\n"
        "assert {f.cache_info().maxsize for f in _MEMOS} == {0}\n"
        f"cfg = SuiteConfig(n_max={n_max}, part_max={part_max}, seed={seed})\n"
        "records = [r.to_json_dict() for r in run_suite(cfg)]\n"
        "for record in records:\n"
        "    del record['elapsed']\n"
        "text = json.dumps(records, indent=2)\n"
        "print(len(records), hashlib.sha256(text.encode()).hexdigest())\n"
    )
    src = os.path.dirname(os.path.dirname(qtstirling.__file__))
    env = {**os.environ, "QTSTIRLING_CACHE_SIZE": "0", "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [str(count), digest]


def test_suite_report_with_evicting_memos_matches():
    # a cap of 8 entries makes every busy memo evict; the report must not change
    import os

    code = (
        "import json\n"
        "from qtstirling.algebra import _MEMOS\n"
        "from qtstirling.verify import SuiteConfig, run_suite\n"
        "assert {f.cache_info().maxsize for f in _MEMOS} == {8}\n"
        "records = [r.to_json_dict() for r in run_suite(SuiteConfig(n_max=2, part_max=2))]\n"
        "assert max(f.cache_info().misses for f in _MEMOS) > 8\n"
        "for record in records:\n"
        "    del record['elapsed']\n"
        "print(json.dumps(records))\n"
    )
    src = os.path.dirname(os.path.dirname(qtstirling.__file__))
    env = {**os.environ, "QTSTIRLING_CACHE_SIZE": "8", "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    want = [r.to_json_dict() for r in run_suite(SuiteConfig(n_max=2, part_max=2))]
    for record in want:
        del record["elapsed"]
    assert json.loads(proc.stdout) == want


def test_failures_are_reported_not_raised(monkeypatch):
    real = verify.bracket_rect
    monkeypatch.setattr(verify, "bracket_rect", lambda mu: real(mu) + ONE)
    reports = run_suite(SuiteConfig(n_max=2, part_max=1, identities=["bracket-rect"]))
    assert reports
    for r in reports:
        mu = P(r.index_data["mu"])
        assert r.identity_id == "bracket-rect" and not r.passed
        assert r.witness == canonical_str(qt_bracket(XBAR, mu) - (real(mu) + ONE))
        assert r.to_json_dict()["witness"] == r.witness

    def pole(*args, **kwargs):
        raise PoleError("no limit")

    # the row reads w_bar through the memoised u_limit and v_limit, so a limit
    # cached by an earlier test would bypass the patch
    clear_cache()
    with monkeypatch.context() as m:
        m.setattr(stirling, "w_bar", pole)
        reports = run_suite(SuiteConfig(n_max=1, part_max=1, identities=["w-bar-limit-exists"]))
        # each raising check fails at its own indices, and the others still run
        assert [(r.identity_id, r.index_data, r.passed, r.witness) for r in reports] == [
            ("w-bar-limit-exists", {"mu": [0], "lam": [0]}, False, "PoleError: no limit"),
            ("w-bar-limit-exists", {"mu": [0], "lam": [1]}, False, "PoleError: no limit"),
            ("w-bar-limit-exists", {"mu": [1], "lam": [1]}, False, "PoleError: no limit"),
        ]
        with pytest.raises(PoleError):
            check_identity("w-bar-limit-exists", mu=P((0,)), lam=P((1,)))

    monkeypatch.setattr(verify, "s2", lambda nu, mu: ZERO)
    (r,) = run_suite(SuiteConfig(n_max=1, part_max=0, identities=["stirling-diagonal"]))
    assert not r.passed and r.witness == "s1: 1, s2: 0"

    # an enumerator that raises still ends its identity with one report
    def broken_enumerator(*args):
        raise ValueError("no box")

    monkeypatch.setattr(verify, "partitions_in_box", broken_enumerator)
    (r,) = run_suite(SuiteConfig(n_max=1, part_max=1, identities=["w-bar-limit-exists"]))
    assert r.identity_id == "w-bar-limit-exists" and not r.passed
    assert r.index_data == {}
    assert r.witness == "ValueError: no box"


def test_suite_takes_no_polynomial_gcd_or_full_reduction(monkeypatch):
    # every value a row builds keeps its factor maps, so products, sums and
    # substitutions reduce by trial division; only values built from a user's
    # pair reach the fallback (test_multi_term_products_reach_polynomial_gcd)
    calls = []
    gcd, reduce = Polynomial.gcd, algebra._reduce

    def counted_gcd(f, g):
        calls.append("gcd")
        return gcd(f, g)

    def counted_reduce(num, num_map, den, den_map):
        if num_map is None and den_map is None:  # the full reduction, by the gcd fallback
            calls.append("_reduce")
        return reduce(num, num_map, den, den_map)

    monkeypatch.setattr(Polynomial, "gcd", counted_gcd)
    monkeypatch.setattr(algebra, "_reduce", counted_reduce)
    clear_cache()
    reports = run_suite(SuiteConfig(n_max=3, part_max=1))
    assert {r.identity_id for r in reports} == set(MANIFEST)
    assert all(r.passed for r in reports)
    assert calls == []


def test_rows_eval_ids_and_tables_never_take_a_polynomial_gcd(monkeypatch):
    # the gcd fallback of algebra._cancel serves only pairs built outside the operators
    def refused(f, g):
        raise AssertionError("Polynomial.gcd called")

    ids = ["qt_number(2,1)", "binomial(2,1;1,0)", "bracket(2,1;1,0)", "bracket_rect(2,1)",
           "gaussian(4;2)", "s1(2,1;1,0)", "s2(2,1;1,0)", "u(2,1;1,0)", "v(2,1;1,0)", "f(2,1)",
           "h(2,1;1,0)", "w(1,0;2,1)", "w_hat(1,0;2,1)", "w_staircase(2,1)"]
    assert {expr.partition("(")[0] for expr in ids} == set(_EVAL_EXPRS)
    clear_cache()  # a memoised value would skip the arithmetic that builds it
    monkeypatch.setattr(Polynomial, "gcd", refused)
    reports = run_suite(SuiteConfig(3, 2))
    assert len(reports) == 996
    assert all(r.passed for r in reports), [r.witness for r in reports if not r.passed]
    for expr in ids:
        eval_point(expr, Fraction(1, 2), Fraction(1, 3), Fraction(1, 5))
    for kind in verify._TABLE_KINDS:
        emit_table(kind, P((2, 1)))


def test_sampled_arguments_reach_ten_variables():
    # w-rect and w-duality draw n distinct exponents per box, so the population
    # must hold at least n of them
    reports = run_suite(SuiteConfig(n_max=10, part_max=0, identities=["w-rect", "w-duality"]))
    assert len(reports) == 40
    assert all(r.passed for r in reports), [r.witness for r in reports if not r.passed]


def test_x0_sums_records_both_readings():
    rep = check_identity("x0-sums", nu=P((2, 1)))
    assert rep.passed
    assert rep.index_data["s1_exponent_minus"] is True
    assert rep.index_data["s1_exponent_plus"] is False
    assert rep.index_data["s2"] is True
    trivial = check_identity("x0-sums", nu=P((0, 0)))
    assert trivial.passed
    assert trivial.index_data["s1_exponent_plus"] is True  # degenerate at the empty index


# -- the expansion table against the hand-written sums -----------------------

#: every nu of the boxes (n <= 2, parts <= 2) and (n = 3, parts <= 1)
_EXPANSION_NUS = [nu for n, cap in ((1, 2), (2, 2), (3, 1)) for nu in partitions_in_box(n, cap)]


def _inv_qt_powers(mu):
    """prod_i (1 - q t^{n-i})^{-mu_i}: the limit bracket and bracket_rect at X = 0."""
    n = mu.n
    out = ONE
    for i in range(1, n + 1):
        out = out / (ONE - monomial_rf(e_q=1, e_t=n - i)) ** mu[i - 1]
    return out


def _s1_coefficient(nu, mu, sign=-1):
    n = nu.n
    return monomial_rf(e_q=-n_stat_conj(nu), e_t=2 * n_stat(mu) + sign * (n - 1) * weight(mu)) * s1(nu, mu)


def _s2_coefficient(nu, mu):
    n = nu.n
    return monomial_rf(e_q=n_stat_conj(mu), e_t=-2 * n_stat(nu) + (n - 1) * weight(nu)) * s2(nu, mu)


def _expansion_s1_sum(nu, restrict=lambda mu: True):
    total = ZERO
    for mu in subpartitions(nu):
        if restrict(mu):
            total = total + _s1_coefficient(nu, mu) * verify._limit_bracket(mu)
    return total


def _expansion_s2_sum(nu, restrict=lambda mu: True):
    total = ZERO
    for mu in subpartitions(nu):
        if restrict(mu):
            total = total + _s2_coefficient(nu, mu) * bracket_rect(mu)
    return total


def _table_sum_at(nu, kind, x, keep=lambda mu: True, factor=lambda mu: ONE):
    return sum((factor(mu) * term for mu, term in verify._terms_at(nu, kind, x) if keep(mu)), ZERO)


@pytest.mark.parametrize("nu", _EXPANSION_NUS, ids=str)
def test_x0_sums_match_direct_sums(nu):
    n = nu.n
    for sign, factor in ((-1, lambda mu: ONE), (+1, lambda mu: t_pow(2 * (n - 1) * weight(mu)))):
        direct = sum((_s1_coefficient(nu, mu, sign) * _inv_qt_powers(mu) for mu in subpartitions(nu)),
                     ZERO)
        assert direct == _table_sum_at(nu, "s1", ZERO, factor=factor)
    direct = sum((_s2_coefficient(nu, mu) * _inv_qt_powers(mu) for mu in subpartitions(nu)), ZERO)
    assert direct == _table_sum_at(nu, "s2", ZERO)


@pytest.mark.parametrize("nu", _EXPANSION_NUS, ids=str)
def test_root_sums_match_sums_substituted_after(nu):
    n = nu.n
    assert _expansion_s1_sum(nu) == verify._expansion(nu, "s1")
    assert _expansion_s2_sum(nu) == verify._expansion(nu, "s2")
    for j in range(1, n + 1):
        root = t_pow(1 - j)
        keep1 = lambda mu: mu[n - j] == 0
        keep2 = lambda mu: mu[j - 1] == 0 and mu != nu
        by_hand = subs_rational(_expansion_s1_sum(nu, keep1), X=root)
        assert by_hand == _table_sum_at(nu, "s1", root, keep1)
        by_hand = subs_rational(_expansion_s2_sum(nu, keep2), X=root)
        assert by_hand == _table_sum_at(nu, "s2", root, keep2)


def _basis(kind, mu):
    """The basis of kind at mu multiplied out: X^k times the product of its factor list."""
    k, factors = verify._EXPANSIONS[kind][1](mu)
    return x_pow(k) * binomial_product(factors)


@pytest.mark.parametrize("lam", _EXPANSION_NUS, ids=str)
def test_binomial_terms_match_explicit_coefficient(lam):
    coefficient, _ = verify._EXPANSIONS["binomial"]
    for mu in subpartitions(lam):
        wt = weight(mu)
        sign = -1 if wt % 2 else 1
        coeff = sign * monomial_rf(e_q=n_stat_conj(mu), e_t=-n_stat(mu)) * qt_binomial(lam, mu)
        assert coefficient(lam, mu) * _basis("binomial", mu) == coeff * x_pow(wt)


def test_expansion_bases_are_the_named_products():
    named = {"binomial": lambda mu: x_pow(weight(mu)), "u": lambda mu: x_pow(weight(mu)),
             "v": lambda mu: poch_partition_flipped(X, mu), "s1": verify._limit_bracket,
             "s2": bracket_rect}
    assert set(named) == set(verify._EXPANSIONS)
    for kind, basis in named.items():
        for mu in (mu for n in range(1, 4) for mu in partitions_in_box(n, 2)):
            assert _basis(kind, mu) == basis(mu)
    # an image of X with a coefficient other than 1 is no exponent shift
    with pytest.raises(ValueError):
        list(verify._terms_at(P((1,)), "s1", 2 * X))


@pytest.mark.parametrize("kind", list(verify._EXPANSIONS))
def test_terms_at_match_the_substituted_expanded_terms(kind, monkeypatch):
    # the reference route: multiply each term out, then substitute X; the roots
    # at n = 4 have t^-3
    coefficient, _ = verify._EXPANSIONS[kind]
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return subs_rational(*args, **kwargs)

    monkeypatch.setattr(verify, "subs_rational", counted)
    monkeypatch.setattr(algebra, "subs_rational", counted)
    nus = [*(nu for n in range(1, 4) for nu in partitions_in_box(n, 2)), *partitions_in_box(4, 1)]
    for nu in nus:
        roots = [monomial_rf(e_q=m, e_t=1 - j) for j in range(1, nu.n + 1) for m in range(nu[j - 1])]
        for x in (ZERO, *roots):
            want = {mu: subs_rational(coefficient(nu, mu) * _basis(kind, mu), X=x)
                    for mu in subpartitions(nu)}
            assert dict(verify._terms_at(nu, kind, x)) == want
    # the substitution acts on the factor lists: no value is substituted
    assert calls == []


def test_root_vanishing_examples():
    # X = q at nu=(2): the plain "sum of first-kind values" analogue
    assert check_identity("root-vanishing", nu=P((2,)), j=1, m=1).passed
    assert check_identity("root-vanishing", nu=P((1, 1)), j=2, m=0).passed
    assert check_identity("root-vanishing", nu=P((2, 1)), j=1, m=1).passed


def test_root_vanishing_preconditions():
    with pytest.raises(ValueError):
        check_identity("root-vanishing", nu=P((2, 1)), j=3, m=0)
    with pytest.raises(ValueError):
        check_identity("root-vanishing", nu=P((2, 1)), j=2, m=1)  # m must stay below nu_j


def test_report_json_shape(tmp_path):
    out = tmp_path / "report.json"
    assert cli.main(["check", "--n-max", "1", "--part-max", "1",
                     "--identity", "stirling-diagonal", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert isinstance(data, list) and data
    record = data[0]
    assert set(record) >= {"identity_id", "index_data", "passed", "elapsed"}
    assert "witness" not in record  # only present on failure


def test_emit_table_json_schema(tmp_path):
    out = tmp_path / "table.json"
    assert cli.main(["table", "--kind", "s1", "--bound", "1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"n", "bound", "entries"}
    assert doc["n"] == 1
    assert doc["bound"] == [1]
    entries = {(tuple(e["nu"]), tuple(e["mu"])): e["value"] for e in doc["entries"]}
    assert entries[((0,), (0,))] == "1"
    assert entries[((1,), (0,))] == "0"
    assert entries[((1,), (1,))] == "1"


def test_emit_table_zero_bound():
    doc = json.loads(emit_table("s2", P((0, 0)), "json"))
    assert doc["entries"] == [{"nu": [0, 0], "mu": [0, 0], "value": "1"}]


def test_emit_table_binomial_gaussian_row():
    doc = json.loads(emit_table("binomial", P((2,)), "json"))
    values = {(tuple(e["nu"]), tuple(e["mu"])): e["value"] for e in doc["entries"]}
    assert values[((2,), (1,))] == "q + 1"
    assert values[((2,), (2,))] == "1"


def test_emit_table_csv(tmp_path):
    out = tmp_path / "table.csv"
    assert cli.main(["table", "--kind", "bracket", "--bound", "1,1", "--format", "csv",
                     "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == '"nu","mu","value"'
    assert all(line.count('"') >= 6 for line in lines[1:])
    assert any('"1,1"' in line for line in lines[1:])


#: SHA-256 of table text that the arithmetic kernel must reproduce byte for byte.
_TABLE_DIGESTS = [
    ("s1", (2, 2, 1), "d92314b6070d0c756f59a83beda5ad3e2955ce471d8124d718d4b6a5029d4156"),
    ("s2", (3, 2), "ed55c52523735c75e5a333bd14381f6bb9f5e263e9a6a9e67940293bf2862f7a"),
    ("binomial", (2, 2, 1), "2c92956e72d92d8fecc3e9bb69887b3e97c496560b93ce2b9835a9d5ce1537d4"),
    ("bracket", (3, 2), "1bba7ef6dfff4f587a413394af1a7efc8ebe50de925d41751725c7037d57a6e2"),
]


@pytest.mark.parametrize("kind, bound, digest", _TABLE_DIGESTS)
def test_emit_table_bytes_are_pinned(kind, bound, digest):
    text = emit_table(kind, P(bound), "csv")
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_emit_table_rejects_unknown():
    with pytest.raises(ValueError):
        emit_table("nope", P((1,)), "json")
    with pytest.raises(ValueError):
        emit_table("s1", P((1,)), "xml")


def test_emit_table_caps_the_chains_it_would_sum():
    # the chains mu <= lam <= nu <= bound are the terms of the s1 and s2 entries, one
    # interval partitions_between(mu, nu) per entry
    counts = {(4, 4, 4): 4116, (3, 3, 3, 3): 4116, (5, 5, 5): 14112, (47,): 19600,
              (48,): 20825, (10, 10): 26026}
    assert {b: sum(verify._chains(P(b))) for b in counts} == counts
    for bound in ((2, 2, 1), (3, 2), (4,)):
        assert sum(verify._chains(P(bound))) == sum(
            len(list(partitions_between(mu, nu))) for nu, mu in verify._pairs(P(bound)))
    assert verify._TABLE_CHAINS_MAX == 20000


def test_a_refused_table_enumerates_nothing_through_the_lattice_memo():
    # the cap counts lazily, so a part of 3e9 is refused at once and caches no box
    size = partitions._box.cache_info().currsize
    for bound in ((3000000000,), (48,), (10, 10)):
        with pytest.raises(ValueError, match="chains"):
            emit_table("s1", P(bound))
    assert partitions._box.cache_info().currsize == size


def test_eval_point_examples():
    assert eval_point("qt_number(2,1)", Fraction(1, 2), Fraction(1, 3)) == Fraction(11, 10)
    assert eval_point("s1(2,1;2,1)", Fraction(2, 7), Fraction(3, 5)) == 1
    assert eval_point("gaussian(2;1)", 2, 0) == 3
    # bracket_rect takes one partition: (1-X)(1-Xt)/((1-q)(1-qt)) = 224/125 here
    assert eval_point("bracket_rect(1,1)", Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)) != 0


def test_eval_point_errors():
    with pytest.raises(ValueError):
        eval_point("mystery(1)", 1, 1)
    with pytest.raises(ValueError):
        eval_point("no parens", 1, 1)
    with pytest.raises(ValueError):  # whitespace does not join two integers
        eval_point("qt_number(1 2)", 1, 1)


def _run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "qtstirling.cli", *args],
        capture_output=True, text=True,
    )


def test_cli_check_pass_and_filter():
    proc = _run_cli("check", "--n-max", "1", "--part-max", "2",
                    "--identity", "stirling-diagonal", "--identity", "gaussian-reduction")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "stirling-diagonal" in proc.stdout
    assert "0 failures" in proc.stdout


def test_cli_table_and_eval(tmp_path):
    out = tmp_path / "t.json"
    proc = _run_cli("table", "--kind", "binomial", "--bound", "2", "--out", str(out))
    assert proc.returncode == 0
    assert json.loads(out.read_text())["bound"] == [2]

    proc = _run_cli("eval", "--expr", "qt_number(2,1)", "--q", "1/2", "--t", "1/3")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "11/10"


def test_cli_eval_pole_exit_code():
    proc = _run_cli("eval", "--expr", "qt_number(2,1)", "--q", "1", "--t", "1")
    assert proc.returncode == 2


def test_cli_eval_prints_every_digit_past_the_str_limit():
    # 6021 digits on each side of the slash, past CPython's default limit of
    # 4300 digits on str(int)
    proc = _run_cli("eval", "--expr", "qt_number(20000)", "--q", "1/2", "--t", "1/3")
    assert proc.returncode == 0, proc.stderr
    value = eval_point("qt_number(20000)", Fraction(1, 2), Fraction(1, 3))
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        want = f"{value.numerator}/{value.denominator}"
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    assert len(want) == 12043
    assert proc.stdout == want + "\n"


@pytest.mark.parametrize("args", [
    ("check", "--identity", "bogus"),
    ("check", "--n-max", "0"),
    ("check", "--part-max", "-1"),
    ("eval", "--expr", "s1(2,1)", "--q", "1/2", "--t", "1/3"),
    ("eval", "--expr", "gaussian(2,1)", "--q", "2", "--t", "0"),
    ("eval", "--expr", "gaussian(2;;1)", "--q", "2", "--t", "0"),
    ("eval", "--expr", "qt_number(2,1)", "--q", "1/0", "--t", "2"),
    ("eval", "--expr", "qt_number(3000000000)", "--q", "1/2", "--t", "1/3"),
    # decimal exponents past the id bound: Fraction would build 3000001 digits
    ("eval", "--expr", "qt_number(2)", "--q", "1e3000000", "--t", "1/3"),
    ("eval", "--expr", "qt_number(2)", "--q", "1/2", "--t", "1e-3000000"),
    # integers past the id bound, each of which ran without end before it
    ("eval", "--expr", "f(3000000000)", "--q", "1/2", "--t", "1/3"),
    ("eval", "--expr", "bracket_rect(3000000000)", "--q", "1/2", "--t", "1/3"),
    ("eval", "--expr", "qt_number(2147483647)", "--q", "1/2", "--t", "1/3"),
    ("check", "--n-max", "1", "--part-max", "1", "--identity", "stirling-zero",
     "--out", "/nonexistent/dir/r.json"),
    ("table", "--kind", "s1", "--bound", "1", "--out", "/nonexistent/dir/x.json"),
    # ambient length 2000: deeper than Python's default recursion limit
    ("eval", "--expr", "w({0};{0})".format(",".join(["0"] * 2000)), "--q", "1/2", "--t", "1/3"),
    ("table", "--kind", "s1", "--bound", ",".join(["0"] * 2000)),
    # a part past the id bound, which ran without end before it
    ("table", "--kind", "s1", "--bound", "3000000000"),
    # a part at the id bound: about 1.7e14 chains, past the cap on a table's chains
    ("table", "--kind", "s1", "--bound", "100000"),
    # the last one-part bound that a cap of 100000 (nu, mu) pairs admitted was 445, and it
    # would have run for weeks; 446 holds 14985824 chains
    ("table", "--kind", "s1", "--bound", "446"),
    # (q)_m has a pole at every m < 0, where gaussian once gave 0
    ("eval", "--expr", "gaussian(-1;0)", "--q", "2", "--t", "3"),
    # the first one-part bound past the cap: 20825 chains, where 47 holds 19600
    ("table", "--kind", "s1", "--bound", "48"),
])
def test_cli_bad_input_exit_code(args):
    proc = _run_cli(*args)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1


def test_eval_id_integers_are_bounded():
    bound = verify._ID_INT_MAX
    assert parse_expression(f"binomial({bound};0)") == ONE
    size = parse_expression.cache_info().currsize
    for expr in (f"binomial({bound + 1};0)", f"qt_number(1,{-bound - 1})", f"s1({bound + 1};0)"):
        with pytest.raises(ValueError, match="exceeds"):
            parse_expression(expr)
    assert parse_expression.cache_info().currsize == size


def test_point_exponents_are_bounded():
    bound = verify._ID_INT_MAX
    for text, want in (("1/2", Fraction(1, 2)), ("0.5", Fraction(1, 2)), ("-3", Fraction(-3)),
                       ("1e3", Fraction(1000)), (f"1E-{bound}", Fraction(1, 10**bound))):
        assert cli._parse_fraction(text) == want
    for text in (f"1e{bound + 1}", f"-2E-{bound + 1}", "1e3_000_000", "1e" + "9" * 5000):
        with pytest.raises(argparse.ArgumentTypeError, match="exponent exceeds"):
            cli._parse_fraction(text)


def test_eval_reads_back_a_value_past_the_int_digit_limit():
    # eval prints every digit of n/d; Fraction(text) stops at 4300 digits
    n = 7**6000
    proc = _run_cli("eval", "--expr", "qt_number(2)", "--q", f"{algebra._int_str(n)}/3", "--t", "1/3")
    assert proc.returncode == 0, proc.stderr[:500]
    assert proc.stdout == algebra._int_str(n + 3) + "/3\n"  # 1 + q
    assert cli._parse_fraction(f" -{algebra._int_str(n)}/6 ") == Fraction(-n, 6)


#: Each command at a depth past a recursion limit of 150: an ambient length of 200.
_DEEP = ",".join(["0"] * 200)


@pytest.mark.parametrize("args", [
    ["check", "--n-max", "200", "--part-max", "0", "--identity", "inclusion-order"],
    ["table", "--kind", "s1", "--bound", _DEEP],
    ["eval", "--expr", f"w({_DEEP};{_DEEP})", "--q", "1/2", "--t", "1/3"],
])
def test_too_deep_is_bad_input_in_every_command(tmp_path, args):
    # a box too deep for the interpreter is bad input, not a failing identity
    out = tmp_path / "deep.out"
    if args[0] != "eval":
        args = [*args, "--out", str(out)]
    code = ("import sys\n"
            "from qtstirling import cli\n"
            "sys.setrecursionlimit(150)\n"
            f"sys.exit(cli.main({args!r}))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: ")
    assert not out.exists()


def test_table_out_is_left_alone_by_a_failed_table(tmp_path):
    # an ambient length of 2000 is deeper than Python's recursion limit,
    # 3000000000 is past the id bound, and 100000 holds more chains than a table may
    deep = ",".join(["0"] * 2000)
    missing, kept = tmp_path / "new.json", tmp_path / "kept.json"
    kept.write_text("earlier table\n")
    for bound, out in product((deep, "3000000000", "100000"), (missing, kept)):
        proc = _run_cli("table", "--kind", "s1", "--bound", bound, "--out", str(out))
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: ")
    assert not missing.exists()
    assert kept.read_text() == "earlier table\n"
    proc = _run_cli("table", "--kind", "s1", "--bound", "1", "--out", str(kept))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(kept.read_text())["bound"] == [1]


def test_eval_arity_mismatch_is_value_error():
    with pytest.raises(ValueError):
        eval_point("s1(2,1)", 1, 1)
    with pytest.raises(ValueError):
        eval_point("qt_number(1;1)", 1, 1)
    with pytest.raises(ValueError):
        eval_point("gaussian(2,1)", 2, 0)
    with pytest.raises(ValueError):
        eval_point("gaussian(2;1,0)", 2, 0)
    with pytest.raises(ValueError):
        eval_point("gaussian(2;;1)", 2, 0)
    with pytest.raises(ValueError):
        eval_point("s1(;2,1;1,0;)", 2, 3)


# -- the eval memo ------------------------------------------------------------

#: One small instance of every eval id.
_SMALL_IDS = (
    "qt_number(2,1)", "binomial(2,1;1,0)", "bracket(2,1;1,0)", "bracket_rect(1,1)",
    "gaussian(2;1)", "s1(2,1;1,0)", "s2(2,1;1,0)", "u(2,1;1,0)", "v(2,1;1,0)",
    "f(2,1)", "h(2,1;1,0)", "w(1,0;2,1)", "w_hat(1,0;2,1)", "w_staircase(2,1)",
)


def test_small_ids_cover_every_eval_id():
    assert sorted(expr.partition("(")[0] for expr in _SMALL_IDS) == sorted(_EVAL_EXPRS)


@pytest.mark.parametrize("expr", _SMALL_IDS)
def test_eval_memo_is_transparent(expr):
    points = [(Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)), (Fraction(-2, 3), Fraction(3), 0)]
    eval_point(expr, 7, 11)
    warm = [eval_point(expr, *pt) for pt in points]
    clear_cache()
    assert [eval_point(expr, *pt) for pt in points] == warm


def test_eval_memo_respelled_ids_give_equal_values():
    # qt_number has no memo of its own, so a respelling builds a new, equal value
    assert parse_expression(" qt_number( 2, 1 ) ") == parse_expression("qt_number(2,1)")
    # s1 keeps its own memo, so a respelling returns the very same value
    assert parse_expression(" s1( 2,1 ; 1,0 ) ") is parse_expression("s1(2,1;1,0)")


def test_eval_memo_is_keyed_by_the_id_string():
    eval_point("s2(2,1;2,0)", 2, 3)
    strings = parse_expression.cache_info()
    eval_point("s2(2,1;2,0)", 5, 7)
    assert parse_expression.cache_info().hits == strings.hits + 1
    eval_point(" s2(2,1;2, 0)", 5, 7)  # a respelling: a new string, a new entry
    assert parse_expression.cache_info().currsize == strings.currsize + 1


def test_eval_memo_stores_no_error():
    parse_expression("s1(2,1;1,0)")
    strings = parse_expression.cache_info().currsize
    for _ in range(3):
        with pytest.raises(ValueError):  # (1) over (2) is not a horizontal strip
            parse_expression("h(1;2)")
        assert parse_expression.cache_info().currsize == strings


# -- an unwritable --out fails before any work --------------------------------

@pytest.fixture
def no_work(monkeypatch):
    """Stub one identity and one table kind with builders that fail if called."""

    def never(*args):
        pytest.fail("computed before the output path was opened")

    monkeypatch.setitem(verify._TABLE, "stirling-zero", verify._Row(never, never))
    monkeypatch.setitem(verify._EVAL_EXPRS, "s1", (2, never))


@pytest.mark.parametrize("args", [
    ("check", "--identity", "stirling-zero", "--out", "/nonexistent/dir/r.json"),
    ("table", "--kind", "s1", "--bound", "1", "--out", "/nonexistent/dir/t.json"),
])
def test_unwritable_out_fails_before_any_work(no_work, capsys, args):
    assert cli.main(list(args)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    assert captured.err.startswith("error: ")


# -- failure witnesses of the rows that decide and explain in one check -------

#: (identity, builder replaced in verify, replacement of the real builder,
#: indices, witness): each replacement makes the row fail at those indices.
_WITNESS_CASES = [
    ("gaussian-reduction", "gaussian_binomial", lambda real: lambda m, k: real(m, k) + ONE,
     {"m": 2, "k": 1}, "q + 1"),
    ("qt-number-reduction", "qt_number", lambda real: lambda z: ZERO,
     {"z": (3,), "n": 1}, "q^2 + q + 1"),
    ("qt-number-reduction", "qt_number", lambda real: lambda z: ZERO,
     {"z": (2, 1)}, "(q^2*t - 1)/(q*t - 1)"),
    # the bracket agrees and the binomial does not: the witness is the bracket's difference
    ("qt-number-reduction", "qt_binomial", lambda real: lambda z, mu: ZERO,
     {"z": (2, 1)}, "0"),
    ("h-g-flip", "h_product", lambda real: lambda mu: real(mu) + ONE,
     {"mu": P((2, 1))}, "h ok: False, g ok: True"),
    ("h-g-flip", "g_product", lambda real: lambda mu: real(mu) + ONE,
     {"mu": P((2, 1))}, "h ok: True, g ok: False"),
    ("stirling-diagonal", "s2", lambda real: lambda nu, mu: ZERO,
     {"lam": P((1, 0))}, "s1: 1, s2: 0"),
    ("classical-stirling", "classical_stirling2", lambda real: lambda m, k: real(m, k) + 1,
     {"m": 3, "k": 2}, "got (-3, 3), want (-3, 4)"),
    ("inclusion-order", "contains", lambda real: lambda a, b: True,
     {"n": 1, "part_max": 1}, "partial-order axiom violated"),
    ("w-symmetry", "w_multi", lambda real: lambda mu, args: args[0],
     {"mu": P((1, 0)), "args": (x_pow(1), x_pow(2))}, "permuted value differs"),
    ("stirling-zero", "s1", lambda real: lambda nu, mu: ONE,
     {"lam": P((1,))}, "nonzero value at the empty partition"),
    ("stirling-inversion", "_product_entry", lambda real: lambda a, b, lam, mu: ZERO,
     {"bound": P((1,))}, "a product of s1 and s2 differs from delta"),
    ("valgebra-identity", "_product_entry", lambda real: lambda a, b, lam, mu: ZERO,
     {"bound": P((1,))}, "delta is not neutral for s1"),
]


@pytest.mark.parametrize("identity_id, builder, replace, indices, witness", _WITNESS_CASES,
                         ids=[f"{case[0]}-{case[1]}-{i}" for i, case in enumerate(_WITNESS_CASES)])
def test_failure_witness_is_pinned(monkeypatch, identity_id, builder, replace, indices, witness):
    monkeypatch.setattr(verify, builder, replace(getattr(verify, builder)))
    report = check_identity(identity_id, **indices)
    assert not report.passed
    assert report.witness == witness
