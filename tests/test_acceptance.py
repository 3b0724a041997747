"""Acceptance criteria: every claimed identity holds by exact symbolic equality.

The suite runs at the defaults: for every ambient length n <= 3, the
partitions with parts up to 3, for every identity alike.  One line per
criterion is printed; the tolerance everywhere is exact equality of
canonical rational functions.
"""

import pytest

from qtstirling.algebra import canonical_str, limit_q_to_1, substitute_t_eq_q_pow
from qtstirling.partitions import Partition
from qtstirling.stirling import s1, s2
from qtstirling.verify import (
    SuiteConfig,
    classical_stirling1,
    classical_stirling2,
    run_suite,
)

P = Partition


@pytest.fixture(scope="module")
def suite_reports():
    reports = run_suite(SuiteConfig(n_max=3, part_max=3, seed=0))
    by_id = {}
    for rep in reports:
        by_id.setdefault(rep.identity_id, []).append(rep)
    return by_id


def _criterion(by_id, number, title, identity_ids):
    reports = [r for i in identity_ids for r in by_id.get(i, [])]
    assert reports, f"no checks ran for {identity_ids}"
    failures = [r for r in reports if not r.passed]
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {number} [{title}]: {status} ({len(reports)} checks)")
    for rep in failures[:5]:
        print(f"    {rep.identity_id} {rep.index_data}: {rep.witness}")
    assert not failures


def test_criterion_1_diagonal_and_zero(suite_reports):
    _criterion(suite_reports, 1, "diagonal and zero values",
               ["stirling-diagonal", "stirling-zero"])


def test_criterion_2_inversion(suite_reports):
    _criterion(suite_reports, 2, "inversion, both orders, plus u-v inversion",
               ["stirling-inversion", "uv-inversion"])


def test_criterion_3_defining_expansions(suite_reports):
    _criterion(suite_reports, 3, "defining expansions in X",
               ["defining-expansion-s1", "defining-expansion-s2"])


def test_criterion_4_section_four_identities(suite_reports):
    _criterion(suite_reports, 4, "x=0 sums, root vanishing, adjacent weight",
               ["x0-sums", "root-vanishing", "adjacent-weight"])
    # the plain first-kind sum analogue (X = q) must be among the roots checked
    roots = suite_reports["root-vanishing"]
    assert any(r.index_data.get("j") == 1 and r.index_data.get("m") == 1 for r in roots)


def test_criterion_5_w_function_suite(suite_reports):
    _criterion(suite_reports, 5, "w rectangular/staircase/vanish/symmetry/duality/flip",
               ["w-rect", "w-staircase", "w-vanishing", "w-symmetry",
                "w-duality", "flip-formula"])
    ks = {r.index_data.get("k") for r in suite_reports["w-rect"]}
    ns = {r.index_data.get("n") for r in suite_reports["w-rect"]}
    assert {0, 1, 2, 3} <= ks and {1, 2, 3} <= ns


def test_criterion_6_binomial_theorem(suite_reports):
    _criterion(suite_reports, 6, "terminating binomial theorem in X",
               ["binomial-theorem"])
    lams = {tuple(r.index_data["lam"]) for r in suite_reports["binomial-theorem"]}
    assert (3, 3) in lams and (2, 2, 2) in lams and (3, 3, 3) in lams


def test_criterion_7_classical_reduction(suite_reports):
    _criterion(suite_reports, 7, "Gaussian and classical Stirling reduction",
               ["gaussian-reduction", "classical-stirling"])
    for m in range(0, 6):
        for k in range(0, m + 1):
            v1 = limit_q_to_1(substitute_t_eq_q_pow(s1(P((m,)), P((k,))), 1))
            v2 = limit_q_to_1(substitute_t_eq_q_pow(s2(P((m,)), P((k,))), 1))
            assert v1 == classical_stirling1(m, k), (m, k, canonical_str(v1))
            assert v2 == classical_stirling2(m, k), (m, k, canonical_str(v2))
    # the x^2 coefficient of x(x-1)(x-2)(x-3)
    assert limit_q_to_1(substitute_t_eq_q_pow(s1(P((4,)), P((2,))), 1)) == 11


def test_criterion_8_limit_existence(suite_reports):
    _criterion(suite_reports, 8, "q->1 limits exist across the whole range",
               ["w-bar-limit-exists", "u-limit-closed-form", "v-limit-closed-form"])
