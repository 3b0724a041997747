"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import os
import re
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _benchmark_json() -> dict:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _small_inputs() -> dict:
    """Each workload cut down to seconds of work, in its own input format."""
    suite = dict(workloads.suite_inputs(5), n_max=2, part_max=1,
                 ids=["poch-recurrence", "w-duality", "stirling-inversion", "x0-sums"])
    evals = workloads.eval_inputs(5)
    evals = {"requests": [r for r in evals["requests"]
                          if r[0].startswith(("gaussian", "w(", "s2(1", "h("))][:120]}
    return {"suite": suite, "eval": evals}


def test_generator_is_deterministic():
    for workload in workloads.WORKLOADS:
        assert workloads.inputs(workload, 7) == workloads.inputs(workload, 7)
        assert workloads.inputs(workload, 7) != workloads.inputs(workload, 8)


def test_eval_inputs_are_valid_by_construction():
    requests = workloads.eval_inputs(3)["requests"]
    names = {expr.partition("(")[0] for expr, _ in requests}
    assert len(names) == 14
    universe = workloads.eval_universe()
    assert len(requests) == workloads.EVAL_REPEATS * len(universe)
    for expr in universe:
        m = re.fullmatch(r"h\(([\d,]+);([\d,]+)\)", expr)
        if m:
            lam, mu = (tuple(map(int, g.split(","))) for g in m.groups())
            assert workloads._horizontal_strip(lam, mu), expr
    points = {}
    for expr, point in requests:
        points.setdefault(expr, set()).add(tuple(point))
    assert all(len(p) == workloads.EVAL_REPEATS for p in points.values())
    assert "gaussian(2;1)" in universe


def test_eval_cold_order_does_not_depend_on_the_seed():
    def cold_order(seed):
        seen = {}
        for expr, point in workloads.eval_inputs(seed)["requests"]:
            seen.setdefault(expr, point)
        return list(seen)

    assert cold_order(1) == cold_order(2)
    assert sorted(cold_order(1)) == sorted(workloads.eval_universe())


def test_traced_and_untraced_outputs_agree():
    for workload, inputs in _small_inputs().items():
        plain = run.run_worker(workload, inputs, trace=False)
        traced = run.run_worker(workload, inputs, trace=True)
        assert plain["outputs"] == traced["outputs"], workload
        assert plain["failed"] == traced["failed"]
        assert set(traced["layers"]) == set(run.per_layer_names()) - {"trace.overhead_frac"}
        assert traced["layers"]["algebra.gcd.calls"] > 0


def test_metric_names_are_legal_and_listed():
    bench = _benchmark_json()
    e2e = [m["name"] for m in bench["end_to_end"]]
    layers = [m["name"] for m in bench["per_layer"]]
    assert e2e == list(run.END_TO_END)
    assert layers == run.per_layer_names()
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]), m
    for m in bench["end_to_end"]:
        assert m["unit"] == run.END_TO_END[m["name"]]
    for m in bench["per_layer"]:
        assert m["unit"] == run.tracer.unit_of(m["name"])
    assert len(set(e2e + layers)) == len(e2e) + len(layers)

    inputs = _small_inputs()["eval"]
    reps = []
    for traced in (False, True):
        rep = run.run_worker("eval", inputs, trace=traced)
        rep["traced"] = traced
        reps.append(rep)
    header = {"setup_s": 0.5}
    assert list(run.end_to_end(header, reps[:1])) == e2e
    assert list(run.per_layer(reps)) == layers


def test_check_catches_a_changed_output():
    inputs = _small_inputs()["eval"]
    rep = run.run_worker("eval", inputs, trace=False)
    assert check.check_eval(inputs["requests"], rep["outputs"]) == []
    assert rep["failed"] == sum(expr.startswith("gaussian") for expr, _ in inputs["requests"])
    i = next(i for i, out in enumerate(rep["outputs"]) if isinstance(out, str))
    wrong = list(rep["outputs"])
    wrong[i] = str(Fraction(wrong[i]) + 1)
    assert len(check.check_eval(inputs["requests"], wrong)) == 1


def test_golden_evaluator_matches_known_values():
    assert check.value_of("(q^2*t - 1)/(q - 1)", ["2", "3", "5"]) == Fraction(11)
    assert check.value_of("-3/2*q*X + t^2", ["1/2", "3", "5"]) == Fraction(9) - Fraction(15, 4)
    assert check._oracle("gaussian(2;1)", ["2", "3", "5"]) == Fraction(3)
