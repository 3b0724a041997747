"""One repetition of one workload, in a fresh interpreter.

Reads a job {"workload", "inputs", "trace"} as JSON on stdin, runs it against
the qtstirling sources of this checkout and prints one JSON result line:
the wall time of the workload's fixed work, the time of each item, peak
resident memory, the outputs to check and, when traced, per-layer metrics.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def suite_job(inputs: dict):
    from qtstirling.verify import SuiteConfig, run_suite

    cfg = SuiteConfig(n_max=inputs["n_max"], part_max=inputs["part_max"],
                      identities=inputs["ids"], seed=inputs["seed"])
    start = time.perf_counter()
    reports = run_suite(cfg)
    wall = time.perf_counter() - start
    items, outputs, per_identity = [], [], {}
    for r in reports:
        out = r.to_json_dict()
        del out["elapsed"]
        outputs.append(out)
        items.append(r.elapsed)
        per_identity[r.identity_id] = per_identity.get(r.identity_id, 0.0) + r.elapsed
    failed = sum(not r.passed for r in reports)
    return wall, items, outputs, failed, per_identity


def eval_job(inputs: dict):
    from qtstirling.verify import eval_point

    items, values, failed = [], [], 0
    start = time.perf_counter()
    for expr, point in inputs["requests"]:
        q, t, x = (Fraction(v) for v in point)
        began = time.perf_counter()
        try:
            value = eval_point(expr, q, t, x)
        except Exception as exc:  # a failed request is data, not a crash
            value, failed = {"error": type(exc).__name__}, failed + 1
        else:
            items.append(time.perf_counter() - began)
        values.append(value)
    wall = time.perf_counter() - start
    outputs = [v if isinstance(v, dict) else str(v) for v in values]
    return wall, items, outputs, failed, {}


JOBS = {"suite": suite_job, "eval": eval_job}


def main() -> int:
    job = json.loads(sys.stdin.read())
    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    wall, items, outputs, failed, per_identity = JOBS[job["workload"]](job["inputs"])
    import sympy
    from sympy.external.gmpy import GROUND_TYPES

    result = {
        "wall_s": wall,
        "items_s": items,
        "attempted": len(outputs),
        "failed": failed,
        "outputs": outputs,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "versions": {"python": sys.version.split()[0], "sympy": sympy.__version__,
                     "ground_types": GROUND_TYPES},
    }
    if tracer is not None:
        from workloads import SUITE_IDS

        result["layers"] = tracer.metrics(per_identity, SUITE_IDS)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
