"""The qtstirling benchmark: two workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload suite|eval --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each repetition of a workload runs in a
fresh interpreter (perfbench/worker.py), one process and one thread at a
time, as a closed loop with one client: the next item starts when the last
has finished.  Repetitions continue while another one fits in S seconds;
there is always at least one.  Every repetition's outputs are checked
against the golden copies (check.py).

With --trace 0 the run prints the end-to-end metrics, medians over the
repetitions:

  setup_s       fresh interpreter to `import qtstirling` plus a first
                RationalFn product, median of SETUP_PROBES starts
  wall_s        time to finish the workload's fixed work
  item_p50_ms   median item time (a check in suite, a successful request
                in eval)
  item_tail_ms  the percentile of item time that leaves exactly 10 items of
                one repetition beyond it, over all repetitions' items; the
                header records the percentile and the item count
  peak_rss_mib  peak resident memory of the worker
  ok_frac       operations that succeeded, over operations attempted

With --trace 1 the repetitions alternate untraced and traced, and the run
prints the per-layer metrics of tracer.py (medians over traced
repetitions) and trace.overhead_frac, the traced wall_s over the untraced
one, minus 1.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 0 when every
output check passed, 1 when one failed, 2 when the checkout holds no
qtstirling sources.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import check
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 5
PROBE = ("import sys; sys.path.insert(0, 'src'); import qtstirling; "
         "qtstirling.Q * (qtstirling.ONE - qtstirling.T)")
WORKER_TIMEOUT_S = 150

END_TO_END = {"setup_s": "s", "wall_s": "s", "item_p50_ms": "ms", "item_tail_ms": "ms",
              "peak_rss_mib": "MiB", "ok_frac": "ratio"}


def per_layer_names() -> list[str]:
    return tracer.metric_names(workloads.SUITE_IDS)


class WorkerError(RuntimeError):
    """A worker process crashed or printed no result."""


#: A fixed hash seed, so that every process does the same work for the same input.
WORKER_ENV = {**os.environ, "PYTHONHASHSEED": "0"}


def _python(args: list[str], stdin: str = "") -> str:
    proc = subprocess.run([sys.executable, *args], input=stdin, capture_output=True,
                          text=True, cwd=ROOT, env=WORKER_ENV, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise WorkerError(f"{' '.join(args)[:80]} exited {proc.returncode}: "
                          f"{proc.stderr.strip()[-2000:]}")
    return proc.stdout


def measure_setup() -> float:
    """Median wall time of fresh interpreters importing the package, after a warm-up."""
    _python(["-c", PROBE])
    times = []
    for _ in range(SETUP_PROBES):
        began = time.perf_counter()
        _python(["-c", PROBE])
        times.append(time.perf_counter() - began)
    return statistics.median(times)


def run_worker(workload: str, inputs: dict, trace: bool) -> dict:
    job = {"workload": workload, "inputs": inputs, "trace": trace}
    out = _python([WORKER], json.dumps(job)).strip().splitlines()
    if not out:
        raise WorkerError("worker printed no result")
    return json.loads(out[-1])


def item_stats(reps: list) -> tuple[float, float, float]:
    """Median and tail item time in ms, and the tail percentile.

    The median is taken per repetition and then over repetitions, so that a
    slow spell of the machine during one repetition does not move it.  The
    tail needs more samples: it is taken over the items of all repetitions,
    pooled, at the percentile that leaves exactly 10 items of one repetition
    beyond it, which does not change with the number of repetitions in a run.
    """
    n = len(reps[0]["items_s"])
    if n == 0:  # every item failed; the output check reports it
        return 0.0, 0.0, 0.0
    frac = (n - 10) / n
    ordered = sorted(t for r in reps for t in r["items_s"])
    tail = ordered[max(0, round(frac * len(ordered)) - 1)]
    p50 = statistics.median(statistics.median(r["items_s"]) for r in reps)
    return p50 * 1e3, tail * 1e3, 100 * frac


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list, list]:
    """Repetitions of one workload; returns header, repetition records, errors."""
    inputs = workloads.inputs(workload, seed)
    setup_s = measure_setup()
    began = time.perf_counter()
    reps, errors, durations = [], [], []
    while not reps or time.perf_counter() - began + statistics.median(durations) <= seconds:
        step = time.perf_counter()
        for traced in ((False, True) if trace else (False,)):
            result = run_worker(workload, inputs, traced)
            result["traced"] = traced
            errors += check.check(workload, inputs, seed, result.pop("outputs"))
            reps.append(result)
        durations.append(time.perf_counter() - step)
    header = {"workload": workload, "seed": seed, "bounds": workloads.BOUNDS[workload],
              "seconds": seconds, "trace": int(trace),
              **reps[0]["versions"], "nproc": os.cpu_count(), "setup_s": setup_s,
              "repetitions": len(reps)}
    return header, reps, errors


def end_to_end(header: dict, reps: list) -> dict:
    p50, tail, header["tail_percentile"] = item_stats(reps)
    header["items_per_repetition"] = len(reps[0]["items_s"])
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    return {
        "setup_s": header["setup_s"],
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "item_p50_ms": p50,
        "item_tail_ms": tail,
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in reps),
        "ok_frac": (attempted - failed) / attempted,
    }


def per_layer(reps: list) -> dict:
    traced = [r for r in reps if r["traced"]]
    plain = [r for r in reps if not r["traced"]]
    out = {name: statistics.median(r["layers"][name] for r in traced)
           for name in per_layer_names() if name != "trace.overhead_frac"}
    out["trace.overhead_frac"] = (statistics.median(r["wall_s"] for r in traced)
                                  / statistics.median(r["wall_s"] for r in plain) - 1)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=check.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "qtstirling", "__init__.py")):
        print(f"no qtstirling sources under {ROOT}/src", file=sys.stderr)
        return 2

    header, reps, errors = run(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.trace:
        metrics = {k: (v, tracer.unit_of(k)) for k, v in per_layer(reps).items()}
        reps = [r for r in reps if r["traced"]]
    else:
        metrics = {k: (v, END_TO_END[k]) for k, v in end_to_end(header, reps).items()}
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)

    print("header " + json.dumps(header, sort_keys=True))
    for error in errors[:20]:
        print("MISMATCH " + error)
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:14.6g} {unit}")
    print(f"{'attempted':44s} {attempted:14d}\n{'failed':44s} {failed:14d}")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
