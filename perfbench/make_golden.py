"""Write the golden copies that check.py compares against.

Run from the root of the repository, only when an output is meant to change:

    python3 perfbench/make_golden.py

It writes the suite report at the default seed, and the canonical string
(or the exception name) of every eval expression.
"""

from __future__ import annotations

import json
import os

import worker
import workloads
from check import DEFAULT_SEED, GOLDEN


def _dump(name: str, doc) -> None:
    """JSON with one report or one expression per line."""
    if isinstance(doc, dict):
        rows, brackets = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in doc.items()], "{}"
    else:
        rows, brackets = [json.dumps(r) for r in doc], "[]"
    with open(os.path.join(GOLDEN, name), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(brackets[0] + "\n" + ",\n".join(rows) + "\n" + brackets[1] + "\n")


def main() -> None:
    from qtstirling.algebra import canonical_str
    from qtstirling.verify import parse_expression

    os.makedirs(GOLDEN, exist_ok=True)
    _, _, outputs, _, _ = worker.suite_job(workloads.suite_inputs(DEFAULT_SEED))
    _dump("suite.json", outputs)

    exprs = {}
    for expr in workloads.eval_universe():
        try:
            exprs[expr] = canonical_str(parse_expression(expr))
        except Exception as exc:  # recorded: the benchmark must see the same failure
            exprs[expr] = {"error": type(exc).__name__}
    _dump("eval.json", exprs)


if __name__ == "__main__":
    main()
