"""Command-line interface: identity checks, value tables, exact evaluation.

Usage:
    qtstirling check [--n-max K] [--part-max P] [--identity ID]... [--seed N] [--out FILE]
    qtstirling table --kind s1 --bound 2,1 [--format json|csv] --out FILE
    qtstirling eval --expr "s1(2,1;1,0)" --q 1/2 --t 1/3 [--x 2]

`check` exits 0 iff every identity passes and 1 otherwise.  This module is
the package's one boundary with the outside: it alone writes --out, and
`main` alone turns an exception into an exit code.  Bad input exits 2 with
one line, `pole: ...` for a PoleError and `error: ...` for a ValueError,
OSError, OverflowError or RecursionError, the same for every command.  An
--out path that cannot be written fails before any identity or table entry
is computed, and a command that fails leaves its --out path as it was.
Bad input includes an input too deep for Python's recursion limit, such as
an ambient length in the thousands, in all three commands (`check` reports
such a box as bad input, not as failing identities), `eval` on an id with an
integer past 100000 in absolute value (verify._ID_INT_MAX) or on a point
whose decimal exponent is past that bound (1e3000000 would have 3000001
digits), and `table` on a bound that holds more than 20000 chains
mu <= lam <= nu <= bound (verify._TABLE_CHAINS_MAX), as does every bound with
a part of 48 or more.  The chains are the terms that the s1 and s2 entries
sum, so the cap bounds a table's work, not only its size: (5,5,5) holds
14112 chains and took about 14 s, and (47,) 19600 chains and about 46 s
and 246 MiB (2-core x86 host).  The id bound does not make every id below
it fast: bracket_rect's degree grows with the square of its parts.

`eval` prints its value as n/d (or n), with every digit however long, and
reads such a value back as --q, --t or --x, past CPython's 4300-digit
limit on int(str).  It builds its one id once per process.  The one memo
of that value, verify.parse_expression's, keyed by the id string as given,
pays off only for library callers that request an id again, at other
points: a repeat costs one memo hit and one integer evaluation.

The QTSTIRLING_CACHE_SIZE environment variable caps
every memo in the package (each an LRU cache of that many entries, 200000 by
default); it is read once, at start-up.  0 turns caching off, and a value that
is not a nonnegative integer falls back to 200000.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from contextlib import contextmanager
from fractions import Fraction
from typing import Callable, Iterator, Optional

from .algebra import PoleError, _int_str, _parse_int
from .partitions import Partition
from .verify import (
    MANIFEST,
    SuiteConfig,
    _ID_INT_MAX,
    _TABLE_KINDS,
    emit_table,
    eval_point,
    run_suite,
)


def _parse_partition(text: str) -> Partition:
    try:
        return Partition(tuple(int(v) for v in text.split(",")))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad partition {text!r}: {exc}")


def _parse_fraction(text: str) -> Fraction:
    # Fraction("1e3000000") would build an integer of 3000001 digits
    digits = text.lower().partition("e")[2].strip().replace("_", "").lstrip("+-").lstrip("0")
    if digits.isdecimal() and (len(digits) > len(str(_ID_INT_MAX)) or int(digits) > _ID_INT_MAX):
        raise argparse.ArgumentTypeError(
            f"bad rational {text!r}: its exponent exceeds {_ID_INT_MAX} in absolute value")
    # n/d as eval prints it: Fraction(text) would stop at CPython's digit limit on int(str)
    ratio = re.fullmatch(r"\s*([+-]?)(\d+)(?:/(\d+))?\s*", text)
    try:
        if ratio:
            sign, num, den = ratio.groups()
            value = Fraction(_parse_int(num), _parse_int(den or "1"))
            return -value if sign == "-" else value
        return Fraction(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad rational {text!r}: {exc}")
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"bad rational {text!r}: zero denominator")


class _Parser(argparse.ArgumentParser):
    """An argument parser that reports a usage error on one line (exit 2)."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qtstirling",
        description="Exact verification of qt-Stirling and qt-binomial identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run the identity suite")
    p_check.add_argument("--n-max", type=int, default=3)
    p_check.add_argument("--part-max", type=int, default=3)
    p_check.add_argument("--identity", action="append", default=None, metavar="ID",
                         help=f"restrict to these ids (repeatable); known: {', '.join(MANIFEST)}")
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--out", default=None, help="write the JSON report here")

    p_table = sub.add_parser("table", help="emit a value table")
    p_table.add_argument("--kind", required=True, choices=_TABLE_KINDS)
    p_table.add_argument("--bound", required=True, type=_parse_partition, metavar="PARTS",
                         help="bounding partition, e.g. 2,1")
    p_table.add_argument("--format", default="json", choices=["json", "csv"])
    p_table.add_argument("--out", default=None)

    p_eval = sub.add_parser("eval", help="evaluate a quantity at an exact rational point")
    p_eval.add_argument("--expr", required=True,
                        help='e.g. "qt_number(2,1)", "s1(2,1;1,0)", "binomial(2;1)"')
    p_eval.add_argument("--q", required=True, type=_parse_fraction)
    p_eval.add_argument("--t", required=True, type=_parse_fraction)
    p_eval.add_argument("--x", type=_parse_fraction, default=Fraction(0))
    return parser


@contextmanager
def _output(path: Optional[str]) -> Iterator[Optional[Callable[[str], None]]]:
    """Yield a function that collects the text for path, or None without a path.

    path is opened for appending first, so an unwritable path raises
    OSError before the block runs.  The text is written when the block ends;
    a block that raises leaves path as it was, and removes it if the trial
    open created it.
    """
    if not path:
        yield None
        return
    existed = os.path.exists(path)
    with open(path, "a", encoding="utf-8"):
        pass
    text = []
    try:
        yield text.append
    except BaseException:
        if not existed:
            os.remove(path)
        raise
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(text))


def _cmd_check(args) -> int:
    cfg = SuiteConfig(n_max=args.n_max, part_max=args.part_max,
                      identities=args.identity, seed=args.seed)
    with _output(args.out) as write:
        reports = run_suite(cfg)
        if write is not None:
            write(json.dumps([r.to_json_dict() for r in reports], indent=2) + "\n")
    by_id: dict[str, list] = {}
    for rep in reports:
        by_id.setdefault(rep.identity_id, []).append(rep)
    failures = 0
    for identity_id, reps in by_id.items():
        bad = [r for r in reps if not r.passed]
        failures += len(bad)
        status = "ok" if not bad else f"FAIL ({len(bad)}/{len(reps)})"
        elapsed = sum(r.elapsed for r in reps)
        print(f"{identity_id:28s} {status:12s} {len(reps):4d} checks  {elapsed:7.2f}s")
        for r in bad[:5]:
            print(f"    {r.index_data} witness: {r.witness}")
    print(f"{len(reports)} checks, {failures} failures")
    return 0 if failures == 0 else 1


def _cmd_table(args) -> int:
    with _output(args.out) as write:
        (write or sys.stdout.write)(emit_table(args.kind, args.bound, args.format))
    return 0


def _cmd_eval(args) -> int:
    value = eval_point(args.expr, args.q, args.t, args.x)
    n, d = value.numerator, value.denominator
    text = ("-" if n < 0 else "") + _int_str(abs(n))
    print(text if d == 1 else f"{text}/{_int_str(d)}")
    return 0


_COMMANDS = {"check": _cmd_check, "table": _cmd_table, "eval": _cmd_eval}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except PoleError as exc:
        print(f"pole: {exc}", file=sys.stderr)
    except (ValueError, OSError, OverflowError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
