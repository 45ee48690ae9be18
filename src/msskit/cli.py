"""Command-line interface.

One executable, ``msskit``, with verbs::

    enumerate --period P [--method structured|bruteforce] [--format text|json|csv]
    check SEQ [--format json|text]
    compose A B [--format json|text] [--expand true|false]
    factor P [--tree] [--format json|text] [--expand true|false]
    count --period P [--kind single|repeated] [--verify]
    count --kind sblocks --m M --qcap Q [--verify]
    locate SEQ [--tol T]
    verify-order --pmax N [--format text|json]
    selftest [--pmax N] [--suite NAME ...]

Exit codes: 0 success (a negative check verdict is still a success),
1 domain error (bad sequence, non-MSS input where one is required, failed
verification), 2 usage error.  Output is deterministic: identical argv
yields byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import asdict

from mpmath import isfinite, mpf

from . import __version__
from .composition import _divisor_scan, compose, factor_once, factor_tree
from .counting import blocks_report, cores_report, single_group_report
from .errors import MssKitError
from .generators import enumerate_mss_bruteforce, enumerate_mss_structured
from .locator import _increasing, locate, order_report
from .selftest import SUITES, run_selftest
from .sequences import compress_exponents, parse_sequence
from .structure import block_decompose, is_mss_structured

__all__ = ["main"]


def _str2bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise argparse.ArgumentTypeError(f"expected true or false, got {text!r}")


def _tol(text: str):
    """``--tol`` as a float, which sizes locate's default dps as it always has,
    or as an mpf where a finite positive value underflows or overflows it."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if value and math.isfinite(value):
        return value
    exact = mpf(text)
    return exact if exact > 0 and isfinite(exact) else value


def _emit_json(payload) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")


def _renderer(expand: bool):
    """How a sequence is printed: its symbols, or in run notation."""
    return str if expand else lambda s: compress_exponents(s.symbols)


def _cmd_enumerate(args) -> int:
    if args.method == "structured":
        enum = enumerate_mss_structured(args.period)
    else:
        enum = enumerate_mss_bruteforce(args.period)
    render = _renderer(args.expand)
    if args.format == "text":
        for index, s in enumerate(enum):
            sys.stdout.write(f"{index}\t{render(s)}\n")
        return 0
    header = ["index", "sequence", "q", "block_form", "is_primary"]

    def rows():
        for index, s in enumerate(enum):
            form = block_decompose(s)
            block_form = f"q={form.q}:" + ";".join(f"{n},{b}" for n, b in form.runs)
            primary = next(_divisor_scan(s), None) is None  # the enumerator proved s
            yield [index, render(s), form.q, block_form, primary]

    if args.format == "json":
        sequences = [dict(zip(header, row)) for row in rows()]
        _emit_json({"period": args.period, "method": args.method,
                    "count": len(enum), "sequences": sequences})
    else:  # csv, written row by row as it is built
        writer = csv.writer(sys.stdout)
        writer.writerow(header)
        writer.writerows(row[:-1] + [str(row[-1]).lower()] for row in rows())
    return 0


def _cmd_check(args) -> int:
    seq = parse_sequence(args.sequence)
    verdict = is_mss_structured(seq)
    payload = {
        "sequence": seq.symbols,
        "is_mss": verdict.is_mss,
        "failing_shift": verdict.failing_shift,
        "failing_rule": verdict.failing_rule,
    }
    if args.format == "json":
        _emit_json(payload)
    else:
        state = "MSS" if verdict.is_mss else (
            f"not MSS (shift {verdict.failing_shift}, rule {verdict.failing_rule})"
        )
        sys.stdout.write(f"{seq.symbols}: {state}\n")
    return 0


def _cmd_compose(args) -> int:
    a = parse_sequence(args.first)
    b = parse_sequence(args.second)
    render = _renderer(args.expand)
    payload = {"sequence": render(compose(a, b)), "primary": False,
               "factors": [render(a), render(b)]}
    if args.format == "json":
        _emit_json(payload)
    else:
        sys.stdout.write(payload["sequence"] + "\n")
    return 0


def _cmd_factor(args) -> int:
    seq = parse_sequence(args.sequence)
    render = _renderer(args.expand)
    if args.tree:
        tree = factor_tree(seq)
        parts = None if tree.is_leaf else tree.leaves()
        payload = {"sequence": render(seq), "primary": parts is None,
                   "tree": tree.to_dict(render)}
    else:
        parts = factor_once(seq)
        payload = {"sequence": render(seq), "primary": parts is None,
                   "factors": None if parts is None else [render(x) for x in parts]}
    if args.format == "json":
        _emit_json(payload)
    elif parts is None:
        sys.stdout.write(f"{payload['sequence']}: primary\n")
    else:
        sys.stdout.write(f"{payload['sequence']} = {' * '.join(map(render, parts))}\n")
    return 0


def _cmd_count(args) -> int:
    if args.kind == "sblocks":
        if args.m is None or args.qcap is None:
            raise UsageError("--kind sblocks requires --m and --qcap")
        report = blocks_report(args.m, args.qcap, verify=args.verify)
    else:
        if args.period is None:
            raise UsageError(f"--kind {args.kind} requires --period")
        if args.kind == "single":
            report = single_group_report(args.period, verify=args.verify)
        else:
            report = cores_report(args.period, verify=args.verify)
    _emit_json({**asdict(report), "match": report.matches})
    return 0 if report.matches else 1


def _cmd_locate(args) -> int:
    found = locate(args.sequence, tol=args.tol)
    _emit_json(
        {
            "sequence": found.sequence,
            "r_star": float(found.r_star),
            "residual": found.residual,
            "iterations": found.iterations,
        }
    )
    return 0


def _cmd_verify_order(args) -> int:
    rows = order_report(args.pmax)
    ok = _increasing(rows)
    if args.format == "json":
        _emit_json(
            {
                "pmax": args.pmax,
                "count": len(rows),
                "ok": ok,
                "rows": [
                    {
                        "sequence": r.sequence,
                        "r_star": float(r.r_star),
                        "residual": r.residual,
                    }
                    for r in rows
                ],
            }
        )
    else:
        for i, r in enumerate(rows):
            sys.stdout.write(f"{i}\t{r.sequence}\t{float(r.r_star):.15f}\t{r.residual:.3e}\n")
        sys.stdout.write(f"order {'OK' if ok else 'VIOLATION'} over {len(rows)} sequences\n")
    return 0 if ok else 1


def _cmd_selftest(args) -> int:
    results = run_selftest(pmax=args.pmax, suites=args.suite or None)
    failed = 0
    for res in results:
        mark = "PASS" if res.ok else "FAIL"
        sys.stdout.write(f"[{mark}] {res.suite}: {res.name} ({res.detail})\n")
        if not res.ok:
            failed += 1
    sys.stdout.write(f"{len(results) - failed}/{len(results)} checks passed\n")
    return 0 if failed == 0 else 1


class UsageError(Exception):
    """Raised for option combinations argparse cannot express."""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="msskit",
        description="Symbolic dynamics of superstable orbits: enumeration, "
        "composition, counting and parameter location.",
    )
    parser.add_argument("--version", action="version", version=f"msskit {__version__}")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_enum = sub.add_parser("enumerate", help="list all MSS-sequences of a period")
    p_enum.add_argument("--period", type=int, required=True)
    p_enum.add_argument("--method", choices=["structured", "bruteforce"], default="structured")
    p_enum.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p_enum.add_argument("--expand", type=_str2bool, default=True)
    p_enum.set_defaults(func=_cmd_enumerate)

    p_check = sub.add_parser("check", help="structured shift-maximality verdict")
    p_check.add_argument("sequence")
    p_check.add_argument("--format", choices=["json", "text"], default="json")
    p_check.set_defaults(func=_cmd_check)

    p_compose = sub.add_parser("compose", help="compose two sequences")
    p_compose.add_argument("first")
    p_compose.add_argument("second")
    p_compose.add_argument("--format", choices=["json", "text"], default="json")
    p_compose.add_argument("--expand", type=_str2bool, default=True)
    p_compose.set_defaults(func=_cmd_compose)

    p_factor = sub.add_parser("factor", help="factor a sequence, optionally recursively")
    p_factor.add_argument("sequence")
    p_factor.add_argument("--tree", action="store_true")
    p_factor.add_argument("--format", choices=["json", "text"], default="json")
    p_factor.add_argument("--expand", type=_str2bool, default=True)
    p_factor.set_defaults(func=_cmd_factor)

    p_count = sub.add_parser("count", help="closed-form counts with optional cross-check")
    p_count.add_argument("--period", type=int)
    p_count.add_argument("--kind", choices=["single", "repeated", "sblocks"], default="single")
    p_count.add_argument("--m", type=int)
    p_count.add_argument("--qcap", type=int)
    p_count.add_argument("--verify", action="store_true")
    p_count.set_defaults(func=_cmd_count)

    p_locate = sub.add_parser("locate", help="superstable parameter of a sequence")
    p_locate.add_argument("sequence")
    p_locate.add_argument("--tol", type=_tol, default=1e-13)
    p_locate.set_defaults(func=_cmd_locate)

    p_order = sub.add_parser("verify-order", help="parameter order vs symbolic order")
    p_order.add_argument("--pmax", type=int, required=True)
    p_order.add_argument("--format", choices=["text", "json"], default="text")
    p_order.set_defaults(func=_cmd_verify_order)

    p_self = sub.add_parser("selftest", help="run built-in verification suites")
    p_self.add_argument("--pmax", type=int, default=14)
    p_self.add_argument("--suite", action="append", choices=list(SUITES))
    p_self.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as err:
        parser.error(str(err))  # exits 2
    except (MssKitError, ValueError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
