"""Command line interface.

Subcommands: sort, table, preimages, fertility, orbit, periodic, image,
verify, clump, inverse.  The parser holds every usage rule: --format is
text or json (table adds csv, verify prints text only), and only the sweep
commands fertility, periodic, image, table and verify take --parallel.
Exit codes: 0 success (verify: all checks pass), 1 failed verification,
2 unparseable word/pattern text or a usage error (--n below 0, --max-n or
--parallel below 1, an option the command does not take), 3 invalid
pattern set (empty, length-1 pattern, non-permutation, or one unusable
for the requested operation), 4 size cap exceeded.

Sweeps refuse n above words.MAX_ENUM_N (12).  All output is deterministic
and independent of --parallel, which is bounded by the command's jobs
(one per first letter for a single sweep, per pattern pair for table, per
check unit for verify) and the CPU count.  A command uses workers only
when its largest sweep is at n >= 7 (n! >= 5000).  One command holds one
process pool, and it stops when the command ends.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys

from . import dynamics as dyn
from . import verify
from .machine import clumping, sort, sort_with_trace
from .textio import ParseError, format_word, parse_patterns, parse_word
from .words import MAX_ENUM_N, PatternSet, Word

EXIT_PARSE = 2
EXIT_PATTERNS = 3
EXIT_CAP = 4


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _patterns(args) -> PatternSet:
    try:
        return parse_patterns(args.patterns)
    except ParseError as exc:
        raise CliError(EXIT_PARSE, f"bad --patterns: {exc}")
    except ValueError as exc:
        raise CliError(EXIT_PATTERNS, f"invalid pattern set: {exc}")


def _word(args) -> Word:
    try:
        return parse_word(args.perm)
    except ParseError as exc:
        raise CliError(EXIT_PARSE, f"bad --perm: {exc}")


def _check_size(n: int) -> None:
    """Refuse n above the sweep cap."""
    if n > MAX_ENUM_N:
        raise CliError(EXIT_CAP, f"n={n} exceeds the cap of {MAX_ENUM_N}")


def _fields(obj):
    """The JSON form of what json cannot write itself: a set's members in
    sorted order, and any other record's fields."""
    if isinstance(obj, (frozenset, PatternSet)):
        return sorted(obj)
    return vars(obj)


def _emit(args, payload, text: str) -> None:
    if args.format == "json":
        print(json.dumps(payload, default=_fields))
    else:
        print(text)


def cmd_sort(args) -> int:
    tset = _patterns(args)
    w = _word(args)
    if args.trace:
        out, steps, events = sort_with_trace(w, tset)
        _emit(args, {"input": w, "output": out, "steps": steps}, format_word(out))
        for ev in events:
            print(json.dumps(ev, default=_fields))
    else:
        out = sort(w, tset)
        _emit(args, {"input": w, "output": out}, format_word(out))
    return 0


def cmd_inverse(args) -> int:
    tset = _patterns(args)
    w = _word(args)
    try:
        out = dyn.inverse_sort(w, tset)
    except ValueError as exc:
        raise CliError(EXIT_PATTERNS, str(exc))
    _emit(args, {"input": w, "output": out}, format_word(out))
    return 0


def cmd_clump(args) -> int:
    tset = _patterns(args)
    w = _word(args)
    c = clumping(w, tset)
    text = "none" if c is None else "\n".join(
        [
            "segments: " + " ".join(format_word(s) for s in c.segments),
            "witness_pattern: " + format_word(c.witness_pattern),
            "witness_indices: " + ",".join(str(i) for i in c.witness_indices),
        ]
    )
    _emit(args, {"clumping": c}, text)
    return 0


def cmd_preimages(args) -> int:
    tset = _patterns(args)
    gamma = _word(args)
    _check_size(len(gamma))
    try:
        pre = sorted(dyn.preimages(gamma, tset))
    except ValueError as exc:
        raise CliError(EXIT_PARSE, str(exc))
    text = "\n".join([f"count: {len(pre)}"] + [format_word(p) for p in pre])
    _emit(args, {"target": gamma, "count": len(pre), "preimages": pre}, text)
    return 0


def cmd_fertility(args) -> int:
    tset = _patterns(args)
    _check_size(args.n)
    try:
        rep = dyn.fertility_max(tset, args.n, args.parallel)
    except ValueError as exc:
        raise CliError(EXIT_PATTERNS, str(exc))
    text = "\n".join(
        [
            f"n: {rep.n}",
            f"max_count: {rep.max_count}",
            f"bound: {rep.bound}",
            "witnesses: " + " ".join(format_word(w) for w in sorted(rep.witnesses)),
        ]
    )
    _emit(args, rep, text)
    return 0


def cmd_orbit(args) -> int:
    tset = _patterns(args)
    w = _word(args)
    _check_size(len(w))
    try:
        rep = dyn.orbit(w, tset)
    except ValueError as exc:
        raise CliError(EXIT_PARSE, str(exc))
    text = "\n".join(
        [
            "start: " + format_word(rep.start),
            "tail: " + (" ".join(format_word(q) for q in rep.tail) or "(none)"),
            "cycle: " + " ".join(format_word(q) for q in rep.cycle),
            f"cycle_length: {rep.cycle_length}",
        ]
    )
    _emit(args, {**vars(rep), "cycle_length": rep.cycle_length}, text)
    return 0


def cmd_periodic(args) -> int:
    tset = _patterns(args)
    _check_size(args.n)
    cycles = dyn.orbit_partition(tset, args.n, args.parallel)
    count = sum(len(c) for c in cycles)
    lines = [f"periodic_count: {count}"]
    lines += ["cycle: " + " ".join(format_word(p) for p in c) for c in cycles]
    _emit(args, {"n": args.n, "periodic_count": count, "cycles": cycles}, "\n".join(lines))
    return 0


def cmd_image(args) -> int:
    tset = _patterns(args)
    _check_size(args.n)
    size = dyn.image_size(tset, args.n, args.parallel)
    _emit(args, {"n": args.n, "image_size": size}, str(size))
    return 0


def cmd_table(args) -> int:
    _check_size(args.max_n)
    table = dyn.build_sort_table(args.max_n, args.parallel)
    if args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(
            ["sigma", "tau"] + [f"n{i}" for i in range(1, args.max_n + 1)] + ["catalan", "note"]
        )
        writer.writerows(
            [format_word(row.sigma), format_word(row.tau), *row.counts,
             str(row.is_catalan).lower(), row.note]
            for row in table.rows
        )
        return 0
    rows = [
        {"sigma": row.sigma, "tau": row.tau, "counts": row.counts, "catalan": row.is_catalan,
         "reference": row.reference, "note": row.note}
        for row in table.rows
    ]
    lines = []
    for row in table.rows:
        counts = " ".join(f"{c:>6}" for c in row.counts)
        mark = f"catalan={str(row.is_catalan).lower()}"
        lines.append(f"({format_word(row.sigma)},{format_word(row.tau)})  {counts}  {mark:<14} {row.note}")
    _emit(args, {"max_n": table.max_n, "rows": rows}, "\n".join(lines))
    return 0


def cmd_verify(args) -> int:
    _check_size(args.max_n)
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    checks = verify.run_suites(names, args.max_n, args.parallel)
    failed = [c for c in checks if not c.ok]
    for c in checks:
        status = "PASS" if c.ok else "FAIL"
        detail = f": {c.detail}" if c.detail else ""
        print(f"{status}  {c.name}{detail}")
    print(f"summary: {len(checks) - len(failed)}/{len(checks)} checks passed")
    return 0 if not failed else 1


def _at_least(least: int):
    """The argparse type of an integer option with a lower bound."""
    def integer(text: str) -> int:  # argparse names it in "invalid integer value"
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value
    return integer


@functools.cache  # built once per process; parsing leaves nothing in it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permstack",
        description="Sort permutations through a pattern-avoiding stack and "
        "analyze the resulting map: preimages, fertility bounds, orbits, and "
        "exhaustive verification sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_: str, *, patterns=False, perm=False, n=False, max_n=False,
            formats=("text", "json")):
        p = sub.add_parser(name, help=help_)
        if patterns:
            p.add_argument("--patterns", required=True, help='forbidden patterns, e.g. "123,132"')
        if perm:
            p.add_argument("--perm", required=True, help='input word, e.g. "52413" or "5,2,4,1,3"')
        if n:
            p.add_argument("--n", type=_at_least(0), required=True, help="length swept exhaustively")
        if max_n:
            p.add_argument("--max-n", type=_at_least(1), default=7, help="largest length swept (default 7)")
        p.add_argument("--format", choices=formats, default="text")
        if n or max_n:  # the sweep commands
            p.add_argument("--parallel", type=_at_least(1), default=1, help="worker processes for sweeps")
        p.set_defaults(func=func)
        return p

    p = add("sort", cmd_sort, "run the machine on one word", patterns=True, perm=True)
    p.add_argument("--trace", action="store_true", help="also print one JSON line per step")
    add("inverse", cmd_inverse, "apply the inverse map (bijective sets only)", patterns=True, perm=True)
    add("clump", cmd_clump, "show the clumping decomposition", patterns=True, perm=True)
    add("preimages", cmd_preimages, "list everything sorting to the given word", patterns=True, perm=True)
    add("fertility", cmd_fertility, "largest preimage count on S_n", patterns=True, n=True)
    add("orbit", cmd_orbit, "iterate the map until it cycles", patterns=True, perm=True)
    add("periodic", cmd_periodic, "periodic points of S_n grouped into cycles", patterns=True, n=True)
    add("image", cmd_image, "number of distinct outputs on S_n", patterns=True, n=True)
    add("table", cmd_table, "identity-preimage counts for all pairs of length-3 patterns", max_n=True,
        formats=("text", "json", "csv"))
    p = add("verify", cmd_verify, "run exhaustive verification suites", max_n=True, formats=("text",))
    p.add_argument(
        "--suite",
        choices=tuple(verify.SUITES) + ("all",),
        default="all",
        help="which suite to run (default all)",
    )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
