"""Command-line front end.

Subcommands: count, enumerate, convert, stats, series, contains,
avoiders, verify.  One object per line on stdin/stdout, in the canonical
text forms of :mod:`fishburn.objects`.  Exit codes: 0 success, 1
verification or data failure, 2 usage error, 3 brute-force cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import bijections, patterns, series, statistics, verify
from .errors import BruteForceCapError, EmptyObjectError, FishburnError, ParseError, SettingError
from .objects import (
    AscentSequence,
    ChordInvolution,
    ModifiedAscentSequence,
    Permutation,
    Poset,
    enumerate_family,
    enumerate_nesting_free_involutions,
    enumerate_permutations,
    enumerate_r_permutations,
    format_involution,
    format_permutation,
    format_poset,
    format_sequence,
    parse_involution,
    parse_permutation,
    parse_poset,
    parse_sequence,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CAP = 3

CONVERT_FORMATS = ("ascseq", "modseq", "perm", "poset", "involution")


def _parse_object(fmt: str, text: str):
    if fmt == "ascseq":
        return AscentSequence(parse_sequence(text))
    if fmt == "modseq":
        return ModifiedAscentSequence(parse_sequence(text))
    if fmt == "perm":
        return parse_permutation(text)
    if fmt == "poset":
        return parse_poset(text)
    if fmt == "involution":
        return parse_involution(text)
    raise ValueError(f"unknown format {fmt!r}")


def _to_sequence(fmt: str, obj) -> AscentSequence:
    if fmt == "ascseq":
        return obj
    if fmt == "modseq":
        return bijections.from_modified(obj)
    if fmt == "perm":
        return bijections.perm_to_sequence(obj)
    if fmt == "poset":
        return bijections.poset_to_sequence(obj)
    if fmt == "involution":
        return bijections.poset_to_sequence(bijections.involution_to_poset(obj))
    raise ValueError(f"unknown format {fmt!r}")


def _from_sequence(fmt: str, x: AscentSequence) -> str:
    if fmt == "ascseq":
        return format_sequence(x.entries)
    if fmt == "modseq":
        return format_sequence(bijections.to_modified(x).entries)
    if fmt == "perm":
        return format_permutation(bijections.sequence_to_perm(x).entries)
    if fmt == "poset":
        return format_poset(bijections.sequence_to_poset(x))
    if fmt == "involution":
        c = bijections.poset_to_involution(bijections.sequence_to_poset(x))
        return format_involution(c.partner)
    raise ValueError(f"unknown format {fmt!r}")


def _format_object(obj) -> str:
    if isinstance(obj, (AscentSequence, ModifiedAscentSequence)):
        return format_sequence(obj.entries)
    if isinstance(obj, Permutation):
        return format_permutation(obj.entries)
    if isinstance(obj, Poset):
        return format_poset(obj)
    if isinstance(obj, ChordInvolution):
        return format_involution(obj.partner)
    raise TypeError(type(obj).__name__)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_count(args) -> int:
    n = args.n
    family = args.object
    if args.by is not None:
        if family in ("ascseq", "posets") and args.by == "asc":
            values = series.count_table(max(n, 1)).by_ascents(n)
        elif family == "barred" and args.by == "rlmin":
            if n < 1:
                print("--by rlmin needs n >= 1", file=sys.stderr)
                return EXIT_USAGE
            values = [series.barred_avoiders_by_rlmin(n, k) for k in range(1, n + 1)]
        else:
            print(f"--by {args.by} is not defined for {family}", file=sys.stderr)
            return EXIT_USAGE
        print(json.dumps(values) if args.json else ",".join(str(v) for v in values))
        return EXIT_OK

    if family in ("ascseq", "posets"):
        value = series.p_series(n)[n]
    elif family == "barred":
        value = series.count_barred_avoiders(n)
    elif family == "perms":
        value = len(enumerate_r_permutations(n))
    elif family == "involutions":
        value = len(enumerate_nesting_free_involutions(n))
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(family)
    print(json.dumps([value]) if args.json else value)
    return EXIT_OK


def cmd_enumerate(args) -> int:
    for obj in enumerate_family(args.object, args.n):
        print(_format_object(obj))
    return EXIT_OK


def cmd_convert(args) -> int:
    failed = False
    for lineno, raw in enumerate(sys.stdin, start=1):
        line = raw.strip()
        if not line:
            print(f"line {lineno}: empty input", file=sys.stderr)
            failed = True
            continue
        try:
            obj = _parse_object(args.source, line)
            x = _to_sequence(args.source, obj)
            if len(x) == 0:
                raise EmptyObjectError("conversions need at least one element")
            print(_from_sequence(args.target, x))
        except FishburnError as exc:
            print(f"line {lineno}: {exc}", file=sys.stderr)
            failed = True
    return EXIT_FAIL if failed else EXIT_OK


def cmd_stats(args) -> int:
    failed = False
    for lineno, raw in enumerate(sys.stdin, start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            obj = _parse_object(args.format, line)
            if args.format in ("ascseq",):
                record = statistics.stats_of_sequence(obj)
            elif args.format == "modseq":
                record = statistics.stats_of_sequence(bijections.from_modified(obj))
            elif args.format == "perm":
                record = statistics.stats_of_perm(obj)
            elif args.format == "poset":
                record = statistics.stats_of_poset(obj)
            else:
                record = statistics.stats_of_poset(bijections.involution_to_poset(obj))
            print(json.dumps(record.as_dict(), separators=(",", ":")))
        except FishburnError as exc:
            print(f"line {lineno}: {exc}", file=sys.stderr)
            failed = True
    return EXIT_FAIL if failed else EXIT_OK


def cmd_series(args) -> int:
    values = series.p_series(args.terms)
    if args.json:
        print(json.dumps(values))
    else:
        for v in values:
            print(v)
    return EXIT_OK


def cmd_contains(args) -> int:
    failed = False
    for lineno, raw in enumerate(sys.stdin, start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            pi = parse_permutation(line)
        except FishburnError as exc:
            print(f"line {lineno}: {exc}", file=sys.stderr)
            failed = True
            continue
        occurrence = patterns.find_occurrence(pi, args.pattern)
        if args.witness and occurrence is not None:
            print("true " + " ".join(str(p) for p in occurrence))
        else:
            print("true" if occurrence is not None else "false")
    return EXIT_FAIL if failed else EXIT_OK


def cmd_avoiders(args) -> int:
    if (args.pattern is None) == (not args.barred):
        print("need exactly one of --pattern or --barred", file=sys.stderr)
        return EXIT_USAGE
    if args.barred:
        test = patterns.avoids_barred
    else:
        test = lambda pi: not patterns.contains(pi, args.pattern)
    from .objects import _check_cap

    _check_cap("perms", args.n)
    found = [pi for pi in enumerate_permutations(args.n) if test(pi)]
    if args.count:
        print(len(found))
    else:
        for pi in found:
            print(format_permutation(pi.entries))
    return EXIT_OK


def cmd_verify(args) -> int:
    ok, message = verify.run_suite(args.suite, args.max_n)
    print(("PASS: " if ok else "FAIL: ") + message)
    return EXIT_OK if ok else EXIT_FAIL


# ---------------------------------------------------------------------------


def non_negative_int(text: str) -> int:
    """argparse type for a size bound: a non-negative integer."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def pattern_argument(text: str) -> patterns.BivincularPattern:
    """argparse type for --pattern: a malformed pattern is a usage error."""
    try:
        return patterns.parse_pattern(text)
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fishburn",
        description="Exact combinatorics of ascent sequences, (2+2)-free posets, "
                    "pattern-restricted permutations and chord involutions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="count a family at size n")
    p.add_argument("--object", required=True,
                   choices=("ascseq", "posets", "perms", "involutions", "barred"))
    p.add_argument("--n", type=non_negative_int, required=True)
    p.add_argument("--by", choices=("asc", "rlmin"))
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("enumerate", help="list a family in canonical order")
    p.add_argument("--object", required=True,
                   choices=("ascseq", "posets", "perms", "involutions"))
    p.add_argument("--n", type=non_negative_int, required=True)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("convert", help="convert objects read from stdin")
    p.add_argument("--from", dest="source", required=True, choices=CONVERT_FORMATS)
    p.add_argument("--to", dest="target", required=True, choices=CONVERT_FORMATS)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("stats", help="statistics records for objects from stdin")
    p.add_argument("--format", required=True, choices=CONVERT_FORMATS)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("series", help="family counts p_0..p_N")
    p.add_argument("--terms", type=non_negative_int, default=20)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("contains", help="test permutations from stdin for a pattern")
    p.add_argument("--pattern", type=pattern_argument, required=True)
    p.add_argument("--witness", action="store_true")
    p.set_defaults(func=cmd_contains)

    p = sub.add_parser("avoiders", help="permutations of length n avoiding a pattern")
    p.add_argument("--n", type=non_negative_int, required=True)
    p.add_argument("--pattern", type=pattern_argument)
    p.add_argument("--barred", action="store_true")
    p.add_argument("--count", action="store_true")
    p.set_defaults(func=cmd_avoiders)

    p = sub.add_parser("verify", help="run an exhaustive verification suite")
    p.add_argument("--suite", required=True, choices=verify.SUITES)
    p.add_argument("--max-n", type=non_negative_int, default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BruteForceCapError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CAP
    except SettingError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except FishburnError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
