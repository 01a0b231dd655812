"""Command-line front end.

Subcommands: count, enumerate, convert, stats, series, contains,
avoiders, verify.  One object per line on stdin/stdout, in the canonical
text forms of :mod:`fishburn.objects`.  Exit codes: 0 success, 1
verification or data failure, 2 usage error, 3 brute-force cap exceeded.

`convert`, `stats` and `contains` share one line loop: every bad line,
a blank one or one with bytes that do not decode included, is reported
on stderr as ``line N: <message>``, the remaining lines are still read,
and the exit code is 1.  A stdout pipe closed by the reader (``| head``)
ends the command quietly with exit code 1.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import types
from collections.abc import Callable

from . import bijections, patterns, series, statistics, verify
from .errors import (
    BruteForceCapError,
    EmptyObjectError,
    FishburnError,
    NeighbourNestingError,
    ParseError,
    SettingError,
)
from .objects import (
    AscentSequence,
    ChordInvolution,
    ModifiedAscentSequence,
    _checked,
    _first_neighbour_nesting,
    check_brute_force_cap,
    enumerate_permutations,
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


class Codec(types.SimpleNamespace):
    """One text format, linked to the others through the ascent sequences (the hub).

    `parse` reads a line into an object and `format` writes one back;
    `to_hub` and `from_hub` map to and from the ascent sequences, and
    `stats` gives the object's `StatRecord`.  The entries look package
    functions up by name at call time, so that a wrapper put on a module
    attribute sees every call.
    """


def nesting_free(c: ChordInvolution) -> ChordInvolution:
    """`c` itself, or NeighbourNestingError naming its leftmost neighbour nesting.

    Only a diagram without one is a member of the family, so the
    `involution` lines of `convert` and `stats` are checked as `perm`
    lines are; `involution_to_poset` itself is defined on every diagram.
    """
    p = c.partner
    i = _first_neighbour_nesting(p)
    if i is not None:
        # both endpoints open, or both close, a chord: the outer chord opens first
        raise NeighbourNestingError(sorted((min(j, p[j - 1]), max(j, p[j - 1])) for j in (i, i + 1)))
    return c


def chord_stats(c: ChordInvolution) -> statistics.StatRecord:
    """The record of `c`'s interval order; the empty diagram has none."""
    if not c.partner:
        raise EmptyObjectError("statistics of the empty chord diagram are undefined")
    return statistics.stats_of_poset(bijections.involution_to_poset(c))


CODECS = {
    "ascseq": Codec(
        parse=lambda text: _checked(AscentSequence, parse_sequence(text)),
        format=lambda x: format_sequence(x.entries),
        to_hub=lambda x: x,
        from_hub=lambda x: x,
        stats=lambda x: statistics.stats_of_sequence(x),
    ),
    "modseq": Codec(
        parse=lambda text: _checked(ModifiedAscentSequence, parse_sequence(text)),
        format=lambda m: format_sequence(m.entries),
        to_hub=lambda m: bijections.from_modified(m),
        from_hub=lambda x: bijections.to_modified(x),
        stats=lambda m: statistics._stats_of_modified(m),
    ),
    "perm": Codec(
        parse=lambda text: parse_permutation(text),
        format=lambda pi: format_permutation(pi.entries),
        to_hub=lambda pi: bijections.perm_to_sequence(pi),
        from_hub=lambda x: bijections.sequence_to_perm(x),
        stats=lambda pi: statistics.stats_of_perm(pi),
    ),
    "poset": Codec(
        parse=lambda text: parse_poset(text),
        format=lambda p: format_poset(p),
        to_hub=lambda p: bijections.poset_to_sequence(p),
        from_hub=lambda x: bijections.sequence_to_poset(x),
        stats=lambda p: statistics.stats_of_poset(p),
    ),
    "involution": Codec(
        parse=lambda text: nesting_free(parse_involution(text)),
        format=lambda c: format_involution(c.partner),
        to_hub=lambda c: bijections.poset_to_sequence(bijections.involution_to_poset(c)),
        from_hub=lambda x: bijections.poset_to_involution(bijections.sequence_to_poset(x)),
        stats=lambda c: chord_stats(c),
    ),
}

# the text format of each family that `enumerate` lists
FAMILY_FORMATS = {"ascseq": "ascseq", "posets": "poset", "perms": "perm",
                  "involutions": "involution"}

Emit = Callable[[str], None]


def each_line(handle: Callable[[str], None]) -> int:
    """Run `handle` on every stripped stdin line, reporting bad lines as `line N: ...`.

    Undecodable bytes are kept as surrogates, so such a line fails to parse
    like any other bad line instead of ending the stream.
    """
    stdin = sys.stdin
    if hasattr(stdin, "reconfigure"):
        stdin.reconfigure(errors="surrogateescape")
    failed = False
    for lineno, raw in enumerate(stdin, start=1):
        line = raw.strip()
        try:
            if not line:
                raise ParseError("empty input")
            handle(line)
        except FishburnError as exc:
            print(f"line {lineno}: {exc}", file=sys.stderr)
            failed = True
    return EXIT_FAIL if failed else EXIT_OK


# ---------------------------------------------------------------------------
# Subcommands


def cmd_count(args, emit: Emit) -> int:
    n = args.n
    family = args.object
    if args.by is not None:
        if family in ("ascseq", "posets") and args.by == "asc":
            values = series._ascent_counts(n)
        elif family == "barred" and args.by == "rlmin":
            if n < 1:
                print("--by rlmin needs n >= 1", file=sys.stderr)
                return EXIT_USAGE
            values = [series.barred_avoiders_by_rlmin(n, k) for k in range(1, n + 1)]
        else:
            print(f"--by {args.by} is not defined for {family}", file=sys.stderr)
            return EXIT_USAGE
        emit(json.dumps(values) if args.json else ",".join(str(v) for v in values))
        return EXIT_OK

    # the four families are equinumerous; the brute-force oracles count them in `verify`
    value = series.count_barred_avoiders(n) if family == "barred" else series.p_series(n)[n]
    emit(json.dumps([value]) if args.json else str(value))
    return EXIT_OK


def cmd_enumerate(args, emit: Emit) -> int:
    codec = CODECS[FAMILY_FORMATS[args.object]]
    for obj in bijections.enumerate_family(args.object, args.n):
        emit(codec.format(obj))
    return EXIT_OK


def cmd_convert(args, emit: Emit) -> int:
    parse, to_hub = CODECS[args.source].parse, CODECS[args.source].to_hub
    from_hub, format_ = CODECS[args.target].from_hub, CODECS[args.target].format

    def handle(line: str) -> None:
        x = to_hub(parse(line))
        if not x.entries:
            raise EmptyObjectError("conversions need at least one element")
        emit(format_(from_hub(x)))

    return each_line(handle)


def cmd_stats(args, emit: Emit) -> int:
    source = CODECS[args.format]
    return each_line(lambda line: emit(statistics.format_stats(source.stats(source.parse(line)))))


def cmd_series(args, emit: Emit) -> int:
    values = series.p_series(args.terms)
    for line in [json.dumps(values)] if args.json else map(str, values):
        emit(line)
    return EXIT_OK


def cmd_contains(args, emit: Emit) -> int:
    def handle(line: str) -> None:
        occurrence = patterns.find_occurrence(parse_permutation(line), args.pattern)
        if args.witness and occurrence is not None:
            emit("true " + " ".join(str(p) for p in occurrence))
        else:
            emit("true" if occurrence is not None else "false")

    return each_line(handle)


def cmd_avoiders(args, emit: Emit) -> int:
    if (args.pattern is None) == (not args.barred):
        print("need exactly one of --pattern or --barred", file=sys.stderr)
        return EXIT_USAGE
    if args.barred:
        # the avoiders are the images of the self-modified sequences, each its own modified
        # sequence; `avoids_barred` is the oracle
        found = (bijections._perm_of_modified(x.entries)
                 for x in patterns.enumerate_self_modified(args.n))
    elif (carry := patterns.family_symmetry(args.pattern)) is not None:
        # an image of the family pattern: its avoiders are images of the family; the filter
        # is the oracle
        found = map(carry, bijections.enumerate_family("perms", args.n))
    else:
        check_brute_force_cap("perms", args.n)
        found = (pi for pi in enumerate_permutations(args.n)
                 if not patterns.contains(pi, args.pattern))
    if args.count:
        emit(str(sum(1 for _ in found)))
    else:
        for pi in sorted(found, key=lambda pi: pi.entries):
            emit(CODECS["perm"].format(pi))
    return EXIT_OK


def cmd_verify(args, emit: Emit) -> int:
    ok, message = verify.run_suite(args.suite, args.max_n)
    emit(("PASS: " if ok else "FAIL: ") + message)
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every later one.

    Parsing leaves the parser unchanged, and the commands and argument
    types it names look package functions up at call time, so a wrapper
    put on a package function still sees every call.
    """
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
                   choices=tuple(FAMILY_FORMATS))
    p.add_argument("--n", type=non_negative_int, required=True)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("convert", help="convert objects read from stdin")
    p.add_argument("--from", dest="source", required=True, choices=tuple(CODECS))
    p.add_argument("--to", dest="target", required=True, choices=tuple(CODECS))
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("stats", help="statistics records for objects from stdin")
    p.add_argument("--format", required=True, choices=tuple(CODECS))
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
    args = build_parser().parse_args(argv)
    stdout = sys.stdout

    def emit(text: str) -> None:
        stdout.write(text + "\n")

    try:
        code = args.func(args, emit)
        stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone: let the flush at exit write to devnull, not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stdout.fileno())
        os.close(devnull)
        return EXIT_FAIL
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
