"""Self-test of the benchmark's checks and tracing, on small inputs.

    python3 perfbench/selftest.py

Runs each workload in-process on small inputs and asserts that its real
outputs pass the checks.  Then it corrupts one output at a time and
asserts that the check named for that output reports it, and that a
later round which differs from the checked one is caught.  Last, it
runs each workload traced and asserts that every listed layer is called
in some workload and that the self times add up to the traced time.
Exits 0 when all of this holds.
"""

from __future__ import annotations

import copy
import json
import sys

import checks
import worker
from spans import LAYERS

LENGTH = 5
SIZES = (8, 12, 17)
TERMS, BY_ASC_N = 30, 12
SERIES_CALLS = [
    ["series", ["series", "--terms", str(TERMS), "--json"]],
    ["count", ["count", "--object", "ascseq", "--n", str(BY_ASC_N), "--by", "asc"]],
    ["verify.series", ["verify", "--suite", "series", "--max-n", "6"]],
    ["verify.kernel", ["verify", "--suite", "kernel", "--max-n", "5"]],
]


def specs(trace: int) -> dict[str, dict]:
    base = {"seed": 0, "seconds": 0, "trace": trace}
    lines = [checks.format_seq(x) for x in checks.ascent_sequences(LENGTH)]
    return {
        "stream": dict(base, workload="stream", lines=lines, chunks=2),
        "scale": dict(base, workload="scale", lines=[
            checks.format_seq(x) for x in ([0] + [i % 3 for i in range(1, n)] for n in SIZES)]),
        "series": dict(base, workload="series", calls=SERIES_CALLS),
    }


def contained(n: int) -> str:
    """A permutation of 1..n that contains the pattern 231|X={1}|Y={1}."""
    return " ".join(map(str, [2, 3, 1] + list(range(4, n + 1))))


def nested(n: int) -> str:
    """A chord list on 2n points whose chords at endpoints 1 and 2 nest."""
    return "[(1,4),(2,3)" + "".join(f",({a},{a + 1})" for a in range(5, 2 * n, 2)) + "]"


def with_record(text: str, **changes) -> str:
    return json.dumps(dict(json.loads(text), **changes), separators=(",", ":"))


def set_line(key: str, i: int, value):
    def corrupt(out):
        out[key][i] = value(out) if callable(value) else value
    return corrupt


def stream_cases(lines):
    n = LENGTH
    k = next(i for i, t in enumerate(lines) if checks.ascents(checks.parse_seq(t)) > 0)
    return [
        ("lines", lambda out: out["perm"].pop()),
        ("roundtrip.perm", set_line("back.perm", 0, lines[1])),
        ("distinct.poset", set_line("poset", 1, lambda out: out["poset"][0])),
        ("perm", set_line("perm", k, contained(n))),
        ("contains", set_line("contains", 3, "true")),
        ("involution", set_line("involution", k, nested(n))),
        ("poset", set_line("poset", k, json.dumps({"n": n, "relations": []}, separators=(",", ":")))),
        ("modseq", set_line("modseq", k, checks.format_seq([0] * n))),
        ("stats", set_line("stats.ascseq", k, lambda out: with_record(out["stats.ascseq"][k], srank=-1))),
        ("stats.agree", set_line("stats.perm", k,
                                 lambda out: with_record(out["stats.perm"][k], components=99))),
    ]


def scale_cases(lines):
    def obj(key, value):
        def corrupt(out):
            out[-1][key] = value(out[-1]) if callable(value) else value
        return corrupt

    def stats(out):
        out[-1]["stats"]["perm"]["maximals"] += 1

    n = SIZES[-1]
    return [
        ("roundtrip.poset", obj("back.poset", lines[0])),
        ("perm", obj("perm", contained(n))),
        ("involution", obj("involution", nested(n))),
        ("dual", obj("dual", lambda r: r["poset"])),
        ("stats.agree", stats),
    ]


def series_cases():
    def term(out):
        values = json.loads(out["series"][0])
        values[-1] += 1
        out["series"][0] = json.dumps(values)

    return [
        ("series", term),
        ("count", set_line("count", 0, "1,2,3")),
        ("verify.series", set_line("verify.series", 0, "FAIL: series identities")),
        ("verify.kernel", lambda out: out["verify.kernel"].clear()),
    ]


def expect(errors: list[str], name: str, what: str) -> None:
    if not any(e.startswith(name + ":") for e in errors):
        sys.exit(f"selftest: check {name!r} missed {what}; errors were {errors}")


def test_checks() -> None:
    runs = {name: worker.run(spec) for name, spec in specs(0).items()}
    stream_lines = specs(0)["stream"]["lines"]
    scale_lines = specs(0)["scale"]["lines"]
    check = {
        "stream": lambda out: checks.check_stream(stream_lines, out),
        "scale": lambda out: checks.check_scale(scale_lines, out),
        "series": lambda out: checks.check_series(TERMS, BY_ASC_N, out),
    }
    cases = {"stream": stream_cases(stream_lines), "scale": scale_cases(scale_lines),
             "series": series_cases()}
    for name, result in runs.items():
        if result["failed"] or result["mismatches"]:
            sys.exit(f"selftest: {name} failed {result['failed']}, mismatched {result['mismatches']}")
        errors = check[name](result["outputs"])
        if errors:
            sys.exit(f"selftest: real {name} outputs rejected: {errors}")
        for check_name, corrupt in cases[name]:
            outputs = copy.deepcopy(result["outputs"])
            corrupt(outputs)
            expect(check[name](outputs), check_name, f"a corrupted {name} output")
    expect(checks.check_stream_inputs(LENGTH, stream_lines[1:]), "inputs", "a missing input line")
    print(f"selftest: {sum(map(len, cases.values())) + 1} corruptions caught")


def test_repeat() -> None:
    """A later round whose output differs from the checked round is counted."""
    from fishburn import series

    original = series.p_series
    calls = []

    def drifting(order):
        calls.append(order)
        values = original(order)
        return values if len(calls) == 1 else values[:-1] + [values[-1] + 1]

    series.p_series = drifting
    try:
        result = worker.run(specs(0)["series"])
    finally:
        series.p_series = original
    if not result["mismatches"]:
        sys.exit("selftest: a later round with a wrong output went unnoticed")


def test_trace() -> None:
    seen = set()
    for name, spec in specs(1).items():
        result = worker.run(spec)
        layers = result["layers"]
        seen |= {layer for layer in LAYERS if layers[layer][0]}
        traced = sum(step for r in result["traced_rounds"] for step, _ in r.values())
        traced /= len(result["traced_rounds"])
        own = sum(s for _, s in layers.values())
        if not 0.9 * traced <= own <= traced:
            sys.exit(f"selftest: {name} self times add up to {own:.4f} s of {traced:.4f} s traced")
    if seen != set(LAYERS):
        sys.exit(f"selftest: layers never called: {sorted(set(LAYERS) - seen)}")
    print(f"selftest: all {len(LAYERS)} layers traced")


if __name__ == "__main__":
    test_checks()
    test_repeat()
    test_trace()
    print("selftest: ok")
