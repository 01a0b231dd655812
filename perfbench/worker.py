"""Runs one workload against `fishburn` in a fresh process.

Reads a JSON spec on stdin (workload, inputs, seconds, trace) and writes
one JSON result on stdout: the first round's outputs in text form for
the checks in `checks.py`, per-step timings of every later round, the
number of later outputs that differ from the first round's, and the
process's peak resident memory.  Each step's time comes with the time of
a fixed reference loop run right before and after it.  With `--probe` it
only times the import of the package, with the loop around it too.

Round 1 is the warm-up; its outputs are the ones checked.  Timed rounds
follow until `seconds` have passed, and each must repeat round 1's
outputs exactly.  With tracing on, each step of a timed round also runs
traced (see `Round`), and the spans of all traced steps are summed.
"""

from __future__ import annotations

import gc
import io
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from checks import STREAM_STAGES  # noqa: E402
from spans import Tracer  # noqa: E402


REFERENCE_ITERATIONS = 25_000
_BIG = 3 ** 300


def reference_loop() -> float:
    """Time a fixed piece of pure-Python work with the collector off.

    The mix (tuples, a dict, a list, a few big-integer products) follows
    what the package's own code does.  It runs next to every timed step,
    so that `run.py` can express each step's time in units of this
    loop's time measured at the same moment.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        seen: dict[tuple[int, int], int] = {}
        row: list[int] = []
        for i in range(REFERENCE_ITERATIONS):
            seen[(i & 255, i >> 8)] = len(row)
            row.append(_BIG * i if i & 31 == 0 else i)
            if len(row) > 64:
                row = []
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


def probe() -> None:
    """Print [import time of the package, mean reference-loop time around it]."""
    reference_loop()  # the first call also pays for the process's fresh heap
    before = reference_loop()
    start = time.perf_counter()
    import fishburn  # noqa: F401
    import fishburn.cli  # noqa: F401
    took = time.perf_counter() - start
    print(json.dumps([took, (before + reference_loop()) / 2]))


def run_cli(argv: list[str], stdin_text: str) -> tuple[object, list[str], str]:
    """One `fishburn.cli.main` call on captured stdio: (exit code, stdout lines, stderr)."""
    from fishburn import cli

    saved = sys.stdin, sys.stdout, sys.stderr
    out, err = io.StringIO(), io.StringIO()
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin_text), out, err
    try:
        code = cli.main(argv)
    except Exception as exc:  # a traceback from the program is a failed call
        code = f"{type(exc).__name__}: {exc}"
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    return code, out.getvalue().splitlines(), err.getvalue()


class Round:
    """Times each step of one round.

    With a tracer, every step runs twice back to back, once untraced and
    once inside a root span with the layer wrappers installed, in
    alternating order; both must give the same output.
    """

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        self.runs = 2 if tracer else 1
        self.samples: dict[str, tuple[float, float]] = {}
        self.traced: dict[str, tuple[float, float]] = {}
        self.failed = 0
        self.mismatched = 0

    @staticmethod
    def _time(into: dict, key: str, fn, args):
        """Store (step time, mean time of the reference loop just before and after)."""
        before = reference_loop()
        start = time.perf_counter()
        out = fn(*args)
        step = time.perf_counter() - start
        into[key] = (step, (before + reference_loop()) / 2)
        return out

    def timed(self, key: str, fn, *args):
        if self.tracer is None:
            return self._time(self.samples, key, fn, args)
        outs = {}
        for traced in (True, False) if len(self.samples) % 2 else (False, True):
            if not traced:
                outs[traced] = self._time(self.samples, key, fn, args)
                continue
            self.tracer.install()
            try:
                outs[traced] = self._time(self.traced, key, self.tracer.root(fn), args)
            finally:
                self.tracer.uninstall()
        self.mismatched += outs[True] != outs[False]
        return outs[False]

    def cli(self, key: str, argv: list[str], stdin_text: str = "") -> list[str]:
        """Times `run_cli` as one step; a failed call counts its input lines as failed."""
        code, lines, err = self.timed(key, run_cli, argv, stdin_text)
        if code != 0 or err:
            bad = sum(1 for line in err.splitlines() if line.startswith("line "))
            self.failed += self.runs * (bad or max(1, stdin_text.count("\n")))
            print(f"{' '.join(argv)}: exit {code}: {err[:200]}", file=sys.stderr)
        return lines


# ---------------------------------------------------------------------------
# Workloads.  Each has `items` per round, `run(round) -> outputs` and
# `report(outputs) -> text forms for the checks`.


class Stream:
    def __init__(self, spec):
        lines = spec["lines"]
        size = -(-len(lines) // spec["chunks"])
        self.chunks = [lines[i:i + size] for i in range(0, len(lines), size)]
        self.items = len(lines) * len(STREAM_STAGES)

    def run(self, rnd: Round) -> dict[str, list[list[str]]]:
        streams = {"ascseq": self.chunks}
        for stage, argv, source, target in STREAM_STAGES:
            streams[target] = [
                rnd.cli(f"{stage}#{c}", argv, "\n".join(chunk) + "\n")
                for c, chunk in enumerate(streams[source])
            ]
        return streams

    def report(self, streams):
        return {name: [line for chunk in chunks for line in chunk]
                for name, chunks in streams.items() if name != "ascseq"}


class Scale:
    def __init__(self, spec):
        from fishburn import AscentSequence
        from fishburn.objects import parse_sequence

        self.objects = [AscentSequence(parse_sequence(text)) for text in spec["lines"]]
        self.items = len(self.objects)

    @staticmethod
    def roundtrip(x):
        from fishburn import bijections as bj, objects as ob, statistics as st

        pi = bj.sequence_to_perm(x)
        back_perm = bj.perm_to_sequence(pi)
        p = bj.sequence_to_poset(x)
        poset_text = ob.format_poset(p)
        back_poset = bj.poset_to_sequence(ob.parse_poset(poset_text))
        c = bj.poset_to_involution(p)
        involution_text = ob.format_involution(c.partner)
        back_involution = bj.poset_to_sequence(bj.involution_to_poset(ob.parse_involution(involution_text)))
        d = bj.dual(p)
        stats = (st.stats_of_sequence(x), st.stats_of_perm(pi), st.stats_of_poset(p))
        return pi, back_perm, poset_text, back_poset, involution_text, back_involution, d, stats

    def run(self, rnd: Round):
        out = []
        for i, x in enumerate(self.objects):
            try:
                out.append(rnd.timed(f"object#{i}", self.roundtrip, x))
            except Exception as exc:  # one failed object must not end the run
                rnd.failed += rnd.runs
                out.append(None)
                print(f"object {i}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return out

    def report(self, results):
        from fishburn.objects import format_permutation, format_poset, format_sequence

        texts = []
        for r in results:
            if r is None:
                texts.append(None)
                continue
            pi, back_perm, poset_text, back_poset, involution_text, back_involution, d, stats = r
            texts.append({
                "perm": format_permutation(pi.entries),
                "back.perm": format_sequence(back_perm.entries),
                "poset": poset_text,
                "back.poset": format_sequence(back_poset.entries),
                "involution": involution_text,
                "back.involution": format_sequence(back_involution.entries),
                "dual": format_poset(d),
                "stats": {k: s.as_dict() for k, s in zip(("sequence", "perm", "poset"), stats)},
            })
        return texts


class Series:
    def __init__(self, spec):
        self.calls = spec["calls"]
        self.items = len(self.calls)

    def run(self, rnd: Round):
        return {key: rnd.cli(key, argv) for key, argv in self.calls}

    def report(self, outputs):
        return outputs


WORKLOADS = {"stream": Stream, "scale": Scale, "series": Series}


def run(spec) -> dict:
    work = WORKLOADS[spec["workload"]](spec)
    first = Round()
    reference = work.run(first)
    failed, mismatches, attempted = first.failed, 0, work.items
    tracer = Tracer() if spec["trace"] else None
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < spec["seconds"]:
        rnd = Round(tracer)
        mismatches += (work.run(rnd) != reference) + rnd.mismatched
        failed += rnd.failed
        attempted += work.items * rnd.runs
        rounds.append(rnd)
    result = {
        "items_per_round": work.items,
        "attempted": attempted,
        "failed": failed,
        "mismatches": mismatches,
        "outputs": work.report(reference),
        "rounds": [rnd.samples for rnd in rounds],
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer:
        n = len(rounds)
        result["traced_rounds"] = [rnd.traced for rnd in rounds]
        result["layers"] = {name: (calls // n if calls % n == 0 else calls / n, own / n)
                            for name, (calls, own) in tracer.summary().items()}
        stem = ROOT / ".perfbench_out" / f"trace-{spec['workload']}-seed{spec['seed']}"
        tracer.write(stem)
        result["spans_file"] = str(stem.with_suffix(".bin").relative_to(ROOT))
    return result


def main() -> None:
    if sys.argv[1:] == ["--probe"]:
        probe()
        return
    result = run(json.load(sys.stdin))
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
