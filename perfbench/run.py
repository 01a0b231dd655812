"""Benchmark of the `fishburn` package: one workload per run.

    python3 perfbench/run.py --workload {stream,scale,series} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout.  The benchmark builds the
workload's inputs from the seed, times the import of the package in
fresh processes (`setup_s`), runs the workload in one fresh worker
process (`worker.py`), checks every output with `checks.py`, and prints
one JSON line: `correct`, `attempted`, `failed` and `metrics`.  With
`--trace 0` the metrics are the end-to-end ones; with `--trace 1` they
are per-layer call counts and self times from wrapped layer functions.
It exits 1 if an output is wrong and 2 if the package is missing.
See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from spans import LAYERS, ROOT_SPAN

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
DEADLINE_S = 170

STREAM_LENGTH = 8
STREAM_CHUNKS = 4
SCALE_SIZES = (100, 110, 120, 130, 140, 150)
SERIES_TERMS = 250
SERIES_BY_ASC_N = 100
SERIES_CALLS = {
    "series": ["series", "--terms", str(SERIES_TERMS), "--json"],
    "count": ["count", "--object", "ascseq", "--n", str(SERIES_BY_ASC_N), "--by", "asc"],
    "verify.series": ["verify", "--suite", "series", "--max-n", "40"],
    "verify.kernel": ["verify", "--suite", "kernel", "--max-n", "14"],
}
SETUP_PROBES = 15
# The reference loop's typical time on the machine where the bounds were
# set (see README.md, "Calibration").  Step times are scaled to it.
REFERENCE_S = 0.009


def random_ascent_sequence(rng: random.Random, n: int) -> tuple[int, ...]:
    """Each entry uniform on 0..1+asc(prefix)."""
    x, asc = [0], 0
    for _ in range(n - 1):
        v = rng.randint(0, asc + 1)
        asc += v > x[-1]
        x.append(v)
    return tuple(x)


def build_spec(workload: str, seed: int) -> dict:
    rng = random.Random(seed)
    if workload == "stream":
        lines = [checks.format_seq(x) for x in checks.ascent_sequences(STREAM_LENGTH)]
        rng.shuffle(lines)
        return {"lines": lines, "chunks": STREAM_CHUNKS}
    if workload == "scale":
        return {"lines": [checks.format_seq(random_ascent_sequence(rng, n)) for n in SCALE_SIZES]}
    calls = list(SERIES_CALLS.items())
    rng.shuffle(calls)
    return {"calls": calls}


def check(workload: str, spec: dict, outputs) -> list[str]:
    if workload == "stream":
        return (checks.check_stream_inputs(STREAM_LENGTH, spec["lines"])
                or checks.check_stream(spec["lines"], outputs))
    if workload == "scale":
        return checks.check_scale(spec["lines"], outputs)
    return checks.check_series(SERIES_TERMS, SERIES_BY_ASC_N, outputs)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    return env


def measure_setup(deadline: float) -> tuple[float, float]:
    """Calibrated and raw median import time over fresh processes (the first is not counted)."""
    probes = []
    for _ in range(SETUP_PROBES + 1):
        done = subprocess.run([sys.executable, str(WORKER), "--probe"], env=child_env(), cwd=ROOT,
                              capture_output=True, text=True, check=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        probes.append(json.loads(done.stdout))
    return (REFERENCE_S * statistics.median(took / ref for took, ref in probes[1:]),
            statistics.median(took for took, _ in probes[1:]))


def round_time(rounds: list[dict[str, list[float]]]) -> float:
    """Calibrated time of one round.

    Each step's time is divided by the reference loop's time around it,
    the median of that ratio is taken across rounds, and the medians of
    all steps are summed and scaled by REFERENCE_S.
    """
    keys = rounds[0].keys()
    return REFERENCE_S * sum(statistics.median(r[k][0] / r[k][1] for r in rounds if k in r)
                             for k in keys)


def raw_round_time(rounds: list[dict[str, list[float]]]) -> float:
    """Uncalibrated time of one round: the sum of each step's median time."""
    return sum(statistics.median(r[k][0] for r in rounds if k in r) for k in rounds[0])


def metrics_of(result: dict, setup_s: float, trace: bool) -> dict:
    rounds = result["rounds"]
    if not trace:
        return {
            "items_per_s": (result["items_per_round"] / round_time(rounds), "1/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (result["peak_rss_kb"] / 1024, "MB"),
        }
    layers = result["layers"]
    out = {}
    for name in LAYERS:
        calls, own = layers[name]
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.self_s"] = (own, "s")
    out["bench.self_s"] = (layers[ROOT_SPAN][1], "s")
    out["trace.round_s"] = (sum(own for _, own in layers.values()), "s")
    out["trace.overhead"] = (round_time(result["traced_rounds"]) - round_time(rounds), "s")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("stream", "scale", "series"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "fishburn" / "__init__.py").is_file():
        print(f"perfbench: no package source at {ROOT / 'src' / 'fishburn'}", file=sys.stderr)
        return 2

    spec = build_spec(args.workload, args.seed)
    spec.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace)
    try:
        setup_s, raw_setup_s = measure_setup(deadline)
        done = subprocess.run([sys.executable, str(WORKER)], input=json.dumps(spec), env=child_env(),
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if done.returncode != 0:
        print(f"perfbench: worker exited {done.returncode}\n{done.stderr[-2000:]}", file=sys.stderr)
        return 1
    sys.stderr.write(done.stderr[-2000:])
    result = json.loads(done.stdout)
    refs = [ref for r in result["rounds"] for _, ref in r.values()]
    print(f"perfbench: uncalibrated items/s {result['items_per_round'] / raw_round_time(result['rounds']):.4g},"
          f" setup_s {raw_setup_s:.4g}, reference loop median {statistics.median(refs) * 1e3:.3f} ms",
          file=sys.stderr)

    errors = check(args.workload, spec, result["outputs"])
    if result["mismatches"]:
        errors.append(f"repeat: {result['mismatches']} later outputs differ from the checked round")
    for line in errors:
        print(f"perfbench: wrong output: {line}", file=sys.stderr)
    metrics = metrics_of(result, setup_s, bool(args.trace))
    print(json.dumps({
        "correct": not errors,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
