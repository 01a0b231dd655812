"""Reference computations and output checks, written apart from `fishburn`.

Nothing here imports the package under test.  Each check returns a list
of error strings; an empty list means the outputs passed.  Every error
starts with the name of the check that raised it, so the self-test can
tell which check caught a corrupted output.
"""

from __future__ import annotations

import json
from itertools import accumulate
from operator import add

PATTERN = "231|X={1}|Y={1}"

# Stream stages in chain order: (stage name, cli argv, input stream, output stream).
STREAM_STAGES = (
    ("convert.ascseq-perm", ["convert", "--from", "ascseq", "--to", "perm"], "ascseq", "perm"),
    ("convert.perm-ascseq", ["convert", "--from", "perm", "--to", "ascseq"], "perm", "back.perm"),
    ("convert.ascseq-involution", ["convert", "--from", "ascseq", "--to", "involution"],
     "ascseq", "involution"),
    ("convert.involution-ascseq", ["convert", "--from", "involution", "--to", "ascseq"],
     "involution", "back.involution"),
    ("convert.ascseq-poset", ["convert", "--from", "ascseq", "--to", "poset"], "ascseq", "poset"),
    ("convert.poset-ascseq", ["convert", "--from", "poset", "--to", "ascseq"], "poset", "back.poset"),
    ("convert.ascseq-modseq", ["convert", "--from", "ascseq", "--to", "modseq"], "ascseq", "modseq"),
    ("convert.modseq-ascseq", ["convert", "--from", "modseq", "--to", "ascseq"],
     "modseq", "back.modseq"),
    ("contains", ["contains", "--pattern", PATTERN], "perm", "contains"),
    ("stats.ascseq", ["stats", "--format", "ascseq"], "ascseq", "stats.ascseq"),
    ("stats.perm", ["stats", "--format", "perm"], "perm", "stats.perm"),
    ("stats.poset", ["stats", "--format", "poset"], "poset", "stats.poset"),
    ("stats.involution", ["stats", "--format", "involution"], "involution", "stats.involution"),
)


# ---------------------------------------------------------------------------
# Reference computations


def ascent_sequences(n: int):
    """All ascent sequences of length n >= 1, lexicographically, as tuples."""
    out = []

    def extend(prefix, asc):
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        last = prefix[-1]
        for v in range(asc + 2):
            prefix.append(v)
            extend(prefix, asc + (v > last))
            prefix.pop()

    extend([0], 0)
    return out


def fishburn_table(max_len: int) -> tuple[list[int], dict[int, list[int]]]:
    """Counts of ascent sequences by length, and by ascents at every length.

    The state of the counting DP is (ascents a, last entry l); appending
    v <= l keeps a, appending l < v <= a+1 raises it.  Suffix and prefix
    sums make each length step quadratic.  Returns (totals, by_ascents)
    with totals[m] = p_m for m = 0..max_len.
    """
    totals = [1]
    by_asc = {0: [1]}
    rows = [[1]]  # rows[a][l] at length 1
    for m in range(1, max_len + 1):
        if m > 1:
            new = []
            for a in range(m):
                row = list(accumulate(reversed(rows[a])))[::-1] if a < len(rows) else [0] * (a + 1)
                if a:
                    row = list(map(add, row, [0] + list(accumulate(rows[a - 1]))))
                new.append(row)
            rows = new
        by_asc[m] = [sum(r) for r in rows]
        totals.append(sum(by_asc[m]))
    return totals, by_asc


def ascents(x) -> int:
    return sum(1 for a, b in zip(x, x[1:]) if a < b)


def avoids_r_pattern(p) -> bool:
    """No ascent p_i < p_{i+1} whose value p_i - 1 lies to the right of it."""
    where = [0] * (len(p) + 1)
    for i, v in enumerate(p):
        where[v] = i
    return not any(a < b and a > 1 and where[a - 1] > i + 1
                   for i, (a, b) in enumerate(zip(p, p[1:])))


def nesting_free(chords) -> bool:
    """No two chords at neighbouring endpoints i, i+1 nest."""
    partner = {}
    for a, b in chords:
        partner[a], partner[b] = b, a
    for i in range(1, 2 * len(chords)):
        j = partner[i]
        if j == i + 1:
            continue
        lo1, hi1 = sorted((i, j))
        lo2, hi2 = sorted((i + 1, partner[i + 1]))
        if lo1 < lo2 < hi2 < hi1 or lo2 < lo1 < hi1 < hi2:
            return False
    return True


def parse_seq(text: str) -> tuple[int, ...]:
    body = text.strip()[1:-1]
    return tuple(int(v) for v in body.split(",")) if body else ()


def parse_perm(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split())


def parse_chords(text: str) -> list[tuple[int, int]]:
    body = text.strip()[1:-1]
    if not body:
        return []
    return [tuple(int(v) for v in part.strip("()").split(","))
            for part in body.replace("),(", ")|(").split("|")]


def parse_relations(text: str) -> tuple[int, set[tuple[int, int]]]:
    data = json.loads(text)
    return data["n"], {(a, b) for a, b in data["relations"]}


def format_seq(x) -> str:
    return "[" + ",".join(map(str, x)) + "]"


# ---------------------------------------------------------------------------
# Checks on single objects


def check_perm(name: str, x, text: str) -> list[str]:
    p = parse_perm(text)
    if sorted(p) != list(range(1, len(x) + 1)):
        return [f"{name}: {text!r} is not a permutation of 1..{len(x)}"]
    if not avoids_r_pattern(p):
        return [f"{name}: {text!r} contains {PATTERN}"]
    return []


def check_involution(name: str, x, text: str) -> list[str]:
    chords = parse_chords(text)
    ends = sorted(e for c in chords for e in c)
    if (len(chords) != len(x) or ends != list(range(1, 2 * len(x) + 1))
            or any(a >= b for a, b in chords) or chords != sorted(chords)):
        return [f"{name}: {text!r} is not a canonical chord list on {2 * len(x)} points"]
    if not nesting_free(chords):
        return [f"{name}: {text!r} has a neighbour nesting"]
    return []


def check_poset(name: str, x, text: str) -> list[str]:
    """Size, and minimal elements = zeros of the sequence (a preserved statistic)."""
    n, pairs = parse_relations(text)
    minimal = n - len({b for _, b in pairs})
    if n != len(x) or minimal != x.count(0):
        return [f"{name}: {text!r} does not fit {format_seq(x)}"]
    return []


def check_modseq(name: str, x, text: str) -> list[str]:
    """Same ascent positions as the source, and maximum = number of ascents."""
    m = parse_seq(text)
    tops = lambda s: [i for i in range(len(s) - 1) if s[i] < s[i + 1]]
    if len(m) != len(x) or tops(m) != tops(x) or max(m) != ascents(x):
        return [f"{name}: {text!r} does not fit {format_seq(x)}"]
    return []


def check_record(name: str, x, record: dict) -> list[str]:
    """Statistics that read straight off the sequence."""
    want = {"n": len(x), "minimals": x.count(0), "rank": ascents(x), "srank": x[-1]}
    got = {k: record.get(k) for k in want}
    if got != want or sum(record["level_counts"]) != len(x) \
            or sum(record["max_level_counts"]) != record["maximals"]:
        return [f"{name}: {record} does not fit {format_seq(x)}"]
    return []


def _first(errors: list[str], limit: int = 5) -> list[str]:
    return errors[:limit] + ([f"... {len(errors) - limit} more"] if len(errors) > limit else [])


def _distinct(name: str, lines: list[str]) -> list[str]:
    return [] if len(set(lines)) == len(lines) else [f"{name}: images are not pairwise distinct"]


# ---------------------------------------------------------------------------
# Workload checks


def check_stream_inputs(length: int, lines: list[str]) -> list[str]:
    """The input stream is every ascent sequence of the length, once."""
    totals, _ = fishburn_table(length)
    if len(lines) != totals[length] or set(lines) != {format_seq(x) for x in ascent_sequences(length)}:
        return [f"inputs: {len(lines)} lines, expected all {totals[length]} ascent sequences"]
    return []


def check_stream(lines: list[str], streams: dict[str, list[str]]) -> list[str]:
    """`streams` maps each output stream name of STREAM_STAGES to its lines."""
    errors = []
    n_lines = len(lines)
    for _, _, _, out in STREAM_STAGES:
        if len(streams[out]) != n_lines:
            errors.append(f"lines: stream {out} has {len(streams[out])} lines, expected {n_lines}")
    if errors:
        return errors
    for kind in ("perm", "involution", "poset", "modseq"):
        errors += _distinct(f"distinct.{kind}", streams[kind])
        if streams["back." + kind] != lines:
            errors.append(f"roundtrip.{kind}: {kind} -> ascseq does not return the input")
    per_object = {"perm": check_perm, "involution": check_involution,
                  "poset": check_poset, "modseq": check_modseq}
    for i, text in enumerate(lines):
        x = parse_seq(text)
        for kind, check in per_object.items():
            errors += check(kind, x, streams[kind][i])
        errors += check_record("stats", x, json.loads(streams["stats.ascseq"][i]))
    if any(v != "false" for v in streams["contains"]):
        errors.append(f"contains: a permutation image is reported to contain {PATTERN}")
    for kind in ("perm", "poset", "involution"):
        if streams["stats." + kind] != streams["stats.ascseq"]:
            errors.append(f"stats.agree: stats of {kind} differ from stats of ascseq")
    return _first(errors)


def check_scale(lines: list[str], results: list[dict]) -> list[str]:
    """`results[i]` holds the text forms the round trip produced for lines[i], or None."""
    errors = []
    for text, r in zip(lines, results, strict=True):
        if r is None:
            errors.append(f"roundtrip: the round trip of {text} raised")
            continue
        x = parse_seq(text)
        for key in ("back.perm", "back.poset", "back.involution"):
            if r[key] != text:
                errors.append(f"roundtrip.{key[5:]}: {key} does not return the input")
        errors += check_perm("perm", x, r["perm"])
        errors += check_involution("involution", x, r["involution"])
        errors += check_poset("poset", x, r["poset"])
        n, pairs = parse_relations(r["poset"])
        if parse_relations(r["dual"]) != (n, {(b, a) for a, b in pairs}):
            errors.append("dual: the dual is not the reversed order")
        stats = r["stats"]
        if not stats["sequence"] == stats["perm"] == stats["poset"]:
            errors.append("stats.agree: stats_of_* disagree")
        errors += check_record("stats", x, stats["sequence"])
    return _first(errors)


def check_series(terms: int, by_asc_n: int, outputs: dict[str, list[str]]) -> list[str]:
    errors = []
    totals, by_asc = fishburn_table(max(terms, by_asc_n))
    if outputs["series"] != [json.dumps(totals[: terms + 1])]:
        errors.append(f"series: p_0..p_{terms} differ from the reference DP")
    if outputs["count"] != [",".join(map(str, by_asc[by_asc_n]))]:
        errors.append(f"count: ascent distribution at n = {by_asc_n} differs from the reference DP")
    for key in ("verify.series", "verify.kernel"):
        if not outputs[key] or any(not line.startswith("PASS") for line in outputs[key]):
            errors.append(f"{key}: {outputs[key]}")
    return errors
