"""Statistics preserved by the bijections, and the direct-sum structure.

Each of the three main representations carries the same seven-entry
record: number of minimal elements, level of the lowest maximal element
(srank), rank, number of maximal elements, number of direct-sum
components, and two q-polynomials counting all elements (resp. only the
maximal ones) by level.  On sequences the level data lives on the
modified sequence; on permutations it lives in the gaps between active
sites.  The records of an ascent sequence, its permutation and its poset
agree coefficientwise; `stats_of_sequence`, `stats_of_perm` and
`stats_of_poset` compute them by independent routes, each one pass over
its own representation plus the cut helper that `components` uses too.
"""

from __future__ import annotations

import json

from . import bijections
from .errors import EmptyObjectError
from .objects import (
    AscentSequence,
    ModifiedAscentSequence,
    Permutation,
    Poset,
    _trusted,
    _Value,
)


class StatRecord(_Value):
    """The shared statistics of corresponding objects.

    `level_counts[i]` counts elements at level i (for a sequence: entries
    of the modified sequence equal to i; for a permutation: entries
    between active sites i and i+1).  `max_level_counts` restricts the
    count to maximal elements / right-to-left maxima.  Both hold one count
    per level 0..rank; neither ends in 0, since every level is occupied and
    the elements of the top level are maximal.
    """

    __slots__ = ("size", "minimals", "srank", "rank", "maximals", "components",
                 "level_counts", "max_level_counts")

    def as_dict(self) -> dict:
        return json.loads(format_stats(self))


def format_stats(r: StatRecord) -> str:
    """`r` as the compact JSON object that `as_dict` reads back, written from the fields."""
    return (f'{{"n":{r.size},"minimals":{r.minimals},"srank":{r.srank},"rank":{r.rank},'
            f'"maximals":{r.maximals},"components":{r.components},'
            f'"level_counts":[{",".join(map(str, r.level_counts))}],'
            f'"max_level_counts":[{",".join(map(str, r.max_level_counts))}]}}')


def stats_of_sequence(x: AscentSequence) -> StatRecord:
    """The record of x, read off its modified sequence."""
    return _stats_of_modified(bijections.to_modified(x))


def _stats_of_modified(m: ModifiedAscentSequence) -> StatRecord:
    """The record of the ascent sequence whose modified sequence is m.

    Level i holds the entries equal to i, and the maximal elements are
    the right-to-left maxima (nothing larger to their right), which one
    backward pass counts with the levels.  x and m have the same zeros
    and the same last entry, and rank = asc(x) = max(m).
    """
    entries = m.entries
    if not entries:
        raise EmptyObjectError("statistics of the empty sequence are undefined")
    rank = max(entries)
    level_counts = [0] * (rank + 1)
    max_level_counts = [0] * (rank + 1)
    best = 0
    for e in reversed(entries):
        level_counts[e] += 1
        if e >= best:
            max_level_counts[e] += 1
            best = e
    return StatRecord(len(entries), entries.count(0), entries[-1], rank, sum(max_level_counts),
                      len(_sequence_cuts(entries)), tuple(level_counts), tuple(max_level_counts))


def stats_of_perm(pi: Permutation) -> StatRecord:
    """The record of pi: level i holds the entries between active sites i and i+1."""
    entries = pi.entries
    n = len(entries)
    if n == 0:
        raise EmptyObjectError("statistics of the empty permutation are undefined")
    sites = bijections._active_gaps(entries)  # raises NotInRError off the family
    level_counts = [hi - lo for lo, hi in zip(sites, sites[1:])]
    max_level_counts = [0] * len(level_counts)
    # the right-to-left maxima, from the last entry down to n, whose level is srank;
    # the level of position i is the last site at or before i
    level, best = len(level_counts) - 1, 0
    for i in range(n - 1, -1, -1):
        if entries[i] > best:
            best = entries[i]
            while sites[level] > i:
                level -= 1
            max_level_counts[level] += 1
            if best == n:
                break
    minimals, least = 0, n + 1
    for e in entries:  # a running count of the left-to-right minima, which end at 1
        if e < least:
            minimals, least = minimals + 1, e
            if e == 1:
                break
    return StatRecord(n, minimals, level, len(level_counts) - 1, sum(max_level_counts),
                      len(_perm_cuts(entries)), tuple(level_counts), tuple(max_level_counts))


def stats_of_poset(p: Poset) -> StatRecord:
    """The record of p, read off its levels and entries; maximal elements have entry rank+1."""
    if p.n == 0:
        raise EmptyObjectError("statistics of the empty poset are undefined")
    level_counts, max_level_counts, cuts = _poset_tallies(p)
    # srank is the level of the first nonzero maximal count, the first place that count occurs
    srank = max_level_counts.index(next(filter(None, max_level_counts)))
    return StatRecord(p.n, level_counts[0], srank, len(level_counts) - 1, sum(max_level_counts),
                      len(cuts), tuple(level_counts), tuple(max_level_counts))


# ---------------------------------------------------------------------------
# Direct sums and components


def _sequence_cuts(entries) -> list[int]:
    """Lengths after which the remaining entries all exceed the prefix max."""
    n = len(entries)
    floors = []  # floors[i]: the least of entries[i:], and n past the end
    least = n
    for e in reversed(entries):
        if e < least:
            least = e
        floors.append(least)
    floors.reverse()
    floors.append(n)
    cuts = []
    top = -1
    for length, e in enumerate(entries, 1):
        if e > top:
            top = e
        if floors[length] > top:
            cuts.append(length)
    return cuts


def _perm_cuts(entries) -> list[int]:
    """Lengths whose prefix holds exactly 1..length."""
    cuts = []
    top = 0
    for length, e in enumerate(entries, 1):
        if e > top:
            top = e
        if top == length:
            cuts.append(length)
    return cuts


def _poset_tallies(p: Poset) -> tuple[list[int], list[int], list[int]]:
    """Per level, the elements and the maximal ones; and the proper downsets D_j
    lying entirely below everything else, by size, then p.n.

    Elements with entry <= j lie below level j, so D_j splits off when no
    other element lies below level j: when as many elements have level < j
    as have entry <= j.
    """
    top = p.rank + 1
    level_counts = [0] * top
    max_level_counts = [0] * top
    entered = [0] * (top + 1)
    for lvl, e in zip(p.levels, p.entry):
        level_counts[lvl] += 1
        entered[e] += 1
        if e == top:
            max_level_counts[lvl] += 1
    cuts = []
    below = size = 0
    for j in range(1, top):
        below += level_counts[j - 1]
        size += entered[j]
        if below == size:
            cuts.append(size)
    cuts.append(p.n)
    return level_counts, max_level_counts, cuts


def components(obj) -> list[int]:
    """Sizes of the maximal direct-sum decomposition, left to right."""
    if isinstance(obj, ModifiedAscentSequence):
        cuts = _sequence_cuts(obj.entries)
    elif isinstance(obj, Permutation):
        cuts = _perm_cuts(obj.entries)
    elif isinstance(obj, Poset):
        cuts = _poset_tallies(obj)[2] if obj.n else []
    else:
        raise TypeError(f"no component structure for {type(obj).__name__}")
    sizes = []
    prev = 0
    for c in cuts:
        sizes.append(c - prev)
        prev = c
    return sizes


def direct_sum(a, b):
    """Stack b on top of a; both operands must be of the same family."""
    if isinstance(a, ModifiedAscentSequence) and isinstance(b, ModifiedAscentSequence):
        if len(a) == 0:
            return b
        if len(b) == 0:
            return a
        shift = max(a.entries) + 1
        return _trusted(ModifiedAscentSequence, a.entries + tuple(e + shift for e in b.entries))
    if isinstance(a, Permutation) and isinstance(b, Permutation):
        shift = len(a)
        return _trusted(Permutation, a.entries + tuple(e + shift for e in b.entries))
    if isinstance(a, Poset) and isinstance(b, Poset):
        return _poset_sum(a, b)
    raise TypeError("direct_sum requires two objects of the same family")


def _poset_sum(a: Poset, b: Poset) -> Poset:
    if a.n == 0:
        return b
    if b.n == 0:
        return a
    lift = a.rank + 1
    levels = a.levels + tuple(lvl + lift for lvl in b.levels)
    entry = a.entry + tuple(e + lift for e in b.entry)
    return _trusted(Poset, a.n + b.n, levels, entry)
