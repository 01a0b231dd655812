"""Statistics preserved by the bijections, and the direct-sum structure.

Each of the three main representations carries the same seven-entry
record: number of minimal elements, level of the lowest maximal element
(srank), rank, number of maximal elements, number of direct-sum
components, and two q-polynomials counting all elements (resp. only the
maximal ones) by level.  On sequences the level data lives on the
modified sequence; on permutations it lives in the gaps between active
sites.  The records of an ascent sequence, its permutation and its poset
agree coefficientwise; `stats_of_sequence`, `stats_of_perm` and
`stats_of_poset` compute them by independent routes.
"""

from __future__ import annotations

import bisect

from . import bijections
from .errors import EmptyObjectError
from .objects import (
    AscentSequence,
    ModifiedAscentSequence,
    Permutation,
    Poset,
    _trusted,
    _Value,
    ascents,
)


def right_to_left_maxima(entries) -> list[int]:
    """0-based positions of entries with nothing strictly larger to the right."""
    out = []
    best = None
    for i in range(len(entries) - 1, -1, -1):
        if best is None or entries[i] >= best:
            out.append(i)
            best = entries[i]
    out.reverse()
    return out


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
        return {
            "n": self.size,
            "minimals": self.minimals,
            "srank": self.srank,
            "rank": self.rank,
            "maximals": self.maximals,
            "components": self.components,
            "level_counts": list(self.level_counts),
            "max_level_counts": list(self.max_level_counts),
        }


def stats_of_sequence(x: AscentSequence) -> StatRecord:
    if len(x) == 0:
        raise EmptyObjectError("statistics of the empty sequence are undefined")
    m = bijections.to_modified(x)
    rank = ascents(x.entries)
    level_counts = [0] * (rank + 1)
    for e in m.entries:
        level_counts[e] += 1
    rl_max = right_to_left_maxima(m.entries)
    max_level_counts = [0] * (rank + 1)
    for i in rl_max:
        max_level_counts[m.entries[i]] += 1
    return StatRecord(
        size=len(x),
        minimals=sum(1 for e in x.entries if e == 0),
        srank=x.entries[-1],
        rank=rank,
        maximals=len(rl_max),
        components=len(_sequence_cuts(m.entries)),
        level_counts=tuple(level_counts),
        max_level_counts=tuple(max_level_counts),
    )


def stats_of_perm(pi: Permutation) -> StatRecord:
    if len(pi) == 0:
        raise EmptyObjectError("statistics of the empty permutation are undefined")
    profile = bijections.active_sites(pi)  # raises NotInRError off the family
    sites = profile.sites
    rank = len(sites) - 2  # the levels 0..rank lie between consecutive sites
    gap_counts = [sites[i + 1] - sites[i] for i in range(len(sites) - 1)]
    rl_max = right_to_left_maxima(pi.entries)
    max_gap_counts = [0] * len(gap_counts)
    for pos in rl_max:
        # entry at 0-based pos lies between gap `sites[i]` and `sites[i+1]`
        max_gap_counts[bisect.bisect_right(sites, pos) - 1] += 1
    minimals, least = 0, len(pi) + 1
    for e in pi.entries:  # a running count of the left-to-right minima
        if e < least:
            minimals, least = minimals + 1, e
    return StatRecord(
        size=len(pi),
        minimals=minimals,
        srank=profile.b,
        rank=rank,
        maximals=len(rl_max),
        components=len(_perm_cuts(pi.entries)),
        level_counts=tuple(gap_counts),
        max_level_counts=tuple(max_gap_counts),
    )


def stats_of_poset(p: Poset) -> StatRecord:
    if p.n == 0:
        raise EmptyObjectError("statistics of the empty poset are undefined")
    top = p.rank + 1
    level_counts = [0] * top
    max_level_counts = [0] * top
    for lvl, e in zip(p.levels, p.entry):
        level_counts[lvl] += 1
        if e == top:
            max_level_counts[lvl] += 1
    return StatRecord(
        size=p.n,
        minimals=level_counts[0],
        srank=next(lvl for lvl, count in enumerate(max_level_counts) if count),
        rank=top - 1,
        maximals=sum(max_level_counts),
        components=len(_poset_cuts(p)),
        level_counts=tuple(level_counts),
        max_level_counts=tuple(max_level_counts),
    )


# ---------------------------------------------------------------------------
# Direct sums and components


def _sequence_cuts(entries) -> list[int]:
    """Lengths after which the remaining entries all exceed the prefix max."""
    n = len(entries)
    cuts = []
    suffix_min = [0] * (n + 1)
    running = None
    for i in range(n - 1, -1, -1):
        running = entries[i] if running is None else min(running, entries[i])
        suffix_min[i] = running
    prefix_max = None
    for i, e in enumerate(entries):
        prefix_max = e if prefix_max is None else max(prefix_max, e)
        if i == n - 1 or suffix_min[i + 1] > prefix_max:
            cuts.append(i + 1)
    return cuts


def _perm_cuts(entries) -> list[int]:
    cuts = []
    prefix_max = 0
    for i, e in enumerate(entries):
        prefix_max = max(prefix_max, e)
        if prefix_max == i + 1:
            cuts.append(i + 1)
    return cuts


def _poset_cuts(p: Poset) -> list[int]:
    """Sizes of proper downsets D_j lying entirely below everything else.

    D_j does when no element's interval [level, entry-1] holds both j-1
    and j, that is level < j < entry: `spans` is the difference array of
    the number of such elements, and `entered[j]` counts the elements
    with entry j, which make up D_j with those of smaller entry.
    """
    top = p.rank + 1
    spans = [0] * (top + 1)
    entered = [0] * (top + 1)
    for lvl, e in zip(p.levels, p.entry):
        spans[lvl + 1] += 1
        spans[e] -= 1
        entered[e] += 1
    cuts = []
    crossing = size = 0
    for j in range(1, top):
        crossing += spans[j]
        size += entered[j]
        if not crossing:
            cuts.append(size)
    cuts.append(p.n)
    return cuts


def components(obj) -> list[int]:
    """Sizes of the maximal direct-sum decomposition, left to right."""
    if isinstance(obj, ModifiedAscentSequence):
        cuts = _sequence_cuts(obj.entries)
    elif isinstance(obj, Permutation):
        cuts = _perm_cuts(obj.entries)
    elif isinstance(obj, Poset):
        cuts = _poset_cuts(obj) if obj.n else []
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
