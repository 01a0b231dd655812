"""Bijections between the four families, with ascent sequences as the hub.

* permutations <-> ascent sequences: insert n into the active site whose
  label is the new last entry; active sites of a word are the two ends
  plus every gap following an entry a with a = 1 or a-1 already to its
  left.  Both directions also have a direct description: decoding sorts
  the pairs (modified entry, index) by entry ascending, index
  descending, and reads off the indices; encoding reads the modified
  sequence off the permutation, whose active sites cut it into levels.
* posets <-> ascent sequences: the paper inserts the elements one by
  one; under the canonical labelling element i ends at level m_i of the
  modified sequence m, so `sequence_to_poset` reads the levels off m and
  each entry off the first later ascent top that covers the element.
  The inverse deletes a maximal element of minimal level at each step.
  Levels keep their numbers from the poset, so no step renumbers
  anything: a step that empties a level drops it and one adjacent
  downset, and the elements that entered at that downset become
  maximal.  The deleted levels, in reverse, are m.  Both directions take
  O(n) steps, plus the list inserts of the modified sequence.  No
  relation is built.
* chord involutions <-> posets: a chord diagram is a collection of
  intervals, ordered by "closes before the other opens"; one sweep over
  the endpoints reads off each chord's level and entry.  The inverse
  reads the Fishburn matrix: the chord of an element opens in the
  opener run of its level and closes in the closer run of its entry.
* duality reflects the interval form: dual level = k+1-entry and dual
  entry = k+1-level, where k is the rank.

The canonical labelling of a poset numbers elements in reverse deletion
order (first deleted gets n); under it, element i sits at level m_i where
m is the modified ascent sequence, and reading levels bottom to top (ties
by descending label) spells the corresponding permutation.
"""

from __future__ import annotations

import bisect
import collections
from dataclasses import dataclass

from .errors import NotInRError
from .objects import (
    AscentSequence,
    ChordInvolution,
    ModifiedAscentSequence,
    Permutation,
    Poset,
    _first_neighbour_nesting,
    _trusted,
    r_violation,
)


# ---------------------------------------------------------------------------
# Active sites and the permutation encoding


def _active_gaps(word: list[int] | tuple[int, ...]) -> list[int]:
    """Gap indices 0..len(word) where a new maximum may be inserted.

    Gap g sits between word[g-1] and word[g]; both ends are always active,
    and an interior gap is active iff the entry before it is 1 or has its
    predecessor value somewhere to the left.
    """
    m = len(word)
    if m == 0:
        return [0]
    pos = {v: i for i, v in enumerate(word)}
    gaps = [0]
    for g in range(1, m):
        a = word[g - 1]
        if a == 1 or pos[a - 1] < g - 1:
            gaps.append(g)
    gaps.append(m)
    return gaps


@dataclass(frozen=True)
class ActiveSiteProfile:
    """Active sites of a permutation, as gap indices labelled 0..s-1.

    `b` is the label of the site immediately left of the maximal entry.
    """

    sites: tuple[int, ...]
    b: int

    @property
    def s(self) -> int:
        return len(self.sites)


def active_sites(pi: Permutation) -> ActiveSiteProfile:
    """Active-site profile; raises NotInRError off the family."""
    witness = r_violation(pi)
    if witness is not None:
        raise NotInRError(witness)
    if len(pi) == 0:
        raise ValueError("active sites of the empty permutation are undefined")
    gaps = _active_gaps(pi.entries)
    max_pos = pi.entries.index(len(pi))  # gap index just left of the maximum
    return ActiveSiteProfile(tuple(gaps), gaps.index(max_pos))


def perm_to_sequence(pi: Permutation) -> AscentSequence:
    """Encode a pattern-avoiding permutation by its insertion history.

    The permutation reads the canonical labels level by level, and its
    active sites are exactly the level boundaries (see `poset_to_perm`),
    so the entries between active sites i and i+1 are the labels whose
    modified-sequence entry is i.
    """
    witness = r_violation(pi)
    if witness is not None:
        raise NotInRError(witness)
    sites = _active_gaps(pi.entries)
    m = [0] * len(pi)
    for level, (lo, hi) in enumerate(zip(sites, sites[1:])):
        for v in pi.entries[lo:hi]:
            m[v - 1] = level
    return from_modified(_trusted(ModifiedAscentSequence, tuple(m)))


def sequence_to_perm_by_insertion(x: AscentSequence) -> Permutation:
    """Decode by replaying the insertions into active sites."""
    word: list[int] = []
    for m, label in enumerate(x.entries, start=1):
        gaps = _active_gaps(word)
        word.insert(gaps[label], m)
    return _trusted(Permutation, tuple(word))


def sequence_to_perm(x: AscentSequence) -> Permutation:
    """Decode directly: sort (modified entry, index) pairs.

    Ascending by entry, ties broken by descending index; the index column
    of the sorted pairs is the permutation.
    """
    m = to_modified(x).entries
    order = sorted(range(1, len(m) + 1), key=lambda i: (m[i - 1], -i))
    return _trusted(Permutation, tuple(order))


# ---------------------------------------------------------------------------
# Modified ascent sequences


def to_modified(x: AscentSequence) -> ModifiedAscentSequence:
    """Name the level of every entry, then number the levels bottom to top.

    `order` lists the levels bottom to top, each named by the order in
    which it opened.  An ascent top x_j opens a new level at position x_j,
    below every level then at x_j or above (appended when x_j opens a new
    top level); each entry names the level at position x_j, and m_j is
    the final position of the level it names.
    """
    order = [0]
    named = []
    prev = 0
    for v in x.entries:
        if v > prev:
            order.insert(v, len(order))
        named.append(order[v])
        prev = v
    rank = [0] * len(order)
    for r, level in enumerate(order):
        rank[level] = r
    return _trusted(ModifiedAscentSequence, tuple(map(rank.__getitem__, named)))


def from_modified(m: ModifiedAscentSequence) -> AscentSequence:
    """x_j counts the distinct values among m_1..m_j below m_j.

    A value first occurs at an ascent top, so `seen`, the sorted distinct
    values so far, grows only there.  Every valid `m` is an image.
    """
    seen: list[int] = []
    out = []
    prev = -1
    for v in m.entries:
        if v > prev:
            bisect.insort(seen, v)
        out.append(bisect.bisect_left(seen, v))
        prev = v
    return _trusted(AscentSequence, tuple(out))


# ---------------------------------------------------------------------------
# Posets


def sequence_to_poset(x: AscentSequence) -> Poset:
    """Read the paper's insertions off the modified sequence; labels come out canonical.

    Element i sits at level m_i.  It stays maximal until the first later
    ascent top j with m_j > m_i: inserting j adds the downset that i
    enters.  `bounds` lists the downsets D_1..D_k bottom to top, each
    named by the ascent top j that added it at position x_j (appended
    when x_j opens a new top level), so i's entry is the final position
    of that downset; an element never covered is maximal, with entry k+1.
    """
    xs = x.entries
    m = to_modified(x).entries
    covered_by = [0] * len(xs)  # 0 is never an ascent top: still maximal
    bounds: list[int] = []
    maximal: list[int] = []  # levels decrease towards the top of the stack
    prev = 0
    for j, v in enumerate(xs):
        if v > prev:
            bounds.insert(v, j)
            level = m[j]
            while maximal and m[maximal[-1]] < level:
                covered_by[maximal.pop()] = j
        maximal.append(j)
        prev = v
    entry_of = [len(bounds) + 1] * len(xs)
    for e, j in enumerate(bounds, start=1):
        entry_of[j] = e
    return _trusted(Poset, len(xs), m, tuple(map(entry_of.__getitem__, covered_by)))


def poset_to_sequence(p: Poset) -> AscentSequence:
    """Encode a poset by its deletion history: the deleted levels, reversed, are m."""
    return from_modified(_trusted(ModifiedAscentSequence, _deletion_trace(p)[0]))


def canonical_labelling(p: Poset) -> tuple[int, ...]:
    """canonical_labelling(p)[x-1] is the canonical label of element x.

    The first element deleted gets label n, the next n-1, and so on; the
    canonical label i then sits at level m_i of the modified sequence.
    """
    return _deletion_trace(p)[1]


def _deletion_trace(p: Poset) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Delete a maximal element of minimal level n times; return (m, labels).

    The maximal elements of the minimal level form one cell of the
    Fishburn matrix, and the largest label goes first, which makes the
    canonical labelling deterministic.  Levels keep their numbers from p,
    and `up`/`down` link the levels still present.  `below[i]` is the
    index b of level i's downset D_b, and `cols[b]` lists the elements
    that enter at D_b.  A step that empties level i drops it with the
    downset just above it (the level above then has i's downset), or
    with the one just below it when i is the top level; the elements
    that entered at the dropped downset become maximal, all below every
    level with a maximal element.
    """
    n, k = p.n, p.rank
    levels, entry = p.levels, p.entry
    by_level: list[list[int]] = [[] for _ in range(k + 1)]
    for x, level in enumerate(levels, start=1):
        by_level[level].append(x)
    size = list(map(len, by_level))
    # each column by decreasing level, then increasing label
    cols: list[list[int]] = [[] for _ in range(k + 2)]
    for xs in reversed(by_level):
        for x in xs:
            cols[entry[x - 1]].append(x)
    maximal = cols[k + 1]  # in the same order, so the next to go is last
    up = list(range(1, k + 2))  # k+1: above the top level
    down = list(range(-1, k))
    below = list(range(k + 1))
    m = [0] * n
    labels = [0] * n
    for label in range(n, 0, -1):
        u = maximal.pop()
        i = levels[u - 1]
        labels[u - 1] = label
        m[label - 1] = i
        size[i] -= 1
        if size[i]:
            continue
        j, h = up[i], down[i]
        if j > k:
            b = below[i]
        else:
            b, below[j] = below[j], below[i]
            down[j] = h
        if h >= 0:
            up[h] = j
        maximal += cols[b]
    return tuple(m), tuple(labels)


def poset_to_perm(p: Poset) -> Permutation:
    """Read canonical labels level by level, each level in descending order.

    Equals the permutation of the poset's ascent sequence; the active
    sites of the result are exactly the level boundaries plus both ends.
    """
    canon = canonical_labelling(p)
    by_level: list[list[int]] = [[] for _ in range(p.rank + 1)]
    for x in range(1, p.n + 1):
        by_level[p.levels[x - 1]].append(canon[x - 1])
    word: list[int] = []
    for level in by_level:
        word.extend(sorted(level, reverse=True))
    return _trusted(Permutation, tuple(word))


def dual(p: Poset) -> Poset:
    """Order-reversal: reflect every interval [level, entry-1] in 0..k."""
    top = p.rank + 1
    return _trusted(Poset, p.n, tuple(top - e for e in p.entry),
                    tuple(top - lvl for lvl in p.levels))


# ---------------------------------------------------------------------------
# Chord involutions


def involution_to_poset(c: ChordInvolution) -> Poset:
    """Interval order of the chords: one closes before the other opens.

    Defined on every fixed-point-free involution, nesting-free or not.
    Chord labels follow opener order.  One sweep over the endpoints: an
    opener starts a new level when some chord closed since the previous
    opener, and the chords closed in between enter the chain there.
    """
    n = c.n_chords
    levels: list[int] = []
    entry = [0] * n
    label: dict[int, int] = {}  # opener endpoint -> 0-based chord label
    level, closed = 0, []
    for i, j in enumerate(c.partner, start=1):
        if j < i:
            closed.append(label[j])
            continue
        if closed:
            level += 1
            for a in closed:
                entry[a] = level
            closed = []
        label[i] = len(levels)
        levels.append(level)
    for a in closed:
        entry[a] = level + 1
    return _trusted(Poset, n, tuple(levels), tuple(entry))


def poset_to_involution(p: Poset) -> ChordInvolution:
    """Rebuild the unique nesting-free chord diagram with this interval order.

    Element x is the chord of the interval [level(x), entry(x)-1]: it
    opens in opener run level(x) and closes in the closer run of
    entry(x).  The endpoint word reads the openers of level 0, the
    closers of entry 1, the openers of level 1, the closers of entry 2,
    ..., the openers of level k and the closers of entry k+1, where k is
    the rank.  Within opener run i the chords close under entries i+1,
    ..., k+1 in turn, m_{i,e} of them under entry e, where m_{i,e}
    counts the elements with level i and entry e (the Fishburn matrix),
    each taking the leftmost unused closer of its run; partner values
    must increase along every run, which forces the matching.
    """
    n = p.n
    if n == 0:
        return _trusted(ChordInvolution, ())
    k = p.rank
    counts = collections.Counter(zip(p.levels, p.entry))
    opening = [0] * (k + 1)
    closing = [0] * (k + 2)
    for (level, e), m in counts.items():
        opening[level] += m
        closing[e] += m
    # next_opener[i] and next_closer[e]: the first unused endpoint of a run
    next_opener = [0] * (k + 1)
    next_closer = [0] * (k + 2)
    pos = 1
    for i in range(k + 1):
        next_opener[i] = pos
        pos += opening[i]
        next_closer[i + 1] = pos
        pos += closing[i + 1]
    partner = [0] * (2 * n)
    for (level, e), m in sorted(counts.items()):
        a, b = next_opener[level], next_closer[e]
        partner[a - 1:a - 1 + m] = range(b, b + m)
        partner[b - 1:b - 1 + m] = range(a, a + m)
        next_opener[level] += m
        next_closer[e] += m
    return _trusted(ChordInvolution, tuple(partner))


def swap_endpoints(c: ChordInvolution, i: int) -> ChordInvolution:
    """Conjugate by the transposition (i, i+1): swap two adjacent endpoints."""
    p = c.partner
    if not 1 <= i < len(p):
        raise ValueError(f"no endpoints {i} and {i + 1} among 1..{len(p)}")
    t = lambda x: i + 1 if x == i else i if x == i + 1 else x
    return _trusted(ChordInvolution, tuple(t(p[t(x) - 1]) for x in range(1, len(p) + 1)))


def remove_neighbour_nestings(c: ChordInvolution) -> ChordInvolution:
    """Swap away neighbour nestings, leftmost first, until none remain.

    Each swap preserves the interval order and strictly increases the
    crossing number, so the loop terminates; the result is the
    nesting-free diagram of the same poset regardless of the order in
    which nestings are picked.
    """
    current = c
    while True:
        i = _first_neighbour_nesting(current.partner)
        if i is None:
            return current
        current = swap_endpoints(current, i)
