"""Bijections between the four families, with ascent sequences as the hub.

* permutations <-> ascent sequences: insert n into the active site whose
  label is the new last entry; active sites of a word are the two ends
  plus every gap following an entry a with a = 1 or a-1 already to its
  left.  Both directions also have a direct description: decoding sorts
  the pairs (modified entry, index) by entry ascending, index
  descending, and reads off the indices; encoding reads the modified
  sequence off the permutation, whose active sites cut it into levels.
* posets <-> ascent sequences: repeatedly delete a maximal element of
  minimal level, recording that level; deletion comes in three shapes
  depending on whether the element shares its level and whether it sits
  on top of the chain, and each shape has an inverse insertion.  Both
  directions run on the Fishburn matrix of the interval form, whose cell
  (level, entry) holds the labels of the elements with that level and
  entry.  The three shapes are three matrix edits: take the largest
  label out of a cell; drop the last row and column; drop row i and move
  the column of entry i+1 into the last column.  No relation is built.
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
    ascent_positions,
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
    """Sweep the ascents left to right, bumping earlier entries that would
    collide with the ascent top."""
    work = list(x.entries)
    for i in ascent_positions(x.entries):
        top = work[i + 1]
        for j in range(i + 1):
            if work[j] >= top:
                work[j] += 1
    return _trusted(ModifiedAscentSequence, tuple(work))


def from_modified(m: ModifiedAscentSequence) -> AscentSequence:
    """Invert the sweep (right to left, decrementing); every valid `m` is an image."""
    work = list(m.entries)
    for i in reversed(ascent_positions(m.entries)):
        top = work[i + 1]
        for j in range(i + 1):
            if work[j] > top:
                work[j] -= 1
    return _trusted(AscentSequence, tuple(work))


# ---------------------------------------------------------------------------
# Poset deletion / insertion


class _Row:
    """One level of the matrix state.

    `top` is the cell of its maximal elements, `col` the column of the
    entry equal to its level: the non-empty cells `(row, labels)` of the
    elements that enter there, by increasing level of `row`.  Labels in a
    cell increase.
    """

    __slots__ = ("level", "size", "top", "col")

    def __init__(self, level: int):
        self.level = level
        self.size = 0  # elements at this level
        self.top: list[int] = []
        self.col: list[tuple[_Row, list[int]]] = []


class _PosetState:
    """Mutable Fishburn matrix of an interval order, holding labels.

    Only the non-empty cells are stored, so the state takes memory in
    proportion to n.  `rows[level]` is a `_Row`; the cell (level, entry)
    with entry <= rank sits in the column of `rows[entry]`, and the cell
    (level, rank+1) of the maximal elements is `rows[level].top`.
    `maxrows` lists the rows with a non-empty `top` by decreasing level,
    so its last row is the srank.  Each step moves whole cells between
    columns: a step that adds or drops the top row renumbers no row, and
    one that adds or drops a row in the middle renumbers the rows above.
    """

    __slots__ = ("rows", "maxrows")

    def __init__(self):
        self.rows: list[_Row] = []
        self.maxrows: list[_Row] = []

    @property
    def srank(self) -> int:
        return self.maxrows[-1].level if self.maxrows else -1

    @classmethod
    def from_poset(cls, p: Poset) -> "_PosetState":
        state = cls()
        rows = state.rows = [_Row(level) for level in range(p.rank + 1)]
        by_level: list[list[int]] = [[] for _ in rows]
        for x, level in enumerate(p.levels, start=1):
            by_level[level].append(x)
        top, entry = len(rows), p.entry
        # rows in increasing level, so every column lists its cells in order
        for row, labels in zip(rows, by_level):
            row.size = len(labels)
            for x in labels:
                e = entry[x - 1]
                if e == top:
                    row.top.append(x)
                    continue
                col = rows[e].col
                if col and col[-1][0] is row:
                    col[-1][1].append(x)
                else:
                    col.append((row, [x]))
        state.maxrows = [row for row in reversed(rows) if row.top]
        return state

    def freeze(self) -> Poset:
        """The poset with labels renumbered 1..n in increasing order."""
        level_of: dict[int, int] = {}
        entry_of: dict[int, int] = {}
        top = len(self.rows)
        for row in self.rows:
            for source, labels in row.col:
                for x in labels:
                    level_of[x] = source.level
                    entry_of[x] = row.level
            for x in row.top:
                level_of[x] = row.level
                entry_of[x] = top
        labels = sorted(level_of)
        return _trusted(Poset, len(labels), tuple(map(level_of.__getitem__, labels)),
                        tuple(map(entry_of.__getitem__, labels)))

    def delete_step(self) -> tuple[int, int]:
        """Delete one maximal element of minimal level i; return (i, element).

        Among several order-equivalent candidates (one cell) the one with
        the largest label goes, which makes the deletion order (and hence
        the canonical labelling) deterministic.
        """
        rows, maxrows = self.rows, self.maxrows
        row = maxrows[-1]
        i = row.level
        u = row.top.pop()
        row.size -= 1
        if row.top:
            return i, u
        maxrows.pop()
        if row.size:
            return i, u
        # u was alone at level i, and the rows below i have no maximal elements
        del rows[i]
        if i == len(rows):
            # D_k goes: drop the last row and column, and the column of
            # entry k becomes the last column
            col = row.col
        else:
            # D_{i+1} folds onto D_i: drop row i, the elements entering at
            # i+1 become maximal and later levels and entries shift down
            above = rows[i]
            col, above.col = above.col, row.col
            for r in rows[i:]:
                r.level -= 1
        for source, labels in reversed(col):
            source.top = labels
            maxrows.append(source)
        return i, u

    def insert_step(self, i: int, label: int) -> None:
        """Insert a new maximal element `label` at level i (0 <= i <= rank+1)."""
        rows, maxrows = self.rows, self.maxrows
        if not 0 <= i <= len(rows):
            raise ValueError(f"insertion level {i} out of range")
        if i == len(rows):
            # a new top downset holding every element: the last column
            # becomes the column of the new row
            row = _Row(i)
            for source in reversed(maxrows):
                row.col.append((source, source.top))
                source.top = []
            maxrows.clear()
            rows.append(row)
            maxrows.append(row)
        elif i > self.srank:
            # a new downset after D_i: the new row i takes the column of
            # entry i, the maximal elements below level i enter at i+1 (the
            # old row i), and later levels and entries shift up by one
            row = _Row(i)
            old = rows[i]
            row.col, col = old.col, []
            while maxrows[-1].level < i:
                source = maxrows.pop()
                col.append((source, source.top))
                source.top = []
            old.col = col
            rows.insert(i, row)
            for r in rows[i + 1:]:
                r.level += 1
            maxrows.append(row)
        else:
            row = rows[i]
            if not row.top:
                maxrows.append(row)  # i is below the srank
        row.top.append(label)
        row.size += 1


def poset_to_sequence(p: Poset) -> AscentSequence:
    """Encode a poset by its deletion history (levels, read in reverse)."""
    return _trusted(AscentSequence, _deletion_trace(p)[0])


def canonical_labelling(p: Poset) -> tuple[int, ...]:
    """canonical_labelling(p)[x-1] is the canonical label of element x.

    The first element deleted gets label n, the next n-1, and so on; the
    canonical label i then sits at level m_i of the modified sequence.
    """
    return _deletion_trace(p)[1]


def _deletion_trace(p: Poset) -> tuple[tuple[int, ...], tuple[int, ...]]:
    n = p.n
    if n == 0:
        return (), ()
    state = _PosetState.from_poset(p)
    seq = [0] * n
    labels = [0] * n
    for m in range(n, 1, -1):
        i, u = state.delete_step()
        seq[m - 1] = i
        labels[u - 1] = m
    (row,) = state.rows  # the element left is alone at level 0
    labels[row.top[0] - 1] = 1
    return tuple(seq), tuple(labels)


def sequence_to_poset(x: AscentSequence) -> Poset:
    """Build the poset by replaying insertions; labels come out canonical."""
    state = _PosetState()
    for label, i in enumerate(x.entries, start=1):
        state.insert_step(i, label)
    return state.freeze()


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
