"""Bijections between the four families, with ascent sequences as the hub.

* permutations <-> ascent sequences: insert n into the active site whose
  label is the new last entry; active sites of a word are the two ends
  plus every gap following an entry a with a = 1 or a-1 already to its
  left.  The inverse also has a direct description: sort the pairs
  (modified entry, index) by entry ascending, index descending, and read
  off the indices.
* posets <-> ascent sequences: repeatedly delete a maximal element of
  minimal level, recording that level; deletion comes in three shapes
  depending on whether the element shares its level and whether it sits
  on top of the chain, and each shape has an inverse insertion.  Both
  directions edit the interval form (level and entry per element) in
  place; no relation is built.
* chord involutions <-> posets: a chord diagram is a collection of
  intervals, ordered by "closes before the other opens"; one sweep over
  the endpoints reads off each chord's level and entry.  The inverse
  rebuilds the diagram from the level counts of the poset and of its
  dual, matching opener runs to closer labels greedily.
* duality reflects the interval form: dual level = k+1-entry and dual
  entry = k+1-level, where k is the rank.

The canonical labelling of a poset numbers elements in reverse deletion
order (first deleted gets n); under it, element i sits at level m_i where
m is the modified ascent sequence, and reading levels bottom to top (ties
by descending label) spells the corresponding permutation.
"""

from __future__ import annotations

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
    """Encode a pattern-avoiding permutation by its insertion history."""
    witness = r_violation(pi)
    if witness is not None:
        raise NotInRError(witness)
    word = list(pi.entries)
    n = len(word)
    out = [0] * n
    for m in range(n, 1, -1):
        g = word.index(m)
        del word[g]
        gaps = _active_gaps(word)
        out[m - 1] = gaps.index(g)
    return _trusted(AscentSequence, tuple(out))


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


class _PosetState:
    """Mutable interval form used by the poset bijection.

    `levels` and `entry` map each element label to its level and to the
    first chain index whose downset holds it (`rank + 1` when maximal).
    """

    __slots__ = ("levels", "entry", "rank")

    def __init__(self, levels: dict[int, int], entry: dict[int, int], rank: int):
        self.levels = levels
        self.entry = entry
        self.rank = rank

    @classmethod
    def from_poset(cls, p: Poset) -> "_PosetState":
        labels = range(1, p.n + 1)
        return cls(dict(zip(labels, p.levels)), dict(zip(labels, p.entry)), p.rank)

    def freeze(self) -> Poset:
        """The poset with labels renumbered 1..n in increasing order."""
        labels = sorted(self.levels)
        return _trusted(Poset, len(labels), tuple(self.levels[x] for x in labels),
                        tuple(self.entry[x] for x in labels))

    def maximal(self) -> list[int]:
        top = self.rank + 1
        return [x for x, e in self.entry.items() if e == top]

    def srank(self) -> int:
        return min(self.levels[x] for x in self.maximal())

    def delete_step(self) -> tuple[int, int]:
        """Delete one maximal element of minimal level i; return (i, element).

        Among several order-equivalent candidates the one with the largest
        label goes, which makes the deletion order (and hence the canonical
        labelling) deterministic.
        """
        i = self.srank()
        level_i = [x for x, lvl in self.levels.items() if lvl == i]
        if len(level_i) > 1:
            u = max(x for x in self.maximal() if self.levels[x] == i)
        elif i == self.rank:
            # D_k goes, so an entry of k now marks a maximal element
            (u,) = level_i
            self.rank -= 1
        else:
            # D_{i+1} folds onto D_i: the elements entering at i+1
            # become maximal and later entries shift down
            (u,) = level_i
            for x, e in self.entry.items():
                if e == i + 1:
                    self.entry[x] = self.rank
                elif e > i + 1:
                    self.entry[x] = e - 1
            for x, lvl in self.levels.items():
                if lvl > i:
                    self.levels[x] = lvl - 1
            self.rank -= 1
        del self.levels[u], self.entry[u]
        return i, u

    def insert_step(self, i: int, label: int) -> None:
        """Insert a new maximal element `label` at level i (0 <= i <= rank+1)."""
        if not self.levels:
            if i != 0:
                raise ValueError("first element must enter at level 0")
        elif not 0 <= i <= self.rank + 1:
            raise ValueError(f"insertion level {i} out of range")
        elif i == self.rank + 1:
            # a new top downset holding every element
            self.rank += 1
        elif i > self.srank():
            # a new downset after D_i: the maximal elements below level i
            # enter there, and everything above shifts up by one
            top = self.rank + 1
            for x, e in self.entry.items():
                if e == top and self.levels[x] < i:
                    self.entry[x] = i + 1
                elif e > i:
                    self.entry[x] = e + 1
            for x, lvl in self.levels.items():
                if lvl >= i:
                    self.levels[x] = lvl + 1
            self.rank += 1
        self.levels[label] = i
        self.entry[label] = self.rank + 1


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
    (last,) = state.levels
    labels[last - 1] = 1
    return tuple(seq), tuple(labels)


def sequence_to_poset(x: AscentSequence) -> Poset:
    """Build the poset by replaying insertions; labels come out canonical."""
    if len(x) == 0:
        return Poset.empty()
    state = _PosetState({}, {}, 0)
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

    The endpoint word reads m_0 openers, n_k closers, m_1 openers,
    n_{k-1} closers, ..., m_k openers, n_0 closers, where m_i and n_i
    count the elements at level i of the poset and of its dual.  Openers
    in run i carry label i, closers in the run after opener run i carry
    label k-i.  Within opener run i the chords close under labels
    k, k-1, ..., 0 with multiplicities m_{i,j} = #{elements at level i
    whose dual level is j}, each taking the leftmost unused closer of its
    label; partner values must increase along every run, which forces the
    matching.
    """
    n = p.n
    if n == 0:
        return _trusted(ChordInvolution, ())
    p_dual = dual(p)
    k = p.rank
    m_counts = [0] * (k + 1)
    n_counts = [0] * (k + 1)
    pair_counts: dict[tuple[int, int], int] = {}
    for x in range(1, n + 1):
        i, j = p.levels[x - 1], p_dual.levels[x - 1]
        m_counts[i] += 1
        n_counts[j] += 1
        pair_counts[(i, j)] = pair_counts.get((i, j), 0) + 1

    opener_runs: list[list[int]] = []
    closers_by_label: dict[int, list[int]] = {j: [] for j in range(k + 1)}
    pos = 1
    for i in range(k + 1):
        opener_runs.append(list(range(pos, pos + m_counts[i])))
        pos += m_counts[i]
        label = k - i
        closers_by_label[label].extend(range(pos, pos + n_counts[label]))
        pos += n_counts[label]

    partner = [0] * (2 * n)
    next_closer = {j: 0 for j in range(k + 1)}
    for i in range(k + 1):
        openers = iter(opener_runs[i])
        for j in range(k, -1, -1):
            for _ in range(pair_counts.get((i, j), 0)):
                a = next(openers)
                b = closers_by_label[j][next_closer[j]]
                next_closer[j] += 1
                partner[a - 1], partner[b - 1] = b, a
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
