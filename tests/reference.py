"""Reference computations that the tests compare the library against.

None of these is on a library path: each is a second, plainly written
route to an answer the library computes another way, or a view of a
library value that only the tests need.
"""

from __future__ import annotations

import bisect
import collections
import itertools
import json
import operator
import re
from collections.abc import Iterable, Iterator
from math import comb
from operator import mul

from fishburn import (
    AscentSequence,
    BivincularPattern,
    ChordInvolution,
    CountTable,
    ModifiedAscentSequence,
    Permutation,
    Poset,
    RelationMatrix,
    StatRecord,
    to_modified,
)
from fishburn.bijections import _active_gaps
from fishburn.errors import (
    EmptyObjectError,
    FishburnError,
    FixedPointError,
    NotAscentSequenceError,
    NotInRError,
    NotInvolutionError,
    NotModifiedSequenceError,
    NotPartialOrderError,
    NotPermutationError,
    NotTwoPlusTwoFreeError,
    ParseError,
)
from fishburn.objects import _first_neighbour_nesting


def standardize(values: Iterable[int]) -> Permutation:
    """Relabel distinct integers order-isomorphically onto 1..k."""
    values = tuple(values)
    order = {v: r for r, v in enumerate(sorted(values), start=1)}
    return Permutation(tuple(order[v] for v in values))


def right_to_left_minima(entries) -> list[int]:
    """0-based positions of entries with nothing strictly smaller to the right."""
    out = []
    best = None
    for i in range(len(entries) - 1, -1, -1):
        if best is None or entries[i] <= best:
            out.append(i)
            best = entries[i]
    out.reverse()
    return out


def left_to_right_minima(entries) -> int:
    """Number of entries smaller than every entry to their left."""
    return sum(1 for i, e in enumerate(entries) if all(e < f for f in entries[:i]))


# ---------------------------------------------------------------------------
# Views of the value classes, read off their public fields


def ascents(entries) -> int:
    """Number of strict ascents of an integer sequence."""
    return sum(1 for a, b in zip(entries, entries[1:]) if a < b)


def poset_less(p: Poset, x: int, y: int) -> bool:
    """x < y in p: entry(x) <= level(y)."""
    return p.entry[x - 1] <= p.levels[y - 1]


def poset_srank(p: Poset) -> int:
    """The minimum level containing a maximal element."""
    if p.n == 0:
        raise ValueError("srank of the empty poset is undefined")
    top = p.rank + 1  # the entry of the maximal elements
    return min(level for level, e in zip(p.levels, p.entry) if e == top)


def relation_less(rel: RelationMatrix, a: int, b: int) -> bool:
    """Whether (a, b) is a pair of rel, by bisection of its sorted pairs."""
    i = bisect.bisect_left(rel.pairs, (a, b))
    return i < len(rel.pairs) and rel.pairs[i] == (a, b)


def is_opener(c: ChordInvolution, i: int) -> bool:
    return c.partner[i - 1] > i


def chords(c: ChordInvolution) -> list[tuple[int, int]]:
    """Chords (opener, closer) sorted by opener."""
    return [(i, v) for i, v in enumerate(c.partner, start=1) if v > i]


def mirror(c: ChordInvolution) -> ChordInvolution:
    """The chord diagram reflected left to right."""
    m = len(c.partner)
    return ChordInvolution(tuple(m + 1 - c.partner[m - i] for i in range(1, m + 1)))


def active_sites(pi: Permutation) -> tuple[tuple[int, ...], int]:
    """The active sites of pi as gap indices, labelled 0..s-1 (`bijections._active_gaps`),
    and the label of the site immediately left of the maximal entry.  Raises
    NotInRError off the family."""
    if len(pi) == 0:
        raise ValueError("active sites of the empty permutation are undefined")
    sites = _active_gaps(pi.entries)
    return tuple(sites), sites.index(pi.entries.index(len(pi)))


def active_gaps_by_dict(word) -> list[int]:
    """`bijections._active_gaps` with the positions of the values in a dict."""
    m = len(word)
    if m == 0:
        return [0]
    pos = {v: i for i, v in enumerate(word)}
    gaps = [0]
    for g in range(1, m):
        a = word[g - 1]
        if a == 1 or pos[a - 1] < g - 1:
            gaps.append(g)
        elif a < word[g]:
            raise NotInRError((g, g + 1, pos[a - 1] + 1))
    gaps.append(m)
    return gaps


# ---------------------------------------------------------------------------
# Statistics: the records and components by separate passes, one per field


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


def stats_of_sequence_by_passes(x: AscentSequence) -> StatRecord:
    """Rank and srank off x; levels and right-to-left maxima off its modified sequence."""
    if len(x) == 0:
        raise EmptyObjectError("statistics of the empty sequence are undefined")
    m = to_modified(x)
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
        components=len(sequence_cuts_by_passes(m.entries)),
        level_counts=tuple(level_counts),
        max_level_counts=tuple(max_level_counts),
    )


def stats_of_perm_by_passes(pi: Permutation) -> StatRecord:
    """Levels between the active sites of `active_sites`; each right-to-left
    maximum's level by bisection."""
    if len(pi) == 0:
        raise EmptyObjectError("statistics of the empty permutation are undefined")
    sites, srank = active_sites(pi)
    gap_counts = [sites[i + 1] - sites[i] for i in range(len(sites) - 1)]
    rl_max = right_to_left_maxima(pi.entries)
    max_gap_counts = [0] * len(gap_counts)
    for pos in rl_max:
        max_gap_counts[bisect.bisect_right(sites, pos) - 1] += 1
    minimals, least = 0, len(pi) + 1
    for e in pi.entries:  # a running count of the left-to-right minima
        if e < least:
            minimals, least = minimals + 1, e
    return StatRecord(
        size=len(pi),
        minimals=minimals,
        srank=srank,
        rank=len(sites) - 2,
        maximals=len(rl_max),
        components=len(perm_cuts_by_passes(pi.entries)),
        level_counts=tuple(gap_counts),
        max_level_counts=tuple(max_gap_counts),
    )


def stats_of_poset_by_passes(p: Poset) -> StatRecord:
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
        components=len(poset_cuts_by_spans(p)),
        level_counts=tuple(level_counts),
        max_level_counts=tuple(max_level_counts),
    )


def sequence_cuts_by_passes(entries) -> list[int]:
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


def perm_cuts_by_passes(entries) -> list[int]:
    cuts = []
    prefix_max = 0
    for i, e in enumerate(entries):
        prefix_max = max(prefix_max, e)
        if prefix_max == i + 1:
            cuts.append(i + 1)
    return cuts


def poset_cuts_by_spans(p: Poset) -> list[int]:
    """Sizes of proper downsets D_j lying entirely below everything else, then p.n.

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


def components_by_passes(obj) -> list[int]:
    """Sizes of the maximal direct-sum decomposition, left to right."""
    if isinstance(obj, ModifiedAscentSequence):
        cuts = sequence_cuts_by_passes(obj.entries)
    elif isinstance(obj, Permutation):
        cuts = perm_cuts_by_passes(obj.entries)
    else:
        cuts = poset_cuts_by_spans(obj) if obj.n else []
    return [b - a for a, b in zip([0] + cuts, cuts)]


# ---------------------------------------------------------------------------
# Chord involutions: two more routes to the descent condition of `in_I2n`


def runs_increasing(c: ChordInvolution) -> bool:
    """Partner values increase along every maximal opener run and closer run."""
    p = c.partner
    for i in range(1, len(p)):
        same_kind = is_opener(c, i) == is_opener(c, i + 1)
        if same_kind and p[i - 1] > p[i]:
            return False
    return True


def neighbour_nesting_positions(c: ChordInvolution) -> list[int]:
    """Positions i such that the chords at i and i+1 are nested.

    Checked geometrically: with chords (a1,b1) at i and (a2,b2) at i+1,
    nesting means one interval strictly contains the other.  A single
    chord joining i to i+1 never counts.
    """
    out = []
    p = c.partner
    for i in range(1, len(p)):
        if p[i - 1] == i + 1:
            continue
        a1, b1 = min(i, p[i - 1]), max(i, p[i - 1])
        a2, b2 = min(i + 1, p[i]), max(i + 1, p[i])
        if a1 < a2 <= b2 < b1 or a2 < a1 <= b1 < b2:
            out.append(i)
    return out


def swap_endpoints(c: ChordInvolution, i: int) -> ChordInvolution:
    """Conjugate by the transposition (i, i+1): swap two adjacent endpoints."""
    p = c.partner
    if not 1 <= i < len(p):
        raise ValueError(f"no endpoints {i} and {i + 1} among 1..{len(p)}")
    t = lambda x: i + 1 if x == i else i if x == i + 1 else x
    return ChordInvolution(tuple(t(p[t(x) - 1]) for x in range(1, len(p) + 1)))


def remove_neighbour_nestings_by_rescanning(c: ChordInvolution) -> ChordInvolution:
    """Swap the leftmost neighbour nesting, rescanning from the left, until none remains.

    A new tuple per swap and a rescan after each: cubic on a diagram with
    many nestings.
    """
    while (i := _first_neighbour_nesting(c.partner)) is not None:
        c = swap_endpoints(c, i)
    return c


# ---------------------------------------------------------------------------
# Patterns


def enumerate_patterns(k: int) -> Iterator[BivincularPattern]:
    """All 4^{k+1} k! patterns of length k."""
    subsets = list(itertools.chain.from_iterable(
        itertools.combinations(range(k + 1), r) for r in range(k + 2)))
    for entries in itertools.permutations(range(1, k + 1)):
        sigma = Permutation(entries)
        for X in subsets:
            for Y in subsets:
                yield BivincularPattern(sigma, frozenset(X), frozenset(Y))


def occurrences_by_subsequences(pi: Permutation, p: BivincularPattern) -> Iterator[tuple[int, ...]]:
    """Every occurrence, in lexicographic order of positions, by testing
    every subsequence against the raw definition."""
    n, k = len(pi), len(p.sigma)
    for positions in itertools.combinations(range(1, n + 1), k):
        values = tuple(pi.entries[i - 1] for i in positions)
        if standardize(values).entries != p.sigma.entries:
            continue
        i = (0,) + positions + (n + 1,)
        j = (0,) + tuple(sorted(values)) + (n + 1,)
        if all(i[x + 1] == i[x] + 1 for x in p.X) and \
           all(j[y + 1] == j[y] + 1 for y in p.Y):
            yield positions


def contains_by_subsequences(pi: Permutation, p: BivincularPattern) -> bool:
    return any(True for _ in occurrences_by_subsequences(pi, p))


# ---------------------------------------------------------------------------
# The public constructors' checks, element by element
#
# Each takes a constructor's fields and returns what the constructor
# stores, or raises the error it raises, with the same message.


def exact_int(v, error: str = "not an integer: {!r}") -> int:
    """The integer rule of every constructor field: a string is read as `int`
    reads it, a value that `int` cannot read raises `int`'s message, and any
    other value must keep its value under `int`, else `error` names it."""
    if v in (float("inf"), float("-inf")):
        raise FishburnError(error.format(v))
    try:
        i = int(v)
    except (TypeError, ValueError) as exc:
        raise FishburnError(str(exc)) from None
    if not isinstance(v, (str, bytes, bytearray)) and i != v:
        raise FishburnError(error.format(v))
    return i


def exact_ints(values) -> tuple[int, ...]:
    """Every member by `exact_int`; a value that is not iterable raises the message of `iter`."""
    try:
        members = iter(values)
    except TypeError as exc:
        raise FishburnError(str(exc)) from None
    return tuple(exact_int(v) for v in members)


def sequence_entries_by_scanning(entries) -> tuple[int, ...]:
    """AscentSequence: x_1 = 0 and 0 <= x_i <= 1 + asc(x_1..x_{i-1})."""
    entries = exact_ints(entries)
    if entries and entries[0] != 0:
        raise NotAscentSequenceError(1)
    asc = 0
    for i in range(1, len(entries)):
        if not 0 <= entries[i] <= 1 + asc:
            raise NotAscentSequenceError(i + 1)
        if entries[i] > entries[i - 1]:
            asc += 1
    return entries


def modified_entries_by_scanning(entries) -> tuple[int, ...]:
    """ModifiedAscentSequence: y_1 = 0, the values are 0..max, and y_i is
    the first of its value exactly when y_{i-1} < y_i."""
    entries = exact_ints(entries)
    ok = not entries or (entries[0] == 0 and min(entries) >= 0
                         and len(set(entries)) == max(entries) + 1)
    for i in range(1, len(entries)):
        ok = ok and (entries[i] in entries[:i]) == (entries[i - 1] >= entries[i])
    if not ok:
        raise NotModifiedSequenceError(f"not a modified ascent sequence: {entries}")
    return entries


def permutation_entries_by_scanning(entries) -> tuple[int, ...]:
    entries = exact_ints(entries)
    if sorted(entries) != list(range(1, len(entries) + 1)):
        raise NotPermutationError(f"not a permutation of 1..n: {entries}")
    return entries


def poset_fields_by_scanning(n, levels, entry) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Poset: 0 <= level < entry <= k+1 for every element, every level
    0..k occupied and every entry 1..k taken, where k is the top level.

    It keeps a flag per level, so a huge level costs memory here.
    """
    levels = exact_ints(levels)
    entry = exact_ints(entry)
    # a size that int() would change matches no number of elements
    n = exact_int(n, "levels and entry must assign one value to each of 1..n")
    if n < 0 or len(levels) != n or len(entry) != n:
        raise FishburnError("levels and entry must assign one value to each of 1..n")
    k = max(levels, default=0)
    occupied = [False] * (k + 1)
    entered = [False] * (k + 2)
    for x, (lvl, e) in enumerate(zip(levels, entry), start=1):
        if not 0 <= lvl < e <= k + 1:
            raise FishburnError(f"element {x} needs 0 <= level < entry <= k+1")
        occupied[lvl] = entered[e] = True
    if n and not all(occupied):
        raise FishburnError("every level 0..k must be occupied")
    if not all(entered[1:k + 1]):
        raise FishburnError("downsets must form a strictly increasing chain")
    return levels, entry


# ---------------------------------------------------------------------------
# Posets: the sorted-pairs counting reader of JSON lines, with its own
# relation route, kept as the oracle of `parse_poset` and
# `poset_from_relations`


def _counted_poset_by_pair_count(n: int, pairs) -> Poset | None:
    """The interval order whose relation is `pairs` (distinct, in 1..n), or None.

    The levels are read off the downset sizes and each entry is the least
    level above the element, so every pair lies in the relation of that
    form; when the form implies as many pairs as were read, they are all
    of it, and it is an interval order when level < entry everywhere.
    """
    sizes = [0] * n
    for _, b in pairs:
        sizes[b - 1] += 1
    level_of_size = {size: level for level, size in enumerate(sorted(set(sizes)))}
    levels = list(map(level_of_size.__getitem__, sizes))
    k = len(level_of_size) - 1
    entry = [k + 1] * n
    for a, b in pairs:
        entry[a - 1] = min(entry[a - 1], levels[b - 1])
    per_level = collections.Counter(levels)
    per_entry = collections.Counter(entry)
    implied = entered = 0
    for j in range(k + 1):
        entered += per_entry[j]
        implied += per_level[j] * entered
    if implied == len(pairs) and all(map(operator.lt, levels, entry)):
        return Poset(n, tuple(levels), tuple(entry))
    return None


def poset_from_relations_by_counting(rel: RelationMatrix) -> Poset:
    """The interval form of `rel` by the pair count, else the first witness:
    a reflexive pair, a transitivity failure (the first pair in sorted
    order, with the least third label) or a 2+2 (the first two downsets,
    by label, that are incomparable)."""
    pairs = rel.pairs
    poset = _counted_poset_by_pair_count(rel.n, pairs)
    if poset is not None:
        return poset
    for a, b in pairs:
        if a == b:
            raise NotPartialOrderError(f"reflexive pair ({a},{b})")
    succ, down = collections.defaultdict(set), collections.defaultdict(set)
    for a, b in pairs:
        succ[a].add(b)
        down[b].add(a)
    for a, b in pairs:
        missing = succ[b] - succ[a]
        if missing:
            raise NotPartialOrderError(f"transitivity fails on {a} < {b} < {min(missing)}")
    for x, y in itertools.combinations(sorted(down), 2):
        dx, dy = down[x] - down[y], down[y] - down[x]
        if dx and dy:
            raise NotTwoPlusTwoFreeError((x, min(dx), y, min(dy)))
    raise AssertionError("no interval order, yet no witness found")


def parse_poset_by_counting(text: str) -> Poset:
    """A poset line read by `json.loads`, as the library read it before the
    canonical route: typed, then counted as decoded when its pairs are
    strictly increasing and in 1..n, else through `RelationMatrix`."""
    try:
        data = json.loads(text)
        n, pairs = data["n"], data["relations"]
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise ParseError(f"bad poset literal: {text!r}") from exc
    if type(n) is not int or type(pairs) is not list or not all(
            type(pair) is list and len(pair) == 2 and type(pair[0]) is type(pair[1]) is int
            for pair in pairs):
        raise ParseError(f"bad poset literal, need an integer n and integer pairs: {text!r}")
    if pairs and all(map(operator.lt, pairs, pairs[1:])) and all(
            1 <= a <= n and 1 <= b <= n for a, b in pairs):
        poset = _counted_poset_by_pair_count(n, pairs)
        if poset is not None:
            return poset
    try:
        relation = RelationMatrix(n, pairs)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    return poset_from_relations_by_counting(relation)


def partner_by_scanning(partner) -> tuple[int, ...]:
    """ChordInvolution: a fixed-point-free involution of 1..m."""
    partner = exact_ints(partner)
    m = len(partner)
    if m % 2:
        raise NotInvolutionError("odd number of endpoints")
    if sorted(partner) != list(range(1, m + 1)):
        raise NotInvolutionError(f"not a permutation of 1..{m}: {partner}")
    for i, v in enumerate(partner, start=1):
        if v == i:
            raise FixedPointError(f"fixed point at {i}")
        if partner[v - 1] != i:
            raise NotInvolutionError(f"partner of {i} and {v} disagree")
    return partner


# ---------------------------------------------------------------------------
# Text forms


def parse_sequence_by_int(text: str) -> tuple[int, ...]:
    """The sequence reader with every entry read by `int()`."""
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ParseError(f"bad sequence literal: {text!r}")
    body = text[1:-1].strip()
    if not body:
        return ()
    try:
        return tuple(int(token) for token in body.split(","))
    except ValueError as exc:
        raise ParseError(f"bad sequence literal: {text!r}") from exc


def parse_permutation_by_int(text: str) -> Permutation:
    """The permutation reader with every entry read by `int()`, checked by the public constructor."""
    tokens = text.split()
    if not tokens:
        raise ParseError("empty permutation literal")
    try:
        entries = tuple(int(token) for token in tokens)
    except ValueError as exc:
        raise ParseError(f"bad permutation literal: {text!r}") from exc
    return Permutation(entries)


def parse_involution_by_scanning(text: str) -> ChordInvolution:
    """The chord-list reader that finds the chords, then checks what is left.

    Every chord match is read and the body is cut at the matches: the
    pieces before the first chord and after the last must be whitespace,
    and each piece between two chords one comma with whitespace around it.
    """
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ParseError(f"bad involution literal: {text!r}")
    body = text[1:-1].strip()
    chords = []
    if body:
        try:
            for m in re.finditer(r"\(\s*(\d+)\s*,\s*(\d+)\s*\)", body):
                chords.append((int(m.group(1)), int(m.group(2))))
        except ValueError as exc:  # an endpoint with more digits than int() reads
            raise ParseError(f"bad involution literal: {text!r}") from exc
        pieces = [piece.strip() for piece in re.split(r"\(\s*\d+\s*,\s*\d+\s*\)", body)]
        if not chords or pieces[0] or pieces[-1] or any(piece != "," for piece in pieces[1:-1]):
            raise ParseError(f"bad involution literal: {text!r}")
    m = 2 * len(chords)
    partner = [0] * m
    for a, b in chords:
        if not (1 <= a <= m and 1 <= b <= m) or partner[a - 1] or partner[b - 1]:
            raise NotInvolutionError(f"bad chord list: {text!r}")
        partner[a - 1], partner[b - 1] = b, a
    return ChordInvolution(tuple(partner))


# ---------------------------------------------------------------------------
# Series: the paper's product form sum_n prod_{i=1..n} (1 - (1-t)^i)


def level_coefficients(k: int, width: int) -> list[int]:
    """(1 - (1-t)^k) / t, exactly, truncated to its first `width` coefficients."""
    return [comb(k, j) if j & 1 else -comb(k, j) for j in range(1, min(k, width) + 1)]


def _times_level(k: int, poly: list[int], width: int) -> list[int]:
    """The first `width` coefficients of poly * (1 - (1-t)^k) / t.

    `poly` must hold at least `width` coefficients.
    """
    g = level_coefficients(k, width)
    return [sum(map(mul, g, poly[j::-1])) for j in range(width)]


def p_series_by_products(order: int) -> list[int]:
    """p_0..p_order from the paper's product formula.

    Horner form: with f_k = 1 - (1-t)^k, the sum is H_1 where
    H_k = 1 + f_k H_{k+1} and H_{order+1} = 1.  Each f_k is divisible by
    t, so H_k is needed only up to t^(order-k+1).
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    h = [1]
    for k in range(order, 0, -1):
        h = [1, *_times_level(k, h, order - k + 1)]
    return h


def p_series_by_prefix_sums(order: int) -> list[int]:
    """p_0..p_order from the Andrews-Jelinek form, by prefix sums only.

    The same Horner form as `series.p_series`, K_k = 1 + x^-1 (1 - x^-k)^2
    K_{k+1} with x = 1-t, but every level divides by x in 2k+1 prefix-sum
    passes, however short its list: y = x^-k K_{k+1}, z = x^-k y, and K_k
    is 1 plus one more prefix sum of K_{k+1} - 2y + z.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    h = [1]
    for k in range(order // 2, 0, -1):
        h += [0] * (order + 3 - 2 * k - len(h))
        y = h
        for _ in range(k):
            y = list(itertools.accumulate(y))
        z = y
        for _ in range(k):
            z = list(itertools.accumulate(z))
        h = list(itertools.accumulate(a - 2 * b + c for a, b, c in zip(h, y, z)))
        h[0] += 1
    return list(itertools.accumulate(h + [0] * (order + 1 - len(h))))


def product_polynomial(n: int, t_order: int) -> list[int]:
    """prod_{i=1..n} (1 - (1-t)^i) as a truncated t-polynomial.

    The product of the first i factors is divisible by t^i, so only its
    coefficients from t^i up are kept.
    """
    if n > t_order:
        return [0] * (t_order + 1)
    tail = [1] + [0] * t_order
    for i in range(1, n + 1):
        tail = _times_level(i, tail, t_order - i + 1)
    return [0] * n + tail


# ---------------------------------------------------------------------------
# A sparse series ring
#
# The library holds its series as u-rows of t-coefficient lists and
# never multiplies two of them.  `TruncatedSeries` and the products,
# powers and inverses below are the oracle forms that the row-by-row
# library code is checked against.


class TruncatedSeries:
    """Sparse exact series in t, u, v; truncated at t_order (and u_order if set)."""

    __slots__ = ("t_order", "u_order", "coeffs")

    def __init__(self, t_order: int, coeffs: dict[tuple[int, int, int], int] | None = None,
                 u_order: int | None = None):
        self.t_order = int(t_order)
        self.u_order = u_order
        if self.t_order < 0 or (u_order is not None and u_order < 0):
            raise ValueError(f"truncation orders must be >= 0, got t {t_order}, u {u_order}")
        data = {}
        for (dt, du, dv), c in (coeffs or {}).items():
            if dt < 0 or du < 0 or dv < 0:
                raise ValueError(f"negative exponent in {(dt, du, dv)}")
            if c and dt <= self.t_order and (u_order is None or du <= u_order):
                data[dt, du, dv] = c
        self.coeffs = data

    @classmethod
    def zero(cls, t_order: int, u_order: int | None = None) -> TruncatedSeries:
        return cls(t_order, {}, u_order)

    @classmethod
    def one(cls, t_order: int, u_order: int | None = None) -> TruncatedSeries:
        return cls(t_order, {(0, 0, 0): 1}, u_order)

    @classmethod
    def monomial(cls, c: int, dt: int = 0, du: int = 0, dv: int = 0, *,
                 t_order: int, u_order: int | None = None) -> TruncatedSeries:
        return cls(t_order, {(dt, du, dv): c}, u_order)

    def _check_compatible(self, other: TruncatedSeries) -> None:
        if self.t_order != other.t_order or self.u_order != other.u_order:
            raise ValueError("mixed truncation orders")

    def __add__(self, other):
        if isinstance(other, int):
            other = TruncatedSeries.monomial(other, t_order=self.t_order, u_order=self.u_order)
        self._check_compatible(other)
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            out[key] = out.get(key, 0) + c
        return TruncatedSeries(self.t_order, out, self.u_order)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries(self.t_order, {k: -c for k, c in self.coeffs.items()}, self.u_order)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __eq__(self, other):
        return (isinstance(other, TruncatedSeries)
                and self.t_order == other.t_order
                and self.u_order == other.u_order
                and self.coeffs == other.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def subs_v_one(self) -> TruncatedSeries:
        out: dict[tuple[int, int, int], int] = {}
        for (dt, du, _dv), c in self.coeffs.items():
            out[dt, du, 0] = out.get((dt, du, 0), 0) + c
        return TruncatedSeries(self.t_order, out, self.u_order)

    def __repr__(self):
        terms = ", ".join(f"{k}: {c}" for k, c in sorted(self.coeffs.items()))
        return f"TruncatedSeries(t<= {self.t_order}, u<= {self.u_order}, {{{terms}}})"


def from_rows(rows: list[list[int]], u_order: int | None = None) -> TruncatedSeries:
    """sum_u u^u rows[u](t), truncated at t^(len(row) - 1) and at u^u_order.

    Every row must have the same length and, with a u order, there must
    be at most u_order + 1 rows, so that no coefficient is dropped.
    """
    t_order = len(rows[0]) - 1
    if any(len(row) != t_order + 1 for row in rows):
        raise ValueError("rows of different lengths")
    if u_order is not None and len(rows) > u_order + 1:
        raise ValueError(f"{len(rows)} rows past u^{u_order}")
    return TruncatedSeries(t_order, {(dt, du, 0): c for du, row in enumerate(rows)
                                     for dt, c in enumerate(row)}, u_order)


def cells(s: TruncatedSeries) -> list[tuple[int, int, int, int]]:
    """The nonzero coefficients as sorted (t, u, v, c): `verify_functional_equation`'s form."""
    return sorted((*key, c) for key, c in s.coeffs.items())


def tu_cells(s: TruncatedSeries) -> list[tuple[int, int, int]]:
    """The nonzero coefficients as sorted (t, u, c): the form of the checks in t and u alone."""
    if any(dv for _, _, dv in s.coeffs):
        raise ValueError("series has v terms")
    return [(t, u, c) for t, u, _, c in cells(s)]


def times(a: TruncatedSeries, *factors: TruncatedSeries | int) -> TruncatedSeries:
    """a times each factor in turn, truncated at a's orders; a factor may be an integer."""
    for b in factors:
        if isinstance(b, int):
            a = TruncatedSeries(a.t_order, {k: b * c for k, c in a.coeffs.items()}, a.u_order)
            continue
        a._check_compatible(b)
        nt, nu = a.t_order, a.u_order
        out: dict[tuple[int, int, int], int] = {}
        get = out.get
        b_items = list(b.coeffs.items())
        for (t1, u1, v1), c1 in a.coeffs.items():
            for (t2, u2, v2), c2 in b_items:
                if t1 + t2 <= nt and (nu is None or u1 + u2 <= nu):
                    key = (t1 + t2, u1 + u2, v1 + v2)
                    out[key] = get(key, 0) + c1 * c2
        a = TruncatedSeries(nt, out, nu)
    return a


def power(s: TruncatedSeries, k: int) -> TruncatedSeries:
    """s ** k by repeated squaring."""
    if k < 0:
        raise ValueError("negative power")
    result = TruncatedSeries.one(s.t_order, s.u_order)
    base = s
    while k:
        if k & 1:
            result = times(result, base)
        base = times(base, base) if k > 1 else base
        k >>= 1
    return result


def u_to_uv(s: TruncatedSeries) -> TruncatedSeries:
    """Substitute u -> uv (each u also contributes a v)."""
    return TruncatedSeries(s.t_order, {(dt, du, dv + du): c
                                       for (dt, du, dv), c in s.coeffs.items()}, s.u_order)


def _t_mul(a: list[int], b: list[int], order: int) -> list[int]:
    out = [0] * (order + 1)
    _t_mul_into(out, a, b, order)
    return out


def _t_mul_into(out: list[int], a: list[int], b: list[int], order: int) -> None:
    for i, ai in enumerate(a):
        if ai == 0 or i > order:
            continue
        for j in range(min(len(b), order - i + 1)):
            if b[j]:
                out[i + j] += ai * b[j]


def _t_inverse(a: list[int], order: int) -> list[int]:
    c0 = a[0]
    if c0 not in (1, -1):
        raise ValueError("constant term must be a unit for integral inversion")
    out = [0] * (order + 1)
    out[0] = c0
    for k in range(1, order + 1):
        s = sum(a[i] * out[k - i] for i in range(1, min(k, len(a) - 1) + 1))
        out[k] = -c0 * s
    return out


def invert(s: TruncatedSeries) -> TruncatedSeries:
    """Multiplicative inverse in the (t, u)-truncated ring.

    Requires a u truncation, no v terms, and constant term +-1 (all
    coefficients stay integral).  Computed as a u-series whose
    t-series coefficients are solved for degree by degree.
    """
    if s.u_order is None:
        raise ValueError("inversion needs a u truncation order")
    if any(dv for (_, _, dv) in s.coeffs):
        raise ValueError("inversion is only supported without v terms")
    nt, nu = s.t_order, s.u_order
    f = [[0] * (nt + 1) for _ in range(nu + 1)]
    for (dt, du, _dv), c in s.coeffs.items():
        f[du][dt] = c
    g0 = _t_inverse(f[0], nt)
    g = [g0]
    for j in range(1, nu + 1):
        acc = [0] * (nt + 1)
        for r in range(1, j + 1):
            _t_mul_into(acc, f[r], g[j - r], nt)
        g.append(_t_mul([-a for a in acc], g0, nt))
    return TruncatedSeries(nt, {(dt, du, 0): c for du, row in enumerate(g)
                                for dt, c in enumerate(row)}, nu)


def subs_u_one(s: TruncatedSeries) -> TruncatedSeries:
    """Substitute u -> 1."""
    out: dict[tuple[int, int, int], int] = {}
    for (dt, _du, dv), c in s.coeffs.items():
        key = (dt, 0, dv)
        out[key] = out.get(key, 0) + c
    return TruncatedSeries(s.t_order, out, s.u_order)


def t_coefficients(s: TruncatedSeries) -> list[int]:
    """The coefficients of t^0..t^t_order; the series must not involve u or v."""
    out = [0] * (s.t_order + 1)
    for (dt, du, dv), c in s.coeffs.items():
        if du or dv:
            raise ValueError("series is not univariate in t")
        out[dt] = c
    return out


# ---------------------------------------------------------------------------
# The kernel checks as products in the (t, u)-truncated ring
#
# The library divides by kernel factors one u-row at a time and keeps
# t-only factors as coefficient lists; these are the same quantities
# written as products and inverses of `TruncatedSeries`.


def one_minus_t_pow(k: int, t_order: int, u_order: int | None = None) -> TruncatedSeries:
    """(1-t)^k, exactly (binomials), truncated."""
    coeffs = {(i, 0, 0): (-1) ** i * comb(k, i) for i in range(min(k, t_order) + 1)}
    return TruncatedSeries(t_order, coeffs, u_order)


def level_factor(i: int, t_order: int, u_order: int | None = None) -> TruncatedSeries:
    """1 - (1-t)^i."""
    coeffs = {(j, 0, 0): c for j, c in enumerate(level_coefficients(i, t_order), start=1)}
    return TruncatedSeries(t_order, coeffs, u_order)


def u_minus_one_pow(k: int, t_order: int, u_order: int | None = None) -> TruncatedSeries:
    coeffs = {(0, j, 0): (-1) ** (k - j) * comb(k, j) for j in range(k + 1)}
    return TruncatedSeries(t_order, coeffs, u_order)


def kernel_factor(i: int, t_order: int, u_order: int) -> TruncatedSeries:
    """u - (u-1)(1-t)^i  =  (1-t)^i + u(1 - (1-t)^i); unit constant term."""
    p = one_minus_t_pow(i, t_order, u_order)
    q = level_factor(i, t_order, u_order)
    u = TruncatedSeries.monomial(1, du=1, t_order=t_order, u_order=u_order)
    return p + times(u, q)


def kernel_terms_by_products(order: int) -> list[TruncatedSeries]:
    """u^(k-1) / prod_{i=1..k}(u - (u-1)(1-t)^i) for k = 1..order+1."""
    nt = nu = order
    terms = []
    term = TruncatedSeries.one(nt, nu)
    u = TruncatedSeries.monomial(1, du=1, t_order=nt, u_order=nu)
    for k in range(1, nu + 2):
        term = times(term, invert(kernel_factor(k, nt, nu)))
        terms.append(term)
        term = times(term, u)
    return terms


def S_closed_form_by_products(m: int, t_order: int,
                              u_order: int | None = None) -> TruncatedSeries:
    """-sum_{j=0..m-1} (u-1)^j u^{m-1-j} (1-t)^j prod_{i=j+1..m-1}(1-(1-t)^i)."""
    out = TruncatedSeries.zero(t_order, u_order)
    for j in range(m):
        term = times(u_minus_one_pow(j, t_order, u_order),
                     TruncatedSeries.monomial(1, du=m - 1 - j, t_order=t_order,
                                              u_order=u_order),
                     one_minus_t_pow(j, t_order, u_order))
        for i in range(j + 1, m):
            term = times(term, level_factor(i, t_order, u_order))
        out = out - term
    return out


def S_identity_term_by_term(m: int, order: int,
                            terms: list[TruncatedSeries]) -> TruncatedSeries:
    """Residual of `verify_S_identity`, each k-term multiplied out in full."""
    nt = nu = order
    lhs = TruncatedSeries.zero(nt, nu)
    head = u_minus_one_pow(m, nt, nu)
    for k, term in enumerate(terms, start=1):
        lhs = lhs + times(head, one_minus_t_pow(m * k, nt, nu), term)
    return lhs - S_closed_form_by_products(m, nt, nu)


def kernel_solution_series_by_products(u_order: int, t_order: int) -> TruncatedSeries:
    """`kernel_solution_series` with each kernel factor inverted as a series."""
    nt, nu = t_order, u_order
    one_minus_u = TruncatedSeries(nt, {(0, 0, 0): 1, (0, 1, 0): -1}, nu)
    total = TruncatedSeries.zero(nt, nu)
    running_inv = TruncatedSeries.one(nt, nu)
    u_pow = TruncatedSeries.one(nt, nu)
    for k in range(1, nu + 2):
        factor_inv = invert(kernel_factor(k, nt, nu))
        running_inv = times(running_inv, factor_inv)
        total = total + times(one_minus_u, u_pow, one_minus_t_pow(k, nt, nu),
                              factor_inv, running_inv)
        u_pow = times(u_pow, TruncatedSeries.monomial(1, du=1, t_order=nt, u_order=nu))
    return total


def F_n_polynomial_by_products(n: int) -> TruncatedSeries:
    """`F_n_polynomial` with every factor a series and every product in the ring."""
    t_order = n * (n + 3) // 2
    total = TruncatedSeries.zero(t_order)
    for ell in range(n + 1):
        inner = TruncatedSeries.zero(t_order)
        for m in range(ell, n + 1):
            term = times(one_minus_t_pow(m - ell, t_order), (-1) ** (n - m) * comb(n, m))
            for i in range(m - ell + 1, m + 1):
                term = times(term, level_factor(i, t_order))
            inner = inner + term
        head = times(u_minus_one_pow(n - ell, t_order), TruncatedSeries.monomial(
            1, du=ell, t_order=t_order))
        total = total + times(head, inner)
    return total


# ---------------------------------------------------------------------------
# The functional equation as ring products


def functional_equation_residual_by_products(order: int, table: CountTable) -> TruncatedSeries:
    """`verify_functional_equation` with the kernel and both sides as ring products."""
    G = TruncatedSeries(order, {(n, a, last): c for n in range(1, order + 1)
                                for a, row in enumerate(table.counts[n])
                                for last, c in enumerate(row)})
    mono = lambda c, dt=0, du=0, dv=0: TruncatedSeries.monomial(c, dt, du, dv, t_order=order)
    kernel = mono(1, dv=1) - mono(1) - mono(1, dt=1, dv=1) + mono(1, dt=1, du=1, dv=1)
    lhs = times(kernel, G)
    g_u1 = G.subs_v_one()
    g_uv1 = u_to_uv(g_u1)
    rhs = (mono(1, dt=1, dv=1) - mono(1, dt=1)
           - times(mono(1, dt=1), g_u1)
           + times(mono(1, dt=1, du=1, dv=2), g_uv1))
    return lhs - rhs
