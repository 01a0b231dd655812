"""Core object families and their canonical text forms.

Four families, all counted by the Fishburn numbers (OEIS A022493):

* ascent sequences: x_1 = 0 and 0 <= x_i <= 1 + asc(x_1..x_{i-1}), where
  asc counts strict ascents;
* unlabeled (2+2)-free posets: exactly the posets whose strict downsets
  form a chain D_0 = {} < D_1 < ... < D_k, that is, the interval orders.
  Each is stored in Fishburn's interval form, two integers per element:
  its level (the index of its downset) and its entry (the first index
  whose downset holds it), with x < y iff entry(x) <= level(y).  The
  relation form (`RelationMatrix`) is only the JSON interchange form;
* permutations avoiding the bivincular pattern (231,{1},{1}): no ascent
  p_i < p_{i+1} with p_i - 1 somewhere to the right of it;
* fixed-point-free involutions of [2n] whose chord diagram has no nesting
  at neighbouring endpoints (equivalently: every descent p_i > p_{i+1}
  crosses the diagonal, p_i > i >= p_{i+1}).

All values are immutable and hashable.  Enumeration of every family runs
in the lexicographic order of the associated ascent sequence, so the four
streams line up index by index under the bijections of
:mod:`fishburn.bijections`.

The exhaustive enumerations of the permutation and involution families
filter all of S_n (resp. all fixed-point-free involutions); they exist as
verification oracles and are capped (see `brute_force_cap`); the cap can
be raised with the environment variable FISHBURN_MAX_BRUTE_N.
"""

from __future__ import annotations

import bisect
import collections
import itertools
import json
import operator
import os
import re
from dataclasses import dataclass
from collections.abc import Iterable, Iterator

from .errors import (
    BruteForceCapError,
    FixedPointError,
    NotAscentSequenceError,
    NotInvolutionError,
    NotModifiedSequenceError,
    NotPartialOrderError,
    NotPermutationError,
    NotTwoPlusTwoFreeError,
    ParseError,
    SettingError,
)

DEFAULT_BRUTE_CAPS = {"perms": 9, "involutions": 6}


def ascents(entries) -> int:
    """Number of strict ascents of an integer sequence."""
    return sum(1 for a, b in zip(entries, entries[1:]) if a < b)


def _trusted(cls, *fields):
    """An instance of the frozen dataclass `cls` holding `fields`, built without checks.

    Only for values the library builds from data that is valid by
    construction: bijection outputs, enumerations and symmetries.  The
    fields must be what the public constructor would store (tuples of
    exact ints).  Text and public-constructor input is always validated;
    the tests and `fishburn verify` rebuild trusted values through the
    public constructors.
    """
    obj = object.__new__(cls)
    for name, value in zip(cls.__dataclass_fields__, fields):
        object.__setattr__(obj, name, value)  # as the frozen dataclass __init__ does
    return obj


# ---------------------------------------------------------------------------
# Sequences


class _EntriesSequence:
    """Read-only sequence behaviour over an `entries` tuple; holds no fields.

    Each sequence class stays its own dataclass with its own validation,
    and neither is an instance of the other.
    """

    @property
    def asc(self) -> int:
        return ascents(self.entries)

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __str__(self):
        return format_sequence(self.entries)


@dataclass(frozen=True)
class AscentSequence(_EntriesSequence):
    """A sequence (x_1,..,x_n) with x_1 = 0 and x_i <= 1 + asc(prefix)."""

    entries: tuple[int, ...]

    def __post_init__(self):
        entries = tuple(int(e) for e in self.entries)
        object.__setattr__(self, "entries", entries)
        if entries and entries[0] != 0:
            raise NotAscentSequenceError(1)
        asc = 0
        for i in range(1, len(entries)):
            if not 0 <= entries[i] <= 1 + asc:
                raise NotAscentSequenceError(i + 1)
            if entries[i] > entries[i - 1]:
                asc += 1


def _is_modified(entries: tuple[int, ...]) -> bool:
    """Membership test for modified ascent sequences, in one pass.

    (y_1,..,y_n) qualifies iff y_1 = 0, every entry is >= 0, the values
    are exactly {0..max}, and each y_i is the first occurrence of its
    value iff it is an ascent top, y_{i-1} < y_i.
    """
    if not entries:
        return True
    if entries[0] != 0 or min(entries) < 0:
        return False
    seen: set[int] = set()
    prev = -1
    for e in entries:
        if (e in seen) == (prev < e):
            return False
        seen.add(e)
        prev = e
    return len(seen) == max(entries) + 1


@dataclass(frozen=True)
class ModifiedAscentSequence(_EntriesSequence):
    """Image of an ascent sequence under the ascent-driven increment sweep.

    Ascent positions agree with those of the source sequence and the
    maximum equals the number of ascents.
    """

    entries: tuple[int, ...]

    def __post_init__(self):
        entries = tuple(int(e) for e in self.entries)
        object.__setattr__(self, "entries", entries)
        if not _is_modified(entries):
            raise NotModifiedSequenceError(f"not a modified ascent sequence: {entries}")


def validate_ascent_sequence(entries: Iterable[int]) -> AscentSequence:
    """Validate and wrap; raises NotAscentSequenceError naming the first bad index."""
    return AscentSequence(tuple(entries))


def enumerate_ascent_sequences(n: int) -> Iterator[AscentSequence]:
    """All ascent sequences of length n, lexicographically.

    Each next sequence raises the last entry that is below its bound
    1 + asc(prefix) and resets the entries after it to 0.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        yield _trusted(AscentSequence, ())
        return
    x = [0] * n
    asc = [0] * n  # asc[i]: the ascents of x[0..i]
    while True:
        yield _trusted(AscentSequence, tuple(x))
        i = n - 1
        while i and x[i] > asc[i - 1]:
            i -= 1
        if not i:
            return
        x[i] += 1
        asc[i] = asc[i - 1] + (x[i] > x[i - 1])
        x[i + 1:] = [0] * (n - 1 - i)
        asc[i + 1:] = [asc[i]] * (n - 1 - i)


# ---------------------------------------------------------------------------
# Permutations


@dataclass(frozen=True)
class Permutation:
    """A permutation of [n] in one-line notation."""

    entries: tuple[int, ...]

    def __post_init__(self):
        entries = tuple(int(e) for e in self.entries)
        object.__setattr__(self, "entries", entries)
        if sorted(entries) != list(range(1, len(entries) + 1)):
            raise NotPermutationError(f"not a permutation of 1..n: {entries}")

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __str__(self):
        return format_permutation(self.entries)

    def __call__(self, i: int) -> int:
        return self.entries[i - 1]

    def inverse(self) -> Permutation:
        inv = [0] * len(self.entries)
        for pos, val in enumerate(self.entries, start=1):
            inv[val - 1] = pos
        return _trusted(Permutation, tuple(inv))

    def reverse(self) -> Permutation:
        return _trusted(Permutation, self.entries[::-1])

    def complement(self) -> Permutation:
        n = len(self.entries)
        return _trusted(Permutation, tuple(n + 1 - e for e in self.entries))

    def compose(self, other: Permutation) -> Permutation:
        """self after other: (self*other)(i) = self(other(i))."""
        if len(other) != len(self):
            raise ValueError("length mismatch")
        return _trusted(Permutation, tuple(self.entries[o - 1] for o in other.entries))


def standardize(values: Iterable[int]) -> Permutation:
    """Relabel distinct integers order-isomorphically onto 1..k."""
    values = tuple(values)
    order = {v: r for r, v in enumerate(sorted(values), start=1)}
    return Permutation(tuple(order[v] for v in values))


def r_violation(pi: Permutation) -> tuple[int, int, int] | None:
    """Leftmost witness (i, i+1, k) of the pattern (231,{1},{1}), or None.

    Positions are 1-based; the witness satisfies p_i < p_{i+1} and
    p_k = p_i - 1 with k > i.
    """
    entries = pi.entries
    pos = {v: j for j, v in enumerate(entries, start=1)}
    for i in range(1, len(entries)):
        a = entries[i - 1]
        if a > 1 and a < entries[i] and pos[a - 1] > i:
            return (i, i + 1, pos[a - 1])
    return None


def is_r_permutation(pi: Permutation) -> bool:
    """Membership in the pattern-avoiding family that maps to ascent sequences."""
    return r_violation(pi) is None


def enumerate_permutations(n: int) -> Iterator[Permutation]:
    """All of S_n in lexicographic one-line order."""
    for entries in itertools.permutations(range(1, n + 1)):
        yield _trusted(Permutation, entries)


# ---------------------------------------------------------------------------
# Posets


@dataclass(frozen=True)
class Poset:
    """A (2+2)-free poset on labels 1..n in interval form.

    The strict downsets form a chain D_0 = {} < D_1 < ... < D_k, where k
    is the rank.  `levels[x-1]` is the index of the downset of x, and
    `entry[x-1]` is the first index j with x in D_j, or k+1 when x is
    maximal.  So x < y iff entry(x) <= level(y): element x is the
    interval [level(x), entry(x)-1] of Fishburn's representation of an
    interval order, and x < y when x's interval ends before y's begins.
    Irreflexivity and transitivity follow from level(x) < entry(x).
    """

    n: int
    levels: tuple[int, ...]
    entry: tuple[int, ...]

    def __post_init__(self):
        levels = tuple(int(v) for v in self.levels)
        entry = tuple(int(v) for v in self.entry)
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "entry", entry)
        n = self.n
        if n < 0 or len(levels) != n or len(entry) != n:
            raise ValueError("levels and entry must assign one value to each of 1..n")
        k = max(levels, default=0)
        occupied = [False] * (k + 1)
        entered = [False] * (k + 2)
        for x, (lvl, e) in enumerate(zip(levels, entry), start=1):
            if not 0 <= lvl < e <= k + 1:
                raise ValueError(f"element {x} needs 0 <= level < entry <= k+1")
            occupied[lvl] = entered[e] = True
        if n and not all(occupied):
            raise ValueError("every level 0..k must be occupied")
        if not all(entered[1:k + 1]):
            raise ValueError("downsets must form a strictly increasing chain")

    @classmethod
    def empty(cls) -> Poset:
        return cls(0, (), ())

    @classmethod
    def antichain(cls, n: int) -> Poset:
        return cls(n, (0,) * n, (1,) * n)

    @classmethod
    def chain(cls, n: int) -> Poset:
        return cls(n, tuple(range(n)), tuple(range(1, n + 1)))

    @property
    def rank(self) -> int:
        return max(self.levels, default=0)

    def level_of(self, x: int) -> int:
        return self.levels[x - 1]

    def downset_of(self, x: int) -> frozenset[int]:
        lvl = self.levels[x - 1]
        return frozenset(z for z, e in enumerate(self.entry, start=1) if e <= lvl)

    def less(self, x: int, y: int) -> bool:
        return self.entry[x - 1] <= self.levels[y - 1]

    def level_sets(self) -> list[tuple[int, ...]]:
        sets: list[list[int]] = [[] for _ in range(self.rank + 1)]
        for x, lvl in enumerate(self.levels, start=1):
            sets[lvl].append(x)
        return [tuple(s) for s in sets]

    def maximal_elements(self) -> tuple[int, ...]:
        top = self.rank + 1
        return tuple(x for x, e in enumerate(self.entry, start=1) if e == top)

    @property
    def srank(self) -> int:
        """The minimum level containing a maximal element."""
        if self.n == 0:
            raise ValueError("srank of the empty poset is undefined")
        return min(self.levels[x - 1] for x in self.maximal_elements())


def _are_int_pairs(pairs: list | tuple) -> bool:
    """Whether every member of `pairs` holds exactly two values, each an exact int."""
    try:
        return ({2}.issuperset(map(len, pairs))
                and {int}.issuperset(map(type, itertools.chain.from_iterable(pairs))))
    except TypeError:  # a member without a length, or not iterable
        return False


def _sorted_pairs_in_range(n: int, pairs: list | tuple) -> tuple[tuple[int, int], ...]:
    """Exact-int pairs as the sorted tuple of distinct pairs, each member in 1..n.

    Raises ValueError naming the first pair, in sorted order, out of range.
    """
    # via a list: a tuple grown from an iterator is resized, and freeing it
    # stocks the tuple free list of its final size, which raised peak
    # memory on streams of small posets
    pairs = tuple(list(map(tuple, pairs)))
    if not all(map(operator.lt, pairs, itertools.islice(pairs, 1, None))):
        pairs = tuple(sorted(set(pairs)))
    if pairs:
        seconds = list(map(operator.itemgetter(1), pairs))
        if pairs[0][0] < 1 or pairs[-1][0] > n or min(seconds) < 1 or max(seconds) > n:
            a, b = next((a, b) for a, b in pairs if not (1 <= a <= n and 1 <= b <= n))
            raise ValueError(f"relation ({a},{b}) out of range 1..{n}")
    return pairs


@dataclass(frozen=True)
class RelationMatrix:
    """Raw strict relation on labels 1..n, used as interchange form.

    `pairs` may be given as any iterable of pairs; it is stored as the
    sorted tuple of distinct pairs, the order of the JSON text form.  No
    order axioms are enforced here; `poset_from_relations` checks them.
    """

    n: int
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        pairs = self.pairs
        if not isinstance(pairs, (list, tuple)):
            pairs = list(pairs)
        if not _are_int_pairs(pairs):
            pairs = [(int(a), int(b)) for a, b in pairs]
        object.__setattr__(self, "pairs", _sorted_pairs_in_range(self.n, pairs))

    def less(self, a: int, b: int) -> bool:
        i = bisect.bisect_left(self.pairs, (a, b))
        return i < len(self.pairs) and self.pairs[i] == (a, b)


def _relation_of_int_pairs(n: int, pairs: list) -> RelationMatrix:
    """The relation of pairs already typed by `_are_int_pairs`, not typed again.

    The pairs are sorted and range-checked as by the public constructor.
    """
    return _trusted(RelationMatrix, n, _sorted_pairs_in_range(n, pairs))


# ---------------------------------------------------------------------------
# Chord involutions


@dataclass(frozen=True)
class ChordInvolution:
    """A fixed-point-free involution of [2n] as a partner array.

    `partner[i-1]` is the other endpoint of the chord attached to i.
    """

    partner: tuple[int, ...]

    def __post_init__(self):
        partner = tuple(int(v) for v in self.partner)
        object.__setattr__(self, "partner", partner)
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

    @property
    def n_points(self) -> int:
        return len(self.partner)

    @property
    def n_chords(self) -> int:
        return len(self.partner) // 2

    def partner_of(self, i: int) -> int:
        return self.partner[i - 1]

    def is_opener(self, i: int) -> bool:
        return self.partner[i - 1] > i

    def chords(self) -> list[tuple[int, int]]:
        """Chords (opener, closer) sorted by opener."""
        return [(i, v) for i, v in enumerate(self.partner, start=1) if v > i]

    def mirror(self) -> ChordInvolution:
        """Reflect the chord diagram left to right."""
        m = len(self.partner)
        return _trusted(ChordInvolution,
                        tuple(m + 1 - self.partner[m - i] for i in range(1, m + 1)))

    def __len__(self):
        return len(self.partner)

    def __str__(self):
        return format_involution(self.partner)


def validate_involution(partner: Iterable[int]) -> ChordInvolution:
    """Validate a partner array; raises NotInvolutionError / FixedPointError."""
    return ChordInvolution(tuple(partner))


def _first_neighbour_nesting(p: tuple[int, ...]) -> int | None:
    """Leftmost i with p_i > p_{i+1} not crossing the diagonal (a neighbour nesting), or None."""
    for i in range(1, len(p)):
        if p[i - 1] > p[i] and not (p[i - 1] > i >= p[i]):
            return i
    return None


def descent_condition_holds(c: ChordInvolution) -> bool:
    """Every descent crosses the diagonal: p_i > p_{i+1} implies p_i > i >= p_{i+1}."""
    return _first_neighbour_nesting(c.partner) is None


def runs_increasing(c: ChordInvolution) -> bool:
    """Partner values increase along every maximal opener run and closer run."""
    p = c.partner
    for i in range(1, len(p)):
        same_kind = c.is_opener(i) == c.is_opener(i + 1)
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


def in_I2n(c: ChordInvolution) -> bool:
    """Membership test via the descent condition; the tests compare the other two checks."""
    return descent_condition_holds(c)


def enumerate_fixed_point_free_involutions(points: int) -> Iterator[ChordInvolution]:
    """All fixed-point-free involutions of [points]; points must be even."""
    if points % 2:
        raise ValueError("need an even number of points")
    if points == 0:
        yield _trusted(ChordInvolution, ())
        return
    partner = [0] * (points + 1)

    def pair(free: list[int]):
        if not free:
            yield _trusted(ChordInvolution, tuple(partner[1:]))
            return
        a = free[0]
        for j in range(1, len(free)):
            b = free[j]
            partner[a], partner[b] = b, a
            yield from pair(free[1:j] + free[j + 1 :])
        partner[a] = 0

    yield from pair(list(range(1, points + 1)))


# ---------------------------------------------------------------------------
# Family enumeration


def brute_force_cap(kind: str) -> int:
    """Exhaustive-search cap for a filtered family ('perms' or 'involutions')."""
    env = os.environ.get("FISHBURN_MAX_BRUTE_N")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise SettingError(f"FISHBURN_MAX_BRUTE_N must be an integer, got {env!r}") from exc
    return DEFAULT_BRUTE_CAPS[kind]


def check_brute_force_cap(kind: str, n: int) -> None:
    """Raise BruteForceCapError when n exceeds the cap of `kind` (see `brute_force_cap`)."""
    cap = brute_force_cap(kind)
    if n > cap:
        raise BruteForceCapError(
            f"{kind} enumeration is factorial-time and capped at n = {cap} "
            f"(requested {n}); set FISHBURN_MAX_BRUTE_N to raise the cap"
        )


def enumerate_r_permutations(n: int) -> list[Permutation]:
    """Filtered S_n oracle, sorted into canonical (ascent-sequence) order."""
    from . import bijections

    check_brute_force_cap("perms", n)
    found = [pi for pi in enumerate_permutations(n) if is_r_permutation(pi)]
    found.sort(key=lambda pi: bijections.perm_to_sequence(pi).entries)
    return found


def enumerate_nesting_free_involutions(n: int) -> list[ChordInvolution]:
    """Filtered fixed-point-free-involution oracle on 2n points, canonical order."""
    from . import bijections

    check_brute_force_cap("involutions", n)
    found = [c for c in enumerate_fixed_point_free_involutions(2 * n) if in_I2n(c)]
    found.sort(key=lambda c: bijections.poset_to_sequence(bijections.involution_to_poset(c)).entries)
    return found


def enumerate_family(family: str, n: int) -> Iterator:
    """Stream one of the four families in canonical order.

    'ascseq' and 'posets' are generated directly; 'perms' and
    'involutions' are brute-force filtered oracles subject to the caps.
    """
    from . import bijections

    if n < 0:
        raise ValueError("n must be >= 0")
    if family == "ascseq":
        yield from enumerate_ascent_sequences(n)
    elif family == "posets":
        for x in enumerate_ascent_sequences(n):
            yield bijections.sequence_to_poset(x)
    elif family == "perms":
        yield from enumerate_r_permutations(n)
    elif family == "involutions":
        yield from enumerate_nesting_free_involutions(n)
    else:
        raise ValueError(f"unknown family {family!r}")


# ---------------------------------------------------------------------------
# Canonical text forms (shared by the CLI and test fixtures)


def format_sequence(entries: Iterable[int]) -> str:
    return "[" + ",".join(str(e) for e in entries) + "]"


def parse_sequence(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ParseError(f"bad sequence literal: {text!r}")
    body = text[1:-1].strip()
    if not body:
        return ()
    try:
        return tuple(int(part) for part in body.split(","))
    except ValueError as exc:
        raise ParseError(f"bad sequence literal: {text!r}") from exc


def format_permutation(entries: Iterable[int]) -> str:
    return " ".join(str(e) for e in entries)


def parse_permutation(text: str) -> Permutation:
    parts = text.split()
    if not parts:
        raise ParseError("empty permutation literal")
    try:
        entries = tuple(int(p) for p in parts)
    except ValueError as exc:
        raise ParseError(f"bad permutation literal: {text!r}") from exc
    return Permutation(entries)


def format_poset(p: Poset) -> str:
    """The JSON form, `{"n":..,"relations":[[a,b],..]}`, written without an encoder."""
    pairs = ",".join([f"[{a},{b}]" for a, b in poset_to_relations(p).pairs])
    return f'{{"n":{p.n},"relations":[{pairs}]}}'


def parse_poset(text: str) -> Poset:
    try:
        data = json.loads(text)
        n, pairs = data["n"], data["relations"]
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise ParseError(f"bad poset literal: {text!r}") from exc
    if type(n) is not int or type(pairs) is not list or not _are_int_pairs(pairs):
        raise ParseError(f"bad poset literal, need an integer n and integer pairs: {text!r}")
    if n < 0:
        raise ParseError(f"poset size must be >= 0, got {n}")
    try:
        relation = _relation_of_int_pairs(n, pairs)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    return poset_from_relations(relation)


def format_involution(partner: Iterable[int]) -> str:
    partner = tuple(partner)
    chords = [(i, v) for i, v in enumerate(partner, start=1) if v > i]
    return "[" + ",".join(f"({a},{b})" for a, b in chords) + "]"


def parse_involution(text: str) -> ChordInvolution:
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
        cleaned = re.sub(r"\(\s*\d+\s*,\s*\d+\s*\)", "", body).replace(",", "").strip()
        if cleaned or not chords:
            raise ParseError(f"bad involution literal: {text!r}")
    m = 2 * len(chords)
    partner = [0] * m
    for a, b in chords:
        if not (1 <= a <= m and 1 <= b <= m) or partner[a - 1] or partner[b - 1]:
            raise NotInvolutionError(f"bad chord list: {text!r}")
        partner[a - 1], partner[b - 1] = b, a
    return ChordInvolution(tuple(partner))


def poset_to_relations(p: Poset) -> RelationMatrix:
    """The strict relation x < y iff entry(x) <= level(y), in sorted order.

    upper[e] lists the labels of level >= e in label order, so the pairs
    of x are (x, y) for y in upper[entry(x)].  Every e in 1..rank is the
    entry of some element, so building upper costs no more than the pairs.
    """
    upper: list[list[int]] = [[] for _ in range(p.rank + 2)]
    for y, level in enumerate(p.levels, start=1):
        upper[level].append(y)
    for e in range(p.rank, 0, -1):
        upper[e] += upper[e + 1]
        upper[e].sort()
    pairs: list[tuple[int, int]] = []
    for x, e in enumerate(p.entry, start=1):
        pairs += zip(itertools.repeat(x), upper[e])
    return _trusted(RelationMatrix, p.n, tuple(pairs))


def poset_from_relations(rel: RelationMatrix) -> Poset:
    """Recover the interval form from a strict relation.

    The levels are read off the downset sizes and each entry is the least
    level above the element, so every pair (a, b) has entry(a) <=
    level(b): the pairs, distinct as `RelationMatrix` keeps them, lie in
    the relation of that form.  When there are as many of them as that
    relation has pairs, they are all of it, and it is an interval order
    exactly when level < entry for every element, since x < x holds just
    when entry(x) <= level(x).  An interval order always passes, since its
    downsets form a chain, whose members have distinct sizes.

    Otherwise the relation is no interval order and a witness is named:
    NotPartialOrderError if the relation is not irreflexive and
    transitive, and NotTwoPlusTwoFreeError (with a four-element witness)
    if the strict downsets are not linearly ordered by inclusion.
    """
    n = rel.n
    if n == 0:
        return Poset.empty()
    pairs = rel.pairs
    sizes = [0] * n
    for _, b in pairs:
        sizes[b - 1] += 1
    level_of_size = {size: level for level, size in enumerate(sorted(set(sizes)))}
    levels = list(map(level_of_size.__getitem__, sizes))
    k = len(level_of_size) - 1
    entry = [k + 1] * n
    for a, b in pairs:
        level = levels[b - 1]
        if level < entry[a - 1]:
            entry[a - 1] = level
    # the form's pairs: each y lies above the elements of entry <= level(y)
    per_level = [0] * (k + 2)
    per_entry = [0] * (k + 2)
    for level, e in zip(levels, entry):
        per_level[level] += 1
        per_entry[e] += 1
    implied = entered = 0
    for j in range(k + 1):
        entered += per_entry[j]
        implied += per_level[j] * entered
    if implied == len(pairs) and all(map(operator.lt, levels, entry)):
        return Poset(n, tuple(levels), tuple(entry))
    for a, b in pairs:
        if a == b:
            raise NotPartialOrderError(f"reflexive pair ({a},{b})")
    # one bit per label in a pair, in increasing order, so the lowest bit
    # of a mask names the least label in it
    labels = sorted(set(itertools.chain.from_iterable(pairs)))
    bit = {x: 1 << i for i, x in enumerate(labels)}
    succ: dict[int, int] = collections.defaultdict(int)
    down: dict[int, int] = collections.defaultdict(int)
    for a, b in pairs:
        succ[a] |= bit[b]
        down[b] |= bit[a]

    def least(mask: int) -> int:
        return labels[(mask & -mask).bit_length() - 1]

    for a, b in pairs:
        missing = succ.get(b, 0) & ~succ[a]
        if missing:
            raise NotPartialOrderError(f"transitivity fails on {a} < {b} < {least(missing)}")
    # a strict order whose downsets are not a chain: two incomparable
    # downsets give a 2+2
    for x, y in itertools.combinations(sorted(down), 2):
        dx, dy = down[x] & ~down[y], down[y] & ~down[x]
        if dx and dy:
            raise NotTwoPlusTwoFreeError((x, least(dx), y, least(dy)))
    raise AssertionError("no interval order, yet no witness found")
