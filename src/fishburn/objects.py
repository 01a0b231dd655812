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

All values are immutable and hashable: each value class declares its
fields in `__slots__` on the private base `_Value`, which gives it
equality, hashing and a repr over those fields and refuses assignment.

The families are enumerated through the ascent sequences:
`bijections.enumerate_family` decodes `enumerate_ascent_sequences(n)`,
so the four streams line up index by index and none is capped.

`enumerate_r_permutations` and `enumerate_nesting_free_involutions` are
the brute-force oracles: they filter all of S_n (resp. all
fixed-point-free involutions on 2n points), in lexicographic order, and
use no bijection.  Only `verify`, the tests and `avoiders --pattern`
(for a pattern off the family pattern's eight images) filter, and the
filters are capped (see `brute_force_cap`); the
environment variable FISHBURN_MAX_BRUTE_N sets the cap.
"""

from __future__ import annotations

import bisect
import collections
import itertools
import json
import operator
import os
import re
from collections.abc import Iterable, Iterator

from .errors import (
    BruteForceCapError,
    FishburnError,
    FixedPointError,
    LengthMismatchError,
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

# the most characters of a bad literal that an error message echoes
SHOWN_CHARS = 200


def _shown(literal) -> str:
    """A bad literal as an error message echoes it: the repr of a string, the str
    of anything else, cut past SHOWN_CHARS characters to a prefix and its length."""
    shown = repr(literal) if isinstance(literal, str) else str(literal)
    if len(shown) <= SHOWN_CHARS:
        return shown
    return f"{shown[:SHOWN_CHARS]}... (length {len(literal)})"


def _exact_int(v, error: str = "not an integer: {!r}") -> int:
    """`int(v)` when that keeps the value of `v` (bools, 3.0 and "2" do), else FishburnError.

    A non-integral float, Fraction or Decimal, infinities included, raises
    `error` formatted with it; a string is read as `int` reads it, and a
    value that `int` cannot read raises `int`'s message.
    """
    try:
        i = int(v)
    except OverflowError:  # an infinity
        raise FishburnError(error.format(v)) from None
    except (TypeError, ValueError) as exc:  # no number, or a string int() cannot read
        raise FishburnError(str(exc)) from None
    if i != v and not isinstance(v, (str, bytes, bytearray)):
        raise FishburnError(error.format(v))
    return i


def _exact_ints(values) -> tuple[int, ...]:
    """`values` as a tuple of exact ints: a tuple of them as it is, anything else
    read member by member by `_exact_int`, and a value that is not iterable a FishburnError."""
    if type(values) is tuple and {int}.issuperset(map(type, values)):
        return values
    try:
        return tuple(map(_exact_int, values))
    except TypeError as exc:  # not iterable; _exact_int itself raises no TypeError
        raise FishburnError(str(exc)) from None


class _Value:
    """Immutable value behaviour over the fields named in `__slots__`.

    Each class gets its constructor from `__slots__`, in place of any
    `__init__` it writes: one parameter per field, in order, by position
    or by keyword.  It stores each field, then runs the class's typing,
    `_normalize` if it has one, which stores a field again in its normal
    form with `object.__setattr__`, and its structure check, `__post_init__`.
    Two values are equal when they are of the same class with equal field
    tuples; the hash is that of the field tuple, and the repr names each
    field, as in `Poset(n=4, levels=(0, 1, 0, 2), entry=(1, 2, 2, 3))`.
    Assigning or deleting an attribute raises AttributeError.  Copies and
    pickles go back through the public constructor.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._fields = fields = cls.__slots__
        if fields:
            # the value of the one field, or the tuple of the values of several
            cls._key = operator.attrgetter(*fields)
            # the constructor: one parameter and one slot store per field, then the typing
            # (only in a class that has any) and the checks; and the builder (`_trusted`,
            # `_checked`): a new instance and the same stores, no checks.  Both are compiled
            # in a class of the same name, so that their TypeErrors name the class
            parameters = ", ".join(fields)
            stores = "".join(f"  set_{name}(self, {name})\n" for name in fields)
            normalize = "  self._normalize()\n" if hasattr(cls, "_normalize") else ""
            source = (f"class {cls.__name__}:\n def __init__(self, {parameters}):\n{stores}"
                      f"{normalize}  self.__post_init__()\n"
                      f" def _build({parameters}):\n  self = new(value_class)\n{stores}"
                      "  return self\n")
            namespace = {f"set_{name}": getattr(cls, name).__set__ for name in fields}
            namespace.update(new=object.__new__, value_class=cls)
            exec(source, namespace)
            compiled = namespace[cls.__name__]
            cls.__init__ = compiled.__init__
            cls._build = staticmethod(compiled._build)

    def __post_init__(self):
        """The class's structure check, run on typed fields; a class without one keeps this."""

    def _values(self) -> tuple:
        key = self._key(self)
        return key if len(self._fields) > 1 else (key,)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values()


def _trusted(cls, *fields):
    """An instance of the value class `cls` holding `fields`, built without checks.

    Only for values the library builds from data that is valid by
    construction: bijection outputs, enumerations and symmetries.  The
    fields must be what the public constructor would store (tuples of
    exact ints).  Text and public-constructor input is always validated;
    the tests and `fishburn verify` rebuild trusted values through the
    public constructors.  It stores the fields as the constructor does, by
    the class's compiled builder, but runs no `__post_init__`.
    """
    return cls._build(*fields)


def _checked(cls, *fields):
    """An instance of the value class `cls` holding `fields`, checked by its `__post_init__` but
    not typed: for a parser that has just built the fields as tuples of exact ints itself."""
    value = cls._build(*fields)
    value.__post_init__()
    return value


# ---------------------------------------------------------------------------
# Sequences


class _EntriesSequence(_Value):
    """Read-only sequence behaviour over an `entries` tuple; holds no fields.

    Each sequence class declares its own `entries` slot, from which it gets
    its own constructor, and its own structure check in `__post_init__`
    (the typing is shared); none is an instance of another.
    """

    __slots__ = ()

    def _normalize(self):
        object.__setattr__(self, "entries", _exact_ints(self.entries))

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __str__(self):
        return format_sequence(self.entries)


class AscentSequence(_EntriesSequence):
    """A sequence (x_1,..,x_n) with x_1 = 0 and x_i <= 1 + asc(prefix)."""

    __slots__ = ("entries",)

    def __post_init__(self):
        entries = self.entries
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


class ModifiedAscentSequence(_EntriesSequence):
    """Image of an ascent sequence under the ascent-driven increment sweep.

    Ascent positions agree with those of the source sequence and the
    maximum equals the number of ascents.
    """

    __slots__ = ("entries",)

    def __post_init__(self):
        entries = self.entries
        if not _is_modified(entries):
            raise NotModifiedSequenceError(f"not a modified ascent sequence: {_shown(entries)}")


def enumerate_ascent_sequences(n: int) -> Iterator[AscentSequence]:
    """All ascent sequences of length n, lexicographically.

    Each next sequence raises the last entry that is below its bound
    1 + asc(prefix) and resets the entries after it to 0.
    """
    if n < 0:
        raise FishburnError("n must be >= 0")
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


class Permutation(_EntriesSequence):
    """A permutation of [n] in one-line notation."""

    __slots__ = ("entries",)

    def __post_init__(self):
        entries = self.entries
        if sorted(entries) != list(range(1, len(entries) + 1)):
            raise NotPermutationError(f"not a permutation of 1..n: {_shown(entries)}")

    def __str__(self):
        return format_permutation(self.entries)

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
            raise LengthMismatchError("length mismatch")
        return _trusted(Permutation, tuple(self.entries[o - 1] for o in other.entries))


def r_occurrences(pi: Permutation) -> Iterator[tuple[int, int, int]]:
    """Every occurrence (i, i+1, k) of the pattern (231,{1},{1}), by increasing i.

    Positions are 1-based; each satisfies p_i < p_{i+1} and p_k = p_i - 1
    with k > i, so an occurrence is fixed by i and one O(n) scan lists all.
    """
    entries = pi.entries
    pos = {v: j for j, v in enumerate(entries, start=1)}
    for i in range(1, len(entries)):
        a = entries[i - 1]
        if a > 1 and a < entries[i] and pos[a - 1] > i:
            yield (i, i + 1, pos[a - 1])


def is_r_permutation(pi: Permutation) -> bool:
    """Membership in the pattern-avoiding family that maps to ascent sequences."""
    return next(r_occurrences(pi), None) is None


def enumerate_permutations(n: int) -> Iterator[Permutation]:
    """All of S_n in lexicographic one-line order."""
    if n < 0:
        raise FishburnError("n must be >= 0")
    for entries in itertools.permutations(range(1, n + 1)):
        yield _trusted(Permutation, entries)


# ---------------------------------------------------------------------------
# Posets


class Poset(_Value):
    """A (2+2)-free poset on labels 1..n in interval form.

    The strict downsets form a chain D_0 = {} < D_1 < ... < D_k, where k
    is the rank.  `levels[x-1]` is the index of the downset of x, and
    `entry[x-1]` is the first index j with x in D_j, or k+1 when x is
    maximal.  So x < y iff entry(x) <= level(y): element x is the
    interval [level(x), entry(x)-1] of Fishburn's representation of an
    interval order, and x < y when x's interval ends before y's begins.
    Irreflexivity and transitivity follow from level(x) < entry(x).
    """

    __slots__ = ("n", "levels", "entry")

    def _normalize(self):
        levels, entry = _exact_ints(self.levels), _exact_ints(self.entry)
        # a size that int() would change matches no number of elements
        n = _exact_int(self.n, "levels and entry must assign one value to each of 1..n")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "entry", entry)

    def __post_init__(self):
        n, levels, entry = self.n, self.levels, self.entry
        if n < 0 or len(levels) != n or len(entry) != n:
            raise FishburnError("levels and entry must assign one value to each of 1..n")
        if not n:
            return
        k = max(levels)
        # whole-tuple passes accept; only a rejection scans for the first bad element
        if (min(levels) >= 0 and max(entry) <= k + 1 and all(map(operator.lt, levels, entry))
                and len(set(levels)) == k + 1 and set(entry).issuperset(range(1, k + 1))):
            return
        for x, (lvl, e) in enumerate(zip(levels, entry), start=1):
            if not 0 <= lvl < e <= k + 1:
                raise FishburnError(f"element {x} needs 0 <= level < entry <= k+1")
        if len(set(levels)) != k + 1:
            raise FishburnError("every level 0..k must be occupied")
        raise FishburnError("downsets must form a strictly increasing chain")

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


def _are_int_pairs(pairs: list | tuple) -> bool:
    """Whether every member of `pairs` holds exactly two values, each an exact int."""
    try:
        return ({2}.issuperset(map(len, pairs))
                and {int}.issuperset(map(type, itertools.chain.from_iterable(pairs))))
    except TypeError:  # a member without a length, or not iterable
        return False


def _sorted_pairs_in_range(n: int, pairs: Iterable) -> tuple[tuple[int, int], ...]:
    """Exact-int pairs as the sorted tuple of distinct pairs, each member in 1..n.

    Raises FishburnError on a negative n, or naming the first pair, in sorted order, out of range.
    """
    if n < 0:
        raise FishburnError(f"poset size must be >= 0, got {n}")
    # via a list: a tuple grown from an iterator is resized, and freeing it
    # stocks the tuple free list of its final size, which raised peak
    # memory on streams of small posets
    pairs = tuple(list(map(tuple, pairs)))
    if not pairs:
        return pairs
    in_order = all(map(operator.lt, pairs, itertools.islice(pairs, 1, None)))
    firsts = (pairs[0][0], pairs[-1][0]) if in_order else list(map(operator.itemgetter(0), pairs))
    seconds = list(map(operator.itemgetter(1), pairs))
    if min(firsts) < 1 or max(firsts) > n or min(seconds) < 1 or max(seconds) > n:
        a, b = next((a, b) for a, b in sorted(set(pairs)) if not (1 <= a <= n and 1 <= b <= n))
        raise FishburnError(f"relation ({a},{b}) out of range 1..{n}")
    if not in_order:
        # Pairs in 1..n sort as the ints a (n+1) + b, much faster than as
        # tuples.  The tuples are let go before the sort, and the pairs are
        # rebuilt from one int per label, so memory peaks no higher.
        width = n + 1
        keys = list(map(operator.add, map(operator.mul, firsts, itertools.repeat(width)), seconds))
        del pairs, firsts, seconds
        keys = sorted(set(keys))
        # a list of the labels only when it is no longer than the pairs
        label = (list(range(width)) if width <= len(keys) else range(width)).__getitem__
        pairs = tuple(zip(map(label, map(operator.floordiv, keys, itertools.repeat(width))),
                          map(label, map(operator.mod, keys, itertools.repeat(width)))))
    return pairs


class RelationMatrix(_Value):
    """Raw strict relation on labels 1..n, used as interchange form.

    `pairs` may be given as any iterable of pairs; it is stored as the
    sorted tuple of distinct pairs, the order of the JSON text form.  No
    order axioms are enforced here; `poset_from_relations` checks them.
    """

    __slots__ = ("n", "pairs")

    def _normalize(self):
        object.__setattr__(self, "n", _exact_int(self.n))
        pairs = self.pairs
        try:
            if not isinstance(pairs, (list, tuple)):
                pairs = list(pairs)
            if not _are_int_pairs(pairs):
                pairs = [(_exact_int(a), _exact_int(b)) for a, b in pairs]
        except (TypeError, ValueError) as exc:  # not iterable, or a member that is not two ints
            raise FishburnError(str(exc)) from None
        object.__setattr__(self, "pairs", pairs)

    def __post_init__(self):
        object.__setattr__(self, "pairs", _sorted_pairs_in_range(self.n, self.pairs))


def _relation_of_int_pairs(n: int, pairs: Iterable) -> RelationMatrix:
    """The relation of pairs already known to be exact ints, not typed again.

    The pairs are sorted and range-checked as by the public constructor.
    """
    return _trusted(RelationMatrix, n, _sorted_pairs_in_range(n, pairs))


# ---------------------------------------------------------------------------
# Chord involutions


class ChordInvolution(_Value):
    """A fixed-point-free involution of [2n] as a partner array.

    `partner[i-1]` is the other endpoint of the chord attached to i.
    """

    __slots__ = ("partner",)

    def _normalize(self):
        object.__setattr__(self, "partner", _exact_ints(self.partner))

    def __post_init__(self):
        partner = self.partner
        m = len(partner)
        points = range(1, m + 1)
        try:
            # an involution of 1..m without fixed points; m is then even
            if ([partner[v - 1] for v in partner] == list(points)
                    and all(map(operator.ne, partner, points))):
                return
        except IndexError:  # an endpoint past m
            pass
        if m % 2:
            raise NotInvolutionError("odd number of endpoints")
        if sorted(partner) != list(range(1, m + 1)):
            raise NotInvolutionError(f"not a permutation of 1..{m}: {_shown(partner)}")
        for i, v in enumerate(partner, start=1):
            if v == i:
                raise FixedPointError(f"fixed point at {i}")
            if partner[v - 1] != i:
                raise NotInvolutionError(f"partner of {i} and {v} disagree")

    @property
    def n_chords(self) -> int:
        return len(self.partner) // 2

    def __len__(self):
        return len(self.partner)

    def __str__(self):
        return format_involution(self.partner)


def _first_neighbour_nesting(p: tuple[int, ...]) -> int | None:
    """Leftmost i with p_i > p_{i+1} not crossing the diagonal (a neighbour nesting), or None."""
    for i in range(1, len(p)):
        if p[i - 1] > p[i] and not (p[i - 1] > i >= p[i]):
            return i
    return None


def in_I2n(c: ChordInvolution) -> bool:
    """Membership by the descent condition: p_i > p_{i+1} implies p_i > i >= p_{i+1}."""
    return _first_neighbour_nesting(c.partner) is None


def enumerate_fixed_point_free_involutions(points: int) -> Iterator[ChordInvolution]:
    """All fixed-point-free involutions of [points], lexicographically; points must be even.

    Each chord joins the least unmatched point to a later unmatched one.
    The next involution moves the last chord that can move to the next
    unmatched point after its closer, drops the chords after it, and
    joins every point left unmatched to the next unmatched point.
    """
    if points < 0 or points % 2:
        raise FishburnError("need an even number of points >= 0")
    partner = [0] * (points + 1)  # 1-based; 0 marks an unmatched point
    openers: list[int] = []
    start = 1  # every point below start is matched
    while True:
        for a in range(start, points + 1):
            if not partner[a]:
                b = a + 1
                while partner[b]:
                    b += 1
                partner[a], partner[b] = b, a
                openers.append(a)
        yield _trusted(ChordInvolution, tuple(partner[1:]))
        while openers:
            a = openers.pop()
            b = partner[a]
            partner[a] = partner[b] = 0
            b += 1
            while b <= points and partner[b]:
                b += 1
            if b <= points:
                partner[a], partner[b] = b, a
                openers.append(a)
                start = a + 1
                break
        else:
            return


# ---------------------------------------------------------------------------
# Brute-force oracles


def brute_force_cap(kind: str) -> int:
    """Exhaustive-search cap for a filtered family ('perms' or 'involutions')."""
    env = os.environ.get("FISHBURN_MAX_BRUTE_N")
    if env is None:
        return DEFAULT_BRUTE_CAPS[kind]
    try:
        cap = int(env)
    except ValueError as exc:
        raise SettingError(f"FISHBURN_MAX_BRUTE_N must be an integer, got {env!r}") from exc
    if cap < 0:
        # a negative cap would let the oracles check nothing
        raise SettingError(f"FISHBURN_MAX_BRUTE_N must be >= 0, got {env!r}")
    return cap


def check_brute_force_cap(kind: str, n: int) -> None:
    """Raise BruteForceCapError when n exceeds the cap of `kind` (see `brute_force_cap`)."""
    cap = brute_force_cap(kind)
    if n > cap:
        raise BruteForceCapError(
            f"{kind} enumeration is factorial-time and capped at n = {cap} "
            f"(requested {n}); set FISHBURN_MAX_BRUTE_N to raise the cap"
        )


def enumerate_r_permutations(n: int) -> list[Permutation]:
    """Oracle: the members of S_n, filtered in lexicographic order."""
    check_brute_force_cap("perms", n)
    return [pi for pi in enumerate_permutations(n) if is_r_permutation(pi)]


def enumerate_nesting_free_involutions(n: int) -> list[ChordInvolution]:
    """Oracle: the members among the fixed-point-free involutions of [2n], lexicographically."""
    check_brute_force_cap("involutions", n)
    return [c for c in enumerate_fixed_point_free_involutions(2 * n) if in_I2n(c)]


# ---------------------------------------------------------------------------
# Canonical text forms (shared by the CLI and test fixtures)


_VALUE = {str(i): i for i in range(1024)}


def _ints(tokens: list[str]) -> tuple[int, ...]:
    """The ints of decimal tokens, each looked up in `_VALUE`, which holds 0..1023 as `str`
    writes them; a line with any other token (a sign, leading zeros, spaces, other digits,
    1024 or more) is read by `int()` instead, token by token."""
    try:
        return tuple(map(_VALUE.__getitem__, tokens))
    except KeyError:
        return tuple(map(int, tokens))


def format_sequence(entries: Iterable[int]) -> str:
    return "[" + ",".join(str(e) for e in entries) + "]"


def parse_sequence(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ParseError(f"bad sequence literal: {_shown(text)}")
    body = text[1:-1].strip()
    if not body:
        return ()
    try:
        return _ints(body.split(","))
    except ValueError as exc:
        raise ParseError(f"bad sequence literal: {_shown(text)}") from exc


def format_permutation(entries: Iterable[int]) -> str:
    return " ".join(str(e) for e in entries)


def parse_permutation(text: str) -> Permutation:
    parts = text.split()
    if not parts:
        raise ParseError("empty permutation literal")
    try:
        entries = _ints(parts)
    except ValueError as exc:
        raise ParseError(f"bad permutation literal: {_shown(text)}") from exc
    return _checked(Permutation, entries)


_NO_DIGITS = str.maketrans("", "", "-0123456789")

# The most pairs format_poset writes: about 12 bytes of text a pair, and 42 at the
# peak (the chain on 3,000 labels: 4.5 million pairs, 51 MB, 181 MB more peak memory).
MAX_POSET_PAIRS = 10**7


def _pair_count(p: Poset) -> int:
    """The number of pairs x < y, read off the level counts in O(n): x is below
    every label of level >= entry(x)."""
    per_level = collections.Counter(p.levels)
    top_down = itertools.accumulate(map(per_level.__getitem__, range(p.rank + 1, -1, -1)))
    at_least = list(top_down)[::-1]  # at_least[e] labels have level >= e, for e in 0..k+1
    return sum(map(at_least.__getitem__, p.entry))


def format_poset(p: Poset) -> str:
    """The JSON form, `{"n":..,"relations":[[a,b],..]}`, written from the interval form.

    The pairs of x are x with each label of level >= entry(x), so each row
    is one join over the label strings of `_upper_labels(p.levels)[entry(x)]`.
    A poset of more than MAX_POSET_PAIRS pairs is a FishburnError that names
    its pair count, raised before any row is built.
    """
    # n(n-1)/2 bounds the pairs, so only a poset on more than 4,472 labels is counted
    if p.n * (p.n - 1) > 2 * MAX_POSET_PAIRS and _pair_count(p) > MAX_POSET_PAIRS:
        raise FishburnError(f"poset has {_pair_count(p)} pairs, more than the "
                            f"{MAX_POSET_PAIRS} that a JSON line is written with")
    labels = list(map(str, range(p.n + 1)))
    upper = [list(map(labels.__getitem__, row)) for row in _upper_labels(p.levels)]
    rows = [f"[{x},{f'],[{x},'.join(upper[e])}]"
            for x, e in zip(itertools.islice(labels, 1, None), p.entry) if upper[e]]
    return f'{{"n":{p.n},"relations":[{",".join(rows)}]}}'


# the JSON value at the start of a string and where it ends, with no whitespace skipped
_decode_prefix = json.JSONDecoder().raw_decode


def _between_pairs(text: str) -> str | None:
    """`],[` for a poset line in `format_poset`'s syntax, `], [` for one in `json.dumps`'s
    default one, else None: digits and minus signs aside, such a line is exactly the
    syntax with one pair or more, so that string stands only between two pairs."""
    shape, more = text.translate(_NO_DIGITS), ",[,]" * (text.count("[") - 2)
    if shape == '{"n":,"relations":[[,]%s]}' % more:
        return "],["
    return "], [" if shape == '{"n": , "relations": [[, ]%s]}' % more.replace(",", ", ") else None


def parse_poset(text: str) -> Poset:
    """The poset of a JSON line `{"n":..,"relations":[[a,b],..]}`.

    A line in a canonical syntax (`_between_pairs`) is decoded with the
    string between its pairs read as `,`, so that its pairs come back as
    one flat list; any other line is decoded as it is.  The poset counted
    from the pairs (`_counted_poset`, which needs their firsts sorted) is
    returned when the seconds are its rows in turn, which makes the pairs
    its own pairs in order.  Other pairs, and the empty relation, go
    through `RelationMatrix` and `poset_from_relations`.
    """
    between = _between_pairs(text)
    try:
        if between:
            flat = text.replace(between, ",")
            data, end = _decode_prefix(flat)
            if end != len(flat):  # digits after the closing brace
                raise ParseError("extra data")
        else:
            data = json.loads(text)
        n, pairs = data["n"], data["relations"]
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise ParseError(f"bad poset literal: {_shown(text)}") from exc
    if between:  # pairs is [[a, b, a', b', ...]]
        firsts, seconds = pairs[0][::2], pairs[0][1::2]
    else:
        if type(n) is not int or type(pairs) is not list or not _are_int_pairs(pairs):
            raise ParseError("bad poset literal, need an integer n and integer pairs: "
                             + _shown(text))
        firsts, seconds = (list(map(operator.itemgetter(i), pairs)) for i in (0, 1))
    del data, pairs  # frees the decoded lists before the pairs are counted
    counted = _counted_poset(n, firsts, seconds) if firsts else None
    if counted:
        poset, upper = counted
        if seconds == list(itertools.chain.from_iterable(map(upper.__getitem__, poset.entry))):
            return poset
    try:
        relation = _relation_of_int_pairs(n, zip(firsts, seconds))
    except FishburnError as exc:
        raise ParseError(str(exc)) from exc
    del firsts, seconds  # the relation holds the pairs
    return poset_from_relations(relation)


def format_involution(partner: Iterable[int]) -> str:
    return "[" + ",".join([f"({i},{v})" for i, v in enumerate(partner, start=1) if v > i]) + "]"


_CHORD = r"\(\s*(\d+)\s*,\s*(\d+)\s*\)"
# one or more chords, each pair separated by one comma with optional whitespace around it
_CHORD_LIST = re.compile(rf"{_CHORD}(?:\s*,\s*{_CHORD})*")
# in a body that _CHORD_LIST matches, the digit runs are the endpoints
_ENDPOINT = re.compile(r"\d+")
_NO_ASCII_DIGITS = str.maketrans("", "", "0123456789")


def _is_canonical_chord_list(body: str) -> bool:
    """Whether a stripped non-empty body is `(a,b),(c,d),..` in ASCII digits and nothing
    else, as `format_involution` writes it.  Digits aside it is `(,)` k times joined by
    `,`; with `),(` k-1 times no digit stands between two chords, with neither `(,` nor
    `,)` every endpoint has one, and with `(` first and `)` last none stands outside."""
    k = body.count("(")
    return (body[0] == "(" and body[-1] == ")" and body.count("),(") == k - 1
            and "(," not in body and ",)" not in body
            and body.translate(_NO_ASCII_DIGITS) == "(,)," * (k - 1) + "(,)")


def parse_involution(text: str) -> ChordInvolution:
    """The involution of a chord list `[(a,b),(c,d),..]`, with whitespace allowed around
    each bracket, parenthesis and comma.  A canonical body (`_is_canonical_chord_list`)
    is read with one split; any other is matched by the chord-list expression."""
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ParseError(f"bad involution literal: {_shown(text)}")
    body = text[1:-1].strip()
    if not body:
        ends = []
    elif _is_canonical_chord_list(body):
        ends = body[1:-1].replace("),(", ",").split(",")
    elif _CHORD_LIST.fullmatch(body):
        ends = _ENDPOINT.findall(body)
    else:
        raise ParseError(f"bad involution literal: {_shown(text)}")
    try:
        ends = _ints(ends)
    except ValueError as exc:  # an endpoint with more digits than int() reads
        raise ParseError(f"bad involution literal: {_shown(text)}") from exc
    m = len(ends)
    partner = [0] * m
    for a, b in zip(ends[::2], ends[1::2]):
        if not (1 <= a <= m and 1 <= b <= m) or partner[a - 1] or partner[b - 1]:
            raise NotInvolutionError(f"bad chord list: {_shown(text)}")
        partner[a - 1], partner[b - 1] = b, a
    return _checked(ChordInvolution, tuple(partner))


def _upper_labels(levels: list[int] | tuple[int, ...]) -> list[list[int]]:
    """upper[e], the labels of level >= e in increasing order, for e in 1..k+1.

    The pairs of x are (x, y) for y in upper[entry(x)].  Every e in 1..k is
    the entry of some element, so building upper costs no more than the pairs.
    """
    k = max(levels, default=0)
    upper: list[list[int]] = [[] for _ in range(k + 2)]
    for y, level in itertools.compress(enumerate(levels, start=1), levels):  # no entry is 0
        upper[level].append(y)
    for e in range(k, 0, -1):
        upper[e] += upper[e + 1]
        upper[e].sort()
    return upper


def poset_to_relations(p: Poset) -> RelationMatrix:
    """The strict relation x < y iff entry(x) <= level(y), in sorted order."""
    rows = list(map(_upper_labels(p.levels).__getitem__, p.entry))
    shown = itertools.compress(range(1, p.n + 1), rows)  # the x whose rows are not empty
    firsts = map(itertools.repeat, shown, map(len, filter(None, rows)))
    # via a list, as a tuple grown from an iterator is resized as it grows
    pairs = list(zip(itertools.chain.from_iterable(firsts), itertools.chain.from_iterable(rows)))
    return _trusted(RelationMatrix, p.n, tuple(pairs))


def _counted_poset(n: int, firsts: list[int],
                   seconds: list[int]) -> tuple[Poset, list[list[int]]] | None:
    """The candidate interval form of the pairs zip(firsts, seconds) with its
    `_upper_labels`, or None when the firsts are not sorted labels of 1..n.

    The pairs of label a (its row) start at bisect_left(firsts, a) when the
    firsts are sorted, so each row length is a difference of row starts,
    found for the labels from the first first to the last.  Before any
    second is counted, one C-level comparison with their sorted copy proves
    the firsts sorted, and so in 1..n when the two ends are; a shuffled
    line almost never has its outer row starts at the list's ends, and
    leaves before the copy.  The levels rank the downset sizes
    (how often each label is a second) and each entry is the e whose
    upper[e] holds as many labels as the element has pairs, so an interval
    order, whose downsets form a chain of distinct sizes, gets its own form
    back.  The callers accept a candidate only when it re-encodes to their
    input.
    """
    try:
        down = [0] * (n + 1)
    except (MemoryError, OverflowError):  # a size too large to allocate fails at once
        if 1 <= min(firsts + seconds, default=1) and max(firsts + seconds, default=0) <= n:
            raise FishburnError(f"poset size {n} is too large to build") from None
        return None
    low, high = (firsts[0], firsts[-1]) if firsts else (1, 0)  # the empty relation spans no label
    if not (1 <= low <= high + 1 and high <= n):
        return None
    starts = list(map(bisect.bisect_left, itertools.repeat(firsts), range(low, high + 2)))
    if starts[0] or starts[-1] != len(firsts) or firsts != sorted(firsts):
        return None
    up = [0] * n  # the row lengths, differences of row starts
    up[low - 1:high] = map(operator.sub, starts[1:], starts)
    try:
        for b in seconds:
            down[b] += 1
    except IndexError:  # a label past n
        return None
    del down[0]
    level_of_size = {size: level for level, size in enumerate(sorted(set(down)))}
    levels = tuple(map(level_of_size.__getitem__, down))
    upper = _upper_labels(levels)
    entry_of_ups = {len(row): e for e, row in enumerate(upper) if e}
    try:
        entry = tuple(map(entry_of_ups.get, up, itertools.repeat(0)))
        return _checked(Poset, n, levels, entry), upper
    except FishburnError:  # an upset size that no entry has, or level >= entry
        return None


def poset_from_relations(rel: RelationMatrix) -> Poset:
    """Recover the interval form from a strict relation.

    The counted candidate (`_counted_poset`) is accepted when its own relation
    is `rel`; otherwise `rel` is no interval order and a witness is named:
    NotPartialOrderError if the relation is not irreflexive and
    transitive, and NotTwoPlusTwoFreeError (with a four-element witness)
    if the strict downsets are not linearly ordered by inclusion.
    """
    pairs = rel.pairs
    counted = _counted_poset(rel.n, list(map(operator.itemgetter(0), pairs)),
                             list(map(operator.itemgetter(1), pairs)))
    if counted and poset_to_relations(counted[0]) == rel:
        return counted[0]
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
