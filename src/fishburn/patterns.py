"""Bivincular pattern containment, pattern symmetries, and the barred pattern.

A bivincular pattern is a triple (sigma, X, Y) with sigma a permutation
of [k] and X, Y subsets of {0,..,k}.  An occurrence in p_1..p_n is a
subsequence order-isomorphic to sigma whose positions are adjacent across
every x in X and whose values are adjacent across every y in Y, with the
virtual boundary conventions i_0 = j_0 = 0 and i_{k+1} = j_{k+1} = n+1
(so 0 in X pins the occurrence to the front, k in X to the back, and
likewise for values via Y).

The symmetries of the square act on patterns: reverse flips positions,
complement flips values, inverse swaps the two adjacency sets.  Under
composition (sigma rho, X_p symdiff Y_q, Y_p symdiff X_q) the patterns of
a fixed length form a quasigroup with right identity; composition is not
associative.

`find_occurrence` finds the family pattern (231,{1},{1}) and its seven
images under these symmetries in O(n): an occurrence of the family
pattern is fixed by its first position, so one scan of the transformed
permutation lists them all.  Every other pattern is searched by
backtracking, which is worst-case polynomial of degree its length.
`family_symmetry` carries the family onto the avoiders of each image.

The barred condition implemented by `avoids_barred` asks that every
231-occurrence extend to a 31524-occurrence; its avoiders correspond to
the ascent sequences fixed by the modification sweep, which
`enumerate_self_modified` lists without filtering.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterator

from .errors import FishburnError, LengthMismatchError, ParseError
from .objects import AscentSequence, Permutation, _exact_ints, _shown, _trusted, _Value, r_occurrences


class BivincularPattern(_Value):
    """Pattern triple (sigma, X, Y); X constrains positions, Y values."""

    __slots__ = ("sigma", "X", "Y")

    def _normalize(self):
        if not isinstance(self.sigma, Permutation):
            object.__setattr__(self, "sigma", Permutation(self.sigma))
        object.__setattr__(self, "X", frozenset(_exact_ints(self.X)))
        object.__setattr__(self, "Y", frozenset(_exact_ints(self.Y)))

    def __post_init__(self):
        k = len(self.sigma)
        if not all(0 <= x <= k for x in self.X) or not all(0 <= y <= k for y in self.Y):
            raise FishburnError(f"adjacency sets must lie in 0..{k}")

    def __len__(self):
        return len(self.sigma)

    def __str__(self):
        return format_pattern(self)


R_PATTERN = BivincularPattern(Permutation((2, 3, 1)), frozenset({1}), frozenset({1}))


def format_pattern(p: BivincularPattern) -> str:
    if len(p.sigma) > 9:
        raise FishburnError("compact pattern form needs length <= 9")
    word = "".join(str(e) for e in p.sigma.entries)
    fmt = lambda s: "{" + ",".join(str(v) for v in sorted(s)) + "}"
    return f"{word}|X={fmt(p.X)}|Y={fmt(p.Y)}"


def parse_pattern(text: str) -> BivincularPattern:
    """Read the compact form `word|X={..}|Y={..}`; any malformed part is a ParseError."""
    parts = text.strip().split("|")
    if len(parts) != 3 or not parts[1].startswith("X=") or not parts[2].startswith("Y="):
        raise ParseError(f"bad pattern literal: {_shown(text)}")
    word = parts[0].strip()
    if not word.isdigit():
        raise ParseError(f"bad pattern word: {word!r}")
    sets = []
    for chunk in parts[1:]:
        body = chunk[2:].strip()
        if not (body.startswith("{") and body.endswith("}")):
            raise ParseError(f"bad adjacency set: {chunk!r}")
        inner = body[1:-1].strip()
        sets.append(inner.split(",") if inner else [])
    try:
        sigma = Permutation(tuple(map(int, word)))
        return BivincularPattern(sigma, frozenset(map(int, sets[0])), frozenset(map(int, sets[1])))
    except ValueError as exc:  # a non-integer member, a word or set out of range
        raise ParseError(f"bad pattern literal {_shown(text)}: {exc}") from exc


# ---------------------------------------------------------------------------
# Containment


def find_occurrence(pi: Permutation, p: BivincularPattern) -> tuple[int, ...] | None:
    """Positions (1-based) of the leftmost occurrence, or None.

    The family pattern and its seven symmetry images take the O(n) route
    of `_image_occurrence`; every other pattern is searched by
    backtracking.
    """
    global _last_route
    route = _last_route
    if route[0] is not p:
        route = _last_route = (p, _FAMILY_IMAGES.get(p))
    flips = route[1]
    if flips is not None:
        return _image_occurrence(pi, *flips)
    return _backtrack(pi, p)


def _backtrack(pi: Permutation, p: BivincularPattern) -> tuple[int, ...] | None:
    """Leftmost occurrence by backtracking over position tuples.

    Position adjacency and the pattern order are enforced as slots are
    placed, value adjacency as soon as both partners of a constraint are
    known.
    """
    n, k = len(pi), len(p.sigma)
    if k == 0:
        return () if (0 not in p.X or n == 0) and (0 not in p.Y or n == 0) else None
    sigma = p.sigma.entries
    slot_of_rank = {rank: slot for slot, rank in enumerate(sigma, start=1)}
    # value-adjacency constraints as (lower slot, upper slot) pairs
    value_pairs = [(slot_of_rank[y], slot_of_rank[y + 1])
                   for y in p.Y if 1 <= y <= k - 1]
    lowest_slot = slot_of_rank[1]
    highest_slot = slot_of_rank[k]
    entries = pi.entries
    chosen: list[int] = []  # 0-based positions

    def value_ok(slot: int) -> bool:
        v = entries[chosen[slot - 1]]
        for lo, hi in value_pairs:
            if slot in (lo, hi) and len(chosen) >= max(lo, hi):
                if entries[chosen[hi - 1]] != entries[chosen[lo - 1]] + 1:
                    return False
        if 0 in p.Y and slot == lowest_slot and v != 1:
            return False
        if k in p.Y and slot == highest_slot and v != n:
            return False
        return True

    def place(slot: int, start: int) -> bool:
        if slot > k:
            return True
        positions = range(start, n)
        if slot - 1 in p.X:  # adjacent to previous slot (or pinned to front)
            pinned = 0 if slot == 1 else chosen[-1] + 1
            positions = range(pinned, min(pinned + 1, n))
        for pos in positions:
            v = entries[pos]
            ok = all((v > entries[c]) == (sigma[slot - 1] > sigma[j])
                     for j, c in enumerate(chosen))
            if not ok:
                continue
            if slot == k and k in p.X and pos != n - 1:
                continue
            chosen.append(pos)
            if value_ok(slot) and place(slot + 1, pos + 1):
                return True
            chosen.pop()
        return False

    if place(1, 0):
        return tuple(c + 1 for c in chosen)
    return None


def contains(pi: Permutation, p: BivincularPattern) -> bool:
    return find_occurrence(pi, p) is not None


# ---------------------------------------------------------------------------
# Symmetries


def compose(p: BivincularPattern, q: BivincularPattern) -> BivincularPattern:
    if len(p.sigma) != len(q.sigma):
        raise LengthMismatchError("compose needs patterns of equal length")
    return BivincularPattern(p.sigma.compose(q.sigma), p.X ^ q.Y, p.Y ^ q.X)


def inverse(p: BivincularPattern) -> BivincularPattern:
    return BivincularPattern(p.sigma.inverse(), p.Y, p.X)


def reverse(p: BivincularPattern) -> BivincularPattern:
    """Flip positions; the adjacency pair (x, x+1) lands on (k-x, k-x+1)."""
    k = len(p.sigma)
    return BivincularPattern(p.sigma.reverse(),
                             frozenset(k - x for x in p.X), p.Y)


def complement(p: BivincularPattern) -> BivincularPattern:
    """Flip values; mirrors `reverse` on the value side."""
    k = len(p.sigma)
    return BivincularPattern(p.sigma.complement(), p.X,
                             frozenset(k - y for y in p.Y))


def _family_images() -> dict[BivincularPattern, tuple[bool, bool, bool]]:
    """The eight images of R_PATTERN, each mapped to the flags (inverse,
    complement, reverse) of the symmetry that turns it back into
    R_PATTERN, applied in that order."""
    images = {}
    for inverted, complemented, reversed_ in itertools.product((False, True), repeat=3):
        p = R_PATTERN
        if reversed_:
            p = reverse(p)
        if complemented:
            p = complement(p)
        if inverted:
            p = inverse(p)
        images[p] = (inverted, complemented, reversed_)
    return images


_FAMILY_IMAGES = _family_images()
# the last pattern `find_occurrence` looked up, with its flags or None: a
# command searches one pattern object on every line, so it is hashed once.
# The memo holds the pattern, so no other object can take its identity.
_last_route: tuple[BivincularPattern | None, tuple[bool, bool, bool] | None] = (None, None)


def family_symmetry(p: BivincularPattern) -> Callable[[Permutation], Permutation] | None:
    """The symmetry of the square that carries R_PATTERN to p, acting on
    permutations, or None when p is no image of R_PATTERN.

    pi avoids R_PATTERN exactly when its image avoids p, so the map
    carries the family of R_PATTERN-avoiders one to one onto the avoiders
    of p.  It applies the flagged symmetries of `_FAMILY_IMAGES` in reverse
    order, which undoes them.
    """
    flips = _FAMILY_IMAGES.get(p)
    if flips is None:
        return None
    inverted, complemented, reversed_ = flips

    def carry(pi: Permutation) -> Permutation:
        if reversed_:
            pi = pi.reverse()
        if complemented:
            pi = pi.complement()
        return pi.inverse() if inverted else pi

    return carry


def _image_occurrence(pi: Permutation, inverted: bool, complemented: bool,
                      reversed_: bool) -> tuple[int, int, int] | None:
    """Leftmost occurrence in pi of the image of R_PATTERN with these flags.

    A symmetry of the square maps the occurrences of a pattern in pi one
    to one onto those of the transformed pattern in the transformed
    permutation.  The flagged symmetries send the image to R_PATTERN and
    pi to sigma, so the occurrences of the image are the R-occurrences
    of sigma mapped back: a reverse takes position q to n+1-q, and an
    inverse reads the position in pi as the value of pi^-1 at q.  The
    least sorted tuple is the occurrence that backtracking finds first.
    """
    n = len(pi)
    sigma = pi.inverse() if inverted else pi
    positions = sigma.entries
    if complemented:
        sigma = sigma.complement()
    if reversed_:
        sigma = sigma.reverse()
    occurrences = r_occurrences(sigma)
    if reversed_:
        occurrences = ([n + 1 - q for q in occurrence] for occurrence in occurrences)
    if inverted:
        occurrences = ([positions[q - 1] for q in occurrence] for occurrence in occurrences)
    return min(map(tuple, map(sorted, occurrences)), default=None)


# ---------------------------------------------------------------------------
# The barred pattern and self-modified sequences


def avoids_barred(pi: Permutation) -> bool:
    """Every 231-occurrence must play the 352 role in some 31524-occurrence.

    Naive reference check with early exits: for positions i < j < k with
    p_k < p_i < p_j, some l in (i,j) must have p_l < p_k and some m > k
    must have p_i < p_m < p_j.
    """
    w = pi.entries
    n = len(w)
    for i in range(n):
        for j in range(i + 1, n):
            if w[j] <= w[i]:
                continue
            for k in range(j + 1, n):
                if w[k] >= w[i]:
                    continue
                if not any(w[l] < w[k] for l in range(i + 1, j)):
                    return False
                if not any(w[i] < w[m] < w[j] for m in range(k + 1, n)):
                    return False
    return True


def is_self_modified(x: AscentSequence) -> bool:
    """Fixed points of the modification sweep, `to_modified(x) == x`.

    Read off the closed characterization: each entry either weakly
    descends or is a new strict maximum 1 + max(prefix).
    """
    top = 0  # max(prefix), as x_1 = 0
    for prev, e in zip(x.entries, x.entries[1:]):
        if e > prev:
            if e != top + 1:
                return False
            top = e
    return True


def enumerate_self_modified(n: int) -> Iterator[AscentSequence]:
    """The self-modified ascent sequences of length n, lexicographically.

    The members of `enumerate_ascent_sequences(n)` that `is_self_modified`
    accepts, in the same order.  Entry i > 0 takes 0..x[i-1] and then the
    new maximum 1 + max(prefix), so an ascent is always that last choice:
    each next sequence raises the last entry that is not an ascent and
    resets the entries after it to 0.
    """
    if n < 0:
        raise FishburnError("n must be >= 0")
    if n == 0:
        yield _trusted(AscentSequence, ())
        return
    x = [0] * n
    top = [0] * n  # top[i]: max(x[0..i])
    while True:
        yield _trusted(AscentSequence, tuple(x))
        i = n - 1
        while i and x[i] > x[i - 1]:
            i -= 1
        if not i:
            return
        x[i] = x[i] + 1 if x[i] < x[i - 1] else top[i - 1] + 1
        x[i + 1:] = [0] * (n - 1 - i)
        top[i:] = [max(top[i - 1], x[i])] * (n - i)
