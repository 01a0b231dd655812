"""Reference computations that the tests compare the library against.

None of these is on a library path: each is a second, plainly written
route to an answer the library computes another way, or a view of a
library value that only the tests need.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator

from fishburn import BivincularPattern, ChordInvolution, Permutation, TruncatedSeries
from fishburn.series import _times_level


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


# ---------------------------------------------------------------------------
# Chord involutions: two more routes to the descent condition of `in_I2n`


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


# ---------------------------------------------------------------------------
# Series


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
