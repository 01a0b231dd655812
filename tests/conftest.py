"""Shared fixtures: worked examples and small exhaustive pools."""

from __future__ import annotations

import random

import pytest

from fishburn import (
    AscentSequence,
    ChordInvolution,
    Poset,
    RelationMatrix,
    enumerate_ascent_sequences,
    poset_from_relations,
)

# Counts of each family by size (three independent routes must reproduce
# the first nine; the last two were cross-checked against the counting DP
# and exhaustive enumeration before freezing).
FISHBURN_COUNTS = [1, 1, 2, 5, 15, 53, 217, 1014, 5335, 31240, 201608]

# Barred-pattern avoider totals by length, brute force == closed formula.
BARRED_COUNTS = [1, 1, 2, 5, 14, 43, 143, 510, 1936]


def relations(n: int, pairs) -> Poset:
    return poset_from_relations(RelationMatrix(n, frozenset(pairs)))


def random_ascent_sequence(n: int, seed: int) -> AscentSequence:
    """Each entry uniform on 0..1+asc(prefix), from random.Random(seed)."""
    rng = random.Random(seed)
    entries, asc = [0], 0
    for _ in range(n - 1):
        v = rng.randint(0, asc + 1)
        asc += v > entries[-1]
        entries.append(v)
    return AscentSequence(tuple(entries))


# An 8-element poset given by its predecessor sets (labels a..h mapped to
# 1..8): D(a)={b,c,d,f,g,h}, D(c)=D(d)={f,g,h}, D(e)=D(f)=D(g)={h}.
POSET8A_PAIRS = (
    [(x, 1) for x in (2, 3, 4, 6, 7, 8)]
    + [(x, 3) for x in (6, 7, 8)]
    + [(x, 4) for x in (6, 7, 8)]
    + [(8, 5), (8, 6), (8, 7)]
)
POSET8A_LEVELS = (3, 0, 2, 2, 1, 1, 1, 0)

# The poset of the deletion walkthrough; its sequence is (0,1,0,1,3,1,1,2)
# and its canonical labels sit at levels (0,3,0,1,4,1,1,2).
POSET8B_SEQUENCE = (0, 1, 0, 1, 3, 1, 1, 2)
POSET8B_PAIRS = [
    (1, 2), (1, 4), (1, 5), (1, 6), (1, 7), (1, 8),
    (2, 5), (3, 2), (3, 5), (3, 8), (4, 5),
    (6, 2), (6, 5), (7, 2), (7, 5),
]
POSET8B_LEVELS = (0, 3, 0, 1, 4, 1, 1, 2)

# The poset of the insertion walkthrough, built from (0,1,2,3,1,0,1,2).
POSET8C_SEQUENCE = (0, 1, 2, 3, 1, 0, 1, 2)
POSET8C_PAIRS = [
    (1, 2), (1, 3), (1, 4), (1, 5), (1, 7), (1, 8),
    (2, 3), (2, 4), (3, 4),
    (6, 2), (6, 3), (6, 4), (6, 5), (6, 8),
    (7, 2), (7, 3), (7, 4), (7, 5),
]
POSET8C_LEVELS = (0, 3, 4, 5, 3, 0, 1, 2)

# A 5-chord diagram with no neighbour nesting and its interval order
# (chords labelled 1..5 by opener: (1,4),(2,5),(3,7),(6,8),(9,10)).
CHORD10_PARTNER = (4, 5, 7, 1, 2, 8, 3, 6, 10, 9)
CHORD10_POSET_PAIRS = [(1, 4), (1, 5), (2, 4), (2, 5), (3, 5), (4, 5)]
CHORD10_POSET_LEVELS = (0, 0, 0, 1, 2)
CHORD10_SEQUENCE = (0, 0, 1, 0, 2)


@pytest.fixture(scope="session")
def sequences_by_length():
    """All ascent sequences of length 0..7, keyed by length."""
    return {n: list(enumerate_ascent_sequences(n)) for n in range(8)}


@pytest.fixture
def poset8a():
    return relations(8, POSET8A_PAIRS)


@pytest.fixture
def poset8b():
    return relations(8, POSET8B_PAIRS)


@pytest.fixture
def poset8c():
    return relations(8, POSET8C_PAIRS)


@pytest.fixture
def chord10():
    return ChordInvolution(CHORD10_PARTNER)
