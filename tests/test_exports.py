"""Every callable that `fishburn` exports, at n = 2,000.

Each export is called on the images of one seeded ascent sequence of
length 2,000, and each call must finish within its time bound.  An
export that is neither called nor excluded with a reason fails the
sweep, so a new export is covered from the start.
"""

from __future__ import annotations

import inspect
import time
import types
from dataclasses import dataclass

import pytest

import fishburn as fb
from fishburn import patterns

from conftest import random_ascent_sequence

N = 2000
SECONDS_PER_CALL = 5.0


@dataclass(frozen=True)
class Images:
    x: fb.AscentSequence
    m: fb.ModifiedAscentSequence
    pi: fb.Permutation
    p: fb.Poset
    rel: fb.RelationMatrix
    c: fb.ChordInvolution
    pattern: fb.BivincularPattern


def rebuild(obj):
    """`obj` again, through its public constructor."""
    return type(obj)(*(getattr(obj, f) for f in obj._fields))


CALLS = {
    # objects
    "AscentSequence": lambda i: rebuild(i.x),
    "ModifiedAscentSequence": lambda i: rebuild(i.m),
    "Permutation": lambda i: rebuild(i.pi),
    "Poset": lambda i: rebuild(i.p),
    "RelationMatrix": lambda i: rebuild(i.rel),
    "ChordInvolution": lambda i: rebuild(i.c),
    "enumerate_ascent_sequences": lambda i: next(fb.enumerate_ascent_sequences(N)),
    "enumerate_fixed_point_free_involutions":
        lambda i: next(fb.enumerate_fixed_point_free_involutions(2 * N)),
    "enumerate_permutations": lambda i: next(fb.enumerate_permutations(N)),
    "in_I2n": lambda i: fb.in_I2n(i.c),
    "is_r_permutation": lambda i: fb.is_r_permutation(i.pi),
    "poset_from_relations": lambda i: fb.poset_from_relations(i.rel),
    "poset_to_relations": lambda i: fb.poset_to_relations(i.p),
    # bijections
    "canonical_labelling": lambda i: fb.canonical_labelling(i.p),
    "dual": lambda i: fb.dual(i.p),
    "enumerate_family": lambda i: [next(fb.enumerate_family(family, N))
                                   for family in ("ascseq", "posets", "perms", "involutions")],
    "from_modified": lambda i: fb.from_modified(i.m),
    "involution_to_poset": lambda i: fb.involution_to_poset(i.c),
    "perm_to_sequence": lambda i: fb.perm_to_sequence(i.pi),
    "poset_to_involution": lambda i: fb.poset_to_involution(i.p),
    "poset_to_perm": lambda i: fb.poset_to_perm(i.p),
    "poset_to_sequence": lambda i: fb.poset_to_sequence(i.p),
    "remove_neighbour_nestings": lambda i: fb.remove_neighbour_nestings(i.c),
    "sequence_to_perm": lambda i: fb.sequence_to_perm(i.x),
    "sequence_to_perm_by_insertion": lambda i: fb.sequence_to_perm_by_insertion(i.x),
    "sequence_to_poset": lambda i: fb.sequence_to_poset(i.x),
    "to_modified": lambda i: fb.to_modified(i.x),
    # patterns: the image permutation as a pattern, and the family pattern in it
    "BivincularPattern": lambda i: rebuild(i.pattern),
    "complement": lambda i: fb.complement(i.pattern),
    "compose": lambda i: fb.compose(i.pattern, i.pattern),
    "inverse": lambda i: fb.inverse(i.pattern),
    "reverse": lambda i: fb.reverse(i.pattern),
    "contains": lambda i: [fb.contains(i.pi, q) for q in patterns._FAMILY_IMAGES],
    "find_occurrence": lambda i: [fb.find_occurrence(i.pi, q) for q in patterns._FAMILY_IMAGES],
    "is_self_modified": lambda i: fb.is_self_modified(i.x),
    # statistics
    "StatRecord": lambda i: rebuild(fb.stats_of_sequence(i.x)),
    "components": lambda i: [fb.components(obj) for obj in (i.m, i.pi, i.p)],
    "direct_sum": lambda i: [fb.direct_sum(obj, obj) for obj in (i.m, i.pi, i.p)],
    "stats_of_perm": lambda i: fb.stats_of_perm(i.pi),
    "stats_of_poset": lambda i: fb.stats_of_poset(i.p),
    "stats_of_sequence": lambda i: fb.stats_of_sequence(i.x),
    # closed forms
    "barred_avoiders_by_rlmin": lambda i: fb.barred_avoiders_by_rlmin(N, N // 2),
    "count_barred_avoiders": lambda i: fb.count_barred_avoiders(N),
}

EXCLUDED = {
    "avoids_barred": "brute-force oracle, O(n^4) by design",
    "p_series": "exact series engine, cost faster than cubic in the order "
                "(about 2 s at 600); test_series.py and CI's 600-term run cover it",
    "CountTable": "counting DP, cubic memory in the order; test_series.py covers it",
    "F_n_polynomial": "series check: a polynomial of degree quadratic in n",
    "verify_functional_equation": "series check over the counting DP",
    "verify_kernel_solution": "series check over the counting DP",
    "verify_S_identity": "series check over the kernel terms",
}


def exported_callables() -> set[str]:
    """The public callables of the package namespace; error types only carry a message."""
    return {name for name, value in vars(fb).items()
            if not name.startswith("_") and callable(value)
            and not isinstance(value, types.ModuleType)
            and not (inspect.isclass(value) and issubclass(value, fb.FishburnError))}


@pytest.fixture(scope="module")
def images() -> Images:
    x = random_ascent_sequence(N, 2000)
    p = fb.sequence_to_poset(x)
    pi = fb.sequence_to_perm(x)
    return Images(x=x, m=fb.to_modified(x), pi=pi, p=p, rel=fb.poset_to_relations(p),
                  c=fb.poset_to_involution(p),
                  pattern=fb.BivincularPattern(pi, frozenset({1}), frozenset({1})))


def test_every_export_is_called_or_excluded():
    assert not CALLS.keys() & EXCLUDED.keys()
    assert exported_callables() == CALLS.keys() | EXCLUDED.keys()


@pytest.mark.parametrize("name", sorted(CALLS))
def test_export_at_two_thousand(name, images):
    start = time.perf_counter()
    CALLS[name](images)
    elapsed = time.perf_counter() - start
    assert elapsed < SECONDS_PER_CALL, f"{name} took {elapsed:.2f} s at n = {N}"
