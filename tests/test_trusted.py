"""Values the library builds without validation are exactly what validation accepts.

Bijections, enumerations and symmetries build their outputs through
`objects._trusted`, which skips `__post_init__`.  Every such value must
hold what the public constructor would store (tuples of exact ints), and
the constructor must accept its fields and return an equal value.
"""

from __future__ import annotations

import pytest

import fishburn as fb
from fishburn import ChordInvolution, Poset, RelationMatrix
from fishburn.objects import (
    enumerate_fixed_point_free_involutions,
    enumerate_permutations,
    poset_to_relations,
)

from reference import swap_endpoints


def _is_int_tuple(value) -> bool:
    return type(value) is tuple and all(type(v) is int for v in value)


def assert_rebuilds(obj) -> None:
    """The fields of `obj` are exact-int tuples, and the constructor gives back `obj`."""
    fields = [getattr(obj, name) for name in obj._fields]
    if isinstance(obj, Poset):
        assert type(obj.n) is int
        fields_to_type = fields[1:]
    elif isinstance(obj, RelationMatrix):
        assert type(obj.n) is int and type(obj.pairs) is tuple
        fields_to_type = list(obj.pairs)
    else:
        fields_to_type = fields
    assert all(_is_int_tuple(f) for f in fields_to_type), obj
    assert type(obj)(*fields) == obj


class TestBijectionOutputs:
    def test_every_bijection_on_the_sequence_pool(self, sequences_by_length):
        for n in range(8):
            for x in sequences_by_length[n]:
                assert_rebuilds(x)
                pi = fb.sequence_to_perm(x)
                m = fb.to_modified(x)
                p = fb.sequence_to_poset(x)
                outputs = [
                    pi, fb.sequence_to_perm_by_insertion(x), fb.perm_to_sequence(pi),
                    m, fb.from_modified(m),
                    p, fb.poset_to_sequence(p), fb.poset_to_perm(p), fb.dual(p),
                    poset_to_relations(p),
                    pi.inverse(), pi.reverse(), pi.complement(), pi.compose(pi.inverse()),
                    pi.compose(pi.reverse()),
                ]
                if n <= 6:
                    c = fb.poset_to_involution(p)
                    outputs += [c, fb.involution_to_poset(c)]
                for obj in outputs:
                    assert_rebuilds(obj)

    def test_every_involution_through_the_poset_map(self):
        for points in range(0, 11, 2):
            for c in enumerate_fixed_point_free_involutions(points):
                assert_rebuilds(c)
                assert_rebuilds(fb.involution_to_poset(c))
                assert_rebuilds(fb.remove_neighbour_nestings(c))
                for i in range(1, points):
                    assert_rebuilds(swap_endpoints(c, i))

    def test_permutation_enumeration(self):
        for n in range(8):
            for pi in enumerate_permutations(n):
                assert_rebuilds(pi)

    def test_direct_sums(self, sequences_by_length):
        for la in range(4):
            for lb in range(4):
                for xa in sequences_by_length[la]:
                    for xb in sequences_by_length[lb]:
                        assert_rebuilds(fb.direct_sum(fb.to_modified(xa), fb.to_modified(xb)))
                        assert_rebuilds(fb.direct_sum(fb.sequence_to_perm(xa),
                                                      fb.sequence_to_perm(xb)))
                        assert_rebuilds(fb.direct_sum(fb.sequence_to_poset(xa),
                                                      fb.sequence_to_poset(xb)))

    @pytest.mark.parametrize("i", [-1, 0, 4, 5])
    def test_swap_outside_the_endpoints_is_rejected(self, i):
        with pytest.raises(ValueError):
            swap_endpoints(ChordInvolution((2, 1, 4, 3)), i)

