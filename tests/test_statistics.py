"""The statistics dictionary, components, and direct sums."""

from __future__ import annotations

import pytest

import fishburn as fb
from fishburn import AscentSequence, ModifiedAscentSequence, Permutation, Poset
from fishburn.errors import EmptyObjectError, NotInRError
from fishburn.statistics import (
    StatRecord,
    components,
    direct_sum,
    stats_of_perm,
    stats_of_poset,
    stats_of_sequence,
)

from conftest import random_ascent_sequence
from reference import (
    active_sites,
    ascents,
    components_by_passes,
    left_to_right_minima,
    stats_of_perm_by_passes,
    stats_of_poset_by_passes,
    stats_of_sequence_by_passes,
)


EXAMPLE_RECORD = StatRecord(
    size=8,
    minimals=2,
    srank=2,
    rank=4,
    maximals=2,
    components=1,
    level_counts=(2, 3, 1, 1, 1),      # q^4 + q^3 + q^2 + 3q + 2
    max_level_counts=(0, 0, 1, 0, 1),  # q^4 + q^2
)


class TestWorkedExample:
    def test_from_sequence(self):
        assert stats_of_sequence(AscentSequence((0, 1, 0, 1, 3, 1, 1, 2))) == EXAMPLE_RECORD

    def test_from_permutation(self):
        assert stats_of_perm(Permutation((3, 1, 7, 6, 4, 8, 2, 5))) == EXAMPLE_RECORD

    def test_from_poset(self, poset8b):
        assert stats_of_poset(poset8b) == EXAMPLE_RECORD

    def test_inverse_permutation_ascents(self):
        pi = Permutation((3, 1, 7, 6, 4, 8, 2, 5))
        assert pi.inverse().entries == (2, 7, 1, 5, 8, 4, 3, 6)
        assert ascents(pi.inverse().entries) == 4

    def test_active_sites_count_the_inverse_ascents(self):
        # s = asc(pi^-1) + 2 on every r-permutation with n <= 8, the images
        # of all ascent sequences of those lengths
        for n in range(1, 9):
            for x in fb.enumerate_ascent_sequences(n):
                pi = fb.sequence_to_perm(x)
                sites, _ = active_sites(pi)
                assert len(sites) == ascents(pi.inverse().entries) + 2

    def test_single_element(self):
        record = stats_of_sequence(AscentSequence((0,)))
        assert record == StatRecord(1, 1, 0, 0, 1, 1, (1,), (1,))

    def test_rejects_outside_family(self):
        with pytest.raises(NotInRError):
            stats_of_perm(Permutation((2, 3, 1)))

    def test_empty_objects_raise_a_typed_error(self):
        with pytest.raises(EmptyObjectError):
            stats_of_sequence(AscentSequence(()))
        with pytest.raises(EmptyObjectError):
            stats_of_perm(Permutation(()))
        with pytest.raises(EmptyObjectError):
            stats_of_poset(Poset.empty())


class TestDictionary:
    def test_full_dictionary(self, sequences_by_length):
        for n in range(1, 8):
            for x in sequences_by_length[n]:
                rec = stats_of_sequence(x)
                assert rec == stats_of_perm(fb.sequence_to_perm(x))
                assert rec == stats_of_poset(fb.sequence_to_poset(x))

    def test_polynomial_normalizations(self, sequences_by_length):
        for n in range(1, 7):
            for x in sequences_by_length[n]:
                rec = stats_of_sequence(x)
                # evaluating the level polynomial at 1 counts all elements,
                # and its constant term counts the minimal ones
                assert sum(rec.level_counts) == n
                assert rec.level_counts[0] == rec.minimals
                assert sum(rec.max_level_counts) == rec.maximals
                assert len(rec.level_counts) == rec.rank + 1

    def test_records_need_no_normalization(self):
        # every level 0..rank is occupied and the top level's elements are
        # maximal, so no count tuple ends in 0; the minimals of a
        # permutation are its left-to-right minima, and each record's
        # component count is that of `components`
        for n in range(1, 9):
            for x in fb.enumerate_ascent_sequences(n):
                m, pi, p = fb.to_modified(x), fb.sequence_to_perm(x), fb.sequence_to_poset(x)
                records = [stats_of_sequence(x), stats_of_perm(pi), stats_of_poset(p)]
                for rec, obj in zip(records, (m, pi, p)):
                    assert 0 not in rec.level_counts, x
                    assert rec.max_level_counts[-1] != 0, x
                    assert rec.components == len(components(obj)), x
                assert records[1].minimals == left_to_right_minima(pi.entries), x

    def test_modified_sequence_carries_the_sequence_statistics(self):
        # the record reads minimals, srank and rank off m alone
        for n in range(1, 10):
            for x in fb.enumerate_ascent_sequences(n):
                m = fb.to_modified(x).entries
                assert m.count(0) == x.entries.count(0), x
                assert m[-1] == x.entries[-1], x
                assert max(m) == ascents(x.entries), x

    def test_record_serialization(self):
        d = EXAMPLE_RECORD.as_dict()
        assert d["n"] == 8 and d["level_counts"] == [2, 3, 1, 1, 1]


class TestKernelsAgainstOracles:
    """The one-pass kernels against the separate passes of `reference`."""

    @staticmethod
    def check(x: AscentSequence) -> None:
        record = stats_of_sequence(x)
        assert record == stats_of_sequence_by_passes(x), x
        m, pi, p = fb.to_modified(x), fb.sequence_to_perm(x), fb.sequence_to_poset(x)
        assert stats_of_perm(pi) == stats_of_perm_by_passes(pi) == record, x
        assert stats_of_poset(p) == stats_of_poset_by_passes(p) == record, x
        for obj in (m, pi, p):
            sizes = components(obj)
            assert sizes == components_by_passes(obj), x
            assert sum(sizes) == len(x) and len(sizes) == record.components, x

    def test_every_object_with_n_at_most_8(self):
        for n in range(1, 9):
            for x in fb.enumerate_ascent_sequences(n):
                self.check(x)

    @pytest.mark.parametrize("n, seed", [(150, 1), (150, 2), (2000, 2000)])
    def test_seeded_sequences(self, n, seed):
        self.check(random_ascent_sequence(n, seed))

    def test_chain_and_antichain(self):
        for n in (1, 2, 150):
            self.check(AscentSequence(tuple(range(n))))
            self.check(AscentSequence((0,) * n))

    def test_zigzag_at_n_20000(self):
        # the interval form is O(n), though the poset has about 5 * 10^7 pairs
        self.check(AscentSequence(tuple(i % 2 for i in range(20000))))


class TestComponents:
    def test_sequence_example(self):
        assert components(ModifiedAscentSequence((0, 2, 0, 1, 3, 3))) == [4, 2]

    def test_permutation_example(self):
        assert components(Permutation((3, 1, 4, 2, 6, 5))) == [4, 2]

    def test_chain_splits_completely(self):
        assert components(Poset.chain(5)) == [1] * 5
        assert components(ModifiedAscentSequence((0, 1, 2, 3))) == [1] * 4

    def test_antichain_is_connected(self):
        assert components(Poset.antichain(4)) == [4]

    def test_trivial(self):
        assert components(Permutation(())) == []
        assert components(ModifiedAscentSequence(())) == []
        assert components(Poset.empty()) == []

    def test_other_types_are_rejected(self):
        with pytest.raises(TypeError) as info:
            components(object())
        assert (type(info.value), str(info.value)) == (TypeError, "no component structure for object")

    def test_poset_cuts_match_the_definition(self, sequences_by_length):
        # D_j splits off when every element lies in D_j or sits at level >= j
        for n in range(1, 8):
            for x in sequences_by_length[n]:
                p = fb.sequence_to_poset(x)
                cuts = [sum(1 for e in p.entry if e <= j) for j in range(1, p.rank + 1)
                        if all(e <= j or lvl >= j for lvl, e in zip(p.levels, p.entry))]
                sizes = [b - a for a, b in zip([0] + cuts, cuts + [n])]
                assert components(p) == sizes


class TestDirectSum:
    def test_sequence_example(self):
        total = direct_sum(ModifiedAscentSequence((0, 2, 0, 1)),
                           ModifiedAscentSequence((0, 0)))
        assert total.entries == (0, 2, 0, 1, 3, 3)

    def test_empty_is_neutral(self):
        a = ModifiedAscentSequence((0, 1, 0))
        assert direct_sum(ModifiedAscentSequence(()), a) == a
        assert direct_sum(a, ModifiedAscentSequence(())) == a
        pi = Permutation((2, 1))
        assert direct_sum(Permutation(()), pi) == pi
        p = Poset.chain(2)
        assert direct_sum(p, Poset.empty()) == p

    def test_mixed_types_rejected(self):
        with pytest.raises(TypeError):
            direct_sum(Permutation((1,)), Poset.chain(1))

    def test_component_counts_add(self, sequences_by_length):
        for total in range(2, 7):
            for la in range(1, total):
                for xa in sequences_by_length[la]:
                    for xb in sequences_by_length[total - la]:
                        a, b = fb.to_modified(xa), fb.to_modified(xb)
                        s = direct_sum(a, b)
                        assert components(s) == components(a) + components(b)

    def test_closure_in_each_family(self, sequences_by_length):
        for la in range(1, 4):
            for lb in range(1, 4):
                for xa in sequences_by_length[la]:
                    for xb in sequences_by_length[lb]:
                        a, b = fb.to_modified(xa), fb.to_modified(xb)
                        # sums are built unchecked: the constructors must accept them
                        s = direct_sum(a, b)
                        assert ModifiedAscentSequence(s.entries) == s
                        pa, pb = fb.sequence_to_perm(xa), fb.sequence_to_perm(xb)
                        assert fb.is_r_permutation(direct_sum(pa, pb))
                        q = direct_sum(fb.sequence_to_poset(xa), fb.sequence_to_poset(xb))
                        assert Poset(q.n, q.levels, q.entry) == q

    def test_compatible_with_the_bijections(self, sequences_by_length):
        for total in range(2, 8):
            for la in range(1, total):
                for xa in sequences_by_length[la]:
                    for xb in sequences_by_length[total - la]:
                        a, b = fb.to_modified(xa), fb.to_modified(xb)
                        x_sum = fb.from_modified(direct_sum(a, b))
                        assert fb.sequence_to_perm(x_sum) == direct_sum(
                            fb.sequence_to_perm(xa), fb.sequence_to_perm(xb))
                        assert fb.sequence_to_poset(x_sum) == direct_sum(
                            fb.sequence_to_poset(xa), fb.sequence_to_poset(xb))
