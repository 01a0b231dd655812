"""The bijections and their worked examples, roundtrips, and laws."""

from __future__ import annotations

import itertools
import time
import tracemalloc

import pytest
from hypothesis import given, strategies as st

import fishburn as fb
from fishburn import (
    AscentSequence,
    ChordInvolution,
    ModifiedAscentSequence,
    Permutation,
)
from fishburn.bijections import (
    _active_gaps,
    _first_neighbour_nesting,
    active_sites,
    canonical_labelling,
    dual,
    from_modified,
    involution_to_poset,
    perm_to_sequence,
    poset_to_involution,
    poset_to_perm,
    poset_to_sequence,
    remove_neighbour_nestings,
    sequence_to_perm,
    sequence_to_perm_by_insertion,
    sequence_to_poset,
    swap_endpoints,
    to_modified,
)
from fishburn.errors import NotInRError, NotModifiedSequenceError
from fishburn.objects import (
    enumerate_fixed_point_free_involutions,
    format_poset,
    in_I2n,
    neighbour_nesting_positions,
    parse_poset,
)
from fishburn.statistics import stats_of_perm, stats_of_sequence

from conftest import (
    CHORD10_SEQUENCE,
    POSET8B_LEVELS,
    POSET8B_SEQUENCE,
    POSET8C_LEVELS,
    POSET8C_SEQUENCE,
    random_ascent_sequence,
)
from test_objects import ascent_sequences


def _poset_by_insertion(entries):
    """Reference: the paper's insertion rule on explicit downsets, O(n^3).

    Inserting x_j: when x_j = rank+1, the new element lies above every
    element; when srank < x_j <= rank, it gets the downset D_{x_j}, and
    the maximal elements below level x_j join the downset of every
    element at level x_j or above; otherwise it gets D_{x_j} and nothing
    else changes.
    """
    down = []  # down[x-1]: the strict downset of x
    for i in entries:
        chain = sorted(set(map(frozenset, down)), key=len)  # D_0 < D_1 < ... < D_k
        level = [chain.index(d) for d in down]
        maximal = [x for x in range(1, len(down) + 1) if not any(x in d for d in down)]
        srank = min((level[x - 1] for x in maximal), default=-1)
        if i == len(chain):
            new = set(range(1, len(down) + 1))
        else:
            new = set(chain[i])
            if i > srank:
                lifted = {x for x in maximal if level[x - 1] < i}
                for d, lvl in zip(down, level):
                    if lvl >= i:
                        d |= lifted
        down.append(new)
    pairs = [(y, x) for x, d in enumerate(down, start=1) for y in d]
    return fb.poset_from_relations(fb.RelationMatrix(len(down), pairs))


def _perm_to_sequence_by_peeling(entries):
    """Reference encoding: delete n, n-1, ..., 2 in turn, recording the label
    of the active site each leaves behind; O(n^2)."""
    word = list(entries)
    out = [0] * len(word)
    for m in range(len(word), 1, -1):
        g = word.index(m)
        del word[g]
        out[m - 1] = _active_gaps(word).index(g)
    return tuple(out)


class TestPermutationEncoding:
    def test_worked_example(self):
        x = perm_to_sequence(Permutation((6, 1, 8, 3, 2, 5, 4, 7)))
        assert x.entries == (0, 1, 1, 2, 2, 0, 3, 1)

    def test_trivial_cases(self):
        assert perm_to_sequence(Permutation((1,))).entries == (0,)
        assert perm_to_sequence(Permutation((2, 1))).entries == (0, 0)
        assert perm_to_sequence(Permutation((1, 2))).entries == (0, 1)
        assert perm_to_sequence(Permutation(())).entries == ()

    def test_rejects_with_witness(self):
        with pytest.raises(NotInRError) as info:
            perm_to_sequence(Permutation((2, 3, 1)))
        assert info.value.witness == (1, 2, 3)

    def test_decode_worked_example(self):
        expect = (3, 1, 7, 6, 4, 8, 2, 5)
        x = AscentSequence((0, 1, 0, 1, 3, 1, 1, 2))
        assert sequence_to_perm(x).entries == expect
        assert sequence_to_perm_by_insertion(x).entries == expect

    def test_decode_single(self):
        assert sequence_to_perm(AscentSequence((0,))).entries == (1,)

    def test_decoders_agree_and_roundtrip(self, sequences_by_length):
        for n in range(7):
            for x in sequences_by_length[n]:
                pi = sequence_to_perm(x)
                assert sequence_to_perm_by_insertion(x) == pi
                assert perm_to_sequence(pi) == x

    @given(ascent_sequences())
    def test_roundtrip_random(self, x):
        pi = sequence_to_perm(x)
        assert sequence_to_perm_by_insertion(x) == pi
        assert perm_to_sequence(pi) == x

    def test_level_reading_matches_peeling(self):
        # every r-permutation with n <= 8, and random ones up to n = 300
        xs = [x for n in range(9) for x in fb.enumerate_ascent_sequences(n)]
        xs += [random_ascent_sequence(n, seed) for seed, n in enumerate((20, 60, 150, 300) * 3)]
        for x in xs:
            pi = sequence_to_perm(x)
            assert perm_to_sequence(pi).entries == _perm_to_sequence_by_peeling(pi.entries)


class TestActiveSites:
    def test_worked_example(self):
        profile = active_sites(Permutation((3, 1, 7, 6, 4, 8, 2, 5)))
        assert profile.sites == (0, 2, 5, 6, 7, 8)
        assert profile.s == 6
        assert profile.b == 2

    def test_single(self):
        profile = active_sites(Permutation((1,)))
        assert profile.s == 2
        assert profile.b == 0

    def test_rejects_outside_family(self):
        with pytest.raises(NotInRError):
            active_sites(Permutation((2, 3, 1)))

    def test_site_count_matches_ascents(self):
        pi = Permutation((6, 1, 8, 3, 2, 5, 4, 7))
        assert active_sites(pi).s == 2 + perm_to_sequence(pi).asc

    def test_profile_laws_exhaustive(self, sequences_by_length):
        for n in range(1, 7):
            for x in sequences_by_length[n]:
                profile = active_sites(sequence_to_perm(x))
                assert profile.s == 2 + x.asc
                assert profile.b == x.entries[-1]
                assert profile.sites[0] == 0 and profile.sites[-1] == n


class TestModification:
    def test_worked_example(self):
        m = to_modified(AscentSequence((0, 1, 0, 1, 3, 1, 1, 2)))
        assert m.entries == (0, 3, 0, 1, 4, 1, 1, 2)
        assert from_modified(m).entries == (0, 1, 0, 1, 3, 1, 1, 2)

    def test_no_ascents_fixed(self):
        assert to_modified(AscentSequence((0, 0, 0))).entries == (0, 0, 0)

    def test_trivial(self):
        assert to_modified(AscentSequence((0,))).entries == (0,)
        assert from_modified(ModifiedAscentSequence((0,))).entries == (0,)

    def test_injective_and_roundtrips(self, sequences_by_length):
        for n in range(8):
            images = set()
            for x in sequences_by_length[n]:
                m = to_modified(x)
                images.add(m.entries)
                assert from_modified(m) == x
                assert [a < b for a, b in zip(m, m[1:])] == [a < b for a, b in zip(x, x[1:])]
                assert (max(m.entries) if n else 0) == x.asc
            assert len(images) == len(sequences_by_length[n])

    def test_unreachable_input_rejected(self):
        with pytest.raises(NotModifiedSequenceError):
            ModifiedAscentSequence((0, 2))


class TestPosetEncoding:
    def test_deletion_walkthrough(self, poset8b):
        assert poset_to_sequence(poset8b).entries == POSET8B_SEQUENCE

    def test_insertion_walkthrough(self, poset8c):
        assert poset_to_sequence(poset8c).entries == POSET8C_SEQUENCE
        built = sequence_to_poset(AscentSequence(POSET8C_SEQUENCE))
        assert built == poset8c
        assert built.levels == POSET8C_LEVELS

    def test_chain_and_antichain(self):
        assert poset_to_sequence(fb.Poset.chain(5)).entries == (0, 1, 2, 3, 4)
        assert poset_to_sequence(fb.Poset.antichain(4)).entries == (0, 0, 0, 0)
        assert sequence_to_poset(AscentSequence((0, 0, 0))) == fb.Poset.antichain(3)

    def test_roundtrip_exhaustive(self, sequences_by_length):
        for n in range(8):
            for x in sequences_by_length[n]:
                assert poset_to_sequence(sequence_to_poset(x)) == x

    @given(ascent_sequences())
    def test_roundtrip_random(self, x):
        assert poset_to_sequence(sequence_to_poset(x)) == x

    def test_canonical_labels_sit_at_modified_levels(self, sequences_by_length):
        for n in range(8):
            for x in sequences_by_length[n]:
                p = sequence_to_poset(x)
                labels = canonical_labelling(p)
                m = to_modified(x).entries
                for element in range(1, n + 1):
                    assert p.level_of(element) == m[labels[element - 1] - 1]

    def test_insertion_steps(self, sequences_by_length):
        # each new element is a maximal element of minimal level, and the
        # rank grows exactly when its level exceeds the old srank
        for n in range(1, 8):
            for x in sequences_by_length[n]:
                srank, rank = -1, -1
                for j in range(1, n + 1):
                    prefix = AscentSequence(x.entries[:j])
                    p = sequence_to_poset(prefix)
                    assert fb.Poset(p.n, p.levels, p.entry) == p
                    assert p.srank == prefix.entries[-1]
                    assert p.rank == prefix.asc == rank + (p.srank > srank)
                    srank, rank = p.srank, p.rank

    def test_deletion_steps(self, sequences_by_length):
        # deletion undoes insertion: every prefix comes back, and the last
        # element inserted is the first deleted
        for n in range(1, 8):
            for x in sequences_by_length[n]:
                for j in range(1, n + 1):
                    prefix = AscentSequence(x.entries[:j])
                    p = sequence_to_poset(prefix)
                    assert poset_to_sequence(p) == prefix
                    assert canonical_labelling(p) == tuple(range(1, j + 1))

    def test_closed_form_matches_the_insertion_rule(self):
        for n in range(9):
            for x in fb.enumerate_ascent_sequences(n):
                assert sequence_to_poset(x) == _poset_by_insertion(x.entries)

    def test_rank_n_minus_one_takes_time_and_memory_in_proportion_to_n(self):
        # every step on a chain adds or drops the top row; a state with a
        # slot per (level, entry) pair would hold n^2/2 of them
        for n in (2000, 20000):
            x = AscentSequence(tuple(range(n)))
            chain = ChordInvolution(tuple(p + 1 if p % 2 else p - 1 for p in range(1, 2 * n + 1)))
            tracemalloc.start()
            try:
                assert poset_to_involution(sequence_to_poset(x)) == chain
                assert poset_to_sequence(involution_to_poset(chain)) == x
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1000 * n
        start = time.perf_counter()
        poset_to_involution(sequence_to_poset(x))
        poset_to_sequence(involution_to_poset(chain))
        assert time.perf_counter() - start < 2.0

    def test_canonical_labelling_of_relabelled_poset(self, poset8b):
        # built with canonical labels, the walkthrough poset has levels m_i
        built = sequence_to_poset(AscentSequence(POSET8B_SEQUENCE))
        assert built.levels == POSET8B_LEVELS
        assert canonical_labelling(built) == tuple(range(1, 9))


class TestPosetToPerm:
    def test_worked_example(self, poset8b):
        assert poset_to_perm(poset8b).entries == (3, 1, 7, 6, 4, 8, 2, 5)

    def test_single(self):
        assert poset_to_perm(fb.Poset.antichain(1)).entries == (1,)

    def test_triangle_commutes(self, sequences_by_length):
        for n in range(8):
            for x in sequences_by_length[n]:
                assert poset_to_perm(sequence_to_poset(x)) == sequence_to_perm(x)

    def test_active_sites_are_level_boundaries(self, sequences_by_length):
        for n in range(1, 7):
            for x in sequences_by_length[n]:
                p = sequence_to_poset(x)
                sizes = [len(s) for s in p.level_sets()]
                boundaries = [0] + list(itertools.accumulate(sizes))
                assert active_sites(poset_to_perm(p)).sites == tuple(boundaries)


class TestIntervalOrders:
    def test_worked_example(self, chord10):
        p = involution_to_poset(chord10)
        assert p.levels == (0, 0, 0, 1, 2)
        assert poset_to_sequence(p).entries == CHORD10_SEQUENCE

    def test_single_chord(self):
        p = involution_to_poset(ChordInvolution((2, 1)))
        assert p.n == 1
        assert poset_to_involution(p).partner == (2, 1)

    def test_reconstruction_worked_example(self, chord10):
        assert poset_to_involution(involution_to_poset(chord10)) == chord10

    def test_roundtrips_exhaustive(self, sequences_by_length):
        for n in range(7):
            for x in sequences_by_length[n]:
                c = poset_to_involution(sequence_to_poset(x))
                assert in_I2n(c)
                assert poset_to_sequence(involution_to_poset(c)) == x
        for points in range(0, 13, 2):
            for c in enumerate_fixed_point_free_involutions(points):
                if in_I2n(c):
                    assert poset_to_involution(involution_to_poset(c)) == c

    def test_sweep_matches_the_interval_relation(self):
        for points in range(0, 11, 2):
            for c in enumerate_fixed_point_free_involutions(points):
                chords = c.chords()
                pairs = frozenset((a, b)
                                  for a, (_, closer) in enumerate(chords, start=1)
                                  for b, (opener, _) in enumerate(chords, start=1)
                                  if closer < opener)
                expected = fb.poset_from_relations(fb.RelationMatrix(len(chords), pairs))
                assert involution_to_poset(c) == expected

    def test_mirror_gives_dual(self):
        for points in range(2, 9, 2):
            for c in enumerate_fixed_point_free_involutions(points):
                lhs = poset_to_sequence(involution_to_poset(c.mirror()))
                rhs = poset_to_sequence(dual(involution_to_poset(c)))
                assert lhs == rhs

    def test_chord_level_counts_closing_runs(self):
        for points in range(2, 11, 2):
            for c in enumerate_fixed_point_free_involutions(points):
                p = involution_to_poset(c)
                for label, (opener, _closer) in enumerate(c.chords(), start=1):
                    runs = 0
                    for j in range(2, opener + 1):
                        if not c.is_opener(j) and c.is_opener(j - 1):
                            runs += 1
                    assert p.level_of(label) == runs


class TestNestingRemoval:
    def test_worked_example(self):
        before = ChordInvolution((3, 6, 1, 5, 4, 2, 10, 9, 8, 7))
        after = remove_neighbour_nestings(before)
        assert after.partner == (3, 5, 1, 6, 2, 4, 9, 10, 7, 8)
        assert in_I2n(after)

    def test_identity_on_members(self):
        for points in range(0, 11, 2):
            for c in enumerate_fixed_point_free_involutions(points):
                if in_I2n(c):
                    assert remove_neighbour_nestings(c) == c

    def test_matches_reconstruction(self):
        for points in range(0, 9, 2):
            for c in enumerate_fixed_point_free_involutions(points):
                assert remove_neighbour_nestings(c) == poset_to_involution(involution_to_poset(c))

    def test_each_swap_preserves_the_order(self):
        for points in (6, 8):
            for c in enumerate_fixed_point_free_involutions(points):
                target = poset_to_sequence(involution_to_poset(c))
                current = c
                while True:
                    spots = neighbour_nesting_positions(current)
                    if not spots:
                        break
                    current = swap_endpoints(current, spots[0])
                    assert poset_to_sequence(involution_to_poset(current)).entries == target.entries

    def test_each_swap_raises_the_crossing_number(self):
        # the count strictly grows, so the swapping terminates
        def crossings(c):
            return sum(1 for (a1, b1), (a2, b2) in itertools.combinations(c.chords(), 2)
                       if a1 < a2 < b1 < b2)

        for points in range(0, 11, 2):
            for c in enumerate_fixed_point_free_involutions(points):
                current = c
                while (i := _first_neighbour_nesting(current.partner)) is not None:
                    swapped = swap_endpoints(current, i)
                    assert crossings(swapped) > crossings(current)
                    current = swapped
                assert current == remove_neighbour_nestings(c)

    def test_result_is_order_independent(self):
        # explore every order of applying the swaps on 8 points
        for c in enumerate_fixed_point_free_involutions(8):
            expected = remove_neighbour_nestings(c)
            stack, seen = [c], set()
            while stack:
                cur = stack.pop()
                if cur.partner in seen:
                    continue
                seen.add(cur.partner)
                spots = neighbour_nesting_positions(cur)
                if not spots:
                    assert cur == expected
                stack.extend(swap_endpoints(cur, i) for i in spots)


def chord_involutions(max_chords=8):
    """Hypothesis strategy: a random fixed-point-free involution."""

    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=0, max_value=max_chords))
        points = list(range(1, 2 * n + 1))
        partner = [0] * (2 * n)
        while points:
            a = points.pop(0)
            b = points.pop(draw(st.integers(min_value=0, max_value=len(points) - 1)))
            partner[a - 1], partner[b - 1] = b, a
        return ChordInvolution(tuple(partner))

    return build()


class TestRandomChordDiagrams:
    @given(chord_involutions())
    def test_normalization_matches_reconstruction(self, c):
        cleaned = remove_neighbour_nestings(c)
        assert in_I2n(cleaned)
        assert cleaned == poset_to_involution(involution_to_poset(c))

    @given(chord_involutions())
    def test_mirror_gives_dual_randomized(self, c):
        lhs = poset_to_sequence(involution_to_poset(c.mirror()))
        rhs = poset_to_sequence(dual(involution_to_poset(c)))
        assert lhs == rhs


class TestDuality:
    def test_self_dual_families(self):
        chain = fb.Poset.chain(4)
        assert poset_to_sequence(dual(chain)) == poset_to_sequence(chain)
        assert dual(fb.Poset.antichain(4)) == fb.Poset.antichain(4)

    def test_involutive_and_rank_preserving(self, sequences_by_length):
        for n in range(7):
            for x in sequences_by_length[n]:
                p = sequence_to_poset(x)
                d = dual(p)
                assert dual(d) == p
                if n:
                    assert d.rank == p.rank

    def test_reflection_matches_the_flipped_relation(self, sequences_by_length):
        for n in range(8):
            for x in sequences_by_length[n]:
                p = sequence_to_poset(x)
                rel = fb.poset_to_relations(p)
                flipped = fb.RelationMatrix(n, frozenset((b, a) for a, b in rel.pairs))
                assert dual(p) == fb.poset_from_relations(flipped)

    def test_dual_of_walkthrough_poset(self, poset8b):
        pi = sequence_to_perm(poset_to_sequence(dual(poset8b)))
        assert pi.entries == (4, 1, 7, 2, 6, 5, 8, 3)


class TestLargeInputs:
    def test_poset_and_involution_paths_at_n_1000(self):
        x = random_ascent_sequence(1000, seed=1000)
        p = sequence_to_poset(x)
        assert poset_to_sequence(involution_to_poset(poset_to_involution(p))) == x
        assert dual(dual(p)) == p

    def test_poset_text_form_at_n_300(self):
        p = sequence_to_poset(random_ascent_sequence(300, seed=300))
        assert parse_poset(format_poset(p)) == p

    def test_poset_text_form_at_n_1000(self):
        p = sequence_to_poset(random_ascent_sequence(1000, seed=1001))
        assert parse_poset(format_poset(p)) == p

    def test_alternating_sequence_at_n_20000(self):
        # rank n/2: every other step opens or empties a level in the middle
        x = AscentSequence(tuple(i % 2 for i in range(20000)))
        start = time.perf_counter()
        p = sequence_to_poset(x)
        assert poset_to_sequence(p) == x
        assert poset_to_sequence(involution_to_poset(poset_to_involution(p))) == x
        assert time.perf_counter() - start < 2.0

    def test_modification_of_a_random_sequence_at_n_20000(self):
        x = random_ascent_sequence(20000, seed=20000)
        start = time.perf_counter()
        m = to_modified(x)
        assert from_modified(m) == x
        assert time.perf_counter() - start < 2.0
        assert max(m.entries) == x.asc

    def test_modification_roundtrip_at_n_2000_with_1000_ascents(self):
        # each odd entry ascends to asc/2 + 1, opening a level below earlier tops
        entries, asc = [0], 0
        for i in range(1, 2000):
            entries.append(asc // 2 + 1 if i % 2 else 0)
            asc += i % 2
        x = AscentSequence(tuple(entries))
        m = to_modified(x)
        assert x.asc == 1000 and max(m.entries) == 1000
        assert from_modified(m) == x

    @pytest.mark.parametrize("x", [random_ascent_sequence(2000, seed=2000),
                                   AscentSequence((0,) * 2000)], ids=["seeded", "zeros"])
    def test_sequence_paths_at_n_2000(self, x):
        m = to_modified(x)
        assert from_modified(m) == x
        pi = sequence_to_perm(x)
        assert perm_to_sequence(pi) == x
        record = stats_of_sequence(x)
        assert record.size == 2000 and record == stats_of_perm(pi)
