"""Object validation, enumeration oracles, and canonical text forms."""

from __future__ import annotations

import collections
import itertools
import json
import random
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
    Poset,
)
from fishburn.errors import (
    BruteForceCapError,
    FixedPointError,
    NotAscentSequenceError,
    NotInvolutionError,
    NotModifiedSequenceError,
    NotPartialOrderError,
    NotPermutationError,
    NotTwoPlusTwoFreeError,
    ParseError,
)
from fishburn.objects import (
    _is_modified,
    ascents,
    check_brute_force_cap,
    descent_condition_holds,
    enumerate_family,
    enumerate_fixed_point_free_involutions,
    format_involution,
    format_poset,
    format_sequence,
    in_I2n,
    neighbour_nesting_positions,
    parse_involution,
    parse_permutation,
    parse_poset,
    parse_sequence,
    poset_from_relations,
    poset_to_relations,
    runs_increasing,
    validate_ascent_sequence,
    validate_involution,
)

from conftest import (
    FISHBURN_COUNTS,
    POSET8A_LEVELS,
    random_ascent_sequence,
    relations,
)


def ascent_sequences(max_length=12):
    """Hypothesis strategy: a valid ascent sequence of length <= max_length."""

    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=0, max_value=max_length))
        entries = []
        asc = 0
        for i in range(n):
            bound = 1 + asc if i else 0
            e = draw(st.integers(min_value=0, max_value=bound))
            if entries and e > entries[-1]:
                asc += 1
            entries.append(e)
        return AscentSequence(tuple(entries))

    return build()


class TestAscentSequences:
    def test_worked_example_is_valid(self):
        validate_ascent_sequence((0, 1, 0, 2, 3, 1, 0, 0, 2))

    def test_base_cases(self):
        validate_ascent_sequence(())
        validate_ascent_sequence((0,))

    def test_bound_violation_reports_first_index(self):
        with pytest.raises(NotAscentSequenceError) as info:
            validate_ascent_sequence((0, 2))
        assert info.value.index == 2

    def test_nonzero_start_reports_index_one(self):
        with pytest.raises(NotAscentSequenceError) as info:
            validate_ascent_sequence((1, 0))
        assert info.value.index == 1

    def test_negative_entry_rejected(self):
        with pytest.raises(NotAscentSequenceError):
            validate_ascent_sequence((0, -1))

    def test_enumeration_n2(self):
        got = [x.entries for x in fb.enumerate_ascent_sequences(2)]
        assert got == [(0, 0), (0, 1)]

    @pytest.mark.parametrize("n", range(9))
    def test_enumeration_counts(self, n):
        assert sum(1 for _ in fb.enumerate_ascent_sequences(n)) == FISHBURN_COUNTS[n]

    def test_enumeration_is_lexicographic_and_duplicate_free(self, sequences_by_length):
        for n, seqs in sequences_by_length.items():
            entries = [x.entries for x in seqs]
            assert entries == sorted(set(entries))

    def test_enumeration_starts_at_n_3000(self):
        # one loop, not one generator frame per entry
        first = list(itertools.islice(fb.enumerate_ascent_sequences(3000), 5))
        assert [x.entries[-3:] for x in first] == [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (0, 1, 2)]
        assert all(x.entries[:-3] == (0,) * 2997 for x in first)

    def test_length_nine_count_matches_product_formula(self):
        count = sum(1 for _ in fb.enumerate_ascent_sequences(9))
        assert count == fb.p_series(9)[9]

    @given(ascent_sequences())
    def test_strategy_roundtrips_validation(self, x):
        assert validate_ascent_sequence(x.entries) == x

    def test_sequence_classes_stay_apart(self):
        x, m = AscentSequence((0, 1)), ModifiedAscentSequence((0, 1))
        assert x != m and m != x
        assert not isinstance(x, ModifiedAscentSequence)
        assert not isinstance(m, AscentSequence)
        assert (len(x), list(x), x[1], str(x), x.asc) == (len(m), list(m), m[1], str(m), m.asc)


class TestModifiedSequences:
    def test_valid_examples(self):
        ModifiedAscentSequence((0, 3, 0, 1, 4, 1, 1, 2))
        ModifiedAscentSequence(())
        ModifiedAscentSequence((0,))

    @pytest.mark.parametrize("bad", [(1,), (0, 2), (0, 1, 3), (0, 0, 2)])
    def test_invalid_examples(self, bad):
        with pytest.raises(NotModifiedSequenceError):
            ModifiedAscentSequence(bad)

    @pytest.mark.parametrize("n", range(7))
    def test_membership_equals_image_of_modification(self, n, sequences_by_length):
        images = {fb.to_modified(x).entries for x in sequences_by_length[n]}
        candidates = _all_tuples(n)
        accepted = {t for t in candidates if _is_modified_quietly(t)}
        assert accepted == images


def _is_modified_by_peeling(entries):
    """Reference membership test: peel off the last entry, O(n * asc).

    (y_1,..,y_n) qualifies iff n = 0, or n = 1 and y_1 = 0, or the last
    entry either (a) weakly descends, with a qualifying prefix, or (b) is
    a new strict maximum bounded by 1 + asc(prefix), absent from the
    prefix, and the prefix with every entry above y_n decremented
    qualifies.
    """
    if any(e < 0 for e in entries):
        return False
    work = list(entries)
    asc = ascents(work)
    while len(work) > 1:
        last = work.pop()
        if last <= work[-1]:
            continue
        asc -= 1
        if last > 1 + asc or last in work:
            return False
        work = [e - 1 if e >= last else e for e in work]
    return not work or work[0] == 0


@pytest.mark.parametrize("n", range(7))
def test_closed_form_membership_matches_peeling(n):
    accepted = 0
    for t in itertools.product(range(-1, n + 1), repeat=n):
        expected = _is_modified_by_peeling(t)
        assert _is_modified(t) == expected, t
        accepted += expected
    assert accepted == len({fb.to_modified(x).entries for x in fb.enumerate_ascent_sequences(n)})


def _all_tuples(n):
    if n == 0:
        return {()}
    out = {(0,)}
    for _ in range(n - 1):
        out = {t + (v,) for t in out for v in range(n)}
    return out


def _is_modified_quietly(t):
    try:
        ModifiedAscentSequence(t)
        return True
    except NotModifiedSequenceError:
        return False


class TestPermutations:
    def test_validation(self):
        Permutation(())
        Permutation((2, 1))
        with pytest.raises(NotPermutationError):
            Permutation((1, 1))
        with pytest.raises(NotPermutationError):
            Permutation((0, 1))

    def test_inverse_and_symmetries(self):
        pi = Permutation((3, 1, 2))
        assert pi.inverse().entries == (2, 3, 1)
        assert pi.reverse().entries == (2, 1, 3)
        assert pi.complement().entries == (1, 3, 2)

    def test_membership_witness(self):
        assert fb.is_r_permutation(Permutation((3, 1, 5, 2, 4)))
        assert not fb.is_r_permutation(Permutation((3, 2, 5, 4, 1)))
        assert fb.objects.r_violation(Permutation((2, 3, 1))) == (1, 2, 3)


class TestPosets:
    def test_leveled_example(self, poset8a):
        assert poset8a.levels == POSET8A_LEVELS
        assert poset8a.rank == 3
        assert poset8a.srank == 1
        assert len(poset8a.downset_of(1)) == 6

    def test_antichain_from_relations(self):
        p = relations(4, [])
        assert p.levels == (0, 0, 0, 0)
        assert p.rank == 0

    def test_two_plus_two_rejection(self):
        # dot diagram of 41523 under the coordinatewise order
        w = (4, 1, 5, 2, 3)
        pairs = [(i + 1, j + 1) for i in range(5) for j in range(5)
                 if i < j and w[i] < w[j]]
        with pytest.raises(NotTwoPlusTwoFreeError) as info:
            relations(5, pairs)
        induced = {(x, y) for x in info.value.witness for y in info.value.witness
                   if (x, y) in set(pairs)}
        assert len(induced) == 2
        (x1, y1), (x2, y2) = sorted(induced)
        assert {x1, y1} & {x2, y2} == set()

    def test_not_partial_order(self):
        with pytest.raises(NotPartialOrderError):
            relations(2, [(1, 1)])
        with pytest.raises(NotPartialOrderError):
            relations(3, [(1, 2), (2, 3)])  # missing (1,3)

    def test_single_and_chain_relations(self):
        assert list(poset_to_relations(Poset.antichain(1)).pairs) == []
        assert list(poset_to_relations(Poset.chain(2)).pairs) == [(1, 2)]

    def test_relation_roundtrip_exhaustive(self, sequences_by_length):
        for n in range(7):
            for x in sequences_by_length[n]:
                p = fb.sequence_to_poset(x)
                assert poset_from_relations(poset_to_relations(p)) == p

    def test_reverse_composition_fixes_relations(self, sequences_by_length):
        # relation -> poset -> relation is the identity, whatever the labels
        import random

        rng = random.Random(7)
        for n in range(1, 7):
            for x in sequences_by_length[n]:
                base = poset_to_relations(fb.sequence_to_poset(x))
                relabel = list(range(1, n + 1))
                rng.shuffle(relabel)
                pairs = frozenset((relabel[a - 1], relabel[b - 1]) for a, b in base.pairs)
                rel = fb.RelationMatrix(n, pairs)
                assert poset_to_relations(poset_from_relations(rel)) == rel

    def test_invariant_violations_rejected(self):
        with pytest.raises(ValueError):
            Poset(3, (0, 2, 0), (1, 3, 2))  # level 1 unoccupied
        with pytest.raises(ValueError):
            Poset(2, (0, 1), (2, 1))  # member level too high: 2 in D_1 at level 1
        with pytest.raises(ValueError):
            Poset(1, (0,), (0,))  # chain must start empty: 1 in D_0

    def test_repeated_downset_rejected(self):
        with pytest.raises(ValueError):
            Poset(2, (0, 1), (2, 2))  # nothing enters at 1, so D_1 = D_0

    @pytest.mark.parametrize("n", range(5))
    def test_every_relation_against_the_axioms(self, n):
        # all 2^(n*n) relations on 1..n: the error type follows the first
        # failing axiom, and an accepted relation comes back unchanged
        points = range(1, n + 1)
        grid = [(a, b) for a in points for b in points]
        for mask in range(1 << len(grid)):
            pairs = frozenset(pair for bit, pair in enumerate(grid) if mask >> bit & 1)
            rel = fb.RelationMatrix(n, pairs)
            if any(a == b for a, b in pairs) or any(
                    (b, c) in pairs and (a, c) not in pairs for a, b in pairs for c in points):
                expected = NotPartialOrderError
            elif any((a, d) not in pairs and (c, b) not in pairs
                     for a, b in pairs for c, d in pairs):
                expected = NotTwoPlusTwoFreeError
            else:
                assert poset_to_relations(poset_from_relations(rel)) == rel
                continue
            with pytest.raises(expected):
                poset_from_relations(rel)

    @given(ascent_sequences(max_length=10))
    def test_random_poset_relation_roundtrip(self, x):
        p = fb.sequence_to_poset(x)
        assert poset_from_relations(poset_to_relations(p)) == p

    def test_memory_follows_the_pairs_not_n(self):
        # an element in no pair shares the one empty downset
        tracemalloc.start()
        try:
            p = parse_poset('{"n":100000,"relations":[]}')
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert p == Poset.antichain(100000)
        assert peak < 16 * 2**20

    def test_axiom_errors_at_large_n_with_few_pairs(self):
        # the scans for a witness visit only elements above another
        with pytest.raises(NotTwoPlusTwoFreeError) as info:
            parse_poset('{"n":100000,"relations":[[99997,99998],[99999,100000]]}')
        assert info.value.witness == (99997, 99998, 99999, 100000)
        with pytest.raises(NotPartialOrderError, match="99998 < 99999 < 100000"):
            parse_poset('{"n":100000,"relations":[[99998,99999],[99999,100000]]}')


    @pytest.mark.parametrize("n", [300, 400])
    def test_transitivity_witness_on_a_long_chain(self, n):
        # a chain with the one pair (n-2, n) left out
        pairs = ",".join(f"[{a},{b}]" for a in range(1, n + 1) for b in range(a + 1, n + 1)
                         if (a, b) != (n - 2, n))
        text = f'{{"n":{n},"relations":[{pairs}]}}'
        start = time.perf_counter()
        with pytest.raises(NotPartialOrderError) as info:
            parse_poset(text)
        assert time.perf_counter() - start < 2.0
        assert str(info.value) == f"transitivity fails on {n - 2} < {n - 1} < {n}"

    def test_two_plus_two_witness_on_the_top_labels(self):
        # a chain on 1..n-2, n-1 above 1..n-4, n above 1..n-4 and n-1: the
        # 2+2 sits on the top four labels, after every other pair of uppers
        n = 800
        pairs = sorted([(a, b) for a in range(1, n - 1) for b in range(a + 1, n - 1)]
                       + [(a, n - 1) for a in range(1, n - 3)]
                       + [(a, n) for a in range(1, n - 3)] + [(n - 1, n)])
        text = '{"n":%d,"relations":[%s]}' % (n, ",".join(f"[{a},{b}]" for a, b in pairs))
        start = time.perf_counter()
        with pytest.raises(NotTwoPlusTwoFreeError) as info:
            parse_poset(text)
        assert time.perf_counter() - start < 2.0
        assert info.value.witness == (n - 3, n - 2, n - 1, n)
        assert str(info.value) == f"contains an induced 2+2 on {(n - 3, n - 2, n - 1, n)}"

    def test_parse_poset_against_the_axioms_on_random_relations(self):
        # the error type follows the first failing axiom, checked by brute
        # force; a 2+2 witness is an induced 2+2, and an accepted relation
        # comes back unchanged
        rng = random.Random(2010)
        seen = collections.Counter()
        for _ in range(3000):
            n = rng.randint(0, 6)
            kind = rng.randrange(3)
            if kind == 0:
                grid = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1)]
                density = rng.random() / 2
                pairs = [pair for pair in grid if rng.random() < density]
            elif kind == 1:  # the transitive closure of a random labelled DAG
                n = rng.randint(4, 6)
                order = rng.sample(range(1, n + 1), n)
                pairs = {(a, b) for i, a in enumerate(order) for b in order[i + 1:]
                         if rng.random() < 0.3}
                for c in order:
                    pairs |= {(a, d) for a, b in pairs if b == c for e, d in pairs if e == c}
                pairs = sorted(pairs)
            else:  # a labelled poset with at most two pairs flipped
                n = max(n, 1)
                p = fb.sequence_to_poset(random_ascent_sequence(n, rng.randrange(2**32)))
                relabel = rng.sample(range(1, n + 1), n)
                pairs = {(relabel[a - 1], relabel[b - 1]) for a, b in poset_to_relations(p).pairs}
                for _ in range(rng.randint(0, 2)):
                    pairs ^= {(rng.randint(1, n), rng.randint(1, n))}
                pairs = sorted(pairs, key=lambda _: rng.random())
            text = '{"n":%d,"relations":[%s]}' % (n, ",".join(f"[{a},{b}]" for a, b in pairs))
            expected = _first_failing_axiom(n, set(pairs))
            seen[expected] += 1
            if expected is None:
                assert poset_to_relations(parse_poset(text)).pairs == tuple(sorted(set(pairs)))
                continue
            with pytest.raises(expected) as info:
                parse_poset(text)
            if expected is NotTwoPlusTwoFreeError:
                w = info.value.witness
                below = {(a, b) for a, b in pairs if a in w and b in w}
                assert len(below) == 2 and len({x for pair in below for x in pair}) == 4
                assert w == _first_two_plus_two(pairs)
        assert min(seen.values()) > 200, seen

    def test_transitivity_witness_is_the_first_in_sorted_order(self):
        # the first failing pair (a, b) in sorted order, with the least c
        rng = random.Random(11)
        failures = 0
        for _ in range(4000):
            n = rng.randint(2, 7)
            grid = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1) if a != b]
            pairs = frozenset(pair for pair in grid if rng.random() < rng.random())
            witness = next(((a, b, c) for a, b in sorted(pairs) for c in range(1, n + 1)
                            if (b, c) in pairs and (a, c) not in pairs), None)
            if witness is None:
                try:
                    relations(n, pairs)
                except NotTwoPlusTwoFreeError:
                    pass
                continue
            failures += 1
            with pytest.raises(NotPartialOrderError) as info:
                relations(n, pairs)
            assert str(info.value) == "transitivity fails on {} < {} < {}".format(*witness)
        assert failures > 1000


def _first_failing_axiom(n, pairs):
    """Brute force: the error for the first axiom `pairs` fails, or None."""
    points = range(1, n + 1)
    if any(a == b for a, b in pairs):
        return NotPartialOrderError
    if any((b, c) in pairs and (a, c) not in pairs for a, b in pairs for c in points):
        return NotPartialOrderError
    if any((a, d) not in pairs and (c, b) not in pairs for a, b in pairs for c, d in pairs):
        return NotTwoPlusTwoFreeError
    return None



def _first_two_plus_two(pairs):
    """The witness named for a strict order that is not 2+2-free: the first
    pair x < y of labels above something, in lexicographic order, whose
    downsets are incomparable, with the least label of each difference."""
    down = collections.defaultdict(set)
    for a, b in pairs:
        down[b].add(a)
    for x, y in itertools.combinations(sorted(down), 2):
        dx, dy = down[x] - down[y], down[y] - down[x]
        if dx and dy:
            return tuple(sorted((x, min(dx), y, min(dy))))
    return None

class TestRelationMatrix:
    def test_pairs_are_sorted_and_distinct(self):
        expected = ((1, 2), (1, 3), (2, 3))
        for given in ([(2, 3), (1, 2), (2, 3), [1, 3]], frozenset(expected),
                      (pair for pair in reversed(expected)), expected):
            assert fb.RelationMatrix(3, given).pairs == expected
        assert fb.RelationMatrix(0, []).pairs == ()

    def test_members_are_coerced_to_int(self):
        rel = fb.RelationMatrix(3, [("2", 3.0), (True, 2), (1, 2)])
        assert rel.pairs == ((1, 2), (2, 3))
        assert {type(v) for pair in rel.pairs for v in pair} == {int}
        assert fb.RelationMatrix(3, [(True, 2)]) == fb.RelationMatrix(3, [(1, 2)])

    def test_less_matches_the_pair_set(self, sequences_by_length):
        # every poset with n <= 4, and every relation on 1..3
        rels = [poset_to_relations(fb.sequence_to_poset(x))
                for n in range(5) for x in sequences_by_length[n]]
        for n in range(4):
            grid = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1)]
            rels += [fb.RelationMatrix(n, [pair for bit, pair in enumerate(grid) if mask >> bit & 1])
                     for mask in range(1 << len(grid))]
        for rel in rels:
            pairs = set(rel.pairs)
            for a in range(rel.n + 2):
                for b in range(rel.n + 2):
                    assert rel.less(a, b) == ((a, b) in pairs)

    def test_out_of_range_names_the_first_pair(self):
        with pytest.raises(ValueError, match=r"relation \(0,2\) out of range 1\.\.3"):
            fb.RelationMatrix(3, [(5, 1), (1, 4), (0, 2), (2, 3)])
        with pytest.raises(ValueError, match=r"relation \(1,4\) out of range"):
            fb.RelationMatrix(3, frozenset({(5, 1), (1, 4), (2, 3)}))
        for bad in ((2, 4), (2, 0)):
            with pytest.raises(ValueError, match=rf"relation \({bad[0]},{bad[1]}\) out of range"):
                fb.RelationMatrix(3, [(1, 2), bad, (3, 1)])

    def test_axiom_errors_name_the_first_pair(self):
        with pytest.raises(NotPartialOrderError, match=r"reflexive pair \(2,2\)"):
            relations(3, [(3, 3), (1, 2), (2, 2)])
        # 1 < 2 < 3 < 4 with no transitive pairs: the scan starts at (1, 2)
        with pytest.raises(NotPartialOrderError, match="transitivity fails on 1 < 2 < 3"):
            relations(4, [(3, 4), (2, 3), (1, 2)])


class TestInvolutions:
    def test_worked_example_membership(self, chord10):
        assert in_I2n(chord10)

    def test_single_chord(self):
        assert in_I2n(validate_involution((2, 1)))

    def test_crossing_vs_nesting(self):
        assert in_I2n(ChordInvolution((3, 4, 1, 2)))
        nested = ChordInvolution((4, 3, 2, 1))
        assert not in_I2n(nested)
        assert neighbour_nesting_positions(nested) == [1, 3]

    def test_validation_errors(self):
        with pytest.raises(NotInvolutionError):
            validate_involution((2, 3, 1))
        with pytest.raises(FixedPointError):
            validate_involution((1, 2))
        with pytest.raises(NotInvolutionError):
            validate_involution((2, 1, 4))

    @pytest.mark.parametrize("points", [0, 2, 4, 6, 8])
    def test_three_membership_checks_agree(self, points):
        for c in enumerate_fixed_point_free_involutions(points):
            by_descent = descent_condition_holds(c)
            assert by_descent == runs_increasing(c)
            assert by_descent == (not neighbour_nesting_positions(c))
            assert in_I2n(c) == by_descent

    @pytest.mark.parametrize("points,count", [(0, 1), (2, 1), (4, 3), (6, 15), (8, 105)])
    def test_fixed_point_free_count_is_double_factorial(self, points, count):
        assert sum(1 for _ in enumerate_fixed_point_free_involutions(points)) == count

    def test_member_count_beyond_default_cap(self):
        # direct filter on 14 points, bypassing the capped helper
        members = sum(1 for c in enumerate_fixed_point_free_involutions(14) if in_I2n(c))
        assert members == FISHBURN_COUNTS[7]


class TestFamilyEnumeration:
    @pytest.mark.parametrize("family", ["ascseq", "posets", "perms", "involutions"])
    def test_counts_line_up(self, family):
        top = 6 if family == "involutions" else 8
        for n in range(top + 1):
            assert sum(1 for _ in enumerate_family(family, n)) == FISHBURN_COUNTS[n]

    def test_trivial_streams(self):
        assert [pi.entries for pi in enumerate_family("perms", 1)] == [(1,)]
        assert [c.partner for c in enumerate_family("involutions", 1)] == [(2, 1)]

    @pytest.mark.parametrize("family", ["posets", "perms", "involutions"])
    def test_streams_follow_sequence_order(self, family, sequences_by_length):
        from fishburn import bijections as bj

        for n in range(6):
            seqs = [x.entries for x in sequences_by_length[n]]
            got = []
            for obj in enumerate_family(family, n):
                if family == "posets":
                    got.append(bj.poset_to_sequence(obj).entries)
                elif family == "perms":
                    got.append(bj.perm_to_sequence(obj).entries)
                else:
                    got.append(bj.poset_to_sequence(bj.involution_to_poset(obj)).entries)
            assert got == seqs

    def test_cap_applies(self):
        with pytest.raises(BruteForceCapError):
            list(enumerate_family("perms", 10))
        with pytest.raises(BruteForceCapError):
            list(enumerate_family("involutions", 7))
        check_brute_force_cap("perms", 9)
        with pytest.raises(BruteForceCapError):
            check_brute_force_cap("perms", 10)

    def test_cap_override(self, monkeypatch):
        monkeypatch.setenv("FISHBURN_MAX_BRUTE_N", "4")
        with pytest.raises(BruteForceCapError):
            list(enumerate_family("perms", 5))
        monkeypatch.setenv("FISHBURN_MAX_BRUTE_N", "10")
        assert sum(1 for _ in enumerate_family("perms", 5)) == 53


class TestTextForms:
    def test_sequence_forms(self):
        assert format_sequence((0, 1, 0, 2)) == "[0,1,0,2]"
        assert parse_sequence("[0,1,0,2]") == (0, 1, 0, 2)
        assert parse_sequence("[]") == ()
        assert format_sequence(()) == "[]"
        with pytest.raises(ParseError):
            parse_sequence("0,1")

    def test_permutation_forms(self):
        assert str(Permutation((3, 1, 2))) == "3 1 2"
        assert parse_permutation("3 1 2").entries == (3, 1, 2)
        with pytest.raises(ParseError):
            parse_permutation("a b")

    def test_poset_form_is_sorted_json(self, poset8a):
        text = format_poset(poset8a)
        assert text.startswith('{"n":8,"relations":[[2,1],')
        assert parse_poset(text) == poset8a
        with pytest.raises(ParseError):
            parse_poset("{}")
        with pytest.raises(ParseError, match="out of range"):
            parse_poset('{"n":2,"relations":[[1,5]]}')
        with pytest.raises(ParseError, match="out of range"):
            parse_poset('{"n":2,"relations":[[0,1]]}')
        with pytest.raises(ParseError, match=">= 0"):
            parse_poset('{"n":-3,"relations":[]}')

    def test_poset_form_matches_json_dumps(self):
        # every poset with n <= 8, and one at n = 1000
        posets = [fb.sequence_to_poset(x) for n in range(9) for x in fb.enumerate_ascent_sequences(n)]
        posets.append(fb.sequence_to_poset(random_ascent_sequence(1000, 9)))
        for p in posets:
            reference = json.dumps({"n": p.n, "relations": poset_to_relations(p).pairs},
                                   separators=(",", ":"))
            assert format_poset(p) == reference

    @pytest.mark.parametrize("text", [
        '{"n":2,"relations":[[1.5,2]]}',
        '{"n":2.9,"relations":[[true,"2"]]}',
        '{"n":2,"relations":[[1,2.0]]}',
        '{"n":2,"relations":[[true,2]]}',
        '{"n":2,"relations":[["1",2]]}',
        '{"n":"2","relations":[]}',
        '{"n":true,"relations":[]}',
        '{"n":1e400,"relations":[]}',
        '{"n":2,"relations":[[1,2,1]]}',
        '{"n":2,"relations":[[1]]}',
        '{"n":2,"relations":[1,2]]}',
        '{"n":2,"relations":[12]}',
        '{"n":2,"relations":["12"]}',
        '{"n":2,"relations":[{"1":2}]}',
        '{"n":2,"relations":{"1":2}}',
        '{"n":2,"relations":null}',
        '{"n":2}',
        '[2,[[1,2]]]',
        pytest.param('{"n":2,"relations":[[1,' + "9" * 5000 + ']]}', id="5000-digit-member"),
        pytest.param("[" * 5000, id="nested-5000-deep"),
    ])
    def test_poset_form_needs_integer_n_and_integer_pairs(self, text):
        with pytest.raises(ParseError):
            parse_poset(text)

    def test_long_involution_endpoint_is_a_typed_error(self):
        # a ParseError where int() caps the digits, else an out-of-range chord
        with pytest.raises(fb.FishburnError):
            parse_involution("[(1," + "9" * 5000 + ")]")

    def test_involution_forms(self, chord10):
        text = format_involution(chord10.partner)
        assert text == "[(1,4),(2,5),(3,7),(6,8),(9,10)]"
        assert parse_involution(text) == chord10
        with pytest.raises(ParseError):
            parse_involution("[(1,2]")

    def test_roundtrip_all_families(self, sequences_by_length):
        from fishburn import bijections as bj

        for n in range(1, 6):
            for x in sequences_by_length[n]:
                assert parse_sequence(format_sequence(x.entries)) == x.entries
                p = bj.sequence_to_poset(x)
                assert parse_poset(format_poset(p)) == p
                c = bj.poset_to_involution(p)
                assert parse_involution(format_involution(c.partner)) == c
