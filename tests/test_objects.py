"""Object validation, enumeration oracles, and canonical text forms."""

from __future__ import annotations

import collections
import itertools
import json
import random
import time
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import fishburn as fb
from fishburn import objects
from fishburn import (
    AscentSequence,
    ChordInvolution,
    ModifiedAscentSequence,
    Permutation,
    Poset,
)
from fishburn.errors import (
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
)
from fishburn.objects import (
    _checked,
    _is_modified,
    check_brute_force_cap,
    enumerate_ascent_sequences,
    enumerate_fixed_point_free_involutions,
    enumerate_nesting_free_involutions,
    enumerate_permutations,
    enumerate_r_permutations,
    format_involution,
    format_permutation,
    format_poset,
    format_sequence,
    in_I2n,
    parse_involution,
    parse_permutation,
    parse_poset,
    parse_sequence,
    poset_from_relations,
    poset_to_relations,
)
from fishburn.bijections import enumerate_family

from conftest import (
    FISHBURN_COUNTS,
    POSET8A_LEVELS,
    random_ascent_sequence,
    relations,
)
from reference import (
    ascents,
    chords,
    modified_entries_by_scanning,
    neighbour_nesting_positions,
    parse_involution_by_scanning,
    parse_permutation_by_int,
    parse_poset_by_counting,
    parse_sequence_by_int,
    partner_by_scanning,
    permutation_entries_by_scanning,
    poset_fields_by_scanning,
    poset_from_relations_by_counting,
    poset_less,
    poset_srank,
    relation_less,
    runs_increasing,
    sequence_entries_by_scanning,
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
        AscentSequence((0, 1, 0, 2, 3, 1, 0, 0, 2))

    def test_base_cases(self):
        AscentSequence(())
        AscentSequence((0,))

    def test_bound_violation_reports_first_index(self):
        with pytest.raises(NotAscentSequenceError) as info:
            AscentSequence((0, 2))
        assert info.value.index == 2

    def test_nonzero_start_reports_index_one(self):
        with pytest.raises(NotAscentSequenceError) as info:
            AscentSequence((1, 0))
        assert info.value.index == 1

    def test_negative_entry_rejected(self):
        with pytest.raises(NotAscentSequenceError):
            AscentSequence((0, -1))

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
        assert AscentSequence(x.entries) == x

    def test_sequence_classes_stay_apart(self):
        x, m = AscentSequence((0, 1)), ModifiedAscentSequence((0, 1))
        assert x != m and m != x
        assert not isinstance(x, ModifiedAscentSequence)
        assert not isinstance(m, AscentSequence)
        assert ((len(x), list(x), x[1], str(x), ascents(x))
                == (len(m), list(m), m[1], str(m), ascents(m)))


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

    def test_sequence_behaviour(self):
        pi = Permutation((3, 1, 4, 2))
        assert (len(pi), list(pi), pi[0], pi[-1], pi[1:3], str(pi), ascents(pi)) == (
            4, [3, 1, 4, 2], 3, 2, (1, 4), "3 1 4 2", 1)
        assert ascents(Permutation(())) == 0 and list(Permutation(())) == []
        with pytest.raises(AttributeError):
            pi.entries = (1, 2, 3, 4)
        x = AscentSequence((0, 1, 0, 2))
        assert not isinstance(pi, (AscentSequence, ModifiedAscentSequence))
        assert not isinstance(x, Permutation)

    def test_compose_length_mismatch(self):
        with pytest.raises(LengthMismatchError) as info:
            Permutation((1, 2)).compose(Permutation((1,)))
        assert (type(info.value), str(info.value)) == (LengthMismatchError, "length mismatch")

    def test_membership_witness(self):
        assert fb.is_r_permutation(Permutation((3, 1, 5, 2, 4)))
        assert not fb.is_r_permutation(Permutation((3, 2, 5, 4, 1)))
        assert next(fb.objects.r_occurrences(Permutation((2, 3, 1)))) == (1, 2, 3)


class TestPosets:
    def test_leveled_example(self, poset8a):
        assert poset8a.levels == POSET8A_LEVELS
        assert poset8a.rank == 3
        assert poset_srank(poset8a) == 1
        assert sum(e <= poset8a.levels[0] for e in poset8a.entry) == 6  # the downset of 1

    def test_srank_of_the_empty_poset(self):
        with pytest.raises(ValueError) as info:
            poset_srank(Poset.empty())
        assert (type(info.value), str(info.value)) == (
            ValueError, "srank of the empty poset is undefined")

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

    def test_less_is_the_relation(self, sequences_by_length):
        for n in range(7):
            for x in sequences_by_length[n]:
                p = fb.sequence_to_poset(x)
                pairs = set(poset_to_relations(p).pairs)
                for a, b in itertools.product(range(1, n + 1), repeat=2):
                    assert poset_less(p, a, b) == ((a, b) in pairs)

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
        with pytest.raises(FishburnError):
            Poset(3, (0, 2, 0), (1, 3, 2))  # level 1 unoccupied
        with pytest.raises(FishburnError):
            Poset(2, (0, 1), (2, 1))  # member level too high: 2 in D_1 at level 1
        with pytest.raises(FishburnError):
            Poset(1, (0,), (0,))  # chain must start empty: 1 in D_0

    def test_repeated_downset_rejected(self):
        with pytest.raises(FishburnError):
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


def _parse_by_relation(n, pairs):
    """The poset of a typed poset line by the public relation route, with `parse_poset`'s errors."""
    try:
        relation = fb.RelationMatrix(n, pairs)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    return poset_from_relations(relation)


def _mutated_poset_line(rng: random.Random) -> tuple[str, str]:
    """(kind, line): the canonical line of a random poset with n <= 8, mutated once.

    The mutations keep most of the canonical syntax, so that they reach
    every branch of the canonical reader: each kind names what it changes.
    """
    kind = rng.choice(["canonical", "spaces", "spaces", "key order", "extra key", "string ],[",
                       "swapped", "repeated", "dropped", "added", "one member", "three members",
                       "regrouped", "leading zero", "true", "1.0", '"1"', "nested", "label 0",
                       "negative label", "above n", "wrong n", "negative n", "empty n"])
    pairs = []
    while not pairs:  # a poset with at least one pair, but for some of the unmutated lines
        n = rng.randint(0, 8)
        p = fb.sequence_to_poset(random_ascent_sequence(n, rng.randrange(2**32)))
        pairs = [[str(a), str(b)] for a, b in poset_to_relations(p).pairs]
        if kind == "canonical" and rng.random() < 0.2:
            break
    n_text, head, tail = str(n), "", ""
    i = rng.randrange(len(pairs)) if pairs else None
    j = rng.randrange(2)
    if kind == "dropped":
        del pairs[i]
    elif kind == "added":
        pairs = sorted(set(map(tuple, pairs)) | {(str(rng.randint(1, n)), str(rng.randint(1, n)))},
                       key=lambda pair: tuple(map(int, pair)))
    elif kind == "swapped" and len(pairs) > 1:
        k = rng.randrange(len(pairs) - 1)
        pairs[k], pairs[k + 1] = pairs[k + 1], pairs[k]
    elif kind == "repeated" and pairs:
        pairs.insert(i, pairs[i])
    elif kind == "one member" and pairs:
        pairs[i] = pairs[i][:1]
    elif kind == "three members" and pairs:
        pairs[i] = pairs[i] + [str(rng.randint(1, n))]
    elif kind == "regrouped" and len(pairs) > 1:
        flat = [v for pair in pairs for v in pair]
        cut = rng.choice([1, 3, 2 * len(pairs) - 1, rng.randrange(1, len(flat))])
        pairs = [flat[:cut], flat[cut:]] if rng.random() < 0.5 else [
            flat[:2 * i] + flat[2 * i:2 * i + 3], flat[2 * i + 3:]]
        pairs = [pair for pair in pairs if pair]
    elif kind in ("leading zero", "true", "1.0", '"1"', "nested", "label 0", "negative label",
                  "above n") and pairs:
        value = pairs[i][j]
        pairs[i][j] = {"leading zero": "0" + value, "true": "true", "1.0": value + ".0",
                       '"1"': f'"{value}"', "nested": f"[{value}]", "label 0": "0",
                       "negative label": "-" + value,
                       "above n": str(n + rng.randint(1, 3))}[kind]
    elif kind == "wrong n":
        n_text = str(max(0, n + rng.choice([-2, -1, 1, 2])))
    elif kind == "negative n":
        n_text = str(-rng.randint(1, 3))
    elif kind == "empty n":
        n_text = ""
        if rng.random() < 0.5:
            pairs = []
    elif kind == "extra key":
        head, tail = rng.choice([('"x":1,', ""), ("", ',"x":[[1,2]]')])
    elif kind == "string ],[":
        head, tail = rng.choice([('"s":"],[",', ""), ("", ',"s":"],["')])
    relations = "[" + ",".join("[" + ",".join(pair) + "]" for pair in pairs) + "]"
    if kind == "string ],[" and pairs and rng.random() < 0.5:
        relations = relations.replace(pairs[-1][-1] + "]]", '"],["]]')
    line = "{" + head + f'"n":{n_text},"relations":{relations}' + tail + "}"
    if kind == "key order":
        line = "{" + f'"relations":{relations},"n":{n_text}' + "}"
    elif kind == "spaces":
        if rng.random() < 0.5:
            line = json.dumps(json.loads(line))
        else:
            k = rng.randrange(len(line) + 1)
            line = line[:k] + rng.choice([" ", "\t"]) + line[k:]
    return kind, line


def _outcome(f, *args):
    """("ok", value) or (exception type, message) of f(*args)."""
    try:
        return "ok", f(*args)
    except fb.FishburnError as exc:
        return type(exc), str(exc)


class TestRelationMatrix:
    def test_pairs_are_sorted_and_distinct(self):
        expected = ((1, 2), (1, 3), (2, 3))
        for given in ([(2, 3), (1, 2), (2, 3), [1, 3]], frozenset(expected),
                      (pair for pair in reversed(expected)), expected):
            assert fb.RelationMatrix(3, given).pairs == expected
        assert fb.RelationMatrix(0, []).pairs == ()

    def test_unsorted_pairs_are_sorted_as_tuples(self):
        # the unsorted route sorts packed int keys; the result must be the
        # tuple sort's, with fewer labels than pairs and with more
        rng = random.Random(7)
        for _ in range(500):
            n = rng.randint(1, 12)
            pairs = [[rng.randint(1, n), rng.randint(1, n)] for _ in range(rng.randint(2, 40))]
            rng.shuffle(pairs)
            rel = fb.RelationMatrix(n, pairs)
            assert rel.pairs == tuple(sorted(set(map(tuple, pairs))))
            assert {type(pair) for pair in rel.pairs} == {tuple}
            assert {type(v) for pair in rel.pairs for v in pair} == {int}

    def test_members_are_coerced_to_int(self):
        rel = fb.RelationMatrix(3, [("2", 3.0), (True, 2), (1, 2)])
        assert rel.pairs == ((1, 2), (2, 3))
        assert {type(v) for pair in rel.pairs for v in pair} == {int}
        assert fb.RelationMatrix(3, [(True, 2)]) == fb.RelationMatrix(3, [(1, 2)])

    def test_a_non_integral_member_or_size_is_rejected(self):
        for n, pairs in [(3, [(1, 2.9)]), (3, [(Fraction(3, 2), 2)]), (3, [(1, Decimal("2.5"))]),
                         (2.5, [(1, 2)]), (Fraction(5, 2), [])]:
            with pytest.raises(ValueError, match="not an integer"):
                fb.RelationMatrix(n, pairs)

    def test_the_size_is_an_exact_int(self):
        for n in (3, 3.0, "3", Decimal(3), Fraction(6, 2)):
            rel = fb.RelationMatrix(n, [(1, 2)])
            assert type(rel.n) is int and rel == fb.RelationMatrix(3, [(1, 2)])
        rel = fb.RelationMatrix(True, [])
        assert type(rel.n) is int and rel.n == 1
        with pytest.raises(ValueError, match="invalid literal"):
            fb.RelationMatrix("x", [])

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
                    assert relation_less(rel, a, b) == ((a, b) in pairs)

    def test_a_negative_size_is_rejected_before_the_pairs(self):
        for n, pairs in [(-1, []), (-1, [(1, 2)]), (-1, [(0, 5), (2, 1)]), (-2, frozenset({(1, 1)}))]:
            with pytest.raises(FishburnError) as info:
                fb.RelationMatrix(n, pairs)
            assert (type(info.value), str(info.value)) == (
                FishburnError, f"poset size must be >= 0, got {n}")
        # a poset line reports it in the same words, with or without pairs
        for text in ('{"n":-1,"relations":[]}', '{"n":-1,"relations":[[1,2]]}',
                     '{"n":-4,"relations":[[2,1],[0,9]]}'):
            with pytest.raises(ParseError) as info:
                parse_poset(text)
            n = json.loads(text)["n"]
            assert str(info.value) == f"poset size must be >= 0, got {n}"

    def test_out_of_range_names_the_first_pair(self):
        with pytest.raises(FishburnError, match=r"relation \(0,2\) out of range 1\.\.3"):
            fb.RelationMatrix(3, [(5, 1), (1, 4), (0, 2), (2, 3)])
        with pytest.raises(FishburnError, match=r"relation \(1,4\) out of range"):
            fb.RelationMatrix(3, frozenset({(5, 1), (1, 4), (2, 3)}))
        for bad in ((2, 4), (2, 0)):
            with pytest.raises(FishburnError, match=rf"relation \({bad[0]},{bad[1]}\) out of range"):
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
        assert in_I2n(ChordInvolution((2, 1)))

    def test_crossing_vs_nesting(self):
        assert in_I2n(ChordInvolution((3, 4, 1, 2)))
        nested = ChordInvolution((4, 3, 2, 1))
        assert not in_I2n(nested)
        assert neighbour_nesting_positions(nested) == [1, 3]

    def test_validation_errors(self):
        with pytest.raises(NotInvolutionError):
            ChordInvolution((2, 3, 1))
        with pytest.raises(FixedPointError):
            ChordInvolution((1, 2))
        with pytest.raises(NotInvolutionError):
            ChordInvolution((2, 1, 4))

    @pytest.mark.parametrize("points", [0, 2, 4, 6, 8])
    def test_three_membership_checks_agree(self, points):
        for c in enumerate_fixed_point_free_involutions(points):
            by_descent = fb.objects._first_neighbour_nesting(c.partner) is None
            assert by_descent == runs_increasing(c)
            assert by_descent == (not neighbour_nesting_positions(c))
            assert in_I2n(c) == by_descent

    @pytest.mark.parametrize("points,count", [(0, 1), (2, 1), (4, 3), (6, 15), (8, 105), (10, 945)])
    def test_fixed_point_free_count_is_double_factorial(self, points, count):
        assert sum(1 for _ in enumerate_fixed_point_free_involutions(points)) == count

    @pytest.mark.parametrize("points", [0, 2, 4, 6, 8])
    def test_fixed_point_free_order_is_lexicographic(self, points):
        # S_{2n} filtered in lexicographic order
        brute = [w for w in itertools.permutations(range(1, points + 1))
                 if all(w[v - 1] == i != v for i, v in enumerate(w, start=1))]
        assert [c.partner for c in enumerate_fixed_point_free_involutions(points)] == brute

    def test_fixed_point_free_enumeration_is_not_recursive(self):
        start = time.perf_counter()
        first = next(enumerate_fixed_point_free_involutions(3000))
        assert time.perf_counter() - start < 2
        assert first.partner == tuple(i + 1 if i % 2 else i - 1 for i in range(1, 3001))

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

    @pytest.mark.parametrize("family,oracle,top", [
        ("perms", enumerate_r_permutations, 8),
        ("involutions", enumerate_nesting_free_involutions, 6),
    ])
    def test_streams_list_the_oracle_sets(self, family, oracle, top):
        # the oracles filter in lexicographic order and use no bijection
        key = (lambda pi: pi.entries) if family == "perms" else (lambda c: c.partner)
        for n in range(top + 1):
            assert sorted(enumerate_family(family, n), key=key) == oracle(n)

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            list(enumerate_family("widgets", 3))

    def test_cap_applies(self):
        with pytest.raises(BruteForceCapError):
            enumerate_r_permutations(10)
        with pytest.raises(BruteForceCapError):
            enumerate_nesting_free_involutions(7)
        check_brute_force_cap("perms", 9)
        with pytest.raises(BruteForceCapError):
            check_brute_force_cap("perms", 10)

    def test_cap_override(self, monkeypatch):
        monkeypatch.setenv("FISHBURN_MAX_BRUTE_N", "4")
        with pytest.raises(BruteForceCapError):
            enumerate_r_permutations(5)
        monkeypatch.setenv("FISHBURN_MAX_BRUTE_N", "10")
        assert len(enumerate_r_permutations(5)) == 53

    def test_streams_are_not_capped(self, monkeypatch):
        monkeypatch.setenv("FISHBURN_MAX_BRUTE_N", "0")
        assert sum(1 for _ in enumerate_family("perms", 5)) == 53
        assert sum(1 for _ in enumerate_family("involutions", 7)) == FISHBURN_COUNTS[7]

    @pytest.mark.parametrize("enumerator,size", [
        (enumerate_ascent_sequences, -1),
        (enumerate_permutations, -1),
        (enumerate_fixed_point_free_involutions, -2),
        (enumerate_r_permutations, -1),
        (enumerate_nesting_free_involutions, -1),
        (lambda n: enumerate_family("perms", n), -1),
    ], ids=["ascseq", "permutations", "fixed-point-free", "r-permutations",
            "nesting-free", "family"])
    def test_negative_size_raises(self, enumerator, size):
        with pytest.raises(ValueError):
            list(enumerator(size))


class TestTextForms:
    def test_sequence_forms(self):
        assert format_sequence((0, 1, 0, 2)) == "[0,1,0,2]"
        assert parse_sequence("[0,1,0,2]") == (0, 1, 0, 2)
        assert parse_sequence("[]") == ()
        assert format_sequence(()) == "[]"
        with pytest.raises(ParseError):
            parse_sequence("0,1")
        with pytest.raises(ParseError) as info:
            parse_sequence("[0,x]")
        assert str(info.value) == "bad sequence literal: '[0,x]'"

    def test_permutation_forms(self):
        assert str(Permutation((3, 1, 2))) == "3 1 2"
        assert parse_permutation("3 1 2").entries == (3, 1, 2)
        with pytest.raises(ParseError):
            parse_permutation("a b")
        with pytest.raises(ParseError) as info:
            parse_permutation("   ")
        assert str(info.value) == "empty permutation literal"

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
        # every poset with n <= 8, random ones at n = 150, 600 and 1000,
        # and the chain and the antichain at n = 2000
        posets = [fb.sequence_to_poset(x) for n in range(9) for x in fb.enumerate_ascent_sequences(n)]
        posets += [fb.sequence_to_poset(random_ascent_sequence(n, 9)) for n in (150, 600, 1000)]
        posets += [Poset.chain(2000), Poset.antichain(2000)]
        for p in posets:
            reference = json.dumps({"n": p.n, "relations": poset_to_relations(p).pairs},
                                   separators=(",", ":"))
            assert format_poset(p) == reference

    def test_parse_poset_matches_the_relation_route(self):
        # lines near the canonical form: parse_poset returns what the
        # public relation route returns, or raises the same error
        rng = random.Random(1985)
        seen = collections.Counter()
        for _ in range(6000):
            n = rng.randint(1, 30)
            p = fb.sequence_to_poset(random_ascent_sequence(n, rng.randrange(2**32)))
            relabel = rng.sample(range(1, n + 1), n) if rng.random() < 0.3 else range(1, n + 1)
            pairs = sorted((relabel[a - 1], relabel[b - 1]) for a, b in poset_to_relations(p).pairs)
            kind = rng.choice(["canonical", "dropped", "added", "duplicated", "out of range",
                               "shuffled", "negative", "empty n"])
            if kind == "dropped" and pairs:
                pairs.pop(rng.randrange(len(pairs)))
            elif kind == "added":
                pairs = sorted(set(pairs) | {(rng.randint(1, n), rng.randint(1, n))})
            elif kind == "duplicated" and pairs:
                i = rng.randrange(len(pairs))
                pairs.insert(i, pairs[i])
            elif kind == "out of range":
                bad = rng.choice([0, n + 1, n + 2])
                pairs = sorted(pairs + [rng.choice([(bad, rng.randint(1, n)), (rng.randint(1, n), bad)])])
            elif kind == "shuffled":
                rng.shuffle(pairs)
            elif kind == "negative":
                pairs = sorted(pairs + [(-rng.randint(1, 3), rng.randint(-3, n))])
            elif kind == "empty n":
                n, pairs = rng.choice([0, -1]), pairs[:rng.randrange(2)]
            text = '{"n":%d,"relations":[%s]}' % (n, ",".join(f"[{a},{b}]" for a, b in pairs))
            got, expected = _outcome(parse_poset, text), _outcome(_parse_by_relation, n, pairs)
            assert got == expected, text
            seen[kind, expected[0] == "ok"] += 1
        rejected = ("dropped", "added", "out of range", "negative", "empty n")
        accepted = ("canonical", "dropped", "added", "duplicated", "shuffled", "empty n")
        assert min(seen[kind, False] for kind in rejected) > 100, seen
        assert min(seen[kind, True] for kind in accepted) > 100, seen

    def test_canonical_reader_matches_the_counting_reader(self, sequences_by_length):
        # every poset with n <= 7 in canonical form: the same poset as the
        # sorted-pairs counting reader
        for n in range(8):
            for x in sequences_by_length[n]:
                p = fb.sequence_to_poset(x)
                text = format_poset(p)
                assert parse_poset(text) == parse_poset_by_counting(text) == p

    def test_mutated_lines_match_the_counting_reader(self):
        # the same poset, or the same error type and message, on seeded
        # mutations of canonical lines
        rng = random.Random(2008)
        seen = collections.Counter()
        for _ in range(20000):
            kind, line = _mutated_poset_line(rng)
            got, expected = _outcome(parse_poset, line), _outcome(parse_poset_by_counting, line)
            assert got == expected, line
            seen[kind, expected[0]] += 1
        accepted = {"canonical", "spaces", "key order", "extra key", "string ],[", "swapped",
                    "repeated"}
        kinds = {kind for kind, _ in seen}
        assert len(kinds) == 23 and accepted < kinds, seen
        assert all(seen[kind, "ok"] > 300 for kind in accepted), seen
        assert all(seen[kind, ParseError] > 300 for kind in kinds - accepted - {"dropped", "added"}), seen
        for error in (NotPartialOrderError, NotTwoPlusTwoFreeError):
            assert seen["dropped", error] + seen["added", error] > 50, seen

    @pytest.mark.parametrize("n", range(5))
    def test_relations_are_judged_as_by_the_pair_count(self, n):
        # every relation on 1..n, n <= 4: the same poset, or the same
        # witness, as the counting route
        points = range(1, n + 1)
        grid = [(a, b) for a in points for b in points]
        for mask in range(1 << len(grid)):
            rel = fb.RelationMatrix(n, [pair for bit, pair in enumerate(grid) if mask >> bit & 1])
            assert (_outcome(poset_from_relations, rel)
                    == _outcome(poset_from_relations_by_counting, rel)), rel

    def test_an_absurd_size_is_a_typed_error(self):
        # n = 10**13 cannot be allocated, and the allocation fails at once;
        # a pair out of range is still named first
        big = 10**13
        for text in (f'{{"n":{big},"relations":[]}}', f'{{"n":{big},"relations":[[1,2]]}}',
                     f'{{"n": {big}, "relations": [[2, 1], [1, 3]]}}'):
            with pytest.raises(fb.FishburnError) as info:
                parse_poset(text)
            assert str(info.value) == f"poset size {big} is too large to build"
        with pytest.raises(fb.FishburnError, match="too large"):
            poset_from_relations(fb.RelationMatrix(big, [(1, 2)]))
        for pairs, bad in (("[0,2],[1,2]", "(0,2)"), ("[1,0],[1,2]", "(1,0)")):
            with pytest.raises(ParseError) as info:
                parse_poset(f'{{"n":{big},"relations":[{pairs}]}}')
            assert str(info.value) == f"relation {bad} out of range 1..{big}"

    def test_canonical_lines_skip_the_relation_route(self, monkeypatch):
        # a canonical line with pairs is counted as decoded, with no
        # RelationMatrix built
        posets = [fb.sequence_to_poset(x) for n in range(9) for x in fb.enumerate_ascent_sequences(n)]
        posets = [p for p in posets if p.rank]
        posets.append(fb.sequence_to_poset(random_ascent_sequence(150, 12)))
        texts = [format_poset(p) for p in posets]

        def refuse(n, pairs):
            raise AssertionError("a canonical line went through _relation_of_int_pairs")

        def refuse_lists(pairs):
            raise AssertionError("a canonical line was decoded with a list per pair")

        monkeypatch.setattr(objects, "_relation_of_int_pairs", refuse)
        monkeypatch.setattr(objects, "_are_int_pairs", refuse_lists)
        for p, text in zip(posets, texts):
            assert parse_poset(text) == p
            # json.dumps's default spaces are the other canonical syntax
            assert parse_poset(json.dumps(json.loads(text))) == p
        with pytest.raises(AssertionError, match="a list per pair"):
            parse_poset('{"n": 2, "relations": [[1, 2]], "x": 1}')
        with pytest.raises(AssertionError):
            parse_poset('{"n":2,"relations":[[1,2],[1,2]]}')

    @pytest.mark.parametrize("spaced", [False, True], ids=["compact", "spaced"])
    @pytest.mark.parametrize("n, pairs", [
        pytest.param(4, "[1,2],[1,3],[2,3],[2,4],[3,4]", id="rising-firsts-miscounted"),
        pytest.param(4, "[1,2],[2,3],[2,4],[3,4]", id="rising-firsts-short-row"),
        pytest.param(4, "[2,3],[2,4],[1,2],[1,3],[1,4],[3,4]", id="rows-out-of-order"),
        pytest.param(4, "[1,2],[1,3],[1,4],[3,4],[2,3],[2,4]", id="last-rows-swapped"),
        pytest.param(4, "[1,2],[2,3],[1,3],[2,4]", id="unsorted-past-the-row-start-check"),
        # unsorted firsts past the row-start check whose seconds are the rows
        # of the poset their row starts would count: only the order check refuses them
        pytest.param(4, "[1,2],[2,3],[1,4],[2,4],[3,4]", id="unsorted-firsts-over-counted-rows"),
        pytest.param(4, "[1,3],[1,4],[2,3],[1,4],[3,4]", id="unsorted-firsts-repeated-pair"),
        pytest.param(4, "[0,1],[1,2],[1,3],[1,4],[2,3],[2,4],[3,4]", id="first-0"),
        pytest.param(4, "[-1,2],[1,2],[1,3],[1,4],[2,3],[2,4],[3,4]", id="negative-first"),
        pytest.param(4, "[1,2],[1,3],[1,4],[2,3],[2,4],[3,4],[5,1]", id="first-past-n"),
        # refused before a row start is sought for each label up to it
        pytest.param(4, "[1,2],[1,3],[1,4],[2,3],[2,4],[3,4],[1000000000000,1]", id="first-far-past-n"),
        pytest.param(4, "[1,2],[1,2],[1,3],[1,4],[2,3],[2,4],[3,4]", id="repeated-pair"),
        pytest.param(3, "[1,2],[3,2]", id="empty-row-between-full-rows"),
        pytest.param(4, "[1,2],[1,4],[3,2],[3,4]", id="empty-row-between-long-rows"),
        pytest.param(4, "[1,2],[1,4],[3,4],[3,2]", id="empty-row-then-unsorted-row"),
    ])
    def test_targeted_lines_match_the_counting_reader(self, n, pairs, spaced):
        # the firsts are proved in order, in range and counted by their row
        # starts; each line gets the same poset, or the same error, as the
        # reader that counts pair by pair
        line = '{"n":%d,"relations":[%s]}' % (n, pairs)
        if spaced:
            line = json.dumps(json.loads(line))
        assert _outcome(parse_poset, line) == _outcome(parse_poset_by_counting, line)

    def test_the_pair_count_of_every_small_poset(self, sequences_by_length):
        # the O(n) count from the level counts is the size of the relation
        for n in range(8):
            for x in sequences_by_length[n]:
                p = fb.sequence_to_poset(x)
                assert objects._pair_count(p) == len(poset_to_relations(p).pairs)

    def test_a_poset_past_the_output_bound_is_refused_before_its_rows(self, monkeypatch):
        # the least chain past the bound has n (n - 1) / 2 = 10,001,628 pairs
        n = 4473
        assert (n - 1) * (n - 2) // 2 <= objects.MAX_POSET_PAIRS < n * (n - 1) // 2

        def refuse(levels):
            raise AssertionError("the rows of a poset past the bound were built")

        monkeypatch.setattr(objects, "_upper_labels", refuse)
        with pytest.raises(fb.FishburnError) as info:
            format_poset(Poset.chain(n))
        assert str(info.value) == ("poset has 10001628 pairs, more than the 10000000 "
                                   "that a JSON line is written with")

    def test_the_output_bound_counts_pairs_not_labels(self, monkeypatch):
        # with a bound of 10 pairs: the chain on 5 labels (10 pairs) and the
        # antichain on 100 (no pairs) are written, the chain on 6 (15) is not
        monkeypatch.setattr(objects, "MAX_POSET_PAIRS", 10)
        assert parse_poset(format_poset(Poset.chain(5))) == Poset.chain(5)
        assert format_poset(Poset.antichain(100)) == '{"n":100,"relations":[]}'
        with pytest.raises(fb.FishburnError, match="^poset has 15 pairs, more than the 10 "):
            format_poset(Poset.chain(6))

    def test_bad_literals_are_echoed_whole_up_to_the_cap(self):
        # a literal of up to SHOWN_CHARS characters is echoed as before,
        # a longer one as a prefix and its length
        cap = objects.SHOWN_CHARS
        short = "[" + "0," * ((cap - 6) // 2) + "x]"
        assert len(repr(short)) <= cap
        with pytest.raises(ParseError) as info:
            parse_poset(short)
        assert str(info.value) == f"bad poset literal: {short!r}"
        long = "[" + "0," * 500_000 + "x]"
        for parse, name in ((parse_sequence, "sequence"), (parse_involution, "involution"),
                            (parse_poset, "poset")):
            with pytest.raises(ParseError) as info:
                parse(long)
            assert str(info.value) == (f"bad {name} literal: {repr(long)[:cap]}... "
                                       f"(length {len(long)})")
        with pytest.raises(fb.NotPermutationError) as info:
            fb.Permutation((1,) * 100_000)
        assert str(info.value) == ("not a permutation of 1..n: " + str((1,) * 100_000)[:cap]
                                   + "... (length 100000)")

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

    def test_involution_reader_matches_the_scanning_reader(self):
        # mutated chord lists: the one-pass reader returns the value the
        # scanning reader returns, or raises its error type and message
        rng = random.Random(1992)
        alphabet = "()[], ,\t0123456789x-+\u00a0\u0663"
        seen = collections.Counter()
        for _ in range(20000):
            n = rng.randint(1, 8)
            c = fb.poset_to_involution(fb.sequence_to_poset(random_ascent_sequence(n, rng.randrange(2**32))))
            text = list(rng.choice([format_involution(c.partner), str(chords(c))]))
            for _ in range(rng.choice([0, 1, 1, 2, 3])):
                i = rng.randrange(len(text) + 1)
                kind = rng.choice(["insert", "delete", "replace", "swap"])
                if kind == "insert":
                    text.insert(i, rng.choice(alphabet))
                elif i < len(text) and kind == "delete":
                    del text[i]
                elif i < len(text) and kind == "replace":
                    text[i] = rng.choice(alphabet)
                elif i + 1 < len(text):
                    text[i], text[i + 1] = text[i + 1], text[i]
            line = "".join(text)
            got, expected = _outcome(parse_involution, line), _outcome(parse_involution_by_scanning, line)
            assert got == expected, line
            seen[expected[0] if expected[0] == "ok" else expected[0].__name__] += 1
        assert seen["ok"] > 3000 and seen["ParseError"] > 3000, seen
        assert seen["NotInvolutionError"] > 100, seen

    @pytest.mark.parametrize("text", [
        "[(1,4)4,(2,5),(3,6)]",  # canonical once its digits are deleted
        "[3(1,2),(3,4)]",
        "[(1,2),(3,4)5]",
        "[(,2),(1,3)]",
        "[(1,2),(3,)]",
        "[(1,2),,(3,4)]",
        pytest.param("[(1," + "9" * 5000 + "),(2,3)]", id="5000-digit-endpoint"),
        "[(1, 2), (3, 4)]",
        "[(1,٣),(2,4)]",  # an Arabic-Indic three, a digit that int() reads
    ])
    def test_near_canonical_chord_lists_read_as_the_scanning_reader_reads_them(self, text):
        # only the over-long endpoint is canonical; int() refuses it on the one-split route
        body = text[1:-1]
        assert objects._is_canonical_chord_list(body) == (len(body) > 5000)
        got, expected = _outcome(parse_involution, text), _outcome(parse_involution_by_scanning, text)
        if expected[0] == "ok":
            assert got == expected
        else:  # the scanning reader echoes the whole literal, the library at most SHOWN_CHARS of it
            assert got == (expected[0], expected[1].replace(repr(text), objects._shown(text)))

    def test_canonical_chord_lists_need_no_regular_expression(self, monkeypatch):
        lines = [format_involution(fb.poset_to_involution(fb.sequence_to_poset(x)).partner)
                 for x in fb.enumerate_ascent_sequences(6)]
        expected = [parse_involution(line) for line in lines]
        monkeypatch.setattr(objects, "_CHORD_LIST", None)
        monkeypatch.setattr(objects, "_ENDPOINT", None)
        assert [parse_involution(line) for line in lines] == expected
        with pytest.raises(fb.FishburnError):  # as in test_long_involution_endpoint_is_a_typed_error
            parse_involution("[(1," + "9" * 5000 + ")]")
        with pytest.raises(AttributeError):  # a line with spaces is matched
            parse_involution("[(1, 2)]")

    def test_roundtrip_all_families(self, sequences_by_length):
        from fishburn import bijections as bj

        for n in range(1, 6):
            for x in sequences_by_length[n]:
                assert parse_sequence(format_sequence(x.entries)) == x.entries
                p = bj.sequence_to_poset(x)
                assert parse_poset(format_poset(p)) == p
                c = bj.poset_to_involution(p)
                assert parse_involution(format_involution(c.partner)) == c


class TestDecimalTable:
    """The three readers of decimal tokens look each one up in `objects._VALUE` and read
    a line with any token outside it by `int()`; either way they give what the
    `int()`-only readers of `tests/reference.py` give, value or error."""

    # the table's ends, leading zeros, signs, spaces, other Unicode digits, a long int
    TOKENS = ["0", "1", "2", "1023", "1024", "00", "01", "+1", "-0", "-1", " 1", "1 ",
              "\u0660", "\u0663", "9" * 30, "x", ""]
    # per reader: lines around each token, then lines of its own that are valid, that have a
    # comma with a space after it, and that hold labels past the table's bound
    READERS = [
        (parse_sequence, parse_sequence_by_int, ["[{}]", "[0,{}]", "[0,1,{}]", "[{},0]"],
         ["[0,1,0,1]", "[0, 1]", "[0 ,1]", format_sequence(range(1030)),
          format_sequence(range(1030))[:-1] + ",x]"]),
        (parse_permutation, parse_permutation_by_int, ["{}", "1 {}", "{} 1", "2 {} 1"],
         ["2 1 3", "1, 2", format_permutation(range(1030, 0, -1)),
          format_permutation(range(1030, 0, -1)) + " 1030"]),
        (parse_involution, parse_involution_by_scanning,
         ["[({},2)]", "[(1,{})]", "[(2,{}),(1,3)]", "[(1,2),(3,{})]"],
         ["[(1,2),(3,4)]", "[(1, 2)]", "[(1,2), (3,4)]", format_involution(range(1030, 0, -1)),
          format_involution(range(1030, 0, -1))[:-1] + ",(1031,1)]"]),
    ]

    @pytest.mark.parametrize("parse, reference, templates, own", READERS,
                             ids=["sequence", "permutation", "involution"])
    def test_every_token_reads_as_int_reads_it(self, parse, reference, templates, own):
        lines = [template.format(token) for template in templates for token in self.TOKENS]
        outcomes = collections.Counter()
        for line in lines + own:
            got, expected = _outcome(parse, line), _outcome(reference, line)
            if expected[0] != "ok":  # the reference echoes the whole line, the library a prefix
                expected = (expected[0], expected[1].replace(repr(line), objects._shown(line)))
            assert got == expected, line
            if got[0] == "ok":
                entries = got[1] if parse is parse_sequence else got[1]._values()[0]
                assert type(entries) is tuple and {int}.issuperset(map(type, entries)), line
            outcomes[got[0] if got[0] == "ok" else got[0].__name__] += 1
        assert outcomes["ok"] >= 5 and outcomes["ParseError"] >= 5, outcomes

    def test_a_line_inside_the_table_calls_no_int(self, monkeypatch):
        def refuse(token):
            raise RuntimeError(f"int({token!r})")

        expected = [(0, 1, 1023), Permutation((2, 3, 1)), ChordInvolution((3, 4, 1, 2))]
        monkeypatch.setattr(objects, "int", refuse, raising=False)
        assert [parse_sequence("[0,1,1023]"), parse_permutation("2 3 1"),
                parse_involution("[(1,3),(2,4)]")] == expected
        assert parse_involution("[( 1 , 3 ), (2,4)]") == expected[2]
        for line in ("[0,1024]", "[0,01]", "[0, 1]"):
            with pytest.raises(RuntimeError, match=r"^int\('0'\)$"):  # the whole line again
                parse_sequence(line)


class TestConstructorChecks:
    """Each public constructor stores what, and raises what (type and message),
    its element-by-element check in `tests/reference.py` does."""

    CHECKS = {
        AscentSequence: sequence_entries_by_scanning,
        ModifiedAscentSequence: modified_entries_by_scanning,
        Permutation: permutation_entries_by_scanning,
        Poset: poset_fields_by_scanning,
        ChordInvolution: partner_by_scanning,
    }
    # members that are not exact ints: bools, floats, numeric strings, junk
    ODD_MEMBERS = [True, False, 1.0, 1.5, "1", "a", None, 2 ** 70, -1,
                   Fraction(3, 2), Fraction(4, 2), Decimal("0.5"), Decimal(2), float("inf"),
                   Decimal("-Infinity"), float("nan")]
    CORPUS = {
        AscentSequence: [
            (), (0,), (0, 1, 0, 1, 3, 1, 1, 2), [0, 1], range(1), (1,), (0, 2), (0, -1),
            (0, 1, 3), (0, True, True, 2), (False, True), 5, None,
        ],
        ModifiedAscentSequence: [
            (), (0,), (0, 1, 0, 1, 2), [0, 1, 1], (1,), (0, 0, 2), (0, -1), (0, 2), (0, 1, 0, 0, 2),
            (False, True), None,
        ],
        Permutation: [(), (1,), (2, 1), [2, 1], range(1, 4), (1, 1), (0, 1), (2,), (1, True),
                      (True, 2), 3],
        Poset: [
            (0, (), ()), (1, (0,), (1,)), (3, (0, 0, 1), (1, 2, 2)), (2, [0, 1], [1, 2]),
            # wrong lengths and sizes
            (2, (0,), (1, 1)), (2, (0, 0), (1,)), (1, (), ()), (-1, (), ()), (1.5, (0,), (1,)),
            (True, (0,), (1,)), (2.0, (0, 1), (1, 2)), ("2", (0, 1), (1, 2)),
            (Fraction(3, 2), (0,), (1,)), ("x", (0,), (1,)), (None, (0,), (1,)),
            (float("inf"), (0,), (1,)),
            # negative and out-of-range levels and entries
            (2, (-1, 0), (0, 1)), (1, (-1,), (0,)), (2, (0, 1), (1, 3)), (2, (0, 1), (2, 1)),
            (1, (0,), (0,)), (1, (0,), (5,)), (2, (0, 0), (-1, 1)),
            # unoccupied levels, missing entries, both
            (2, (0, 2), (3, 3)), (3, (0, 2, 1), (3, 3, 3)), (2, (0, 1), (2, 2)),
            (1, (10 ** 6,), (10 ** 6 + 1,)),
            # fields that are not iterable
            (1, None, (1,)), (1, (0,), 1), (None, None, None),
        ],
        ChordInvolution: [
            (), (2, 1), (3, 4, 1, 2), [2, 1], range(2, 0, -1),
            (1,), (2, 1, 3),  # odd lengths
            (2, 2), (0, 1), (1, 5), (3, 1), (-1, 0), (0, 0), (2, 10 ** 30), (-5, 1),  # no permutation
            (1, 2), (2, 1, 3, 4), (True, 2),  # fixed points
            (2, 3, 4, 1), (3, 1, 2, 4),  # no involution
            None, 4,
        ],
    }

    @staticmethod
    def outcome(build):
        try:
            return "stores", build()
        except (ValueError, TypeError) as exc:
            return "raises", type(exc), str(exc)

    def assert_same(self, cls, *args):
        def stored():
            obj = cls(*args)
            fields = tuple(getattr(obj, f) for f in obj._fields)
            if cls is Poset:
                return fields[1:]
            assert all(type(v) is int for v in fields[0]) and type(fields[0]) is tuple
            return fields[0]

        expected = self.outcome(lambda: self.CHECKS[cls](*args))
        assert self.outcome(stored) == expected, (cls.__name__, args)

    @pytest.mark.parametrize("cls", list(CHECKS), ids=lambda cls: cls.__name__)
    def test_the_corpus(self, cls):
        for args in self.CORPUS[cls]:
            self.assert_same(cls, *(args if cls is Poset else (args,)))

    @pytest.mark.parametrize("cls", list(CHECKS), ids=lambda cls: cls.__name__)
    def test_the_structure_check_alone_on_exact_int_fields(self, cls):
        # `_checked` skips only the typing: on fields that need none (tuples of exact ints, and
        # an exact-int size) it returns an equal value, or raises the same type and message
        cases = [args if cls is Poset else (args,) for args in self.CORPUS[cls]]
        exact = [args for args in cases
                 if (cls is not Poset or type(args[0]) is int)
                 and all(type(t) is tuple and {int}.issuperset(map(type, t))
                         for t in (args[1:] if cls is Poset else args))]
        outcomes = collections.Counter()
        for args in exact:
            got = self.outcome(lambda: _checked(cls, *args))
            assert got == self.outcome(lambda: cls(*args)), (cls.__name__, args)
            outcomes[got[0]] += 1
        assert outcomes["stores"] >= 2 and outcomes["raises"] >= 3, outcomes

    @pytest.mark.parametrize("cls", list(CHECKS), ids=lambda cls: cls.__name__)
    def test_odd_members_in_every_place(self, cls):
        valid = {AscentSequence: [(0, 1, 0, 2)], ModifiedAscentSequence: [(0, 1, 0, 2)],
                 Permutation: [(2, 3, 1, 4)], ChordInvolution: [(2, 1, 4, 3)]}
        if cls is Poset:
            # no 2 ** 70: the reference keeps a flag per level
            odd_members = [v for v in self.ODD_MEMBERS if v != 2 ** 70]
            for levels, entry in [((0, 0, 1), (1, 2, 2))]:
                for i, odd in itertools.product(range(6), odd_members):
                    fields = [list(levels), list(entry)]
                    fields[i // 3][i % 3] = odd
                    self.assert_same(Poset, 3, *map(tuple, fields))
            return
        for base in valid[cls]:
            for i, odd in itertools.product(range(len(base)), self.ODD_MEMBERS):
                self.assert_same(cls, base[:i] + (odd,) + base[i + 1:])

    def test_a_value_that_int_would_change_is_rejected(self):
        for build in (lambda: AscentSequence((0, 1.9, 0.5)),
                      lambda: ModifiedAscentSequence((0, Fraction(1, 2))),
                      lambda: Permutation((1, Decimal("2.5"))),
                      lambda: ChordInvolution((2.4, 1.0)),
                      lambda: Poset(2, (0, 0.9), (1.5, 1)),
                      lambda: AscentSequence((0, float("inf")))):
            with pytest.raises(ValueError, match="not an integer"):
                build()

    def test_integral_values_are_still_read(self):
        assert AscentSequence((0, True, 2.0, "1", Fraction(4, 2), Decimal(0))).entries == \
            (0, 1, 2, 1, 2, 0)
        assert ChordInvolution((2.0, True)).partner == (2, 1)

    def test_the_poset_size_is_an_exact_int(self):
        for n in (2, 2.0, "2", Decimal(2)):
            p = Poset(n, (0, 1), (1, 2))
            assert type(p.n) is int and p == Poset.chain(2)
            assert format_poset(p) == '{"n":2,"relations":[[1,2]]}'
            assert fb.poset_to_sequence(p).entries == (0, 1)
        p = Poset(True, (0,), (1,))
        assert type(p.n) is int
        assert json.loads(format_poset(p)) == {"n": 1, "relations": []}
        # a size that int() would change matches no number of elements
        for n in (1.5, Fraction(3, 2)):
            with pytest.raises(ValueError, match=r"must assign one value to each of 1\.\.n"):
                Poset(n, (0,), (1,))

    def test_a_huge_level_is_rejected_without_a_flag_per_level(self):
        with pytest.raises(FishburnError, match="every level 0..k must be occupied"):
            Poset(1, (2 ** 70,), (2 ** 70 + 1,))

    def test_perturbed_posets(self, sequences_by_length):
        for n in range(1, 6):
            for x in sequences_by_length[n]:
                p = fb.sequence_to_poset(x)
                for i, delta in itertools.product(range(2 * n), (-2, -1, 1, 2)):
                    fields = [list(p.levels), list(p.entry)]
                    fields[i // n][i % n] += delta
                    self.assert_same(Poset, n, *map(tuple, fields))

    def test_perturbed_involutions(self):
        for points in range(0, 9, 2):
            for c in enumerate_fixed_point_free_involutions(points):
                partner = c.partner
                self.assert_same(ChordInvolution, partner)
                for i, delta in itertools.product(range(points), (-points, -1, 1, 2)):
                    self.assert_same(ChordInvolution,
                                     partner[:i] + (partner[i] + delta,) + partner[i + 1:])
                for i, j in itertools.combinations(range(points), 2):
                    swapped = list(partner)
                    swapped[i], swapped[j] = swapped[j], swapped[i]
                    self.assert_same(ChordInvolution, tuple(swapped))

    def test_perturbed_sequences_and_permutations(self, sequences_by_length):
        for n in range(1, 6):
            for x in sequences_by_length[n]:
                m = fb.to_modified(x).entries
                pi = fb.sequence_to_perm(x).entries
                for i, delta in itertools.product(range(n), (-1, 1, 2)):
                    for cls, base in [(AscentSequence, x.entries), (ModifiedAscentSequence, m),
                                      (Permutation, pi)]:
                        self.assert_same(cls, base[:i] + (base[i] + delta,) + base[i + 1:])
