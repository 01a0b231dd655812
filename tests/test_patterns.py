"""Pattern containment, the symmetry quasigroup, and the barred pattern."""

from __future__ import annotations

import itertools
import random
import sys
import threading
import time
from fractions import Fraction

import pytest

import fishburn as fb
from fishburn import AscentSequence, Permutation, patterns
from fishburn.errors import FishburnError, LengthMismatchError, NotPermutationError, ParseError
from fishburn.patterns import (
    BivincularPattern,
    R_PATTERN,
    avoids_barred,
    complement,
    compose,
    contains,
    enumerate_self_modified,
    find_occurrence,
    format_pattern,
    inverse,
    is_self_modified,
    parse_pattern,
    reverse,
)

from conftest import BARRED_COUNTS, random_ascent_sequence
from reference import (ascents, contains_by_subsequences, enumerate_patterns,
                       occurrences_by_subsequences, right_to_left_minima)


def pattern(word, X=(), Y=()):
    return BivincularPattern(Permutation(tuple(int(ch) for ch in word)),
                             frozenset(X), frozenset(Y))


class TestContainment:
    def test_textbook_pair(self):
        assert contains(Permutation((3, 2, 5, 4, 1)), R_PATTERN)
        assert not contains(Permutation((3, 1, 5, 2, 4)), R_PATTERN)

    def test_witness_is_an_occurrence(self):
        spot = find_occurrence(Permutation((3, 2, 5, 4, 1)), R_PATTERN)
        assert spot == (2, 3, 5)

    def test_singleton_pattern(self):
        single = pattern("1")
        assert not contains(Permutation(()), single)
        for n in (1, 2, 5):
            assert contains(Permutation(tuple(range(1, n + 1))), single)

    def test_empty_pattern(self):
        # i_0 = 0 and i_1 = n+1 are adjacent only when n = 0, and so are the values
        empty = Permutation(())
        for X, Y, pi, expected in [((), (), (1, 2), ()), ((0,), (), (1, 2), None),
                                   ((), (0,), (1,), None), ((0,), (0,), (), ())]:
            assert find_occurrence(Permutation(pi), BivincularPattern(empty, X, Y)) == expected

    def test_avoider_count_at_length_five(self):
        count = sum(1 for pi in fb.enumerate_permutations(5)
                    if not contains(pi, R_PATTERN))
        assert count == 53

    @pytest.mark.parametrize("n", range(8))
    def test_agrees_with_direct_membership(self, n):
        for pi in fb.enumerate_permutations(n):
            assert contains(pi, R_PATTERN) == (not fb.is_r_permutation(pi))

    def test_classical_and_vincular_specials(self):
        # classical 123 containment
        classical = pattern("123")
        assert contains(Permutation((1, 3, 2, 4)), classical)
        assert not contains(Permutation((3, 2, 1)), classical)
        # adjacent descent ending at the last position
        anchored = pattern("21", X=(1, 2))
        assert contains(Permutation((1, 3, 2)), anchored)
        assert not contains(Permutation((2, 1, 3)), anchored)

    def test_boundary_pins(self):
        # 0 in X pins the occurrence to the front; 0 in Y pins the value 1
        front = pattern("12", X=(0,))
        assert contains(Permutation((2, 1, 3)), front)
        assert not contains(Permutation((3, 1, 2)), front)
        low = pattern("12", Y=(0,))
        assert contains(Permutation((2, 1, 3)), low)
        assert not contains(Permutation((2, 3, 1)), low)

    def test_search_matches_subsequence_oracle(self):
        perms = list(fb.enumerate_permutations(4))
        for p in enumerate_patterns(2):
            for pi in perms:
                assert contains(pi, p) == contains_by_subsequences(pi, p), (pi, p)
        perms5 = list(fb.enumerate_permutations(5))
        for p in itertools.islice(enumerate_patterns(3), 0, None, 13):
            for pi in perms5:
                assert contains(pi, p) == contains_by_subsequences(pi, p), (pi, p)

    def test_fully_pinned_pattern(self):
        # all position constraints set: the occurrence must be the whole word
        exact = pattern("21", X=(0, 1, 2))
        assert contains(Permutation((2, 1)), exact)
        assert not contains(Permutation((3, 2, 1)), exact)
        assert not contains(Permutation((2, 1, 3)), exact)

    def test_irreducible_permutations(self):
        # avoiding (21,{1},{1}) forbids descents by exactly one
        drop = pattern("21", X=(1,), Y=(1,))
        counts = [sum(1 for pi in fb.enumerate_permutations(n)
                      if not contains(pi, drop)) for n in range(1, 6)]
        oracle = [sum(1 for pi in fb.enumerate_permutations(n)
                      if all(pi.entries[i + 1] != pi.entries[i] - 1
                             for i in range(n - 1))) for n in range(1, 6)]
        assert counts == oracle


# the family pattern and its seven images under reverse, complement and inverse
FAMILY_IMAGES = ("231|X={1}|Y={1}", "231|X={2}|Y={2}", "132|X={1}|Y={2}", "132|X={2}|Y={1}",
                 "213|X={1}|Y={2}", "213|X={2}|Y={1}", "312|X={1}|Y={1}", "312|X={2}|Y={2}")


def symmetry_orbit(pi):
    """(g(R_PATTERN), g(pi)) for the eight symmetries g of the square, grown
    from (R_PATTERN, pi) by the pattern and permutation symmetries in step."""
    steps = ((reverse, Permutation.reverse), (complement, Permutation.complement),
             (inverse, Permutation.inverse))
    orbit = {R_PATTERN: pi}
    frontier = [(R_PATTERN, pi)]
    while frontier:
        p, sigma = frontier.pop()
        for on_pattern, on_perm in steps:
            image = on_pattern(p)
            if image not in orbit:
                orbit[image] = on_perm(sigma)
                frontier.append((image, orbit[image]))
    return orbit


class TestFamilyImages:
    """find_occurrence takes an O(n) route for these eight patterns; the
    backtracking search and the subsequence definition are the oracles."""

    def test_the_images_are_the_symmetry_orbit(self):
        orbit = symmetry_orbit(Permutation((1,)))
        assert sorted(map(format_pattern, orbit)) == sorted(FAMILY_IMAGES)
        assert set(patterns._FAMILY_IMAGES) == set(orbit)

    @pytest.mark.parametrize("text", FAMILY_IMAGES)
    def test_every_permutation_up_to_seven(self, text):
        p = parse_pattern(text)
        for n in range(8):
            for pi in fb.enumerate_permutations(n):
                assert find_occurrence(pi, p) == patterns._backtrack(pi, p), (pi, text)

    @pytest.mark.parametrize("text", FAMILY_IMAGES)
    def test_random_permutations_up_to_sixty(self, text):
        p = parse_pattern(text)
        rng = random.Random(text)
        found = 0
        for _ in range(300):
            entries = list(range(1, rng.randint(0, 60) + 1))
            rng.shuffle(entries)
            pi = Permutation(tuple(entries))
            occurrence = find_occurrence(pi, p)
            assert occurrence == patterns._backtrack(pi, p), (pi, text)
            found += occurrence is not None
        # random images of family members: avoiders, and the other images' containers
        for _ in range(100):
            pi = fb.sequence_to_perm(random_ascent_sequence(rng.randint(1, 60), rng.randrange(2**32)))
            for image, sigma in symmetry_orbit(pi).items():
                occurrence = find_occurrence(sigma, p)
                assert occurrence == patterns._backtrack(sigma, p), (sigma, text)
                if image == p:
                    assert occurrence is None, (sigma, text)
        assert found > 100

    def test_against_the_subsequence_definition(self):
        # the witness is the lexicographically first occurrence by definition
        for text in FAMILY_IMAGES:
            p = parse_pattern(text)
            for n in range(7):
                for pi in fb.enumerate_permutations(n):
                    occurrence = find_occurrence(pi, p)
                    assert (occurrence is not None) == contains_by_subsequences(pi, p), (pi, text)
                    assert occurrence == next(occurrences_by_subsequences(pi, p), None), (pi, text)

    def test_alternating_patterns_keep_their_routes(self):
        # find_occurrence remembers the route of the last pattern object:
        # alternating patterns, and equal copies of one, each keep their own
        texts = [*FAMILY_IMAGES, "123|X={}|Y={}", "231|X={}|Y={}"]
        patterns_twice = [parse_pattern(text) for text in texts * 2]
        for pi in fb.enumerate_permutations(5):
            for p in patterns_twice:
                assert find_occurrence(pi, p) == patterns._backtrack(pi, p), (pi, p)

    def test_threads_with_different_patterns_keep_their_routes(self):
        # a memo whose pattern and route could be read from two different
        # calls gives some thread the wrong route within this many calls
        texts = ["231|X={1}|Y={1}", "132|X={2}|Y={1}", "231|X={}|Y={}", "312|X={2}|Y={2}"]
        perms = list(fb.enumerate_permutations(6))
        jobs = []
        for text in texts:
            p = parse_pattern(text)
            jobs.append((p, [patterns._backtrack(pi, p) for pi in perms]))
        wrong = []

        def search(p, expected):
            for _ in range(30):
                wrong.extend(pi for pi, want in zip(perms, expected)
                             if find_occurrence(pi, p) != want)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=search, args=job) for job in jobs]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []

    @pytest.mark.parametrize("text", FAMILY_IMAGES)
    def test_an_avoider_of_length_5000_in_linear_time(self, text):
        # the image g(pi) of a family member avoids g(R_PATTERN), the
        # worst case of a search: backtracking takes seconds on the R case
        p = parse_pattern(text)
        sigma = symmetry_orbit(fb.sequence_to_perm(random_ascent_sequence(5000, 17)))[p]
        start = time.perf_counter()
        assert find_occurrence(sigma, p) is None
        assert time.perf_counter() - start < 0.5


class TestSymmetries:
    def test_right_identity(self):
        for p in [R_PATTERN, pattern("321", X=(0, 2), Y=(1,))]:
            identity = pattern("123456789"[:len(p)])
            assert compose(p, identity) == p

    def test_compose_formula(self):
        p = pattern("231", X=(1,), Y=(2,))
        q = pattern("312", X=(2,), Y=(1,))
        composed = compose(p, q)
        assert composed.sigma.entries == (1, 2, 3)  # 231 after 312
        assert composed.X == frozenset()  # {1} symdiff {1}
        assert composed.Y == frozenset()  # {2} symdiff {2}

    def test_compose_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            compose(pattern("21"), pattern("123"))

    def test_involutive_symmetries(self):
        for p in enumerate_patterns(3):
            assert reverse(reverse(p)) == p
            assert complement(complement(p)) == p
            assert inverse(inverse(p)) == p
            assert len(reverse(p)) == len(complement(p)) == len(inverse(p)) == 3

    def test_symmetries_respect_containment(self):
        perms = list(fb.enumerate_permutations(4))
        for p in enumerate_patterns(2):
            for pi in perms:
                c = contains(pi, p)
                assert contains(pi.reverse(), reverse(p)) == c
                assert contains(pi.complement(), complement(p)) == c
                assert contains(pi.inverse(), inverse(p)) == c

    def test_symmetries_respect_containment_length_three(self):
        perms = list(fb.enumerate_permutations(4))
        for p in itertools.islice(enumerate_patterns(3), 0, None, 17):
            for pi in perms:
                c = contains(pi, p)
                assert contains(pi.reverse(), reverse(p)) == c
                assert contains(pi.complement(), complement(p)) == c
                assert contains(pi.inverse(), inverse(p)) == c

    def test_composition_is_not_associative(self):
        pool = [pattern(w, X, Y)
                for w in ("123", "231", "312")
                for X in ((), (1,), (0, 2))
                for Y in ((), (1,), (2,))]
        assert any(
            compose(compose(a, b), c) != compose(a, compose(b, c))
            for a, b, c in itertools.product(pool, repeat=3)
        )

    def test_pattern_count(self):
        for k in range(1, 5):
            import math

            assert sum(1 for _ in enumerate_patterns(k)) == 4 ** (k + 1) * math.factorial(k)


class TestSerialization:
    def test_compact_form(self):
        assert format_pattern(R_PATTERN) == "231|X={1}|Y={1}"
        assert parse_pattern("231|X={1}|Y={1}") == R_PATTERN
        assert parse_pattern("21|X={}|Y={0,2}") == pattern("21", Y=(0, 2))

    def test_roundtrip_all_length_three(self):
        for p in enumerate_patterns(3):
            assert parse_pattern(format_pattern(p)) == p

    def test_adjacency_sets_follow_the_integer_rule(self):
        sigma = Permutation((2, 3, 1))
        for X, Y in [({1.5}, {1}), ({1}, {1.9}), ({Fraction(1, 2)}, set())]:
            with pytest.raises(ValueError, match="not an integer"):
                BivincularPattern(sigma, X, Y)
        assert BivincularPattern(sigma, {1.0}, {True, "2"}) == pattern("231", {1}, {1, 2})

    def test_sigma_is_read_as_a_permutation(self):
        for sigma in [(2, 3, 1), [2, 3, 1], range(2, 0, -1)]:
            p = BivincularPattern(sigma, {1}, {1})
            assert type(p.sigma) is Permutation and p.sigma.entries == tuple(sigma)
        assert BivincularPattern((2, 3, 1), {1}, {1}) == R_PATTERN
        assert contains(Permutation((3, 2, 5, 4, 1)), BivincularPattern((2, 3, 1), {1}, {1}))
        with pytest.raises(NotPermutationError) as info:
            BivincularPattern((2, 2, 1), {1}, {1})
        assert str(info.value) == "not a permutation of 1..n: (2, 2, 1)"

    def test_compact_form_needs_length_at_most_nine(self):
        with pytest.raises(FishburnError) as info:
            format_pattern(BivincularPattern(Permutation(tuple(range(1, 11))), (), ()))
        assert (type(info.value), str(info.value)) == (
            FishburnError, "compact pattern form needs length <= 9")

    def test_parse_errors(self):
        for bad in ("231", "231|X={1}", "2x1|X={}|Y={}", "231|X=1|Y={}",
                    "231|X={a}|Y={1}", "231|X={7}|Y={1}", "231|X={1,}|Y={}", "22|X={}|Y={}",
                    "2²1|X={}|Y={}"):
            with pytest.raises(ParseError):
                parse_pattern(bad)


class TestBarredPattern:
    def test_identity_avoids(self):
        assert avoids_barred(Permutation((1, 2, 3, 4)))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_counts_match_brute_force(self, n):
        count = sum(1 for pi in fb.enumerate_permutations(n) if avoids_barred(pi))
        assert count == BARRED_COUNTS[n]
        assert count == fb.count_barred_avoiders(n)

    def test_avoiders_live_in_the_family(self):
        for n in range(1, 7):
            for pi in fb.enumerate_permutations(n):
                if avoids_barred(pi):
                    assert fb.is_r_permutation(pi)

    def test_blocked_witness(self):
        # 231 occurs and cannot be completed: missing the small middle entry
        assert not avoids_barred(Permutation((2, 3, 1, 4)))
        # the completion exists: 3 1 5 2 4 itself
        assert avoids_barred(Permutation((3, 1, 5, 2, 4)))


class TestSelfModified:
    def test_worked_example(self):
        assert is_self_modified(AscentSequence((0, 0, 1, 0, 2, 2, 0, 3, 1, 1)))

    def test_trivial(self):
        assert is_self_modified(AscentSequence((0,)))
        assert is_self_modified(AscentSequence(()))

    def test_counterexample(self):
        assert not is_self_modified(AscentSequence((0, 1, 0, 1)))

    @pytest.mark.parametrize("n", range(10))
    def test_enumeration_is_the_filter_in_order(self, n):
        expected = [x for x in fb.enumerate_ascent_sequences(n) if is_self_modified(x)]
        assert list(enumerate_self_modified(n)) == expected
        assert len(expected) == fb.count_barred_avoiders(n)

    def test_enumeration_of_a_long_length(self):
        # no recursion: the first sequences of length 3,000 come at once
        first = list(itertools.islice(enumerate_self_modified(3000), 3))
        assert [x.entries[-2:] for x in first] == [(0, 0), (0, 1), (1, 0)]
        assert all(x.entries[:-2] == (0,) * 2998 for x in first)
        with pytest.raises(ValueError):
            next(enumerate_self_modified(-1))

    def test_closed_form_is_the_fixed_point_test(self, sequences_by_length):
        pools = [*sequences_by_length.values(), fb.enumerate_ascent_sequences(8)]
        for pool in pools:
            for x in pool:
                assert is_self_modified(x) == (fb.to_modified(x).entries == x.entries)

    def test_matches_barred_avoidance(self, sequences_by_length):
        for n in range(1, 8):
            for x in sequences_by_length[n]:
                assert is_self_modified(x) == avoids_barred(fb.sequence_to_perm(x))

    def test_statistics_on_avoiders(self, sequences_by_length):
        for n in range(1, 8):
            for x in sequences_by_length[n]:
                if not is_self_modified(x):
                    continue
                pi = fb.sequence_to_perm(x)
                top = max(x.entries)
                assert top == ascents(pi.entries)
                assert top == len(right_to_left_minima(pi.entries)) - 1
