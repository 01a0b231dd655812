"""Acceptance suite: one test per criterion, every value exact.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

from __future__ import annotations

from fishburn import AscentSequence, ChordInvolution, Permutation
from fishburn.bijections import (
    from_modified,
    involution_to_poset,
    perm_to_sequence,
    poset_to_involution,
    poset_to_sequence,
    remove_neighbour_nestings,
    sequence_to_perm,
    sequence_to_perm_by_insertion,
    sequence_to_poset,
    to_modified,
)
from fishburn.errors import NotTwoPlusTwoFreeError
from fishburn.objects import (
    RelationMatrix,
    enumerate_ascent_sequences,
    enumerate_fixed_point_free_involutions,
    enumerate_nesting_free_involutions,
    enumerate_permutations,
    enumerate_r_permutations,
    in_I2n,
    poset_from_relations,
)
from fishburn.patterns import avoids_barred, is_self_modified
from fishburn.series import (
    CountTable,
    F_n_polynomial,
    barred_avoiders_by_rlmin,
    count_barred_avoiders,
    p_series,
    verify_functional_equation,
    verify_kernel_solution,
    verify_S_identity,
)
from fishburn.statistics import stats_of_sequence

from conftest import (
    CHORD10_PARTNER,
    CHORD10_SEQUENCE,
    POSET8B_PAIRS,
    POSET8B_SEQUENCE,
    POSET8C_PAIRS,
    POSET8C_SEQUENCE,
    relations,
)
from reference import active_sites, ascents, p_series_by_products, right_to_left_minima

EXPECTED_COUNTS = [1, 1, 2, 5, 15, 53, 217, 1014, 5335]


def report(k, text):
    print(f"ACCEPTANCE {k}: PASS - {text}")


def test_criterion_1_counting_concordance():
    by_product = p_series_by_products(8)
    by_series = p_series(8)
    table = CountTable(8)
    by_dp = [table.total(n) for n in range(9)]
    by_enumeration = [sum(1 for _ in enumerate_ascent_sequences(n)) for n in range(9)]
    by_filtered_perms = [len(enumerate_r_permutations(n)) for n in range(9)]
    by_filtered_involutions = [len(enumerate_nesting_free_involutions(n)) for n in range(7)]
    assert by_product == EXPECTED_COUNTS
    assert by_series == EXPECTED_COUNTS
    assert by_dp == EXPECTED_COUNTS
    assert by_enumeration == EXPECTED_COUNTS
    assert by_filtered_perms == EXPECTED_COUNTS
    assert by_filtered_involutions == EXPECTED_COUNTS[:7]
    report(1, "six independent routes give 1,1,2,5,15,53,217,1014,5335")


def test_criterion_2_worked_examples():
    assert perm_to_sequence(Permutation((6, 1, 8, 3, 2, 5, 4, 7))).entries == \
        (0, 1, 1, 2, 2, 0, 3, 1)

    x = AscentSequence((0, 1, 0, 1, 3, 1, 1, 2))
    m = to_modified(x)
    assert m.entries == (0, 3, 0, 1, 4, 1, 1, 2)
    assert from_modified(m) == x

    pi = sequence_to_perm(x)
    assert pi.entries == (3, 1, 7, 6, 4, 8, 2, 5)
    assert active_sites(pi) == ((0, 2, 5, 6, 7, 8), 2)

    walkthrough_b = relations(8, POSET8B_PAIRS)
    assert poset_to_sequence(walkthrough_b).entries == POSET8B_SEQUENCE

    walkthrough_c = relations(8, POSET8C_PAIRS)
    built = sequence_to_poset(AscentSequence(POSET8C_SEQUENCE))
    assert built == walkthrough_c
    assert poset_to_sequence(walkthrough_c).entries == POSET8C_SEQUENCE

    chords = ChordInvolution(CHORD10_PARTNER)
    interval_order = involution_to_poset(chords)
    assert poset_to_sequence(interval_order).entries == CHORD10_SEQUENCE
    assert interval_order.levels == (0, 0, 0, 1, 2)
    assert poset_to_involution(interval_order) == chords
    report(2, "all worked examples reproduced exactly")


def test_criterion_3_roundtrips_exhaustive():
    for n in range(9):
        for x in enumerate_ascent_sequences(n):
            assert poset_to_sequence(sequence_to_poset(x)) == x
            m = to_modified(x)
            assert from_modified(m) == x
            pi = sequence_to_perm(x)
            assert sequence_to_perm_by_insertion(x) == pi
    for n in range(9):
        for pi in enumerate_r_permutations(n):
            assert sequence_to_perm(perm_to_sequence(pi)) == pi
    for n in range(7):
        for x in enumerate_ascent_sequences(n):
            p = sequence_to_poset(x)
            c = poset_to_involution(p)
            assert in_I2n(c)
            assert poset_to_sequence(involution_to_poset(c)) == x
        for c in enumerate_fixed_point_free_involutions(2 * n):
            if in_I2n(c):
                assert poset_to_involution(involution_to_poset(c)) == c
            if n <= 4:
                assert remove_neighbour_nestings(c) == \
                    poset_to_involution(involution_to_poset(c))
    report(3, "all roundtrips hold at the stated sizes")


def test_criterion_4_statistics_dictionary():
    from fishburn.statistics import stats_of_perm, stats_of_poset

    for n in range(1, 9):
        for x in enumerate_ascent_sequences(n):
            rec = stats_of_sequence(x)
            assert rec == stats_of_perm(sequence_to_perm(x))
            assert rec == stats_of_poset(sequence_to_poset(x))

    rec = stats_of_sequence(AscentSequence((0, 1, 0, 1, 3, 1, 1, 2)))
    assert (rec.minimals, rec.srank, rec.rank, rec.maximals, rec.components) == \
        (2, 2, 4, 2, 1)
    assert rec.level_counts == (2, 3, 1, 1, 1)
    assert rec.max_level_counts == (0, 0, 1, 0, 1)
    report(4, "statistics dictionary holds coefficientwise up to size 8")


def test_criterion_5_series_identities():
    assert verify_functional_equation(12) == []

    # the summands up to t^10, as u-rows [u][t], against the ascent counts
    total = [[0] * 11 for _ in range(11)]
    for n in range(11):
        f_n = F_n_polynomial(n)
        assert not any(any(row[:n]) for row in f_n)
        for u, row in enumerate(f_n):
            for t, c in enumerate(row[:11]):
                total[u][t] += c
    table = CountTable(10)
    for t in range(11):
        by_asc = table.by_ascents(t)
        assert [row[t] for row in total] == by_asc + [0] * (11 - len(by_asc))

    for m in range(1, 6):
        assert verify_S_identity(m, 8) == []

    assert verify_kernel_solution(4, 8) == []

    table = CountTable(3)
    assert table.counts[1:] == [[[1]], [[1, 0], [0, 1]], [[1, 0, 0], [1, 2, 0], [0, 0, 1]]]
    assert table.total(0) == 1
    report(5, "all series identities hold at their stated orders")


def test_criterion_6_barred_avoider_counts():
    for n in range(1, 9):
        avoiders = [pi for pi in enumerate_permutations(n) if avoids_barred(pi)]
        assert len(avoiders) == count_barred_avoiders(n)
        fixed = sum(1 for x in enumerate_ascent_sequences(n) if is_self_modified(x))
        assert len(avoiders) == fixed
        histogram = {}
        for pi in avoiders:
            rlmin = len(right_to_left_minima(pi.entries))
            assert ascents(pi.entries) == rlmin - 1
            histogram[rlmin] = histogram.get(rlmin, 0) + 1
        for k in range(1, n + 1):
            assert histogram.get(k, 0) == barred_avoiders_by_rlmin(n, k)
    report(6, "avoider counts match the closed formula and the fixed sequences")


def test_criterion_7_dot_diagram_regression():
    w = (4, 1, 5, 2, 3)
    pairs = frozenset((i + 1, j + 1) for i in range(5) for j in range(5)
                      if i < j and w[i] < w[j])
    try:
        poset_from_relations(RelationMatrix(5, pairs))
    except NotTwoPlusTwoFreeError:
        report(7, "the coordinatewise order of 41523 is rejected")
        return
    raise AssertionError("expected a 2+2 rejection")
