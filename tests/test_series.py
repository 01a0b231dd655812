"""Exact series arithmetic and the generating-function identities."""

from __future__ import annotations

import pytest

import fishburn as fb
from fishburn import series
from fishburn.errors import FishburnError
from fishburn.series import (
    CountTable,
    F_n_polynomial,
    S_closed_form,
    _ascent_counts,
    barred_avoiders_by_rlmin,
    count_barred_avoiders,
    kernel_solution_series,
    kernel_terms,
    p_series,
    verify_functional_equation,
    verify_kernel_solution,
    verify_S_identity,
)
from fishburn.verify import CONGRUENCES

from conftest import BARRED_COUNTS, FISHBURN_COUNTS
from reference import (
    F_n_polynomial_by_products,
    S_closed_form_by_products,
    S_identity_term_by_term,
    TruncatedSeries,
    ascents,
    cells,
    from_rows,
    functional_equation_residual_by_products,
    invert,
    kernel_solution_series_by_products,
    kernel_terms_by_products,
    one_minus_t_pow,
    p_series_by_prefix_sums,
    p_series_by_products,
    power,
    product_polynomial,
    subs_u_one,
    t_coefficients,
    times,
    tu_cells,
    u_to_uv,
)


def quartic_counts(max_length):
    """The counting DP entry by entry: each appended value i is its own step."""
    table = [None] * (max_length + 1)
    if max_length >= 1:
        table[1] = [[1]]
    for n in range(2, max_length + 1):
        cur = [[0] * n for _ in range(n)]
        for a, row in enumerate(table[n - 1]):
            for last, c in enumerate(row):
                if c == 0:
                    continue
                for i in range(0, a + 2):
                    if i <= last:
                        cur[a][i] += c
                    else:
                        cur[a + 1][i] += c
        table[n] = cur
    return table


class TestTruncatedSeries:
    def test_ring_basics(self):
        t = TruncatedSeries.monomial(1, dt=1, t_order=4)
        one = TruncatedSeries.one(4)
        s = times(one + t, one - t)
        assert s.coeffs == {(0, 0, 0): 1, (2, 0, 0): -1}
        assert power(one + t, 3).coeffs == {(0, 0, 0): 1, (1, 0, 0): 3, (2, 0, 0): 3, (3, 0, 0): 1}

    def test_truncation(self):
        t = TruncatedSeries.monomial(1, dt=1, t_order=3)
        s = power(1 + t, 5)
        assert s.coeffs == {(0, 0, 0): 1, (1, 0, 0): 5, (2, 0, 0): 10, (3, 0, 0): 10}

    def test_inversion(self):
        nt, nu = 6, 3
        one = TruncatedSeries.one(nt, nu)
        t = TruncatedSeries.monomial(1, dt=1, t_order=nt, u_order=nu)
        u = TruncatedSeries.monomial(1, du=1, t_order=nt, u_order=nu)
        f = one - t + times(t, u)
        g = invert(f)
        assert times(f, g) == one
        assert times(g, f) == one

    def test_inversion_requires_unit(self):
        nt, nu = 4, 2
        t = TruncatedSeries.monomial(1, dt=1, t_order=nt, u_order=nu)
        with pytest.raises(ValueError):
            invert(2 + t)
        with pytest.raises(ValueError):
            invert(TruncatedSeries(nt, (1 + t).coeffs))

    def test_substitutions(self):
        s = TruncatedSeries(3, {(1, 2, 0): 5, (2, 1, 1): 7})
        assert u_to_uv(s).coeffs == {(1, 2, 2): 5, (2, 1, 2): 7}
        assert s.subs_v_one().coeffs == {(1, 2, 0): 5, (2, 1, 0): 7}
        assert subs_u_one(s).coeffs == {(1, 0, 0): 5, (2, 0, 1): 7}

    def test_negative_exponents_are_rejected(self):
        for key in [(-1, 0, 0), (0, -1, 0), (0, 0, -1)]:
            with pytest.raises(ValueError):
                TruncatedSeries(3, {key: 5})
        with pytest.raises(ValueError):
            TruncatedSeries.monomial(1, du=-2, t_order=3)

    def test_products_drop_cancelled_terms(self):
        t = TruncatedSeries.monomial(1, dt=1, t_order=4, u_order=2)
        u = TruncatedSeries.monomial(1, du=1, t_order=4, u_order=2)
        s = times(1 + t + u, 1 - t)
        assert s.coeffs == {(0, 0, 0): 1, (2, 0, 0): -1, (0, 1, 0): 1, (1, 1, 0): -1}
        assert times(u, u, u).is_zero()
        assert times(times(t, t), times(t, t, t)).is_zero()

    @pytest.mark.parametrize("call", [
        lambda: verify_functional_equation(-1, CountTable(3)),
        lambda: verify_kernel_solution(-1, 5),
        lambda: verify_kernel_solution(2, -1, CountTable(3)),
        lambda: verify_S_identity(2, -1),
        lambda: verify_S_identity(2, -1, []),
        lambda: CountTable(3).u_rows(-2, 2),
        lambda: CountTable(3).u_rows(2, -1),
        lambda: TruncatedSeries(-1),
        lambda: TruncatedSeries.zero(2, -1),
        lambda: F_n_polynomial(-1),
        lambda: F_n_polynomial(-2),
        lambda: F_n_polynomial(-3),
        lambda: F_n_polynomial(3, -1),
        lambda: kernel_terms(-1),
        lambda: S_closed_form(2, -1),
        lambda: S_closed_form(2, 4, -1),
        lambda: kernel_solution_series(-1, 5),
        lambda: kernel_solution_series(2, -1),
    ], ids=["functional-equation", "kernel-u", "kernel-t", "S-identity", "S-identity-terms",
            "series", "series-u", "constructor", "zero", "summand-1", "summand-2", "summand-3",
            "summand-t",
            "kernel-terms", "closed-form-t", "closed-form-u", "kernel-series-u",
            "kernel-series-t"])
    def test_negative_orders_are_rejected(self, call):
        # a negative order would leave no row to check, and the check would pass
        with pytest.raises(ValueError):
            call()

    @pytest.mark.parametrize("call, message", [
        (lambda: p_series(-1), "order must be >= 0"),
        (lambda: CountTable(-1), "max_length must be >= 0"),
        (lambda: S_closed_form(0, 3), "m must be >= 1"),
        (lambda: verify_S_identity(0, 3), "m must be >= 1"),
        (lambda: count_barred_avoiders(-1), "n must be >= 0"),
    ], ids=["series", "table", "closed-form-m", "S-identity-m", "barred"])
    def test_out_of_range_arguments_name_their_bound(self, call, message):
        with pytest.raises(FishburnError) as info:
            call()
        assert (type(info.value), str(info.value)) == (FishburnError, message)

    def test_order_zero_still_checks(self):
        assert verify_functional_equation(0, CountTable(3)) == []
        assert verify_kernel_solution(0, 0) == []
        assert verify_S_identity(2, 0) == []
        assert CountTable(3).u_rows(0, 0) == [[1]]

    def test_all_coefficients_are_ints(self):
        f = kernel_solution_series(3, 6)
        assert all(isinstance(c, int) for row in f for c in row)


class TestProductFormula:
    def test_frozen_counts(self):
        assert p_series(8) == FISHBURN_COUNTS[:9]

    def test_constant_and_linear(self):
        assert p_series(1) == [1, 1]

    def test_later_terms_match_counting_dp(self):
        table = CountTable(10)
        ps = p_series(10)
        assert ps[9] == table.total(9) == 31240
        assert ps[10] == table.total(10) == 201608

    def test_twenty_terms_match_counting_dp(self):
        table = CountTable(20)
        ps = p_series(20)
        assert [table.total(n) for n in range(21)] == ps
        assert ps[20] > 10**14  # far beyond word size, still exact


def congruence_failures(ps: list[int]) -> list[tuple[int, int]]:
    """The (m, n) with n in a listed residue class mod m but p_n not divisible by m."""
    return [(m, n) for m, residues in CONGRUENCES.items()
            for n, p in enumerate(ps) if n % m in residues and p % m]


class TestCongruences:
    def test_p_series_satisfies_the_congruences(self):
        assert congruence_failures(p_series(300)) == []

    def test_a_bumped_term_breaks_one(self):
        ps = p_series(300)
        ps[23] += 1  # 23 = 3 (mod 5), in no other listed class
        assert congruence_failures(ps) == [(5, 23)]


class TestKernelOracles:
    def test_count_table_matches_quartic_loop(self):
        # the DP keeps short rows; the table pads each to n cells
        for n in range(41):
            assert CountTable(n).counts == quartic_counts(n)

    def test_p_series_matches_products_and_table(self):
        order = 60
        summed = [0] * (order + 1)
        for n in range(order + 1):
            for i, c in enumerate(product_polynomial(n, order)):
                summed[i] += c
        table = CountTable(order)
        assert p_series(order) == summed == [table.total(n) for n in range(order + 1)]

    @pytest.mark.parametrize("order", [*range(61), 250])
    def test_p_series_matches_the_paper_product_form(self, order):
        # both parities: the Andrews-Jelinek loop runs order // 2 factors
        assert p_series(order) == p_series_by_products(order)

    def test_p_series_matches_the_prefix_sum_passes(self):
        # order 8, and every order from 10 on, takes the Toeplitz product at its top levels
        for order in [*range(151), 250, 333]:
            assert p_series(order) == p_series_by_prefix_sums(order), order

    @pytest.mark.parametrize("k", range(1, 31))
    def test_horner_factor_is_the_series_of_its_level(self, k):
        order = 39
        x_inverse = invert(one_minus_t_pow(1, order, 0))
        x_inverse_k = invert(one_minus_t_pow(k, order, 0))
        expected = t_coefficients(times(x_inverse, power(1 - x_inverse_k, 2)))
        tau = series._horner_factor(k, order + 1)
        assert tau == expected and tau[:2] == [0, 0]

    @pytest.mark.parametrize("n", range(13))
    def test_product_polynomial_matches_series_product(self, n):
        order = 10
        one = TruncatedSeries.one(order)
        prod = one
        for i in range(1, n + 1):
            prod = times(prod, one - one_minus_t_pow(i, order))
        assert product_polynomial(n, order) == t_coefficients(prod)

    def test_shared_kernel_terms_agree(self):
        order = 8
        terms = kernel_terms(order)
        for m in range(1, 6):
            shared = verify_S_identity(m, order, terms)
            assert shared == verify_S_identity(m, order) == []

    def test_kernel_terms_must_match_the_order(self):
        with pytest.raises(ValueError):
            verify_S_identity(2, 8, kernel_terms(6))
        wider = [[row + [0] for row in rows] for rows in kernel_terms(8)]
        with pytest.raises(ValueError):
            verify_S_identity(2, 8, wider)

    def test_kernel_terms_of_the_wrong_shape_are_rejected(self):
        # moving one coefficient onto v^1 changes the term-by-term residual;
        # u-rows have no v index to move it to, so only a wrong shape can
        # reach the row form, and it must refuse one
        order = 8
        terms = kernel_terms(order)
        series_terms = [from_rows(rows, order) for rows in terms]
        coeffs = dict(series_terms[2].coeffs)
        coeffs[3, 2, 1] = coeffs.pop((3, 2, 0))
        series_terms[2] = TruncatedSeries(order, coeffs, order)
        assert not S_identity_term_by_term(2, order, series_terms).is_zero()
        extra_row = [*terms[:2], terms[2] + [[0] * (order + 1)], *terms[3:]]
        short_row = [*terms[:2], [*terms[2][:3], terms[2][3][:-1], *terms[2][4:]], *terms[3:]]
        for bad in (extra_row, short_row):
            with pytest.raises(ValueError):
                verify_S_identity(2, order, bad)
        assert verify_S_identity(2, order, terms) == []


class TestCountTable:
    def test_low_order_series(self):
        table = CountTable(3)
        assert table.counts[1:] == [[[1]], [[1, 0], [0, 1]], [[1, 0, 0], [1, 2, 0], [0, 0, 1]]]
        assert table.total(0) == 1
        assert table.u_rows(3, 3) == [[1, 1, 1, 1], [0, 0, 1, 3], [0, 0, 0, 1], [0, 0, 0, 0]]
        assert table.u_rows(2, 0) == [[1, 1, 1]]

    def test_u_rows_need_a_long_enough_table(self):
        with pytest.raises(ValueError, match="table too short for requested order"):
            CountTable(3).u_rows(4, 2)
        with pytest.raises(ValueError, match="table too short for requested order"):
            verify_kernel_solution(2, 5, CountTable(3))

    def test_single_sequence_row(self):
        table = CountTable(1)
        assert table.count(1, 0, 0) == 1
        assert table.total(1) == 1
        assert table.total(0) == 1

    @pytest.mark.parametrize("n", range(9))
    def test_row_sums(self, n):
        assert CountTable(8).total(n) == FISHBURN_COUNTS[n]

    def test_by_ascents_matches_enumeration(self, sequences_by_length):
        table = CountTable(6)
        for n in range(1, 7):
            histogram = [0] * n
            for x in sequences_by_length[n]:
                histogram[ascents(x.entries)] += 1
            assert table.by_ascents(n) == histogram

    def test_lengths_outside_the_table_are_rejected(self):
        table = CountTable(5)
        for n in (-1, 6):
            for lookup in (table.total, table.by_ascents):
                with pytest.raises(ValueError):
                    lookup(n)
            with pytest.raises(ValueError):
                table.count(n, 0, 0)

    def test_negative_ascents_or_last_entry_count_zero(self):
        table = CountTable(5)
        assert table.count(5, -1, 0) == 0
        assert table.count(5, 0, -1) == 0
        assert table.count(5, 2, -3) == 0
        assert table.count(5, 5, 0) == table.count(5, 0, 5) == 0

    @pytest.mark.parametrize("n", range(61))
    def test_ascent_counts_match_the_table(self, n):
        assert _ascent_counts(n) == CountTable(max(n, 1)).by_ascents(n)

    def test_ascent_counts_rejects_negative_length(self):
        with pytest.raises(ValueError):
            _ascent_counts(-1)

    def test_nonnegativity(self):
        table = CountTable(9)
        for n in range(1, 10):
            assert all(c >= 0 for row in table.counts[n] for c in row)


def bumped(max_length: int, n: int, a: int, last: int) -> CountTable:
    """A new table of lengths up to `max_length` with one count raised by 1."""
    table = CountTable(max_length)
    table.counts[n][a][last] += 1
    return table


class TestFunctionalEquation:
    def test_zero_residual(self):
        assert verify_functional_equation(12) == []

    def test_zero_order(self):
        assert verify_functional_equation(0) == []

    def test_corrupted_table_is_detected(self):
        assert verify_functional_equation(6, bumped(6, 5, 2, 1)) != []

    def test_table_too_short_is_rejected(self):
        with pytest.raises(ValueError, match="table too short for requested order"):
            verify_functional_equation(5, CountTable(4))

    def test_a_bumped_cell_shows_in_its_own_row_and_the_next(self):
        residual = verify_functional_equation(10, bumped(10, 7, 3, 2))
        assert residual == sorted(residual)
        assert {(n, a) for n, a, _, _ in residual} == {(7, 3), (8, 3), (8, 4)}


class TestFunctionalEquationAgainstProducts:
    """The row reading gives exactly the coefficients of the ring products."""

    @pytest.mark.parametrize("order", range(21))
    def test_real_table(self, order):
        table = CountTable(order)
        fast = verify_functional_equation(order, table)
        assert fast == cells(functional_equation_residual_by_products(order, table)) == []

    def test_every_single_cell_bump(self):
        # cells with last > a are zero by construction; a bump there must
        # take the full rows, not the live prefixes
        every_cell = [(n, a, last) for n in range(1, 11) for a in range(n) for last in range(n)]
        for cell in every_cell:
            bad = bumped(10, *cell)
            fast = verify_functional_equation(10, bad)
            assert fast != [], cell
            assert fast == cells(functional_equation_residual_by_products(10, bad)), cell


def at_u_one(rows: list[list[int]]) -> list[int]:
    """The t-coefficients of a series given by u-rows, at u = 1."""
    return [sum(column) for column in zip(*rows)]


class TestSummandPolynomials:
    def test_empty_case(self):
        assert F_n_polynomial(0) == [[1]]

    @pytest.mark.parametrize("n", range(11))
    def test_divisible_by_t_power(self, n):
        rows = F_n_polynomial(n)
        assert len(rows) == n + 1
        assert not any(any(row[:n]) for row in rows)

    @pytest.mark.parametrize("n", range(9))
    def test_u_one_specialization_is_the_product(self, n):
        f_n = at_u_one(F_n_polynomial(n))
        assert f_n == product_polynomial(n, len(f_n) - 1)

    @pytest.mark.parametrize("n", range(13))
    def test_truncated_rows_are_the_padded_prefix(self, n):
        exact = F_n_polynomial(n)
        degree = n * (n + 3) // 2
        for t in sorted({0, 1, max(n - 1, 0), n, 10, degree, degree + 3}):
            expected = [(row + [0] * (t + 1))[:t + 1] for row in exact]
            assert F_n_polynomial(n, t) == expected, t

    def test_sum_matches_counting_series(self):
        total = [[0] * 11 for _ in range(11)]
        for n in range(11):
            for u, row in enumerate(F_n_polynomial(n)):
                for t, c in enumerate(row[:11]):
                    total[u][t] += c
        assert total == CountTable(10).u_rows(10, 10)

    def test_fifth_summand_feeds_the_product_formula(self):
        f5 = at_u_one(F_n_polynomial(5))
        ps = p_series(8)
        partial = [0] * 9
        for n in range(9):
            for i, c in enumerate(product_polynomial(n, 8)):
                partial[i] += c
        assert partial == ps
        assert f5[:9] == product_polynomial(5, 8)


class TestAgainstRingProducts:
    """The row-by-row forms give exactly the coefficients of the ring products."""

    @pytest.mark.parametrize("order", range(17))
    def test_kernel_terms(self, order):
        fast, slow = kernel_terms(order), kernel_terms_by_products(order)
        assert len(fast) == len(slow) == order + 1
        for rows, b in zip(fast, slow):
            assert len(rows) == order + 1
            assert from_rows(rows, order) == b

    @pytest.mark.parametrize("order", range(17))
    def test_kernel_solution_series(self, order):
        fast = kernel_solution_series(4, order)
        assert len(fast) == 5
        assert from_rows(fast, 4) == kernel_solution_series_by_products(4, order)

    def test_kernel_solution_series_at_other_u_orders(self):
        for nu, nt in [(0, 5), (1, 7), (6, 3), (9, 9)]:
            fast = kernel_solution_series(nu, nt)
            assert len(fast) == nu + 1
            assert from_rows(fast, nu) == kernel_solution_series_by_products(nu, nt)

    @pytest.mark.parametrize("n", range(11))
    def test_F_n_polynomial(self, n):
        assert from_rows(F_n_polynomial(n)) == F_n_polynomial_by_products(n)

    def test_S_closed_form(self):
        for m in range(1, 8):
            for t_order, u_order in [(0, 0), (6, None), (6, 2), (10, 10), (3, 12)]:
                fast = S_closed_form(m, t_order, u_order)
                assert from_rows(fast, u_order) == S_closed_form_by_products(m, t_order, u_order)

    @pytest.mark.parametrize("order", [0, 1, 5, 10])
    def test_S_identity(self, order):
        terms = kernel_terms(order)
        series_terms = [from_rows(rows, order) for rows in terms]
        for m in range(1, 6):
            assert verify_S_identity(m, order, terms) == tu_cells(
                S_identity_term_by_term(m, order, series_terms))

    def test_corrupted_kernel_term_is_detected(self):
        # term k has no u-power below k-1, and those rows are passed over
        # while they are 0: a cell planted there must still count
        order = 8
        for k, u, t in [(3, 2, 3), (5, 1, 3), (9, 0, 0), (9, 7, 8)]:
            terms = kernel_terms(order)
            terms[k - 1][u][t] += 1
            planted = [[row[:] for row in rows] for rows in terms]
            series_terms = [from_rows(rows, order) for rows in terms]
            for m in range(1, 6):
                residual = verify_S_identity(m, order, terms)
                assert residual != [], (k, u, t, m)
                assert residual == tu_cells(S_identity_term_by_term(m, order, series_terms))
            assert terms == planted

    def test_wrong_closed_form_is_detected(self, monkeypatch):
        right = series.S_closed_form

        def wrong(m, t_order, u_order=None):
            rows = right(m, t_order, u_order)
            if len(rows) == 1:
                rows.append([0] * (t_order + 1))
            rows[1][2] += 1  # a t^2 u term too many
            return rows

        monkeypatch.setattr(series, "S_closed_form", wrong)
        for m in range(1, 6):
            assert verify_S_identity(m, 8) == [(2, 1, -1)]


class TestKernelChecks:
    def test_polynomial_identity(self):
        for m in range(1, 6):
            assert verify_S_identity(m, 8) == []

    def test_closed_form_base_case(self):
        # at m = 1 the closed side collapses to the constant -1
        assert S_closed_form(1, 6, 6) == [[-1, 0, 0, 0, 0, 0, 0]]
        assert verify_S_identity(1, 6) == []

    def test_kernel_solution(self):
        assert verify_kernel_solution(4, 8) == []

    def test_kernel_solution_detects_a_corrupted_table(self):
        assert verify_kernel_solution(4, 6, bumped(6, 5, 2, 1)) != []

    def test_a_bumped_cell_shows_in_its_own_length_and_ascents_only(self):
        # the u-rows sum over the last entry, so a cell bumped at (n, a, l)
        # moves exactly one coefficient: t^n u^a, by -1 on the closed side
        n = 6
        for m in range(1, n + 1):
            for a in range(min(m, 5)):
                for last in range(m):
                    residual = verify_kernel_solution(4, n, bumped(n, m, a, last))
                    assert residual == [(m, a, -1)], (m, a, last)

    def test_zero_ascents_row(self):
        # the u^0 coefficient counts the all-zero sequence: one per length
        assert kernel_solution_series(0, 8) == [[1] * 9]

    def test_kernel_root_annuls_kernel(self):
        nt, nu = 8, 4
        one = TruncatedSeries.one(nt, nu)
        t = TruncatedSeries.monomial(1, dt=1, t_order=nt, u_order=nu)
        u = TruncatedSeries.monomial(1, du=1, t_order=nt, u_order=nu)
        root = invert(one - t + times(t, u))
        kernel_at_root = root - one - times(t, root, one - u)
        assert kernel_at_root.is_zero()


class TestBarredCounts:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_totals(self, n):
        assert count_barred_avoiders(n) == BARRED_COUNTS[n]

    def test_split_at_five(self):
        assert [barred_avoiders_by_rlmin(5, k) for k in range(1, 6)] == [1, 10, 21, 10, 1]

    def test_identity_class(self):
        for n in range(1, 9):
            assert barred_avoiders_by_rlmin(n, n) == 1

    def test_totals_count_self_modified_sequences(self, sequences_by_length):
        for n in range(1, 8):
            fixed = sum(1 for x in sequences_by_length[n] if fb.is_self_modified(x))
            assert fixed == count_barred_avoiders(n)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            barred_avoiders_by_rlmin(3, 4)
        with pytest.raises(ValueError):
            barred_avoiders_by_rlmin(0, 0)
        assert count_barred_avoiders(0) == 1
