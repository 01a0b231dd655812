"""Exhaustive verification suites behind the `verify` CLI command.

Each suite returns (ok, message); on failure the message contains the
first counterexample in canonical text form.
"""

from __future__ import annotations

from . import bijections, series, statistics
from .objects import (
    brute_force_cap,
    enumerate_ascent_sequences,
    enumerate_fixed_point_free_involutions,
    enumerate_r_permutations,
    format_involution,
    format_permutation,
    format_sequence,
    in_I2n,
)

SUITES = ("roundtrips", "stats", "series", "kernel", "nestings")

DEFAULT_MAX_N = {"roundtrips": 7, "stats": 7, "series": 12, "kernel": 8, "nestings": 4}


def run_suite(name: str, max_n: int | None = None) -> tuple[bool, str]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    n = DEFAULT_MAX_N[name] if max_n is None else max_n
    if n < 0:
        raise ValueError(f"max_n must be >= 0, got {n}")
    return _RUNNERS[name](n)


def _roundtrips(max_n: int) -> tuple[bool, str]:
    for n in range(max_n + 1):
        for x in enumerate_ascent_sequences(n):
            via_sort = bijections.sequence_to_perm(x)
            via_insert = bijections.sequence_to_perm_by_insertion(x)
            if via_sort != via_insert:
                return False, f"decoders disagree on {format_sequence(x.entries)}"
            if bijections.perm_to_sequence(via_sort) != x:
                return False, f"permutation roundtrip fails on {format_sequence(x.entries)}"
            p = bijections.sequence_to_poset(x)
            if bijections.poset_to_sequence(p) != x:
                return False, f"poset roundtrip fails on {format_sequence(x.entries)}"
            if bijections.poset_to_perm(p) != via_sort:
                return False, f"triangle fails on {format_sequence(x.entries)}"
            m = bijections.to_modified(x)
            if bijections.from_modified(m) != x:
                return False, f"modification roundtrip fails on {format_sequence(x.entries)}"
    for n in range(min(max_n, brute_force_cap("perms")) + 1):
        for pi in enumerate_r_permutations(n):
            if bijections.sequence_to_perm(bijections.perm_to_sequence(pi)) != pi:
                return False, f"encode/decode fails on {format_permutation(pi.entries)}"
    for n in range(min(max_n, brute_force_cap("involutions")) + 1):
        for x in enumerate_ascent_sequences(n):
            p = bijections.sequence_to_poset(x)
            c = bijections.poset_to_involution(p)
            if not in_I2n(c):
                return False, f"reconstruction leaves a nesting for {format_sequence(x.entries)}"
            back = bijections.involution_to_poset(c)
            if bijections.poset_to_sequence(back) != x:
                return False, f"involution roundtrip fails on {format_sequence(x.entries)}"
    return True, "roundtrips pass"


def _stats(max_n: int) -> tuple[bool, str]:
    for n in range(1, max_n + 1):
        for x in enumerate_ascent_sequences(n):
            rec_x = statistics.stats_of_sequence(x)
            rec_pi = statistics.stats_of_perm(bijections.sequence_to_perm(x))
            rec_p = statistics.stats_of_poset(bijections.sequence_to_poset(x))
            if not rec_x == rec_pi == rec_p:
                return False, f"statistics disagree on {format_sequence(x.entries)}"
    return True, "statistics dictionary holds"


def _series(order: int) -> tuple[bool, str]:
    residual = series.verify_functional_equation(order)
    if not residual.is_zero():
        return False, f"functional equation residual nonzero at order {order}"
    table = series.count_table(10)
    reference = table.series_u(10)
    total = series.TruncatedSeries.zero(10)
    for n in range(11):
        f_n = series.F_n_polynomial(n)
        if not f_n.divisible_by_t(n):
            return False, f"summand {n} is not divisible by t^{n}"
        total = total + f_n.truncate_t(10).subs_v_one()
    if total != reference:
        return False, "summands do not add up to the counting series"
    return True, "series identities hold"


def _kernel(order: int) -> tuple[bool, str]:
    residual = series.verify_kernel_solution(4, order)
    if not residual.is_zero():
        return False, "kernel solution disagrees with the counting series"
    terms = series.kernel_terms(order)
    for m in range(1, 6):
        if not series.verify_S_identity(m, order, terms).is_zero():
            return False, f"polynomial identity fails for m={m}"
    return True, "kernel checks pass"


def _nestings(max_chords: int) -> tuple[bool, str]:
    for n in range(max_chords + 1):
        for c in enumerate_fixed_point_free_involutions(2 * n):
            cleaned = bijections.remove_neighbour_nestings(c)
            if not in_I2n(cleaned):
                return False, f"cleanup leaves a nesting: {format_involution(c.partner)}"
            rebuilt = bijections.poset_to_involution(bijections.involution_to_poset(c))
            if cleaned != rebuilt:
                return False, f"cleanup disagrees with reconstruction: {format_involution(c.partner)}"
            if in_I2n(c) and cleaned != c:
                return False, f"cleanup moved a nesting-free diagram: {format_involution(c.partner)}"
    return True, "nesting removal is canonical"


_RUNNERS = {
    "roundtrips": _roundtrips,
    "stats": _stats,
    "series": _series,
    "kernel": _kernel,
    "nestings": _nestings,
}
