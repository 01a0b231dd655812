"""Exhaustive verification suites behind the `verify` CLI command.

`run_suite` returns (ok, message); on failure the message contains the
first counterexample in canonical text form.  Each suite counts what it
checked, a pass reports the count, and one that checks nothing fails.
The suites also rebuild the bijection outputs through their public
constructors, which the library itself skips.
"""

from __future__ import annotations

import math

from . import bijections, series, statistics
from .errors import FishburnError
from .objects import (
    brute_force_cap,
    enumerate_ascent_sequences,
    enumerate_fixed_point_free_involutions,
    enumerate_nesting_free_involutions,
    enumerate_r_permutations,
    format_involution,
    format_sequence,
    in_I2n,
)

SUITES = ("roundtrips", "stats", "series", "kernel", "nestings")

DEFAULT_MAX_N = {"roundtrips": 7, "stats": 7, "series": 12, "kernel": 8, "nestings": 4}

# p(mk + r) = 0 (mod m) for these residues r (see `_series`)
CONGRUENCES = {5: (3, 4), 7: (6,), 11: (8, 9, 10), 17: (16,), 19: (17, 18),
               23: (18, 19, 20, 21, 22)}

# log C in Zagier's p_n ~ C n! sqrt(n) (6/pi^2)^n, C = 12 sqrt(3) e^(pi^2/12) / pi^(5/2)
_ZAGIER_LOG_C = math.log(12 * math.sqrt(3)) + math.pi ** 2 / 12 - 2.5 * math.log(math.pi)


class _Counterexample(Exception):
    """A suite's first failure, as its report message."""


def run_suite(name: str, max_n: int | None = None) -> tuple[bool, str]:
    if name not in SUITES:
        raise FishburnError(f"unknown suite {name!r}")
    n = DEFAULT_MAX_N[name] if max_n is None else max_n
    if n < 0:
        raise FishburnError(f"max_n must be >= 0, got {n}")
    try:
        message, checked = _RUNNERS[name](n)
    except _Counterexample as exc:
        return False, str(exc)
    if not checked:
        return False, f"{name} checked no object at max-n {n}"
    return True, f"{message}, {checked} checked at max-n {n}"


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise _Counterexample(message)


def _check_rebuilds(outputs: dict, text: str) -> None:
    """Each output must come back equal from its public constructor.

    The library builds its bijection outputs without validation; this is
    where they meet the validators again.
    """
    for name, obj in outputs.items():
        try:
            ok = type(obj)(*(getattr(obj, f) for f in obj._fields)) == obj
        except FishburnError:
            ok = False
        _check(ok, f"{name} output rejected by its constructor on {text}")


def _roundtrips(max_n: int) -> tuple[str, int]:
    checked = 0
    for n in range(max_n + 1):
        for x in enumerate_ascent_sequences(n):
            checked += 1
            text = format_sequence(x.entries)
            via_sort = bijections.sequence_to_perm(x)
            via_insert = bijections.sequence_to_perm_by_insertion(x)
            _check(via_sort == via_insert, f"decoders disagree on {text}")
            x_perm = bijections.perm_to_sequence(via_sort)
            _check(x_perm == x, f"permutation roundtrip fails on {text}")
            p = bijections.sequence_to_poset(x)
            x_poset = bijections.poset_to_sequence(p)
            _check(x_poset == x, f"poset roundtrip fails on {text}")
            p_perm = bijections.poset_to_perm(p)
            _check(p_perm == via_sort, f"triangle fails on {text}")
            m = bijections.to_modified(x)
            x_mod = bijections.from_modified(m)
            _check(x_mod == x, f"modification roundtrip fails on {text}")
            c = bijections.poset_to_involution(p)
            _check(in_I2n(c), f"reconstruction leaves a nesting for {text}")
            back = bijections.involution_to_poset(c)
            _check(bijections.poset_to_sequence(back) == x, f"involution roundtrip fails on {text}")
            _check_rebuilds({
                "enumerate_ascent_sequences": x, "sequence_to_perm": via_sort,
                "sequence_to_perm_by_insertion": via_insert, "perm_to_sequence": x_perm,
                "sequence_to_poset": p, "poset_to_sequence": x_poset, "poset_to_perm": p_perm,
                "dual": bijections.dual(p), "to_modified": m, "from_modified": x_mod,
                "poset_to_involution": c, "involution_to_poset": back,
            }, text)
    # the brute-force oracles use no bijection: each must count p_n, and its members round-trip
    # up to its cap, which the PASS line names when it stops an oracle below max-n
    counts, capped = series.p_series(max_n), []
    for oracle, kind, encode, decode in [
        (enumerate_r_permutations, "perms", bijections.perm_to_sequence, bijections.sequence_to_perm),
        (enumerate_nesting_free_involutions, "involutions", bijections.involution_to_poset,
         bijections.poset_to_involution),
    ]:
        cap = brute_force_cap(kind)
        if cap < max_n:
            capped.append(f"{kind} at n = {cap}")
        for n in range(min(max_n, cap) + 1):
            found = oracle(n)
            _check(len(found) == counts[n],
                   f"{oracle.__name__} counts {len(found)} at n = {n}, not p_{n} = {counts[n]}")
            for obj in found:
                checked += 1
                _check(decode(encode(obj)) == obj, f"encode/decode fails on {obj}")
    shown = f" (oracles capped: {', '.join(capped)})" if capped else ""
    return f"roundtrips pass{shown}", checked


def _stats(max_n: int) -> tuple[str, int]:
    checked = 0
    for n in range(1, max_n + 1):
        for x in enumerate_ascent_sequences(n):
            checked += 1
            rec_x = statistics.stats_of_sequence(x)
            rec_pi = statistics.stats_of_perm(bijections.sequence_to_perm(x))
            rec_p = statistics.stats_of_poset(bijections.sequence_to_poset(x))
            _check(rec_x == rec_pi == rec_p, f"statistics disagree on {format_sequence(x.entries)}")
    return "statistics dictionary holds", checked


def _series(order: int) -> tuple[str, int]:
    """Checks the t-coefficients 0..order of the counting series.

    `p_series` must also satisfy the congruences p(mk + r) = 0 (mod m)
    listed in CONGRUENCES: Andrews and Sellers, "Congruences for the
    Fishburn numbers", J. Number Theory 2016, and Garvan, "Congruences
    and relations for r-Fishburn numbers", J. Combin. Theory Ser. A 2015.
    It must also follow Zagier's asymptotic p_n ~ C n! sqrt(n) (6/pi^2)^n
    ("Vassiliev invariants and a strange identity related to the Dedekind
    eta-function", Topology 2001) within |ratio - 1| < 1/n for every
    n >= 1; the ratio is about 1 - 0.57/n, and n |ratio - 1| peaks at
    0.62 at n = 3 (up to n = 600).  Logarithms of the exact terms keep
    the floats in range at any order.  Both checks run before the
    comparison with the counting DP, so each has a failure of its own.
    """
    table = series.CountTable(order)
    _check(not series.verify_functional_equation(order, table),
           f"functional equation residual nonzero at order {order}")
    counts = series.p_series(order)
    for n, p in enumerate(counts):
        for m, residues in CONGRUENCES.items():
            _check(n % m not in residues or not p % m,
                   f"p({m}k+{n % m}) is not 0 mod {m} at n = {n}")
    for n, p in enumerate(counts[1:], start=1):
        _check(p > 0 and abs(_zagier_ratio(n, p) - 1) < 1 / n,
               f"p_n is not within 1/n of Zagier's asymptotic at n = {n}")
    _check(counts == [table.total(n) for n in range(order + 1)],
           f"p_series disagrees with the counting DP at order {order}")
    total = [[0] * 11 for _ in range(11)]
    for n in range(11):
        f_n = series.F_n_polynomial(n, 10)
        _check(not any(any(row[:n]) for row in f_n), f"summand {n} is not divisible by t^{n}")
        for u, row in enumerate(f_n):
            for t, c in enumerate(row[:11]):
                total[u][t] += c
    _check(total == series.CountTable(10).u_rows(10, 10),
           "summands do not add up to the counting series")
    return "series identities hold", order + 1


def _zagier_ratio(n: int, p: int) -> float:
    """p / (C n! sqrt(n) (6/pi^2)^n), through logarithms."""
    return math.exp(math.log(p) - _ZAGIER_LOG_C - math.lgamma(n + 1) - math.log(n) / 2
                    - n * math.log(6 / math.pi ** 2))


def _kernel(order: int) -> tuple[str, int]:
    """Checks the t-coefficients 0..order of the kernel solution and identities."""
    _check(not series.verify_kernel_solution(4, order),
           "kernel solution disagrees with the counting series")
    terms = series.kernel_terms(order)
    for m in range(1, 6):
        _check(not series.verify_S_identity(m, order, terms), f"polynomial identity fails for m={m}")
    return "kernel checks pass", order + 1


def _nestings(max_chords: int) -> tuple[str, int]:
    checked = 0
    for n in range(max_chords + 1):
        for c in enumerate_fixed_point_free_involutions(2 * n):
            checked += 1
            text = format_involution(c.partner)
            cleaned = bijections.remove_neighbour_nestings(c)
            _check(in_I2n(cleaned), f"cleanup leaves a nesting: {text}")
            p = bijections.involution_to_poset(c)
            rebuilt = bijections.poset_to_involution(p)
            _check(cleaned == rebuilt, f"cleanup disagrees with reconstruction: {text}")
            _check(not in_I2n(c) or cleaned == c, f"cleanup moved a nesting-free diagram: {text}")
            _check_rebuilds({
                "enumerate_fixed_point_free_involutions": c, "remove_neighbour_nestings": cleaned,
                "involution_to_poset": p, "poset_to_involution": rebuilt,
            }, text)
    return "nesting removal is canonical", checked


_RUNNERS = {
    "roundtrips": _roundtrips,
    "stats": _stats,
    "series": _series,
    "kernel": _kernel,
    "nestings": _nestings,
}
