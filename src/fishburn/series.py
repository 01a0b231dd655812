"""Exact enumeration: counting tables, generating series, closed formulas.

Everything here is integer arithmetic.  The central objects are

* `p_series(N)`: the family counts p_0..p_N.  The paper's product
  formula sum_n prod_{i=1..n} (1 - (1-t)^i) equals, with x = 1-t,
  sum_n x^-(n+1) prod_{i=1..n} (1 - x^-i)^2 (conjectured by Jelinek,
  "Counting general and self-dual interval orders", JCTA 2012; proved by
  Andrews and Jelinek, "On q-series identities related to interval
  orders", Europ. J. Combin. 2014).  Each factor of this form is
  divisible by t^2, so floor(N/2) of them reach t^N, and dividing by x
  is a prefix sum: the Horner evaluation uses prefix sums, and a
  schoolbook product with the coefficients of x^-1 (1 - x^-k)^2 only at
  its top levels, where the working list is shorter than k;
* `CountTable`: the dynamic program counting ascent sequences by length,
  number of ascents and last entry (appending i <= last keeps the ascent
  count, appending last < i <= asc+1 raises it by one); each row feeds
  the next through one prefix-sum pass, so N rows take O(N^3) time.  The
  last entry of a sequence with a ascents is at most a, so the DP keeps
  row a to the a + 2 cells its sums give, and `CountTable` pads each row
  to n cells when it stores the table.  `_ascent_counts(N)` sums the
  short rows and keeps only the last two, so it stores O(N^2) counts
  where the table stores O(N^3);
* residual checks for the recurrence written as a functional equation in
  two catalytic variables, for its kernel-method solution as a u-series
  with rational t-coefficients, and for the polynomial identity that
  converts that solution into a t-convergent form.

A series in t and u is held as u-rows of t-coefficient lists:
`rows[u][t]` is the coefficient of t^t u^u, and every row has the same
length, so the shape is the truncation.  `F_n_polynomial`,
`S_closed_form`, `kernel_terms` and `kernel_solution_series` return
rows.  Each residual check returns the sorted list of its nonzero
residual cells, `(t, u, v, c)` for the functional equation and
`(t, u, c)` for the two checks in t and u alone, so `[]` means that the
identity holds.  Every entry rejects a negative order, which would
check nothing and pass.

No check multiplies two series.  The functional-equation residual is
read off two consecutive rows of the counting table at a time, over
the live cells (last entry <= ascents) only when every cell past them
is 0, and over the full rows otherwise.  On
rows, multiplying by (1-t) is one first difference and dividing by it
one prefix sum.  Dividing by a kernel factor u - (u-1)(1-t)^k = p + u(1-p),
p = (1-t)^k, goes one u-row at a time: p (X_j - X_{j-1}) = Y_j - X_{j-1}.
`verify_S_identity` sums its k-terms in Horner form in P = (1-t)^m
before the common factor (u-1)^m, and `F_n_polynomial` builds its
t-only factors as lists and expands the (u-1)^{n-l} u^l part once.
`tests/reference.py` keeps a sparse series ring with products, powers
and inverses, and the product forms built on it; the tests require
equal coefficients.
"""

from __future__ import annotations

from itertools import accumulate, zip_longest
from math import comb
from operator import mul

from .errors import FishburnError

# ---------------------------------------------------------------------------
# Polynomial building blocks


def _check_orders(*orders: int) -> None:
    """A negative truncation order would leave nothing to check."""
    if min(orders) < 0:
        raise FishburnError(f"truncation orders must be >= 0, got {min(orders)}")


def _times_one_minus_t(row: list[int], k: int) -> list[int]:
    """row * (1-t)^k, truncated to len(row): k first differences."""
    for _ in range(k):
        row = [a - b for a, b in zip(row, [0, *row])]
    return row


def _times_level_factor(row: list[int], k: int) -> list[int]:
    """row * (1 - (1-t)^k), truncated to len(row)."""
    return [a - b for a, b in zip(row, _times_one_minus_t(row, k))]


def _add_times_u_minus_one(rows: list[list[int]], poly: list[int], k: int,
                           shift: int, scale: int = 1) -> None:
    """rows += scale (u-1)^k u^shift poly, dropping u-powers past the last row."""
    for j in range(min(k + 1, len(rows) - shift)):
        c = scale * (-comb(k, j) if (k - j) & 1 else comb(k, j))
        rows[shift + j] = [r + c * x for r, x in zip(rows[shift + j], poly)]


def _over_one_minus_t(row: list[int], k: int) -> list[int]:
    """row / (1-t)^k, truncated to len(row): k prefix sums."""
    for _ in range(k):
        row = list(accumulate(row))
    return row


def _divide_by_kernel_factor(rows: list[list[int]], k: int) -> list[list[int]]:
    """The u-rows of Y / (u - (u-1)(1-t)^k), Y given by its u-rows.

    The factor is p + u(1-p) with p = (1-t)^k, so the quotient X solves
    p X_j + (1-p) X_{j-1} = Y_j, that is p (X_j - X_{j-1}) = Y_j - X_{j-1}:
    each row costs one division by p, k prefix sums.  Rows are never
    modified in place, so an unchanged row may be shared.
    """
    out = []
    prev = [0] * len(rows[0])
    for row in rows:
        step = [y - x for y, x in zip(row, prev)]
        if any(step):
            prev = [x + d for x, d in zip(prev, _over_one_minus_t(step, k))]
        out.append(prev)
    return out


def _kernel_rows(t_order: int, u_order: int):
    """Yields the u-rows of u^(k-1) / prod_{i=1..k}(u - (u-1)(1-t)^i), k = 1..u_order+1."""
    zero = [0] * (t_order + 1)
    rows = [[1, *zero[1:]]] + [zero] * u_order
    for k in range(1, u_order + 2):
        rows = _divide_by_kernel_factor(rows, k)
        yield rows
        rows = [zero, *rows[:-1]]


# ---------------------------------------------------------------------------
# The product formula, in its Andrews-Jelinek form


def _horner_factor(k: int, width: int) -> list[int]:
    """The t^0..t^(width-1) coefficients of x^-1 (1 - x^-k)^2, x = 1-t: 1 - 2 C(d+k, k)
    + C(d+2k, 2k) at t^d, each binomial the one before times (d+k)/d, resp. (d+2k)/d."""
    tau, once, twice = [], 1, 1
    for d in range(1, width + 1):
        tau.append(1 - 2 * once + twice)
        once = once * (d + k) // d
        twice = twice * (d + 2 * k) // d
    return tau


def p_series(order: int) -> list[int]:
    """Counts p_0..p_order of each family, from the Andrews-Jelinek form.

    Horner form in x = 1-t: the sum is x^-1 K_1, where
    K_k = 1 + x^-1 (1 - x^-k)^2 K_{k+1} and K_{order//2+1} = 1.  Each
    (1 - x^-k)^2 is divisible by t^2, so K_k is needed only up to
    t^(order+2-2k).  With y = x^-k K_{k+1} and z = x^-k y, both k prefix
    sums, K_k is 1 plus one more prefix sum of K_{k+1} - 2y + z.

    That is 2k+1 passes over the w = order+3-2k coefficients.  When w < k,
    one lower-triangular Toeplitz product does the same in about w^2/2
    multiply-adds: x^-1 (1 - x^-k)^2 = (1-t)^-1 - 2(1-t)^-(k+1) +
    (1-t)^-(2k+1) has t^d coefficient tau_d = 1 - 2 C(d+k, k) +
    C(d+2k, 2k), and tau_0 = tau_1 = 0 (the t^2 divisibility), so
    K_k[m] = [m=0] + sum_{j<=m-2} tau_{m-j} K_{k+1}[j].  A multiply-add
    costs a few additions, so below w = k the product is the cheaper
    route and above it the passes are (measured at order 250).
    """
    if order < 0:
        raise FishburnError("order must be >= 0")
    h = [1]
    for k in range(order // 2, 0, -1):
        width = order + 3 - 2 * k
        if width < k:
            # h holds at most width - 2 coefficients, and tau[m:1:-1] pairs
            # tau_m..tau_2 with h[0..m-2]
            tau = _horner_factor(k, width)
            h = [sum(map(mul, h, tau[m:1:-1])) for m in range(width)]
        else:
            h += [0] * (width - len(h))
            y = _over_one_minus_t(h, k)
            z = _over_one_minus_t(y, k)
            h = list(accumulate(a - 2 * b + c for a, b, c in zip(h, y, z)))
        h[0] += 1
    return list(accumulate(h + [0] * (order + 1 - len(h))))


# ---------------------------------------------------------------------------
# The counting DP


def _count_rows(max_length: int):
    """Yields rows n = 1..max_length of the counting DP, each indexed [a][last].

    Short rows: row a ends at last = a + 1, a cell that is always 0, and
    the top row a = n - 1 at last = a.
    """
    if max_length < 1:
        return
    prev = [[1]]
    yield prev
    for n in range(2, max_length + 1):
        # Appending i <= a+1 to a sequence counted in row a (whose
        # last entry is <= a) keeps a ascents if i <= last and adds
        # one otherwise.  So cur[a][i] gets the row's suffix sum from
        # i and cur[a+1][i] its prefix sum below i; `carry` holds the
        # prefix sums of the row before.
        cur = []
        carry = [0]
        for a, row in enumerate(prev):
            sums = list(accumulate(row[:a + 1], initial=0))
            total = sums[-1]
            carry.append(0)
            cur.append([total - s + c for s, c in zip(sums, carry)])
            carry = sums
        cur.append(carry)
        yield cur
        prev = cur


def _ascent_counts(n: int) -> list[int]:
    """Counts of length-n ascent sequences with 0, 1, ... ascents.

    The same numbers as `CountTable(n).by_ascents(n)`, but only the row
    being built and the one before it are kept: O(n^2) stored counts.
    """
    if n < 0:
        raise FishburnError("n must be >= 0")
    if n == 0:
        return [1]
    for row in _count_rows(n):
        pass
    return [sum(cells) for cells in row]


class CountTable:
    """counts[n][a][l] = ascent sequences of length n with a ascents, last entry l."""

    def __init__(self, max_length: int):
        if max_length < 0:
            raise FishburnError("max_length must be >= 0")
        counts = [None, *_count_rows(max_length)]
        # the DP's rows are short; the table's are n cells long
        for n in range(1, max_length + 1):
            for row in counts[n]:
                row += [0] * (n - len(row))
        self.max_length = max_length
        self.counts = counts

    def _check_length(self, n: int) -> None:
        if not 0 <= n <= self.max_length:
            raise FishburnError(f"length {n} is outside 0..{self.max_length}")

    def count(self, n: int, a: int, last: int) -> int:
        self._check_length(n)
        if n == 0 or not (0 <= a < n and 0 <= last < n):
            return 0
        return self.counts[n][a][last]

    def total(self, n: int) -> int:
        self._check_length(n)
        if n == 0:
            return 1
        return sum(sum(row) for row in self.counts[n])

    def by_ascents(self, n: int) -> list[int]:
        """Counts of length-n sequences with 0, 1, ... ascents."""
        self._check_length(n)
        if n == 0:
            return [1]
        return [sum(row) for row in self.counts[n]]

    def u_rows(self, t_order: int, u_order: int) -> list[list[int]]:
        """F(t; u, 1) as u-rows: rows[a][n] counts length-n sequences with a ascents."""
        _check_orders(t_order, u_order)
        if t_order > self.max_length:
            raise FishburnError("table too short for requested order")
        rows = [[0] * (t_order + 1) for _ in range(u_order + 1)]
        for n in range(t_order + 1):
            for a, c in enumerate(self.by_ascents(n)[:u_order + 1]):
                rows[a][n] = c
        return rows


# ---------------------------------------------------------------------------
# Identity checks (each returns its nonzero residual cells; [] means zero)


def _residual(rows: list[list[int]], other: list[list[int]]) -> list[tuple[int, int, int]]:
    """The nonzero cells of rows - other as sorted (t, u, c); a missing row or coefficient is 0."""
    return sorted((t, u, a - b)
                  for u, pair in enumerate(zip_longest(rows, other, fillvalue=()))
                  for t, (a, b) in enumerate(zip_longest(*pair, fillvalue=0)) if a != b)


def verify_functional_equation(order: int,
                               table: CountTable | None = None) -> list[tuple[int, int, int, int]]:
    """Residual of (v-1-tv(1-u)) G = t(v-1) - t G(u,1) + t u v^2 G(uv,1).

    G = F - 1, so g[n][a][l] = `table.counts[n][a][l]` for n >= 1 and G
    has no t^0 term; write G1[n][a] = sum_l g[n][a][l].  Each coefficient
    of the residual is read off two rows of the table: at t^n u^a v^l,
    1 <= n <= order, it is

        g[n][a][l-1] - g[n][a][l] - g[n-1][a][l-1] + g[n-1][a-1][l-1]
        - [n=1, a=0]([l=1] - [l=0]) + [l=0] G1[n-1][a] - [l=a+1] G1[n-1][a-1],

    with out-of-range indices counting as 0.  Returns the nonzero
    coefficients as (n, a, l, c), sorted.
    """
    _check_orders(order)
    if table is None:
        table = CountTable(order)
    if order > table.max_length:
        raise FishburnError("table too short for requested order")
    residual = []
    prev: list[list[int]] = []
    prev_live: list[bool] = []
    for n in range(1, order + 1):
        cur = table.counts[n]
        live = [any(row[a + 1:]) for a, row in enumerate(cur)]  # read again at n + 1
        for a in range(max(len(cur), len(prev) + 1)):
            row = cur[a] if a < len(cur) else []
            same = prev[a] if a < len(prev) else []
            below = prev[a - 1] if 0 < a <= len(prev) else []
            if not (any(live[a:a + 1]) or any(prev_live[max(a - 1, 0):a + 1])):
                # every cell past the diagonal is 0, as the last entry is at
                # most the ascent count, so the residual past v^(a+1) is 0 too
                row, same, below = row[:a + 1], same[:a + 1], below[:a]
            # the three terms at v^(l-1), then the one at v^l
            up = [r - s + b for r, s, b in zip_longest(row, same, below, fillvalue=0)]
            cells = [x - r for x, r in zip_longest([0, *up], row, fillvalue=0)]
            cells += [0] * (a + 2 - len(cells))
            cells[0] += sum(same)
            cells[a + 1] -= sum(below)
            if n == 1 and a == 0:
                cells[0] += 1
                cells[1] -= 1
            if any(cells):
                residual += [(n, a, last, c) for last, c in enumerate(cells) if c]
        prev, prev_live = cur, live
    return residual


def F_n_polynomial(n: int, t_order: int | None = None) -> list[list[int]]:
    """The n-th polynomial summand of the t-convergent form of F(t;u,1), as u-rows.

    F_n = sum_{l=0..n} (u-1)^{n-l} u^l sum_{m=l..n} (-1)^{n-m} C(n,m)
          (1-t)^{m-l} prod_{i=m-l+1..m} (1 - (1-t)^i).

    Exact by default: n + 1 rows of n(n+3)/2 + 1 coefficients, the actual
    degree bounds, so nothing is cut.  With `t_order`, each row holds the
    coefficients of t^0..t^t_order, zero-padded past the degree: every
    step multiplies by a polynomial in t, so each can be truncated there.
    Divisible by t^n, and at u = 1 (the sum of the rows) it collapses to
    prod_{i=1..n}(1 - (1-t)^i), the summand of the product formula.
    """
    if n < 0:
        raise FishburnError("n must be >= 0")
    degree = n * (n + 3) // 2
    if t_order is None:
        t_order = degree
    _check_orders(t_order)
    width = min(t_order, degree) + 1
    # inner[ell] is the m-sum for ell.  With d = m - ell, the product over
    # i = d+1..d+ell grows by one factor from each ell to the next.
    inner = [[0] * width for _ in range(n + 1)]
    for d in range(n + 1):
        prod = _times_one_minus_t([1] + [0] * (width - 1), d)
        for ell in range(n - d + 1):
            if ell:
                prod = _times_level_factor(prod, d + ell)
            c = -comb(n, d + ell) if (n - d - ell) & 1 else comb(n, d + ell)
            inner[ell] = [a + c * b for a, b in zip(inner[ell], prod)]
    rows = [[0] * width for _ in range(n + 1)]
    for ell, poly in enumerate(inner):
        _add_times_u_minus_one(rows, poly, n - ell, ell)
    for row in rows:
        row += [0] * (t_order + 1 - width)
    return rows


def S_closed_form(m: int, t_order: int, u_order: int | None = None) -> list[list[int]]:
    """-sum_{j=0..m-1} (u-1)^j u^{m-1-j} (1-t)^j prod_{i=j+1..m-1}(1-(1-t)^i).

    The u-rows up to u^min(m-1, u_order), each up to t^t_order.  For
    m = 1 the sum is the single empty-product term, so the value is -1.
    """
    if m < 1:
        raise FishburnError("m must be >= 1")
    _check_orders(t_order, u_order or 0)
    top = m - 1 if u_order is None else min(m - 1, u_order)
    rows = [[0] * (t_order + 1) for _ in range(top + 1)]
    for j in range(m):
        poly = _times_one_minus_t([1] + [0] * t_order, j)
        for i in range(j + 1, m):
            poly = _times_level_factor(poly, i)
        _add_times_u_minus_one(rows, poly, j, m - 1 - j, -1)
    return rows


def kernel_terms(order: int) -> list[list[list[int]]]:
    """u^(k-1) / prod_{i=1..k}(u - (u-1)(1-t)^i) for k = 1..order+1.

    The m-independent part of each term of `verify_S_identity`: each
    term is order + 1 u-rows of order + 1 t-coefficients, with rows of
    its own (the division shares unchanged rows).
    """
    _check_orders(order)
    return [[row[:] for row in rows] for rows in _kernel_rows(order, order)]


def verify_S_identity(m: int, order: int,
                      terms: list[list[list[int]]] | None = None) -> list[tuple[int, int, int]]:
    """Residual of the polynomial identity behind the t-convergent form.

    The u-series sum_{k>=1} (u-1)^m u^{k-1} (1-t)^{mk} /
    prod_{i=1..k}(u - (u-1)(1-t)^i) equals `S_closed_form(m)`; terms with
    k > order+1 only touch u-powers above the truncation.  `terms` are
    the shared factors from `kernel_terms(order)`, built here if absent:
    order + 1 terms of order + 1 u-rows of order + 1 t-coefficients.
    They are read, never changed.  Term k has no u-power below k - 1, and
    a u-row that is all 0 is passed over; any nonzero cell is counted,
    wherever it sits.  Returns the nonzero residual coefficients as
    (t, u, c), sorted.
    """
    if m < 1:
        raise FishburnError("m must be >= 1")
    _check_orders(order)
    width = order + 1
    if terms is None:
        terms = kernel_terms(order)
    elif len(terms) != width or any(
            len(rows) != width or any(len(row) != width for row in rows) for rows in terms):
        raise FishburnError(f"need {width} kernel terms of {width} u-rows of {width} t-coefficients")
    # (u-1)^m is common to every term, and (1-t)^(mk) = P^k with
    # P = (1-t)^m: sum the k-terms in Horner form, as u-rows, first.
    # No row is changed in place, so the accumulator may share a row
    # with a term.
    acc = [[0] * width] * width
    for term in reversed(terms):
        acc = [[a + b for a, b in zip(_times_one_minus_t(row, m), own)] if any(row) else own
               for row, own in zip(acc, term)]
    lhs = [[0] * width for _ in range(width)]
    for du, row in enumerate(acc):
        if any(row):
            _add_times_u_minus_one(lhs, _times_one_minus_t(row, m), m, du)
    return _residual(lhs, S_closed_form(m, order, order))


def kernel_solution_series(u_order: int, t_order: int) -> list[list[int]]:
    """F(t;u,1) from the kernel-method solution, as u_order + 1 u-rows up to t^t_order.

    sum_{k>=1} (1-u) u^{k-1} (1-t)^k / ((u-(u-1)(1-t)^k)
    prod_{i=1..k}(u-(u-1)(1-t)^i)); the u^{k-1} factor means terms with
    k > u_order+1 contribute nothing below u^{u_order+1}.
    """
    _check_orders(u_order, t_order)
    nt, nu = t_order, u_order
    total = [[0] * (nt + 1) for _ in range(nu + 1)]
    for k, rows in enumerate(_kernel_rows(nt, nu), start=1):
        # With X = Y / K_k for Y = `rows` and K_k the k-th kernel factor,
        # (1-u)(1-t)^k X has u-rows Y_j - X_{j-1} (see _divide_by_kernel_factor)
        below = [0] * (nt + 1)
        for j, (row, x) in enumerate(zip(rows, _divide_by_kernel_factor(rows, k))):
            total[j] = [a + y - b for a, y, b in zip(total[j], row, below)]
            below = x
    return total


def verify_kernel_solution(u_order: int, t_order: int,
                           table: CountTable | None = None) -> list[tuple[int, int, int]]:
    """Residual between the kernel-method solution and the counting DP, as sorted (t, u, c)."""
    _check_orders(u_order, t_order)
    if table is None:
        table = CountTable(t_order)
    reference = table.u_rows(t_order, u_order)
    return _residual(kernel_solution_series(u_order, t_order), reference)


# ---------------------------------------------------------------------------
# Closed counts for the barred-pattern avoiders


def barred_avoiders_by_rlmin(n: int, k: int) -> int:
    """Avoiders of length n with exactly k right-to-left minima: C(C(k,2)+n-1, n-k)."""
    if n < 1 or not 1 <= k <= n:
        raise FishburnError("need n >= 1 and 1 <= k <= n")
    return comb(comb(k, 2) + n - 1, n - k)


def count_barred_avoiders(n: int) -> int:
    """Total avoiders of length n (the empty permutation counts for n = 0)."""
    if n < 0:
        raise FishburnError("n must be >= 0")
    if n == 0:
        return 1
    return sum(barred_avoiders_by_rlmin(n, k) for k in range(1, n + 1))
