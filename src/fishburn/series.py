"""Exact enumeration: counting tables, generating series, closed formulas.

Everything here is integer arithmetic.  The central objects are

* `p_series(N)`: the family counts p_0..p_N from the product formula
  sum_n prod_{i=1..n} (1 - (1-t)^i); the n-th summand is divisible by
  t^n, so each coefficient is a finite sum.  It is evaluated in Horner
  form, innermost factor first, in O(N^3) big-integer products;
* `CountTable`: the dynamic program counting ascent sequences by length,
  number of ascents and last entry (appending i <= last keeps the ascent
  count, appending last < i <= asc+1 raises it by one); each row feeds
  the next through one prefix-sum pass, so N rows take O(N^3) time;
* residual checks for the recurrence written as a functional equation in
  two catalytic variables, for its kernel-method solution as a u-series
  with rational t-coefficients, and for the polynomial identity that
  converts that solution into a t-convergent form.

`TruncatedSeries` stores such series sparsely by exponent triple
(t, u, v), truncated in t and optionally in u; inversion (needed to
expand the rational coefficients of the kernel solution) works in the
(t, u)-truncated ring and requires the constant term to be a unit.
"""

from __future__ import annotations

from itertools import accumulate
from math import comb
from operator import mul

_KEY = tuple[int, int, int]


class TruncatedSeries:
    """Sparse exact series in t, u, v; truncated at t_order (and u_order if set)."""

    __slots__ = ("t_order", "u_order", "coeffs")

    def __init__(self, t_order: int, coeffs: dict[_KEY, int] | None = None,
                 u_order: int | None = None):
        self.t_order = int(t_order)
        self.u_order = u_order
        data: dict[_KEY, int] = {}
        if coeffs:
            for (dt, du, dv), c in coeffs.items():
                if c == 0 or dt > self.t_order:
                    continue
                if u_order is not None and du > u_order:
                    continue
                key = (dt, du, dv)
                data[key] = data.get(key, 0) + c
                if data[key] == 0:
                    del data[key]
        self.coeffs = data

    # -- construction helpers

    @classmethod
    def zero(cls, t_order: int, u_order: int | None = None) -> TruncatedSeries:
        return cls(t_order, {}, u_order)

    @classmethod
    def one(cls, t_order: int, u_order: int | None = None) -> TruncatedSeries:
        return cls(t_order, {(0, 0, 0): 1}, u_order)

    @classmethod
    def monomial(cls, c: int, dt: int = 0, du: int = 0, dv: int = 0, *,
                 t_order: int, u_order: int | None = None) -> TruncatedSeries:
        return cls(t_order, {(dt, du, dv): c}, u_order)

    def _like(self, coeffs: dict[_KEY, int]) -> TruncatedSeries:
        return TruncatedSeries(self.t_order, coeffs, self.u_order)

    def _check_compatible(self, other: TruncatedSeries) -> None:
        if self.t_order != other.t_order or self.u_order != other.u_order:
            raise ValueError("mixed truncation orders")

    # -- ring operations

    def __add__(self, other):
        if isinstance(other, int):
            other = TruncatedSeries.monomial(other, t_order=self.t_order,
                                             u_order=self.u_order)
        self._check_compatible(other)
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            out[key] = out.get(key, 0) + c
        return self._like(out)

    __radd__ = __add__

    def __neg__(self):
        return self._like({k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = TruncatedSeries.monomial(other, t_order=self.t_order,
                                             u_order=self.u_order)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return self._like({k: other * c for k, c in self.coeffs.items()})
        self._check_compatible(other)
        out: dict[_KEY, int] = {}
        for (t1, u1, v1), c1 in self.coeffs.items():
            for (t2, u2, v2), c2 in other.coeffs.items():
                dt = t1 + t2
                if dt > self.t_order:
                    continue
                du = u1 + u2
                if self.u_order is not None and du > self.u_order:
                    continue
                key = (dt, du, v1 + v2)
                out[key] = out.get(key, 0) + c1 * c2
        return self._like(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        result = TruncatedSeries.one(self.t_order, self.u_order)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other):
        return (isinstance(other, TruncatedSeries)
                and self.t_order == other.t_order
                and self.u_order == other.u_order
                and self.coeffs == other.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    # -- substitutions and views

    def subs_v_one(self) -> TruncatedSeries:
        out: dict[_KEY, int] = {}
        for (dt, du, _dv), c in self.coeffs.items():
            key = (dt, du, 0)
            out[key] = out.get(key, 0) + c
        return self._like(out)

    def u_to_uv(self) -> TruncatedSeries:
        """Substitute u -> uv (each u also contributes a v)."""
        return self._like({(dt, du, dv + du): c
                           for (dt, du, dv), c in self.coeffs.items()})

    def truncate_t(self, t_order: int) -> TruncatedSeries:
        return TruncatedSeries(t_order, self.coeffs, self.u_order)

    def with_u_order(self, u_order: int | None) -> TruncatedSeries:
        return TruncatedSeries(self.t_order, self.coeffs, u_order)

    def coefficient(self, dt: int, du: int, dv: int = 0) -> int:
        return self.coeffs.get((dt, du, dv), 0)

    def divisible_by_t(self, k: int) -> bool:
        return all(dt >= k for (dt, _, _) in self.coeffs)

    def invert(self) -> TruncatedSeries:
        """Multiplicative inverse in the (t, u)-truncated ring.

        Requires a u truncation, no v terms, and constant term +-1 (all
        coefficients stay integral).  Computed as a u-series whose
        t-series coefficients are solved for degree by degree.
        """
        if self.u_order is None:
            raise ValueError("inversion needs a u truncation order")
        if any(dv for (_, _, dv) in self.coeffs):
            raise ValueError("inversion is only supported without v terms")
        nt, nu = self.t_order, self.u_order
        f = [[0] * (nt + 1) for _ in range(nu + 1)]
        for (dt, du, _dv), c in self.coeffs.items():
            f[du][dt] = c
        g0 = _t_inverse(f[0], nt)
        g = [g0]
        for j in range(1, nu + 1):
            acc = [0] * (nt + 1)
            for r in range(1, j + 1):
                _t_mul_into(acc, f[r], g[j - r], nt)
            g.append(_t_mul([-a for a in acc], g0, nt))
        coeffs = {(dt, du, 0): g[du][dt]
                  for du in range(nu + 1) for dt in range(nt + 1) if g[du][dt]}
        return TruncatedSeries(nt, coeffs, nu)

    def __repr__(self):
        terms = ", ".join(f"{k}: {c}" for k, c in sorted(self.coeffs.items()))
        return f"TruncatedSeries(t<= {self.t_order}, u<= {self.u_order}, {{{terms}}})"


def _t_mul(a: list[int], b: list[int], order: int) -> list[int]:
    out = [0] * (order + 1)
    _t_mul_into(out, a, b, order)
    return out


def _t_mul_into(out: list[int], a: list[int], b: list[int], order: int) -> None:
    for i, ai in enumerate(a):
        if ai == 0 or i > order:
            continue
        for j in range(min(len(b), order - i + 1)):
            if b[j]:
                out[i + j] += ai * b[j]


def _t_inverse(a: list[int], order: int) -> list[int]:
    c0 = a[0]
    if c0 not in (1, -1):
        raise ValueError("constant term must be a unit for integral inversion")
    out = [0] * (order + 1)
    out[0] = c0
    for k in range(1, order + 1):
        s = sum(a[i] * out[k - i] for i in range(1, min(k, len(a) - 1) + 1))
        out[k] = -c0 * s
    return out


# ---------------------------------------------------------------------------
# Polynomial building blocks


def one_minus_t_pow(k: int, t_order: int, u_order: int | None = None) -> TruncatedSeries:
    """(1-t)^k, exactly (binomials), truncated."""
    coeffs = {(i, 0, 0): (-1) ** i * comb(k, i) for i in range(min(k, t_order) + 1)}
    return TruncatedSeries(t_order, coeffs, u_order)


def level_coefficients(k: int, width: int) -> list[int]:
    """(1 - (1-t)^k) / t, exactly, truncated to its first `width` coefficients."""
    return [comb(k, j) if j & 1 else -comb(k, j) for j in range(1, min(k, width) + 1)]


def _times_level(k: int, poly: list[int], width: int) -> list[int]:
    """The first `width` coefficients of poly * (1 - (1-t)^k) / t.

    `poly` must hold at least `width` coefficients.
    """
    g = level_coefficients(k, width)
    return [sum(map(mul, g, poly[j::-1])) for j in range(width)]


def level_factor(i: int, t_order: int, u_order: int | None = None) -> TruncatedSeries:
    """1 - (1-t)^i."""
    coeffs = {(j, 0, 0): c for j, c in enumerate(level_coefficients(i, t_order), start=1)}
    return TruncatedSeries(t_order, coeffs, u_order)


def u_minus_one_pow(k: int, t_order: int, u_order: int | None = None) -> TruncatedSeries:
    coeffs = {(0, j, 0): (-1) ** (k - j) * comb(k, j) for j in range(k + 1)}
    return TruncatedSeries(t_order, coeffs, u_order)


def _kernel_factor(i: int, t_order: int, u_order: int) -> TruncatedSeries:
    """u - (u-1)(1-t)^i  =  (1-t)^i + u(1 - (1-t)^i); unit constant term."""
    p = one_minus_t_pow(i, t_order, u_order)
    q = level_factor(i, t_order, u_order)
    u = TruncatedSeries.monomial(1, du=1, t_order=t_order, u_order=u_order)
    return p + u * q


# ---------------------------------------------------------------------------
# The product formula


def p_series(order: int) -> list[int]:
    """Counts p_0..p_order of each family, from the product formula.

    Horner form: with f_k = 1 - (1-t)^k, the sum is H_1 where
    H_k = 1 + f_k H_{k+1} and H_{order+1} = 1.  Each f_k is divisible by
    t, so H_k is needed only up to t^(order-k+1).
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    h = [1]
    for k in range(order, 0, -1):
        h = [1, *_times_level(k, h, order - k + 1)]
    return h


# ---------------------------------------------------------------------------
# The counting DP


class CountTable:
    """counts[n][a][l] = ascent sequences of length n with a ascents, last entry l."""

    def __init__(self, max_length: int, counts=None):
        if max_length < 0:
            raise ValueError("max_length must be >= 0")
        self.max_length = max_length
        if counts is not None:
            self.counts = counts
            return
        table = [None] * (max_length + 1)
        if max_length >= 1:
            table[1] = [[1]]
        for n in range(2, max_length + 1):
            # Appending i <= a+1 to a sequence counted in row a (whose
            # last entry is <= a) keeps a ascents if i <= last and adds
            # one otherwise.  So cur[a][i] gets the row's suffix sum from
            # i and cur[a+1][i] its prefix sum below i; `carry` holds the
            # prefix sums of the row before.
            cur = []
            carry = [0]
            for a, row in enumerate(table[n - 1]):
                sums = list(accumulate(row[:a + 1], initial=0))
                total = sums[-1]
                carry.append(0)
                cur.append([total - s + c for s, c in zip(sums, carry)] + [0] * (n - a - 2))
                carry = sums
            cur.append(carry)
            table[n] = cur
        self.counts = table

    def count(self, n: int, a: int, last: int) -> int:
        if n == 0 or a >= n or last >= n:
            return 0
        return self.counts[n][a][last]

    def total(self, n: int) -> int:
        if n == 0:
            return 1
        return sum(sum(row) for row in self.counts[n])

    def by_ascents(self, n: int) -> list[int]:
        """Counts of length-n sequences with 0, 1, ... ascents."""
        if n == 0:
            return [1]
        return [sum(row) for row in self.counts[n]]

    def series(self, t_order: int | None = None,
               u_order: int | None = None) -> TruncatedSeries:
        """F(t; u, v) = sum t^len u^ascents v^last, including the empty sequence."""
        if t_order is None:
            t_order = self.max_length
        if t_order > self.max_length:
            raise ValueError("table too short for requested order")
        coeffs: dict[_KEY, int] = {(0, 0, 0): 1}
        for n in range(1, t_order + 1):
            for a, row in enumerate(self.counts[n]):
                for last, c in enumerate(row):
                    if c:
                        coeffs[(n, a, last)] = c
        return TruncatedSeries(t_order, coeffs, u_order)

    def series_u(self, t_order: int | None = None,
                 u_order: int | None = None) -> TruncatedSeries:
        """F(t; u, 1): length and ascent count only."""
        return self.series(t_order).subs_v_one().with_u_order(u_order)


def count_table(max_length: int) -> CountTable:
    return CountTable(max_length)


# ---------------------------------------------------------------------------
# Identity checks (each returns a residual series that must be zero)


def verify_functional_equation(order: int, table: CountTable | None = None) -> TruncatedSeries:
    """Residual of (v-1-tv(1-u)) G = t(v-1) - t G(u,1) + t u v^2 G(uv,1)."""
    if table is None:
        table = CountTable(order)
    G = table.series(order) - TruncatedSeries.one(order)
    mono = lambda c, dt=0, du=0, dv=0: TruncatedSeries.monomial(c, dt, du, dv, t_order=order)
    kernel = mono(1, dv=1) - mono(1) - mono(1, dt=1, dv=1) + mono(1, dt=1, du=1, dv=1)
    lhs = kernel * G
    g_u1 = G.subs_v_one()
    g_uv1 = g_u1.u_to_uv()
    rhs = (mono(1, dt=1, dv=1) - mono(1, dt=1)
           - mono(1, dt=1) * g_u1
           + mono(1, dt=1, du=1, dv=2) * g_uv1)
    return lhs - rhs


def F_n_polynomial(n: int) -> TruncatedSeries:
    """The n-th polynomial summand of the t-convergent form of F(t;u,1).

    F_n = sum_{l=0..n} (u-1)^{n-l} u^l sum_{m=l..n} (-1)^{n-m} C(n,m)
          (1-t)^{m-l} prod_{i=m-l+1..m} (1 - (1-t)^i).

    Exact: the t truncation order is the actual degree bound n(n+3)/2,
    so nothing is cut.  Divisible by t^n, and at u = 1 it collapses to
    prod_{i=1..n}(1 - (1-t)^i), the summand of the product formula.
    """
    t_order = n * (n + 3) // 2
    total = TruncatedSeries.zero(t_order)
    for ell in range(n + 1):
        inner = TruncatedSeries.zero(t_order)
        for m in range(ell, n + 1):
            term = one_minus_t_pow(m - ell, t_order) * ((-1) ** (n - m) * comb(n, m))
            for i in range(m - ell + 1, m + 1):
                term = term * level_factor(i, t_order)
            inner = inner + term
        head = u_minus_one_pow(n - ell, t_order) * TruncatedSeries.monomial(
            1, du=ell, t_order=t_order)
        total = total + head * inner
    return total


def S_closed_form(m: int, t_order: int, u_order: int | None = None) -> TruncatedSeries:
    """-sum_{j=0..m-1} (u-1)^j u^{m-1-j} (1-t)^j prod_{i=j+1..m-1}(1-(1-t)^i).

    For m = 1 the sum is the single empty-product term, so the value is -1.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    out = TruncatedSeries.zero(t_order, u_order)
    for j in range(m):
        term = (u_minus_one_pow(j, t_order, u_order)
                * TruncatedSeries.monomial(1, du=m - 1 - j, t_order=t_order,
                                           u_order=u_order)
                * one_minus_t_pow(j, t_order, u_order))
        for i in range(j + 1, m):
            term = term * level_factor(i, t_order, u_order)
        out = out - term
    return out


def kernel_terms(order: int) -> list[TruncatedSeries]:
    """u^(k-1) / prod_{i=1..k}(u - (u-1)(1-t)^i) for k = 1..order+1.

    The m-independent part of each term of `verify_S_identity`, with t
    and u both truncated at `order`.
    """
    nt = nu = order
    terms = []
    term = TruncatedSeries.one(nt, nu)
    u = TruncatedSeries.monomial(1, du=1, t_order=nt, u_order=nu)
    for k in range(1, nu + 2):
        term = term * _kernel_factor(k, nt, nu).invert()
        terms.append(term)
        term = term * u
    return terms


def verify_S_identity(m: int, order: int,
                      terms: list[TruncatedSeries] | None = None) -> TruncatedSeries:
    """Residual of the polynomial identity behind the t-convergent form.

    The u-series sum_{k>=1} (u-1)^m u^{k-1} (1-t)^{mk} /
    prod_{i=1..k}(u - (u-1)(1-t)^i) equals `S_closed_form(m)`; terms with
    k > order+1 only touch u-powers above the truncation.  `terms` are
    the shared factors from `kernel_terms(order)`, built here if absent.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    nt = nu = order
    if terms is None:
        terms = kernel_terms(order)
    elif len(terms) != order + 1:
        raise ValueError(f"need {order + 1} kernel terms, got {len(terms)}")
    lhs = TruncatedSeries.zero(nt, nu)
    head = u_minus_one_pow(m, nt, nu)
    for k, term in enumerate(terms, start=1):
        lhs = lhs + head * one_minus_t_pow(m * k, nt, nu) * term
    return lhs - S_closed_form(m, nt, nu)


def kernel_solution_series(u_order: int, t_order: int) -> TruncatedSeries:
    """F(t;u,1) from the kernel-method solution, expanded as a u-series.

    sum_{k>=1} (1-u) u^{k-1} (1-t)^k / ((u-(u-1)(1-t)^k)
    prod_{i=1..k}(u-(u-1)(1-t)^i)); the u^{k-1} factor means terms with
    k > u_order+1 contribute nothing below u^{u_order+1}.
    """
    nt, nu = t_order, u_order
    one_minus_u = TruncatedSeries(nt, {(0, 0, 0): 1, (0, 1, 0): -1}, nu)
    total = TruncatedSeries.zero(nt, nu)
    running_inv = TruncatedSeries.one(nt, nu)
    u_pow = TruncatedSeries.one(nt, nu)
    for k in range(1, nu + 2):
        factor_inv = _kernel_factor(k, nt, nu).invert()
        running_inv = running_inv * factor_inv
        total = total + (one_minus_u * u_pow * one_minus_t_pow(k, nt, nu)
                         * factor_inv * running_inv)
        u_pow = u_pow * TruncatedSeries.monomial(1, du=1, t_order=nt, u_order=nu)
    return total


def verify_kernel_solution(u_order: int, t_order: int,
                           table: CountTable | None = None) -> TruncatedSeries:
    """Residual between the kernel-method solution and the counting DP."""
    if table is None:
        table = CountTable(t_order)
    closed = kernel_solution_series(u_order, t_order)
    reference = table.series_u(t_order, u_order)
    return closed - reference


# ---------------------------------------------------------------------------
# Closed counts for the barred-pattern avoiders


def barred_avoiders_by_rlmin(n: int, k: int) -> int:
    """Avoiders of length n with exactly k right-to-left minima: C(C(k,2)+n-1, n-k)."""
    if n < 1 or not 1 <= k <= n:
        raise ValueError("need n >= 1 and 1 <= k <= n")
    return comb(comb(k, 2) + n - 1, n - k)


def count_barred_avoiders(n: int) -> int:
    """Total avoiders of length n (the empty permutation counts for n = 0)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return 1
    return sum(barred_avoiders_by_rlmin(n, k) for k in range(1, n + 1))
