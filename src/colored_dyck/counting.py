"""Counting colored Dyck words by two independent routes.

count_recurrence evaluates the convolution recurrence

    y_0 = 1,
    y_n = sum_l c_l * (aL+b)-fold convolution of y at index n-l,

while count_bell evaluates the closed form

    y_n = sum_k C(a*n + b*k, k-1) * (k-1)!/n! * B_{n,k}(1!c_1, 2!c_2, ...).

Both routes are polynomial in N: the recurrence builds convolution
powers by dynamic programming, and the closed form reads every B_{n,k}
from one partial Bell triangle built once up to N.

Each formula term is an exact integer quotient; a nonzero remainder
raises NonIntegerTerm and certifies a bug, since integrality is a
theorem.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

from .bell import binomial, exact_div, partial_bell_triangle, scaled_colors
from .model import ColorSequence, PathParams

__all__ = [
    "CountSeries",
    "PeakTable",
    "count_recurrence",
    "count_bell",
    "convolution_power_direct",
    "convolution_power_closed",
    "peak_table",
]


@dataclass(frozen=True)
class CountSeries:
    """Exact counts y_0..y_N for fixed parameters and coloring."""

    values: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        if not self.values or self.values[0] != 1:
            raise ValueError("a count series must start with y_0 = 1")
        if any(v < 0 for v in self.values):
            raise ValueError("counts are nonnegative")

    def __getitem__(self, n: int) -> int:
        return self.values[n]

    def __len__(self):
        return len(self.values)


@dataclass(frozen=True)
class PeakTable:
    """Refined counts by number of peaks: row[k-1] words with k peaks,
    k = 1..n."""

    n: int
    row: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "row", tuple(self.row))
        if len(self.row) != self.n:
            raise ValueError("peak table row must have length n")
        if any(v < 0 for v in self.row):
            raise ValueError("counts are nonnegative")

    def __getitem__(self, k: int) -> int:
        """Count of words with exactly k peaks (1-based)."""
        if not 1 <= k <= self.n:
            raise IndexError(f"peak count k must be in 1..{self.n}")
        return self.row[k - 1]

    def total(self) -> int:
        return sum(self.row)


def count_recurrence(params: PathParams, colors: ColorSequence, N: int) -> CountSeries:
    """Evaluate the convolution recurrence up to index N.

    Inner sums over weak compositions are r-fold convolution powers,
    built by dynamic programming (one pairwise convolution per power),
    never by enumerating compositions.
    """
    if N < 0:
        raise ValueError("need N >= 0")
    a, b = params.a, params.b
    y = [1]
    # rows[r] caches the r-fold convolution of y with itself at indices
    # filled in so far (rows[1] is y).  Entries only ever depend on y
    # values with smaller index, which are already final, and no row is
    # longer than the row below it.
    rows = [[], y]

    def conv_power(r, m):
        rows.extend([] for _ in range(len(rows), r + 1))
        if len(rows[r]) > m:
            return rows[r][m]
        s = r
        while len(rows[s - 1]) <= m:
            s -= 1
        for prev, row in zip(rows[s - 1 : r], rows[s : r + 1]):
            while len(row) <= m:
                i = len(row)
                row.append(sum(prev[t] * y[i - t] for t in range(i + 1)))
        return rows[r][m]

    for n in range(1, N + 1):
        total = 0
        for ell in range(1, n + 1):
            c = colors.at(ell)
            if c == 0:
                continue
            r = a * ell + b
            total += c * (1 if n == ell else conv_power(r, n - ell))
        y.append(total)
    return CountSeries(tuple(y))


def _bell_row(colors, n):
    """Row n of the Bell triangle at (1!c_1, 2!c_2, ..., n!c_n)."""
    return partial_bell_triangle(n, scaled_colors(colors, n))[n]


def _bell_terms(params, row, r=1):
    """The exact terms r * C(a*n + b*k + r - 1, k-1) * (k-1)!/n! * B_{n,k}
    for k = 1..n, with B_{n,k} = row[k] from row n of the Bell triangle."""
    a, b = params.a, params.b
    n = len(row) - 1
    n_fact = factorial(n)
    return [
        exact_div(
            r * binomial(a * n + b * k + r - 1, k - 1) * factorial(k - 1) * row[k],
            n_fact,
            f"Bell term n={n}, k={k}, r={r}",
        )
        for k in range(1, n + 1)
    ]


def count_bell(params: PathParams, colors: ColorSequence, N: int) -> CountSeries:
    """Evaluate the partial-Bell-polynomial closed form up to index N."""
    if N < 0:
        raise ValueError("need N >= 0")
    values = [1]
    if N:
        rows = partial_bell_triangle(N, scaled_colors(colors, N))
        values += (sum(_bell_terms(params, row)) for row in rows[1:])
    return CountSeries(tuple(values))


def convolution_power_direct(series: CountSeries, r: int, n: int) -> int:
    """The r-fold self-convolution of the series at index n, by
    iterated pairwise convolution."""
    if r < 1:
        raise ValueError("need r >= 1")
    z = series.values[: n + 1]
    if len(z) < n + 1:
        raise ValueError(f"series must be defined through index {n}")
    acc = z
    for _ in range(r - 1):
        acc = tuple(
            sum(acc[t] * z[m - t] for t in range(m + 1)) for m in range(n + 1)
        )
    return acc[n]


def convolution_power_closed(
    params: PathParams, colors: ColorSequence, r: int, n: int
) -> int:
    """Closed form for the r-fold convolution power at index n >= 1:
    r * sum_k C(a*n + b*k + r - 1, k-1) * (k-1)!/n! * B_{n,k}(1!c_1, ...)."""
    if r < 1 or n < 1:
        raise ValueError("need r >= 1 and n >= 1")
    return sum(_bell_terms(params, _bell_row(colors, n), r))


def peak_table(params: PathParams, colors: ColorSequence, n: int) -> PeakTable:
    """Counts of words of index n refined by their number of peaks."""
    if n < 1:
        raise ValueError("need n >= 1")
    return PeakTable(n, _bell_terms(params, _bell_row(colors, n)))
