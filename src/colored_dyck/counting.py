"""Counting colored Dyck words by two independent routes.

count_recurrence evaluates the convolution recurrence

    y_0 = 1,
    y_n = sum_l c_l * [x^(n-l)] y(x)^(a*l+b),

while count_bell evaluates the paper's closed form

    y_n = sum_k C(a*n + b*k, k-1) * (k-1)!/n! * B_{n,k}(1!c_1, 2!c_2, ...).

By Comtet's identity B_{n,k}(1!c_1, 2!c_2, ...) = n!/k! * P_{k,n}, with
P_{k,n} = [t^n] C(t)^k and C(t) = sum_j c_j t^j (Advanced
Combinatorics, 1974, section 3.3), each term is

    C(a*n + b*k, k-1) * P_{k,n} / k,

and count_bell reads the rows of that power triangle from
bell.power_rows, which builds each row from the ones below it by C's
own equation (ColorSequence.geometric describes C; bell gives the
rules) in O(N^2) products for every built-in coloring, with no
factorial and no binomial weight in any cell.  count_bell adds each
row's terms into the counts as the row arrives, so it holds two rows
at a time, never the triangle.  The route makes one math.comb and one
checked division for each of its N(N+1)/2 terms; peak_table and
convolution_power_closed read one cell P_{k,n} of each row.

Both routes are polynomial in N.  Summed over l, the recurrence is the
functional equation

    y = 1 + y^b * C(x * y^a),

and count_recurrence folds the colors past a short prefix through C's
own equation (ColorSequence.geometric describes C).  Where
c_l = T * r^(l-L-1) for l > L, the tail S = sum_(l>L) c_l x^l y^(a*l+b)
satisfies

    S = T * x^(L+1) * y^(a*(L+1)+b) + r * x * y^a * S;

for catpair, C(t) = (1+t) * K(t) - 1 with K = 1 + t * K^2, so the
Catalan series K(x * y^a) satisfies

    K = 1 + x * y^a * K^2.

Besides S or K, the recurrence keeps every power of y it reads in one
table keyed by exponent: y^1 .. y^max(a,b) from y, and the chain rows
y^(a*l+b) = y^b * (y^a)^l for l <= L+1, each from the one below it, at
most max(a, b) + L + 1 rows, each by pairwise convolution.  The
closed form raises the coloring series C to powers and never reads y.
Neither route reads the other's tables.

Each formula term is an exact integer quotient; a nonzero remainder
raises NonIntegerTerm and certifies a bug, since integrality is a
theorem.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from operator import mul

from .bell import exact_div, power_rows
from .model import ColorSequence, PathParams

__all__ = [
    "CountSeries",
    "PeakTable",
    "count_recurrence",
    "count_bell",
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


def _conv_at(u, v, i: int) -> int:
    """Index i of the convolution of u and v: sum_t u[t] * v[i-t].

    The one convolution kernel of this module; both sequences must be
    defined through index i.
    """
    return sum(map(mul, u[: i + 1], v[i::-1]))


def count_recurrence(params: PathParams, colors: ColorSequence, N: int) -> CountSeries:
    """Evaluate the convolution recurrence up to index N.

    Summed over l, the recurrence is y = 1 + y^b * C(x * y^a), with
    C(t) = sum_l c_l t^l, and it is evaluated from the description of
    C (ColorSequence.geometric):

    - c_l = T * r^(l-L-1) for l > L, with T != 0 and L < N: the chain
      rows y^(a*l+b) for l <= L+1 and one tail series
      S = sum_(l>L) c_l x^l y^(a*l+b), which satisfies
      S = T * x^(L+1) * y^(a*(L+1)+b) + r * x * y^a * S;
    - no color past c_L (T = 0), or none reached below index N+1: the
      chain rows up to the last nonzero c_l <= N, and no S;
    - catpair, C(t) = (1+t) * K(t) - 1 with K = 1 + t * K^2 the Catalan
      series: K(x * y^a) and its square.

    Every power of y that is read is one row of a table keyed by its
    exponent: the ladder y^1 .. y^max(a,b), each the one below times
    y, and the chain rows y^(a*l+b), each the row a exponents below
    times y^a.  So at most max(a, b) + L + 1 rows are built, plus S or
    the catpair rows, and every row is extended online, one entry per
    new term of y: O(N^2) products for every coloring with a short
    prefix.  Inner sums over weak compositions are never enumerated.
    """
    if N < 0:
        raise ValueError("need N >= 0")
    a, b = params.a, params.b
    form = colors.geometric()
    chain = ()  # the l of every chain row
    if form is not None:
        cs, tail, ratio = form
        if not tail or len(cs) >= N:  # no tail term below index N+1
            last = max((ell for ell, c in enumerate(cs[:N], 1) if c), default=0)
            cs, tail = cs[:last], 0
        chain = range(1, len(cs) + (2 if tail else 1))
    y = [1]
    # rows[e] = y^e.  A row that is both a ladder power and a chain
    # row is one entry.  Each step (lag, row, left, right) fills
    # row = left * right through index n - lag before y_n is formed:
    # n-1 for the ladder, n-l for chain row l, the last index read.
    # The lags ascend.
    rows = {1: y}
    steps = []
    top = max(a, b) if form is None or chain else 1  # no color: y alone
    for e in range(2, top + 1):
        rows[e] = [1]
        steps.append((1, rows[e], rows[e - 1], y))
    for ell in chain:
        e = a * ell + b
        if e not in rows:
            rows[e] = [1]
            steps.append((ell, rows[e], rows[e - a], rows[a]))
    if form is None:
        term = _catpair_terms(a, b, rows)
    else:
        term = _chain_terms(a, b, rows, cs, tail, ratio)
    for n in range(1, N + 1):
        for lag, row, left, right in steps:
            if lag >= n:
                break
            row.append(_conv_at(left, right, n - lag))
        y.append(term(n))
    return CountSeries(tuple(y))


def _chain_terms(a, b, rows, cs, tail, ratio):
    """y_n = sum_(l<=L) c_l * [x^(n-l)] y^(a*l+b) + S_n as a function of
    n, with cs = (c_1..c_L) and rows[e] = y^e, where S_n = 0 when
    tail = 0 and otherwise

        S_n = T * [x^(n-L-1)] y^(a*(L+1)+b) + r * sum_(i<n) (y^a)_i * S_(n-1-i),

    the sum reading S_(n-1) alone at a = 0, where y^a is the unit
    series."""
    L = len(cs)
    S = [0] * (L + 1)  # S_n = 0 for n <= L

    def term(n):
        value = sum(cs[ell - 1] * rows[a * ell + b][n - ell] for ell in range(1, min(L, n) + 1))
        if tail and n > L:
            folded = _conv_at(rows[a], S, n - 1) if a else S[n - 1]
            S.append(tail * rows[a * (L + 1) + b][n - L - 1] + ratio * folded)
            value += S[n]
        return value

    return term


def _catpair_terms(a, b, rows):
    """y_n for c_l = C_(l-1) + C_l as a function of n, with
    rows[e] = y^e.  With Z = y^a and K the Catalan series K(x * Z),
    K = 1 + x * Z * K^2 and y = 1 + y^b * W with W = (1 + x * Z) * K - 1,
    so

        K_n = (Z * K^2)_(n-1),  W_n = (Z * K)_(n-1) + K_n,
        y_n = sum_(i<n) (y^b)_i * W_(n-i),

    Z * u reading u alone at a = 0 and y^b * W reading W_n alone at
    b = 0, where either power is the unit series."""
    K, K2 = [1], []
    W = []  # W[i] = W_(i+1); W_0 = 0

    def times_z(u, i):
        return _conv_at(rows[a], u, i) if a else u[i]

    def term(n):
        K2.append(_conv_at(K, K, n - 1))
        K.append(times_z(K2, n - 1))
        W.append(times_z(K, n - 1) + K[n])
        return _conv_at(rows[b], W, n - 1) if b else W[n - 1]

    return term


def _bell_terms(params, colors, n, r=1):
    """The exact terms r * C(a*n + b*k + r - 1, k-1) * P_{k,n} / k for
    k = 1..n, reading the one cell P_{k,n} at the end of each row of
    power_rows(n).  The binomial needs no range check: its top is at
    least k-1 >= 0.  Each term is divided in place; on a remainder
    exact_div raises NonIntegerTerm, naming n, r and both operands."""
    a, b = params.a, params.b
    terms = []
    for k, row in enumerate(power_rows(n, colors.geometric()), 1):
        num = r * comb(a * n + b * k + r - 1, k - 1) * row[-1]
        q, rem = divmod(num, k)
        if rem:
            exact_div(num, k, f"Bell term n={n}, r={r}")
        terms.append(q)
    return terms


def count_bell(params: PathParams, colors: ColorSequence, N: int) -> CountSeries:
    """Evaluate the partial-Bell-polynomial closed form up to index N.

    The terms C(a*n + b*k, k-1) * P_{k,n} / k of each row k of the
    power triangle are added into y_k .. y_N as the row arrives, each
    divided in place as in _bell_terms.  The loop is written out
    here, not shared with _bell_terms: at the small N of most counts
    a call per row or per term costs more than the term."""
    if N < 0:
        raise ValueError("need N >= 0")
    a, b = params.a, params.b
    values = [1] + [0] * N
    for k, row in enumerate(power_rows(N, colors.geometric()), 1):
        top = (a + b) * k  # a*n + b*k at n = k
        for n, cell in enumerate(row, k):
            num = comb(top, k - 1) * cell
            q, rem = divmod(num, k)
            if rem:
                exact_div(num, k, f"Bell term n={n}, r=1")
            values[n] += q
            top += a
    return CountSeries(tuple(values))


def convolution_power_closed(
    params: PathParams, colors: ColorSequence, r: int, n: int
) -> int:
    """Closed form for the r-fold convolution power at index n >= 1:
    r * sum_k C(a*n + b*k + r - 1, k-1) * (k-1)!/n! * B_{n,k}(1!c_1, ...),
    summed as r * sum_k C(a*n + b*k + r - 1, k-1) * P_{k,n} / k."""
    if r < 1 or n < 1:
        raise ValueError("need r >= 1 and n >= 1")
    return sum(_bell_terms(params, colors, n, r))


def peak_table(params: PathParams, colors: ColorSequence, n: int) -> PeakTable:
    """Counts of words of index n refined by their number of peaks."""
    if n < 1:
        raise ValueError("need n >= 1")
    return PeakTable(n, _bell_terms(params, colors, n))
