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

and count_bell reads every P_{k,n} from one power triangle built once
up to N, by C's own equation (ColorSequence.geometric describes C):
for c_l = T * r^(l-L-1) past a prefix c_1..c_L, C = p / (1 - r t) with

    p(t) = (1 - r t) * sum_(l<=L) c_l t^l + T t^(L+1),

so P_k * (1 - r t) = P_(k-1) * p (bell.geometric_power_triangle; a
tail-0 prefix is p = c with r = 0); for catpair,
C = t * (2 + t + C + C^2), so

    P_{k+1,n} = P_{k,n+1} - P_{k,n} - 2 P_{k-1,n} - P_{k-1,n-1}

(bell.catpair_power_triangle).  Either way the triangle costs O(N^2)
products per nonzero p_i, so O(N^2) for every built-in coloring, with
no factorial and no binomial weight in any cell.  The route then makes
one math.comb and one checked division for each of its N(N+1)/2 terms.

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

Besides S or K, the recurrence builds y^1 .. y^max(a,b) from y and the
chain rows y^(a*l+b) = y^b * (y^a)^l for l <= L+1, each from the one
below it: max(a, b) + L + 1 rows, each by pairwise convolution.  The
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

from .bell import catpair_power_triangle, exact_div, geometric_power_triangle
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

    The chain rows are built along y^b * (y^a)^l: first y^1 .. y^max(a,b)
    from y, then chain row l as row l-1 convolved with y^a (row 0 is
    y^b, or the unit series 1 when b = 0).  So max(a, b) + L + 1 rows
    are built, plus S or the catpair rows, and every row is extended
    online, one entry per new term of y: O(N^2) products for every
    coloring with a short prefix.  Inner sums over weak compositions
    are never enumerated.
    """
    if N < 0:
        raise ValueError("need N >= 0")
    a, b = params.a, params.b
    form = colors.geometric()
    if form is not None:
        cs, tail, ratio = form
        if not tail or len(cs) >= N:  # no tail term below index N+1
            last = max((ell for ell, c in enumerate(cs[:N], 1) if c), default=0)
            cs, tail = cs[:last], 0
    y = [1]
    # powers[k] = y^k for 1 <= k <= max(a, b), none past y when every
    # c_l is zero; each is filled through index n-1 before y_n is
    # formed.  powers[0] is None: the unit series y^0 is never stored.
    used = form is None or cs or tail
    powers = [None, y] + [[] for _ in range(2, max(a, b) + 1 if used else 2)]
    if form is None:
        term = _catpair_terms(a, b, powers)
    else:
        term = _chain_terms(a, b, powers, cs, tail, ratio)
    for n in range(1, N + 1):
        for k in range(2, len(powers)):
            powers[k].append(_conv_at(powers[k - 1], y, n - 1))
        y.append(term(n))
    return CountSeries(tuple(y))


def _chain_terms(a, b, powers, cs, tail, ratio):
    """y_n = sum_(l<=L) c_l * [x^(n-l)] y^(a*l+b) + S_n as a function of
    n, with cs = (c_1..c_L), where S_n = 0 when tail = 0 and otherwise

        S_n = T * [x^(n-L-1)] y^(a*(L+1)+b) + r * sum_(i<n) (y^a)_i * S_(n-1-i),

    the sum reading S_(n-1) alone at a = 0, where y^a is the unit
    series."""
    L = len(cs)
    last = L + 1 if tail else L
    # chain[l] = y^(a*l+b), filled through index n-l before y_n is
    # formed.  A row that is one of the powers (a = 0, or l = 1 and
    # b = 0) is shared; own lists the others, each with the row below.
    chain = [None] * (last + 1)
    own = []
    for ell in range(1, last + 1):
        if a == 0 or (ell == 1 and b == 0):
            chain[ell] = powers[a * ell + b]
        else:
            chain[ell] = [1]
            own.append((ell, chain[ell], chain[ell - 1] if ell > 1 else powers[b]))
    y_a = powers[a] if last else None
    S = [0] * (L + 1)  # S_n = 0 for n <= L

    def term(n):
        for ell, row, below in own:
            if ell >= n:
                break
            row.append(_conv_at(below, y_a, n - ell))
        value = sum(cs[ell - 1] * chain[ell][n - ell] for ell in range(1, min(L, n) + 1))
        if tail and n > L:
            folded = _conv_at(y_a, S, n - 1) if a else S[n - 1]
            S.append(tail * chain[L + 1][n - L - 1] + ratio * folded)
            value += S[n]
        return value

    return term


def _catpair_terms(a, b, powers):
    """y_n for c_l = C_(l-1) + C_l as a function of n.  With Z = y^a
    and K the Catalan series K(x * Z), K = 1 + x * Z * K^2 and
    y = 1 + y^b * W with W = (1 + x * Z) * K - 1, so

        K_n = (Z * K^2)_(n-1),  W_n = (Z * K)_(n-1) + K_n,
        y_n = sum_(i<n) (y^b)_i * W_(n-i),

    Z * u reading u alone at a = 0 and y^b * W reading W_n alone at
    b = 0, where either power is the unit series."""
    z = powers[a]
    K, K2 = [1], []
    W = []  # W[i] = W_(i+1); W_0 = 0

    def times_z(u, i):
        return _conv_at(z, u, i) if a else u[i]

    def term(n):
        K2.append(_conv_at(K, K, n - 1))
        K.append(times_z(K2, n - 1))
        W.append(times_z(K, n - 1) + K[n])
        return _conv_at(powers[b], W, n - 1) if b else W[n - 1]

    return term


def _bell_terms(params, rows, n, r=1):
    """The exact terms r * C(a*n + b*k + r - 1, k-1) * P_{k,n} / k for
    k = 1..n, with P_{k,n} = rows[k][n] from the power triangle.  The
    binomial needs no range check: its top is at least k-1 >= 0.  Each
    term is divided in place; on a remainder exact_div raises
    NonIntegerTerm, naming n, r and both operands."""
    a, b = params.a, params.b
    top = a * n + r - 1
    terms = []
    for k in range(1, n + 1):
        num = r * comb(top + b * k, k - 1) * rows[k][n]
        q, rem = divmod(num, k)
        if rem:
            exact_div(num, k, f"Bell term n={n}, r={r}")
        terms.append(q)
    return terms


def _power_rows(colors, N):
    """The power triangle of C(t) = sum_j c_j t^j up to N, by C's own
    equation: rational for the geometric description, the Catalan
    equation for catpair."""
    form = colors.geometric()
    if form is None:
        return catpair_power_triangle(N)
    return geometric_power_triangle(N, *form)


def count_bell(params: PathParams, colors: ColorSequence, N: int) -> CountSeries:
    """Evaluate the partial-Bell-polynomial closed form up to index N."""
    if N < 0:
        raise ValueError("need N >= 0")
    values = [1]
    if N:
        rows = _power_rows(colors, N)
        values += (sum(_bell_terms(params, rows, n)) for n in range(1, N + 1))
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
        acc = [_conv_at(acc, z, m) for m in range(n + 1)]
    return acc[n]


def convolution_power_closed(
    params: PathParams, colors: ColorSequence, r: int, n: int
) -> int:
    """Closed form for the r-fold convolution power at index n >= 1:
    r * sum_k C(a*n + b*k + r - 1, k-1) * (k-1)!/n! * B_{n,k}(1!c_1, ...),
    summed as r * sum_k C(a*n + b*k + r - 1, k-1) * P_{k,n} / k."""
    if r < 1 or n < 1:
        raise ValueError("need r >= 1 and n >= 1")
    return sum(_bell_terms(params, _power_rows(colors, n), n, r))


def peak_table(params: PathParams, colors: ColorSequence, n: int) -> PeakTable:
    """Counts of words of index n refined by their number of peaks."""
    if n < 1:
        raise ValueError("need n >= 1")
    return PeakTable(n, _bell_terms(params, _power_rows(colors, n), n))
