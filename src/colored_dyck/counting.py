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
own equation (ColorSequence.rational describes C; bell gives the
rules) in O(N^2) products for every built-in coloring, with no
factorial and no binomial weight in any cell.  count_bell adds each
row's terms into the counts as the row arrives, so it holds two rows
at a time, never the triangle.  Its terms, and those of peak_table and
convolution_power_closed, come from one loop, _bell_terms, which makes
one math.comb and one checked division per term: N(N+1)/2 terms for
count_bell, one cell P_{k,n} of each row for the other two.

Both routes are online in n.  Row k adds into y_k..y_N alone, so y_k
is final once row k is added, and _bell_terms yields it then; the
recurrence's loop, _recurrence, yields y once y_n is appended.  The
CLI's count steps the two together and writes each y_n once both
have it and agree on it.

Both routes are polynomial in N.  Summed over l, the recurrence is
the functional equation

    y = 1 + y^b * C(x * y^a),

and count_recurrence reads C through its description
(ColorSequence.rational): where C = p / (1 - r t), multiplying y - 1
by 1 - r * x * y^a leaves

    y_n = r * ([x^(n-1)] y^(a+1) - [x^(n-1)] y^a)
          + sum_i p_i * [x^(n-i)] y^(a*i+b);

for catpair, C = t * (2 + t + C + C^2), the equation bell's rows read,
so Y = C(x * y^a) satisfies

    Y = x * y^a * (2 + x * y^a + Y + Y^2),  y = 1 + y^b * Y.

The recurrence builds only the powers of y that its rule reads, and
their factors, each online and each one convolution of two smaller
powers: y^e is the square of y^(e/2) for even e (half the products of
a convolution), a chain link y^(a*(i-1)+b) * y^a for odd e on the
chain, else y^(e-1) * y.  It divides nowhere.  The closed form raises
the coloring series C to powers and never reads y.  Neither route
reads the other's tables: both read C's description (p, r), or
catpair's equation, which is the input, not a table of either.

Each term of the Bell route is an exact integer quotient; a nonzero
remainder raises NonIntegerTerm and certifies a bug, since
integrality is a theorem.
"""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass
from math import comb
from operator import mul

from .bell import _need_index, _need_peaks, exact_div, power_rows
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
        """y_n; InvalidIndex for an n that is not an int or is below 0.
        An n past N raises the tuple's IndexError, which ends iteration."""
        _need_index(n, 0, "n")
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
        """Count of words with exactly k peaks, 1 <= k <= n."""
        _need_peaks(self.n, k)
        return self.row[k - 1]

    def __iter__(self):
        """The counts for k = 1..n peaks, in order."""
        return iter(self.row)

    def total(self) -> int:
        return sum(self.row)


def _conv_at(u, v, i: int) -> int:
    """Index i of the convolution of u and v: sum_t u[t] * v[i-t].

    The one convolution kernel of this module; both sequences must be
    defined through index i.  A square (u is v) sums each pair of
    distinct indices once and doubles it, in half the products.  map
    stops with its shorter argument, the reversed slice, so u is read
    in place, not copied.
    """
    if u is v:
        h = (i + 1) // 2  # the pairs t < i - t
        total = 2 * sum(map(mul, u, u[i : i - h : -1]))
        return total + u[h] * u[h] if i % 2 == 0 else total
    return sum(map(mul, u, v[i::-1]))


def count_recurrence(params: PathParams, colors: ColorSequence, N: int) -> CountSeries:
    """Evaluate the convolution recurrence up to index N.

    Summed over l, the recurrence is y = 1 + y^b * C(x * y^a), with
    C(t) = sum_l c_l t^l, and it is evaluated from the description of
    C (ColorSequence.rational):

    - C = p / (1 - r t): multiplying y - 1 by 1 - r * x * y^a gives

          y_n = r * ([x^(n-1)] y^(a+1) - [x^(n-1)] y^a)
                + sum_i p_i * [x^(n-i)] y^(a*i+b),

      with p_i read for i <= N alone;
    - catpair, C = t * (2 + t + C + C^2): Y = C(x * y^a) and its
      square, reading y^a and y^b (_catpair_terms).

    Terms of one power of y at one shift are added up first, so a
    power whose coefficients cancel is never read (y^a for ones at
    b = 0).  y^0 is the unit series and y^1 is y; every other power
    is one row, the square or product of two smaller ones as _factors
    says, and filled online, one convolution entry per new term of y,
    through index n - 1 before y_n is formed: O(N^2) products for every
    coloring with a short prefix, and no division.  Inner sums over
    weak compositions are never enumerated.  The loop is _recurrence,
    which the enumeration walk reads too.
    """
    _need_length(N)
    for y in _recurrence(params, colors, N):
        pass
    return CountSeries(tuple(y))


def _need_length(N) -> None:
    """The checks of an index N that sizes y_0..y_N, made before any
    term: InvalidIndex unless N >= 0, OverflowError past what a list
    holds, not after a loop of N steps."""
    _need_index(N, 0, "N")
    if N >= sys.maxsize:
        raise OverflowError("y_0..y_N do not fit in a list")


def _recurrence(params: PathParams, colors: ColorSequence, N: int):
    """The loop of count_recurrence: yields the list y = [y_0, ..., y_n]
    once for each n = 0..N, after y_n is appended, the same list each
    time.  Nothing is sized by N, so a caller may stop at any n."""
    a, b = params.a, params.b
    form = colors.rational()
    y = [1]
    if form is None:  # catpair reads y^a and y^b through index n-1
        rows, steps = _power_steps(a, b, (a, b), y)
        term = _catpair_terms(a, b, rows)
    else:
        reads = _reads(a, b, form, N)
        rows, steps = _power_steps(a, b, [e for _, e, _ in reads], y)
        if any(e == 0 for _, e, _ in reads):
            rows[0] = Counter({0: 1})  # y^0 = 1: reads 0 past index 0, sized by nothing
        term = _read_terms(reads, rows)
    yield y
    for n in range(1, N + 1):
        m = n - 1  # every row is read through index m; its entry 0 is 1
        for row, left, right in steps if m else ():
            row.append(_conv_at(left, right, m))
        y.append(term(n))
        yield y


def _reads(a, b, form, N):
    """The terms (shift, e, coefficient) of y_n = sum coef * [x^(n-shift)] y^e,
    n <= N, for the description form = (p, r), ascending by shift,
    one per power and shift, none with coefficient 0."""
    p, r = form
    coefs = {(1, a + 1): r, (1, a): -r}
    for i, pi in enumerate(p[:N], 1):
        coefs[i, a * i + b] = coefs.get((i, a * i + b), 0) + pi
    return sorted((shift, e, coef) for (shift, e), coef in coefs.items() if coef)


def _read_terms(reads, rows):
    """y_n = sum coef * [x^(n-shift)] y^e over the terms (shift, e, coef)
    of reads, ascending by shift, as a function of n, with
    rows[e] = y^e."""
    reads = [(shift, rows[e], coef) for shift, e, coef in reads]

    def term(n):
        value = 0
        for shift, row, coef in reads:
            if shift > n:
                break
            value += coef * row[n - shift]
        return value

    return term


def _factors(a, b, e):
    """(f, g) with y^e = y^f * y^g and 1 <= g <= f < e, for a power
    e > 1 of the recurrence.

    The powers read are y^a, y^b, the tail's y^(a+1) and the chain
    y^(a*i+b).  y^e is the square of y^(e/2) for even e (half the
    products of a convolution); else, on the chain, a link
    y^(e-a) * y^a, with y^(e-a) = y^b or an earlier row of the chain;
    else y^(e-1) * y.  Every factor is a smaller power, so each row is
    built from y alone by squares and products, with no division."""
    if e % 2 == 0:
        return e // 2, e // 2
    g = e - a
    if a and g >= max(b, 1) and (g - b) % a == 0:
        return max(g, a), min(g, a)
    return e - 1, 1


def _power_steps(a, b, exponents, y):
    """Rows for the powers y^e, e > 1, of exponents and for their
    factors.  Each row is filled through index n - 1 before y_n is
    formed, in ascending e: a factor's exponent is smaller, so it is
    filled first.

    Returns rows (e: row, each [1] until filled, with rows[1] = y) and
    the steps (row, left, right) ascending by e, each filling row as
    the convolution left * right (a square where left is right)."""
    powers, todo = set(), list(exponents)
    while todo:
        e = todo.pop()
        if e > 1 and e not in powers:
            powers.add(e)
            todo.extend(_factors(a, b, e))
    rows, steps = {1: y}, []
    for e in sorted(powers):
        rows[e] = row = [1]
        f, g = _factors(a, b, e)
        steps.append((row, rows[f], rows[g]))
    return rows, steps


def _catpair_terms(a, b, rows):
    """y_n for c_l = C_(l-1) + C_l as a function of n, with
    rows[e] = y^e.  With X = x * y^a and Y = C(X), C's own equation
    C = t * (2 + t + C + C^2), the one bell._catpair_rows reads, gives

        Y = X * T,  T = 2 + X + Y + Y^2,  y = 1 + y^b * Y,

    so T_0 = 2, T_1 = X_1 + Y_1 = 1 + 2 and, for m >= 2,

        T_m = (y^a)_(m-1) + Y_m + (Y^2)_m,

    and Y_n = (y^a * T)_(n-1), y_n = sum_(i<n) (y^b)_i * Y_(n-i):
    y^a * T reads T_(n-1) alone at a = 0 and y^b * Y reads Y_n alone
    at b = 0, where either power is the unit series."""
    Y, T = [], [2, 3]  # Y[i] = Y_(i+1); Y_0 = 0

    def term(n):
        m = n - 1
        if m > 1:
            x_m = rows[a][m - 1] if a else 0
            T.append(x_m + Y[m - 1] + _conv_at(Y, Y, m - 2))
        Y.append(_conv_at(rows[a], T, m) if a else T[m])
        return _conv_at(rows[b], Y, m) if b else Y[m]

    return term


def _bell_terms(params, colors, N, first=1, r=1):
    """The Bell route's terms r * C(a*n + b*k + r - 1, k-1) * P_{k,n} / k,
    for each row k = 1..N of power_rows(N) and n = s..N with
    s = max(k, first), added into out[k + n - s], where out is a table
    of N + 1 zeros: the one term loop of the Bell route.  At first = 1
    each term goes to out[n] (count_bell); at first = N each row has one
    term, which goes to out[k] (peak_table, convolution_power_closed).

    Returns an iterator over out[1..N]: out[k] is yielded once row k is
    added, when no later row reaches it, so a caller may stop at any k.
    N is checked and the table allocated at the call, not at the first
    row.  Terms are added in place rather than yielded: at N <= 20 a
    yield per term adds about 40% to the loop."""
    rows = power_rows(N, colors.rational())  # checks N
    return _bell_rows([0] * (N + 1), rows, params.a, params.b, first, r)


def _bell_rows(out, rows, a, b, first, r):
    """The loop of _bell_terms.  The binomial needs no range check: its
    top is at least k-1 >= 0.  Each term is divided in place; on a
    remainder exact_div raises NonIntegerTerm, naming n, r and both
    operands."""
    for k, row in enumerate(rows, 1):
        s, j = (first if first > k else k), k - 1
        top = a * s + b * k + r - 1
        cells = row if s == k else row[s - k :]
        if r != 1:
            cells = [r * cell for cell in cells]
        for i, cell in enumerate(cells, k):
            num = comb(top, j) * cell
            q, rem = divmod(num, k)
            if rem:
                exact_div(num, k, f"Bell term n={i + s - k}, r={r}")
            out[i] += q
            top += a
        yield out[k]


def count_bell(params: PathParams, colors: ColorSequence, N: int) -> CountSeries:
    """Evaluate the partial-Bell-polynomial closed form up to index N.

    The terms C(a*n + b*k, k-1) * P_{k,n} / k of each row k of the
    power triangle are added into y_k .. y_N as the row arrives
    (_bell_terms), so two rows are held at a time, never the triangle,
    and y_k is final once row k is added."""
    return CountSeries((1, *_bell_terms(params, colors, N)))


def convolution_power_closed(
    params: PathParams, colors: ColorSequence, r: int, n: int
) -> int:
    """Closed form for the r-fold convolution power at index n >= 1:
    r * sum_k C(a*n + b*k + r - 1, k-1) * (k-1)!/n! * B_{n,k}(1!c_1, ...),
    summed as r * sum_k C(a*n + b*k + r - 1, k-1) * P_{k,n} / k."""
    _need_index(r, 1, "r")
    _need_index(n, 1, "n")
    return sum(_bell_terms(params, colors, n, n, r))


def peak_table(params: PathParams, colors: ColorSequence, n: int) -> PeakTable:
    """Counts of words of index n refined by their number of peaks."""
    _need_index(n, 1, "n")
    return PeakTable(n, _bell_terms(params, colors, n, n))
