"""Slow, independent evaluators that the tests check the package
against.  Nothing else in the package imports this module: the
library and the CLI never run an oracle.

- Partial Bell polynomials: the exponential partition sum
  (partial_bell_sum, over partitions_into_parts) and the standard
  recurrence for the whole triangle B_{n,k}, n <= N
  (partial_bell_triangle), both with factorials.
- The power triangle P_{k,n} = [t^n] C(t)^k by direct convolution,
  O(N^3) (power_triangle), sharing no code with bell.power_rows.
- The r-fold convolution power of a count series by iterated pairwise
  convolution (convolution_power_direct), against
  counting.convolution_power_closed.
- A first-quadrant lattice-path DP (step_lattice_count) for the closed
  forms in sequences, and Duchon's two intermediate rewritings of
  duchon_d (duchon_alt_first, duchon_alt_mid), summed over Fractions.
- The slope-3/2 words, by the lattice DP (rational_dyck_count), by
  listing (rational_dyck_words, is_slope32_word) and by their factors
  (factor_free_count).

Slope-3/2 words use the alphabet {a, b} with `a` an east step (1,0)
and `b` a north step (0,1); a word of length 5n runs from (0,0) to
(2n,3n) staying weakly below the line y = (3/2)x (checked as
2*y <= 3*x at every lattice point).  This side convention is pinned by
the regression test accepting the reference word "ababbaabbb".
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import comb, factorial, perm

from .bell import _int_text, _need_index, _need_peaks, binomial, exact_div
from .counting import CountSeries, _conv_at
from .errors import InvalidIndex, ResourceLimit

__all__ = [
    "partitions_into_parts",
    "partial_bell_sum",
    "partial_bell_triangle",
    "power_triangle",
    "convolution_power_direct",
    "step_lattice_count",
    "duchon_alt_first",
    "duchon_alt_mid",
    "rational_dyck_count",
    "rational_dyck_words",
    "is_slope32_word",
    "factor_free_count",
]


def partitions_into_parts(n: int, k: int):
    """Yield multiplicity vectors alpha of length n-k+1 with
    sum(alpha) = k and sum(i * alpha_i) = n.

    Order is colexicographic over part multiplicities (largest part
    chosen first), fixed so that outputs are deterministic.  Each level
    of the recursion fixes one part size and how often it occurs, so
    the depth is the number of distinct parts, below sqrt(2n).
    """
    length = n - k + 1
    alpha = [0] * length

    def rec(remaining, parts_left, max_part):
        if parts_left == 0:
            if remaining == 0:
                yield tuple(alpha)
            return
        # Largest usable part: cannot exceed max_part, and must leave
        # room for the other parts (each at least 1).
        top = min(max_part, remaining - (parts_left - 1))
        for part in range(top, 0, -1):
            # part taken m times, most first; all further parts are
            # smaller.
            for m in range(min(parts_left, remaining // part), 0, -1):
                alpha[part - 1] = m
                yield from rec(remaining - m * part, parts_left - m, part - 1)
            alpha[part - 1] = 0

    yield from rec(n, k, length)


def partial_bell_sum(n: int, k: int, x) -> int:
    """B_{n,k}(x_1, ..., x_{n-k+1}) by the partition sum.

    Each monomial's coefficient n! / (prod alpha_i! * prod (i!)^alpha_i)
    is a multinomial and therefore an exact integer; the division is
    performed in integer arithmetic.
    """
    _need_peaks(n, k)
    if len(x) < n - k + 1:
        raise InvalidIndex(
            f"need at least n-k+1 = {_int_text(n - k + 1)} arguments, got {len(x)}"
        )
    total = 0
    n_fact = math.factorial(n)
    for alpha in partitions_into_parts(n, k):
        denom = 1
        monomial = 1
        for i, a in enumerate(alpha, start=1):
            if a == 0:
                continue
            denom *= math.factorial(a) * math.factorial(i) ** a
            monomial *= x[i - 1] ** a
        total += exact_div(n_fact, denom, "partial_bell_sum") * monomial
    return total


def partial_bell_triangle(N: int, x) -> list[list[int]]:
    """The rows B[n][k] = B_{n,k}(x_1, ..., x_{n-k+1}), 0 <= k <= n <= N,
    by the recurrence (Comtet, Advanced Combinatorics, 1974)

        B_{n,k} = sum_j C(n-1, j-1) * x_j * B_{n-j, k-1},  B_{0,0} = 1,

    in O(N^3) big-integer products.
    """
    _need_index(N, 0, "N")
    if len(x) < N:
        raise InvalidIndex(
            f"need at least N = {_int_text(N)} arguments, got {len(x)}"
        )
    rows = [[1]]
    for n in range(1, N + 1):
        row = [0] * (n + 1)
        for j in range(1, n + 1):
            w = math.comb(n - 1, j - 1) * x[j - 1]
            if w:
                for k, value in enumerate(rows[n - j], start=1):
                    row[k] += w * value
        rows.append(row)
    return rows


def power_triangle(N: int, c) -> list[list[int]]:
    """The rows P[k][n] = [t^n] C(t)^k, 0 <= k, n <= N, of the powers of
    C(t) = c_1 t + c_2 t^2 + ... for c = (c_1, ..., c_N), by the direct
    convolution

        P_{k,n} = sum_j c_j * P_{k-1,n-j},  P_{0,0} = 1,

    in O(N^3) big-integer products.  P_{k,n} = 0 for n < k; otherwise
    it is the weighted count of compositions of n into k parts, a part
    j weighing c_j, and equals k!/n! * B_{n,k}(1!c_1, 2!c_2, ...).  It
    shares no code with power_rows: the tests compare the two.
    """
    _need_index(N, 0, "N")
    if len(c) < N:
        raise InvalidIndex(
            f"need at least N = {_int_text(N)} arguments, got {len(c)}"
        )
    rows = [[1] + [0] * N]
    for k in range(1, N + 1):
        below = rows[-1]
        # below[m] = 0 for m < k-1, so part j reaches only j <= n-k+1.
        rows.append(
            [0] * k
            + [
                sum(c[j - 1] * below[n - j] for j in range(1, n - k + 2))
                for n in range(k, N + 1)
            ]
        )
    return rows


def convolution_power_direct(series: CountSeries, r: int, n: int) -> int:
    """The r-fold self-convolution of the series at index n, by
    iterated pairwise convolution."""
    _need_index(r, 1, "r")
    _need_index(n, 0, "n")
    z = series.values[: n + 1]
    if len(z) < n + 1:
        raise ValueError(f"series must be defined through index {n}")
    acc = z
    for _ in range(r - 1):
        acc = [_conv_at(acc, z, m) for m in range(n + 1)]
    return acc[n]


def step_lattice_count(steps, end_x: int) -> int:
    """First-quadrant paths from (0,0) to (end_x, 0) over the given
    step set, with y >= 0 checked at every step endpoint.

    Generic DP oracle for the closed forms in sequences (and, with the
    unit step sets, for Dyck and Motzkin paths).
    """
    _need_index(end_x, 0, "end_x")
    steps = sorted(set(steps))
    if any(dx < 1 for dx, _ in steps):
        raise ValueError("steps must advance in x")
    # reach[x] maps height y to the number of paths ending at (x, y)
    reach = [dict() for _ in range(end_x + 1)]
    reach[0][0] = 1
    for x in range(end_x):
        for y, count in reach[x].items():
            for dx, dy in steps:
                nx, ny = x + dx, y + dy
                if nx <= end_x and ny >= 0:
                    reach[nx][ny] = reach[nx].get(ny, 0) + count
    return reach[end_x].get(0, 0)


def duchon_alt_first(n: int) -> int:
    """First rewriting of duchon_d, with a falling-factorial kernel:
    sum_k C(5n, k-1) sum_j ((-1)^(k-j)/k) C(k,j) (2j-k) (2j-k+2n-1)_(n-1) / n!."""
    _need_index(n, 1, "n")
    total = Fraction(0)
    for k in range(1, n + 1):
        inner = Fraction(0)
        for j in range(k + 1):
            inner += (
                Fraction((-1) ** (k - j), k)
                * comb(k, j)
                * (2 * j - k)
                * perm(2 * j - k + 2 * n - 1, n - 1)
            )
        total += comb(5 * n, k - 1) * inner / factorial(n)
    return exact_div(total.numerator, total.denominator, "duchon_alt_first")


def duchon_alt_mid(n: int) -> int:
    """Second rewriting, with a binomial kernel:
    sum_k C(5n, k-1) sum_j ((-1)^(k-j)/(n*k)) C(k,j) (2j-k) C(2j-k+2n-1, n-1)."""
    _need_index(n, 1, "n")
    total = Fraction(0)
    for k in range(1, n + 1):
        for j in range(k + 1):
            total += (
                comb(5 * n, k - 1)
                * Fraction((-1) ** (k - j), n * k)
                * comb(k, j)
                * (2 * j - k)
                * binomial(2 * j - k + 2 * n - 1, n - 1)
            )
    return exact_div(total.numerator, total.denominator, "duchon_alt_mid")


# The most words rational_dyck_words lists before it gives up.
_WORD_CAP = 10**6


def _slope32_ok(x: int, y: int) -> bool:
    return 2 * y <= 3 * x


def rational_dyck_count(n: int) -> int:
    """Number of slope-3/2 Dyck words of length 5n, by the lattice DP.

    An east step raises the height h = 3x - 2y by 3 and a north step
    lowers it by 2, and h >= 0 is the condition 2y <= 3x: the words
    are the height paths of 5n steps from 0 back to 0.
    """
    _need_index(n, 1, "n")
    return step_lattice_count({(1, 3), (1, -2)}, 5 * n)


def rational_dyck_words(n: int):
    """All slope-3/2 Dyck words of length 5n, as strings over {a, b},
    in lexicographic order; ResourceLimit past _WORD_CAP words."""
    _need_index(n, 1, "n")
    width, height = 2 * n, 3 * n
    out = []

    def walk(x, y, prefix):
        if x == width and y == height:
            out.append("".join(prefix))
            if len(out) > _WORD_CAP:
                raise ResourceLimit(f"more than {_WORD_CAP} words")
            return
        if x + 1 <= width:
            prefix.append("a")
            walk(x + 1, y, prefix)
            prefix.pop()
        if y + 1 <= height and _slope32_ok(x, y + 1):
            prefix.append("b")
            walk(x, y + 1, prefix)
            prefix.pop()

    walk(0, 0, [])
    return out


def is_slope32_word(word: str) -> bool:
    """Membership in the slope-3/2 Dyck language: length 5m with 2m
    east and 3m north steps, staying weakly below y = (3/2)x."""
    if not word or len(word) % 5 != 0 or set(word) - {"a", "b"}:
        return False
    m = len(word) // 5
    if word.count("a") != 2 * m:
        return False
    x = y = 0
    for letter in word:
        if letter == "a":
            x += 1
        else:
            y += 1
        if not _slope32_ok(x, y):
            return False
    return True


def factor_free_count(n: int) -> int:
    """Slope-3/2 words of length 5n with no proper contiguous factor
    in the language.  Exhaustive; intended for small n only."""
    count = 0
    for word in rational_dyck_words(n):
        length = len(word)
        has_factor = any(
            is_slope32_word(word[i : i + size])
            for size in range(5, length, 5)
            for i in range(length - size + 1)
        )
        if not has_factor:
            count += 1
    return count
