"""Closed forms for the classical families recovered by the colored
Dyck model and, where feasible, independent lattice-path oracles.
Which (a, b) and coloring each family is counted under is the CLI's
preset table.

Slope-3/2 words use the alphabet {a, b} with `a` an east step (1,0)
and `b` a north step (0,1); a word of length 5n runs from (0,0) to
(2n,3n) staying weakly below the line y = (3/2)x (checked as
2*y <= 3*x at every lattice point).  This side convention is pinned by
the regression test accepting the reference word "ababbaabbb".
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, lcm, perm

from .bell import _int_text, binomial, catalan, exact_div
from .errors import InvalidIndex, ResourceLimit

__all__ = [
    "narayana",
    "motzkin_colored",
    "schroeder_little",
    "fuss_catalan",
    "fuss_catalan_peaks",
    "a052709_closed",
    "a186997_closed",
    "step_lattice_count",
    "duchon_d",
    "duchon_alt",
    "duchon_alt_mid",
    "duchon_alt_first",
    "rational_dyck_count",
    "rational_dyck_words",
    "is_slope32_word",
    "factor_free_count",
]


def narayana(n: int, k: int) -> int:
    """The Narayana number (1/n) * C(n, k-1) * C(n, k)."""
    if not 1 <= k <= n:
        n, k = map(_int_text, (n, k))
        raise InvalidIndex(f"need 1 <= k <= n, got n={n}, k={k}")
    return exact_div(comb(n, k - 1) * comb(n, k), n, "narayana")


def motzkin_colored(c1: int, c2: int, n: int) -> int:
    """Motzkin n-paths with c1-colored horizontal and c2-colored up
    steps: sum_k C(n, 2k) * C_k * c1^(n-2k) * c2^k.

    The coefficient T_k = C(n, 2k) * C_k = n!/((n-2k)! k! (k+1)!) is
    walked by T_{k+1} = T_k * (n-2k)(n-2k-1) / ((k+1)(k+2)), and the
    sum by Horner's rule in c1^2, so no step divides by c1.
    """
    if n < 0:
        raise ValueError("need n >= 0")
    t = total = c2_k = 1
    c1_sq = c1 * c1
    for k in range(n // 2):
        t = exact_div(
            t * (n - 2 * k) * (n - 2 * k - 1), (k + 1) * (k + 2), "motzkin_colored"
        )
        c2_k *= c2
        total = total * c1_sq + t * c2_k
    return total * c1 ** (n % 2)


def schroeder_little(n: int) -> int:
    """The n-th little Schroeder number, sum_k N(n,k) * 2^(n-k).

    The Narayana number is walked from N(n, 1) = 1 by
    N(n, k+1) = N(n,k) * (n-k)(n-k+1) / (k(k+1)), and the sum by
    Horner's rule in 2.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    t = total = 1
    for k in range(1, n):
        t = exact_div(t * (n - k) * (n - k + 1), k * (k + 1), "schroeder_little")
        total = 2 * total + t
    return total


def fuss_catalan(m: int, n: int) -> int:
    """The Fuss-Catalan number (1/(m*n+1)) * C((m+1)*n, n)."""
    if m < 1 or n < 0:
        raise ValueError("need m >= 1 and n >= 0")
    return exact_div(comb((m + 1) * n, n), m * n + 1, "fuss_catalan")


def fuss_catalan_peaks(m: int, n: int, k: int) -> int:
    """m-ary paths of length (m+1)n with exactly k peaks:
    (1/n) * C(m*n, k-1) * C(n, k)."""
    if not 1 <= k <= n:
        n, k = map(_int_text, (n, k))
        raise InvalidIndex(f"need 1 <= k <= n, got n={n}, k={k}")
    return exact_div(
        binomial(m * n, k - 1) * comb(n, k), n, "fuss_catalan_peaks"
    )


def a052709_closed(n: int) -> int:
    """Paths from (0,0) to (2n,0) with steps (1,1), (1,-1), (3,1):
    sum over k of (1/k) * C(2k, k-1) * C(k, n-k).

    Each term is an integer, since (1/k) * C(2k, k-1) = C_k (Catalan).
    C_k and C(k, n-k) are walked from k to k+1 by their ratios.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    lo = (n + 1) // 2
    cat, pick = catalan(lo), binomial(lo, n - lo)
    total = cat * pick
    for k in range(lo, n):
        j = n - k
        cat = exact_div(cat * 2 * (2 * k + 1), k + 2, "a052709")
        pick = exact_div(pick * (k + 1) * j, (k - j + 1) * (k - j + 2), "a052709")
        total += cat * pick
    return total


def a186997_closed(n: int) -> int:
    """Paths from (0,0) to (3n,0) with steps (1,2), (1,-1), (3,3):
    sum over k of (1/k) * C(n+2k, k-1) * C(k, n-k).

    The terms are summed over the common denominator
    L = lcm(ceil(n/2), ..., n) and divided by L once.  C(n+2k, k-1) and
    C(k, n-k) are walked from k to k+1 by their ratios.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    lo = (n + 1) // 2
    den = lcm(*range(lo, n + 1))
    top, pick = binomial(n + 2 * lo, lo - 1), binomial(lo, n - lo)
    total = den // lo * top * pick
    for k in range(lo, n):
        m, j = n + 2 * k, n - k
        top = exact_div(top * (m + 1) * (m + 2), k * (m - k + 2), "a186997")
        pick = exact_div(pick * (k + 1) * j, (k - j + 1) * (k - j + 2), "a186997")
        total += den // (k + 1) * top * pick
    return exact_div(total, den, "a186997")


def step_lattice_count(steps, end_x: int) -> int:
    """First-quadrant paths from (0,0) to (end_x, 0) over the given
    step set, with y >= 0 checked at every step endpoint.

    Generic DP oracle for the closed forms above (and, with the unit
    step sets, for Dyck and Motzkin paths).
    """
    if end_x < 0:
        raise ValueError("need end_x >= 0")
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


def duchon_d(n: int) -> int:
    """Duchon's count of slope-3/2 Dyck words of length 5n:
    sum_j (1/(5n+j+1)) * C(5n+1, n-j) * C(5n+2j, j).

    The terms are summed over the common denominator
    L = lcm(5n+1, ..., 6n+1) and divided by L once.  C(5n+1, n-j) and
    C(5n+2j, j) are walked from j to j+1 by their ratios.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    den = lcm(*range(5 * n + 1, 6 * n + 2))
    first, second = comb(5 * n + 1, n), 1
    total = den // (5 * n + 1) * first
    for j in range(n):
        m = 5 * n + 2 * j
        first = exact_div(first * (n - j), 4 * n + j + 2, "duchon_d")
        second = exact_div(
            second * (m + 1) * (m + 2), (j + 1) * (5 * n + j + 1), "duchon_d"
        )
        total += den // (5 * n + j + 2) * first * second
    return exact_div(total, den, "duchon_d")


def duchon_alt_first(n: int) -> int:
    """First rewriting of duchon_d, with a falling-factorial kernel:
    sum_k C(5n, k-1) sum_j ((-1)^(k-j)/k) C(k,j) (2j-k) (2j-k+2n-1)_(n-1) / n!."""
    if n < 1:
        raise ValueError("need n >= 1")
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
    if n < 1:
        raise ValueError("need n >= 1")
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


def duchon_alt(n: int) -> int:
    """Final rewriting:
    sum_k C(5n, k-1) sum_j ((-1)^j/n) [C(k-1,j) - C(k-1,j-1)] C(2n+k-2j-1, n-1).

    Every term but the 1/n is an integer: they are summed as integers
    and the sum is divided by n once.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    total = 0
    for k in range(1, n + 1):
        for j in range(k + 1):
            total += (
                (-1) ** j
                * comb(5 * n, k - 1)
                * (binomial(k - 1, j) - binomial(k - 1, j - 1))
                * binomial(2 * n + k - 2 * j - 1, n - 1)
            )
    return exact_div(total, n, "duchon_alt")


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
    if n < 1:
        raise ValueError("need n >= 1")
    return step_lattice_count({(1, 3), (1, -2)}, 5 * n)


def rational_dyck_words(n: int):
    """All slope-3/2 Dyck words of length 5n, as strings over {a, b},
    in lexicographic order; ResourceLimit past _WORD_CAP words."""
    if n < 1:
        raise ValueError("need n >= 1")
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
