"""Closed forms for the classical families recovered by the colored
Dyck model.  Which (a, b) and coloring each family is counted under is
the CLI's preset table; the lattice-path and slope-3/2 oracles the
tests check these forms against are in colored_dyck.oracles.
"""

from __future__ import annotations

from math import comb, lcm

from .bell import _int_text, _need_index, binomial, catalan, exact_div
from .errors import InvalidIndex

__all__ = [
    "narayana",
    "motzkin_colored",
    "schroeder_little",
    "fuss_catalan",
    "fuss_catalan_peaks",
    "a052709_closed",
    "a186997_closed",
    "duchon_d",
    "duchon_alt",
]


def _need_peaks(n, k) -> None:
    """The index check of a peak count k of index n: integers with
    1 <= k <= n, else InvalidIndex."""
    _need_index(n, None, "n")
    _need_index(k, None, "k")
    if not 1 <= k <= n:
        raise InvalidIndex(f"need 1 <= k <= n, got n={_int_text(n)}, k={_int_text(k)}")


def narayana(n: int, k: int) -> int:
    """The Narayana number (1/n) * C(n, k-1) * C(n, k)."""
    _need_peaks(n, k)
    return exact_div(comb(n, k - 1) * comb(n, k), n, "narayana")


def motzkin_colored(c1: int, c2: int, n: int) -> int:
    """Motzkin n-paths with c1-colored horizontal and c2-colored up
    steps: sum_k C(n, 2k) * C_k * c1^(n-2k) * c2^k.

    The coefficient T_k = C(n, 2k) * C_k = n!/((n-2k)! k! (k+1)!) is
    walked by T_{k+1} = T_k * (n-2k)(n-2k-1) / ((k+1)(k+2)), and the
    sum by Horner's rule in c1^2, so no step divides by c1.
    """
    _need_index(n, 0, "n")
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
    _need_index(n, 1, "n")
    t = total = 1
    for k in range(1, n):
        t = exact_div(t * (n - k) * (n - k + 1), k * (k + 1), "schroeder_little")
        total = 2 * total + t
    return total


def fuss_catalan(m: int, n: int) -> int:
    """The Fuss-Catalan number (1/(m*n+1)) * C((m+1)*n, n)."""
    _need_index(m, 1, "m")
    _need_index(n, 0, "n")
    return exact_div(comb((m + 1) * n, n), m * n + 1, "fuss_catalan")


def fuss_catalan_peaks(m: int, n: int, k: int) -> int:
    """m-ary paths of length (m+1)n with exactly k peaks:
    (1/n) * C(m*n, k-1) * C(n, k)."""
    _need_index(m, 0, "m")
    _need_peaks(n, k)
    return exact_div(
        binomial(m * n, k - 1) * comb(n, k), n, "fuss_catalan_peaks"
    )


def a052709_closed(n: int) -> int:
    """Paths from (0,0) to (2n,0) with steps (1,1), (1,-1), (3,1):
    sum over k of (1/k) * C(2k, k-1) * C(k, n-k).

    Each term is an integer, since (1/k) * C(2k, k-1) = C_k (Catalan).
    C_k and C(k, n-k) are walked from k to k+1 by their ratios.
    """
    _need_index(n, 1, "n")
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
    _need_index(n, 1, "n")
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


def duchon_d(n: int) -> int:
    """Duchon's count of slope-3/2 Dyck words of length 5n:
    sum_j (1/(5n+j+1)) * C(5n+1, n-j) * C(5n+2j, j).

    The terms are summed over the common denominator
    L = lcm(5n+1, ..., 6n+1) and divided by L once.  C(5n+1, n-j) and
    C(5n+2j, j) are walked from j to j+1 by their ratios.
    """
    _need_index(n, 1, "n")
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


def duchon_alt(n: int) -> int:
    """Final rewriting of duchon_d (its two intermediate rewritings are
    oracles.duchon_alt_first and oracles.duchon_alt_mid):
    sum_k C(5n, k-1) sum_j ((-1)^j/n) [C(k-1,j) - C(k-1,j-1)] C(2n+k-2j-1, n-1).

    Every term but the 1/n is an integer: they are summed as integers
    and the sum is divided by n once.  Every binomial is math.comb's
    (0 for j > k - 1), but C(k-1, j-1) at j = 0, which is 0.
    """
    _need_index(n, 1, "n")
    total = 0
    for k in range(1, n + 1):
        for j in range(k + 1):
            total += (
                (-1) ** j
                * comb(5 * n, k - 1)
                * (comb(k - 1, j) - (comb(k - 1, j - 1) if j else 0))
                * comb(2 * n + k - 2 * j - 1, n - 1)
            )
    return exact_div(total, n, "duchon_alt")

