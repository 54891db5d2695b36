"""Closed forms for the classical families recovered by the colored
Dyck model.  Which (a, b) and coloring each family is counted under is
the CLI's preset table; the lattice-path and slope-3/2 oracles the
tests check these forms against are in colored_dyck.oracles.

Each sum over k walks one integer term from k to k+1: the term times
one product of small factors, divided by another with divmod, where a
remainder goes to exact_div, which raises NonIntegerTerm.  No step
multiplies two large numbers or calls a function on the way.
"""

from __future__ import annotations

from math import comb, lcm

from .bell import _need_index, _need_peaks, catalan, exact_div

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


def narayana(n: int, k: int) -> int:
    """The Narayana number (1/n) * C(n, k-1) * C(n, k), the m = 1 case
    of fuss_catalan_peaks."""
    return fuss_catalan_peaks(1, n, k)


def motzkin_colored(c1: int, c2: int, n: int) -> int:
    """Motzkin n-paths with c1-colored horizontal and c2-colored up
    steps: sum_k C(n, 2k) * C_k * c1^(n-2k) * c2^k.

    The walked term is U_k = C(n, 2k) * C_k * c2^k
    = n!/((n-2k)! k! (k+1)!) * c2^k, an integer, with the ratio

        U_(k+1) / U_k = c2 (n-2k)(n-2k-1) / ((k+1)(k+2)),

    and the sum is taken by Horner's rule in c1^2, so no step divides
    by c1; where c1^2 = 1 (the Motzkin preset has c1 = 1) each step is
    a plain sum.
    """
    _need_index(n, 0, "n")
    u = total = 1
    c1_sq = c1 * c1
    for k in range(n // 2):
        num = u * (c2 * (n - 2 * k) * (n - 2 * k - 1))
        u, rem = divmod(num, (k + 1) * (k + 2))
        if rem:
            exact_div(num, (k + 1) * (k + 2), "motzkin_colored")
        if c1_sq != 1:
            total *= c1_sq
        total += u
    return total * c1 ** (n % 2)


def schroeder_little(n: int) -> int:
    """The n-th little Schroeder number, sum_k N(n,k) * 2^(n-k).

    The walked term is the Narayana number N(n, k), an integer, from
    N(n, 1) = 1, with the ratio

        N(n, k+1) / N(n, k) = (n-k)(n-k+1) / (k(k+1)),

    and the sum is taken by Horner's rule in 2.
    """
    _need_index(n, 1, "n")
    t = total = 1
    for k in range(1, n):
        num = t * ((n - k) * (n - k + 1))
        t, rem = divmod(num, k * (k + 1))
        if rem:
            exact_div(num, k * (k + 1), "schroeder_little")
        total = 2 * total + t
    return total


def fuss_catalan(m: int, n: int) -> int:
    """The Fuss-Catalan number (1/(m*n+1)) * C((m+1)*n, n)."""
    _need_index(m, 1, "m")
    _need_index(n, 0, "n")
    return exact_div(comb((m + 1) * n, n), m * n + 1, "fuss_catalan")


def fuss_catalan_peaks(m: int, n: int, k: int) -> int:
    """m-ary paths of length (m+1)n with exactly k peaks:
    (1/n) * C(m*n, k-1) * C(n, k), with math.comb's 0 for k-1 > m*n."""
    _need_index(m, 0, "m")
    _need_peaks(n, k)
    return exact_div(comb(m * n, k - 1) * comb(n, k), n, "fuss_catalan_peaks")


def a052709_closed(n: int) -> int:
    """Paths from (0,0) to (2n,0) with steps (1,1), (1,-1), (3,1):
    sum over k of (1/k) * C(2k, k-1) * C(k, n-k).

    The walked term is T_k = C_k * C(k, n-k), an integer, since
    (1/k) * C(2k, k-1) = C_k (Catalan), with the ratio

        T_(k+1) / T_k = 2(2k+1)(k+1)(n-k) / ((k+2)(2k-n+1)(2k-n+2)).
    """
    _need_index(n, 1, "n")
    lo = (n + 1) // 2
    t = total = catalan(lo) * comb(lo, n - lo)
    for k in range(lo, n):
        num = t * (2 * (2 * k + 1) * (k + 1) * (n - k))
        den = (k + 2) * (2 * k - n + 1) * (2 * k - n + 2)
        t, rem = divmod(num, den)
        if rem:
            exact_div(num, den, "a052709")
        total += t
    return total


def a186997_closed(n: int) -> int:
    """Paths from (0,0) to (3n,0) with steps (1,2), (1,-1), (3,3):
    sum over k of (1/k) * C(n+2k, k-1) * C(k, n-k).

    The walked term is T_k = (1/k) * C(n+2k, k-1) * C(k, n-k) itself.
    It is an integer: it is the Bell term C(a*n + b*k, k-1) * P_{k,n} / k
    at (a, b) = (1, 2) and c = (1, 1), where P_{k,n} = C(k, n-k), so it
    counts the words of index n with k peaks.  Its ratio is

        T_(k+1) / T_k
            = (n+2k+1)(n+2k+2)(n-k) / ((n+k+2)(2k-n+1)(2k-n+2)).
    """
    _need_index(n, 1, "n")
    lo = (n + 1) // 2
    t = total = exact_div(comb(n + 2 * lo, lo - 1) * comb(lo, n - lo), lo, "a186997")
    for k in range(lo, n):
        num = t * ((n + 2 * k + 1) * (n + 2 * k + 2) * (n - k))
        den = (n + k + 2) * (2 * k - n + 1) * (2 * k - n + 2)
        t, rem = divmod(num, den)
        if rem:
            exact_div(num, den, "a186997")
        total += t
    return total


def duchon_d(n: int) -> int:
    """Duchon's count of slope-3/2 Dyck words of length 5n:
    sum_j (1/(5n+j+1)) * C(5n+1, n-j) * C(5n+2j, j).

    No theorem makes each term an integer, so the terms are summed over
    the common denominator L = lcm(5n+1, ..., 6n+1) and the sum is
    divided by L once.  The walked term is
    W_j = L/(5n+j+1) * C(5n+1, n-j) * C(5n+2j, j), an integer since
    5n+j+1 divides L, with the ratio

        W_(j+1) / W_j
            = (n-j)(5n+2j+1)(5n+2j+2) / ((4n+j+2)(j+1)(5n+j+2)).
    """
    _need_index(n, 1, "n")
    den = lcm(*range(5 * n + 1, 6 * n + 2))
    w = total = den // (5 * n + 1) * comb(5 * n + 1, n)
    for j in range(n):
        num = w * ((n - j) * (5 * n + 2 * j + 1) * (5 * n + 2 * j + 2))
        step = (4 * n + j + 2) * (j + 1) * (5 * n + j + 2)
        w, rem = divmod(num, step)
        if rem:
            exact_div(num, step, "duchon_d")
        total += w
    return exact_div(total, den, "duchon_d")


def duchon_alt(n: int) -> int:
    """Final rewriting of duchon_d (its two intermediate rewritings are
    oracles.duchon_alt_first and oracles.duchon_alt_mid):
    sum_k C(5n, k-1) sum_j ((-1)^j/n) [C(k-1,j) - C(k-1,j-1)] C(2n+k-2j-1, n-1).

    Every term but the 1/n is an integer: they are summed as integers
    and the sum is divided by n once.  The alternating inner sum is
    taken by Horner's rule in -1, from j = k down, and multiplied by
    C(5n, k-1) once.  Every binomial is math.comb's (0 for j > k - 1),
    but C(k-1, j-1) at j = 0, which is 0.
    """
    _need_index(n, 1, "n")
    total = 0
    for k in range(1, n + 1):
        inner = 0
        for j in range(k, -1, -1):
            pick = comb(k - 1, j) - (comb(k - 1, j - 1) if j else 0)
            inner = pick * comb(2 * n + k - 2 * j - 1, n - 1) - inner
        total += comb(5 * n, k - 1) * inner
    return exact_div(total, n, "duchon_alt")
