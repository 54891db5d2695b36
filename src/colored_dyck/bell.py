"""Exact big-integer combinatorial primitives.

The paper writes its counts with the partial Bell polynomials
B_{n,k}(1!c_1, 2!c_2, ...).  By Comtet (Advanced Combinatorics, 1974,
section 3.3),

    B_{n,k}(1!c_1, 2!c_2, ...) = n!/k! * [t^n] C(t)^k,
    C(t) = c_1 t + c_2 t^2 + ...,

so the counting routes read the power triangle P_{k,n} = [t^n] C(t)^k
(power_triangle), which carries no factorials.  The Bell polynomials
themselves are evaluated by the standard recurrence, one whole
triangle B_{n,k}, n <= N, at a time (partial_bell_triangle); that
triangle and the exponential partition sum (partial_bell_sum, over
partitions_into_parts) are oracles that only the tests call.
"""

from __future__ import annotations

import math
from operator import mul

from .errors import InvalidIndex, NonIntegerTerm

__all__ = [
    "binomial",
    "catalan",
    "partitions_into_parts",
    "partial_bell_sum",
    "partial_bell_triangle",
    "power_triangle",
]


def binomial(m: int, r: int) -> int:
    """C(m, r), with the convention C(m, r) = 0 for r < 0 or r > m."""
    if m < 0:
        raise ValueError("binomial requires a nonnegative top argument")
    if r < 0 or r > m:
        return 0
    return math.comb(m, r)


def catalan(n: int) -> int:
    """The n-th Catalan number C(2n, n) / (n + 1), exactly."""
    if n < 0:
        raise ValueError("catalan index must be nonnegative")
    return math.comb(2 * n, n) // (n + 1)


def _int_text(v: int) -> str:
    """v in decimal, or its bit length if it has more digits than the
    interpreter converts to text (4300 by default)."""
    try:
        return str(v)
    except ValueError:
        return f"<{'-' if v < 0 else ''}{v.bit_length()}-bit integer>"


def exact_div(num: int, den: int, context: str) -> int:
    """num / den, raising NonIntegerTerm unless it is an integer."""
    q, rem = divmod(num, den)
    if rem:
        raise NonIntegerTerm(
            f"non-integer value in {context}: {_int_text(num)}/{_int_text(den)}"
        )
    return q


def partitions_into_parts(n: int, k: int):
    """Yield multiplicity vectors alpha of length n-k+1 with
    sum(alpha) = k and sum(i * alpha_i) = n.

    Order is colexicographic over part multiplicities (largest part
    chosen first), fixed so that outputs are deterministic.
    """
    length = n - k + 1

    def rec(remaining, parts_left, max_part):
        if parts_left == 0:
            if remaining == 0:
                yield []
            return
        # Largest usable part: cannot exceed max_part, and must leave
        # room for the other parts (each at least 1).
        top = min(max_part, remaining - (parts_left - 1))
        for part in range(top, 0, -1):
            # All further parts are <= part, so remaining - part must
            # be coverable: parts_left - 1 <= remaining - part.
            for rest in rec(remaining - part, parts_left - 1, part):
                yield [part] + rest

    for partition in rec(n, k, length):
        alpha = [0] * length
        for part in partition:
            alpha[part - 1] += 1
        yield tuple(alpha)


def partial_bell_sum(n: int, k: int, x) -> int:
    """B_{n,k}(x_1, ..., x_{n-k+1}) by the partition sum.

    Each monomial's coefficient n! / (prod alpha_i! * prod (i!)^alpha_i)
    is a multinomial and therefore an exact integer; the division is
    performed in integer arithmetic.
    """
    if k < 1 or k > n:
        raise InvalidIndex(f"need 1 <= k <= n, got n={n}, k={k}")
    if len(x) < n - k + 1:
        raise InvalidIndex(
            f"need at least n-k+1 = {n - k + 1} arguments, got {len(x)}"
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
    if N < 0:
        raise InvalidIndex(f"need N >= 0, got N={N}")
    if len(x) < N:
        raise InvalidIndex(f"need at least N = {N} arguments, got {len(x)}")
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
    C(t) = c_1 t + c_2 t^2 + ... for c = (c_1, ..., c_N), by

        P_{k,n} = sum_j c_j * P_{k-1,n-j},  P_{0,0} = 1,

    in O(N^3) integer products.  P_{k,n} = 0 for n < k; otherwise it
    is the weighted count of compositions of n into k parts, a part j
    weighing c_j, and equals k!/n! * B_{n,k}(1!c_1, 2!c_2, ...).
    """
    if N < 0:
        raise InvalidIndex(f"need N >= 0, got N={N}")
    if len(c) < N:
        raise InvalidIndex(f"need at least N = {N} arguments, got {len(c)}")
    rows = [[1] + [0] * N]
    for k in range(1, N + 1):
        # rev[N - m] = P_{k-1,m}, so that P_{k-1,n-j} for j = 1..n-k+1
        # is the slice rev[N-n+1 : N-k+2], read forwards against c.
        rev = rows[-1][::-1]
        row = [0] * k
        row += (
            sum(map(mul, c[: n - k + 1], rev[N - n + 1 : N - k + 2]))
            for n in range(k, N + 1)
        )
        rows.append(row)
    return rows
