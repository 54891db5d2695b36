"""Exact big-integer combinatorial primitives.

The paper writes its counts with the partial Bell polynomials
B_{n,k}(1!c_1, 2!c_2, ...).  By Comtet (Advanced Combinatorics, 1974,
section 3.3),

    B_{n,k}(1!c_1, 2!c_2, ...) = n!/k! * [t^n] C(t)^k,
    C(t) = c_1 t + c_2 t^2 + ...,

so the counting routes read the power triangle P_{k,n} = [t^n] C(t)^k,
which carries no factorials.  power_rows is its one entry point: it
yields the rows k = 1..N in turn, each built from the rows below it by
an equation C satisfies, with whole-row list operations, so only two
rows are held at a time:

- C = p / (1 - r t), a polynomial p over a geometric tail:
  C^k * (1 - r t) = C^(k-1) * p, so

      P_{k,n} = sum_i p_i * P_{k-1,n-i} + r * P_{k,n-1},

  O(N^2) products per nonzero p_i.  A polynomial C is the case r = 0.
- C_j = Catalan(j-1) + Catalan(j) (catpair):
  C = t * (2 + t + C + C^2), so

      P_{k+1,n} = P_{k,n+1} - P_{k,n} - 2 P_{k-1,n} - P_{k-1,n-1},

  O(1) additions per cell, O(N^2) in all.

The Bell polynomials themselves are evaluated by the standard
recurrence, one whole triangle B_{n,k}, n <= N, at a time
(partial_bell_triangle).  That triangle, the exponential partition sum
(partial_bell_sum, over partitions_into_parts) and the whole power
triangle by direct convolution, O(N^3) (power_triangle), are oracles
that only the tests call.
"""

from __future__ import annotations

import math
from itertools import accumulate, pairwise, starmap
from operator import add, sub

from .errors import InvalidIndex, NonIntegerTerm

__all__ = [
    "binomial",
    "catalan",
    "partitions_into_parts",
    "partial_bell_sum",
    "partial_bell_triangle",
    "power_triangle",
    "power_rows",
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
        n, k = map(_int_text, (n, k))
        raise InvalidIndex(f"need 1 <= k <= n, got n={n}, k={k}")
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
    if N < 0:
        raise InvalidIndex(f"need N >= 0, got N={_int_text(N)}")
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
    if N < 0:
        raise InvalidIndex(f"need N >= 0, got N={_int_text(N)}")
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


def power_rows(N: int, form):
    """The rows P_{k,k..N} of the power triangle P_{k,n} = [t^n] C(t)^k,
    for k = 1..N in turn (row 0 is the unit series 1), of the coloring
    series C(t) = sum_j c_j t^j.  form is the coloring's description
    (c_1..c_L, T, r), with c_j = T * r^(j-L-1) for j > L
    (ColorSequence.geometric), or None for catpair.

    Each row is built from the rows below it by an equation C
    satisfies, so only two rows are held at a time:

    - a geometric tail with L < N, C = p / (1 - r t) with
      p = (1 - r t) * sum_(j<=L) c_j t^j + T t^(L+1);
    - otherwise the polynomial C = c_1 t + ... + c_min(L,N) t^min(L,N),
      the case p = c, r = 0 of the same rule (_rational_rows);
    - catpair, C = t * (2 + t + C + C^2) (_catpair_rows).

    N is checked here, at the call, not when the first row is read.
    """
    if N < 0:
        raise InvalidIndex(f"need N >= 0, got N={_int_text(N)}")
    if form is None:
        return _catpair_rows(N)
    prefix, tail, ratio = form
    if tail and len(prefix) < N:
        p = [c - ratio * below for c, below in zip((*prefix, tail), (0, *prefix))]
        return _rational_rows(N, p, ratio)
    return _rational_rows(N, prefix[:N], 0)


def _rational_rows(N: int, p, r: int):
    """Yield P_{k,k..N}, k = 1..N, for
    C(t) = (p_1 t + p_2 t^2 + ...) / (1 - r t), p = (p_1, p_2, ...), by

        C^k * (1 - r t) = C^(k-1) * p,
        P_{k,n} = sum_i p_i * P_{k-1,n-i} + r * P_{k,n-1}.

    Row k is zero below n = k, so only its part from k on is built:
    one map over the row below per nonzero p_i, then one accumulate
    for the division by 1 - r t (none when r = 0).  O(N^2) products
    per nonzero p_i.
    """
    terms = [(i, pi) for i, pi in enumerate(p, 1) if pi]
    below = [1] + [0] * N  # P_{k-1,n} for n >= k-1
    for k in range(1, N + 1):
        # acc[m] = sum_i p_i * P_{k-1,k+m-i}, m = 0..N-k, reading
        # below[m+1-i]: p_i contributes from m = i-1 on.
        acc = [0] * (N - k + 1)
        for i, pi in terms:
            if i > N - k + 1:
                break
            seg = below[: N - k + 2 - i]
            acc[i - 1 :] = map(add, acc[i - 1 :], seg if pi == 1 else map(pi.__mul__, seg))
        if r == 1:
            acc = list(accumulate(acc))
        elif r:
            acc = list(accumulate(acc, lambda s, v: r * s + v))
        yield acc
        below = acc


def _catpair_rows(N: int):
    """Yield P_{k,k..N}, k = 1..N, for c_j = C_(j-1) + C_j, the Catalan
    pair sums.  C(t) = sum_j c_j t^j satisfies

        C = t * (2 + t + C + C^2),

    so t * C^(k+1) = (1 - t) * C^k - t * (2 + t) * C^(k-1), that is

        P_{k+1,n} = P_{k,n+1} - P_{k,n} - 2 P_{k-1,n} - P_{k-1,n-1}:

    O(1) additions per cell, O(N^2) in all.  Row k+1 through index N
    needs row k through N+1, so the two working rows run through index
    2N-k, and each row is yielded through index N.
    """
    # low[m] = P_{k-1,k-1+m} and high[m] = P_{k,k+m}: rows k-1 and k
    # from their first nonzero cell on; high runs through index 2N-k.
    low = [1] + [0] * (2 * N)
    high = list(starmap(add, pairwise(map(catalan, range(2 * N)))))
    for k in range(1, N + 1):
        yield high[: N - k + 1]
        # P_{k+1,k+1+m} = high[m+2] - high[m+1] - 2 low[m+2] - low[m+1]
        m = len(high) - 2
        step = map(sub, high[2:], high[1:-1])
        twice = map(add, low[2 : m + 2], low[1 : m + 1])
        low, high = high, list(map(sub, map(sub, step, twice), low[2 : m + 2]))
