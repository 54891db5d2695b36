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

- C = p / (1 - r t), the description ColorSequence.rational gives
  every coloring but catpair: C^k * (1 - r t) = C^(k-1) * p, so

      P_{k,n} = sum_i p_i * P_{k-1,n-i} + r * P_{k,n-1},

  O(N^2) products per nonzero p_i.  A polynomial C is the case r = 0.
- C_j = Catalan(j-1) + Catalan(j) (catpair):
  C = t * (2 + t + C + C^2), so

      P_{k+1,n} = P_{k,n+1} - P_{k,n} - 2 P_{k-1,n} - P_{k-1,n-1},

  O(1) additions per cell, O(N^2) in all.

The Bell polynomials themselves, and the whole power triangle by
direct convolution, are evaluated only by the tests' oracles
(colored_dyck.oracles).
"""

from __future__ import annotations

import math
from itertools import accumulate, pairwise, starmap
from operator import add, sub

from .errors import InvalidIndex, NonIntegerTerm

__all__ = [
    "binomial",
    "catalan",
    "power_rows",
]


def binomial(m: int, r: int) -> int:
    """C(m, r), with the convention C(m, r) = 0 for r < 0 or r > m."""
    _need_index(m, 0, "m")
    _need_index(r, None, "r")
    return math.comb(m, r) if r >= 0 else 0


def catalan(n: int) -> int:
    """The n-th Catalan number C(2n, n) / (n + 1), exactly."""
    _need_index(n, 0, "n")
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


def _need_index(value, least, name: str) -> None:
    """The one check of an index argument, named name in the message:
    InvalidIndex unless value is an int other than a bool and, where
    least is not None, value >= least."""
    # An exact int, the common case, passes the type test at once.
    if type(value) is not int and (
        not isinstance(value, int) or isinstance(value, bool)
    ):
        raise InvalidIndex(f"need an integer {name}, got {type(value).__name__}")
    if least is not None and value < least:
        raise InvalidIndex(f"need {name} >= {least}, got {name}={_int_text(value)}")


def _need_peaks(n, k) -> None:
    """The index check of a peak count k of index n: integers with
    1 <= k <= n, else InvalidIndex."""
    _need_index(n, None, "n")
    _need_index(k, None, "k")
    if not 1 <= k <= n:
        raise InvalidIndex(f"need 1 <= k <= n, got n={_int_text(n)}, k={_int_text(k)}")


def power_rows(N: int, form):
    """The rows P_{k,k..N} of the power triangle P_{k,n} = [t^n] C(t)^k,
    for k = 1..N in turn (row 0 is the unit series 1), of the coloring
    series C(t) = sum_j c_j t^j.  form is the coloring's description
    (p, r), C = p / (1 - r t) (ColorSequence.rational), or None for
    catpair.

    Each row is built from the rows below it by an equation C
    satisfies, so only two rows are held at a time: C * (1 - r t) = p
    (_rational_rows, reading p_1..p_N alone, since no later
    coefficient reaches row N), or, for catpair,
    C = t * (2 + t + C + C^2) (_catpair_rows).

    N is checked here, at the call, not when the first row is read.
    """
    _need_index(N, 0, "N")
    if form is None:
        return _catpair_rows(N)
    p, r = form
    return _rational_rows(N, p[:N], r)


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
