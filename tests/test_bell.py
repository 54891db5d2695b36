import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colored_dyck import ColorSequence, bell, binomial, catalan
from colored_dyck.bell import exact_div, power_rows
from colored_dyck.errors import InvalidIndex, NonIntegerTerm
from colored_dyck.oracles import (
    partial_bell_sum,
    partial_bell_triangle,
    partitions_into_parts,
    power_triangle,
)
from conftest import (
    DRAWN_COLORS,
    HUGE,
    HUGE_TEXT,
    needs_int_digit_limit,
    package_imports,
    padded_triangle,
)


def bell_or_base(n, k, x):
    """B_{n,k} extended to the k = 0 and k > n boundary cases."""
    return partial_bell_triangle(n, x)[n][k] if k <= n else 0


class TestPrimitives:
    def test_binomial(self):
        assert binomial(5, 0) == 1
        assert binomial(5, -1) == 0
        assert binomial(6, 2) == 15
        assert binomial(3, 7) == 0

    def test_catalan(self):
        assert [catalan(n) for n in range(7)] == [1, 1, 2, 5, 14, 42, 132]

    def test_catalan_matches_binomial_quotient(self):
        for n in range(20):
            assert catalan(n) * (n + 1) == math.comb(2 * n, n)

    def test_exact_div(self):
        assert exact_div(6, 3, "x") == 2
        with pytest.raises(NonIntegerTerm):
            exact_div(7, 2, "x")

    def test_exact_div_of_huge_operands(self):
        # 10^5000 + 1 has more digits than the interpreter converts to
        # text by default, so the message gives its bit length.
        with pytest.raises(NonIntegerTerm, match="16610-bit integer>/10$"):
            exact_div(10**5000 + 1, 10, "x")


class TestPartitions:
    def test_counts_match_partition_numbers(self):
        # partitions of n into exactly k parts
        def by_force(n, k):
            def rec(remaining, parts, largest):
                if parts == 0:
                    return 1 if remaining == 0 else 0
                return sum(
                    rec(remaining - p, parts - 1, p)
                    for p in range(1, min(largest, remaining) + 1)
                )

            return rec(n, k, n)

        for n in range(1, 12):
            for k in range(1, n + 1):
                alphas = list(partitions_into_parts(n, k))
                assert len(alphas) == by_force(n, k)
                for alpha in alphas:
                    assert sum(alpha) == k
                    assert sum(i * a for i, a in enumerate(alpha, 1)) == n

    def test_deterministic_order(self):
        first = list(partitions_into_parts(9, 4))
        second = list(partitions_into_parts(9, 4))
        assert first == second
        assert len(set(first)) == len(first)

    def test_order_matches_one_part_per_level(self):
        # The generator as it was written with one recursion level per
        # part, largest first: the order must not change.
        def one_part_per_level(n, k):
            length = n - k + 1

            def rec(remaining, parts_left, max_part):
                if parts_left == 0:
                    if remaining == 0:
                        yield []
                    return
                top = min(max_part, remaining - (parts_left - 1))
                for part in range(top, 0, -1):
                    for rest in rec(remaining - part, parts_left - 1, part):
                        yield [part] + rest

            for partition in rec(n, k, length):
                alpha = [0] * length
                for part in partition:
                    alpha[part - 1] += 1
                yield tuple(alpha)

        for n in range(1, 19):
            for k in range(1, n + 1):
                assert list(partitions_into_parts(n, k)) == list(
                    one_part_per_level(n, k)
                )

    def test_many_equal_parts(self):
        # One recursion level per distinct part, not per part: 1200
        # parts run far past the interpreter's recursion limit.
        assert list(partitions_into_parts(1200, 1200)) == [(1200,)]
        assert list(partitions_into_parts(1200, 1)) == [(0,) * 1199 + (1,)]
        assert list(partitions_into_parts(1200, 1199)) == [(1198, 1)]
        assert partial_bell_sum(1200, 1200, [1]) == 1
        assert partial_bell_sum(1200, 1199, (3, 5)) == math.comb(1200, 2) * 3**1198 * 5


class TestBellEvaluators:
    def test_single_part(self):
        x = (3, 1, 4, 1, 5, 9)
        for n in range(1, 7):
            assert partial_bell_sum(n, 1, x) == x[n - 1]

    def test_two_parts_of_three(self):
        # only alpha = (1, 1): coefficient 3!/(1! 1! 2!) = 3
        assert partial_bell_sum(3, 2, (5, 7)) == 3 * 5 * 7

    def test_rec_base(self):
        assert partial_bell_triangle(1, (9,))[1][1] == 9
        assert partial_bell_triangle(4, (2, 0, 0, 0))[4][4] == 16

    def test_invalid_index(self):
        with pytest.raises(InvalidIndex, match=r"^need 1 <= k <= n, got n=3, k=4$"):
            partial_bell_sum(3, 4, (1, 1, 1))

    @needs_int_digit_limit
    def test_huge_invalid_index(self):
        message = f"need 1 <= k <= n, got n={HUGE_TEXT}, k=0"
        with pytest.raises(InvalidIndex, match=f"^{re.escape(message)}$"):
            partial_bell_sum(HUGE, 0, ())
        message = f"need at least n-k+1 = {HUGE_TEXT} arguments, got 0"
        with pytest.raises(InvalidIndex, match=f"^{re.escape(message)}$"):
            partial_bell_sum(HUGE + 1, 2, ())

    def test_factorial_arguments_give_lah_like_values(self):
        # B_{n,k}(1!, 2!, 3!, ...) = (n!/k!) * C(n-1, k-1)
        for n in range(1, 9):
            x = tuple(math.factorial(i) for i in range(1, n + 1))
            row = partial_bell_triangle(n, x)[n]
            for k in range(1, n + 1):
                expected = math.factorial(n) // math.factorial(k) * math.comb(
                    n - 1, k - 1
                )
                assert partial_bell_sum(n, k, x) == expected
                assert row[k] == expected

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 10),
        st.data(),
    )
    def test_methods_agree(self, n, data):
        k = data.draw(st.integers(1, n))
        x = tuple(
            data.draw(st.integers(-6, 6)) for _ in range(n - k + 1)
        )
        # the triangle reads x_1..x_n; B_{n,k} reads only x_1..x_{n-k+1}
        cell = partial_bell_triangle(n, x + (0,) * (k - 1))[n][k]
        assert partial_bell_sum(n, k, x) == cell

    def test_homogeneity(self):
        rng = random.Random(7)
        for t in (2, 3):
            for n in range(1, 9):
                x = tuple(rng.randint(0, 5) for _ in range(n))
                for k in range(1, n + 1):
                    base = partial_bell_sum(n, k, x)
                    scaled_lin = tuple(t * v for v in x)
                    scaled_geo = tuple(
                        t**i * v for i, v in enumerate(x, 1)
                    )
                    assert partial_bell_sum(n, k, scaled_lin) == t**k * base
                    assert partial_bell_sum(n, k, scaled_geo) == t**n * base

    def test_support_vanishes_without_usable_parts(self):
        # only parts 1 and 2 available: B_{n,k} = 0 for k < ceil(n/2)
        for n in range(1, 11):
            x = (1, 4) + (0,) * max(0, n - 2)
            row = partial_bell_triangle(n, x)[n]
            for k in range(1, n + 1):
                value = partial_bell_sum(n, k, x)
                if k < (n + 1) // 2:
                    assert value == 0
                else:
                    assert value == row[k]


# Argument sequences of the evaluator tests above, extended to 12 terms.
TRIANGLE_ARGS = [
    (3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8),
    tuple(math.factorial(i) for i in range(1, 13)),
    (1, 4) + (0,) * 10,
    (2, -3, 0, 5, -1, 6, 4, -6, 1, 0, -2, 3),
    # (j! * c_j) for c_j = C_{j-1} + C_j and for c_j = 2^(j-1)
    (
        2, 6, 42, 456, 6720, 125280, 2827440, 74954880, 2283240960,
        78592550400, 3016991577600, 127796668876800,
    ),
    (
        1, 4, 24, 192, 1920, 23040, 322560, 5160960, 92897280, 1857945600,
        40874803200, 980995276800,
    ),
]


class TestBellTriangle:
    @pytest.mark.parametrize("x", TRIANGLE_ARGS)
    def test_matches_partition_sum(self, x):
        rows = partial_bell_triangle(12, x)
        assert [len(row) for row in rows] == list(range(1, 14))
        assert rows[0] == [1]
        for n in range(1, 13):
            assert rows[n][0] == 0
            for k in range(1, n + 1):
                assert rows[n][k] == partial_bell_sum(n, k, x)

    @pytest.mark.parametrize("x", TRIANGLE_ARGS)
    def test_matches_sympy(self, x):
        sympy = pytest.importorskip("sympy")
        rows = partial_bell_triangle(10, x)
        for n in range(1, 11):
            for k in range(1, n + 1):
                assert rows[n][k] == sympy.bell(n, k, x[: n - k + 1])

    def test_empty(self):
        assert partial_bell_triangle(0, ()) == [[1]]

    def test_invalid_arguments(self):
        with pytest.raises(InvalidIndex, match=r"^need N >= 0, got N=-1$"):
            partial_bell_triangle(-1, ())
        with pytest.raises(InvalidIndex, match=r"^need at least N = 3 arguments, got 2$"):
            partial_bell_triangle(3, (1, 1))

    @needs_int_digit_limit
    def test_huge_invalid_arguments(self):
        message = f"need N >= 0, got N=<-{HUGE_TEXT[1:]}"
        with pytest.raises(InvalidIndex, match=f"^{re.escape(message)}$"):
            partial_bell_triangle(-HUGE, ())
        message = f"need at least N = {HUGE_TEXT} arguments, got 2"
        with pytest.raises(InvalidIndex, match=f"^{re.escape(message)}$"):
            partial_bell_triangle(HUGE, (1, 1))


class TestPowerTriangle:
    @pytest.mark.parametrize("c", TRIANGLE_ARGS)
    def test_comtet_identity(self, c):
        # B_{n,k}(1!c_1, 2!c_2, ...) = n!/k! * [t^n] C(t)^k
        x = tuple(math.factorial(j) * cj for j, cj in enumerate(c, start=1))
        bell_rows = partial_bell_triangle(12, x)
        power_rows = power_triangle(12, c)
        assert [len(row) for row in power_rows] == [13] * 13
        for k in range(13):
            assert power_rows[k][:k] == [0] * k
        for n in range(13):
            for k in range(n + 1):
                scale = math.factorial(n) // math.factorial(k)
                assert bell_rows[n][k] == scale * power_rows[k][n]

    def test_compositions(self):
        # c_j = 1: P_{k,n} = C(n-1, k-1) compositions of n into k parts
        rows = power_triangle(9, (1,) * 9)
        for k in range(1, 10):
            for n in range(k, 10):
                assert rows[k][n] == math.comb(n - 1, k - 1)

    def test_empty(self):
        assert power_triangle(0, ()) == [[1]]

    def test_invalid_arguments(self):
        with pytest.raises(InvalidIndex, match=r"^need N >= 0, got N=-1$"):
            power_triangle(-1, ())
        with pytest.raises(InvalidIndex, match=r"^need at least N = 3 arguments, got 2$"):
            power_triangle(3, (1, 1))

    @needs_int_digit_limit
    def test_huge_invalid_arguments(self):
        message = f"need N >= 0, got N=<-{HUGE_TEXT[1:]}"
        with pytest.raises(InvalidIndex, match=f"^{re.escape(message)}$"):
            power_triangle(-HUGE, ())
        message = f"need at least N = {HUGE_TEXT} arguments, got 2"
        with pytest.raises(InvalidIndex, match=f"^{re.escape(message)}$"):
            power_triangle(HUGE, (1, 1))


# One coloring of every kind, as its description would reach the
# triangle rules: the presets with r != 0, const:0 (p empty), a tail-0
# prefix with a gap, prefixes with a tail (one whose tail repeats its
# last color, so p stops before the tail), a prefix longer than every
# N below, and catpair.
KIND_CASES = [
    ColorSequence.ones(),
    ColorSequence.powers_of_two(),
    ColorSequence.constant(3),
    ColorSequence.constant(0),
    ColorSequence.explicit((2, 0, 1)),
    ColorSequence.explicit((1, 2), 3),
    ColorSequence.explicit((0, 0, 1), 1),
    ColorSequence.explicit(tuple(range(1, 66)), 4),
    ColorSequence.catalan_pair_sum(),
]
KIND_IDS = [
    "ones", "pow2", "const:3", "const:0", "explicit:2,0,1", "explicit:1,2+tail:3",
    "explicit:0,0,1+tail:1", "explicit:1..65+tail:4", "catpair",
]


class TestEquationRules:
    """The rules from C's own equation against the plain product rule,
    power_triangle (q = 1), on the coloring's first N colors."""

    @pytest.mark.parametrize("colors", KIND_CASES, ids=KIND_IDS)
    def test_equal_plain_rule(self, colors):
        form = colors.rational()
        for N in range(61):
            plain = power_triangle(N, [colors.at(j) for j in range(1, N + 1)])
            assert padded_triangle(N, form) == plain, N

    @settings(max_examples=300, deadline=None)
    @given(DRAWN_COLORS, st.integers(0, 15))
    def test_drawn_equal_plain_rule(self, colors, N):
        # The rows of (p, r) against the plain rule on the colors at
        # reads from the same description.
        c = [colors.at(j) for j in range(1, N + 1)]
        assert padded_triangle(N, colors.rational()) == power_triangle(N, c)

    def test_catpair_last_cells(self):
        # P_{k,N} for k near N reads the long rows at their far end:
        # P_{N,N} = c_1^N and P_{N-1,N} = (N-1) * c_1^(N-2) * c_2, with
        # c_1 = 2 and c_2 = 3.
        N = 60
        rows = padded_triangle(N, None)
        assert rows[N][N] == 2**N
        assert rows[N - 1][N] == (N - 1) * 2 ** (N - 2) * 3

    def test_rational_tail(self):
        # c_j = 3 * 2^(j-1): C = 3t / (1 - 2t), so P_{k,n} =
        # 3^k * 2^(n-k) * C(n-1, k-1).
        rows = padded_triangle(12, ((3,), 2))
        for k in range(1, 13):
            for n in range(k, 13):
                assert rows[k][n] == 3**k * 2 ** (n - k) * math.comb(n - 1, k - 1)

    def test_prefix_before_a_ratio(self):
        # c = 1, 0, 5, then 3 * 2^i: p = (1 - 2t) * (t + 5t^3) + 3t^4,
        # with a negative coefficient, and r = 2.  No coloring kind has
        # this description; the rule takes any (p, r).
        c = [1, 0, 5] + [3 * 2**i for i in range(20)]
        for N in range(21):
            assert padded_triangle(N, ((1, -2, 5, -7), 2)) == power_triangle(N, c[:N])

    def test_empty(self):
        assert padded_triangle(0, None) == [[1]]
        assert padded_triangle(0, ((1,), 1)) == [[1]]
        with pytest.raises(InvalidIndex, match=r"^need N >= 0, got N=-1$"):
            power_rows(-1, None)
        with pytest.raises(InvalidIndex, match=r"^need N >= 0, got N=-1$"):
            power_rows(-1, ((1,), 1))

    @needs_int_digit_limit
    def test_huge_negative_index(self):
        message = f"need N >= 0, got N=<-{HUGE_TEXT[1:]}"
        for form in (None, ((1,), 1)):
            with pytest.raises(InvalidIndex, match=f"^{re.escape(message)}$"):
                power_rows(-HUGE, form)


class TestConvolutionIdentities:
    """The two summation identities used to telescope the recurrence."""

    def _random_scaled(self, rng, n):
        c = [rng.randint(0, 4) for _ in range(n)]
        return c, tuple(math.factorial(i) * c[i - 1] for i in range(1, n + 1))

    def test_identity_a(self):
        rng = random.Random(11)
        a = 3
        for n in range(1, 9):
            c, x = self._random_scaled(rng, n)
            for k in range(1, n + 1):
                lhs = sum(
                    a
                    * n
                    * math.comb(n - 1, ell)
                    * math.factorial(n - ell)
                    * c[n - ell - 1]
                    * bell_or_base(ell, k - 1, x)
                    for ell in range(k - 1, n)
                )
                assert lhs == a * n * partial_bell_sum(n, k, x)

    def test_identity_b(self):
        rng = random.Random(13)
        b = 2
        for n in range(1, 9):
            c, x = self._random_scaled(rng, n)
            for k in range(1, n + 1):
                lhs = sum(
                    b
                    * math.comb(n, ell)
                    * math.factorial(n - ell)
                    * c[n - ell - 1]
                    * bell_or_base(ell, k - 1, x)
                    for ell in range(k - 1, n)
                )
                assert lhs == b * k * partial_bell_sum(n, k, x)


def test_bell_imports_only_errors_from_the_package():
    # bell is a leaf module: the counting routes and the tests build on
    # it, and it builds on nothing of the package but its errors.
    assert package_imports(bell) == {".errors"}
