import random
import re
import sys
import tracemalloc
from collections import Counter
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colored_dyck import (
    ColorSequence,
    CountSeries,
    PathParams,
    PeakTable,
    Rise,
    convolution_power_closed,
    count_bell,
    count_recurrence,
    peak_table,
    peaks,
)
from colored_dyck import bell, counting, oracles, sequences
from colored_dyck.bijection import enumerate_all, weak_compositions
from colored_dyck.errors import InvalidIndex, NonIntegerTerm
from colored_dyck.oracles import convolution_power_direct
from colored_dyck.sequences import duchon_d, fuss_catalan, narayana
from conftest import COLOR_GRID, DRAWN_COLORS, PARAM_GRID, padded_triangle


CATALAN = (1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786, 208012)


class TestRecurrence:
    def test_catalan(self):
        s = count_recurrence(PathParams(1, 0), ColorSequence.ones(), 8)
        assert s.values == CATALAN[:9]

    def test_powers_of_two_family(self):
        s = count_recurrence(PathParams(0, 1), ColorSequence.ones(), 5)
        assert s.values == (1, 1, 2, 4, 8, 16)

    def test_y1_is_c1(self, params, colors):
        s = count_recurrence(params, colors, 1)
        assert s[1] == colors.at(1)

    @pytest.mark.parametrize(
        "colors", [ColorSequence.ones(), ColorSequence.catalan_pair_sum()], ids=["ones", "catpair"]
    )
    def test_index_past_a_list_raises_at_once(self, colors):
        for N in (sys.maxsize, 10**20):
            with pytest.raises(OverflowError, match=r"^y_0\.\.y_N do not fit in a list$"):
                count_recurrence(PathParams(1, 0), colors, N)

    def test_y0_is_one(self, params, colors):
        assert count_recurrence(params, colors, 0).values == (1,)

    def test_large_a_needs_no_deep_recursion(self):
        s = count_recurrence(PathParams(1500, 0), ColorSequence.ones(), 3)
        assert s.values == (1, 1, 1501, 3378751)

    @pytest.mark.parametrize("route", [count_recurrence, count_bell])
    def test_negative_N_rejected(self, route):
        with pytest.raises(ValueError):
            route(PathParams(1, 0), ColorSequence.ones(), -1)


# Colorings the conftest grid lacks: a zero first color, a gap before
# the last nonzero color, and no color at all.
SPARSE_COLORS = [
    ColorSequence.explicit((0, 1)),
    ColorSequence.explicit((0, 0, 2)),
    ColorSequence.explicit(()),
]


@pytest.fixture
def kernel_calls(monkeypatch):
    """(kind, index) of every call to the recurrence's one kernel: a
    convolution entry is a "square" or a "product"."""
    calls = []
    conv = counting._conv_at

    def counted_conv(u, v, i):
        calls.append(("square" if u is v else "product", i))
        return conv(u, v, i)

    monkeypatch.setattr(counting, "_conv_at", counted_conv)
    return calls


# Every triangle evaluator in bell and oracles, and the two rules
# behind power_rows.
TRIANGLE_EVALUATORS = (
    (oracles, "power_triangle"),
    (bell, "power_rows"),
    (bell, "_rational_rows"),
    (bell, "_catpair_rows"),
    (oracles, "partial_bell_triangle"),
)


class TestChain:
    @pytest.mark.parametrize(
        "sparse", SPARSE_COLORS, ids=["0,1", "0,0,2", "none"]
    )
    def test_routes_agree_at_40(self, params, sparse):
        assert count_recurrence(params, sparse, 40) == count_bell(params, sparse, 40)

    def test_no_color_counts_only_the_empty_word(self, params):
        s = count_recurrence(params, ColorSequence.explicit(()), 10)
        assert s.values == (1,) + (0,) * 10

    def test_ternary_to_120(self):
        s = count_recurrence(PathParams(2, 0), ColorSequence.ones(), 120)
        assert s.values == tuple(fuss_catalan(2, n) for n in range(121))

    def test_duchon_to_60(self):
        s = count_recurrence(PathParams(5, 0), ColorSequence.catalan_pair_sum(), 60)
        assert s.values[1:] == tuple(duchon_d(n) for n in range(1, 61))

    def test_rows_stop_at_last_color(self, kernel_calls):
        # With c_l = 0 for l > 2 only the chain rows y^1 and y^2 are
        # read, so only y^2 is convolved: one kernel call per index.
        N = 100
        count_recurrence(PathParams(1, 0), ColorSequence.explicit((1, 1)), N)
        assert len(kernel_calls) <= N

    @pytest.mark.parametrize("a, b", [(5, 0), (2, 3), (0, 4), (3, 1)])
    def test_at_most_N_plus_max_ab_rows(self, kernel_calls, a, b):
        # Each row is filled through index N-1 at most, one kernel call
        # per entry.
        N = 30
        count_recurrence(PathParams(a, b), ColorSequence.ones(), N)
        assert len(kernel_calls) <= (N + max(a, b)) * N

    @pytest.mark.parametrize("a, b", [(1, 0), (2, 1), (0, 3), (5, 0)])
    @pytest.mark.parametrize(
        "colors",
        [
            ColorSequence.ones(),
            ColorSequence.powers_of_two(),
            ColorSequence.constant(3),
            ColorSequence.catalan_pair_sum(),
        ],
        ids=lambda c: c.kind,
    )
    def test_color_tail_is_quadratic(self, kernel_calls, a, b, colors):
        # The tail (or the catpair rows) adds at most 4 rows to the
        # powers of y, one kernel call per row and index.
        N = 200
        count_recurrence(PathParams(a, b), colors, N)
        assert len(kernel_calls) <= (max(a, b) + 4) * N

    def test_large_a_builds_seventeen_rows(self, kernel_calls):
        # For ones at b = 0 the y^a terms cancel, so only y^1501 is
        # read: y^1501 = y^1500 * y, y^1500 = (y^750)^2, and so on down
        # to y^2 = y * y, halving even exponents and taking one factor
        # y from odd ones: 17 rows, each filled through index N-1.
        N = 30
        s = count_recurrence(PathParams(1500, 0), ColorSequence.ones(), N)
        assert s.values[1:] == tuple(fuss_catalan(1500, n) for n in range(1, N + 1))
        assert Counter(kind for kind, _ in kernel_calls) == {"square": 290, "product": 203}

    def test_catalan_is_squares_only(self, kernel_calls):
        N = 200
        count_recurrence(PathParams(1, 0), ColorSequence.ones(), N)
        assert 0 < len(kernel_calls) <= N
        assert {kind for kind, _ in kernel_calls} == {"square"}

    def test_adjacent_powers_build_from_squares_and_products(self, kernel_calls):
        # At (4, 3) ones reads y^4, y^5 and y^7.  y^2 = y * y and
        # y^4 = (y^2)^2 are squares; y^3 = y^2 * y, y^5 = y^4 * y and
        # the chain link y^7 = y^4 * y^3 are products, each row filled
        # through index N-1.
        N = 30
        count_recurrence(PathParams(4, 3), ColorSequence.ones(), N)
        assert Counter(kind for kind, _ in kernel_calls) == {"square": 58, "product": 87}

    @pytest.mark.parametrize(
        "a, b, N, calls",
        [
            # y^2 = y * y through N-1, then per index Y^2 (none while it
            # is 0, at n = 1, 2), y^a * T and y^b * Y.
            (2, 1, 300, {"square": 299 + 298, "product": 2 * 300}),
            # y^5 = (y^2)^2 * y through N-1: two squares and one
            # product per index; y^b * Y is Y at b = 0.
            (5, 0, 100, {"square": 296, "product": 199}),
        ],
    )
    def test_catpair_three_convolutions_per_index(self, kernel_calls, a, b, N, calls):
        count_recurrence(PathParams(a, b), ColorSequence.catalan_pair_sum(), N)
        assert Counter(kind for kind, _ in kernel_calls) == calls

    def test_independent_of_bell_route(self, monkeypatch):
        # One coloring per triangle rule: tail, no tail, catpair.
        params = PathParams(2, 1)
        colorings = [
            ColorSequence.explicit((1, 2), 3),
            ColorSequence.explicit((2, 0, 1)),
            ColorSequence.catalan_pair_sum(),
        ]
        expected = [count_bell(params, colors, 20) for colors in colorings]

        def forbidden(*args):
            raise AssertionError("Bell route table read by the recurrence route")

        for module, name in TRIANGLE_EVALUATORS:
            monkeypatch.setattr(module, name, forbidden)
            if hasattr(counting, name):
                monkeypatch.setattr(counting, name, forbidden)
        monkeypatch.setattr(counting, "_bell_terms", forbidden)
        for colors, series in zip(colorings, expected):
            assert count_recurrence(params, colors, 20) == series


# Every coloring against its own first N colors as a tail-0 prefix,
# which takes the rule with r = 0: the tail folded into y^(a+1) and
# the catpair rows must add up to the sum over the colors one by one.
PREFIX_CASES = [
    (params, colors)
    for params in PARAM_GRID
    for colors in COLOR_GRID
    + [ColorSequence.explicit((1, 2), 3), ColorSequence.explicit((0, 0, 1), 1)]
] + [(PathParams(5, 0), ColorSequence.catalan_pair_sum())]


def _spec(colors):
    """The coloring's CLI spec, kind name for a preset."""
    if colors.kind != "explicit":
        return colors.kind
    tail = f"+tail:{colors.tail}" if colors.tail else ""
    return "explicit:" + ",".join(map(str, colors.prefix)) + tail


@pytest.mark.parametrize(
    "params, colors",
    PREFIX_CASES,
    ids=[f"a{p.a}b{p.b}-{_spec(c)}" for p, c in PREFIX_CASES],
)
def test_recurrence_equals_its_explicit_prefix(params, colors):
    for N in (1, 2, 3, 4, 60):
        prefix = ColorSequence.explicit([colors.at(j) for j in range(1, N + 1)])
        assert count_recurrence(params, colors, N) == count_recurrence(params, prefix, N)


class TestPowerRows:
    """The rows of powers of y the recurrence builds: squares, products,
    and the factor 1 - r t folded into y^(a+1)."""

    @settings(max_examples=200, deadline=None)
    @given(st.data(), DRAWN_COLORS, st.integers(0, 25))
    def test_tail_rule_equals_bell_and_prefix(self, data, colors, N):
        a = data.draw(st.integers(0, 5), label="a")
        b = data.draw(st.integers(0 if a else 1, 5 - a), label="b")
        params = PathParams(a, b)
        series = count_recurrence(params, colors, N)
        assert series == count_bell(params, colors, N)
        # The same colors as a tail-0 prefix take the rule with r = 0.
        prefix = ColorSequence.explicit([colors.at(j) for j in range(1, N + 1)])
        assert series == count_recurrence(params, prefix, N)

    def test_square_equals_product(self):
        u = [1, 3, 0, 7, 2, 9, 4, 1]
        for i in range(len(u)):
            assert counting._conv_at(u, u, i) == counting._conv_at(u, list(u), i)

    def test_factors_and_rows_equal_repeated_products(self):
        # Every power is a square or a product of two smaller powers,
        # and its row is y's repeated product, for a random y with
        # y_0 = 1.
        rng = random.Random(40)
        y = [1] + [rng.randint(-9, 9) for _ in range(11)]
        powers = [y]
        for _ in range(63):
            powers.append([counting._conv_at(powers[-1], y, i) for i in range(len(y))])
        for a in range(7):
            for b in range(7):
                if a + b == 0:
                    continue
                for e in range(2, 65):
                    f, g = counting._factors(a, b, e)
                    assert f + g == e and 1 <= g <= f < e
                grown = [1]
                rows, steps = counting._power_steps(a, b, range(65), grown)
                for m in range(1, len(y)):
                    grown.append(y[m])
                    for row, left, right in steps:
                        row.append(counting._conv_at(left, right, m))
                assert rows == dict(enumerate(powers, 1))

    def test_recurrence_never_divides(self, monkeypatch):
        cases = [(params, colors) for params in PARAM_GRID for colors in COLOR_GRID]
        expected = [count_bell(params, colors, 30) for params, colors in cases]

        def forbidden(*args):
            raise AssertionError("division on the recurrence route")

        monkeypatch.setattr(counting, "divmod", forbidden, raising=False)
        monkeypatch.setattr(counting, "exact_div", forbidden)
        for (params, colors), series in zip(cases, expected):
            assert count_recurrence(params, colors, 30) == series


class TestBellRoute:
    def test_catalan(self):
        s = count_bell(PathParams(1, 0), ColorSequence.ones(), 8)
        assert s.values == CATALAN[:9]

    def test_ternary(self):
        s = count_bell(PathParams(2, 0), ColorSequence.ones(), 4)
        assert s.values == (1, 1, 3, 12, 55)

    def test_a052709_small(self):
        s = count_bell(PathParams(0, 2), ColorSequence.explicit((1, 1)), 2)
        assert s[2] == 3

    def test_routes_agree(self, params, colors):
        rec = count_recurrence(params, colors, 9)
        bell = count_bell(params, colors, 9)
        assert rec.values == bell.values

    def test_routes_agree_at_40(self, params, colors):
        assert count_bell(params, colors, 40) == count_recurrence(params, colors, 40)

    def test_y0_is_one(self, params, colors):
        assert count_bell(params, colors, 0).values == (1,)

    @pytest.mark.parametrize(
        "a, b, colors",
        [
            (1, 0, ColorSequence.ones()),
            (2, 1, ColorSequence.catalan_pair_sum()),
            (5, 0, ColorSequence.catalan_pair_sum()),
        ],
        ids=["a1b0-ones", "a2b1-catpair", "a5b0-catpair"],
    )
    def test_routes_agree_at_200(self, a, b, colors):
        params = PathParams(a, b)
        assert count_bell(params, colors, 200) == count_recurrence(params, colors, 200)

    def test_independent_of_recurrence_route(self, monkeypatch):
        params, colors = PathParams(2, 1), ColorSequence.catalan_pair_sum()
        expected = count_recurrence(params, colors, 20)

        def forbidden(*args):
            raise AssertionError("recurrence route called by the Bell route")

        monkeypatch.setattr(counting, "count_recurrence", forbidden)
        assert count_bell(params, colors, 20) == expected
        assert peak_table(params, colors, 8).total() == expected[8]

    def test_reads_no_recurrence_kernel(self, monkeypatch):
        params = PathParams(2, 1)
        colorings = [ColorSequence.explicit((1, 2), 3), ColorSequence.catalan_pair_sum()]
        expected = [count_recurrence(params, colors, 20) for colors in colorings]

        def forbidden(*args):
            raise AssertionError("recurrence kernel called by the Bell route")

        monkeypatch.setattr(counting, "_conv_at", forbidden)
        for colors, series in zip(colorings, expected):
            assert count_bell(params, colors, 20) == series
            assert peak_table(params, colors, 8).total() == series[8]

    def test_odd_triangle_cell_raises(self, monkeypatch):
        # At (1, 0), n = 3, k = 2 the term is C(3, 1) * P_{2,3} / 2, and
        # ones has P_{2,3} = 2; a cell of 1 leaves 3/2.
        power_rows = counting.power_rows

        def odd(N, form):
            for k, row in enumerate(power_rows(N, form), 1):
                yield row[:1] + [1] + row[2:] if k == 2 else row  # row[1] = P_{2,3}

        monkeypatch.setattr(counting, "power_rows", odd)
        with pytest.raises(NonIntegerTerm, match=r"Bell term n=3, r=1: 3/2$"):
            count_bell(PathParams(1, 0), ColorSequence.ones(), 5)

    def test_partition_oracles_off_the_hot_path(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("partition-sum oracle called")

        monkeypatch.setattr(oracles, "partial_bell_sum", forbidden)
        monkeypatch.setattr(oracles, "partitions_into_parts", forbidden)
        params, colors = PathParams(2, 1), ColorSequence.catalan_pair_sum()
        assert count_bell(params, colors, 12) == count_recurrence(params, colors, 12)
        assert peak_table(params, colors, 6).total() == count_bell(params, colors, 6)[6]
        series = count_recurrence(params, colors, 6)
        assert convolution_power_closed(
            params, colors, 3, 6
        ) == convolution_power_direct(series, 3, 6)


class TestBellRouteCost:
    """The Bell route holds two rows of the power triangle at a time,
    never the triangle, and makes one binomial per term it sums."""

    @pytest.mark.parametrize(
        "colors",
        [ColorSequence.ones(), ColorSequence.catalan_pair_sum()],
        ids=["ones", "catpair"],
    )
    def test_peak_memory_under_a_quarter_of_the_triangle(self, colors):
        N, params = 300, PathParams(1, 0)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            triangle = padded_triangle(N, colors.rational())
            size = tracemalloc.get_traced_memory()[0] - base
            del triangle
            for route in (count_bell, peak_table):
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                route(params, colors, N)
                peak = tracemalloc.get_traced_memory()[1] - base
                assert peak < size / 4, (route.__name__, peak, size)
        finally:
            tracemalloc.stop()

    def test_one_binomial_per_term(self, monkeypatch):
        calls = []

        def counted(m, r):
            calls.append((m, r))
            return comb(m, r)

        monkeypatch.setattr(counting, "comb", counted)
        params = PathParams(2, 1)
        for colors in (ColorSequence.explicit((1, 2), 3), ColorSequence.catalan_pair_sum()):
            for n in (1, 7, 30):
                del calls[:]
                peak_table(params, colors, n)
                assert len(calls) == n
                del calls[:]
                convolution_power_closed(params, colors, 3, n)
                assert len(calls) == n
                del calls[:]
                count_bell(params, colors, n)
                assert len(calls) == n * (n + 1) // 2


class TestConvolutionPowers:
    def test_identity_power(self):
        s = count_recurrence(PathParams(1, 0), ColorSequence.ones(), 6)
        for n in range(7):
            assert convolution_power_direct(s, 1, n) == s[n]

    def test_index_zero(self):
        s = count_recurrence(PathParams(2, 1), ColorSequence.constant(2), 4)
        for r in range(1, 6):
            assert convolution_power_direct(s, r, 0) == 1

    def test_catalan_square(self):
        s = count_recurrence(PathParams(1, 0), ColorSequence.ones(), 3)
        assert convolution_power_direct(s, 2, 3) == 14
        assert (
            convolution_power_closed(
                PathParams(1, 0), ColorSequence.ones(), 2, 3
            )
            == 14
        )

    def test_r_one_reduces_to_counts(self):
        params, colors = PathParams(1, 0), ColorSequence.ones()
        series = count_bell(params, colors, 6)
        for n in range(1, 7):
            assert convolution_power_closed(params, colors, 1, n) == series[n]

    def test_closed_matches_direct(self, params, colors):
        series = count_recurrence(params, colors, 6)
        for r in range(1, 7):
            for n in range(1, 7):
                assert convolution_power_closed(
                    params, colors, r, n
                ) == convolution_power_direct(series, r, n)


class TestPeakTable:
    def test_narayana_row(self):
        table = peak_table(PathParams(1, 0), ColorSequence.ones(), 3)
        assert table.row == (1, 3, 1)

    def test_narayana_row_60(self):
        table = peak_table(PathParams(1, 0), ColorSequence.ones(), 60)
        assert table.row == tuple(narayana(60, k) for k in range(1, 61))

    def test_rows_sum_to_counts(self, params, colors):
        series = count_bell(params, colors, 8)
        for n in range(1, 9):
            assert peak_table(params, colors, n).total() == series[n]

    def test_matches_enumeration_histogram(self, params, colors):
        for n in range(1, 7 // params.period + 1):
            table = peak_table(params, colors, n)
            histogram = Counter(
                peaks(w) for w in enumerate_all(params, colors, n)
            )
            assert table.row == tuple(
                histogram.get(k, 0) for k in range(1, n + 1)
            )

    def test_support_vanishes(self):
        # parts larger than 2 unavailable: no words with k < ceil(n/2)
        colors = ColorSequence.explicit((1, 1))
        for n in range(1, 9):
            table = peak_table(PathParams(1, 0), colors, n)
            for k in range(1, (n + 1) // 2):
                assert table[k] == 0

    def test_requires_positive_n(self):
        with pytest.raises(ValueError):
            peak_table(PathParams(1, 0), ColorSequence.ones(), 0)

    def test_iterates_over_its_row(self):
        # __getitem__ is 1-based, so iteration must not fall back to it
        table = peak_table(PathParams(1, 0), ColorSequence.ones(), 5)
        assert list(table) == [1, 10, 20, 10, 1]
        assert sum(table) == table.total() == 42
        assert 10 in table

    @pytest.mark.parametrize(
        "n, row, message",
        [
            (3, (1, 3), "peak table row must have length n"),
            (2, (1, -1), "counts are nonnegative"),
        ],
        ids=["length", "negative"],
    )
    def test_constructor_checks_its_row(self, n, row, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            PeakTable(n, row)

    @pytest.mark.parametrize(
        "k, message",
        [
            (0, "need 1 <= k <= n, got n=5, k=0"),
            (6, "need 1 <= k <= n, got n=5, k=6"),
            (1.5, "need an integer k, got float"),
        ],
        ids=["below", "above", "float"],
    )
    def test_peak_count_out_of_range_is_invalid_index(self, k, message):
        # the peak-count check of narayana and partial_bell_sum
        table = peak_table(PathParams(1, 0), ColorSequence.ones(), 5)
        with pytest.raises(InvalidIndex, match=f"^{re.escape(message)}$"):
            table[k]


class TestSeriesInvariants:
    def test_values_nonnegative(self, params, colors):
        s = count_recurrence(params, colors, 10)
        assert all(v >= 0 for v in s.values)
        assert s[0] == 1

    @pytest.mark.parametrize(
        "n, message",
        [
            (-1, "need n >= 0, got n=-1"),
            (slice(1, 3), "need an integer n, got slice"),
            (1.5, "need an integer n, got float"),
        ],
        ids=["negative", "slice", "float"],
    )
    def test_index_is_checked(self, n, message):
        # y_{-1} is not y_N, and a slice of counts is not a count
        series = count_recurrence(PathParams(1, 0), ColorSequence.ones(), 5)
        with pytest.raises(InvalidIndex, match=f"^{re.escape(message)}$"):
            series[n]

    @pytest.mark.parametrize(
        "values, message",
        [
            ((), "a count series must start with y_0 = 1"),
            ((2, 1), "a count series must start with y_0 = 1"),
            ((1, 2, -1), "counts are nonnegative"),
        ],
        ids=["empty", "y0", "negative"],
    )
    def test_constructor_checks_its_values(self, values, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            CountSeries(values)

    def test_index_past_N_ends_iteration(self):
        # CountSeries has no __iter__: iteration stops at the tuple's IndexError
        series = count_recurrence(PathParams(1, 0), ColorSequence.ones(), 5)
        with pytest.raises(IndexError):
            series[6]
        assert list(series) == list(series.values) == [1, 1, 2, 5, 14, 42]



class TestBoolIsNotAnIndex:
    # bool is an int subclass, but True is no size, color, count or index
    @pytest.mark.parametrize(
        "call, name",
        [
            (lambda: PathParams(True, False), "a"),
            (lambda: PathParams(1, False), "b"),
            (lambda: Rise(True), "j"),
            (lambda: Rise(1, True), "color"),
            (lambda: ColorSequence.explicit((1, True)), "c_2"),
            (lambda: ColorSequence.constant(True), "tail"),
            (lambda: ColorSequence.ones().at(True), "j"),
            (lambda: count_recurrence(PathParams(1, 0), ColorSequence.ones(), True), "N"),
            (lambda: count_recurrence(PathParams(1, 0), ColorSequence.ones(), 3)[True], "n"),
            (lambda: peak_table(PathParams(1, 0), ColorSequence.ones(), 3)[True], "k"),
        ],
        ids=["a", "b", "j", "color", "c_2", "tail", "at", "count_recurrence",
             "CountSeries", "PeakTable"],
    )
    def test_rejected(self, call, name):
        message = f"need an integer {name}, got bool"
        with pytest.raises(InvalidIndex, match=f"^{message}$"):
            call()


CATALAN_SETTING = (PathParams(1, 0), ColorSequence.ones())


class TestNonIntegerArguments:
    # An index, N, r or cap that is not an int is rejected at the call,
    # as PathParams, ColorSequence and Rise reject theirs, rather than
    # giving a wrong answer (2^0.5 colors), a TypeError from inside the
    # arithmetic, or a cap of "4.5 words".
    @pytest.mark.parametrize(
        "call",
        [
            lambda: ColorSequence.powers_of_two().at(1.5),
            lambda: ColorSequence.ones().at(2.0),
            lambda: count_recurrence(*CATALAN_SETTING, 2.0),
            lambda: count_bell(*CATALAN_SETTING, 2.0),
            lambda: peak_table(*CATALAN_SETTING, 2.0),
            lambda: convolution_power_closed(*CATALAN_SETTING, 2.0, 3),
            lambda: convolution_power_closed(*CATALAN_SETTING, 2, 3.0),
            lambda: enumerate_all(*CATALAN_SETTING, 3.0),
            lambda: enumerate_all(*CATALAN_SETTING, 3, cap=4.5),
            lambda: bell.catalan(2.0),
            lambda: bell.binomial(4.0, 2),
            lambda: sequences.narayana(4, 2.0),
            lambda: sequences.fuss_catalan(2, 3.0),
            lambda: sequences.schroeder_little(3.0),
            lambda: bell.power_rows(3.0, ((1,), 1)),
            lambda: next(weak_compositions(2.0, 2)),
        ],
        ids=["at-half", "at-whole-float", "count_recurrence", "count_bell",
             "peak_table", "convolution-r", "convolution-n", "enumerate-n",
             "enumerate-cap", "catalan", "binomial", "narayana-k",
             "fuss_catalan", "schroeder_little", "power_rows",
             "weak_compositions"],
    )
    def test_rejected_at_the_call(self, call):
        with pytest.raises(ValueError, match="integer"):
            call()

    # Every index argument below its least value raises the one error
    # of an index, InvalidIndex, which is also a ValueError.
    @pytest.mark.parametrize(
        "call",
        [
            lambda: bell.binomial(-1, 0),
            lambda: bell.catalan(-1),
            lambda: bell.power_rows(-1, ((1,), 1)),
            lambda: count_recurrence(*CATALAN_SETTING, -1),
            lambda: count_bell(*CATALAN_SETTING, -1),
            lambda: convolution_power_closed(*CATALAN_SETTING, 0, 3),
            lambda: convolution_power_closed(*CATALAN_SETTING, 2, 0),
            lambda: peak_table(*CATALAN_SETTING, 0),
            lambda: ColorSequence.ones().at(0),
            lambda: enumerate_all(*CATALAN_SETTING, -1),
            lambda: enumerate_all(*CATALAN_SETTING, 3, cap=-1),
            lambda: next(weak_compositions(-1, 2)),
            lambda: next(weak_compositions(2, -1)),
            lambda: sequences.narayana(3, -1),
            lambda: sequences.motzkin_colored(1, 1, -1),
            lambda: sequences.schroeder_little(0),
            lambda: sequences.fuss_catalan(0, 3),
            lambda: sequences.fuss_catalan(2, -1),
            lambda: sequences.fuss_catalan_peaks(2, 3, -1),
            lambda: sequences.a052709_closed(0),
            lambda: sequences.a186997_closed(0),
            lambda: sequences.duchon_d(0),
            lambda: sequences.duchon_alt(0),
        ],
        ids=["binomial", "catalan", "power_rows", "count_recurrence",
             "count_bell", "convolution-r", "convolution-n", "peak_table",
             "at", "enumerate-n", "enumerate-cap", "compositions-total",
             "compositions-parts", "narayana", "motzkin_colored",
             "schroeder_little", "fuss_catalan-m", "fuss_catalan-n",
             "fuss_catalan_peaks", "a052709_closed", "a186997_closed",
             "duchon_d", "duchon_alt"],
    )
    def test_below_range_is_invalid_index(self, call):
        with pytest.raises(InvalidIndex) as caught:
            call()
        assert isinstance(caught.value, ValueError)
