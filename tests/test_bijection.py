import operator
import random
import re
import tracemalloc
from itertools import accumulate, chain, islice
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colored_dyck import (
    DOWN,
    ColoredDyckWord,
    ColorSequence,
    DecompositionTuple,
    PathParams,
    Rise,
    compose,
    decompose,
    enumerate_all,
    parse_steps,
    peaks,
    to_steps,
    validate_colors,
)
from colored_dyck import bijection
from colored_dyck.bijection import weak_compositions
from colored_dyck.counting import count_recurrence
from colored_dyck.errors import (
    ColorOutOfRange,
    EmptyWord,
    InvalidTuple,
    MalformedWord,
    NotDyck,
    ResourceLimit,
)
from colored_dyck.model import _block_net, _check_color, _step_texts
from conftest import HUGE, HUGE_TEXT, needs_int_digit_limit, random_block_word


ONES = ColorSequence.ones()


def assert_like_checked(w):
    """w equals, hashes like and has the index of the checked
    construction from its own blocks."""
    checked = ColoredDyckWord(w.params, w.blocks)
    assert w == checked
    assert hash(w) == hash(checked)
    assert w.n == checked.n


class TestWeakCompositions:
    def test_lexicographic(self):
        assert list(weak_compositions(2, 2)) == [(0, 2), (1, 1), (2, 0)]

    def test_counts(self):
        from math import comb

        for total in range(6):
            for parts in range(1, 5):
                got = list(weak_compositions(total, parts))
                assert len(got) == comb(total + parts - 1, parts - 1)
                assert got == sorted(got)

    def test_order_of_the_recursive_definition(self):
        def recursive(total, parts):
            if parts == 0:
                return [()] if total == 0 else []
            return [(first,) + rest for first in range(total + 1)
                    for rest in recursive(total - first, parts - 1)]

        for total in range(10):
            for parts in range(8):
                assert list(weak_compositions(total, parts)) == recursive(total, parts)

    def test_many_parts_need_no_deep_recursion(self):
        assert list(weak_compositions(0, 5000)) == [(0,) * 5000]
        assert len(list(weak_compositions(1, 5000))) == 5000


def sums_of_parts(support, parts):
    """rows[q][s]: whether s <= len(support) - 1 is the sum of q parts
    p with support[p], for q < max(parts, 2); rows[1] is support."""
    rows = [[s == 0 for s in range(len(support))]]
    for _ in range(1, max(parts, 2)):
        below = rows[-1]
        rows.append([
            any(support[p] and below[s - p] for p in range(s + 1))
            for s in range(len(support))
        ])
    return rows


class TestCompositionsWithWords:
    """bijection._compositions lists the weak compositions whose parts
    all have words, pruned by the walk's forest table, and is checked
    against weak_compositions filtered to those parts."""

    @staticmethod
    def filtered(total, parts, support):
        with_words = {p for p, has in enumerate(support) if has}
        return [c for c in weak_compositions(total, parts) if with_words.issuperset(c)]

    @settings(max_examples=300, deadline=None)
    @given(st.sets(st.integers(1, 12)), st.integers(0, 12), st.integers(1, 6))
    def test_equals_weak_compositions_filtered(self, with_words, total, parts):
        support = [p == 0 or p in with_words for p in range(total + 1)]
        got = bijection._compositions(total, parts, sums_of_parts(support, parts))
        assert list(got) == self.filtered(total, parts, support)

    @pytest.mark.parametrize(
        "with_words, total, parts",
        [({2}, 3, 1), ({2}, 2, 1), ({2, 3}, 5, 2), ({3, 5}, 4, 3), ({1, 4}, 12, 6)],
    )
    def test_one_part_and_no_composition(self, with_words, total, parts):
        support = [p == 0 or p in with_words for p in range(total + 1)]
        got = list(bijection._compositions(total, parts, sums_of_parts(support, parts)))
        assert got == self.filtered(total, parts, support)

    @pytest.mark.parametrize("total, one_has_words", [(0, False), (1, False), (1, True)])
    def test_1500_parts_need_no_recursion(self, total, one_has_words):
        support = [True, one_has_words][: total + 1]
        got = list(bijection._compositions(total, 1500, sums_of_parts(support, 1500)))
        assert got == self.filtered(total, 1500, support)
        assert len(got) == (1 if total == 0 else 1500 * one_has_words)


class TestForestCounts:
    def test_y_is_the_recurrence_and_each_row_its_power(self, params, colors):
        # two implementations of y_m = sum_l c_l [x^(m-l)] y^(a l + b):
        # the walk's forest table and count_recurrence; row r of the
        # table is [x^s] y^r as far as it is filled
        forests = next(islice(bijection._forests(params, colors.at, 30), 30, None))
        y = forests[1]
        assert y == list(count_recurrence(params, colors, 30).values)
        power = [1] + [0] * 30
        for row in forests[1:]:
            power = [sum(map(mul, y, power[s::-1])) for s in range(31)]
            assert row == power[: len(row)]
        # row a*l + b is filled to s = 30 - l, what index 30 reads
        for ell in range(1, 31):
            if params.a * ell + params.b < len(forests):
                assert len(forests[params.a * ell + params.b]) >= 31 - ell


class TestCompose:
    def test_minimal_word(self):
        t = DecompositionTuple(1, 1, (ColoredDyckWord(PathParams(1, 0), ()),))
        w = compose(t, PathParams(1, 0), ONES)
        assert to_steps(w) == "u[1]d"

    def test_with_nonempty_child(self):
        params = PathParams(1, 0)
        child = parse_steps("ud", params, ONES)
        t = DecompositionTuple(2, 1, (ColoredDyckWord(params, ()), child))
        w = compose(t, params, ONES)
        assert w.blocks == (Rise(2, 1), DOWN, Rise(1, 1))
        assert to_steps(w) == "uu[1]ddu[1]d"

    def test_figure_like_shape(self):
        # a=5, b=0, ell=1: five children, one empty in the middle
        params = PathParams(5, 0)
        colors = ColorSequence.ones()
        empty = ColoredDyckWord(params, ())
        child = compose(
            DecompositionTuple(1, 1, (empty,) * 5), params, colors
        )
        t = DecompositionTuple(
            1, 1, (child, empty, empty, child, empty)
        )
        w = compose(t, params, colors)
        text = to_steps(w).replace("[1]", "")
        assert text.startswith("u" * 5 + "d")
        assert decompose(w, params, colors) == t

    def test_wrong_child_count(self):
        with pytest.raises(InvalidTuple):
            compose(
                DecompositionTuple(1, 1, ()), PathParams(1, 0), ONES
            )

    def test_color_out_of_range(self):
        empty = ColoredDyckWord(PathParams(1, 0), ())
        with pytest.raises(InvalidTuple):
            compose(
                DecompositionTuple(1, 2, (empty,)), PathParams(1, 0), ONES
            )

    @needs_int_digit_limit
    def test_huge_head_color(self):
        empty = ColoredDyckWord(PathParams(1, 0), ())
        message = f"color {HUGE_TEXT} out of range (c_1 = 1)"
        with pytest.raises(InvalidTuple, match=f"^{re.escape(message)}$"):
            compose(DecompositionTuple(1, HUGE, (empty,)), PathParams(1, 0), ONES)

    @needs_int_digit_limit
    def test_huge_head_size(self):
        message = f"need {HUGE_TEXT} children for ell={HUGE_TEXT}, got 0"
        with pytest.raises(InvalidTuple, match=f"^{re.escape(message)}$"):
            compose(DecompositionTuple(HUGE, 1, ()), PathParams(1, 0), ONES)

    def test_child_of_other_params(self):
        # u[1]d under (0, 1) is also a valid (1, 0) block sequence, but
        # decompose would return it with (1, 0) params: not the input.
        child = ColoredDyckWord(PathParams(0, 1), (Rise(1, 1),))
        message = "child 0 is built for (a, b) = (0, 1), not (1, 0)"
        with pytest.raises(InvalidTuple, match=f"^{re.escape(message)}$"):
            compose(DecompositionTuple(1, 1, (child,)), PathParams(1, 0), ONES)

    @needs_int_digit_limit
    def test_child_of_huge_params(self):
        child = ColoredDyckWord(PathParams(HUGE, 0), ())
        message = f"child 0 is built for (a, b) = ({HUGE_TEXT}, 0), not (1, 0)"
        with pytest.raises(InvalidTuple, match=f"^{re.escape(message)}$"):
            compose(DecompositionTuple(1, 1, (child,)), PathParams(1, 0), ONES)

    @pytest.mark.parametrize(
        "ell, color", [(1.0, 1), (1, 1.0), ("1", 1), (1, None), (True, 1), (1, True)]
    )
    def test_non_integer_head(self, ell, color):
        # a bool is an int subclass, but no size or color
        empty = ColoredDyckWord(PathParams(1, 0), ())
        with pytest.raises(InvalidTuple, match="^ell and color must be integers$"):
            compose(DecompositionTuple(ell, color, (empty,)), PathParams(1, 0), ONES)

    @pytest.mark.parametrize("ell, color", [(0, 1), (1, 0), (-1, 1), (1, -2)])
    def test_non_positive_head(self, ell, color):
        with pytest.raises(InvalidTuple, match="^ell and color must be positive$"):
            DecompositionTuple(ell, color, ())

    @pytest.mark.parametrize("children", [None, 3])
    def test_children_not_iterable(self, children):
        with pytest.raises(InvalidTuple, match="^children must be an iterable of words$"):
            DecompositionTuple(1, 1, children)

    def test_child_not_a_word(self):
        with pytest.raises(InvalidTuple):
            compose(DecompositionTuple(1, 1, ((),)), PathParams(1, 0), ONES)

    def test_first_bad_child_rise_is_reported(self):
        params = PathParams(1, 0)
        first = ColoredDyckWord(params, (Rise(2, 1), DOWN, Rise(1, 3)))
        second = ColoredDyckWord(params, (Rise(1, 4),))
        t = DecompositionTuple(2, 1, (second, first))
        with pytest.raises(ColorOutOfRange, match="color 4 out of range"):
            compose(t, params, ColorSequence.constant(2))


def block_by_block_decompose(w, params, colors):
    """The excess procedure one block at a time: each child's blocks
    gathered into a list, each block's net from _block_net."""
    head = w.blocks[0]
    _check_color(head.j, head.color, colors)
    children, current, balance = [], [], 0
    for block in w.blocks[1:]:
        if isinstance(block, Rise):
            _check_color(block.j, block.color, colors)
        elif balance == 0:
            children.append(ColoredDyckWord(params, current))
            current = []
            continue
        current.append(block)
        balance += _block_net(block, params)
    children.append(ColoredDyckWord(params, current))
    return DecompositionTuple(head.j, head.color, tuple(children))


class TestDecompose:
    def test_same_tuple_as_block_by_block(self):
        # children of up to 3000 rises over 10^5 colors, and down steps
        # that are fresh DownStep() instances, which stay in the children
        rng = random.Random(24)
        colors = ColorSequence.explicit((2, 0, 10**5))
        all_params = [PathParams(a, b) for a, b in [(1, 0), (0, 1), (0, 2), (2, 1), (3, 0)]]
        for _ in range(80):
            params = rng.choice(all_params)
            w = random_block_word(
                rng, params, colors, rng.randint(1, 3000), rng.choice([(3,), (1, 3)])
            )
            got = decompose(w, params, colors)
            expected = block_by_block_decompose(w, params, colors)
            assert got == expected
            for child, want in zip(got.children, expected.children):
                assert type(child.blocks) is tuple
                assert all(map(operator.is_, child.blocks, want.blocks))

    def test_minimal(self):
        params = PathParams(1, 0)
        t = decompose(parse_steps("ud", params, ONES), params, ONES)
        assert (t.ell, t.color) == (1, 1)
        assert t.children == (ColoredDyckWord(params, ()),)

    def test_semilength_two_words(self):
        params = PathParams(1, 0)
        t = decompose(parse_steps("udud", params, ONES), params, ONES)
        assert t.ell == 1
        assert to_steps(t.children[0]) == "u[1]d"
        t = decompose(parse_steps("uudd", params, ONES), params, ONES)
        assert t.ell == 2
        assert t.children == (
            ColoredDyckWord(params, ()),
            ColoredDyckWord(params, ()),
        )

    def test_empty_word_rejected(self):
        params = PathParams(1, 0)
        with pytest.raises(EmptyWord):
            decompose(ColoredDyckWord(params, ()), params, ONES)

    @needs_int_digit_limit
    def test_huge_head_color(self):
        params = PathParams(1, 0)
        w = ColoredDyckWord(params, (Rise(1, HUGE),))
        message = f"color {HUGE_TEXT} out of range for ascent size 1 (c_1 = 1)"
        with pytest.raises(ColorOutOfRange, match=f"^{re.escape(message)}$"):
            decompose(w, params, ONES)

    def test_word_of_other_params(self):
        # (Rise(1, 1),) balances under (0, 1) but not under (1, 0)
        w = ColoredDyckWord(PathParams(0, 1), (Rise(1, 1),))
        message = "word is built for (a, b) = (0, 1), not (1, 0)"
        with pytest.raises(MalformedWord, match=f"^{re.escape(message)}$"):
            decompose(w, PathParams(1, 0), ONES)

    @needs_int_digit_limit
    def test_word_of_huge_params(self):
        w = ColoredDyckWord(PathParams(0, HUGE), ())
        message = f"word is built for (a, b) = (0, {HUGE_TEXT}), not (1, 0)"
        with pytest.raises(MalformedWord, match=f"^{re.escape(message)}$"):
            decompose(w, PathParams(1, 0), ONES)

    def test_every_checked_word_factors(self):
        # random block tuples: each one the checked constructor accepts
        # decomposes into a*ell+b children and composes back
        rng = random.Random(10)
        colors = ColorSequence.constant(2)
        blocks = [DOWN] + [Rise(j, c) for j in (1, 2, 3) for c in (1, 2)]
        all_params = [PathParams(a, b) for a, b in
                      [(1, 0), (0, 1), (2, 0), (0, 2), (1, 1), (2, 1), (1, 2), (3, 0)]]
        factored = 0
        for _ in range(20000):
            params = rng.choice(all_params)
            items = rng.choices(blocks, k=rng.randint(1, 10))
            try:
                w = ColoredDyckWord(params, items)
            except NotDyck:
                continue
            t = decompose(w, params, colors)
            assert len(t.children) == params.a * t.ell + params.b
            assert compose(t, params, colors) == w
            factored += 1
        assert factored > 1000

    def test_color_errors_match_validate_colors(self):
        # decompose, and compose after its head check, name the first
        # rise out of range, as validate_colors does
        rng = random.Random(11)
        colors = ColorSequence.explicit((2, 1), tail=1)
        blocks = [DOWN] + [Rise(j, c) for j in (1, 2) for c in (1, 2, 3)]
        params = PathParams(1, 0)
        bad = 0
        for _ in range(20000):
            try:
                w = ColoredDyckWord(params, rng.choices(blocks, k=rng.randint(1, 10)))
            except NotDyck:
                continue
            try:
                validate_colors(w, colors)
                continue
            except ColorOutOfRange as exc:
                expected = str(exc)
            bad += 1
            with pytest.raises(ColorOutOfRange) as got:
                decompose(w, params, colors)
            assert str(got.value) == expected
            t = decompose(w, params, ColorSequence.constant(3))
            if t.color > colors.at(t.ell):
                with pytest.raises(InvalidTuple):
                    compose(t, params, colors)
                continue
            with pytest.raises(ColorOutOfRange) as got:
                compose(t, params, colors)
            assert str(got.value) == expected
        assert bad > 1000

    def test_excess_bookkeeping(self, params):
        # after the head block, each child closes with one separator,
        # so the child count always equals a*ell + b
        colors = ColorSequence.constant(2)
        for n in range(1, 7 // params.period + 1):
            for w in enumerate_all(params, colors, n):
                t = decompose(w, params, colors)
                assert len(t.children) == params.a * t.ell + params.b
                assert sum(c.n for c in t.children) == w.n - t.ell


class TestEnumeration:
    def test_index_zero(self):
        words = enumerate_all(PathParams(1, 0), ONES, 0)
        assert words == (ColoredDyckWord(PathParams(1, 0), ()),)

    def test_narayana_histogram(self):
        from collections import Counter

        words = enumerate_all(PathParams(1, 0), ONES, 3)
        assert len(words) == 5
        histogram = Counter(peaks(w) for w in words)
        assert [histogram[k] for k in (1, 2, 3)] == [1, 3, 1]

    def test_a052709_words(self):
        params = PathParams(0, 2)
        colors = ColorSequence.explicit((1, 1))
        words = enumerate_all(params, colors, 2)
        texts = sorted(to_steps(w).replace("[1]", "") for w in words)
        assert texts == ["uudduudd", "uuduuddd", "uuuudddd"]

    def test_deterministic_order(self, params, colors):
        n = min(3, 7 // params.period)
        first = enumerate_all(params, colors, n)
        second = enumerate_all(params, colors, n)
        assert first == second

    def test_no_duplicates(self, params, colors):
        for n in range(7 // params.period + 1):
            words = enumerate_all(params, colors, n)
            assert len(set(words)) == len(words)

    def test_cap(self):
        with pytest.raises(ResourceLimit):
            enumerate_all(PathParams(1, 0), ONES, 6, cap=10)

    def test_cap_counts_the_empty_word(self):
        assert enumerate_all(PathParams(1, 0), ONES, 0, cap=1) == (
            ColoredDyckWord(PathParams(1, 0), ()),
        )
        with pytest.raises(ResourceLimit, match="more than 0 words at index 0"):
            enumerate_all(PathParams(1, 0), ONES, 0, cap=0)

    def test_cap_counts_every_color(self):
        # y_3 = 11 under c_j = 2^(j-1); only 5 of them use color 1 alone
        pow2 = ColorSequence.powers_of_two()
        assert len(enumerate_all(PathParams(1, 0), pow2, 3, cap=11)) == 11
        with pytest.raises(ResourceLimit, match="more than 10 words at index 3"):
            enumerate_all(PathParams(1, 0), pow2, 3, cap=10)

    def test_head_without_children_is_not_walked_per_color(self):
        # c_2 = 10^12, but with c_1 = 0 no word of index 3 has head size
        # 2 (its children sum to 1); index 3 has no words at all
        colors = ColorSequence.explicit((0, 10**12))
        assert enumerate_all(PathParams(1, 0), colors, 3) == ()
        with pytest.raises(ResourceLimit, match="at index 2"):
            enumerate_all(PathParams(1, 0), colors, 4)

    def test_deep_chain_of_indices_needs_no_recursion(self):
        # at (0, 1) with c_1 = 0 every head has one child two indices
        # lower: the one word of index 1200 nests 600 levels deep
        colors = ColorSequence.explicit((0, 1))
        words = enumerate_all(PathParams(0, 1), colors, 1200)
        assert [w.blocks for w in words] == [(Rise(2, 1),) * 600]

    def test_first_word_comes_before_the_memo(self):
        # the first word of index 14 under (1, 0), c_j = 1, is a chain
        # of size-1 heads with one child each: it goes out before the
        # 742,900 words of index 13 are built, which take about 80 MB
        params = PathParams(1, 0)
        tracemalloc.start()
        try:
            rises, groups = bijection._walk(params, ONES, 14, cap=10**7)
            head, tails = next(groups)
            tail = next(tails)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        blocks = head + tuple(rises[ord(code)] for code in tail)
        assert "".join(_step_texts(params, blocks)) == "u[1]d" * 14

    def test_chain_links_leave_the_memo_once_read(self):
        # each link of the chain at (0, 1), c = (0, 1) is read once, by
        # the link above it: holding all 1500 links below index 3000,
        # up to 1499 codes each, peaks near 1.8 MB
        params, colors = PathParams(0, 1), ColorSequence.explicit((0, 1))
        tracemalloc.start()
        try:
            rises, groups = bijection._walk(
                params, colors, 3000, bijection.DEFAULT_ENUMERATION_CAP
            )
            listed = [(head, [*tails]) for head, tails in groups]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        [(head, [tail])] = listed
        blocks = head + tuple(rises[ord(code)] for code in tail)
        [word] = enumerate_all(params, colors, 3000)
        assert blocks == word.blocks == (Rise(2, 1),) * 1500

    @pytest.mark.parametrize("prefix", [(0, 1, 1), (0, 0, 1, 2), (0, 1, 0, 3)])
    def test_chains_with_several_head_sizes(self, prefix):
        # at (0, 1) with c_1 = 0 every head has one child, so index m
        # reads m - 2, m - 3, ...: a link leaves the memo only once the
        # largest such head above it is built
        params, colors = PathParams(0, 1), ColorSequence.explicit(prefix)
        counts = count_recurrence(params, colors, 30)
        for n in range(31):
            if counts[n] <= 3000:
                words = enumerate_all(params, colors, n)
                assert len(set(words)) == len(words) == counts[n]
                for w in words:
                    assert_like_checked(w)
                    validate_colors(w, colors)

    @pytest.mark.parametrize(
        "colors",
        [ColorSequence.explicit((0, 1)), ColorSequence.explicit((0, 1) + (0,) * 1000)],
        ids=["0,1", "0,1+1000-zeros"],
    )
    def test_heads_stop_at_the_last_color(self, monkeypatch, colors):
        # c_l = 0 past the last nonzero color of a tail-0 prefix, so no
        # head size past it is read, however many zeros the prefix ends
        # with: about 2 reads per needed index, not one per head size
        reads = []
        at = ColorSequence.at

        def counted(self, j):
            reads.append(j)
            return at(self, j)

        monkeypatch.setattr(ColorSequence, "at", counted)
        words = enumerate_all(PathParams(0, 1), colors, 600)
        assert [w.blocks for w in words] == [(Rise(2, 1),) * 300]
        assert max(reads) == 2
        assert len(reads) <= 4 * 600

    def test_long_chain_stops_at_the_cap(self):
        colors = ColorSequence.explicit((0, 2))
        with pytest.raises(ResourceLimit, match="more than 1000000 words at index 18$"):
            enumerate_all(PathParams(1, 0), colors, 2001)

    def test_lowest_index_over_the_cap_is_reported(self):
        # index 2 has the word of Rise(2, 1); index 3 (Rise(3, 1)) and
        # index 5 are both over the cap too
        colors = ColorSequence.explicit((0, 1), tail=1)
        with pytest.raises(ResourceLimit, match="more than 0 words at index 2$"):
            enumerate_all(PathParams(1, 0), colors, 5, cap=0)

    def test_index_no_word_can_hold_is_not_counted(self):
        # index 3 has 100 words, over the cap, but a word of index 4
        # holds children of indices summing to 2 (head size 2) or 1
        # (head size 3), never 3
        colors = ColorSequence.explicit((0, 1, 100))
        words = enumerate_all(PathParams(1, 0), colors, 4, cap=50)
        assert len(words) == 2

    def test_only_the_chain_below_n_is_built(self):
        # at (0, 1) with c = (0, 5) a word of odd index n holds a child
        # of index n - 2 only; even index 20 (5^10 words) is never built
        colors = ColorSequence.explicit((0, 5))
        assert enumerate_all(PathParams(0, 1), colors, 21) == ()

    def test_heads_of_index_n_take_no_code(self, monkeypatch):
        # with no code but the down step's, index 1 is still listed
        monkeypatch.setattr(bijection, "_CODE_LIMIT", 1)
        words = enumerate_all(PathParams(1, 0), ColorSequence.constant(5), 1)
        assert [w.blocks for w in words] == [(Rise(1, c),) for c in range(1, 6)]

    def test_codes_past_the_limit(self, monkeypatch):
        # below index 3, pow2 has Rise(1, 1), Rise(2, 1) and Rise(2, 2)
        pow2 = ColorSequence.powers_of_two()
        monkeypatch.setattr(bijection, "_CODE_LIMIT", 4)
        assert len(enumerate_all(PathParams(1, 0), pow2, 3)) == 11
        monkeypatch.setattr(bijection, "_CODE_LIMIT", 3)
        with pytest.raises(
            ResourceLimit, match="more than 2 distinct rise blocks below index 3"
        ):
            enumerate_all(PathParams(1, 0), pow2, 3)

    def test_words_equal_checked_construction(self, params, colors):
        # enumerate_all builds its words without the structural walk
        # and without validate_colors; both checks must still hold.
        for n in range(7 // params.period + 1):
            for w in enumerate_all(params, colors, n):
                assert_like_checked(w)
                validate_colors(w, colors)


class TestRoundTrips:
    def test_blocks_then_down_are_the_preorder_sequence(self, params, colors):
        # A word's blocks followed by one DOWN are its decomposition
        # tree in preorder: the head, then each child's own blocks and
        # one DOWN (the empty child is DOWN alone, a leaf).  A rise of
        # size j weighs a*j+b-1, its children less one, and DOWN -1,
        # so the sequence is Lukasiewicz: every proper prefix sums to
        # at least 0, and the whole to -1.
        n_max = 5 if params.a + params.b <= 2 else 3
        for n in range(1, n_max + 1):
            for w in enumerate_all(params, colors, n):
                seq = (*w.blocks, DOWN)
                t = decompose(w, params, colors)
                subtrees = [(*child.blocks, DOWN) for child in t.children]
                assert seq == (Rise(t.ell, t.color), *chain.from_iterable(subtrees))
                *prefixes, whole = accumulate(_block_net(block, params) for block in seq)
                assert min(prefixes) >= 0 and whole == -1

    def test_word_tuple_word(self, params, colors):
        for n in range(1, 7 // params.period + 1):
            for w in enumerate_all(params, colors, n):
                t = decompose(w, params, colors)
                for child in t.children:
                    assert_like_checked(child)
                again = compose(t, params, colors)
                assert again == w
                assert_like_checked(again)

    def test_tuple_word_tuple(self, params, colors):
        a, b = params.a, params.b
        n_max = 7 // params.period
        for ell in range(1, n_max + 1):
            for color in range(1, colors.at(ell) + 1):
                r = a * ell + b
                for rest in weak_compositions(n_max - ell, r):
                    children = tuple(
                        enumerate_all(params, colors, i)[0] for i in rest
                    )
                    t = DecompositionTuple(ell, color, children)
                    w = compose(t, params, colors)
                    assert_like_checked(w)
                    again = decompose(w, params, colors)
                    assert again == t
                    for child in again.children:
                        assert_like_checked(child)
