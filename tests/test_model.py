import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colored_dyck import (
    DOWN,
    ColoredDyckWord,
    ColorSequence,
    PathParams,
    Rise,
    parse_steps,
    peaks,
    semilength,
    to_steps,
    validate_colors,
)
from colored_dyck.bijection import enumerate_all
from colored_dyck.errors import (
    BadAscent,
    ColorOutOfRange,
    MalformedAnnotation,
    MalformedWord,
    NotDyck,
    TruncatedDescent,
)


class TestColorSequence:
    def test_ones(self):
        assert ColorSequence.ones().at(7) == 1

    def test_powers_of_two(self):
        assert ColorSequence.powers_of_two().at(3) == 4

    def test_catalan_pair_sum(self):
        # C_1 + C_2 = 1 + 2
        assert ColorSequence.catalan_pair_sum().at(2) == 3

    def test_explicit_with_tail(self):
        c = ColorSequence.explicit((2, 0, 1), tail=5)
        assert [c.at(j) for j in (1, 2, 3, 4, 9)] == [2, 0, 1, 5, 5]

    def test_constant(self):
        assert ColorSequence.constant(4).at(11) == 4

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            ColorSequence.explicit((1, -1))


class TestPathParams:
    def test_requires_positive_sum(self):
        with pytest.raises(ValueError):
            PathParams(0, 0)

    def test_requires_nonnegative(self):
        with pytest.raises(ValueError):
            PathParams(-1, 2)

    def test_descent_run(self):
        assert PathParams(0, 2).descent_run(2) == 3
        assert PathParams(1, 0).descent_run(5) == 1


class TestWordStructure:
    def test_empty_word(self):
        w = ColoredDyckWord(PathParams(1, 0), ())
        assert w.n == 0
        assert peaks(w) == 0
        assert semilength(w) == 0
        assert to_steps(w) == ""

    def test_down_first_rejected(self):
        with pytest.raises(NotDyck):
            ColoredDyckWord(PathParams(1, 0), (DOWN,))

    def test_unbalanced_rejected(self):
        with pytest.raises(NotDyck):
            ColoredDyckWord(PathParams(1, 0), (Rise(2, 1),))

    @pytest.mark.parametrize("item", ["x", None, 1, (Rise(1, 1),)])
    def test_non_block_rejected(self, item):
        # read as a down step, "x" would balance Rise(1) under (2, 0)
        with pytest.raises(MalformedWord):
            ColoredDyckWord(PathParams(2, 0), (Rise(1, 1), item))

    def test_down_step_repr(self):
        assert repr(DOWN) == "DownStep()"

    def test_semilength_examples(self):
        w = ColoredDyckWord(PathParams(1, 2), (Rise(1, 1), DOWN, DOWN))
        assert semilength(w) == 3
        w = ColoredDyckWord(PathParams(5, 0), (Rise(1, 1),) + (DOWN,) * 4)
        assert semilength(w) == 5

    def test_peaks_counts_rises(self):
        w = ColoredDyckWord(
            PathParams(1, 0),
            (Rise(3, 1), Rise(1, 1), DOWN, Rise(2, 1), DOWN, DOWN),
        )
        assert peaks(w) == 3

    def test_color_validation_is_separate(self):
        w = ColoredDyckWord(PathParams(1, 0), (Rise(2, 2), DOWN))
        with pytest.raises(ColorOutOfRange):
            validate_colors(w, ColorSequence.ones())


class TestSerialization:
    def test_to_steps_simple(self):
        w = ColoredDyckWord(PathParams(1, 0), (Rise(2, 1), DOWN))
        assert to_steps(w) == "uu[1]dd"

    def test_to_steps_b_nonzero(self):
        w = ColoredDyckWord(PathParams(0, 2), (Rise(2, 1), DOWN))
        assert to_steps(w) == "uuuu[1]dddd"

    def test_parse_simple(self):
        w = parse_steps("uud[1]d", PathParams(1, 0), ColorSequence.ones())
        assert w.blocks == (Rise(2, 1), DOWN)

    def test_parse_boundary_annotation(self):
        w = parse_steps("uu[1]dd", PathParams(1, 0), ColorSequence.ones())
        assert w.blocks == (Rise(2, 1), DOWN)

    def test_parse_default_color(self):
        w = parse_steps("uudd", PathParams(1, 0), ColorSequence.ones())
        assert w.blocks == (Rise(2, 1), DOWN)

    def test_parse_not_dyck(self):
        with pytest.raises(NotDyck):
            parse_steps("uudud", PathParams(1, 0), ColorSequence.ones())

    def test_parse_prefix_violation(self):
        with pytest.raises(NotDyck):
            parse_steps("udduud", PathParams(1, 0), ColorSequence.ones())

    def test_parse_bad_ascent(self):
        with pytest.raises(BadAscent):
            parse_steps("uuud[1]dd", PathParams(2, 0), ColorSequence.ones())

    def test_parse_truncated_descent(self):
        # size-2 block for b=2 needs three d's before the next ascent
        with pytest.raises(TruncatedDescent):
            parse_steps(
                "uuuudduudddd", PathParams(0, 2), ColorSequence.ones()
            )

    def test_parse_color_out_of_range(self):
        with pytest.raises(ColorOutOfRange):
            parse_steps("uu[2]dd", PathParams(1, 0), ColorSequence.ones())

    def test_parse_zero_colors_rejected(self):
        with pytest.raises(ColorOutOfRange):
            parse_steps(
                "uudd", PathParams(1, 0), ColorSequence.explicit((1,))
            )

    def test_parse_color_before_later_truncation(self):
        # the bad color of the first rise is met before the truncated
        # descent of the later size-2 rise
        with pytest.raises(ColorOutOfRange):
            parse_steps("u[2]duu[1]uddd", PathParams(1, 0), ColorSequence.ones())

    def test_parse_letter_balance_before_grammar(self):
        # unbalanced and truncated: the letter balance is checked first
        with pytest.raises(NotDyck):
            parse_steps("uu[1]", PathParams(1, 0), ColorSequence.ones())

    def test_parse_bad_character(self):
        with pytest.raises(MalformedAnnotation):
            parse_steps("uxdd", PathParams(1, 0), ColorSequence.ones())

    def test_parse_misplaced_annotation(self):
        with pytest.raises(MalformedAnnotation):
            parse_steps("[1]uudd", PathParams(1, 0), ColorSequence.ones())

    @pytest.mark.parametrize("text", ["u[0]d", "ud[0]"])
    def test_parse_zero_annotation(self, text):
        # at the ascent/descent boundary, and after the descent run
        with pytest.raises(MalformedAnnotation, match="must be positive"):
            parse_steps(text, PathParams(1, 0), ColorSequence.constant(3))

    @pytest.mark.parametrize(
        "text",
        # [k] takes ASCII digits only (not Arabic-Indic, fullwidth or
        # Devanagari ones), and a lone or empty bracket is no annotation
        ["u[\u0662]d", "u[\uff12]d", "u[\u0967]d", "ud[\u0662]", "u[d", "u[]d", "ud["],
    )
    def test_parse_malformed_annotation(self, text):
        with pytest.raises(MalformedAnnotation, match="unexpected character"):
            parse_steps(text, PathParams(1, 0), ColorSequence.constant(3))


class TestRoundTrip:
    def test_round_trip_grid(self, params, colors):
        bound = 5 if params.period == 1 else 7 // params.period
        for n in range(bound + 1):
            for w in enumerate_all(params, colors, n):
                again = parse_steps(to_steps(w), params, colors)
                assert again == w

    def test_parse_uniqueness_by_reexpansion(self, params):
        colors = ColorSequence.constant(2)
        bound = 4 if params.period == 1 else 6 // params.period
        for n in range(bound + 1):
            for w in enumerate_all(params, colors, n):
                text = to_steps(w)
                assert to_steps(parse_steps(text, params, colors)) == text

    def test_peak_bounds(self, params):
        colors = ColorSequence.ones()
        bound = 5 if params.period == 1 else 7 // params.period
        for n in range(bound + 1):
            for w in enumerate_all(params, colors, n):
                assert peaks(w) <= w.n
                assert (peaks(w) == 0) == (w.n == 0)

    def test_maximal_ascent_shape(self, params):
        import re

        colors = ColorSequence.ones()
        bound = 4 if params.period == 1 else 6 // params.period
        for n in range(bound + 1):
            for w in enumerate_all(params, colors, n):
                text = to_steps(w).replace("[1]", "")
                for m in re.finditer(r"u+", text):
                    length = len(m.group())
                    assert length % params.period == 0
                    j = length // params.period
                    following = re.match(r"d+", text[m.end():])
                    assert following is not None
                    assert len(following.group()) >= params.descent_run(j)


def _reference_steps(word):
    """The serializer spelled out block by block, for comparison."""
    p = word.params
    parts = []
    for block in word.blocks:
        if isinstance(block, Rise):
            parts.append("u" * (p.period * block.j))
            parts.append(f"[{block.color}]")
            parts.append("d" * p.descent_run(block.j))
        else:
            parts.append("d")
    return "".join(parts)


ROUND_TRIP_PARAMS = [PathParams(1, 0), PathParams(0, 1), PathParams(0, 2),
                     PathParams(2, 1), PathParams(1, 2), PathParams(3, 0)]
ROUND_TRIP_COLORS = [
    ColorSequence.ones(),
    ColorSequence.powers_of_two(),
    ColorSequence.explicit((1, 1)),
    ColorSequence.explicit((2, 0, 1)),
    ColorSequence.constant(3),
]


@st.composite
def block_words(draw):
    """A random valid word: rises of any allowed size and color, down
    steps wherever the prefix stays nonnegative, closed by down steps."""
    params = draw(st.sampled_from(ROUND_TRIP_PARAMS))
    colors = draw(st.sampled_from(ROUND_TRIP_COLORS))
    sizes = [j for j in range(1, 6) if colors.at(j) >= 1]
    blocks, balance = [], 0
    for _ in range(draw(st.integers(0, 25))):
        if balance > 0 and draw(st.booleans()):
            blocks.append(DOWN)
            balance -= 1
        else:
            j = draw(st.sampled_from(sizes))
            blocks.append(Rise(j, draw(st.integers(1, colors.at(j)))))
            balance += params.period * j - params.descent_run(j)
    blocks.extend([DOWN] * balance)
    return ColoredDyckWord(params, tuple(blocks)), colors


class TestStepsProperty:
    @settings(max_examples=300, deadline=None)
    @given(block_words())
    def test_serialize_parse_round_trip(self, case):
        w, colors = case
        text = to_steps(w)
        assert text == _reference_steps(w)
        again = parse_steps(text, w.params, colors)
        assert again == w
        checked = ColoredDyckWord(w.params, again.blocks)
        assert again == checked
        assert hash(again) == hash(checked)
        assert again.n == checked.n
