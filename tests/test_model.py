import copy
import pickle
import random
import re
import sys
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colored_dyck import (
    DOWN,
    ColoredDyckWord,
    ColorSequence,
    PathParams,
    Rise,
    catalan,
    parse_steps,
    peaks,
    semilength,
    to_steps,
    validate_colors,
)
from colored_dyck import bijection, model
from colored_dyck.bijection import DecompositionTuple, compose, decompose, enumerate_all
from colored_dyck.errors import (
    BadAscent,
    ColoredDyckError,
    ColorOutOfRange,
    InvalidIndex,
    InvalidTuple,
    MalformedAnnotation,
    MalformedWord,
    NotDyck,
    TruncatedDescent,
)
from colored_dyck.model import (
    _PIECE_TABLE_BOUND,
    Block,
    _check_color,
    _colors_checked,
    _step_texts,
    _trusted_word,
)
from conftest import (
    COLOR_GRID,
    HUGE,
    HUGE_TEXT,
    PARAM_GRID,
    needs_int_digit_limit,
    random_block_word,
)


ONES = ColorSequence.ones()


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

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: ColorSequence.explicit((1.5,)), "need an integer c_1, got float"),
            (lambda: ColorSequence.explicit((1, 2.0)), "need an integer c_2, got float"),
            (lambda: ColorSequence.explicit((1,), 1.0), "need an integer tail, got float"),
            (
                lambda: ColorSequence.explicit((Fraction(3, 2),)),
                "need an integer c_1, got Fraction",
            ),
            (
                lambda: ColorSequence.explicit((1,), Fraction(2)),
                "need an integer tail, got Fraction",
            ),
            (lambda: ColorSequence.constant(3.0), "need an integer tail, got float"),
            (
                lambda: ColorSequence.constant(Fraction(1, 2)),
                "need an integer tail, got Fraction",
            ),
        ],
        ids=["float", "float-whole", "float-tail", "fraction", "fraction-tail",
             "const-float", "const-fraction"],
    )
    def test_non_integer_counts_rejected(self, make, message):
        with pytest.raises(InvalidIndex, match=f"^{message}$"):
            make()

    @pytest.mark.parametrize(
        "kind, fields, name",
        [
            ("ones", {"prefix": (5,)}, "prefix"),
            ("pow2", {"prefix": (0, 0, 7), "tail": 9}, "prefix"),
            ("catpair", {"tail": 7}, "tail"),
            ("const", {"prefix": (2,), "tail": 3}, "prefix"),
        ],
    )
    def test_fields_the_kind_ignores_rejected(self, kind, fields, name):
        with pytest.raises(ValueError, match=f"^color sequence kind '{kind}' takes no {name}$"):
            ColorSequence(kind, **fields)

    @pytest.mark.parametrize("kind", ["rainbow", "Ones", ""])
    def test_unknown_kind_rejected(self, kind):
        with pytest.raises(ValueError, match=f"^unknown color sequence kind: '{kind}'$"):
            ColorSequence(kind)

    @pytest.mark.parametrize(
        "colors, form",
        [
            (ColorSequence.ones(), ((1,), 1)),
            (ColorSequence.powers_of_two(), ((1,), 2)),
            (ColorSequence.constant(3), ((3,), 1)),
            (ColorSequence.constant(0), ((), 0)),
            (ColorSequence.explicit((2, 0, 1)), ((2, 0, 1), 0)),
            (ColorSequence.explicit((2, 0, 0)), ((2,), 0)),
            (ColorSequence.explicit(()), ((), 0)),
            (ColorSequence.explicit((1, 2), 3), ((1, 1, 1), 1)),
            (ColorSequence.explicit((1, 1), 1), ((1,), 1)),
            (ColorSequence.explicit((0, 4), 4), ((0, 4), 1)),
            (ColorSequence.catalan_pair_sum(), None),
        ],
        ids=["ones", "pow2", "const:3", "const:0", "explicit:2,0,1", "explicit:2,0,0",
             "explicit:", "explicit:1,2+tail:3", "explicit:1,1+tail:1",
             "explicit:0,4+tail:4", "catpair"],
    )
    def test_rational_description(self, colors, form):
        # C = p / (1 - r t) with p stopping at its last nonzero
        # coefficient and r = 0 where p is empty, so equal series have
        # equal descriptions (ones, const:1 and explicit:+tail:1 alike).
        assert colors.rational() == form

    # Both count routes read the colorings through their description
    # (ColorSequence.rational), so each kind is pinned here against a
    # formula written out independently of it.
    @pytest.mark.parametrize(
        "colors, formula",
        [
            (ColorSequence.ones(), lambda j: 1),
            (ColorSequence.powers_of_two(), lambda j: 2 ** (j - 1)),
            (
                ColorSequence.catalan_pair_sum(),
                lambda j: comb(2 * j - 2, j - 1) // j + comb(2 * j, j) // (j + 1),
            ),
            (ColorSequence.constant(3), lambda j: 3),
            (ColorSequence.explicit((2, 0, 1), 5), lambda j: (2, 0, 1, 5)[min(j, 4) - 1]),
            (ColorSequence.explicit((1, 1)), lambda j: int(j <= 2)),
        ],
        ids=["ones", "pow2", "catpair", "const", "explicit-tail", "explicit"],
    )
    def test_at_matches_its_formula_to_500(self, colors, formula):
        assert [colors.at(j) for j in range(1, 501)] == [
            formula(j) for j in range(1, 501)
        ]

    def test_catpair_is_the_catalan_pair_sum_to_500(self):
        # at() reads C_(j-1) + C_j as C(2j-2, j-1) * (5j-1) / (j(j+1))
        colors = ColorSequence.catalan_pair_sum()
        for j in range(1, 501):
            assert colors.at(j) == catalan(j - 1) + catalan(j), j

    def test_catpair_satisfies_its_equation_to_200(self):
        # Both count routes read catpair through C = t * (2 + t + C + C^2)
        # alone, so a wrong constant there would pass the route
        # cross-check: here at() is checked against the equation.
        c = [0] + [ColorSequence.catalan_pair_sum().at(j) for j in range(1, 201)]
        for n in range(1, 201):
            square = sum(c[i] * c[n - 1 - i] for i in range(1, n - 1))
            assert c[n] == 2 * (n == 1) + (n == 2) + c[n - 1] + square

    @pytest.mark.parametrize("prefix", [5, None], ids=["int", "None"])
    def test_prefix_not_iterable_rejected(self, prefix):
        with pytest.raises(ValueError, match="^color prefix must be an iterable of counts$"):
            ColorSequence("explicit", prefix=prefix)

    @pytest.mark.parametrize(
        "prefix", [[1, 2], (1, 2), range(1, 3)], ids=["list", "tuple", "range"]
    )
    def test_prefix_stored_as_tuple(self, prefix):
        colors = ColorSequence("explicit", prefix=prefix)
        expected = ColorSequence.explicit((1, 2))
        assert colors == expected
        assert hash(colors) == hash(expected)
        assert repr(colors) == repr(expected) == (
            "ColorSequence(kind='explicit', prefix=(1, 2), tail=0)"
        )


class TestPathParams:
    def test_requires_positive_sum(self):
        with pytest.raises(ValueError):
            PathParams(0, 0)

    def test_requires_nonnegative(self):
        with pytest.raises(ValueError):
            PathParams(-1, 2)

    @pytest.mark.parametrize(
        "a, b, message",
        [
            (1.5, 0, "need an integer a, got float"),
            (1.0, 0, "need an integer a, got float"),
            (1, 0.0, "need an integer b, got float"),
            (Fraction(3, 2), 0, "need an integer a, got Fraction"),
            (0, Fraction(1), "need an integer b, got Fraction"),
        ],
        ids=["float", "float-whole-a", "float-whole-b", "fraction", "fraction-whole"],
    )
    def test_requires_integers(self, a, b, message):
        with pytest.raises(InvalidIndex, match=f"^{message}$"):
            PathParams(a, b)

    def test_descent_run(self):
        assert PathParams(0, 2).descent_run(2) == 3
        assert PathParams(1, 0).descent_run(5) == 1


class TestRise:
    @pytest.mark.parametrize(
        "j, color, message",
        [
            (1.5, 1, "need an integer j, got float"),
            (1.0, 1, "need an integer j, got float"),
            (1, 1.0, "need an integer color, got float"),
            (Fraction(3, 2), 1, "need an integer j, got Fraction"),
            (1, Fraction(2), "need an integer color, got Fraction"),
            ("1", 1, "need an integer j, got str"),
        ],
        ids=["float", "float-whole-j", "float-whole-color", "fraction", "fraction-whole", "str"],
    )
    def test_requires_integers(self, j, color, message):
        with pytest.raises(InvalidIndex, match=f"^{message}$"):
            Rise(j, color)

    def test_non_integer_size_makes_no_word(self):
        # 2 * 1.5 - 1 nets 2, which the two down steps would close
        with pytest.raises(ValueError):
            ColoredDyckWord(PathParams(2, 0), (Rise(1.5), DOWN, DOWN))

    @pytest.mark.parametrize(
        "j, color, message",
        [
            (0, 1, "need j >= 1, got j=0"),
            (1, 0, "need color >= 1, got color=0"),
            (-1, 1, "need j >= 1, got j=-1"),
        ],
        ids=["0-1", "1-0", "-1-1"],
    )
    def test_requires_positive(self, j, color, message):
        with pytest.raises(InvalidIndex, match=f"^{message}$"):
            Rise(j, color)


# Each integer argument of the model's types, as a function of its
# value, with its name in InvalidIndex's message and its least value.
INTEGER_ARGUMENTS = {
    "a": (lambda v: PathParams(v, 1), "a", 0),
    "b": (lambda v: PathParams(1, v), "b", 0),
    "j": (lambda v: Rise(v), "j", 1),
    "color": (lambda v: Rise(1, v), "color", 1),
    "c_1": (lambda v: ColorSequence.explicit((v,)), "c_1", 0),
    "c_3": (lambda v: ColorSequence.explicit((1, 2, v)), "c_3", 0),
    "tail": (lambda v: ColorSequence.explicit((1,), v), "tail", 0),
    "const": (lambda v: ColorSequence.constant(v), "tail", 0),
}


class TestIntegerArguments:
    @pytest.mark.parametrize("argument", sorted(INTEGER_ARGUMENTS))
    @pytest.mark.parametrize(
        "value, type_name", [(2.0, "float"), (Fraction(2), "Fraction"), ("2", "str")]
    )
    def test_non_integer(self, argument, value, type_name):
        make, name, _ = INTEGER_ARGUMENTS[argument]
        message = f"need an integer {name}, got {type_name}"
        with pytest.raises(InvalidIndex, match=f"^{message}$"):
            make(value)

    @pytest.mark.parametrize("argument", sorted(INTEGER_ARGUMENTS))
    def test_below_least(self, argument):
        make, name, least = INTEGER_ARGUMENTS[argument]
        message = f"need {name} >= {least}, got {name}={least - 1}"
        with pytest.raises(InvalidIndex, match=f"^{message}$"):
            make(least - 1)
        make(least)

    def test_zero_pair(self):
        with pytest.raises(InvalidIndex, match=r"^need a \+ b >= 1, got a=0, b=0$"):
            PathParams(0, 0)


class TestWordStructure:
    def test_empty_word(self):
        w = ColoredDyckWord(PathParams(1, 0), ())
        assert w.n == 0
        assert peaks(w) == 0
        assert semilength(w) == 0
        assert to_steps(w) == ""

    def test_length_is_the_block_count(self):
        # the benchmark's word-mix check reads len(word)
        params = PathParams(1, 0)
        assert len(ColoredDyckWord(params, ())) == 0
        assert len(parse_steps("uu[2]ddud", params, ColorSequence.constant(2))) == 3

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

    @needs_int_digit_limit
    def test_huge_non_block_rejected(self):
        with pytest.raises(MalformedWord, match=f"^{HUGE_TEXT} is not a block$"):
            ColoredDyckWord(PathParams(1, 0), (HUGE,))

    @needs_int_digit_limit
    def test_huge_color_rejected(self):
        w = ColoredDyckWord(PathParams(1, 0), (Rise(1, HUGE),))
        message = f"color {HUGE_TEXT} out of range for ascent size 1 (c_1 = 1)"
        with pytest.raises(ColorOutOfRange, match=f"^{re.escape(message)}$"):
            validate_colors(w, ONES)


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

    @pytest.mark.parametrize(
        "text, ab, colors, error, message",
        [
            # an unexpected character anywhere comes before the balance
            ("dux", (1, 0), ONES, MalformedAnnotation, "unexpected character 'x'"),
            # a block's ascent comes before its boundary annotation ...
            ("uuu[0]ddd", (2, 0), ONES, BadAscent, "ascent length 3 not divisible"),
            # ... which comes before its descent run ...
            ("uuuu[0]dduddd", (0, 2), ONES, MalformedAnnotation, "must be positive"),
            # ... which comes before an annotation after the run
            ("uuuudd[0]dd", (0, 2), ONES, TruncatedDescent, "size 2 requires 3"),
            ("ud[4]", (1, 0), ColorSequence.constant(3), ColorOutOfRange, "color 4"),
            # the rise's color comes before a misplaced annotation
            ("uu[1]d[2]d", (1, 0), ONES, MalformedAnnotation, "not at an ascent"),
            ("uu[2]d[1]d", (1, 0), ONES, ColorOutOfRange, "color 2"),
            # an annotation after extra down steps is misplaced
            ("uuudd[1]d", (1, 0), ONES, MalformedAnnotation, "not at an ascent"),
            ("uuudd[1]d", (1, 0), ColorSequence.explicit((1, 1, 0)),
             ColorOutOfRange, "color 1 out of range for ascent size 3"),
        ],
    )
    def test_parse_error_precedence(self, text, ab, colors, error, message):
        with pytest.raises(error, match=re.escape(message)):
            parse_steps(text, PathParams(*ab), colors)

    @needs_int_digit_limit
    @pytest.mark.parametrize(
        "template, error, message",
        [
            ("u[{}]d", MalformedAnnotation, "color annotation has too many digits"),
            ("ud[{}]", MalformedAnnotation, "color annotation has too many digits"),
            ("[{}]ud", MalformedAnnotation, "not at an ascent/descent boundary"),
            ("u[{}]", NotDyck, "unbalanced word"),
        ],
    )
    def test_parse_annotation_past_the_digit_limit(self, template, error, message):
        digits = "1" * (sys.get_int_max_str_digits() + 1)
        with pytest.raises(error, match=message):
            parse_steps(template.format(digits), PathParams(1, 0), ONES)

    @needs_int_digit_limit
    def test_ascent_under_huge_params(self):
        message = f"ascent length 1 not divisible by a+b = {HUGE_TEXT}"
        with pytest.raises(BadAscent, match=f"^{re.escape(message)}$"):
            parse_steps("ud", PathParams(HUGE, 0), ONES)


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


def _first_color_error(word, colors):
    """The message of the first rise out of range, checked rise by rise
    in block order, or None."""
    for block in word.blocks:
        if isinstance(block, Rise):
            try:
                _check_color(block.j, block.color, colors)
            except ColorOutOfRange as exc:
                return str(exc)
    return None


def _distinct_rises(word):
    return len({(b.j, b.color) for b in word.blocks if isinstance(b, Rise)})


# c_2 = c_4 = c_6 = 0, and c_3 = 10^5 gives a word more distinct
# (j, color) rises than _PIECE_TABLE_BOUND.
WIDE_COLORS = ColorSequence.explicit((2, 0, 10**5, 0, 1))
WIDE_SIZES = [(3,), (1, 3), (1, 2, 3, 4, 5, 6), (1, 5, 6), (5, 4, 1)]


class TestColorCheckOrder:
    def test_validate_colors_names_the_first_bad_rise(self):
        # several rises out of range, sizes with no colors, and words of
        # more distinct rises than any table keeps
        rng = random.Random(22)
        errors = several = wide = 0
        for _ in range(160):
            params = rng.choice(ROUND_TRIP_PARAMS)
            word = random_block_word(
                rng, params, WIDE_COLORS, rng.randint(1, 3000),
                rng.choice(WIDE_SIZES), bad=rng.choice((0, 0.001, 0.01, 0.2)),
            )
            expected = _first_color_error(word, WIDE_COLORS)
            bad = sum(
                isinstance(b, Rise) and not b.color <= WIDE_COLORS.at(b.j)
                for b in word.blocks
            )
            several += bad > 1
            wide += _distinct_rises(word) > _PIECE_TABLE_BOUND
            for check in (validate_colors, lambda w, c: decompose(w, w.params, c)):
                if expected is None:
                    check(word, WIDE_COLORS)
                    continue
                with pytest.raises(ColorOutOfRange) as got:
                    check(word, WIDE_COLORS)
                assert str(got.value) == expected
            errors += expected is not None
        assert 40 < errors < 150 and several > 20 and wide > 10



# Narrower than WIDE_COLORS at j = 1 and j = 3: a word WIDE_COLORS
# accepts may have rises out of range for it.
NARROW_COLORS = ColorSequence.explicit((1, 0, 99_000, 0, 1))


def _checked_outcome(call, *args):
    try:
        return call(*args)
    except (ColorOutOfRange, InvalidTuple) as exc:
        return type(exc), str(exc)


def _untagged(word):
    return ColoredDyckWord(word.params, word.blocks)


class TestColorTag:
    def test_words_the_package_builds_carry_their_coloring(self):
        params, colors = PathParams(1, 0), ColorSequence.powers_of_two()
        word = parse_steps("uu[2]dudd", params, colors)
        t = decompose(word, params, colors)
        built = [word, *t.children, compose(t, params, colors)]
        built += enumerate_all(params, colors, 3)
        assert all(w._colors is colors for w in built)
        assert _untagged(word)._colors is None

    def test_other_coloring_checks_as_an_untagged_word(self):
        # words parsed under WIDE_COLORS, then checked under a narrower
        # coloring: each check raises what it raises for the same blocks
        # built by the checked constructor, and compose names the first
        # bad rise in block order among children tagged with either
        # coloring or with none
        rng = random.Random(30)
        errors, passed, tuples = 0, 0, 0
        for _ in range(120):
            params = rng.choice(ROUND_TRIP_PARAMS)
            raw = random_block_word(
                rng, params, WIDE_COLORS, rng.choice((1, 3, 10, 60, 300)),
                rng.choice([(3,), (1, 3), (1, 3, 5)]),
            )
            tagged = parse_steps(to_steps(raw), params, WIDE_COLORS)
            untagged = _untagged(tagged)
            for check in (validate_colors, lambda w, c: decompose(w, params, c)):
                got = _checked_outcome(check, tagged, NARROW_COLORS)
                assert got == _checked_outcome(check, untagged, NARROW_COLORS)
                if got is None or isinstance(got, DecompositionTuple):
                    passed += 1
                else:
                    errors += 1
            t = decompose(tagged, params, WIDE_COLORS)
            children = []
            for child in t.children:
                try:
                    narrow = parse_steps(to_steps(child), params, NARROW_COLORS)
                except ColorOutOfRange:
                    narrow = child
                children.append(rng.choice((child, _untagged(child), narrow)))
            mixed = DecompositionTuple(t.ell, t.color, children)
            plain = DecompositionTuple(t.ell, t.color, map(_untagged, children))
            got = _checked_outcome(compose, mixed, params, NARROW_COLORS)
            assert got == _checked_outcome(compose, plain, params, NARROW_COLORS)
            tuples += isinstance(got, tuple) and got[0] is InvalidTuple
        assert errors > 50 and passed > 50 and tuples > 5, (errors, passed, tuples)

    def test_equal_coloring_is_accepted(self, monkeypatch):
        # a distinct but equal ColorSequence: no block is checked again
        params = PathParams(2, 1)
        word = parse_steps("uuu[2]d" + "u" * 9 + "[1]" + "d" * 11, params, WIDE_COLORS)
        equal = ColorSequence.explicit((2, 0, 10**5, 0, 1))
        assert equal is not WIDE_COLORS and _colors_checked(word, equal)
        assert not _colors_checked(word, ColorSequence.constant(2))
        assert not _colors_checked(_untagged(word), WIDE_COLORS)
        checked = []
        for module in (model, bijection):
            monkeypatch.setattr(module, "_check_colors", lambda b, c: checked.extend(b))
        validate_colors(word, equal)
        t = decompose(word, params, equal)
        compose(t, params, equal)
        assert checked == []
        validate_colors(_untagged(word), equal)
        assert checked == [*word.blocks]

    def test_tag_is_invisible(self):
        params, colors = PathParams(0, 2), ColorSequence.explicit((1, 1))
        tagged = parse_steps("uu[1]duuuu[1]ddddd", params, colors)
        untagged = _untagged(tagged)
        assert tagged._colors is colors and untagged._colors is None
        assert tagged == untagged and hash(tagged) == hash(untagged)
        assert repr(tagged) == repr(untagged)
        for word in (tagged, untagged):
            for again in (pickle.loads(pickle.dumps(word)), copy.deepcopy(word)):
                assert again == tagged and hash(again) == hash(untagged)
                assert repr(again) == repr(untagged)
                assert again._colors == word._colors
                validate_colors(again, colors)

class TestToSteps:
    def test_joins_the_step_texts(self):
        # repeated and distinct rises, past the table bound, and down
        # steps that are fresh DownStep() instances
        rng = random.Random(23)
        wide = 0
        for _ in range(60):
            params = rng.choice(ROUND_TRIP_PARAMS)
            word = random_block_word(
                rng, params, WIDE_COLORS, rng.randint(1, 3000),
                rng.choice(WIDE_SIZES[:2]),
            )
            wide += _distinct_rises(word) > _PIECE_TABLE_BOUND
            text = to_steps(word)
            assert text == "".join(_step_texts(word.params, word.blocks))
            assert text == _reference_steps(word)
        assert wide > 10

    @pytest.mark.parametrize("distinct", [
        _PIECE_TABLE_BOUND - 1, _PIECE_TABLE_BOUND, _PIECE_TABLE_BOUND + 1,
    ])
    def test_at_the_table_bound(self, distinct):
        rises = [Rise(1, k) for k in range(1, distinct + 1)]
        blocks = [*rises, Rise(1, 1), Rise(1, distinct + 5), *rises[:3]]
        word = ColoredDyckWord(PathParams(1, 0), blocks)
        assert to_steps(word) == "".join(f"u[{b.color}]d" for b in blocks)


class _KeptTable(model._Table):
    """A _Table that keeps a reference to every instance made."""

    made = []

    def __init__(self, *args):
        super().__init__(*args)
        self.made.append(self)


class TestTable:
    def test_makes_a_key_at_its_first_read_and_keeps_up_to_the_bound(self):
        made = []
        table = model._Table(lambda key: made.append(key) or -key, 3)
        reads = [1, 2, 1, 3, 4, 2, 4, 5, 1, 3]
        assert [table[key] for key in reads] == [-key for key in reads]
        assert made == [1, 2, 3, 4, 4, 5]
        assert table == {1: -1, 2: -2, 3: -3}
        made.clear()
        unbounded = model._Table(lambda key: made.append(key) or key * 2)
        assert [unbounded[key] for key in [5, 6, 5, 7, 6] * 3] == [10, 12, 10, 14, 12] * 3
        assert made == [5, 6, 7]

    def test_each_c_j_is_read_at_most_once_per_call(self, monkeypatch):
        rng = random.Random(35)
        cases = []
        for colors in (ColorSequence.catalan_pair_sum(), WIDE_COLORS, ColorSequence.ones()):
            for params in ROUND_TRIP_PARAMS:
                word = random_block_word(rng, params, colors, 300, (1, 3, 5))
                cases.append((params, colors, _untagged(word), to_steps(word)))
        reads = []
        at = ColorSequence.at
        monkeypatch.setattr(ColorSequence, "at", lambda self, j: reads.append(j) or at(self, j))
        for params, colors, word, text in cases:
            calls = [
                lambda: parse_steps(text, params, colors),
                lambda: validate_colors(word, colors),
                lambda: decompose(word, params, colors),
            ]
            if colors is not WIDE_COLORS:  # whose c_3 = 10^5 makes index 6 too large
                calls.append(lambda: [
                    [*tails] for _, tails in bijection._walk(params, colors, 6, 10**6)[1]
                ])
            for call in calls:
                reads.clear()
                call()
                assert reads and len(reads) == len(set(reads)), (params, colors, reads)

    def test_kept_pieces_are_read_once_and_no_table_passes_the_bound(self, monkeypatch):
        read = []
        read_piece = model._read_piece
        monkeypatch.setattr(
            model, "_read_piece", lambda *args: read.append(args[-1]) or read_piece(*args)
        )
        monkeypatch.setattr(model, "_Table", _KeptTable)
        monkeypatch.setattr(_KeptTable, "made", [])
        pieces = [f"u[{k}]d" for k in range(1, 2 * _PIECE_TABLE_BOUND + 1)]
        text = "".join(pieces * 2)
        word = parse_steps(text, PathParams(1, 0), ColorSequence.constant(10**6))
        kept = pieces[:_PIECE_TABLE_BOUND]
        assert read == kept + pieces[_PIECE_TABLE_BOUND:] * 2
        assert to_steps(word) == text
        sizes = [len(table) for table in _KeptTable.made]
        assert max(sizes) == _PIECE_TABLE_BOUND and len(sizes) > 4


# The token-stream parser that the one-pattern parse_steps replaced,
# kept verbatim as the oracle of the differential test below.
_TOKEN = re.compile(r"u+|d+|\[[0-9]+\]|.", re.DOTALL)


def _tokenize(text: str):
    tokens = []
    for m in _TOKEN.finditer(text):
        tok = m.group()
        if tok[0] in "ud":
            tokens.append((tok[0], len(tok)))
        elif len(tok) > 1:  # "[k]"; a lone "[" is an unexpected character
            tokens.append(("color", int(tok[1:-1])))
        else:
            raise MalformedAnnotation(f"unexpected character {tok!r}")
    return tokens


def reference_parse_steps(
    text: str, params: PathParams, colors: ColorSequence
) -> ColoredDyckWord:
    """Parse step text into its unique block sequence.

    The parse is forced: every maximal ascent of length L needs
    (a+b) | L, the next b*(j-1)+1 down steps belong to that Rise block,
    and the remaining down steps before the next ascent are DownStep
    blocks.  An absent annotation means color 1.
    """
    tokens = _tokenize(text.strip())

    # Dyck property on the bare letters, before any grammar checks.
    balance = ups = 0
    for kind, value in tokens:
        if kind == "u":
            balance += value
            ups += value
        elif kind == "d":
            balance -= value
            if balance < 0:
                raise NotDyck("prefix has more d's than u's")
    if balance != 0:
        raise NotDyck("unbalanced word")

    p = params
    blocks: list[Block] = []
    i = 0
    while i < len(tokens):
        kind, value = tokens[i]
        if kind == "color":
            raise MalformedAnnotation("annotation not at an ascent/descent boundary")
        if kind == "d":
            blocks.extend([DOWN] * value)
            i += 1
            continue
        # Maximal ascent of length `value`.
        if value % p.period != 0:
            raise BadAscent(
                f"ascent length {value} not divisible by a+b = {p.period}"
            )
        j = value // p.period
        i += 1
        color = None
        if i < len(tokens) and tokens[i][0] == "color":
            color = tokens[i][1]
            if color < 1:
                raise MalformedAnnotation("color annotation must be positive")
            i += 1
        need = p.descent_run(j)
        if i >= len(tokens) or tokens[i][0] != "d" or tokens[i][1] < need:
            raise TruncatedDescent(
                f"ascent of size {j} requires {need} following down steps"
            )
        extra = tokens[i][1] - need
        i += 1
        # Tolerated input variant: annotation directly after the block's
        # descent run instead of at the ascent/descent boundary.
        if (
            color is None
            and extra == 0
            and i < len(tokens)
            and tokens[i][0] == "color"
        ):
            color = tokens[i][1]
            if color < 1:
                raise MalformedAnnotation("color annotation must be positive")
            i += 1
        if color is None:
            color = 1
        _check_color(j, color, colors)
        blocks.append(Rise(j, color))
        blocks.extend([DOWN] * extra)

    # The blocks expand to the letters just checked, and every ascent
    # is a whole number of periods.
    return _trusted_word(params, tuple(blocks), ups // p.period, None)


ANNOTATIONS = ["[1]", "[2]", "[3]", "[0]", "[007]"]
STRAYS = ["[", "]", "7", "x", " ", "\n", "\t", "[\u0662]"]


@st.composite
def step_texts(draw):
    """Step text on the conftest grid: rises of size 1-3, each with an
    ascent (maybe one step short), a descent run (maybe one step long
    or short) and annotations (maybe none) at and after that run, among
    loose letters and annotations.  Half of the time these pieces are
    then repeated, as a long word repeats a few blocks: up to 100 good
    rises, then up to 100 draws from the pieces and the good rises, so
    that the first error may come after many good copies, in a piece
    that occurs again and again.  Half of the time one stray character,
    and half of the time the letters balanced at the end."""
    params = draw(st.sampled_from(PARAM_GRID))
    colors = draw(st.sampled_from(COLOR_GRID))
    ascents = [params.period * j + k for j in (1, 2, 3) for k in (0, 0, -1)]
    descents = [params.descent_run(j) + k for j in (1, 2, 3) for k in (0, 0, 1, -1)]
    maybe = st.sampled_from(["", "", ""] + ANNOTATIONS)
    rise = st.builds(
        lambda up, at, down, after: "u" * up + at + "d" * down + after,
        st.sampled_from(ascents), maybe, st.sampled_from(descents), maybe,
    )
    loose = st.sampled_from(["u", "d"] + ANNOTATIONS)
    pieces = draw(st.lists(st.one_of(rise, rise, loose), max_size=10))
    if draw(st.booleans()):
        good = [
            "u" * (params.period * j) + at + "d" * params.descent_run(j)
            for j in (1, 2, 3)
            if colors.at(j)
            for at in ["", *(f"[{k}]" for k in range(1, min(colors.at(j), 3) + 1))]
        ]
        kinds = pieces + good
        pieces = [draw(st.sampled_from(good)) for _ in range(draw(st.integers(0, 100)))]
        pieces += [draw(st.sampled_from(kinds)) for _ in range(draw(st.integers(0, 100)))]
    if draw(st.booleans()):
        pieces.insert(draw(st.integers(0, len(pieces))), draw(st.sampled_from(STRAYS)))
    text = "".join(pieces)
    if draw(st.booleans()):
        text += "d" * (text.count("u") - text.count("d"))
    return text, params, colors


def _outcome(parse, text, params, colors):
    try:
        word = parse(text, params, colors)
    except ColoredDyckError as exc:
        return type(exc), str(exc)
    return word, word.n


class TestParseDifferential:
    @settings(max_examples=1000, deadline=None)
    @given(step_texts())
    def test_same_word_or_same_error_as_the_token_parser(self, case):
        text, params, colors = case
        assert _outcome(parse_steps, text, params, colors) == _outcome(
            reference_parse_steps, text, params, colors
        )

    @pytest.mark.parametrize(
        "tail, error",
        [
            ("", None),
            ("u[1000001]d", ColorOutOfRange),
            ("u[0]d", MalformedAnnotation),
            ("u[7]d[1]", MalformedAnnotation),
            ("u[1030]d" * 5 + "u[1000002]du[1000002]d", ColorOutOfRange),
        ],
    )
    def test_more_distinct_pieces_than_the_table_keeps(self, tail, error):
        # past the table bound, each piece not already kept is read where
        # it occurs, a repeat of a kept piece still reuses its blocks
        pieces = [f"u[{k}]d" for k in range(1, _PIECE_TABLE_BOUND + 100)]
        text = "".join(pieces) + "u[1]du[2000]d" * 3 + tail
        params, colors = PathParams(1, 0), ColorSequence.constant(10**6)
        outcome = _outcome(parse_steps, text, params, colors)
        assert outcome == _outcome(reference_parse_steps, text, params, colors)
        if error is None:
            assert outcome[1] == _PIECE_TABLE_BOUND + 99 + 6
        else:
            assert outcome[0] is error


    def test_piece_table_policy(self, monkeypatch):
        # each of the first _PIECE_TABLE_BOUND distinct pieces is read
        # once and kept; past the bound a piece not kept is read where it
        # occurs, and a kept one is still read from the table
        read = []
        read_piece = model._read_piece
        monkeypatch.setattr(
            model, "_read_piece", lambda *args: read.append(args[-1]) or read_piece(*args)
        )
        kept = [f"u[{k}]d" for k in range(1, _PIECE_TABLE_BOUND + 1)]
        text = "".join(kept * 2 + ["u[2000]d", "u[1]d", "u[2000]d"])
        word = parse_steps(text, PathParams(1, 0), ColorSequence.constant(10**6))
        assert to_steps(word) == text
        assert read == kept + ["u[2000]d", "u[2000]d"]


# Characters of random step text: mostly step letters, so that some
# texts parse, then brackets with ASCII digits, and now and then a
# blank, a non-ASCII digit or any other character.
STEP_CHARACTERS = st.sampled_from(
    [st.sampled_from("ud")] * 12
    + [
        st.sampled_from("[]0123456789"),
        st.sampled_from(" \t\n\u00a0\u0662\u0967\uff11\U0001d7d8"),
        st.characters(),
    ]
).flatmap(lambda chars: chars)


class TestParseFuzz:
    @settings(max_examples=500, deadline=None)
    @given(
        st.text(STEP_CHARACTERS, max_size=60),
        st.sampled_from(PARAM_GRID),
        st.sampled_from(COLOR_GRID),
    )
    def test_a_word_that_round_trips_or_a_package_error(self, text, params, colors):
        try:
            word = parse_steps(text, params, colors)
        except ColoredDyckError:
            return
        assert parse_steps(to_steps(word), params, colors) == word
