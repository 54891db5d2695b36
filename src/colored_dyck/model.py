"""Domain types for colored Dyck words built from blocks.

A word is stored as a sequence of blocks: ``DownStep`` is a lone down
step ``d`` and ``Rise(j, color)`` expands to ``(a+b)*j`` up steps
followed by ``b*(j-1)+1`` down steps, with the ascent carrying one of
``c_j`` colors.  Step text is a serialization only; the block sequence
is the unique parse of its own expansion.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate, chain, islice
from math import comb

from .bell import _int_text, _need_index, exact_div
from .errors import (
    BadAscent,
    ColorOutOfRange,
    InvalidIndex,
    MalformedAnnotation,
    MalformedWord,
    NotDyck,
    TruncatedDescent,
)

__all__ = [
    "PathParams",
    "ColorSequence",
    "DownStep",
    "Rise",
    "DOWN",
    "ColoredDyckWord",
    "to_steps",
    "parse_steps",
    "peaks",
    "semilength",
    "validate_colors",
]


@dataclass(frozen=True)
class PathParams:
    """The pair (a, b) governing block shapes: ascents have length
    (a+b)*j and each Rise block ends with b*(j-1)+1 down steps."""

    a: int
    b: int

    def __post_init__(self):
        _need_index(self.a, 0, "a")
        _need_index(self.b, 0, "b")
        if self.a + self.b < 1:
            raise InvalidIndex(f"need a + b >= 1, got a={self.a}, b={self.b}")

    @property
    def period(self) -> int:
        """Ascent length unit a+b."""
        return self.a + self.b

    def descent_run(self, j: int) -> int:
        """Number of down steps attached to a size-j rise block."""
        return self.b * (j - 1) + 1


@dataclass(frozen=True)
class ColorSequence:
    """Coloring multiplicities c_1, c_2, ... given by a preset rule or
    an explicit prefix with a constant tail.

    A tail of 0 in an explicit sequence forbids all larger ascents.
    Every kind but catpair has a rational series
    C(t) = sum_j c_j t^j = p(t) / (1 - r t), described once, here, by
    rational(); both count routes and the enumeration read C from it.
    """

    kind: str
    prefix: tuple[int, ...] = ()
    tail: int = 0
    # rational()'s (p, r), and the (c_1..c_len(p), r) that at reads,
    # with c_j = c_len(p) * r^(j-len(p)) past len(p); None for catpair.
    _form: tuple | None = field(init=False, repr=False, compare=False)
    _rule: tuple | None = field(init=False, repr=False, compare=False)

    _KINDS = ("explicit", "ones", "pow2", "catpair", "const")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown color sequence kind: {self.kind!r}")
        try:
            object.__setattr__(self, "prefix", tuple(self.prefix))
        except TypeError:
            raise ValueError("color prefix must be an iterable of counts") from None
        if self.prefix and self.kind != "explicit":
            raise ValueError(f"color sequence kind {self.kind!r} takes no prefix")
        if self.tail and self.kind not in ("explicit", "const"):
            raise ValueError(f"color sequence kind {self.kind!r} takes no tail")
        for j, c in enumerate(self.prefix, 1):
            _need_index(c, 0, f"c_{j}")
        _need_index(self.tail, 0, "tail")
        # c_1..c_m and r, with c_j = c_m * r^(j-m) for j > m, so that
        # C * (1 - r t) is the polynomial p of degree m at most, with
        # p_i = c_i - r * c_(i-1) (c_0 = 0).
        c, r = {
            "explicit": ((*self.prefix, self.tail), 1 if self.tail else 0),
            "ones": ((1,), 1),
            "pow2": ((1,), 2),
            "const": ((self.tail,), 1 if self.tail else 0),
        }.get(self.kind, ((), 0))
        p = [ci - r * below for ci, below in zip(c, (0, *c))]
        while p and not p[-1]:  # p stops at its last nonzero coefficient
            p.pop()
        catpair = self.kind == "catpair"
        object.__setattr__(self, "_form", None if catpair else (tuple(p), r))
        object.__setattr__(self, "_rule", None if catpair else (c[: len(p)], r))

    @classmethod
    def ones(cls) -> "ColorSequence":
        return cls("ones")

    @classmethod
    def powers_of_two(cls) -> "ColorSequence":
        """c_j = 2^(j-1), the little-Schroeder coloring."""
        return cls("pow2")

    @classmethod
    def catalan_pair_sum(cls) -> "ColorSequence":
        """c_j = C_{j-1} + C_j with C the Catalan numbers."""
        return cls("catpair")

    @classmethod
    def constant(cls, v: int) -> "ColorSequence":
        return cls("const", tail=v)

    @classmethod
    def explicit(cls, prefix, tail: int = 0) -> "ColorSequence":
        return cls("explicit", prefix=prefix, tail=tail)

    def rational(self) -> tuple[tuple[int, ...], int] | None:
        """(p, r) with C(t) = (p_1 t + p_2 t^2 + ...) / (1 - r t), p a
        tuple that stops at its last nonzero coefficient and r = 0 where
        p is empty, or None for catpair, whose series is not rational.
        With r = 0, C is the polynomial p and c_j = 0 for j > len(p)."""
        return self._form

    def at(self, j: int) -> int:
        """Evaluate c_j for j >= 1.  A catpair color
        C_(j-1) + C_j = C_(j-1) * (5j-1)/(j+1) is read as
        C(2j-2, j-1) * (5j-1) / (j(j+1)): one binomial, one checked
        division."""
        _need_index(j, 1, "j")
        rule = self._rule
        if rule is None:
            return exact_div(comb(2 * j - 2, j - 1) * (5 * j - 1), j * (j + 1), "catpair")
        lead, r = rule
        if j <= len(lead):
            return lead[j - 1]
        return lead[-1] * r ** (j - len(lead)) if r else 0


@dataclass(frozen=True)
class DownStep:
    """The block P_0, a single down step."""


@dataclass(frozen=True)
class Rise:
    """An ascent block of size j: (a+b)*j up steps, then b*(j-1)+1 down
    steps, with the ascent colored by a 1-based color index."""

    j: int
    color: int = 1

    def __post_init__(self):
        _need_index(self.j, 1, "j")
        _need_index(self.color, 1, "color")


DOWN = DownStep()

Block = DownStep | Rise


def _block_net(block: Block, params: PathParams) -> int:
    """Net balance of one block: a*j+b-1 for Rise(j), -1 for a down step,
    which is any other block, since every word's blocks are typed."""
    if isinstance(block, Rise):
        return params.a * block.j + params.b - 1
    return -1


@dataclass(frozen=True, slots=True)
class ColoredDyckWord:
    """A colored Dyck word as an ordered block sequence.

    Construction checks the structural invariants of a block tuple a
    caller supplies: every item is a Rise or a DownStep (MalformedWord
    otherwise), every prefix has nonnegative balance and the whole word
    balances (NotDyck otherwise), so its expansion is a Dyck word of
    index n = sum of the rise sizes.  This is the one structural check
    of a word: the factorization decompose reads off cannot fail on a
    word that passed it.  Words the package builds itself (parse_steps,
    compose, decompose, enumerate_all) come from ``_trusted_word``
    instead, with n taken from a pass already made.  Color-range checks
    against a ColorSequence are separate (validate_colors), so that
    externally supplied words report ColorOutOfRange during
    decomposition rather than construction.  A word the package builds
    carries the coloring its rises were checked against, and
    validate_colors, decompose and compose check the colors only of a
    word that does not carry the one they are given (or an equal one:
    a ColorSequence is frozen).  The tag takes no part in ==, hash or
    repr.
    """

    params: PathParams
    blocks: tuple[Block, ...]
    n: int = field(init=False)
    # The ColorSequence every rise was checked against, set only by
    # _trusted_word; None for a word a caller builds.
    _colors: ColorSequence | None = field(
        init=False, default=None, compare=False, repr=False
    )

    def __post_init__(self):
        blocks = tuple(self.blocks)
        object.__setattr__(self, "blocks", blocks)
        balance = n = 0
        for block in blocks:
            if isinstance(block, Rise):
                n += block.j
            elif not isinstance(block, DownStep):
                text = _int_text(block) if type(block) is int else repr(block)
                raise MalformedWord(f"{text} is not a block")
            balance += _block_net(block, self.params)
            if balance < 0:
                raise NotDyck("prefix has more d's than u's")
        if balance != 0:
            raise NotDyck("unbalanced word")
        object.__setattr__(self, "n", n)

    def __len__(self):
        return len(self.blocks)


def _trusted_word(
    params: PathParams, blocks: tuple, n: int, colors: ColorSequence | None = None
) -> ColoredDyckWord:
    """A word whose invariants the caller already guarantees: `blocks`
    is a tuple of blocks built for `params` whose expansion is a
    balanced Dyck word of index `n`, and, unless `colors` is None,
    every rise's color is in range for `colors`.

    The package builds every word of its own through here, from parts
    it has already checked; the O(len) walk of the checked constructor
    runs only on block tuples a caller passes in.  The result compares
    and hashes like the checked construction from the same blocks.
    """
    word = object.__new__(ColoredDyckWord)
    object.__setattr__(word, "params", params)
    object.__setattr__(word, "blocks", blocks)
    object.__setattr__(word, "n", n)
    object.__setattr__(word, "_colors", colors)
    return word


def _colors_checked(word: ColoredDyckWord, colors: ColorSequence) -> bool:
    """Whether every rise of word is known to be in range for colors:
    the word carries colors, or a coloring equal to it."""
    tag = word._colors
    return tag is not None and (tag is colors or tag == colors)


def peaks(word: ColoredDyckWord) -> int:
    """Number of peaks = number of maximal ascents = Rise blocks."""
    return sum(1 for b in word.blocks if isinstance(b, Rise))


def semilength(word: ColoredDyckWord) -> int:
    """Number of up steps in the expansion, (a+b)*n."""
    return word.params.period * word.n


def _check_color(j: int, color: int, colors: ColorSequence) -> None:
    """Raise ColorOutOfRange unless 1 <= color <= c_j."""
    limit = colors.at(j)
    if not 1 <= color <= limit:
        color, j, limit = map(_int_text, (color, j, limit))
        raise ColorOutOfRange(
            f"color {color} out of range for ascent size {j} (c_{j} = {limit})"
        )


def _check_colors(blocks, colors: ColorSequence) -> None:
    """Raise what _check_color raises for the first Rise in `blocks`
    whose color is out of range.

    Each c_j is read once per call, into a table of the sizes met: the
    rises of a word of index n have at most sqrt(2n) distinct sizes.
    """
    limits = {}
    for block in blocks:
        if isinstance(block, Rise):
            limit = limits.get(block.j)
            if limit is None:
                limit = limits[block.j] = colors.at(block.j)
            if not 1 <= block.color <= limit:
                _check_color(block.j, block.color, colors)


def validate_colors(word: ColoredDyckWord, colors: ColorSequence) -> None:
    """Check every Rise block's color against the coloring rule, unless
    the word carries that coloring (_colors_checked)."""
    if not _colors_checked(word, colors):
        _check_colors(word.blocks, colors)


# The most distinct pieces (of step text, or rises) that to_steps and
# parse_steps keep in one call.  A word repeats a few pieces many times
# and stays far below it; on a word whose pieces are all distinct it
# caps the kept entries.
_PIECE_TABLE_BOUND = 1024


def _step_texts(params: PathParams, blocks) -> list[str]:
    """The step text of each block, in order."""
    period, b = params.a + params.b, params.b
    return [
        f"{'u' * (period * block.j)}[{block.color}]{'d' * (b * (block.j - 1) + 1)}"
        if isinstance(block, Rise)
        else "d"
        for block in blocks
    ]


def to_steps(word: ColoredDyckWord) -> str:
    """Serialize to step text over {u, d}.

    The color annotation "[k]" sits at the ascent/descent boundary of
    each Rise block and is always emitted.  Under the policy of _made,
    each of the first _PIECE_TABLE_BOUND distinct (j, color)
    is spelled by _step_texts once per call and its text reused where
    it repeats; from the first rise past them on, the rest of the word
    is spelled in one _step_texts call.
    """
    params, blocks = word.params, word.blocks
    down, = _step_texts(params, (DOWN,))
    spelled: dict[tuple[int, int], str] = {}
    texts = []
    for block in blocks:
        if isinstance(block, Rise):
            text = spelled.get((block.j, block.color))
            if text is None:
                if len(spelled) == _PIECE_TABLE_BOUND:
                    texts += _step_texts(params, blocks[len(texts):])
                    break
                text, = _step_texts(params, (block,))
                spelled[block.j, block.color] = text
            texts.append(text)
        else:
            texts.append(down)
    return "".join(texts)


# One match per piece of step text: a rise (ascent, boundary annotation,
# down run, annotation after the run), a down run, a misplaced
# annotation, or any other character ([0-9]: \d takes any Unicode digit).
_PIECE = re.compile(
    r"(u+)(?:\[([0-9]+)\])?(d*)(?:\[([0-9]+)\])?|(d+)|(\[[0-9]+\])|(.)", re.DOTALL
)
# _PIECE with each group made non-capturing, so that findall gives each
# piece as one string; the matches are the same.
_PIECE_TEXT = re.compile(re.sub(r"\((?!\?)", "(?:", _PIECE.pattern), re.DOTALL)


def _positive(digits: str) -> int:
    """The color an annotation's digits name."""
    try:
        color = int(digits)
    except ValueError:  # more digits than the int-to-str limit
        raise MalformedAnnotation("color annotation has too many digits") from None
    if color < 1:
        raise MalformedAnnotation("color annotation must be positive")
    return color


def _piece_nets(pieces: list) -> list[int]:
    """Up steps less down steps of each piece of step text, or
    MalformedAnnotation for the first that is a stray character."""
    stray = next((p for p in pieces if len(p) == 1 and p not in "ud"), "")
    if stray:
        raise MalformedAnnotation(f"unexpected character {stray!r}")
    return [p.count("u") - p.count("d") for p in pieces]


def _made(make, pieces: list, distinct: dict):
    """What make gives for each of pieces, in order, under the one
    piece-table policy of to_steps and parse_steps; make maps a list of
    pieces to their values, in order.  distinct holds the pieces in the
    order of their first occurrence, all of them or more than
    _PIECE_TABLE_BOUND.  The first _PIECE_TABLE_BOUND are kept: each is
    made once, first, and reused up to the cut, the first occurrence of
    any other piece; from the cut on, each piece is made where it
    occurs.  Every kept piece first occurs before the cut, and every
    piece before it is kept, so make meets a piece only where every
    earlier piece has been made: its errors come in text order."""
    kept = [*islice(distinct, _PIECE_TABLE_BOUND)]
    table = dict(zip(kept, make(kept)))
    if len(distinct) <= _PIECE_TABLE_BOUND:
        return map(table.__getitem__, pieces)
    cut = pieces.index(next(islice(distinct, _PIECE_TABLE_BOUND, None)))
    return chain(map(table.__getitem__, pieces[:cut]), make(pieces[cut:]))


def _read_piece(
    params: PathParams, colors: ColorSequence, limits: dict, rises: dict, piece: str
) -> tuple:
    """The blocks of one piece of letter-balanced step text, or the
    piece's first grammar or color error.  limits (j -> c_j) and rises
    ((j, color) -> its Rise, at most _PIECE_TABLE_BOUND of them) are the
    caller's tables for one parse, so that each c_j is read once and a
    repeated Rise built once."""
    ups, boundary, downs, late, run, misplaced, _ = _PIECE.fullmatch(piece).groups("")
    rise, downs_after = (), len(run)
    if ups:  # a maximal ascent
        # params.period and params.descent_run(j), inline: on a text of
        # distinct pieces this runs once per piece.
        period = params.a + params.b
        if len(ups) % period != 0:
            raise BadAscent(
                f"ascent length {len(ups)} not divisible by "
                f"a+b = {_int_text(period)}"
            )
        j = len(ups) // period
        color = _positive(boundary) if boundary else 1
        need = params.b * (j - 1) + 1
        extra = len(downs) - need
        if extra < 0:
            raise TruncatedDescent(
                f"ascent of size {j} requires {need} following down steps"
            )
        # Tolerated input variant: the annotation directly after the
        # descent run instead of at the ascent/descent boundary.
        if late and not boundary and extra == 0:
            color, late = _positive(late), ""
        limit = limits.get(j)
        if limit is None:
            limit = limits[j] = colors.at(j)
        if color > limit:  # color >= 1 already
            _check_color(j, color, colors)
        block = rises.get((j, color))
        if block is None:
            # Rise(j, color) without its checks, which j and color pass
            block = object.__new__(Rise)
            object.__setattr__(block, "j", j)
            object.__setattr__(block, "color", color)
            if len(rises) < _PIECE_TABLE_BOUND:
                rises[j, color] = block
        rise, downs_after = (block,), downs_after + extra
    if late or misplaced:
        raise MalformedAnnotation("annotation not at an ascent/descent boundary")
    return rise + (DOWN,) * downs_after


def parse_steps(text: str, params: PathParams, colors: ColorSequence) -> ColoredDyckWord:
    """Parse step text into its unique block sequence.

    The parse is forced: every maximal ascent of length L needs
    (a+b) | L, the next b*(j-1)+1 down steps belong to that Rise block,
    and the remaining down steps before the next ascent are DownStep
    blocks.  An absent annotation means color 1.  Errors come in a
    fixed order: an unexpected character anywhere (MalformedAnnotation),
    then the letter balance (NotDyck), then the blocks in text order.

    The text is split into pieces (a rise with its annotations and
    descent run, a down run, an annotation, or a stray character), and
    each check is one pass over them, in text order, under the policy
    of _made: a repeated piece is checked and read once per call, up to
    _PIECE_TABLE_BOUND distinct pieces.  The word carries colors: its
    every rise has just been checked.
    """
    pieces = _PIECE_TEXT.findall(text.strip())
    # A prefix with more distinct pieces than the table keeps is enough.
    distinct = dict.fromkeys(pieces[: 2 * _PIECE_TABLE_BOUND])
    if len(distinct) <= _PIECE_TABLE_BOUND:
        distinct.update(dict.fromkeys(pieces[2 * _PIECE_TABLE_BOUND :]))
    # The pass over every piece finds a stray character before the
    # Dyck property on the bare letters, before any grammar checks.
    if min(accumulate(_made(_piece_nets, pieces, distinct)), default=0) < 0:
        raise NotDyck("prefix has more d's than u's")
    up_steps = text.count("u")
    if up_steps != text.count("d"):
        raise NotDyck("unbalanced word")

    read = partial(map, partial(_read_piece, params, colors, {}, {}))
    # The blocks expand to the letters just checked, and every ascent
    # is a whole number of periods.
    blocks = tuple(chain.from_iterable(_made(read, pieces, distinct)))
    return _trusted_word(params, blocks, up_steps // params.period, colors)
