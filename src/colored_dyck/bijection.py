"""The constructive bijection behind the convolution recurrence.

A nonempty word of index n corresponds uniquely to a tuple
(ell, color; D_1, ..., D_{a*ell+b}): the leading Rise block of size
ell with its color, followed by the children words separated by single
down steps.  compose builds the word from the tuple, decompose inverts
it via the excess procedure, and enumerate_all lists the whole set in
a fixed deterministic order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import EmptyWord, InvalidTuple, MalformedWord, ResourceLimit
from .model import (
    DOWN,
    ColoredDyckWord,
    ColorSequence,
    DownStep,
    PathParams,
    Rise,
    validate_colors,
)

__all__ = [
    "DecompositionTuple",
    "compose",
    "decompose",
    "enumerate_all",
    "weak_compositions",
    "DEFAULT_ENUMERATION_CAP",
]

DEFAULT_ENUMERATION_CAP = 10**6


@dataclass(frozen=True)
class DecompositionTuple:
    """(ell, color; children): the unique factorization of a nonempty
    word.  The children's indices sum to n - ell."""

    ell: int
    color: int
    children: tuple[ColoredDyckWord, ...]

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))
        if self.ell < 1 or self.color < 1:
            raise InvalidTuple("ell and color must be positive")


def compose(
    t: DecompositionTuple, params: PathParams, colors: ColorSequence
) -> ColoredDyckWord:
    """Build the word [Rise(ell, color)] ++ D_1 ++ d ++ D_2 ++ d ++ ...
    with exactly a*ell+b-1 separating down steps."""
    expected = params.a * t.ell + params.b
    if len(t.children) != expected:
        raise InvalidTuple(
            f"need {expected} children for ell={t.ell}, got {len(t.children)}"
        )
    if t.color > colors.at(t.ell):
        raise InvalidTuple(
            f"color {t.color} out of range (c_{t.ell} = {colors.at(t.ell)})"
        )
    blocks = [Rise(t.ell, t.color)]
    for i, child in enumerate(t.children):
        if i > 0:
            blocks.append(DOWN)
        blocks.extend(child.blocks)
    word = ColoredDyckWord(params, tuple(blocks))
    validate_colors(word, colors)
    return word


def _block_balance(block, params):
    if isinstance(block, Rise):
        return params.period * block.j - params.descent_run(block.j)
    return -1


def decompose(
    w: ColoredDyckWord, params: PathParams, colors: ColorSequence
) -> DecompositionTuple:
    """Invert compose by the excess procedure.

    After stripping the leading Rise block, the remainder has an excess
    of a*ell+b-1 down steps.  Scanning left to right, a DownStep block
    met at balance zero is a separator; each one closes a child and
    reduces the excess by one.
    """
    validate_colors(w, colors)
    if not w.blocks:
        raise EmptyWord("cannot decompose the empty word")
    head = w.blocks[0]
    if not isinstance(head, Rise):
        raise MalformedWord("word does not start with an ascent")

    children = []
    current: list = []
    balance = 0
    for block in w.blocks[1:]:
        if isinstance(block, DownStep) and balance == 0:
            children.append(ColoredDyckWord(params, tuple(current)))
            current = []
            continue
        current.append(block)
        balance += _block_balance(block, params)
        if balance < 0:
            raise MalformedWord("negative balance inside a child")
    children.append(ColoredDyckWord(params, tuple(current)))

    expected = params.a * head.j + params.b
    if len(children) != expected:
        raise MalformedWord(
            f"expected {expected} children, found {len(children)}"
        )
    return DecompositionTuple(head.j, head.color, tuple(children))


def weak_compositions(total: int, parts: int):
    """Yield weak compositions of `total` into `parts` nonnegative
    integers in lexicographic order."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in weak_compositions(total - first, parts - 1):
            yield (first,) + rest


def enumerate_all(
    params: PathParams,
    colors: ColorSequence,
    n: int,
    cap: int = DEFAULT_ENUMERATION_CAP,
):
    """All colored Dyck words of index n, each exactly once.

    Order: ell ascending, then color ascending, then children
    compositions in lexicographic order, with each child enumerated
    recursively in this same order.  Exceeding the output cap is an
    error, not truncation.
    """
    if n < 0:
        raise ValueError("need n >= 0")
    if cap < 0:
        raise ValueError("need cap >= 0")
    memo: dict[int, tuple[ColoredDyckWord, ...]] = {}

    def build(m):
        if m not in memo:
            if m == 0:
                memo[m] = (ColoredDyckWord(params, ()),)
                return memo[m]
            words = []
            for ell in range(1, m + 1):
                r = params.a * ell + params.b
                child_sets = None
                for color in range(1, colors.at(ell) + 1):
                    if child_sets is None:
                        child_sets = [
                            [build(i) for i in comp]
                            for comp in weak_compositions(m - ell, r)
                        ]
                    for sets in child_sets:
                        for children in itertools.product(*sets):
                            words.append(
                                compose(
                                    DecompositionTuple(ell, color, children),
                                    params,
                                    colors,
                                )
                            )
                            if len(words) > cap:
                                raise ResourceLimit(
                                    f"more than {cap} words at index {m}"
                                )
            memo[m] = tuple(words)
        return memo[m]

    return build(n)
