"""The constructive bijection behind the convolution recurrence.

A nonempty word of index n corresponds uniquely to a tuple
(ell, color; D_1, ..., D_{a*ell+b}): the leading Rise block of size
ell with its color, followed by the children words separated by single
down steps.  compose builds the word from the tuple, decompose inverts
it via the excess procedure, and enumerate_all lists the whole set in
a fixed deterministic order.  The enumeration is one walk that memoizes
every child index as strings, spelled in an alphabet its caller
picks: enumerate_all spells each block as a one-character code, which
it decodes into blocks; the CLI's plain listing spells each block as
its step text, so each output line is a head's text and one of the
walk's finished child strings, without a word object or a
translation.  Every product of children, in the memo and in the
groups the walk hands its callers, is formed in one place, by
itertools.product and str.join.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations_with_replacement, compress, islice, product
from math import prod
from operator import sub

from .bell import _int_text, _need_index
from .errors import EmptyWord, InvalidTuple, MalformedWord, ResourceLimit
from .model import (
    DOWN,
    ColoredDyckWord,
    ColorSequence,
    PathParams,
    Rise,
    _block_net,
    _check_colors,
    _colors_checked,
    _trusted_word,
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


def _pair_text(params: PathParams) -> str:
    """(a, b) as a message writes it."""
    return f"({_int_text(params.a)}, {_int_text(params.b)})"


@dataclass(frozen=True)
class DecompositionTuple:
    """(ell, color; children): the unique factorization of a nonempty
    word.  The children's indices sum to n - ell."""

    ell: int
    color: int
    children: tuple[ColoredDyckWord, ...]

    def __post_init__(self):
        try:
            object.__setattr__(self, "children", tuple(self.children))
        except TypeError:
            raise InvalidTuple("children must be an iterable of words") from None
        if not (isinstance(self.ell, int) and isinstance(self.color, int)):
            raise InvalidTuple("ell and color must be integers")
        if self.ell < 1 or self.color < 1:
            raise InvalidTuple("ell and color must be positive")


def compose(
    t: DecompositionTuple, params: PathParams, colors: ColorSequence
) -> ColoredDyckWord:
    """Build the word [Rise(ell, color)] ++ D_1 ++ d ++ D_2 ++ d ++ ...
    with exactly a*ell+b-1 separating down steps.

    The rises of each child that does not carry the coloring
    (model._colors_checked) are checked against it after every
    InvalidTuple check, in block order, with each c_j read once per
    call.  The word carries the coloring."""
    expected = params.a * t.ell + params.b
    if len(t.children) != expected:
        raise InvalidTuple(
            f"need {_int_text(expected)} children for ell={_int_text(t.ell)}, "
            f"got {len(t.children)}"
        )
    if t.color > colors.at(t.ell):
        color, ell, limit = map(_int_text, (t.color, t.ell, colors.at(t.ell)))
        raise InvalidTuple(f"color {color} out of range (c_{ell} = {limit})")
    blocks = [Rise(t.ell, t.color)]
    n = t.ell
    unchecked = []
    for i, child in enumerate(t.children):
        if not isinstance(child, ColoredDyckWord):
            raise InvalidTuple(f"child {i} is not a ColoredDyckWord")
        if child.params != params:
            raise InvalidTuple(
                f"child {i} is built for (a, b) = {_pair_text(child.params)}, "
                f"not {_pair_text(params)}"
            )
        if i > 0:
            blocks.append(DOWN)
        blocks.extend(child.blocks)
        n += child.n
        if not _colors_checked(child, colors):
            unchecked.append(child.blocks)
    # The head color is checked above; the other children's rises have
    # none out of range, so the first bad rise is still the first in
    # block order.
    _check_colors(chain.from_iterable(unchecked), colors)
    # The head leaves balance a*ell+b-1, which the separators close.
    return _trusted_word(params, tuple(blocks), n, colors)


def decompose(
    w: ColoredDyckWord, params: PathParams, colors: ColorSequence
) -> DecompositionTuple:
    """Invert compose by the excess procedure.

    After stripping the leading Rise block, the remainder has an excess
    of a*ell+b-1 down steps.  Scanning left to right, a down step met
    at balance zero is a separator; each one closes a child and reduces
    the excess by one.  The word must be built for `params`: read under
    other (a, b) its blocks do not balance.

    Every word that passed the checked constructor factors: it starts
    with a Rise (a down step first goes below zero), no child goes
    below zero (a rise nets a*j+b-1 >= 0, and a down step at child
    balance zero separates), and as each separator needs word balance
    >= 1 and the word ends at zero, there are a*ell+b-1 separators.

    Colors are checked first, head first, unless the word carries the
    coloring (model._colors_checked), then the separators are scanned
    for.  Each c_j and each rise's net a*j+b-1 is read once per
    distinct size j per call, and each child is cut from the word's
    block tuple as one slice; the children carry the coloring.
    """
    if w.params != params:
        raise MalformedWord(
            f"word is built for (a, b) = {_pair_text(w.params)}, "
            f"not {_pair_text(params)}"
        )
    blocks = w.blocks
    if not blocks:
        raise EmptyWord("cannot decompose the empty word")
    if not _colors_checked(w, colors):
        _check_colors(blocks, colors)

    # Each child is the slice between two separators; balance and size
    # are the open child's.
    nets: dict[int, int] = {}
    down = _block_net(DOWN, params)
    children = []
    start, balance, size = 1, 0, 0
    for end, block in enumerate(islice(blocks, 1, None), 1):
        if isinstance(block, Rise):
            j = block.j
            net = nets.get(j)
            if net is None:
                net = nets[j] = _block_net(block, params)
            balance += net
            size += j
        elif balance:
            balance += down
        else:
            children.append(_trusted_word(params, blocks[start:end], size, colors))
            start, size = end + 1, 0
    children.append(_trusted_word(params, blocks[start:], size, colors))
    head = blocks[0]
    return DecompositionTuple(head.j, head.color, tuple(children))


def weak_compositions(total: int, parts: int):
    """Yield weak compositions of `total` into `parts` nonnegative
    integers in lexicographic order: stars and bars, cutting 0..total
    at each nondecreasing choice of parts - 1 points in turn.  Like
    the rest of the body, the argument check runs at the first next()."""
    _need_index(total, 0, "total")
    _need_index(parts, 0, "parts")
    if parts == 0:
        if total == 0:
            yield ()
        return
    for cuts in combinations_with_replacement(range(total + 1), parts - 1):
        yield tuple(map(sub, (*cuts, total), (0, *cuts)))


# chr() names each integer below 0x110000, so the walk has at most
# this many codes: DOWN and the distinct rises below the top index.
_CODE_LIMIT = 0x110000


def _walk(
    params: PathParams, colors: ColorSequence, n: int, cap: int, spell=None
):
    """The words of index n, streamed as strings in the caller's alphabet.

    Each distinct Rise met below index n gets a code k, as rises[k]
    (rises[0] is DOWN).  The caller picks how a block is spelled.  With
    spell None, the default, a string holds one code character per
    block: chr(0) for a down step and chr(k) for rises[k].  Otherwise
    spell maps a list of blocks to their texts (model._step_texts with
    params bound, say), and a string is the concatenated texts of its
    blocks.  Returns (rises, groups); groups yields pairs (head, tails)
    in enumeration order, one per head and composition, where head is
    the block tuple (Rise(ell, color),) (the empty tuple at n = 0) and
    tails iterates the strings of that composition's children: each
    word is head followed by one tail, in turn.

    Every index that a word of index n can hold as a child is memoized
    as strings and counted against the cap, lowest first, before
    this returns, so the lowest index over the cap is the one reported;
    no other index is built or counted.  An index that only heads with
    one child read (a link of a chain, as at a = 0, b = 1) leaves the
    memo once no index still to be built reads it.  Nothing is yielded
    from an index over the cap.  Index n is never held: each group
    streams the product of one composition's memo lists.  Heads at
    index n get no code: they may have more colors than characters.
    """
    _need_index(n, 0, "n")
    _need_index(cap, 0, "cap")
    # No head is larger than a polynomial coloring's degree.
    form = colors.rational()
    most = len(form[0]) if form is not None and not form[1] else n
    rises = [DOWN]
    sep = "\0" if spell is None else spell(rises)[0]  # between children
    letters: dict[int, list[str]] = {}  # ell -> Rise(ell, 1), ... spelled
    # memo[m]: the string of every word of index m, in order.
    memo: dict[int, list[str]] = {0: [""]}

    def tails(comp):
        """D_1 ++ d ++ D_2 ++ ... ++ d ++ D_r for every choice of the
        children of indices comp, in product order."""
        return map(sep.join, product(*[memo[i] for i in comp]))

    def plan(m):
        """(ell, c_ell, compositions with words) for each head size
        with words at index m, whose child indices are all built."""
        heads = []
        total = 0
        for ell in range(1, min(m, most) + 1):
            n_colors = colors.at(ell)
            if n_colors < 1:
                continue
            comps = [*weak_compositions(m - ell, params.a * ell + params.b)]
            counts = [prod(map(len, map(memo.__getitem__, comp))) for comp in comps]
            comps = [*compress(comps, counts)]
            total += n_colors * sum(counts)
            if total > cap:
                raise ResourceLimit(f"more than {cap} words at index {m}")
            if comps:  # else no word has this head, however many colors
                heads.append((ell, n_colors, comps))
        return heads

    # The child indices, found from n down: every index up to top, and
    # those in single.  A head of size ell leaves children summing to
    # m - ell: any of 0..m - ell with two or more children, or at ell = 1
    # (its child may have a size-1 head), which covers larger heads too.
    # reach is the largest head with one child, at ell > 1.
    top, single, m, reach = 0, {n}, n, 0
    while m > top:
        if m in single:
            for ell in range(1, min(m, most) + 1):
                if colors.at(ell) > 0:
                    if params.a * ell + params.b > 1 or ell == 1:
                        top = max(top, m - ell)
                        break
                    single.add(m - ell)
                    reach = max(reach, ell)
        m -= 1
    for m in range(1, n):
        if reach:
            # A chain: every head has one child, so index m and those
            # above it read m - reach and up, never m - 1 - reach.
            memo.pop(m - 1 - reach, None)
        if m > top and m not in single:
            continue
        words = []
        for ell, n_colors, comps in plan(m):
            if ell not in letters:
                if len(rises) + n_colors > _CODE_LIMIT:
                    raise ResourceLimit(
                        f"more than {_CODE_LIMIT - 1} distinct rise blocks "
                        f"below index {n}"
                    )
                new = [Rise(ell, color) for color in range(1, n_colors + 1)]
                codes = range(len(rises), len(rises) + n_colors)
                letters[ell] = [*map(chr, codes)] if spell is None else spell(new)
                rises.extend(new)
            ends = []
            for comp in comps:
                ends.extend(tails(comp))
            for letter in letters[ell]:
                words.extend(map(letter.__add__, ends))
        memo[m] = words

    def groups(heads):
        for ell, n_colors, comps in heads:
            for color in range(1, n_colors + 1):
                head = (Rise(ell, color),)
                for comp in comps:
                    yield head, tails(comp)

    if n == 0:
        if cap < 1:
            raise ResourceLimit(f"more than {cap} words at index 0")
        return rises, iter([((), tails(()))])
    return rises, groups(plan(n))


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

    The words are those of the walk spelled in block codes, each
    decoded into its block tuple and not re-validated: the head leaves
    balance r - 1, the r - 1 separators close it, every child is
    balanced, and color <= c_ell by the loop bounds, so each word
    carries the coloring.
    """
    rises, groups = _walk(params, colors, n, cap)
    decode = rises.__getitem__
    return tuple([
        _trusted_word(params, head + tuple(map(decode, map(ord, tail))), n, colors)
        for head, tails in groups
        for tail in tails
    ])
