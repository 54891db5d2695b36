"""The constructive bijection behind the convolution recurrence.

A nonempty word of index n corresponds uniquely to a tuple
(ell, color; D_1, ..., D_{a*ell+b}): the leading Rise block of size
ell with its color, followed by the children words separated by single
down steps.  compose builds the word from the tuple, decompose inverts
it via the excess procedure, and enumerate_all lists the whole set in
a fixed deterministic order.  The enumeration is one walk that counts
every index first, through count_recurrence's own loop, and reads from
those counts alone which heads and children have words; then it memoizes
every child index as strings, spelled in an alphabet its caller picks:
enumerate_all spells each block as a one-character code, which it
decodes into blocks; the CLI's plain listing spells each block as its
step text, so each output line is a head's text and one of the walk's
finished child strings, without a word object or a translation.  Every
product of children, in the memo and in the groups the walk hands its
callers, is formed in one place, by itertools.product and str.join.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations_with_replacement, islice, product
from operator import sub

from .bell import _int_text, _need_index
from .counting import _recurrence
from .errors import EmptyWord, InvalidTuple, MalformedWord, ResourceLimit
from .model import (
    DOWN,
    ColoredDyckWord,
    ColorSequence,
    PathParams,
    Rise,
    _check_colors,
    _colors_checked,
    _Table,
    _trusted_word,
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
        if not all(isinstance(v, int) and type(v) is not bool for v in (self.ell, self.color)):
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

    Colors are checked first (model.validate_colors), head first, unless
    the word carries the coloring; only they are checked over the whole
    word.  Then the separators are scanned for, and the scan stops at
    the last one: everything after it is the last child, whose index is
    n - ell minus the other children's.  At a*ell+b = 1 no block is
    read.  Each c_j is read once per distinct size j per call, and each
    child is cut from the word's block tuple as one slice; the children
    carry the coloring.
    """
    if w.params != params:
        raise MalformedWord(
            f"word is built for (a, b) = {_pair_text(w.params)}, "
            f"not {_pair_text(params)}"
        )
    blocks = w.blocks
    if not blocks:
        raise EmptyWord("cannot decompose the empty word")
    validate_colors(w, colors)

    # Each child before the last is the slice between two separators;
    # balance and size are the open child's, left counts the separators
    # not yet met and rest the index not yet given to a child.
    a, b = params.a, params.b
    head = blocks[0]
    left = a * head.j + b - 1
    rest = w.n - head.j
    children = []
    start = 1
    if left:
        balance = size = 0
        for end, block in enumerate(islice(blocks, 1, None), 1):
            if isinstance(block, Rise):
                j = block.j
                balance += a * j + b - 1  # the net of the block
                size += j
            elif balance:
                balance -= 1
            else:
                children.append(_trusted_word(params, blocks[start:end], size, colors))
                start, rest, size = end + 1, rest - size, 0
                left -= 1
                if not left:
                    break
    children.append(_trusted_word(params, blocks[start:], rest, colors))
    return DecompositionTuple(head.j, head.color, tuple(children))


def weak_compositions(total: int, parts: int):
    """Yield weak compositions of `total` into `parts` nonnegative
    integers in lexicographic order: stars and bars, cutting 0..total
    at each nondecreasing choice of parts - 1 points in turn.  Like
    the rest of the body, the argument check runs at the first next().

    This is the oracle of _compositions, with which the walk lists
    children: that yields those of these compositions whose parts all
    have words, in the same order."""
    _need_index(total, 0, "total")
    _need_index(parts, 0, "parts")
    if parts == 0:
        if total == 0:
            yield ()
        return
    for cuts in combinations_with_replacement(range(total + 1), parts - 1):
        yield tuple(map(sub, (*cuts, total), (0, *cuts)))


def _choices(y):
    """The table of first parts of the walk, made once y is counted:
    (q, s) -> the first parts p, ascending, of q >= 1 parts that have
    words and sum to s.  y's support is closed under addition (a
    nonempty word has an empty child, where a word of any index can be
    grafted), so s is the sum of q >= 1 parts that have words exactly
    when y_s > 0: at q = 1 the one part is s itself, and at q >= 2
    the first part p needs y_p > 0 and y_(s-p) > 0."""

    def firsts(key):
        q, s = key
        if q == 1:
            return [s] if y[s] else []
        return [p for p in range(s + 1) if y[p] and y[s - p]]

    return _Table(firsts)


def _compositions(total: int, parts: int, choices):
    """Yield the weak compositions of `total` into `parts` >= 1 parts
    whose every part has words, lazily and in weak_compositions' order,
    with choices the walk's table of first parts (_choices).

    A part is chosen only where the rest is a sum of parts that have
    words, so no choice is a dead end, and once the rest is 0 so is
    every later part.  There is one iterator of choices per part, not
    one frame: no recursion, however many parts."""
    comp = [0] * parts
    rests = [total] * parts  # rests[i]: the sum of parts i, i + 1, ...
    stack = [iter(choices[parts, total])]
    while stack:
        i = len(stack) - 1
        p = next(stack[-1], None)
        if p is None:
            stack.pop()
            continue
        rest = rests[i] - p
        if not rest or i + 2 >= parts:
            # The rest, which has words as the table read it, is the
            # last part, and the parts between are 0; p is set last, as
            # at one part it is the last part.
            comp[i + 1 : -1] = [0] * (parts - i - 2)
            comp[-1], comp[i] = rest, p
            yield tuple(comp)
        else:
            comp[i] = p
            rests[i + 1] = rest
            stack.append(iter(choices[parts - i - 1, rest]))


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
    blocks.  Returns (rises, groups); groups is a generator of pairs
    (head, tails) that together hold every word in enumeration order:
    head is the block tuple (Rise(ell, color),) of index n's head (the
    empty tuple at n = 0) and tails iterates strings, each word being
    head followed by one tail, in turn.

    Before this returns, the words are counted and every limit is
    checked, with no word built.  counting._recurrence, the loop of
    count_recurrence, counts the words of each index, and y alone tells
    which heads and children have words: a head of size ell has words at
    index m exactly when c_ell > 0 and y_(m-ell) > 0 (_choices says
    why).  Every index that a word of index n can hold as a child, and n
    itself, is checked against the cap, lowest first, so the error names
    the lowest index over the cap; no other index is checked.  The same
    pass gives out the codes, so going over _CODE_LIMIT fails here too.
    Each c_j is read once per walk, at its first use, into a
    model._Table, and no head is larger than a polynomial coloring's
    degree.

    groups builds those child indices lowest first, each memoized whole
    as strings, one composition of children at a time.  It lists only
    the compositions whose children all have words (_compositions).  Its
    first words come before the memo is whole.  The first composition of
    index n's first head, color 1, is (0, ..., 0, L), since index L has
    words; index L's is likewise, and so on down to index 0: a chain.
    The chain's text is index n's first word, which goes out at once.
    Each chain index above 0 gives the words after its first group as
    soon as it is built.  Index n's other groups follow the memo, and
    the walk stops once y_n words are out.  An index that only heads
    with one child read (a link of a chain, as at a = 0, b = 1) leaves
    the memo once no index still to be built reads it.  Index n is never
    held: each group streams the product of one composition's memo
    lists, and every head of index n streams its compositions, afresh
    for each color.  The memo and index n read one table of first parts
    per walk (_choices), made once the limits are checked.  Heads at
    index n get no code: they may have more colors than characters.
    """
    _need_index(n, 0, "n")
    _need_index(cap, 0, "cap")
    a, b = params.a, params.b
    # No head is larger than a polynomial coloring's degree.
    form = colors.rational()
    most = len(form[0]) if form is not None and not form[1] else n
    # color[ell] = c_ell, read once per walk, at the first use of ell.
    color = _Table(colors.at)

    # The child indices, found from n down: every index up to top, and
    # those in single.  A head of size ell leaves children summing to
    # m - ell: any of 0..m - ell with two or more children, or at ell = 1
    # (its child may have a size-1 head), which covers larger heads too.
    # reach is the largest head with one child, at ell > 1.
    top, single, m, reach = 0, {n}, n, 0
    while m > top:
        if m in single:
            for ell in range(1, min(m, most) + 1):
                if color[ell] > 0:
                    if a * ell + b > 1 or ell == 1:
                        top = max(top, m - ell)
                        break
                    single.add(m - ell)
                    reach = max(reach, ell)
        m -= 1

    def sizes(m):
        """The head sizes with words at index m, ascending."""
        return (
            ell for ell in range(1, min(m, most) + 1)
            if color[ell] and y[m - ell]
        )

    rises = [DOWN]
    sep = "\0" if spell is None else spell(rises)[0]  # between children
    letters: dict[int, list[str]] = {}  # ell -> Rise(ell, 1), ... spelled
    for m, y in enumerate(_recurrence(params, colors, n)):
        if m != n and (m == 0 or m > top and m not in single):
            continue
        if y[m] > cap:
            raise ResourceLimit(f"more than {cap} words at index {m}")
        if m == n:
            break
        for ell in sizes(m):
            if ell not in letters:
                n_colors = color[ell]
                if len(rises) + n_colors > _CODE_LIMIT:
                    raise ResourceLimit(
                        f"more than {_CODE_LIMIT - 1} distinct rise blocks "
                        f"below index {n}"
                    )
                new = [Rise(ell, c) for c in range(1, n_colors + 1)]
                codes = range(len(rises), len(rises) + n_colors)
                letters[ell] = [*map(chr, codes)] if spell is None else spell(new)
                rises.extend(new)
    choices = _choices(y)
    # memo[m]: the string of every word of index m, in order.
    memo: dict[int, list[str]] = {0: [""]}

    def tails(comp):
        """D_1 ++ d ++ D_2 ++ ... ++ d ++ D_r for every choice of the
        children of indices comp, in product order."""
        return map(sep.join, product(*[memo[i] for i in comp]))

    def groups():
        if n == 0:
            yield (), tails(())
            return
        left = y[n]
        if not left:
            return
        # The chain of first compositions, down to index 0.  chain[m] is
        # the length of the text above index m, and the number of words
        # in m's first group, which the chain's deeper indices give, for
        # each chain index m > 0 with words past that group.  Every word
        # of the chain starts with the head of index n's first group.
        ell = next(sizes(n))
        head = (Rise(ell, 1),)
        pieces = [sep * (a * ell + b - 1)]
        length, m, chain = len(pieces[0]), n - ell, {}
        while m:
            ell = next(sizes(m))
            skip = y[m - ell]
            if y[m] > skip:
                chain[m] = length, skip
            pieces.append(letters[ell][0] + sep * (a * ell + b - 1))
            length += len(pieces[-1])
            m -= ell
        text = "".join(pieces)
        yield head, iter((text,))
        left -= 1
        for m in range(1, n):
            if not left:
                return
            if reach:
                # A chain: every head has one child, so index m and those
                # above it read m - reach and up, never m - 1 - reach.
                memo.pop(m - 1 - reach, None)
            if m > top and m not in single:
                continue
            words = []
            for ell in sizes(m):
                ends = []
                for comp in _compositions(m - ell, a * ell + b, choices):
                    ends.extend(tails(comp))
                for letter in letters[ell]:
                    words.extend(map(letter.__add__, ends))
            memo[m] = words
            if m in chain:
                length, skip = chain[m]
                yield head, map(text[:length].__add__, islice(words, skip, None))
                left -= len(words) - skip
        first = 1  # index n's first group went out with the chain
        for ell in sizes(n):
            for c in range(1, color[ell] + 1):
                head = (Rise(ell, c),)
                comps = _compositions(n - ell, a * ell + b, choices)
                for comp in islice(comps, first, None):
                    yield head, tails(comp)
                first = 0

    return rises, groups()


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
