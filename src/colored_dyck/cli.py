"""Command-line front end.

Subcommands: count, peaks, enumerate, decompose, validate, preset.
Output formats: plain, bfile ("n value" per line, no header), jsonl
(one UTF-8 JSON record per line).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import operator
import os
import sys

from . import bijection, counting, model, sequences
from .bell import _int_text, _need_index
from .errors import ColoredDyckError, InvalidIndex, NonIntegerTerm

__all__ = ["main", "parse_color_spec"]


def _plain_int(text: str) -> int:
    """A number as the CLI writes it, in an option or a color spec:
    ASCII digits after at most one leading "-", with no "+", blank or
    underscore.  The library checks its range."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a plain integer: {text!r}")
    return int(text)


# argparse names the type function in its "invalid ... value" message.
_plain_int.__name__ = "int"


_CS = model.ColorSequence


def parse_color_spec(spec: str) -> model.ColorSequence:
    """Grammar: ones | pow2 | catpair | const:V | explicit:c1,c2,...[+tail:T],
    each number read by _plain_int, T before the c_i."""
    kind, colon, body = spec.partition(":")
    if colon and kind == "const":
        return _CS.constant(_plain_int(body))
    if colon and kind == "explicit":
        body, plus, tail = body.partition("+tail:")
        tail = _plain_int(tail) if plus else 0
        return _CS.explicit(tuple(map(_plain_int, body.split(","))) if body else (), tail)
    named = {"ones": _CS.ones, "pow2": _CS.powers_of_two, "catpair": _CS.catalan_pair_sum}
    if spec in named:
        return named[spec]()
    raise argparse.ArgumentTypeError(f"bad color spec: {spec!r}")


def _color_spec_arg(spec: str) -> model.ColorSequence:
    # The parser is built once per process; looking parse_color_spec up
    # at call time lets a wrapper installed later (a tracer) see it.
    # argparse replaces a ValueError's text with its own, so a count the
    # library rejects keeps its message as an ArgumentTypeError.
    try:
        return parse_color_spec(spec)
    except InvalidIndex as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


# argparse names the type function in its "invalid ... value" message.
_color_spec_arg.__name__ = "parse_color_spec"


def _read_word_text(args) -> str:
    return sys.stdin.read() if args.word is None else args.word


# Output is written in pieces of about this many characters.
_WRITE_CHARS = 1 << 16


def _flush() -> None:
    """Flush stdout, so that a reader sees what was written and a
    closed pipe raises here.  In-process callers may capture stdout
    with a write-only object."""
    flush = getattr(sys.stdout, "flush", None)
    if flush is not None:
        flush()


def _write_batch(pieces) -> None:
    """Write the text of pieces, which ends in a newline, in writes that
    each end at the first line end past _WRITE_CHARS once more than
    2 * _WRITE_CHARS characters are left; then flush."""
    text, start = "".join(pieces), 0
    while len(text) - start > 2 * _WRITE_CHARS:
        end = text.find("\n", start + _WRITE_CHARS) + 1
        sys.stdout.write(text[start:end])
        start = end
    sys.stdout.write(text[start:])
    _flush()


def _write_lines(groups) -> None:
    """Write groups to stdout: each group is a pair (prefix, lines), and
    each of its lines goes out as prefix + line + newline.  A run of a
    group's lines is one join, prefix + ("\\n" + prefix).join(run), so
    the shared prefix rides in the separator and no line is formed on
    its own.

    The first line goes out at once.  Then each batch, which may span
    groups, takes runs of lines until it holds as many characters as
    were written before it, or _WRITE_CHARS once that many were, and
    is flushed: lines made one by one (count, preset) reach a reader
    as they come, in a number of writes that grows with the log of the
    text.  A run is one more line than the last line taken fits in what
    the batch lacks, but no more than the lines taken so far, so a
    short first line does not size a batch of long ones; a group that
    ends within its run leaves the rest of the run to the next group.
    A batch longer than 2 * _WRITE_CHARS, as where lines grow, goes out
    in pieces that each end at the first line end past _WRITE_CHARS,
    so no write after the first is longer than 2 * _WRITE_CHARS unless
    one line is longer than _WRITE_CHARS.  Where the lines raise, the
    lines taken before are written, then the error propagates.  The
    interpreter's limit on int-to-str digits (4300 by default) is
    lifted while lines are formed, so that a legal count of any size is
    written; argv is parsed with the limit in force."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    # goal is the size a batch waits for; at 0 the first line is a
    # batch of its own
    pieces, size, goal, taken, run = [], 0, 0, 0, 1
    try:
        for prefix, lines in groups:
            lines, sep = iter(lines), "\n" + prefix
            while True:
                part = []
                try:
                    part += itertools.islice(lines, run)
                finally:  # also where the lines raised
                    if part:
                        pieces += prefix, sep.join(part), "\n"
                if not part:
                    break
                size += len(pieces[-2]) + len(sep)
                taken += len(part)
                if size >= goal:
                    # emptied first, so that a write that fails is not
                    # made again below
                    batch, pieces = pieces, []
                    _write_batch(batch)
                    goal, size = min(goal + size, _WRITE_CHARS), 0
                elif len(part) < run:
                    run -= len(part)
                    break
                run = min((goal - size) // (len(sep) + len(part[-1])) + 1, taken)
    finally:
        sys.set_int_max_str_digits(saved)
        if pieces:
            _write_batch(pieces)


# The line of y_n = v in each output format of count, from (n, v).
_SERIES_LINE = {"plain": "{1}", "bfile": "{0} {1}", "jsonl": '{{"n":{0},"value":{1}}}'}


def _agreed(recurrence, bell, failure):
    """y_0, y_1, ...: each y_n once both routes have given it and the
    two are equal, checked as CountSeries checks a series.  At the first
    n where they differ, its message goes to failure and the values
    end."""
    n = 0
    for v, w in zip(recurrence, bell):
        if v != w or v < 0 or not n and v != 1:
            if v != w:
                values = f"recurrence={_int_text(v)} bell={_int_text(w)}"
                failure.append(f"route disagreement at n={n}: {values}")
                return
            raise ValueError(
                "counts are nonnegative" if v < 0 else "a count series must start with y_0 = 1"
            )
        n += 1
        yield v


def _cmd_count(args):
    # Both routes are online in n, so each y_n is written as soon as
    # both have given it and agree on it; a route run alone is compared
    # with itself.  The checks that need no term (the index, and the
    # tables it sizes) come before the first line.
    params, colors, N = model.PathParams(args.a, args.b), args.colors, args.N
    counting._need_length(N)
    routes = []
    if args.route != "bell":
        routes.append(map(operator.itemgetter(-1), counting._recurrence(params, colors, N)))
    if args.route != "recurrence":
        routes.append(itertools.chain((1,), counting._bell_terms(params, colors, N)))
    failure = []
    values = _agreed(*(routes if len(routes) == 2 else itertools.tee(routes[0])), failure)
    line = _SERIES_LINE[args.format].format
    _write_lines([("", map(line, itertools.count(), values))])
    if failure:
        print(failure[0], file=sys.stderr)
        return 1
    return 0


def _cmd_peaks(args):
    params = model.PathParams(args.a, args.b)
    table = counting.peak_table(params, args.colors, args.n)
    _write_lines([("", (f"{k} {count}" for k, count in enumerate(table, 1)))])
    return 0


def _block_json(block) -> str:
    if isinstance(block, model.Rise):
        return f'{{"type":"rise","j":{block.j},"color":{block.color}}}'
    return '{"type":"down"}'


# A child index of a jsonl listing's product groups with at most this
# many words has its words spelled once per walk (_spelled_children).
_SPELLED_BOUND = 4096


def _spelled_children(children, table, spell):
    """The spelled lists of each child (i, words) of a group, in order,
    or None when a child has more than _SPELLED_BOUND words.  table maps
    a child index to spell(words), made at the index's first read and
    kept for the walk; a group over the bound adds nothing to it."""
    if any(len(words) > _SPELLED_BOUND for _, words in children):
        return None
    return [
        table[i] if i in table else table.setdefault(i, spell(words))
        for i, words in children
    ]


def _cmd_enumerate(args):
    params = model.PathParams(args.a, args.b)
    spell = functools.partial(model._step_texts, params)
    # The cap is checked here, before any line is written.  Each group
    # of the walk is one head and the tails that follow it, so the
    # head's part of a line is made once per walk, from a table keyed
    # by the head, and handed to the writer as the group's prefix.  A
    # plain line is the walk's step text as is.  A jsonl record needs
    # both the blocks and the steps of a word, so its walk keeps block
    # codes.  The walk hands each of index n's product groups as its
    # children, and each child index with at most _SPELLED_BOUND words
    # has its words spelled once per walk into three lists: block JSON,
    # step text and peak count.  A group whose children are all spelled
    # writes each record from the product of those lists, joined by the
    # down step's JSON and text, with the peaks summed.  The chain's
    # groups, and a group with a child over the bound, translate each
    # record's code string twice, as its tails come.
    if args.format == "jsonl":
        rises, groups = bijection._walk(params, args.colors, args.n, args.cap, lists=True)
        steps = spell(rises)
        blocks = ["," + _block_json(block) for block in rises]
        down = chr(0)  # the code of a down step; every other code is a peak
        # head -> its record up to the head's block, and the format of
        # the rest from a tail's block JSON, peak count and step text
        # (step text holds no braces)
        heads = model._Table(lambda head: (
            f'{{"n":{args.n},"blocks":[' + "".join(map(_block_json, head)),
            ('{}],"peaks":{},"steps":"' + "".join(spell(head)) + '{}"}}').format,
        ))
        spelled = {}  # child index -> its words' block JSON, steps and peaks

        def pieces(words):
            return (
                [word.translate(blocks) for word in words],
                [word.translate(steps) for word in words],
                [len(word) - word.count(down) for word in words],
            )

        def group(head, tails):
            pre, rest = heads[head]
            if isinstance(tails, tuple):  # one of index n's product groups
                lists = _spelled_children(tails, spelled, pieces)
                if lists is not None:
                    return pre, map(
                        rest,
                        map(blocks[0].join, itertools.product(*[j for j, _, _ in lists])),
                        map(sum, itertools.product(*[p for _, _, p in lists]),
                            itertools.repeat(len(head))),
                        map(steps[0].join, itertools.product(*[s for _, s, _ in lists])),
                    )
                tails = map(down.join, itertools.product(*[words for _, words in tails]))
            return pre, (
                rest(tail.translate(blocks), len(head) + len(tail) - tail.count(down),
                     tail.translate(steps))
                for tail in tails
            )
    else:
        _, groups = bijection._walk(params, args.colors, args.n, args.cap, spell)
        heads = model._Table(lambda head: "".join(spell(head)))

        def group(head, tails):
            return heads[head], tails

    _write_lines(itertools.starmap(group, groups))
    return 0


def _cmd_decompose(args):
    params = model.PathParams(args.a, args.b)
    word = model.parse_steps(_read_word_text(args), params, args.colors)
    t = bijection.decompose(word, params, args.colors)
    children = (f"child {model.to_steps(child)}".rstrip() for child in t.children)
    _write_lines([("", itertools.chain((f"ell {t.ell}", f"color {t.color}"), children))])
    return 0


def _cmd_validate(args):
    params = model.PathParams(args.a, args.b)
    model.parse_steps(_read_word_text(args), params, args.colors)
    _write_lines([("", ["valid"])])
    return 0


# Each family: its (a, b), its coloring, and the closed forms, each a
# name in sequences with its leading arguments, that every count must
# equal.  mary's a is --m; narayana compares the peak row of index n.
_PRESETS = {
    "a052709": ((0, 2), _CS.explicit((1, 1)), [("a052709_closed",)]),
    "a186997": ((1, 2), _CS.explicit((1, 1)), [("a186997_closed",)]),
    "duchon": ((5, 0), _CS.catalan_pair_sum(), [("duchon_d",), ("duchon_alt",)]),
    "mary": ((None, 0), _CS.ones(), [("fuss_catalan",)]),
    "motzkin": ((1, 0), _CS.explicit((1, 1)), [("motzkin_colored", 1, 1)]),
    "narayana": ((1, 0), _CS.ones(), [("narayana",)]),
    "schroeder": ((1, 0), _CS.powers_of_two(), [("schroeder_little",)]),
}


def _cmd_preset(args):
    (a, b), colors, forms = _PRESETS[args.name]
    lead = ()  # arguments between a form's fixed ones and the index
    if args.name == "mary":
        a, lead = args.m, (args.m,)
    params = model.PathParams(a, b)

    # Each row is an index followed by values that must all be equal,
    # written as the Bell route makes its count: the peak row of index
    # n (narayana), checked as peak_table checks n, or y_1..y_N.
    if args.name == "narayana":
        top = args.n if args.n is not None else args.N
        _need_index(top, 1, "n")
        lead, where, first = (top,), f"n={top}, k=", top
    else:
        top, where, first = args.N, "n=", 1
    counts = counting._bell_terms(params, colors, top, first)
    # Looked up now, so that a closed form replaced in sequences is used.
    closed = [
        functools.partial(getattr(sequences, name), *fixed, *lead)
        for name, *fixed in forms
    ]
    bad = []

    def rows():
        for i, count in enumerate(counts, 1):
            row = (i, *(f(i) for f in closed), count)
            if len(set(row[1:])) > 1:
                bad.append(i)
            yield " ".join(map(str, row))

    _write_lines([("", rows())])
    if bad:
        print(f"closed form disagreement at {where}{bad[0]}", file=sys.stderr)
        return 1
    return 0


# The CLI grammar, which build_parser and _plain_args both read.  Each
# subcommand: its help, its function, and its arguments in order, each
# as the flag (a positional's name) and the keywords add_argument takes.
_COMMON = (
    ("--a", {"type": _plain_int, "required": True}),
    ("--b", {"type": _plain_int, "required": True}),
    ("--colors", {"type": _color_spec_arg, "default": model.ColorSequence.ones()}),
)
_WORD = ("word", {"nargs": "?", "help": "step text; stdin if omitted"})
_COMMANDS = {
    "count": ("print y_0..y_N", _cmd_count, (
        *_COMMON,
        ("--N", {"type": _plain_int, "required": True}),
        ("--route", {"choices": ("both", "recurrence", "bell"), "default": "both"}),
        ("--format", {"choices": _SERIES_LINE, "default": "plain"}),
    )),
    "peaks": ("print the peak-refined counts for one n", _cmd_peaks, (
        *_COMMON,
        ("--n", {"type": _plain_int, "required": True}),
    )),
    "enumerate": ("list every word of index n", _cmd_enumerate, (
        *_COMMON,
        ("--n", {"type": _plain_int, "required": True}),
        ("--format", {"choices": ("plain", "jsonl"), "default": "plain"}),
        ("--cap", {"type": _plain_int, "default": bijection.DEFAULT_ENUMERATION_CAP}),
    )),
    "decompose": ("print the tuple of one word", _cmd_decompose, (*_COMMON, _WORD)),
    "validate": ("check one word", _cmd_validate, (*_COMMON, _WORD)),
    "preset": ("compare a named family to its colored count", _cmd_preset, (
        ("name", {"choices": sorted(_PRESETS)}),
        ("--N", {"type": _plain_int, "default": 8}),
        ("--n", {"type": _plain_int, "help": "row index (narayana)"}),
        ("--m", {"type": _plain_int, "default": 2, "help": "arity (mary)"}),
    )),
}


@functools.cache
def build_parser():
    """The argument parser, built from _COMMANDS on the first call and
    then shared.  Its commands attribute is the subparsers action, whose
    choices map each subcommand's name to its parser."""
    parser = argparse.ArgumentParser(
        prog="colored-dyck",
        description="Count, generate, validate, and decompose colored Dyck paths.",
    )
    parser.commands = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, func, arguments) in _COMMANDS.items():
        p = parser.commands.add_parser(name, help=help_text)
        for flag, keywords in arguments:
            p.add_argument(flag, **keywords)
        p.set_defaults(func=func, parser=p)
    return parser


# The option flags of each subcommand.
_OPTIONS = {
    name: {flag for flag, _ in arguments if flag.startswith("-")}
    for name, (_, _, arguments) in _COMMANDS.items()
}


def _plain_args(argv: list):
    """The Namespace of build_parser().parse_args(argv) when argv is a
    plain command line, read from _COMMANDS; else None.

    Plain: every token a str, the first a subcommand's name, the rest
    that subcommand's positionals, in order, and exact `--option value`
    pairs of its options, none twice and no value starting with "-".
    A value is converted by its argument's type and checked against its
    choices, and every required argument must be given.  Anything else
    (help, --opt=value, an abbreviation, "--", a negative number, a
    value that its type or choices reject, a missing or extra argument)
    is None: argparse parses it, with its own messages and exit codes."""
    if not (argv and all(isinstance(token, str) for token in argv) and argv[0] in _COMMANDS):
        return None
    name, options = argv[0], _OPTIONS[argv[0]]
    _, func, arguments = _COMMANDS[name]
    positionals = (flag for flag, _ in arguments if not flag.startswith("-"))
    texts = {}  # flag -> the token given for it
    tokens = iter(argv[1:])
    for token in tokens:
        if token.startswith("-"):
            flag, token = token, next(tokens, "-")  # a missing value reads as an option
            if flag not in options or flag in texts or token.startswith("-"):
                return None
        elif (flag := next(positionals, None)) is None:
            return None
        texts[flag] = token
    parser = build_parser().commands.choices[name]
    values = {"command": name, "func": func, "parser": parser}
    for flag, keywords in arguments:
        if flag in texts:
            try:
                value = keywords.get("type", str)(texts[flag])
            except (ValueError, TypeError, argparse.ArgumentTypeError):
                return None
            if value not in keywords.get("choices", (value,)):
                return None
        elif keywords.get("required", not flag.startswith("-") and "nargs" not in keywords):
            return None  # a positional is required unless its nargs is "?"
        else:
            value = keywords.get("default")
        values[flag.lstrip("-")] = value
    return argparse.Namespace(**values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _plain_args(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        # Flush here so that a closed pipe is handled below, not at
        # interpreter exit.
        _flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout (e.g. `| head`).  Point stdout at
        # devnull so that the flush at interpreter exit stays quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except NonIntegerTerm as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # InvalidIndex too: a usage error of the subcommand
        args.parser.error(str(exc))
    except ColoredDyckError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (MemoryError, OverflowError) as exc:
        # A table sized by the index that cannot be allocated: more
        # entries than memory holds, or than a list index can count.
        print(
            "ResourceLimit: cannot allocate the tables for this index "
            f"({type(exc).__name__})",
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
