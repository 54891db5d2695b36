"""Command-line front end.

Subcommands: count, peaks, enumerate, decompose, validate, preset.
Output formats: plain, bfile ("n value" per line, no header), jsonl
(one UTF-8 JSON record per line).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import os
import sys

from . import bijection, counting, model, sequences
from .bell import _int_text
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


def _write_lines(lines) -> None:
    """Write each line of lines to stdout, ending it with a newline: the
    first at once, then batches of as many lines as the last line
    written fits in _WRITE_CHARS characters.  A batch longer than
    2 * _WRITE_CHARS, as where lines grow, goes out in pieces that each
    end at the first line end past _WRITE_CHARS, so no write after the
    first is longer than 2 * _WRITE_CHARS unless one line is longer
    than _WRITE_CHARS.  The interpreter's limit on int-to-str digits
    (4300 by default) is lifted while lines are formed, so that a legal
    count of any size is written; argv is parsed with the limit in
    force."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        lines, per_write = iter(lines), 1
        # Each batch is its lines and an empty one, joined by newlines.
        while len(batch := [*itertools.islice(lines, per_write), ""]) > 1:
            text, start = "\n".join(batch), 0
            while len(text) - start > 2 * _WRITE_CHARS:
                end = text.find("\n", start + _WRITE_CHARS) + 1
                sys.stdout.write(text[start:end])
                start = end
            sys.stdout.write(text[start:])
            per_write = max(1, _WRITE_CHARS // (len(batch[-2]) + 1))
    finally:
        sys.set_int_max_str_digits(saved)


# The line of y_n = v in each output format of count.
_SERIES_LINE = {"plain": "{v}", "bfile": "{n} {v}", "jsonl": '{{"n":{n},"value":{v}}}'}


def _cmd_count(args):
    params = model.PathParams(args.a, args.b)
    series = None
    if args.route in ("both", "recurrence"):
        series = counting.count_recurrence(params, args.colors, args.N)
    if args.route in ("both", "bell"):
        bell_series = counting.count_bell(params, args.colors, args.N)
        if series is not None and series.values != bell_series.values:
            n = next(n for n, v in enumerate(bell_series.values) if v != series[n])
            values = f"recurrence={_int_text(series[n])} bell={_int_text(bell_series[n])}"
            print(f"route disagreement at n={n}: {values}", file=sys.stderr)
            return 1
        series = bell_series
    line = _SERIES_LINE[args.format].format
    _write_lines(line(n=n, v=v) for n, v in enumerate(series.values))
    return 0


def _cmd_peaks(args):
    params = model.PathParams(args.a, args.b)
    table = counting.peak_table(params, args.colors, args.n)
    _write_lines(f"{k} {count}" for k, count in enumerate(table, 1))
    return 0


def _block_json(block) -> str:
    if isinstance(block, model.Rise):
        return f'{{"type":"rise","j":{block.j},"color":{block.color}}}'
    return '{"type":"down"}'


def _cmd_enumerate(args):
    params = model.PathParams(args.a, args.b)
    spell = functools.partial(model._step_texts, params)
    # The cap is checked here, before any line is written.  A jsonl
    # record needs both the blocks and the steps of a word, so its walk
    # keeps block codes and each record translates them twice; a plain
    # line is the walk's step text as is.
    if args.format == "jsonl":
        rises, groups = bijection._walk(params, args.colors, args.n, args.cap)
        steps = spell(rises)
        blocks = ["," + _block_json(block) for block in rises]
        down = chr(0)  # the code of a down step; every other code is a peak

        def lines(head, tails):
            pre = f'{{"n":{args.n},"blocks":[' + "".join(map(_block_json, head))
            text = "".join(spell(head))
            return (
                f'{pre}{tail.translate(blocks)}],"peaks":'
                f'{len(head) + len(tail) - tail.count(down)},'
                f'"steps":"{text}{tail.translate(steps)}"}}'
                for tail in tails
            )
    else:
        _, groups = bijection._walk(params, args.colors, args.n, args.cap, spell)

        def lines(head, tails):
            return map("".join(spell(head)).__add__, tails)

    _write_lines(itertools.chain.from_iterable(itertools.starmap(lines, groups)))
    return 0


def _cmd_decompose(args):
    params = model.PathParams(args.a, args.b)
    word = model.parse_steps(_read_word_text(args), params, args.colors)
    t = bijection.decompose(word, params, args.colors)
    children = (f"child {model.to_steps(child)}".rstrip() for child in t.children)
    _write_lines(itertools.chain((f"ell {t.ell}", f"color {t.color}"), children))
    return 0


def _cmd_validate(args):
    params = model.PathParams(args.a, args.b)
    model.parse_steps(_read_word_text(args), params, args.colors)
    _write_lines(["valid"])
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

    # Each row is an index followed by values that must all be equal.
    if args.name == "narayana":
        top = args.n if args.n is not None else args.N
        counts = counting.peak_table(params, colors, top)
        lead = (top,)
        where = f"n={top}, k="
    else:
        top = args.N
        counts = counting.count_bell(params, colors, top)
        where = "n="
    # Looked up now, so that a closed form replaced in sequences is used.
    closed = [
        functools.partial(getattr(sequences, name), *fixed, *lead)
        for name, *fixed in forms
    ]
    rows = [(i, *(f(i) for f in closed), counts[i]) for i in range(1, top + 1)]
    _write_lines(" ".join(map(str, row)) for row in rows)
    bad = [row[0] for row in rows if len(set(row[1:])) > 1]
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
        # interpreter exit.  In-process callers may capture stdout with
        # a write-only object.
        flush = getattr(sys.stdout, "flush", None)
        if flush is not None:
            flush()
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
