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
from contextlib import contextmanager

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


def parse_color_spec(spec: str) -> model.ColorSequence:
    """Grammar: ones | pow2 | catpair | const:V | explicit:c1,c2,...[+tail:T],
    each number read by _plain_int."""
    if spec == "ones":
        return model.ColorSequence.ones()
    if spec == "pow2":
        return model.ColorSequence.powers_of_two()
    if spec == "catpair":
        return model.ColorSequence.catalan_pair_sum()
    if spec.startswith("const:"):
        return model.ColorSequence.constant(_plain_int(spec[len("const:"):]))
    if spec.startswith("explicit:"):
        body = spec[len("explicit:"):]
        tail = 0
        if "+tail:" in body:
            body, tail_part = body.split("+tail:", 1)
            tail = _plain_int(tail_part)
        prefix = tuple(map(_plain_int, body.split(","))) if body else ()
        return model.ColorSequence.explicit(prefix, tail)
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


def _add_common(parser):
    parser.add_argument("--a", type=_plain_int, required=True)
    parser.add_argument("--b", type=_plain_int, required=True)
    parser.add_argument(
        "--colors", type=_color_spec_arg, default=model.ColorSequence.ones()
    )


def _read_word_text(args) -> str:
    if args.word is not None:
        return args.word
    return sys.stdin.read()


@contextmanager
def _int_text_unlimited():
    """Lift the interpreter's limit on int-to-str digits (4300 by
    default) while output is formatted, so that a legal count of any
    size is printed; argv is parsed with the limit in force."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
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
    with _int_text_unlimited():
        line = _SERIES_LINE[args.format].format
        print("\n".join(line(n=n, v=v) for n, v in enumerate(series.values)))
    return 0


def _cmd_peaks(args):
    params = model.PathParams(args.a, args.b)
    table = counting.peak_table(params, args.colors, args.n)
    with _int_text_unlimited():
        for k, count in enumerate(table, 1):
            print(f"{k} {count}")
    return 0


# Output is written in pieces of about this many characters.
_WRITE_CHARS = 1 << 16


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

    out = itertools.chain.from_iterable(itertools.starmap(lines, groups))
    first = next(out, None)
    if first is None:
        return 0
    sys.stdout.write(first + "\n")
    per_write = max(1, _WRITE_CHARS // (len(first) + 1))
    # Each piece is its lines and an empty one, joined by newlines.
    while len(piece := [*itertools.islice(out, per_write), ""]) > 1:
        sys.stdout.write("\n".join(piece))
    return 0


def _cmd_decompose(args):
    params = model.PathParams(args.a, args.b)
    word = model.parse_steps(_read_word_text(args), params, args.colors)
    t = bijection.decompose(word, params, args.colors)
    print(f"ell {t.ell}")
    print(f"color {t.color}")
    for child in t.children:
        print(f"child {model.to_steps(child)}".rstrip())
    return 0


def _cmd_validate(args):
    params = model.PathParams(args.a, args.b)
    model.parse_steps(_read_word_text(args), params, args.colors)
    print("valid")
    return 0


# Each family: its (a, b), its coloring, and the closed forms, each a
# name in sequences with its leading arguments, that every count must
# equal.  mary's a is --m; narayana compares the peak row of index n.
_CS = model.ColorSequence
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
    with _int_text_unlimited():
        for row in rows:
            print(" ".join(map(str, row)))
    bad = [row[0] for row in rows if len(set(row[1:])) > 1]
    if bad:
        print(f"closed form disagreement at {where}{bad[0]}", file=sys.stderr)
        return 1
    return 0


@functools.cache
def build_parser():
    """The argument parser, built on the first call and then shared."""
    parser = argparse.ArgumentParser(
        prog="colored-dyck",
        description="Count, generate, validate, and decompose colored Dyck paths.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="print y_0..y_N")
    _add_common(p)
    p.add_argument("--N", type=_plain_int, required=True)
    p.add_argument(
        "--route", choices=("both", "recurrence", "bell"), default="both"
    )
    p.add_argument(
        "--format", choices=_SERIES_LINE, default="plain"
    )
    p.set_defaults(func=_cmd_count, parser=p)

    p = sub.add_parser("peaks", help="print the peak-refined counts for one n")
    _add_common(p)
    p.add_argument("--n", type=_plain_int, required=True)
    p.set_defaults(func=_cmd_peaks, parser=p)

    p = sub.add_parser("enumerate", help="list every word of index n")
    _add_common(p)
    p.add_argument("--n", type=_plain_int, required=True)
    p.add_argument("--format", choices=("plain", "jsonl"), default="plain")
    p.add_argument(
        "--cap", type=_plain_int, default=bijection.DEFAULT_ENUMERATION_CAP
    )
    p.set_defaults(func=_cmd_enumerate, parser=p)

    p = sub.add_parser("decompose", help="print the tuple of one word")
    _add_common(p)
    p.add_argument("word", nargs="?", help="step text; stdin if omitted")
    p.set_defaults(func=_cmd_decompose, parser=p)

    p = sub.add_parser("validate", help="check one word")
    _add_common(p)
    p.add_argument("word", nargs="?", help="step text; stdin if omitted")
    p.set_defaults(func=_cmd_validate, parser=p)

    p = sub.add_parser("preset", help="compare a named family to its colored count")
    p.add_argument("name", choices=sorted(_PRESETS))
    p.add_argument("--N", type=_plain_int, default=8)
    p.add_argument("--n", type=_plain_int, help="row index (narayana)")
    p.add_argument("--m", type=_plain_int, default=2, help="arity (mary)")
    p.set_defaults(func=_cmd_preset, parser=p)

    return parser


def main(argv=None) -> int:
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
