"""The CLI output corpus: every command line of it, and a digest of
what each one prints.

    PYTHONPATH=src python tests/golden/record.py

rewrites cli.txt next to this file from the code on PYTHONPATH.  Each
line of cli.txt is one command line's argv, joined by spaces, then
the first 16 hex digits of the sha256 of (exit code, stdout, stderr)
of colored_dyck.cli.main on that argv in process, with stdin empty.
A usage error (exit 2) leaves stderr out: argparse's usage text
differs between Python versions and with the terminal's width.

The argv are made the same way on every run (a seeded random number
generator mutates the words), so the file changes only where the
output does.  tests/test_cli_corpus.py runs every line again.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from pathlib import Path

from colored_dyck.bijection import enumerate_all
from colored_dyck.cli import main, parse_color_spec
from colored_dyck.counting import count_recurrence
from colored_dyck.model import PathParams, to_steps

CORPUS = Path(__file__).with_name("cli.txt")

# conftest's PARAM_GRID and COLOR_GRID, as the CLI spells them
PAIRS = [(a, b) for a in range(4) for b in range(4) if a + b >= 1]
SPECS = ["ones", "pow2", "catpair", "explicit:1,1", "explicit:2,0,1", "const:3"]

# enumerate lists index n at most ENUMERATE_TOP, and only where it has
# at most ENUMERATE_WORDS words
ENUMERATE_TOP, ENUMERATE_WORDS = 6, 3000
HUGE = str(10**20)  # past what a list index holds
BIG = "const:1" + "0" * 100  # y_50 has more than 4300 digits


def digest(argv) -> str:
    """The corpus digest of main(argv): 16 hex digits of the sha256 of
    (exit code, stdout, stderr), stderr left out at exit 2."""
    out, err, stdin = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.StringIO("")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.stdin = stdin
    seen = [code, out.getvalue()] + ([] if code == 2 else [err.getvalue()])
    return hashlib.sha256(json.dumps(seen).encode()).hexdigest()[:16]


def _count():
    for (a, b), spec in ((pair, spec) for pair in PAIRS for spec in SPECS):
        for N in (0, 1, 5, 12):
            for fmt in ("plain", "bfile", "jsonl"):
                for route in ("both", "recurrence", "bell"):
                    yield ["count", "--a", a, "--b", b, "--colors", spec, "--N", N,
                           "--format", fmt, "--route", route]
    for route in ("both", "recurrence", "bell"):
        yield ["count", "--a", 1, "--b", 0, "--N", HUGE, "--route", route]
        yield ["count", "--a", 1, "--b", 0, "--colors", BIG, "--N", 50, "--route", route]
    yield from (
        ["count", "--a", 1, "--b", 0, "--N", 5],  # default coloring, format and route
        ["count", "--a", 1, "--b", 0, "--col", "ones", "--N", 5],  # through argparse
        ["count", "--a=2", "--b=1", "--colors=catpair", "--N=8", "--format=bfile"],
        ["count", "--a", 1, "--b", 0, "--N", -1],
        ["count", "--a", 0, "--b", 0, "--N", 3],
        ["count", "--a", -1, "--b", 0, "--N", 3],
        ["count", "--a", 1, "--b", 0, "--colors", "const:-1", "--N", 3],
        ["count", "--a", 1, "--b", 0, "--colors", "rainbow", "--N", 3],
        ["count", "--a", 1, "--b", 0, "--N", 3, "--route", "neither"],
        ["count", "--a", 1, "--b", 0, "--N", 3, "--format", "csv"],
        ["count", "--a", 1, "--b", 0],
    )


def _peaks():
    for (a, b), spec in ((pair, spec) for pair in PAIRS for spec in SPECS):
        for n in (1, 5, 12):
            yield ["peaks", "--a", a, "--b", b, "--colors", spec, "--n", n]
    yield ["peaks", "--a", 1, "--b", 0, "--n", 0]
    yield ["peaks", "--a", 1, "--b", 0, "--n", HUGE]


def _preset():
    for name in ("a052709", "a186997", "duchon", "mary", "motzkin", "schroeder"):
        for N in (1, 15):
            yield ["preset", name, "--N", N]
    for n in (1, 12):
        yield ["preset", "narayana", "--n", n]
    yield from (
        ["preset", "narayana", "--N", 7],  # --N is the row index without --n
        ["preset", "narayana"],
        ["preset", "mary", "--m", 3, "--N", 10],
        ["preset", "mary", "--m", 1, "--N", 4],
        ["preset", "mary", "--m", 0],
        ["preset", "narayana", "--N", 0],
        ["preset", "narayana", "--n", HUGE],
        ["preset", "motzkin", "--N", HUGE],
        ["preset", "fibonacci", "--N", 5],
    )


def _words(rng):
    """(a, b, spec, word) of index 2 and 3 for every pair and coloring:
    the first, a drawn and the last word of each listing, and each
    mutated."""
    for (a, b), spec in ((pair, spec) for pair in PAIRS for spec in SPECS):
        params, colors = PathParams(a, b), parse_color_spec(spec)
        for n in (2, 3):
            words = [to_steps(w) for w in enumerate_all(params, colors, n)]
            if not words:
                continue
            for word in dict.fromkeys([words[0], rng.choice(words), words[-1]]):
                yield a, b, spec, word
                yield a, b, spec, _mutated(rng, word)


def _mutated(rng, word):
    """word with one random edit: a step dropped, added or flipped, or
    a color raised or set to 0."""
    i = rng.randrange(len(word))
    edit = rng.randrange(5)
    if edit == 0:
        return word[:i] + word[i + 1 :] or "d"
    if edit == 1:
        return word[:i] + rng.choice("ud") + word[i:]
    if edit == 2:
        return word[:i] + {"u": "d", "d": "u"}.get(word[i], "u") + word[i + 1 :]
    head, bracket, rest = word.partition("[")
    color, _, tail = rest.partition("]")
    color = int(color) + 1 if edit == 3 else 0
    return f"{head}{bracket}{color}]{tail}"


def _enumerate():
    for (a, b), spec in ((pair, spec) for pair in PAIRS for spec in SPECS):
        y = count_recurrence(PathParams(a, b), parse_color_spec(spec), ENUMERATE_TOP).values
        for n in range(1, ENUMERATE_TOP + 1):
            if y[n] <= ENUMERATE_WORDS:
                for fmt in ("plain", "jsonl"):
                    yield ["enumerate", "--a", a, "--b", b, "--colors", spec, "--n", n,
                           "--format", fmt]
    for a, b, spec, n in ((1, 0, "ones", 5), (2, 1, "catpair", 2), (0, 1, "explicit:2,0,1", 4)):
        y = count_recurrence(PathParams(a, b), parse_color_spec(spec), n)[n]
        for cap in (y, y - 1):  # at the count, and one below it
            for fmt in ("plain", "jsonl"):
                yield ["enumerate", "--a", a, "--b", b, "--colors", spec, "--n", n,
                       "--format", fmt, "--cap", cap]
    yield from (
        ["enumerate", "--a", 1, "--b", 0, "--n", 0],
        ["enumerate", "--a", 1, "--b", 0, "--n", 3, "--cap", -1],
        ["enumerate", "--a", 1, "--b", 0, "--n", 100000000],
        ["enumerate", "--a", 0, "--b", 1, "--colors", "explicit:0,1", "--n", 40],
        ["enumerate", "--a", 3, "--b", 0, "--colors", "explicit:0,0,0,0,0,1", "--n", 15],
    )


def _decompose_validate():
    for a, b, spec, word in _words(random.Random(24)):
        for command in ("decompose", "validate"):
            yield [command, "--a", a, "--b", b, "--colors", spec, word]
    for command in ("decompose", "validate"):
        yield [command, "--a", 1, "--b", 0]  # the empty word, from stdin
        yield [command, "--a", 1, "--b", 0, "u[" + "1" * 5000 + "]d"]
        yield [command, "--a", 1, "--b", 0, "ud", "ud"]


def argvs() -> list[list[str]]:
    """Every command line of the corpus, in its order in cli.txt."""
    lines = [
        [str(token) for token in argv]
        for make in (_count, _peaks, _preset, _enumerate, _decompose_validate)
        for argv in make()
    ]
    for argv in lines:
        if not all(token and " " not in token for token in argv):
            raise ValueError(f"a token of {argv} is empty or holds a blank")
    return lines


def read(path=CORPUS) -> list[tuple[list[str], str]]:
    """The (argv, digest) of each line of a corpus file."""
    pairs = []
    for line in path.read_text().splitlines():
        text, _, digest_text = line.rpartition(" ")
        pairs.append((text.split(" "), digest_text))
    return pairs


def record(path=CORPUS) -> None:
    path.write_text("".join(" ".join([*argv, digest(argv)]) + "\n" for argv in argvs()))


if __name__ == "__main__":
    record()
