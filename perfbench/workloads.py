"""The benchmark's four workloads, built as fixed op lists from a seed.

Each op is one request a user could make: a ``colored_dyck.cli.main``
call with stdout captured, or a short chain of library calls.  An op
returns its result and the time its first result became available;
its check runs afterwards, outside the timed region, and returns a
failure reason or None.

Every call into the package goes through a module attribute looked up
at call time (``_pkg.model.parse_steps``), so that the traced run's
wrappers see it.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import sys
from array import array
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from math import comb
from pathlib import Path
from time import perf_counter
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = Path(__file__).resolve().parent / "golden.json"

if not (SRC / "colored_dyck" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: package sources not found under {SRC}")
sys.path.insert(0, str(SRC))

import colored_dyck as _pkg  # noqa: E402
import colored_dyck.cli  # noqa: E402,F401
from colored_dyck.errors import (  # noqa: E402
    BadAscent,
    ColoredDyckError,
    ColorOutOfRange,
    MalformedAnnotation,
    NotDyck,
    TruncatedDescent,
)

if Path(_pkg.__file__).resolve().parent != SRC / "colored_dyck":
    raise SystemExit(f"perfbench: imported colored_dyck from {_pkg.__file__}, not {SRC}")

WORKLOADS = ("series", "bfile", "enumerate", "words")


@dataclass
class Op:
    """One request of a workload.

    ``run`` returns ``(result, first)``, where ``first`` is the
    perf_counter time at which the op's first result existed (None
    means "when the op returned").  ``check`` maps the result to a
    failure reason or None.  A ``probe`` checks the exit code that the
    README promises, and the output where one is given; it runs
    untraced so that its few calls do not blur the layer matrix.
    """

    name: str
    run: Callable[[], tuple]
    check: Callable[[object], str | None]
    probe: bool = False


@dataclass
class CliResult:
    code: int
    out: str | None  # stdout, if the op asked to keep it
    err: str
    first: float | None
    escaped: str | None  # exception type that escaped main, if any
    sha256: str  # of stdout
    lines: int  # newlines in stdout
    nbytes: int  # bytes in stdout
    line_hashes: array  # hash() of each stdout line


class _Sink:
    """Captured stdout that keeps a digest of what arrives, not the text.

    Writes are joined in chunks of about 64 KiB, and each chunk updates
    a sha256, the newline and byte counts and one 8-byte hash per line.
    Only an op that asks for it keeps the text itself, so the process's
    peak RSS is the package's and not a copy of its output.  The time
    of the first write is noted.
    """

    CHUNK = 1 << 16

    def __init__(self, keep: bool):
        self.first = None
        self.sha = hashlib.sha256()
        self.lines = self.nbytes = 0
        self.line_hashes = array("q")
        self.kept = [] if keep else None
        self._pending, self._size, self._partial = [], 0, ""

    def write(self, s):
        if self.first is None:
            self.first = perf_counter()
        self._pending.append(s)
        self._size += len(s)
        if self._size >= self.CHUNK:
            self._digest()
        return len(s)

    def _digest(self):
        text = "".join(self._pending)
        self._pending, self._size = [], 0
        if self.kept is not None:
            self.kept.append(text)
        data = text.encode()
        self.sha.update(data)
        self.nbytes += len(data)
        lines = (self._partial + text).split("\n")
        self._partial = lines.pop()
        self.lines += len(lines)
        self.line_hashes.extend(map(hash, lines))

    def close_out(self):
        """Flush the last chunk and count a final unterminated line."""
        self._digest()
        if self._partial:
            self.line_hashes.append(hash(self._partial))
            self._partial = ""
        return None if self.kept is None else "".join(self.kept)


def run_cli(argv, keep: bool = True) -> CliResult:
    """Call ``colored_dyck.cli.main(argv)`` as the console script would,
    with stdout and stderr captured.  ``keep=False`` drops the stdout
    text once it has been digested."""
    out, err = _Sink(keep), io.StringIO()
    escaped = None
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = _pkg.cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception as exc:  # the interpreter would print a traceback and exit 1
            code, escaped = 1, type(exc).__name__
    text = out.close_out()
    return CliResult(code, text, err.getvalue(), out.first, escaped,
                     out.sha.hexdigest(), out.lines, out.nbytes, out.line_hashes)


def _cli_op(argv, check, probe=False, name=None, keep=True) -> Op:
    argv = [str(a) for a in argv]

    def run():
        res = run_cli(argv, keep)
        return res, res.first

    return Op(name or " ".join(argv), run, check, probe)


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text())


def _exit_ok(res: CliResult) -> str | None:
    if res.escaped:
        return f"{res.escaped} escaped main"
    if res.code != 0:
        return f"exit {res.code}: {res.err.strip()[:200]}"
    return None


def _golden_check(name, golden, extra=None):
    want = golden.get(name)

    def check(res):
        reason = _exit_ok(res) or (extra(res) if extra else None)
        if reason:
            return reason
        if want is None:
            return "no golden digest recorded"
        if res.sha256 != want:
            return "stdout differs from the golden digest"
        return None

    return check


# --- series: the default dual-route count over the conftest grid -----

GRID = [(a, b) for a in range(4) for b in range(4) if a + b >= 1]
GRID_COLORS = ("ones", "pow2", "catpair", "explicit:1,1", "explicit:2,0,1", "const:3")
SERIES_N = (8, 16, 20)
PRESET_NAMES = ("a052709", "a186997", "duchon", "mary", "motzkin", "narayana", "schroeder")


def series_argvs():
    argvs = [
        ["count", "--a", a, "--b", b, "--colors", spec, "--N", N, "--format", "bfile"]
        for a, b in GRID
        for spec in GRID_COLORS
        for N in SERIES_N
    ]
    for name in PRESET_NAMES:
        argv = ["preset", name, "--N", 20]
        if name == "narayana":
            argv += ["--n", 20]
        argvs.append(argv)
    return argvs


def _preset_columns_equal(res):
    for line in res.out.splitlines():
        cols = line.split()[1:]
        if len(set(cols)) != 1:
            return f"preset columns differ: {line[:200]}"
    return None


def fuss_catalan_values(m, N):
    """(1/(m*n+1)) * C((m+1)*n, n) for n = 0..N, computed here."""
    return [comb((m + 1) * n, n) // (m * n + 1) for n in range(N + 1)]


# The README's exit codes for out-of-contract input: 2 for usage
# errors; a large but legal `a` must still succeed.
PROBES = [
    (["count", "--a", -1, "--b", 0, "--N", 3], 2, None),
    (["count", "--a", 1, "--b", 0, "--N", -1], 2, None),
    (["peaks", "--a", 1, "--b", 0, "--n", 0], 2, None),
    (["preset", "mary", "--m", 0], 2, None),
    (["preset", "narayana", "--N", 0], 2, None),
    (["count", "--a", 1500, "--b", 0, "--N", 3], 0,
     "".join(f"{v}\n" for v in fuss_catalan_values(1500, 3))),
]


# A probe failure that starts with this is a wrong answer, not a
# missing input check, and makes the run incorrect.
WRONG_OUTPUT = "wrong output"


def _probe_op(argv, code, out):
    def check(res):
        if res.escaped:
            return f"{res.escaped} escaped main (traceback, exit 1); README promises exit {code}"
        if res.code != code:
            return f"exit {res.code}; README promises exit {code}"
        if out is not None and res.out != out:
            return f"{WRONG_OUTPUT}: {res.out[:100]!r}"
        return None

    return _cli_op(argv, check, probe=True)


def _series_ops(golden):
    ops = []
    for argv in series_argvs():
        name = " ".join(map(str, argv))
        extra = _preset_columns_equal if argv[0] == "preset" else None
        ops.append(_cli_op(argv, _golden_check(name, golden.get("series", {}), extra)))
    return ops + [_probe_op(*p) for p in PROBES]


# --- bfile: long recurrence series against the closed forms -----------

def bfile_cases():
    """(label, a, b, colors, N, closed form looked up at call time)."""
    s = lambda: _pkg.sequences  # noqa: E731
    CS = _pkg.model.ColorSequence
    return [
        ("catalan", 1, 0, CS.ones(), 240, lambda n: s().fuss_catalan(1, n)),
        ("ternary", 2, 0, CS.ones(), 160, lambda n: s().fuss_catalan(2, n)),
        ("motzkin", 1, 0, CS.explicit((1, 1)), 400, lambda n: s().motzkin_colored(1, 1, n)),
        ("schroeder", 1, 0, CS.powers_of_two(), 200, lambda n: s().schroeder_little(n)),
        ("a052709", 0, 2, CS.explicit((1, 1)), 300, lambda n: s().a052709_closed(n)),
        ("a186997", 1, 2, CS.explicit((1, 1)), 250, lambda n: s().a186997_closed(n)),
        ("duchon", 5, 0, CS.catalan_pair_sum(), 100, lambda n: s().duchon_d(n)),
    ]


def _bfile_op(label, a, b, colors, N, closed):
    params = _pkg.model.PathParams(a, b)

    def run():
        series = _pkg.counting.count_recurrence(params, colors, N)
        first = perf_counter()
        return (series.values, [closed(n) for n in range(1, N + 1)]), first

    def check(result):
        values, expected = result
        if len(values) != N + 1 or values[0] != 1:
            return f"series has {len(values)} terms, y_0 = {values[0]}"
        for n, (got, want) in enumerate(zip(values[1:], expected), start=1):
            if got != want:
                return f"term {n}: recurrence {got} != closed form {want}"
        return None

    return Op(f"bfile {label} (a,b)=({a},{b}) N={N}", run, check)


# --- enumerate: exhaustive listings through the CLI -------------------

ENUMERATE_CASES = [
    (1, 0, "ones", 11),
    (1, 0, "pow2", 7),
    (1, 0, "explicit:1,1", 12),
    (2, 1, "catpair", 4),
    (0, 2, "explicit:1,1", 9),
    (1, 2, "explicit:1,1", 7),
    (2, 0, "ones", 8),
    (3, 3, "const:3", 3),
    (5, 0, "catpair", 3),
]


def enumerate_argvs():
    return [
        ["enumerate", "--a", a, "--b", b, "--colors", spec, "--n", n,
         "--format", "plain" if i % 2 == 0 else "jsonl"]
        for i, (a, b, spec, n) in enumerate(ENUMERATE_CASES)
    ]


def enumerate_expected_counts():
    """y_n for each enumerate case, from the recurrence route."""
    counts = []
    for a, b, spec, n in ENUMERATE_CASES:
        colors = _pkg.cli.parse_color_spec(spec)
        counts.append(_pkg.counting.count_recurrence(_pkg.model.PathParams(a, b), colors, n)[n])
    return counts


def _enumerate_ops(golden):
    ops = []
    for argv, count in zip(enumerate_argvs(), enumerate_expected_counts()):
        def extra(res, count=count):
            if res.lines != count:
                return f"{res.lines} lines, expected y_n = {count}"
            # Equal hashes of different lines (odds about 1e-10 here)
            # would also read as a duplicate.
            if len(set(res.line_hashes)) != len(res.line_hashes):
                return "duplicate lines"
            return None

        name = " ".join(map(str, argv))
        ops.append(_cli_op(argv, _golden_check(name, golden.get("enumerate", {}), extra),
                           keep=False))
    return ops


# --- words: long step texts through parse -> decompose -> compose -----

WORD_FAMILIES = [
    (1, 0, "ones", 3),
    (2, 1, "catpair", 3),
    (5, 0, "catpair", 3),
    (0, 2, "explicit:1,1", 2),
]  # (a, b, colors, largest rise size used)
WORDS_PER_FAMILY = 50
MIN_BLOCKS, MAX_BLOCKS = 300, 2950

MALFORMED = {
    "bad_color": ColorOutOfRange,
    "unbalanced": NotDyck,
    "bad_ascent": BadAscent,
    "truncated": TruncatedDescent,
    "bad_annotation": MalformedAnnotation,
}


def _random_blocks(rng, a, b, colors, jmax, target):
    """A uniform-ish random valid block list of about `target` blocks:
    a zero-drift walk over block balances, closed by down steps.
    Blocks are (j, color) for a rise and None for a down step."""
    net = [a * j + b - 1 for j in range(1, jmax + 1)]
    mean = sum(net) / len(net)
    p_down = mean / (1 + mean)
    blocks, balance = [], 0
    while len(blocks) + balance < target:
        if balance > 0 and rng.random() < p_down:
            blocks.append(None)
            balance -= 1
        else:
            j = rng.randint(1, jmax)
            blocks.append((j, rng.randint(1, colors.at(j))))
            balance += net[j - 1]
    blocks.extend([None] * balance)
    return blocks


def _block_texts(blocks, a, b):
    """Step text of each block, in the serializer's canonical form
    (annotation at the ascent/descent boundary), written here so that
    input generation does not depend on ``to_steps``."""
    return [
        "d" if blk is None
        else "u" * ((a + b) * blk[0]) + f"[{blk[1]}]" + "d" * (b * (blk[0] - 1) + 1)
        for blk in blocks
    ]


def _malform(rng, kind, blocks, a, b, colors):
    """Step text of `blocks` with exactly one defect of `kind`."""
    rises = [i for i, blk in enumerate(blocks) if blk is not None]
    i = rng.choice(rises)
    j, c = blocks[i]
    if kind == "bad_color":
        blocks[i] = (j, colors.at(j) + 1)
    if kind == "truncated":
        # Make sure rise i is directly followed by a rise; the extra
        # rise's balance is closed by down steps at the end.
        blocks.insert(i + 1, (1, 1))
        blocks.extend([None] * (a + b - 1))
    texts = _block_texts(blocks, a, b)
    if kind == "unbalanced":
        texts[-1] = texts[-1][:-1]
    elif kind == "bad_ascent":
        texts[i] = "u" + texts[i]
        texts.append("d")
    elif kind == "truncated":
        texts[i] = texts[i][:-1]
        texts.append("d")
    elif kind == "bad_annotation":
        texts[i] = texts[i].replace(f"[{c}]", "[0]")
    return "".join(texts)


@dataclass
class WordInput:
    a: int
    b: int
    spec: str
    text: str
    head: tuple | None  # (ell, color) of the leading rise, valid words only
    expected_error: type | None
    via_cli: str | None  # "validate" or "decompose", or None for the library chain


def generate_words(seed: int) -> list[WordInput]:
    """200 step texts of 300-2950 blocks over four families.

    Sizes, CLI routing and defect kinds are fixed per (family, size
    rank), so every seed does the same amount of work; the seed picks
    the words themselves and the defect positions.
    About 10% are malformed and one in four goes through the CLI.
    """
    rng = random.Random(seed)
    inputs = []
    for f, (a, b, spec, jmax) in enumerate(WORD_FAMILIES):
        colors = _pkg.cli.parse_color_spec(spec)
        kinds = [k for k in MALFORMED if k != "bad_ascent" or a + b > 1]
        bad = 0
        for s in range(WORDS_PER_FAMILY):
            target = MIN_BLOCKS + (MAX_BLOCKS - MIN_BLOCKS) * s // (WORDS_PER_FAMILY - 1)
            blocks = _random_blocks(rng, a, b, colors, jmax, target)
            via_cli = None
            if (s + f) % 4 == 3:
                via_cli = "validate" if (s // 4) % 2 == 0 else "decompose"
            if (s + 2 * f) % 10 == 5:
                kind = kinds[bad % len(kinds)]
                bad += 1
                text = _malform(rng, kind, blocks, a, b, colors)
                inputs.append(WordInput(a, b, spec, text, None, MALFORMED[kind], via_cli))
            else:
                text = "".join(_block_texts(blocks, a, b))
                inputs.append(WordInput(a, b, spec, text, blocks[0], None, via_cli))
    return inputs


def _word_library_op(w: WordInput, k: int):
    params = _pkg.model.PathParams(w.a, w.b)
    colors = _pkg.cli.parse_color_spec(w.spec)

    def run():
        m, bij = _pkg.model, _pkg.bijection
        try:
            word = m.parse_steps(w.text, params, colors)
            first = perf_counter()
            m.validate_colors(word, colors)
            t = bij.decompose(word, params, colors)
            return m.to_steps(bij.compose(t, params, colors)), first
        except ColoredDyckError as exc:
            return exc, None

    def check(result):
        if w.expected_error is not None:
            if type(result) is not w.expected_error:
                return f"expected {w.expected_error.__name__}, got {type(result).__name__}"
            return None
        if isinstance(result, Exception):
            return f"valid word raised {type(result).__name__}: {result}"
        return None if result == w.text else "round trip changed the step text"

    return Op(f"words #{k} ({w.a},{w.b}) {w.spec} {len(w.text)} chars", run, check)


def _word_cli_op(w: WordInput, k: int):
    argv = [w.via_cli, "--a", w.a, "--b", w.b, "--colors", w.spec, w.text]

    def check(res):
        if w.expected_error is not None:
            if res.escaped:
                return f"{res.escaped} escaped main"
            name = w.expected_error.__name__
            if res.code != 1 or not res.err.startswith(name + ":"):
                return f"expected exit 1 with {name}, got exit {res.code}: {res.err[:100]}"
            return None
        reason = _exit_ok(res)
        if reason:
            return reason
        if w.via_cli == "validate":
            return None if res.out == "valid\n" else f"unexpected output {res.out[:100]!r}"
        return _check_decompose_output(res.out, w)

    name = f"words #{k} {w.via_cli} ({w.a},{w.b}) {w.spec} {len(w.text)} chars"
    return _cli_op(argv, check, name=name)


def _check_decompose_output(out, w: WordInput):
    lines = out.splitlines()
    ell, color = w.head
    if lines[:2] != [f"ell {ell}", f"color {color}"]:
        return f"head lines {lines[:2]}, expected ell {ell}, color {color}"
    children = [line[len("child "):] for line in lines[2:]]
    if len(children) != w.a * ell + w.b:
        return f"{len(children)} children, expected {w.a * ell + w.b}"
    head_len = (w.a + w.b) * ell + len(f"[{color}]") + w.b * (ell - 1) + 1
    if "d".join(children) != w.text[head_len:]:
        return "children do not reassemble the word"
    return None


def _words_ops(seed):
    ops = [
        _word_cli_op(w, k) if w.via_cli else _word_library_op(w, k)
        for k, w in enumerate(generate_words(seed))
    ]
    return ops


def build(workload: str, seed: int) -> list[Op]:
    """The workload's op list for this seed.  Seeds generate the words
    inputs and shuffle op order everywhere else."""
    if workload == "series":
        ops = _series_ops(load_golden())
    elif workload == "bfile":
        ops = [_bfile_op(*case) for case in bfile_cases()]
    elif workload == "enumerate":
        ops = _enumerate_ops(load_golden())
    elif workload == "words":
        ops = _words_ops(seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(seed).shuffle(ops)
    return ops
