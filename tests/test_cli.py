import contextlib
import functools
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colored_dyck import bijection, cli, counting, sequences
from colored_dyck.bijection import enumerate_all
from colored_dyck.cli import build_parser, main, parse_color_spec
from colored_dyck.counting import CountSeries, count_recurrence
from colored_dyck.errors import ResourceLimit
from colored_dyck.model import ColorSequence, PathParams, Rise, to_steps
from conftest import COLOR_GRID, needs_int_digit_limit, subprocess_env


@pytest.fixture
def run(capsys):
    def invoke(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


class TestColorSpecGrammar:
    def test_presets(self):
        assert parse_color_spec("ones") == ColorSequence.ones()
        assert parse_color_spec("pow2") == ColorSequence.powers_of_two()
        assert parse_color_spec("catpair") == ColorSequence.catalan_pair_sum()

    def test_const(self):
        assert parse_color_spec("const:7") == ColorSequence.constant(7)

    def test_explicit(self):
        assert parse_color_spec("explicit:1,1") == ColorSequence.explicit((1, 1))
        assert parse_color_spec(
            "explicit:2,0,1+tail:3"
        ) == ColorSequence.explicit((2, 0, 1), tail=3)
        # an empty body is the all-zero coloring
        assert parse_color_spec("explicit:") == ColorSequence.explicit(())

    def test_bad_spec(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            parse_color_spec("rainbow")

    @pytest.mark.parametrize(
        "spec", ["explicit:1,,2", "explicit:,1", "explicit:1,2,", "explicit:,"]
    )
    def test_explicit_empty_field_is_a_usage_error(self, capsys, spec):
        assert_color_usage_error(capsys, spec)

    @pytest.mark.parametrize(
        "spec",
        [
            "explicit: 1, 2", "explicit:1, 2", "explicit:1_0", "explicit:+1",
            "explicit:1+tail: 3", "explicit:1+tail:1_0", "const:1_0",
            "const: 3", "const:+3", "const:\u0663",
        ],
    )
    def test_number_not_in_ascii_digits_is_a_usage_error(self, capsys, spec):
        # int() would read each of these; the grammar lists plain digits
        assert_color_usage_error(capsys, spec)


def assert_color_usage_error(capsys, spec):
    with pytest.raises(ValueError):
        parse_color_spec(spec)
    with pytest.raises(SystemExit) as exc:
        main(["count", "--a", "1", "--b", "0", "--colors", spec, "--N", "4"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(
        f"error: argument --colors: invalid parse_color_spec value: '{spec}'\n"
    )


class TestCount:
    def test_bfile_catalan(self, run):
        code, out, _ = run(
            "count", "--a", "1", "--b", "0", "--colors", "ones",
            "--N", "5", "--format", "bfile",
        )
        assert code == 0
        assert out == "0 1\n1 1\n2 2\n3 5\n4 14\n5 42\n"

    def test_plain(self, run):
        code, out, _ = run(
            "count", "--a", "0", "--b", "1", "--N", "4",
        )
        assert code == 0
        assert out.split() == ["1", "1", "2", "4", "8"]

    def test_jsonl(self, run):
        code, out, _ = run(
            "count", "--a", "1", "--b", "0", "--N", "2", "--format", "jsonl",
        )
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert records == [
            {"n": 0, "value": 1},
            {"n": 1, "value": 1},
            {"n": 2, "value": 2},
        ]

    @pytest.mark.parametrize("fmt", ["plain", "jsonl"])
    def test_count_of_any_size(self, run, fmt):
        # y_50 with every c_j = 10^100 has more than 4300 digits, the
        # interpreter's default limit for int-to-str conversion.
        const = 10**100
        limit = sys.get_int_max_str_digits()
        code, out, _ = run(
            "count", "--a", "1", "--b", "0", "--colors", f"const:{const}",
            "--N", "50", "--format", fmt,
        )
        assert code == 0
        assert sys.get_int_max_str_digits() == limit
        last = out.splitlines()[-1]
        if fmt == "jsonl":
            prefix = '{"n":50,"value":'
            assert last.startswith(prefix) and last.endswith("}")
            last = last[len(prefix) : -1]
        value = count_recurrence(
            PathParams(1, 0), ColorSequence.constant(const), 50
        )[50]
        sys.set_int_max_str_digits(0)
        try:
            assert last == str(value)
        finally:
            sys.set_int_max_str_digits(limit)
        assert len(last) > 4300

    def test_route_disagreement_exits_1(self, run, monkeypatch):
        monkeypatch.setattr(
            counting, "count_bell", lambda *args: CountSeries((1, 1, 2, 6))
        )
        code, out, err = run("count", "--a", "1", "--b", "0", "--N", "3")
        assert code == 1
        assert out == ""
        assert err == "route disagreement at n=3: recurrence=5 bell=6\n"

    def test_single_route(self, run):
        for route in ("recurrence", "bell"):
            code, out, _ = run(
                "count", "--a", "2", "--b", "1", "--colors", "pow2",
                "--N", "4", "--route", route,
            )
            assert code == 0


# Out-of-contract input exits 2 (usage) with no traceback; a large but
# legal `a` succeeds.
CONTRACT_PROBES = [
    (("count", "--a", "-1", "--b", "0", "--N", "3"), 2, None),
    (("count", "--a", "1", "--b", "0", "--N", "-1"), 2, None),
    (("peaks", "--a", "1", "--b", "0", "--n", "0"), 2, None),
    (("preset", "mary", "--m", "0"), 2, None),
    (("preset", "narayana", "--N", "0"), 2, None),
    (("enumerate", "--a", "1", "--b", "0", "--n", "3", "--cap", "-1"), 2, None),
    (("count", "--a", "1500", "--b", "0", "--N", "3"), 0, "1\n1\n1501\n3378751\n"),
    (("enumerate", "--a", "1500", "--b", "0", "--n", "1"), 0,
     "u" * 1500 + "[1]" + "d" * 1500 + "\n"),
    (("enumerate", "--a", "0", "--b", "1", "--colors", "explicit:0,1", "--n", "1200"),
     0, "uu[1]dd" * 600 + "\n"),
    (("enumerate", "--a", "1", "--b", "0", "--n", "100000000"), 1, None),
]


@pytest.mark.parametrize(
    "argv, code, out", CONTRACT_PROBES, ids=[" ".join(p[0]) for p in CONTRACT_PROBES]
)
def test_contract_probe(argv, code, out):
    proc = subprocess.run(
        [sys.executable, "-m", "colored_dyck.cli", *argv],
        capture_output=True, text=True, env=subprocess_env(), timeout=60,
    )
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    if out is not None:
        assert proc.stdout == out


# Indices past what a list index holds: their tables cannot be allocated.
UNALLOCATABLE = [
    ("count", "--a", "1", "--b", "0", "--N", str(10**20), "--route", "bell"),
    ("count", "--a", "1", "--b", "0", "--N", str(10**20), "--route", "recurrence"),
    ("count", "--a", "1", "--b", "0", "--N", str(10**20)),
    ("peaks", "--a", "1", "--b", "0", "--n", str(10**20)),
    ("preset", "narayana", "--n", str(10**20)),
    ("preset", "motzkin", "--N", str(10**20)),
]


class TestUnallocatableTable:
    @staticmethod
    def assert_resource_limit(code, out, err, cause):
        assert code == 1
        assert out == ""
        assert err == f"ResourceLimit: cannot allocate the tables for this index ({cause})\n"

    @pytest.mark.parametrize("argv", UNALLOCATABLE, ids=" ".join)
    def test_index_past_a_list_index(self, run, argv):
        self.assert_resource_limit(*run(*argv), "OverflowError")

    def test_out_of_memory(self, run, monkeypatch):
        def out_of_memory(*args):
            raise MemoryError

        monkeypatch.setattr(counting, "count_bell", out_of_memory)
        argv = ("count", "--a", "1", "--b", "0", "--N", "99999999999", "--route", "bell")
        self.assert_resource_limit(*run(*argv), "MemoryError")


# A Bell route with one wrong power-triangle cell: at (1, 0), n = 3,
# k = 2 the term is C(3, 1) * P_{2,3} / 2, and ones has P_{2,3} = 2; a
# cell of 1 leaves 3/2.  Run as a module's text, so that a child
# interpreter can run it at startup.
WRONG_BELL_TERM = """
from colored_dyck import counting

power_rows = counting.power_rows


def odd(N, form):
    for k, row in enumerate(power_rows(N, form), 1):
        yield row[:1] + [1] + row[2:] if k == 2 else row


counting.power_rows = odd
"""
NON_INTEGER_ARGV = ("count", "--a", "1", "--b", "0", "--N", "5")
NON_INTEGER_ERR = "NonIntegerTerm: non-integer value in Bell term n=3, r=1: 3/2\n"


class TestNonIntegerTermExits3:
    def test_in_process(self, run, monkeypatch):
        monkeypatch.setattr(counting, "power_rows", counting.power_rows)  # restored after
        exec(WRONG_BELL_TERM, {})
        assert run(*NON_INTEGER_ARGV) == (3, "", NON_INTEGER_ERR)

    def test_subprocess(self, tmp_path):
        # The child imports sitecustomize from the first PYTHONPATH entry
        # at startup, before the CLI module runs.
        (tmp_path / "sitecustomize.py").write_text(WRONG_BELL_TERM)
        env = subprocess_env()
        env["PYTHONPATH"] = f"{tmp_path}{os.pathsep}{env['PYTHONPATH']}"
        proc = subprocess.run(
            [sys.executable, "-m", "colored_dyck.cli", *NON_INTEGER_ARGV],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", NON_INTEGER_ERR)


def test_closed_stdout_exits_quietly():
    # The reader takes one line and closes the pipe, as `| head -n 1`
    # does; the output (about 0.6 MB) is far larger than a pipe buffer.
    proc = subprocess.Popen(
        [sys.executable, "-m", "colored_dyck.cli",
         "enumerate", "--a", "1", "--b", "0", "--n", "10"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=subprocess_env(),
    )
    try:
        assert proc.stdout.readline().startswith(b"u")
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert proc.returncode == 0
    assert err == b""


class TestPeaks:
    def test_narayana_row(self, run):
        code, out, _ = run(
            "peaks", "--a", "1", "--b", "0", "--colors", "ones", "--n", "3"
        )
        assert code == 0
        assert out == "1 1\n2 3\n3 1\n"


class TestEnumerate:
    def test_line_count_matches_count(self, run):
        code, out, _ = run(
            "enumerate", "--a", "1", "--b", "0", "--colors", "pow2", "--n", "3"
        )
        assert code == 0
        assert len(out.splitlines()) == 11

    def test_jsonl_fields(self, run):
        code, out, _ = run(
            "enumerate", "--a", "1", "--b", "0", "--n", "2",
            "--format", "jsonl",
        )
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 2
        for record in records:
            assert list(record) == ["n", "blocks", "peaks", "steps"]
            assert record["n"] == 2


# The conftest colorings as --colors specs, then two with zero counts.
STREAM_SPECS = [
    "ones", "pow2", "catpair", "explicit:1,1", "explicit:2,0,1", "const:3",
    "explicit:0,1", "explicit:",
]


def word_record(word):
    """The jsonl record of one word, as json.dumps wrote it before the
    output was streamed: the reference for the streamed records."""
    blocks = []
    n_peaks = 0
    for block in word.blocks:
        if isinstance(block, Rise):
            blocks.append({"type": "rise", "j": block.j, "color": block.color})
            n_peaks += 1
        else:
            blocks.append({"type": "down"})
    record = {
        "n": word.n,
        "blocks": blocks,
        "peaks": n_peaks,
        "steps": to_steps(word),
    }
    return json.dumps(record, separators=(",", ":"))


def enumerate_argv(params, spec, n, *rest):
    return (
        "enumerate", "--a", str(params.a), "--b", str(params.b),
        "--colors", spec, "--n", str(n), *rest,
    )


class TestEnumerateStream:
    def test_specs_cover_the_color_grid(self):
        assert [parse_color_spec(s) for s in STREAM_SPECS[:6]] == COLOR_GRID

    @pytest.mark.parametrize("spec", STREAM_SPECS)
    def test_lines_are_the_words_of_enumerate_all(self, run, params, spec):
        colors = parse_color_spec(spec)
        for n in range(7 // params.period + 1):
            words = enumerate_all(params, colors, n)
            argv = enumerate_argv(params, spec, n)
            plain = "".join(to_steps(w) + "\n" for w in words)
            assert run(*argv) == (0, plain, "")
            jsonl = "".join(word_record(w) + "\n" for w in words)
            assert run(*argv, "--format", "jsonl") == (0, jsonl, "")

    @pytest.mark.parametrize("spec", STREAM_SPECS)
    def test_cap_agrees_with_enumerate_all(self, run, params, spec):
        # Caps at and one below y_m for every m <= n: the CLI fails
        # exactly where enumerate_all does, before printing anything.
        colors = parse_color_spec(spec)
        for n in range(7 // params.period + 1):
            y = count_recurrence(params, colors, n).values
            for cap in sorted({c for v in y for c in (v - 1, v) if c >= 0}):
                try:
                    words = enumerate_all(params, colors, n, cap=cap)
                    expected = (0, "".join(to_steps(w) + "\n" for w in words), "")
                except ResourceLimit as exc:
                    expected = (1, "", f"ResourceLimit: {exc}\n")
                argv = enumerate_argv(params, spec, n, "--cap", str(cap))
                assert run(*argv) == expected, cap

    def test_cap_over_the_top_index_prints_nothing(self, run):
        # y_5 = 8 and y_6 = 13 under (a, b) = (0, 1), c_1 = c_2 = 1
        argv = enumerate_argv(PathParams(0, 1), "explicit:1,1", 6, "--cap", "10")
        assert run(*argv) == (1, "", "ResourceLimit: more than 10 words at index 6\n")

    def test_cap_zero_at_index_zero(self, run):
        argv = enumerate_argv(PathParams(1, 0), "ones", 0, "--cap", "0")
        assert run(*argv) == (1, "", "ResourceLimit: more than 0 words at index 0\n")

    def test_too_many_codes_is_a_resource_limit(self, run, monkeypatch):
        # below index 3, pow2 has Rise(1, 1), Rise(2, 1) and Rise(2, 2)
        monkeypatch.setattr(bijection, "_CODE_LIMIT", 3)
        argv = enumerate_argv(PathParams(1, 0), "pow2", 3)
        assert run(*argv) == (
            1, "", "ResourceLimit: more than 2 distinct rise blocks below index 3\n"
        )

    def test_writes_about_64_kib(self, monkeypatch):
        writes = []

        class Recorder:
            def write(self, text):
                writes.append(text)

            def flush(self):
                pass

        monkeypatch.setattr(sys, "stdout", Recorder())
        assert main(list(enumerate_argv(PathParams(1, 0), "ones", 10))) == 0
        words = enumerate_all(PathParams(1, 0), ColorSequence.ones(), 10)
        assert "".join(writes) == "".join(to_steps(w) + "\n" for w in words)
        # the first line goes out on its own, then pieces of 32-128 KiB
        assert writes[0] == to_steps(words[0]) + "\n"
        assert all(1 << 15 <= len(text) <= 1 << 17 for text in writes[1:-1])
        assert len(writes) > 3


class TestEnumerateAtSize:
    """The plain listing spells its walk in step text and joins each
    product of children in it; the jsonl listing joins block codes and
    translates each record twice; enumerate_all decodes block codes
    into words.  The three routes compared record by record at sizes
    past TestEnumerateStream's."""

    @pytest.mark.parametrize("spec", STREAM_SPECS[:6])
    def test_plain_and_jsonl_at_20000_words(self, run, params, spec):
        colors = parse_color_spec(spec)
        y = count_recurrence(params, colors, 40).values
        n = max(m for m, v in enumerate(y) if v <= 20000)
        argv = enumerate_argv(params, spec, n)
        code, plain, err = run(*argv)
        words = enumerate_all(params, colors, n)
        assert (code, err) == (0, "")
        assert plain == "".join(to_steps(w) + "\n" for w in words)
        code, jsonl, err = run(*argv, "--format", "jsonl")
        assert (code, err) == (0, "")
        assert jsonl.splitlines() == [*map(word_record, words)]

    @pytest.mark.parametrize(
        "ab, spec, n",
        [((1, 0), "pow2", 5), ((0, 1), "explicit:1,1", 6), ((2, 1), "catpair", 3)],
    )
    def test_walk_errors_agree_with_enumerate_all(self, run, monkeypatch, ab, spec, n):
        # Every code limit and cap up to past the top index's count:
        # each either lists enumerate_all's words or fails with its
        # message, with nothing written before the error.
        params, colors = PathParams(*ab), parse_color_spec(spec)
        kinds = set()  # which of the two limits each error names
        for limit in range(1, 9):
            monkeypatch.setattr(bijection, "_CODE_LIMIT", limit)
            for cap in range(count_recurrence(params, colors, n)[n] + 2):
                try:
                    words = enumerate_all(params, colors, n, cap=cap)
                    expected = (0, "".join(to_steps(w) + "\n" for w in words), "")
                except ResourceLimit as exc:
                    expected = (1, "", f"ResourceLimit: {exc}\n")
                    kinds.add("rise blocks" in str(exc))
                argv = enumerate_argv(params, spec, n, "--cap", str(cap))
                assert run(*argv) == expected, (limit, cap)
        assert kinds == {False, True}

    @pytest.mark.parametrize("prefix", ["0,1,1", "0,0,1,0,1", "0,2,0,1"])
    def test_chains_past_reach_two(self, run, prefix):
        # At (0, 1) with c_1 = 0 every head has one child, and index i
        # leaves the memo once i + reach, the last index to read it, is
        # built (reach = 3, 5 and 4 here): links drop past n = reach + 1.
        params, spec = PathParams(0, 1), f"explicit:{prefix}"
        colors = parse_color_spec(spec)
        y = count_recurrence(params, colors, 60).values
        for n in (m for m in range(61) if y[m] <= 20000):
            words = enumerate_all(params, colors, n)
            assert len(words) == y[n]
            code, plain, err = run(*enumerate_argv(params, spec, n))
            assert (code, err) == (0, "")
            assert plain == "".join(to_steps(w) + "\n" for w in words)


@st.composite
def sparse_cases(draw):
    """(a, b) with a + b <= 4, an explicit prefix holding at least one
    zero with tail 0 or 1, and n <= 6."""
    a = draw(st.integers(0, 4))
    b = draw(st.integers(1 if a == 0 else 0, 4 - a))
    prefix = draw(st.lists(st.integers(0, 2), max_size=4))
    prefix.insert(draw(st.integers(0, len(prefix))), 0)
    tail = draw(st.integers(0, 1))
    return PathParams(a, b), prefix, tail, draw(st.integers(0, 6))


class TestEnumerateSparseColorings:
    @settings(max_examples=150, deadline=None)
    @given(sparse_cases())
    def test_listings_are_the_words_of_enumerate_all(self, case):
        # zero colors leave compositions whose child product is empty,
        # which the walk must drop without dropping a word
        params, prefix, tail, n = case
        spec = f"explicit:{','.join(map(str, prefix))}+tail:{tail}"
        colors = parse_color_spec(spec)
        y = count_recurrence(params, colors, n).values
        n = max(m for m in range(n + 1) if y[m] <= 3000)  # y_0 = 1
        words = enumerate_all(params, colors, n)
        assert len(words) == y[n]
        argv = enumerate_argv(params, spec, n)
        for fmt, line in (("plain", to_steps), ("jsonl", word_record)):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main([*argv, "--format", fmt]) == 0
            assert out.getvalue() == "".join(line(w) + "\n" for w in words)



class TestNoErrorAfterOutput:
    @settings(max_examples=150, deadline=None)
    @given(sparse_cases(), st.integers(0, 12), st.data())
    def test_every_word_or_a_resource_limit_and_nothing(self, case, n, data):
        # the walk writes its first words before the memo is built, so
        # every limit must be found before: with a cap near the count
        # of any index up to n, a listing is whole or absent
        params, prefix, tail, _ = case
        spec = f"explicit:{','.join(map(str, prefix))}+tail:{tail}"
        y = count_recurrence(params, parse_color_spec(spec), n).values
        n = max(m for m in range(n + 1) if y[m] <= 3000)  # y_0 = 1
        caps = sorted({max(0, y[m] + d) for m in range(n + 1) for d in (-1, 0, 1)})
        cap = data.draw(st.sampled_from(caps))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*enumerate_argv(params, spec, n, "--cap", str(cap))])
        if code == 0:
            assert (len(out.getvalue().splitlines()), err.getvalue()) == (y[n], "")
        else:
            assert (code, out.getvalue()) == (1, "")
            assert err.getvalue().startswith("ResourceLimit: more than ")

class TestDecomposeValidate:
    def test_validate_ok(self, run):
        code, out, _ = run(
            "validate", "--a", "1", "--b", "0", "--colors", "ones", "uudd"
        )
        assert code == 0
        assert out == "valid\n"

    def test_validate_rejects_with_error_name(self, run):
        code, _, err = run(
            "validate", "--a", "1", "--b", "0", "--colors", "ones", "uudud"
        )
        assert code == 1
        assert "NotDyck" in err

    @pytest.mark.parametrize("text", ["u[\u0662]d", "u[\uff12]d", "ud[\u0662]"])
    def test_validate_non_ascii_digit(self, run, text):
        code, out, err = run(
            "validate", "--a", "1", "--b", "0", "--colors", "const:3", text
        )
        assert code == 1
        assert out == ""
        assert "MalformedAnnotation" in err

    @needs_int_digit_limit
    @pytest.mark.parametrize("command", ["validate", "decompose"])
    def test_annotation_past_the_digit_limit(self, run, command):
        text = "u[" + "1" * (sys.get_int_max_str_digits() + 1) + "]d"
        assert run(command, "--a", "1", "--b", "0", text) == (
            1, "", "MalformedAnnotation: color annotation has too many digits\n"
        )

    def test_validate_bad_ascent(self, run):
        code, _, err = run(
            "validate", "--a", "2", "--b", "0", "--colors", "ones", "uuuddd"
        )
        assert code == 1
        assert "BadAscent" in err

    @pytest.mark.parametrize(
        "command, out",
        [("validate", "valid\n"), ("decompose", "ell 1\ncolor 1\nchild u[1]d\n")],
    )
    def test_word_from_stdin(self, run, monkeypatch, command, out):
        # with no word argument, the word is read from stdin
        monkeypatch.setattr(sys, "stdin", io.StringIO("udud\n"))
        assert run(command, "--a", "1", "--b", "0") == (0, out, "")

    def test_decompose(self, run):
        code, out, _ = run(
            "decompose", "--a", "1", "--b", "0", "--colors", "ones", "udud"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "ell 1"
        assert lines[1] == "color 1"
        assert lines[2] == "child u[1]d"


class TestPreset:
    def test_duchon_columns_agree(self, run):
        code, out, _ = run("preset", "duchon", "--N", "3")
        assert code == 0
        for line in out.splitlines():
            n, d, alt, colored = line.split()
            assert d == alt == colored

    def test_narayana_rows(self, run):
        code, out, _ = run("preset", "narayana", "--n", "4")
        assert code == 0
        for line in out.splitlines():
            _, closed, colored = line.split()
            assert closed == colored

    def test_all_presets_agree(self, run):
        for name in ("motzkin", "schroeder", "mary", "a052709", "a186997"):
            code, out, _ = run("preset", name, "--N", "6")
            assert code == 0, name
            for line in out.splitlines():
                fields = line.split()
                assert fields[1] == fields[2], (name, line)


    # Each family as the paper instantiates it: (a, b), the coloring and
    # its closed forms at index n, written out here and not read from
    # the CLI's table.  mary and narayana have tests of their own.
    PAIR = ColorSequence.explicit((1, 1))
    FAMILIES = {
        "a052709": ((0, 2), PAIR, [sequences.a052709_closed]),
        "a186997": ((1, 2), PAIR, [sequences.a186997_closed]),
        "duchon": (
            (5, 0),
            ColorSequence.catalan_pair_sum(),
            [sequences.duchon_d, sequences.duchon_alt],
        ),
        "motzkin": ((1, 0), PAIR, [functools.partial(sequences.motzkin_colored, 1, 1)]),
        "schroeder": (
            (1, 0),
            ColorSequence.powers_of_two(),
            [sequences.schroeder_little],
        ),
    }

    @staticmethod
    def expected_rows(params, colors, forms, N):
        """preset's stdout for indices 1..N, with the colored counts from
        the recurrence; preset itself reads the Bell route."""
        series = count_recurrence(params, colors, N)
        return "".join(
            " ".join(map(str, (n, *(f(n) for f in forms), series[n]))) + "\n"
            for n in range(1, N + 1)
        )

    @pytest.mark.parametrize("N", [0, 1, 20])
    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_stdout_pinned(self, run, name, N):
        (a, b), colors, forms = self.FAMILIES[name]
        expected = self.expected_rows(PathParams(a, b), colors, forms, N)
        assert run("preset", name, "--N", str(N)) == (0, expected, "")

    @pytest.mark.parametrize("N", [0, 1, 20])
    @pytest.mark.parametrize("m", [2, 3])
    def test_mary_stdout_pinned(self, run, m, N):
        forms = [functools.partial(sequences.fuss_catalan, m)]
        expected = self.expected_rows(PathParams(m, 0), ColorSequence.ones(), forms, N)
        assert run("preset", "mary", "--m", str(m), "--N", str(N)) == (0, expected, "")
        if m == 2:  # the default arity
            assert run("preset", "mary", "--N", str(N)) == (0, expected, "")

    @pytest.mark.parametrize("n", [1, 20])
    def test_narayana_stdout_pinned(self, run, n):
        expected = "".join(
            f"{k} {sequences.narayana(n, k)} {sequences.narayana(n, k)}\n"
            for k in range(1, n + 1)
        )
        assert run("preset", "narayana", "--n", str(n)) == (0, expected, "")
        assert run("preset", "narayana", "--N", str(n)) == (0, expected, "")

    @pytest.mark.parametrize(
        "argv, target",
        [
            (("preset", "motzkin", "--N", "6"), "motzkin_colored"),
            (("preset", "mary", "--m", "3", "--N", "6"), "fuss_catalan"),
            (("preset", "duchon", "--N", "6"), "duchon_alt"),
            (("preset", "narayana", "--n", "6"), "narayana"),
        ],
        ids=["motzkin", "mary", "duchon", "narayana"],
    )
    def test_disagreement_exits_1(self, run, monkeypatch, argv, target):
        _, good, _ = run(*argv)
        closed = getattr(sequences, target)

        def off_by_one(*args):
            return closed(*args) + (args[-1] == 3)

        monkeypatch.setattr(sequences, target, off_by_one)
        code, out, err = run(*argv)
        assert code == 1
        assert len(out.splitlines()) == len(good.splitlines())
        where = "n=6, k=3" if target == "narayana" else "n=3"
        assert err == f"closed form disagreement at {where}\n"


class TestParser:
    def test_built_once(self, run, monkeypatch):
        # _add_common runs once per subcommand that takes --a/--b/--colors
        # each time the parser is built.
        build_parser.cache_clear()
        calls = []
        add_common = cli._add_common

        def counted(parser):
            calls.append(parser.prog)
            add_common(parser)

        monkeypatch.setattr(cli, "_add_common", counted)
        for _ in range(3):
            assert run("count", "--a", "1", "--b", "0", "--N", "2")[0] == 0
        assert run("preset", "motzkin", "--N", "2")[0] == 0
        assert len(calls) == 5

    def test_no_state_between_calls(self, run):
        code, out, _ = run(
            "count", "--a", "1", "--b", "0", "--N", "4", "--colors", "pow2"
        )
        assert (code, out.split()) == (0, ["1", "1", "3", "11", "45"])
        code, out, _ = run("count", "--a", "1", "--b", "0", "--N", "4")
        assert (code, out.split()) == (0, ["1", "1", "2", "5", "14"])

    def test_usage_error_then_good_call(self, run, capsys):
        # A spec out of the grammar gets argparse's text; a count the
        # library rejects keeps the library's.
        for spec, message in [
            ("const:x", "invalid parse_color_spec value: 'const:x'"),
            ("const:-1", "need tail >= 0, got tail=-1"),
            ("explicit:1,-2", "need c_2 >= 0, got c_2=-2"),
        ]:
            with pytest.raises(SystemExit) as exc:
                main(["count", "--a", "1", "--b", "0", "--N", "3", "--colors", spec])
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("usage: colored-dyck count ")
            assert captured.err.endswith(f"error: argument --colors: {message}\n")
            code, out, err = run("count", "--a", "1", "--b", "0", "--N", "3")
            assert (code, out, err) == (0, "1\n1\n2\n5\n", "")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("count", "--a", "1", "--b", "0", "--N", "-1"), "need N >= 0, got N=-1"),
            (("peaks", "--a", "1", "--b", "0", "--n", "0"), "need n >= 1, got n=0"),
            (("preset", "narayana", "--N", "0"), "need n >= 1, got n=0"),
        ],
        ids=["count", "peaks", "preset"],
    )
    def test_library_error_names_the_subcommand_usage(self, run, capsys, argv, message):
        # An index the library rejects is a usage error of the
        # subcommand whose option it is, not of the whole program.
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"usage: colored-dyck {argv[0]} ")
        assert captured.err.endswith(f"colored-dyck {argv[0]}: error: {message}\n")
        code, out, err = run("count", "--a", "1", "--b", "0", "--N", "3")
        assert (code, out, err) == (0, "1\n1\n2\n5\n", "")

    @pytest.mark.parametrize(
        "text", ["\u0663", "1_0", "+5", " 5"], ids=["arabic", "underscore", "plus", "blank"]
    )
    @pytest.mark.parametrize(
        "argv, option",
        [
            (("count", "--a", "1", "--b", "0", "--N", "3"), "--a"),
            (("count", "--a", "1", "--b", "0", "--N", "3"), "--b"),
            (("count", "--a", "1", "--b", "0", "--N", "3"), "--N"),
            (("peaks", "--a", "1", "--b", "0", "--n", "3"), "--n"),
            (("enumerate", "--a", "1", "--b", "0", "--n", "3"), "--n"),
            (("enumerate", "--a", "1", "--b", "0", "--n", "3", "--cap", "9"), "--cap"),
            (("preset", "mary", "--N", "3", "--m", "2"), "--N"),
            (("preset", "mary", "--N", "3", "--m", "2"), "--m"),
            (("preset", "narayana", "--n", "3"), "--n"),
        ],
        ids=["count-a", "count-b", "count-N", "peaks-n", "enumerate-n",
             "enumerate-cap", "preset-N", "preset-m", "preset-n"],
    )
    def test_number_not_in_ascii_digits_is_a_usage_error(self, capsys, argv, option, text):
        # int() would read each of these; every option reads the color
        # specs' grammar
        argv = list(argv)
        argv[argv.index(option) + 1] = text
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(
            f"error: argument {option}: invalid int value: {text!r}\n"
        )

    def test_colors_read_through_module_attribute(self, run, monkeypatch):
        # A wrapper put on cli.parse_color_spec after the parser was
        # built is the one --colors calls.
        assert run("count", "--a", "1", "--b", "0", "--N", "2")[0] == 0
        seen = []

        def spy(spec):
            seen.append(spec)
            return parse_color_spec(spec)

        monkeypatch.setattr(cli, "parse_color_spec", spy)
        assert run("count", "--a", "1", "--b", "0", "--N", "2", "--colors", "pow2")[0] == 0
        assert seen == ["pow2"]


class TestDeterminism:
    CASES = [
        ("count", "--a", "2", "--b", "1", "--colors", "catpair",
         "--N", "8", "--format", "bfile"),
        ("peaks", "--a", "1", "--b", "1", "--colors", "pow2", "--n", "5"),
        ("enumerate", "--a", "1", "--b", "0", "--colors", "pow2",
         "--n", "4", "--format", "jsonl"),
        ("preset", "duchon", "--N", "4"),
    ]

    def test_byte_identical_reruns(self, run):
        for case in self.CASES:
            first = run(*case)
            second = run(*case)
            assert first == second
            assert first[0] == 0
