import contextlib
import functools
import hashlib
import io
import itertools
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from colored_dyck import bijection, cli, counting, model, sequences
from colored_dyck.bijection import enumerate_all
from colored_dyck.cli import build_parser, main, parse_color_spec
from colored_dyck.counting import count_recurrence
from colored_dyck.errors import NonIntegerTerm, ResourceLimit
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
        # the Bell route's y_1..y_N; stdout holds the values agreed on
        monkeypatch.setattr(counting, "_bell_terms", lambda *args: iter((1, 2, 6)))
        code, out, err = run("count", "--a", "1", "--b", "0", "--N", "3")
        assert code == 1
        assert out == "1\n1\n2\n"
        assert err == "RouteDisagreement: route disagreement at n=3: recurrence=5 bell=6\n"

    def test_single_route(self, run):
        for route in ("recurrence", "bell"):
            code, out, _ = run(
                "count", "--a", "2", "--b", "1", "--colors", "pow2",
                "--N", "4", "--route", route,
            )
            assert code == 0

    @pytest.mark.parametrize("route, name, values, out, message", [
        ("bell", "_bell_terms", lambda *args: iter((1, -2)), "1\n1\n",
         "counts are nonnegative"),
        ("recurrence", "_recurrence", lambda *args: iter([[2], [2, 1]]), "",
         "a count series must start with y_0 = 1"),
    ])
    def test_values_are_checked_before_they_are_written(
        self, run, monkeypatch, route, name, values, out, message
    ):
        # CountSeries' checks, on each value as it comes: a route's bug,
        # exit 1, after the values that passed
        monkeypatch.setattr(counting, name, values)
        code, stdout, err = run("count", "--a", "1", "--b", "0", "--N", "2", "--route", route)
        assert (code, stdout, err) == (1, out, f"RouteDisagreement: {message}\n")


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

        monkeypatch.setattr(counting, "_bell_terms", out_of_memory)
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
# y_0 and y_1, which both routes gave before row 2 raised
NON_INTEGER_OUT = "1\n1\n"


class TestNonIntegerTermExits3:
    def test_in_process(self, run, monkeypatch):
        monkeypatch.setattr(counting, "power_rows", counting.power_rows)  # restored after
        exec(WRONG_BELL_TERM, {})
        assert run(*NON_INTEGER_ARGV) == (3, NON_INTEGER_OUT, NON_INTEGER_ERR)

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
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            3, NON_INTEGER_OUT, NON_INTEGER_ERR
        )


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


def test_count_into_a_pipe_closed_after_three_lines():
    # count writes each y_n once both routes agree on it, so a reader
    # that takes the first lines of a long count has them at once, and
    # the writer stops at the flush after the reader has gone.
    proc = subprocess.Popen(
        [sys.executable, "-m", "colored_dyck.cli", "count", "--a", "1", "--b", "0", "--N", "3000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=subprocess_env(),
    )
    try:
        lines = [proc.stdout.readline() for _ in range(3)]
        proc.stdout.close()
        _, err = proc.communicate(timeout=10)
    finally:
        proc.kill()
    assert lines == [b"1\n", b"1\n", b"2\n"]
    assert (proc.returncode, err) == (0, b"")


def test_closed_stdout_leaves_no_descriptor_open(monkeypatch):
    # In process, main points stdout at devnull and closes the
    # descriptor it opened for that; each _Pipe closes its own.
    opened = []
    os_open = os.open

    def recorded(*args):
        opened.append(os_open(*args))
        return opened[-1]

    monkeypatch.setattr(os, "open", recorded)
    for _ in range(5):
        out = _Pipe(head=1)
        try:
            with contextlib.redirect_stdout(out):
                assert main(["enumerate", "--a", "1", "--b", "0", "--n", "8"]) == 0
        finally:
            os.close(out.fd)
    assert len(opened) == 10
    for fd in opened:
        with pytest.raises(OSError):
            os.fstat(fd)


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
        # the first line goes out on its own, then a doubling ramp (each
        # write as long as all before it, up to twice as long) until
        # _WRITE_CHARS are out, then pieces of 32-128 KiB
        assert writes[0] == to_steps(words[0]) + "\n"
        lengths = [len(text) for text in writes]
        done = [*itertools.accumulate(lengths)]
        ramp = [i for i in range(1, len(writes)) if done[i - 1] < cli._WRITE_CHARS]
        assert all(done[i - 1] <= lengths[i] <= 2 * done[i - 1] for i in ramp)
        assert len(ramp) > 8
        assert all(1 << 15 <= n <= 1 << 17 for n in lengths[ramp[-1] + 1 : -1])
        assert len(writes) > len(ramp) + 3


def record_paths(monkeypatch):
    """Wrap cli._spelled_children.  Returns (paths, held): paths gets
    "spelled" or "translated" for each product group of a jsonl walk,
    and held maps each child index that a walk's spelled table holds,
    after any group, to its number of words."""
    paths, held = [], {}
    spelled_children = cli._spelled_children

    def recorder(children, table, spell):
        lists = spelled_children(children, table, spell)
        paths.append("translated" if lists is None else "spelled")
        held.update((i, len(jsons)) for i, (jsons, _, _) in table.items())
        return lists

    monkeypatch.setattr(cli, "_spelled_children", recorder)
    return paths, held


class TestEnumerateAtSize:
    """The plain listing spells its walk in step text and joins each
    product of children in it; enumerate_all decodes block codes into
    words.  The jsonl listing walks in block codes.  Each child index of
    its product groups with at most cli._SPELLED_BOUND words is spelled
    once per walk into block JSON, step text and peak count, and a group
    whose children are all spelled joins each record from those lists.
    The chain's groups and a group with a child over the bound translate
    each record twice.  The routes compared record by record at sizes
    past TestEnumerateStream's, jsonl at bound 0 (every record
    translated), at the real bound, and past every child list (every
    product group spelled)."""

    @pytest.mark.parametrize("spec", STREAM_SPECS[:6])
    def test_plain_and_jsonl_at_20000_words(self, run, monkeypatch, params, spec):
        colors = parse_color_spec(spec)
        y = count_recurrence(params, colors, 40).values
        n = max(m for m, v in enumerate(y) if v <= 20000)
        argv = enumerate_argv(params, spec, n)
        code, plain, err = run(*argv)
        words = enumerate_all(params, colors, n)
        assert (code, err) == (0, "")
        assert plain == "".join(to_steps(w) + "\n" for w in words)
        records = [*map(word_record, words)]
        paths, _ = record_paths(monkeypatch)
        for bound, kinds in (
            (0, {"translated"}),
            (cli._SPELLED_BOUND, {"translated", "spelled"}),
            (max(y[: n + 1]), {"spelled"}),
        ):
            monkeypatch.setattr(cli, "_SPELLED_BOUND", bound)
            code, jsonl, err = run(*argv, "--format", "jsonl")
            assert (code, err) == (0, "")
            assert jsonl.splitlines() == records, bound
            assert set(paths) <= kinds, bound
            paths.clear()

    def test_jsonl_records_on_both_sides_of_the_bound(self, run, monkeypatch):
        # y_7 = 4279 > 4096 = cli._SPELLED_BOUND.  Only the chain's group,
        # head Rise(1, 1) and child 7, reads index 7, and it translates
        # each of its 4279 records; every product group after it is
        # spelled, and the table holds every other index below 8.
        params, spec, n = PathParams(1, 0), "pow2", 8
        paths, held = record_paths(monkeypatch)
        code, jsonl, err = run(*enumerate_argv(params, spec, n, "--format", "jsonl"))
        words = enumerate_all(params, parse_color_spec(spec), n)
        assert (code, err, len(words)) == (0, "", 20793)
        assert jsonl.splitlines() == [*map(word_record, words)]
        assert set(paths) == {"spelled"}
        assert held == {0: 1, 1: 1, 2: 3, 3: 11, 4: 45, 5: 197, 6: 903}

    def test_spelled_table_holds_no_index_over_the_bound(self, monkeypatch):
        # At (1, 0), y_8 = 1430 <= 4096 < y_9 = 4862: index 12's groups
        # with a child of index 9 or more are translated record by record
        paths, held = record_paths(monkeypatch)
        y = count_recurrence(PathParams(1, 0), ColorSequence.ones(), 12).values
        argv = enumerate_argv(PathParams(1, 0), "ones", 12, "--format", "jsonl")
        out = _Pipe(head=0)
        try:
            with contextlib.redirect_stdout(out):
                assert main(list(argv)) == 0
        finally:
            os.close(out.fd)
        assert {"spelled", "translated"} <= set(paths)
        assert held == {i: y[i] for i in range(9)}

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
    def test_spelled_table_holds_no_released_index(self, run, monkeypatch, prefix):
        # As below, the walk releases index i once i + reach + 1 is
        # built; by index n's product groups it has released every index
        # up to n - reach - 2, and the jsonl walk's spelled table holds
        # none of them.
        params, spec = PathParams(0, 1), f"explicit:{prefix}"
        colors = parse_color_spec(spec)
        reach = max(ell for ell, c in enumerate(map(int, prefix.split(",")), 1) if c)
        y = count_recurrence(params, colors, 60).values
        _, held = record_paths(monkeypatch)
        spelled = 0  # the walks whose table held an index
        for n in (m for m in range(reach + 2, 61) if y[m] <= 20000):
            code, jsonl, err = run(*enumerate_argv(params, spec, n, "--format", "jsonl"))
            assert (code, err) == (0, "")
            assert jsonl.splitlines() == [*map(word_record, enumerate_all(params, colors, n))]
            assert all(i > n - reach - 2 for i in held), n
            spelled += bool(held)
            held.clear()
        assert spelled > 5

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
        # jsonl with every record translated, at the real bound, and with
        # every product group spelled
        for fmt, line, bound in (
            ("plain", to_steps, cli._SPELLED_BOUND),
            ("jsonl", word_record, 0),
            ("jsonl", word_record, cli._SPELLED_BOUND),
            ("jsonl", word_record, max(y[: n + 1])),
        ):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), mock.patch.object(cli, "_SPELLED_BOUND", bound):
                assert main([*argv, "--format", fmt]) == 0
            # line by line: pytest's diff of two texts of thousands of
            # lines, made at each failing step of the shrinking, takes
            # minutes
            lines = out.getvalue().split("\n")
            assert (len(lines), lines.pop()) == (len(words) + 1, ""), bound
            for i, (text, word) in enumerate(zip(lines, words)):
                assert text == line(word), (bound, i)



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

    @pytest.mark.parametrize(
        "a, b, ell, head, children",
        [
            (2, 1, 1, "uuu[1]d", ["uuu[2]ddd", "", "uuu[1]ddd" * 30000 + "uuu[2]ddd"]),
            (0, 3, 2, "uuuuuu[1]dddd", ["", "uuuuuu[2]dddddd", "uuu[1]ddd" * 30000]),
        ],
    )
    def test_decompose_multi_child_word(self, run, a, b, ell, head, children):
        # a*ell+b child lines, the last one long; joined with the
        # separators they give back the text after the head
        text = head + "d".join(children)
        code, out, err = run(
            "decompose", "--a", str(a), "--b", str(b), "--colors", "const:2", text
        )
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert lines[:2] == [f"ell {ell}", "color 1"]
        child_lines = lines[2:]
        assert len(child_lines) == a * ell + b
        assert all(line == "child" or line.startswith("child ") for line in child_lines)
        texts = [line[len("child "):] for line in child_lines]
        assert "d".join(texts) == text[len(head):]
        params, colors = PathParams(a, b), ColorSequence.constant(2)
        t = bijection.decompose(model.parse_steps(text, params, colors), params, colors)
        assert texts == [to_steps(child) for child in t.children]


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
    def test_built_once(self, run):
        build_parser.cache_clear()
        for _ in range(3):
            assert run("count", "--a", "1", "--b", "0", "--N", "2")[0] == 0
        assert run("preset", "motzkin", "--N", "2")[0] == 0
        assert build_parser.cache_info().misses == 1

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


BIG = "const:1" + "0" * 100  # y_50 has more than 4300 digits


class TestStdoutPinned:
    """The sha256 of stdout of one command line per subcommand and
    format, each recorded before the subcommands shared one writer."""

    DIGESTS = {
        "count --a 2 --b 1 --colors catpair --N 30":
            "22c57c1cf5aeebb6fd77a912ae65f23964fcab97f2822f86a00cba46df5dafd0",
        "count --a 1 --b 0 --colors pow2 --N 25 --format bfile":
            "29c74cf509644f4cea3ee3b11341ca1fabec5533727ee5e1f89cdae007ff8817",
        "count --a 1 --b 1 --colors explicit:1,2+tail:3 --N 25 --format jsonl":
            "01f748b58e2bea3a9a877740a3f39c9cf71e4738d2ce8033f00a6134d71e8100",
        f"count --a 1 --b 0 --colors {BIG} --N 50":
            "cfc07d43a4981b7c0767e5438af496ba3570d0b12a89d3ad4d001bd4aa08e392",
        f"count --a 1 --b 0 --colors {BIG} --N 50 --format bfile":
            "6aff15cd0db614e9abe8da808e12e2a15e13bdd8845a2642a99b65316e90892c",
        f"count --a 1 --b 0 --colors {BIG} --N 50 --format jsonl":
            "257c29c5fdd961f1a0c2804acb9210a926e40d6bc5128c4c4575a1a00df76f5e",
        "peaks --a 5 --b 0 --colors catpair --n 40":
            "1565b68cdcfac24a359a6987ce727d9b145f969fca624cda25b30a8283797bdc",
        "preset narayana --n 12":
            "4650890b6dcf83f51d911266d0d765802b3256e9673cc796f46f3d0801c0da2f",
        "enumerate --a 1 --b 0 --colors pow2 --n 7":
            "de2ef26b31644b5c88558e28cc961ba33edd8ca5bdff6d650396743c0bdf7ddb",
        "enumerate --a 2 --b 1 --colors catpair --n 3 --format jsonl":
            "9366c482e82695ddbe605449e75b474c35879956a1494cb57fe355bb081d3b4b",
        "decompose --a 1 --b 0 --colors pow2 uu[2]dduu[1]ddud":
            "b841636da427e7a928ce201ede7cef59eb6d92d5a9f3c8b77270d738df592d5f",
        "validate --a 1 --b 0 --colors pow2 uu[2]dduu[1]ddud":
            "009d962905920ad0e3ff46c6987fad36418982deb81796fd1f58e326d167c268",
    }

    @staticmethod
    def sha(text):
        return hashlib.sha256(text.encode()).hexdigest()

    @needs_int_digit_limit
    @pytest.mark.parametrize("line", DIGESTS, ids=lambda line: line.replace(BIG, "const:1e100"))
    def test_stdout(self, run, line):
        code, out, err = run(*line.split(" "))
        assert (code, self.sha(out), err) == (0, self.DIGESTS[line], "")

    def test_preset_disagreement(self, run, monkeypatch):
        # the rows are printed, then the first bad index, with exit 1
        alt = sequences.duchon_alt
        monkeypatch.setattr(sequences, "duchon_alt", lambda n: alt(n) + (n == 3))
        code, out, err = run("preset", "duchon", "--N", "12")
        assert (code, self.sha(out), err) == (
            1,
            "630053f7591ddf3e34a353dd20e52b1b1bf09ebb97c768610c49e8744f2b581d",
            "closed form disagreement at n=3\n",
        )

    def test_count_writes_its_first_line_alone(self, monkeypatch):
        writes = []
        monkeypatch.setattr(sys, "stdout", io.StringIO())
        monkeypatch.setattr(sys.stdout, "write", writes.append)
        assert main(["count", "--a", "1", "--b", "0", "--N", "5"]) == 0
        # then each batch as long as all written before it
        assert writes == ["1\n", "1\n", "2\n5\n", "14\n42\n"]

    @pytest.mark.parametrize("line, digest, size", [
        ("count --a 1 --b 0 --N 3000 --route recurrence",
         "892e95c4d6bcd8481ece6799992bf1f0a49c5d241d590ae94841a44f6b02dfaf", 2700237),
        ("peaks --a 1 --b 0 --n 600",
         "a64808131f37f2a6eb5c9f64e982e27a44be90f2c995845d1ff27f00b520830a", 156246),
    ])
    def test_growing_lines_go_out_in_bounded_writes(self, monkeypatch, line, digest, size):
        # lines that grow from a short first one: every write after the
        # first is at most 2 * _WRITE_CHARS, and stdout is what it was
        # when all the rest went out in one write
        writes = []
        monkeypatch.setattr(sys, "stdout", io.StringIO())
        monkeypatch.setattr(sys.stdout, "write", writes.append)
        assert main(line.split(" ")) == 0
        out = "".join(writes)
        assert (len(out), self.sha(out)) == (size, digest)
        assert writes[0] == out[: out.index("\n") + 1]
        assert max(map(len, writes[1:])) <= 2 * cli._WRITE_CHARS
        assert len(writes) > size // (2 * cli._WRITE_CHARS)


W = cli._WRITE_CHARS


class TestWriteGroups:
    """_write_lines takes groups (prefix, lines) and writes prefix +
    line + newline for each line, the first line on its own and no
    later write longer than 2 * _WRITE_CHARS unless one line is."""

    GROUPS = {
        "empty groups": lambda: [("h", []), ("", iter(["a", "b"])), ("q", ())],
        "no lines": lambda: [("h", []), ("", iter(()))],
        "groups smaller than a batch": lambda: [
            ("u[1]d", ["", "d", "dd"]), ("u[2]d", iter(["x"])), ("", ["y"] * 5)
        ],
        "long prefix": lambda: [("p" * 5000, (f"{i}" for i in range(200))), ("", ["z"])],
        "group after a batch boundary": lambda: [
            ("", ["z" * 100] * 1000), ("h", (f"t{i}" for i in range(10))), ("k", ["w"] * 3)
        ],
        "group ending on a batch boundary": lambda: [
            ("", ["a"] * 15), ("", ["z" * 1023] * 64), ("e", ["f"] * 3)
        ],
        "line longer than 2 * _WRITE_CHARS": lambda: [
            ("", ["a", "b"]), ("p", ["c" * (3 * W), "d"]), ("", ["e" * 10] * 10000)
        ],
    }

    @pytest.mark.parametrize("case", GROUPS)
    def test_groups(self, monkeypatch, case):
        writes = []
        monkeypatch.setattr(sys, "stdout", io.StringIO())
        monkeypatch.setattr(sys.stdout, "write", writes.append)
        cli._write_lines(self.GROUPS[case]())
        lines = [prefix + line + "\n" for prefix, group in self.GROUPS[case]() for line in group]
        assert "".join(writes) == "".join(lines)
        assert writes[:1] == lines[:1]
        for text in writes[1:]:
            assert len(text) <= 2 * W or max(map(len, text.split("\n"))) > W

    def test_lines_taken_before_an_error_are_written(self, monkeypatch):
        # the error comes within a run of lines: the run's lines taken
        # before it go out, then the error propagates
        def lines():
            yield from "abcde"
            raise NonIntegerTerm("the sixth line")

        writes = []
        monkeypatch.setattr(sys, "stdout", io.StringIO())
        monkeypatch.setattr(sys.stdout, "write", writes.append)
        with pytest.raises(NonIntegerTerm, match="the sixth line"):
            cli._write_lines([("p", lines())])
        assert writes == ["pa\n", "pb\n", "pc\npd\n", "pe\n"]

    def test_each_batch_is_flushed(self, monkeypatch):
        events = []
        monkeypatch.setattr(sys, "stdout", io.StringIO())
        monkeypatch.setattr(sys.stdout, "write", events.append)
        monkeypatch.setattr(sys.stdout, "flush", lambda: events.append(None))
        cli._write_lines([("", map(str, range(12)))])
        assert events == [
            "0\n", None, "1\n", None, "2\n3\n", None, "4\n5\n6\n7\n", None,
            "8\n9\n10\n11\n", None,
        ]

    def test_lines_after_a_short_first_one_are_joined_in_bounded_batches(self, monkeypatch):
        # count's lines grow from "1" to 1,800 digits: each batch is
        # sized by its own lines, not by the first, so the writer never
        # holds the 2.7 MB after the first line at once
        values = count_recurrence(PathParams(1, 0), ColorSequence.ones(), 3000).values
        digest = hashlib.sha256()
        monkeypatch.setattr(sys, "stdout", io.StringIO())
        monkeypatch.setattr(sys.stdout, "write", lambda text: digest.update(text.encode()))
        tracemalloc.start()
        try:
            cli._write_lines([("", (f"{v}" for v in values))])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert digest.hexdigest() == (
            "892e95c4d6bcd8481ece6799992bf1f0a49c5d241d590ae94841a44f6b02dfaf"
        )
        assert peak <= 1 << 20

    def test_each_head_is_spelled_once_per_walk(self, monkeypatch):
        # the walk spells the 10 letter lists below index 11 and the
        # separator; the listing spells each of the 11 heads of index 11
        # once, not once for each of its 1,033 groups
        calls = []
        step_texts = model._step_texts

        def counted(params, blocks):
            calls.append(blocks)
            return step_texts(params, blocks)

        monkeypatch.setattr(model, "_step_texts", counted)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["enumerate", "--a", "1", "--b", "0", "--n", "11"]) == 0
        assert out.getvalue().count("\n") == 58786
        assert len(calls) == 22


# --- the plain command line, parsed without argparse ------------------

INT_TEXT = st.integers(0, 40).map(str)
COUNT_OPTIONS = ({"--a": INT_TEXT, "--b": INT_TEXT}, {
    "--colors": st.sampled_from(
        ["ones", "pow2", "catpair", "const:3", "explicit:1,1", "explicit:2,0,1+tail:1", "explicit:"]
    )
})
WORDS = st.sampled_from(["ud", "uudd", "u[1]d", "u[2]dd", "udud", "x", ""])
# Each subcommand: its required options, its other options, and its
# positional with whether it is required; each with the values drawn.
GRAMMAR = {
    "count": ({**COUNT_OPTIONS[0], "--N": INT_TEXT}, {
        **COUNT_OPTIONS[1],
        "--route": st.sampled_from(["both", "recurrence", "bell"]),
        "--format": st.sampled_from(["plain", "bfile", "jsonl"]),
    }, None),
    "peaks": ({**COUNT_OPTIONS[0], "--n": INT_TEXT}, COUNT_OPTIONS[1], None),
    "enumerate": ({**COUNT_OPTIONS[0], "--n": INT_TEXT}, {
        **COUNT_OPTIONS[1],
        "--format": st.sampled_from(["plain", "jsonl"]),
        "--cap": INT_TEXT,
    }, None),
    "decompose": (*COUNT_OPTIONS, (WORDS, False)),
    "validate": (*COUNT_OPTIONS, (WORDS, False)),
    "preset": ({}, {"--N": INT_TEXT, "--n": INT_TEXT, "--m": INT_TEXT},
               (st.sampled_from(sorted(cli._PRESETS)), True)),
}
# Values of any option, the wrong ones among them.
ANY_VALUE = st.sampled_from(
    ["0", "3", "-1", "٣", "1_0", "+5", "x", "", "ones", "const:x", "const:-1",
     "bell", "bfile", "jsonl", "mary", "ud"]
)


@st.composite
def command_lines(draw):
    """A command line of one subcommand's grammar, options and
    positional in any order, and the mutations made to it."""
    name = draw(st.sampled_from(sorted(GRAMMAR)))
    required, optional, positional = GRAMMAR[name]
    chosen = [*required, *draw(st.sets(st.sampled_from(sorted(optional))))]
    items = [[option, draw({**required, **optional}[option])] for option in chosen]
    if positional and (positional[1] or draw(st.booleans())):
        items.append([draw(positional[0])])
    argv = [name, *itertools.chain.from_iterable(draw(st.permutations(items)))]
    options = sorted({*required, *optional})
    mutations = draw(st.lists(st.sampled_from(sorted(MUTATIONS)), max_size=2))
    for mutation in mutations:
        argv = MUTATIONS[mutation](draw, argv, options)
    return argv, mutations


def _value_indices(argv):
    return [i for i in range(1, len(argv)) if not str(argv[i]).startswith("-")]


def _replace_value(values):
    def mutate(draw, argv, options):
        at = _value_indices(argv)
        if at:
            argv = [*argv]
            argv[draw(st.sampled_from(at))] = draw(values)
        return argv
    return mutate


def _insert(tokens):
    def mutate(draw, argv, options):
        at = draw(st.integers(1, len(argv)))
        return [*argv[:at], *draw(tokens(options)), *argv[at:]]
    return mutate


def _option_token(rewrite):
    def mutate(draw, argv, options):
        at = [i for i in range(1, len(argv) - 1) if str(argv[i]).startswith("--")]
        if not at:
            return argv
        i = draw(st.sampled_from(at))
        return [*argv[:i], *rewrite(draw, argv[i], argv[i + 1]), *argv[i + 2:]]
    return mutate


def _drop_option(draw, argv, options):
    at = [i for i in range(1, len(argv)) if str(argv[i]).startswith("--")]
    if not at:
        return argv[1:]  # no subcommand at all
    i = draw(st.sampled_from(at))
    return [*argv[:i], *argv[i + 2:]]


def _non_str(draw, argv, options):
    argv = [*argv]
    argv[draw(st.integers(0, len(argv) - 1))] = draw(st.sampled_from([5, None, b"--a", 1.5]))
    return argv


MUTATIONS = {
    "repeat": _insert(lambda options: st.tuples(st.sampled_from(options), ANY_VALUE)),
    "equals": _option_token(lambda draw, option, value: [f"{option}={value}"]),
    "abbreviation": _option_token(
        lambda draw, option, value: [option[:draw(st.integers(3, max(3, len(option) - 1)))], value]
    ),
    "help": _insert(lambda options: st.tuples(st.sampled_from(["-h", "--help"]))),
    "dashes": _insert(lambda options: st.just(("--",))),
    "dash value": _replace_value(st.sampled_from(["-1", "-0", "-x", "-", "-ud"])),
    "digits": _replace_value(st.sampled_from(["٣", "1_0", "+5", " 5"])),
    "bad choice": _replace_value(st.sampled_from(["nope", "PLAIN", "Bell", "catalan"])),
    "missing": _drop_option,
    "positional": _insert(lambda options: st.tuples(st.sampled_from(["ud", "mary", "3"]))),
    "subcommand": lambda draw, argv, options: [
        draw(st.sampled_from(["coun", "Count", "-h", "--a", "", "peak"])), *argv[1:]
    ],
    "non-str": _non_str,
}


def argparse_namespace(argv):
    """vars() of build_parser().parse_args(argv), or None where it
    exits or fails, with its output dropped."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(build_parser().parse_args(argv))
        except (SystemExit, Exception):  # a usage error, help, or a token not a str
            return None


class TestPlainArgs:
    @settings(max_examples=1000, derandomize=True, deadline=None)
    @given(command_lines())
    @example((["preset", "-h", "mary"], ["help"]))  # help followed by a value
    @example((["decompose", "--a", "1", "--b", "0", "--help", "ud"], ["help"]))
    def test_same_namespace_as_argparse_or_none(self, drawn):
        argv, mutations = drawn
        plain = cli._plain_args(argv)
        parsed = argparse_namespace(argv)
        if plain is not None:
            assert vars(plain) == parsed
        elif not mutations:
            # an unmutated draw is a plain command line
            pytest.fail(f"not read as plain: {argv}")

    def test_grammar_covers_every_subcommand(self):
        assert set(GRAMMAR) == set(build_parser().commands.choices)


ROOT = Path(__file__).resolve().parents[1]
# Every command line that .github/workflows/tests.yml runs, with its
# shell variables expanded, and the text it pipes to stdin.  A line
# piped into `head -n k` gets a stdout whose reader closes it after k
# lines.
RISES = "".join(f"u[{k}]d" for k in range(1, 200001)) + "\n"
WORKFLOW_LINES = {
    "count --a 1 --b 0 --N 100": None,
    "preset duchon --N 20": None,
    "count --a 2 --b 1 --colors catpair --N 30": None,
    "enumerate --a 1 --b 0 --n 11 | head -n 1": None,
    "count --a 1 --b 0 --N 700 | head -n 1": None,
    "peaks --a 1 --b 0 --n 600 | head -n 1": None,
    "enumerate --a 1 --b 0 --n 13": None,
    "enumerate --a 2 --b 1 --colors catpair --n 5": None,
    "enumerate --a 2 --b 1 --colors catpair --n 5 --format jsonl": None,
    "enumerate --a 1 --b 2 --colors explicit:1,1 --n 7 --format jsonl": None,
    "enumerate --a 1 --b 0 --colors pow2 --n 8 --format jsonl": None,
    "enumerate --a 1 --b 0 --n 12 --format jsonl": None,
    "decompose --a 1 --b 0": "ud" * 100000 + "\n",
    "decompose --a 2 --b 1": "uuu[1]d" + "dd" + "uuu[1]ddd" * 300000 + "\n",
    "validate --a 1 --b 0 --colors const:1000000": RISES,
    "decompose --a 1 --b 0 --colors const:1000000": RISES,
    "enumerate --a 1500 --b 0 --n 1": None,
    "enumerate --a 0 --b 1 --colors explicit:0,1 --n 1200": None,
    "enumerate --a 0 --b 1 --colors explicit:0,1 --n 6000": None,
    "count --a 0 --b 1 --colors explicit:0,1,1 --N 40": None,
    "enumerate --a 0 --b 1 --colors explicit:0,1,1 --n 40": None,
    "enumerate --a 3 --b 0 --colors explicit:0,0,0,0,0,1 --n 15": None,
    "enumerate --a 3 --b 0 --colors explicit:0,0,0,0,0,1 --n 18": None,
    "enumerate --a 3 --b 0 --colors explicit:0,0,0,0,0,1 --n 24": None,
    "enumerate --a 1 --b 0 --n 15 --cap 100000000 | head -n 1": None,
    "enumerate --a 1 --b 0 --n 100000000": None,
    "count --a 1 --b 0 --N 100000000000000000000 --route recurrence": None,
    "count --a 1 --b 0 --N 100000000000000000000": None,
    "peaks --a 1 --b 0 --n 0": None,
    "preset narayana --N 0": None,
    "count --a 0 --b 0 --N 3": None,
    "validate --a 1 --b 0": "u[" + "1" * 5000 + "]d\n",
    "count --a 1 --b 0 --N 2000 --route recurrence": None,
    "count --a 1500 --b 0 --N 200": None,
    "count --a 5 --b 0 --colors catpair --N 500 --route recurrence": None,
    "count --a 5 --b 0 --colors catpair --N 300 --route bell": None,
    "count --a 5 --b 0 --colors catpair --N 500": None,
    "count --a 2 --b 1 --colors catpair --N 400": None,
    "peaks --a 5 --b 0 --colors catpair --n 500": None,
    "preset motzkin --N 400": None,
    "preset a052709 --N 300": None,
    "preset a186997 --N 250": None,
    "preset schroeder --N 200": None,
    "preset duchon --N 100": None,
    "preset narayana --n 100": None,
    "preset mary --m 3 --N 100": None,
    "count --a 1 --b 0 --colors const:1" + "0" * 100 + " --N 50": None,
    "count --a 1 --b 0 --colors ones --N 5": None,
    "count --a 1 --b 0 --N 20000 | head -n 3": None,
}
# The workflow's lines that argparse reads: usage errors, and the
# abbreviation and --opt=value lines that must print what the plain
# line does.
WORKFLOW_ARGPARSE = [
    "count --a 1 --b 0 --N -1",
    "count --a -1 --b 0 --N 3",
    "count --a 1 --b 0 --N 3 --colors const:-1",
    "count --a 1 --b 0 --N 3 --colors explicit:1,-2",
    "count --a 1 --b 0 --N ٣",
    "count --a 1 --b 0 --N 1_0",
    "count --a 1 --b 0 --N +5",
    "count --a 1 --b 0 --col ones --N 5",
    "count --a=1 --b=0 --N=5",
]
README_LINES = re.findall(r"^colored-dyck (.+)$", (ROOT / "README.md").read_text(), re.M)


class _Pipe:
    """A captured stdout, kept as a sha256 of its text.  With head = k > 0,
    its reader closes it after the first k lines, as `| head -n k` does."""

    def __init__(self, head):
        self.sha, self.head, self.closed = hashlib.sha256(), head, False
        self.fd = os.open(os.devnull, os.O_WRONLY)

    def write(self, text):
        if self.closed:
            raise BrokenPipeError
        self.sha.update(text.encode())
        if self.head:
            self.head -= text.count("\n")
            self.closed = self.head <= 0
        return len(text)

    def fileno(self):
        return self.fd  # main points it at devnull once the reader is gone


def run_line(monkeypatch, line, stdin):
    """(exit code, stdout sha256, stderr) of main on one command line."""
    line, _, pipe = line.partition(" | ")
    out, err = _Pipe(int(pipe.removeprefix("head -n ") or 0)), io.StringIO()
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin or ""))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(line.split(" "))
            except SystemExit as exc:
                code = exc.code
    finally:
        os.close(out.fd)
    return code, out.sha.hexdigest(), err.getvalue()


class TestPlainTraffic:
    """The README's and the workflow's command lines: the plain ones are
    read without argparse, and every one prints the same as through
    argparse."""

    def test_readme_has_six_examples(self):
        assert len(README_LINES) == 6

    def test_workflow_lines_are_listed(self):
        # each colored-dyck line of the workflow with no shell variable
        text = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
        commands = "|".join(build_parser().commands.choices)
        found = re.findall(rf"(?:colored-dyck|colored_dyck\.cli) ((?:{commands}) [^|>)\n]*)", text)
        literal = {line.strip(" \\") for line in found if "$" not in line}
        assert len(literal) > 20  # the pattern still finds them
        listed = [*WORKFLOW_LINES, *WORKFLOW_ARGPARSE]
        assert literal <= {line.partition(" | ")[0] for line in listed}

    @pytest.mark.parametrize(
        "line, stdin",
        [*((line, None) for line in [*README_LINES, *WORKFLOW_ARGPARSE]), *WORKFLOW_LINES.items()],
        ids=[*README_LINES, *WORKFLOW_ARGPARSE, *(line[:70] for line in WORKFLOW_LINES)],
    )
    def test_same_output_without_the_plain_path(self, monkeypatch, line, stdin):
        argv = line.partition(" | ")[0].split(" ")
        plain = cli._plain_args(argv)
        assert (plain is None) == (line in WORKFLOW_ARGPARSE)
        fast = run_line(monkeypatch, line, stdin)
        monkeypatch.setattr(cli, "_plain_args", lambda argv: None)
        assert run_line(monkeypatch, line, stdin) == fast


class TestMainReadsSysArgv:
    def test_plain(self, monkeypatch, capsys):
        argv = ["colored-dyck", "count", "--a", "1", "--b", "0", "--N", "3"]
        monkeypatch.setattr(sys, "argv", argv)
        assert main() == 0
        assert capsys.readouterr() == ("1\n1\n2\n5\n", "")

    def test_help(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["colored-dyck", "count", "--help"])
        with pytest.raises(SystemExit) as exc:
            main()
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: colored-dyck count ")
