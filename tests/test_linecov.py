"""The line-coverage gate's rule, on small sources: an executable line
that no process ran fails it unless the allowlist names it, and an
allowlist entry fails it when its line runs or is gone."""

import json

import pytest

from linecov.gate import ALLOWLIST, PACKAGE, executable_lines, problems

SOURCE = '''"""A module."""

import os


def used(x):
    """Doubled."""
    # a comment
    y = x * 2

    return y


def unused():
    return os.sep


used(1)
'''
# Lines 1 (the docstring), 3, 6, 9, 11, 14 and 18 run at import and in
# the call of used; 15 is the body of unused.
RUN = {1, 3, 6, 9, 11, 14, 18}


def entry(line, reason="no test can reach it"):
    return {"file": "m.py", "line": line, "reason": reason}


def test_executable_lines_leave_out_docstrings_comments_and_blanks():
    assert executable_lines(SOURCE) == RUN | {15}


def test_a_line_no_process_runs_fails():
    assert problems({"m.py": SOURCE}, {"m.py": RUN}, []) == [
        "m.py:15: no test runs this line: return os.sep"
    ]


def test_a_listed_line_that_does_not_run_passes():
    assert problems({"m.py": SOURCE}, {"m.py": RUN}, [entry("return os.sep")]) == []


def test_a_listed_line_that_runs_fails():
    assert problems({"m.py": SOURCE}, {"m.py": RUN | {15}}, [entry("return os.sep")]) == [
        "m.py:15: allowlisted line runs: return os.sep"
    ]


@pytest.mark.parametrize(
    "listed",
    [entry("return os.altsep"), entry("# a comment"), {**entry("return os.sep"), "file": "n.py"}],
    ids=["gone", "not-executable", "no-module"],
)
def test_an_entry_that_names_no_executable_line_fails(listed):
    found = problems({"m.py": SOURCE}, {"m.py": RUN}, [listed])
    assert found == [
        f"{listed['file']}: allowlist entry names no executable line: {listed['line']}",
        "m.py:15: no test runs this line: return os.sep",
    ]


def test_each_committed_entry_gives_a_reason_and_names_a_line_of_the_package():
    allowlist = json.loads(ALLOWLIST.read_text())
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    for listed in allowlist:
        assert set(listed) == {"file", "line", "reason"} and listed["reason"]
        lines = sources[listed["file"]].splitlines()
        assert any(
            lines[n - 1].strip() == listed["line"]
            for n in executable_lines(sources[listed["file"]])
        ), listed
