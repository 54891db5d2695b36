"""The CLI output corpus, tests/golden/cli.txt: every command line in
it prints what it printed when the file was recorded.  After a change
that is meant to change output, rerun tests/golden/record.py and list
the argv whose lines changed, with the reason."""

from colored_dyck.cli import parse_color_spec
from colored_dyck.model import PathParams
from conftest import COLOR_GRID, PARAM_GRID
from golden import record


def test_every_line_prints_what_it_printed():
    changed = [" ".join(argv) for argv, want in record.read() if record.digest(argv) != want]
    assert not changed, "\n".join(["these lines print what they did not:", *changed])


def test_the_file_holds_the_argv_record_makes():
    assert [argv for argv, _ in record.read()] == record.argvs()
    assert record.CORPUS.stat().st_size < 1 << 20


def test_the_grids_are_conftests():
    assert [PathParams(a, b) for a, b in record.PAIRS] == PARAM_GRID
    assert [parse_color_spec(spec) for spec in record.SPECS] == COLOR_GRID
