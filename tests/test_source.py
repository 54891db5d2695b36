"""Rules on the package's source, read with ast.

-O strips assert statements and makes __debug__ False; it changes
nothing else in a module's code.  No module of src/colored_dyck holds
either, so the plain tier-1 run covers what -O would run.

The CLI is a shell over the counting routes' public calls: cli.py
imports no private name of counting or bell, and reads none."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "colored_dyck"


def optimized_away(source: str) -> list[int]:
    """The lines of source whose code -O changes: assert statements and
    reads of __debug__."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Assert)
        or isinstance(node, ast.Name) and node.id == "__debug__"
    )


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_code_that_python_O_strips(path):
    assert optimized_away(path.read_text()) == []


@pytest.mark.parametrize(
    "source, lines",
    [
        ("x = 1\n", []),
        ("def f(x):\n    assert x, 'no x'\n    return x\n", [2]),
        ("if __debug__:\n    pass\n", [1]),
        ("y = not __debug__\n", [1]),
        ("debug = 1\n", []),
    ],
)
def test_finds_asserts_and_debug_reads(source, lines):
    assert optimized_away(source) == lines


# The modules whose private names cli.py may not use.
PRIVATE_TO = ("counting", "bell")


def private_reads(source: str) -> list[str]:
    """The private names of PRIVATE_TO that source imports
    (`from .bell import _x`) or reads as an attribute (`counting._x`)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").rpartition(".")[2] in PRIVATE_TO:
            found += (f"{node.module}.{alias.name}" for alias in node.names if alias.name.startswith("_"))
        elif (
            isinstance(node, ast.Attribute) and node.attr.startswith("_")
            and isinstance(node.value, ast.Name) and node.value.id in PRIVATE_TO
        ):
            found.append(f"{node.value.id}.{node.attr}")
    return sorted(found)


def test_cli_uses_no_private_name_of_counting_or_bell():
    assert private_reads((PACKAGE / "cli.py").read_text()) == []


@pytest.mark.parametrize(
    "source, names",
    [
        ("from .bell import _int_text, binomial\n", ["bell._int_text"]),
        ("from colored_dyck.counting import _recurrence\n", ["colored_dyck.counting._recurrence"]),
        ("from .model import _Table\n", []),
        ("from . import counting\ncounting._bell_terms(1)\n", ["counting._bell_terms"]),
        ("counting.series(1)\nmodel._step_texts\n", []),
    ],
)
def test_finds_private_imports_and_reads(source, names):
    assert private_reads(source) == names
