"""The package runs the same under python -O.

-O strips assert statements and makes __debug__ False; it changes
nothing else in a module's code.  No module of src/colored_dyck holds
either, so the plain tier-1 run covers what -O would run."""

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
