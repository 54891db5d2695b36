import ast
import os
import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

import colored_dyck
from colored_dyck import DOWN, ColoredDyckWord, ColorSequence, DownStep, PathParams, Rise
from colored_dyck.bell import power_rows

# (a, b) and color grids of the cross-route and enumeration checks;
# tests/test_acceptance.py imports both.
PARAM_GRID = [
    PathParams(a, b)
    for a in range(4)
    for b in range(4)
    if a + b >= 1
]

COLOR_GRID = [
    ColorSequence.ones(),
    ColorSequence.powers_of_two(),
    ColorSequence.catalan_pair_sum(),
    ColorSequence.explicit((1, 1)),
    ColorSequence.explicit((2, 0, 1)),
    ColorSequence.constant(3),
]

# Small colorings of every kind, drawn: explicit prefixes of up to 6
# colors with a tail, so that a prefix longer than a small N with a
# tail is among them, and every preset.
DRAWN_COLORS = st.one_of(
    st.builds(
        ColorSequence.explicit,
        st.lists(st.integers(0, 4), max_size=6),
        st.integers(0, 4),
    ),
    st.sampled_from(
        [ColorSequence.ones(), ColorSequence.powers_of_two(), ColorSequence.catalan_pair_sum()]
    ),
    st.builds(ColorSequence.constant, st.integers(0, 4)),
)


@pytest.fixture
def int_digit_limit():
    """The interpreter's default limit on int-to-str digits, in force
    for one test whatever the environment set."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    yield
    sys.set_int_max_str_digits(saved)


# For tests of integers with more digits than the interpreter converts
# to text.
needs_int_digit_limit = pytest.mark.usefixtures("int_digit_limit")


def subprocess_env():
    """The environment of a child interpreter that imports the package
    these tests import: its source directory first on PYTHONPATH, then
    the entries already there."""
    src = str(Path(colored_dyck.__file__).parents[1])
    return {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    }

# 10^5000, past the default limit of 4300 digits: a message names it by
# its bit length.
HUGE, HUGE_TEXT = 10**5000, "<16610-bit integer>"


def package_imports(module):
    """The package modules a module's import statements name, as
    written (".errors", "colored_dyck.model", ...).  A name imported
    from the package itself is a module: `from . import errors` names
    ".errors"."""
    imported = set()
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            if base in (".", "colored_dyck"):
                imported.update(f"{base.rstrip('.')}.{a.name}" for a in node.names)
            else:
                imported.add(base)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    return {m for m in imported if m.startswith((".", "colored_dyck"))}


def random_block_word(rng, params, colors, rises, sizes, bad=0.0):
    """A random word of `rises` rises for `params`.

    Each rise has a size drawn from `sizes` and a color in 1..c_j, but
    with probability `bad` (and always where c_j = 0) a color past c_j.
    Down steps, placed wherever the prefix stays nonnegative and closing
    the word, are DOWN or a fresh DownStep() that is not DOWN.  Built by
    the checked constructor, which does not read colors.
    """
    blocks, balance = [], 0
    while rises:
        if balance > 0 and rng.random() < 0.5:
            blocks.append(rng.choice((DOWN, DownStep())))
            balance -= 1
        else:
            j = rng.choice(sizes)
            limit = colors.at(j)
            if limit and rng.random() >= bad:
                color = rng.randint(1, limit)
            else:
                color = limit + rng.randint(1, 3)
            blocks.append(Rise(j, color))
            balance += params.a * j + params.b - 1
            rises -= 1
    blocks += [rng.choice((DOWN, DownStep())) for _ in range(balance)]
    return ColoredDyckWord(params, blocks)


def padded_triangle(N, form):
    """power_rows(N, form) padded back to power_triangle's shape: row 0,
    and k zeros before row k."""
    rows = power_rows(N, form)
    return [[1] + [0] * N] + [[0] * k + row for k, row in enumerate(rows, 1)]


@pytest.fixture(params=PARAM_GRID, ids=lambda p: f"a{p.a}b{p.b}")
def params(request):
    return request.param


@pytest.fixture(params=COLOR_GRID, ids=lambda c: c.kind)
def colors(request):
    return request.param
