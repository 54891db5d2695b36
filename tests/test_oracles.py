"""The oracles sit apart from the library: no other package module
imports colored_dyck.oracles, and loading the CLI loads none of them.
They check their index arguments with the library's one check."""

import importlib
import pkgutil
import re
import subprocess
import sys

import pytest

import colored_dyck
from colored_dyck import ColorSequence, PathParams, count_recurrence, oracles
from colored_dyck.errors import InvalidIndex
from conftest import package_imports, subprocess_env

SERIES = count_recurrence(PathParams(1, 0), ColorSequence.ones(), 4)


def test_only_oracles_names_oracles():
    names = [f"colored_dyck.{m.name}" for m in pkgutil.iter_modules(colored_dyck.__path__)]
    assert "colored_dyck.oracles" in names
    for name in ["colored_dyck", *names]:
        if name != "colored_dyck.oracles":
            imported = package_imports(importlib.import_module(name))
            assert not {m for m in imported if m.endswith(".oracles")}, name
    assert package_imports(oracles) == {".bell", ".counting", ".errors"}


def test_cli_loads_no_oracle():
    # -S: no site hooks, so only the package's own imports are counted.
    code = (
        "import sys, colored_dyck.cli; "
        "print(sorted({'colored_dyck.oracles', 'fractions', 'json'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True, text=True, env=subprocess_env(), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# Each oracle called with an index v that is a float, then below its
# range: the messages are those of bell._need_index and _need_peaks.
@pytest.mark.parametrize(
    "call, low, name, least",
    [
        (lambda v: oracles.partial_bell_sum(3, v, (1, 1, 1)), 0, "k", None),
        (lambda v: oracles.partial_bell_triangle(v, (1, 1)), -1, "N", 0),
        (lambda v: oracles.power_triangle(v, (1, 1)), -1, "N", 0),
        (lambda v: oracles.convolution_power_direct(SERIES, v, 2), 0, "r", 1),
        (lambda v: oracles.convolution_power_direct(SERIES, 2, v), -1, "n", 0),
        (lambda v: oracles.step_lattice_count({(1, 1), (1, -1)}, v), -1, "end_x", 0),
        (lambda v: oracles.duchon_alt_first(v), 0, "n", 1),
        (lambda v: oracles.duchon_alt_mid(v), 0, "n", 1),
        (lambda v: oracles.rational_dyck_count(v), 0, "n", 1),
        (lambda v: oracles.rational_dyck_words(v), 0, "n", 1),
    ],
    ids=["partial_bell_sum", "partial_bell_triangle", "power_triangle",
         "convolution-r", "convolution-n", "step_lattice_count",
         "duchon_alt_first", "duchon_alt_mid", "rational_dyck_count",
         "rational_dyck_words"],
)
def test_oracle_index_is_invalid_index(call, low, name, least):
    below = (
        f"need 1 <= k <= n, got n=3, k={low}" if least is None
        else f"need {name} >= {least}, got {name}={low}"
    )
    for value, message in ((2.0, f"need an integer {name}, got float"), (low, below)):
        with pytest.raises(InvalidIndex, match=f"^{re.escape(message)}$"):
            call(value)


@pytest.mark.parametrize(
    "call, message",
    [
        # SERIES holds y_0..y_4
        (lambda: oracles.convolution_power_direct(SERIES, 2, 5),
         "series must be defined through index 5"),
        (lambda: oracles.step_lattice_count({(1, 1), (0, -1)}, 4), "steps must advance in x"),
        (lambda: oracles.step_lattice_count({(-1, 1)}, 4), "steps must advance in x"),
    ],
    ids=["series-too-short", "step-in-place", "step-back"],
)
def test_oracle_argument_is_checked(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
