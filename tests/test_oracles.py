"""The oracles sit apart from the library: no other package module
imports colored_dyck.oracles, and loading the CLI loads none of them."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import colored_dyck
from colored_dyck import oracles
from conftest import package_imports


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
    src = str(Path(colored_dyck.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = (
        "import sys, colored_dyck.cli; "
        "print(sorted({'colored_dyck.oracles', 'fractions', 'json'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
