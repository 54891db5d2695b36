"""Line-coverage gate for src/colored_dyck, with no dependency.

    python tests/linecov/gate.py [pytest arguments]

runs the test suite with sitecustomize.py (next to this file) on
PYTHONPATH, so that the pytest process and every CLI subprocess it
starts record the lines of src/colored_dyck they run.  It exits 1 if
an executable line of the package runs in no process and is not named
in allowlist.json, or if an allowlist entry names no executable line
or a line that runs; it exits with pytest's code if a test fails.

A line is executable if the interpreter's own compiler gives it an
instruction, other than the one that starts a function's frame.
An allowlist entry is {"file", "line", "reason"}: a module of the
package, the text of a line in it (stripped), and why no test can
reach that line without changing the code.
"""

from __future__ import annotations

import dis
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from types import CodeType

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
PACKAGE = ROOT / "src" / "colored_dyck"
ALLOWLIST = HERE / "allowlist.json"


def executable_lines(source: str, filename: str = "<source>") -> set[int]:
    """The line numbers of source that some instruction belongs to,
    leaving out the instruction that opens each function's frame,
    which runs as a call, not as a line."""
    lines = set()
    codes = [compile(source, filename, "exec")]
    while codes:
        code = codes.pop()
        codes += (c for c in code.co_consts if isinstance(c, CodeType))
        resume = {i.offset for i in dis.get_instructions(code) if i.opname == "RESUME"}
        lines.update(
            line
            for start, end, line in code.co_lines()
            if line is not None and not set(range(start, end, 2)) <= resume
        )
    return lines


def problems(sources: dict, executed: dict, allowlist: list) -> list[str]:
    """What fails the gate, one message per line or entry.

    sources maps a module's file name to its text, executed maps it to
    the line numbers that ran, and allowlist is the list of entries."""
    texts = {name: source.splitlines() for name, source in sources.items()}
    lines = {name: executable_lines(source, name) for name, source in sources.items()}
    missed = {name: lines[name] - set(executed.get(name, ())) for name in sources}
    found, allowed = [], set()
    for entry in allowlist:
        name, text = entry["file"], entry["line"]
        where = [n for n in lines.get(name, ()) if texts[name][n - 1].strip() == text]
        if not where:
            found.append(f"{name}: allowlist entry names no executable line: {text}")
        for n in where:
            if n in missed[name]:
                allowed.add((name, n))
            else:
                found.append(f"{name}:{n}: allowlisted line runs: {text}")
    for name in sorted(missed):
        for n in sorted(missed[name]):
            if (name, n) not in allowed:
                found.append(f"{name}:{n}: no test runs this line: {texts[name][n - 1].strip()}")
    return found


def main(pytest_args: list[str]) -> int:
    with tempfile.TemporaryDirectory() as out_dir:
        env = dict(os.environ, COLORED_DYCK_LINECOV=out_dir)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(HERE), str(ROOT / "src"), env.get("PYTHONPATH")])
        )
        code = subprocess.run(
            [sys.executable, "-m", "pytest", *pytest_args], cwd=ROOT, env=env
        ).returncode
        if code:
            return code
        executed = {}
        for data in Path(out_dir).glob("*.json"):
            for path, lines in json.loads(data.read_text()).items():
                executed.setdefault(Path(path).name, set()).update(lines)
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    found = problems(sources, executed, json.loads(ALLOWLIST.read_text()))
    for message in found:
        print(message, file=sys.stderr)
    print(f"line coverage: {len(found)} problem(s) in src/colored_dyck", file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
