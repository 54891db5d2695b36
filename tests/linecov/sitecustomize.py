"""Line recorder for the coverage gate (gate.py, next to this file).

The interpreter imports this module at startup when its directory is
on PYTHONPATH.  If COLORED_DYCK_LINECOV names a directory, the process
records, through sys.settrace, every line of src/colored_dyck that it
runs, and writes them at exit to a file of its own in that directory:
one JSON object, file path -> sorted line numbers.  Otherwise it does
nothing.
"""

import atexit
import json
import os
import sys
import tempfile
from pathlib import Path

_PACKAGE = str(Path(__file__).resolve().parents[2] / "src" / "colored_dyck") + os.sep


def _record(out_dir):
    executed = {}  # real file path -> the line numbers run in it
    tracers = {}  # co_filename -> its line tracer, or None outside the package

    def line_tracer(filename):
        path = os.path.realpath(filename)
        if not path.startswith(_PACKAGE):
            return None
        add = executed.setdefault(path, set()).add

        def trace_lines(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return trace_lines

        return trace_lines

    def trace_calls(frame, event, arg):
        filename = frame.f_code.co_filename
        try:
            return tracers[filename]
        except KeyError:
            tracer = tracers[filename] = line_tracer(filename)
            return tracer

    def write():
        sys.settrace(None)
        fd, _ = tempfile.mkstemp(suffix=".json", dir=out_dir)
        with open(fd, "w") as out:
            json.dump({f: sorted(lines) for f, lines in executed.items()}, out)

    atexit.register(write)
    sys.settrace(trace_calls)


if os.environ.get("COLORED_DYCK_LINECOV"):
    _record(os.environ["COLORED_DYCK_LINECOV"])
