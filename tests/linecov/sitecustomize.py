"""Line recorder for the coverage gate (gate.py, next to this file).

The interpreter imports this module at startup when its directory is
on PYTHONPATH.  If COLORED_DYCK_LINECOV names a directory, the process
records every line of src/colored_dyck that it runs, and writes them
at exit to a file of its own in that directory: one JSON object, file
path -> sorted line numbers.  Otherwise it does nothing.

Where sys.monitoring exists (Python 3.12 on), the recorder takes the
first LINE event of each location and then turns that location off,
so a line that runs a million times calls back once.  Before 3.12 it
records through sys.settrace, which calls back on every line run.
"""

import atexit
import json
import os
import sys
import tempfile
from pathlib import Path

_PACKAGE = str(Path(__file__).resolve().parents[2] / "src" / "colored_dyck") + os.sep


def _package_path(filename):
    """The real path of a code object's file if it is in the package,
    else None."""
    path = os.path.realpath(filename)
    return path if path.startswith(_PACKAGE) else None


def _monitor(executed):
    """Record through sys.monitoring; returns the function that stops."""
    monitoring = sys.monitoring
    tool, line_event = monitoring.COVERAGE_ID, monitoring.events.LINE
    paths = {}  # co_filename -> _package_path of it

    def line(code, lineno):
        filename = code.co_filename
        try:
            path = paths[filename]
        except KeyError:
            path = paths[filename] = _package_path(filename)
        if path is not None:
            executed.setdefault(path, set()).add(lineno)
        return monitoring.DISABLE

    monitoring.use_tool_id(tool, "colored-dyck linecov")
    monitoring.register_callback(tool, line_event, line)
    monitoring.set_events(tool, line_event)
    return lambda: monitoring.set_events(tool, 0)


def _trace(executed):
    """Record through sys.settrace; returns the function that stops."""
    tracers = {}  # co_filename -> its line tracer, or None outside the package

    def line_tracer(filename):
        path = _package_path(filename)
        if path is None:
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

    sys.settrace(trace_calls)
    return lambda: sys.settrace(None)


def _record(out_dir):
    executed = {}  # real file path -> the line numbers run in it
    stop = (_monitor if hasattr(sys, "monitoring") else _trace)(executed)

    def write():
        stop()
        fd, _ = tempfile.mkstemp(suffix=".json", dir=out_dir)
        with open(fd, "w") as out:
            json.dump({f: sorted(lines) for f, lines in executed.items()}, out)

    atexit.register(write)


if os.environ.get("COLORED_DYCK_LINECOV"):
    _record(os.environ["COLORED_DYCK_LINECOV"])
