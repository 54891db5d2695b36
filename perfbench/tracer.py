"""Span tracing of the package's layers, from outside the package.

``Tracer.install`` wraps every function named in each layer module's
``__all__``: the module attribute and every other binding of the same
function object in the package's modules (the ``from .x import y``
copies).  Classes and constants are left alone.  Generator functions
get an item counter instead of a span, since their work happens
between the caller's ``next`` calls.

Spans are kept in memory as (name, layer, start, end, parent span, op
id) and written out by ``write``.  A layer's self time is the time
covered by its spans minus the time covered by their child spans, so
each instant is charged to the innermost traced function running.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import Counter
from time import perf_counter

PACKAGE = "colored_dyck"
LAYERS = ("model", "bell", "counting", "bijection", "sequences", "cli")

# Per-layer metric name -> unit.  The benchmark reports exactly these.
PER_LAYER = {
    "bell.calls": "count",
    "bell.self_s": "s",
    "bell.partial_bell_sum.calls": "count",
    "bell.partitions": "count",
    "bell.max_bits": "bits",
    "counting.calls": "count",
    "counting.self_s": "s",
    "counting.count_bell.self_s": "s",
    "counting.peak_table.self_s": "s",
    "counting.count_recurrence.self_s": "s",
    "counting.values": "count",
    "counting.max_bits": "bits",
    "sequences.calls": "count",
    "sequences.self_s": "s",
    "bijection.calls": "count",
    "bijection.self_s": "s",
    "bijection.enumerate_all.self_s": "s",
    "bijection.compose.calls": "count",
    "bijection.decompose.calls": "count",
    "bijection.compositions": "count",
    "bijection.words_emitted": "count",
    "bijection.useful_ratio": "ratio",
    "model.calls": "count",
    "model.self_s": "s",
    "model.parse_steps.self_s": "s",
    "model.to_steps.self_s": "s",
    "model.validate_colors.calls": "count",
    "model.validate_per_word": "ratio",
    "model.chars_parsed": "count",
    "model.errors": "count",
    "cli.calls": "count",
    "cli.self_s": "s",
    "cli.bytes_out": "bytes",
    "cli.nonzero_exits": "count",
    "trace.overhead_ratio": "ratio",
    "trace.absent": "count",
}

# Metrics an optimisation should raise; every other one should fall.
HIGHER_IS_BETTER = {"bijection.useful_ratio", "bijection.words_emitted"}

# Public functions a per-function metric names; if one of them is no
# longer in its module's __all__, the metric reads 0 and is reported
# absent.
NAMED_FUNCTIONS = (
    "bell.partial_bell_sum",
    "bell.partitions_into_parts",
    "counting.count_bell",
    "counting.peak_table",
    "counting.count_recurrence",
    "bijection.enumerate_all",
    "bijection.compose",
    "bijection.decompose",
    "bijection.weak_compositions",
    "model.parse_steps",
    "model.to_steps",
    "model.validate_colors",
)


def _max_bits(result) -> int:
    """Bit length of the largest integer in a result: an int, a tuple
    or list of ints, a CountSeries (``values``) or a PeakTable (``row``)."""
    if isinstance(result, int):
        return abs(result).bit_length()
    seq = result if isinstance(result, (tuple, list)) else getattr(
        result, "values", getattr(result, "row", None))
    if isinstance(seq, (tuple, list)) and seq and all(isinstance(v, int) for v in seq):
        return max(abs(v).bit_length() for v in seq)
    return 0


class Tracer:
    """Wraps the package's public functions and records what they do.

    Recording happens only while ``active`` is true; the wrappers cost
    one attribute test otherwise.
    """

    def __init__(self):
        self.active = False
        self.op = -1
        self.spans: list = []
        self._stack: list = []  # (span id, layer) of the open spans
        self.items = Counter()  # generator key -> items yielded
        self.max_bits = Counter()  # layer -> largest integer result
        self.values = 0  # terms returned by count routes
        self.words_emitted = 0
        self.chars_parsed = 0
        self.errors = Counter()  # layer -> exceptions leaving the layer
        self.bytes_out = 0
        self.nonzero_exits = 0
        self.wrapped: set[str] = set()
        self._patches: list = []  # (module, attribute, original, wrapper)

    # -- installation ---------------------------------------------------

    def install(self):
        """Put the wrappers in place; the first call builds them."""
        if not self._patches:
            self._patches = list(self._find_patches())
        for m, attr, _, wrapper in self._patches:
            setattr(m, attr, wrapper)
        return self

    def uninstall(self):
        """Put the original functions back."""
        for m, attr, fn, _ in self._patches:
            setattr(m, attr, fn)

    def _find_patches(self):
        prefix = PACKAGE + "."
        for layer in LAYERS:
            importlib.import_module(prefix + layer)
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(prefix))
        ]
        for layer in LAYERS:
            mod = sys.modules[prefix + layer]
            for name in getattr(mod, "__all__", ()):
                fn = getattr(mod, name, None)
                if not inspect.isfunction(fn):
                    continue
                make = self._item_counter if inspect.isgeneratorfunction(fn) else self._span
                wrapper = make(layer, name, fn)
                self.wrapped.add(f"{layer}.{name}")
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            yield m, attr, fn, wrapper

    # -- wrappers -------------------------------------------------------

    def _span(self, layer, name, fn):
        key = f"{layer}.{name}"
        bits = layer in ("bell", "counting")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if key == "model.parse_steps" and args:
                self.chars_parsed += len(args[0])
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else (-1, None)
            self.spans.append(None)
            self._stack.append((sid, layer))
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if parent[1] != layer:
                    self.errors[layer] += 1
                raise
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[sid] = (key, layer, start, end, parent[0], self.op)
            if bits:
                self.max_bits[layer] = max(self.max_bits[layer], _max_bits(result))
                values = getattr(result, "values", None)  # a CountSeries
                if isinstance(values, tuple):
                    self.values += len(values)
            if key == "bijection.enumerate_all":
                self.words_emitted += len(result)
            return result

        return wrapper

    def _item_counter(self, layer, name, fn):
        key = f"{layer}.{name}"
        depth = [0]  # > 0 while an outer counted generator is producing

        def counted(gen):
            while True:
                depth[0] += 1
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    depth[0] -= 1
                self.items[key] += 1
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            if not self.active or depth[0]:
                return gen
            return counted(gen)

        return wrapper

    # -- results --------------------------------------------------------

    def note_cli(self, nbytes: int, code: int):
        """Record one CLI call's output size and exit code."""
        self.bytes_out += nbytes
        self.nonzero_exits += code != 0

    def absent(self) -> list[str]:
        return [k for k in NAMED_FUNCTIONS if k not in self.wrapped]

    def metrics(self, traced_wall: float, untraced_wall: float) -> dict:
        """The per-layer metrics of everything recorded since the last
        reset, keyed as in PER_LAYER."""
        spans = [s for s in self.spans if s is not None]
        child = [0.0] * len(self.spans)
        for key, layer, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        calls, self_s = Counter(), Counter()
        for sid, span in enumerate(self.spans):
            if span is None:
                continue
            key, layer, start, end = span[:4]
            own = end - start - child[sid]
            for k in (key, layer):
                calls[k] += 1
                self_s[k] += own
        words = calls["model.parse_steps"] + self.words_emitted
        compose = calls["bijection.compose"]
        m = {f"{layer}.calls": calls[layer] for layer in LAYERS}
        m.update({f"{layer}.self_s": self_s[layer] for layer in LAYERS})
        m.update({
            "bell.partial_bell_sum.calls": calls["bell.partial_bell_sum"],
            "bell.partitions": self.items["bell.partitions_into_parts"],
            "bell.max_bits": self.max_bits["bell"],
            "counting.count_bell.self_s": self_s["counting.count_bell"],
            "counting.peak_table.self_s": self_s["counting.peak_table"],
            "counting.count_recurrence.self_s": self_s["counting.count_recurrence"],
            "counting.values": self.values,
            "counting.max_bits": self.max_bits["counting"],
            "bijection.enumerate_all.self_s": self_s["bijection.enumerate_all"],
            "bijection.compose.calls": compose,
            "bijection.decompose.calls": calls["bijection.decompose"],
            "bijection.compositions": self.items["bijection.weak_compositions"],
            "bijection.words_emitted": self.words_emitted,
            "bijection.useful_ratio": self.words_emitted / compose if compose else 0.0,
            "model.parse_steps.self_s": self_s["model.parse_steps"],
            "model.to_steps.self_s": self_s["model.to_steps"],
            "model.validate_colors.calls": calls["model.validate_colors"],
            "model.validate_per_word": calls["model.validate_colors"] / words if words else 0.0,
            "model.chars_parsed": self.chars_parsed,
            "model.errors": self.errors["model"],
            "cli.bytes_out": self.bytes_out,
            "cli.nonzero_exits": self.nonzero_exits,
            "trace.overhead_ratio": traced_wall / untraced_wall,
            "trace.absent": len(self.absent()),
        })
        return {name: m[name] for name in PER_LAYER}

    def write(self, path, header: dict):
        """Write the header and one JSON array per span to `path`;
        times are seconds from the first span's start."""
        spans = [s for s in self.spans if s is not None]
        t0 = spans[0][2] if spans else 0.0
        with open(path, "w") as fh:
            fh.write(json.dumps({**header, "absent": self.absent(),
                                 "fields": ["name", "layer", "start", "end", "parent", "op"]}))
            fh.write("\n")
            for name, layer, start, end, parent, op in spans:
                fh.write(f'["{name}","{layer}",{start - t0:.7f},{end - t0:.7f},{parent},{op}]\n')
