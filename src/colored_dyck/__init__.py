"""Exact counting, generation, and decomposition of colored Dyck paths."""

from .bell import binomial, catalan
from .bijection import (
    DecompositionTuple,
    compose,
    decompose,
    enumerate_all,
    weak_compositions,
)
from .counting import (
    CountSeries,
    PeakTable,
    convolution_power_closed,
    count_bell,
    count_recurrence,
    peak_table,
)
from .model import (
    DOWN,
    ColoredDyckWord,
    ColorSequence,
    DownStep,
    PathParams,
    Rise,
    parse_steps,
    peaks,
    semilength,
    to_steps,
    validate_colors,
)
from . import errors, sequences

__version__ = "0.1.0"
