"""Self-tests of the benchmark: the workload x layer matrix, counters
against analytic values, seeded inputs and the tracer's bookkeeping.

    python3 -m pytest perfbench -q

They sit outside the package's tier-1 ``testpaths``; one traced pass
of every workload takes about a minute.
"""

import hashlib
import json
from pathlib import Path

import pytest

import hostref
import workloads as W
from run import END_TO_END, Timing, _tally, traced_pass
from tracer import HIGHER_IS_BETTER, PER_LAYER, Tracer

# Metric -> workloads on which it must read exactly 0 (the layer is
# never entered there).  bell.calls is not zero on bfile: the
# sequences closed forms call bell.binomial and bell.catalan, which
# test_bfile_bell_calls_come_from_sequences pins down instead.
BELL = ["bell.calls", "bell.self_s", "bell.max_bits"]
BELL_ROUTE = ["bell.partial_bell_sum.calls", "bell.partitions"]
COUNTING = [
    "counting.calls", "counting.self_s", "counting.count_bell.self_s",
    "counting.peak_table.self_s", "counting.count_recurrence.self_s",
    "counting.values", "counting.max_bits",
]
SEQUENCES = ["sequences.calls", "sequences.self_s"]
BIJECTION = [
    "bijection.calls", "bijection.self_s", "bijection.enumerate_all.self_s",
    "bijection.compose.calls", "bijection.decompose.calls",
    "bijection.compositions", "bijection.words_emitted", "bijection.useful_ratio",
]
MODEL = [
    "model.calls", "model.self_s", "model.parse_steps.self_s", "model.to_steps.self_s",
    "model.validate_colors.calls", "model.validate_per_word", "model.chars_parsed",
    "model.errors",
]
CLI = ["cli.calls", "cli.self_s", "cli.bytes_out", "cli.nonzero_exits"]

ZERO = {
    "series": BIJECTION + MODEL,
    "bfile": BELL_ROUTE + BIJECTION + MODEL + CLI,
    "enumerate": BELL + BELL_ROUTE + COUNTING + SEQUENCES,
    "words": BELL + BELL_ROUTE + COUNTING + SEQUENCES,
}

# Metric -> the workload that must exercise it (read > 0).
ACTIVE = {
    "series": BELL + BELL_ROUTE + ["counting.calls", "counting.count_bell.self_s",
                                   "counting.peak_table.self_s", "counting.values"],
    "bfile": ["counting.count_recurrence.self_s", "counting.values",
              "sequences.calls", "sequences.self_s"],
    "enumerate": ["bijection.enumerate_all.self_s", "bijection.compose.calls",
                  "bijection.words_emitted", "bijection.useful_ratio",
                  "model.to_steps.self_s", "cli.bytes_out"],
    "words": ["bijection.decompose.calls", "model.parse_steps.self_s", "model.chars_parsed",
              "model.errors", "model.validate_per_word", "cli.nonzero_exits"],
}


@pytest.fixture(scope="module")
def traced():
    """workload -> (ops, tracer, metrics, timings) of one traced pass, seed 1."""
    out = {}
    for workload in W.WORKLOADS:
        ops = W.build(workload, 1)
        tracer = Tracer()
        timings, plain, traced_s = traced_pass(ops, tracer)
        out[workload] = (ops, tracer, tracer.metrics(traced_s, plain), timings)
    return out


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_zero_cells(traced, workload):
    metrics = traced[workload][2]
    assert {m: metrics[m] for m in ZERO[workload] if metrics[m] != 0} == {}


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_workload_exercises_its_layers(traced, workload):
    metrics = traced[workload][2]
    assert [m for m in ACTIVE[workload] if not metrics[m] > 0] == []


def test_bfile_bell_calls_come_from_sequences(traced):
    spans = [s for s in traced["bfile"][1].spans if s is not None]
    parents = {spans[s[4]][1] for s in spans if s[1] == "bell"}
    assert traced["bfile"][2]["bell.calls"] > 0
    assert parents == {"sequences"}


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_only_contract_probes_fail(traced, workload):
    ops, _, _, timings = traced[workload]
    assert [(ops[i].name, t.failure) for i, t in timings if t.failure and not ops[i].probe] == []


def test_words_emitted_equals_counts(traced):
    # Counted by the recurrence route, independently of enumerate_all.
    assert traced["enumerate"][2]["bijection.words_emitted"] == sum(W.enumerate_expected_counts())


def _partitions(n, k):
    """p(n, k), partitions of n into exactly k parts, by the benchmark's own DP."""
    table = [[0] * (k + 1) for _ in range(n + 1)]
    table[0][0] = 1
    for m in range(1, n + 1):
        for q in range(1, min(m, k) + 1):
            table[m][q] = table[m - 1][q - 1] + table[m - q][q]
    return table[n][k]


def _series_ops():
    """(subcommand, N) of each series op."""
    for argv in W.series_argvs():
        yield argv[0], argv[1], argv[argv.index("--N") + 1]


def test_bell_partitions_match_dp(traced):
    def bell_route(N):  # count_bell(N) evaluates B_{n,k} for 1 <= k <= n <= N
        return sum(_partitions(n, k) for n in range(1, N + 1) for k in range(1, n + 1))

    expected = 0
    for cmd, name, N in _series_ops():
        if cmd == "preset" and name == "narayana":  # peak_table(20): one row
            expected += sum(_partitions(N, k) for k in range(1, N + 1))
        else:
            expected += bell_route(N)
    assert traced["series"][2]["bell.partitions"] == expected


def test_counting_values(traced):
    # N+1 terms per route call: count runs both routes, a preset one
    # (narayana's peak_table returns a row, not a series).
    series = sum(2 * (N + 1) if cmd == "count" else (0 if name == "narayana" else N + 1)
                 for cmd, name, N in _series_ops())
    assert traced["series"][2]["counting.values"] == series
    bfile = sum(case[4] + 1 for case in W.bfile_cases())
    assert traced["bfile"][2]["counting.values"] == bfile


def test_inputs_depend_only_on_seed():
    texts = lambda seed: [w.text for w in W.generate_words(seed)]  # noqa: E731
    assert texts(7) == texts(7)
    assert texts(7) != texts(8)
    names = lambda seed: [op.name for op in W.build("enumerate", seed)]  # noqa: E731
    assert names(3) == names(3) and sorted(names(3)) == sorted(names(4))


def test_words_mix():
    words = W.generate_words(1)
    assert len(words) == 200
    assert sum(w.expected_error is not None for w in words) == 20
    assert sum(w.via_cli is not None for w in words) == 50
    m = W._pkg.model
    sizes = [
        len(m.parse_steps(w.text, m.PathParams(w.a, w.b), W._pkg.cli.parse_color_spec(w.spec)))
        for w in words if w.expected_error is None
    ]
    assert W.MIN_BLOCKS <= min(sizes) and max(sizes) <= 3000


def test_absent_span_reads_zero(monkeypatch):
    bell = W._pkg.bell
    monkeypatch.setattr(bell, "__all__", [n for n in bell.__all__ if n != "partial_bell_sum"])
    tracer = Tracer()
    tracer.install()
    tracer.active = True
    try:
        W.run_cli(["count", "--a", "1", "--b", "0", "--N", "5"])
    finally:
        tracer.active = False
        tracer.uninstall()
    metrics = tracer.metrics(1.0, 1.0)
    assert tracer.absent() == ["bell.partial_bell_sum"]
    assert metrics["trace.absent"] == 1
    assert metrics["bell.partial_bell_sum.calls"] == 0
    assert metrics["bell.partitions"] > 0
    assert W._pkg.counting.partial_bell_sum is bell.partial_bell_sum  # put back


def test_generator_counter_counts_outer_items_only():
    tracer = Tracer()
    tracer.install()
    tracer.active = True
    try:
        assert len(list(W._pkg.bijection.weak_compositions(3, 3))) == 10
    finally:
        tracer.active = False
        tracer.uninstall()
    assert tracer.items["bijection.weak_compositions"] == 10


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    tracer.spans = [
        ("counting.count_bell", "counting", 0.0, 10.0, -1, 0),
        ("bell.partial_bell_sum", "bell", 2.0, 5.0, 0, 0),
        ("bell.binomial", "bell", 3.0, 4.0, 1, 0),
        ("bell.binomial", "bell", 6.0, 7.0, 0, 0),
    ]
    m = tracer.metrics(10.0, 8.0)
    assert m["counting.self_s"] == pytest.approx(6.0)
    assert m["counting.count_bell.self_s"] == pytest.approx(6.0)
    assert m["bell.self_s"] == pytest.approx(4.0)
    assert m["bell.calls"] == 3 and m["bell.partial_bell_sum.calls"] == 1
    assert m["trace.overhead_ratio"] == pytest.approx(1.25)


def test_benchmark_json_lists_what_run_reports():
    bench = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in bench["workloads"]} <= set(W.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == PER_LAYER
    for m in bench["per_layer"]:
        assert m["better"] == ("higher" if m["name"] in HIGHER_IS_BETTER else "lower")


def test_sink_digests_without_keeping_text(monkeypatch):
    monkeypatch.setattr(W._Sink, "CHUNK", 7)  # many chunks, lines split across them
    argv = ["enumerate", "--a", "1", "--b", "0", "--n", "4"]
    kept, dropped = W.run_cli(argv), W.run_cli(argv, keep=False)
    assert dropped.out is None and kept.out
    text = kept.out
    assert kept.sha256 == dropped.sha256 == hashlib.sha256(text.encode()).hexdigest()
    assert kept.lines == dropped.lines == text.count("\n") == 14
    assert kept.nbytes == len(text.encode())
    assert list(dropped.line_hashes) == [hash(line) for line in text.splitlines()]


def test_probe_wrong_output_makes_run_incorrect():
    probe = W._probe_op(*W.PROBES[-1])
    timing = lambda failure: Timing(1.0, 1.0, failure, 0.0)  # noqa: E731
    assert _tally([probe], [(0, timing("exit 1; README promises exit 0"))]) == (True, 1, 1)
    assert _tally([probe], [(0, timing(f"{W.WRONG_OUTPUT}: '1'"))]) == (False, 1, 1)


def test_sampler_scales_to_reference_speed():
    sampler = hostref.Sampler()
    ref = hostref.REF_SECONDS
    for k in range(100):  # the loop at half the reference speed
        sampler._tick_at(k * 0.01, 2 * ref)
    # An interval of 0.2 s from 0.305 s holds 20 samples of 2 * ref each.
    lat, first = sampler.scaled(0.305, 0.2, 0.1)
    assert lat == pytest.approx((0.2 - 20 * 2 * ref) / 2)
    assert first == pytest.approx((0.1 - 10 * 2 * ref) / 2)
