"""Acceptance suite: every criterion is exact (integer equality) and
prints one PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -s`
to see the lines."""

from collections import Counter

import pytest

from colored_dyck import (
    ColorSequence,
    PathParams,
    catalan,
    convolution_power_closed,
    count_bell,
    count_recurrence,
    enumerate_all,
    peak_table,
    peaks,
)
from colored_dyck.cli import main
from colored_dyck.errors import NonIntegerTerm
from colored_dyck.oracles import (
    convolution_power_direct,
    duchon_alt_first,
    duchon_alt_mid,
    factor_free_count,
    partial_bell_sum,
    partial_bell_triangle,
    rational_dyck_count,
    step_lattice_count,
)
from colored_dyck.sequences import (
    a052709_closed,
    a186997_closed,
    duchon_alt,
    duchon_d,
    fuss_catalan,
    fuss_catalan_peaks,
    motzkin_colored,
    narayana,
    schroeder_little,
)

from conftest import COLOR_GRID, PARAM_GRID


def report(criterion, ok):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {criterion} failed"


def test_criterion_1_dual_route_equality():
    ok = True
    for params in PARAM_GRID:
        for colors in COLOR_GRID:
            rec = count_recurrence(params, colors, 12)
            bell = count_bell(params, colors, 12)
            ok = ok and rec.values == bell.values
    report("1 (dual-route equality, N=12)", ok)


def _enumeration_points():
    for params in PARAM_GRID:
        for colors in COLOR_GRID:
            for n in range(7 // params.period + 1):
                yield params, colors, n


def test_criterion_2_brute_force_ground_truth():
    ok = True
    for params, colors, n in _enumeration_points():
        words = enumerate_all(params, colors, n)
        # the walk reads count_recurrence's loop; count_bell it does not
        expected = count_recurrence(params, colors, n)[n]
        ok = ok and len(words) == expected == count_bell(params, colors, n)[n]
        ok = ok and len(set(words)) == len(words)
        if n >= 1:
            histogram = Counter(peaks(w) for w in words)
            table = peak_table(params, colors, n)
            ok = ok and table.row == tuple(
                histogram.get(k, 0) for k in range(1, n + 1)
            )
    report("2 (enumeration ground truth, (a+b)n <= 7)", ok)


def test_criterion_3_bijection_round_trip():
    from colored_dyck import DecompositionTuple, compose, decompose

    ok = True
    for params, colors, n in _enumeration_points():
        if n == 0:
            continue
        for w in enumerate_all(params, colors, n):
            t = decompose(w, params, colors)
            ok = ok and compose(t, params, colors) == w
            ok = ok and decompose(compose(t, params, colors), params, colors) == t
    report("3 (bijection round trip)", ok)


def test_criterion_4_convolution_lemma():
    ok = True
    for params in PARAM_GRID:
        for colors in COLOR_GRID:
            series = count_recurrence(params, colors, 8)
            for r in range(1, 9):
                for n in range(1, 9):
                    ok = ok and convolution_power_closed(
                        params, colors, r, n
                    ) == convolution_power_direct(series, r, n)
    report("4 (convolution power closed form, r,n <= 8)", ok)


def test_criterion_5_bell_engine_identities():
    import math
    import random

    ok = True
    rng = random.Random(2024)
    # method agreement on random inputs
    for _ in range(200):
        n = rng.randint(1, 10)
        k = rng.randint(1, n)
        x = tuple(rng.randint(-5, 5) for _ in range(n - k + 1))
        cell = partial_bell_triangle(n, x + (0,) * (k - 1))[n][k]
        ok = ok and partial_bell_sum(n, k, x) == cell

    def bell_or_base(m, q, x):
        if q == 0:
            return 1 if m == 0 else 0
        if q > m:
            return 0
        return partial_bell_sum(m, q, x)

    # the two summation identities behind the telescoping step
    for n in range(1, 9):
        c = [rng.randint(0, 4) for _ in range(n)]
        x = tuple(math.factorial(i) * c[i - 1] for i in range(1, n + 1))
        for k in range(1, n + 1):
            lhs_a = sum(
                7 * n * math.comb(n - 1, ell) * math.factorial(n - ell)
                * c[n - ell - 1] * bell_or_base(ell, k - 1, x)
                for ell in range(k - 1, n)
            )
            lhs_b = sum(
                3 * math.comb(n, ell) * math.factorial(n - ell)
                * c[n - ell - 1] * bell_or_base(ell, k - 1, x)
                for ell in range(k - 1, n)
            )
            bnk = partial_bell_sum(n, k, x)
            ok = ok and lhs_a == 7 * n * bnk
            ok = ok and lhs_b == 3 * k * bnk

    # closed form at factorial arguments
    for n in range(1, 9):
        x = tuple(math.factorial(i) for i in range(1, n + 1))
        for k in range(1, n + 1):
            expected = (
                math.factorial(n) // math.factorial(k) * math.comb(n - 1, k - 1)
            )
            ok = ok and partial_bell_sum(n, k, x) == expected
    report("5 (Bell engine identities)", ok)


def test_criterion_6_example_families():
    ok = True
    narayana_table = {
        n: peak_table(PathParams(1, 0), ColorSequence.ones(), n)
        for n in range(1, 11)
    }
    for n in range(1, 11):
        for k in range(1, n + 1):
            ok = ok and narayana_table[n][k] == narayana(n, k)

    motzkin_series = count_bell(
        PathParams(1, 0), ColorSequence.explicit((1, 1)), 10
    )
    motzkin_dp = [
        step_lattice_count({(1, 1), (1, -1), (1, 0)}, n) for n in range(11)
    ]
    expected_motzkin = [1, 1, 2, 4, 9, 21]
    for n in range(11):
        ok = ok and motzkin_series[n] == motzkin_colored(1, 1, n)
        ok = ok and motzkin_colored(1, 1, n) == motzkin_dp[n]
        if n < len(expected_motzkin):
            ok = ok and motzkin_dp[n] == expected_motzkin[n]
    for c1, c2 in [(2, 1), (3, 2)]:
        series = count_bell(
            PathParams(1, 0), ColorSequence.explicit((c1, c2)), 10
        )
        for n in range(11):
            ok = ok and series[n] == motzkin_colored(c1, c2, n)

    schroeder_series = count_bell(
        PathParams(1, 0), ColorSequence.powers_of_two(), 10
    )
    for n in range(1, 11):
        ok = ok and schroeder_series[n] == schroeder_little(n)

    for m in range(1, 5):
        series = count_bell(PathParams(m, 0), ColorSequence.ones(), 10)
        for n in range(11):
            ok = ok and series[n] == fuss_catalan(m, n)
        for n in range(1, 9):
            table = peak_table(PathParams(m, 0), ColorSequence.ones(), n)
            for k in range(1, n + 1):
                ok = ok and table[k] == fuss_catalan_peaks(m, n, k)

    low1 = count_bell(PathParams(0, 2), ColorSequence.explicit((1, 1)), 10)
    low2 = count_bell(PathParams(1, 2), ColorSequence.explicit((1, 1)), 10)
    for n in range(1, 11):
        ok = ok and low1[n] == a052709_closed(n)
        ok = ok and low2[n] == a186997_closed(n)
    for n in range(1, 5):
        ok = ok and a052709_closed(n) == step_lattice_count(
            {(1, 1), (1, -1), (3, 1)}, 2 * n
        )
        ok = ok and a186997_closed(n) == step_lattice_count(
            {(1, 2), (1, -1), (3, 3)}, 3 * n
        )
    report("6 (section-4 family reproduction)", ok)


def test_criterion_7_duchon_chain():
    ok = True
    colored = count_bell(PathParams(5, 0), ColorSequence.catalan_pair_sum(), 8)
    for n in range(1, 9):
        d = duchon_d(n)
        ok = ok and duchon_alt_first(n) == d
        ok = ok and duchon_alt_mid(n) == d
        ok = ok and duchon_alt(n) == d
        ok = ok and colored[n] == d
    for n in range(1, 5):
        ok = ok and rational_dyck_count(n) == duchon_d(n)
    for n in range(1, 4):
        ok = ok and factor_free_count(n) == catalan(n - 1) + catalan(n)
    report("7 (Duchon chain)", ok)


def test_criterion_8_no_integrality_failures():
    # criteria 1-7 exercise every rational-intermediate formula; here we
    # rerun a broad sweep and require that no NonIntegerTerm escapes
    try:
        for params in PARAM_GRID:
            for colors in COLOR_GRID:
                count_bell(params, colors, 12)
                for n in range(1, 9):
                    peak_table(params, colors, n)
                    for r in range(1, 9):
                        convolution_power_closed(params, colors, r, n)
        for n in range(1, 9):
            duchon_d(n)
            duchon_alt_first(n)
            duchon_alt_mid(n)
            duchon_alt(n)
    except NonIntegerTerm:
        report("8 (integrality assertions)", False)
    report("8 (integrality assertions)", True)


def test_criterion_9_cli_determinism(capsys):
    matrix = [
        ["count", "--a", "1", "--b", "0", "--colors", "ones",
         "--N", "8", "--format", "bfile"],
        ["count", "--a", "0", "--b", "2", "--colors", "explicit:1,1",
         "--N", "8", "--format", "jsonl"],
        ["peaks", "--a", "2", "--b", "1", "--colors", "pow2", "--n", "6"],
        ["enumerate", "--a", "1", "--b", "0", "--colors", "catpair",
         "--n", "4", "--format", "plain"],
        ["enumerate", "--a", "0", "--b", "1", "--colors", "const:2",
         "--n", "4", "--format", "jsonl"],
        ["decompose", "--a", "1", "--b", "0", "--colors", "ones",
         "uuddudud"],
        ["validate", "--a", "1", "--b", "0", "--colors", "ones", "uudd"],
        ["preset", "narayana", "--n", "6"],
        ["preset", "motzkin", "--N", "8"],
        ["preset", "schroeder", "--N", "8"],
        ["preset", "mary", "--N", "8", "--m", "3"],
        ["preset", "a052709", "--N", "8"],
        ["preset", "a186997", "--N", "8"],
        ["preset", "duchon", "--N", "5"],
    ]
    ok = True
    for argv in matrix:
        runs = []
        for _ in range(2):
            code = main(list(argv))
            captured = capsys.readouterr()
            runs.append((code, captured.out))
            ok = ok and code == 0
        ok = ok and runs[0] == runs[1]
    with capsys.disabled():
        print()
        report("9 (CLI determinism)", ok)


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-s", "-q"]))
