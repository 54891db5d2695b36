import re
from fractions import Fraction
from math import comb

import pytest

from colored_dyck import (
    ColorSequence,
    PathParams,
    catalan,
    count_bell,
    peak_table,
)
from colored_dyck import oracles, sequences
from colored_dyck.bell import binomial, exact_div
from colored_dyck.errors import InvalidIndex, ResourceLimit
from colored_dyck.oracles import (
    duchon_alt_first,
    duchon_alt_mid,
    factor_free_count,
    is_slope32_word,
    rational_dyck_count,
    rational_dyck_words,
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
from conftest import HUGE, HUGE_TEXT, needs_int_digit_limit, package_imports


# Reference forms: each closed form summed term by term as its formula
# is written, with Fraction terms where a term need not be an integer.
# The integer sums in colored_dyck.sequences must equal them.


def motzkin_colored_reference(c1, c2, n):
    return sum(
        comb(n, 2 * k) * catalan(k) * c1 ** (n - 2 * k) * c2**k
        for k in range(n // 2 + 1)
    )


def a052709_reference(n):
    total = Fraction(0)
    for k in range((n + 1) // 2, n + 1):
        total += Fraction(binomial(2 * k, k - 1) * binomial(k, n - k), k)
    return exact_div(total.numerator, total.denominator, "a052709")


def a186997_reference(n):
    total = Fraction(0)
    for k in range((n + 1) // 2, n + 1):
        total += Fraction(binomial(n + 2 * k, k - 1) * binomial(k, n - k), k)
    return exact_div(total.numerator, total.denominator, "a186997")


def duchon_d_reference(n):
    total = Fraction(0)
    for j in range(n + 1):
        total += Fraction(
            comb(5 * n + 1, n - j) * comb(5 * n + 2 * j, j), 5 * n + j + 1
        )
    return exact_div(total.numerator, total.denominator, "duchon_d")


def duchon_alt_reference(n):
    total = Fraction(0)
    for k in range(1, n + 1):
        for j in range(k + 1):
            total += (
                comb(5 * n, k - 1)
                * Fraction((-1) ** j, n)
                * (binomial(k - 1, j) - binomial(k - 1, j - 1))
                * binomial(2 * n + k - 2 * j - 1, n - 1)
            )
    return exact_div(total.numerator, total.denominator, "duchon_alt")


class TestIntegerSums:
    # Each walk is checked through the top index the bfile benchmark
    # reads (a052709 300, a186997 250, duchon_d 100, motzkin 400) or
    # past it.
    @pytest.mark.parametrize(
        "form, reference, top",
        [
            (a052709_closed, a052709_reference, 300),
            (a186997_closed, a186997_reference, 250),
            (duchon_d, duchon_d_reference, 150),
            (duchon_alt, duchon_alt_reference, 100),
        ],
        ids=["a052709", "a186997", "duchon_d", "duchon_alt"],
    )
    def test_equal_to_fraction_sum(self, form, reference, top):
        for n in range(1, top + 1):
            assert form(n) == reference(n), n

    @pytest.mark.parametrize("c1", range(4))
    @pytest.mark.parametrize("c2", range(4))
    def test_motzkin_equal_to_term_sum(self, c1, c2):
        for n in range(151):
            assert motzkin_colored(c1, c2, n) == motzkin_colored_reference(
                c1, c2, n
            ), n

    def test_motzkin_unit_colors_to_400(self):
        for n in range(151, 401):
            assert motzkin_colored(1, 1, n) == motzkin_colored_reference(1, 1, n), n

    @pytest.mark.parametrize("a, b", [(1, 2), (0, 2)], ids=["a186997", "a052709"])
    def test_walked_term_is_the_peak_count(self, a, b):
        # The a186997 and a052709 walks sum the terms
        # (1/k) * C(a*n + b*k, k-1) * C(k, n-k) as integers: each is the
        # Bell term of the words of index n with k peaks at (a, b),
        # c = (1, 1), where P_{k,n} = C(k, n-k).
        colors = ColorSequence.explicit((1, 1))
        for n in range(1, 41):
            table = peak_table(PathParams(a, b), colors, n)
            for k in range(1, n + 1):
                term = Fraction(comb(a * n + b * k, k - 1) * comb(k, n - k), k)
                assert term == table[k], (n, k)


class TestNarayana:
    def test_single_peak(self):
        for n in range(1, 10):
            assert narayana(n, 1) == 1

    def test_small_value(self):
        assert narayana(3, 2) == 3

    def test_matches_peak_table(self):
        params, colors = PathParams(1, 0), ColorSequence.ones()
        for n in range(1, 11):
            table = peak_table(params, colors, n)
            for k in range(1, n + 1):
                assert table[k] == narayana(n, k)

    def test_invalid_index(self):
        with pytest.raises(InvalidIndex, match=r"^need 1 <= k <= n, got n=3, k=4$"):
            narayana(3, 4)

    @needs_int_digit_limit
    def test_huge_invalid_index(self):
        message = f"need 1 <= k <= n, got n={HUGE_TEXT}, k=0"
        with pytest.raises(InvalidIndex, match=f"^{re.escape(message)}$"):
            narayana(HUGE, 0)


class TestMotzkin:
    def test_unit_colors_are_motzkin_numbers(self):
        got = [motzkin_colored(1, 1, n) for n in range(6)]
        assert got == [1, 1, 2, 4, 9, 21]

    def test_empty_path(self):
        assert motzkin_colored(5, 7, 0) == 1

    def test_hand_value(self):
        assert motzkin_colored(2, 1, 2) == 5

    def test_matches_colored_count(self):
        for c1, c2 in [(1, 1), (2, 1), (2, 3), (0, 1)]:
            series = count_bell(
                PathParams(1, 0), ColorSequence.explicit((c1, c2)), 10
            )
            for n in range(11):
                assert series[n] == motzkin_colored(c1, c2, n)

    def test_matches_motzkin_path_dp(self):
        steps = {(1, 1), (1, -1), (1, 0)}
        for n in range(11):
            assert motzkin_colored(1, 1, n) == step_lattice_count(steps, n)

    def test_recurrence(self):
        m = [motzkin_colored(1, 1, n) for n in range(16)]
        for n in range(2, 16):
            assert m[n] == m[n - 1] + sum(
                m[i] * m[n - 2 - i] for i in range(n - 1)
            )


class TestSchroeder:
    def test_small_values(self):
        assert [schroeder_little(n) for n in (1, 2, 3)] == [1, 3, 11]

    def test_matches_colored_count(self):
        series = count_bell(PathParams(1, 0), ColorSequence.powers_of_two(), 10)
        for n in range(1, 11):
            assert series[n] == schroeder_little(n)

    def test_matches_narayana_sum(self):
        # the walked form against its definition, one narayana per term
        for n in range(1, 201):
            assert schroeder_little(n) == sum(
                narayana(n, k) * 2 ** (n - k) for k in range(1, n + 1)
            )


class TestFussCatalan:
    def test_index_zero(self):
        for m in range(1, 5):
            assert fuss_catalan(m, 0) == 1

    def test_reduces_to_catalan(self):
        for n in range(16):
            assert fuss_catalan(1, n) == catalan(n)

    def test_small_ternary(self):
        assert fuss_catalan(2, 2) == 3

    def test_matches_colored_count(self):
        for m in range(1, 5):
            series = count_bell(PathParams(m, 0), ColorSequence.ones(), 10)
            for n in range(11):
                assert series[n] == fuss_catalan(m, n)

    def test_peak_refinement(self):
        for m in range(1, 5):
            for n in range(1, 9):
                table = peak_table(PathParams(m, 0), ColorSequence.ones(), n)
                for k in range(1, n + 1):
                    assert table[k] == fuss_catalan_peaks(m, n, k)

    def test_peaks_invalid_index(self):
        with pytest.raises(InvalidIndex, match=r"^need 1 <= k <= n, got n=2, k=3$"):
            fuss_catalan_peaks(2, 2, 3)

    @needs_int_digit_limit
    def test_peaks_huge_invalid_index(self):
        message = f"need 1 <= k <= n, got n=2, k={HUGE_TEXT}"
        with pytest.raises(InvalidIndex, match=f"^{re.escape(message)}$"):
            fuss_catalan_peaks(2, 2, HUGE)


class TestLowSlopeFamilies:
    def test_a052709_small(self):
        assert a052709_closed(1) == 1
        assert a052709_closed(2) == 3

    def test_a052709_matches_colored_count(self):
        series = count_bell(PathParams(0, 2), ColorSequence.explicit((1, 1)), 10)
        for n in range(1, 11):
            assert series[n] == a052709_closed(n)

    def test_a052709_matches_lattice_dp(self):
        steps = {(1, 1), (1, -1), (3, 1)}
        for n in range(1, 5):
            assert a052709_closed(n) == step_lattice_count(steps, 2 * n)

    def test_a186997_small(self):
        assert a186997_closed(1) == 1

    def test_a186997_matches_colored_count(self):
        series = count_bell(PathParams(1, 2), ColorSequence.explicit((1, 1)), 10)
        for n in range(1, 11):
            assert series[n] == a186997_closed(n)

    def test_a186997_matches_lattice_dp(self):
        steps = {(1, 2), (1, -1), (3, 3)}
        for n in range(1, 5):
            assert a186997_closed(n) == step_lattice_count(steps, 3 * n)


class TestStepLattice:
    def test_dyck_steps_give_catalan(self):
        steps = {(1, 1), (1, -1)}
        for n in range(8):
            assert step_lattice_count(steps, 2 * n) == catalan(n)

    def test_empty_path(self):
        assert step_lattice_count({(2, 1), (1, -1)}, 0) == 1

    def test_a052709_example(self):
        assert step_lattice_count({(1, 1), (1, -1), (3, 1)}, 4) == 3


class TestDuchon:
    def test_first_value(self):
        assert duchon_d(1) == 2

    def test_formula_chain_agrees(self):
        for n in range(1, 9):
            d = duchon_d(n)
            assert duchon_alt_first(n) == d
            assert duchon_alt_mid(n) == d
            assert duchon_alt(n) == d

    def test_matches_colored_count(self):
        series = count_bell(PathParams(5, 0), ColorSequence.catalan_pair_sum(), 8)
        for n in range(1, 9):
            assert series[n] == duchon_d(n)

    def test_matches_rational_path_dp(self):
        for n in range(1, 5):
            assert rational_dyck_count(n) == duchon_d(n)

    def test_reference_word_accepted(self):
        # pins the side convention of the slope-3/2 language
        assert is_slope32_word("ababbaabbb")
        assert "ababbaabbb" in rational_dyck_words(2)

    def test_word_enumeration_matches_dp(self):
        for n in range(1, 4):
            words = rational_dyck_words(n)
            assert len(words) == rational_dyck_count(n)
            assert len(set(words)) == len(words)

    def test_factor_free(self):
        for n in range(1, 4):
            assert factor_free_count(n) == catalan(n - 1) + catalan(n)

    def test_word_cap(self, monkeypatch):
        monkeypatch.setattr(oracles, "_WORD_CAP", rational_dyck_count(2) - 1)
        with pytest.raises(ResourceLimit):
            rational_dyck_words(2)
        with pytest.raises(ResourceLimit):
            factor_free_count(2)
        assert len(rational_dyck_words(1)) == rational_dyck_count(1)

    def test_non_members_rejected(self):
        assert not is_slope32_word("")
        assert not is_slope32_word("babba")  # north first crosses the line
        assert not is_slope32_word("aabab")  # wrong letter counts


def test_sequences_imports_only_bell_and_errors_from_the_package():
    # The closed forms stand apart from the colored model they are
    # checked against: nothing from model or counting.  Their index
    # checks, _need_index and _need_peaks, are bell's.
    assert package_imports(sequences) == {".bell"}
