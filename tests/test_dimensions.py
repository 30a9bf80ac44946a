"""Dimension formulas, recurrences, and counting oracles."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qjforms import dimensions
from qjforms import (
    DimFamily,
    FAMILY_WEIGHTS,
    alcuin,
    dim_brute,
    dim_closed,
    modular_dim,
    nearest_int,
    series_coefficients,
)


def naive_count(weights: tuple[int, ...], k: int) -> int:
    # Independent oracle: plain nested enumeration of exponent vectors, one
    # exponent at a time, cut off once the partial weight passes k.
    def count(i: int, partial: int) -> int:
        if i == len(weights):
            return int(partial == k)
        w = weights[i]
        return sum(count(i + 1, partial + w * x) for x in range((k - partial) // w + 1))

    return count(0, 0)


class TestModularDim:
    def test_examples(self):
        assert modular_dim(0) == 1
        assert modular_dim(14) == 1
        assert modular_dim(-8) == 0

    def test_classical_values(self):
        # weights 0..22: 1,0,1,1,1,1,2,1,2,2,2,2,3 at even weights 0,2,..,22
        evens = [modular_dim(j) for j in range(0, 24, 2)]
        assert evens == [1, 0, 1, 1, 1, 1, 2, 1, 2, 2, 2, 2]

    @given(st.integers(min_value=-300, max_value=300))
    def test_shift_by_twelve(self, j):
        assert modular_dim(j + 12) == modular_dim(j) + 1


class TestNearestInt:
    def test_examples(self):
        assert nearest_int(Fraction(5, 2)) == 2
        assert nearest_int(Fraction(7, 3)) == 2
        assert nearest_int(Fraction(-1, 2)) == -1

    @given(st.integers(min_value=-500, max_value=500))
    def test_half_convention(self, n):
        assert nearest_int(Fraction(2 * n + 1, 2)) == n

    @given(st.fractions(min_value=-100, max_value=100))
    def test_within_half(self, x):
        assert abs(nearest_int(x) - x) <= Fraction(1, 2)


class TestDimClosed:
    def test_table(self):
        values = [dim_closed(DimFamily.DS, k) for k in (0, 1, 2, 4, 6, 8, 10, 12)]
        assert values == [1, 0, 1, 2, 3, 4, 5, 7]

    def test_examples(self):
        assert dim_closed(DimFamily.DS, 1) == 0
        assert dim_closed(DimFamily.DS, 13) == 5
        assert dim_closed(DimFamily.DSINF, 0) == 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            dim_closed(DimFamily.DS, -1)

    def test_three_routes_agree_to_5000(self):
        # Closed form = dynamic programming = series division, every family.
        for fam in DimFamily:
            coeffs = series_coefficients(fam, 5000)
            assert [dim_closed(fam, k) for k in range(5001)] == [dim_brute(fam, k) for k in range(5001)] == coeffs, fam

    def test_non_integer_value_raises(self, monkeypatch):
        # Doubling the denominator halves every value.
        den, slices = dimensions._RESIDUES[DimFamily.DS]
        monkeypatch.setitem(dimensions._RESIDUES, DimFamily.DS, (2 * den, slices))
        with pytest.raises(ArithmeticError):
            dim_closed(DimFamily.DS, 13)  # 5, odd, so half of it is not an integer


class TestDimBrute:
    def test_examples(self):
        assert dim_brute(DimFamily.DS, 6) == 3
        assert dim_brute(DimFamily.DS0INF, 1) == 1
        for fam in DimFamily:
            assert dim_brute(fam, 0) == 1

    def test_against_naive_enumeration(self):
        for fam, weights in FAMILY_WEIGHTS.items():
            for k in range(31):
                assert dim_brute(fam, k) == naive_count(weights, k), (fam, k)

    def test_ascending_sweep_matches_closed_form(self, monkeypatch):
        # From empty tables, so the sweep grows each table from scratch.
        monkeypatch.setattr(dimensions, "_brute_tables", {})
        for fam in DimFamily:
            assert [dim_brute(fam, k) for k in range(2001)] == [dim_closed(fam, k) for k in range(2001)], fam


class TestSeriesCoefficients:
    def test_frozen_ds_row(self):
        assert series_coefficients(DimFamily.DS, 12) == [1, 0, 1, 1, 2, 1, 3, 2, 4, 3, 5, 4, 7]

    def test_degenerate(self):
        assert series_coefficients(DimFamily.DS, 0) == [1]

    def test_triangle_medium(self):
        for fam in DimFamily:
            coeffs = series_coefficients(fam, 400)
            for k in range(401):
                assert dim_closed(fam, k) == dim_brute(fam, k) == coeffs[k]


class TestAlcuin:
    def test_examples(self):
        assert alcuin(3) == 1
        assert alcuin(15) == 7
        assert alcuin(0) == 0

    def test_triangle_counts(self):
        # Direct enumeration of integer triangles with perimeter n.
        def triangles(n):
            count = 0
            for a in range(1, n + 1):
                for b in range(a, n + 1):
                    c = n - a - b
                    if c >= b and a + b > c:
                        count += 1
            return count

        for n in range(1, 40):
            assert alcuin(n) == triangles(n), n


class TestRecurrences:
    def test_even_odd_and_shift(self):
        for k in range(120):
            assert dim_closed(DimFamily.DS, 2 * k + 3) == dim_closed(DimFamily.DS, 2 * k)
            assert dim_closed(DimFamily.DS, 2 * k + 13) == dim_closed(DimFamily.DS, 2 * k + 1) + k + 5

    def test_alcuin_shift(self):
        for k in range(120):
            assert dim_closed(DimFamily.DS, k) == alcuin(k + 3)

    def test_sum_over_modular_dims(self):
        for k in range(120):
            assert dim_closed(DimFamily.DS, k) == sum(
                modular_dim(2 * k - 8 * c) for c in range(k // 4 + 1)
            )

    def test_compact_quasi_polynomial(self):
        for k in range(120):
            body = k**3 + 15 * k**2 + (72 * k + 144 if k % 2 == 0 else 63 * k + 65)
            assert dim_closed(DimFamily.DS0INF, k) == nearest_int(Fraction(body, 144))
