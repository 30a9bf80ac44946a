"""Foundations: Bernoulli numbers, divisor sums, binomials."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qjforms import bernoulli, binomial, sigma


def bernoulli_worpitzky(n: int) -> Fraction:
    # Independent oracle: B_n = sum_k 1/(k+1) sum_j (-1)^j C(k,j) j^n.
    total = Fraction(0)
    for k in range(n + 1):
        inner = 0
        for j in range(k + 1):
            inner += (-1) ** j * binomial(k, j) * j**n
        total += Fraction(inner, k + 1)
    return total


def pascal_row(n: int) -> list[int]:
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row


class TestBernoulli:
    def test_first_values(self):
        assert bernoulli(0) == 1
        assert bernoulli(1) == Fraction(-1, 2)
        assert bernoulli(2) == Fraction(1, 6)
        assert bernoulli(12) == Fraction(-691, 2730)

    def test_against_worpitzky_oracle(self):
        for n in range(21):
            assert bernoulli(n) == bernoulli_worpitzky(n), n

    @pytest.mark.parametrize("n", range(3, 31, 2))
    def test_odd_vanish(self, n):
        assert bernoulli(n) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bernoulli(-1)


class TestSigma:
    def test_examples(self):
        assert sigma(2, 1) == 1
        assert sigma(2, 6) == 1 + 2 + 3 + 6
        assert sigma(4, 6) == 1 + 8 + 27 + 216

    def test_against_divisor_loop(self):
        for k in (2, 4, 6):
            for n in range(1, 300):
                assert sigma(k, n) == sum(d ** (k - 1) for d in range(1, n + 1) if n % d == 0)

    @given(
        st.integers(min_value=2, max_value=8),
        st.integers(min_value=1, max_value=150),
        st.integers(min_value=1, max_value=150),
    )
    def test_multiplicative_on_coprime(self, k, m, n):
        from math import gcd

        if gcd(m, n) == 1:
            assert sigma(k, m * n) == sigma(k, m) * sigma(k, n)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            sigma(2, 0)


class TestBinomial:
    def test_examples(self):
        assert binomial(5, 2) == 10
        assert binomial(5, -1) == 0
        assert binomial(5, 6) == 0
        assert binomial(40, 20) == 137846528820

    def test_against_pascal(self):
        for n in range(41):
            row = pascal_row(n)
            for k in range(n + 1):
                assert binomial(n, k) == row[k]

    @given(st.integers(min_value=0, max_value=200), st.integers(min_value=-5, max_value=205))
    def test_symmetry(self, n, k):
        if 0 <= k <= n:
            assert binomial(n, k) == binomial(n, n - k)
        else:
            assert binomial(n, k) == 0


class TestCaches:
    # bench/worker.py::_cache_stats reads cache_info() of these three in every
    # run mode to report their hit ratios, so each must stay an lru_cache.
    @pytest.mark.parametrize("fn", [binomial, bernoulli, sigma])
    def test_exposes_cache_info(self, fn):
        info = fn.cache_info()
        assert info.hits >= 0 and info.misses >= 0 and info.currsize >= 0
