"""Foundations: Bernoulli numbers, divisor sums, binomials."""

import random
import sys
import threading
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, strategies as st

from qjforms import arith, bernoulli, binomial, sigma


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

    def test_against_laurent_recursion(self):
        # An independent route to |B_k| for even k up to 500: the constant terms
        # ee_k(0) = 2^k |B_k| / k! of the Eisenstein series obey the Laurent
        # recursion of the Weierstrass equation, with c_n = (2n + 1) ee_(2n+2)(0):
        # c_1 = 3 ee_4(0), c_2 = 5 ee_6(0), c_n = 6/(2n(2n-1) - 12) sum c_a c_b.
        c = {1: 3 * Fraction(1, 45), 2: 5 * Fraction(2, 945)}
        for n in range(3, 250):
            c[n] = Fraction(6, 2 * n * (2 * n - 1) - 12) * sum(c[a] * c[n - 1 - a] for a in range(1, n - 1))
        assert c[3] == Fraction(1, 675)
        for n, cn in c.items():
            k = 2 * n + 2
            assert (2 * n + 1) * 2**k * abs(bernoulli(k)) / factorial(k) == cn, k
            assert bernoulli(k) * (-1) ** n > 0, k  # the sign of B_k is (-1)^(k/2 - 1)

    def test_table_is_safe_under_concurrent_growth(self, monkeypatch):
        # Threads grow the table at once, each in its own order.  Each reads only
        # a table it holds, and a table is published whole, so every value
        # matches a sequential run whichever table was published last.
        indices = list(range(0, 201, 2))
        expected = [bernoulli(k) for k in indices]
        orders = [random.Random(i).sample(indices, len(indices)) for i in range(8)]
        results, interval = [], sys.getswitchinterval()

        def worker(order: list[int]) -> None:
            results.extend((k, arith.bernoulli.__wrapped__(k)) for k in order)  # past the lru_cache

        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                monkeypatch.setattr(arith, "_even_bernoulli", [])
                threads = [threading.Thread(target=worker, args=(order,)) for order in orders]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == 20 * len(orders) * len(indices)
        assert all(v == expected[k // 2] for k, v in results)

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

    @pytest.mark.parametrize("k", [0, -1, -5])
    def test_power_below_one_rejected(self, k):
        # d^(k-1) would be a float for k < 1, so there is no exact value.
        with pytest.raises(ValueError, match="k >= 1"):
            sigma(k, 6)

    def test_power_one_counts_divisors(self):
        assert sigma(1, 12) == 6 and type(sigma(1, 12)) is int


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
