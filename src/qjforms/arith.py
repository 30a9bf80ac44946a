"""Exact arithmetic helpers: Bernoulli numbers, divisor sums, binomials.

All values are exact and memoized, and the memos of ``bernoulli`` and ``sigma`` are the one cache of
the Eisenstein constants that ``series`` reads.  The memos (``lru_cache``, a Bernoulli table that is
only ever rebound) are safe under concurrent use: a race can only repeat work.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache


# B_0, B_2, B_4, ... as far as computed; a longer table is built whole, then published by rebinding the name.
_even_bernoulli: list[Fraction] = []


@lru_cache(maxsize=None)
def bernoulli(n: int) -> Fraction:
    """n-th Bernoulli number for the generating series t/(e^t - 1).

    This convention gives B1 = -1/2; only the even-index values feed the
    Eisenstein expansions, but the full sequence is provided.
    """
    global _even_bernoulli
    if n < 0:
        raise ValueError("Bernoulli numbers are indexed by nonnegative integers")
    if n % 2 == 1:
        return Fraction(-1, 2) if n == 1 else Fraction(0)
    table = _even_bernoulli
    if len(table) <= n // 2:
        # Tangent numbers T_1..T_size in one integer list (Brent and Harvey, arXiv:1108.0286), and B_2m is
        # (-1)^(m-1) 2m T_m / (4^m (4^m - 1)).  A rebuild costs about size^3, so the table grows by half its length.
        size = max(n // 2, 3 * len(table) // 2)
        t = [math.factorial(k) for k in range(size)]
        for k in range(1, size):
            for j in range(k, size):
                t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
        even = [Fraction((-1) ** (m - 1) * 2 * m * tm, 4**m * (4**m - 1)) for m, tm in enumerate(t, 1)]
        table = _even_bernoulli = [Fraction(1), *even]
    return table[n // 2]


@lru_cache(maxsize=None)
def sigma(k: int, n: int) -> int:
    """Divisor power sum: sum of d^(k-1) over the divisors d of n (k >= 1, n >= 1)."""
    if k < 1 or n < 1:
        raise ValueError("sigma(k, n) requires k >= 1 and n >= 1")
    total = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            total += d ** (k - 1)
            q = n // d
            if q != d:
                total += q ** (k - 1)
        d += 1
    return total


@lru_cache(maxsize=None)
def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k), with 0 for k < 0 or k > n."""
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)
