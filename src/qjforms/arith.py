"""Exact arithmetic helpers: Bernoulli numbers, divisor sums, binomials.

All values are exact (arbitrary-precision integers and ``Fraction``) and all
functions memoize, so repeated use inside series expansions is cheap.  The
functions are pure; ``lru_cache`` keeps concurrent use safe (a race can at
worst duplicate a computation, never corrupt a result).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache


@lru_cache(maxsize=None)
def bernoulli(n: int) -> Fraction:
    """n-th Bernoulli number for the generating series t/(e^t - 1).

    This convention gives B1 = -1/2; only the even-index values feed the
    Eisenstein expansions, but the full sequence is provided.
    """
    if n < 0:
        raise ValueError("Bernoulli numbers are indexed by nonnegative integers")
    if n == 0:
        return Fraction(1)
    if n >= 3 and n % 2 == 1:
        return Fraction(0)
    # sum_{k=0}^{n} C(n+1, k) B_k = 0 for n >= 1
    acc = Fraction(0)
    for k in range(n):
        acc += binomial(n + 1, k) * bernoulli(k)
    return -acc / (n + 1)


@lru_cache(maxsize=None)
def sigma(k: int, n: int) -> int:
    """Divisor power sum: sum of d^(k-1) over the divisors d of n (n >= 1)."""
    if n < 1:
        raise ValueError("sigma(k, n) requires n >= 1")
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
