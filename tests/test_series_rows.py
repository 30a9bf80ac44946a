"""The row-wise ``series_mul`` on inputs the storage tests rarely draw.

Every product is compared with ``ref_mul`` of ``test_series_storage``, the
Fraction-dict product over every pair of stored coefficients, which shares no
code with ``qjforms.series``.  A canonical result with the reference's window
and values is storage-identical to it.  The inputs: e4 and e2 expanded at
u_max 10**6, operands whose windows differ in q_prec and in u-span, operands
with coefficients beyond the product window, cancelling cells and the zero
series.  ``tracemalloc`` pins that a product of two u-constant series at that
span allocates on the order of its result, not q_prec times the span.
"""

import random
import tracemalloc
from fractions import Fraction
from math import gcd

import pytest

from qjforms import E1, E2, E4, WP, BigradedSeries, expand, series_mul
from test_series_storage import Ref, outcome, ref_mul

WIDE = 10**6


def as_ref(s: BigradedSeries) -> Ref:
    # The private storage is read on purpose: it must be canonical.  Unlike
    # test_series_storage.as_ref, no cell of the window is visited, so a
    # window of 10**6 exponents costs only its stored coefficients.
    nums, den = s._coeffs, s._denom
    assert type(den) is int and den > 0
    assert all(type(c) is int and c for c in nums.values())
    assert gcd(den, *nums.values()) == 1
    return Ref(s.weight, s.q_prec, s.u_val, s.u_max, dict(s.items()))


def assert_matches_reference(a: BigradedSeries, b: BigradedSeries) -> None:
    ra, rb = as_ref(a), as_ref(b)
    assert outcome(lambda: as_ref(series_mul(a, b))) == outcome(ref_mul, ra, rb)
    assert outcome(lambda: as_ref(series_mul(b, a))) == outcome(ref_mul, rb, ra)


def random_series(rng, q_prec: int, u_val: int, span: int, density: float) -> BigradedSeries:
    cells = [(m, n) for m in range(q_prec) for n in range(u_val, u_val + span + 1)]
    data = {
        cell: Fraction(rng.randint(-(10**9), 10**9), rng.choice([1, 2, 3, 10**12 + 39]))
        for cell in cells
        if rng.random() < density
    }
    return BigradedSeries(rng.randint(0, 3), q_prec, u_val, u_val + span, data)


@pytest.mark.parametrize("q_prec", [1, 3, 8])
def test_u_constant_series_at_a_wide_window(q_prec):
    e4, e2 = expand(E4, q_prec, WIDE), expand(E2, q_prec, WIDE)
    assert (e4.u_val, e4.u_max) == (0, WIDE)
    for a, b in ((e4, e2), (e4, e4), (e2, e2)):
        assert_matches_reference(a, b)
    # Against narrow windows: the product's window is the narrower one's.
    for narrow in (expand(WP, q_prec, 16), expand(E1 * E2, 2, 3), expand(E4, 1, 0)):
        assert_matches_reference(e4, narrow)
        assert series_mul(e2, narrow).u_max == narrow.u_max
    assert as_ref(series_mul(e4, e2)) == as_ref(expand(E4 * E2, q_prec, WIDE))


def test_u_constant_product_allocates_like_its_result():
    e4, e2 = expand(E4, 8, WIDE), expand(E2, 8, WIDE)
    tracemalloc.start()
    try:
        product = series_mul(e4, e2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(product._coeffs) == 8
    # A list of q_prec * span zeros would take 64 MB; the 8 stored
    # coefficients and the operands' rows take a few kB.
    assert peak < 64 * 1024, peak


@pytest.mark.parametrize("seed", range(6))
def test_mismatched_windows(seed):
    # One operand wide and deep, the other narrow or shallow, and in every
    # combination of which side is which: most of the wide operand's
    # coefficients lie beyond the product window.
    rng = random.Random(seed)
    for _ in range(8):
        wide = random_series(rng, rng.randint(4, 8), rng.randint(-4, 2), rng.randint(8, 20), rng.choice([0.2, 1.0]))
        narrow = random_series(rng, rng.randint(1, 3), rng.randint(-4, 2), rng.randint(0, 3), rng.choice([0.5, 1.0]))
        assert_matches_reference(wide, narrow)
        assert_matches_reference(wide, wide)


def test_expansions_on_different_windows():
    f, h = expand(WP * E2 + E4, 8, 16), expand(E1 * E2 - WP * E1, 3, 6)
    assert_matches_reference(f, h)
    assert_matches_reference(f, expand(E4 * E4 - E2 * E2 * E2 * E2, 8, 4))


def test_coefficients_beyond_the_window():
    # b's window is u^0 and q^0 only, so of a only the q^0 u^-1 coefficient
    # lands in the product; every other row and offset of a lies beyond it.
    a = BigradedSeries(1, 6, -1, 9, {(m, n): m + n + 5 for m in range(6) for n in range(-1, 10)})
    b = BigradedSeries(1, 1, 0, 0, {(0, 0): Fraction(3, 7)})
    assert series_mul(a, b).items() == [((0, -1), Fraction(12, 7))]
    assert_matches_reference(a, b)
    # Only pairs beyond the window: the product stores nothing.
    c = BigradedSeries(1, 6, 0, 4, {(3, 4): 1})
    d = BigradedSeries(1, 6, 0, 4, {(3, 0): 2, (0, 1): 5})
    assert series_mul(c, d).is_zero()
    assert_matches_reference(c, d)


def test_cancelling_cells_and_the_zero_series():
    # (1 + u)(1 - u) = 1 - u^2: the u^1 cell of an output row sums to zero.
    one_plus, one_minus = (BigradedSeries(0, 2, 0, 3, {(0, 0): 1, (0, 1): s}) for s in (1, -1))
    assert series_mul(one_plus, one_minus).items() == [((0, 0), 1), ((0, 2), -1)]
    assert_matches_reference(one_plus, one_minus)
    zero = BigradedSeries(3, 4, -2, 5)
    for other in (zero, one_plus, expand(WP * WP, 8, 16), expand(E4, 8, WIDE)):
        product = series_mul(zero, other)
        assert product.is_zero() and product._denom == 1
        assert product.weight == zero.weight + other.weight
        assert_matches_reference(zero, other)
