"""The Eisenstein reduction: both routes against their one-product-at-a-time recursions.

Each step of ``calculus._laurent_c`` and ``calculus._gunther_e`` is one fused
``sum_of_products`` that takes each symmetric pair once.  The references
below are the plain recursions they replaced: one product and one sum per
term of the step, every ordered pair visited.  Forms are canonical, so ``==``
compares their storage.
"""

from fractions import Fraction
from functools import lru_cache

import pytest

from qjforms import E2, E4, ZERO, Derivation, EisensteinMethod, derive, e6_form, eisenstein_in_generators


@lru_cache(maxsize=None)
def ref_laurent_c(n: int):
    # c_n = (2n+1) * e_{2n+2}, from c_1 = 3e4 and c_2 = 5e6.
    if n == 1:
        return 3 * E4
    if n == 2:
        return 5 * e6_form()
    acc = ZERO
    for a in range(1, n - 1):
        acc = acc + ref_laurent_c(a) * ref_laurent_c(n - 1 - a)
    return Fraction(6, 2 * n * (2 * n - 1) - 12) * acc


@lru_cache(maxsize=None)
def ref_gunther_e(two_n: int):
    # The z^(2n) Fourier-Laurent identity solved for e_{2n+4}.
    if two_n == 4:
        return E4
    n = two_n // 2 - 2
    prev = ref_gunther_e(two_n - 2)
    acc = (n + 1) * (2 * n + 1) * (prev * E2)
    for a in range(1, n):
        b = n - a
        acc = acc + (2 * a + 1) * (a - 2 * b - 1) * (ref_gunther_e(2 * a + 2) * ref_gunther_e(2 * b + 2))
    acc = acc - 2 * (2 * n + 1) * derive(Derivation.DTAU, prev)
    return Fraction(1, (n + 2) * (2 * n + 5)) * acc


@pytest.mark.parametrize("two_n", range(4, 62, 2))
def test_laurent_matches_reference(two_n):
    n = two_n // 2 - 1
    assert eisenstein_in_generators(two_n, EisensteinMethod.LAURENT) == Fraction(1, 2 * n + 1) * ref_laurent_c(n)


@pytest.mark.parametrize("two_n", range(4, 62, 2))
def test_gunther_matches_reference(two_n):
    assert eisenstein_in_generators(two_n, EisensteinMethod.GUNTHER) == ref_gunther_e(two_n)


@pytest.mark.parametrize("method", ["gunther", "laurent", "foo"])
def test_method_other_than_the_enum_is_a_value_error(method):
    # A string, even a method's value, no longer falls through to the Laurent route.
    with pytest.raises(ValueError, match=f"^unknown Eisenstein method '{method}'$"):
        eisenstein_in_generators(8, method)
