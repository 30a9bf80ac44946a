"""The bigraded series oracle: expansions, windows, derivations."""

import random
from fractions import Fraction
from math import factorial

import pytest

from qjforms import (
    DWP,
    E1,
    E2,
    E4,
    ONE,
    WP,
    Algebra,
    BigradedSeries,
    Derivation,
    PrecisionError,
    SeriesDerivation,
    derive,
    e6_form,
    eisenstein_in_generators,
    eisenstein_qseries,
    expand,
    series_add,
    series_derive,
    series_equal,
    series_mul,
    series_scale,
)
from qjforms import series
from qjforms.arith import bernoulli
from qjforms.verify import random_form, _random_form_retry

F = Fraction
DU = SeriesDerivation.DU
QDQ = SeriesDerivation.QDQ
E6 = e6_form()


class TestEisensteinQSeries:
    def test_weight_two(self):
        s = eisenstein_qseries(2, 3)
        assert s.weight == 2 and s.u_val == s.u_max == 0
        assert [s.coefficient(m, 0) for m in range(3)] == [F(1, 3), F(-8), F(-24)]

    def test_weight_four(self):
        s = eisenstein_qseries(4, 2)
        assert [s.coefficient(m, 0) for m in range(2)] == [F(1, 45), F(16, 3)]

    def test_weight_six(self):
        s = eisenstein_qseries(6, 2)
        assert [s.coefficient(m, 0) for m in range(2)] == [F(2, 945), F(-16, 15)]

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            eisenstein_qseries(3, 4)
        with pytest.raises(ValueError):
            eisenstein_qseries(0, 4)
        with pytest.raises(PrecisionError):
            eisenstein_qseries(4, 0)

    def test_closed_form_matches_fourier_definition(self):
        # ee_k(0) = 2^k |B_k| / k! and ee_k(m) = (-2k / B_k) ee_k(0) sigma_(k-1)(m),
        # the Fourier expansion of G_k over pi^k, with sigma by a divisor loop.
        for k in range(2, 101, 2):
            ee0 = 2**k * abs(bernoulli(k)) / factorial(k)
            assert series._eisenstein_coeff(k, 0) == ee0, k
            for m in range(1, 21):
                sigma = sum(d ** (k - 1) for d in range(1, m + 1) if m % d == 0)
                assert series._eisenstein_coeff(k, m) == -2 * k / bernoulli(k) * ee0 * sigma, (k, m)

    def test_wide_windows_match_laurent_recursion(self):
        # The constant terms c_n = (2n + 1) ee_(2n+2)(0) by the Laurent recursion
        # of the Weierstrass equation, with no Bernoulli number: wp has c_n at
        # u^(2n) and e1 has -c_n / (2n + 1) at u^(2n + 1), for n up to 200.  The
        # sum of c_a c_b over a + b = n - 1 is taken once per pair a < b.
        c = {1: 3 * F(1, 45), 2: 5 * F(2, 945)}
        for n in range(3, 201):
            pairs = 2 * sum(c[a] * c[n - 1 - a] for a in range(1, n // 2))
            c[n] = F(6, 2 * n * (2 * n - 1) - 12) * (pairs + (c[n // 2] ** 2 if n % 2 else 0))
        assert c[3] == F(1, 675)
        wp, e1 = expand(WP, 1, 400), expand(E1, 1, 401)
        assert e1.coefficient(0, 1) == F(-1, 3)
        for n, cn in c.items():
            assert wp.coefficient(0, 2 * n) == cn, n
            assert e1.coefficient(0, 2 * n + 1) == -cn / (2 * n + 1), n


class TestWindows:
    def test_constructor_validation(self):
        with pytest.raises(PrecisionError):
            BigradedSeries(0, 4, 2, 1)
        with pytest.raises(PrecisionError):
            BigradedSeries(0, 0, 0, 0)
        with pytest.raises(ValueError):
            BigradedSeries(0, 2, 0, 2, {(5, 0): 1})

    def test_coefficient_contract(self):
        s = expand(WP, 2, 4)
        assert s.coefficient(0, -2) == 1
        assert s.coefficient(0, -5) == 0  # below valuation: exactly zero
        with pytest.raises(PrecisionError):
            s.coefficient(0, 5)  # above the window: unknown
        with pytest.raises(PrecisionError):
            s.coefficient(2, 0)  # beyond q precision

    def test_laurent_unit_product(self):
        inv_u = BigradedSeries(0, 3, -1, -1, {(0, -1): 1})
        u = BigradedSeries(0, 3, 1, 1, {(0, 1): 1})
        prod = series_mul(inv_u, u)
        assert prod.u_val == prod.u_max == 0
        assert prod.coefficient(0, 0) == 1

    def test_add_weight_mismatch(self):
        with pytest.raises(ValueError):
            series_add(expand(WP, 2, 4), expand(E1, 2, 4))

    def test_add_cancellation(self):
        a = expand(WP, 3, 6)
        assert series_add(a, series_scale(-1, a)).is_zero()

    def test_mul_window_rule(self):
        a = expand(WP, 3, 6)     # [-2, 6]
        b = expand(E1, 3, 6)     # [-1, 6]
        prod = series_mul(a, b)
        assert prod.u_val == -3
        assert prod.u_max == min(-2 + 6, -1 + 6)
        assert prod.weight == 3

    def test_products_keep_windows_sound(self):
        # Valid operands always give u_val <= u_max; emptiness only arises
        # from construction or from expand with an unreachable u_max.
        rng = random.Random(3)
        for _ in range(20):
            f = _random_form_retry(rng, 6)
            g = _random_form_retry(rng, 6)
            prod = series_mul(expand(f, 3, 6), expand(g, 3, 6))
            assert prod.u_val <= prod.u_max

    def test_zero_series_is_weight_neutral(self):
        zero = expand(WP - WP, 3, 6)
        s = expand(E1, 3, 6)
        assert series_equal(series_add(zero, s), s, 5)


class TestExpand:
    def test_wp_leading(self):
        s = expand(WP, 1, 2)
        assert s.weight == 2
        assert s.coefficient(0, -2) == 1
        assert s.coefficient(0, -1) == 0
        assert s.coefficient(0, 0) == 0
        assert s.coefficient(0, 2) == F(1, 15)

    def test_one_and_zero(self):
        s = expand(ONE, 2, 3)
        assert s.weight == 0 and s.coefficient(0, 0) == 1
        z = expand(WP - WP, 2, 3)
        assert z.is_zero()

    def test_requires_homogeneous(self):
        with pytest.raises(ValueError):
            expand(WP + E1, 2, 4)

    def test_unreachable_valuation(self):
        with pytest.raises(PrecisionError):
            expand(WP, 2, -3)

    def test_empty_precision_window_raises(self):
        for f in (WP, WP - WP):
            with pytest.raises(PrecisionError):
                expand(f, 0, 4)

    def test_homomorphism_on_product(self):
        lhs = expand(WP * E1, 6, 12)
        rhs = series_mul(expand(WP, 6, 12), expand(E1, 6, 12))
        assert series_equal(lhs, rhs, 10)

    def test_random_homomorphism(self):
        rng = random.Random(61)
        for _ in range(15):
            k = rng.randint(1, 8)
            f, g = random_form(rng, k), random_form(rng, k)
            if f is None or g is None or not f + g:
                continue
            assert series_equal(
                expand(f + g, 6, 12),
                series_add(expand(f, 6, 12), expand(g, 6, 12)),
                8,
            )
            h = random_form(rng, rng.randint(1, 5))
            if h is None:
                continue
            assert series_equal(
                expand(f * h, 6, 12),
                series_mul(expand(f, 6, 12), expand(h, 6, 12)),
                8,
            )

    def test_parity(self):
        rng = random.Random(62)
        for _ in range(15):
            k = rng.randint(1, 9)
            f = random_form(rng, k)
            if f is None:
                continue
            for (_, n), c in expand(f, 4, 10).items():
                assert (n - k) % 2 == 0

    def test_e6_fourier_vs_laurent(self):
        # The Laurent route (wp, dwp, e4 series) collapses to a pure q-series.
        assert series_equal(expand(E6, 8, 16), eisenstein_qseries(6, 8), 1)
        for two_n in range(8, 14, 2):
            assert series_equal(
                expand(eisenstein_in_generators(two_n), 8, 16),
                eisenstein_qseries(two_n, 8),
                1,
            )


class TestSeriesDerive:
    def test_du_on_e1(self):
        lhs = series_derive(DU, expand(E1, 6, 12))
        rhs = series_add(series_scale(-1, expand(WP, 6, 12)), series_scale(-1, expand(E2, 6, 12)))
        assert series_equal(lhs, rhs, 10)

    def test_qdq_on_e2(self):
        lhs = series_derive(QDQ, expand(E2, 6, 12))
        rhs = expand(F(1, 4) * (E2**2 - 5 * E4), 6, 12)
        assert series_equal(lhs, rhs, 8)

    def test_qdq_kills_constants(self):
        assert series_derive(QDQ, expand(ONE, 4, 4)).is_zero()

    def test_du_weight_and_window(self):
        s = expand(WP, 4, 8)
        d = series_derive(DU, s)
        assert d.weight == 3 and d.u_val == -3 and d.u_max == 7

    def test_correspondence_random(self):
        rng = random.Random(63)
        for _ in range(12):
            f = _random_form_retry(rng, 8)
            assert series_equal(
                expand(derive(Derivation.DZ, f), 6, 12),
                series_derive(DU, expand(f, 6, 12)),
                8,
            )
            assert series_equal(
                expand(derive(Derivation.DTAU, f), 6, 12),
                series_derive(QDQ, expand(f, 6, 12)),
                8,
            )


class TestSeriesEqual:
    def test_reflexive(self):
        s = expand(WP, 4, 8)
        assert series_equal(s, s, 5)

    def test_insufficient_window_raises(self):
        s = expand(WP, 2, 2)
        with pytest.raises(PrecisionError):
            series_equal(s, s, 10)

    def test_detects_difference(self):
        a = eisenstein_qseries(4, 4)
        b = series_scale(2, a)
        assert not series_equal(a, b, 1)

    def test_ode_identity(self):
        wp = expand(WP, 8, 16)
        dwp = expand(DWP, 8, 16)
        e4 = expand(E4, 8, 16)
        e6 = expand(E6, 8, 16)
        lhs = series_add(series_mul(dwp, dwp), series_add(series_scale(60, series_mul(e4, wp)), series_scale(140, e6)))
        rhs = series_scale(4, series_mul(wp, series_mul(wp, wp)))
        assert series_equal(lhs, rhs, 16)


class TestGuntherSeries:
    def test_orders_one_to_three(self):
        qp, um = 6, 12
        es = {j: expand(eisenstein_in_generators(j), qp, um) for j in range(4, 12, 2)}
        e2s = expand(E2, qp, um)
        for n in range(1, 4):
            lhs = series_scale(2 * (2 * n + 1), series_derive(QDQ, es[2 * n + 2]))
            rhs = series_scale((n + 1) * (2 * n + 1), series_mul(es[2 * n + 2], e2s))
            rhs = series_add(rhs, series_scale(-(n + 2) * (2 * n + 5), es[2 * n + 4]))
            for a in range(1, n):
                b = n - a
                rhs = series_add(
                    rhs,
                    series_scale((2 * a + 1) * (a - 2 * b - 1), series_mul(es[2 * a + 2], es[2 * b + 2])),
                )
            assert series_equal(lhs, rhs, 8)
