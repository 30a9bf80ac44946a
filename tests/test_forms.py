"""The polynomial algebra: arithmetic, grading, depth, membership, Q calculus."""

import random
from fractions import Fraction

import pytest

from qjforms import (
    DWP,
    E1,
    E2,
    E4,
    ONE,
    WP,
    ZERO,
    Algebra,
    DepthProfile,
    EisensteinMethod,
    Generator,
    QJForm,
    ScaledJForm,
    e6_form,
    eisenstein_in_generators,
    member,
    monomials_of_weight,
    q_coefficient,
)
from qjforms.verify import random_form

E6 = e6_form()


class TestGenerators:
    def test_weights(self):
        assert [g.weight for g in Generator] == [2, 3, 4, 1, 2]

    def test_symbols(self):
        assert [g.symbol for g in Generator] == ["wp", "dwp", "e4", "e1", "e2"]


class TestArithmetic:
    def test_cancellation(self):
        assert WP + (-WP) == ZERO
        assert not (WP - WP)

    def test_zero_scale(self):
        assert 0 * E4 == ZERO

    def test_collect(self):
        assert WP**2 + 3 * WP**2 == 4 * WP**2

    def test_product_of_binomials(self):
        assert (WP + E2) * (WP - E2) == WP**2 - E2**2

    def test_monomial_product_and_depth(self):
        f = (E2 * E1) * E2
        assert f == QJForm({(0, 0, 0, 1, 2): 1})
        assert f.depth() == (2, 1)

    def test_scalar_coercion(self):
        assert QJForm.constant(3) == 3
        assert WP - WP == 0

    def test_pow_and_neg(self):
        assert (-WP) ** 2 == WP**2
        assert WP**0 == ONE

    def test_power_of_a_constant(self):
        # A constant's power is one Fraction power, however large the exponent.
        assert ONE**100_000_000 == ONE and (WP - WP) ** 100_000_000 == ZERO
        assert ZERO**0 == ONE and QJForm.constant(Fraction(-2, 3)) ** 3 == Fraction(-8, 27)

    def test_invalid_exponents_rejected(self):
        with pytest.raises(ValueError):
            QJForm({(0, 0, -1, 0, 0): 1})
        with pytest.raises(ValueError):
            QJForm({(1, 2, 3): 1})

    def test_integral_domain(self):
        rng = random.Random(11)
        for _ in range(40):
            f = random_form(rng, rng.randint(1, 8))
            g = random_form(rng, rng.randint(1, 8))
            if f is None or g is None:
                continue
            assert f * g != ZERO

    def test_hash_consistent_with_eq(self):
        f = WP * E4 + 2 * E2
        g = E4 * WP + E2 + E2
        assert f == g and hash(f) == hash(g)

    @pytest.mark.parametrize("value", [0, 3, Fraction(1, 2), Fraction(-7, 3)])
    def test_constant_hashes_like_its_value(self, value):
        # A constant form equals its value, so sets and dicts must find either by the other.
        for form in (QJForm.constant(value), (WP + value) - WP, QJForm({(0, 0, 0, 0, 0): value})):
            assert form == value and hash(form) == hash(value)
            assert value in {form} and form in {value}
            assert {form: "form"}[value] == "form" and {value: "value"}[form] == "value"
        assert (ZERO in {0}, 0 in {ZERO}, ONE in {1}, Fraction(1) in {ONE}) == (True, True, True, True)

    def test_nonconstant_hash_is_unchanged(self):
        for f in (WP, 3 + Fraction(1, 2) * E2, WP * E4 - Fraction(5, 6) * E1**2 + 1):
            assert hash(f) == hash((frozenset(f._num.items()), f._den))


class TestGrading:
    def test_weight_components_single(self):
        comps = (WP**2 * E4).weight_components()
        assert comps == [(8, WP**2 * E4)]

    def test_weight_components_same_weight(self):
        comps = (WP + E2).weight_components()
        assert comps == [(2, WP + E2)]

    def test_weight_components_mixed(self):
        comps = (E1 + E4).weight_components()
        assert comps == [(1, E1), (4, E4)]

    def test_weight_additivity(self):
        rng = random.Random(5)
        for _ in range(30):
            kf, kg = rng.randint(1, 9), rng.randint(1, 9)
            f, g = random_form(rng, kf), random_form(rng, kg)
            if f is None or g is None:
                continue
            assert (f * g).weight() == kf + kg

    def test_weight_of_mixed_raises(self):
        with pytest.raises(ValueError):
            (E1 + E4).weight()
        with pytest.raises(ValueError):
            ZERO.weight()


class TestDepth:
    def test_table_rows(self):
        assert E2.depth() == (1, 0)
        assert E1.depth() == (0, 1)
        assert (WP * DWP * E4).depth() == (0, 0)

    def test_mixed_support_bidegree(self):
        # No single corner term exists here; the bidegree is still (1, 1).
        assert (E2 + E1).depth() == DepthProfile(1, 1)

    def test_zero_has_no_depth(self):
        with pytest.raises(ValueError):
            ZERO.depth()

    def test_additivity(self):
        rng = random.Random(6)
        for _ in range(50):
            f = random_form(rng, rng.randint(1, 10))
            g = random_form(rng, rng.randint(1, 10))
            if f is None or g is None:
                continue
            (s1, s2), (t1, t2) = f.depth(), g.depth()
            assert (f * g).depth() == (s1 + t1, s2 + t2)


class TestMembership:
    def test_examples(self):
        assert member(E4**2, Algebra.M)
        assert not member(WP, Algebra.M)
        assert member(WP, Algebra.JS)
        assert member(E6, Algebra.M)

    def test_support_algebras(self):
        assert member(E1, Algebra.JS0INF) and not member(E1, Algebra.JSINF0)
        assert member(E2, Algebra.JSINF0) and not member(E2, Algebra.JS0INF)
        assert member(WP * E1 * E2, Algebra.JSINF)
        assert not member(WP * E1, Algebra.JS)

    def test_modular_products(self):
        assert member(E4 * E6, Algebra.M)
        assert member(E4**3 - 7 * E6**2, Algebra.M)
        assert not member(WP**2, Algebra.M)
        # weight-8 JS form outside the modular line e4^2
        assert not member(WP**4 + E4**2, Algebra.M)

    def test_minf(self):
        assert member(E4 * E2 + E6 * E2**2, Algebra.MINF)
        assert not member(WP * E2, Algebra.MINF)
        assert not member(E1 * E2, Algebra.MINF)


class TestE6Form:
    def test_exact_terms(self):
        assert E6 == QJForm(
            {
                (0, 2, 0, 0, 0): Fraction(-1, 140),
                (3, 0, 0, 0, 0): Fraction(1, 35),
                (1, 0, 1, 0, 0): Fraction(-3, 7),
            }
        )

    def test_weight(self):
        assert E6.weight_components() == [(6, E6)]

    def test_weierstrass_ode(self):
        assert DWP**2 - 4 * WP**3 + 60 * E4 * WP + 140 * E6 == ZERO


class TestQCoefficient:
    def test_identity_at_origin(self):
        f = WP * E2 + E1**2
        got = q_coefficient(f, 0, 0)
        assert got.form == f and got.c_power == 0

    def test_table_values(self):
        assert q_coefficient(E2, 1, 0) == ScaledJForm(QJForm.constant(-1), 1)
        assert q_coefficient(E1, 0, 1) == ScaledJForm(ONE, 1)

    def test_square_expansion(self):
        assert q_coefficient(E2**2, 1, 0) == ScaledJForm(-2 * E2, 1)

    def test_vanishing_beyond_depth(self):
        rng = random.Random(9)
        for _ in range(30):
            f = random_form(rng, rng.randint(1, 10))
            if f is None:
                continue
            s1, s2 = f.depth()
            assert q_coefficient(f, s1 + 1, s2).is_zero()
            assert q_coefficient(f, s1, s2 + 1).is_zero()

    def test_negative_indices_are_zero(self):
        assert q_coefficient(WP * E2, -1, 0).is_zero()
        assert q_coefficient(WP * E2, 0, -2).is_zero()

    def test_product_rule(self):
        rng = random.Random(10)
        for _ in range(25):
            f = random_form(rng, rng.randint(1, 8))
            g = random_form(rng, rng.randint(1, 8))
            if f is None or g is None:
                continue
            for i, j in ((1, 0), (0, 1), (1, 1), (2, 0)):
                lhs = q_coefficient(f * g, i, j)
                acc = ScaledJForm(ZERO, 0)
                for a in range(i + 1):
                    for c in range(j + 1):
                        acc = acc + q_coefficient(f, a, c) * q_coefficient(g, i - a, j - c)
                assert lhs.form == acc.form
                if not lhs.is_zero():
                    assert lhs.c_power == i + j

    def test_corner_lands_in_js(self):
        rng = random.Random(12)
        for _ in range(40):
            k = rng.randint(1, 12)
            f = random_form(rng, k)
            if f is None:
                continue
            s1, s2 = f.depth()
            corner = q_coefficient(f, s1, s2)
            assert member(corner.form, Algebra.JS)
            if not corner.is_zero():
                assert corner.form.weight() == k - 2 * s1 - s2


class TestScaledJForm:
    def test_canonical_zero(self):
        assert ScaledJForm(ZERO, 5) == ScaledJForm(ZERO, 0)
        assert ScaledJForm(ZERO, 5).c_power == 0 and ScaledJForm(WP).c_power == 0

    def test_immutable_value(self):
        s = ScaledJForm(WP, 2)
        assert s.form == WP and s.c_power == 2
        assert s == ScaledJForm(WP, 2) and hash(s) == hash(ScaledJForm(WP, 2))
        assert s != ScaledJForm(WP, 1) and s != ScaledJForm(E2, 2)
        with pytest.raises(AttributeError):
            s.c_power = 3

    def test_add_requires_matching_power(self):
        with pytest.raises(ValueError):
            ScaledJForm(WP, 1) + ScaledJForm(WP, 2)
        assert ScaledJForm(WP, 1) + ScaledJForm(ZERO, 0) == ScaledJForm(WP, 1)

    def test_mul_adds_powers(self):
        prod = ScaledJForm(WP, 1) * ScaledJForm(E2, 2)
        assert prod == ScaledJForm(WP * E2, 3)


class TestEisensteinReduction:
    def test_base_generator(self):
        assert eisenstein_in_generators(4, EisensteinMethod.LAURENT) == E4
        assert eisenstein_in_generators(4, EisensteinMethod.GUNTHER) == E4

    def test_e6_matches_ode_form(self):
        assert eisenstein_in_generators(6) == E6

    def test_e8(self):
        expected = Fraction(3, 7) * E4**2
        assert eisenstein_in_generators(8, EisensteinMethod.LAURENT) == expected
        assert eisenstein_in_generators(8, EisensteinMethod.GUNTHER) == expected

    def test_e10(self):
        assert eisenstein_in_generators(10) == Fraction(5, 11) * E4 * E6

    def test_method_agreement(self):
        for two_n in range(4, 26, 2):
            assert eisenstein_in_generators(two_n, EisensteinMethod.LAURENT) == eisenstein_in_generators(
                two_n, EisensteinMethod.GUNTHER
            )

    def test_results_are_modular(self):
        for two_n in range(4, 22, 2):
            e = eisenstein_in_generators(two_n)
            assert e.weight() == two_n
            assert member(e, Algebra.M)

    def test_rejects_bad_weight(self):
        with pytest.raises(ValueError):
            eisenstein_in_generators(7)
        with pytest.raises(ValueError):
            eisenstein_in_generators(2)


class TestMonomials:
    def test_counts_small(self):
        assert monomials_of_weight(0) == [(0, 0, 0, 0, 0)]
        assert set(monomials_of_weight(2, Algebra.JS)) == {(1, 0, 0, 0, 0)}
        assert set(monomials_of_weight(1)) == {(0, 0, 0, 1, 0)}

    def test_m_is_not_monomial(self):
        for algebra in (Algebra.M, Algebra.MINF):
            with pytest.raises(ValueError):
                monomials_of_weight(4, algebra)


class TestRendering:
    def test_canonical_strings(self):
        assert str(ZERO) == "0"
        assert str(WP**2 - 5 * E4) == "-5*e4 + wp^2"
        assert str(E6) == "-3/7*wp*e4 - 1/140*dwp^2 + 1/35*wp^3"
