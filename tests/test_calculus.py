"""Derivations, brackets, transvectants, deformations, stability."""

import gc
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qjforms import (
    DWP,
    E1,
    E2,
    E4,
    ONE,
    WP,
    ZERO,
    Algebra,
    Bracket,
    Derivation,
    QJForm,
    StabilityReport,
    bracket,
    check_stability,
    derive,
    e6_form,
    member,
    star_truncated,
    transvectant_by_recurrence,
)
from qjforms import calculus
from qjforms.arith import binomial
from qjforms.verify import random_form, _random_form_retry

E6 = e6_form()
F = Fraction


@st.composite
def jsinf_forms(draw, max_weight: int = 6) -> QJForm:
    # A homogeneous form of weight 1..max_weight on up to three JSinf monomials.
    monos = calculus.monomials_of_weight(draw(st.integers(1, max_weight)))
    chosen = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=3, unique=True))
    return QJForm({m: F(draw(st.integers(1, 9)), draw(st.integers(1, 4))) for m in chosen})


class TestGeneratorImages:
    def test_dz_table(self):
        assert derive(Derivation.DZ, WP) == DWP
        assert derive(Derivation.DZ, DWP) == 6 * WP**2 - 30 * E4
        assert derive(Derivation.DZ, E4) == ZERO
        assert derive(Derivation.DZ, E1) == -WP - E2
        assert derive(Derivation.DZ, E2) == ZERO

    def test_dtau_table(self):
        assert derive(Derivation.DTAU, WP) == -F(1, 4) * E1 * DWP - F(1, 2) * WP**2 + F(1, 2) * E2 * WP + 5 * E4
        assert derive(Derivation.DTAU, DWP) == F(3, 2) * (5 * E4 - WP**2) * E1 + F(3, 4) * (E2 - WP) * DWP
        assert derive(Derivation.DTAU, E4) == -F(1, 10) * WP**3 + F(1, 40) * DWP**2 + F(3, 2) * WP * E4 + E4 * E2
        assert derive(Derivation.DTAU, E1) == F(1, 4) * (E1 * E2 + WP * E1 + F(1, 2) * DWP)
        assert derive(Derivation.DTAU, E2) == F(1, 4) * (E2**2 - 5 * E4)

    def test_oberdieck_values(self):
        assert derive(Derivation.OB, WP) == -2 * WP**2 + 20 * E4
        assert derive(Derivation.OB, E4) == -F(2, 5) * WP**3 + 6 * WP * E4 + F(1, 10) * DWP**2
        assert derive(Derivation.OB, E4) == -14 * E6
        assert derive(Derivation.OB, E2) == -E2**2 - 5 * E4
        assert derive(Derivation.OB, E1) == F(1, 2) * DWP - E1 * E2
        assert derive(Derivation.OB, DWP) == -3 * WP * DWP

    def test_djac_and_delta(self):
        assert derive(Derivation.DJAC, E1) == F(1, 8) * DWP
        assert derive(Derivation.DELTA, E4) == 2 * E4
        assert derive(Derivation.DELTA, E1 + E4) == F(1, 2) * E1 + 2 * E4

    def test_component_wise_tags_match_direct_formulas(self):
        # On homogeneous input the per-component definitions collapse to the
        # direct formulas in dtau and dz.
        rng = random.Random(20)
        for _ in range(15):
            k = rng.randint(1, 10)
            f = random_form(rng, k)
            if f is None:
                continue
            dtau_f = derive(Derivation.DTAU, f)
            dz_f = derive(Derivation.DZ, f)
            assert derive(Derivation.OB, f) == 4 * dtau_f + E1 * dz_f - k * (E2 * f)
            assert derive(Derivation.DJAC, f) == dtau_f + F(1, 4) * (E1 * dz_f)
            assert derive(Derivation.DELTA, f) == F(k, 2) * f


class TestDerivationLaws:
    def test_leibniz_all_tags(self):
        rng = random.Random(21)
        for _ in range(25):
            f = _random_form_retry(rng, 8)
            g = _random_form_retry(rng, 8)
            for tag in Derivation:
                assert derive(tag, f * g) == derive(tag, f) * g + f * derive(tag, g), tag

    def test_dz_dtau_commute(self):
        rng = random.Random(22)
        for _ in range(25):
            f = _random_form_retry(rng, 10)
            assert derive(Derivation.DZ, derive(Derivation.DTAU, f)) == derive(
                Derivation.DTAU, derive(Derivation.DZ, f)
            )

    def test_delta_commutator(self):
        rng = random.Random(23)
        for tag in (Derivation.DTAU, Derivation.DJAC):
            for _ in range(15):
                f = _random_form_retry(rng, 10)
                commutator = derive(Derivation.DELTA, derive(tag, f)) - derive(
                    tag, derive(Derivation.DELTA, f)
                )
                assert commutator == derive(tag, f)

    def test_weight_shifts(self):
        rng = random.Random(24)
        shifts = {
            Derivation.DZ: 1,
            Derivation.DTAU: 2,
            Derivation.OB: 2,
            Derivation.DJAC: 2,
            Derivation.DELTA: 0,
        }
        for _ in range(20):
            k = rng.randint(1, 10)
            f = random_form(rng, k)
            if f is None:
                continue
            for tag, shift in shifts.items():
                img = derive(tag, f)
                if img:
                    assert img.weight() == k + shift

    def test_refined_depth_inclusions(self):
        rng = random.Random(25)
        for _ in range(40):
            f = _random_form_retry(rng, 12)
            s1, s2 = f.depth()
            for (_, _, _, d, e), _c in derive(Derivation.DZ, f).terms():
                assert (e <= s1 and d <= s2) or (e <= s1 + 1 and d <= s2 - 1)
            for (_, _, _, d, e), _c in derive(Derivation.DTAU, f).terms():
                assert (e <= s1 + 1 and d <= s2) or (e <= s1 and d <= s2 + 1)

    def test_ob_depth_and_js_stability(self):
        rng = random.Random(26)
        for _ in range(30):
            f = _random_form_retry(rng, 12)
            s1, s2 = f.depth()
            img = derive(Derivation.OB, f)
            if img:
                assert img.depth().s1 <= s1 + 1 and img.depth().s2 <= s2
            fjs = _random_form_retry(rng, 12, Algebra.JS)
            assert member(derive(Derivation.OB, fjs), Algebra.JS)


class TestBrackets:
    def test_order_zero_is_product(self):
        for tag in Bracket:
            assert bracket(tag, WP, E1, 0) == WP * E1

    def test_antisymmetry_at_one(self):
        for tag in Bracket:
            assert bracket(tag, E4, E4, 1) == ZERO

    def test_rc_tau_e4_wp(self):
        expected = (
            -E4 * E1 * DWP
            + F(1, 5) * WP**4
            - 5 * WP**2 * E4
            + 20 * E4**2
            - F(1, 20) * WP * DWP**2
        )
        got = bracket(Bracket.RC_TAU, E4, WP, 1)
        assert got == expected
        assert got.depth() == (0, 1)
        assert not member(got, Algebra.JSINF0) and not member(got, Algebra.JS)

    def test_rc_d_e4_wp(self):
        got = bracket(Bracket.RC_D, E4, WP, 1)
        assert got == F(1, 5) * WP**4 - 5 * WP**2 * E4 + 20 * E4**2 - F(1, 20) * WP * DWP**2
        assert member(got, Algebra.JS)

    def test_tv_vanishes_on_modular_pair(self):
        assert bracket(Bracket.TV, E4, E6, 1) == ZERO
        assert bracket(Bracket.TV, E4, E6, 2) == ZERO

    def test_tv_e2_e1(self):
        assert bracket(Bracket.TV, E2, E1, 1) == F(1, 4) * (E2**2 - 5 * E4) * (-WP - E2)
        assert member(bracket(Bracket.TV, E2, E1, 1), Algebra.JSINF0)

    def test_rcd_e1_e4_has_modular_depth_one(self):
        got = bracket(Bracket.RC_D, E1, E4, 1)
        assert got.depth().s1 == 1
        assert not member(got, Algebra.JS0INF)

    def test_classical_value(self):
        assert bracket(Bracket.RC_TAU, E4, E6, 1) == 21 * E6**2 - F(60, 7) * E4**3

    def test_symmetry(self):
        rng = random.Random(31)
        for _ in range(10):
            f = _random_form_retry(rng, 8)
            g = _random_form_retry(rng, 8)
            for tag in Bracket:
                for n in range(4):
                    assert bracket(tag, f, g, n) == (-1) ** n * bracket(tag, g, f, n)

    def test_weight_shift(self):
        rng = random.Random(32)
        for _ in range(10):
            k, l = rng.randint(1, 8), rng.randint(1, 8)
            f, g = random_form(rng, k), random_form(rng, l)
            if f is None or g is None:
                continue
            for tag, per_n in ((Bracket.RC_TAU, 2), (Bracket.RC_D, 2), (Bracket.TV, 3)):
                for n in range(4):
                    h = bracket(tag, f, g, n)
                    if h:
                        assert h.weight() == k + l + per_n * n

    def test_bilinearity_over_mixed_weights(self):
        rng = random.Random(33)
        f1 = _random_form_retry(rng, 6)
        f2 = _random_form_retry(rng, 9)
        g = _random_form_retry(rng, 7)
        for tag in Bracket:
            for n in range(3):
                assert bracket(tag, f1 + f2, g, n) == bracket(tag, f1, g, n) + bracket(tag, f2, g, n)

    def test_each_argument_shares_its_derivatives(self, monkeypatch):
        # The one bracket path still builds every derivative once per weight
        # component: the tv slots dtau^(n-r) dz^r take the n dz steps and
        # n(n+1)/2 dtau steps of the towers, and an rc or rcd tower n steps.
        calls = []

        def counted(tag, f):
            calls.append(tag)
            return derive(tag, f)

        monkeypatch.setattr(calculus, "derive", counted)
        rng = random.Random(34)
        for n in range(1, 6):
            f, g = _random_form_retry(rng, 8), _random_form_retry(rng, 8)
            calls.clear()
            bracket(Bracket.TV, f, g, n)
            assert len(calls) <= 2 * (n + n * (n + 1) // 2)
            f, g = f + _random_form_retry(rng, 8) + ONE, g + _random_form_retry(rng, 8)
            parts = len(f.weight_components()) + len(g.weight_components())
            for tag in (Bracket.RC_TAU, Bracket.RC_D):
                calls.clear()
                bracket(tag, f, g, n)
                assert len(calls) <= n * parts

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            bracket(Bracket.TV, WP, E1, -1)


class TestDeriveMemo:
    def test_memo_is_bounded(self):
        maxsize = derive.cache_info().maxsize
        assert maxsize is not None and 0 < maxsize <= 1024

    def test_repeated_bracket_hits_and_clearing_changes_nothing(self):
        f, g = WP * E1 - F(2, 3) * E4, DWP + F(5, 7) * E2 * E1
        cached = [bracket(tag, f, g, n) for tag in Bracket for n in range(5)]
        hits = derive.cache_info().hits
        assert [bracket(tag, f, g, n) for tag in Bracket for n in range(5)] == cached
        assert derive.cache_info().hits > hits
        derive.cache_clear()
        assert derive.cache_info().currsize == 0
        assert [bracket(tag, f, g, n) for tag in Bracket for n in range(5)] == cached


class TestBracketStabilityTheorems:
    def test_rc_tau_preserves_js0inf(self):
        rng = random.Random(41)
        for _ in range(20):
            f = _random_form_retry(rng, 10, Algebra.JS0INF)
            g = _random_form_retry(rng, 10, Algebra.JS0INF)
            for n in range(5):
                assert member(bracket(Bracket.RC_TAU, f, g, n), Algebra.JS0INF)

    def test_rc_d_preserves_js(self):
        rng = random.Random(42)
        for _ in range(20):
            f = _random_form_retry(rng, 10, Algebra.JS)
            g = _random_form_retry(rng, 10, Algebra.JS)
            for n in range(5):
                assert member(bracket(Bracket.RC_D, f, g, n), Algebra.JS)

    def test_tv_preserves_jsinf0(self):
        rng = random.Random(43)
        for _ in range(20):
            f = _random_form_retry(rng, 10, Algebra.JSINF0)
            g = _random_form_retry(rng, 10, Algebra.JSINF0)
            for n in range(5):
                assert member(bracket(Bracket.TV, f, g, n), Algebra.JSINF0)
                if n >= 1:
                    assert member(bracket(Bracket.TV, f, E1, n), Algebra.JSINF0)

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.integers(1, 3))
    def test_tv_depth_bound(self, data, n):
        # Depth is (e2-degree, e1-degree).  In the (d, dz) frame of verify's
        # stability:tv/JSinf0, tv_n is a sum of words of 2n derivations d and dz,
        # each raising the depth by at most (1, 0) (structure:depth_q_calculus),
        # times derivatives of d(e1) and dz(e1), of e1-degree 0; the terms that
        # keep an e1 x 1 - 1 x e1 vanish.  So tv_n adds at most (2n, 0) on JSinf.
        f, g = (data.draw(jsinf_forms()) for _ in range(2))
        out = bracket(Bracket.TV, f, g, n)
        if out:
            (s1, s2), (t1, t2), (d1, d2) = f.depth(), g.depth(), out.depth()
            assert d1 <= s1 + t1 + 2 * n and d2 <= s2 + t2

    def test_e1_transfer_identity(self):
        # Moving a factor e1 across the slots costs only lower-order brackets.
        rng = random.Random(44)
        for _ in range(6):
            f = _random_form_retry(rng, 6, max_terms=2)
            g = _random_form_retry(rng, 6, max_terms=2)
            for n in range(1, 5):
                lhs = bracket(Bracket.TV, f * E1, g, n) - bracket(Bracket.TV, f, g * E1, n)
                rhs = f * bracket(Bracket.TV, E1, g, n) + (-1) ** (n - 1) * (
                    g * bracket(Bracket.TV, E1, f, n)
                )
                for i in range(1, n):
                    c = binomial(n, i)
                    rhs = rhs - c * bracket(Bracket.TV, bracket(Bracket.TV, f, E1, i), g, n - i)
                    rhs = rhs - c * (-1) ** (n - 1) * bracket(
                        Bracket.TV, bracket(Bracket.TV, g, E1, i), f, n - i
                    )
                assert lhs == rhs


class TestTransvectantRecurrence:
    def test_base_cases(self):
        assert transvectant_by_recurrence(WP, E1, 0) == WP * E1
        assert transvectant_by_recurrence(E2, E2, 3) == ZERO

    def test_poisson_order(self):
        got = transvectant_by_recurrence(E4, WP, 1)
        expected = derive(Derivation.DTAU, E4) * derive(Derivation.DZ, WP)
        assert got == expected  # dz(e4) = 0 kills the second term

    def test_matches_formula(self):
        rng = random.Random(51)
        for _ in range(8):
            f = _random_form_retry(rng, 6, max_terms=2)
            g = _random_form_retry(rng, 6, max_terms=2)
            for n in range(6):
                assert transvectant_by_recurrence(f, g, n) == bracket(Bracket.TV, f, g, n)

    def test_each_leaf_is_multiplied_once(self, monkeypatch):
        # Order n has n + 1 leaves (dtau^i dz^j wp, dz^i dtau^j dwp), i + j = n,
        # whose first slots differ in weight; two parents reach each inner one.
        expected = {n: bracket(Bracket.TV, WP, DWP, n) for n in range(1, 6)}
        products, mul = [], QJForm.__mul__

        def counted(self, other):
            if isinstance(other, QJForm):
                products.append(other)
            return mul(self, other)

        monkeypatch.setattr(QJForm, "__mul__", counted)
        for n in range(1, 6):
            products.clear()
            assert transvectant_by_recurrence(WP, DWP, n) == expected[n]
            assert len(products) == n + 1, n

    def test_memo_leaves_no_forms_for_the_cyclic_collector(self):
        # Whatever the call leaves unreachable must hold no form: the memo's
        # forms are freed when the call returns, not at the next collection.
        f, g = WP * E1 + E4, DWP + E2 * E1
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            assert transvectant_by_recurrence(f, g, 4) == bracket(Bracket.TV, f, g, 4)
            gc.collect()
            assert not any(isinstance(obj, QJForm) for obj in gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()


class TestStarTruncated:
    def test_order_zero(self):
        assert star_truncated(Bracket.TV, WP, E1, 0) == [WP * E1]

    def test_tv_weights(self):
        f, g = WP, E1
        heads = star_truncated(Bracket.TV, f, g, 3)
        assert heads[0] == f * g
        assert heads[1] == bracket(Bracket.TV, f, g, 1)
        assert heads[2] == F(1, 2) * bracket(Bracket.TV, f, g, 2)
        assert heads[3] == F(1, 6) * bracket(Bracket.TV, f, g, 3)

    def test_rc_unweighted(self):
        heads = star_truncated(Bracket.RC_TAU, E4, WP, 2)
        assert heads == [E4 * WP, bracket(Bracket.RC_TAU, E4, WP, 1), bracket(Bracket.RC_TAU, E4, WP, 2)]

    def test_associativity_witness_triple(self):
        f, g, h = WP, E1, E2
        for n in range(4):
            lhs = ZERO
            rhs = ZERO
            for r in range(n + 1):
                c = binomial(n, r)
                lhs = lhs + c * bracket(Bracket.TV, bracket(Bracket.TV, f, g, r), h, n - r)
                rhs = rhs + c * bracket(Bracket.TV, f, bracket(Bracket.TV, g, h, r), n - r)
            assert lhs == rhs


class TestStability:
    EXPECTED = {
        (Algebra.M, Derivation.DZ): None,
        (Algebra.M, Derivation.DTAU): "e4",
        (Algebra.M, Derivation.OB): None,
        (Algebra.MINF, Derivation.DZ): None,
        (Algebra.MINF, Derivation.DTAU): None,
        (Algebra.MINF, Derivation.OB): None,
        (Algebra.JS, Derivation.DZ): None,
        (Algebra.JS, Derivation.DTAU): "wp",
        (Algebra.JS, Derivation.OB): None,
        (Algebra.JS0INF, Derivation.DZ): "e1",
        (Algebra.JS0INF, Derivation.DTAU): "wp",
        (Algebra.JS0INF, Derivation.OB): "e1",
        (Algebra.JSINF0, Derivation.DZ): None,
        (Algebra.JSINF0, Derivation.DTAU): "wp",
        (Algebra.JSINF0, Derivation.OB): None,
        (Algebra.JSINF, Derivation.DZ): None,
        (Algebra.JSINF, Derivation.DTAU): None,
        (Algebra.JSINF, Derivation.OB): None,
    }

    @pytest.mark.parametrize("alg", list(Algebra))
    @pytest.mark.parametrize("tag", [Derivation.DZ, Derivation.DTAU, Derivation.OB])
    def test_matrix(self, alg, tag):
        expected_witness = self.EXPECTED[(alg, tag)]
        report = check_stability(alg, tag)
        assert report == StabilityReport(expected_witness is None, expected_witness)

    def test_delta_closes_everything(self):
        for alg in Algebra:
            assert check_stability(alg, Derivation.DELTA).closed

    def test_djac_row(self):
        # d = dtau + (1/4) e1 dz: stabilizes JSinf0 and Minf, not JS or JS0inf.
        assert check_stability(Algebra.JSINF0, Derivation.DJAC).closed
        assert check_stability(Algebra.MINF, Derivation.DJAC).closed
        assert check_stability(Algebra.JS, Derivation.DJAC) == StabilityReport(False, "wp")
        assert check_stability(Algebra.JS0INF, Derivation.DJAC) == StabilityReport(False, "wp")
        assert check_stability(Algebra.M, Derivation.DJAC) == StabilityReport(False, "e4")
