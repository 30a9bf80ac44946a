"""The fused series routines against the step-by-step constructions they replaced.

``expand`` sums every term in one pass, and a monomial series is a product
of memoised generator powers.  The references below restate how both were
built before: a monomial as a chain of truncated products, one generator
factor at a time, from the identity series, and a form as a running
``series_add`` of scaled monomial series.  They build the generator series
from the public Eisenstein q-series and share no code with the memos.
"""

import math
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from qjforms import (
    E1,
    WP,
    BigradedSeries,
    Derivation,
    PrecisionError,
    QJForm,
    SeriesDerivation,
    derive,
    eisenstein_qseries,
    expand,
    monomials_of_weight,
    series_add,
    series_derive,
    series_mul,
    series_scale,
)
from qjforms import arith, series

WINDOWS = [(1, 0), (1, -2), (3, 6), (8, 16)]


def storage(s: BigradedSeries) -> tuple:
    # The private storage is read on purpose: results must be identical in it.
    return s.weight, s.q_prec, s.u_val, s.u_max, s._coeffs, s._denom


def outcome(fn, *args):
    try:
        return storage(fn(*args))
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


def _ee(k: int, q_prec: int) -> dict:
    return dict(eisenstein_qseries(k, q_prec).items())


def ref_generators(q_prec: int, span: int) -> list[BigradedSeries]:
    # wp = u^-2 + sum_{n >= 1} (2n+1) ee_{2n+2} u^(2n) and e1 = u^-1 -
    # sum_{n >= 0} ee_{2n+2} u^(2n+1), each on span + 1 exponents from its
    # valuation; dwp is the u-derivative of wp on one more exponent.
    def wp(width):
        out = {(0, -2): 1}
        for n in range(2, width - 1, 2):
            out.update({(m, n): (n + 1) * c for (m, _), c in _ee(n + 2, q_prec).items()})
        return BigradedSeries(2, q_prec, -2, -2 + width, out)

    e1 = {(0, -1): 1}
    for n in range(1, span, 2):
        e1.update({(m, n): -c for (m, _), c in _ee(n + 1, q_prec).items()})
    return [
        wp(span),
        series_derive(SeriesDerivation.DU, wp(span + 1)),
        BigradedSeries(4, q_prec, 0, span, _ee(4, q_prec)),
        BigradedSeries(1, q_prec, -1, -1 + span, e1),
        BigradedSeries(2, q_prec, 0, span, _ee(2, q_prec)),
    ]


@cache
def ref_monomial(expos: tuple, q_prec: int, u_max: int) -> BigradedSeries:
    a, b, _, d, _ = expos
    u_val = -2 * a - 3 * b - d
    span = u_max - u_val
    if span < 0:
        raise PrecisionError(f"u_max={u_max} cannot reach the monomial valuation {u_val}")
    out = BigradedSeries(0, q_prec, 0, span, {(0, 0): 1})
    for power, base in zip(expos, ref_generators(q_prec, span)):
        for _ in range(power):
            out = series_mul(out, base)
    return out


def ref_expand(f: QJForm, q_prec: int, u_max: int) -> BigradedSeries:
    if q_prec < 1:
        raise PrecisionError("q_prec must be at least 1")
    if len(f.weight_components()) > 1:
        raise ValueError("expand requires a weight-homogeneous form; split it first")
    total = BigradedSeries(0, q_prec, min(0, u_max), u_max)
    for expos, coeff in f.terms():
        total = series_add(total, series_scale(coeff, ref_monomial(expos, q_prec, u_max)))
    return total


def valuation(expos: tuple) -> int:
    return -2 * expos[0] - 3 * expos[1] - expos[3]


COEFFS = st.builds(
    Fraction,
    st.integers(-(10**12), 10**12).filter(bool),
    st.one_of(st.integers(1, 12), st.integers(1, 10**12)),
)


@st.composite
def forms(draw):
    # Weight <= 8 with <= 5 terms (weight 0: the constants), the zero form,
    # and now and then one term of another weight, which expand rejects
    # before any window is looked at.
    w = draw(st.integers(0, 8))
    monos = draw(st.lists(st.sampled_from(monomials_of_weight(w)), max_size=5, unique=True))
    if draw(st.integers(0, 9)) == 0:
        monos.append(draw(st.sampled_from(monomials_of_weight(w + 1))))
    return QJForm({m: draw(COEFFS) for m in monos})


class TestFusedExpand:
    @settings(max_examples=200, deadline=None)
    @given(forms(), st.sampled_from(WINDOWS))
    def test_matches_per_term_sum(self, f, window):
        assert outcome(expand, f, *window) == outcome(ref_expand, f, *window)

    @pytest.mark.parametrize("window", WINDOWS)
    def test_zero_and_constants(self, window):
        for f in (QJForm(), QJForm({(0,) * 5: 1}), QJForm({(0,) * 5: Fraction(-7, 10**12)})):
            assert outcome(expand, f, *window) == outcome(ref_expand, f, *window)
        assert expand(QJForm(), *window).weight == 0

    def test_below_a_valuation_raises_the_first_terms_error(self):
        # Weight 6 with valuations 0, -2, -6, -6: the first term in the
        # canonical order of terms() whose valuation u_max misses names it.
        f = QJForm({(0, 0, 0, 0, 3): 1, (0, 0, 1, 2, 0): 5, (0, 2, 0, 0, 0): Fraction(1, 3), (3, 0, 0, 0, 0): -1})
        for u_max in (-7, -3, -1):
            got = outcome(expand, f, 2, u_max)
            assert got == outcome(ref_expand, f, 2, u_max)
            assert got[0] is PrecisionError


class TestGeneratorPowers:
    def test_monomials_up_to_weight_10(self):
        checked = 0
        for w in range(11):
            for expos in monomials_of_weight(w):
                v = valuation(expos)
                for q_prec, u_max in ((1, v), (1, v - 1), (3, 0), (8, 16)):
                    got = outcome(series._monomial_series, expos, q_prec, u_max)
                    assert got == outcome(ref_monomial, expos, q_prec, u_max), (expos, q_prec, u_max)
                    checked += 1
        assert checked == 4 * sum(len(monomials_of_weight(w)) for w in range(11))

    def test_power_window_and_weight(self):
        # The p-th power of wp on span + 1 exponents: weight 2p, valuation -2p.
        s = series._generator_power(0, 4, 3, 5)
        assert (s.weight, s.q_prec, s.u_val, s.u_max) == (8, 3, -8, -3)

    def test_high_power_from_a_cold_memo(self):
        # Powers are built by squaring, so a cold p = 5000 recurses about
        # 2 log2 p levels deep, not p.
        series._generator_power.cache_clear()
        s = series._generator_power(0, 5000, 1, 0)
        assert (s.weight, s.u_val, s.u_max, s.items()) == (10000, -10000, -10000, [((0, -10000), 1)])

    @pytest.mark.parametrize("expos", [(40, 0, 0, 0, 0), (0, 0, 0, 41, 0)])
    def test_high_power_matches_repeated_products(self, expos):
        # An even and an odd power, each from cleared memos, against the
        # chain of one-factor products; a power p leaves at most
        # 2 ceil(log2 p) entries in the power memo.
        series._monomial_series.cache_clear()
        series._generator_power.cache_clear()
        u_max = valuation(expos) + 6
        assert storage(series._monomial_series(expos, 2, u_max)) == storage(ref_monomial(expos, 2, u_max))
        assert series._generator_power.cache_info().currsize <= 2 * math.ceil(math.log2(max(expos)))


# The memoised functions of series.py, with the largest working set seen in
# the benchmark's series items and in `qjalg verify oracle`.
MEMOS = ("_monomial_series", "_generator_power")


def _oracle_sweep() -> None:
    # The shape of the benchmark's series items at q_prec 8, u_max 16:
    # products of weight <= 8 and the dz/dtau images of forms of weight <= 6.
    for w in range(9):
        for expos in monomials_of_weight(w):
            f = QJForm({expos: 1})
            expand(f)
            if w <= 6:
                expand(derive(Derivation.DZ, f))
                expand(derive(Derivation.DTAU, f))


class TestMemoBounds:
    def test_every_memo_is_bounded(self):
        memos = {
            name for name, fn in vars(series).items()
            if hasattr(fn, "cache_parameters") and fn.__module__ == series.__name__
        }
        assert memos == set(MEMOS)
        for name in MEMOS:
            maxsize = getattr(series, name).cache_parameters()["maxsize"]
            assert maxsize is not None and maxsize > 0, name

    def test_sweep_misses_as_unbounded(self):
        # A memo that never evicts misses once per distinct key, as an
        # unbounded one does; a second sweep then misses nowhere.
        memos = [getattr(series, name) for name in MEMOS]
        for fn in memos:
            fn.cache_clear()
        _oracle_sweep()
        first = [fn.cache_info() for fn in memos]
        for name, info in zip(MEMOS, first):
            assert info.misses == info.currsize < info.maxsize, (name, info)
        _oracle_sweep()
        assert [fn.cache_info().misses for fn in memos] == [info.misses for info in first]

    def test_arith_memos_serve_the_eisenstein_constants(self):
        # wp to u^6 reads ee_4, ee_6, ee_8 at q^0..q^2: three Bernoulli
        # numbers and six divisor sums.  Series keeps no memo in front of
        # arith, so wp to u^10 finds all nine in the arith memos.
        for fn in (arith.sigma, arith.bernoulli, series._generator_power, series._monomial_series):
            fn.cache_clear()
        expand(WP, 3, 6)
        expand(WP, 3, 10)
        assert (arith.sigma.cache_info().hits, arith.bernoulli.cache_info().hits) == (6, 3)


class TestTopWeightFirst:
    # The Laurent generators ask _eisenstein_coeff for their top weight first,
    # so a cold Bernoulli table is built once, at the size asked: B_0..B_k for
    # the top weight k, and no table built on the way up is left behind.
    @pytest.fixture(autouse=True)
    def cold_tables(self, monkeypatch):
        monkeypatch.setattr(arith, "_even_bernoulli", [])
        for fn in (arith.bernoulli, series._generator_power, series._monomial_series):
            fn.cache_clear()

    def test_e1_builds_the_table_once(self):
        # u^399 is the top of e1's window: ee_400, so B_0..B_400.
        expand(E1, 1, 400)
        assert len(arith._even_bernoulli) == 201

    def test_wp_builds_the_table_once(self):
        # u^400 is the top of wp's window: 401 ee_402, so B_0..B_402.
        expand(WP, 1, 400)
        assert len(arith._even_bernoulli) == 202
