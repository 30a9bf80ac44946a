"""The series storage (integer numerators over one denominator) against a Fraction-dict reference.

The reference below is the series arithmetic as it was when a series stored
one ``Fraction`` per coefficient.  It shares no code with ``qjforms.series``.
"""

import random
from fractions import Fraction
from math import gcd
from typing import NamedTuple

from hypothesis import given, settings, strategies as st

from qjforms import (
    BigradedSeries,
    PrecisionError,
    SeriesDerivation,
    eisenstein_qseries,
    expand,
    series_add,
    series_derive,
    series_equal,
    series_mul,
    series_scale,
)
from qjforms.verify import _random_form_retry

F = Fraction


class Ref(NamedTuple):
    weight: int
    q_prec: int
    u_val: int
    u_max: int
    coeffs: dict  # (m, n) -> nonzero Fraction


def ref_add(a: Ref, b: Ref) -> Ref:
    if a.weight != b.weight:
        if not a.coeffs:
            a = a._replace(weight=b.weight)
        elif not b.coeffs:
            b = b._replace(weight=a.weight)
        else:
            raise ValueError("weight mismatch in series addition")
    q_prec = min(a.q_prec, b.q_prec)
    u_val = min(a.u_val, b.u_val)
    u_max = min(a.u_max, b.u_max)
    if u_val > u_max:
        raise PrecisionError("sum has an empty u-window")
    out: dict = {}
    for src in (a.coeffs, b.coeffs):
        for (m, n), c in src.items():
            if m < q_prec and n <= u_max:
                acc = out.get((m, n), 0) + c
                if acc:
                    out[(m, n)] = acc
                elif (m, n) in out:
                    del out[(m, n)]
    return Ref(a.weight, q_prec, u_val, u_max, out)


def ref_mul(a: Ref, b: Ref) -> Ref:
    q_prec = min(a.q_prec, b.q_prec)
    u_val = a.u_val + b.u_val
    u_max = min(a.u_val + b.u_max, b.u_val + a.u_max)
    if u_val > u_max:
        raise PrecisionError("product has an empty u-window")
    out: dict = {}
    for (m1, n1), c1 in a.coeffs.items():
        if m1 >= q_prec:
            continue
        for (m2, n2), c2 in b.coeffs.items():
            m = m1 + m2
            n = n1 + n2
            if m >= q_prec or n > u_max:
                continue
            acc = out.get((m, n), 0) + c1 * c2
            if acc:
                out[(m, n)] = acc
            elif (m, n) in out:
                del out[(m, n)]
    return Ref(a.weight + b.weight, q_prec, u_val, u_max, out)


def ref_scale(r, a: Ref) -> Ref:
    r = Fraction(r)
    return a._replace(coeffs={k: r * c for k, c in a.coeffs.items()} if r else {})


def ref_derive(which: SeriesDerivation, a: Ref) -> Ref:
    if which is SeriesDerivation.DU:
        out = {(m, n - 1): n * c for (m, n), c in a.coeffs.items() if n}
        return Ref(a.weight + 1, a.q_prec, a.u_val - 1, a.u_max - 1, out)
    out = {(m, n): m * c for (m, n), c in a.coeffs.items() if m}
    return Ref(a.weight + 2, a.q_prec, a.u_val, a.u_max, out)


def ref_equal(a: Ref, b: Ref, min_window: int) -> bool:
    if a.weight != b.weight and a.coeffs and b.coeffs:
        raise ValueError("weight mismatch in series comparison")
    q_prec = min(a.q_prec, b.q_prec)
    lo = min(a.u_val, b.u_val)
    hi = min(a.u_max, b.u_max)
    if hi - lo + 1 < min_window:
        raise PrecisionError("common window too narrow")
    keys = {k for k in (*a.coeffs, *b.coeffs) if k[0] < q_prec and k[1] <= hi}
    return all(a.coeffs.get(k, 0) == b.coeffs.get(k, 0) for k in keys)


# ---------------------------------------------------------------------------


def assert_canonical(s: BigradedSeries) -> None:
    # The private storage is read here on purpose: this is its contract.
    nums, den = s._coeffs, s._denom
    assert type(den) is int and den > 0
    assert all(type(c) is int and c for c in nums.values())
    assert gcd(den, *nums.values()) == 1
    items = s.items()
    assert all(type(c) is Fraction for _, c in items)
    rebuilt = BigradedSeries(s.weight, s.q_prec, s.u_val, s.u_max, items)
    assert (rebuilt._coeffs, rebuilt._denom) == (nums, den)
    for m in range(s.q_prec):
        for n in range(s.u_val, s.u_max + 1):
            c = s.coefficient(m, n)
            assert type(c) is Fraction and c == dict(items).get((m, n), 0)


def as_ref(s: BigradedSeries) -> Ref:
    assert_canonical(s)
    return Ref(s.weight, s.q_prec, s.u_val, s.u_max, dict(s.items()))


def outcome(fn, *args):
    # The value, or the type of the exception: both sides must agree on either.
    try:
        return fn(*args)
    except (ValueError, ArithmeticError) as exc:
        return type(exc)


DENOMINATORS = st.one_of(st.integers(1, 12), st.integers(1, 10**12), st.integers(10**11, 10**12))
VALUES = st.one_of(
    st.sampled_from([F(0), F(1), F(-1), F(1, 2), F(-1, 2), F(2, 3)]),
    st.builds(Fraction, st.integers(-(10**6), 10**6), DENOMINATORS),
)


@st.composite
def windowed(draw, base=None, sign=-1, q_top=3, span_top=4):
    # A window with negative u-valuations and q_prec down to 1.  Without a
    # base it holds any coefficients (zeros included, which the constructor
    # drops), or, for spans past 4, now and then one in every cell.  With a
    # base it has the base's weight, a window near the base's, and sign
    # times the base's coefficients in that window: only those for sign 1,
    # over random ones for sign -1.
    q_prec = draw(st.integers(1, q_top))
    u_val = draw(st.integers(-4, 2) if base is None else st.integers(base.u_val - 1, base.u_val + 1))
    u_max = u_val + draw(st.integers(0, span_top))
    cells = [(m, n) for m in range(q_prec) for n in range(u_val, u_max + 1)]
    if sign == 1:
        data = {}
    elif span_top > 4 and draw(st.booleans()):
        data = dict(zip(cells, draw(st.lists(VALUES, min_size=len(cells), max_size=len(cells)))))
    else:
        data = draw(st.dictionaries(st.sampled_from(cells), VALUES, max_size=len(cells)))
    for (m, n), c in (base.coeffs if base else {}).items():
        if m < q_prec and u_val <= n <= u_max:
            data[(m, n)] = sign * c
    w = draw(st.integers(0, 1)) if base is None else base.weight
    ref = Ref(w, q_prec, u_val, u_max, {k: c for k, c in data.items() if c})
    return BigradedSeries(w, q_prec, u_val, u_max, data), ref


@st.composite
def pairs(draw):
    # The second operand is independent, or copies the first on its own
    # window (so equality holds there), or negates it (so sums cancel).
    a, ra = draw(windowed())
    mode = draw(st.sampled_from(["independent", "copy", "negate"]))
    if mode == "independent":
        return a, ra, *draw(windowed())
    return a, ra, *draw(windowed(ra, 1 if mode == "copy" else -1))


class TestAgainstFractionReference:
    @settings(max_examples=150, deadline=None)
    @given(pairs())
    def test_add(self, pair):
        a, ra, b, rb = pair
        assert outcome(lambda: as_ref(series_add(a, b))) == outcome(ref_add, ra, rb)
        assert outcome(lambda: as_ref(series_add(b, a))) == outcome(ref_add, rb, ra)

    @settings(max_examples=150, deadline=None)
    @given(pairs())
    def test_mul(self, pair):
        a, ra, b, rb = pair
        assert outcome(lambda: as_ref(series_mul(a, b))) == outcome(ref_mul, ra, rb)
        assert outcome(lambda: as_ref(series_mul(b, a))) == outcome(ref_mul, rb, ra)

    @settings(max_examples=150, deadline=None)
    @given(windowed(q_top=6, span_top=10), windowed(q_top=6, span_top=10))
    def test_mul_wide_windows(self, left, right):
        # Each operand has its own q_prec up to 6 and a span up to 10, so the
        # q- and u-cuts of the product window fall inside the other's rows.
        (a, ra), (b, rb) = left, right
        assert outcome(lambda: as_ref(series_mul(a, b))) == outcome(ref_mul, ra, rb)
        assert outcome(lambda: as_ref(series_mul(b, a))) == outcome(ref_mul, rb, ra)

    @settings(max_examples=100, deadline=None)
    @given(windowed(), VALUES | st.integers(-5, 5))
    def test_scale(self, operand, r):
        a, ra = operand
        assert as_ref(series_scale(r, a)) == ref_scale(r, ra)
        assert as_ref(r * a) == ref_scale(r, ra)

    @settings(max_examples=100, deadline=None)
    @given(windowed(), st.sampled_from(list(SeriesDerivation)))
    def test_derive(self, operand, which):
        a, ra = operand
        assert as_ref(series_derive(which, a)) == ref_derive(which, ra)

    @settings(max_examples=150, deadline=None)
    @given(pairs(), st.integers(1, 6))
    def test_equal(self, pair, min_window):
        a, ra, b, rb = pair
        assert outcome(series_equal, a, b, min_window) == outcome(ref_equal, ra, rb, min_window)

    @settings(max_examples=50, deadline=None)
    @given(windowed(), DENOMINATORS)
    def test_cancellation(self, operand, d):
        a, _ = operand
        zero = series_add(a, series_scale(-1, a))
        assert zero.is_zero() and as_ref(zero).coeffs == {}
        # The same value reached through other denominators compares equal.
        assert series_equal(a, series_scale(F(1, d), series_scale(d, a)), 1)
        assert series_equal(series_scale(F(1, d), a), series_mul(a, BigradedSeries(0, 4, 0, 0, {(0, 0): F(1, d)})), 1)


class TestResultsAreCanonical:
    def test_eisenstein_qseries(self):
        for k in range(2, 16, 2):
            for q_prec in range(1, 5):
                assert_canonical(eisenstein_qseries(k, q_prec))

    def test_expand(self):
        rng = random.Random(71)
        for _ in range(30):
            f = _random_form_retry(rng, rng.randint(1, 8))
            q_prec, u_max = rng.choice([(1, 4), (3, 6), (6, 12), (2, 0)])
            try:
                s = expand(f, q_prec, u_max)
            except PrecisionError:
                continue
            assert_canonical(s)
            assert_canonical(series_derive(SeriesDerivation.DU, s))
            assert_canonical(series_mul(s, s))
        assert_canonical(expand(f - f, 2, 3))
