"""q_coefficient against the per-term loop it replaced.

The reference below is the earlier body of ``forms.q_coefficient``: every
term pays two binomials and is kept when their product is nonzero.  The
current one skips a term whose e2 exponent is below j1 or whose e1 exponent
is below j2 before any arithmetic, and answers (0, 0) with the form itself.
"""

from fractions import Fraction
from math import comb

from hypothesis import given, settings, strategies as st

from qjforms import E1, E2, WP, ZERO, QJForm, ScaledJForm, arith, forms, q_coefficient
from qjforms.forms import _E1_SHIFT, _E2_SHIFT, _FIELD_MASK, MAX_EXPONENT, ZERO_SCALED, _make

F = Fraction
TOP = MAX_EXPONENT


def ref_q(f: QJForm, j1: int, j2: int) -> ScaledJForm:
    if j1 < 0 or j2 < 0:
        return ZERO_SCALED
    sign = -1 if j1 % 2 else 1
    shift = j1 << _E2_SHIFT | j2 << _E1_SHIFT
    out: dict[int, int] = {}
    for key, n in f._num.items():
        w = arith.binomial(key >> _E2_SHIFT, j1) * arith.binomial(key >> _E1_SHIFT & _FIELD_MASK, j2)
        if w:
            out[key - shift] = n * (sign * w)
    if not out:
        return ZERO_SCALED
    return ScaledJForm(_make(out, f._den), j1 + j2)


def check(f: QJForm, j1: int, j2: int) -> ScaledJForm:
    got = q_coefficient(f, j1, j2)
    expected = ref_q(f, j1, j2)
    assert got == expected, (f, j1, j2)
    # Equal values, and both stored canonically: the form rebuilt from its terms.
    rebuilt = QJForm(got.form.terms())
    assert got.form == rebuilt and hash(got.form) == hash(rebuilt)
    assert got.c_power == (j1 + j2 if got.form else 0)
    return got


exponents = st.tuples(*(st.integers(0, 2) for _ in range(3)), st.integers(0, 6), st.integers(0, 6))
coefficients = st.builds(Fraction, st.integers(-(10**12), 10**12), st.integers(1, 10**6))
indices = st.integers(-2, 8)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(exponents, coefficients, max_size=12), indices, indices)
def test_matches_per_term_loop(terms, j1, j2):
    check(QJForm(terms), j1, j2)


def test_zero_form():
    for j1 in range(-2, 4):
        for j2 in range(-2, 4):
            assert check(ZERO, j1, j2) == ZERO_SCALED


def test_origin_is_the_form_itself():
    f = F(3, 7) * WP * E2**2 - E1**3 + 5
    got = check(f, 0, 0)
    assert got == ScaledJForm(f, 0) and got.form is f


def test_index_beyond_every_exponent_is_zero():
    f = WP * E2**3 * E1 + E2 * E1**4
    for j1, j2 in ((4, 0), (4, 1), (9, 9), (0, 5), (1, 5), (3, 2)):
        assert check(f, j1, j2) == ZERO_SCALED


def test_largest_exponents_do_not_borrow_across_fields():
    top = QJForm.monomial((TOP, TOP, TOP, TOP, TOP), F(-2, 3))
    got = check(top, TOP, TOP)
    assert got == ScaledJForm(QJForm.monomial((TOP, TOP, TOP, 0, 0), F(2, 3)), 2 * TOP)
    assert check(top, 1, TOP).form == QJForm.monomial((TOP, TOP, TOP, 0, TOP - 1), F(2 * TOP, 3))
    # A term whose e1 exponent is below j2 while its e2 exponent is at the
    # top: shifting it anyway would borrow from the e2 field.
    mixed = QJForm.monomial((0, 0, 0, 0, TOP)) + QJForm.monomial((0, 0, 0, TOP, TOP - 1))
    assert check(mixed, 1, 1).form == QJForm.monomial((0, 0, 0, TOP - 1, TOP - 2), -(TOP - 1) * TOP)
    assert check(mixed, TOP, 1) == ZERO_SCALED
    assert check(mixed, TOP, 0).form == QJForm.monomial((0, 0, 0, 0, 0), -1)


def test_weights_sharing_a_factor_with_the_denominator_are_reduced():
    # C(4, 2) = 6 and C(2, 1) = 2 cancel the denominators 6 and 2 exactly.
    f = F(1, 6) * E1**4 + F(1, 2) * E2**2 * E1**2
    got = check(f, 0, 2)
    assert got == ScaledJForm(E1**2 + F(1, 2) * E2**2, 2)
    got = check(f, 1, 1)
    assert got == ScaledJForm(-2 * E2 * E1, 2)
    assert got.form.terms() == [((0, 0, 0, 1, 1), F(-2))]


def test_huge_indices_add_no_binomial_entries():
    # An index is user input (``q(f, j1, j2)`` in the parser), and the
    # binomial memo is unbounded, so only exponents may become its keys.
    f = WP * E2**3 * E1**2 + F(1, 5) * E2 * E1**7 + E1
    before = arith.binomial.cache_info().currsize
    assert q_coefficient(f, 10**20, 0) == ZERO_SCALED
    assert q_coefficient(f, 0, 10**20) == ZERO_SCALED
    assert q_coefficient(f, 10**20, 10**20) == ZERO_SCALED
    assert arith.binomial.cache_info().currsize == before


def test_one_comb_per_distinct_exponent(monkeypatch):
    # 120 terms share e2 = TOP, and comb(TOP, 2000) alone takes over half a
    # millisecond, so a comb per term would cost a hundred times more.
    terms = {(a, b, c, d, TOP): F(a + b + 1, c + 1) for a in range(4) for b in range(3) for c in range(2) for d in range(5)}
    terms.update({(a, 0, 0, 1, 1999): a + 1 for a in range(5)})  # skipped for j1 = 2000
    terms.update({(a, 1, 0, 0, TOP - 1): a + 1 for a in range(5)})  # skipped for every j2 > 0
    f = QJForm(terms)
    calls = []

    def counting_comb(n, k):
        calls.append((n, k))
        return comb(n, k)

    monkeypatch.setattr(forms, "comb", counting_comb)
    for j1, j2 in ((2000, 1), (2000, 0), (1, 3), (TOP, 4)):
        calls.clear()
        check(f, j1, j2)
        survivors = [(e, d) for (_, _, _, d, e) in terms if e >= j1 and d >= j2]
        assert survivors
        assert len(calls) <= len({e for e, _ in survivors}) + len({d for _, d in survivors}), (j1, j2)
