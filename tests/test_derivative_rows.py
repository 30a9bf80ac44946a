"""The derivative-row memo under ``forms.leibniz``.

Each derivation table memoises one row per monomial: the monomial's whole
derivative as (key offset, multiplier) pairs.  ``derive`` must give the
reference result whether the rows are cold or warm, an overflowing
derivative must raise whether its row is new or memoised, and the memo must
stay within its bound however many monomials pass through it.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings

from qjforms import DWP, E2, E4, WP, Derivation, QJForm, calculus, derive, forms, monomials_of_weight
from qjforms.forms import DERIVATIVE_ROWS_SIZE, MAX_EXPONENT, _pack

from test_kernel import canonical, nonzero, raw_forms, ref, ref_derive


def _cold():
    derive.cache_clear()
    for table in calculus._TABLES.values():
        table.rows.clear()


@settings(max_examples=100, deadline=None)
@given(raw_forms)
def test_derive_matches_reference_with_rows_cold_and_warm(a):
    f, a = QJForm(a), nonzero(a)
    _cold()
    for tag in Derivation:
        rows = calculus._TABLES[tag].rows
        expected = ref_derive(tag, a)
        cold = derive(tag, f)
        assert ref(cold) == expected, tag
        canonical(cold)
        # Every monomial of f now has its row, and clearing derive leaves them.
        assert len(rows) == len(f)
        derive.cache_clear()
        assert len(rows) == len(f)
        warm = derive(tag, f)
        assert ref(warm) == expected and warm == cold, tag
        assert len(rows) == len(f)


@pytest.mark.parametrize(
    "tag, expos",
    [
        # dz(dwp) holds wp^2; dtau(e2), ob(e2) and d(e2) hold e2^2.
        (Derivation.DZ, (MAX_EXPONENT, 1, 0, 0, 0)),
        (Derivation.DTAU, (0, 0, 0, 0, MAX_EXPONENT)),
        (Derivation.OB, (0, 0, 0, 0, MAX_EXPONENT)),
        (Derivation.DJAC, (0, 0, 0, 0, MAX_EXPONENT)),
    ],
)
def test_overflow_raises_with_the_row_new_and_memoised(tag, expos):
    _cold()
    f = QJForm.monomial(expos, Fraction(2, 3))
    rows = calculus._TABLES[tag].rows
    with pytest.raises(ValueError, match=f"exponent above {MAX_EXPONENT}"):
        derive(tag, f)
    assert _pack(expos) in rows
    for _ in range(2):
        with pytest.raises(ValueError, match=f"exponent above {MAX_EXPONENT}"):
            derive(tag, f)
        derive.cache_clear()
    assert len(rows) == 1


def test_empty_rows_are_memoised(monkeypatch):
    # dz kills e4 and e2, so the row of e4^3*e2 is empty, and a later call
    # must read it as a hit, not build it again.
    _cold()
    f = WP**2 + E4**3 * E2
    derive(Derivation.DZ, f)
    rows = calculus._TABLES[Derivation.DZ].rows
    assert rows[_pack((0, 0, 3, 0, 1))] == ()
    ((offset, mult),) = rows[_pack((2, 0, 0, 0, 0))]
    assert (_pack((2, 0, 0, 0, 0)) + offset, mult) == (_pack((1, 1, 0, 0, 0)), 2)
    built = []
    row = forms.ImageTable.row
    monkeypatch.setattr(forms.ImageTable, "row", lambda table, key: built.append(key) or row(table, key))
    derive.cache_clear()
    assert derive(Derivation.DZ, f) == 2 * WP * DWP
    assert built == []


def _feed_rising_weights(tag, bound):
    # One form per weight holding all its monomials, until more distinct
    # monomials than the bound have passed through the table.
    rows = calculus._TABLES[tag].rows
    fed = k = 0
    while fed <= bound:
        monos = monomials_of_weight(k)
        f = QJForm({m: Fraction(1 + i % 7, 1 + i % 3) for i, m in enumerate(monos)})
        derive.cache_clear()
        assert ref(derive(tag, f)) == ref_derive(tag, dict(f.terms())), k
        assert len(rows) <= bound
        fed += len(monos)
        k += 1


def test_rows_stay_within_the_bound():
    _cold()
    _feed_rising_weights(Derivation.DZ, DERIVATIVE_ROWS_SIZE)


@pytest.mark.parametrize("tag", list(Derivation))
def test_a_small_bound_empties_the_rows_mid_call(tag, monkeypatch):
    # With room for 7 rows a weight-10 form (55 monomials) empties the memo
    # several times within one call.
    monkeypatch.setattr(forms, "DERIVATIVE_ROWS_SIZE", 7)
    _cold()
    _feed_rising_weights(tag, 7 * 20)
    _cold()
