"""Differential test of the packed, fraction-free QJForm kernel.

The reference below is the plain dict-of-Fraction arithmetic on exponent
tuples, restated independently of ``qjforms.forms``: sums, products, the
Leibniz rule on generator images, the defining formulas of OB, DJAC and
DELTA per weight component, and the brackets as a term-by-term accumulation
over derivative towers.  Forms enter and leave it through ``terms()``.
"""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from qjforms import DWP, E1, E2, WP, ZERO, Bracket, Derivation, QJForm, bracket, derive, q_coefficient
from qjforms.forms import MAX_EXPONENT, sum_of_products
from qjforms.parser import parse_and_evaluate

F = Fraction
WEIGHTS = (2, 3, 4, 1, 2)
WP_, DWP_, E4_, E1_, E2_ = ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 1))

# Generator images of dz and dtau, indexed (wp, dwp, e4, e1, e2).
REF_DZ = [
    {DWP_: F(1)},
    {(2, 0, 0, 0, 0): F(6), E4_: F(-30)},
    {},
    {WP_: F(-1), E2_: F(-1)},
    {},
]
REF_DTAU = [
    {(0, 1, 0, 1, 0): F(-1, 4), (2, 0, 0, 0, 0): F(-1, 2), (1, 0, 0, 0, 1): F(1, 2), E4_: F(5)},
    {(0, 0, 1, 1, 0): F(15, 2), (2, 0, 0, 1, 0): F(-3, 2), (0, 1, 0, 0, 1): F(3, 4), (1, 1, 0, 0, 0): F(-3, 4)},
    {(3, 0, 0, 0, 0): F(-1, 10), (0, 2, 0, 0, 0): F(1, 40), (1, 0, 1, 0, 0): F(3, 2), (0, 0, 1, 0, 1): F(1)},
    {(0, 0, 0, 1, 1): F(1, 4), (1, 0, 0, 1, 0): F(1, 4), DWP_: F(1, 8)},
    {(0, 0, 0, 0, 2): F(1, 4), E4_: F(-5, 4)},
]


# -- reference: dict[exponent tuple, Fraction] with no zero values ---------

def ref(f: QJForm) -> dict:
    return dict(f.terms())


def _acc(out: dict, key: tuple, value: Fraction) -> None:
    total = out.get(key, 0) + value
    if total:
        out[key] = total
    else:
        out.pop(key, None)


def ref_add(a: dict, b: dict, sign: int = 1) -> dict:
    out = dict(a)
    for e, c in b.items():
        _acc(out, e, sign * c)
    return out


def ref_scale(r: Fraction, a: dict) -> dict:
    return {e: r * c for e, c in a.items()} if r else {}


def ref_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            _acc(out, tuple(x + y for x, y in zip(e1, e2)), c1 * c2)
    return out


def ref_leibniz(images: list, a: dict) -> dict:
    out: dict = {}
    for e, c in a.items():
        for gi, p in enumerate(e):
            if p:
                base = list(e)
                base[gi] -= 1
                for ie, ic in images[gi].items():
                    _acc(out, tuple(x + y for x, y in zip(base, ie)), c * p * ic)
    return out


def ref_components(a: dict) -> dict:
    comps: dict = {}
    for e, c in a.items():
        comps.setdefault(sum(w * p for w, p in zip(WEIGHTS, e)), {})[e] = c
    return comps


def ref_derive(tag: Derivation, a: dict) -> dict:
    if tag is Derivation.DZ:
        return ref_leibniz(REF_DZ, a)
    if tag is Derivation.DTAU:
        return ref_leibniz(REF_DTAU, a)
    if tag is Derivation.DJAC:
        return ref_add(ref_leibniz(REF_DTAU, a), ref_scale(F(1, 4), ref_mul({E1_: F(1)}, ref_leibniz(REF_DZ, a))))
    out: dict = {}
    for k, comp in ref_components(a).items():
        if tag is Derivation.DELTA:
            out = ref_add(out, ref_scale(F(k, 2), comp))
        else:  # OB, per weight component
            term = ref_add(ref_scale(F(4), ref_leibniz(REF_DTAU, comp)), ref_mul({E1_: F(1)}, ref_leibniz(REF_DZ, comp)))
            out = ref_add(out, ref_add(term, ref_scale(F(k), ref_mul({E2_: F(1)}, comp)), -1))
    return out


def ref_q(a: dict, j1: int, j2: int) -> dict:
    out: dict = {}
    for (p, b, c, d, e), coeff in a.items():
        w = comb(e, j1) * comb(d, j2)
        if w:
            _acc(out, (p, b, c, d - j2, e - j1), coeff * (-1) ** j1 * w)
    return out


def ref_bracket(tag: Bracket, a: dict, b: dict, n: int) -> dict:
    """The n-th bracket accumulated one product at a time, from reference towers."""
    if n == 0:
        return ref_mul(a, b)

    def tower(d, h):
        out = [h]
        for _ in range(n):
            out.append(ref_derive(d, out[-1]))
        return out

    out: dict = {}
    if tag is Bracket.TV:
        fdz, gdz = tower(Derivation.DZ, a), tower(Derivation.DZ, b)
        for r in range(n + 1):
            fs, gs = fdz[r], gdz[n - r]  # then dtau^(n-r) dz^r f and dtau^r dz^(n-r) g
            for _ in range(n - r):
                fs = ref_derive(Derivation.DTAU, fs)
            for _ in range(r):
                gs = ref_derive(Derivation.DTAU, gs)
            out = ref_add(out, ref_scale(F((-1) ** r * comb(n, r)), ref_mul(fs, gs)))
        return out
    d = Derivation.DTAU if tag is Bracket.RC_TAU else Derivation.DJAC
    gtowers = [(l, tower(d, gc)) for l, gc in ref_components(b).items()]
    for k, fc in ref_components(a).items():
        ft = tower(d, fc)
        for l, gt in gtowers:
            for r in range(n + 1):
                coeff = (-1) ** r * comb(k + n - 1, n - r) * comb(l + n - 1, r)
                out = ref_add(out, ref_scale(F(coeff), ref_mul(ft[r], gt[n - r])))
    return out


# -- strategies --------------------------------------------------------------

exponents = st.tuples(*(st.integers(0, 3) for _ in range(5)))
# Zero coefficients are allowed: the constructor must drop them.
coefficients = st.builds(Fraction, st.integers(-(10**15), 10**15), st.integers(1, 10**12))
raw_forms = st.dictionaries(exponents, coefficients, max_size=8)


@st.composite
def form_pairs(draw):
    """Two forms; the second may cancel all or part of the first."""
    a = draw(raw_forms)
    b = draw(raw_forms)
    mode = draw(st.sampled_from(("free", "negated", "partial")))
    if mode == "negated":
        b = {e: -c for e, c in a.items()}
    elif mode == "partial":
        b = {**b, **{e: -c for e, c in a.items() if draw(st.booleans())}}
    return a, b


def nonzero(a: dict) -> dict:
    return {e: c for e, c in a.items() if c}


def canonical(x: QJForm) -> None:
    """x is stored canonically: equal to, and hashed like, the form rebuilt from its terms.

    A form built from nonzero reduced fractions over their lcm has gcd 1, so
    a stored zero numerator or an unreduced gcd makes the two unequal.
    """
    terms = x.terms()
    assert all(c for _, c in terms)
    rebuilt = QJForm(terms)
    assert x == rebuilt and hash(x) == hash(rebuilt)


# Zero scalars and zero forms are allowed: they contribute nothing.
scalars = st.integers(-6, 6) | coefficients


@st.composite
def triple_lists(draw):
    """(scalar, form, form) triples with mixed denominators; they may cancel to zero."""
    triples = draw(st.lists(st.tuples(scalars, raw_forms, raw_forms), max_size=5))
    if draw(st.booleans()):
        triples += [(s, b, {e: -c for e, c in a.items()}) for s, a, b in triples]
    return triples


small_forms = st.dictionaries(st.tuples(*(st.integers(0, 1) for _ in range(5))), coefficients, max_size=3)

# Lopsided operands: the product loops over the smaller one, whichever side it is on.
long_forms = st.dictionaries(exponents, coefficients, min_size=20, max_size=60)
short_forms = st.dictionaries(exponents, coefficients, max_size=5)


# -- differential tests ------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(form_pairs(), coefficients | st.integers(-3, 3))
def test_ring_operations_match_reference(pair, r):
    f, g = QJForm(pair[0]), QJForm(pair[1])
    a, b = nonzero(pair[0]), nonzero(pair[1])
    assert ref(f) == a and ref(g) == b
    assert ref(f + g) == ref_add(a, b)
    assert ref(f - g) == ref_add(a, b, -1)
    assert ref(f * g) == ref_mul(a, b)
    assert ref(r * f) == ref(f * r) == ref_scale(F(r), a)
    assert ref(-f) == ref_scale(F(-1), a)
    assert len(f * g) == len(ref_mul(a, b))
    for x in (f + g, f - g, -f, r * f, f * r, f * g):
        canonical(x)
    h = f + g
    parts = h.weight_components()
    assert {k: ref(part) for k, part in parts} == ref_components(ref(h))
    for _, part in parts:
        canonical(part)


@settings(max_examples=100, deadline=None)
@given(triple_lists())
def test_sum_of_products_matches_reference(triples):
    got = sum_of_products((s, QJForm(a), QJForm(b)) for s, a, b in triples)
    expected: dict = {}
    for s, a, b in triples:
        expected = ref_add(expected, ref_scale(F(s), ref_mul(nonzero(a), nonzero(b))))
    assert ref(got) == expected
    canonical(got)


@settings(max_examples=40, deadline=None)
@given(long_forms, short_forms, st.integers(-6, 6).filter(bool), st.lists(st.tuples(scalars, raw_forms, raw_forms), max_size=3))
def test_lopsided_products_match_reference(long, short, s, rest):
    f, g, a, b = QJForm(long), QJForm(short), nonzero(long), nonzero(short)
    expected = ref_mul(a, b)
    for x in (f * g, g * f):
        assert ref(x) == expected
        canonical(x)
    for x in (f * ZERO, ZERO * f, g * ZERO, ZERO * g, sum_of_products([(1, f, ZERO), (1, ZERO, g)])):
        assert x == ZERO and ref(x) == {}
    # In a sum of products only the first triple lands in an empty accumulator.
    for first in ((s, long, short), (s, short, long)):
        triples = [first, *rest]
        got = sum_of_products((t, QJForm(x), QJForm(y)) for t, x, y in triples)
        total: dict = {}
        for t, x, y in triples:
            total = ref_add(total, ref_scale(F(t), ref_mul(nonzero(x), nonzero(y))))
        assert ref(got) == total
        canonical(got)


def _assert_operands_unchanged(operands, run):
    copies = [QJForm(f.terms()) for f in operands]
    for x in run():
        canonical(x)
    for f, copy in zip(operands, copies):
        assert f.terms() == copy.terms()
        assert f == copy and hash(f) == hash(copy)


def _every_operation(f, g, r):
    results = [f * g, g * f, f + g, f - g, g - f, r * f, f * r]
    results += [part for _, part in f.weight_components() + (f + g).weight_components()]
    results.append(sum_of_products([(r, f, g), (1, g, f), (2, f, f)]))
    results += [derive(tag, f) for tag in Derivation]
    results += [q_coefficient(f, j1, j2).form for j1 in range(3) for j2 in range(3)]
    return results


def test_operations_leave_their_operands_unchanged():
    # Nearly every unreduced result here shares a factor above 1 with its
    # denominator (f + g and f - g do for g = -f), so its fresh dict is
    # divided in place; no operand's storage may change with it.
    f = F(1, 6) * E1**4 + F(1, 2) * E2**2 * E1**2 + F(1, 3) * WP
    g = 6 * WP * E1 + 2 * E2
    _assert_operands_unchanged((f, g), lambda: _every_operation(f, g, 2))
    _assert_operands_unchanged((f, -f), lambda: _every_operation(f, -f, F(3, 2)))


@settings(max_examples=100, deadline=None)
@given(form_pairs(), coefficients.filter(bool) | st.integers(-3, 3))
def test_random_operations_leave_their_operands_unchanged(pair, r):
    f, g = QJForm(pair[0]), QJForm(pair[1])
    _assert_operands_unchanged((f, g), lambda: _every_operation(f, g, r))


@settings(max_examples=25, deadline=None)
@given(small_forms, small_forms, st.integers(0, 5))
def test_brackets_match_accumulated_reference(a, b, n):
    # Mixed-weight forms: the Rankin-Cohen brackets split them into components.
    f, g, a, b = QJForm(a), QJForm(b), nonzero(a), nonzero(b)
    for tag in Bracket:
        got = bracket(tag, f, g, n)
        assert ref(got) == ref_bracket(tag, a, b, n), (tag, n)
        canonical(got)


@settings(max_examples=150, deadline=None)
@given(raw_forms)
def test_derivations_match_reference(a):
    f, a = QJForm(a), nonzero(a)
    for tag in Derivation:
        got = derive(tag, f)
        assert ref(got) == ref_derive(tag, a), tag
        canonical(got)


@settings(max_examples=150, deadline=None)
@given(raw_forms, st.integers(-1, 4), st.integers(-1, 4))
def test_q_coefficient_matches_reference(a, j1, j2):
    got = q_coefficient(QJForm(a), j1, j2)
    expected = ref_q(nonzero(a), j1, j2) if j1 >= 0 and j2 >= 0 else {}
    assert ref(got.form) == expected
    assert got.c_power == (j1 + j2 if expected else 0)
    canonical(got.form)


@settings(max_examples=150, deadline=None)
@given(form_pairs())
def test_eq_and_hash_are_consistent(pair):
    a, b = pair
    f, g = QJForm(a), QJForm(b)
    assert (f == g) == (ref(f) == ref(g))
    same = (f + g) - g
    assert same == f and hash(same) == hash(f)
    shuffled = QJForm(list(a.items())[::-1])
    assert shuffled == f and hash(shuffled) == hash(f)


@settings(max_examples=150, deadline=None)
@given(raw_forms)
def test_parse_of_str_round_trips(a):
    f = QJForm(a)
    assert parse_and_evaluate(str(f)) == f


edge_exponents = st.integers(0, 3) | st.integers(MAX_EXPONENT - 3, MAX_EXPONENT)


@st.composite
def edge_forms(draw):
    """Nonzero forms with exponents near 0 and near MAX_EXPONENT; half have no e2."""
    e2 = edge_exponents if draw(st.booleans()) else st.just(0)
    expos = st.tuples(edge_exponents, edge_exponents, edge_exponents, edge_exponents, e2)
    return draw(st.dictionaries(expos, coefficients.filter(bool), min_size=1, max_size=8))


@settings(max_examples=100, deadline=None)
@given(edge_forms())
def test_depth_is_the_maxima_over_terms(a):
    f = QJForm(a)
    terms = f.terms()
    assert f.depth() == (max(e[4] for e, _ in terms), max(e[3] for e, _ in terms))


# -- exponent guard ----------------------------------------------------------

def test_largest_exponent_is_accepted():
    top = QJForm.monomial((32767, 0, 0, 0, 32767), F(-2, 3))
    assert top.terms() == [((32767, 0, 0, 0, 32767), F(-2, 3))]
    assert top.coefficient((32767, 0, 0, 0, 32767)) == F(-2, 3)
    with pytest.raises(ValueError):
        QJForm.monomial((0, 0, 32768, 0, 0))


@pytest.mark.parametrize("field", range(5))
def test_product_overflowing_a_field_raises(field):
    expos = [0] * 5
    expos[field] = 20000
    big = QJForm.monomial(tuple(expos))
    with pytest.raises(ValueError):
        big * big
    expos[field] = 32767
    gen = [0] * 5
    gen[field] = 1
    with pytest.raises(ValueError):
        QJForm.monomial(tuple(expos)) * QJForm.monomial(tuple(gen))


def test_fused_sum_overflowing_a_field_raises():
    big = QJForm.monomial((0, 0, 0, 0, 20000))
    with pytest.raises(ValueError):
        sum_of_products([(1, E2, E2), (F(1, 3), big, big)])


@pytest.mark.parametrize("tag", list(Bracket))
def test_bracket_overflowing_a_field_raises(tag):
    # dtau(wp^20000) holds wp^20001, so every first-order bracket passes 32767.
    big = QJForm.monomial((20000, 0, 0, 0, 0))
    with pytest.raises(ValueError):
        bracket(tag, big, big, 1)


def test_derivation_overflowing_a_field_raises():
    # dtau(e2) contains e2^2, so dtau(e2^32767) needs e2^32768.
    with pytest.raises(ValueError):
        derive(Derivation.DTAU, QJForm.monomial((0, 0, 0, 0, 32767)))
    assert derive(Derivation.DZ, QJForm.monomial((32767, 0, 0, 0, 0))) == 32767 * (
        QJForm.monomial((32766, 0, 0, 0, 0)) * DWP
    )


def test_power_overflowing_a_field_raises_before_any_product(monkeypatch):
    # The top exponent of each field of f^n is n times that of f, so the
    # check is exact: 32 * 1000 fits and 33 * 1000 does not, in the wp field
    # and in the e1 field.
    bigs = (QJForm.monomial((1000, 0, 0, 0, 0)), WP + QJForm.monomial((0, 0, 0, 1000, 2)))
    assert bigs[0] ** 32 == QJForm.monomial((32000, 0, 0, 0, 0))
    calls = []
    monkeypatch.setattr(QJForm, "__mul__", lambda *args: calls.append(args))
    for big in bigs:
        with pytest.raises(ValueError, match="exponent above 32767 in a product"):
            big**33
    assert calls == []


def test_guard_leaves_in_range_products_alone():
    assert (WP**3 * E2) * (WP * E2**2) == WP**4 * E2**3
