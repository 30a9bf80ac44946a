"""Membership in M and Minf: the dz kernel against fraction-free elimination.

``member`` decides M and Minf as the dz-constants of JS and JSinf0.  The
reference below is an independent route: fraction-free Gaussian elimination
of every weight component of every e2-power against the products
e4^i * e6^j of that weight, which span M_k.  Forms enter it through
``terms()``.
"""

from math import gcd, lcm

from hypothesis import given, settings, strategies as st

from qjforms import (
    E2, E4, ONE, WP, ZERO, Algebra, Derivation, Generator, QJForm, derive, e6_form, member, monomials_of_weight
)

E6 = e6_form()


# -- reference: span test by elimination ------------------------------------

def _vector(f: QJForm) -> dict:
    # The coefficients of f scaled to coprime integers, keyed by exponents.
    terms = dict(f.terms())
    den = lcm(*(c.denominator for c in terms.values()))
    return {e: int(c * den) for e, c in terms.items()}


def _eliminate(vec: dict, rows: list) -> dict:
    # Fraction-free: clearing a pivot scales vec by the row's pivot entry,
    # which leaves the span question unchanged.
    for pivot, row in rows:
        factor = vec.get(pivot)
        if factor:
            head = row[pivot]
            vec = {k: n * head for k, n in vec.items()}
            for k, n in row.items():
                acc = vec.get(k, 0) - factor * n
                if acc:
                    vec[k] = acc
                else:
                    del vec[k]
            if vec:
                g = gcd(*vec.values())
                if g != 1:
                    vec = {k: n // g for k, n in vec.items()}
    return vec


def _echelon(basis) -> list:
    rows = []
    for f in basis:
        red = _eliminate(_vector(f), rows)
        if red:
            rows.append((max(red), red))
    return rows


def in_span(target: QJForm, basis) -> bool:
    """Exact rational test of membership of target in the span of basis."""
    return not _eliminate(_vector(target), _echelon(basis))


def modular_basis(k: int) -> list:
    """The products e4^i * e6^j of weight k."""
    return [E4 ** ((k - 6 * j) // 4) * E6**j for j in range(k // 6 + 1) if (k - 6 * j) % 4 == 0]


def ref_member(f: QJForm, algebra: Algebra) -> bool:
    """Membership in M or Minf by elimination, per e2-power and weight."""
    parts: dict = {}
    for (a, b, c, d, e), coeff in f.terms():
        if d or (e and algebra is Algebra.M):
            return False
        parts.setdefault((e, 2 * a + 3 * b + 4 * c), {})[(a, b, c, 0, 0)] = coeff
    return all(in_span(QJForm(part), modular_basis(k)) for (_, k), part in parts.items())


class TestReference:
    def test_in_span(self):
        assert in_span(2 * E4**3 + E6**2, [E4**3, E6**2])
        assert not in_span(WP**6, [E4**3, E6**2])


# -- strategies --------------------------------------------------------------

COEFFS = st.fractions(min_value=-9, max_value=9, max_denominator=6)
NONZERO = COEFFS.filter(bool)

# Exponent caps of JS, JSinf0 and JSinf: no e1 or e2, no e1, anything.
SUPPORTS = [(3, 3, 3, 0, 0), (3, 3, 3, 0, 3), (3, 3, 3, 3, 3)]


@st.composite
def support_forms(draw) -> QJForm:
    # A random form of mixed weight (odd weights too) on one algebra's monomials.
    monomial = st.tuples(*(st.integers(0, cap) for cap in draw(st.sampled_from(SUPPORTS))))
    return QJForm(draw(st.dictionaries(monomial, COEFFS, max_size=6)))


@st.composite
def modular_forms(draw, k: int | None = None) -> QJForm:
    # A random combination of the e4^i * e6^j of weight k: in M by construction.
    if k is None:
        k = draw(st.integers(0, 12)) * 2
    return sum((draw(COEFFS) * b for b in modular_basis(k)), ZERO)


@st.composite
def perturbed_forms(draw) -> QJForm:
    # A modular combination plus a JS monomial of the same weight.
    k = draw(st.integers(1, 12)) * 2
    expos = draw(st.sampled_from(monomials_of_weight(k, Algebra.JS)))
    return draw(modular_forms(k)) + QJForm.monomial(expos, draw(NONZERO))


@st.composite
def minf_forms(draw) -> QJForm:
    # A sum of e2^j times modular combinations, sometimes perturbed.
    parts = draw(st.lists(st.one_of(modular_forms(), perturbed_forms()), min_size=1, max_size=3))
    return sum((E2**j * part for j, part in enumerate(parts)), ZERO)


ANY_FORM = st.one_of(
    support_forms(),
    st.just(ZERO),
    COEFFS.map(lambda c: c * ONE),
    modular_forms(),
    perturbed_forms(),
    minf_forms(),
)


# -- tests -------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(ANY_FORM)
def test_member_matches_elimination(f):
    for algebra in (Algebra.M, Algebra.MINF):
        assert member(f, algebra) is ref_member(f, algebra), (algebra, str(f))


@settings(max_examples=60, deadline=None)
@given(modular_forms())
def test_constructed_members(f):
    assert member(f, Algebra.M) and member(f, Algebra.MINF)
    assert member(E2 * f + f, Algebra.MINF)


def test_dz_kernel_dimension():
    # On JS_k the kernel of dz has the dimension of M_k, #{(i, j): 4i + 6j = k}.
    for k in range(41):
        monos = monomials_of_weight(k, Algebra.JS)
        rank = len(_echelon(derive(Derivation.DZ, QJForm.monomial(m)) for m in monos))
        expected = sum(1 for j in range(k // 6 + 1) if (k - 6 * j) % 4 == 0)
        assert len(monos) - rank == expected, k


# Per algebra, restated: may its forms use e2, may they use e1, must they be dz-constants.
SUPPORT_RULES = {
    Algebra.M: (False, False, True),
    Algebra.MINF: (True, False, True),
    Algebra.JS: (False, False, False),
    Algebra.JS0INF: (False, True, False),
    Algebra.JSINF0: (True, False, False),
    Algebra.JSINF: (True, True, False),
}
# ANY_FORM has no form that uses e1 but not e2.
E1_FORMS = st.dictionaries(st.tuples(*(st.integers(0, cap) for cap in (3, 3, 3, 3, 0))), COEFFS, max_size=6).map(QJForm)


@settings(max_examples=200, deadline=None)
@given(ANY_FORM | E1_FORMS)
def test_presence_test_agrees_with_depth(f):
    # uses() is one OR over the packed keys; depth() takes maxima.  member
    # reads the support through uses(), so it must decide as the depth says.
    s1, s2 = f.depth() if f else (0, 0)
    assert f.uses(Generator.EE2) is (s1 > 0)
    assert f.uses(Generator.EE1) is (s2 > 0)
    assert f.uses(Generator.EE2, Generator.EE1) is (s1 > 0 or s2 > 0)
    for g in Generator:
        assert f.uses(g) is any(expos[g.value] for expos, _ in f.terms())
    assert f.uses() is False
    for algebra, (allow_e, allow_d, dz_constant) in SUPPORT_RULES.items():
        by_depth = (allow_e or not s1) and (allow_d or not s2) and not (dz_constant and derive(Derivation.DZ, f))
        assert member(f, algebra) is by_depth, (algebra, str(f))


def test_zero_form_uses_nothing_and_lies_in_every_algebra():
    assert not any(ZERO.uses(g) for g in Generator)
    assert all(member(ZERO, algebra) for algebra in Algebra)
