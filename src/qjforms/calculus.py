"""Derivations, brackets, the six subalgebras and the Eisenstein reduction.

Every derivation extends a generator-image table by the Leibniz rule
(:func:`qjforms.forms.leibniz`).  The two primitive ones:

* ``DZ`` (elliptic, weight +1), whose generator images are below; M and
  Minf are its constants in JS and JSinf0 (:func:`member`).
* ``DTAU`` (modular, weight +2): the normalized (pi/2i) d/dtau, whose
  generator images are the rational combinations below.

``OB`` is 4*DTAU + e1*DZ - (weight)*e2, whose generator images are
4*dtau(x) + e1*dz(x) - w(x)*e2*x; its restriction to the modular subalgebra
is the Serre derivation.  ``DJAC`` is DTAU + (1/4)e1*DZ, with images
dtau(x) + (1/4)*e1*dz(x).  ``DELTA``, the half-weight Euler operator, has
images (w(x)/2)*x, so the Leibniz rule multiplies a weight-k component by k/2.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from ._value import Value
from .forms import (
    DWP,
    E1,
    E2,
    E4,
    GENERATOR_WEIGHTS,
    ONE,
    WP,
    ZERO,
    Exponents,
    Generator,
    ImageTable,
    QJForm,
    e6_form,
    leibniz,
    sum_of_products,
)


class Derivation(Enum):
    DZ = "dz"
    DTAU = "dtau"
    OB = "ob"
    DJAC = "d"
    DELTA = "delta"


class Bracket(Enum):
    RC_TAU = "rc"
    RC_D = "rcd"
    TV = "tv"


class _ByTag(dict):
    """A table keyed by one enum: any other key is a ValueError named after that enum."""

    def __missing__(self, tag):
        raise ValueError(f"unknown {type(next(iter(self))).__name__.lower()} {tag!r}")


# Weight shift of each derivation and of the n-th bracket per unit n.
DERIVATION_WEIGHT_SHIFT = {
    Derivation.DZ: 1,
    Derivation.DTAU: 2,
    Derivation.OB: 2,
    Derivation.DJAC: 2,
    Derivation.DELTA: 0,
}
BRACKET_WEIGHT_SHIFT = {Bracket.RC_TAU: 2, Bracket.RC_D: 2, Bracket.TV: 3}
BRACKET_DERIVATIONS = _ByTag({
    Bracket.RC_TAU: (Derivation.DTAU,), Bracket.RC_D: (Derivation.DJAC,), Bracket.TV: (Derivation.DTAU, Derivation.DZ)
})

_HALF = Fraction(1, 2)
_QUARTER = Fraction(1, 4)

# Generator images, indexed like the exponent tuple (wp, dwp, e4, e1, e2).
_GENERATORS = (WP, DWP, E4, E1, E2)
_DZ_IMAGES = (DWP, 6 * WP**2 - 30 * E4, ZERO, -WP - E2, ZERO)
_DTAU_IMAGES = (
    -_QUARTER * (E1 * DWP) - _HALF * WP**2 + _HALF * (E2 * WP) + 5 * E4,
    Fraction(3, 2) * ((5 * E4 - WP**2) * E1) + Fraction(3, 4) * ((E2 - WP) * DWP),
    Fraction(-1, 10) * WP**3 + Fraction(1, 40) * DWP**2 + Fraction(3, 2) * (WP * E4) + E4 * E2,
    _QUARTER * (E1 * E2 + WP * E1 + _HALF * DWP),
    _QUARTER * (E2**2 - 5 * E4),
)
# ob(x) = 4*dtau(x) + e1*dz(x) - w(x)*e2*x and d(x) = dtau(x) + (1/4)*e1*dz(x)
# on each generator x; the Leibniz rule then gives the weight term k*e2*f.
_OB_IMAGES = tuple(
    4 * t + E1 * z - w * (E2 * x)
    for t, z, w, x in zip(_DTAU_IMAGES, _DZ_IMAGES, GENERATOR_WEIGHTS, _GENERATORS)
)
_DJAC_IMAGES = tuple(t + _QUARTER * (E1 * z) for t, z in zip(_DTAU_IMAGES, _DZ_IMAGES))
_DELTA_IMAGES = tuple(Fraction(w, 2) * x for w, x in zip(GENERATOR_WEIGHTS, _GENERATORS))

_TABLES = _ByTag({
    Derivation.DZ: ImageTable(_DZ_IMAGES),
    Derivation.DTAU: ImageTable(_DTAU_IMAGES),
    Derivation.OB: ImageTable(_OB_IMAGES),
    Derivation.DJAC: ImageTable(_DJAC_IMAGES),
    Derivation.DELTA: ImageTable(_DELTA_IMAGES),
})


# Entries of the derive memo.  Forms are immutable and hash once, so every
# derivative tower, transvectant slot, recurrence step and verify battery
# shares the derivatives it repeats; a few hundred entries cover the reuse
# of one bracket chain, and a larger memo only raises peak memory.  Below
# the memo, each table keeps up to forms.DERIVATIVE_ROWS_SIZE derivative
# rows, one per monomial met.
DERIVE_CACHE_SIZE = 128


@lru_cache(maxsize=DERIVE_CACHE_SIZE)
def derive(tag: Derivation, f: QJForm) -> QJForm:
    """Apply one of the five derivations to an arbitrary form.

    Memoised by (tag, f) in a bounded LRU table; see ``derive.cache_info()``.
    """
    return leibniz(_TABLES[tag], f)


def bracket_terms(tag: Bracket, k: int, l: int, n: int) -> list[tuple[int, tuple[int, ...], tuple[int, ...]]]:
    """The n-th bracket of forms of weights k and l as (c, a, b) triples.

    The bracket of f and g is the sum of c * D^a f * D^b g, where D^a applies
    the derivations ``BRACKET_DERIVATIONS[tag]`` with the powers a.  This is
    the one statement of the bracket coefficients in the package; each c is a
    polynomial of degree at most n in k and in l.  Orders n >= 1 only; a tag
    that is not a Bracket raises ValueError.
    """
    if len(BRACKET_DERIVATIONS[tag]) == 2:  # the transvectant's (dtau, dz)
        return [((-1) ** r * comb(n, r), (n - r, r), (r, n - r)) for r in range(n + 1)]
    return [((-1) ** r * comb(k + n - 1, n - r) * comb(l + n - 1, r), (r,), (n - r,)) for r in range(n + 1)]


def _derivatives(derivations: tuple[Derivation, ...], form: QJForm, n: int) -> dict[tuple[int, ...], QJForm]:
    # D^a form by a, for every power tuple a of total at most n; the last
    # derivation is applied first, and each derivative is built once.
    out = {(): form}
    for derivation in reversed(derivations):
        grown = {}
        for key, lower in out.items():
            grown[(0, *key)] = lower
            for p in range(1, n - sum(key) + 1):
                lower = grown[(p, *key)] = derive(derivation, lower)
        out = grown
    return out


def bracket(tag: Bracket, f: QJForm, g: QJForm, n: int) -> QJForm:
    """The n-th Rankin-Cohen bracket (tau or d flavour) or transvectant.

    The coefficients read the weights of both arguments, so mixed inputs are
    decomposed into weight components first.  The powers in the terms of
    :func:`bracket_terms` total at most n, and each derivative of that order
    is built once per component.
    """
    if n < 0:
        raise ValueError("bracket order must be nonnegative")
    derivations = BRACKET_DERIVATIONS[tag]
    if n == 0:
        return f * g
    fcomps = [(k, _derivatives(derivations, comp, n)) for k, comp in f.weight_components()]
    gcomps = [(l, _derivatives(derivations, comp, n)) for l, comp in g.weight_components()]
    return sum_of_products(
        (c, fd[a], gd[b]) for k, fd in fcomps for l, gd in gcomps for c, a, b in bracket_terms(tag, k, l, n)
    )


def transvectant_by_recurrence(f: QJForm, g: QJForm, n: int) -> QJForm:
    """Transvectant via {f,g}_0 = fg and {f,g}_(m+1) = {df,g'}_m - {f',dg}_m.

    Independent of the binomial-sum formula in :func:`bracket`; the two must
    agree for all orders.  The recurrence is unrolled level by level: each
    level maps a pair (a, b) with multiplicity c to (dtau a, dz b) with +c
    and (dz a, dtau b) with -c, merging pairs whose forms compare equal and
    dropping zero multiplicities and pairs that hold a zero form.  Order n
    is then one sum of products, one product per distinct pair left.
    """
    if n < 0:
        raise ValueError("bracket order must be nonnegative")
    level = {(f, g): 1}
    for _ in range(n):
        grown: dict[tuple[QJForm, QJForm], int] = {}
        for (a, b), c in level.items():
            for x, y, s in ((Derivation.DTAU, Derivation.DZ, c), (Derivation.DZ, Derivation.DTAU, -c)):
                pair = derive(x, a), derive(y, b)
                if all(pair):
                    grown[pair] = grown.get(pair, 0) + s
        level = {pair: c for pair, c in grown.items() if c}
    return sum_of_products((c, a, b) for (a, b), c in level.items())


def star_truncated(tag: Bracket, f: QJForm, g: QJForm, order: int) -> list[QJForm]:
    """Coefficients of hbar^0..hbar^order of the deformation product.

    The transvectant star product carries 1/n! weights; for the Rankin-Cohen
    tags the bracket sequence itself is the deformation.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    out = []
    for n in range(order + 1):
        term = bracket(tag, f, g, n)
        if tag is Bracket.TV and n > 1:
            term = Fraction(1, factorial(n)) * term
        out.append(term)
    return out


class Algebra(Enum):
    """The remarkable subalgebras, by the generators they add to M or JS."""

    M = "M"
    MINF = "Minf"
    JS = "JS"
    JS0INF = "JS0inf"
    JSINF0 = "JSinf0"
    JSINF = "JSinf"


# Generating sets, ordered as the structure theorems list them.
ALGEBRA_GENERATORS: dict[Algebra, tuple[tuple[str, QJForm], ...]] = _ByTag({
    Algebra.M: (("e4", E4), ("e6", e6_form())),
    Algebra.MINF: (("e4", E4), ("e6", e6_form()), ("e2", E2)),
    Algebra.JS: (("wp", WP), ("dwp", DWP), ("e4", E4)),
    Algebra.JS0INF: (("wp", WP), ("dwp", DWP), ("e4", E4), ("e1", E1)),
    Algebra.JSINF0: (("wp", WP), ("dwp", DWP), ("e4", E4), ("e2", E2)),
    Algebra.JSINF: (("wp", WP), ("dwp", DWP), ("e4", E4), ("e1", E1), ("e2", E2)),
})

# Per algebra, from its generating set: the generators among e2 and e1 that none
# of its generators uses, and whether dz kills them all (M and Minf; see member).
_MEMBERSHIP: dict[Algebra, tuple[tuple[Generator, ...], bool]] = _ByTag({
    algebra: (
        tuple(x for x in (Generator.EE2, Generator.EE1) if not any(gen.uses(x) for _, gen in gens)),
        not any(leibniz(_TABLES[Derivation.DZ], gen) for _, gen in gens),
    )
    for algebra, gens in ALGEBRA_GENERATORS.items()
})


def monomials_of_weight(k: int, algebra: Algebra = Algebra.JSINF) -> list[Exponents]:
    """All exponent tuples of weight k whose support fits the given algebra.

    Only the four monomial subalgebras are supported; M and Minf are not
    spanned by monomials in these generators.
    """
    excluded, dz_constant = _MEMBERSHIP[algebra]
    if dz_constant:
        raise ValueError("M and Minf are not monomial subalgebras of the five generators")
    out: list[Exponents] = []
    for e in range((0 if Generator.EE2 in excluded else k // 2) + 1):
        we = k - 2 * e
        for d in range((0 if Generator.EE1 in excluded else we) + 1):
            wd = we - d
            for c in range(wd // 4 + 1):
                wc = wd - 4 * c
                for b in range(wc // 3 + 1):
                    wb = wc - 3 * b
                    if wb % 2 == 0:
                        out.append((wb // 2, b, c, d, e))
    return out


def member(f: QJForm, algebra: Algebra) -> bool:
    """Membership of f in one of the six subalgebras.

    f must avoid the generators its algebra leaves out; M and Minf are
    moreover the kernels of dz on JS and JSinf0.  Every f in JS is A + dwp*B
    with A, B in Q[wp, e4, e6] (as dwp^2 = 4wp^3 - 60e4*wp - 140e6), and
    dz(A + dwp*B) = dwp*dA/dwp + [(6wp^2 - 30e4)*B + dwp^2*dB/dwp], whose
    bracket has top wp-term (6 + 4d)*b_d*wp^(d+2) for B of wp-degree d, so
    dz(f) = 0 exactly when B = 0 and A lies in Q[e4, e6] = M.  As dz(e2) = 0,
    the same holds for every e2-power of a form in JSinf0.
    """
    excluded, dz_constant = _MEMBERSHIP[algebra]
    if f.uses(*excluded):
        return False
    # dz by its table, not through the derive memo that bracket towers share.
    return not (dz_constant and leibniz(_TABLES[Derivation.DZ], f))


class StabilityReport(Value):
    """Outcome of a closure check: closed, or the first failing generator."""

    __slots__ = ("closed", "witness")

    def __init__(self, closed: bool, witness: str | None = None) -> None:
        super().__init__(closed, witness)


def check_stability(algebra: Algebra, tag: Derivation) -> StabilityReport:
    """Is the subalgebra closed under the derivation?

    Checking the generators decides closure: a Leibniz map preserves a
    polynomial subalgebra iff it maps each generator into it.
    """
    for name, gen in ALGEBRA_GENERATORS[algebra]:
        if not member(derive(tag, gen), algebra):
            return StabilityReport(False, name)
    return StabilityReport(True, None)


class EisensteinMethod(Enum):
    LAURENT = "laurent"
    GUNTHER = "gunther"


class InconsistencyError(ArithmeticError):
    """Two routes that must agree produced different results."""


# Each step of both recursions is one sum_of_products over the symmetric pairs,
# each taken once, collected by a plain loop: one Python frame per step.
@lru_cache(maxsize=None)
def _laurent_c(n: int) -> QJForm:
    # c_n = (2n+1) * e_{2n+2} as a form; the Laurent recursion of the
    # Weierstrass ODE determines c_n for n >= 3 from c_1 and c_2:
    # c_n = 6 / (2n(2n-1) - 12) * sum over a + b = n - 1 of c_a c_b.
    if n == 1:
        return 3 * E4
    if n == 2:
        return 5 * e6_form()
    scale = Fraction(6, 2 * n * (2 * n - 1) - 12)
    triples = []
    for a in range(1, (n - 1) // 2 + 1):
        triples.append((scale if 2 * a == n - 1 else 2 * scale, _laurent_c(a), _laurent_c(n - 1 - a)))
    return sum_of_products(triples)


@lru_cache(maxsize=None)
def _gunther_e(two_n: int) -> QJForm:
    # Solve the z^(2n) Fourier-Laurent identity for e_{2n+4}, inductively:
    # (n+2)(2n+5) e_{2n+4} = (n+1)(2n+1) e_{2n+2} e2 - 2(2n+1) dtau(e_{2n+2})
    #   + sum over a + b = n, a, b >= 1 of (2a+1)(a-2b-1) e_{2a+2} e_{2b+2}.
    if two_n == 4:
        return E4
    n = two_n // 2 - 2
    prev = _gunther_e(two_n - 2)
    scale = Fraction(1, (n + 2) * (2 * n + 5))
    step = (2 * n + 1) * scale
    triples = [((n + 1) * step, prev, E2), (-2 * step, derive(Derivation.DTAU, prev), ONE)]
    for a in range(1, n // 2 + 1):
        b = n - a
        weight = (2 * a + 1) * (a - 2 * b - 1)
        if a != b:
            weight += (2 * b + 1) * (b - 2 * a - 1)
        triples.append((weight * scale, _gunther_e(2 * a + 2), _gunther_e(2 * b + 2)))
    result = sum_of_products(triples)
    if not member(result, Algebra.JS):
        raise InconsistencyError(f"e_{two_n} solved with residual depth: {result}")
    return result


def eisenstein_in_generators(two_n: int, method: EisensteinMethod = EisensteinMethod.LAURENT) -> QJForm:
    """The weight-2n Eisenstein form expressed in the JS generators wp, dwp, e4."""
    if two_n % 2 != 0 or two_n < 4:
        raise ValueError("Eisenstein reduction requires an even weight >= 4")
    if not isinstance(method, EisensteinMethod):
        raise ValueError(f"unknown Eisenstein method {method!r}")
    if method is EisensteinMethod.GUNTHER:
        return _gunther_e(two_n)
    n = two_n // 2 - 1
    return Fraction(1, 2 * n + 1) * _laurent_c(n)
