"""Derivations, Rankin-Cohen brackets, transvectants and stability checks.

Every derivation extends a generator-image table by the Leibniz rule
(:func:`qjforms.forms.leibniz`).  The two primitive ones:

* ``DZ`` (elliptic, weight +1): the images :data:`qjforms.forms.DZ_IMAGES`,
  defined with the forms because M and Minf are the dz-constants of JS and
  JSinf0 (:func:`qjforms.forms.member`).
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
    DZ_IMAGES,
    DZ_TABLE,
    E1,
    E2,
    E4,
    GENERATOR_WEIGHTS,
    WP,
    Algebra,
    QJForm,
    e6_form,
    image_table,
    leibniz,
    member,
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


# Weight shift of each derivation and of the n-th bracket per unit n.
DERIVATION_WEIGHT_SHIFT = {
    Derivation.DZ: 1,
    Derivation.DTAU: 2,
    Derivation.OB: 2,
    Derivation.DJAC: 2,
    Derivation.DELTA: 0,
}
BRACKET_WEIGHT_SHIFT = {Bracket.RC_TAU: 2, Bracket.RC_D: 2, Bracket.TV: 3}

_HALF = Fraction(1, 2)
_QUARTER = Fraction(1, 4)

# Generator images, indexed like the exponent tuple (wp, dwp, e4, e1, e2).
_GENERATORS = (WP, DWP, E4, E1, E2)
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
    for t, z, w, x in zip(_DTAU_IMAGES, DZ_IMAGES, GENERATOR_WEIGHTS, _GENERATORS)
)
_DJAC_IMAGES = tuple(t + _QUARTER * (E1 * z) for t, z in zip(_DTAU_IMAGES, DZ_IMAGES))
_DELTA_IMAGES = tuple(Fraction(w, 2) * x for w, x in zip(GENERATOR_WEIGHTS, _GENERATORS))

_TABLES = {
    Derivation.DZ: DZ_TABLE,
    Derivation.DTAU: image_table(_DTAU_IMAGES),
    Derivation.OB: image_table(_OB_IMAGES),
    Derivation.DJAC: image_table(_DJAC_IMAGES),
    Derivation.DELTA: image_table(_DELTA_IMAGES),
}


# Entries of the derive memo.  Forms are immutable and hash once, so every
# derivative tower, transvectant slot, recurrence step and verify battery
# shares the derivatives it repeats; a few hundred entries cover the reuse
# of one bracket chain, and a larger memo only raises peak memory.
DERIVE_CACHE_SIZE = 128


@lru_cache(maxsize=DERIVE_CACHE_SIZE)
def derive(tag: Derivation, f: QJForm) -> QJForm:
    """Apply one of the five derivations to an arbitrary form.

    Memoised by (tag, f) in a bounded LRU table; see ``derive.cache_info()``.
    """
    table = _TABLES.get(tag)
    if table is None:
        raise ValueError(f"unknown derivation {tag!r}")
    return leibniz(table, f)


def _tower(d: Derivation, f: QJForm, n: int) -> list[QJForm]:
    out = [f]
    for _ in range(n):
        out.append(derive(d, out[-1]))
    return out


def _tv_slots(f: QJForm, n: int) -> list[QJForm]:
    # slots[r] = dtau^(n-r) dz^r f
    return [_tower(Derivation.DTAU, v, n - r)[-1] for r, v in enumerate(_tower(Derivation.DZ, f, n))]


def bracket(tag: Bracket, f: QJForm, g: QJForm, n: int) -> QJForm:
    """The n-th Rankin-Cohen bracket (tau or d flavour) or transvectant.

    The Rankin-Cohen brackets read the weights of both arguments, so mixed
    inputs are decomposed into weight components first; the transvectant
    formula is weight-free and applies directly.
    """
    if n < 0:
        raise ValueError("bracket order must be nonnegative")
    if n == 0:
        return f * g
    if tag is Bracket.TV:
        fslots = _tv_slots(f, n)
        gslots = _tv_slots(g, n)
        return sum_of_products(((-1) ** r * comb(n, r), fslots[r], gslots[n - r]) for r in range(n + 1))
    d = Derivation.DTAU if tag is Bracket.RC_TAU else Derivation.DJAC
    fcomps = [(k, _tower(d, comp, n)) for k, comp in f.weight_components()]
    gcomps = [(l, _tower(d, comp, n)) for l, comp in g.weight_components()]
    return sum_of_products(
        ((-1) ** r * comb(k + n - 1, n - r) * comb(l + n - 1, r), ftower[r], gtower[n - r])
        for k, ftower in fcomps
        for l, gtower in gcomps
        for r in range(n + 1)
    )


def transvectant_by_recurrence(f: QJForm, g: QJForm, n: int) -> QJForm:
    """Transvectant via {f,g}_0 = fg and {f,g}_(m+1) = {df,g'}_m - {f',dg}_m.

    Independent of the binomial-sum formula in :func:`bracket`; the two must
    agree for all orders.  The recursion revisits equal argument pairs (the
    two primitive derivations commute), so results are memoized per call.
    """
    if n < 0:
        raise ValueError("bracket order must be nonnegative")
    memo: dict[tuple[QJForm, QJForm, int], QJForm] = {}

    def rec(a: QJForm, b: QJForm, m: int) -> QJForm:
        if m == 0:
            return a * b
        key = (a, b, m)
        hit = memo.get(key)
        if hit is None:
            hit = rec(derive(Derivation.DTAU, a), derive(Derivation.DZ, b), m - 1) - rec(
                derive(Derivation.DZ, a), derive(Derivation.DTAU, b), m - 1
            )
            memo[key] = hit
        return hit

    return rec(f, g, n)


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


class StabilityReport(Value):
    """Outcome of a closure check: closed, or the first failing generator."""

    __slots__ = ("closed", "witness")

    def __init__(self, closed: bool, witness: str | None = None) -> None:
        super().__init__(closed, witness)


# Generating sets, ordered as the structure theorems list them.
ALGEBRA_GENERATORS: dict[Algebra, tuple[tuple[str, QJForm], ...]] = {
    Algebra.M: (("e4", E4), ("e6", e6_form())),
    Algebra.MINF: (("e4", E4), ("e6", e6_form()), ("e2", E2)),
    Algebra.JS: (("wp", WP), ("dwp", DWP), ("e4", E4)),
    Algebra.JS0INF: (("wp", WP), ("dwp", DWP), ("e4", E4), ("e1", E1)),
    Algebra.JSINF0: (("wp", WP), ("dwp", DWP), ("e4", E4), ("e2", E2)),
    Algebra.JSINF: (("wp", WP), ("dwp", DWP), ("e4", E4), ("e1", E1), ("e2", E2)),
}


def check_stability(algebra: Algebra, tag: Derivation) -> StabilityReport:
    """Is the subalgebra closed under the derivation?

    Checking the generators decides closure: a Leibniz map preserves a
    polynomial subalgebra iff it maps each generator into it.
    """
    for name, gen in ALGEBRA_GENERATORS[algebra]:
        if not member(derive(tag, gen), algebra):
            return StabilityReport(False, name)
    return StabilityReport(True, None)
