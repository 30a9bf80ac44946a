"""Polynomial model of the five-generator algebra of quasi-Jacobi forms.

The generators ``wp``, ``dwp``, ``e4``, ``e1``, ``e2`` carry weights
2, 3, 4, 1, 2.  A monomial wp^a dwp^b e4^c e1^d e2^e is the exponent tuple
``(a, b, c, d, e)``; a :class:`QJForm` is a finite rational combination of
monomials.  The depth of a form is the pair (max e2-exponent, max
e1-exponent): the "modular" and "elliptic" depths.

The weight-6 Eisenstein combination is not a generator: :func:`e6_form`
returns its expression in wp, dwp, e4 and every operation that meets a
weight-6 Eisenstein term eliminates it eagerly through that relation.

Representation.  A form stores integer numerators over one positive
denominator, as FLINT's ``fmpq_poly`` does, with no zero numerator and
gcd(denominator, numerators) = 1, so equal forms have equal storage and
each operation reduces by one gcd rather than one per term.  Monomials are
packed into integer keys, after Monagan and Pearce's sparse multiplication:
the exponents a, b, c, d, e fill fixed ``_FIELD_BITS``-bit fields, ``a``
lowest and ``e`` highest.  A monomial product is then one integer addition,
and the integer order of keys is the canonical depth-major order.  The top
bit of each field is a guard, so exponents are limited to
:data:`MAX_EXPONENT` (32767); an operation whose result would pass that
raises ``ValueError`` instead of carrying into the next field.  ``terms()``
and ``coefficient()`` still return ``Fraction`` coefficients.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import lru_cache, reduce
from math import comb, gcd, lcm
from operator import or_
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence, Union

from ._value import Value

Exponents = tuple[int, int, int, int, int]
Scalar = Union[int, Fraction]

GENERATOR_WEIGHTS: Exponents = (2, 3, 4, 1, 2)
GENERATOR_NAMES = ("wp", "dwp", "e4", "e1", "e2")

# Packed monomial keys: one field per exponent, a in the lowest field.
_FIELD_BITS = 16
_FIELD_MASK = (1 << _FIELD_BITS) - 1
MAX_EXPONENT = _FIELD_MASK >> 1
_SHIFTS = tuple(_FIELD_BITS * i for i in range(5))
_UNITS = tuple(1 << s for s in _SHIFTS)
_GUARD = sum(1 << (s + _FIELD_BITS - 1) for s in _SHIFTS)
_E1_SHIFT, _E2_SHIFT = _SHIFTS[3], _SHIFTS[4]


class Generator(Enum):
    """The five polynomial generators, in exponent-tuple order."""

    WP = 0
    DWP = 1
    E4 = 2
    EE1 = 3
    EE2 = 4

    @property
    def weight(self) -> int:
        return GENERATOR_WEIGHTS[self.value]

    @property
    def symbol(self) -> str:
        return GENERATOR_NAMES[self.value]


class DepthProfile(NamedTuple):
    """Bidegree (s1, s2): e2-degree (modular) and e1-degree (elliptic)."""

    s1: int
    s2: int


def weight_of_exponents(expos: Exponents) -> int:
    a, b, c, d, e = expos
    return 2 * a + 3 * b + 4 * c + d + 2 * e


def _pack(expos: Iterable[int]) -> int:
    expos = tuple(expos)
    if len(expos) != 5 or any((not isinstance(p, int)) or p < 0 for p in expos):
        raise ValueError(f"invalid exponent tuple {expos!r}")
    if max(expos) > MAX_EXPONENT:
        raise ValueError(f"exponent above {MAX_EXPONENT} in {expos!r}")
    a, b, c, d, e = expos
    return a | b << _SHIFTS[1] | c << _SHIFTS[2] | d << _E1_SHIFT | e << _E2_SHIFT


def _unpack(key: int) -> Exponents:
    m = _FIELD_MASK
    return (key & m, key >> _SHIFTS[1] & m, key >> _SHIFTS[2] & m, key >> _E1_SHIFT & m, key >> _E2_SHIFT)


def _key_weight(key: int) -> int:
    return weight_of_exponents(_unpack(key))


def _check_guard(num: dict[int, int]) -> dict[int, int]:
    # Operand exponents are at most MAX_EXPONENT, so a sum of two fits in
    # its field and sets the guard bit exactly when it overflows.
    if reduce(or_, num, 0) & _GUARD:
        raise ValueError(f"exponent above {MAX_EXPONENT} in a product")
    return num


class QJForm:
    """Exact polynomial in the five generators with rational coefficients.

    Immutable value type: all arithmetic returns new forms, and the storage
    (numerators by packed monomial, one denominator) is canonical, so equal
    forms compare equal as stored.
    """

    __slots__ = ("_num", "_den", "_hash")

    def __init__(self, terms: Mapping[Exponents, Scalar] | Iterable[tuple[Exponents, Scalar]] | None = None):
        data: dict[int, Fraction] = {}
        if terms:
            items = terms.items() if isinstance(terms, Mapping) else terms
            for expos, coeff in items:
                key = _pack(expos)
                data[key] = data.get(key, 0) + Fraction(coeff)
        den = lcm(*(c.denominator for c in data.values()))
        made = _make({k: c.numerator * (den // c.denominator) for k, c in data.items()}, den)
        self._num, self._den = made._num, made._den
        self._hash = None

    @classmethod
    def _raw(cls, num: dict[int, int], den: int = 1) -> "QJForm":
        # Internal fast path; caller guarantees canonical content.
        obj = cls.__new__(cls)
        obj._num = num
        obj._den = den
        obj._hash = None
        return obj

    # -- inspection ---------------------------------------------------------

    def terms(self) -> list[tuple[Exponents, Fraction]]:
        """Term list in the canonical (depth-major, descending) order."""
        num, den = self._num, self._den
        return [(_unpack(k), Fraction(num[k], den)) for k in sorted(num, reverse=True)]

    def coefficient(self, expos: Exponents) -> Fraction:
        try:
            key = _pack(expos)
        except ValueError:
            return Fraction(0)
        return Fraction(self._num.get(key, 0), self._den)

    def __bool__(self) -> bool:
        return bool(self._num)

    def __len__(self) -> int:
        return len(self._num)

    def weight(self) -> int:
        """Weight of a nonzero homogeneous form."""
        weights = {_key_weight(k) for k in self._num}
        if len(weights) != 1:
            raise ValueError("weight is defined for nonzero homogeneous forms only")
        return weights.pop()

    def weight_components(self) -> list[tuple[int, "QJForm"]]:
        """Partition into weight-homogeneous parts, ascending by weight."""
        by_weight: dict[int, dict[int, int]] = {}
        for key, n in self._num.items():
            by_weight.setdefault(_key_weight(key), {})[key] = n
        if len(by_weight) == 1:
            return [(w, self) for w in by_weight]
        return [(w, _make(by_weight[w], self._den)) for w in sorted(by_weight)]

    def depth(self) -> DepthProfile:
        """Bidegree (max e2-exponent, max e1-exponent); undefined for zero."""
        if not self._num:
            raise ValueError("the zero form has no depth")
        # e2 is the top field, so the largest key has the largest e2 exponent.
        s2 = max(k >> _E1_SHIFT & _FIELD_MASK for k in self._num)
        return DepthProfile(max(self._num) >> _E2_SHIFT, s2)

    # -- arithmetic ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = QJForm.constant(other)
        if isinstance(other, QJForm):
            return self._den == other._den and self._num == other._num
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((frozenset(self._num.items()), self._den))
        return self._hash

    def __pos__(self) -> "QJForm":
        return self

    def __neg__(self) -> "QJForm":
        return QJForm._raw({k: -n for k, n in self._num.items()}, self._den)

    def __add__(self, other: "QJForm | Scalar") -> "QJForm":
        if isinstance(other, (int, Fraction)):
            other = QJForm.constant(other)
        if not isinstance(other, QJForm):
            return NotImplemented
        return _combine(self, 1, other)

    __radd__ = __add__

    def __sub__(self, other: "QJForm | Scalar") -> "QJForm":
        if isinstance(other, (int, Fraction)):
            other = QJForm.constant(other)
        if not isinstance(other, QJForm):
            return NotImplemented
        return _combine(self, -1, other)

    def __rsub__(self, other: "QJForm | Scalar") -> "QJForm":
        return (-self) + other

    def __mul__(self, other: "QJForm | Scalar") -> "QJForm":
        if isinstance(other, QJForm):
            out: dict[int, int] = {}
            _add_product(out, 1, self._num, other._num)
            return _make(_check_guard(out), self._den * other._den)
        if isinstance(other, (int, Fraction)):
            if not other:
                return ZERO
            r = Fraction(other)
            return _make({k: n * r.numerator for k, n in self._num.items()}, self._den * r.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "QJForm":
        if not isinstance(n, int) or n < 0:
            raise ValueError("QJForm exponents are nonnegative integers")
        # Each field's top exponent in f^n is n times its top exponent in f.
        if n * max((max(_unpack(k)) for k in self._num), default=0) > MAX_EXPONENT:
            raise ValueError(f"exponent above {MAX_EXPONENT} in a product")
        out = QJForm.constant(1)
        for _ in range(n):
            out = out * self
        return out

    # -- construction -------------------------------------------------------

    @staticmethod
    def constant(value: Scalar) -> "QJForm":
        value = Fraction(value)
        return QJForm._raw({0: value.numerator} if value else {}, value.denominator)

    @staticmethod
    def monomial(expos: Exponents, coeff: Scalar = 1) -> "QJForm":
        return QJForm({tuple(expos): coeff})

    @staticmethod
    def generator(g: Generator) -> "QJForm":
        return QJForm._raw({_UNITS[g.value]: 1})

    # -- rendering ----------------------------------------------------------

    def __str__(self) -> str:
        if not self._num:
            return "0"
        parts: list[str] = []
        for expos, coeff in self.terms():
            body = "*".join(
                f"{name}^{p}" if p > 1 else name
                for name, p in zip(GENERATOR_NAMES, expos)
                if p
            )
            mag = abs(coeff)
            if body:
                text = body if mag == 1 else f"{mag}*{body}"
            else:
                text = str(mag)
            if not parts:
                parts.append(text if coeff > 0 else f"-{text}")
            else:
                parts.append(f"+ {text}" if coeff > 0 else f"- {text}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"QJForm({str(self)})"


def _make(num: dict[int, int], den: int) -> QJForm:
    """Canonical form of the numerators over den > 0: no zero numerator, gcd 1.

    The callee owns num, a dict its caller has just built, and divides it in
    place.  Zero numerators leave the gcd unchanged, so one gcd serves both
    rules (only zeros give den itself, so zero comes out over 1), and num is
    copied only to drop zeros.
    """
    g = gcd(den, *num.values()) if den != 1 else 1
    if 0 in num.values():
        num = {k: n // g for k, n in num.items() if n}
    elif g != 1:
        for k, n in num.items():
            num[k] = n // g
    return QJForm._raw(num, den // g)


def _combine(f: QJForm, sign: int, g: QJForm) -> QJForm:
    # f + sign*g over the least common denominator.
    if not g._num:
        return f
    if not f._num:
        return g if sign == 1 else -g
    df, dg = f._den, g._den
    if df == dg:
        out = dict(f._num)
        mg = sign
        den = df
    else:
        c = gcd(df, dg)
        mf, mg = dg // c, sign * (df // c)
        out = {k: n * mf for k, n in f._num.items()}
        den = df * (dg // c)
    get = out.get
    for k, n in g._num.items():
        out[k] = get(k, 0) + n * mg
    return _make(out, den)


def _add_product(out: dict[int, int], m: int, a: dict[int, int], b: dict[int, int]) -> None:
    # out += m*a*b on numerator dicts: a monomial product is a key sum.  The outer
    # loop runs over the smaller operand; a row into an empty out needs no lookup.
    if len(a) > len(b):
        a, b = b, a
    if not a:
        return
    get = out.get
    inner = tuple(b.items())
    for k1, c1 in a.items():
        mc = m * c1
        if not out:
            out.update({k1 + k2: mc * c2 for k2, c2 in inner})
            continue
        for k2, c2 in inner:
            k = k1 + k2
            out[k] = get(k, 0) + mc * c2


def sum_of_products(terms: Iterable[tuple[Scalar, QJForm, QJForm]]) -> QJForm:
    """The sum of s*f*g over the (s, f, g) triples, as one product kernel.

    Every triple's products accumulate straight into one numerator dict over
    the lcm of the triples' denominators, so a sum of many products makes no
    intermediate form and takes one guard check and one gcd reduction.
    """
    scaled = [
        (s.numerator, s.denominator * f._den * g._den, f._num, g._num) for s, f, g in terms if s and f._num and g._num
    ]
    den = lcm(*(d for _, d, _, _ in scaled))
    out: dict[int, int] = {}
    for n, d, a, b in scaled:
        _add_product(out, n * (den // d), a, b)
    return _make(_check_guard(out), den)


def iter_terms(f: QJForm) -> Iterator[tuple[Exponents, Fraction]]:
    """Terms of f in storage order, for loops that do not need the sorted :meth:`QJForm.terms`."""
    den = f._den
    for key, n in f._num.items():
        yield _unpack(key), Fraction(n, den)


# A generator-image table for the Leibniz kernel: one common denominator,
# and per generator with a nonzero image (field shift, unit key, image
# numerators as (key, numerator) pairs over that denominator).
ImageTable = tuple[int, tuple[tuple[int, int, tuple[tuple[int, int], ...]], ...]]


def image_table(images: Sequence[QJForm]) -> ImageTable:
    """Pack the images of wp, dwp, e4, e1, e2 for :func:`leibniz`."""
    den = lcm(*(img._den for img in images))
    rows = tuple(
        (shift, unit, tuple((k, n * (den // img._den)) for k, n in img._num.items()))
        for shift, unit, img in zip(_SHIFTS, _UNITS, images)
        if img
    )
    return den, rows


def leibniz(table: ImageTable, f: QJForm) -> QJForm:
    """The derivation with the given generator images, extended to f by the Leibniz rule."""
    den, rows = table
    out: dict[int, int] = {}
    get = out.get
    for key, c in f._num.items():
        for shift, unit, image in rows:
            p = key >> shift & _FIELD_MASK
            if p:
                base = key - unit
                scaled = c * p
                for ik, iv in image:
                    k = base + ik
                    out[k] = get(k, 0) + scaled * iv
    return _make(_check_guard(out), f._den * den)


ZERO = QJForm._raw({})
ONE = QJForm.constant(1)
WP = QJForm.generator(Generator.WP)
DWP = QJForm.generator(Generator.DWP)
E4 = QJForm.generator(Generator.E4)
E1 = QJForm.generator(Generator.EE1)
E2 = QJForm.generator(Generator.EE2)


class ScaledJForm(Value):
    """A form times an integer power of the formal constant c = 2*i*pi.

    Every displayed identity of the theory is c-homogeneous, so the
    transcendental constant never mixes into coefficients; it is tracked as
    the exponent ``c_power``.  The zero form is canonically (0, 0).
    """

    __slots__ = ("form", "c_power")

    def __init__(self, form: QJForm, c_power: int = 0) -> None:
        super().__init__(form, c_power if form else 0)

    def is_zero(self) -> bool:
        return not self.form

    def __add__(self, other: "ScaledJForm") -> "ScaledJForm":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.c_power != other.c_power:
            raise ValueError("cannot add scaled forms with different c powers")
        return ScaledJForm(self.form + other.form, self.c_power)

    def __mul__(self, other: "ScaledJForm | QJForm | Scalar") -> "ScaledJForm":
        if isinstance(other, ScaledJForm):
            return ScaledJForm(self.form * other.form, self.c_power + other.c_power)
        if isinstance(other, (QJForm, int, Fraction)):
            return ScaledJForm(self.form * other, self.c_power)
        return NotImplemented

    __rmul__ = __mul__

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        if self.c_power == 0:
            return str(self.form)
        return f"c^{self.c_power} * ({self.form})"


ZERO_SCALED = ScaledJForm(ZERO, 0)


@lru_cache(maxsize=1)
def e6_form() -> QJForm:
    """The weight-6 Eisenstein combination -(1/140)dwp^2 + (1/35)wp^3 - (3/7)wp*e4."""
    return QJForm(
        {
            (0, 2, 0, 0, 0): Fraction(-1, 140),
            (3, 0, 0, 0, 0): Fraction(1, 35),
            (1, 0, 1, 0, 0): Fraction(-3, 7),
        }
    )


def q_coefficient(f: QJForm, j1: int, j2: int) -> ScaledJForm:
    """Coefficient of X^j1 Y^j2 in the formal transformation expansion.

    Substituting e2 -> e2 - cX and e1 -> e1 + cY (other generators fixed)
    and collecting X^j1 Y^j2 gives a form times c^(j1+j2).  Out-of-range
    indices (including negative ones) give the zero scaled form.

    One pass over the terms: a term whose e2 exponent is below j1 or whose
    e1 exponent is below j2 contributes nothing and is skipped before any
    arithmetic.  The binomial weights come from ``math.comb``, once per
    distinct e2 and once per distinct e1 exponent of the surviving terms.
    """
    if j1 < 0 or j2 < 0:
        return ZERO_SCALED
    if not (j1 or j2):
        return ScaledJForm(f, 0)
    sign = -1 if j1 % 2 else 1
    shift = j1 << _E2_SHIFT | j2 << _E1_SHIFT
    w1: dict[int, int] = {}  # weight by e2 exponent, never 0 (e >= j1), so 0 is a miss
    w2: dict[int, int] = {}  # weight by e1 exponent, likewise
    out: dict[int, int] = {}
    for key, n in f._num.items():
        e = key >> _E2_SHIFT
        if e < j1:
            continue
        d = key >> _E1_SHIFT & _FIELD_MASK
        if d < j2:
            continue
        # Both fields are at least their index, so key - shift borrows from
        # no field, and distinct keys stay distinct after the same shift.
        we = w1.get(e) or w1.setdefault(e, sign * comb(e, j1))
        wd = w2.get(d) or w2.setdefault(d, comb(d, j2))
        out[key - shift] = n * we * wd
    if not out:
        return ZERO_SCALED
    return ScaledJForm(_make(out, f._den), j1 + j2)
