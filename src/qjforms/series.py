"""Independent series oracle: truncated bigraded expansions in q and u.

A :class:`BigradedSeries` stores the exact rational coefficients of q^m u^n
as integer numerators over one positive denominator, kept canonical (no zero
numerator, gcd 1), and represents pi^weight times that double series, where
q is the Fourier variable and u = pi*z.  With this normalization every
generator expands with rational coefficients:

* ``wp``  -> u^-2 + sum_{n>=1} (2n+1) ee_{2n+2} u^(2n)      (weight 2)
* ``e1``  -> u^-1 - sum_{n>=0} ee_{2n+2} u^(2n+1)           (weight 1)
* ``dwp`` -> termwise u-derivative of wp                     (weight 3)
* ``e2``, ``e4`` -> the normalized Eisenstein q-series ee_k  (weight k)

where ee_k is the weight-k Eisenstein series divided by pi^k.  Precision is
tracked conservatively: q-coefficients are valid for 0 <= m < q_prec, and
u-coefficients for u_val <= n <= u_max, with everything below u_val exactly
zero.  Requests outside a validity window raise :class:`PrecisionError`,
never silently compare as equal.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from functools import lru_cache, reduce
from typing import Iterable, Mapping, Union

from .arith import bernoulli, sigma
from .forms import QJForm

Scalar = Union[int, Fraction]

DEFAULT_QPREC = 8
DEFAULT_UMAX = 16


class PrecisionError(ArithmeticError):
    """Requested data lies outside a series' validity window."""


class SeriesDerivation(Enum):
    DU = "du"    # d/du: realizes d/dz = pi * d/du, weight +1
    QDQ = "qdq"  # pi^2 q d/dq: realizes the normalized modular derivation, weight +2


class BigradedSeries:
    """Truncated Laurent-in-u, power-in-q series with exact coefficients."""

    # The coefficient of q^m u^n is _coeffs[(m, n)] / _denom.
    __slots__ = ("weight", "q_prec", "u_val", "u_max", "_coeffs", "_denom")

    def __init__(
        self,
        weight: int,
        q_prec: int,
        u_val: int,
        u_max: int,
        coeffs: Mapping[tuple[int, int], Scalar] | Iterable[tuple[tuple[int, int], Scalar]] | None = None,
    ):
        if q_prec < 1:
            raise PrecisionError("q_prec must be at least 1")
        if u_val > u_max:
            raise PrecisionError(f"empty u-window [{u_val}, {u_max}]")
        data: dict[tuple[int, int], Fraction] = {}
        if coeffs:
            items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
            for (m, n), value in items:
                if m < 0 or m >= q_prec or n < u_val or n > u_max:
                    raise ValueError(f"coefficient at q^{m} u^{n} lies outside the validity window")
                data[(m, n)] = Fraction(value)
        den = math.lcm(*(c.denominator for c in data.values()))
        self.weight = weight
        self.q_prec = q_prec
        self.u_val = u_val
        self.u_max = u_max
        nums = {k: c.numerator * (den // c.denominator) for k, c in data.items()}
        self._coeffs, self._denom = _canonical(nums, den)

    @classmethod
    def _raw(
        cls, weight: int, q_prec: int, u_val: int, u_max: int, nums: dict[tuple[int, int], int], den: int
    ) -> "BigradedSeries":
        obj = cls.__new__(cls)
        obj.weight = weight
        obj.q_prec = q_prec
        obj.u_val = u_val
        obj.u_max = u_max
        obj._coeffs = nums
        obj._denom = den
        return obj

    def coefficient(self, m: int, n: int) -> Fraction:
        """Exact coefficient of q^m u^n; raises outside the validity window."""
        if m < 0 or m >= self.q_prec or n > self.u_max:
            raise PrecisionError(f"coefficient of q^{m} u^{n} is outside the validity window")
        return Fraction(self._coeffs.get((m, n), 0), self._denom)

    def items(self) -> list[tuple[tuple[int, int], Fraction]]:
        return [(key, Fraction(c, self._denom)) for key, c in sorted(self._coeffs.items())]

    def is_zero(self) -> bool:
        return not self._coeffs

    # -- arithmetic sugar (delegates to the module-level operations) --------

    def __add__(self, other: "BigradedSeries") -> "BigradedSeries":
        if not isinstance(other, BigradedSeries):
            return NotImplemented
        return series_add(self, other)

    def __sub__(self, other: "BigradedSeries") -> "BigradedSeries":
        if not isinstance(other, BigradedSeries):
            return NotImplemented
        return series_add(self, series_scale(-1, other))

    def __mul__(self, other: "BigradedSeries | Scalar") -> "BigradedSeries":
        if isinstance(other, BigradedSeries):
            return series_mul(self, other)
        if isinstance(other, (int, Fraction)):
            return series_scale(other, self)
        return NotImplemented

    def __rmul__(self, other: Scalar) -> "BigradedSeries":
        if isinstance(other, (int, Fraction)):
            return series_scale(other, self)
        return NotImplemented

    def __repr__(self) -> str:
        head = ", ".join(f"q^{m} u^{n}: {c}" for (m, n), c in self.items()[:6])
        more = "..." if len(self._coeffs) > 6 else ""
        return (
            f"BigradedSeries(weight={self.weight}, q_prec={self.q_prec}, "
            f"u in [{self.u_val}, {self.u_max}], {{{head}{more}}})"
        )


def _canonical(nums: dict[tuple[int, int], int], den: int) -> tuple[dict[tuple[int, int], int], int]:
    """Canonical numerators over den > 0: no zero numerator, gcd 1, one gcd."""
    # A zero numerator leaves the gcd unchanged; all zeros give den, so 0 over 1.
    g = math.gcd(den, *nums.values()) if den != 1 else 1
    if g != 1 or 0 in nums.values():
        nums = {k: c // g for k, c in nums.items() if c}
        den //= g
    return nums, den


def series_scale(r: Scalar, a: BigradedSeries) -> BigradedSeries:
    r = Fraction(r)
    out = {k: r.numerator * c for k, c in a._coeffs.items()}
    return BigradedSeries._raw(a.weight, a.q_prec, a.u_val, a.u_max, *_canonical(out, a._denom * r.denominator))


def series_add(a: BigradedSeries, b: BigradedSeries) -> BigradedSeries:
    """Exact truncated sum; the weight tags must agree.

    A series with no nonzero stored coefficient belongs to every weight, so
    it is weight-neutral here.
    """
    if a.weight != b.weight and a._coeffs and b._coeffs:
        raise ValueError(f"weight mismatch in series addition: {a.weight} vs {b.weight}")
    q_prec = min(a.q_prec, b.q_prec)
    u_val = min(a.u_val, b.u_val)
    u_max = min(a.u_max, b.u_max)
    if u_val > u_max:
        raise PrecisionError("sum has an empty u-window")
    da, db = a._denom, b._denom
    out: dict[tuple[int, int], int] = {}
    for src, mult in ((a._coeffs, db), (b._coeffs, da)):
        for (m, n), c in src.items():
            if m < q_prec and n <= u_max:
                out[(m, n)] = out.get((m, n), 0) + c * mult
    return BigradedSeries._raw(a.weight if a._coeffs else b.weight, q_prec, u_val, u_max, *_canonical(out, da * db))


def series_mul(a: BigradedSeries, b: BigradedSeries) -> BigradedSeries:
    """Exact truncated product with conservative window arithmetic.

    A row-wise convolution of q-rows of (u-offset, numerator), cut at q_prec
    and at the window top, into one list per output row as long as it reaches.
    """
    q_prec = min(a.q_prec, b.q_prec)
    u_val = a.u_val + b.u_val
    top = min(a.u_max - a.u_val, b.u_max - b.u_val)  # the largest offset of the window
    if top < 0:
        raise PrecisionError("product has an empty u-window")
    rows: tuple[dict[int, list[tuple[int, int]]], ...] = ({}, {})
    for s, grouped in zip((a, b), rows):
        for (m, n), c in sorted(s._coeffs.items()):
            grouped.setdefault(m, []).append((n - s.u_val, c))
    out_rows: dict[int, list[int]] = {}
    for m1, row1 in rows[0].items():
        for m2, row2 in rows[1].items():
            if m1 + m2 >= q_prec:
                break
            acc = out_rows.setdefault(m1 + m2, [])
            acc += [0] * (min(top, row1[-1][0] + row2[-1][0]) + 1 - len(acc))
            for i1, c1 in row1:
                for i2, c2 in row2:
                    if i1 + i2 > top:
                        break
                    acc[i1 + i2] += c1 * c2
    out = {(m, u_val + i): c for m, acc in out_rows.items() for i, c in enumerate(acc) if c}
    return BigradedSeries._raw(a.weight + b.weight, q_prec, u_val, u_val + top, *_canonical(out, a._denom * b._denom))


def series_derive(which: SeriesDerivation, a: BigradedSeries) -> BigradedSeries:
    """Termwise derivative: DU shifts u-exponents down, QDQ scales by m."""
    if which is SeriesDerivation.DU:
        out = {(m, n - 1): n * c for (m, n), c in a._coeffs.items()}
        return BigradedSeries._raw(a.weight + 1, a.q_prec, a.u_val - 1, a.u_max - 1, *_canonical(out, a._denom))
    if which is SeriesDerivation.QDQ:
        out = {(m, n): m * c for (m, n), c in a._coeffs.items()}
        return BigradedSeries._raw(a.weight + 2, a.q_prec, a.u_val, a.u_max, *_canonical(out, a._denom))
    raise ValueError(f"unknown series derivation {which!r}")


def series_equal(a: BigradedSeries, b: BigradedSeries, min_window: int = 1) -> bool:
    """Coefficient-wise equality on the common validity window.

    The common window must span at least ``min_window`` u-exponents and one
    q-order; otherwise a :class:`PrecisionError` is raised so that lack of
    precision is never reported as equality (or inequality).  A series with
    no nonzero stored coefficient is weight-neutral.
    """
    if a.weight != b.weight and not a.is_zero() and not b.is_zero():
        raise ValueError(f"weight mismatch in series comparison: {a.weight} vs {b.weight}")
    q_prec = min(a.q_prec, b.q_prec)
    lo = min(a.u_val, b.u_val)
    hi = min(a.u_max, b.u_max)
    if hi - lo + 1 < min_window:
        raise PrecisionError(
            f"common window [{lo}, {hi}] spans fewer than {min_window} u-exponents"
        )
    da, db = a._denom, b._denom
    for (m, n), c in a._coeffs.items():
        if m < q_prec and n <= hi and b._coeffs.get((m, n), 0) * da != c * db:
            return False
    for (m, n), c in b._coeffs.items():
        if m < q_prec and n <= hi and (m, n) not in a._coeffs:
            return False
    return True


# Size of the two series memos, above the working sets measured from cleared memos: ``qjalg verify oracle``
# (seeds 20240801, 1, 2, 3) fills 110-120 monomials and 111-118 generator powers, the benchmark's series
# items (seed 424242) 143/140 in 95 oracle rounds and 336/260 in 3000.  No memo here holds an Eisenstein
# constant: the memos of arith.bernoulli and arith.sigma are their one cache.
CACHE_SIZE = 512


def _eisenstein_coeff(k: int, m: int) -> Fraction:
    # q^m coefficient of ee_k = e_k / pi^k: 2^k |B_k| / k! at m = 0, and the
    # Fourier coefficient (-1)^(k/2) 2^(k+1) sigma_(k-1)(m) / (k-1)! beyond.
    if m == 0:
        return Fraction(2**k) * abs(bernoulli(k)) / math.factorial(k)
    return Fraction((-1) ** (k // 2) * 2 ** (k + 1) * sigma(k, m), math.factorial(k - 1))


def eisenstein_qseries(k: int, q_prec: int) -> BigradedSeries:
    """Normalized weight-k Eisenstein series ee_k as a u-constant series."""
    if k % 2 != 0 or k < 2:
        raise ValueError("Eisenstein series require an even weight >= 2")
    return BigradedSeries(k, q_prec, 0, 0, {(m, 0): _eisenstein_coeff(k, m) for m in range(q_prec)})


def _wp_series(q_prec: int, span: int) -> BigradedSeries:
    out: dict[tuple[int, int], Fraction] = {(0, -2): Fraction(1)}
    for n in reversed(range(2, span - 1, 2)):  # top weight first: B_k's table is built once, at its size
        for m in range(q_prec):
            out[(m, n)] = (n + 1) * _eisenstein_coeff(n + 2, m)
    return BigradedSeries(2, q_prec, -2, -2 + span, out)


def _e1_series(q_prec: int, span: int) -> BigradedSeries:
    out: dict[tuple[int, int], Fraction] = {(0, -1): Fraction(1)}
    for n in reversed(range(1, span, 2)):  # top weight first, as in _wp_series
        for m in range(q_prec):
            out[(m, n)] = -_eisenstein_coeff(n + 1, m)
    return BigradedSeries(1, q_prec, -1, -1 + span, out)


# The series of wp, dwp, e4, e1, e2 on a u-window of ``span + 1`` exponents
# from the generator's valuation, in the exponent order of a monomial.  They
# are built once per window, as the first powers in the ``_generator_power``
# memo; dwp is the u-derivative of the memoised wp.
_GENERATORS = (
    _wp_series,
    lambda q_prec, span: series_derive(SeriesDerivation.DU, _generator_power(0, 1, q_prec, span)),
    lambda q_prec, span: BigradedSeries(4, q_prec, 0, span, eisenstein_qseries(4, q_prec).items()),
    _e1_series,
    lambda q_prec, span: BigradedSeries(2, q_prec, 0, span, eisenstein_qseries(2, q_prec).items()),
)


@lru_cache(maxsize=CACHE_SIZE)
def _generator_power(gen: int, p: int, q_prec: int, span: int) -> BigradedSeries:
    """The p-th power (p >= 1) of generator ``gen``, on a u-window of ``span + 1`` exponents.

    By squaring along the memo: an even power is the square of the (p/2)-th,
    an odd one the (p - 1)-th times the first, so p takes O(log p) products.
    """
    if p == 1:
        return _GENERATORS[gen](q_prec, span)
    if p % 2:
        return series_mul(_generator_power(gen, p - 1, q_prec, span), _generator_power(gen, 1, q_prec, span))
    half = _generator_power(gen, p // 2, q_prec, span)
    return series_mul(half, half)


@lru_cache(maxsize=CACHE_SIZE)
def _monomial_series(expos: tuple[int, int, int, int, int], q_prec: int, u_max: int) -> BigradedSeries:
    a, b, _, d, _ = expos
    u_val = -2 * a - 3 * b - d
    span = u_max - u_val
    if span < 0:
        raise PrecisionError(f"u_max={u_max} cannot reach the monomial valuation {u_val}")
    # Each power has span + 1 exponents from its valuation, and so has the
    # product of powers: its window ends at u_max.
    factors = [_generator_power(gen, p, q_prec, span) for gen, p in enumerate(expos) if p]
    if not factors:
        return BigradedSeries._raw(0, q_prec, 0, span, {(0, 0): 1}, 1)
    return reduce(series_mul, factors)


def expand(f: QJForm, q_prec: int = DEFAULT_QPREC, u_max: int = DEFAULT_UMAX) -> BigradedSeries:
    """Ring-homomorphic image of a weight-homogeneous form.

    Every term's coefficient times its monomial series is summed in one pass
    over the lcm of their denominators.  The zero form expands to the zero
    series with weight tag 0.
    """
    if q_prec < 1:
        raise PrecisionError("q_prec must be at least 1")
    if len(f.weight_components()) > 1:
        raise ValueError("expand requires a weight-homogeneous form; split it first")
    terms = [(coeff, _monomial_series(expos, q_prec, u_max)) for expos, coeff in f.terms()]
    den = math.lcm(*(coeff.denominator * mono._denom for coeff, mono in terms))
    # The window holds the zero series' and every monomial's.
    u_val = min(0, u_max, *(mono.u_val for _, mono in terms))
    out: dict[tuple[int, int], int] = {}
    for coeff, mono in terms:
        mult = coeff.numerator * (den // (coeff.denominator * mono._denom))
        for key, c in mono._coeffs.items():
            out[key] = out.get(key, 0) + mult * c
    weight = terms[0][1].weight if terms else 0
    return BigradedSeries._raw(weight, q_prec, u_val, u_max, *_canonical(out, den))
