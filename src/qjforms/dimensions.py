"""Dimension formulas for the graded pieces of the four form algebras.

Each family counts monomials in a fixed weight vector: the closed forms are
the quasi-polynomials of the dimension theorem, evaluated here exactly by
collapsing the (-1)^k, i^k and j^k oscillations into period-12 constants:
12 polynomial slices per family, precomputed once as integer numerators over
one denominator, so an evaluation is integer Horner and one ``divmod``.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction


class DimFamily(Enum):
    DS = "DS"          # JS_k: weights (2, 3, 4)
    DS0INF = "DS0inf"  # JS^{0,inf}_k: weights (1, 2, 3, 4)
    DSINF0 = "DSinf0"  # JS^{inf,0}_k: weights (2, 2, 3, 4)
    DSINF = "DSinf"    # JS^inf_k: weights (1, 2, 2, 3, 4)


FAMILY_WEIGHTS: dict[DimFamily, tuple[int, ...]] = {
    DimFamily.DS: (2, 3, 4),
    DimFamily.DS0INF: (1, 2, 3, 4),
    DimFamily.DSINF0: (2, 2, 3, 4),
    DimFamily.DSINF: (1, 2, 2, 3, 4),
}


def modular_dim(j: int) -> int:
    """Dimension formula for level-one modular forms, extended to all of Z.

    floor(j/12) plus 1 unless 12 divides j-2; satisfies d(j+12) = d(j)+1.
    The negative-argument values are a combinatorial convention only.
    """
    return j // 12 + (0 if (j - 2) % 12 == 0 else 1)


def nearest_int(x: Fraction) -> int:
    """Nearest integer, with exact halves rounding down."""
    return math.ceil(Fraction(x) - Fraction(1, 2))


# Quasi-polynomial data: polynomial part, (-1)^k-modulated part, and the
# period-4 / period-3 constant contributions, per family.
_S4 = (1, -1, -1, 1)    # (pa + ia*i) * i^k collapses to this real sequence
_S4PA = (1, 0, -1, 0)   # pa * i^k

_QUASI = {
    DimFamily.DS: (
        (Fraction(107, 288), Fraction(3, 16), Fraction(1, 48)),
        (Fraction(9, 32), Fraction(1, 16)),
        tuple(Fraction(s, 8) for s in _S4),
        (Fraction(2, 9), Fraction(-1, 9), Fraction(-1, 9)),
    ),
    DimFamily.DS0INF: (
        (Fraction(175, 288), Fraction(15, 32), Fraction(5, 48), Fraction(1, 144)),
        (Fraction(5, 32), Fraction(1, 32)),
        tuple(Fraction(s, 8) for s in _S4PA),
        (Fraction(1, 9), Fraction(0), Fraction(-1, 9)),
    ),
    DimFamily.DSINF0: (
        (Fraction(121, 288), Fraction(55, 192), Fraction(11, 192), Fraction(1, 288)),
        (Fraction(13, 32), Fraction(11, 64), Fraction(1, 64)),
        tuple(Fraction(s, 16) for s in _S4),
        (Fraction(1, 9), Fraction(-1, 9), Fraction(0)),
    ),
    DimFamily.DSINF: (
        (
            Fraction(4267, 6912),
            Fraction(55, 96),
            Fraction(199, 1152),
            Fraction(1, 48),
            Fraction(1, 1152),
        ),
        (Fraction(63, 256), Fraction(3, 32), Fraction(1, 128)),
        tuple(Fraction(s, 16) for s in _S4PA),
        (Fraction(2, 27), Fraction(-1, 27), Fraction(-1, 27)),
    ),
}


def _residue_polynomials(family: DimFamily) -> tuple[int, tuple[tuple[int, ...], ...]]:
    # One rational polynomial in k per residue class of k mod 12, stored as
    # integer numerators (highest degree first) over one common denominator.
    poly, alt, per4, per3 = _QUASI[family]
    degree = max(len(poly), len(alt))
    slices = []
    for r in range(12):
        sign = -1 if r % 2 else 1
        coeffs = [Fraction(0)] * degree
        for i, c in enumerate(poly):
            coeffs[i] += c
        for i, c in enumerate(alt):
            coeffs[i] += sign * c
        coeffs[0] += per4[r % 4] + per3[r % 3]
        slices.append(coeffs[::-1])
    den = math.lcm(*(c.denominator for coeffs in slices for c in coeffs))
    return den, tuple(tuple(int(c * den) for c in coeffs) for coeffs in slices)


_RESIDUES = {family: _residue_polynomials(family) for family in DimFamily}


def dim_closed(family: DimFamily, k: int) -> int:
    """Exact quasi-polynomial dimension of the weight-k piece."""
    if k < 0:
        raise ValueError("weights are nonnegative")
    den, slices = _RESIDUES[family]
    acc = 0
    for c in slices[k % 12]:
        acc = acc * k + c
    value, rem = divmod(acc, den)
    if rem:
        raise ArithmeticError(f"quasi-polynomial value {Fraction(acc, den)} is not an integer")
    return value


_brute_tables: dict[DimFamily, list[int]] = {}


def dim_brute(family: DimFamily, k: int) -> int:
    """Count solutions of sum(w_i * x_i) = k by dynamic programming."""
    if k < 0:
        raise ValueError("weights are nonnegative")
    table = _brute_tables.get(family)
    if table is None or len(table) <= k:
        # Grow geometrically, so an ascending sweep rebuilds O(log k) times.
        size = max(k + 1, 2 * len(table or ()), 256)
        table = [0] * size
        table[0] = 1
        for w in FAMILY_WEIGHTS[family]:
            for j in range(w, size):
                table[j] += table[j - w]
        _brute_tables[family] = table
    return table[k]


def series_coefficients(family: DimFamily, kmax: int) -> list[int]:
    """Coefficients 0..kmax of prod 1/(1 - z^w) by truncated series division."""
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")
    # Expand the denominator polynomial, then divide 1 by it.
    denom = [1]
    for w in FAMILY_WEIGHTS[family]:
        new = denom + [0] * w
        for i, c in enumerate(denom):
            new[i + w] -= c
        denom = new
    out = [0] * (kmax + 1)
    out[0] = 1  # denom[0] == 1
    for m in range(1, kmax + 1):
        acc = 0
        for i in range(1, min(m, len(denom) - 1) + 1):
            if denom[i]:
                acc += denom[i] * out[m - i]
        out[m] = -acc
    return out


def alcuin(n: int) -> int:
    """Integer-sided triangle count by perimeter n."""
    if n < 0:
        raise ValueError("perimeters are nonnegative")
    if n % 2 == 0:
        return nearest_int(Fraction(n * n, 48))
    return nearest_int(Fraction((n + 3) * (n + 3), 48))
