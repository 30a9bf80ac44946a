"""Seeded inputs and the modular evaluation used to check products.

Inputs are built here from exponent tuples and ``Fraction`` coefficients,
not with ``qjforms.verify``, so that a change to the verify batteries
cannot change the benchmark's load.  Each round of a workload draws from
its own :class:`Draws`, seeded by (workload, seed, round), so the first R
rounds of a run are the same whatever the run length.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb

from qjforms import QJForm

# A Mersenne prime: products and powers are checked by evaluation at a
# random point modulo P (Schwartz-Zippel).
P = 2**61 - 1

GENERATOR_NAMES = ("wp", "dwp", "e4", "e1", "e2")
GENERATOR_WEIGHTS = (2, 3, 4, 1, 2)


class Draws:
    """The seeded draws of one round of a workload.

    ``rng`` makes the free choices (coefficients, orders, extra terms).
    ``deal`` gives the round's entry from a deck: a seeded sequence of
    shuffles of a fixed list, which deals each entry once per len(entries)
    rounds.  A run then uses the whole list about equally often, whatever
    the seed, so the load varies less from seed to seed than with
    independent draws; and round r is built without replaying rounds < r.
    """

    def __init__(self, workload: str, seed: int, round_no: int):
        self.rng = random.Random(f"{workload}/{seed}/{round_no}")
        self._key = f"{workload}/{seed}"
        self._round = round_no

    def deal(self, deck: str, entries: list):
        cycle, pos = divmod(self._round, len(entries))
        order = list(entries)
        random.Random(f"{self._key}/{deck}/{cycle}").shuffle(order)
        return order[pos]

    def share(self, deck: str, make, parts: int) -> tuple:
        """The round's slice of ``make(rng)``, a list drawn once per ``parts`` rounds and cut in ``parts``."""
        cycle, pos = divmod(self._round, parts)
        whole = _drawn(make, f"{self._key}/{deck}/{cycle}")
        size = len(whole) // parts
        return whole[pos * size : (pos + 1) * size]


@lru_cache(maxsize=4)
def _drawn(make, key: str) -> tuple:
    return tuple(make(random.Random(key)))


def weight_of(expos: tuple[int, ...]) -> int:
    return sum(w * p for w, p in zip(GENERATOR_WEIGHTS, expos))


def monomials(weight: int, e1: bool = True, e2: bool = True) -> list[tuple[int, int, int, int, int]]:
    """Exponent tuples (wp, dwp, e4, e1, e2) of the given weight (weights 2, 3, 4, 1, 2)."""
    out = []
    for e in range(weight // 2 + 1 if e2 else 1):
        for d in range(weight - 2 * e + 1 if e1 else 1):
            for c in range((weight - 2 * e - d) // 4 + 1):
                for b in range((weight - 2 * e - d - 4 * c) // 3 + 1):
                    rest = weight - 2 * e - d - 4 * c - 3 * b
                    if rest % 2 == 0:
                        out.append((rest // 2, b, c, d, e))
    return out


@lru_cache(maxsize=None)
def shapes(min_weight: int, max_weight: int, n_terms: int, e1: bool = True, e2: bool = True) -> list[tuple]:
    """Supports of n_terms distinct monomials of one weight (all of them where fewer exist)."""
    out = []
    for w in range(min_weight, max_weight + 1):
        monos = monomials(w, e1, e2)
        out += list(combinations(monos, n_terms)) if len(monos) >= n_terms else [tuple(monos)] if monos else []
    return out


def random_coeff(rng: random.Random, num: int, den: int) -> Fraction:
    return Fraction(rng.choice([x for x in range(-num, num + 1) if x]), rng.randint(1, den))


def random_form(
    rng: random.Random, weight: int, n_terms: int, num: int = 4, den: int = 3, e1: bool = True, e2: bool = True
) -> QJForm:
    """Homogeneous form with min(n_terms, #monomials) distinct monomials."""
    monos = monomials(weight, e1, e2)
    return form_on(rng, rng.sample(monos, min(n_terms, len(monos))), num, den)


def form_on(rng: random.Random, support, num: int = 4, den: int = 3) -> QJForm:
    return QJForm({m: random_coeff(rng, num, den) for m in support})


def random_point(rng: random.Random) -> tuple[int, ...]:
    return tuple(rng.randrange(1, P) for _ in range(5))


def _mod(c: Fraction) -> int:
    return c.numerator % P * pow(c.denominator, -1, P) % P


def eval_mod(form: QJForm, point: tuple[int, ...]) -> int:
    """Value of the form at a point modulo P, from its term list."""
    total = 0
    for expos, coeff in form.terms():
        v = _mod(coeff)
        for x, p in zip(point, expos):
            if p:
                v = v * pow(x, p, P) % P
        total += v
    return total % P


def q_coefficient_mod(form: QJForm, j1: int, j2: int, point: tuple[int, ...]) -> int:
    """Value at a point of the X^j1 Y^j2 coefficient of f(e1 + Y, e2 - X), modulo P."""
    wp, dwp, e4, e1, e2 = point
    total = 0
    for (a, b, c, d, e), coeff in form.terms():
        if e < j1 or d < j2:
            continue
        v = _mod(coeff) * comb(e, j1) * comb(d, j2) * (-1) ** j1
        v = v * pow(wp, a, P) * pow(dwp, b, P) * pow(e4, c, P) * pow(e1, d - j2, P) * pow(e2, e - j1, P)
        total += v
    return total % P


def render(form: QJForm) -> str:
    """Parser syntax for a form, written from its term list."""
    if not form:
        return "0"
    parts = []
    for expos, coeff in form.terms():
        factors = [f"{name}^{p}" if p > 1 else name for name, p in zip(GENERATOR_NAMES, expos) if p]
        mag = abs(coeff)
        if mag != 1 or not factors:
            factors.insert(0, f"{mag.numerator}/{mag.denominator}" if mag.denominator != 1 else str(mag))
        parts.append(("- " if coeff < 0 else "+ ") + "*".join(factors))
    text = " ".join(parts)
    # A leading minus would read as an option on the qjalg command line.
    return text[2:] if text.startswith("+ ") else f"(-{text[2:]})"
