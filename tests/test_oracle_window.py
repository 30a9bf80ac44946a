"""The window of ``verify oracle``: where its expansions can tell forms apart.

At (q_prec, u_max) = (8, 16), ``expand`` is injective on the forms of weight
k exactly when the expansions of the weight-k monomials are linearly
independent.  The rank is computed mod p = 2^61 - 1 by the elimination
below; full rank mod p proves full rank over Q, since rank mod p <= rank
over Q <= the number of monomials.  The rank is full through weight 8 and
falls short at weight 9, so the suite's comparisons stay at weight <= 8.
"""

import random

import pytest

from qjforms import QJForm, expand, monomials_of_weight, verify

P = 2**61 - 1
Q_PREC, U_MAX = 8, 16


def rank_mod_p(vectors) -> int:
    # Gaussian elimination over GF(p) on sparse rows; each pivot row is
    # normalised to leading entry 1 at its smallest cell.
    pivots: dict = {}
    for vec in vectors:
        vec = {cell: x for cell, x in vec.items() if x}
        while vec:
            cell = min(vec)
            row = pivots.get(cell)
            if row is None:
                inv = pow(vec[cell], -1, P)
                pivots[cell] = {c: x * inv % P for c, x in vec.items()}
                break
            factor = vec[cell]
            for c, x in row.items():
                acc = (vec.get(c, 0) - factor * x) % P
                if acc:
                    vec[c] = acc
                else:
                    vec.pop(c, None)
    return len(pivots)


def expansion_rank(k: int) -> int:
    vectors = []
    for m in monomials_of_weight(k):
        s = expand(QJForm.monomial(m), Q_PREC, U_MAX)
        vectors.append({cell: c.numerator * pow(c.denominator, -1, P) % P for cell, c in s.items()})
    return rank_mod_p(vectors)


@pytest.mark.parametrize("k", range(1, 10))
def test_expansion_rank(k):
    count = len(monomials_of_weight(k))
    assert (expansion_rank(k), count) == ((35, 39) if k == 9 else (count, count))


def test_oracle_compares_inside_the_window(monkeypatch):
    # Record, per check, the largest weight that the suite expands at the
    # window; the two comparison batteries must stay where it is injective.
    current, heaviest = [None], {}
    check = verify._Recorder.check

    def named(self, name, run):
        current[0] = name
        check(self, name, run)

    def spy(f, q_prec, u_max):
        if f and (q_prec, u_max) == (Q_PREC, U_MAX):
            heaviest[current[0]] = max(heaviest.get(current[0], 0), f.weight())
        return expand(f, q_prec, u_max)

    monkeypatch.setattr(verify._Recorder, "check", named)
    monkeypatch.setattr(verify, "expand", spy)
    for seed in range(3):
        verify.suite_oracle(random.Random(seed), False)
    assert heaviest["homomorphism:add_mul"] <= 8
    assert heaviest["correspondence:dz_dtau"] <= 8
