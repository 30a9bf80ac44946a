"""Named verification suites: every invariant battery behind `qjalg verify`.

Each suite returns a list of :class:`Check` results and never raises: a
check whose computation raises is recorded as a failed check.  Randomized
batteries draw from a deterministic generator seeded per suite, so runs are
reproducible.  The `quick` flag shrinks the randomized sample sizes for
interactive use; the defaults meet the acceptance-level counts.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache, partial, reduce
from itertools import product
from math import comb, factorial, lcm
from operator import add
from time import perf_counter
from types import SimpleNamespace
from typing import Callable, Iterable, Iterator

from ._value import Value
from .calculus import (
    ALGEBRA_GENERATORS,
    BRACKET_DERIVATIONS,
    BRACKET_WEIGHT_SHIFT,
    DERIVATION_WEIGHT_SHIFT,
    Algebra,
    Bracket,
    Derivation,
    EisensteinMethod,
    StabilityReport,
    bracket,
    bracket_terms,
    check_stability,
    derive,
    eisenstein_in_generators,
    member,
    monomials_of_weight,
    star_truncated,
    transvectant_by_recurrence,
)
from .dimensions import (
    FAMILY_WEIGHTS,
    DimFamily,
    alcuin,
    dim_brute,
    dim_closed,
    modular_dim,
    nearest_int,
    series_coefficients,
)
from .forms import (
    DWP,
    E1,
    E2,
    E4,
    ONE,
    WP,
    ZERO,
    DepthProfile,
    QJForm,
    ScaledJForm,
    e6_form,
    q_coefficient,
)
from .series import (
    BigradedSeries,
    PrecisionError,
    SeriesDerivation,
    eisenstein_qseries,
    expand,
    series_add,
    series_derive,
    series_equal,
    series_mul,
    series_scale,
)


class Check(Value):
    """One named verification result; a failure carries a detail, and each its run time in seconds."""

    __slots__ = ("name", "ok", "detail", "seconds")


class _Recorder:
    def __init__(self) -> None:
        self.checks: list[Check] = []

    def check(self, name: str, run: Callable[[], str | None]) -> None:
        """Run one check, which returns None on success or a failure detail, and time it."""
        start = perf_counter()
        try:
            detail = run()
        except Exception as exc:  # a crash is a failed check, not a crashed suite
            detail = f"raised {type(exc).__name__}: {exc}"
        self.checks.append(Check(name, detail is None, detail or "", perf_counter() - start))


def _expect(got: object, expected: object) -> str | None:
    return None if got == expected else f"got {got}, expected {expected}"


def random_form(
    rng: random.Random,
    weight: int,
    algebra: Algebra = Algebra.JSINF,
    max_terms: int = 3,
) -> QJForm | None:
    """Random nonzero homogeneous form of the given weight, or None if empty."""
    monos = monomials_of_weight(weight, algebra)
    if not monos:
        return None
    chosen = rng.sample(monos, k=min(len(monos), rng.randint(1, max_terms)))
    return QJForm({m: Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 3)) for m in chosen})


def _random_form_retry(
    rng: random.Random, max_weight: int, algebra: Algebra = Algebra.JSINF, max_terms: int = 3
) -> QJForm:
    while True:
        f = random_form(rng, rng.randint(1, max_weight), algebra, max_terms)
        if f is not None:
            return f


def _samples(rng: random.Random, n: int, *max_weights: int, max_terms: int = 3) -> Iterator[tuple[QJForm, ...]]:
    # n random cases, drawn as they are consumed: one form of weight 1..w per w.
    for _ in range(n):
        yield tuple(_random_form_retry(rng, w, max_terms=max_terms) for w in max_weights)


def _first_failure(cases: Iterable[tuple[QJForm, ...]], law: Callable[..., str | None]) -> str | None:
    """The first detail `law` returns on a case, then ` on ` and the case's forms in parser syntax."""
    for forms in cases:
        detail = law(*forms)
        if detail:
            return f"{detail} on {' | '.join(map(str, forms))}"
    return None


# One case per generator of JSinf; `str` prints each by its name.
_GENERATORS = tuple((gen,) for _, gen in ALGEBRA_GENERATORS[Algebra.JSINF])


# ---------------------------------------------------------------------------
# identities: the displayed differential equations, exact and via the oracle
# ---------------------------------------------------------------------------

# Each equation as (lhs, rhs) in a context c that holds wp, dwp, e4, e1, e2,
# e6 and the derivations dz, dtau, either as forms or as their expansions.
_IDENTITIES: dict[str, Callable[[SimpleNamespace], tuple[object, object]]] = {
    "wp_ode": lambda c: (c.dwp * c.dwp + 60 * (c.e4 * c.wp) + 140 * c.e6, 4 * (c.wp * c.wp * c.wp)),
    "dtau_wp": lambda c: (
        -4 * c.dtau(c.wp),
        c.e1 * c.dwp + 2 * (c.wp * c.wp) - 2 * (c.e2 * c.wp) - 20 * c.e4,
    ),
    "dtau_e4_modular": lambda c: (c.dtau(c.e4), c.e4 * c.e2 - Fraction(7, 2) * c.e6),
    "dtau_e4_elliptic": lambda c: (
        c.dtau(c.e4),
        Fraction(-1, 10) * (c.wp * c.wp * c.wp)
        + Fraction(1, 40) * (c.dwp * c.dwp)
        + Fraction(3, 2) * (c.wp * c.e4)
        + c.e4 * c.e2,
    ),
    "dtau_e6": lambda c: (c.dtau(c.e6), Fraction(3, 2) * (c.e6 * c.e2) - Fraction(15, 7) * (c.e4 * c.e4)),
    "ob_e4": lambda c: (
        4 * c.dtau(c.e4) + c.e1 * c.dz(c.e4) - 4 * (c.e2 * c.e4),
        Fraction(-2, 5) * (c.wp * c.wp * c.wp) + 6 * (c.wp * c.e4) + Fraction(1, 10) * (c.dwp * c.dwp),
    ),
    "dz2_wp": lambda c: (c.dz(c.dwp), 6 * (c.wp * c.wp) - 30 * c.e4),
    "dtau_dwp": lambda c: (
        c.dtau(c.dwp),
        Fraction(3, 2) * ((5 * c.e4 - c.wp * c.wp) * c.e1) + Fraction(3, 4) * ((c.e2 - c.wp) * c.dwp),
    ),
    "ob_dwp": lambda c: (4 * c.dtau(c.dwp) + c.e1 * c.dz(c.dwp) - 3 * (c.e2 * c.dwp), -3 * (c.wp * c.dwp)),
    "ob_e1": lambda c: (
        4 * c.dtau(c.e1) + c.e1 * c.dz(c.e1) - c.e2 * c.e1,
        Fraction(1, 2) * c.dwp - c.e1 * c.e2,
    ),
    "dtau_e1": lambda c: (4 * c.dtau(c.e1), c.e1 * c.e2 + c.wp * c.e1 + Fraction(1, 2) * c.dwp),
    "ob_e2": lambda c: (
        4 * c.dtau(c.e2) + c.e1 * c.dz(c.e2) - 2 * (c.e2 * c.e2),
        -1 * (c.e2 * c.e2) - 5 * c.e4,
    ),
    "dtau_e2": lambda c: (c.dtau(c.e2), Fraction(1, 4) * (c.e2 * c.e2 - 5 * c.e4)),
    "dz_e1": lambda c: (c.dz(c.e1), -1 * c.wp - c.e2),
}


def suite_identities(rng: random.Random, quick: bool = False) -> list[Check]:
    rec = _Recorder()
    q_prec, u_max, min_window = 8, 16, 16

    @cache
    def form_ctx() -> SimpleNamespace:
        return SimpleNamespace(
            wp=WP,
            dwp=DWP,
            e4=E4,
            e1=E1,
            e2=E2,
            e6=e6_form(),
            dz=lambda f: derive(Derivation.DZ, f),
            dtau=lambda f: derive(Derivation.DTAU, f),
        )

    @cache
    def series_ctx() -> SimpleNamespace:
        return SimpleNamespace(
            **{k: expand(v, q_prec, u_max) for k, v in vars(form_ctx()).items() if isinstance(v, QJForm)},
            dz=lambda s: series_derive(SeriesDerivation.DU, s),
            dtau=lambda s: series_derive(SeriesDerivation.QDQ, s),
        )

    def exact(identity: Callable[[SimpleNamespace], tuple]) -> str | None:
        lhs, rhs = identity(form_ctx())
        return None if lhs == rhs else f"lhs-rhs = {lhs - rhs}"

    def oracle(identity: Callable[[SimpleNamespace], tuple]) -> str | None:
        return None if series_equal(*identity(series_ctx()), min_window) else "coefficient mismatch"

    for route, prefix in ((exact, "form"), (oracle, "series")):
        for name, identity in _IDENTITIES.items():
            rec.check(f"{prefix}:{name}", partial(route, identity))
    return rec.checks


# ---------------------------------------------------------------------------
# stability: derivation matrix, depth calculus, Q-coefficient formulas
# ---------------------------------------------------------------------------

# The stability table, one row per algebra: for dz, dtau and ob the first
# generator each maps out of the algebra, then for rc, rcd and tv an order-1
# pair whose bracket leaves it; None where the algebra is closed.
_DERIVATION_COLUMNS = (Derivation.DZ, Derivation.DTAU, Derivation.OB)
_STABILITY: dict[Algebra, tuple] = {
    Algebra.M: (None, "e4", None, None, None, None),
    Algebra.MINF: (None, None, None, None, None, None),
    Algebra.JS: (None, "wp", None, (E4, WP), None, (E4, WP)),
    Algebra.JS0INF: ("e1", "wp", "e1", None, (E1, E4), (E4, WP)),
    Algebra.JSINF0: (None, "wp", None, (E4, WP), None, None),
    Algebra.JSINF: (None, None, None, None, None, None),
}


def suite_stability(rng: random.Random, quick: bool = False) -> list[Check]:
    rec = _Recorder()
    n_forms = 40 if quick else 200
    n_pairs = 10 if quick else 40

    for alg, row in _STABILITY.items():
        for tag, witness in zip(_DERIVATION_COLUMNS, row):
            rec.check(
                f"matrix:{alg.value}/{tag.value}",
                lambda alg=alg, tag=tag, witness=witness: _expect(
                    check_stability(alg, tag), StabilityReport(witness is None, witness)
                ),
            )

    # Serre derivation on the modular generators.
    rec.check("serre:ob_e4", lambda: _expect(derive(Derivation.OB, E4), -14 * e6_form()))
    rec.check("serre:ob_e6", lambda: _expect(derive(Derivation.OB, e6_form()), Fraction(-60, 7) * E4**2))

    # Sampled, not decided: this is the premise that `derive` is a derivation,
    # on which every check decided on the generators below rests.
    def leibniz(f: QJForm, g: QJForm) -> str | None:
        for tag in Derivation:
            if derive(tag, f * g) != derive(tag, f) * g + f * derive(tag, g):
                return f"Leibniz fails for {tag}"
        return None

    rec.check("leibniz:all_tags", lambda: _first_failure(_samples(rng, n_pairs, 8, 8), leibniz))

    # Decided on the generators.  For derivations D and E, [D, E] and
    # [Delta, D] - D are again derivations, so each vanishes everywhere when
    # it vanishes on the generators; by the Leibniz rule, a weight shift and
    # a depth increase of at most (1, 0) hold on every form when they hold
    # on each generator.
    dz, dtau = partial(derive, Derivation.DZ), partial(derive, Derivation.DTAU)
    rec.check(
        "commutation:dz_dtau",
        lambda: _first_failure(_GENERATORS, lambda x: None if dz(dtau(x)) == dtau(dz(x)) else "dz dtau != dtau dz"),
    )

    def delta_commutator(x: QJForm) -> str | None:
        for tag in (Derivation.DTAU, Derivation.DJAC):
            if derive(Derivation.DELTA, derive(tag, x)) - derive(tag, derive(Derivation.DELTA, x)) != derive(tag, x):
                return f"Delta-commutator fails for {tag}"
        return None

    rec.check("delta_commutator:dtau_djac", lambda: _first_failure(_GENERATORS, delta_commutator))

    def weight_shift(x: QJForm) -> str | None:
        for tag, shift in DERIVATION_WEIGHT_SHIFT.items():
            img = derive(tag, x)
            if img and [w for w, _ in img.weight_components()] != [x.weight() + shift]:
                return f"{tag} is not homogeneous of shift {shift}"
        return None

    rec.check("weight_shift:derivations", lambda: _first_failure(_GENERATORS, weight_shift))

    def ob_depth(x: QJForm) -> str | None:
        # Ob preserving JS is the matrix cell JS/ob.
        (s1, s2), img = x.depth(), derive(Derivation.OB, x)
        d1, d2 = img.depth() if img else (0, 0)
        return f"Ob depth ({d1},{d2}) exceeds ({s1 + 1},{s2})" if d1 > s1 + 1 or d2 > s2 else None

    rec.check("ob:depth_and_js", lambda: _first_failure(_GENERATORS, ob_depth))

    # Phi(f) = f(e1 + Y, e2 - X) is a ring homomorphism, and Q_{j1,j2}(f) is
    # its X^j1 Y^j2 coefficient.  Each Q rule reads Phi D = E Phi for a
    # derivation E of the target ring, in which the weight k acts as
    # W + 2X d/dX + Y d/dY, so it holds on every form when it holds on each
    # generator x at every (j1, j2); both sides vanish beyond
    # max(depth(Dx), depth(x) + (1, 1)).  A refined inclusion holds on every
    # monomial, and so on every form, when it holds on each generator.  The
    # laws run in the order inclusions, dz, dtau, Ob, so that a wrong image is
    # reported by the first law that reads it.
    def q_calculus(x: QJForm) -> str | None:
        k, (s1, s2) = x.weight(), x.depth()
        for name, derivation, allowed in (
            ("dz", dz, lambda e, d: (e <= s1 and d <= s2) or (e <= s1 + 1 and d <= s2 - 1)),
            ("dtau", dtau, lambda e, d: (e <= s1 + 1 and d <= s2) or (e <= s1 and d <= s2 + 1)),
            ("d", partial(derive, Derivation.DJAC), lambda e, d: e <= s1 + 1 and d <= s2),
        ):
            if not all(allowed(e, d) for (*_, d, e), _ in derivation(x).terms()):
                return f"refined {name} inclusion fails"

        def q(i: int, j: int) -> QJForm:
            return q_coefficient(x, i, j).form

        def rhs(tag: Derivation, i: int, j: int) -> QJForm:
            if tag is Derivation.DZ:
                return dz(q(i, j)) + (j + 1) * q(i - 1, j + 1)
            if tag is Derivation.DTAU:
                return dtau(q(i, j)) - Fraction(1, 4) * (dz(q(i, j - 1)) + (k - i + 1) * q(i - 1, j))
            ob = 4 * dtau(q(i, j)) + E1 * dz(q(i, j)) - k * (E2 * q(i, j))
            return ob + (i + j - 1) * q(i - 1, j) + (j + 1) * (E1 * q(i - 1, j + 1))

        for name, tag in (("dz", Derivation.DZ), ("dtau", Derivation.DTAU), ("Oberdieck", Derivation.OB)):
            img = derive(tag, x)
            d1, d2 = img.depth() if img else (0, 0)
            for i in range(max(d1, s1 + 1) + 1):
                for j in range(max(d2, s2 + 1) + 1):
                    if q_coefficient(img, i, j).form != rhs(tag, i, j):
                        return f"Q {name} formula fails at ({i},{j})"
        return None

    # Sampled: the premises (depth additivity; the Q product rule, which says Phi
    # is a homomorphism) and the facts that are not derivation laws.
    def structure(f: QJForm, g: QJForm) -> str | None:
        s1, s2 = f.depth()
        t1, t2 = g.depth()
        if (f * g).depth() != DepthProfile(s1 + t1, s2 + t2):
            return "depth additivity fails"
        for i, j in ((0, 0), (1, 0), (0, 1), (1, 1), (2, 1)):
            lhs = q_coefficient(f * g, i, j)
            acc = ScaledJForm(ZERO, 0)
            for al in range(i + 1):
                for ga in range(j + 1):
                    acc = acc + q_coefficient(f, al, ga) * q_coefficient(g, i - al, j - ga)
            if lhs.form != acc.form:
                return f"Q product rule fails at ({i},{j})"
            if not lhs.is_zero() and lhs.c_power != i + j:
                return f"Q c-power wrong at ({i},{j})"
        if not q_coefficient(f, s1 + 1, s2).is_zero() or not q_coefficient(f, s1, s2 + 1).is_zero():
            return "Q does not vanish beyond depth"
        corner = q_coefficient(f, s1, s2)
        if not member(corner.form, Algebra.JS):
            return "corner coefficient leaves JS"
        if not corner.is_zero() and corner.form.weight() != f.weight() - 2 * s1 - s2:
            return "corner weight wrong"
        return None

    rec.check(
        "structure:depth_q_calculus",
        lambda: _first_failure(_GENERATORS, q_calculus) or _first_failure(_samples(rng, n_forms, 14, 10), structure),
    )
    return rec.checks


# ---------------------------------------------------------------------------
# brackets: laws decided on symbols, the stability table's bracket columns, recurrence
# ---------------------------------------------------------------------------

# Decided laws.  A bracket is a bidifferential operator in the commuting
# derivations BRACKET_DERIVATIONS[tag] (commutation:dz_dtau), so a law of
# brackets holds in every algebra with them when its symbol vanishes: give each
# base form a variable per derivation, and read D^a of a product of base forms
# as the powers a of the sums of their variables.  A symbol monomial is one int
# key with a _WIDTH-bit exponent field per variable, so a product of monomials
# is a sum of keys.
_WIDTH = 8
_MASK = (1 << _WIDTH) - 1


def _field(key: int, v: int) -> int:
    """The exponent of variable v in a symbol key."""
    return key >> _WIDTH * v & _MASK


def _poly_sum(terms: Iterable[tuple[int, dict]]) -> dict:
    out: dict = {}
    for c, poly in terms:
        for m, v in poly.items():
            out[m] = out.get(m, 0) + c * v
    return {m: v for m, v in out.items() if v}


def _poly_mul(p: dict, q: dict) -> dict:
    return _poly_sum((c, {m + m2: v for m2, v in q.items()}) for m, c in p.items())


@cache  # a few dozen entries over the laws below; callers never mutate them
def _sum_power(variables: tuple[int, ...], p: int) -> dict:
    units = {1 << _WIDTH * v: 1 for v in variables}
    return _poly_mul(_sum_power(variables, p - 1), units) if p else {0: 1}


def _symbol_bracket(tag: Bracket, x: tuple, y: tuple, n: int, memo: dict) -> tuple:
    """The order-n bracket of symbols (polynomial, variables per derivation, weight); order 0 is the product."""
    (p, xs, k), (q, ys, l) = x, y
    if (key := (tag, k, l, n, xs, ys)) not in memo:  # the bracket over the polynomials of x and y
        one = (0,) * len(xs)
        terms = bracket_terms(tag, k, l, n) if n else [(1, one, one)]
        memo[key] = _poly_sum((c, reduce(_poly_mul, map(_sum_power, xs + ys, a + b))) for c, a, b in terms)
    return _poly_mul(_poly_mul(p, q), memo[key]), tuple(map(add, xs, ys)), k + l + BRACKET_WEIGHT_SHIFT[tag] * n


def _decide(failure: str, tags: Iterable[Bracket], orders: range, arity: int, law: Callable) -> str | None:
    """The first tag, order n and weights in {0..n}^arity where the symbol `law(tag, bracket, bases, n)` is nonzero.

    Each coefficient of bracket_terms(tag, k, l, m) has degree <= m in k and in l, so a law of order n has
    symbol coefficients of degree <= n in each weight, and it holds at every weight when it holds on the grid.
    A table equal at every order m <= n to its value at (0, 0) on {0..m}^2 is thus constant, and a law reads
    the weights only through bracket_terms (theta_tower, which reads them too, runs on rc and rcd, whose
    tables vary), so the weights (0, ..., 0) then decide it: one point for tv's weight-free (-1)^r C(n, r).
    An exponent in the symbols of a law of order n is at most max(n, 2), the 2 from phi^2 in theta_tower, so
    every exponent fits its key field when the top order does.
    """
    if max(orders) >> _WIDTH:
        raise ValueError(f"order {max(orders)} passes the {_WIDTH}-bit exponent field of a symbol key")
    memo: dict = {}
    for tag, n in product(tags, orders):
        d = len(BRACKET_DERIVATIONS[tag])
        symbol_bracket = partial(_symbol_bracket, tag, memo=memo)
        constant = all(bracket_terms(tag, k, l, m) == bracket_terms(tag, 0, 0, m)
                       for m in range(1, n + 1) for k, l in product(range(m + 1), repeat=2))
        for weights in product(range(1 if constant else n + 1), repeat=arity):
            bases = [({0: 1}, tuple((i * d + j,) for j in range(d)), w) for i, w in enumerate(weights)]
            if law(tag, symbol_bracket, bases, n):
                return f"{tag} {failure} at n={n}, weights {weights}"
    return None


def _classical_rc_qseries(k: int, l: int, fs: BigradedSeries, gs: BigradedSeries, n: int) -> BigradedSeries:
    # Classical Rankin-Cohen bracket evaluated directly on q-expansions.
    ftower, gtower = [fs], [gs]
    for _ in range(n):
        ftower.append(series_derive(SeriesDerivation.QDQ, ftower[-1]))
        gtower.append(series_derive(SeriesDerivation.QDQ, gtower[-1]))
    out = BigradedSeries(k + l + 2 * n, min(fs.q_prec, gs.q_prec), 0, 0)
    for r in range(n + 1):
        coeff = (-1) ** r * comb(k + n - 1, n - r) * comb(l + n - 1, r)
        out = series_add(out, series_scale(coeff, series_mul(ftower[r], gtower[n - r])))
    return out


def suite_brackets(rng: random.Random, quick: bool = False) -> list[Check]:
    rec = _Recorder()
    n_rec_pairs = 8 if quick else 50

    # Cayley's Omega-process: D = dtau and Z = dz commute, so tv_n = mu (D x Z - Z x D)^n when this symbol vanishes.
    def binomial_table(tag: Bracket, b: Callable, bases: list, n: int) -> dict:
        omega = {1 | 1 << 3 * _WIDTH: 1, 1 << _WIDTH | 1 << 2 * _WIDTH: -1}  # x_D*y_Z - x_Z*y_D
        return _poly_sum([(1, b(*bases, n)[0]), (-1, reduce(_poly_mul, [omega] * n))])

    # With d = D + (e1/4)*Z and E = e1 x 1 - 1 x e1, D x Z - Z x D = d x Z - Z x d - E*(Z x Z)/4.  Moved to the left,
    # each E differentiates e1 or dies under mu, so tv closes an algebra when d and dz map e1 and its generators into it.
    def tv_frame(alg: Algebra, x: QJForm) -> str | None:
        d, dz = derive(Derivation.DJAC, x), derive(Derivation.DZ, x)
        in_frame = derive(Derivation.DTAU, x) == d - Fraction(1, 4) * (E1 * dz)
        return None if in_frame and member(d, alg) and member(dz, alg) else f"the (d, dz) frame leaves {alg.value}"

    # The bracket columns of the stability table, one check per cell; a closed cell is decided in its bracket's frame.
    def cell(tag: Bracket, alg: Algebra, pair: tuple | None) -> str | None:
        gens = [(x,) for _, x in ALGEBRA_GENERATORS[alg]]
        if pair:  # open: both forms lie in the algebra and their bracket does not
            return _first_failure([pair], lambda f, g: None if member(f, alg) and member(g, alg) and not member(
                bracket(tag, f, g, 1), alg) else f"{tag} order 1 does not leave {alg.value}")
        if tag is Bracket.TV and alg in (Algebra.M, Algebra.MINF):  # each tv:binomial_table term has a dz
            return _first_failure(gens, lambda x: "dz is nonzero" if derive(Derivation.DZ, x) else None)
        if tag is Bracket.TV:  # on JSinf0 and JSinf, whose generators with e1 are the five
            return _first_failure(_GENERATORS, partial(tv_frame, alg))
        # rc or rcd in the frame of rc:theta_tower, with D the bracket's derivation:
        # theta = D - 2*phi*delta is a derivation, so it maps the algebra into itself
        # when it maps each generator there, and then with Phi every f_r stays inside.
        (d,), phi = BRACKET_DERIVATIONS[tag], Fraction(1, 4) * E2
        failure = _first_failure(gens, lambda x: None if member(
            derive(d, x) - 2 * phi * derive(Derivation.DELTA, x), alg) else f"theta leaves {alg.value}")
        big_phi = phi * phi - derive(d, phi)
        return failure or (None if member(big_phi, alg) else f"Phi = {big_phi} leaves {alg.value}")

    def theta_tower(tag: Bracket, b: Callable, bases: list, n: int) -> dict:
        # Zagier's canonical Rankin-Cohen algebra.  In the free differential
        # algebra of f, g and phi, with theta h = D h - (wt h)*phi*h and
        # Phi = phi^2 - D phi, f_0 = f and f_(r+1) = theta f_r - r(k+r-1)*Phi*f_(r-1)
        # give [f, g]_n = sum of c*f_i*g_j over bracket_terms.  A key holds the
        # power of D^p of the s-th of f, g, phi in field s*(n+1) + p (only p < n is
        # differentiated); c and f_i have degrees n - i and <= i in k, and c and
        # g_j degrees i and <= n - i in l, so the weight grid decides it.
        (*_, k), (*_, l), size = *bases, 3 * (n + 1)
        var = [{1 << _WIDTH * v: 1} for v in range(size)]

        def d(p: dict) -> dict:  # D^p x -> D^(p+1) x by the Leibniz rule, adding -1 at v and +1 at v + 1 to a key
            return _poly_sum((c * e, {m + (_MASK << _WIDTH * v): 1}) for m, c in p.items()
                             for v in range(size) if (e := _field(m, v)))

        phi, fs, gs = var[2 * (n + 1)], [var[0]], [var[n + 1]]
        big_phi = _poly_sum([(1, _poly_mul(phi, phi)), (-1, d(phi))])
        for r, (t, w) in product(range(n), ((fs, k), (gs, l))):  # the Phi term is zero at r = 0
            t.append(_poly_sum([(1, d(t[r])), (-(w + 2 * r), _poly_mul(phi, t[r])),
                                (-r * (w + r - 1), _poly_mul(big_phi, t[r - 1]))]))
        return _poly_sum(x for c, (i,), (j,) in bracket_terms(tag, k, l, n)
                         for x in ((c, _poly_mul(var[i], var[n + 1 + j])), (-c, _poly_mul(fs[i], gs[j]))))

    tower = partial(_decide, "theta-tower identity fails", [Bracket.RC_TAU, Bracket.RC_D], range(1, 5), 2, theta_tower)
    rec.check("rc:theta_tower", tower)
    table = partial(_decide, "table is not (D x Z - Z x D)^n", [Bracket.TV], range(1, 9), 2, binomial_table)
    rec.check("tv:binomial_table", table)
    for column, tag in enumerate(Bracket, len(_DERIVATION_COLUMNS)):
        for alg, row in _STABILITY.items():
            rec.check(f"stability:{tag.value}/{alg.value}", partial(cell, tag, alg, row[column]))

    # rcd(e4, wp, 1) lies in JS.
    rcd_e4_wp = Fraction(1, 5) * WP**4 - 5 * (WP**2 * E4) + 20 * E4**2 - Fraction(1, 20) * (WP * DWP**2)
    rec.check("value:rcd_e4_wp_in_JS", lambda: _expect(bracket(Bracket.RC_D, E4, WP, 1), rcd_e4_wp))
    rec.check(
        "value:tv_e2_e1",
        lambda: _expect(bracket(Bracket.TV, E2, E1, 1), Fraction(1, 4) * ((E2**2 - 5 * E4) * (-1 * WP - E2))),
    )

    def asymmetry(tag: Bracket, b: Callable, bases: list, n: int) -> dict:
        f, g = bases
        return _poly_sum([(1, b(f, g, n)[0]), (-((-1) ** n), b(g, f, n)[0])])

    def wrong_weight(tag: Bracket, b: Callable, bases: list, n: int) -> dict:
        # Each variable weighs its derivation's shift (weight_shift:derivations).
        w = [DERIVATION_WEIGHT_SHIFT[d] for d in BRACKET_DERIVATIONS[tag]] * 2
        return {m: c for m, c in b(*bases, n)[0].items()
                if sum(s * _field(m, v) for v, s in enumerate(w)) != BRACKET_WEIGHT_SHIFT[tag] * n}

    rec.check("symmetry:minus_one_n", partial(_decide, "symmetry fails", Bracket, range(1, 4), 2, asymmetry))
    rec.check("weight_shift:brackets", partial(_decide, "weight shift wrong", Bracket, range(1, 4), 2, wrong_weight))

    def tv_recurrence(f: QJForm, g: QJForm) -> str | None:
        for n in range(6):
            if transvectant_by_recurrence(f, g, n) != bracket(Bracket.TV, f, g, n):
                return f"recurrence != formula at n={n}"
        return None

    rec.check(
        "tv:recurrence_equals_formula",
        lambda: _first_failure(_samples(rng, n_rec_pairs, 6, 6, max_terms=2), tv_recurrence),
    )
    rec.check(
        "classical:rc1_e4_e6",
        lambda: _expect(
            bracket(Bracket.RC_TAU, E4, e6_form(), 1), 21 * e6_form() ** 2 - Fraction(60, 7) * E4**3
        ),
    )

    def classical_restriction() -> str | None:
        q_prec, u_max = 8, 16
        fs = eisenstein_qseries(4, q_prec)
        gs = eisenstein_qseries(6, q_prec)
        for n in range(4):
            rc_form = bracket(Bracket.RC_TAU, E4, e6_form(), n)
            rhs = _classical_rc_qseries(4, 6, fs, gs, n)
            # orders 2 and 3 land in zero cusp spaces; both routes must vanish
            if not series_equal(expand(rc_form, q_prec, u_max), rhs, 1):
                return f"classical RC mismatch at n={n}"
            if bracket(Bracket.RC_D, E4, e6_form(), n) != rc_form:
                return f"rc_d differs from rc_tau on M at n={n}"
        return None

    rec.check("classical:restriction_to_M", classical_restriction)
    return rec.checks


# ---------------------------------------------------------------------------
# deformations: order-by-order associativity of the three star products
# ---------------------------------------------------------------------------

def suite_deformations(rng: random.Random, quick: bool = False) -> list[Check]:
    rec = _Recorder()

    # Decided on symbols.  The tv star product weighs bracket n by 1/n!, so its
    # order-n associativity weighs the split (r, n - r) by C(n, r).  At (f, e1, g),
    # rewritten by [a, b]_m = (-1)^m [b, a]_m, its defect is the e1 transfer.
    def associativity_defect(tag: Bracket, b: Callable, bases: list, n: int) -> dict:
        (f, g, h), weights = bases, [comb(n, r) if tag is Bracket.TV else 1 for r in range(n + 1)]
        terms = [(w, b(b(f, g, r), h, n - r)) for r, w in enumerate(weights)]
        return _poly_sum((c, x[0]) for c, x in terms + [(-w, b(f, b(g, h, r), n - r)) for r, w in enumerate(weights)])

    for tag, top in ((Bracket.TV, 8), (Bracket.RC_TAU, 4), (Bracket.RC_D, 4)):
        decide = partial(_decide, "associativity fails", [tag], range(top + 1), 3, associativity_defect)
        rec.check(f"associativity:{tag.value}", decide)

    pair = [(E1 + E4, DWP - E2 * E1)]  # a fixed mixed-weight pair for two unit checks

    def star_tv(f: QJForm, g: QJForm) -> str | None:
        expected = [f * g] + [Fraction(1, factorial(n)) * bracket(Bracket.TV, f, g, n) for n in (1, 2, 3)]
        return _expect(star_truncated(Bracket.TV, f, g, 3), expected)

    rec.check("star:tv_coefficients", partial(_first_failure, pair, star_tv))

    def star_rc(f: QJForm, g: QJForm) -> str | None:
        heads = star_truncated(Bracket.RC_TAU, f, g, 2)
        return _expect([heads[0], heads[2]], [f * g, bracket(Bracket.RC_TAU, f, g, 2)])

    rec.check("star:rc_coefficients", partial(_first_failure, pair, star_rc))
    return rec.checks


# ---------------------------------------------------------------------------
# dimensions: closed forms, recurrences, oracle triangle
# ---------------------------------------------------------------------------

_FAMILY_ALGEBRA = {
    DimFamily.DS: Algebra.JS,
    DimFamily.DS0INF: Algebra.JS0INF,
    DimFamily.DSINF0: Algebra.JSINF0,
    DimFamily.DSINF: Algebra.JSINF,
}


def suite_dimensions(rng: random.Random, quick: bool = False) -> list[Check]:
    rec = _Recorder()
    krec = 120 if quick else 500

    rec.check(
        "ds:table",
        lambda: _expect(
            [dim_closed(DimFamily.DS, k) for k in (0, 1, 2, 4, 6, 8, 10, 12)], [1, 0, 1, 2, 3, 4, 5, 7]
        ),
    )

    # Decided on len(w) values per residue mod lcm(w).  1/prod(1 - z^w) is proper, so
    # the brute and series counts are, for every k >= 0, a quasi-polynomial of period
    # lcm(w) and degree < len(w), as dim_closed is by construction.
    def triangle() -> str | None:
        for fam, weights in FAMILY_WEIGHTS.items():
            top = lcm(*weights) * len(weights)
            coeffs = series_coefficients(fam, top - 1)
            for k in range(top):
                closed = dim_closed(fam, k)
                brute = dim_brute(fam, k)
                if not (closed == brute == coeffs[k]):
                    return f"{fam.value} k={k}: closed={closed} brute={brute} series={coeffs[k]}"
        return None

    rec.check("triangle:closed_brute_series", triangle)

    def recurrences() -> str | None:
        for k in range(krec + 1):
            if dim_closed(DimFamily.DS, 2 * k + 3) != dim_closed(DimFamily.DS, 2 * k):
                return f"even-odd recurrence fails at k={k}"
            if dim_closed(DimFamily.DS, 2 * k + 13) != dim_closed(DimFamily.DS, 2 * k + 1) + k + 5:
                return f"shift-13 recurrence fails at k={k}"
            if dim_closed(DimFamily.DS, k) != alcuin(k + 3):
                return f"alcuin shift fails at k={k}"
            if dim_closed(DimFamily.DS, k) != sum(modular_dim(2 * k - 8 * c) for c in range(k // 4 + 1)):
                return f"modular-sum identity fails at k={k}"
            compact = Fraction(k**3 + 15 * k**2 + (72 * k + 144 if k % 2 == 0 else 63 * k + 65), 144)
            if dim_closed(DimFamily.DS0INF, k) != nearest_int(compact):
                return f"compact formula fails at k={k}"
        return None

    rec.check("recurrences:k_le_500", recurrences)

    def monomial_counts() -> str | None:
        top = 30 if quick else 60
        for fam, alg in _FAMILY_ALGEBRA.items():
            for k in range(top + 1):
                if len(monomials_of_weight(k, alg)) != dim_brute(fam, k):
                    return f"monomial count mismatch {fam.value} k={k}"
        return None

    rec.check("cross:monomial_spans", monomial_counts)
    rec.check(
        "nearest_int:convention",
        lambda: _expect([nearest_int(Fraction(*p)) for p in ((5, 2), (-1, 2), (7, 3))], [2, -1, 2]),
    )
    rec.check(
        "modular_dim:values",
        lambda: _expect(
            [modular_dim(0), modular_dim(14), modular_dim(-8)]
            + [modular_dim(j + 12) - modular_dim(j) for j in range(-60, 61)],
            [1, 1, 0] + [1] * 121,
        ),
    )
    rec.check("alcuin:values", lambda: _expect((alcuin(0), alcuin(3), alcuin(15)), (0, 1, 7)))
    return rec.checks


# ---------------------------------------------------------------------------
# oracle: expansion homomorphism, derivation correspondences, Eisenstein data
# ---------------------------------------------------------------------------

def suite_oracle(rng: random.Random, quick: bool = False) -> list[Check]:
    rec = _Recorder()
    n_random = 8 if quick else 30
    q_prec, u_max = 8, 16

    for k, head in ((2, [Fraction(1, 3), -8, -24]), (4, [Fraction(1, 45), Fraction(16, 3)]),
                    (6, [Fraction(2, 945), Fraction(-16, 15)])):
        rec.check(
            f"eisenstein:ee{k}_head",
            lambda k=k, head=head: _expect(
                [eisenstein_qseries(k, len(head)).coefficient(m, 0) for m in range(len(head))], head
            ),
        )

    def wp_leading() -> str | None:
        s = expand(WP, 1, 2)
        return _expect([s.coefficient(0, n) for n in (-2, 0, 2)], [1, 0, Fraction(1, 15)])

    rec.check("expand:wp_leading", wp_leading)

    def one() -> str | None:
        s = expand(ONE, 2, 2)
        return _expect((s.weight, s.coefficient(0, 0)), (0, 1))

    rec.check("expand:one", one)

    # At this window expand is injective only through weight 8 (pinned in the
    # tests), so every expansion compared below has weight <= 8.  Sampled: the
    # premise that expand is a ring homomorphism.
    def add_mul_cases() -> Iterator[tuple[QJForm, QJForm, QJForm]]:
        # f and g share a weight k, and h has weight at most 8 - k.
        for _ in range(n_random):
            k = rng.randint(1, 8)
            f, g = random_form(rng, k), random_form(rng, k)
            yield f, g, random_form(rng, rng.randint(0, 8 - k))

    def homomorphism(f: QJForm, g: QJForm, h: QJForm) -> str | None:
        rhs = series_add(expand(f, q_prec, u_max), expand(g, q_prec, u_max))
        if not series_equal(expand(f + g, q_prec, u_max), rhs, 8):
            return "additivity fails"
        lhs2 = expand(f * h, q_prec, u_max)
        rhs2 = series_mul(expand(f, q_prec, u_max), expand(h, q_prec, u_max))
        if not series_equal(lhs2, rhs2, 8):
            return "multiplicativity fails"
        return None

    rec.check("homomorphism:add_mul", lambda: _first_failure(add_mul_cases(), homomorphism))

    # Decided on the generators: expand.D and D'.expand are derivations along the
    # homomorphism expand (leibniz:all_tags; du and qdq act termwise), so they agree when they agree there.
    def correspondence(f: QJForm) -> str | None:
        for tag, series_tag in ((Derivation.DZ, SeriesDerivation.DU), (Derivation.DTAU, SeriesDerivation.QDQ)):
            rhs = series_derive(series_tag, expand(f, q_prec, u_max))
            if not series_equal(expand(derive(tag, f), q_prec, u_max), rhs, 8):
                return f"{tag.value} correspondence fails"
        return None

    rec.check("correspondence:dz_dtau", partial(_first_failure, _GENERATORS, correspondence))

    # Decided on the generators: products add weights and u-parities, and sums of one weight keep them.
    def parity(f: QJForm) -> str | None:
        k = f.weight()
        for (_, n), coeff in expand(f, 4, 10).items():
            if coeff and (n - k) % 2 != 0:
                return f"parity fails: u^{n} present at weight {k}"
        return None

    rec.check("parity:u_exponents", partial(_first_failure, _GENERATORS, parity))

    def gunther_series() -> str | None:
        # Both sides lie in Minf_{2n+4}, whose expansions have full rank from q_prec 8 on.
        qp, um = 8, 12
        ee = {j: expand(eisenstein_in_generators(j), qp, um) for j in range(4, 16, 2)}
        ee2 = expand(E2, qp, um)
        for n in range(1, 6):
            lhs = 2 * (2 * n + 1) * series_derive(SeriesDerivation.QDQ, ee[2 * n + 2])
            rhs = (n + 1) * (2 * n + 1) * series_mul(ee[2 * n + 2], ee2)
            rhs = series_add(rhs, series_scale(-(n + 2) * (2 * n + 5), ee[2 * n + 4]))
            for a in range(1, n):
                coeff = (2 * a + 1) * (a - 2 * (n - a) - 1)
                rhs = series_add(rhs, series_scale(coeff, series_mul(ee[2 * a + 2], ee[2 * (n - a) + 2])))
            if not series_equal(lhs, rhs, 8):
                return f"series identity fails at n={n}"
        return None

    rec.check("gunther:series_consistency", gunther_series)

    def method_agreement() -> str | None:
        for two_n in range(4, 26, 2):
            laurent, gunther = (eisenstein_in_generators(two_n, m) for m in EisensteinMethod)
            if laurent != gunther:
                return f"laurent != gunther at weight {two_n}"
        return None

    rec.check("eisenstein:method_agreement", method_agreement)
    rec.check("eisenstein:e8_value", lambda: _expect(eisenstein_in_generators(8), Fraction(3, 7) * E4**2))
    rec.check(
        "eisenstein:e10_value", lambda: _expect(eisenstein_in_generators(10), Fraction(5, 11) * (E4 * e6_form()))
    )

    def fourier_laurent_match() -> str | None:
        for two_n in range(6, 16, 2):
            lhs = expand(eisenstein_in_generators(two_n), q_prec, u_max)
            rhs = eisenstein_qseries(two_n, q_prec)
            if not series_equal(lhs, rhs, 1):
                return f"expansion of e_{two_n} differs from its Fourier series"
        return None

    rec.check("eisenstein:fourier_vs_laurent", fourier_laurent_match)

    def precision_contract() -> str | None:
        narrow = expand(WP, 2, 2)
        try:
            series_equal(narrow, narrow, 10)
            return "narrow comparison did not raise"
        except PrecisionError:
            return None

    rec.check("precision:insufficient_window_raises", precision_contract)

    return rec.checks


SUITES: dict[str, Callable[[random.Random, bool], list[Check]]] = {
    "identities": suite_identities,
    "stability": suite_stability,
    "brackets": suite_brackets,
    "deformations": suite_deformations,
    "dimensions": suite_dimensions,
    "oracle": suite_oracle,
}

SUITE_NAMES = tuple(SUITES) + ("all",)


def run_suites(names: Iterable[str], seed: int = 20240801, quick: bool = False) -> dict[str, list[Check]]:
    """Run the named suites with per-suite deterministic randomness."""
    expanded: list[str] = []
    for name in names:
        if name == "all":
            expanded.extend(SUITES)
        elif name in SUITES:
            expanded.append(name)
        else:
            raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    out: dict[str, list[Check]] = {}
    for name in dict.fromkeys(expanded):
        rng = random.Random(f"{seed}:{name}")
        out[name] = SUITES[name](rng, quick)
    return out
