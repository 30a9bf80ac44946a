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
from functools import cache, partial
from itertools import product
from math import comb, factorial
from types import SimpleNamespace
from typing import Callable, Iterable, Iterator

from ._value import Value
from .calculus import (
    ALGEBRA_GENERATORS,
    BRACKET_WEIGHT_SHIFT,
    DERIVATION_WEIGHT_SHIFT,
    Algebra,
    Bracket,
    Derivation,
    EisensteinMethod,
    StabilityReport,
    bracket,
    check_stability,
    derive,
    eisenstein_in_generators,
    member,
    monomials_of_weight,
    star_truncated,
    transvectant_by_recurrence,
)
from .dimensions import (
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
    iter_terms,
    q_coefficient,
)
from .series import (
    BigradedSeries,
    PrecisionError,
    SeriesDerivation,
    eisenstein_qseries,
    eval_numeric,
    expand,
    series_add,
    series_derive,
    series_equal,
    series_mul,
    series_scale,
)


class Check(Value):
    """One named verification result; a failure carries a detail."""

    __slots__ = ("name", "ok", "detail")


class _Recorder:
    def __init__(self) -> None:
        self.checks: list[Check] = []

    def check(self, name: str, run: Callable[[], str | None]) -> None:
        """Run one check, which returns None on success or a failure detail."""
        try:
            detail = run()
        except Exception as exc:  # a crash is a failed check, not a crashed suite
            detail = f"raised {type(exc).__name__}: {exc}"
        self.checks.append(Check(name, detail is None, detail or ""))


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


def _samples(
    rng: random.Random, n: int, *max_weights: int, algebra: Algebra = Algebra.JSINF, max_terms: int = 3
) -> Iterator[tuple[QJForm, ...]]:
    # n random cases, drawn as they are consumed: one form of weight 1..w per w.
    for _ in range(n):
        yield tuple(_random_form_retry(rng, w, algebra, max_terms) for w in max_weights)


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

_EXPECTED_MATRIX: dict[tuple[Algebra, Derivation], str | None] = {
    (Algebra.M, Derivation.DZ): None,
    (Algebra.M, Derivation.DTAU): "e4",
    (Algebra.M, Derivation.OB): None,
    (Algebra.MINF, Derivation.DZ): None,
    (Algebra.MINF, Derivation.DTAU): None,
    (Algebra.MINF, Derivation.OB): None,
    (Algebra.JS, Derivation.DZ): None,
    (Algebra.JS, Derivation.DTAU): "wp",
    (Algebra.JS, Derivation.OB): None,
    (Algebra.JS0INF, Derivation.DZ): "e1",
    (Algebra.JS0INF, Derivation.DTAU): "wp",
    (Algebra.JS0INF, Derivation.OB): "e1",
    (Algebra.JSINF0, Derivation.DZ): None,
    (Algebra.JSINF0, Derivation.DTAU): "wp",
    (Algebra.JSINF0, Derivation.OB): None,
    (Algebra.JSINF, Derivation.DZ): None,
    (Algebra.JSINF, Derivation.DTAU): None,
    (Algebra.JSINF, Derivation.OB): None,
}


def suite_stability(rng: random.Random, quick: bool = False) -> list[Check]:
    rec = _Recorder()
    n_forms = 40 if quick else 200
    n_pairs = 10 if quick else 40

    for (alg, tag), witness in _EXPECTED_MATRIX.items():
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
        ):
            if not all(allowed(e, d) for (*_, d, e), _ in iter_terms(derivation(x))):
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
# brackets: stability theorems, witnesses, recurrence, classical restriction
# ---------------------------------------------------------------------------

def _classical_rc_qseries(k: int, l: int, fs: BigradedSeries, gs: BigradedSeries, n: int) -> BigradedSeries:
    # Classical Rankin-Cohen bracket evaluated directly on q-expansions.
    ftower = [fs]
    gtower = [gs]
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
    n_pairs = 15 if quick else 100
    n_rec_pairs = 8 if quick else 50
    n_misc = 8 if quick else 25

    def stability_battery(tag: Bracket, algebra: Algebra, with_e1: bool) -> Callable[[], str | None]:
        def stays(f: QJForm, g: QJForm) -> str | None:
            for n in range(5):
                if not member(bracket(tag, f, g, n), algebra):
                    return f"{tag} order {n} leaves {algebra.value}"
                if with_e1 and n >= 1 and not member(bracket(tag, f, E1, n), algebra):
                    return f"{tag} order {n} with e1 leaves {algebra.value}"
            return None

        return lambda: _first_failure(_samples(rng, n_pairs, 10, 10, algebra=algebra), stays)

    rec.check("rc_tau:preserves_JS0inf", stability_battery(Bracket.RC_TAU, Algebra.JS0INF, False))
    rec.check("rc_d:preserves_JS", stability_battery(Bracket.RC_D, Algebra.JS, False))
    rec.check("tv:preserves_JSinf0", stability_battery(Bracket.TV, Algebra.JSINF0, True))

    def rc_witness() -> str | None:
        w = bracket(Bracket.RC_TAU, E4, WP, 1)
        expected = (
            -1 * (E4 * E1 * DWP)
            + Fraction(1, 5) * WP**4
            - 5 * (WP**2 * E4)
            + 20 * E4**2
            - Fraction(1, 20) * (WP * DWP**2)
        )
        got = (w, w.depth(), member(w, Algebra.JSINF0), member(w, Algebra.JS))
        return _expect(got, (expected, (0, 1), False, False))

    rec.check("witness:rc_e4_wp", rc_witness)

    def rcd_witness() -> str | None:
        w = bracket(Bracket.RC_D, E1, E4, 1)
        return None if w.depth().s1 == 1 and not member(w, Algebra.JS0INF) else f"got depth {w.depth()}"

    rec.check("witness:rcd_e1_e4", rcd_witness)

    def tv_witness() -> str | None:
        w = bracket(Bracket.TV, E4, WP, 1)
        return None if not member(w, Algebra.JS0INF) else f"got {w}"

    rec.check("witness:tv_e4_wp", tv_witness)
    rec.check(
        "value:rcd_e4_wp_in_JS",
        lambda: _expect(
            bracket(Bracket.RC_D, E4, WP, 1),
            Fraction(1, 5) * WP**4 - 5 * (WP**2 * E4) + 20 * E4**2 - Fraction(1, 20) * (WP * DWP**2),
        ),
    )
    rec.check(
        "value:tv_e2_e1",
        lambda: _expect(bracket(Bracket.TV, E2, E1, 1), Fraction(1, 4) * ((E2**2 - 5 * E4) * (-1 * WP - E2))),
    )

    def tv_vanishes(f: QJForm, g: QJForm) -> str | None:
        for n in range(1, 4):
            if bracket(Bracket.TV, f, g, n) != ZERO:
                return f"tv order {n} is nonzero"
        return None

    rec.check(
        "tv:vanishes_on_M",
        lambda: _first_failure(product((E4, e6_form(), E4 * e6_form(), E4**2), repeat=2), tv_vanishes),
    )

    def e1_transfer(f: QJForm, g: QJForm) -> str | None:
        # Moving a factor e1 across the transvectant slots differs by lower
        # order brackets only; the exact combination follows from star
        # associativity.
        for n in range(1, 5):
            lhs = bracket(Bracket.TV, f * E1, g, n) - bracket(Bracket.TV, f, g * E1, n)
            rhs = f * bracket(Bracket.TV, E1, g, n) + (-1) ** (n - 1) * (g * bracket(Bracket.TV, E1, f, n))
            for i in range(1, n):
                c = comb(n, i)
                rhs = rhs - c * bracket(Bracket.TV, bracket(Bracket.TV, f, E1, i), g, n - i)
                rhs = rhs - c * (-1) ** (n - 1) * bracket(Bracket.TV, bracket(Bracket.TV, g, E1, i), f, n - i)
            if lhs != rhs:
                return f"e1-transfer identity fails at n={n}"
        return None

    rec.check(
        "tv:e1_transfer_identity", lambda: _first_failure(_samples(rng, n_misc, 6, 6, max_terms=2), e1_transfer)
    )

    def symmetry(f: QJForm, g: QJForm) -> str | None:
        for tag in Bracket:
            for n in range(4):
                if bracket(tag, f, g, n) != (-1) ** n * bracket(tag, g, f, n):
                    return f"{tag} symmetry fails at n={n}"
        return None

    rec.check("symmetry:minus_one_n", lambda: _first_failure(_samples(rng, n_misc, 8, 8), symmetry))

    def weight_pairs() -> Iterator[tuple[QJForm, QJForm]]:
        # Both weights are drawn before either form.
        for _ in range(n_misc):
            k, l = rng.randint(1, 8), rng.randint(1, 8)
            yield random_form(rng, k), random_form(rng, l)

    def weight_shifts(f: QJForm, g: QJForm) -> str | None:
        k = f.weight() + g.weight()
        for tag, per_n in BRACKET_WEIGHT_SHIFT.items():
            for n in range(4):
                h = bracket(tag, f, g, n)
                if h and h.weight() != k + per_n * n:
                    return f"{tag} weight shift wrong at n={n}"
        return None

    rec.check("weight_shift:brackets", lambda: _first_failure(weight_pairs(), weight_shifts))

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

def _assoc_defect(tag: Bracket, f: QJForm, g: QJForm, h: QJForm, n: int) -> QJForm:
    lhs = ZERO
    rhs = ZERO
    for r in range(n + 1):
        weight = comb(n, r) if tag is Bracket.TV else 1
        lhs = lhs + weight * bracket(tag, bracket(tag, f, g, r), h, n - r)
        rhs = rhs + weight * bracket(tag, f, bracket(tag, g, h, r), n - r)
    return lhs - rhs


def suite_deformations(rng: random.Random, quick: bool = False) -> list[Check]:
    rec = _Recorder()
    n_triples = 4 if quick else 20

    def associative(tag: Bracket, orders: int, f: QJForm, g: QJForm, h: QJForm) -> str | None:
        for n in range(orders):
            if _assoc_defect(tag, f, g, h, n) != ZERO:
                return f"associativity fails at n={n}"
        return None

    for tag in (Bracket.TV, Bracket.RC_TAU, Bracket.RC_D):
        law = partial(associative, tag, 5)
        rec.check(
            f"associativity:{tag.value}",
            lambda law=law: _first_failure(_samples(rng, n_triples, 8, 8, 8, max_terms=2), law),
        )
    rec.check("associativity:wp_e1_e2", lambda: _first_failure([(WP, E1, E2)], partial(associative, Bracket.TV, 4)))

    @cache
    def pair() -> tuple[QJForm, QJForm]:
        return _random_form_retry(rng, 6), _random_form_retry(rng, 6)

    def star_tv(f: QJForm, g: QJForm) -> str | None:
        expected = [f * g] + [Fraction(1, factorial(n)) * bracket(Bracket.TV, f, g, n) for n in (1, 2, 3)]
        return _expect(star_truncated(Bracket.TV, f, g, 3), expected)

    rec.check("star:tv_coefficients", lambda: _first_failure([pair()], star_tv))

    def star_rc(f: QJForm, g: QJForm) -> str | None:
        heads = star_truncated(Bracket.RC_TAU, f, g, 2)
        return _expect([heads[0], heads[2]], [f * g, bracket(Bracket.RC_TAU, f, g, 2)])

    rec.check("star:rc_coefficients", lambda: _first_failure([pair()], star_rc))
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
    kmax = 300 if quick else 2000
    krec = 120 if quick else 500

    rec.check(
        "ds:table",
        lambda: _expect(
            [dim_closed(DimFamily.DS, k) for k in (0, 1, 2, 4, 6, 8, 10, 12)], [1, 0, 1, 2, 3, 4, 5, 7]
        ),
    )

    def triangle() -> str | None:
        for fam in DimFamily:
            coeffs = series_coefficients(fam, kmax)
            for k in range(kmax + 1):
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
    # tests), so every expansion compared below has weight <= 8.
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

    def correspondence(f: QJForm) -> str | None:
        lhs = expand(derive(Derivation.DZ, f), q_prec, u_max)
        rhs = series_derive(SeriesDerivation.DU, expand(f, q_prec, u_max))
        if not series_equal(lhs, rhs, 8):
            return "dz correspondence fails"
        lhs2 = expand(derive(Derivation.DTAU, f), q_prec, u_max)
        rhs2 = series_derive(SeriesDerivation.QDQ, expand(f, q_prec, u_max))
        if not series_equal(lhs2, rhs2, 8):
            return "dtau correspondence fails"
        return None

    rec.check("correspondence:dz_dtau", lambda: _first_failure(_samples(rng, n_random, 6), correspondence))

    def parity(f: QJForm) -> str | None:
        k = f.weight()
        for (_, n), coeff in expand(f, 4, 10).items():
            if coeff and (n - k) % 2 != 0:
                return f"parity fails: u^{n} present at weight {k}"
        return None

    rec.check("parity:u_exponents", lambda: _first_failure(_samples(rng, n_random, 9), parity))

    def gunther_series() -> str | None:
        qp, um = 6, 12
        ee = {j: expand(eisenstein_in_generators(j), qp, um) for j in range(4, 16, 2)}
        ee2 = expand(E2, qp, um)
        for n in range(1, 6):
            lhs = 2 * (2 * n + 1) * series_derive(SeriesDerivation.QDQ, ee[2 * n + 2])
            rhs = (n + 1) * (2 * n + 1) * series_mul(ee[2 * n + 2], ee2)
            rhs = series_add(rhs, series_scale(-(n + 2) * (2 * n + 5), ee[2 * n + 4]))
            for a in range(1, n):
                b = n - a
                rhs = series_add(
                    rhs,
                    series_scale(
                        (2 * a + 1) * (a - 2 * b - 1), series_mul(ee[2 * a + 2], ee[2 * b + 2])
                    ),
                )
            if not series_equal(lhs, rhs, 8):
                return f"series identity fails at n={n}"
        return None

    rec.check("gunther:series_consistency", gunther_series)

    def method_agreement() -> str | None:
        for two_n in range(4, 26, 2):
            if eisenstein_in_generators(two_n, EisensteinMethod.LAURENT) != eisenstein_in_generators(
                two_n, EisensteinMethod.GUNTHER
            ):
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

    def numeric() -> str | None:
        tau, z = 2j, 0.1 + 0.05j
        residual = (
            eval_numeric(DWP**2, tau, z, 12, 16)
            - 4 * eval_numeric(WP**3, tau, z, 12, 16)
            + 60 * eval_numeric(E4 * WP, tau, z, 12, 16)
            + 140 * eval_numeric(e6_form(), tau, z, 12, 16)
        )
        if abs(residual) >= 1e-6:
            return f"ODE residual {abs(residual)} too large"
        if abs(eval_numeric(ONE, tau, z, 4, 4) - 1) > 1e-12:
            return "eval(1) != 1"
        small = 0.01 + 0.005j
        lead = eval_numeric(WP, tau, small, 12, 16) * small**2
        if abs(lead - 1) > 1e-4:
            return f"wp leading term off: {lead}"
        return None

    rec.check("numeric:spot_checks", numeric)
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
