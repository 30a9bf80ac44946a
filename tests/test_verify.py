"""The verify suites: a raising check is a failed check, and the decided checks can fail."""

import json
import random
from functools import cache, partial, reduce
from itertools import product
from math import comb, lcm
from operator import add

import pytest

from qjforms import calculus, dimensions, series, verify
from qjforms.calculus import BRACKET_DERIVATIONS, BRACKET_WEIGHT_SHIFT, Algebra, Bracket, Derivation, derive
from qjforms.cli import main
from qjforms.dimensions import FAMILY_WEIGHTS, DimFamily
from qjforms.forms import DWP, E1, E2, E4, WP, ImageTable
from qjforms.series import BigradedSeries

# Per suite: a callee that raises, the exception, and the prefixes of the
# names of the checks it fails (a full name is its own prefix).
PLANTS = {
    "identities": ("expand", ZeroDivisionError, ("series:",)),
    "stability": ("check_stability", TypeError, ("matrix:",)),
    # Every bracket stability cell but tv on M and Minf, which reads dz alone.
    "brackets": ("member", ZeroDivisionError, ("stability:rc", "stability:tv/JS")),
    "deformations": ("star_truncated", TypeError, ("star:",)),
    "dimensions": ("dim_closed", ZeroDivisionError, ("ds:table", "triangle:", "recurrences:")),
    "oracle": (
        "expand",
        TypeError,
        (
            "expand:",
            "homomorphism:",
            "correspondence:",
            "parity:",
            "gunther:",
            "eisenstein:fourier_vs_laurent",
            "precision:",
        ),
    ),
}


def affected(names: list[str], prefixes: tuple[str, ...]) -> set[str]:
    return {name for name in names if name.startswith(prefixes)}


def plant(monkeypatch, callee: str, exc: type[Exception]) -> None:
    def raises(*args, **kwargs):
        raise exc("planted")

    monkeypatch.setattr(verify, callee, raises)


@pytest.fixture(scope="module")
def names() -> dict[str, list[str]]:
    return {suite: [c.name for c in checks] for suite, checks in verify.run_suites(["all"], quick=True).items()}


class TestGuardedChecks:
    @pytest.mark.parametrize("suite", list(PLANTS))
    def test_raise_fails_only_its_checks(self, monkeypatch, names, suite):
        callee, exc, prefixes = PLANTS[suite]
        failing = affected(names[suite], prefixes)
        assert 0 < len(failing) < len(names[suite])
        plant(monkeypatch, callee, exc)
        checks = verify.SUITES[suite](random.Random(0), True)
        assert [c.name for c in checks] == names[suite]
        assert {c.name for c in checks if not c.ok} == failing
        assert {c.detail for c in checks if not c.ok} == {f"raised {exc.__name__}: planted"}

    @pytest.mark.parametrize("json_mode", [False, True], ids=["text", "json"])
    def test_verify_all_reports_every_suite(self, monkeypatch, capsys, names, json_mode):
        # Every suite at once has a raising callee; none may end the command.
        for callee, exc, _ in PLANTS.values():
            plant(monkeypatch, callee, exc)
        code = main([*(["--json"] if json_mode else []), "verify", "all", "--quick"])
        out, err = capsys.readouterr()
        assert code == 1 and "Traceback" not in out + err
        if not json_mode:
            assert out.endswith(" check(s) failed\n")
            return
        suites = json.loads(out)["result"]["suites"]
        assert {suite: [c["name"] for c in s["checks"]] for suite, s in suites.items()} == names
        for suite, (_, _, prefixes) in PLANTS.items():
            failed = {c["name"] for c in suites[suite]["checks"] if not c["ok"]}
            assert affected(names[suite], prefixes) <= failed, suite
            for c in suites[suite]["checks"]:
                assert c["ok"] or c["detail"].startswith("raised "), (suite, c)


# Per decided check: a derivation, a generator, a term added to its image
# there, and the failure that must name that generator.
PERTURBATIONS = [
    ("commutation:dz_dtau", Derivation.DTAU, 3, DWP, "dz dtau != dtau dz on e1"),
    ("delta_commutator:dtau_djac", Derivation.DJAC, 4, WP, "Delta-commutator fails for Derivation.DJAC on e2"),
    ("weight_shift:derivations", Derivation.DZ, 2, E1, "Derivation.DZ is not homogeneous of shift 1 on e4"),
    ("ob:depth_and_js", Derivation.OB, 2, E2**3, "Ob depth (3,0) exceeds (1,0) on e4"),
    # The laws of the Q-coefficient calculus.  Each term keeps the image's
    # weight.  The check runs the inclusions, then the dz, dtau and Ob rules,
    # so each term is reported by the law it is meant to break, though a
    # later law may break too: the Ob table is built from the unperturbed
    # images, so a changed dz or dtau image also breaks the Ob rule at (0,0).
    ("structure:depth_q_calculus", Derivation.DZ, 2, E1 * E4, "refined dz inclusion fails on e4"),
    ("structure:depth_q_calculus", Derivation.DTAU, 0, WP * E1**2, "refined dtau inclusion fails on wp"),
    ("structure:depth_q_calculus", Derivation.DJAC, 3, E1**3, "refined d inclusion fails on e1"),
    ("structure:depth_q_calculus", Derivation.DZ, 3, E2, "Q dz formula fails at (1,0) on e1"),
    ("structure:depth_q_calculus", Derivation.DTAU, 4, E2**2, "Q dtau formula fails at (1,0) on e2"),
    ("structure:depth_q_calculus", Derivation.OB, 0, E4, "Q Oberdieck formula fails at (0,0) on wp"),
]


def perturbation_id(name: str, detail: str) -> str:
    # The check's prefix, or for the Q calculus the law the detail names.
    if name == "structure:depth_q_calculus":
        return detail.split(" fails")[0].replace(" ", "_")
    return name.split(":")[0]


def perturbed_checks(suite, tag, index, term) -> dict:
    """The checks of a suite run with `term` added to the image of generator `index` under `tag`."""
    images = [derive(tag, g) for g in (WP, DWP, E4, E1, E2)]
    images[index] = images[index] + term
    saved = calculus._TABLES[tag]
    derive.cache_clear()
    try:
        calculus._TABLES[tag] = ImageTable(images)
        return {c.name: c for c in suite(random.Random(0), True)}
    finally:
        calculus._TABLES[tag] = saved
        derive.cache_clear()


@pytest.mark.parametrize(
    "name, tag, index, term, detail", PERTURBATIONS, ids=[perturbation_id(p[0], p[4]) for p in PERTURBATIONS]
)
def test_decided_check_names_the_perturbed_generator(name, tag, index, term, detail):
    checks = perturbed_checks(verify.suite_stability, tag, index, term)
    assert not checks[name].ok
    assert checks[name].detail == detail


# The closed rc and rcd cells, decided in the theta frame: a perturbed image
# moves theta of a generator, or Phi, out of the algebra.  tv on JSinf0, decided
# in the (d, dz) frame: a perturbed d or dz image leaves JSinf0, and a perturbed
# dtau image breaks dtau = d - (e1/4)*dz.
FRAME_PERTURBATIONS = [
    ("stability:rcd/JS", Derivation.DJAC, 0, E1 * DWP, "theta leaves JS on wp"),
    ("stability:rc/M", Derivation.DTAU, 4, E1 * DWP, "Phi = -1/4*dwp*e1 + 5/16*e4 leaves M"),
    ("stability:tv/JSinf0", Derivation.DJAC, 0, E1 * DWP, "the (d, dz) frame leaves JSinf0 on wp"),
    ("stability:tv/JSinf0", Derivation.DZ, 3, E1 * E2, "the (d, dz) frame leaves JSinf0 on e1"),
    ("stability:tv/JSinf0", Derivation.DTAU, 0, E2 * WP, "the (d, dz) frame leaves JSinf0 on wp"),
]


@pytest.mark.parametrize(
    "name, tag, index, term, detail", FRAME_PERTURBATIONS, ids=["theta", "Phi", "tv_d", "tv_dz", "tv_dtau"]
)
def test_stability_cell_names_the_perturbed_generator(name, tag, index, term, detail):
    checks = perturbed_checks(verify.suite_brackets, tag, index, term)
    assert not checks[name].ok
    assert checks[name].detail == detail


# Mutants of the bracket coefficient table, each with the decided check that
# must name it and a fixed value that bracket, reading the same table, loses;
# no fixed value has a tv bracket of order >= 2, so there the recurrence does.
def rc_binomial_shifted(terms):
    def mutant(tag, k, l, n):
        if tag is Bracket.TV:
            return terms(tag, k, l, n)
        return [((-1) ** r * comb(k + n, n - r) * comb(l + n - 1, r), (r,), (n - r,)) for r in range(n + 1)]

    return mutant


def tv_f_powers_moved(terms):
    def mutant(tag, k, l, n):
        out = terms(tag, k, l, n)
        if tag is Bracket.TV:
            (c, (a, b), g_powers), *rest = out
            out = [(c, (a - 1, b + 1), g_powers), *rest]
        return out

    return mutant


def tv_order_one_doubled(terms):
    # Keeps the symmetry and the weight shifts; only laws that mix orders see it.
    def mutant(tag, k, l, n):
        out = terms(tag, k, l, n)
        return [(2 * c, a, b) for c, a, b in out] if tag is Bracket.TV and n == 1 else out

    return mutant


def tv_last_term_dropped(terms):
    # Drops dz^n f * dtau^n g from every order n >= 2, so the symbol is no longer a power.
    def mutant(tag, k, l, n):
        out = terms(tag, k, l, n)
        return out[:-1] if tag is Bracket.TV and n >= 2 else out

    return mutant


def tv_weight_dependent(terms):
    # (-1)^r C(n, r) + r*k: equal to the table at k = 0, so only the weight grid sees it.
    def mutant(tag, k, l, n):
        out = terms(tag, k, l, n)
        return [(c + r * k, a, b) for r, (c, a, b) in enumerate(out)] if tag is Bracket.TV else out

    return mutant


TABLE_MUTANTS = [
    (
        rc_binomial_shifted,
        "symmetry:minus_one_n",
        "Bracket.RC_TAU symmetry fails at n=1, weights (0, 0)",
        "value:rcd_e4_wp_in_JS",
    ),
    (
        tv_f_powers_moved,
        "weight_shift:brackets",
        "Bracket.TV weight shift wrong at n=1, weights (0, 0)",
        "value:tv_e2_e1",
    ),
    (
        rc_binomial_shifted,
        "associativity:rc",
        "Bracket.RC_TAU associativity fails at n=1, weights (0, 0, 0)",
        "value:rcd_e4_wp_in_JS",
    ),
    (
        tv_order_one_doubled,
        "associativity:tv",
        "Bracket.TV associativity fails at n=2, weights (0, 0, 0)",
        "value:tv_e2_e1",
    ),
    (
        rc_binomial_shifted,
        "rc:theta_tower",
        "Bracket.RC_TAU theta-tower identity fails at n=1, weights (0, 1)",
        "value:rcd_e4_wp_in_JS",
    ),
    (
        tv_last_term_dropped,
        "tv:binomial_table",
        "Bracket.TV table is not (D x Z - Z x D)^n at n=2, weights (0, 0)",
        "tv:recurrence_equals_formula",
    ),
    (
        tv_weight_dependent,
        "tv:binomial_table",
        "Bracket.TV table is not (D x Z - Z x D)^n at n=1, weights (1, 0)",
        "tv:recurrence_equals_formula",
    ),
]

# The checks decided on the symbols of the coefficient table, and the cells of
# the stability table, decided on generators or one pair.
STABILITY_CELLS = tuple(f"stability:{tag.value}/{alg.value}" for tag in Bracket for alg in Algebra)
DECIDED_BRACKET_CHECKS = (
    "rc:theta_tower",
    "tv:binomial_table",
    "symmetry:minus_one_n",
    "weight_shift:brackets",
    "associativity:tv",
    "associativity:rc",
    "associativity:rcd",
    *STABILITY_CELLS,
)


def mutate_table(monkeypatch, mutate) -> None:
    mutant = mutate(calculus.bracket_terms)
    monkeypatch.setattr(calculus, "bracket_terms", mutant)
    monkeypatch.setattr(verify, "bracket_terms", mutant)


# The sampled checks: the premises that the checks decided on generators,
# symbols and periods rest on.  No other check draws a form.
PREMISES = {"leibniz:all_tags", "structure:depth_q_calculus", "tv:recurrence_equals_formula", "homomorphism:add_mul"}
BRACKET_SUITES = ("brackets", "deformations")


@pytest.fixture
def run_spied_suites(monkeypatch):
    """Runs suites for a seed: the checks by name, and the checks during which a form was drawn."""
    running, drawing = [], set()
    check, form = verify._Recorder.check, verify.random_form

    def recorded_check(self, name, run):
        running.append(name)
        check(self, name, run)

    def spied_form(*args, **kwargs):
        drawing.add(running[-1] if running else None)
        return form(*args, **kwargs)

    monkeypatch.setattr(verify._Recorder, "check", recorded_check)
    monkeypatch.setattr(verify, "random_form", spied_form)

    def run(seed: int, suites=("all",), quick: bool = True) -> tuple[dict, set]:
        running.clear()
        drawing.clear()
        results = verify.run_suites(suites, seed, quick)
        return {c.name: c for checks in results.values() for c in checks}, set(drawing)

    return run


@pytest.mark.parametrize(
    "mutate, name, detail, value",
    TABLE_MUTANTS,
    ids=[
        "rc_binomial",
        "tv_powers",
        "rc_associativity",
        "tv_associativity",
        "rc_theta_tower",
        "tv_binomial_table",
        "tv_weight_dependent",
    ],
)
def test_decided_bracket_check_names_the_mutated_table(monkeypatch, run_spied_suites, mutate, name, detail, value):
    mutate_table(monkeypatch, mutate)
    checks, _ = run_spied_suites(0, BRACKET_SUITES)
    assert not checks[name].ok
    assert checks[name].detail == detail
    assert not checks[value].ok


def test_decided_bracket_checks_draw_no_forms(run_spied_suites):
    checks, drawing = run_spied_suites(0, BRACKET_SUITES)
    assert all(checks[name].ok for name in DECIDED_BRACKET_CHECKS)
    assert "tv:recurrence_equals_formula" in drawing  # the spy sees the sampled checks draw
    assert drawing.isdisjoint(DECIDED_BRACKET_CHECKS) and None not in drawing


def spy_on_decide(monkeypatch, law_spy):
    """Runs each law `_decide` is given through `law_spy(failure, law)`."""
    decide = verify._decide

    def spied(failure, tags, orders, arity, law):
        return decide(failure, tags, orders, arity, law_spy(failure, law))

    monkeypatch.setattr(verify, "_decide", spied)


def test_weight_free_tables_are_decided_at_one_point(monkeypatch):
    # The tv coefficients do not read the weights, so each tv law visits the
    # weights (0, ..., 0) once per order; rc and rcd laws visit {0..n}^arity.
    visits = {}

    def recording(failure, law):
        def recorded(tag, b, bases, n):
            visits.setdefault((failure, tag), {}).setdefault(n, []).append(tuple(w for *_, w in bases))
            return law(tag, b, bases, n)

        return recorded

    spy_on_decide(monkeypatch, recording)
    results = verify.run_suites(BRACKET_SUITES, quick=True)
    assert all(c.ok for checks in results.values() for c in checks)
    for (failure, tag), by_order in visits.items():
        for n, points in by_order.items():
            arity = len(points[0])
            grid = [(0,) * arity] if tag is Bracket.TV else list(product(range(n + 1), repeat=arity))
            assert points == grid, (failure, tag, n)
    orders = {key: list(by_order) for key, by_order in visits.items()}
    assert orders[("table is not (D x Z - Z x D)^n", Bracket.TV)] == list(range(1, 9))
    assert orders[("associativity fails", Bracket.TV)] == list(range(9))
    for tag in (Bracket.RC_TAU, Bracket.RC_D):
        assert orders[("associativity fails", tag)] == list(range(5))
        assert orders[("theta-tower identity fails", tag)] == list(range(1, 5))


def e1_transfer(tag, tv, bases, n):
    # The retired check tv:e1_transfer_identity, kept as the reference: moving
    # a factor e1 (a generic base form) across the transvectant slots differs
    # by lower order brackets.
    (f, g, e1), sign = bases, (-1) ** (n - 1)
    terms = [(1, tv(tv(f, e1, 0), g, n)), (-1, tv(f, tv(g, e1, 0), n)), (-1, tv(f, tv(e1, g, n), 0))]
    terms += [(-sign, tv(g, tv(e1, f, n), 0))] + [(comb(n, i), tv(tv(f, e1, i), g, n - i)) for i in range(1, n)]
    terms += [(comb(n, i) * sign, tv(tv(g, e1, i), f, n - i)) for i in range(1, n)]
    return verify._poly_sum((c, x[0]) for c, x in terms)


def tv_symmetric_shift(delta):
    # From order 2 on, adds delta at r = 1 and (-1)^n delta at r = n - 1: the
    # table keeps [f, g]_n = (-1)^n [g, f]_n but is no longer a power.
    def mutate(terms):
        def mutant(tag, k, l, n):
            out = terms(tag, k, l, n)
            if tag is not Bracket.TV or n < 2:
                return out
            shift = [0] * (n + 1)
            shift[1] += delta
            shift[n - 1] += (-1) ** n * delta
            return [(c + s, a, b) for s, (c, a, b) in zip(shift, out)]

        return mutant

    return mutate


@pytest.mark.parametrize("delta", [1, 3])
def test_associativity_decides_the_e1_transfer(monkeypatch, delta):
    # Rewritten by {a, b}_m = (-1)^m {b, a}_m, the associativity defect at
    # (f, e1, g), sum_r C(n, r) ({{f, e1}_r, g}_(n-r) - {f, {e1, g}_r}_(n-r)),
    # is the e1-transfer symbol term for term.  Under a table that keeps the
    # symmetry but breaks associativity the two stay equal, and nonzero.
    laws = {}
    spy_on_decide(monkeypatch, lambda failure, law: laws.setdefault(failure, law))
    verify.suite_deformations(random.Random(0), True)
    mutate_table(monkeypatch, tv_symmetric_shift(delta))
    b = partial(verify._symbol_bracket, Bracket.TV, memo={})
    f, e1, g = [({0: 1}, ((2 * i,), (2 * i + 1,)), 0) for i in range(3)]
    for n in range(1, 9):
        defect = laws["associativity fails"](Bracket.TV, b, [f, e1, g], n)
        assert e1_transfer(Bracket.TV, b, [f, g, e1], n) == defect, n
        assert bool(defect) == (n >= 2), n


# The tuple-key symbol engine that packed keys replaced, kept as the
# reference: a monomial is a tuple with one exponent per variable.
def ref_poly_sum(terms):
    out = {}
    for c, poly in terms:
        for m, v in poly.items():
            out[m] = out.get(m, 0) + c * v
    return {m: v for m, v in out.items() if v}


def ref_poly_mul(p, q):
    return ref_poly_sum((c, {tuple(map(add, m, m2)): v for m2, v in q.items()}) for m, c in p.items())


@cache
def ref_sum_power(size, variables, p):
    units = {tuple(int(i == v) for i in range(size)): 1 for v in variables}
    return ref_poly_mul(ref_sum_power(size, variables, p - 1), units) if p else {(0,) * size: 1}


def ref_symbol_bracket(tag, x, y, n, size):
    (p, xs, k), (q, ys, l) = x, y
    one = (0,) * len(xs)
    terms = calculus.bracket_terms(tag, k, l, n) if n else [(1, one, one)]
    powers = partial(ref_sum_power, size)
    symbol = ref_poly_sum((c, reduce(ref_poly_mul, map(powers, xs + ys, a + b))) for c, a, b in terms)
    return ref_poly_mul(ref_poly_mul(p, q), symbol), tuple(map(add, xs, ys)), k + l + BRACKET_WEIGHT_SHIFT[tag] * n


@pytest.mark.parametrize("tag", list(Bracket), ids=[tag.value for tag in Bracket])
def test_packed_symbols_match_the_tuple_reference(tag):
    # Every order <= 3 at every weight point, for a bracket of base forms and
    # for both nestings of two brackets, as in associativity and the e1 transfer.
    d = len(BRACKET_DERIVATIONS[tag])
    size, memo = 3 * d, {}

    def unpacked(symbol):
        poly, xs, weight = symbol
        field = (1 << verify._WIDTH) - 1
        return {tuple(m >> verify._WIDTH * v & field for v in range(size)): c for m, c in poly.items()}, xs, weight

    def symbols(b, f, g, h, n):
        return [b(f, g, n)] + [s for r in range(n + 1) for s in (b(b(f, g, r), h, n - r), b(f, b(g, h, r), n - r))]

    for n in range(4):
        for weights in product(range(n + 1), repeat=3):
            packed = [({0: 1}, tuple((i * d + j,) for j in range(d)), w) for i, w in enumerate(weights)]
            ref = [({(0,) * size: 1}, xs, w) for _, xs, w in packed]
            got = symbols(partial(verify._symbol_bracket, tag, memo=memo), *packed, n)
            expected = symbols(partial(ref_symbol_bracket, tag, size=size), *ref, n)
            assert [unpacked(s) for s in got] == expected, (n, weights)


def test_an_order_past_the_key_field_fails_its_check():
    # Left unchecked, an exponent past the field would carry into the next
    # variable's field; the check stands under python -O, unlike an assert.
    def nonzero(tag, b, bases, n):
        return {0: 1}

    top = 1 << verify._WIDTH
    rec = verify._Recorder()
    rec.check("oversized", partial(verify._decide, "law fails", [Bracket.TV], range(1, top + 1), 2, nonzero))
    (check,) = rec.checks
    assert not check.ok
    assert check.detail == (
        f"raised ValueError: order {top} passes the {verify._WIDTH}-bit exponent field of a symbol key"
    )
    assert verify._decide("law fails", [Bracket.TV], range(1, top), 2, nonzero) == (
        "Bracket.TV law fails at n=1, weights (0, 0)"
    )


def test_five_bracket_cells_are_open():
    # rc leaves JS and JSinf0, rcd leaves JS0inf, and tv leaves JS and JS0inf.
    cells = {(tag, alg) for alg, row in verify._STABILITY.items() for tag, pair in zip(Bracket, row[3:]) if pair}
    assert cells == {
        (Bracket.RC_TAU, Algebra.JS),
        (Bracket.RC_TAU, Algebra.JSINF0),
        (Bracket.RC_D, Algebra.JS0INF),
        (Bracket.TV, Algebra.JS),
        (Bracket.TV, Algebra.JS0INF),
    }


def test_no_stability_cell_searches_basis_pairs(monkeypatch):
    # Every cell is decided on generators or its one pair; only the sampled
    # recurrence reaches monomials_of_weight, through random_form.
    searching, check, monomials = set(), verify._Recorder.check, verify.monomials_of_weight

    def searching_check(self, name, run):
        def spied(*args):
            searching.add(name)
            return monomials(*args)

        monkeypatch.setattr(verify, "monomials_of_weight", spied)
        check(self, name, run)

    monkeypatch.setattr(verify._Recorder, "check", searching_check)
    checks = verify.run_suites(["brackets"], quick=True)["brackets"]
    assert [c.name for c in checks if c.name.startswith("stability:")] == list(STABILITY_CELLS)
    assert searching == {"tv:recurrence_equals_formula"}


@pytest.mark.parametrize(
    "mutate",
    [rc_binomial_shifted, tv_order_one_doubled, tv_last_term_dropped],
    ids=["rc_binomial", "tv_order_one", "tv_last_term"],
)
def test_decided_bracket_details_do_not_depend_on_the_seed(monkeypatch, run_spied_suites, mutate):
    mutate_table(monkeypatch, mutate)
    runs = [run_spied_suites(seed, BRACKET_SUITES)[0] for seed in (0, 1)]
    details = [{name: checks[name].detail for name in DECIDED_BRACKET_CHECKS} for checks in runs]
    assert details[0] == details[1]
    assert any(details[0].values())


@pytest.mark.parametrize("quick", [True, False], ids=["quick", "full"])
@pytest.mark.parametrize("seed", [0, 1])
def test_only_the_premises_draw_forms(run_spied_suites, seed, quick):
    checks, drawing = run_spied_suites(seed, quick=quick)
    assert all(c.ok for c in checks.values())
    assert drawing == PREMISES


# Mutants of the oracle and the dimension triangle, each with the check decided
# on the generators or on one period per degree, and the case it must name.
def test_correspondence_names_the_perturbed_generator():
    checks = perturbed_checks(verify.suite_oracle, Derivation.DTAU, 3, DWP)
    assert not checks["correspondence:dz_dtau"].ok
    assert checks["correspondence:dz_dtau"].detail == "dtau correspondence fails on e1"


def test_parity_names_the_perturbed_generator(monkeypatch):
    def e1_with_constant(q_prec, span):
        s = series._e1_series(q_prec, span)
        return BigradedSeries(1, q_prec, s.u_val, s.u_max, {**dict(s.items()), (0, 0): 1})

    generators = list(series._GENERATORS)
    generators[3] = e1_with_constant
    caches = (series._generator_power, series._monomial_series)
    for memo in caches:
        memo.cache_clear()
    try:
        monkeypatch.setattr(series, "_GENERATORS", tuple(generators))
        checks = {c.name: c for c in verify.suite_oracle(random.Random(0), True)}
    finally:
        monkeypatch.undo()
        for memo in caches:
            memo.cache_clear()
    assert not checks["parity:u_exponents"].ok
    assert checks["parity:u_exponents"].detail == "parity fails: u^0 present at weight 1 on e1"


def test_triangle_names_the_perturbed_residue(monkeypatch):
    den, slices = dimensions._RESIDUES[DimFamily.DS]
    shifted = [*slices[7][:-1], slices[7][-1] + den]
    monkeypatch.setitem(dimensions._RESIDUES, DimFamily.DS, (den, (*slices[:7], tuple(shifted), *slices[8:])))
    checks = {c.name: c for c in verify.suite_dimensions(random.Random(0), True)}
    assert not checks["triangle:closed_brute_series"].ok
    assert checks["triangle:closed_brute_series"].detail == "DS k=7: closed=3 brute=2 series=2"


@pytest.mark.parametrize("family", list(DimFamily), ids=[f.value for f in DimFamily])
def test_triangle_premise_one_polynomial_per_residue(family):
    # The triangle compares k < lcm(w) * len(w), which decides it when
    # dim_closed is one polynomial of degree < len(w) per residue mod lcm(w).
    weights = FAMILY_WEIGHTS[family]
    _, slices = dimensions._RESIDUES[family]
    assert lcm(*weights) == 12 and len(slices) == 12
    assert all(len(coeffs) <= len(weights) for coeffs in slices)
