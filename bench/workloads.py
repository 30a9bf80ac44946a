"""The three workloads, as rounds of timed items with independent checks.

A round is a fixed mix of item kinds; the seed only draws the forms inside
it, so every run of a workload does the same kinds of work in the same
proportions.  Each item's ``run`` makes the library calls (through the
tracer, which spans each one) and is the only part that is timed; its
``check`` runs afterwards, off the clock, and compares the output with an
independent route.

* ``brackets``: many small forms through the calculus layer (associativity
  defects of the star products, transvectant formula against recurrence,
  bracket stability of the subalgebras).
* ``bigprod``: a few large forms through the forms layer (big products,
  powers, q-coefficient sweeps, M-membership, Eisenstein reduction).
* ``oracle``: the layers around the kernel: the series oracle and the
  dimension counts in process, and one-shot ``python -m qjforms.cli``
  queries in fresh interpreters, about one in ten malformed.
"""

from __future__ import annotations

import contextlib
import io
import json
import operator
import os
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb
from pathlib import Path
from typing import Callable, NamedTuple

from inputs import (
    P,
    Draws,
    eval_mod,
    form_on,
    q_coefficient_mod,
    random_coeff,
    random_form,
    random_point,
    render,
    shapes,
    weight_of,
)
from qjforms import (
    DWP,
    E1,
    E2,
    E4,
    ONE,
    WP,
    ZERO,
    Algebra,
    Bracket,
    Derivation,
    DimFamily,
    EisensteinMethod,
    QJForm,
    SeriesDerivation,
    bracket,
    derive,
    dim_brute,
    dim_closed,
    e6_form,
    eisenstein_in_generators,
    expand,
    member,
    q_coefficient,
    series_coefficients,
    series_derive,
    series_equal,
    series_mul,
    transvectant_by_recurrence,
)

SRC = Path(__file__).resolve().parent.parent / "src"


class Item(NamedTuple):
    kind: str
    run: Callable  # run(tracer) -> output; the timed part
    check: Callable  # check(output) -> bool; off the clock
    replay: Callable | None = None  # replay(tracer): extra traced calls, off the clock


def _is_true(out) -> bool:
    return out is True


def _axpy(acc: QJForm, w: int, x: QJForm) -> QJForm:
    return acc + w * x


# ---------------------------------------------------------------------------
# brackets: many 1-2-term forms through the calculus layer
# ---------------------------------------------------------------------------


def _defect(tag: Bracket, f, g, h, n: int, tr) -> bool:
    # Order-n associativity of the star product (acceptance criterion 08):
    # sum_r w_r {{f,g}_r, h}_(n-r) == sum_r w_r {f, {g,h}_r}_(n-r).
    lhs = rhs = ZERO
    for r in range(n + 1):
        w = comb(n, r) if tag is Bracket.TV else 1
        left = tr.call("calculus.bracket", bracket, tag, tr.call("calculus.bracket", bracket, tag, f, g, r), h, n - r)
        right = tr.call("calculus.bracket", bracket, tag, f, tr.call("calculus.bracket", bracket, tag, g, h, r), n - r)
        lhs = tr.call("forms.linear", _axpy, lhs, w, left)
        rhs = tr.call("forms.linear", _axpy, rhs, w, right)
    return tr.call("forms.eq", operator.eq, lhs, rhs)


def _tv_by_towers(f, g, n: int, tr) -> QJForm:
    # The transvectant restated from dtau/dz towers, one derive call each.
    def slots(x):
        out = []
        dzr = x
        for r in range(n + 1):
            v = dzr
            for _ in range(n - r):
                v = tr.call("calculus.derive", derive, Derivation.DTAU, v)
            out.append(v)
            if r < n:
                dzr = tr.call("calculus.derive", derive, Derivation.DZ, dzr)
        return out

    fs, gs = slots(f), slots(g)
    acc = ZERO
    for r in range(n + 1):
        term = tr.call("forms.mul", operator.mul, fs[r], gs[n - r])
        acc = tr.call("forms.linear", _axpy, acc, comb(n, r) * (-1) ** r, term)
    return acc


def _tv_routes(f, g, n: int, tr) -> bool:
    # Acceptance criterion 11, plus the tower restatement.
    formula = tr.call("calculus.bracket", bracket, Bracket.TV, f, g, n)
    recurrence = tr.call("calculus.tv_recurrence", transvectant_by_recurrence, f, g, n)
    towers = _tv_by_towers(f, g, n, tr)
    return tr.call("forms.eq", operator.eq, formula, recurrence) and tr.call("forms.eq", operator.eq, formula, towers)


def _bracket_member(tag: Bracket, algebra: Algebra, f, g, n: int, tr) -> bool:
    # Acceptance criterion 07: the bracket stays in the subalgebra.
    return tr.call("forms.member", member, tr.call("calculus.bracket", bracket, tag, f, g, n), algebra)


# (bracket, subalgebra it preserves, whether forms may carry e1, e2)
_STABLE = (
    (Bracket.RC_TAU, Algebra.JS0INF, True, False),
    (Bracket.RC_D, Algebra.JS, False, False),
    (Bracket.TV, Algebra.JSINF0, False, True),
)


def brackets_round(d: Draws) -> list[Item]:
    # Decks small enough to be dealt whole several times in a run: 2 terms
    # of weight <= 3 and 1 term of weight <= 4 for the defects and the
    # transvectant routes, 2 terms of weight 2..5 for the stability items.
    pairs, singles = shapes(1, 3, 2), shapes(1, 4, 1)
    rng = d.rng
    items = []
    for tag in (Bracket.TV, Bracket.RC_TAU, Bracket.RC_D):
        f, g, h = (form_on(rng, d.deal(f"defect.{tag.value}.{slot}", deck)) for slot, deck in enumerate((pairs, singles, pairs)))
        for n in range(5):
            items.append(Item(f"defect.{tag.value}", lambda tr, a=(tag, f, g, h, n): _defect(*a, tr), _is_true))
    f, g = (form_on(rng, d.deal(f"tv.{slot}", pairs)) for slot in range(2))
    for n in range(6):
        items.append(Item("tv_recurrence", lambda tr, a=(f, g, n): _tv_routes(*a, tr), _is_true))
    for tag, algebra, e1, e2 in _STABLE:
        deck = shapes(2, 5, 2, e1, e2)
        f, g = (form_on(rng, d.deal(f"member.{tag.value}.{slot}", deck)) for slot in range(2))
        for n in range(5):
            items.append(
                Item(f"member.{tag.value}", lambda tr, a=(tag, algebra, f, g, n): _bracket_member(*a, tr), _is_true)
            )
    return items


# ---------------------------------------------------------------------------
# bigprod: a few large forms through the forms layer
# ---------------------------------------------------------------------------

# (weight, terms) of both operands of each product in a round.
PRODUCT_SIZES = ((10, 50), (12, 75), (14, 100), (16, 150))
POWERS = (8, 12, 16)
# The largest product is swept by SWEEP_ROWS items, item j1 computing
# q_coefficient(h, j1, j2) for j2 < SWEEP_COLS.  The sweep items cost about
# what a power of 8 or the smallest product costs, so the median item falls
# inside that cluster rather than on the edge between two kinds of item.
SWEEP_ROWS, SWEEP_COLS = 6, 3


def _product_item(f, g, point, shared) -> Item:
    def run(tr):
        shared["h"] = tr.call("forms.mul", operator.mul, f, g)
        return shared["h"]

    return Item("product", run, lambda h: eval_mod(h, point) == eval_mod(f, point) * eval_mod(g, point) % P)


def _sweep_item(j1: int, point, shared) -> Item:
    def run(tr):
        h = shared["h"]
        return [(j1, j2, tr.call("forms.q_coefficient", q_coefficient, h, j1, j2)) for j2 in range(SWEEP_COLS)]

    def check(out) -> bool:
        h = shared["h"]
        for j1, j2, scaled in out:
            if scaled.form and scaled.c_power != j1 + j2:
                return False
            if eval_mod(scaled.form, point) != q_coefficient_mod(h, j1, j2, point):
                return False
        return True

    return Item("q_sweep", run, check)


def _power_item(base, n: int, point) -> Item:
    def run(tr):
        out = ONE
        for _ in range(n):
            out = tr.call("forms.mul", operator.mul, out, base)
        return out

    return Item("power", run, lambda out: eval_mod(out, point) == pow(eval_mod(base, point), n, P))


def _modular_form(rng, k: int) -> QJForm:
    # A random combination of the e4^i * e6^j of weight k: in M by construction.
    e6 = e6_form()
    out = ZERO
    for j in range(k // 6 + 1):
        if (k - 6 * j) % 4 == 0:
            out = out + random_coeff(rng, 9, 5) * (E4 ** ((k - 6 * j) // 4) * e6**j)
    return out


def _member_item(f, expected: bool) -> Item:
    return Item("member_m", lambda tr: tr.call("forms.member", member, f, Algebra.M), lambda out: out is expected)


def _eisenstein_item(two_n: int) -> Item:
    def run(tr):
        laurent = tr.call("forms.eisenstein", eisenstein_in_generators, two_n, EisensteinMethod.LAURENT)
        gunther = tr.call("forms.eisenstein", eisenstein_in_generators, two_n, EisensteinMethod.GUNTHER)
        return tr.call("forms.eq", operator.eq, laurent, gunther)

    return Item("eisenstein", run, _is_true)


def bigprod_round(d: Draws) -> list[Item]:
    rng = d.rng
    items = []
    for weight, terms in PRODUCT_SIZES:
        f = random_form(rng, weight, terms, num=50, den=30)
        g = random_form(rng, weight, terms, num=50, den=30)
        point, shared = random_point(rng), {}
        items.append(_product_item(f, g, point, shared))
    # point and shared are those of the last and largest product.
    items += [_sweep_item(j1, point, shared) for j1 in range(SWEEP_ROWS)]
    for n in POWERS:
        coeffs = [random_coeff(rng, 5, 3) for _ in range(5)]
        base = coeffs[0] * WP + coeffs[1] * DWP + coeffs[2] * E4 + coeffs[3] * E1 + coeffs[4] * E2
        items.append(_power_item(base, n, random_point(rng)))
    for expected in (True, True, False, False):
        k = rng.randrange(12, 61, 2)
        f = _modular_form(rng, k)
        if not expected:
            f = f + random_coeff(rng, 9, 5) * WP ** (k // 2)
        items.append(_member_item(f, expected))
    items.append(_eisenstein_item(d.deal("eisenstein", list(range(4, 61, 2)))))
    return items


# ---------------------------------------------------------------------------
# oracle: series expansions and dimension counts
# ---------------------------------------------------------------------------

Q_PREC, U_MAX, MIN_WINDOW = 8, 16, 8
DIM_KMAX = 2000
PRODUCT_WEIGHT = 8  # largest weight of f*h
DERIVE_WEIGHT = 6  # largest weight of a form through the derivation correspondences


def _expand(f, tr):
    return tr.call("series.expand", expand, f, Q_PREC, U_MAX)


def _homomorphism(f, h, tr) -> bool:
    lhs = _expand(tr.call("forms.mul", operator.mul, f, h), tr)
    rhs = tr.call("series.mul", series_mul, _expand(f, tr), _expand(h, tr))
    return tr.call("series.equal", series_equal, lhs, rhs, MIN_WINDOW)


def _correspondence(tag: Derivation, which: SeriesDerivation, f, tr) -> bool:
    lhs = _expand(tr.call("calculus.derive", derive, tag, f), tr)
    rhs = tr.call("series.derive", series_derive, which, _expand(f, tr))
    return tr.call("series.equal", series_equal, lhs, rhs, MIN_WINDOW)


def _triangle(family: DimFamily, tr):
    ks = range(DIM_KMAX + 1)
    closed = tr.call("dimensions.closed", lambda: [dim_closed(family, k) for k in ks])
    brute = tr.call("dimensions.brute", lambda: [dim_brute(family, k) for k in ks])
    series = tr.call("dimensions.series", series_coefficients, family, DIM_KMAX)
    return closed, brute, series


def _with_extra(d: Draws, lead: tuple) -> QJForm:
    # The lead monomial plus at most one random monomial of the same weight.
    w = weight_of(lead)
    extra = d.rng.sample(shapes(w, w, 1), d.rng.randint(0, 1))
    return form_on(d.rng, [lead] + [m for (m,) in extra if m != lead])


@lru_cache(maxsize=None)
def _composite(max_weight: int) -> list[tuple]:
    # Monomials of weight <= max_weight with at least two factors.
    return [m for (m,) in shapes(2, max_weight, 1) if sum(m) >= 2]


def _factor_pair(d: Draws, deck: str) -> tuple[QJForm, QJForm]:
    # The leads of f and h split a product monomial dealt from all those of
    # weight <= PRODUCT_WEIGHT, so every run expands every such product, and
    # fills the expansion memo table the same way, whatever the seed.
    m = d.deal(deck, _composite(PRODUCT_WEIGHT))
    splits = [a for a in product(*(range(p + 1) for p in m)) if any(a) and a != m]
    a = d.rng.choice(splits)
    return _with_extra(d, a), _with_extra(d, tuple(p - q for p, q in zip(m, a)))


# The CLI queries of four rounds are one cli_queries() list of 20, so a
# round has five of them and every four rounds hold one syntax error and one
# out-of-range argument.
CLI_PARTS = 4


def oracle_round(d: Draws) -> list[Item]:
    # Twelve series items to four dimension items and five CLI queries: the
    # median item is a series item, and the CLI queries, the slowest items
    # after the first round, hold the 90th percentile in their middle.
    items = []
    for slot in range(4):
        f, h = _factor_pair(d, f"mul.{slot}")
        items.append(Item("expand_mul", lambda tr, a=(f, h): _homomorphism(*a, tr), _is_true))
    for slot in range(4):
        f = _with_extra(d, d.deal(f"derive.{slot}", shapes(1, DERIVE_WEIGHT, 1))[0])
        for tag, which in ((Derivation.DZ, SeriesDerivation.DU), (Derivation.DTAU, SeriesDerivation.QDQ)):
            items.append(Item(f"{tag.value}_{which.value}", lambda tr, a=(tag, which, f): _correspondence(*a, tr), _is_true))
    for family in DimFamily:
        items.append(
            Item("dim_triangle", lambda tr, fam=family: _triangle(fam, tr), lambda out: out[0] == out[1] == out[2])
        )
    items += [_query_item(q) for q in d.share("cli", cli_queries, CLI_PARTS)]
    return items


# ---------------------------------------------------------------------------
# oracle, continued: one-shot CLI queries in fresh interpreters
# ---------------------------------------------------------------------------


def cli_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("QJALG_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_query(argv: list[str]) -> tuple[int, str, str]:
    proc = subprocess.run(
        [sys.executable, "-m", "qjforms.cli", *argv], capture_output=True, text=True, env=cli_env(), timeout=60
    )
    return proc.returncode, proc.stdout, proc.stderr


def _form_of(result: list) -> QJForm:
    return QJForm({tuple(t["exponents"]): Fraction(t["coeff"]) for t in result})


def _json_ok(out) -> dict | None:
    rc, stdout, stderr = out
    if rc != 0 or "Traceback" in stderr:
        return None
    envelope = json.loads(stdout)
    return envelope if envelope.get("ok") is True else None


class Query(NamedTuple):
    argv: list[str]
    expr: str | None  # the expression the query evaluates, if any
    expected: Callable  # expected(envelope-or-process-output) -> bool
    malformed: str | None = None  # "syntax" or "range" for malformed queries


def _form_query(argv, expr, value: QJForm) -> Query:
    return Query(["--json", *argv], expr, lambda env: _form_of(env["result"]) == value)


def _eval_queries(rng) -> list[Query]:
    f = random_form(rng, rng.randint(1, 6), rng.randint(1, 3))
    g = random_form(rng, rng.randint(1, 6), rng.randint(1, 3))
    tag, name = rng.choice(((Derivation.DZ, "dz"), (Derivation.DTAU, "dtau"), (Derivation.OB, "ob"), (Derivation.DJAC, "d")))
    kind, btag = rng.choice((("rc", Bracket.RC_TAU), ("rcd", Bracket.RC_D), ("tv", Bracket.TV)))
    n = rng.randint(0, 2)
    multiplied = f"({render(f)})*({render(g)})"
    derived = f"{name}({render(f)})"
    bracketed = f"{kind}({render(f)}, {render(g)}, {n})"
    return [
        _form_query(["eval", multiplied], multiplied, f * g),
        _form_query(["eval", derived], derived, derive(tag, f)),
        _form_query(["eval", bracketed], bracketed, bracket(btag, f, g, n)),
    ]


def _weight_depth_queries(rng) -> list[Query]:
    out = []
    for _ in range(2):
        f = random_form(rng, rng.randint(1, 6), 2)
        g = random_form(rng, rng.randint(7, 10), 2)
        expr = f"{render(f)} + {render(g)}"
        weights = sorted({weight_of(e) for e, _ in (f + g).terms()})
        out.append(Query(["--json", "weight", expr], expr, lambda env, w=weights: env["result"] == w))
    for _ in range(2):
        f = random_form(rng, rng.randint(2, 8), 3)
        expr = render(f)
        depth = {"s1": max(e[4] for e, _ in f.terms()), "s2": max(e[3] for e, _ in f.terms())}
        out.append(Query(["--json", "depth", expr], expr, lambda env, d=depth: env["result"] == d))
    return out


def _member_queries(rng) -> list[Query]:
    out = []
    for algebra, e1, e2 in ((Algebra.JS, rng.random() < 0.5, False), (Algebra.JSINF0, False, rng.random() < 0.7)):
        f = random_form(rng, rng.randint(2, 8), 2, e1=e1, e2=e2)
        expected = all(e[3] == 0 for e, _ in f.terms()) and (algebra is Algebra.JSINF0 or all(e[4] == 0 for e, _ in f.terms()))
        expr = render(f)
        out.append(Query(["--json", "member", algebra.value, expr], expr, lambda env, v=expected: env["result"] is v))
    return out


def _dim_queries(rng) -> list[Query]:
    out = []
    for family in rng.sample(list(DimFamily), 3):
        k = rng.randint(0, 200)
        out.append(Query(["--json", "dim", family.value, str(k)], None, lambda env, v=dim_brute(family, k): env["result"] == v))
    return out


def _expand_queries(rng) -> list[Query]:
    out = []
    for _ in range(2):
        f = random_form(rng, rng.randint(1, 4), rng.randint(1, 2))
        q_prec, u_max = rng.randint(1, 3), rng.randint(4, 8)
        series = expand(f, q_prec, u_max)
        want = [[m, n, f"{c.numerator}/{c.denominator}"] for (m, n), c in series.items()]
        expr = render(f)
        out.append(
            Query(
                ["--json", "expand", expr, "--qprec", str(q_prec), "--umax", str(u_max)],
                expr,
                lambda env, w=want: [[t["q"], t["u"], t["coeff"]] for t in env["result"]["coeffs"]] == w,
            )
        )
    return out


def _bracket_and_q_queries(rng) -> list[Query]:
    out = []
    for _ in range(2):
        kind, tag = rng.choice((("rc", Bracket.RC_TAU), ("rcd", Bracket.RC_D), ("tv", Bracket.TV)))
        f = random_form(rng, rng.randint(1, 4), 2)
        g = random_form(rng, rng.randint(1, 4), 2)
        n = rng.randint(0, 2)
        out.append(Query(["--json", "bracket", kind, render(f), render(g), str(n)], None, _form_check(bracket(tag, f, g, n))))
    for _ in range(2):
        f = random_form(rng, rng.randint(3, 8), 3)
        j1, j2 = rng.randint(0, 2), rng.randint(0, 2)
        scaled = q_coefficient(f, j1, j2)
        expr = f"q({render(f)}, {j1}, {j2})"
        out.append(
            Query(
                ["--json", "eval", expr],
                expr,
                lambda env, s=scaled: env["result"]["c_power"] == s.c_power and _form_of(env["result"]["form"]) == s.form,
            )
        )
    return out


def _form_check(value: QJForm) -> Callable:
    return lambda env: _form_of(env["result"]) == value


# Malformed expressions; each is a syntax error, which the CLI reports with exit 2.
SYNTAX_ERRORS = ("{f} +* e4", "rc({f}, e4)", "({f}", "{f}^-1", "e4^(1/2) + {f}", "foo({f})", "{f} # e4", "3/0*{f}")


def _malformed_queries(rng) -> list[Query]:
    f = render(random_form(rng, rng.randint(1, 4), 2))
    expr = rng.choice(SYNTAX_ERRORS).format(f=f)
    syntax = Query(["eval", expr], expr, _syntax_error, "syntax")
    if rng.random() < 0.5:
        kind = rng.choice(("rc", "rcd", "tv"))
        argv = ["bracket", kind, f, render(random_form(rng, rng.randint(1, 4), 1)), str(-rng.randint(1, 3))]
    else:
        argv = ["dim", rng.choice(list(DimFamily)).value, str(-rng.randint(1, 40))]
    return [syntax, Query(argv, None, _usage_error, "range")]


def _syntax_error(out) -> bool:
    rc, stdout, stderr = out
    return rc == 2 and "syntax error" in stderr and "Traceback" not in stderr and not stdout


def _usage_error(out) -> bool:
    # The README says usage errors exit 2; today an out-of-range integer
    # argument exits 1 (a known defect).  Either nonzero code with a one-line
    # message and no traceback passes here; the exit-code mismatch is counted
    # separately as cli.usage_exit_mismatch.
    rc, stdout, stderr = out
    return rc in (1, 2) and stderr.startswith("error:") and "Traceback" not in stderr and not stdout


def usage_exit_mismatch(kind: str, out) -> bool:
    """An out-of-range-argument query that did not exit with the documented usage code 2."""
    return kind == "cli.range" and out[0] != 2


def _query_item(query: Query) -> Item:
    def check(out) -> bool:
        if query.malformed:
            return query.expected(out)
        envelope = _json_ok(out)
        return envelope is not None and query.expected(envelope)

    kind = f"cli.{query.malformed}" if query.malformed else f"cli.{query.argv[1]}"
    return Item(kind, lambda tr: tr.call("cli.query", run_query, query.argv), check, lambda tr: _replay(query, tr))


def _quiet_main(argv: list[str]) -> int:
    from qjforms.cli import main

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:  # argparse rejected the command line
            return exc.code


def _parse_or_error(text: str):
    from qjforms.parser import EvalError, ParseError, parse_and_evaluate

    try:
        return parse_and_evaluate(text)
    except (ParseError, EvalError) as exc:
        return exc


def _replay(query: Query, tr) -> None:
    # In-process counterparts of the query, for the parser and cli layers.
    import qjforms.cli  # noqa: F401  (imported before the spans, not inside them)

    tr.call("cli.main", _quiet_main, query.argv)
    if query.expr is not None:
        tr.call("parser.parse_and_evaluate", _parse_or_error, query.expr)


def cli_queries(rng) -> list[Query]:
    queries = (
        _eval_queries(rng)
        + _weight_depth_queries(rng)
        + _member_queries(rng)
        + _dim_queries(rng)
        + _expand_queries(rng)
        + _bracket_and_q_queries(rng)
        + _malformed_queries(rng)
    )
    rng.shuffle(queries)
    return queries


ROUNDS = {
    "brackets": brackets_round,
    "bigprod": bigprod_round,
    "oracle": oracle_round,
}


def build_round(workload: str, seed: int, round_no: int) -> list[Item]:
    return ROUNDS[workload](Draws(workload, seed, round_no))
