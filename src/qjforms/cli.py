"""Command line interface (`qjalg`): evaluation, queries, expansion, verify.

Exit codes: 0 on success, 1 when an evaluation or a verification check fails
or stdout closes early, 2 for usage errors (including expression syntax
errors, which are reported with a byte offset on standard error).
"""

from __future__ import annotations

import argparse
import gc
import itertools
import os
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from enum import Enum

    from .forms import QJForm, ScaledJForm
    from .series import BigradedSeries

# Every qjforms module is imported by the commands that run it, so a
# one-shot query loads only what it needs: `dim` loads no expression stack,
# the parser loads calculus only for a function call, and json is imported
# only under --json. run() is the program's one exit path: it skips the
# interpreter's final collection, which main() never does, since tests and
# the benchmark call main() in process.


def _coeff_str(c: Fraction) -> str:
    return f"{c.numerator}/{c.denominator}"


def _form_json(f: QJForm) -> list[dict]:
    return [{"exponents": list(e), "coeff": _coeff_str(c)} for e, c in f.terms()]


def _scaled_json(s: ScaledJForm) -> dict:
    return {"c_power": s.c_power, "form": _form_json(s.form)}


def _series_json(s: BigradedSeries) -> dict:
    return {
        "weight": s.weight,
        "q_prec": s.q_prec,
        "u_val": s.u_val,
        "u_max": s.u_max,
        "coeffs": [{"q": m, "u": n, "coeff": _coeff_str(c)} for (m, n), c in s.items()],
    }


def _emit(args: argparse.Namespace, result, text, ok: bool = True, errors: list[str] | tuple = ()) -> int:
    # result and text are zero-argument callables: only the printed one runs.
    if args.json:
        import json

        print(json.dumps({"ok": ok, "result": result(), "errors": errors}, indent=None), flush=True)
    else:
        text = text()
        if text:
            print(text, flush=True)
        for err in errors:
            print(f"error: {err}", file=sys.stderr)
    return 0 if ok else 1


class UsageError(argparse.ArgumentTypeError):
    """A command line that the README's usage does not allow (exit 2); argparse reports it from a type."""


class _Parser(argparse.ArgumentParser):
    # Subparsers are made with the parent's class, so every command line that
    # argparse rejects takes the one usage-error path of main().
    def error(self, message: str):
        raise UsageError(message)


def _choose(choices: type[Enum], name: str, role: str) -> Enum:
    """The member of an enum whose value is name, ignoring case."""
    for choice in choices:
        if choice.value.lower() == name.lower():
            return choice
    raise UsageError(f"unknown {role} {name!r}; choose from {', '.join(c.value for c in choices)}")


def _plain_form(expr: str, command: str) -> QJForm:
    from .forms import ScaledJForm
    from .parser import EvalError, parse_and_evaluate

    value = parse_and_evaluate(expr)
    if isinstance(value, ScaledJForm):
        raise EvalError(f"{command} expects a plain form; q(...) carries a power of 2*i*pi")
    return value


def _cmd_eval(args) -> int:
    from .forms import ScaledJForm
    from .parser import parse_and_evaluate

    value = parse_and_evaluate(args.expr)
    if isinstance(value, ScaledJForm):
        return _emit(args, lambda: _scaled_json(value), lambda: str(value))
    return _emit(args, lambda: _form_json(value), lambda: str(value))


def _cmd_weight(args) -> int:
    from .parser import EvalError

    comps = _plain_form(args.expr, "weight").weight_components()
    if not comps:
        raise EvalError("the zero form has no weight")
    weights = [w for w, _ in comps]
    return _emit(args, lambda: weights, lambda: ", ".join(str(w) for w in weights))


def _cmd_depth(args) -> int:
    profile = _plain_form(args.expr, "depth").depth()
    return _emit(args, lambda: {"s1": profile.s1, "s2": profile.s2}, lambda: f"({profile.s1}, {profile.s2})")


def _cmd_member(args) -> int:
    from .calculus import Algebra, member

    algebra = _choose(Algebra, args.algebra, "algebra")
    verdict = member(_plain_form(args.expr, "member"), algebra)
    return _emit(args, lambda: verdict, lambda: "true" if verdict else "false")


def _cmd_dim(args) -> int:
    from .dimensions import DimFamily, dim_closed

    parts = args.parts
    if parts and parts[0].lower() == "table":
        if len(parts) != 3:
            raise UsageError("usage: dim table FAMILY KMAX")
        family = _choose(DimFamily, parts[1], "family")
        kmax = _parse_int(parts[2], "KMAX")
        values = [dim_closed(family, k) for k in range(kmax + 1)]
        return _emit(args, lambda: values, lambda: "\n".join(f"{k}\t{v}" for k, v in enumerate(values)))
    if len(parts) != 2:
        raise UsageError("usage: dim FAMILY K  |  dim table FAMILY KMAX")
    family = _choose(DimFamily, parts[0], "family")
    value = dim_closed(family, _parse_int(parts[1], "K"))
    return _emit(args, lambda: value, lambda: str(value))


def _parse_int(text: str, role: str, minimum: int | None = 0) -> int:
    # An optional '-' and ASCII digits, as an expression reads an integer:
    # int() alone also reads '+3', ' 12 ', '1_2' and other scripts' digits.
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise UsageError(f"{role} must be an integer, got {text!r}")
    value = int(text)
    if minimum is not None and value < minimum:
        raise UsageError(f"{role} must be at least {minimum}, got {value}")
    return value


def _window_arg(flag_value: str | None, flag: str, env: str, default: int, minimum: int | None) -> int:
    # The flag overrides the environment variable, which overrides the default.
    if flag_value is not None:
        return _parse_int(flag_value, flag, minimum)
    env_value = os.environ.get(env)
    return default if env_value is None else _parse_int(env_value, env, minimum)


def _cmd_expand(args) -> int:
    from .series import DEFAULT_QPREC, DEFAULT_UMAX, expand

    q_prec = _window_arg(args.qprec, "--qprec", "QJALG_QPREC", DEFAULT_QPREC, minimum=1)
    u_max = _window_arg(args.umax, "--umax", "QJALG_UMAX", DEFAULT_UMAX, minimum=None)
    series = expand(_plain_form(args.expr, "expand"), q_prec, u_max)

    def text() -> str:
        head = f"weight {series.weight}, q_prec {series.q_prec}, u in [{series.u_val}, {series.u_max}]"
        return "\n".join([head, *(f"q^{m} u^{n}\t{c}" for (m, n), c in series.items())])
    return _emit(args, lambda: _series_json(series), text)


def _cmd_bracket(args) -> int:
    from .calculus import Bracket, bracket

    tag = _choose(Bracket, args.kind, "bracket kind")
    n = _parse_int(args.n, "N")
    value = bracket(tag, _plain_form(args.f, "bracket"), _plain_form(args.g, "bracket"), n)
    return _emit(args, lambda: _form_json(value), lambda: str(value))


def _cmd_verify(args) -> int:
    from .verify import run_suites

    results = run_suites([args.suite], seed=args.seed, quick=args.quick)
    failures = [f"{suite}/{c.name}" for suite, checks in results.items() for c in checks if not c.ok]

    def result() -> dict:
        suites = {}
        for suite, checks in results.items():
            passed = sum(1 for c in checks if c.ok)
            suites[suite] = {
                "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail, "seconds": c.seconds} for c in checks],
                "passed": passed,
                "failed": len(checks) - passed,
                "seconds": sum(c.seconds for c in checks),
            }
        return {"suites": suites}

    def text() -> str:
        lines = []
        for suite, checks in results.items():
            for c in checks:
                detail = f": {c.detail}" if c.detail else ""
                lines.append(f"{'PASS' if c.ok else 'FAIL'}  {suite}/{c.name}{detail}")
            failed = sum(1 for c in checks if not c.ok)
            lines.append(f"suite {suite}: {len(checks) - failed} passed, {failed} failed")
            if failed:
                # Each suite seeds its own generator, so this repeats its draws.
                lines.append(f"rerun: qjalg verify {suite} --seed {args.seed}{' --quick' if args.quick else ''}")
        lines.append(f"{len(failures)} check(s) failed" if failures else "all checks passed")
        return "\n".join(lines)

    return _emit(args, result, text, ok=not failures, errors=failures)


def _suite_name(name: str) -> str:
    # An argparse type, so that an unknown suite is rejected by argparse
    # while verify is imported only when the verify command runs.
    from .verify import SUITE_NAMES

    if name not in SUITE_NAMES:
        raise argparse.ArgumentTypeError(
            f"invalid choice: {name!r} (choose from {', '.join(map(repr, SUITE_NAMES))})"
        )
    return name


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qjalg",
        description="Exact computer algebra for index-zero singular quasi-Jacobi forms.",
    )
    parser.add_argument("--json", action="store_true", help="emit a JSON envelope instead of text")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, text in (
        ("eval", _cmd_eval, "evaluate an expression to canonical form"),
        ("weight", _cmd_weight, "weights of the components of an expression"),
        ("depth", _cmd_depth, "depth profile (s1, s2) of an expression"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("expr")
        p.set_defaults(func=func)

    p = sub.add_parser("member", help="membership in one of the six subalgebras")
    p.add_argument("algebra", metavar="ALG")
    p.add_argument("expr")
    p.set_defaults(func=_cmd_member)

    p = sub.add_parser("dim", help="dimension queries: dim FAMILY K | dim table FAMILY KMAX")
    p.add_argument("parts", nargs="+", metavar="ARG")
    p.set_defaults(func=_cmd_dim)

    p = sub.add_parser("expand", help="bigraded series expansion of a homogeneous form")
    p.add_argument("expr")
    p.add_argument("--qprec", help="q-precision, at least 1 (default: $QJALG_QPREC or series.DEFAULT_QPREC)")
    p.add_argument("--umax", help="top u-exponent (default: $QJALG_UMAX or series.DEFAULT_UMAX)")
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("bracket", help="bracket {rc|rcd|tv} EXPR EXPR N")
    p.add_argument("kind")
    p.add_argument("f")
    p.add_argument("g")
    p.add_argument("n")
    p.set_defaults(func=_cmd_bracket)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite", nargs="?", default="all", type=_suite_name, help="suite name (default: all)")
    p.add_argument("--seed", type=lambda text: _parse_int(text, "SEED", None), default=20240801)
    p.add_argument("--quick", action="store_true", help="smaller randomized batteries")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    # argparse sets --json on args before it parses the command, so a failure
    # in the command's arguments still reports in the requested mode.
    argv = sys.argv[1:] if argv is None else argv
    args = argparse.Namespace()
    # An exact result may have more digits than Python 3.11+ converts to a
    # string by default: lift that limit for this command only.
    digits = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if digits is not None:
        sys.set_int_max_str_digits(0)
    try:
        try:
            _parse(argv, args)
            return args.func(args)
        except UsageError as exc:
            return _fail(args, exc, 2)
        except (ValueError, ArithmeticError, RecursionError) as exc:
            # Among them EvalError, PrecisionError and InconsistencyError, and
            # the recursion limit of a deep expression or Eisenstein index.
            # A ParseError can only come from a command that imported the parser.
            from .parser import ParseError

            if isinstance(exc, ParseError):
                return _fail(args, exc, 2, "syntax error")
            return _fail(args, exc, 1)
    except BrokenPipeError:
        # The reader closed standard output (`qjalg ... | head -1`): point it
        # at devnull so that the interpreter's final flush does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: standard output was closed", file=sys.stderr)
        return 1
    finally:
        if digits is not None:
            sys.set_int_max_str_digits(digits)


def _parse(argv: list[str], args: argparse.Namespace) -> None:
    parser = _build_parser()
    try:
        parser.parse_args(argv, namespace=args)
    except UsageError as exc:
        # argparse reads a token that starts with '-' as an option, so an
        # expression such as -dwp fails: name the first one that -- lets through.
        import shlex

        for i, token in enumerate(itertools.takewhile("--".__ne__, argv)):
            if token[:1] != "-":
                continue
            fixed = [*argv[:i], "--", *argv[i:]]
            try:
                parser.parse_args(fixed)
            except UsageError:
                continue
            hint = f"{token!r} reads as an option, so put -- before it: {shlex.join(['qjalg', *fixed])}"
            raise UsageError(f"{exc}; {hint}") from None
        raise


def _fail(args: argparse.Namespace, exc: Exception, code: int, label: str = "error") -> int:
    if args.json:
        import json

        print(json.dumps({"ok": False, "result": None, "errors": [str(exc)]}), flush=True)
    print(f"{label}: {exc}", file=sys.stderr)
    return code


def run() -> None:
    """Run main() on sys.argv and end the process with its exit code."""
    code = main()
    # The process ends here and its memory goes with it, so the interpreter's
    # full collection on exit, over every tracked object, is wasted work:
    # frozen objects are left out of it. sys.exit still runs the atexit
    # handlers and flushes the streams.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
