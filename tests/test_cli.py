"""The qjalg command line interface."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import qjforms
from qjforms import verify
from qjforms.calculus import Bracket, bracket
from qjforms.cli import main
from qjforms.parser import parse_and_evaluate


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, "--json", *argv)
    return code, json.loads(out), err


class TestEval:
    def test_canonical_form(self, capsys):
        code, out, _ = run(capsys, "eval", "wp^2 - 5*e4 + 0*e2")
        assert code == 0
        assert out.strip() == "-5*e4 + wp^2"

    def test_json_schema(self, capsys):
        code, payload, _ = run_json(capsys, "eval", "wp^2 - 5*e4")
        assert code == 0
        assert payload["ok"] is True and payload["errors"] == []
        assert payload["result"] == [
            {"exponents": [0, 0, 1, 0, 0], "coeff": "-5/1"},
            {"exponents": [2, 0, 0, 0, 0], "coeff": "1/1"},
        ]

    def test_scaled_result(self, capsys):
        code, payload, _ = run_json(capsys, "eval", "q(e2, 1, 0)")
        assert code == 0
        assert payload["result"] == {
            "c_power": 1,
            "form": [{"exponents": [0, 0, 0, 0, 0], "coeff": "-1/1"}],
        }

    def test_syntax_error_exit_two(self, capsys):
        code, out, err = run(capsys, "eval", "wp^(1/2)")
        assert code == 2 and out == ""
        assert "syntax error" in err and "offset" in err
        # Under --json a syntax error prints the failure envelope like every
        # other error; the exit code and the stderr line stay as in text mode.
        message = "exponent must be a nonnegative integer literal (at offset 4)"
        code, payload, err = run_json(capsys, "eval", "e4^(")
        assert code == 2
        assert payload == {"ok": False, "result": None, "errors": [message]}
        assert err == f"syntax error: {message}\n"

    def test_domain_error_exit_one(self, capsys):
        code, _, err = run(capsys, "eval", "eis(7)")
        assert code == 1
        assert "error" in err

    def test_exponent_overflow_exit_one(self, capsys):
        code, out, err = run(capsys, "eval", "wp^20000*wp^20000")
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("json_mode", [False, True], ids=["text", "json"])
    def test_power_overflow_fails_before_any_product(self, capsys, json_mode):
        # (wp+e4)^40000 would need 40000 products to reach the overflow.
        start = time.perf_counter()
        code, out, err = run(capsys, *(["--json"] if json_mode else []), "eval", "(wp+e4)^40000")
        assert time.perf_counter() - start < 1
        assert code == 1 and err == "error: exponent above 32767 in a product\n"
        assert (json.loads(out)["ok"] is False) if json_mode else out == ""

    @pytest.mark.parametrize("expr", ["eis(3000)", "(" * 1200 + "wp" + ")" * 1200], ids=["eis3000", "nested1200"])
    def test_recursion_limit_exit_one(self, capsys, expr):
        # A deep Eisenstein recursion or a deeply nested expression fails
        # with one error line, not a traceback.
        code, out, err = run(capsys, "eval", expr)
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        code, payload, err = run_json(capsys, "eval", expr)
        assert code == 1 and payload["ok"] is False and payload["result"] is None
        assert err.startswith("error:") and err.count("\n") == 1


class TestQueries:
    def test_weight(self, capsys):
        code, out, _ = run(capsys, "weight", "wp^2*e4")
        assert code == 0 and out.strip() == "8"
        code, out, _ = run(capsys, "weight", "e1 + e4")
        assert code == 0 and out.strip() == "1, 4"
        code, _, _ = run(capsys, "weight", "wp - wp")
        assert code == 1

    def test_depth(self, capsys):
        code, out, _ = run(capsys, "depth", "rc(e4, wp, 1)")
        assert code == 0 and out.strip() == "(0, 1)"
        code, payload, _ = run_json(capsys, "depth", "e2^2*e1")
        assert payload["result"] == {"s1": 2, "s2": 1}

    def test_member(self, capsys):
        code, out, _ = run(capsys, "member", "M", "e4^2")
        assert code == 0 and out.strip() == "true"
        code, out, _ = run(capsys, "member", "JS", "e2")
        assert code == 0 and out.strip() == "false"
        code, _, _ = run(capsys, "member", "nope", "e2")
        assert code == 2

    def test_member_case_insensitive(self, capsys):
        code, out, _ = run(capsys, "member", "js0inf", "e1*wp")
        assert code == 0 and out.strip() == "true"


class TestDim:
    def test_single(self, capsys):
        code, out, _ = run(capsys, "dim", "DS", "12")
        assert code == 0 and out.strip() == "7"

    def test_table(self, capsys):
        code, payload, _ = run_json(capsys, "dim", "table", "DS0inf", "8")
        assert code == 0
        assert payload["result"] == [1, 1, 2, 3, 5, 6, 9, 11, 15]

    def test_usage_errors(self, capsys):
        assert run(capsys, "dim", "DS")[0] == 2
        assert run(capsys, "dim", "XX", "3")[0] == 2
        assert run(capsys, "dim", "DS", "-3")[0] == 2

    def test_usage_error_output(self, capsys):
        code, out, err = run(capsys, "dim", "DS", "-3")
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and "usage:" not in err


class TestExpand:
    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "expand", "wp", "--qprec", "1", "--umax", "2")
        assert code == 0
        assert "weight 2" in out and "q^0 u^-2\t1" in out and "q^0 u^2\t1/15" in out

    def test_json_window(self, capsys):
        code, payload, _ = run_json(capsys, "expand", "e2", "--qprec", "2", "--umax", "0")
        assert code == 0
        result = payload["result"]
        assert result["weight"] == 2 and result["q_prec"] == 2
        assert result["coeffs"][0] == {"q": 0, "u": 0, "coeff": "1/3"}

    def test_env_defaults(self, capsys, monkeypatch):
        monkeypatch.setenv("QJALG_QPREC", "3")
        monkeypatch.setenv("QJALG_UMAX", "4")
        code, payload, _ = run_json(capsys, "expand", "e4")
        assert code == 0
        assert payload["result"]["q_prec"] == 3 and payload["result"]["u_max"] == 4

    def test_bad_env_default_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("QJALG_QPREC", "abc")
        code, out, err = run(capsys, "expand", "wp")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "QJALG_QPREC" in err and err.count("\n") == 1

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("QJALG_UMAX", "abc")
        code, payload, _ = run_json(capsys, "expand", "e4", "--qprec", "2", "--umax", "0")
        assert code == 0 and payload["result"]["u_max"] == 0

    def test_empty_precision_window_is_usage_error(self, capsys):
        code, out, err = run(capsys, "expand", "wp", "--qprec", "0")
        assert code == 2 and out == "" and err.startswith("error:")

    def test_mixed_weight_rejected(self, capsys):
        code, _, err = run(capsys, "expand", "wp + e1")
        assert code == 1


class TestBracketCommand:
    def test_value(self, capsys):
        code, out, _ = run(capsys, "bracket", "tv", "e2", "e1", "1")
        assert code == 0
        assert out.strip() == "-1/4*e2^3 - 1/4*wp*e2^2 + 5/4*e4*e2 + 5/4*wp*e4"

    def test_bad_kind(self, capsys):
        code, out, err = run(capsys, "bracket", "xx", "e2", "e1", "1")
        assert code == 2 and out == ""
        assert err == "error: unknown bracket kind 'xx'; choose from rc, rcd, tv\n"

    def test_negative_order_is_usage_error(self, capsys):
        code, out, err = run(capsys, "bracket", "rc", "wp", "e4", "-1")
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and "usage:" not in err


class TestVerifyCommand:
    def test_identities_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "identities")
        assert code == 0
        assert "suite identities" in out and "FAIL" not in out
        assert "all checks passed" in out

    def test_json_report(self, capsys):
        code, payload, _ = run_json(capsys, "verify", "dimensions", "--quick")
        assert code == 0
        suites = payload["result"]["suites"]
        assert "dimensions" in suites
        assert suites["dimensions"]["failed"] == 0
        assert all(c["ok"] for c in suites["dimensions"]["checks"])

    def test_failure_prints_a_reproducer(self, capsys, monkeypatch):
        # A wrong tv weight shift fails weight_shift:brackets.  The detail names
        # the drawn forms in parser syntax, and the rerun line repeats the draws.
        shift = verify.BRACKET_WEIGHT_SHIFT[Bracket.TV] + 1
        monkeypatch.setattr(verify, "BRACKET_WEIGHT_SHIFT", {**verify.BRACKET_WEIGHT_SHIFT, Bracket.TV: shift})
        code, out, _ = run(capsys, "verify", "brackets", "--quick", "--seed", "5")
        assert code == 1
        prefix = "FAIL  brackets/weight_shift:brackets: Bracket.TV weight shift wrong at n="
        fail = next(line for line in out.splitlines() if line.startswith(prefix))
        n, forms = fail.removeprefix(prefix).split(" on ")
        texts = forms.split(" | ")
        f, g = map(parse_and_evaluate, texts)
        assert [str(f), str(g)] == texts
        assert bracket(Bracket.TV, f, g, int(n)).weight() != f.weight() + g.weight() + shift * int(n)
        assert "suite brackets: 14 passed, 1 failed\nrerun: qjalg verify brackets --seed 5 --quick\n" in out
        code, again, _ = run(capsys, "verify", "brackets", "--seed", "5", "--quick")
        assert code == 1 and fail in again.splitlines()

    def test_unknown_suite_is_usage_error(self, capsys):
        code, payload, err = run_json(capsys, "verify", "bogus")
        assert code == 2
        assert payload["ok"] is False and payload["result"] is None
        assert "invalid choice: 'bogus'" in payload["errors"][0]
        assert err == f"error: {payload['errors'][0]}\n"


class TestRejectedCommandLines:
    # A command line that argparse rejects is a usage error like any other:
    # exit 2, one error line and, under --json, the failure envelope.
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["verify", "bogus"], "argument suite: invalid choice: 'bogus'"),
            (["eval", "-dwp"], "the following arguments are required: expr"),
            (["member", "M"], "the following arguments are required: expr"),
        ],
        ids=["unknown-suite", "leading-minus", "missing-argument"],
    )
    @pytest.mark.parametrize("json_mode", [False, True], ids=["text", "json"])
    def test_usage_error(self, capsys, argv, message, json_mode):
        code, out, err = run(capsys, *(["--json"] if json_mode else []), *argv)
        assert code == 2
        assert err.startswith(f"error: {message}") and err.count("\n") == 1 and "usage:" not in err
        if json_mode:
            assert json.loads(out) == {"ok": False, "result": None, "errors": [err[len("error: ") : -1]]}
        else:
            assert out == ""

    @pytest.mark.parametrize(
        "argv, fixed",
        [
            (["eval", "-dwp"], ["eval", "--", "-dwp"]),
            (["eval", "-3/7"], ["eval", "--", "-3/7"]),
            (["member", "M", "-dwp"], ["member", "M", "--", "-dwp"]),
            (["dim", "DS", "-x"], ["dim", "DS", "--", "-x"]),
        ],
        ids=["missing-expr", "fraction", "second-argument", "unrecognized"],
    )
    @pytest.mark.parametrize("json_mode", [False, True], ids=["text", "json"])
    def test_leading_minus_is_named(self, capsys, argv, fixed, json_mode):
        # The error line names the token that argparse took for an option and
        # gives the command line with -- before it.
        mode = ["--json"] if json_mode else []
        code, out, err = run(capsys, *mode, *argv)
        assert code == 2 and err.count("\n") == 1 and "usage:" not in err
        hint = f"; {argv[-1]!r} reads as an option, so put -- before it: {' '.join(['qjalg', *mode, *fixed])}\n"
        assert err.startswith("error: ") and err.endswith(hint)
        if json_mode:
            assert json.loads(out) == {"ok": False, "result": None, "errors": [err[len("error: ") : -1]]}
        else:
            assert out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "-3"],
            ["dim", "DS", "-3"],
            ["expand", "wp", "--qp", "1"],
            ["eval", "wp", "-e4"],
            ["member", "--", "-dwp"],
        ],
        ids=["negative-number", "command-error", "abbreviation", "extra-argument", "after-double-dash"],
    )
    def test_no_hint_where_double_dash_cannot_help(self, capsys, argv):
        # Negative numbers and abbreviated options parse, and where -- before
        # a token would not make the command line parse, no hint is given.
        _, _, err = run(capsys, *argv)
        assert "reads as an option" not in err

    def test_double_dash_ends_options(self, capsys):
        code, out, _ = run(capsys, "eval", "--", "-dwp")
        assert code == 0 and out.strip() == "-dwp"


class TestClosedStdout:
    @pytest.mark.parametrize(
        "argv", [["dim", "table", "DS", "100000"], ["--json", "dim", "table", "DS", "100000"]], ids=["text", "json"]
    )
    def test_no_traceback(self, argv):
        # The reader goes away after one line (at most 64 bytes of the
        # one-line JSON envelope), as `qjalg ... | head -1` does.
        env = dict(os.environ, PYTHONPATH=str(Path(qjforms.__file__).resolve().parent.parent))
        proc = subprocess.Popen(
            [sys.executable, "-m", "qjforms.cli", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
        )
        proc.stdout.readline(64)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=120) in {0, 1, 2}
        assert "Traceback" not in err and err.count("error:") <= 1
