"""The package surface, what a one-shot CLI query imports, and who reads private fields."""

import ast
import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import qjforms

SRC = str(Path(qjforms.__file__).resolve().parent.parent)

# The public names of the package, restated independently of __init__.
EXPORTS = {
    "ALGEBRA_GENERATORS", "Algebra", "BigradedSeries", "Bracket", "DEFAULT_QPREC", "DEFAULT_UMAX",
    "Derivation", "DepthProfile", "DimFamily", "DWP", "E1", "E2", "E4", "EisensteinMethod",
    "FAMILY_WEIGHTS", "Generator", "InconsistencyError", "ONE", "PrecisionError", "QJForm",
    "ScaledJForm", "SeriesDerivation", "StabilityReport", "WP", "ZERO", "alcuin", "bernoulli",
    "binomial", "bracket", "check_stability", "derive", "dim_brute", "dim_closed", "e6_form",
    "eisenstein_in_generators", "eisenstein_qseries", "expand", "member",
    "modular_dim", "monomials_of_weight", "nearest_int", "q_coefficient", "series_add",
    "series_coefficients", "series_derive", "series_equal", "series_mul", "series_scale", "sigma",
    "star_truncated", "transvectant_by_recurrence",
}


def python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=120)


class TestSurface:
    def test_star_import_binds_all(self):
        namespace: dict = {}
        exec("from qjforms import *", namespace)
        del namespace["__builtins__"]
        assert len(EXPORTS) == 51
        assert set(namespace) == set(qjforms.__all__) == EXPORTS
        assert len(qjforms.__all__) == 51

    def test_names_are_the_submodule_objects(self):
        for name in EXPORTS:
            owner = import_module(f"qjforms.{qjforms._EXPORTS[name]}")
            assert getattr(qjforms, name) is getattr(owner, name), name

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            qjforms.no_such_name  # noqa: B018
        assert not hasattr(qjforms, "no_such_name")

    def test_dir_lists_exports(self):
        assert EXPORTS <= set(dir(qjforms))


class TestPrivateFields:
    # The private storage of a QJForm belongs to forms.py and that of a
    # BigradedSeries to series.py; every other module goes through their API.
    OWNERS = {
        "_num": "forms.py", "_den": "forms.py", "_hash": "forms.py", "_coeffs": "series.py", "_denom": "series.py"
    }
    # _raw is each class's own unchecked constructor.
    RAW_OWNERS = {"QJForm": "forms.py", "BigradedSeries": "series.py"}

    def test_no_module_reaches_into_another(self):
        sources = sorted(Path(SRC, "qjforms").glob("*.py"))
        assert {"forms.py", "series.py", "calculus.py", "parser.py", "verify.py"} <= {p.name for p in sources}
        offences = []
        for path in sources:
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if not isinstance(node, ast.Attribute):
                    continue
                if node.attr == "_raw":
                    owner = isinstance(node.value, ast.Name) and self.RAW_OWNERS.get(node.value.id)
                elif node.attr in self.OWNERS:
                    owner = self.OWNERS[node.attr]
                else:
                    continue
                if owner != path.name:
                    offences.append(f"{path.name}:{node.lineno} .{node.attr}")
        assert offences == []


class TestExactness:
    # Results are exact with tolerance zero: no module computes in floating
    # point, so none writes a float or complex literal, names float or
    # complex, or imports cmath.
    def test_no_floating_point_in_src(self):
        sources = sorted(Path(SRC, "qjforms").glob("*.py"))
        assert {"forms.py", "series.py", "calculus.py", "verify.py"} <= {p.name for p in sources}
        offences = []
        for path in sources:
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                    offences.append(f"{path.name}:{node.lineno} literal {node.value!r}")
                elif isinstance(node, ast.Name) and node.id in ("float", "complex"):
                    offences.append(f"{path.name}:{node.lineno} name {node.id}")
                elif isinstance(node, ast.Import) and any(a.name == "cmath" for a in node.names):
                    offences.append(f"{path.name}:{node.lineno} import cmath")
                elif isinstance(node, ast.ImportFrom) and node.module == "cmath":
                    offences.append(f"{path.name}:{node.lineno} from cmath")
        assert offences == []



class TestOldestPython:
    # pyproject.toml declares requires-python >= 3.10. ast.parse with
    # feature_version=(3, 10) rejects grammar added in 3.11 (such as except*),
    # but it is best effort: it does not see library APIs added in 3.11.
    def test_src_parses_as_python_3_10(self):
        with pytest.raises(SyntaxError):
            ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
        sources = sorted(Path(SRC, "qjforms").glob("*.py"))
        assert {"parser.py", "cli.py"} <= {p.name for p in sources}
        for path in sources:
            ast.parse(path.read_text(), str(path), feature_version=(3, 10))


class TestOracleIndependence:
    # The series oracle checks the form kernel, so it keeps its own product
    # loop and canonicaliser and takes from forms only the form type, whose
    # public terms() it reads.
    def test_series_uses_no_kernel_internals(self):
        tree = ast.parse(Path(SRC, "qjforms", "series.py").read_text())
        from_forms = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module in ("forms", "qjforms.forms"):
                from_forms |= {alias.name for alias in node.names}
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                assert all(alias.name.split(".")[-1] != "forms" for alias in node.names)
        assert from_forms == {"QJForm"}
        names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        names |= {n.name for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
        assert names.isdisjoint({"_add_product", "sum_of_products", "leibniz", "_make"})


class TestSymbolEngineIndependence:
    # verify decides the bracket laws on symbols with its own packed keys, so
    # it names nothing of the exponent packing of the form kernel it checks.
    PACKING = {"_pack", "_unpack", "_FIELD_BITS", "_SHIFTS", "_UNITS", "MAX_EXPONENT"}
    ENGINE = {"_field", "_poly_sum", "_poly_mul", "_sum_power", "_symbol_bracket", "_decide"}

    def test_verify_names_no_kernel_packing(self):
        tree = ast.parse(Path(SRC, "qjforms", "verify.py").read_text())
        assert self.ENGINE <= {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}
        names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        names |= {a.name for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom)) for a in n.names}
        assert names.isdisjoint(self.PACKING)


class TestLayering:
    def test_forms_imports_nothing_from_calculus(self):
        # At any scope: test_module_does_not_load cannot see an import made
        # inside a function.
        names = set()
        for node in ast.walk(ast.parse(Path(SRC, "qjforms", "forms.py").read_text())):
            if isinstance(node, ast.ImportFrom):
                names |= {node.module or ""} | {alias.name for alias in node.names}
            elif isinstance(node, ast.Import):
                names |= {alias.name for alias in node.names}
        assert not any("calculus" in name.split(".") for name in names)


class TestColdStart:
    def test_cli_import_loads_only_the_query_path(self):
        probe = (
            "import sys, qjforms; lazy = sorted(m for m in sys.modules if m.startswith('qjforms.')); "
            "import qjforms.cli; print(lazy, [m for m in ('qjforms.verify', 'qjforms.series', "
            "'qjforms.dimensions', 'qjforms.forms', 'qjforms.calculus', 'qjforms.parser', 'dataclasses') "
            "if m in sys.modules])"
        )
        proc = python("-c", probe)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[] []"

    @pytest.mark.parametrize(
        "module, absent",
        [
            ("qjforms.forms", "qjforms.calculus"),
            ("qjforms.verify", "dataclasses"),
            ("qjforms.series", "qjforms.calculus"),
            ("qjforms.calculus", "qjforms.arith"),
            ("qjforms.parser", "qjforms.calculus"),
        ],
        ids=[
            "forms-without-calculus",
            "verify-without-dataclasses",
            "series-without-calculus",
            "calculus-without-arith",
            "parser-without-calculus",
        ],
    )
    def test_module_does_not_load(self, module, absent):
        # forms does not load calculus (no import cycle), no
        # class that verify defines is a dataclass, the series oracle does
        # not run the derivation engine it checks, the kernel behind an
        # `eval` query takes its binomials from math.comb, not the arith
        # memos, and the parser loads calculus only for a function call.
        proc = python("-c", f"import sys, {module}; print({absent!r} in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    @staticmethod
    def _query(argv: list[str], modules: tuple[str, ...]) -> tuple[str, str]:
        # Runs main(argv) in a fresh interpreter. Returns its stdout and
        # stderr, and a line with its exit code and which of the modules it
        # loaded.
        probe = (
            f"import sys, qjforms.cli; code = qjforms.cli.main({argv!r}); "
            f"print(code, [m for m in {modules!r} if m in sys.modules])"
        )
        proc = python("-c", probe)
        assert proc.returncode == 0, proc.stderr
        *out, last = proc.stdout.splitlines()
        return "\n".join([*out, proc.stderr.rstrip("\n")]).strip(), last

    @pytest.mark.parametrize(
        "argv, code", [(["dim", "DS", "12"], 0), (["--json", "dim", "table", "DSinf", "5"], 0), (["dim", "XX", "3"], 2)]
    )
    def test_dim_loads_no_expression_stack(self, argv, code):
        _, loaded = self._query(argv, ("qjforms.forms", "qjforms.calculus", "qjforms.parser"))
        assert loaded == f"{code} []"

    @pytest.mark.parametrize(
        "argv, code, output",
        [
            (["weight", "wp*e4"], 0, "6"),
            (["depth", "wp*e1"], 0, "(0, 1)"),
            (["eval", "wp*e4 + e1^2"], 0, "e1^2 + wp*e4"),
            (["expand", "wp", "--qprec", "2", "--umax", "2"], 0,
             "weight 2, q_prec 2, u in [-2, 2]\nq^0 u^-2\t1\nq^0 u^2\t1/15\nq^1 u^2\t16"),
            (["eval", "wp +"], 2, "syntax error: unexpected 'end of input' (at offset 4)"),
        ],
        ids=["weight", "depth", "eval", "expand", "syntax-error"],
    )
    def test_query_without_a_call_loads_no_calculus(self, argv, code, output):
        out, loaded = self._query(argv, ("qjforms.calculus",))
        assert out == output
        assert loaded == f"{code} []"

    @pytest.mark.parametrize(
        "argv, code, output",
        [
            (["eval", "dz(wp)"], 0, "dwp"),
            (["eval", "q(e2^2, 1, 0)"], 0, "c^1 * (-2*e2)"),
            (["eval", "eis(4)"], 0, "e4"),
            (["eval", "foo(wp)"], 2, "syntax error: unknown function 'foo' (at offset 0)"),
        ],
        ids=["dz", "q", "eis", "unknown-function"],
    )
    def test_query_with_a_call_loads_calculus(self, argv, code, output):
        out, loaded = self._query(argv, ("qjforms.calculus",))
        assert out == output
        assert loaded == f"{code} ['qjforms.calculus']"

    @pytest.mark.parametrize(
        "argv, code", [(["dim", "DS", "12"], 0), (["eval", "dz(wp)"], 0), (["dim", "XX", "3"], 2), (["weight", "0"], 1)]
    )
    def test_text_query_loads_no_json(self, argv, code):
        _, loaded = self._query(argv, ("json",))
        assert loaded == f"{code} []"

    @pytest.mark.parametrize(
        "argv",
        [["--json", "expand", "wp"], ["--json", "dim", "DS", "12"], ["--json", "verify", "identities"]],
    )
    def test_lazily_imported_commands_run(self, argv):
        proc = python("-m", "qjforms.cli", *argv)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["ok"] is True

    def test_unknown_suite_exits_two(self):
        proc = python("-m", "qjforms.cli", "verify", "bogus")
        assert proc.returncode == 2 and proc.stdout == ""
        assert "invalid choice: 'bogus'" in proc.stderr and "'identities'" in proc.stderr
