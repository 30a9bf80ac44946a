"""Exact kernel for the graded differential algebra of index-zero singular quasi-Jacobi forms.

The package loads lazily (PEP 562): ``import qjforms`` imports no
submodule, and the first access to an exported name imports the submodule
that defines it.  A one-shot ``qjalg`` query thereby loads only the modules
its command runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# The single list of exports: exported name -> defining submodule.
_EXPORTS = {
    name: module
    for module, names in {
        "arith": ("bernoulli", "binomial", "sigma"),
        "calculus": (
            "ALGEBRA_GENERATORS",
            "Algebra",
            "Bracket",
            "Derivation",
            "EisensteinMethod",
            "InconsistencyError",
            "StabilityReport",
            "bracket",
            "check_stability",
            "derive",
            "eisenstein_in_generators",
            "member",
            "monomials_of_weight",
            "star_truncated",
            "transvectant_by_recurrence",
        ),
        "dimensions": (
            "DimFamily",
            "FAMILY_WEIGHTS",
            "alcuin",
            "dim_brute",
            "dim_closed",
            "modular_dim",
            "nearest_int",
            "series_coefficients",
        ),
        "forms": (
            "DWP",
            "E1",
            "E2",
            "E4",
            "ONE",
            "WP",
            "ZERO",
            "DepthProfile",
            "Generator",
            "QJForm",
            "ScaledJForm",
            "e6_form",
            "q_coefficient",
        ),
        "series": (
            "DEFAULT_QPREC",
            "DEFAULT_UMAX",
            "BigradedSeries",
            "PrecisionError",
            "SeriesDerivation",
            "eisenstein_qseries",
            "expand",
            "series_add",
            "series_derive",
            "series_equal",
            "series_mul",
            "series_scale",
        ),
    }.items()
    for name in names
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
