"""The package's public names.

Each module's ``__all__`` is the one list of its public names, next to
their definitions, and ``anisofield`` re-exports every name on it.
"""

import importlib
import subprocess
import sys

import anisofield

MODULES = (
    "errors", "filters", "spectral", "synthesis", "projection", "estimator", "theory", "harness",
)

# sorted dir() of a fresh ``import anisofield``, without the names that
# start with an underscore: the public classes, functions and constants,
# and the modules the import loads
PUBLIC = [
    "AnisofieldError", "AnisotropicIndex", "AsymptoticConstants",
    "DIRECTIONS", "DiscreteFilter", "EmbeddingNotPSD", "EvalReport",
    "EvalRow1D", "EvalRow2D", "ExperimentConfig", "Gamma_fourier", "InvalidArgument",
    "NegativeVariance", "NonFiniteVariation", "OrderTooLow", "TooManyFailures",
    "Window1DMinus", "ZeroVariation", "afb_sra", "apply_filter",
    "asymptotic_constants", "binomial_filter", "check_level", "cross_transfer",
    "density", "derived_stream", "emit_table", "errors", "estimate_H", "estimate_pair",
    "estimate_projection", "estimator", "fbm_path", "fgn_autocovariance",
    "field_to_csv", "filters", "gamma_const", "harness", "infer_order", "load_config",
    "log_ratio_at_level", "parse_filter", "parse_index", "parse_window", "project_axis",
    "projection", "quad_variation", "read_field", "read_path_csv",
    "run_eval_1d", "run_eval_2d", "spectral", "synthesis", "theory", "transfer_sq",
    "write_field", "write_path_csv",
]


def test_public_names_of_a_fresh_import():
    # a fresh process: importing anisofield.cli, as the CLI tests do, adds
    # the name cli to the package
    code = "import anisofield\nprint(*sorted(n for n in dir(anisofield) if n[0] != '_'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == PUBLIC


def test_each_public_name_listed_once_and_defined():
    owner = {}
    for name in MODULES:
        module = importlib.import_module(f"anisofield.{name}")
        for public in module.__all__:
            assert public not in owner, f"{public} is in {owner.get(public)} and {name}"
            owner[public] = name
            assert getattr(anisofield, public) is getattr(module, public)
    assert sorted([*owner, *MODULES]) == PUBLIC


def test_error_classes_are_the_nine_a_caller_tells_apart():
    # every bad argument is one InvalidArgument; the others report what the
    # data does to a computation, and a run's failure policy reads them
    errors = importlib.import_module("anisofield.errors")
    assert sorted(errors.__all__) == [
        "AnisofieldError", "EmbeddingNotPSD", "InvalidArgument", "NegativeVariance",
        "NonFiniteVariation", "OrderTooLow", "TooManyFailures", "ZeroVariation",
    ]
    assert all(issubclass(getattr(errors, name), errors.AnisofieldError) for name in errors.__all__)
