"""The public entries' argument contract: a bad argument raises
InvalidArgument, which is an AnisofieldError and a ValueError, with a
message that names the argument.

One row per (entry, argument, bad value): a str or a bool where a real
number is read, a non-finite real, an object of the wrong kind where a
filter, an index, a window or a sequence of levels is read, an array that
is not of real numbers (str, complex, bool or ragged) where an array is
read, the checks of counts and shapes that no other test reaches, and the
arguments that the paper's estimator is not defined for.  The integer,
dilation and real-number rules have per-entry tables of their own in
test_estimator.py and test_spectral.py.
"""

import math
import re

import numpy as np
import pytest

from anisofield import (
    AnisofieldError,
    AnisotropicIndex,
    DiscreteFilter,
    ExperimentConfig,
    InvalidArgument,
    Window1DMinus,
    afb_sra,
    apply_filter,
    binomial_filter,
    check_level,
    cross_transfer,
    density,
    derived_stream,
    estimate_H,
    estimate_pair,
    estimate_projection,
    fbm_path,
    fgn_autocovariance,
    infer_order,
    log_ratio_at_level,
    project_axis,
    quad_variation,
    run_eval_1d,
    run_eval_2d,
    theory,
    transfer_sq,
    write_field,
    write_path_csv,
)
from anisofield.estimator import check_span

A2 = binomial_filter(2)
INDEX = AnisotropicIndex(0.7, 0.2)
WALK = np.cumsum(np.random.default_rng(3).standard_normal(65))
GRID = np.add.outer(WALK[:17], WALK[17:34])
PROJECTIONS = np.stack([WALK[:17], WALK[17:34]])

# (id, call taking a scratch directory, exact message)
ROWS = [
    # a str or a bool where a real number is read
    ("asymptotic_constants-H-str", lambda d: theory.asymptotic_constants(A2, 2, 1, "0.5"),
     "H = '0.5' is not a real number"),
    ("asymptotic_constants-H-bool", lambda d: theory.asymptotic_constants(A2, 2, 1, True),
     "H = True is not a real number"),
    ("E_const-H-str", lambda d: theory.E_const(A2, 1, "0.5"),
     "H = '0.5' is not a real number"),
    ("C_const-H-str", lambda d: theory.C_const(A2, 2, 1, "0.5"),
     "H = '0.5' is not a real number"),
    ("Gamma_fourier-H-bool", lambda d: theory.Gamma_fourier(A2, 2, 1, True, 0),
     "H = True is not a real number"),
    ("Gamma_fourier-p-str", lambda d: theory.Gamma_fourier(A2, 2, 1, 0.5, "0"),
     "p = '0' is not an integer or an array of integers"),
    ("Gamma_fourier-p-float", lambda d: theory.Gamma_fourier(A2, 2, 1, 0.5, 0.5),
     "p = 0.5 is not an integer or an array of integers"),
    ("fgn_autocovariance-H-str", lambda d: fgn_autocovariance("0.5", [0, 1]),
     "H = '0.5' is not a real number"),
    ("write_path_csv-hurst-str", lambda d: write_path_csv(WALK, d / "out", "0.5"),
     "hurst = '0.5' is not a real number"),
    ("write_field-params-str", lambda d: write_field(GRID, d / "out", "ab"),
     "params entry 'a' is not a real number"),
    ("write_field-params-bool", lambda d: write_field(GRID, d / "out", (0.7, True)),
     "params entry True is not a real number"),
    ("write_field-params-scalar", lambda d: write_field(GRID, d / "out", 0.5),
     "params 0.5 is not a pair (h_h, h_v)"),
    # a non-finite real
    ("asymptotic_constants-H-nan", lambda d: theory.asymptotic_constants(A2, 2, 1, math.nan),
     "H=nan must be positive"),
    # an object of the wrong kind
    ("estimate_H-filter-list", lambda d: estimate_H(WALK, [1, -2, 1], 2, 1),
     "filter [1, -2, 1] is not a DiscreteFilter"),
    ("quad_variation-filter-tuple", lambda d: quad_variation(WALK, (1, -2, 1), 2),
     "filter (1, -2, 1) is not a DiscreteFilter"),
    ("apply_filter-filter-list", lambda d: apply_filter([1, -2, 1], WALK),
     "filter [1, -2, 1] is not a DiscreteFilter"),
    ("check_level-filter-tuple", lambda d: check_level(64, 0, (1, -2, 1), 2),
     "filter (1, -2, 1) is not a DiscreteFilter"),
    ("estimate_projection-filter-list",
     lambda d: estimate_projection(PROJECTIONS[0], 0, [1, -2, 1]),
     "filter [1, -2, 1] is not a DiscreteFilter"),
    ("C_const-filter-list", lambda d: theory.C_const([1, -2, 1], 2, 1, 0.5),
     "filter [1, -2, 1] is not a DiscreteFilter"),
    ("asymptotic_constants-filter-str", lambda d: theory.asymptotic_constants("1,-2,1", 2, 1, 0.5),
     "filter '1,-2,1' is not a DiscreteFilter"),
    ("transfer_sq-filter-tuple", lambda d: transfer_sq((1, -2, 1), 0.3),
     "filter (1, -2, 1) is not a DiscreteFilter"),
    ("cross_transfer-filter-list", lambda d: cross_transfer([1, -2, 1], 2, 1, 0.3),
     "filter [1, -2, 1] is not a DiscreteFilter"),
    ("afb_sra-index-str", lambda d: afb_sra("axes:0.7,0.2", 8, 0),
     "index 'axes:0.7,0.2' is not an AnisotropicIndex"),
    ("density-index-str", lambda d: density("x", [1.0, 1.0]),
     "index 'x' is not an AnisotropicIndex"),
    ("project_axis-window-str", lambda d: project_axis(GRID, "horizontal", "gaussian:0.2"),
     "window 'gaussian:0.2' is not a Window1DMinus"),
    ("project_axis-window-function", lambda d: project_axis(GRID, "vertical", np.ones_like),
     f"window {np.ones_like!r} is not a Window1DMinus"),
    ("estimate_pair-nus-int", lambda d: estimate_pair(PROJECTIONS, 0),
     "nus = 0: estimate_pair needs a sequence of at least one level nu"),
    ("estimate_pair-nus-ragged", lambda d: estimate_pair(PROJECTIONS, [(0,), 1]),
     "level nu = (0,) is not an integer"),
    # an array that is not of real numbers, where numpy alone would read
    # a value silently: a str path written out, a complex field's real part
    # written out, and the variation of the real part
    ("write_path_csv-values-two-letters",
     lambda d: write_path_csv(np.array(["a", "b"]), d / "out"),
     "values must be an array of real numbers"),
    ("write_field-values-complex-grid", lambda d: write_field(GRID + 1j, d / "out"),
     "values must be an array of real numbers"),
    ("quad_variation-path-imaginary", lambda d: quad_variation(np.arange(10) * 1j, A2, 1),
     "path must be an array of real numbers"),
    # projections whose second-to-last axis is not the two directions
    ("estimate_pair-projections-3-rows",
     lambda d: estimate_pair(np.zeros((3, 65))),
     "projections of shape (3, 65): estimate_pair needs shape (..., 2, M+1)"),
    ("estimate_pair-projections-1d", lambda d: estimate_pair(WALK),
     "projections of shape (65,): estimate_pair needs shape (..., 2, M+1)"),
    # a seed, a stream key or a size that is not an integer >= 0
    ("derived_stream-seed-negative", lambda d: derived_stream(-1, 0),
     "seed -1 is negative; a seed is an integer >= 0"),
    ("derived_stream-key-negative", lambda d: derived_stream(1, -1),
     "stream key = -1 must be >= 0"),
    ("derived_stream-seed-float", lambda d: derived_stream(1.5, 0),
     "seed = 1.5 is not an integer"),
    ("derived_stream-key-float", lambda d: derived_stream(1, 0.5),
     "stream key = 0.5 is not an integer"),
    ("fbm_path-seed-bool", lambda d: fbm_path(0.5, 8, True), "seed = True is not an integer"),
    ("fbm_path-seed-int64-negative", lambda d: fbm_path(0.5, 8, np.int64(-2)),
     "seed -2 is negative; a seed is an integer >= 0"),
    # numpy would read a bool in one seed's entropy list as an integer
    ("fbm_path-seed-bool-list", lambda d: fbm_path(0.5, 8, [True]),
     "seed [True] is not an integer >= 0, a list of them or a SeedSequence"),
    ("afb_sra-seed-bool-in-list", lambda d: afb_sra(INDEX, 8, [1, False]),
     "seed [1, False] is not an integer >= 0, a list of them or a SeedSequence"),
    ("check_span-n_steps-float", lambda d: check_span(64.5, A2, 2, "x"),
     "n_steps = 64.5 is not an integer"),
    ("check_span-n_steps-str", lambda d: check_span("64", A2, 2, "x"),
     "n_steps = '64' is not an integer"),
    ("check_level-M-float", lambda d: check_level(64.0, 3, A2, 2),
     "grid size M = 64.0 is not an integer"),
    ("check_level-M-bool", lambda d: check_level(True, 0, A2, 2),
     "grid size M = True is not an integer"),
    # a count that is too small
    ("run_eval_2d-indices-none", lambda d: run_eval_2d(ExperimentConfig(mode="2d")),
     "2-d evaluation needs at least one index"),
    ("run_eval_1d-hursts-none", lambda d: run_eval_1d(ExperimentConfig(mode="1d")),
     "1-d evaluation needs at least one Hurst value"),
    ("binomial_filter-order-zero", lambda d: binomial_filter(0), "order must be >= 1"),
    # a list field of a config that is not a tuple or a list
    ("ExperimentConfig-hursts-float", lambda d: ExperimentConfig(mode="1d", hursts=0.5),
     "hursts = 0.5 is not a tuple or a list"),
    ("ExperimentConfig-path_lengths-int",
     lambda d: ExperimentConfig(mode="1d", hursts=(0.5,), path_lengths=4096),
     "path_lengths = 4096 is not a tuple or a list"),
    ("ExperimentConfig-indices-index", lambda d: ExperimentConfig(indices=INDEX),
     "indices = AnisotropicIndex(h_h=0.7, h_v=0.2) is not a tuple or a list"),
    ("ExperimentConfig-nu_levels-int",
     lambda d: ExperimentConfig(indices=(INDEX,), nu_levels=3),
     "nu_levels = 3 is not a tuple or a list"),
    # what the paper's estimator is not defined for: a filter whose taps do
    # not sum to zero or are all zero, the zero frequency, too few filtered
    # samples, and a path CSV with no step
    ("DiscreteFilter-coefficients-sum-2", lambda d: DiscreteFilter([1.0, 1.0]),
     "coefficients sum to 2, not zero"),
    ("DiscreteFilter-coefficients-zero", lambda d: DiscreteFilter([0.0, 0.0]),
     "all coefficients are zero"),
    ("density-xi-origin", lambda d: density(INDEX, (0.0, 0.0)),
     "density is singular at the zero frequency"),
    ("quad_variation-path-two-values", lambda d: quad_variation([0.0, 1.0], A2, 1),
     "2 values leave fewer than two summands for a 3-tap filter at dilation 1"),
    ("write_path_csv-values-one", lambda d: write_path_csv(np.zeros(1), d / "out"),
     "a path CSV needs at least two values, got 1"),
]

# (entry, argument, call of an array for the argument and a scratch
# directory, an array the entry accepts there)
ARRAY_ENTRIES = [
    ("DiscreteFilter", "coefficients", lambda x, d: DiscreteFilter(x), A2.coeffs),
    ("infer_order", "coefficients", lambda x, d: infer_order(x), A2.coeffs),
    ("apply_filter", "values", lambda x, d: apply_filter(A2, x), WALK),
    ("transfer_sq", "xi", lambda x, d: transfer_sq(A2, x), WALK),
    ("cross_transfer", "xi", lambda x, d: cross_transfer(A2, 2, 1, x), WALK),
    ("quad_variation", "path", lambda x, d: quad_variation(x, A2, 1), WALK),
    ("log_ratio_at_level", "values", lambda x, d: log_ratio_at_level(x, 0, A2, 2, 1), WALK),
    ("estimate_projection", "values", lambda x, d: estimate_projection(x), WALK),
    ("estimate_pair", "projections", lambda x, d: estimate_pair(x), PROJECTIONS),
    ("density", "xi", lambda x, d: density(INDEX, x), [1.0, 1.0]),
    ("AnisotropicIndex.evaluate", "xi", lambda x, d: INDEX.evaluate(x), [1.0, 1.0]),
    ("Window1DMinus", "x", lambda x, d: Window1DMinus(0.3)(x), WALK),
    ("fgn_autocovariance", "lags", lambda x, d: fgn_autocovariance(0.5, x), [0, 1]),
    ("project_axis", "field", lambda x, d: project_axis(x, "horizontal"), GRID),
    ("write_field", "values", lambda x, d: write_field(x, d / "out"), GRID),
    ("write_path_csv", "values", lambda x, d: write_path_csv(x, d / "out"), WALK),
]

# bad arrays made from a good one
BAD_ARRAYS = {
    "str": lambda x: np.asarray(x).astype(str),
    "complex": lambda x: np.asarray(x) + 1j,
    "bool": lambda x: np.asarray(x) > 0,
    "ragged": lambda x: [*np.atleast_2d(x), [0.0]],
}

ROWS += [
    (f"{entry}-{argument}-{kind}", lambda d, call=call, x=bad(good): call(x, d),
     f"{argument} must be an array of real numbers")
    for entry, argument, call, good in ARRAY_ENTRIES
    for kind, bad in BAD_ARRAYS.items()
]


@pytest.mark.parametrize("call, message", [row[1:] for row in ROWS], ids=[row[0] for row in ROWS])
def test_bad_argument_raises_invalid_argument(tmp_path, call, message):
    with pytest.raises(InvalidArgument, match=f"^{re.escape(message)}$") as info:
        call(tmp_path)
    assert isinstance(info.value, AnisofieldError)
    assert isinstance(info.value, ValueError)
    # a writer checks its arguments before it opens the file
    assert not (tmp_path / "out").exists()


def test_good_seed_and_size_accepted():
    # the control of the seed, key and size rows above
    assert derived_stream(np.int64(1), 0, np.uint8(3)).spawn_key == (0, 3)
    check_level(64, 3, A2, 2)
    check_span(np.int64(64), A2, 2, "x")


@pytest.mark.parametrize(
    "call, good", [row[2:] for row in ARRAY_ENTRIES], ids=[row[0] for row in ARRAY_ENTRIES]
)
def test_good_array_accepted(tmp_path, call, good):
    # the control of the rows above: only the array's kind is at fault
    call(good, tmp_path)
