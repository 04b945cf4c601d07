"""Synthesis of fractional Brownian paths and anisotropic 2-d fields,
discrete Radon projections, and directional regularity estimation from
generalized quadratic variations, with the asymptotic constants of the
estimator and a Monte Carlo evaluation harness."""

from .errors import (
    AllMomentsVanish,
    AnisofieldError,
    EmbeddingNotPSD,
    EqualDilations,
    GridTooCoarse,
    InvalidArgument,
    MalformedFieldFile,
    MalformedPathFile,
    NegativeVariance,
    NonFiniteVariation,
    OrderTooLow,
    OrderZero,
    PathTooShort,
    QuadratureFailure,
    TooManyFailures,
    ZeroFrequency,
    ZeroVariation,
)
from .filters import (
    DiscreteFilter,
    apply_filter,
    binomial_filter,
    cross_transfer,
    infer_order,
    parse_filter,
    transfer_sq,
)
from .spectral import (
    AnisotropicIndex,
    Window1DMinus,
    density,
    parse_index,
    parse_window,
    radon_density,
)
from .synthesis import (
    afb_sra,
    derived_stream,
    fbm_path,
    fgn_autocovariance,
    field_to_csv,
    read_field,
    read_path_csv,
    write_field,
    write_path_csv,
)
from .projection import DIRECTIONS, project_axis
from .estimator import (
    check_level,
    estimate_H,
    estimate_pair,
    estimate_projection,
    log_ratio_at_level,
    quad_variation,
)
from .theory import (
    AsymptoticConstants,
    C_const,
    E_const,
    Gamma_fourier,
    asymptotic_constants,
    gamma_const,
)
from .harness import (
    EvalReport,
    EvalRow1D,
    EvalRow2D,
    ExperimentConfig,
    emit_table,
    load_config,
    run_eval_1d,
    run_eval_2d,
)

__version__ = "0.1.0"
