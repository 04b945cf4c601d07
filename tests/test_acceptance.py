"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them on
success).  The heavyweight Monte Carlo runs are shared module-scoped
fixtures; expect a few minutes of runtime for the full-grid evaluation.
"""

import math

import numpy as np
import pytest

from anisofield import (
    AnisotropicIndex,
    DiscreteFilter,
    ExperimentConfig,
    Window1DMinus,
    afb_sra,
    apply_filter,
    axis_projections,
    binomial_filter,
    derived_stream,
    emit_table,
    estimate_pair,
    fgn_autocovariance,
    fgn_exact,
    project_axis,
    radon_density,
    run_eval_1d,
    run_eval_2d,
)
from anisofield import theory
from oracles import afb_sra_direct

SEED = 20260810
A2 = binomial_filter(2)

# Expected statistics for the evaluation grid (M=512, R=1000 per cell):
# per (h_h, h_v) and subsampling level: b_h, s_h, b_v, s_v, b_hv, s_hv.
REFERENCE_2D = {
    (0.7, 0.7): {
        0: (0.068, 0.041, 0.069, 0.041, -0.001, 0.060),
        1: (0.003, 0.063, 0.000, 0.059, 0.003, 0.087),
        2: (-0.012, 0.090, -0.014, 0.087, 0.002, 0.126),
        3: (-0.021, 0.125, -0.024, 0.130, 0.003, 0.182),
    },
    (0.5, 0.5): {
        0: (0.100, 0.046, 0.102, 0.044, -0.002, 0.065),
        1: (0.012, 0.070, 0.009, 0.067, 0.003, 0.097),
        2: (-0.007, 0.100, -0.008, 0.097, 0.001, 0.139),
        3: (-0.013, 0.142, -0.015, 0.146, 0.002, 0.207),
    },
    (0.2, 0.2): {
        0: (0.156, 0.052, 0.160, 0.050, -0.004, 0.073),
        1: (0.034, 0.080, 0.030, 0.078, 0.004, 0.112),
        2: (0.004, 0.113, 0.004, 0.112, 0.000, 0.158),
        3: (-0.004, 0.163, -0.007, 0.164, 0.003, 0.238),
    },
    (0.7, 0.5): {
        0: (0.071, 0.041, 0.100, 0.044, -0.029, 0.061),
        1: (0.001, 0.064, 0.002, 0.067, -0.001, 0.095),
        2: (-0.015, 0.089, -0.005, 0.101, -0.010, 0.133),
        3: (-0.026, 0.131, -0.014, 0.137, -0.012, 0.189),
    },
    (0.7, 0.2): {
        0: (0.072, 0.041, 0.157, 0.052, -0.085, 0.065),
        1: (-0.002, 0.061, 0.029, 0.078, -0.031, 0.100),
        2: (-0.014, 0.087, 0.010, 0.114, -0.024, 0.140),
        3: (-0.022, 0.128, -0.009, 0.163, -0.013, 0.210),
    },
    (0.5, 0.2): {
        0: (0.098, 0.045, 0.159, 0.053, -0.061, 0.069),
        1: (0.006, 0.072, 0.032, 0.079, -0.026, 0.108),
        2: (-0.003, 0.103, 0.007, 0.117, -0.010, 0.160),
        3: (-0.002, 0.142, -0.009, 0.163, 0.007, 0.211),
    },
}

BIAS_TOL = 0.015
SIGMA_RTOL = 0.25


def _report(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" - {detail}"
    print(line)
    return line


@pytest.fixture(scope="module")
def grid_report():
    config = ExperimentConfig(
        mode="2d",
        indices=tuple(
            AnisotropicIndex(hh, hv) for hh, hv in REFERENCE_2D
        ),
        grid_size=512,
        reps=1000,
        nu_levels=(0, 1, 2, 3),
        seed=SEED,
    )
    return run_eval_2d(config)


@pytest.fixture(scope="module")
def suite_1d():
    config = ExperimentConfig(
        mode="1d",
        hursts=(0.2, 0.5, 0.7),
        path_lengths=(4096,),
        reps=1000,
        seed=SEED,
    )
    return run_eval_1d(config)


def test_criterion_1_evaluation_grid(grid_report):
    """Bias within +-0.015 and sigma within 25% of the reference grid."""
    rows = {((r.h_h, r.h_v), r.nu): r for r in grid_report.rows}
    worst_bias, worst_sigma = 0.0, 0.0
    failures = []
    for cell, levels in REFERENCE_2D.items():
        for nu, (b_h, s_h, b_v, s_v, b_hv, s_hv) in levels.items():
            row = rows[(cell, nu)]
            checks = [
                ("b_h", row.bias_h - b_h, BIAS_TOL),
                ("b_v", row.bias_v - b_v, BIAS_TOL),
                ("b_hv", row.bias_diff - b_hv, BIAS_TOL),
            ]
            for name, dev, tol in checks:
                worst_bias = max(worst_bias, abs(dev))
                if abs(dev) > tol:
                    failures.append(f"{cell} nu={nu} {name} off by {dev:+.4f}")
            for name, got, ref in (
                ("s_h", row.sigma_h, s_h),
                ("s_v", row.sigma_v, s_v),
                ("s_hv", row.sigma_diff, s_hv),
            ):
                rel = abs(got - ref) / ref
                worst_sigma = max(worst_sigma, rel)
                if rel > SIGMA_RTOL:
                    failures.append(f"{cell} nu={nu} {name} off by {rel:.0%}")
    detail = (
        f"worst bias dev {worst_bias:.4f} (tol {BIAS_TOL}), "
        f"worst sigma dev {worst_sigma:.0%} (tol {SIGMA_RTOL:.0%}), "
        f"runtime {grid_report.runtime:.0f}s"
    )
    line = _report(1, "evaluation grid reproduction", not failures, detail)
    assert not failures, f"{line}; {failures[:6]}"


def test_criterion_2_exact_1d_suite(suite_1d):
    """|bias| <= 0.01 and N*Var within 25% of the limit variance."""
    failures = []
    details = []
    for row in suite_1d.rows:
        ratio = row.n_var / row.gamma
        details.append(f"H={row.hurst}: bias={row.bias:+.4f} nVar/gamma={ratio:.2f}")
        if abs(row.bias) > 0.01:
            failures.append(f"H={row.hurst} bias {row.bias:+.4f}")
        if not 0.75 <= ratio <= 1.25:
            failures.append(f"H={row.hurst} variance ratio {ratio:.2f}")
    line = _report(2, "exact 1-d estimator suite", not failures, "; ".join(details))
    assert not failures, f"{line}; {failures}"


def test_criterion_3_anisotropy_detection(grid_report):
    """Mean |h_h - h_v| on (0.7, 0.2) beats 3x the isotropic spread."""
    rows = {((r.h_h, r.h_v), r.nu): r for r in grid_report.rows}
    aniso = rows[((0.7, 0.2), 0)]
    mean_gap = abs(aniso.bias_diff + (0.7 - 0.2))  # lower bound on E|diff|
    iso_sigma = max(
        rows[((h, h), 0)].sigma_diff for h in (0.2, 0.5, 0.7)
    )
    ok = mean_gap > 3.0 * iso_sigma
    line = _report(
        3, "anisotropy detection",
        ok, f"mean gap {mean_gap:.3f} vs 3x isotropic sigma {3 * iso_sigma:.3f}",
    )
    assert ok, line


def test_criterion_4_synthesis_oracle():
    """FFT synthesis equals the literal double sum at M=8 over 20 seeds,
    for both fields of each transform."""
    model = AnisotropicIndex(0.7, 0.2)
    worst = 0.0
    for seed in range(20):
        fast = afb_sra(model, 8, seed)
        slow = afb_sra_direct(model, 8, seed)
        for field, values in zip(fast, slow):
            worst = max(worst, float(np.abs(field - values).max()))
    ok = worst <= 1e-9
    line = _report(4, "synthesis FFT oracle", ok, f"max abs diff {worst:.2e}")
    assert ok, line


def test_criterion_5_quadrature_oracle():
    """Mean constant for the second difference at H=1/2 equals 4*pi."""
    val = theory.E_const(A2, 1, 0.5)
    rel = abs(val - 4 * math.pi) / (4 * math.pi)
    ok = rel <= 1e-6
    line = _report(5, "quadrature oracle 4*pi", ok, f"relative error {rel:.2e}")
    assert ok, line


def test_criterion_6_projected_density_asymptotics():
    """log-log slope of the projected density equals -(2 h(axis) + 2)."""
    window = Window1DMinus.indicator_unit()
    cases = [
        (AnisotropicIndex(0.2, 0.2), -2.4),
        (AnisotropicIndex(0.5, 0.5), -3.0),
        (AnisotropicIndex(0.7, 0.7), -3.4),
        (AnisotropicIndex(0.7, 0.2), -2.4),
    ]
    failures = []
    worst = 0.0
    for model, target in cases:
        ps = 2.0 ** np.arange(6, 13)
        vals = np.array([radon_density(model, window, p) for p in ps])
        slope = float(np.polyfit(np.log(ps), np.log(vals), 1)[0])
        worst = max(worst, abs(slope - target))
        if abs(slope - target) > 0.05:
            failures.append(f"{model}: slope {slope:.3f} vs {target}")
    line = _report(
        6, "projected density asymptotics", not failures, f"worst dev {worst:.4f}"
    )
    assert not failures, f"{line}; {failures}"


def test_criterion_7_property_suite(tmp_path):
    """Always-on structural properties."""
    problems = []

    # filter annihilation of degree K-1 polynomials
    t = np.arange(128) / 128.0
    for coeffs in ((1.0, -2.0, 1.0), (1.0, -1.0), (1.0, -3.0, 3.0, -1.0)):
        filt = DiscreteFilter(coeffs)
        rng = np.random.default_rng(0)
        for degree in range(filt.order):
            poly = np.polynomial.Polynomial(rng.uniform(-2, 2, degree + 1))
            resid = np.abs(apply_filter(filt, poly(t))).max()
            if resid > 1e-10 * max(1.0, np.abs(poly.coef).max()):
                problems.append(f"annihilation {coeffs} deg {degree}")

    # estimator scale and shift invariance
    field = afb_sra(AnisotropicIndex(0.5, 0.5), 64, SEED)[0]
    base = estimate_pair(axis_projections(field))[0, 0]
    scaled = 2.0 * field
    if estimate_pair(axis_projections(scaled))[0, 0] != base:
        problems.append("scale invariance")
    tt = np.arange(65) / 64.0
    shifted = field + 7.0 + 3.0 * tt[:, None]
    if abs(estimate_pair(axis_projections(shifted))[0, 0] - base) > 1e-10:
        problems.append("shift invariance")

    # projection linearity
    rng = np.random.default_rng(1)
    x = rng.normal(size=(65, 65))
    y = rng.normal(size=(65, 65))
    combo = 1.5 * x + 0.5 * y
    lhs = project_axis(combo, "vertical")
    rhs = 1.5 * project_axis(x, "vertical") + 0.5 * project_axis(y, "vertical")
    if np.abs(lhs - rhs).max() > 1e-12 * max(1.0, np.abs(rhs).max()):
        problems.append("projection linearity")

    # deterministic CSV emission
    cfg = ExperimentConfig(
        mode="1d", hursts=(0.4,), path_lengths=(256,), reps=5, seed=3, workers=2
    )
    blobs = []
    for name in ("one.csv", "two.csv"):
        out = tmp_path / name
        emit_table(run_eval_1d(cfg), out)
        blobs.append(out.read_bytes())
    if blobs[0] != blobs[1]:
        problems.append("CSV determinism")

    # Cauchy-Schwarz across the covariance constants
    for H in (0.3, 0.5, 0.8):
        c_uv = theory.C_const(A2, 2, 1, H)
        if c_uv**2 > theory.C_const(A2, 2, 2, H) * theory.C_const(A2, 1, 1, H) + 1e-9:
            problems.append(f"Cauchy-Schwarz H={H}")

    # exact noise autocovariance at lags 0..5
    streams, n = 400, 512
    prods = np.zeros((streams, 6))
    for i in range(streams):
        x = fgn_exact(0.7, n, derived_stream(SEED, i))[0]
        for k in range(6):
            prods[i, k] = np.mean(x[k:] * x[: n - k])
    target = fgn_autocovariance(0.7, np.arange(6))
    ses = prods.std(axis=0, ddof=1) / math.sqrt(streams)
    if not np.all(np.abs(prods.mean(axis=0) - target) <= 4.0 * ses):
        problems.append("fgn autocovariance")

    line = _report(7, "property suite", not problems, ", ".join(problems) or "all hold")
    assert not problems, line


def test_criterion_8a_sigma_monotone_in_subsampling(grid_report):
    """Per cell, sigma never decreases with the subsampling level (one
    inversion tolerated if it sits within Monte Carlo error)."""
    reps = grid_report.reps
    failures = []
    for cell in REFERENCE_2D:
        cell_rows = sorted(
            (r for r in grid_report.rows if (r.h_h, r.h_v) == cell),
            key=lambda r: r.nu,
        )
        for attr in ("sigma_h", "sigma_v", "sigma_diff"):
            sigmas = [getattr(r, attr) for r in cell_rows]
            inversions = []
            for a, b in zip(sigmas, sigmas[1:]):
                if b < a:
                    # standard error of a sigma estimate is sigma/sqrt(2(R-1))
                    band = 3.0 * a / math.sqrt(2.0 * (reps - 1))
                    inversions.append(a - b <= band)
            if len(inversions) > 1 or (inversions and not inversions[0]):
                failures.append(f"{cell} {attr}: {sigmas}")
    line = _report(
        "8a", "sigma monotone in subsampling", not failures, f"{len(failures)} violations"
    )
    assert not failures, f"{line}; {failures[:4]}"


def test_criterion_8b_1d_bias_ordering():
    """Stated trend: 1-d exact-run underestimation larger at H=0.2 than at
    H=0.7.  The delta-method bias of the log-ratio estimator actually grows
    with H (the dilated scale's relative variance does), so this ordering
    fails on exact synthesis; measured at a length where the bias is
    resolvable, the outcome documents that."""
    config = ExperimentConfig(
        mode="1d",
        hursts=(0.2, 0.7),
        path_lengths=(256,),
        reps=20000,
        seed=SEED,
    )
    report = run_eval_1d(config)
    by_h = {r.hurst: r for r in report.rows}
    b_low = by_h[0.2].bias
    b_high = by_h[0.7].bias
    se = max(r.sigma / math.sqrt(report.reps) for r in report.rows)
    ok = abs(b_low) > abs(b_high)
    line = _report(
        "8b", "1-d bias ordering across H",
        ok, f"bias(0.2)={b_low:+.5f}, bias(0.7)={b_high:+.5f}, se~{se:.5f}",
    )
    assert ok, line
