"""Correctness gate of the benchmark.

It compares statistics only, never field values, so a change that
legitimately alters the random streams still passes.  Each check counts
once; a failed check is recorded with a message.

2-d tables are checked row by row against a reference.  Each reference
statistic is stored as ``[value, fixed, sd1]`` and passes when

    |x - value| <= fixed + Z * sd1 / sqrt(n)

at the run's replicate count n per cell: ``fixed`` carries the
reference's own error and ``sd1 / sqrt(n)`` is the statistic's standard
error at n replicates.
"""

from __future__ import annotations

import csv
import io
import math

Z = 5.0  # standard errors of slack on every statistical check

STATS_2D = ("b_h", "sigma_h", "b_v", "sigma_v", "b_hv", "sigma_hv")
# (mean column, sd column) pairs of each CSV kind.
PAIRS = {
    "2d": (("b_h", "sigma_h"), ("b_v", "sigma_v"), ("b_hv", "sigma_hv")),
    "1d": (("bias", "sigma"),),
}

# Criterion 2 of the acceptance suite.
BIAS_1D = 0.01
VAR_RATIO_1D = (0.75, 1.25)
CONST_RTOL = 1e-6  # certified tolerance of the covariance constants
CONSTANTS = ("E_u", "E_v", "C_uu", "C_vv", "C_uv", "gamma")


class Gate:
    def __init__(self):
        self.checks = 0
        self.failures: list[str] = []

    def check(self, ok: bool, message: str) -> None:
        self.checks += 1
        if not ok:
            self.failures.append(message)


def parse_csv(text: str) -> list[dict]:
    return [
        {k: float(v) for k, v in row.items()}
        for row in csv.DictReader(io.StringIO(text))
    ]


def pool(tables: list[list[dict]], reps: int, kind: str) -> list[dict]:
    """Merge per-batch tables of ``reps`` replicates into one table.

    Batches are independent draws of the same rows, so the pooled mean is
    the mean of the batch means and the pooled variance adds the spread of
    the batch means to the within-batch variances.
    """
    k = len(tables)
    out = []
    for rows in zip(*tables):
        merged = dict(rows[0])
        for mean_col, sd_col in PAIRS[kind]:
            means = [r[mean_col] for r in rows]
            grand = sum(means) / k
            ss = sum(
                (reps - 1) * r[sd_col] ** 2 + reps * (m - grand) ** 2
                for r, m in zip(rows, means)
            )
            merged[mean_col] = grand
            merged[sd_col] = math.sqrt(ss / (k * reps - 1))
        if kind == "1d":
            merged["n_var"] = merged["n"] * merged["sigma"] ** 2
        out.append(merged)
    return out


def row_key(row: dict) -> str:
    """Reference key of a 2-d row: ``h_h,h_v,nu``."""
    return f"{row['h_h']!r},{row['h_v']!r},{int(row['nu'])}"


def check_2d(gate: Gate, rows: list[dict], n: int, reference: dict) -> None:
    """Bias and sigma of every (cell, nu) row against a reference table."""
    for row in rows:
        key = row_key(row)
        ref = reference.get(key)
        gate.check(ref is not None, f"row {key}: no reference")
        if ref is None:
            continue
        for stat in STATS_2D:
            value, fixed, sd1 = ref[stat]
            dev = row[stat] - value
            tol = fixed + Z * sd1 / math.sqrt(n)
            gate.check(abs(dev) <= tol, f"row {key} {stat} off by {dev:+.4g} (tol {tol:.4g})")


def check_1d(gate: Gate, rows: list[dict]) -> None:
    """Criterion 2: |bias| <= 0.01 and N Var / gamma in [0.75, 1.25]."""
    lo, hi = VAR_RATIO_1D
    for row in rows:
        gate.check(abs(row["bias"]) <= BIAS_1D, f"H={row['hurst']} bias {row['bias']:+.4g}")
        ratio = row["n_var"] / row["gamma"]
        gate.check(lo <= ratio <= hi, f"H={row['hurst']} N*Var/gamma {ratio:.4g}")


def check_theory(gate: Gate, bundles: list[list], reference: dict) -> None:
    """Every constant within 1e-6 relative of the recorded value."""
    for order, u, v, H, *values in bundles:
        key = f"{order},{u},{v},{H!r}"
        ref = reference.get(key)
        gate.check(ref is not None, f"bundle {key}: no reference")
        if ref is None:
            continue
        for name, got in zip(CONSTANTS, values):
            want = ref[name]
            rel = abs(got - want) / abs(want)
            gate.check(rel <= CONST_RTOL, f"bundle {key} {name} off by {rel:.3g} relative")


def check_same(gate: Gate, texts: dict[str, str]) -> None:
    """Reproducibility: every pass's report text equals the first's, byte
    for byte."""
    (first_name, first), *rest = texts.items()
    for name, text in rest:
        gate.check(text == first, f"report of the {name} pass differs from the {first_name} pass")
