"""Record the correctness gate's reference tables into reference.json.

Run once, from the repository root, on a commit whose numbers are trusted:

    PYTHONPATH=src python3 perfbench/record_reference.py

It writes three tables:

- field2d_m512: the acceptance suite's REFERENCE_2D (1000 replicates per
  cell) with its tolerances, bias +-0.015 and sigma +-25%, widened by the
  standard error at the run's replicate count;
- field2d_m64: CHUNKS independent runs of CHUNK_REPS replicates per cell;
  each statistic's spread across chunks gives its standard error at any
  replicate count, and the pooled value is the reference;
- theory_gamma: E, C and gamma of every bundle.

Reference seeds start at 10**9, far from the seeds the benchmark derives.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "tests"))

from anisofield import (  # noqa: E402
    ExperimentConfig,
    binomial_filter,
    parse_index,
    run_eval_2d,
    theory,
)
from test_acceptance import BIAS_TOL, REFERENCE_2D, SIGMA_RTOL  # noqa: E402

from gate import CONSTANTS, STATS_2D, Z, pool, row_key  # noqa: E402
from workloads import BUNDLES, CELLS, NU_LEVELS, WORKERS  # noqa: E402

CHUNKS = 40
CHUNK_REPS = 500
REF_SEED = 10**9


def acceptance_table() -> dict:
    table = {}
    for (hh, hv), levels in REFERENCE_2D.items():
        for nu, values in levels.items():
            entry = {}
            for stat, value in zip(STATS_2D, values):
                if stat.startswith("b_"):
                    sd = values[STATS_2D.index("sigma_" + stat[2:])]
                    entry[stat] = [value, BIAS_TOL, sd]
                else:
                    entry[stat] = [value, SIGMA_RTOL * value, value / math.sqrt(2.0)]
            table[f"{hh!r},{hv!r},{nu}"] = entry
    return table


def recorded_table(grid: int) -> dict:
    indices = tuple(parse_index(f"axes:{hh},{hv}") for hh, hv in CELLS)
    chunks = []
    for k in range(CHUNKS):
        report = run_eval_2d(
            ExperimentConfig(
                mode="2d", indices=indices, grid_size=grid, reps=CHUNK_REPS,
                nu_levels=NU_LEVELS, seed=REF_SEED + k, workers=WORKERS,
            )
        )
        if report.failures:
            raise SystemExit(f"reference run failed: {report.failure_log[:3]}")
        chunks.append([
            {"h_h": r.h_h, "h_v": r.h_v, "nu": r.nu,
             "b_h": r.bias_h, "sigma_h": r.sigma_h, "b_v": r.bias_v,
             "sigma_v": r.sigma_v, "b_hv": r.bias_diff, "sigma_hv": r.sigma_diff}
            for r in report.rows
        ])
        print(f"m{grid} chunk {k + 1}/{CHUNKS}", file=sys.stderr)
    pooled = pool(chunks, CHUNK_REPS, "2d")
    table = {}
    for pos, row in enumerate(pooled):
        entry = {}
        for stat in STATS_2D:
            sd_chunk = statistics.stdev(chunk[pos][stat] for chunk in chunks)
            entry[stat] = [
                row[stat],
                Z * sd_chunk / math.sqrt(CHUNKS),
                sd_chunk * math.sqrt(CHUNK_REPS),
            ]
        table[row_key(row)] = entry
    return table


def theory_table() -> dict:
    table = {}
    for order, u, v, H in BUNDLES:
        c = theory.asymptotic_constants(binomial_filter(order), u, v, H)
        table[f"{order},{u},{v},{H!r}"] = {k: getattr(c, k) for k in CONSTANTS}
    return table


def main():
    reference = {
        "field2d_m512": acceptance_table(),
        "field2d_m64": recorded_table(64),
        "theory_gamma": theory_table(),
    }
    with open(HERE / "reference.json", "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
