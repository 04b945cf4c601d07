"""Monte Carlo evaluation pipeline: simulate, project, estimate, and
aggregate empirical bias and standard deviation per parameter cell.

Every transform of cell c draws from a stream spawned with key (c, j) off
the base seed, so reports are reproducible bit for bit, cells are mutually
independent, and growing the replicate count never reshuffles earlier
replicates.

- A 1-d replicate i draws from stream (c, floor(i/2)) and takes the real
  path of the pair that ``fbm_path`` returns for even i and the imaginary
  path for odd i; one task computes both.  With an odd replicate count the
  last imaginary path is dropped.
- A 2-d replicate i draws from stream (c, i) and takes the real field of
  the pair that ``afb_sra`` returns; the imaginary field is left unused.
  Pairing the fields as in 1-d would halve the synthesis cost but redraw
  every 2-d report, and the acceptance grid's fixed-seed reference check
  does not survive a redraw (see ROADMAP item 2).

A task is a contiguous block of replicates of one cell, about eight per
worker and cell; a 1-d block holds whole pairs.  A 2-d task keeps only the
two axis projections of each field and estimates every level of the whole
block in one call, bit for bit as one field at a time; a block that raises
is redone one replicate at a time, so only the replicates at fault fail.
A run opens one process pool and queues every cell's tasks on it at once;
results are collected in cell and replicate order, so parallelism cannot
change output.  Each worker caches the amplitude table of the latest
cell only (a 2 MB quadrant at M = 512).
"""

from __future__ import annotations

import contextlib
import csv
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import AnisofieldError, OrderTooLow, TooManyFailures
from .estimator import (
    axis_projections,
    check_level,
    check_span,
    estimate_H,
    estimate_pair,
)
from .filters import DiscreteFilter, parse_filter
from .spectral import AnisotropicIndex, SpectralModel, parse_index
from .synthesis import afb_sra, derived_stream, fbm_path
from . import theory

__all__ = [
    "ExperimentConfig",
    "EvalRow2D",
    "EvalRow1D",
    "EvalReport",
    "run_eval_2d",
    "run_eval_1d",
    "emit_table",
    "load_config",
]

_FAILURE_SHARE = 0.01  # tolerated fraction of errored replicates


@dataclass
class ExperimentConfig:
    """Everything one evaluation run needs, parseable from key=value text.

    1-d mode reads neither ``grid_size`` nor ``nu_levels``; 2-d mode reads
    neither ``hursts`` nor ``path_lengths``.
    """

    mode: str = "2d"
    indices: tuple[AnisotropicIndex, ...] = ()
    hursts: tuple[float, ...] = ()
    grid_size: int = 512
    path_lengths: tuple[int, ...] = (4096,)
    reps: int = 1000
    nu_levels: tuple[int, ...] = (0, 1, 2, 3)
    filter_coeffs: tuple[float, ...] = (1.0, -2.0, 1.0)
    dilation_u: int = 2
    dilation_v: int = 1
    seed: int = 0
    out: str | None = None
    workers: int | None = None

    def __post_init__(self):
        if self.mode not in ("1d", "2d"):
            raise ValueError(f"mode must be '1d' or '2d', got {self.mode!r}")
        if self.reps < 2:
            raise ValueError("need at least two replicates")
        if self.mode == "2d":
            if (self.dilation_u, self.dilation_v) != (2, 1):
                raise ValueError(
                    "2-d mode estimates with the dilations u = 2, v = 1; got "
                    f"u = {self.dilation_u}, v = {self.dilation_v}"
                )
            for nu in self.nu_levels:
                check_level(self.grid_size, nu, self.filter, self.dilation_u)
        else:
            dilation = max(self.dilation_u, self.dilation_v)
            for n in self.path_lengths:
                check_span(n, self.filter, dilation, f"path length {n}")

    @property
    def filter(self) -> DiscreteFilter:
        return DiscreteFilter(self.filter_coeffs)


@dataclass
class EvalRow2D:
    h_h: float
    h_v: float
    nu: int
    bias_h: float
    sigma_h: float
    bias_v: float
    sigma_v: float
    bias_diff: float
    sigma_diff: float


@dataclass
class EvalRow1D:
    hurst: float
    n_steps: int
    bias: float
    sigma: float
    n_var: float
    gamma: float


@dataclass
class EvalReport:
    mode: str
    rows: list
    reps: int
    seed: int
    failures: int = 0
    runtime: float = 0.0
    failure_log: list = dc_field(default_factory=list)


def _blocks(n: int, workers: int) -> list[tuple[int, int]]:
    """(first, count) of the contiguous blocks that split n units into
    about eight tasks per worker."""
    size = max(1, n // (workers * 8))
    return [(first, min(size, n - first)) for first in range(0, n, size)]


def _map_cells(fn, specs, blocks, workers):
    """Yield the replicate outcomes of each cell, in cell order.

    A task ``(spec, cell, first, count)`` is the block of replicates
    first..first+count-1 of the cell that ``specs[cell]`` describes, and
    ``fn`` maps it to one (status, payload) per replicate.  With more than
    one worker, every cell's tasks are queued at once on one process pool,
    so workers move on to the next cell while the last tasks of the
    current one finish.  Closing the generator early cancels the tasks
    that have not started.
    """
    cell_tasks = [
        [(spec, cell, first, count) for first, count in blocks]
        for cell, spec in enumerate(specs)
    ]
    if workers <= 1 or len(specs) * len(blocks) < 4:
        for tasks in cell_tasks:
            yield [out for task in tasks for out in fn(task)]
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [[pool.submit(fn, task) for task in tasks] for tasks in cell_tasks]
        try:
            for cell in futures:
                results = [out for future in cell for out in future.result()]
                cell.clear()  # the parent holds one cell's results at a time
                yield results
        finally:
            pool.shutdown(cancel_futures=True)


def _block_2d(task):
    """Replicates first..first+count-1 of one 2-d cell.

    Keeps only the two axis projections of each field and estimates every
    level for the whole block in one call.  If the block raises, it is
    redone one replicate at a time, so only the replicates at fault fail.
    The payload of a replicate is its (h_h, h_v) per level.
    """
    (kind, h_h, h_v, grid, nus, coeffs, seed), cell, first, count = task
    try:
        model = SpectralModel(AnisotropicIndex(kind, h_h, h_v))
        projections = np.empty((count, 2, grid + 1))
        for i in range(count):
            stream = derived_stream(seed, cell, first + i)
            projections[i] = axis_projections(afb_sra(model, grid, stream)[0])
        pairs = estimate_pair(projections, nus, DiscreteFilter(coeffs))
    except AnisofieldError as exc:
        if count == 1:
            return [("err", f"cell {cell} rep {first}: {exc!r}")]
        return [
            out
            for rep in range(first, first + count)
            for out in _block_2d(task[:-2] + (rep, 1))
        ]
    return [
        ("ok", [(float(p.h_h[i]), float(p.h_v[i])) for p in pairs])
        for i in range(count)
    ]


def _block_1d(task):
    """Replicates first..first+count-1 of one 1-d cell, first even.

    Replicates 2j and 2j+1 share the transform of stream (cell, j); with
    the block ending at 2j only, the imaginary path is not estimated.
    """
    (hurst, n_steps, coeffs, u, v, seed), cell, first, count = task
    filt = DiscreteFilter(coeffs)
    end = first + count
    out = []
    for pair in range(first // 2, (end + 1) // 2):
        reps = range(2 * pair, min(2 * pair + 2, end))
        try:
            paths = fbm_path(hurst, n_steps, derived_stream(seed, cell, pair))
        except AnisofieldError as exc:
            out += [("err", f"cell {cell} rep {rep}: {exc!r}") for rep in reps]
            continue
        for rep, path in zip(reps, paths):
            try:
                out.append(("ok", estimate_H(path, filt, u, v)))
            except AnisofieldError as exc:
                out.append(("err", f"cell {cell} rep {rep}: {exc!r}"))
    return out


def _collect(results, reps, failure_log):
    ok = []
    first = len(failure_log)
    for status, payload in results:
        if status == "ok":
            ok.append(payload)
        else:
            failure_log.append(payload)
    failed = reps - len(ok)
    if failed > _FAILURE_SHARE * reps:
        raise TooManyFailures(
            f"{failed}/{reps} replicates errored (> {_FAILURE_SHARE:.0%}); "
            f"first: {failure_log[first]}"
        )
    return ok, failed


def _workers(config: ExperimentConfig) -> int:
    if config.workers is None:
        return os.cpu_count() or 1
    return max(1, config.workers)


def run_eval_2d(config: ExperimentConfig) -> EvalReport:
    """Bias/σ of both directional estimators over replicated 2-d fields.

    One row per (parameter pair, subsampling level): empirical bias and
    standard deviation per direction plus the same for the difference of
    the two directional estimates.
    """
    if not config.indices:
        raise ValueError("2-d evaluation needs at least one index")
    t0 = time.perf_counter()
    nus = tuple(sorted(config.nu_levels))
    workers = _workers(config)
    specs = [
        (
            index.kind, index.h_h, index.h_v,
            config.grid_size, nus, config.filter_coeffs, config.seed,
        )
        for index in config.indices
    ]
    rows: list[EvalRow2D] = []
    failure_log: list[str] = []
    total_failed = 0
    outcomes = _map_cells(_block_2d, specs, _blocks(config.reps, workers), workers)
    with contextlib.closing(outcomes):
        for index, results in zip(config.indices, outcomes):
            ok, failed = _collect(results, config.reps, failure_log)
            total_failed += failed
            for pos, nu in enumerate(nus):
                hh = np.array([rep_out[pos][0] for rep_out in ok])
                hv = np.array([rep_out[pos][1] for rep_out in ok])
                bias_h = float(hh.mean() - index.h_h)
                bias_v = float(hv.mean() - index.h_v)
                rows.append(
                    EvalRow2D(
                        h_h=index.h_h,
                        h_v=index.h_v,
                        nu=nu,
                        bias_h=bias_h,
                        sigma_h=float(hh.std(ddof=1)),
                        bias_v=bias_v,
                        sigma_v=float(hv.std(ddof=1)),
                        bias_diff=bias_h - bias_v,
                        sigma_diff=float((hh - hv).std(ddof=1)),
                    )
                )
    return EvalReport(
        mode="2d",
        rows=rows,
        reps=config.reps,
        seed=config.seed,
        failures=total_failed,
        runtime=time.perf_counter() - t0,
        failure_log=failure_log,
    )


def run_eval_1d(config: ExperimentConfig) -> EvalReport:
    """Bias/σ of the 1-d exponent estimator on exact synthetic paths.

    Also reports N * Var of the estimates next to the theoretical limit
    variance (NaN when the filter order is too low for it to exist).
    """
    if not config.hursts:
        raise ValueError("1-d evaluation needs at least one Hurst value")
    t0 = time.perf_counter()
    filt = config.filter
    u, v = config.dilation_u, config.dilation_v
    workers = _workers(config)
    cells = [
        (hurst, n) for hurst in config.hursts for n in config.path_lengths
    ]
    specs = [
        (hurst, n_steps, config.filter_coeffs, u, v, config.seed)
        for hurst, n_steps in cells
    ]
    # Blocks of whole pairs of replicates: a transform yields two paths.
    blocks = [
        (2 * first, min(2 * count, config.reps - 2 * first))
        for first, count in _blocks((config.reps + 1) // 2, workers)
    ]
    rows: list[EvalRow1D] = []
    failure_log: list[str] = []
    total_failed = 0
    outcomes = _map_cells(_block_1d, specs, blocks, workers)
    with contextlib.closing(outcomes):
        for (hurst, n_steps), results in zip(cells, outcomes):
            ok, failed = _collect(results, config.reps, failure_log)
            total_failed += failed
            est = np.array(ok)
            try:
                gamma = theory.gamma_const(filt, u, v, hurst)
            except OrderTooLow:
                gamma = math.nan
            rows.append(
                EvalRow1D(
                    hurst=hurst,
                    n_steps=n_steps,
                    bias=float(est.mean() - hurst),
                    sigma=float(est.std(ddof=1)),
                    n_var=float(n_steps * est.var(ddof=1)),
                    gamma=gamma,
                )
            )
    return EvalReport(
        mode="1d",
        rows=rows,
        reps=config.reps,
        seed=config.seed,
        failures=total_failed,
        runtime=time.perf_counter() - t0,
        failure_log=failure_log,
    )


_HEADERS = {
    "2d": [
        "h_h", "h_v", "nu",
        "b_h", "sigma_h", "b_v", "sigma_v", "b_hv", "sigma_hv",
    ],
    "1d": ["hurst", "n", "bias", "sigma", "n_var", "gamma"],
}


def _row_values(mode: str, row) -> list:
    if mode == "2d":
        return [
            row.h_h, row.h_v, row.nu,
            row.bias_h, row.sigma_h, row.bias_v, row.sigma_v,
            row.bias_diff, row.sigma_diff,
        ]
    return [row.hurst, row.n_steps, row.bias, row.sigma, row.n_var, row.gamma]


def emit_table(report: EvalReport, path) -> None:
    """Write the report as CSV, one row per (parameters, level).

    Row order follows the configuration (parameters first, levels
    ascending) and floats are serialized with full round-trip precision,
    so re-running with the same seed reproduces the file byte for byte.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_HEADERS[report.mode])
        for row in report.rows:
            writer.writerow(
                [v if isinstance(v, int) else repr(float(v)) for v in _row_values(report.mode, row)]
            )


def load_config(path, overrides: dict | None = None) -> ExperimentConfig:
    """Build a configuration from flat ``key = value`` text.

    Repeatable keys (``index``, ``hurst``, ``length``) accumulate; ``#``
    starts a comment.  ``overrides`` (same key names) win over the file.
    """
    raw: dict[str, list[str]] = {}
    with open(path) as fh:
        for line_no, line in enumerate(fh, 1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ValueError(f"{path}:{line_no}: expected key = value")
            key, _, value = text.partition("=")
            raw.setdefault(key.strip().lower(), []).append(value.strip())
    if overrides:
        for key, value in overrides.items():
            if value is not None:
                raw[key] = [str(value)]
    return _config_from_raw(raw)


def _split_list(values: list[str]) -> list[str]:
    out = []
    for value in values:
        out.extend(tok.strip() for tok in value.split(",") if tok.strip())
    return out


# Keys that only the other mode reads.
_IGNORED_KEYS = {"1d": {"index", "grid", "nu"}, "2d": {"hurst", "length"}}


def _config_from_raw(raw: dict[str, list[str]]) -> ExperimentConfig:
    kwargs = {}
    if "mode" in raw:
        kwargs["mode"] = raw["mode"][-1].lower()
    if "index" in raw:
        kwargs["indices"] = tuple(parse_index(s) for s in raw["index"])
    if "hurst" in raw:
        kwargs["hursts"] = tuple(float(s) for s in _split_list(raw["hurst"]))
    if "grid" in raw:
        kwargs["grid_size"] = int(raw["grid"][-1])
    if "length" in raw:
        kwargs["path_lengths"] = tuple(
            int(s) for s in _split_list(raw["length"])
        )
    if "reps" in raw:
        kwargs["reps"] = int(raw["reps"][-1])
    if "nu" in raw:
        kwargs["nu_levels"] = tuple(int(s) for s in _split_list(raw["nu"]))
    if "filter" in raw:
        kwargs["filter_coeffs"] = tuple(
            parse_filter(raw["filter"][-1]).coeffs
        )
    if "u" in raw:
        kwargs["dilation_u"] = int(raw["u"][-1])
    if "v" in raw:
        kwargs["dilation_v"] = int(raw["v"][-1])
    if "seed" in raw:
        kwargs["seed"] = int(raw["seed"][-1])
    if "out" in raw:
        kwargs["out"] = raw["out"][-1]
    if "workers" in raw:
        value = int(raw["workers"][-1])
        kwargs["workers"] = None if value <= 0 else value
    known = set(
        "mode index hurst grid length reps nu filter u v seed out workers".split()
    )
    unknown = set(raw) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    mode = kwargs.get("mode", ExperimentConfig.mode)
    ignored = set(raw) & _IGNORED_KEYS.get(mode, set())
    if ignored:
        raise ValueError(f"config keys {sorted(ignored)} do not apply in {mode} mode")
    return ExperimentConfig(**kwargs)
