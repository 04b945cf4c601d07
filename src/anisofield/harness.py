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
- A 2-d replicate i draws from stream (c, i) and reads the real field of
  the pair that ``afb_sra`` synthesizes only through its two axis
  projections, which ``afb_sra(..., projected=True)`` takes straight from
  the shaped spectrum without building the field.  The imaginary field is
  left unused.  Pairing the fields as in 1-d would halve the noise draws
  but redraw every 2-d report, and the acceptance grid's fixed-seed
  reference check does not reliably survive a redraw: at ν = 3 its bias
  tolerance is under two standard errors of a 1000-replicate run.

Both modes run one path.  ``run_eval_2d`` and ``run_eval_1d`` only build
their cells, the function that estimates a block of replicates of one
cell, and the rows of a cell's estimates; the driver ``_run`` does the
rest.  A task is a contiguous block of replicates of one cell, about eight
per worker and cell; a 1-d block holds whole pairs.  A 2-d task keeps only
the two axis projections of each replicate and estimates every level of
the whole block in one call, bit for bit as one replicate at a time.  A
1-d task walks its pairs in chunks whose noise holds about ``_NOISE_BLOCK``
complex values (4 pairs at N = 4096, 64 at N = 256): one ``fbm_path`` call
synthesizes a chunk's pairs and one ``estimate_H`` call estimates its
stacked paths, again bit for bit as one pair and one path at a time.
Every task follows one failure policy: a block that raises an
AnisofieldError is redone one replicate at a time, so only the replicates
at fault fail (both replicates of a 1-d pair when its synthesis fails).
A cell with more than 1% of its replicates failed stops the run, and so
does an InvalidArgument at once: a bad argument is no replicate's fault.  A run opens one process
pool, of at most one process per CPU, and queues every cell's tasks on it
at once; results are collected in cell and replicate order, so
parallelism cannot change output.  The pool stack (``concurrent.futures``
and ``multiprocessing``) loads on the first run that opens a pool, never
on import or in a serial run.  Each worker caches the amplitude table
of the latest cell only (the 2 MB quadrant of amplitudes at M = 512):
a task of another cell drops it before building its own in row chunks.
"""

from __future__ import annotations

import contextlib
import math
import os
import time
from dataclasses import astuple, dataclass, field as dc_field

import numpy as np

from .errors import (
    AnisofieldError, InvalidArgument, OrderTooLow, TooManyFailures,
    _integer, _kind, _real, _seed,
)
from .estimator import check_level, check_span, estimate_H, estimate_pair
from .filters import DiscreteFilter, parse_filter
from .spectral import AnisotropicIndex, parse_index
from .synthesis import (
    _NOISE_BLOCK, _write_csv, afb_sra, check_grid, derived_stream, fbm_path,
)
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

    ``indices``, ``grid_size`` and ``nu_levels`` are 2-d mode's fields,
    ``hursts`` and ``path_lengths`` 1-d mode's.  A field of the config's
    mode left None takes its default (``_MODE_DEFAULTS``); a field of the
    other mode must stay None, or the config is rejected, as a config
    file that names such a key is.  ``workers`` of None or <= 0 means one
    worker per CPU.  A larger ``workers`` still sets the task blocks, but
    the pool runs at most one process per CPU.  The list fields must be
    tuples or lists.  The counts, levels, lengths and dilations must be
    integers other than a bool, and the seed an integer >= 0; numpy
    integers are stored as ``int``.  Each index must be an
    ``AnisotropicIndex`` and each Hurst value a real number other than a
    bool.
    """

    mode: str = "2d"
    indices: tuple[AnisotropicIndex, ...] | None = None
    hursts: tuple[float, ...] | None = None
    grid_size: int | None = None
    path_lengths: tuple[int, ...] | None = None
    reps: int = 1000
    nu_levels: tuple[int, ...] | None = None
    filter_coeffs: tuple[float, ...] = (1.0, -2.0, 1.0)
    dilation_u: int = 2
    dilation_v: int = 1
    seed: int = 0
    out: str | None = None
    workers: int | None = None

    def __post_init__(self):
        if self.mode not in ("1d", "2d"):
            raise InvalidArgument(f"mode must be '1d' or '2d', got {self.mode!r}")
        for key, (name, parse, mode) in _KEYS.items():
            value = getattr(self, name)
            if value is None and mode == self.mode:
                value = _MODE_DEFAULTS[name]
            if value is None and (mode or name == "workers"):
                continue  # the other mode's field unset, or no workers: one per CPU
            if key in _LIST_KEYS and not isinstance(value, (tuple, list)):
                raise InvalidArgument(f"{name} = {value!r} is not a tuple or a list")
            if parse is int and key in _LIST_KEYS:
                value = tuple(_integer(x, f"{name} entry {x!r}") for x in value)
            elif parse is int:
                value = _integer(value, f"{name} = {value!r}")
            setattr(self, name, value)
        for index in self.indices or ():
            _kind(index, AnisotropicIndex, "indices entry")
        for hurst in self.hursts or ():
            _real(hurst, "hursts entry")
        # a key is read or rejected: the other mode's fields must stay unset
        ignored = sorted(
            key for key, (name, _, mode) in _KEYS.items()
            if mode not in (None, self.mode) and getattr(self, name) is not None
        )
        if ignored:
            raise InvalidArgument(f"config keys {ignored} do not apply in {self.mode} mode")
        for key in _LIST_KEYS:
            name = _KEYS[key][0]
            values = getattr(self, name)
            repeated = [x for i, x in enumerate(values or ()) if x in values[:i]]
            if repeated:
                raise InvalidArgument(f"config key {key} ({name}) lists {repeated[0]} twice")
        if self.reps < 2:
            raise InvalidArgument("need at least two replicates")
        self.seed = _seed(self.seed)
        if self.workers is not None and self.workers <= 0:
            self.workers = None
        if self.mode == "2d":
            if (self.dilation_u, self.dilation_v) != (2, 1):
                raise InvalidArgument(
                    "2-d mode estimates with the dilations u = 2, v = 1; got "
                    f"u = {self.dilation_u}, v = {self.dilation_v}"
                )
            check_grid(self.grid_size)
            if not self.nu_levels:
                raise InvalidArgument("2-d mode needs at least one level nu")
            for nu in self.nu_levels:
                check_level(self.grid_size, nu, self.filter, self.dilation_u)
        else:
            if not self.path_lengths:
                raise InvalidArgument("1-d mode needs at least one path length")
            u, v = self.dilation_u, self.dilation_v
            if min(u, v) < 1 or u == v:
                raise InvalidArgument(
                    "1-d mode needs two different dilations, each >= 1; got "
                    f"u = {u}, v = {v}"
                )
            dilation = max(u, v)
            for n in self.path_lengths:
                check_span(n, self.filter, dilation, f"path length {n}")
            for hurst in self.hursts:
                if not 0.0 < hurst < 1.0:
                    raise InvalidArgument(f"H must lie in (0, 1), got {hurst}")

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
    runtime: float = 0.0
    failure_log: list = dc_field(default_factory=list)

    @property
    def failures(self) -> int:
        """Failed replicates over all cells: one entry of failure_log each."""
        return len(self.failure_log)


def _blocks(reps: int, workers: int, unit: int) -> list[tuple[int, int]]:
    """(first, count) of the contiguous blocks of whole units of ``unit``
    replicates that split reps replicates into about eight tasks per
    worker; the last block may end mid-unit."""
    size = unit * max(1, -(-reps // unit) // (workers * 8))
    return [(first, min(size, reps - first)) for first in range(0, reps, size)]


def _map_cells(cell_tasks, workers):
    """Yield the outcomes of each cell's tasks under ``_block``, in cell
    order.

    With more than one worker, every cell's tasks are queued at once on
    one process pool of at most one process per CPU, so workers move on
    to the next cell while the last tasks of the current one finish.
    Closing the generator early cancels the tasks that have not started.
    The pool stack loads on the first run that opens a pool, never on
    import or in a serial run (one worker, or fewer than four tasks).
    """
    if workers <= 1 or sum(map(len, cell_tasks)) < 4:
        for tasks in cell_tasks:
            yield [out for task in tasks for out in _block(task)]
        return
    # imported on first use: concurrent.futures.process pulls in
    # multiprocessing, socket, subprocess and logging, which only a pool
    # uses; loading them at import costs every process ~9 ms and ~1.2 MB
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(workers, os.cpu_count() or 1)) as pool:
        futures = [[pool.submit(_block, task) for task in tasks] for tasks in cell_tasks]
        try:
            for cell in futures:
                results = [out for future in cell for out in future.result()]
                cell.clear()  # the parent holds one cell's results at a time
                yield results
        finally:
            pool.shutdown(cancel_futures=True)


def _block(task):
    """One (status, payload) per replicate first..first+count-1 of a cell.

    A task is ``(estimate, spec, cell, first, count)``, and
    ``estimate(spec, cell, first, count)`` returns the payloads.  If it
    raises an AnisofieldError, the block is redone one replicate at a
    time, so only the replicates at fault fail.  An InvalidArgument is
    the run's fault, not a replicate's, and ends the run at once.
    """
    estimate, spec, cell, first, count = task
    try:
        return [("ok", payload) for payload in estimate(spec, cell, first, count)]
    except InvalidArgument:
        raise
    except AnisofieldError as exc:
        if count == 1:
            return [("err", f"cell {cell} rep {first}: {exc!r}")]
        return [
            out
            for rep in range(first, first + count)
            for out in _block((estimate, spec, cell, rep, 1))
        ]


def _estimate_2d(spec, cell, first, count):
    """(h_h, h_v) per level of each replicate of a block of a 2-d cell.

    Takes the two axis projections of each replicate from its spectrum and
    estimates every level for the whole block in one call.
    """
    index, grid, nus, coeffs, seed = spec
    projections = np.empty((count, 2, grid + 1))
    for i in range(count):
        stream = derived_stream(seed, cell, first + i)
        projections[i] = afb_sra(index, grid, stream, projected=True)
    return estimate_pair(projections, nus, DiscreteFilter(coeffs)).tolist()


def _estimate_1d(spec, cell, first, count):
    """The exponent estimate of each replicate of a block of a 1-d cell.

    Replicates 2j and 2j+1 are the real and the imaginary path of the
    transform of stream (cell, j); a path outside the block is not
    estimated.  The block's pairs are synthesized and estimated in chunks
    of stacked paths, each chunk's noise about _NOISE_BLOCK values.
    """
    hurst, n_steps, coeffs, u, v, seed = spec
    filt = DiscreteFilter(coeffs)
    end = first + count
    step = 2 * max(1, _NOISE_BLOCK // (2 * (n_steps - 1)))  # replicates per chunk
    out = []
    for lo in range(first - first % 2, end, step):
        hi = min(lo + step, end)
        pairs = range(lo // 2, (hi + 1) // 2)
        streams = [derived_stream(seed, cell, pair) for pair in pairs]
        paths = fbm_path(hurst, n_steps, streams).reshape(-1, n_steps + 1)
        out += estimate_H(paths[max(first, lo) - lo : hi - lo], filt, u, v).tolist()
    return out


def _check_mode(config: ExperimentConfig, mode: str) -> None:
    """A runner reads only the keys of its own mode, and its report's
    header is that mode's: a config of the other mode is an error."""
    if config.mode != mode:
        raise InvalidArgument(
            f"run_eval_{mode} evaluates a {mode} config; this one is "
            f"{config.mode} (run it with run_eval_{config.mode})"
        )


def _run(config, specs, estimate, unit, rows_of) -> EvalReport:
    """Estimate every replicate of every cell and build the report.

    ``specs[c]`` describes cell c to ``estimate``; a task holds whole
    units of ``unit`` replicates.  ``rows_of(c, est)`` turns the array of
    cell c's payloads into its rows.  A cell with more than
    ``_FAILURE_SHARE`` of its replicates failed raises TooManyFailures.
    """
    t0 = time.perf_counter()
    workers = config.workers or os.cpu_count() or 1
    blocks = _blocks(config.reps, workers, unit)
    cell_tasks = [
        [(estimate, spec, cell, first, count) for first, count in blocks]
        for cell, spec in enumerate(specs)
    ]
    rows = []
    failure_log: list[str] = []
    outcomes = _map_cells(cell_tasks, workers)
    with contextlib.closing(outcomes):
        for cell, results in enumerate(outcomes):
            ok = [payload for status, payload in results if status == "ok"]
            errors = [payload for status, payload in results if status != "ok"]
            if len(errors) > _FAILURE_SHARE * config.reps:
                raise TooManyFailures(
                    f"{len(errors)}/{config.reps} replicates errored "
                    f"(> {_FAILURE_SHARE:.0%}); first: {errors[0]}"
                )
            failure_log += errors
            rows += rows_of(cell, np.array(ok))
    return EvalReport(
        mode=config.mode,
        rows=rows,
        reps=config.reps,
        seed=config.seed,
        runtime=time.perf_counter() - t0,
        failure_log=failure_log,
    )


def run_eval_2d(config: ExperimentConfig) -> EvalReport:
    """Bias/σ of both directional estimators over replicated 2-d fields.

    One row per (parameter pair, subsampling level): empirical bias and
    standard deviation per direction plus the same for the difference of
    the two directional estimates.
    """
    _check_mode(config, "2d")
    if not config.indices:
        raise InvalidArgument("2-d evaluation needs at least one index")
    nus = tuple(sorted(config.nu_levels))
    specs = [
        (index, config.grid_size, nus, config.filter_coeffs, config.seed)
        for index in config.indices
    ]

    def rows_of(cell, est):
        index = config.indices[cell]
        rows = []
        for pos, nu in enumerate(nus):
            hh, hv = est[:, pos, 0], est[:, pos, 1]
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
        return rows

    return _run(config, specs, _estimate_2d, 1, rows_of)


def run_eval_1d(config: ExperimentConfig) -> EvalReport:
    """Bias/σ of the 1-d exponent estimator on exact synthetic paths.

    Also reports N * Var of the estimates next to the theoretical limit
    variance (NaN when the filter order is too low for it to exist).
    """
    _check_mode(config, "1d")
    if not config.hursts:
        raise InvalidArgument("1-d evaluation needs at least one Hurst value")
    filt = config.filter
    u, v = config.dilation_u, config.dilation_v
    cells = [(hurst, n) for hurst in config.hursts for n in config.path_lengths]
    specs = [
        (hurst, n_steps, config.filter_coeffs, u, v, config.seed)
        for hurst, n_steps in cells
    ]

    def gamma(hurst):
        try:
            return theory.gamma_const(filt, u, v, hurst)
        except OrderTooLow:
            return math.nan

    # Before any path is drawn: a Hurst value without finite constants
    # fails here rather than after its cell has run.
    gammas = {hurst: gamma(hurst) for hurst in config.hursts}

    def rows_of(cell, est):
        hurst, n_steps = cells[cell]
        return [
            EvalRow1D(
                hurst=hurst,
                n_steps=n_steps,
                bias=float(est.mean() - hurst),
                sigma=float(est.std(ddof=1)),
                n_var=float(n_steps * est.var(ddof=1)),
                gamma=gammas[hurst],
            )
        ]

    # Blocks of whole pairs of replicates: a transform yields two paths.
    return _run(config, specs, _estimate_1d, 2, rows_of)


_HEADERS = {
    "2d": [
        "h_h", "h_v", "nu",
        "b_h", "sigma_h", "b_v", "sigma_v", "b_hv", "sigma_hv",
    ],
    "1d": ["hurst", "n", "bias", "sigma", "n_var", "gamma"],
}


def emit_table(report: EvalReport, path) -> None:
    """Write the report as CSV, one row per (parameters, level), through
    the package's one CSV writer (``synthesis._write_csv``).

    Row order follows the configuration (parameters first, levels
    ascending), counts are written as integers and every other value with
    full round-trip precision, so re-running with the same seed reproduces
    the file byte for byte.
    """
    _write_csv(path, _HEADERS[report.mode], map(astuple, report.rows))


def load_config(path, overrides: dict | None = None) -> ExperimentConfig:
    """Build a configuration from flat ``key = value`` text.

    List keys (``index``, ``hurst``, ``length``, ``nu``) accumulate; ``#``
    starts a comment.  ``overrides`` (same key names) win over the file.
    """
    raw: dict[str, list[str]] = {}
    # undecodable bytes become U+FFFD, so such a line is malformed like any other
    with open(path, errors="replace") as fh:
        for line_no, line in enumerate(fh, 1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise InvalidArgument(f"{path}:{line_no}: expected key = value")
            key, _, value = text.partition("=")
            raw.setdefault(key.strip().lower(), []).append(value.strip())
    if overrides:
        for key, value in overrides.items():
            if value is not None:
                raw[key] = [str(value)]
    return _config_from_raw(raw)


# key: (ExperimentConfig field, parser of one value, the one mode that
# reads the key or None for both)
_KEYS = {
    "mode": ("mode", str.lower, None),
    "index": ("indices", parse_index, "2d"),
    "hurst": ("hursts", float, "1d"),
    "grid": ("grid_size", int, "2d"),
    "length": ("path_lengths", int, "1d"),
    "reps": ("reps", int, None),
    "nu": ("nu_levels", int, "2d"),
    "filter": ("filter_coeffs", lambda s: tuple(parse_filter(s).coeffs), None),
    "u": ("dilation_u", int, None),
    "v": ("dilation_v", int, None),
    "seed": ("seed", int, None),
    "out": ("out", str, None),
    "workers": ("workers", int, None),
}

# the value of a field of one mode's key that a config leaves None
_MODE_DEFAULTS = {
    "indices": (), "hursts": (), "grid_size": 512, "path_lengths": (4096,),
    "nu_levels": (0, 1, 2, 3),
}

# The keys that accumulate a list: every comma-separated value of every
# line, except an index, whose spec holds commas and takes a whole line;
# in this order the repeat check names the first key at fault.
_LIST_KEYS = ("index", "hurst", "length", "nu")


def _config_from_raw(raw: dict[str, list[str]]) -> ExperimentConfig:
    unknown = set(raw) - set(_KEYS)
    if unknown:
        raise InvalidArgument(f"unknown config keys: {sorted(unknown)}")
    kwargs = {}
    for key, values in raw.items():
        name, parse, _ = _KEYS[key]
        if key not in _LIST_KEYS:  # the last value wins
            values = values[-1:]
        elif key != "index":
            values = [tok for value in values for tok in map(str.strip, value.split(",")) if tok]
        try:
            parsed = tuple(map(parse, values))
        except ValueError as exc:
            raise InvalidArgument(f"{key}: {exc}") from exc
        kwargs[name] = parsed if key in _LIST_KEYS else parsed[0]
    return ExperimentConfig(**kwargs)
