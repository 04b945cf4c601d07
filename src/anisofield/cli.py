"""Command-line interface: simulate, project, estimate, theory, evaluate.

Fields travel as AFB1 binary files (or CSV for debugging), 1-d paths and
projections as two-column CSV (paths with metadata comments), and every
analysis output is CSV.
"""

from __future__ import annotations

import argparse
import sys

from .errors import AnisofieldError, _seed
from .estimator import estimate_projection, log_ratio_at_level
from .filters import parse_filter
from .harness import emit_table, load_config, run_eval_1d, run_eval_2d
from .projection import DIRECTIONS, project_axis
from .spectral import parse_index, parse_window
from .synthesis import (
    _is_field_file,
    _write_csv,
    afb_sra,
    fbm_path,
    field_to_csv,
    read_field,
    read_path_csv,
    write_field,
    write_path_csv,
)
from . import theory


def _reject_unread(args, kind: str, *names: str) -> None:
    """Exit on a simulate flag that the given kind of output does not read."""
    for name in names:
        if getattr(args, name) is not None:
            raise SystemExit(f"simulate: --{name} does not apply with {kind}")


def _cmd_simulate(args) -> int:
    if (args.index is None) == (args.hurst is None):
        raise SystemExit("simulate: give exactly one of --index or --hurst")
    _seed(args.seed)  # --seed takes the integer rule, before any synthesis
    if args.index is not None:
        _reject_unread(args, "--index", "length")
        grid = 512 if args.grid is None else args.grid
        index = parse_index(args.index)
        field = afb_sra(index, grid, args.seed)[0]
        if args.format == "csv":
            field_to_csv(field, args.out)
        else:
            write_field(field, args.out, (index.h_h, index.h_v), args.seed)
    else:
        _reject_unread(args, "--hurst", "grid", "format")
        length = 4096 if args.length is None else args.length
        path = fbm_path(args.hurst, length, args.seed)[0]
        write_path_csv(path, args.out, args.hurst, args.seed)
    return 0


def _cmd_project(args) -> int:
    field = read_field(args.field)[0]
    window = parse_window(args.window) if args.window else None
    write_path_csv(project_axis(field, args.direction, window, args.m_sub), args.out)
    return 0


def _row(seed, h_true, label, nu, estimate, v1, v2) -> list:
    return [seed, h_true, label, nu, estimate, v1, v2, int(not 0.0 < estimate < 1.0)]


def _cmd_estimate(args) -> int:
    """One row per (direction, nu) of a field, or per nu of a path; V1 and
    V2 are the variations at the dilations v and u."""
    filt = parse_filter(args.filter)
    rows = []
    if _is_field_file(args.input):
        field, params, seed = read_field(args.input)
        for direction, h_true in zip(DIRECTIONS, params or (None, None)):
            values = project_axis(field, direction)
            for nu in args.nu:
                est = estimate_projection(values, nu, filt, args.u, args.v)
                rows.append(_row(seed, h_true, direction, nu, *est))
    else:
        path, hurst, seed = read_path_csv(args.input)
        for nu in args.nu:
            est = log_ratio_at_level(path, nu, filt, args.u, args.v)
            rows.append(_row(seed, hurst, "path", nu, *est))
    header = ["seed", "h_true", "direction", "nu", "estimate", "V1", "V2", "out_of_range"]
    _write_csv(args.out, header, rows)
    return 0


def _cmd_theory(args) -> int:
    filt = parse_filter(args.filter)
    bundle = theory.asymptotic_constants(filt, args.u, args.v, args.hurst)
    header = ["E_u", "E_v", "C_uu", "C_uv", "C_vv", "gamma"]
    _write_csv(args.out, header, [[getattr(bundle, name) for name in header]])
    return 0


def _cmd_evaluate(args) -> int:
    overrides = {key: getattr(args, key) for key in ("seed", "reps", "out", "workers")}
    config = load_config(args.config, overrides)
    report = (run_eval_2d if config.mode == "2d" else run_eval_1d)(config)
    out = config.out or "eval_report.csv"
    emit_table(report, out)
    print(
        f"evaluate: {len(report.rows)} rows -> {out} "
        f"({report.failures} failed replicates, {report.runtime:.1f}s)"
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anisofield",
        description=(
            "Simulate fractional Brownian paths/fields, project, estimate "
            "directional regularity, and run Monte Carlo evaluations."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="synthesize a field or a path")
    p.add_argument("--index", help="2-d model, e.g. constant:0.5 or axes:0.7,0.2")
    p.add_argument("--hurst", "--H", type=float, dest="hurst", help="1-d Hurst index")
    p.add_argument("--grid", "-M", type=int, help="field grid size (default 512)")
    p.add_argument("--length", "-N", type=int, help="path step count (default 4096)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument(
        "--format", choices=("binary", "csv"), help="field file (default binary)"
    )
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("project", help="axis projection of a field file")
    p.add_argument("--field", required=True)
    p.add_argument("--direction", choices=("horizontal", "vertical"), required=True)
    p.add_argument("--window", help="gaussian:SIGMA[,CENTER]; omit for a plain sum")
    p.add_argument("--m-sub", type=int, dest="m_sub", help="hyperplane sum resolution")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_project)

    p = sub.add_parser("estimate", help="regularity estimates from a file")
    p.add_argument("--input", required=True, help="AFB1 field file or path CSV")
    p.add_argument("--nu", type=int, nargs="+", default=[0], help="subsampling levels")
    p.add_argument("--filter", default="1,-2,1")
    p.add_argument("--u", type=int, default=2)
    p.add_argument("--v", type=int, default=1)
    p.add_argument("--out", help="output CSV (default: stdout)")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("theory", help="asymptotic constants of the estimator")
    p.add_argument("--filter", default="1,-2,1")
    p.add_argument("--u", type=int, default=2)
    p.add_argument("--v", type=int, default=1)
    p.add_argument("--hurst", "--H", type=float, dest="hurst", required=True)
    p.add_argument("--out", help="output CSV (default: stdout)")
    p.set_defaults(func=_cmd_theory)

    p = sub.add_parser("evaluate", help="Monte Carlo evaluation from a config")
    p.add_argument("--config", required=True, help="flat key=value config file")
    p.add_argument("--seed", type=int)
    p.add_argument("--reps", type=int)
    p.add_argument("--out")
    p.add_argument("--workers", type=int)
    p.set_defaults(func=_cmd_evaluate)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (AnisofieldError, OSError) as exc:
        print(f"anisofield: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
