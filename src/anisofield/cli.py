"""Command-line interface: simulate, project, estimate, theory, evaluate.

Fields travel as AFB1 binary files (or CSV for debugging), 1-d paths as
two-column CSV with metadata comments, and every analysis output is CSV.
"""

from __future__ import annotations

import argparse
import csv
import sys

from .errors import AnisofieldError
from .estimator import estimate_projection, log_ratio_at_level
from .filters import parse_filter
from .harness import emit_table, load_config, run_eval_1d, run_eval_2d
from .projection import DIRECTIONS, project_axis, projection_to_csv
from .spectral import SpectralModel, parse_index, parse_window
from .synthesis import (
    afb_sra,
    fbm_path,
    field_to_csv,
    read_field,
    read_path_csv,
    write_field,
    write_path_csv,
)
from . import theory


def _cmd_simulate(args) -> int:
    if (args.index is None) == (args.hurst is None):
        raise SystemExit("simulate: give exactly one of --index or --hurst")
    if args.index is not None:
        model = SpectralModel(parse_index(args.index))
        field = afb_sra(model, args.grid, args.seed)[0]
        if args.format == "csv":
            field_to_csv(field, args.out)
        else:
            write_field(field, args.out)
    else:
        path = fbm_path(args.hurst, args.length, args.seed)[0]
        write_path_csv(path, args.out, seed=args.seed)
    return 0


def _cmd_project(args) -> int:
    field = read_field(args.field)
    window = parse_window(args.window) if args.window else None
    projection_to_csv(
        project_axis(field, args.direction, window, args.m_sub), args.out
    )
    return 0


def _is_field_file(path: str) -> bool:
    with open(path, "rb") as fh:
        return fh.read(4) == b"AFB1"


def _write_estimates(rows, out) -> None:
    header = ["seed", "h_true", "direction", "nu", "estimate", "V1", "V2", "out_of_range"]
    fh = open(out, "w", newline="") if out else sys.stdout
    try:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)
    finally:
        if out:
            fh.close()


def _row(seed, h_true, label, nu, estimate, v1, v2) -> list:
    return [
        seed if seed is not None else "",
        "" if h_true is None else repr(float(h_true)),
        label,
        nu,
        repr(estimate),
        repr(v1),
        repr(v2),
        int(not 0.0 < estimate < 1.0),
    ]


def _cmd_estimate(args) -> int:
    """One row per (direction, nu) of a field, or per nu of a path; V1 and
    V2 are the variations at the dilations v and u."""
    filt = parse_filter(args.filter)
    rows = []
    if _is_field_file(args.input):
        field = read_field(args.input)
        truths = field.params_true or (None, None)
        for direction, h_true in zip(DIRECTIONS, truths):
            values = project_axis(field, direction)
            for nu in args.nu:
                est = estimate_projection(values, nu, filt, args.u, args.v)
                rows.append(_row(field.seed, h_true, direction, nu, *est))
    else:
        path, seed = read_path_csv(args.input)
        for nu in args.nu:
            est = log_ratio_at_level(path.values, nu, filt, args.u, args.v)
            rows.append(_row(seed, path.hurst_true, "path", nu, *est))
    _write_estimates(rows, args.out)
    return 0


def _cmd_theory(args) -> int:
    filt = parse_filter(args.filter)
    bundle = theory.asymptotic_constants(filt, args.u, args.v, args.hurst)
    fh = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["E_u", "E_v", "C_uu", "C_uv", "C_vv", "gamma"])
        writer.writerow(
            repr(x)
            for x in (
                bundle.E_u, bundle.E_v, bundle.C_uu,
                bundle.C_uv, bundle.C_vv, bundle.gamma,
            )
        )
    finally:
        if args.out:
            fh.close()
    return 0


def _cmd_evaluate(args) -> int:
    overrides = {
        "seed": args.seed,
        "reps": args.reps,
        "out": args.out,
        "workers": args.workers,
    }
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
    p.add_argument("--grid", "-M", type=int, default=512, help="field grid size")
    p.add_argument("--length", "-N", type=int, default=4096, help="path step count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("binary", "csv"), default="binary")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("project", help="axis projection of a field file")
    p.add_argument("--field", required=True)
    p.add_argument("--direction", choices=("horizontal", "vertical"), required=True)
    p.add_argument("--window", help="indicator or gaussian:SIGMA[,CENTER]")
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
    except (AnisofieldError, ValueError, OSError) as exc:
        print(f"anisofield: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
