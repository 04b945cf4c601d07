"""One benchmark pass in a fresh interpreter.

Usage: python3 child.py '<spec json>' <result path>

Prints ``ready`` once ``import anisofield`` has finished, so the parent can
time interpreter start plus import, then runs one batch through the
library's public entry points and writes a JSON result.  A fresh process
per pass matters: the ``lru_cache``s in ``theory`` and ``synthesis`` would
otherwise carry over between passes, and forked pool workers would inherit
them.  Every ``evaluate`` or ``theory`` call of a user pays these cold
costs too.
"""

import json
import resource
import sys
import time

import anisofield

print("ready", flush=True)

# Everything below loads after the timed import on purpose.
import os
import tempfile

import numpy
import scipy
from anisofield import (
    AnisofieldError,
    ExperimentConfig,
    binomial_filter,
    emit_table,
    parse_index,
    run_eval_1d,
    run_eval_2d,
    theory,
)

from gate import CONSTANTS
from spans import Tracer
from workloads import DILATIONS, FILTER_1D, NU_LEVELS, PATH_LENGTH, items_per_batch


def _config(spec):
    if spec["kind"] == "2d":
        return ExperimentConfig(
            mode="2d",
            indices=tuple(parse_index(f"axes:{hh},{hv}") for hh, hv in spec["cells"]),
            grid_size=spec["grid"],
            reps=spec["reps"],
            nu_levels=NU_LEVELS,
            seed=spec["seed"],
            workers=spec["workers"],
        )
    return ExperimentConfig(
        mode="1d",
        hursts=tuple(spec["hursts"]),
        path_lengths=(PATH_LENGTH,),
        reps=spec["reps"],
        filter_coeffs=FILTER_1D,
        dilation_u=DILATIONS[0],
        dilation_v=DILATIONS[1],
        seed=spec["seed"],
        workers=spec["workers"],
    )


def _csv_text(report):
    fd, path = tempfile.mkstemp(suffix=".csv", dir=os.path.dirname(sys.argv[2]))
    os.close(fd)
    try:
        emit_table(report, path)
        with open(path) as fh:
            return fh.read()
    finally:
        os.remove(path)


def _run_eval(spec, out):
    """The report, or None when the run raised."""
    run = run_eval_2d if spec["kind"] == "2d" else run_eval_1d
    try:
        report = run(_config(spec))
    except AnisofieldError as exc:
        out["error"] = repr(exc)
        out["failed"] = out["attempted"]
        return None
    out["failed"] = report.failures
    return report


def _run_theory(spec, out):
    """One row [order, u, v, H, E_u, ..., gamma] per bundle that succeeded."""
    rows = []
    out["failed"] = 0
    for order, u, v, H in spec["bundles"]:
        try:
            c = theory.asymptotic_constants(binomial_filter(order), u, v, H)
        except AnisofieldError as exc:
            out["failed"] += 1
            out.setdefault("errors", []).append(repr(exc))
            continue
        rows.append([order, u, v, H] + [getattr(c, k) for k in CONSTANTS])
    return rows


def main():
    spec = json.loads(sys.argv[1])
    out = {"attempted": items_per_batch(spec), "error": None}
    body = _run_theory if spec["kind"] == "theory" else _run_eval
    tracer = Tracer() if spec["trace"] else None
    undo = tracer.install() if tracer else None
    root = "bench.theory" if spec["kind"] == "theory" else f"harness.run_eval_{spec['kind']}"
    t0 = time.perf_counter()
    result = tracer.call(root, body, (spec, out)) if tracer else body(spec, out)
    out["wall_s"] = time.perf_counter() - t0
    if undo:
        undo()
    if spec["kind"] == "theory":
        out["bundles"] = result
        # Serialized like the report CSVs, for the reproducibility check.
        out["csv"] = "".join(",".join(repr(x) for x in row) + "\n" for row in result)
    elif result is not None:
        out["csv"] = _csv_text(result)
    rss = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    out["peak_rss_mb"] = rss / 1024.0
    out["versions"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "anisofield": anisofield.__version__,
    }
    if tracer:
        out["trace"] = tracer.dump()
    with open(sys.argv[2], "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main()
