"""Workload definitions shared by run.py, its child passes
and the reference recorder.

Each workload is a fixed-size *batch* of library work.  A timed run repeats
fresh-interpreter batches for the requested number of seconds; a traced run
replays one smaller batch three times (timed, serial, serial and traced).
"""

from __future__ import annotations

import random

# The six criterion-1 parameter cells (h_h, h_v) and subsampling levels.
CELLS = ((0.7, 0.7), (0.5, 0.5), (0.2, 0.2), (0.7, 0.5), (0.7, 0.2), (0.5, 0.2))
NU_LEVELS = (0, 1, 2, 3)

# 1-d exact synthesis suite (criterion 2 settings).
HURSTS = (0.2, 0.5, 0.7)
PATH_LENGTH = 4096
FILTER_1D = (1.0, -2.0, 1.0)
DILATIONS = (2, 1)

# Constant bundles: (binomial filter order, u, v, H).
BUNDLES = ((2, 2, 1, 0.2), (2, 2, 1, 0.5), (2, 2, 1, 0.7), (3, 2, 1, 0.5))

# Worker count of every timed pass.  The benchmark machine has two CPUs.
WORKERS = 2

# kind: which public entry point runs the batch.
# batch_reps: replicates per cell in one timed batch.
# trace_reps: replicates per cell in the traced run's batch.
# smoke: cut-down sizes for the self-test.
WORKLOADS = {
    "field2d_m512": {
        "kind": "2d",
        "grid": 512,
        "batch_reps": 10,
        "trace_reps": 8,
        "smoke": {"reps": 4, "cells": CELLS[:2]},
    },
    "field2d_m64": {
        "kind": "2d",
        "grid": 64,
        "batch_reps": 500,
        "trace_reps": 200,
        "smoke": {"reps": 16, "cells": CELLS[:2]},
    },
    "paths1d_n4096": {
        "kind": "1d",
        "batch_reps": 5000,
        "trace_reps": 1000,
        "smoke": {"reps": 1000, "hursts": (0.5,)},
    },
    "theory_gamma": {
        "kind": "theory",
        "smoke": {"bundles": BUNDLES[1:2]},
    },
}


def items_per_batch(spec: dict) -> int:
    """Work items (fields, paths or constant bundles) one pass attempts."""
    if spec["kind"] == "2d":
        return spec["reps"] * len(spec["cells"])
    if spec["kind"] == "1d":
        return spec["reps"] * len(spec["hursts"])
    return len(spec["bundles"])


def pass_spec(name: str, seed: int, reps_key: str, smoke: bool) -> dict:
    """The inputs of one pass: everything a child needs except the mode."""
    wl = WORKLOADS[name]
    spec = {
        "workload": name,
        "kind": wl["kind"],
        "seed": seed,
        "grid": wl.get("grid"),
        "reps": wl.get(reps_key),
        "cells": list(CELLS),
        "hursts": list(HURSTS),
        "bundles": list(BUNDLES),
    }
    if smoke:
        spec.update({k: list(v) if isinstance(v, tuple) else v
                     for k, v in wl["smoke"].items()})
    # Bundles share no cached work, so the seed only fixes their order.
    random.Random(seed).shuffle(spec["bundles"])
    return spec
