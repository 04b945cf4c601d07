"""Self-test of the benchmark.

    PYTHONPATH=src python -m pytest perfbench

A tiny-size run of every workload, timed and traced, must print every
metric named in BENCHMARK.json with its unit, and the correctness gate
must pass the reference values yet trip on a perturbed report.
"""

from __future__ import annotations

import json
import math
import os
import random
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
REFERENCE = json.loads((HERE / "reference.json").read_text())


def _smoke(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170, cwd=HERE.parent,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_prints_every_metric(workload, trace):
    lines, result = _smoke(workload, trace)
    wanted = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    for name, unit in wanted.items():
        value = result["metrics"][name]["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value)
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines)
    assert any(line.startswith("# env ") for line in lines)
    assert result["correct"], lines
    assert result["attempted"] >= 1 and result["failed"] == 0
    if trace:
        kind = WORKLOADS[workload]["kind"]
        traced = {
            "2d": "synthesis.afb_sra_n",
            "1d": "synthesis.fbm_path_n",
            "theory": "theory.bundle_n",
        }[kind]
        assert result["metrics"][traced]["value"] > 0


def test_setup_fails_without_library(tmp_path):
    """Outside a checkout the benchmark exits non-zero and prints no result."""
    (tmp_path / "perfbench").mkdir()
    for f in HERE.iterdir():
        if f.is_file():
            (tmp_path / "perfbench" / f.name).write_bytes(f.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCH))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "theory_gamma",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_host_speed_uses_samples_in_window_or_nearest():
    host = run.HostSpeed()
    host.samples = [(0.0, 2e-3), (1.0, 1e-3), (1.5, 1e-3), (2.0, 0.5e-3), (9.0, 4e-3)]
    ref = run.REF_SAMPLE_S
    assert host.speed(0.5, 2.5) == pytest.approx(ref / statistics.fmean([1e-3, 1e-3, 0.5e-3]))
    # Fewer than MIN_SAMPLES inside the window: the nearest samples count.
    assert host.speed(8.9, 9.1) == pytest.approx(ref / statistics.fmean([4e-3, 0.5e-3, 1e-3]))


def test_host_speed_thread_samples_and_stops():
    with run.HostSpeed() as host:
        pass
    assert not host._thread.is_alive()
    assert len(host.samples) >= 1 and all(d > 0 for _, d in host.samples)


def _reference_rows(table):
    rows = []
    for key, stats in table.items():
        hh, hv, nu = key.split(",")
        row = {"h_h": float(hh), "h_v": float(hv), "nu": int(nu)}
        row.update({stat: value[0] for stat, value in stats.items()})
        rows.append(row)
    return rows


@pytest.mark.parametrize("workload", ["field2d_m512", "field2d_m64"])
def test_2d_gate_trips_on_shifted_bias(workload):
    table = REFERENCE[workload]
    clean = gate.Gate()
    rows = _reference_rows(table)
    gate.check_2d(clean, rows, 1000, table)
    assert clean.checks == 7 * len(table) and not clean.failures
    rows[0]["b_h"] += 0.1
    shifted = gate.Gate()
    gate.check_2d(shifted, rows, 1000, table)
    assert len(shifted.failures) == 1 and "b_h" in shifted.failures[0]


def test_1d_gate_trips_on_bias_or_variance():
    row = {"hurst": 0.5, "n": 4096.0, "bias": 0.001, "sigma": 0.01, "n_var": 0.4, "gamma": 0.4}
    clean = gate.Gate()
    gate.check_1d(clean, [row])
    assert clean.checks == 2 and not clean.failures
    for perturbed in ({"bias": 0.101}, {"n_var": 0.6}):
        g = gate.Gate()
        gate.check_1d(g, [dict(row, **perturbed)])
        assert len(g.failures) == 1


def test_theory_gate_trips_on_relative_error():
    table = REFERENCE["theory_gamma"]
    bundles = []
    for key, consts in table.items():
        order, u, v, H = key.split(",")
        bundles.append([int(order), int(u), int(v), float(H)]
                       + [consts[name] for name in gate.CONSTANTS])
    clean = gate.Gate()
    gate.check_theory(clean, bundles, table)
    assert clean.checks == 7 * len(table) and not clean.failures
    bundles[0][4 + gate.CONSTANTS.index("C_uv")] *= 1 + 1e-4
    off = gate.Gate()
    gate.check_theory(off, bundles, table)
    assert len(off.failures) == 1 and "C_uv" in off.failures[0]


def test_reproducibility_check_is_byte_exact():
    text = "h_h,h_v\n0.7,0.2\n"
    g = gate.Gate()
    gate.check_same(g, {"timed": text, "serial": text, "traced": text})
    assert g.checks == 2 and not g.failures
    gate.check_same(g, {"timed": text, "traced": text.replace("0.2", "0.20")})
    assert len(g.failures) == 1


def test_pool_matches_concatenated_samples():
    rng = random.Random(5)
    batches = [[rng.gauss(0.3, 0.1) for _ in range(40)] for _ in range(3)]
    tables = [[{"hurst": 0.5, "n": 8.0, "bias": statistics.mean(b) - 0.5,
                "sigma": statistics.stdev(b)}] for b in batches]
    (row,) = gate.pool(tables, 40, "1d")
    everything = [x for b in batches for x in b]
    assert row["bias"] == pytest.approx(statistics.mean(everything) - 0.5, abs=1e-12)
    assert row["sigma"] == pytest.approx(statistics.stdev(everything), rel=1e-12)
    assert row["n_var"] == pytest.approx(8.0 * statistics.variance(everything), rel=1e-12)


def test_failed_items_are_counted_not_raised(tmp_path):
    """A bundle that raises an AnisofieldError counts as failed."""
    spec = {"workload": "theory_gamma", "kind": "theory", "seed": 0,
            "bundles": [[1, 2, 1, 0.9], [2, 2, 1, 0.5]], "workers": 1, "trace": False}
    out = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), json.dumps(spec), str(out)],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(HERE.parent / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text())
    assert result["attempted"] == 2 and result["failed"] == 1
    assert "OrderTooLow" in result["errors"][0]
    assert len(result["bundles"]) == 1
