"""The anisofield benchmark: one workload, timed or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ./src.  Every
pass runs in a fresh interpreter (see child.py), and the last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 repeats timed batches (workers = 2) until S seconds are spent and
reports the end-to-end metrics as medians over batches.  Times are scaled
to a reference host speed that a background thread measures while the
batches run (see HostSpeed).  --trace 1 runs one smaller batch three
times: timed (workers = 2), serial, and serial with spans at every layer
boundary; it reports the per-layer metrics and checks that the three
report CSVs are identical.  Metric names and units
come from BENCHMARK.json.  README.md in this directory explains the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from gate import Gate, check_1d, check_2d, check_same, check_theory, parse_csv, pool
from spans import layer_metrics
from workloads import WORKERS, WORKLOADS, pass_spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

MIN_SETUPS = 5      # interpreter starts behind the setup_s median
DEADLINE_S = 170.0  # no run may take longer than this
PROBE = "import anisofield; print('ready', flush=True)"

SPEED_EVERY_S = 0.1   # pause between two host-speed samples
SPEED_LOOP = 8000     # iterations of the fixed loop one sample times
REF_SAMPLE_S = 1e-3   # CPU seconds of one sample at the reference host speed
MIN_SAMPLES = 3       # samples behind the speed of one window


class BenchError(Exception):
    """A pass could not run at all; the run ends without a result."""


def _fixed_loop():
    x = 0.0
    for i in range(SPEED_LOOP):
        x += math.sin(i * 0.001)
    return x


class HostSpeed:
    """The host's CPU speed, sampled in a background thread while passes run.

    On a shared host the speed of plain code changes by up to 40% for tens
    of seconds at a time, on both CPUs at once, so a 30 s wall-clock rate
    differs from run to run by as much as the speed does.  Every
    SPEED_EVERY_S the thread times a fixed loop by its own CPU time, which
    leaves out any wait for a CPU.  So a sample follows the speed of the
    host and not the load of the pass, and costs about 1% of one CPU.
    """

    def __init__(self):
        self.samples = []  # (perf_counter when done, CPU seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self):
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _sample(self):
        t = time.thread_time()
        _fixed_loop()
        self.samples.append((time.perf_counter(), time.thread_time() - t))

    def _run(self):
        while not self._stop.wait(SPEED_EVERY_S):
            self._sample()

    def speed(self, t0, t1) -> float:
        """Speed over [t0, t1] relative to the reference (1 = reference).

        Uses the samples taken in the window, or the MIN_SAMPLES nearest
        ones when the window holds fewer.
        """
        inside = [d for t, d in self.samples if t0 <= t <= t1]
        if len(inside) < MIN_SAMPLES:
            mid = (t0 + t1) / 2
            near = sorted(self.samples, key=lambda s: abs(s[0] - mid))[:MIN_SAMPLES]
            inside = [d for _, d in near]
        return REF_SAMPLE_S / statistics.fmean(inside)


def _start(argv, deadline):
    """Start one fresh interpreter and wait for its ``ready`` line.

    Returns (process, seconds from start to ready).
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *argv], stdout=subprocess.PIPE, text=True,
        env=env, cwd=ROOT, start_new_session=True,
    )
    try:
        wait = max(0.0, deadline - time.perf_counter())
        ready, _, _ = select.select([proc.stdout], [], [], wait)
        line = proc.stdout.readline() if ready else ""
        setup = time.perf_counter() - t0
        if line.strip() != "ready":
            raise BenchError(f"{argv[0]}: interpreter did not get through import")
    except BaseException:
        _stop(proc)
        raise
    return proc, setup


def _finish(proc, deadline):
    try:
        proc.wait(timeout=max(0.0, deadline - time.perf_counter()))
    except BaseException:
        _stop(proc)
        raise
    finally:
        proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"pass exited with code {proc.returncode}")


def _stop(proc):
    """Kill the pass and its pool workers (one process group), then reap."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def setup_probe(host, deadline) -> tuple[float, float]:
    """(wall, reference) seconds of one interpreter start plus import."""
    t0 = time.perf_counter()
    proc, setup = _start(["-c", PROBE], deadline)
    speed = host.speed(t0, t0 + setup)
    _finish(proc, deadline)
    return setup, setup * speed


def run_pass(spec, workers, trace, host, workdir, deadline) -> dict:
    """One batch in a fresh interpreter; returns the child's result.

    ``setup_s`` and ``wall_s`` are wall-clock seconds; ``ref_setup_s`` and
    ``ref_wall_s`` are the same spans at the reference host speed.
    """
    out = Path(workdir) / f"pass-{time.perf_counter_ns()}.json"
    spec = dict(spec, workers=workers, trace=trace)
    t0 = time.perf_counter()
    proc, setup = _start([str(HERE / "child.py"), json.dumps(spec), str(out)], deadline)
    _finish(proc, deadline)
    t_end = time.perf_counter()
    result = json.loads(out.read_text())
    out.unlink()
    result["setup_s"] = setup
    result["ref_setup_s"] = setup * host.speed(t0, t0 + setup)
    result["speed"] = host.speed(t0 + setup, t_end)
    result["ref_wall_s"] = result["wall_s"] * result["speed"]
    return result


def gate_passes(name, spec, passes, reference) -> Gate:
    """Statistical checks on the pooled reports of ``passes``."""
    gate = Gate()
    kind = spec["kind"]
    for i, p in enumerate(passes):
        gate.check(p["error"] is None, f"pass {i} raised {p['error']}")
    done = [p for p in passes if p["error"] is None]
    if kind == "theory":
        for p in done:
            check_theory(gate, p["bundles"], reference[name])
    elif done:
        rows = pool([parse_csv(p["csv"]) for p in done], spec["reps"], kind)
        if kind == "2d":
            check_2d(gate, rows, spec["reps"] * len(done), reference[name])
        else:
            check_1d(gate, rows)
    return gate


def timed_run(name, seed, seconds, smoke, reference, host, workdir, deadline):
    """Fresh-interpreter batches until ``seconds`` are spent."""
    t_start = time.perf_counter()
    passes = []
    while True:
        spec = pass_spec(name, seed * 1000 + len(passes), "batch_reps", smoke)
        passes.append(run_pass(spec, WORKERS, False, host, workdir, deadline))
        elapsed = time.perf_counter() - t_start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    setups = [(p["setup_s"], p["ref_setup_s"]) for p in passes]
    while len(setups) < (1 if smoke else MIN_SETUPS):
        setups.append(setup_probe(host, deadline))
    done = [p["attempted"] - p["failed"] for p in passes]
    values = {
        "items_per_s": statistics.median(n / p["ref_wall_s"] for n, p in zip(done, passes)),
        "setup_s": statistics.median(ref for _, ref in setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    wall = {
        "items_per_s": statistics.median(n / p["wall_s"] for n, p in zip(done, passes)),
        "setup_s": statistics.median(s for s, _ in setups),
        "host_speed": statistics.median(p["speed"] for p in passes),
    }
    print("# wall-clock " + json.dumps(wall))
    samples = {"items_per_s": len(passes), "setup_s": len(setups), "peak_rss_mb": len(passes)}
    return passes, values, samples, gate_passes(name, spec, passes, reference)


def traced_run(name, seed, smoke, reference, host, workdir, deadline):
    """One batch timed, serial, and serial with spans, on the same inputs."""
    spec = pass_spec(name, seed * 1000, "trace_reps", smoke)
    timed = run_pass(spec, WORKERS, False, host, workdir, deadline)
    # Constants have no worker pool: the timed pass is already serial.
    serial = (timed if spec["kind"] == "theory"
              else run_pass(spec, 1, False, host, workdir, deadline))
    traced = run_pass(spec, 1, True, host, workdir, deadline)
    values = layer_metrics(traced["trace"])
    values["harness.pool_efficiency"] = serial["ref_wall_s"] / (WORKERS * timed["ref_wall_s"])
    values["trace.overhead_share"] = traced["ref_wall_s"] / serial["ref_wall_s"] - 1.0
    samples = {k[: -len("_n")]: v for k, v in values.items() if k.endswith("_n")}
    gate = gate_passes(name, spec, [timed], reference)
    reports = {"timed": timed.get("csv"), "traced": traced.get("csv")}
    if serial is not timed:
        reports["serial"] = serial.get("csv")
    check_same(gate, reports)
    with open(OUT_DIR / f"spans-{name}-seed{seed}.json", "w") as fh:
        json.dump(traced["trace"], fh)
    passes = [timed, traced] if serial is timed else [timed, serial, traced]
    return passes, values, samples, gate


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not (SRC / "anisofield" / "__init__.py").is_file():
        print(f"run.py: no library at {SRC}/anisofield; run from a full checkout",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads((HERE / "reference.json").read_text())
    wanted = bench["per_layer" if args.trace else "end_to_end"]

    deadline = time.perf_counter() + DEADLINE_S
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir, HostSpeed() as host:
        try:
            if args.trace:
                passes, values, samples, gate = traced_run(
                    args.workload, args.seed, args.smoke, reference, host, workdir,
                    deadline)
            else:
                passes, values, samples, gate = timed_run(
                    args.workload, args.seed, args.seconds, args.smoke, reference,
                    host, workdir, deadline)
        except (BenchError, subprocess.TimeoutExpired) as exc:
            print(f"run.py: {exc}", file=sys.stderr)
            return 1

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    values["ok_share"] = 1.0 - failed / attempted
    values["checks_passed_share"] = 1.0 - len(gate.failures) / gate.checks

    env = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "workers": WORKERS, "nproc": os.cpu_count(),
        "cpu": cpu_model(), **passes[0]["versions"], "samples": samples,
        "speed_samples": len(host.samples),
    }
    print("# env " + json.dumps(env))
    for msg in gate.failures:
        print(f"gate: {msg}", file=sys.stderr)
    print(f"failed_share {failed / attempted!r} share ({failed}/{attempted})")
    print(f"check_failures {len(gate.failures)} count (of {gate.checks} checks)")
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']} {values[m['name']]!r} {m['unit']}")
    print(json.dumps({
        "correct": not gate.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
