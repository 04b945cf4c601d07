import csv
import dataclasses
import math
import pathlib
import time

import numpy as np
import pytest

from anisofield import (
    AnisotropicIndex,
    DiscreteFilter,
    EmbeddingNotPSD,
    EvalReport,
    ExperimentConfig,
    TooManyFailures,
    ZeroVariation,
    afb_sra,
    binomial_filter,
    derived_stream,
    emit_table,
    estimate_H,
    estimate_pair,
    fbm_path,
    load_config,
    run_eval_1d,
    run_eval_2d,
)
from anisofield import harness


def _slow_failing_block(task):
    """A 2-d task whose every replicate fails after a pause; defined at
    module level so that pool workers can unpickle it."""
    time.sleep(0.05)
    return [("err", "boom")] * task[-1]


def _cfg_2d(**kw):
    base = dict(
        mode="2d",
        indices=(AnisotropicIndex(0.7, 0.2),),
        grid_size=32,
        reps=4,
        nu_levels=(0, 1),
        seed=5,
        workers=1,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def _cfg_1d(**kw):
    base = dict(
        mode="1d",
        hursts=(0.5,),
        path_lengths=(256,),
        reps=4,
        seed=5,
        workers=1,
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestRun2D:
    def test_smoke(self):
        report = run_eval_2d(_cfg_2d(reps=2))
        assert report.mode == "2d"
        assert len(report.rows) == 2  # one cell, two levels
        for row in report.rows:
            for val in (row.bias_h, row.sigma_h, row.bias_v, row.sigma_v,
                        row.bias_diff, row.sigma_diff):
                assert math.isfinite(val)
        assert report.failures == 0

    def test_row_order_params_then_nu(self):
        cfg = _cfg_2d(
            indices=(
                AnisotropicIndex(0.7, 0.7),
                AnisotropicIndex(0.2, 0.2),
            ),
            nu_levels=(1, 0),
        )
        report = run_eval_2d(cfg)
        keys = [(r.h_h, r.nu) for r in report.rows]
        assert keys == [(0.7, 0), (0.7, 1), (0.2, 0), (0.2, 1)]

    def test_difference_row_invariants(self):
        report = run_eval_2d(_cfg_2d(reps=8))
        for row in report.rows:
            assert row.bias_diff == pytest.approx(row.bias_h - row.bias_v, abs=1e-14)
            bound = 2 * (row.sigma_h**2 + row.sigma_v**2) + 1e-12
            assert row.sigma_diff**2 <= bound

    def test_worker_count_does_not_change_output(self):
        serial = run_eval_2d(_cfg_2d(reps=6, workers=1))
        pooled = run_eval_2d(_cfg_2d(reps=6, workers=2))
        for a, b in zip(serial.rows, pooled.rows):
            assert a == b

    def test_replicates_stable_when_reps_grow(self):
        # growing R must not reshuffle earlier replicate streams: the mean
        # over the first R estimates is recoverable from the longer run
        small = run_eval_2d(_cfg_2d(reps=5))
        large = run_eval_2d(_cfg_2d(reps=9))
        # cross-check determinism of the small run instead of raw streams
        again = run_eval_2d(_cfg_2d(reps=5))
        assert small.rows == again.rows
        assert small.rows != large.rows

    def test_each_replicate_reproducible_on_its_own(self, monkeypatch):
        # Replicates 0..4 agree across replicate counts and worker counts.
        def per_replicate(**kw):
            seen = _per_replicate(monkeypatch, run_eval_2d, _cfg_2d(**kw))
            assert all(status == "ok" for status, _ in seen)
            return [payload for _, payload in seen]

        base = per_replicate(reps=5, workers=1)
        assert len(base) == 5
        for reps in (5, 9):
            for workers in (1, 2):
                assert per_replicate(reps=reps, workers=workers)[:5] == base

    def test_one_pool_per_run(self, monkeypatch):
        pools = []

        class Counting(harness.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                pools.append(self)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", Counting)
        cfg = _cfg_2d(
            indices=(AnisotropicIndex(0.5, 0.5), AnisotropicIndex(0.7, 0.2)),
            reps=6,
            workers=2,
        )
        report = run_eval_2d(cfg)
        assert len(pools) == 1
        assert report.rows == run_eval_2d(dataclasses.replace(cfg, workers=1)).rows

    def test_block_failure_fails_one_replicate(self, monkeypatch):
        # replicate 2 of the block 1..4 gives NaN projections: the block
        # is redone one replicate at a time and only replicate 2 fails
        real_sra = harness.afb_sra
        spec = (AnisotropicIndex(0.7, 0.2), 32, (0, 1), (1.0, -2.0, 1.0), 5)
        task = (harness._estimate_2d, spec, 3, 1, 4)
        expected = harness._block(task)

        def nan_at_rep_2(model, M, seed, **kw):
            out = real_sra(model, M, seed, **kw)
            if seed.spawn_key == (3, 2):
                return np.full_like(out, np.nan)
            return out

        monkeypatch.setattr(harness, "afb_sra", nan_at_rep_2)
        out = harness._block(task)
        assert [status for status, _ in out] == ["ok", "err", "ok", "ok"]
        assert out[1][1].startswith("cell 3 rep 2: NonFiniteVariation(")
        assert [out[i] for i in (0, 2, 3)] == [expected[i] for i in (0, 2, 3)]

    def test_too_many_failures_cancels_pending_tasks(self, monkeypatch):
        futures = []

        class Recording(harness.ProcessPoolExecutor):
            def submit(self, *args, **kwargs):
                futures.append(super().submit(*args, **kwargs))
                return futures[-1]

        monkeypatch.setattr(harness, "ProcessPoolExecutor", Recording)
        monkeypatch.setattr(harness, "_block", _slow_failing_block)
        indices = tuple(AnisotropicIndex(h, h) for h in (0.2, 0.4, 0.5, 0.7))
        cfg = _cfg_2d(indices=indices, reps=32, workers=2)
        with pytest.raises(TooManyFailures, match="first: boom"):
            run_eval_2d(cfg)
        assert len(futures) == 4 * 16
        assert any(f.cancelled() for f in futures[16:])
        assert all(f.done() for f in futures)

    def test_default_filter_is_the_binomial_one(self):
        default = ExperimentConfig().filter
        assert default == binomial_filter(2)
        assert default.coeffs.tobytes() == binomial_filter(2).coeffs.tobytes()

    def test_filter_key_reaches_the_estimator(self):
        a = binomial_filter(3)
        cfg = _cfg_2d(filter_coeffs=tuple(a.coeffs))
        report = run_eval_2d(cfg)
        streams = [derived_stream(5, 0, rep) for rep in range(cfg.reps)]
        per_rep = [
            estimate_pair(afb_sra(cfg.indices[0], 32, stream, projected=True), (0, 1), a)
            for stream in streams
        ]
        assert len(report.rows) == 2
        for pos, row in enumerate(report.rows):
            hh = np.array([pairs[pos, 0] for pairs in per_rep])
            hv = np.array([pairs[pos, 1] for pairs in per_rep])
            assert row.bias_h == float(hh.mean() - 0.7)
            assert row.bias_v == float(hv.mean() - 0.2)
        assert report.rows != run_eval_2d(_cfg_2d()).rows

    @pytest.mark.parametrize("key", ["dilation_u", "dilation_v"])
    def test_2d_rejects_other_dilations(self, key):
        with pytest.raises(ValueError, match=r"u = 2, v = 1"):
            _cfg_2d(**{key: 3})
        assert _cfg_1d(**{key: 3}).mode == "1d"  # 1-d mode takes them


def _per_replicate(monkeypatch, run, config):
    """(status, payload) of every replicate of a run, in order."""
    real_map = harness._map_cells
    seen = []

    def recording(*args):
        for results in real_map(*args):
            seen.extend(results)
            yield results

    with monkeypatch.context() as patch:
        patch.setattr(harness, "_map_cells", recording)
        run(config)
    return seen


def _per_replicate_1d(monkeypatch, **kw):
    return _per_replicate(monkeypatch, run_eval_1d, _cfg_1d(**kw))


class TestRun1D:
    def test_smoke(self):
        report = run_eval_1d(_cfg_1d(reps=2))
        assert len(report.rows) == 1
        row = report.rows[0]
        assert math.isfinite(row.bias) and math.isfinite(row.sigma)
        assert row.gamma > 0

    def test_gamma_nan_when_order_too_low(self):
        report = run_eval_1d(_cfg_1d(filter_coeffs=(1.0, -1.0), hursts=(0.9,)))
        assert math.isnan(report.rows[0].gamma)

    def test_cells_cover_product(self):
        report = run_eval_1d(_cfg_1d(hursts=(0.3, 0.6), path_lengths=(128, 256)))
        keys = [(r.hurst, r.n_steps) for r in report.rows]
        assert keys == [(0.3, 128), (0.3, 256), (0.6, 128), (0.6, 256)]

    def test_failure_policy(self, monkeypatch):
        def always_fail(task):
            count = task[-1]  # replicates in this task's block
            return [("err", "boom")] * count

        monkeypatch.setattr(harness, "_block", always_fail)
        with pytest.raises(TooManyFailures):
            run_eval_1d(_cfg_1d(reps=10))

    def test_each_replicate_reproducible_on_its_own(self, monkeypatch):
        # Replicates 0..4 agree across replicate counts and worker counts,
        # odd counts (which drop the last imaginary path) included.
        base = _per_replicate_1d(monkeypatch, reps=5, workers=1)
        assert len(base) == 5 and all(status == "ok" for status, _ in base)
        for reps in (5, 9):
            for workers in (1, 2):
                seen = _per_replicate_1d(monkeypatch, reps=reps, workers=workers)
                assert len(seen) == reps
                assert seen[:5] == base

    def test_replicates_pair_real_and_imaginary_paths(self, monkeypatch):
        # replicate 2j is the real path and 2j+1 the imaginary path of
        # stream (cell, j)
        seen = _per_replicate_1d(monkeypatch, reps=5)
        a = DiscreteFilter((1.0, -2.0, 1.0))
        expected = []
        for pair in range(3):
            paths = fbm_path(0.5, 256, derived_stream(5, 0, pair))
            expected += [("ok", estimate_H(p, a, 2, 1)) for p in paths]
        assert seen == expected[:5]

    def test_byte_identical_report_across_workers(self, tmp_path):
        blobs = []
        for workers in (1, 2):
            out = tmp_path / f"w{workers}.csv"
            emit_table(run_eval_1d(_cfg_1d(reps=9, workers=workers)), out)
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_synthesis_failure_fails_both_replicates(self, monkeypatch):
        def broken(H, N, seed):
            raise EmbeddingNotPSD("boom")

        monkeypatch.setattr(harness, "fbm_path", broken)
        spec = (0.5, 64, (1.0, -2.0, 1.0), 2, 1, 5)
        out = harness._block((harness._estimate_1d, spec, 3, 8, 2))
        assert [status for status, _ in out] == ["err", "err"]
        assert out[0][1].startswith("cell 3 rep 8: ")
        assert out[1][1].startswith("cell 3 rep 9: ")

    def test_estimate_failure_fails_one_replicate(self, monkeypatch):
        def imag_fails(path, a, u, v):
            if path[-1] == imag_end:
                raise ZeroVariation("boom")
            return 0.5

        task = (harness._estimate_1d, (0.5, 64, (1.0, -2.0, 1.0), 2, 1, 5), 3, 8, 2)
        imag_end = fbm_path(0.5, 64, derived_stream(5, 3, 4))[1][-1]
        monkeypatch.setattr(harness, "estimate_H", imag_fails)
        out = harness._block(task)
        assert out[0] == ("ok", 0.5)
        assert out[1][0] == "err" and out[1][1].startswith("cell 3 rep 9: ")
        # with one replicate left the imaginary path is not estimated
        assert harness._block(task[:-1] + (1,)) == [("ok", 0.5)]

    def test_failure_message_names_failing_cell(self, monkeypatch):
        # cell 0 tolerates one failure (1 of 100); cell 1 fails throughout
        calls = []
        hurst_of_pair = []
        real_fbm = harness.fbm_path

        def recording(H, N, seed):
            hurst_of_pair[:] = [H]
            return real_fbm(H, N, seed)

        def flaky(path, a, u, v):
            calls.append(hurst_of_pair[0])
            if len(calls) == 1 or hurst_of_pair[0] == 0.7:
                raise ZeroVariation("boom")
            return 0.5

        monkeypatch.setattr(harness, "fbm_path", recording)
        monkeypatch.setattr(harness, "estimate_H", flaky)
        with pytest.raises(TooManyFailures, match=r"first: cell 1 rep 0"):
            run_eval_1d(_cfg_1d(hursts=(0.5, 0.7), path_lengths=(16,), reps=100))


class TestEmitTable:
    def test_header_only_for_empty(self, tmp_path):
        report = EvalReport(mode="2d", rows=[], reps=0, seed=0)
        out = tmp_path / "empty.csv"
        emit_table(report, out)
        assert out.read_text() == "h_h,h_v,nu,b_h,sigma_h,b_v,sigma_v,b_hv,sigma_hv\n"

    def test_byte_identical_reruns(self, tmp_path):
        blobs = []
        for name in ("a.csv", "b.csv"):
            report = run_eval_2d(_cfg_2d(reps=4, workers=2))
            out = tmp_path / name
            emit_table(report, out)
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_1d_columns(self, tmp_path):
        report = run_eval_1d(_cfg_1d())
        out = tmp_path / "r.csv"
        emit_table(report, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "hurst,n,bias,sigma,n_var,gamma"
        assert len(lines) == 2


class TestConfig:
    @pytest.mark.parametrize(
        "run, config",
        [
            (run_eval_2d, lambda: _cfg_1d(indices=(AnisotropicIndex(0.7, 0.2),))),
            (run_eval_1d, lambda: _cfg_2d(hursts=(0.5,))),
        ],
        ids=["2d_runner_1d_config", "1d_runner_2d_config"],
    )
    def test_runner_rejects_config_of_the_other_mode(self, run, config):
        # else the report's rows would go out under the other mode's header
        with pytest.raises(ValueError) as info:
            run(config())
        assert "1d" in str(info.value) and "2d" in str(info.value)

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(reps=1)
        with pytest.raises(ValueError):
            ExperimentConfig(grid_size=32, nu_levels=(3,))  # 32/8 < 8
        with pytest.raises(ValueError):
            ExperimentConfig(mode="3d")

    def test_2d_filter_too_long_for_coarsest_level(self):
        # six taps at dilation 2 span 10 steps; nu = 3 of grid 64 has 8
        coeffs = tuple(binomial_filter(5).coeffs)
        with pytest.raises(ValueError, match="6-tap filter at dilation 2"):
            _cfg_2d(grid_size=64, nu_levels=(0, 1, 2, 3), filter_coeffs=coeffs)
        assert _cfg_2d(grid_size=64, nu_levels=(0, 1, 2), filter_coeffs=coeffs).mode == "2d"

    def test_1d_length_too_short_for_filter(self):
        # (1,-2,1) at dilation 2 spans 4 steps: length 4 leaves one summand
        with pytest.raises(ValueError, match="path length 4 leaves 4 steps"):
            _cfg_1d(path_lengths=(256, 4))
        assert _cfg_1d(path_lengths=(5,)).path_lengths == (5,)
        # the rule takes the larger dilation, whichever of u and v it is
        with pytest.raises(ValueError, match="3-tap filter at dilation 3"):
            _cfg_1d(path_lengths=(6,), dilation_u=1, dilation_v=3)

    def test_1d_does_not_check_levels_against_grid(self):
        assert _cfg_1d(grid_size=16).grid_size == 16

    @pytest.mark.parametrize(
        "text",
        [
            "mode = 1d\nhurst = 0.5\nindex = constant:0.5\n",
            "mode = 1d\nhurst = 0.5\ngrid = 64\n",
            "mode = 1d\nhurst = 0.5\nnu = 0,1\n",
            "mode = 2d\nindex = constant:0.5\nhurst = 0.5\n",
            "index = constant:0.5\nlength = 1024\n",
        ],
        ids=["1d_index", "1d_grid", "1d_nu", "2d_hurst", "2d_length"],
    )
    def test_keys_of_the_other_mode_rejected(self, tmp_path, text):
        f = tmp_path / "cfg.txt"
        f.write_text(text)
        with pytest.raises(ValueError, match="do not apply"):
            load_config(f)

    def test_load_config(self, tmp_path):
        text = """\
# evaluation grid
mode = 2d
index = axes:0.7,0.2
index = constant:0.5
grid = 64
reps = 10
nu = 0,1
seed = 42
filter = 1,-2,1
out = report.csv
workers = 0
"""
        f = tmp_path / "cfg.txt"
        f.write_text(text)
        cfg = load_config(f)
        assert cfg.mode == "2d"
        assert cfg.indices == (
            AnisotropicIndex(0.7, 0.2),
            AnisotropicIndex(0.5, 0.5),
        )
        assert cfg.grid_size == 64
        assert cfg.reps == 10
        assert cfg.nu_levels == (0, 1)
        assert cfg.seed == 42
        assert cfg.out == "report.csv"
        assert cfg.workers is None

    def test_overrides_win(self, tmp_path):
        f = tmp_path / "cfg.txt"
        f.write_text("mode = 1d\nhurst = 0.5\nlength = 128\nreps = 10\nseed = 1\n")
        cfg = load_config(f, {"reps": 4, "seed": 9, "out": None})
        assert cfg.reps == 4 and cfg.seed == 9

    def test_unknown_key(self, tmp_path):
        f = tmp_path / "cfg.txt"
        f.write_text("modee = 2d\n")
        with pytest.raises(ValueError):
            load_config(f)

    def test_workers_zero_or_less_means_one_per_cpu(self):
        for workers in (0, -2):
            assert _cfg_2d(workers=workers).workers is None
        assert _cfg_2d(workers=3).workers == 3

    @pytest.mark.parametrize(
        "text, fields, message",
        [
            ("grid = 24\n", {"grid_size": 24}, "power of two"),
            ("grid = 2\n", {"grid_size": 2}, "power of two"),
            ("nu =\n", {"nu_levels": ()}, "at least one level"),
            ("mode = 1d\nhurst = 0.5\nlength =\n", {"mode": "1d", "path_lengths": ()},
             "at least one path length"),
            ("mode = 1d\nhurst = 1.5\n", {"mode": "1d", "hursts": (1.5,)}, r"H must lie in \(0, 1\)"),
            ("mode = 1d\nhurst = 0\n", {"mode": "1d", "hursts": (0.0,)}, r"H must lie in \(0, 1\)"),
            ("seed = -1\n", {"seed": -1}, "seed -1 is negative"),
            ("mode = 1d\nu = 0\n", {"mode": "1d", "dilation_u": 0}, "u = 0, v = 1"),
            ("mode = 1d\nv = 0\n", {"mode": "1d", "dilation_v": 0}, "u = 2, v = 0"),
            ("mode = 1d\nu = -1\nv = 2\n", {"mode": "1d", "dilation_u": -1, "dilation_v": 2},
             "u = -1, v = 2"),
            ("mode = 1d\nv = 2\n", {"mode": "1d", "dilation_v": 2}, "u = 2, v = 2"),
            ("mode = 1d\nu = 1\n", {"mode": "1d", "dilation_u": 1}, "u = 1, v = 1"),
            ("nu = 0,1,1\n", {"nu_levels": (0, 1, 1)}, r"key nu \(nu_levels\) lists 1 twice"),
            ("mode = 1d\nhurst = 0.5, 0.5\n", {"mode": "1d", "hursts": (0.5, 0.5)},
             r"key hurst \(hursts\) lists 0.5 twice"),
            ("mode = 1d\nhurst = 0.5\nlength = 256,512\nlength = 256\n",
             {"mode": "1d", "hursts": (0.5,), "path_lengths": (256, 512, 256)},
             r"key length \(path_lengths\) lists 256 twice"),
            ("index = constant:0.5\nindex = axes:0.5,0.5\n",
             {"indices": (AnisotropicIndex(0.5, 0.5),) * 2},
             r"key index \(indices\) lists AnisotropicIndex\(h_h=0.5, h_v=0.5\) twice"),
        ],
        ids=[
            "grid_24", "grid_2", "empty_nu", "empty_length", "hurst_1.5", "hurst_0",
            "seed_negative", "u_0", "v_0", "u_negative", "u_eq_v_2", "u_eq_v_1",
            "nu_repeated", "hurst_repeated", "length_repeated", "index_repeated",
        ],
    )
    def test_rejected_when_built(self, tmp_path, text, fields, message):
        f = tmp_path / "cfg.txt"
        f.write_text(text)
        with pytest.raises(ValueError, match=message):
            load_config(f)
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(**fields)

    @pytest.mark.parametrize(
        "text, key",
        [
            ("reps = ten\n", "reps"),
            ("grid = 6.4e1\n", "grid"),
            ("nu = 0,one\n", "nu"),
            ("index = axes:0.7\n", "index"),
            ("filter = 1,-2,x\n", "filter"),
            ("mode = 1d\nhurst = 0.5,half\n", "hurst"),
            ("mode = 1d\nhurst = 0.5\nu = 2.5\n", "u"),
        ],
        ids=["reps", "grid", "nu", "index", "filter", "hurst", "u"],
    )
    def test_unparsed_value_names_its_key(self, tmp_path, text, key):
        f = tmp_path / "cfg.txt"
        f.write_text(text)
        with pytest.raises(ValueError, match=f"^{key}: "):
            load_config(f)

    @pytest.mark.parametrize("hurst", [1.5, 1e-300])
    def test_bad_hurst_fails_before_any_path(self, monkeypatch, hurst):
        # 1.5 fails when the config is built; 1e-300 has no finite
        # constants, so the run stops before it draws a path
        calls = []
        monkeypatch.setattr(harness, "fbm_path", lambda *args: calls.append(args))
        with pytest.raises(ValueError):
            run_eval_1d(_cfg_1d(hursts=(0.5, hurst), path_lengths=(64,)))
        assert calls == []

    def test_negative_seed_fails_before_any_path(self, monkeypatch):
        calls = []
        monkeypatch.setattr(harness, "fbm_path", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match="seed -1 is negative"):
            run_eval_1d(_cfg_1d(seed=-1))
        assert calls == []

    def test_1d_list_keys(self, tmp_path):
        f = tmp_path / "cfg.txt"
        f.write_text("mode = 1d\nhurst = 0.2,0.5\nhurst = 0.7\nlength = 1024\n")
        cfg = load_config(f)
        assert cfg.hursts == (0.2, 0.5, 0.7)


_DATA = pathlib.Path(__file__).parent / "data"


class TestGoldenReports:
    """Reports of two small runs, as recorded in tests/data.  Compared at
    1e-12 relative rather than byte for byte, since FFT roundoff may differ
    between numpy builds."""

    @staticmethod
    def _assert_matches(report, name, tmp_path):
        out = tmp_path / name
        emit_table(report, out)
        with open(out) as fh:
            got = list(csv.reader(fh))
        with open(_DATA / name) as fh:
            want = list(csv.reader(fh))
        assert got[0] == want[0]
        assert len(got) == len(want)
        for got_row, want_row in zip(got[1:], want[1:]):
            np.testing.assert_allclose(
                np.array(got_row, dtype=float), np.array(want_row, dtype=float),
                rtol=1e-12, atol=0.0,
            )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_2d(self, tmp_path, workers):
        cfg = ExperimentConfig(
            mode="2d",
            indices=(AnisotropicIndex(0.7, 0.2), AnisotropicIndex(0.5, 0.5)),
            grid_size=32,
            reps=8,
            nu_levels=(0, 1),
            seed=11,
            workers=workers,
        )
        self._assert_matches(run_eval_2d(cfg), "report_2d.csv", tmp_path)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_1d(self, tmp_path, workers):
        cfg = ExperimentConfig(
            mode="1d", hursts=(0.3, 0.7), path_lengths=(256,), reps=9, seed=11, workers=workers
        )
        self._assert_matches(run_eval_1d(cfg), "report_1d.csv", tmp_path)
