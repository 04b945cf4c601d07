import csv
import math
import subprocess
import sys

import numpy as np
import pytest

from anisofield import (
    AnisotropicIndex,
    Window1DMinus,
    afb_sra,
    binomial_filter,
    estimate_H,
    estimate_projection,
    fbm_path,
    project_axis,
    quad_variation,
    read_field,
    read_path_csv,
)
from anisofield import cli
from anisofield.cli import main


def _read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


@pytest.mark.parametrize(
    "argv",
    [
        ["theory", "--u", "0", "--H", "0.5"],
        ["simulate", "--index", "axes:0.7,0.2", "--grid", "12", "--out", "{tmp}/f.afb"],
        ["evaluate", "--config", "{tmp}/bad.cfg"],
        ["evaluate", "--config", "{tmp}/dilations.cfg"],
        ["evaluate", "--config", "{tmp}/short.cfg"],
        ["estimate", "--input", "{tmp}/missing.csv"],
        ["evaluate", "--config", "{tmp}/missing.cfg"],
        ["theory", "--H", "nan"],
        ["theory", "--H", "1e-300"],
        ["simulate", "--index", "constant:0.5", "--grid", "8",
         "--seed", "18446744073709551616", "--out", "{tmp}/f.afb"],
        ["simulate", "--index", "constant:0.5", "--grid", "8",
         "--seed", "18446744073709551615", "--out", "{tmp}/f.afb"],
    ],
    ids=[
        "theory_u0", "simulate_grid12", "evaluate_unknown_key", "evaluate_2d_u3",
        "evaluate_1d_length4", "estimate_missing_input", "evaluate_missing_config",
        "theory_Hnan", "theory_H1e-300", "simulate_seed_2e64",
        "simulate_seed_unknown_mark",
    ],
)
def test_value_errors_reported_in_one_line(tmp_path, capsys, argv):
    (tmp_path / "bad.cfg").write_text("mode = 2d\nindex = constant:0.5\nmodee = 1d\n")
    (tmp_path / "dilations.cfg").write_text(
        "mode = 2d\nindex = constant:0.5\ngrid = 32\nnu = 0\nu = 3\n"
    )
    (tmp_path / "short.cfg").write_text("mode = 1d\nhurst = 0.5\nlength = 4\n")
    rc = main([arg.replace("{tmp}", str(tmp_path)) for arg in argv])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("anisofield: ") and err.count("\n") == 1


class TestSimulate:
    def test_field_roundtrip(self, tmp_path):
        out = tmp_path / "f.afb"
        rc = main([
            "simulate", "--index", "axes:0.7,0.2", "--grid", "16",
            "--seed", "3", "--out", str(out),
        ])
        assert rc == 0
        field = read_field(out)[0]
        direct = afb_sra(AnisotropicIndex(0.7, 0.2), 16, 3)[0]
        assert np.array_equal(field, direct)

    def test_path_roundtrip(self, tmp_path):
        out = tmp_path / "p.csv"
        rc = main([
            "simulate", "--hurst", "0.6", "--length", "128",
            "--seed", "11", "--out", str(out),
        ])
        assert rc == 0
        path, _, seed = read_path_csv(out)
        assert seed == 11
        np.testing.assert_array_equal(path, fbm_path(0.6, 128, 11)[0])

    def test_h_alias(self, tmp_path):
        out = tmp_path / "p.csv"
        assert main(["simulate", "--H", "0.6", "-N", "64", "--out", str(out)]) == 0

    def test_requires_one_mode(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["simulate", "--out", str(tmp_path / "x")])

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["--hurst", "0.5", "-N", "16", "--format", "binary"], "--format"),
            (["--hurst", "0.5", "-N", "16", "--grid", "8"], "--grid"),
            (["--hurst", "0.5", "--format", "csv"], "--format"),
            (["--index", "constant:0.5", "-M", "8", "-N", "99"], "--length"),
        ],
        ids=["hurst_format", "hurst_grid", "hurst_format_csv", "index_length"],
    )
    def test_flag_of_the_other_kind_rejected(self, tmp_path, argv, flag):
        out = tmp_path / "x"
        with pytest.raises(SystemExit) as info:
            main(["simulate", *argv, "--out", str(out)])
        kind = argv[0]
        assert str(info.value) == f"simulate: {flag} does not apply with {kind}"
        assert not out.exists()

    def test_defaults_apply_to_their_kind(self, tmp_path):
        # a binary field at grid 512, a path of 4096 steps
        field_file, path_file = tmp_path / "f.afb", tmp_path / "p.csv"
        assert main(["simulate", "--index", "constant:0.5", "--out", str(field_file)]) == 0
        assert main(["simulate", "--hurst", "0.5", "--out", str(path_file)]) == 0
        assert read_field(field_file)[0].shape == (513, 513)
        assert read_path_csv(path_file)[0].size == 4097


class TestProject:
    def test_matches_library(self, tmp_path):
        field_file = tmp_path / "f.afb"
        main(["simulate", "--index", "constant:0.5", "-M", "16", "--seed", "5",
              "--out", str(field_file)])
        out = tmp_path / "proj.csv"
        rc = main(["project", "--field", str(field_file),
                   "--direction", "vertical", "--out", str(out)])
        assert rc == 0
        rows = _read_csv(out)
        vals = np.array([float(r[1]) for r in rows[1:]])
        expected = project_axis(read_field(field_file)[0], "vertical")
        np.testing.assert_array_equal(vals, expected)

    def test_windowed_matches_library(self, tmp_path):
        field_file = tmp_path / "f.afb"
        main(["simulate", "--index", "axes:0.7,0.2", "-M", "64", "--seed", "6",
              "--out", str(field_file)])
        out = tmp_path / "proj.csv"
        rc = main(["project", "--field", str(field_file), "--direction", "horizontal",
                   "--window", "gaussian:0.2,0.5", "--m-sub", "16", "--out", str(out)])
        assert rc == 0
        rows = _read_csv(out)
        assert len(rows) == 1 + 65
        vals = np.array([float(r[1]) for r in rows[1:]])
        window = Window1DMinus.gaussian(0.2, center=0.5)
        field = read_field(field_file)[0]
        expected = project_axis(field, "horizontal", window, 16)
        np.testing.assert_array_equal(vals, expected)
        assert not np.array_equal(vals, project_axis(field, "horizontal"))

    @pytest.mark.parametrize("spec", ["gaussian:nan", "gaussian:0.2,inf", "indicator:0.2,0.8"])
    def test_bad_window_rejected(self, tmp_path, capsys, spec):
        field_file = tmp_path / "f.afb"
        main(["simulate", "--index", "constant:0.5", "-M", "16", "--seed", "5",
              "--out", str(field_file)])
        out = tmp_path / "proj.csv"
        rc = main(["project", "--field", str(field_file), "--direction", "horizontal",
                   "--window", spec, "--out", str(out)])
        assert rc == 1 and not out.exists()
        err = capsys.readouterr().err
        assert err.startswith(f"anisofield: bad window spec '{spec}'")
        assert err.count("\n") == 1

    def test_reads_back_as_a_path(self, tmp_path):
        field_file = tmp_path / "f.afb"
        main(["simulate", "--index", "axes:0.7,0.2", "-M", "16", "--seed", "5",
              "--out", str(field_file)])
        out = tmp_path / "proj.csv"
        assert main(["project", "--field", str(field_file),
                     "--direction", "horizontal", "--out", str(out)]) == 0
        values, hurst, seed = read_path_csv(out)
        expected = project_axis(read_field(field_file)[0], "horizontal")
        assert values.tobytes() == expected.tobytes()
        assert hurst is None and seed is None


class TestEstimate:
    def test_path_negative_level_rejected(self, tmp_path, capsys):
        path_file = tmp_path / "p.csv"
        main(["simulate", "--hurst", "0.6", "-N", "64", "--out", str(path_file)])
        rc = main(["estimate", "--input", str(path_file), "--nu", "-1"])
        assert rc == 1
        assert capsys.readouterr().err == "anisofield: nu must be >= 0\n"

    def test_field_rows(self, tmp_path):
        field_file = tmp_path / "f.afb"
        main(["simulate", "--index", "axes:0.7,0.2", "-M", "64", "--seed", "8",
              "--out", str(field_file)])
        out = tmp_path / "est.csv"
        rc = main(["estimate", "--input", str(field_file),
                   "--nu", "0", "1", "--out", str(out)])
        assert rc == 0
        rows = _read_csv(out)
        assert rows[0] == [
            "seed", "h_true", "direction", "nu", "estimate", "V1", "V2", "out_of_range",
        ]
        assert len(rows) == 1 + 4  # two directions x two levels
        field = read_field(field_file)[0]
        by_key = {(r[2], int(r[3])): r for r in rows[1:]}
        for direction in ("horizontal", "vertical"):
            for nu in (0, 1):
                h, t1, t2 = estimate_projection(project_axis(field, direction), nu)
                row = by_key[(direction, nu)]
                assert row[4:7] == [repr(h), repr(t1), repr(t2)]
                assert float(row[5]) < float(row[6])  # V1 at dilation 1, V2 at 2
                assert row[0] == "8"
        truth = {r[2] for r in rows[1:]}
        assert truth == {"horizontal", "vertical"}

    def test_field_honours_dilations(self, tmp_path):
        field_file = tmp_path / "f.afb"
        main(["simulate", "--index", "axes:0.7,0.2", "-M", "64", "--seed", "8",
              "--out", str(field_file)])
        outs = {}
        for u in ("2", "3"):
            outs[u] = tmp_path / f"est_u{u}.csv"
            rc = main(["estimate", "--input", str(field_file), "--nu", "0", "1",
                       "--u", u, "--out", str(outs[u])])
            assert rc == 0
        assert outs["2"].read_bytes() != outs["3"].read_bytes()
        field = read_field(field_file)[0]
        a = binomial_filter(2)
        rows = _read_csv(outs["3"])[1:]
        for row in rows:
            values = project_axis(field, row[2])
            h, t1, t2 = estimate_projection(values, int(row[3]), a, 3, 1)
            assert row[4:7] == [repr(h), repr(t1), repr(t2)]

    def test_field_projects_each_axis_once(self, tmp_path, monkeypatch):
        field_file = tmp_path / "f.afb"
        main(["simulate", "--index", "axes:0.7,0.2", "-M", "64", "--seed", "8",
              "--out", str(field_file)])
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[1])
            return project_axis(*args, **kwargs)

        monkeypatch.setattr(cli, "project_axis", counting)
        rc = main(["estimate", "--input", str(field_file), "--nu", "0", "1", "2", "3",
                   "--out", str(tmp_path / "est.csv")])
        assert rc == 0
        assert calls == ["horizontal", "vertical"]
        assert len(_read_csv(tmp_path / "est.csv")) == 1 + 8

    def test_field_csv_is_not_a_path(self, tmp_path, capsys):
        field_csv = tmp_path / "f.csv"
        main(["simulate", "--index", "constant:0.5", "-M", "16", "--format", "csv",
              "--out", str(field_csv)])
        rc = main(["estimate", "--input", str(field_csv)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            f"anisofield: {field_csv}:1: expected two columns t,value, found 17"
        )

    def test_non_numeric_path_value(self, tmp_path, capsys):
        path_csv = tmp_path / "p.csv"
        path_csv.write_text("t,value\n0.0,0.0\n0.5,abc\n1.0,2.0\n")
        rc = main(["estimate", "--input", str(path_csv)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"anisofield: {path_csv}:3: row '0.5,abc' is not two numbers")

    @pytest.mark.parametrize("damage", ["truncated", "extended", "wrong_m"])
    def test_malformed_field_file(self, tmp_path, capsys, damage):
        field_file = tmp_path / "f.afb"
        main(["simulate", "--index", "constant:0.5", "-M", "8", "--out", str(field_file)])
        raw = field_file.read_bytes()
        field_file.write_bytes({
            "truncated": raw[:-100],
            "extended": raw + b"x",
            "wrong_m": raw[:4] + (4).to_bytes(4, "little") + raw[8:],
        }[damage])
        rc = main(["estimate", "--input", str(field_file)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("anisofield: ") and str(field_file) in err
        assert "bytes" in err

    def test_path_rows(self, tmp_path):
        path_file = tmp_path / "p.csv"
        main(["simulate", "--hurst", "0.5", "-N", "512", "--seed", "2",
              "--out", str(path_file)])
        out = tmp_path / "est.csv"
        rc = main(["estimate", "--input", str(path_file), "--nu", "0", "1",
                   "--u", "2", "--v", "1", "--out", str(out)])
        assert rc == 0
        rows = _read_csv(out)
        assert len(rows) == 3
        assert rows[1][1] == "0.5" and rows[1][2] == "path"
        est = float(rows[1][4])
        assert 0.2 < est < 0.8  # sanity at N=512
        # each row is the library's estimate on the strided path, with
        # V1 the variation at dilation v = 1 and V2 at u = 2, as for fields
        path = read_path_csv(path_file)[0]
        a = binomial_filter(2)
        for nu, row in zip((0, 1), rows[1:]):
            sub = path[:: 1 << nu]
            assert row[3:7] == [
                str(nu),
                repr(estimate_H(sub, a, 2, 1)),
                repr(quad_variation(sub, a, 1)),
                repr(quad_variation(sub, a, 2)),
            ]

    def test_projection_csv_matches_field_row(self, tmp_path):
        # a projection CSV is estimated as a path: the same variations as
        # the field's row for that direction, without the 1/2 offset
        field_file = tmp_path / "f.afb"
        proj_file = tmp_path / "proj.csv"
        main(["simulate", "--index", "axes:0.7,0.2", "-M", "64", "--seed", "8",
              "--out", str(field_file)])
        main(["project", "--field", str(field_file), "--direction", "vertical",
              "--out", str(proj_file)])
        rows = {}
        for name in ("field", "proj"):
            src = field_file if name == "field" else proj_file
            out = tmp_path / f"est_{name}.csv"
            assert main(["estimate", "--input", str(src), "--nu", "0", "1",
                         "--out", str(out)]) == 0
            rows[name] = {
                int(r[3]): r for r in _read_csv(out)[1:] if r[2] != "horizontal"
            }
        for nu in (0, 1):
            field_row, proj_row = rows["field"][nu], rows["proj"][nu]
            assert proj_row[2] == "path"
            assert proj_row[5:7] == field_row[5:7]
            estimate = float(field_row[4]) + 0.5
            assert float(proj_row[4]) == pytest.approx(estimate, abs=1e-12)


@pytest.mark.parametrize(
    "model", [["--index", "constant:0.5", "-M", "8"], ["--hurst", "0.5", "-N", "64"]],
    ids=["index", "hurst"],
)
def test_simulate_rejects_negative_seed(tmp_path, capsys, model):
    out = tmp_path / "x"
    assert main(["simulate", *model, "--seed", "-1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "anisofield: seed -1 is negative; a seed is an integer >= 0\n"
    assert not out.exists()


class TestTheoryCommand:
    def test_constants_csv(self, tmp_path, capsys):
        rc = main(["theory", "--filter", "1,-2,1", "--u", "2", "--v", "1",
                   "--H", "0.5"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "E_u,E_v,C_uu,C_uv,C_vv,gamma"
        e_u, e_v, c_uu, c_uv, c_vv, gamma = map(float, lines[1].split(","))
        assert e_v == pytest.approx(4 * math.pi, rel=1e-8)
        assert e_u == pytest.approx(2 * 4 * math.pi, rel=1e-8)
        assert gamma == pytest.approx(7 / (8 * math.log(2) ** 2), rel=1e-8)

    @pytest.mark.parametrize("H", ["1.6", "0.999999999"])
    def test_hard_h(self, capsys, H):
        # near K - 1/4, and next to an integer H
        assert main(["theory", "--H", H]) == 0
        gamma = float(capsys.readouterr().out.splitlines()[1].split(",")[-1])
        assert math.isfinite(gamma) and gamma > 0.0


class TestEvaluateCommand:
    def test_end_to_end_2d(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        out = tmp_path / "report.csv"
        cfg.write_text(
            "mode = 2d\nindex = axes:0.7,0.2\ngrid = 32\nreps = 3\n"
            "nu = 0,1\nseed = 4\nworkers = 1\n"
        )
        rc = main(["evaluate", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        rows = _read_csv(out)
        assert rows[0][0] == "h_h"
        assert len(rows) == 3  # header + 2 levels

    def test_end_to_end_1d(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        out = tmp_path / "r.csv"
        cfg.write_text(
            "mode = 1d\nhurst = 0.5\nlength = 256\nreps = 3\nseed = 4\nworkers = 1\n"
        )
        rc = main(["evaluate", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        assert len(_read_csv(out)) == 2

    def test_deterministic_output(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            "mode = 1d\nhurst = 0.4\nlength = 128\nreps = 4\nseed = 9\nworkers = 2\n"
        )
        blobs = []
        for name in ("r1.csv", "r2.csv"):
            out = tmp_path / name
            assert main(["evaluate", "--config", str(cfg), "--out", str(out)]) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]


def test_console_entry_point(tmp_path):
    out = tmp_path / "p.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "anisofield.cli", "simulate", "--hurst", "0.5",
         "-N", "64", "--seed", "1", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
