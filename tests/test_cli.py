import copy
import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import delay_lqgame.cli
import delay_lqgame.synthesis
from delay_lqgame import (
    DiscretePlant,
    SchemaError,
    Scheme,
    compare_schemes,
    discretize,
    dump_config,
    load_config,
    preset_generic,
    read_trajectory_csv,
    run_scheme,
    sweep_delays,
    write_comparison_csv,
    write_sweep_csv,
    write_trajectory_csv,
)
from delay_lqgame.cli import main, plant_hash
from delay_lqgame.model import load_json

from conftest import singular_solve

from dataclasses import replace

# The generic plant's hash, which the gains format fixes.
GENERIC_HASH = (
    "f60e9e648bddbc470db59ef733ce3dff683119366ba8d2c32e8ee0e6e264e582")


@pytest.fixture()
def cfg_path(tmp_path):
    """Generic preset with a small 2x2 sweep grid, written to disk."""
    config = preset_generic()
    config = replace(config, sweep=((0.0, 0.02), (0.0, 0.02)),
                     x0=np.array(config.x0))
    path = tmp_path / "cfg.json"
    path.write_text(dump_config(config))
    return path


class TestPipelines:
    def test_preset_then_sweep(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "sweep.csv"
        assert main(["preset", "--name", "generic", "--out", str(cfg)]) == 0
        config = load_config(cfg.read_text())
        points = len(config.sweep[0]) * len(config.sweep[1])
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "td1,td2,j_total,j_1,j_2,ratio"
        assert len(lines) == 1 + points

    def test_compare_orders_proposed_first_and_cheapest(self, tmp_path,
                                                        cfg_path):
        out = tmp_path / "cmp.csv"
        assert main(["compare", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "scheme,td1,td2,j_total,j_1,j_2"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 12
        for start in range(0, len(rows), 3):
            chunk = rows[start:start + 3]
            assert [r[0] for r in chunk] == ["proposed", "single_delayed",
                                             "delay_free_game"]
            j = [float(r[3]) for r in chunk]
            assert j[0] <= min(j[1:]) + 1e-9 * (1.0 + j[0])

    def test_discretize_prints_matrices(self, tmp_path, cfg_path, capsys):
        assert main(["discretize", "--config", str(cfg_path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["M"] == 2 and doc["p"] == 2
        np.testing.assert_allclose(
            np.array(doc["Gamma0"][0]) + np.array(doc["Gamma1"][0]),
            np.array(doc["Gamma0"][1]) + np.array(doc["Gamma1"][1]),
            rtol=0, atol=1e-12)

    def test_offline_online_split_matches_fused_run(self, tmp_path, cfg_path):
        gains = tmp_path / "gains.json"
        fused = tmp_path / "fused.csv"
        split = tmp_path / "split.csv"
        assert main(["synthesize", "--config", str(cfg_path),
                     "--out", str(gains)]) == 0
        assert main(["simulate", "--config", str(cfg_path),
                     "--out", str(fused)]) == 0
        assert main(["simulate", "--config", str(cfg_path),
                     "--gains", str(gains), "--out", str(split)]) == 0
        assert fused.read_bytes() == split.read_bytes()
        assert (fused.with_suffix(".json").read_bytes()
                == split.with_suffix(".json").read_bytes())

    def test_gains_file_round_trips_exactly(self, tmp_path, cfg_path):
        gains = tmp_path / "gains.json"
        main(["synthesize", "--config", str(cfg_path), "--out", str(gains)])
        doc = json.loads(gains.read_text())
        assert doc["format"] == "delay-lqgame-gains/1"
        assert doc["horizon"] == 50 and doc["p"] == 2
        arr = np.array(doc["A_coef"])
        assert arr.shape == (50, 2, 1, 2)
        assert np.all(np.isfinite(arr))

    def test_sidecar_metadata(self, tmp_path, cfg_path):
        out = tmp_path / "traj.csv"
        main(["simulate", "--config", str(cfg_path), "--out", str(out),
              "--seed", "7"])
        doc = json.loads(out.with_suffix(".json").read_text())
        assert doc["seed"] == 7
        assert doc["scheme"] == "proposed"
        assert doc["delays"] == [0.01, 0.01]

    def test_negative_seed_is_recorded(self, tmp_path, cfg_path):
        out = tmp_path / "traj.csv"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out),
                     "--seed", "-1"]) == 0
        assert json.loads(out.with_suffix(".json").read_text())["seed"] == -1

    def test_json_format_outputs(self, tmp_path, cfg_path):
        out = tmp_path / "sweep.json"
        main(["sweep", "--config", str(cfg_path), "--format", "json",
              "--out", str(out)])
        rows = json.loads(out.read_text())
        assert len(rows) == 4
        assert set(rows[0]) == {"td1", "td2", "j_total", "j_1", "j_2", "ratio"}


    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("scheme", [s.value for s in Scheme])
    def test_outputs_carry_the_requested_scheme(self, tmp_path, scheme, p):
        doc = json.loads(dump_config(preset_generic()))
        for section, key in (("plant", "B"), ("plant", "delays"),
                             ("weights", "Q"), ("weights", "QN"),
                             ("weights", "R"), ("sweep", "delays_grid")):
            doc[section][key] = doc[section][key][:p]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        gains = tmp_path / "gains.json"
        traj = tmp_path / "traj.csv"
        assert main(["synthesize", "--config", str(cfg), "--scheme", scheme,
                     "--out", str(gains)]) == 0
        assert main(["simulate", "--config", str(cfg), "--scheme", scheme,
                     "--out", str(traj)]) == 0
        assert json.loads(gains.read_text())["scheme"] == scheme
        assert json.loads(traj.with_suffix(".json").read_text())["scheme"] \
            == scheme


class TestImports:
    def test_only_commands_that_hash_load_hashlib(self, tmp_path, cfg_path):
        # The gains commands hash with CPython's built-in SHA-256 module;
        # no command loads OpenSSL's _hashlib.
        src = Path(__file__).resolve().parent.parent / "src"

        def loaded(*argv):
            run = subprocess.run([sys.executable, "-X", "importtime", "-m",
                                  "delay_lqgame", *argv],
                                 cwd=src, capture_output=True, text=True,
                                 check=True)
            return {line.rsplit("|", 1)[1].strip()
                    for line in run.stderr.splitlines()
                    if line.startswith("import time:")}

        modules = loaded("compare", "--config", str(cfg_path),
                         "--out", str(tmp_path / "t.csv"))
        sha256 = {"_sha2", "_sha256"}
        assert "delay_lqgame.cli" in modules
        assert not {"hashlib", "_hashlib", *sha256} & modules
        gains = tmp_path / "gains.json"
        modules = loaded("synthesize", "--config", str(cfg_path),
                         "--out", str(gains))
        assert sha256 & modules
        assert not {"hashlib", "_hashlib"} & modules
        assert json.loads(gains.read_text())["plant_hash"] == GENERIC_HASH

    @pytest.mark.parametrize("blocked", [("_sha2",), ("_sha256",),
                                         ("_sha2", "_sha256")])
    def test_plant_hash_is_the_same_from_every_module(self, monkeypatch,
                                                      blocked):
        # A blocked module fails to import; with none of the built-in
        # modules left, hashlib's sha256 makes the same digest.
        import hashlib

        fallback = []
        sha256 = hashlib.sha256
        monkeypatch.setattr(hashlib, "sha256",
                            lambda: fallback.append(1) or sha256())
        for name in blocked:
            monkeypatch.setitem(sys.modules, name, None)
        built_in = [name for name in ("_sha2", "_sha256")
                    if name not in blocked and importlib.util.find_spec(name)]
        assert plant_hash(preset_generic().plant) == GENERIC_HASH
        assert bool(fallback) == (not built_in)


class TestDeterminism:
    def test_sweep_reruns_byte_identical(self, tmp_path, cfg_path):
        # compare too: its one batch holds every scheme's designs.
        for command in ("sweep", "compare"):
            for fmt in ("csv", "json"):
                a = tmp_path / f"{command}-a.{fmt}"
                b = tmp_path / f"{command}-b.{fmt}"
                for out in (a, b):
                    assert main([command, "--config", str(cfg_path),
                                 "--format", fmt, "--out", str(out)]) == 0
                assert a.read_bytes() == b.read_bytes()

    def test_synthesize_reruns_byte_identical(self, tmp_path, cfg_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        main(["synthesize", "--config", str(cfg_path), "--out", str(a)])
        main(["synthesize", "--config", str(cfg_path), "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestFailureModes:
    def test_delay_bound_violation_exits_1(self, tmp_path, capsys):
        doc = json.loads(dump_config(preset_generic()))
        doc["plant"]["delays"] = [0.05, 0.01]
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(doc))
        code = main(["discretize", "--config", str(cfg)])
        assert code == 1
        assert "delay-bound" in capsys.readouterr().err

    def test_schema_violation_exits_1_with_path(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"plant": {}, "weights": {}, "bogus": 1}')
        assert main(["discretize", "--config", str(cfg)]) == 1
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize("path, value, message", [
        (("plant", "A"), [[0.0, 1.0, 0.0], [-3.0, -4.0, 0.0]],
         "validation error: plant.A: shape (2, 3), expected (2, 2)"),
        (("plant", "B"), [[[0.0]], [[1.0]]],
         "validation error: plant.B[0]: shape (1, 1), expected (2, 1)"),
        (("plant", "h"), -0.05,
         "validation error: sampling period: plant.h must be positive, "
         "got -0.05"),
        (("plant", "delays"), [0.01],
         "validation error: plant.delays: shape (1,), expected (2,)"),
        (("plant", "delays"), [0.01, 0.05],
         "validation error: delay-bound: plant.delays[1]=0.05 must "
         "satisfy 0 <= tau < h=0.05"),
        (("weights", "Q"), [[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]] * 2,
         "validation error: weights.Q[0]: shape (2, 3), expected (2, 2)"),
        (("weights", "QN", 1), [[1.0, 1.0], [0.0, 1.0]],
         "validation error: weight symmetry: weights.QN[1] is asymmetric "
         "by 1.000e+00"),
        (("weights", "R", 1), [[-1.0]],
         "validation error: weight definiteness: weights.R[1] must be "
         "positive definite (min eigenvalue -1.000e+00)"),
        (("weights", "R"), [[[1.0]]],
         "validation error: weights.R: shape (1, 1, 1), expected (2, 1, 1)"),
        (("weights", "QN"), [np.eye(3).tolist()] * 2,
         "validation error: weights.QN[0]: shape (3, 3), expected (2, 2)"),
        (("weights",), {"Q": [np.eye(2).tolist()] * 4, "R": [[[1.0]]] * 4,
                        "horizon": 50},
         "validation error: weights.Q: shape (4, 2, 2), expected (2, 2, 2)"),
        (("x0",), [1.0, -0.8, 0.0],
         "validation error: x0: shape (3,), expected (2,)"),
        (("weights",), {"Q": [np.eye(3).tolist()] * 2, "R": [[[1.0]]] * 2,
                        "horizon": 50},
         "validation error: weights.Q[0]: shape (3, 3), expected (2, 2)"),
        (("weights", "R"), [np.eye(2).tolist()] * 2,
         "validation error: weights.R[0]: shape (2, 2), expected (1, 1)"),
        (("sweep",), {"delays_grid": [[0.0, 0.01]]},
         "validation error: sweep.delays_grid: shape (1,), expected (2,)"),
    ])
    def test_semantic_error_exits_1_naming_the_document_path(
            self, tmp_path, capsys, path, value, message):
        doc = json.loads(dump_config(preset_generic()))
        *keys, last = path
        parent = doc
        for key in keys:
            parent = parent[key]
        parent[last] = value
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(doc))
        assert main(["discretize", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"delay-lqgame: {message}\n"

    def test_plant_hash_mismatch_exits_1(self, tmp_path, cfg_path, capsys):
        gains = tmp_path / "gains.json"
        main(["synthesize", "--config", str(cfg_path), "--out", str(gains)])
        doc = json.loads(dump_config(preset_generic()))
        doc["plant"]["delays"] = [0.02, 0.02]
        other = tmp_path / "other.json"
        other.write_text(json.dumps(doc))
        out = tmp_path / "traj.csv"
        code = main(["simulate", "--config", str(other),
                     "--gains", str(gains), "--out", str(out)])
        assert code == 1
        assert "plant-hash" in capsys.readouterr().err

    def test_changing_one_delay_exits_1(self, tmp_path, cfg_path, capsys):
        gains = tmp_path / "gains.json"
        main(["synthesize", "--config", str(cfg_path), "--out", str(gains)])
        doc = json.loads(cfg_path.read_text())
        doc["plant"]["delays"][1] = 0.012
        other = tmp_path / "other.json"
        other.write_text(json.dumps(doc))
        code = main(["simulate", "--config", str(other),
                     "--gains", str(gains), "--out", str(tmp_path / "t.csv")])
        err = capsys.readouterr().err
        assert code == 1
        assert err == ("delay-lqgame: config error: <gains>.plant_hash: "
                       "plant-hash mismatch: the gain schedule was "
                       "synthesized for a different plant\n")

    @pytest.mark.parametrize("path, value, message", [
        (("plant", "A", 0, 0), 1e308,
         "matrix exponential: e^(A t) at t = 0.05 overflows"),
        (("weights", "Q", 0), [[1.7e308, 0.0], [0.0, 1.7e308]],
         "weight range: weights.Q[0] overflows"),
    ])
    def test_overflow_exits_1_with_one_stderr_line(self, tmp_path, path,
                                                   value, message):
        doc = json.loads(dump_config(preset_generic()))
        *keys, last = path
        parent = doc
        for key in keys:
            parent = parent[key]
        parent[last] = value
        cfg = tmp_path / "huge.json"
        cfg.write_text(json.dumps(doc))
        # A fresh interpreter with default warning filters, so a numpy
        # overflow warning would show on stderr.
        src = Path(__file__).resolve().parent.parent / "src"
        out = subprocess.run([sys.executable, "-W", "default", "-m",
                              "delay_lqgame", "discretize", "--config",
                              str(cfg)],
                             cwd=src, capture_output=True, text=True)
        assert out.returncode == 1
        assert out.stderr.splitlines() == [
            f"delay-lqgame: validation error: {message}"]

    @pytest.mark.parametrize("out, gains", [
        ("traj.json", False), ("cfg.csv", False), ("gains.csv", True),
    ], ids=["sidecar-is-out", "sidecar-is-config", "sidecar-is-gains"])
    def test_sidecar_overwriting_a_named_file_exits_1(
            self, tmp_path, cfg_path, capsys, out, gains):
        # The sidecar is --out with a .json suffix: traj.json's is itself,
        # cfg.csv's the config and gains.csv's the gains file.
        argv = ["simulate", "--config", str(cfg_path),
                "--out", str(tmp_path / out)]
        if gains:
            assert main(["synthesize", "--config", str(cfg_path),
                         "--out", str(tmp_path / "gains.json")]) == 0
            argv += ["--gains", str(tmp_path / "gains.json")]
        before = {f.name: f.read_bytes() for f in tmp_path.iterdir()}
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("delay-lqgame: validation error: --out: ")
        assert {f.name: f.read_bytes() for f in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("scheme, plants", [
        ("proposed", 1), ("single_delayed", 1), ("delay_free_game", 2)])
    def test_fused_simulate_discretizes_each_plant_once(
            self, tmp_path, cfg_path, monkeypatch, scheme, plants):
        calls = []

        def counting(plant, *pairs):
            calls.append(plant.delays)
            return discretize(plant, *pairs)

        for module in (delay_lqgame.cli, delay_lqgame.synthesis):
            monkeypatch.setattr(module, "discretize", counting)
        assert main(["simulate", "--config", str(cfg_path), "--scheme",
                     scheme, "--out", str(tmp_path / "t.csv")]) == 0
        # The true plant once; the delay-free design adds the zero-delay one.
        assert len(calls) == len(set(calls)) == plants

    def test_gains_pair_when_discretization_moves_one_ulp(
            self, tmp_path, cfg_path, monkeypatch):
        # The fingerprint covers the continuous plant, so a last-bit change
        # in the exponentials (another BLAS, say) keeps gains usable.
        gains = tmp_path / "gains.json"
        assert main(["synthesize", "--config", str(cfg_path),
                     "--out", str(gains)]) == 0

        def nudged(plant):
            dp = discretize(plant)
            return DiscretePlant(np.nextafter(dp.Phi, np.inf), dp.Gamma0,
                                 dp.Gamma1)

        monkeypatch.setattr(delay_lqgame.cli, "discretize", nudged)
        assert main(["simulate", "--config", str(cfg_path),
                     "--gains", str(gains),
                     "--out", str(tmp_path / "t.csv")]) == 0

    @pytest.mark.parametrize("argv", [
        ["discretize", "--config", "{dir}"],
        ["preset", "--name", "generic", "--out", "{dir}"],
    ], ids=["config-is-dir", "out-is-dir"])
    def test_directory_path_exits_1_naming_it(self, tmp_path, capsys, argv):
        folder = tmp_path / "folder"
        folder.mkdir()
        code = main([a.format(dir=folder) for a in argv])
        err = capsys.readouterr().err
        assert code == 1
        assert str(folder) in err
        assert "Traceback" not in err

    @pytest.fixture()
    def gains_doc(self, tmp_path, cfg_path):
        gains = tmp_path / "gains.json"
        main(["synthesize", "--config", str(cfg_path), "--out", str(gains)])
        return json.loads(gains.read_text())

    def _simulate_with_gains(self, tmp_path, cfg_path, text, capsys):
        gains = tmp_path / "bad_gains.json"
        gains.write_text(text)
        code = main(["simulate", "--config", str(cfg_path),
                     "--gains", str(gains), "--out", str(tmp_path / "t.csv")])
        err = capsys.readouterr().err
        assert code == 1
        assert "Traceback" not in err
        return err

    def test_non_json_gains_exits_1(self, tmp_path, cfg_path, capsys):
        err = self._simulate_with_gains(tmp_path, cfg_path, "{not json",
                                        capsys)
        assert "<gains>: invalid JSON" in err

    @pytest.mark.parametrize("key", ["scheme", "A_coef", "B_coef", "horizon",
                                     "p", "N", "M", "plant_hash"])
    def test_gains_missing_key_exits_1(self, tmp_path, cfg_path, gains_doc,
                                       capsys, key):
        del gains_doc[key]
        err = self._simulate_with_gains(tmp_path, cfg_path,
                                        json.dumps(gains_doc), capsys)
        assert f"<gains>.{key}: missing field" in err

    @pytest.mark.parametrize("key, value, message", [
        ("M", "x", "expected an integer, got str"),
        ("N", True, "expected an integer, got bool"),
        ("p", 2.0, "expected an integer, got float"),
        ("horizon", 50.0, "expected an integer, got float"),
        ("M", 3, "3 disagrees with the coefficient arrays' 2"),
        ("N", 2, "2 disagrees with the coefficient arrays' 1"),
        ("p", 1, "1 disagrees with the coefficient arrays' 2"),
        ("horizon", 49, "49 disagrees with the coefficient arrays' 50"),
        ("p", 0, "must be >= 1, got 0"),
    ])
    def test_gains_bad_size_field_exits_1(self, tmp_path, cfg_path,
                                          gains_doc, capsys, key, value,
                                          message):
        gains_doc[key] = value
        err = self._simulate_with_gains(tmp_path, cfg_path,
                                        json.dumps(gains_doc), capsys)
        assert err == f"delay-lqgame: config error: <gains>.{key}: {message}\n"

    @pytest.mark.parametrize("key", ["A_coef", "B_coef"])
    def test_gains_wrong_rank_exits_1(self, tmp_path, cfg_path, gains_doc,
                                      capsys, key):
        # One axis short: the first number sits where a row belongs.
        gains_doc[key] = gains_doc[key][0]
        entry = "[0]" * {"A_coef": 3, "B_coef": 4}[key]
        err = self._simulate_with_gains(tmp_path, cfg_path,
                                        json.dumps(gains_doc), capsys)
        assert err == (f"delay-lqgame: config error: <gains>.{key}{entry}: "
                       f"expected an array, got float\n")

    def test_gains_B_coef_of_another_shape_exits_1(self, tmp_path, cfg_path,
                                                   gains_doc, capsys):
        gains_doc["B_coef"] = [[row[:1] for row in step]
                               for step in gains_doc["B_coef"]]
        err = self._simulate_with_gains(tmp_path, cfg_path,
                                        json.dumps(gains_doc), capsys)
        # The prefix of every gains-document fault, as for a ragged row.
        assert err == ("delay-lqgame: config error: <gains>.B_coef: "
                       "shape (50, 2, 1, 1, 1), expected (50, 2, 2, 1, 1)\n")

    def test_ragged_gains_exits_1_naming_the_row(self, tmp_path, cfg_path,
                                                 gains_doc, capsys):
        del gains_doc["A_coef"][3][1][0][-1]
        err = self._simulate_with_gains(tmp_path, cfg_path,
                                        json.dumps(gains_doc), capsys)
        assert err == ("delay-lqgame: config error: <gains>.A_coef[3][1][0]: "
                       "length 1, expected 2\n")

    def test_non_utf8_config_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_bytes(b"\xff\xfe{}")
        assert main(["discretize", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "<config>: not UTF-8 text" in err
        assert "Traceback" not in err

    def test_singular_coupling_exits_2_naming_step_and_controller(
            self, tmp_path, cfg_path, capsys, monkeypatch):
        singular_solve(monkeypatch, 0, index=1)
        code = main(["synthesize", "--config", str(cfg_path),
                     "--out", str(tmp_path / "gains.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert "numerical failure" in err
        assert "at step 49 for controller 2" in err
        assert "Traceback" not in err

    def test_singular_grid_point_exits_2_naming_its_delays(
            self, tmp_path, cfg_path, capsys, monkeypatch):
        # The stack holds the 2x2 grid's plants in row-major order.
        singular_solve(monkeypatch, 1, index=1)
        code = main(["sweep", "--config", str(cfg_path),
                     "--out", str(tmp_path / "sweep.csv")])
        err = capsys.readouterr().err
        assert code == 2
        assert "at step 49 for controller 2" in err
        assert "at delays (0.0, 0.02)" in err
        assert "Traceback" not in err

    def test_missing_config_file_exits_1(self, tmp_path):
        assert main(["discretize", "--config",
                     str(tmp_path / "nope.json")]) == 1

    def test_unknown_subcommand_exits_64(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 64

    def test_unknown_flag_exits_64(self, cfg_path):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", str(cfg_path), "--wat", "1"])
        assert exc.value.code == 64

    def test_missing_subcommand_exits_64(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 64

    def test_gains_of_another_horizon_exit_1(self, tmp_path, cfg_path,
                                             capsys):
        gains = tmp_path / "gains.json"
        assert main(["synthesize", "--config", str(cfg_path),
                     "--out", str(gains)]) == 0
        doc = json.loads(cfg_path.read_text())
        doc["weights"]["horizon"] = 40
        other = _write_doc(tmp_path, doc, "other.json")
        code = main(["simulate", "--config", str(other), "--gains",
                     str(gains), "--out", str(tmp_path / "t.csv")])
        assert code == 1
        assert capsys.readouterr().err == (
            "delay-lqgame: config error: <gains>.horizon: 50 disagrees with "
            "weights.horizon 40\n")

    def test_scheme_with_gains_exits_64_before_any_file(self, tmp_path,
                                                        capsys):
        # The gains file fixes the scheme; neither named file exists, so
        # a command that read either would exit 1 instead.
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", str(tmp_path / "c.json"),
                  "--gains", str(tmp_path / "g.json"), "--scheme",
                  "single_delayed", "--out", str(tmp_path / "t.csv")])
        assert exc.value.code == 64
        err = capsys.readouterr().err
        assert "--scheme" in err and "--gains" in err
        assert list(tmp_path.iterdir()) == []


class TestRepeatedKeys:
    """A repeated object key is refused, naming its path: which of its
    values a reader takes would otherwise be a guess."""

    def test_config_exits_1_naming_the_key(self, tmp_path, cfg_path,
                                           capsys):
        text = cfg_path.read_text().replace(
            '"horizon": 50', '"horizon": -3, "horizon": 50')
        assert text.count('"horizon"') == 2
        cfg_path.write_text(text)
        gains = tmp_path / "gains.json"
        code = main(["synthesize", "--config", str(cfg_path),
                     "--out", str(gains)])
        assert code == 1
        assert capsys.readouterr().err == (
            "delay-lqgame: config error: <document>.weights.horizon: "
            "repeated key\n")
        assert not gains.exists()

    def test_gains_exits_1_naming_the_key(self, tmp_path, cfg_path,
                                          capsys):
        gains = tmp_path / "gains.json"
        assert main(["synthesize", "--config", str(cfg_path),
                     "--out", str(gains)]) == 0
        text = gains.read_text().replace(
            '"scheme": "proposed"',
            '"scheme": "single_delayed", "scheme": "proposed"')
        gains.write_text(text)
        out = tmp_path / "t.csv"
        code = main(["simulate", "--config", str(cfg_path), "--gains",
                     str(gains), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            "delay-lqgame: config error: <gains>.scheme: repeated key\n")
        assert not out.exists()

    def test_sidecar_raises_naming_the_key(self, tmp_path, cfg_path):
        out = tmp_path / "t.csv"
        assert main(["simulate", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
        sidecar = out.with_suffix(".json")
        doc = json.loads(sidecar.read_text())
        sidecar.write_text(json.dumps(doc)[:-1] + ', "total_cost": 0.0}')
        with pytest.raises(SchemaError, match=re.escape(
                f"{sidecar}.total_cost: repeated key")):
            read_trajectory_csv(out)

    def test_names_the_path_of_a_nested_key(self):
        with pytest.raises(SchemaError, match=re.escape(
                "<gains>.a[1].b: repeated key")):
            load_json('{"a": [{"b": 1}, {"c": {}, "b": 1, "b": 1}]}',
                      "<gains>")


def _strict_json(text):
    """json.loads that refuses NaN and Infinity, which are not JSON."""
    def refuse(constant):
        raise ValueError(f"non-finite constant {constant} in the output")
    return json.loads(text, parse_constant=refuse)


def _csv_rows(path):
    """A table CSV as {column: value} rows, numbers parsed, empty cells
    None."""
    header, *lines = path.read_text().splitlines()
    return [{column: (cell if column == "scheme" else
                      float(cell) if cell else None)
             for column, cell in zip(header.split(","), line.split(","))}
            for line in lines]


def _write_doc(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


class TestFiniteOutputs:
    """Every file holds finite numbers only: an undefined sweep ratio is an
    empty CSV cell and JSON null."""

    def _undefined_ratio(self, tmp_path, doc):
        cfg = _write_doc(tmp_path, doc)
        csv_out, json_out = tmp_path / "sweep.csv", tmp_path / "sweep.json"
        assert main(["sweep", "--config", str(cfg), "--out",
                     str(csv_out)]) == 0
        assert main(["sweep", "--config", str(cfg), "--format", "json",
                     "--out", str(json_out)]) == 0
        rows = _strict_json(json_out.read_text())
        assert [row["ratio"] for row in rows] == [None] * len(rows)
        assert _csv_rows(csv_out) == rows
        for line in csv_out.read_text().splitlines()[1:]:
            assert line.endswith(",")
        return rows

    def test_one_controller_has_no_ratio(self, tmp_path):
        doc = {"plant": {"A": [[0.0, 1.0], [-3.0, -4.0]],
                         "B": [[[0.0], [1.0]]], "delays": [0.01], "h": 0.05},
               "weights": {"Q": [[[1.0, 0.0], [0.0, 1.0]]], "R": [[[1.0]]],
                           "horizon": 5},
               "x0": [1.0, 0.0], "sweep": {"delays_grid": [[0.0, 0.01]]}}
        rows = self._undefined_ratio(tmp_path, doc)
        assert [row["td1"] for row in rows] == [0.0, 0.01]

    def test_zero_costs_have_no_ratio(self, tmp_path):
        doc = json.loads(dump_config(preset_generic()))
        doc["x0"] = [0.0, 0.0]
        doc["sweep"]["delays_grid"] = [[0.0, 0.02], [0.0]]
        rows = self._undefined_ratio(tmp_path, doc)
        assert [row["j_total"] for row in rows] == [0.0, 0.0]

    def test_every_json_output_is_strict_json(self, tmp_path, cfg_path):
        gains = tmp_path / "gains.json"
        assert main(["synthesize", "--config", str(cfg_path),
                     "--out", str(gains)]) == 0
        traj = tmp_path / "traj.csv"
        assert main(["simulate", "--config", str(cfg_path),
                     "--gains", str(gains), "--out", str(traj)]) == 0
        for command in ("sweep", "compare"):
            out = tmp_path / f"{command}.json"
            assert main([command, "--config", str(cfg_path), "--format",
                         "json", "--out", str(out)]) == 0
            _strict_json(out.read_text())
        for path in (cfg_path, gains, traj.with_suffix(".json")):
            _strict_json(path.read_text())

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity",
                                         "1e400"])
    @pytest.mark.parametrize("key", ["A_coef", "B_coef"])
    def test_non_finite_gains_entry_exits_1(self, tmp_path, cfg_path,
                                            capsys, key, literal):
        gains = tmp_path / "gains.json"
        assert main(["synthesize", "--config", str(cfg_path),
                     "--out", str(gains)]) == 0
        doc = json.loads(gains.read_text())
        entry, index = doc[key], "[0]"
        while isinstance(entry[0], list):
            entry, index = entry[0], index + "[0]"
        entry[0] = "@"
        gains.write_text(json.dumps(doc).replace('"@"', literal))
        code = main(["simulate", "--config", str(cfg_path), "--gains",
                     str(gains), "--out", str(tmp_path / "t.csv")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"delay-lqgame: config error: <gains>.{key}{index}: expected a "
            f"finite number, got {json.loads(literal)}\n")


DIVERGING = {
    "plant": {"A": [[50.0]], "B": [[[1.0]], [[1.0]]],
              "delays": [0.049, 0.049], "h": 0.05},
    "weights": {"Q": [[[1e6]], [[1e6]]], "R": [[[1e-6]], [[1e-6]]]},
    "x0": [1.0],
    "scheme": "delay_free_game",
}


class TestDivergence:
    """The delay-free design runs away on the delayed plant.  With 200
    steps only its cost overflows; with 500 its states do too.  Either way
    the run exits 2 naming the first non-finite step, and writes nothing."""

    @pytest.fixture(params=[200, 500])
    def diverging(self, request, tmp_path):
        doc = copy.deepcopy(DIVERGING)
        doc["weights"]["horizon"] = request.param
        return _write_doc(tmp_path, doc)

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_exits_2_naming_step_scheme_and_delays(self, tmp_path, capsys,
                                                   diverging, command):
        out = tmp_path / "out.csv"
        code = main([command, "--config", str(diverging), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert re.fullmatch(
            r"delay-lqgame: numerical failure: closed loop diverges: "
            r"non-finite state or cost at step \d+ for scheme "
            r"delay_free_game at delays \(0\.049, 0\.049\)\n", err), err
        assert not out.exists()
        assert not out.with_suffix(".json").exists()

    def test_replayed_gains_exit_2_naming_step(self, tmp_path, capsys,
                                               diverging):
        gains = tmp_path / "gains.json"
        assert main(["synthesize", "--config", str(diverging),
                     "--out", str(gains)]) == 0
        code = main(["simulate", "--config", str(diverging), "--gains",
                     str(gains), "--out", str(tmp_path / "out.csv")])
        err = capsys.readouterr().err
        assert code == 2
        assert re.fullmatch(r"delay-lqgame: numerical failure: closed loop "
                            r"diverges: non-finite state or cost at step "
                            r"\d+\n", err), err

    def test_one_stderr_line_without_warnings(self, diverging):
        # A fresh interpreter with default warning filters, so a numpy
        # overflow warning would show on stderr.
        src = Path(__file__).resolve().parent.parent / "src"
        out = subprocess.run([sys.executable, "-W", "default", "-m",
                              "delay_lqgame", "simulate", "--config",
                              str(diverging), "--out",
                              str(diverging.with_name("out.csv"))],
                             cwd=src, capture_output=True, text=True)
        assert out.returncode == 2
        assert len(out.stderr.splitlines()) == 1, out.stderr
        assert "closed loop diverges" in out.stderr


OVERFLOWING = {
    "plant": {"A": [[300.0, 0.0], [0.0, -1.0]],
              "B": [[[0.0], [1.0]], [[0.0], [2.0]]],
              "delays": [0.01, 0.02], "h": 0.05},
    "weights": {"Q": [[[1.0, 0.0], [0.0, 1.0]]] * 2, "R": [[[1.0]]] * 2,
                "horizon": 100},
    "x0": [0.0, 1.0],
}


class TestValueOverflow:
    """A 300/s mode drives the proposed design's value matrices past the
    float range: the run exits 2 naming the step, the scheme and the
    delays, with no numpy warning, and writes nothing."""

    @pytest.mark.parametrize("command", ["synthesize", "simulate",
                                         "compare"])
    def test_exits_2_with_one_stderr_line(self, tmp_path, command):
        cfg = _write_doc(tmp_path, OVERFLOWING)
        out = tmp_path / "out.csv"
        src = Path(__file__).resolve().parent.parent / "src"
        run = subprocess.run([sys.executable, "-W", "default", "-m",
                              "delay_lqgame", command, "--config", str(cfg),
                              "--out", str(out)],
                             cwd=src, capture_output=True, text=True)
        assert run.returncode == 2
        assert run.stderr == (
            "delay-lqgame: numerical failure: value recursion leaves the "
            "finite range at step 75 for scheme proposed at delays "
            "(0.01, 0.02)\n")
        assert not out.exists()
        assert not out.with_suffix(".json").exists()


class TestTableCommands:
    @pytest.mark.parametrize("preset", ["generic", "lfc"])
    @pytest.mark.parametrize("command", ["sweep", "compare"])
    def test_json_rows_equal_csv_rows(self, tmp_path, preset, command):
        cfg = tmp_path / "cfg.json"
        assert main(["preset", "--name", preset, "--out", str(cfg)]) == 0
        csv_out, json_out = tmp_path / "t.csv", tmp_path / "t.json"
        assert main([command, "--config", str(cfg), "--out",
                     str(csv_out)]) == 0
        assert main([command, "--config", str(cfg), "--format", "json",
                     "--out", str(json_out)]) == 0
        rows = _strict_json(json_out.read_text())
        assert rows == _csv_rows(csv_out)
        config = load_config(cfg.read_text())
        points = len(config.sweep[0]) * len(config.sweep[1])
        assert len(rows) == points * (3 if command == "compare" else 1)

    def test_unshared_weights_warn_once_and_leave_outputs(self, tmp_path,
                                                          cfg_path, capsys):
        config = load_config(cfg_path.read_text())
        weights = config.weights
        weights = replace(weights, Q=(weights.Q[0], 2.0 * weights.Q[1]))
        config = replace(config, weights=weights, x0=np.array(config.x0))
        cfg = tmp_path / "unshared.json"
        cfg.write_text(dump_config(config))
        want = tmp_path / "want"
        want.mkdir()
        write_sweep_csv(sweep_delays(config), want / "sweep.csv")
        write_comparison_csv(compare_schemes(config), want / "compare.csv")
        result = run_scheme(config, config.scheme)
        write_trajectory_csv(result.trajectory, want / "simulate.csv",
                             scheme=result.scheme,
                             delays=config.plant.delays)
        for command in ("simulate", "sweep", "compare"):
            out = tmp_path / f"{command}.csv"
            assert main([command, "--config", str(cfg), "--out",
                         str(out)]) == 0
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                "warning: controllers weight the state differently; "
                "j_total uses controller 1's state weights with every "
                "controller's control effort\n")
            assert out.read_bytes() == (want / out.name).read_bytes()
        assert ((tmp_path / "simulate.json").read_bytes()
                == (want / "simulate.json").read_bytes())
