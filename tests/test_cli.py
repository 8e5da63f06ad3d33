import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import delay_lqgame.cli
import delay_lqgame.schemes
import delay_lqgame.synthesis
from delay_lqgame import (
    DiscretePlant,
    Scheme,
    SingularMatrixError,
    discretize,
    dump_config,
    load_config,
    preset_generic,
)
from delay_lqgame.cli import main

from dataclasses import replace


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


class TestDeterminism:
    def test_sweep_reruns_byte_identical(self, tmp_path, cfg_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        main(["sweep", "--config", str(cfg_path), "--out", str(a)])
        main(["sweep", "--config", str(cfg_path), "--out", str(b)])
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
        assert "plant-hash mismatch" in err

    @pytest.mark.parametrize("path, value, message", [
        (("plant", "A", 0, 0), 1e308,
         "matrix exponential: e^(A t) at t = 0.05 overflows"),
        (("weights", "Q", 0), [[1.7e308, 0.0], [0.0, 1.7e308]],
         "weight range: Q[0] overflows"),
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

    @pytest.mark.parametrize("scheme, plants", [
        ("proposed", 1), ("single_delayed", 1), ("delay_free_game", 2)])
    def test_fused_simulate_discretizes_each_plant_once(
            self, tmp_path, cfg_path, monkeypatch, scheme, plants):
        calls = []

        def counting(plant):
            calls.append(plant.delays)
            return discretize(plant)

        for module in (delay_lqgame.cli, delay_lqgame.schemes):
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
                                     "p"])
    def test_gains_missing_key_exits_1(self, tmp_path, cfg_path, gains_doc,
                                       capsys, key):
        del gains_doc[key]
        err = self._simulate_with_gains(tmp_path, cfg_path,
                                        json.dumps(gains_doc), capsys)
        assert f"<gains>.{key}: missing field" in err

    @pytest.mark.parametrize("key", ["A_coef", "B_coef"])
    def test_gains_wrong_rank_exits_1(self, tmp_path, cfg_path, gains_doc,
                                      capsys, key):
        gains_doc[key] = gains_doc[key][0]
        err = self._simulate_with_gains(tmp_path, cfg_path,
                                        json.dumps(gains_doc), capsys)
        assert f"<gains>.{key}: expected" in err

    def test_non_utf8_config_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_bytes(b"\xff\xfe{}")
        assert main(["discretize", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "<config>: not UTF-8 text" in err
        assert "Traceback" not in err

    def test_singular_coupling_exits_2_naming_step_and_controller(
            self, tmp_path, cfg_path, capsys, monkeypatch):
        def explode(A, B):
            raise SingularMatrixError("forced", 0.0, 1)

        monkeypatch.setattr(delay_lqgame.synthesis.lin_ops, "solve", explode)
        code = main(["synthesize", "--config", str(cfg_path),
                     "--out", str(tmp_path / "gains.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert "numerical failure" in err
        assert "at step 49 for controller 2" in err
        assert "Traceback" not in err

    def test_singular_grid_point_exits_2_naming_its_delays(
            self, tmp_path, cfg_path, capsys, monkeypatch):
        solve = delay_lqgame.synthesis.lin_ops.solve
        calls = []

        def singular_for_plant_one(A, B):
            # The first step solves the 2x2 grid's plants in order.
            calls.append(None)
            if len(calls) == 2:
                raise SingularMatrixError("forced", 0.0, 1)
            return solve(A, B)

        monkeypatch.setattr(delay_lqgame.synthesis.lin_ops, "solve",
                            singular_for_plant_one)
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
