import json
import os
import subprocess
import sys
from dataclasses import replace
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from delay_lqgame import (
    ContinuousPlant,
    DelayBoundError,
    DelayGameError,
    DimensionError,
    DiscretePlant,
    ExperimentConfig,
    GameWeights,
    NumericalError,
    SchemaError,
    Scheme,
    ValidationError,
    config_to_dict,
    discretize,
    dump_config,
    load_config,
    preset_generic,
    preset_lfc,
    run_scheme,
    synthesize_for_scheme,
)

from delay_lqgame.model import dump_json, exp_pairs, write_csv
from delay_lqgame.synthesis import GainSchedule

from conftest import random_stable_plant
from oracles import (
    exp_integral,
    lone_discretize,
    select_controller,
    simpson_exp_integral,
)

MINIMAL_DOC = """
{
  "plant": {"A": [[-1.0]], "B": [[[1.0]]], "delays": [0.0], "h": 1.0},
  "weights": {"Q": [[[1.0]]], "R": [[[1.0]]], "horizon": 5}
}
"""


class TestDiscretize:
    def test_zero_dynamics_splits_by_delay_fraction(self):
        plant = ContinuousPlant(A=[[0.0]], B=([[1.0]],), delays=(0.25,), h=1.0)
        dp = discretize(plant)
        np.testing.assert_allclose(dp.Phi, [[1.0]], rtol=0, atol=1e-15)
        np.testing.assert_allclose(dp.Gamma0[0], [[0.75]], rtol=1e-14)
        np.testing.assert_allclose(dp.Gamma1[0], [[0.25]], rtol=1e-14)

    def test_zero_delay_gives_exactly_zero_gamma1(self):
        plant = ContinuousPlant(A=[[0.0, 1.0], [-3.0, -4.0]],
                                B=([[0.0], [1.0]],), delays=(0.0,), h=0.05)
        dp = discretize(plant)
        assert np.all(dp.Gamma1[0] == 0.0)

    def test_generic_plant_against_quadrature(self):
        plant = ContinuousPlant(
            A=[[0.0, 1.0], [-3.0, -4.0]],
            B=([[0.0], [1.0]], [[0.0], [1.0]]),
            delays=(0.01, 0.01), h=0.05)
        dp = discretize(plant)
        for i in range(2):
            g0 = simpson_exp_integral(plant.A, 0.0, 0.04, tol=1e-11) @ plant.B[i]
            g1 = simpson_exp_integral(plant.A, 0.04, 0.05, tol=1e-11) @ plant.B[i]
            np.testing.assert_allclose(dp.Gamma0[i], g0, rtol=0, atol=1e-8)
            np.testing.assert_allclose(dp.Gamma1[i], g1, rtol=0, atol=1e-8)

    @pytest.mark.parametrize("seed", range(6))
    def test_split_conservation(self, seed):
        rng = np.random.default_rng(200 + seed)
        plant = random_stable_plant(rng, p=int(rng.integers(1, 4)))
        dp = discretize(plant)
        total = exp_integral(plant.A, 0.0, plant.h)
        for i in range(plant.p):
            np.testing.assert_allclose(dp.Gamma0[i] + dp.Gamma1[i],
                                       total @ plant.B[i], rtol=0, atol=1e-9)

    def test_gamma1_linear_in_delay_for_zero_dynamics(self):
        taus = [0.1, 0.2, 0.4]
        vals = []
        for tau in taus:
            plant = ContinuousPlant(A=[[0.0]], B=([[1.0]],), delays=(tau,), h=1.0)
            vals.append(discretize(plant).Gamma1[0][0, 0])
        np.testing.assert_allclose(vals, taus, rtol=1e-13)

    def test_delay_at_h_rejected(self):
        with pytest.raises(DelayBoundError, match="delay-bound"):
            ContinuousPlant(A=[[0.0]], B=([[1.0]],), delays=(1.0,), h=1.0)

    def test_negative_delay_rejected(self):
        with pytest.raises(DelayBoundError):
            ContinuousPlant(A=[[0.0]], B=([[1.0]],), delays=(-0.1,), h=1.0)

    def test_conservation_tolerance_scales_with_the_input_matrix(self):
        # The generic plant in larger input units: Gamma0 + Gamma1 drifts
        # by ~2e-9 in absolute terms, a few ulps of its ~5e8 entries.
        plant = replace(preset_generic().plant,
                        B=tuple(1e10 * b for b in preset_generic().plant.B))
        dp = discretize(plant)
        total = exp_integral(plant.A, 0.0, plant.h)
        for i in range(plant.p):
            np.testing.assert_allclose(dp.Gamma0[i] + dp.Gamma1[i],
                                       total @ plant.B[i], rtol=1e-9)


def _assert_lone_assembly(dp, plant):
    Phi, Gamma0, Gamma1 = lone_discretize(plant)
    np.testing.assert_array_equal(dp.Phi, Phi)
    for got, want in zip(dp.Gamma0 + dp.Gamma1, Gamma0 + Gamma1):
        np.testing.assert_array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


class TestStackedDiscretization:
    """discretize takes every exponential from one stacked pass, its own
    or one shared by a grid's points; either way each plant must equal
    the delay split assembled one lone exponential per time, bit for
    bit."""

    @pytest.mark.parametrize("preset", [preset_generic, preset_lfc],
                             ids=["generic", "lfc"])
    def test_full_grid_equals_the_lone_assembly(self, preset):
        config = preset()
        points = list(product(*config.sweep))
        pairs = exp_pairs(config.plant, points)
        for point in points:
            plant = config.plant.with_delays(point)
            _assert_lone_assembly(discretize(plant), plant)
            _assert_lone_assembly(discretize(plant, pairs), plant)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_seeded_plants_equal_the_lone_assembly(self, p):
        rng = np.random.default_rng(300 + p)
        for zero_delays in (False, True, False, True):
            plant = random_stable_plant(rng, p=p, zero_delays=zero_delays)
            _assert_lone_assembly(discretize(plant), plant)
            # Controller 1 undelayed, the others not.
            mixed = plant.with_delays((0.0,) + tuple(
                rng.uniform(0.0, 0.98 * plant.h, size=p - 1).tolist()))
            _assert_lone_assembly(discretize(mixed), mixed)

    def test_pairs_hold_each_distinct_time_once(self):
        plant = preset_generic().plant
        pairs = exp_pairs(plant, [(0.0, 0.01), (0.01, 0.02), (0.0, 0.0)])
        assert list(pairs) == [0.05, 0.05 - 0.01, 0.01, 0.05 - 0.02, 0.02]


class TestConfigDocuments:
    def test_minimal_document_defaults(self):
        config = load_config(MINIMAL_DOC)
        assert config.plant.p == 1 and config.plant.M == 1
        np.testing.assert_array_equal(config.x0, [0.0])
        assert config.scheme is Scheme.PROPOSED
        assert config.sweep is None
        # QN defaults to Q
        np.testing.assert_array_equal(config.weights.QN[0], config.weights.Q[0])

    def test_delay_equal_to_h_names_the_invariant(self):
        doc = json.loads(MINIMAL_DOC)
        doc["plant"]["delays"] = [1.0]
        with pytest.raises(DelayBoundError, match="delay-bound"):
            load_config(json.dumps(doc))

    def test_sc_ca_delays_are_summed(self):
        doc = json.loads(MINIMAL_DOC)
        doc["plant"]["delays"] = [{"sc": 0.25, "ca": 0.5}]
        config = load_config(json.dumps(doc))
        assert config.plant.delays == (0.75,)

    def test_unknown_top_level_key(self):
        doc = json.loads(MINIMAL_DOC)
        doc["extra"] = 1
        with pytest.raises(SchemaError, match="extra"):
            load_config(json.dumps(doc))

    def test_unknown_nested_key_has_path(self):
        doc = json.loads(MINIMAL_DOC)
        doc["plant"]["C"] = [[1.0]]
        with pytest.raises(SchemaError, match=r"plant\.C"):
            load_config(json.dumps(doc))

    def test_ragged_matrix_has_row_path(self):
        doc = json.loads(MINIMAL_DOC)
        doc["plant"]["A"] = [[1.0, 2.0], [3.0]]
        with pytest.raises(SchemaError, match=r"plant\.A\[1\]"):
            load_config(json.dumps(doc))

    def test_invalid_json_is_a_schema_error(self):
        with pytest.raises(SchemaError, match="invalid JSON"):
            load_config("{not json")

    def test_bad_scheme_lists_choices(self):
        doc = json.loads(MINIMAL_DOC)
        doc["scheme"] = "magic"
        with pytest.raises(SchemaError, match="proposed"):
            load_config(json.dumps(doc))

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity",
                                         "1e400"])
    @pytest.mark.parametrize("field, path", [
        (("plant", "A", 0, 0), r"plant\.A\[0\]\[0\]"),
        (("plant", "delays", 0, "ca"), r"plant\.delays\[0\]\.ca"),
        (("plant", "h"), r"plant\.h"),
        (("weights", "R", 0, 0, 0), r"weights\.R\[0\]\[0\]\[0\]"),
        (("x0", 0), r"x0\[0\]"),
        (("sweep", "delays_grid", 0, 0), r"sweep\.delays_grid\[0\]\[0\]"),
    ])
    def test_non_finite_number_names_its_field(self, field, path, literal):
        doc = json.loads(MINIMAL_DOC)
        doc["plant"]["delays"] = [{"sc": 0.0, "ca": 0.0}]
        doc["x0"] = [1.0]
        doc["sweep"] = {"delays_grid": [[0.0]]}
        *keys, last = field
        parent = doc
        for key in keys:
            parent = parent[key]
        parent[last] = "@"
        text = json.dumps(doc).replace('"@"', literal)
        with pytest.raises(SchemaError,
                           match=f"^{path}: expected a finite number"):
            load_config(text)

    def test_missing_fields_are_named_in_schema_order(self):
        # Not in a set's iteration order, which follows the string hash
        # seed and so changed from one process to the next.
        doc = json.loads(MINIMAL_DOC)
        del doc["plant"]["A"], doc["plant"]["h"]
        code = ("from delay_lqgame import SchemaError, load_config\n"
                "try:\n"
                f"    load_config({json.dumps(doc)!r})\n"
                "except SchemaError as exc:\n"
                "    print(exc)\n")
        src = Path(__file__).resolve().parent.parent / "src"
        messages = {subprocess.run(
            [sys.executable, "-c", code], cwd=src, capture_output=True,
            text=True, check=True,
            env={**os.environ, "PYTHONHASHSEED": str(seed)}).stdout
            for seed in range(1, 7)}
        assert messages == {"plant.A: missing field\n"}

    def test_round_trip_is_identity(self, generic_config):
        reloaded = load_config(dump_config(generic_config))
        assert config_to_dict(reloaded) == config_to_dict(generic_config)

    def test_round_trip_lfc(self, lfc_config):
        reloaded = load_config(dump_config(lfc_config))
        assert config_to_dict(reloaded) == config_to_dict(lfc_config)

    def test_sweep_grid_outside_bound_rejected(self):
        doc = json.loads(MINIMAL_DOC)
        doc["sweep"] = {"delays_grid": [[0.0, 1.0]]}
        with pytest.raises(DelayBoundError, match="delay-bound"):
            load_config(json.dumps(doc))


class TestWeights:
    def test_mild_asymmetry_is_symmetrized(self):
        Q = np.eye(2)
        Q[0, 1] = 5e-13
        w = GameWeights(Q=(Q,), QN=(Q,), R=(np.eye(1),), horizon=3)
        np.testing.assert_array_equal(w.Q[0], w.Q[0].T)

    def test_gross_asymmetry_rejected(self):
        Q = np.eye(2)
        Q[0, 1] = 1e-6
        with pytest.raises(ValidationError, match="symmetry"):
            GameWeights(Q=(Q,), QN=(Q,), R=(np.eye(1),), horizon=3)

    def test_indefinite_running_weight_rejected(self):
        Q = np.diag([1.0, -1.0])
        with pytest.raises(ValidationError, match="definite"):
            GameWeights(Q=(Q,), QN=(np.eye(2),), R=(np.eye(1),), horizon=3)

    def test_semidefinite_control_weight_rejected(self):
        with pytest.raises(ValidationError, match="definite"):
            GameWeights(Q=(np.eye(2),), QN=(np.eye(2),),
                        R=(np.zeros((1, 1)),), horizon=3)

    def test_symmetry_tolerance_scales_with_the_weight(self):
        # X X' with entries near 1e8, one entry moved up by one ulp (a
        # few 1e-8): serialization noise at that scale, symmetrized away.
        X = 1e4 * np.random.default_rng(5).normal(size=(3, 3))
        Q = X @ X.T
        Q[0, 1] = np.nextafter(Q[0, 1], np.inf)
        assert np.abs(Q - Q.T).max() > 1e-12
        w = GameWeights(Q=(Q,), QN=(Q,), R=(np.eye(1),), horizon=3)
        np.testing.assert_array_equal(w.Q[0], w.Q[0].T)
        np.testing.assert_allclose(w.Q[0], X @ X.T, rtol=1e-15)

    def test_nonpositive_horizon_rejected(self):
        with pytest.raises(ValidationError, match="horizon"):
            GameWeights(Q=(np.eye(1),), QN=(np.eye(1),), R=(np.eye(1),),
                        horizon=0)

    def test_weights_built_in_code_name_no_document_path(self):
        eye = np.eye(2)
        with pytest.raises(ValidationError, match=r"^weight symmetry: "
                                                  r"QN\[1\] is asymmetric"):
            GameWeights(Q=(eye, eye), QN=(eye, np.triu(np.ones((2, 2)))),
                        R=(np.eye(1),) * 2, horizon=3)
        with pytest.raises(ValidationError, match=r"^weight definiteness: "
                                                  r"R\[1\] must be positive"):
            GameWeights(Q=(eye, eye), QN=(eye, eye),
                        R=(np.eye(1), -np.eye(1)), horizon=3)
        with pytest.raises(ValidationError, match=r"^horizon: 160000000 "
                                                  r"entries exceed"):
            GameWeights(Q=(eye, eye), QN=(eye, eye), R=(np.eye(1),) * 2,
                        horizon=10**7)

    def test_plant_built_in_code_names_no_document_path(self):
        with pytest.raises(DimensionError, match=r"^B\[0\]: shape \(1, 1\), "
                                                 r"expected \(2, 1\)$"):
            ContinuousPlant(A=np.eye(2), B=(np.ones((1, 1)),) * 2,
                            delays=(0.0, 0.0), h=0.1)
        with pytest.raises(DelayBoundError, match=r"^delay-bound: delay\[1\]"):
            ContinuousPlant(A=np.eye(2), B=(np.ones((2, 1)),) * 2,
                            delays=(0.0, 0.1), h=0.1)


class TestPresets:
    def test_generic_parameters(self, generic_config):
        assert generic_config.plant.h == 0.05
        assert generic_config.weights.horizon == 50
        np.testing.assert_array_equal(generic_config.plant.A,
                                      [[0.0, 1.0], [-3.0, -4.0]])
        for i in range(2):
            np.testing.assert_array_equal(generic_config.weights.Q[i],
                                          100.0 * np.eye(2))
            np.testing.assert_array_equal(generic_config.weights.R[i], [[1.0]])

    def test_lfc_matrix_entries(self, lfc_config):
        A = lfc_config.plant.A
        assert A.shape == (9, 9)
        assert A[6, 0] == 2.4
        assert A[6, 3] == -2.4
        np.testing.assert_allclose(A[1, 1], -1.0 / 0.3, rtol=1e-15)
        assert lfc_config.plant.h == 0.01

    def test_lfc_actuation_is_per_area(self, lfc_config):
        B1, B2 = lfc_config.plant.B
        e8 = np.zeros((9, 1))
        e8[7, 0] = 1.0
        e9 = np.zeros((9, 1))
        e9[8, 0] = 1.0
        np.testing.assert_array_equal(B1, e8)
        np.testing.assert_array_equal(B2, e9)

    def test_lfc_cost_weights_tie_line_only(self, lfc_config):
        for Q in (*lfc_config.weights.Q, *lfc_config.weights.QN):
            want = np.zeros((9, 9))
            want[6, 6] = 1.0
            np.testing.assert_array_equal(Q, want)

    def test_presets_pass_all_type_invariants(self):
        # Construction itself runs the validators; also cross-check shapes.
        for config in (preset_generic(), preset_lfc()):
            assert config.weights.p == config.plant.p
            assert config.x0.shape == (config.plant.M,)
            assert config.sweep is not None
            for grid in config.sweep:
                assert all(0.0 <= v < config.plant.h for v in grid)


class TestDomainTypes:
    def test_mismatched_b_shapes_rejected(self):
        with pytest.raises(DimensionError):
            ContinuousPlant(A=np.eye(2), B=(np.ones((2, 1)), np.ones((2, 2))),
                            delays=(0.0, 0.0), h=1.0)

    def test_x0_length_checked(self):
        plant = ContinuousPlant(A=[[0.0]], B=([[1.0]],), delays=(0.0,), h=1.0)
        weights = GameWeights(Q=([[1.0]],), QN=([[1.0]],), R=([[1.0]],),
                              horizon=2)
        with pytest.raises(DimensionError):
            ExperimentConfig(plant=plant, weights=weights, x0=[1.0, 2.0])

    def test_select_controller(self, generic_dp):
        single = select_controller(generic_dp, 1)
        assert single.p == 1
        np.testing.assert_array_equal(single.Gamma0[0], generic_dp.Gamma0[1])

    def test_non_finite_entries_rejected(self):
        with pytest.raises(DimensionError):
            DiscretePlant(Phi=[[np.nan]], Gamma0=([[1.0]],), Gamma1=([[0.0]],))

    def test_array_records_compare_and_hash_by_identity(self):
        # Two loads of one preset: equal documents, distinct objects.
        first, second = (load_config(dump_config(preset_lfc()))
                         for _ in range(2))
        assert config_to_dict(first) == config_to_dict(second)
        results = [run_scheme(c, Scheme.PROPOSED) for c in (first, second)]
        pairs = [(first, second), (first.plant, second.plant),
                 (first.weights, second.weights),
                 (discretize(first.plant), discretize(second.plant)),
                 tuple(results),
                 tuple(r.schedule for r in results),
                 tuple(r.trajectory for r in results)]
        for a, b in pairs:
            assert a == a and a != b
            assert hash(a) == hash(a)
            assert len({a, b}) == 2

    @pytest.mark.parametrize("name", ["Gamma0", "Gamma1"])
    @pytest.mark.parametrize("bad", [None, 1.0])
    def test_input_matrices_without_entries_name_the_field(self, name, bad):
        args = dict(Phi=[[1.0]], Gamma0=([[1.0]],), Gamma1=([[0.0]],))
        with pytest.raises(SchemaError, match=f"^{name}: expected a sequence, "
                                              f"got {type(bad).__name__}$"):
            DiscretePlant(**{**args, name: bad})


def _plant(**changes):
    generic = preset_generic().plant
    args = dict(A=generic.A, B=generic.B, delays=generic.delays, h=generic.h)
    return ContinuousPlant(**{**args, **changes})


def _weights(**changes):
    generic = preset_generic().weights
    args = dict(Q=generic.Q, QN=generic.QN, R=generic.R,
                horizon=generic.horizon)
    return GameWeights(**{**args, **changes})


def _config(**changes):
    generic = preset_generic()
    args = dict(plant=generic.plant, weights=generic.weights, x0=generic.x0,
                sweep=generic.sweep)
    return ExperimentConfig(**{**args, **changes})


class TestApiArguments:
    """Every malformed argument of the public constructors and entry
    points raises a DelayGameError whose message leads with the field."""

    @pytest.mark.parametrize("build, field", [
        pytest.param(lambda: _plant(A="x"), "A: ", id="A-string"),
        pytest.param(lambda: _plant(A=[[0.0, 1.0], [-3.0]]), "A: ",
                     id="A-ragged"),
        pytest.param(lambda: _plant(B=([[0.0], ["x"]], [[0.0], [1.0]])),
                     "B[0]: ", id="B-string-entry"),
        pytest.param(lambda: _plant(h=None), "h: ", id="h-None"),
        pytest.param(lambda: _plant(h="0.05"), "h: ", id="h-string"),
        pytest.param(lambda: _plant(h=True), "h: ", id="h-bool"),
        pytest.param(lambda: _plant(delays=None), "delays: ",
                     id="delays-None"),
        pytest.param(lambda: _plant(delays=(np.nan, 0.01)), "delays[0]: ",
                     id="delays-nan"),
        pytest.param(lambda: _weights(Q=("x", "x")), "Q[0]: ",
                     id="Q-strings"),
        pytest.param(lambda: _weights(horizon="5"), "horizon: ",
                     id="horizon-string"),
        pytest.param(lambda: _weights(horizon=True), "horizon: ",
                     id="horizon-bool"),
        pytest.param(lambda: _weights(horizon=np.inf), "horizon: ",
                     id="horizon-inf"),
        pytest.param(lambda: _config(x0=["a", 1]), "x0: ", id="x0-string"),
        pytest.param(lambda: _config(sweep=((0.0, "x"), (0.0,))),
                     "sweep.delays_grid[0][1]: ", id="sweep-string"),
        pytest.param(lambda: _config(sweep=((0.0,), (np.nan,))),
                     "sweep.delays_grid[1][0]: ", id="sweep-nan"),
        pytest.param(lambda: _config(scheme="x"), "scheme: ",
                     id="config-scheme"),
        pytest.param(lambda: synthesize_for_scheme(preset_generic(), "x"),
                     "scheme: ", id="synthesize_for_scheme"),
        pytest.param(lambda: run_scheme(preset_generic(), "x"), "scheme: ",
                     id="run_scheme"),
        pytest.param(lambda: GainSchedule(Scheme.PROPOSED, "x", "y"),
                     "A_coef: ", id="GainSchedule-strings"),
    ])
    def test_malformed_argument_names_its_field(self, build, field):
        with pytest.raises(DelayGameError) as err:
            build()
        assert str(err.value).startswith(field)

    def test_numpy_scalars_and_scheme_names_are_accepted(self):
        plant = _plant(h=np.float32(0.05), delays=np.array([0.01, 0.0]))
        assert type(plant.h) is float and plant.h == float(np.float32(0.05))
        assert plant.delays == (0.01, 0.0)
        assert type(plant.delays[0]) is float
        weights = _weights(horizon=np.int64(50))
        assert type(weights.horizon) is int and weights.horizon == 50
        assert _config(scheme="single_delayed").scheme is Scheme.SINGLE_DELAYED

    def test_schema_error_is_a_validation_error(self):
        with pytest.raises(ValidationError):
            _weights(horizon=2.0)
        assert issubclass(SchemaError, ValidationError)


def _document_with(section, key, value):
    doc = config_to_dict(preset_generic())
    doc[section][key] = value
    return json.dumps(doc)


class TestEmptyAndNonArrayFields:
    """A field that must list entries but holds none, or a document field
    that is not an array, raises SchemaError naming the field."""

    @pytest.mark.parametrize("build, message", [
        pytest.param(lambda: _plant(B=()),
                     "B: expected a non-empty sequence", id="plant-B"),
        pytest.param(lambda: DiscretePlant(Phi=[[1.0]], Gamma0=(),
                                           Gamma1=()),
                     "Gamma0: expected a non-empty sequence", id="Gamma0"),
        pytest.param(lambda: _weights(Q=()),
                     "Q: expected a non-empty sequence", id="weights-Q"),
        pytest.param(lambda: _config(sweep=((), (0.0,))),
                     "sweep.delays_grid[0]: expected a non-empty sequence",
                     id="sweep-grid"),
        pytest.param(lambda: load_config(
            _document_with("plant", "delays", 0.01)),
                     "plant.delays: expected an array", id="plant.delays"),
        pytest.param(lambda: load_config(
            _document_with("sweep", "delays_grid", 0.0)),
                     "sweep.delays_grid: expected an array of arrays",
                     id="sweep.delays_grid"),
    ])
    def test_names_the_field(self, build, message):
        with pytest.raises(SchemaError) as err:
            build()
        assert str(err.value) == message

    @pytest.mark.parametrize("name", ["A_coef", "B_coef"])
    def test_non_finite_gains_name_the_array(self, name):
        coef = dict(A_coef=np.zeros((2, 1, 1, 1)),
                    B_coef=np.zeros((2, 1, 1, 1, 1)))
        coef[name][1, 0, 0, 0] = np.inf
        with pytest.raises(ValidationError) as err:
            GainSchedule(Scheme.PROPOSED, **coef)
        assert str(err.value) == (f"{name}: gain schedule contains "
                                  f"non-finite entries")


class TestFileEncoders:
    def test_csv_cells(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv([{"k": 0, "name": "proposed", "x": 0.1, "u": None},
                   {"k": 1, "name": "single_delayed", "x": np.float64(-2.5),
                    "u": 1e-300}], path)
        assert path.read_text() == ("k,name,x,u\n0,proposed,0.1,\n"
                                    "1,single_delayed,-2.5,1e-300\n")

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_csv_refuses_non_finite(self, tmp_path, value):
        path = tmp_path / "t.csv"
        with pytest.raises(NumericalError):
            write_csv([{"x": 1.0}, {"x": value}], path)
        assert not path.exists()

    def test_json_writes_none_as_null(self):
        assert dump_json({"ratio": None, "j": [0.5]}) == (
            '{\n  "ratio": null,\n  "j": [\n    0.5\n  ]\n}\n')

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_json_refuses_non_finite(self, value):
        with pytest.raises(NumericalError):
            dump_json({"rows": [{"ratio": float(value)}]})
