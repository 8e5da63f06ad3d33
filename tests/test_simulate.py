import hashlib
import json
import warnings
from dataclasses import replace

import numpy as np
import pytest

from delay_lqgame import (
    DimensionError,
    DiscretePlant,
    GainSchedule,
    GameWeights,
    NumericalError,
    SchemaError,
    Scheme,
    Trajectory,
    ValidationError,
    deviation,
    discretize,
    model,
    evaluate_costs,
    nash_deviation_check,
    preset_generic,
    preset_lfc,
    read_trajectory_csv,
    rollout,
    simulate,
    synthesize,
    write_trajectory_csv,
)

from conftest import random_stable_plant, random_weights
from oracles import (
    _dense_closed_loop,
    closed_loop,
    dense_deviation_check,
    per_trial_deviation_check,
    quadratic_costs,
    select_controller,
    select_player,
)


@pytest.fixture(scope="module")
def generic_schedule(generic_dp, generic_config):
    return synthesize(generic_dp, generic_config.weights)


def zero_schedule(dp, horizon):
    return GainSchedule(Scheme.PROPOSED,
                        np.zeros((horizon, dp.p, dp.N, dp.M)),
                        np.zeros((horizon, dp.p, dp.p, dp.N, dp.N)))


class TestRollout:
    def test_zero_initial_state_is_identically_zero(self, generic_dp,
                                                    generic_config,
                                                    generic_schedule):
        tr = rollout(generic_dp, generic_schedule, np.zeros(2),
                     generic_config.weights)
        assert np.all(tr.states == 0.0)
        assert np.all(tr.controls == 0.0)
        assert tr.total_cost == 0.0
        assert np.all(tr.per_player_cost == 0.0)

    def test_zero_gains_give_open_loop(self, generic_dp, generic_config):
        sched = zero_schedule(generic_dp, 10)
        w = GameWeights(Q=generic_config.weights.Q,
                        QN=generic_config.weights.QN,
                        R=generic_config.weights.R, horizon=10)
        x0 = np.array([1.0, -0.5])
        tr = rollout(generic_dp, sched, x0, w)
        assert np.all(tr.controls == 0.0)
        x = x0
        for k in range(10):
            x = generic_dp.Phi @ x
            np.testing.assert_allclose(tr.states[k + 1], x, rtol=0, atol=1e-12)

    def test_first_transition_hand_computed(self, generic_dp, generic_config,
                                            generic_schedule):
        x0 = np.array([1.0, 0.0])
        tr = rollout(generic_dp, generic_schedule, x0, generic_config.weights)
        for i in range(2):
            want_u = generic_schedule.A_coef[0, i] @ x0
            np.testing.assert_allclose(tr.controls[0, i], want_u, rtol=0,
                                       atol=1e-12)
        want_x1 = generic_dp.Phi @ x0
        for i in range(2):
            want_x1 = want_x1 + generic_dp.Gamma0[i] @ tr.controls[0, i]
        np.testing.assert_allclose(tr.states[1], want_x1, rtol=0, atol=1e-12)

    def test_dynamics_residual(self, generic_dp, generic_config,
                               generic_schedule):
        tr = rollout(generic_dp, generic_schedule, generic_config.x0,
                     generic_config.weights)
        u_prev = np.zeros((2, 1))
        for k in range(tr.horizon):
            want = generic_dp.Phi @ tr.states[k]
            for i in range(2):
                want = want + generic_dp.Gamma0[i] @ tr.controls[k, i]
                want = want + generic_dp.Gamma1[i] @ u_prev[i]
            assert np.abs(tr.states[k + 1] - want).max() <= 1e-10
            u_prev = tr.controls[k]

    def test_quadratic_homogeneity(self, generic_dp, generic_config,
                                   generic_schedule):
        x0 = np.array(generic_config.x0)
        tr1 = rollout(generic_dp, generic_schedule, x0, generic_config.weights)
        tr2 = rollout(generic_dp, generic_schedule, 2.0 * x0,
                      generic_config.weights)
        np.testing.assert_allclose(tr2.states, 2.0 * tr1.states, rtol=1e-12,
                                   atol=1e-12)
        np.testing.assert_allclose(tr2.controls, 2.0 * tr1.controls,
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(tr2.total_cost, 4.0 * tr1.total_cost,
                                   rtol=1e-12)
        np.testing.assert_allclose(tr2.per_player_cost,
                                   4.0 * tr1.per_player_cost, rtol=1e-12)

    def test_cost_matches_value_function(self, generic_dp, generic_config):
        # The realized cost of each controller equals its quadratic
        # cost-to-go evaluated at the initial stacked state.
        sched, values = synthesize(generic_dp, generic_config.weights,
                                   return_values=True)
        x0 = np.array(generic_config.x0)
        tr = rollout(generic_dp, sched, x0, generic_config.weights)
        for i in range(2):
            want = x0 @ values[0][i][:2, :2] @ x0
            np.testing.assert_allclose(tr.per_player_cost[i], want, rtol=1e-9)

    def test_dimension_mismatch_rejected(self, generic_dp, generic_config,
                                         generic_schedule):
        with pytest.raises(DimensionError):
            rollout(generic_dp, generic_schedule, np.zeros(3),
                    generic_config.weights)
        dp1 = select_controller(generic_dp, 0)
        with pytest.raises(DimensionError):
            rollout(dp1, generic_schedule, np.zeros(2),
                    generic_config.weights)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_x0_rejected(self, generic_dp, generic_config,
                                    generic_schedule, bad):
        with pytest.raises(ValidationError, match="x0 contains non-finite"):
            rollout(generic_dp, generic_schedule, [bad, 0.0],
                    generic_config.weights)


class TestEvaluateCosts:
    def test_zero_trajectory(self, generic_config):
        tr = Trajectory(states=np.zeros((51, 2)), controls=np.zeros((50, 2, 1)),
                        per_player_cost=np.zeros(2), total_cost=0.0)
        total, per_player = evaluate_costs(tr, generic_config.weights)
        assert total == 0.0 and per_player == (0.0, 0.0)

    def test_scalar_hand_sum(self):
        # x(0)=1, x(1)=2, u(0)=3, Q=QN=R=1: J = 2^2 + (1^2 + 3^2) = 14.
        w = GameWeights(Q=([[1.0]],), QN=([[1.0]],), R=([[1.0]],), horizon=1)
        tr = Trajectory(states=np.array([[1.0], [2.0]]),
                        controls=np.array([[[3.0]]]),
                        per_player_cost=np.zeros(1), total_cost=0.0)
        total, per_player = evaluate_costs(tr, w)
        assert total == 14.0 and per_player == (14.0,)

    def test_matches_rollout_costs(self, generic_dp, generic_config,
                                   generic_schedule):
        tr = rollout(generic_dp, generic_schedule, generic_config.x0,
                     generic_config.weights)
        total, per_player = evaluate_costs(tr, generic_config.weights)
        assert total == tr.total_cost
        np.testing.assert_array_equal(per_player, tr.per_player_cost)

    def test_weights_of_another_plant_rejected(self, generic_dp,
                                               generic_config,
                                               generic_schedule, lfc_config):
        tr = rollout(generic_dp, generic_schedule, generic_config.x0,
                     generic_config.weights)
        with pytest.raises(DimensionError, match=r"^trajectory\.states: "
                                                 r"shape \(51, 2\), "
                                                 r"expected \(51, 9\)$"):
            evaluate_costs(tr, lfc_config.weights)

    def test_weights_of_another_horizon_rejected(self, generic_dp,
                                                 generic_config,
                                                 generic_schedule):
        tr = rollout(generic_dp, generic_schedule, generic_config.x0,
                     generic_config.weights)
        short = replace(generic_config.weights, horizon=10)
        with pytest.raises(DimensionError, match=r"^trajectory\.controls: "
                                                 r"shape \(50, 2, 1\), "
                                                 r"expected \(10, 2, 1\)$"):
            evaluate_costs(tr, short)

    @pytest.mark.parametrize("array, index, value, step", [
        ("states", 7, np.inf, 7),
        ("states", 50, np.nan, 50),
        ("controls", 4, np.nan, 4),
        ("states", 3, 1e200, 3),    # finite, but its cost overflows
    ])
    def test_non_finite_cost_names_its_first_step(self, generic_config,
                                                  array, index, value, step):
        arrays = {"states": np.ones((51, 2)), "controls": np.ones((50, 2, 1))}
        arrays[array][index] = value
        tr = Trajectory(**arrays, per_player_cost=np.zeros(2), total_cost=0.0)
        with pytest.raises(NumericalError,
                           match=f"non-finite state or cost at step {step}$"):
            evaluate_costs(tr, generic_config.weights)


class TestSerialization:
    def test_round_trip_costs_exact(self, tmp_path, generic_dp,
                                    generic_config, generic_schedule):
        tr = rollout(generic_dp, generic_schedule, generic_config.x0,
                     generic_config.weights)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(tr, path, scheme=Scheme.PROPOSED,
                             delays=generic_config.plant.delays, seed=0)
        back = read_trajectory_csv(path)
        np.testing.assert_array_equal(back.states, tr.states)
        np.testing.assert_array_equal(back.controls, tr.controls)
        total, per_player = evaluate_costs(back, generic_config.weights)
        assert abs(total - tr.total_cost) <= 1e-12 * (1.0 + abs(tr.total_cost))
        for i in range(2):
            assert (abs(per_player[i] - tr.per_player_cost[i])
                    <= 1e-12 * (1.0 + abs(tr.per_player_cost[i])))

    def test_header_and_final_row_shape(self, tmp_path, generic_dp,
                                        generic_config, generic_schedule):
        tr = rollout(generic_dp, generic_schedule, generic_config.x0,
                     generic_config.weights)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(tr, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "k,x_1,x_2,u_1_1,u_2_1"
        assert len(lines) == 52
        assert lines[-1].endswith(",,")

    def test_path_that_is_its_own_sidecar_writes_nothing(
            self, tmp_path, generic_dp, generic_config, generic_schedule):
        tr = rollout(generic_dp, generic_schedule, generic_config.x0,
                     generic_config.weights)
        path = tmp_path / "traj.json"
        with pytest.raises(ValidationError, match="traj.json: .* sidecar"):
            write_trajectory_csv(tr, path)
        assert list(tmp_path.iterdir()) == []

    def test_wrong_object_writes_nothing(self, tmp_path):
        path = tmp_path / "traj.csv"
        with pytest.raises(SchemaError, match="^trajectory: expected a "
                                              "Trajectory, got str$"):
            write_trajectory_csv("x", path)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("bad", [True, np.True_, 1.7, 2.0, "x"])
    def test_non_integer_seed_writes_nothing(self, tmp_path, generic_dp,
                                             generic_config,
                                             generic_schedule, bad):
        tr = rollout(generic_dp, generic_schedule, generic_config.x0,
                     generic_config.weights)
        path = tmp_path / "traj.csv"
        with pytest.raises(SchemaError, match="^seed: expected an integer, "
                                              "got "):
            write_trajectory_csv(tr, path, seed=bad)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("seed", [-1, 0, np.int64(7), 2**70])
    def test_any_integer_seed_is_recorded(self, tmp_path, generic_dp,
                                          generic_config, generic_schedule,
                                          seed):
        tr = rollout(generic_dp, generic_schedule, generic_config.x0,
                     generic_config.weights)
        sidecar = write_trajectory_csv(tr, tmp_path / "traj.csv", seed=seed)
        assert json.loads(sidecar.read_text())["seed"] == int(seed)


def _delete_line(lines):
    del lines[6]


def _repeat_line(lines):
    lines.insert(6, lines[5])


def _step_out_of_range(lines):
    lines[6] = "99" + lines[6][lines[6].index(","):]


def _extra_row(lines):
    lines.append(lines[-1])


def _short_row(lines):
    lines[6] = lines[6].rsplit(",", 1)[0]


def _non_numeric_cell(lines):
    cells = lines[6].split(",")
    cells[2] = "abc"
    lines[6] = ",".join(cells)


def _filled_final_controls(lines):
    lines[-1] = lines[-1] + "1.0"


def _non_finite_cell(value):
    def mutate(lines):
        cells = lines[6].split(",")
        cells[3] = value
        lines[6] = ",".join(cells)
    return mutate


class TestTrajectoryFileDefects:
    @pytest.fixture()
    def written(self, tmp_path, generic_dp, generic_config, generic_schedule):
        tr = rollout(generic_dp, generic_schedule, generic_config.x0,
                     generic_config.weights)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(tr, path)
        return path

    @pytest.mark.parametrize("mutate, where", [
        (_delete_line, "line 7"),
        (_repeat_line, "line 7"),
        (_step_out_of_range, "line 7"),
        (_extra_row, "line 53"),
        (_short_row, "line 7"),
        (_non_numeric_cell, "line 7 column x_2"),
        (_filled_final_controls, "line 52"),
        pytest.param(_non_finite_cell("nan"),
                     "line 7 column u_1_1: expected a finite", id="nan-cell"),
        pytest.param(_non_finite_cell("-inf"),
                     "line 7 column u_1_1: expected a finite", id="-inf-cell"),
        pytest.param(_non_finite_cell("1e400"),
                     "line 7 column u_1_1: expected a finite", id="1e400-cell"),
    ])
    def test_malformed_rows_name_file_and_line(self, written, mutate, where):
        lines = written.read_text().splitlines()
        mutate(lines)
        written.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match=f"traj.csv {where}"):
            read_trajectory_csv(written)

    def test_non_utf8_file_names_file(self, written):
        written.write_bytes(b"\xff\xfek\n")
        with pytest.raises(SchemaError, match="^[^:]*traj.csv: not a text "
                                              "file: 'utf-8' codec"):
            read_trajectory_csv(written)

    def test_truncated_file_names_file(self, written):
        lines = written.read_text().splitlines()
        written.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(SchemaError, match="traj.csv: 50 rows"):
            read_trajectory_csv(written)

    def test_missing_sidecar(self, written):
        written.with_suffix(".json").unlink()
        with pytest.raises(SchemaError, match="traj.json: missing"):
            read_trajectory_csv(written)

    def test_sidecar_not_json(self, written):
        written.with_suffix(".json").write_text("{not json")
        with pytest.raises(SchemaError, match="traj.json: invalid JSON"):
            read_trajectory_csv(written)

    @pytest.mark.parametrize("key", ["M", "N", "p", "horizon",
                                     "per_player_cost", "total_cost"])
    def test_sidecar_missing_field(self, written, key):
        sidecar = written.with_suffix(".json")
        doc = json.loads(sidecar.read_text())
        del doc[key]
        sidecar.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match=f"traj.json.{key}: missing"):
            read_trajectory_csv(written)

    @pytest.mark.parametrize("key, value", [
        ("total_cost", float("nan")), ("total_cost", float("inf")),
        ("per_player_cost", [1.0, float("-inf")])])
    def test_sidecar_non_finite_number(self, written, key, value):
        sidecar = written.with_suffix(".json")
        doc = json.loads(sidecar.read_text())
        doc[key] = value
        sidecar.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match=f"traj.json.{key}.*: expected "
                                              f"a finite number"):
            read_trajectory_csv(written)


class TestNashDeviation:
    def test_zero_magnitude_changes_nothing(self, generic_dp, generic_config,
                                            generic_schedule):
        report = nash_deviation_check(generic_dp, generic_schedule,
                                      generic_config.weights,
                                      generic_config.x0, trials=20,
                                      magnitude=0.0)
        assert report.passed
        assert report.min_delta == 0.0

    def test_single_controller_schedule_never_improves(self, generic_dp,
                                                       generic_config):
        dp1 = select_controller(generic_dp, 0)
        w1 = select_player(generic_config.weights, 0)
        sched = synthesize(dp1, w1)
        report = nash_deviation_check(dp1, sched, w1, [1.0, 0.0], trials=100,
                                      magnitude=1e-2)
        assert report.passed
        assert report.min_delta >= -1e-9

    def test_generic_preset_equilibrium(self, generic_dp, generic_config,
                                        generic_schedule):
        report = nash_deviation_check(generic_dp, generic_schedule,
                                      generic_config.weights,
                                      generic_config.x0, trials=200,
                                      magnitude=1e-2)
        assert report.passed
        assert report.min_margin >= 0.0

    def test_trials_are_reproducible(self, generic_dp, generic_config,
                                     generic_schedule):
        kwargs = dict(trials=30, magnitude=1e-2, seed=5)
        a = nash_deviation_check(generic_dp, generic_schedule,
                                 generic_config.weights, generic_config.x0,
                                 **kwargs)
        b = nash_deviation_check(generic_dp, generic_schedule,
                                 generic_config.weights, generic_config.x0,
                                 **kwargs)
        assert a == b

    def test_block_size_does_not_change_report(self, monkeypatch,
                                                 generic_dp, generic_config,
                                                 generic_schedule):
        args = (generic_dp, generic_schedule, generic_config.weights,
                generic_config.x0)
        whole = nash_deviation_check(*args, trials=30, seed=2)
        monkeypatch.setattr(deviation, "DEVIATION_BLOCK", 7)
        assert nash_deviation_check(*args, trials=30, seed=2) == whole

    def test_negative_trials_rejected(self, generic_dp, generic_config,
                                      generic_schedule):
        with pytest.raises(ValidationError, match="trials"):
            nash_deviation_check(generic_dp, generic_schedule,
                                 generic_config.weights, generic_config.x0,
                                 trials=-1)

    def test_trials_past_size_budget_rejected(self, monkeypatch, generic_dp,
                                              generic_config,
                                              generic_schedule):
        args = (generic_dp, generic_schedule, generic_config.weights,
                generic_config.x0)
        with pytest.raises(ValidationError, match=f"^trials: {10**20} "
                                                  f"entries exceed the size "
                                                  f"budget"):
            nash_deviation_check(*args, trials=10**20)
        # The budget is inclusive, as for config sizes.
        monkeypatch.setattr(model, "MAX_ENTRIES", 4)
        assert nash_deviation_check(*args, trials=4).trials == 4
        with pytest.raises(ValidationError, match="^trials: 5 entries"):
            nash_deviation_check(*args, trials=5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_x0_rejected(self, generic_dp, generic_config,
                                    generic_schedule, bad):
        with pytest.raises(ValidationError, match="x0 contains non-finite"):
            nash_deviation_check(generic_dp, generic_schedule,
                                 generic_config.weights, [bad, 0.0],
                                 trials=5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_magnitude_rejected(self, generic_dp, generic_config,
                                           generic_schedule, bad):
        with pytest.raises(ValidationError,
                           match=f"magnitude: expected a finite number, got {bad}"):
            nash_deviation_check(generic_dp, generic_schedule,
                                 generic_config.weights, generic_config.x0,
                                 trials=5, magnitude=bad)

    @pytest.mark.parametrize("name, bad", [
        ("trials", 2.7), ("trials", True), ("trials", float("nan")),
        ("trials", 3.0), ("trials", "3"), ("seed", 1.5), ("seed", True),
        ("seed", np.float64(2.0)), ("seed", np.True_),
    ])
    def test_non_integer_count_rejected(self, generic_dp, generic_config,
                                        generic_schedule, name, bad):
        kwargs = {"trials": 5, "seed": 0, name: bad}
        with pytest.raises(ValidationError,
                           match=f"^{name}: expected an integer, got "):
            nash_deviation_check(generic_dp, generic_schedule,
                                 generic_config.weights, generic_config.x0,
                                 **kwargs)

    @pytest.mark.parametrize("bad", ["abc", "0.01", None, 1 + 2j, True])
    def test_non_number_magnitude_rejected(self, generic_dp, generic_config,
                                           generic_schedule, bad):
        with pytest.raises(ValidationError,
                           match="^magnitude: expected a number, got "):
            nash_deviation_check(generic_dp, generic_schedule,
                                 generic_config.weights, generic_config.x0,
                                 trials=5, magnitude=bad)

    def test_numpy_integers_accepted(self, generic_dp, generic_config,
                                     generic_schedule):
        args = (generic_dp, generic_schedule, generic_config.weights,
                generic_config.x0)
        got = nash_deviation_check(*args, trials=np.int64(9),
                                   seed=np.uint32(4))
        assert type(got.trials) is int
        assert got == nash_deviation_check(*args, trials=9, seed=4)

    def test_overflowing_magnitude_rejected_without_warning(
            self, generic_dp, generic_config, generic_schedule):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="^magnitude: 1e"):
                nash_deviation_check(generic_dp, generic_schedule,
                                     generic_config.weights,
                                     generic_config.x0, trials=50,
                                     magnitude=1e308)

    def test_diverging_base_row_is_row_0(self):
        # The undeviated loop itself overflows: x(1) = 1e300, x(1)'Q x(1)
        # does not fit.
        dp = DiscretePlant(Phi=[[1e300]], Gamma0=([[0.0]],),
                           Gamma1=([[0.0]],))
        weights = GameWeights(Q=([[1.0]],), QN=([[1.0]],), R=([[1.0]],),
                              horizon=3)
        with pytest.raises(NumericalError) as err:
            nash_deviation_check(dp, zero_schedule(dp, 3), weights, [1.0],
                                 trials=4)
        assert str(err.value) == ("closed loop diverges: non-finite state "
                                  "or cost at step 1")
        assert err.value.step == 1 and err.value.row == 0

    def test_diverging_trial_names_its_step_and_row(self, generic_dp,
                                                    generic_config,
                                                    generic_schedule):
        # Offsets of 1e200 are finite, but their u'Ru overflows.
        with pytest.raises(NumericalError) as err:
            nash_deviation_check(generic_dp, generic_schedule,
                                 generic_config.weights, generic_config.x0,
                                 trials=20, magnitude=1e200, seed=3)
        assert str(err.value).endswith(f"at step {err.value.step}")
        # The first trial of those that deviate earliest leads the
        # step-sorted block, and its u'Ru overflows at its deviation step.
        _, steps, _ = _draws(3, 20, generic_dp.p, generic_schedule.horizon,
                             generic_dp.N)
        first = int(np.argmin(steps))
        assert (err.value.row, err.value.step) == (first, steps[first])


def _seeded_p3_case():
    rng = np.random.default_rng(2026)
    plant = random_stable_plant(rng, M=5, p=3)
    weights = random_weights(rng, 5, p=3, horizon=30)
    dp = discretize(plant)
    return dp, synthesize(dp, weights), weights, rng.normal(size=5)


def _preset_case(make):
    config = make()
    dp = discretize(config.plant)
    return dp, synthesize(dp, config.weights), config.weights, config.x0


def _perturbed_generic_case():
    dp, sched, weights, x0 = _preset_case(preset_generic)
    A = sched.A_coef.copy()
    A[:, 0] *= 0.5
    return dp, GainSchedule(sched.scheme, A, sched.B_coef), weights, x0


def _seeded_p1_case():
    rng = np.random.default_rng(7)
    plant = random_stable_plant(rng, M=3, N=2, p=1)
    weights = random_weights(rng, 3, N=2, p=1, horizon=20)
    dp = discretize(plant)
    return dp, synthesize(dp, weights), weights, rng.normal(size=3)


def _seeded_p2_n2_case():
    # Coupled controllers of two inputs each: every product of the loop
    # and of the costs has more than one term and goes to np.matmul.
    rng = np.random.default_rng(11)
    plant = random_stable_plant(rng, M=3, N=2, p=2)
    weights = random_weights(rng, 3, N=2, p=2, horizon=20)
    dp = discretize(plant)
    return dp, synthesize(dp, weights), weights, rng.normal(size=3)


ORACLE_CASES = {
    "generic": lambda: _preset_case(preset_generic),
    "lfc": lambda: _preset_case(preset_lfc),
    "p3": _seeded_p3_case,
    "perturbed": _perturbed_generic_case,
    "p2n2": _seeded_p2_n2_case,
}


class TestAgainstPerTrialOracle:
    """The batched loop against the one-trajectory-at-a-time oracle."""

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_rollout_matches_oracle_loop(self, case):
        dp, sched, weights, x0 = ORACLE_CASES[case]()
        tr = rollout(dp, sched, x0, weights)
        states, controls = closed_loop(dp, sched, x0)
        np.testing.assert_array_equal(tr.states, states)
        np.testing.assert_array_equal(tr.controls, controls)
        total, per_player = quadratic_costs(states, controls, weights)
        assert abs(tr.total_cost - total) <= 1e-12 * (1.0 + abs(total))
        np.testing.assert_allclose(tr.per_player_cost, per_player,
                                   rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_report_matches_oracle(self, case):
        dp, sched, weights, x0 = ORACLE_CASES[case]()
        report = nash_deviation_check(dp, sched, weights, x0, trials=100,
                                      magnitude=1e-2, seed=3)
        passed, min_delta, min_margin = per_trial_deviation_check(
            dp, sched, weights, x0, trials=100, magnitude=1e-2, seed=3,
            tolerance=report.tolerance)
        assert report.passed == passed == (case != "perturbed")
        assert report.trials == 100
        slack = 1e-12 * (1.0 + rollout(dp, sched, x0, weights)
                         .per_player_cost.max())
        assert abs(report.min_delta - min_delta) <= slack
        assert abs(report.min_margin - min_margin) <= slack


DENSE_CASES = {**ORACLE_CASES, "p1": _seeded_p1_case}


def _draws(seed, trials, p, steps, N, magnitude=0.5, block=None):
    """The check's (players, steps, deltas) of trials 0 .. trials - 1, its
    blocks joined, drawn in blocks of block trials (one block if None)."""
    blocks = list(deviation._draw_deviations(seed, trials, block or trials,
                                             p, steps, N, magnitude))
    return tuple(np.concatenate(column) for column in zip(*blocks))


class TestAgainstDenseCheck:
    """The check, whose rows join the loop at their deviation step and
    cost only the deviator, against the dense batched form it replaced:
    every trial a full row from step 0, every player costed."""

    @pytest.mark.parametrize("case", sorted(DENSE_CASES))
    def test_reports_equal(self, case):
        dp, sched, weights, x0 = DENSE_CASES[case]()
        # Blocks hold DEVIATION_BLOCK - 1 trials: 255, 256 and 257 trials
        # end a block exactly, one past it and two past it.
        for trials in (0, 1, 255, 256, 257, 300):
            for magnitude in (1e-3, 1e-2, 1.0):
                got = nash_deviation_check(dp, sched, weights, x0,
                                           trials=trials,
                                           magnitude=magnitude, seed=4)
                want = dense_deviation_check(dp, sched, weights, x0,
                                             trials=trials,
                                             magnitude=magnitude, seed=4)
                assert got == want, (trials, magnitude)
                if (trials, magnitude) == (300, 1e-2):
                    assert got.passed == (case != "perturbed")

    def test_trials_cover_first_and_last_step(self):
        # The cases above then hold rows that join at step 0, with the
        # base row, and rows that join at the last step, after all others.
        for make in DENSE_CASES.values():
            dp, sched, _, _ = make()
            _, steps, _ = _draws(4, 255, dp.p, sched.horizon, dp.N)
            assert steps.min() == 0
            assert steps.max() == sched.horizon - 1

    def test_draws_match_default_rng_streams(self):
        players, steps, deltas = _draws(9, 50, 3, 40, 2)
        picks = np.random.default_rng((9, 0))
        directions = np.random.default_rng((9, 1))
        for t in range(50):
            assert players[t] == picks.integers(3)
            assert steps[t] == picks.integers(40)
            delta = directions.standard_normal(2)
            norm = np.sqrt(np.einsum("i,i->", delta, delta))
            np.testing.assert_array_equal(deltas[t], delta * (0.5 / norm))

    @pytest.mark.parametrize("N", [1, 2, 3])
    @pytest.mark.parametrize("steps", [1, 2, 50])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_draws_match_default_rng_streams_at_every_size(self, p, steps,
                                                           N):
        players, at, deltas = _draws(5, 300, p, steps, N)
        # Row t of the pick stream's (player, step) draws and of the
        # direction stream's normals; a range of 1 draws nothing.
        picks = np.random.default_rng((5, 0)).integers(0, (p, steps),
                                                       size=(300, 2))
        np.testing.assert_array_equal(players, picks[:, 0])
        np.testing.assert_array_equal(at, picks[:, 1])
        normals = np.random.default_rng((5, 1)).standard_normal((300, N))
        norm = np.sqrt(np.einsum("ij,ij->i", normals, normals))
        np.testing.assert_array_equal(deltas, normals * (0.5 / norm)[:, None])
        # Neither the block size nor the trials that follow move a draw.
        for block in (7, 255):
            for got, want in zip(_draws(5, 300, p, steps, N, block=block),
                                 (players, at, deltas)):
                np.testing.assert_array_equal(got, want)
        for got, want in zip(_draws(5, 100, p, steps, N),
                             (players, at, deltas)):
            np.testing.assert_array_equal(got, want[:100])

    def test_negative_seed_rejected(self, generic_dp, generic_config,
                                    generic_schedule):
        with pytest.raises(ValidationError, match="seed"):
            nash_deviation_check(generic_dp, generic_schedule,
                                 generic_config.weights, generic_config.x0,
                                 trials=1, seed=-1)


# Signed zeros, subnormals, values near overflow, and tiny values whose
# products underflow.
_EDGES = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1.7e308,
                   -1e308, 1.3e154, -1e154, 1e-160, -3e-170])


def _edge_stack(rng, shape):
    """Seeded values, about half of them drawn from _EDGES."""
    values = rng.normal(size=shape) * 10.0 ** rng.integers(-30, 30, shape)
    pick = rng.random(shape) < 0.5
    values[pick] = rng.choice(_EDGES, size=int(pick.sum()))
    return values


class TestOneTermProducts:
    """Stacks of signed zeros, subnormals and values near overflow, byte
    for byte: _quadratic's einsum dots against np.matmul on the shapes it
    takes, one-term products included, and the closed loop's two dots per
    step against the dense oracle's."""

    @pytest.mark.parametrize("v_shape, W_shape", [
        ((40, 20, 3, 1), (3, 1, 1)),         # every player's u'Ru
        ((40, 20, 1, 1), (40, 1, 1, 1, 1)),  # the deviator's alone
    ])
    def test_quadratic_equals_matmul_bytes(self, v_shape, W_shape):
        rng = np.random.default_rng(32)
        v, W = _edge_stack(rng, v_shape), _edge_stack(rng, W_shape)
        with np.errstate(all="ignore"):
            want = np.matmul(np.matmul(v[..., None, :], W),
                             v[..., :, None])[..., 0, 0]
            got = simulate._quadratic(v, W)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("distinct", [False, True])
    def test_loop_equals_oracle_bytes(self, distinct):
        # Rows of distinct plants and rows that join late, each against
        # the dense oracle's row run from step 0.
        rng = np.random.default_rng(33)
        M, p, steps = 3, 3, 8
        plants = [DiscretePlant(_edge_stack(rng, (M, M)),
                                tuple(_edge_stack(rng, (p, M, 1))),
                                tuple(_edge_stack(rng, (p, M, 1))))
                  for _ in range(4 if distinct else 1)]
        schedules = [GainSchedule(Scheme.PROPOSED,
                                  _edge_stack(rng, (steps, p, 1, M)),
                                  _edge_stack(rng, (steps, p, p, 1, 1)))
                     for _ in plants]
        x0 = _edge_stack(rng, M)
        with np.errstate(all="ignore"):
            if distinct:
                tape = simulate._closed_loop(plants, schedules, x0)
                want = _dense_closed_loop(plants, schedules, x0)
            else:
                starts = np.array([0, 0, 3, 7])
                offsets = _edge_stack(rng, (4, p, 1))
                offsets[0] = 0.0
                tape = simulate._closed_loop(plants, schedules, x0, starts,
                                             offsets)
                dense = np.zeros((steps, 4, p, 1))
                dense[starts, np.arange(4)] = offsets
                want = _dense_closed_loop(plants, schedules, x0, dense)
        got = simulate._timelines(tape, p, M)
        for row in range(len(got[0])):
            start = 0 if distinct else starts[row]
            for have, expect in zip(got, want):
                _assert_same_bytes(have[row, start:], expect[row, start:])

    def test_stacks_hold_every_edge(self):
        v = _edge_stack(np.random.default_rng(31), (40, 1, 3, 1))
        assert set(_EDGES.view(np.uint64)) <= set(v.view(np.uint64).flat)


class TestRandomizedRollouts:
    @pytest.mark.parametrize("seed", range(3))
    def test_residual_on_random_plants(self, seed):
        rng = np.random.default_rng(500 + seed)
        M = int(rng.integers(2, 5))
        plant = random_stable_plant(rng, M=M, p=2)
        dp = discretize(plant)
        w = random_weights(rng, M, p=2, horizon=15)
        sched = synthesize(dp, w)
        x0 = rng.normal(size=M)
        tr = rollout(dp, sched, x0, w)
        u_prev = np.zeros((2, 1))
        for k in range(15):
            want = dp.Phi @ tr.states[k]
            for i in range(2):
                want = (want + dp.Gamma0[i] @ tr.controls[k, i]
                        + dp.Gamma1[i] @ u_prev[i])
            assert np.abs(tr.states[k + 1] - want).max() <= 1e-10
            u_prev = tr.controls[k]


def _signed_zero_case(M, p, N, seed):
    """A seeded plant with -0.0 in x0 and in the gains, and a batch of
    distinct plants of the same sizes, all at horizon 6."""
    rng = np.random.default_rng(seed)
    weights = random_weights(rng, M, N=N, p=p, horizon=6)
    plants = [discretize(random_stable_plant(rng, M=M, N=N, p=p))
              for _ in range(3)]
    schedules = []
    for dp in plants:
        sched = synthesize(dp, weights)
        A, B = sched.A_coef.copy(), sched.B_coef.copy()
        A[::2, 0, 0, 0] = -0.0
        B[1::2, 0, -1] = -0.0
        schedules.append(GainSchedule(sched.scheme, A, B))
    x0 = rng.normal(size=M)
    x0[0] = -0.0
    return plants, schedules, weights, x0


def _assert_same_bytes(got, want):
    assert got.shape == want.shape
    assert np.ascontiguousarray(got).tobytes() == want.tobytes()


class TestLoopSweep:
    """The batched loop and the check over every layout the loop takes:
    one- and many-term state products (M), one to three controllers (p),
    one-term and matmul input products (N)."""

    @pytest.mark.parametrize("N", [1, 2])
    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("M", [1, 2, 5, 9])
    def test_rows_equal_oracle_loop_bytes(self, M, p, N):
        plants, schedules, weights, x0 = _signed_zero_case(M, p, N,
                                                           100 * M + 10 * p + N)
        dp, sched = plants[0], schedules[0]
        # Rows of distinct plants, each run alone by the oracle.
        for tr, plant, schedule in zip(
                simulate._rollouts(plants, schedules, x0, weights), plants,
                schedules):
            states, controls = closed_loop(plant, schedule, x0)
            _assert_same_bytes(tr.states, states)
            _assert_same_bytes(tr.controls, controls)
        # Rows that join a base row at their deviation step.
        players, steps, deltas = _draws(6, 40, p, sched.horizon, N)
        assert {0, sched.horizon - 1} <= set(steps.tolist())
        order = np.argsort(steps, kind="stable")
        starts = np.append(0, steps[order])
        offsets = np.zeros((41, p, N))
        offsets[np.arange(1, 41), players[order]] = deltas[order]
        states, controls = simulate._timelines(
            simulate._closed_loop([dp], [sched], x0, starts, offsets), p, M)
        want = closed_loop(dp, sched, x0)
        _assert_same_bytes(states[0], want[0])
        _assert_same_bytes(controls[0], want[1])
        for row, t in enumerate(order, start=1):
            want = closed_loop(dp, sched, x0,
                               deviation=(players[t], steps[t], deltas[t]))
            _assert_same_bytes(states[row, steps[t]:], want[0][steps[t]:])
            _assert_same_bytes(controls[row, steps[t]:], want[1][steps[t]:])
        # The check, with its deviator costs from the deviation step on,
        # against the dense form that costs every row from step 0.
        for seed in (6, 7):
            assert (nash_deviation_check(dp, sched, weights, x0, trials=40,
                                         magnitude=0.5, seed=seed)
                    == dense_deviation_check(dp, sched, weights, x0,
                                             trials=40, magnitude=0.5,
                                             seed=seed))


def _dyadic(shape, seed, scale):
    """Seeded values k * scale / 512 with k in [-512, 512), drawn from a
    32-bit linear congruential sequence: exact in float64, and the same
    whatever numpy's random generators do."""
    values = []
    for _ in range(int(np.prod(shape))):
        seed = (1664525 * seed + 1013904223) % 2**32
        values.append(((seed >> 16) % 1024 - 512) * scale / 512)
    return np.reshape(values, shape)


class TestPinnedRollout:
    """The rollout's bytes on every BLAS kernel: a plant, schedule and
    weights built from fixed dyadic arrays (neither discretize nor
    synthesize, which run on BLAS) give one SHA-256 over the trajectory,
    its costs and a deviation check's report.  Every dot of the loop and
    the costs is numpy's einsum loop, so only a numpy whose einsum sums in
    another order moves it (one built with wider vectors or fused
    multiply-adds in that loop, say)."""

    DIGEST = ("32c8c5718f175bfa5dbb7a9273431d37"
              "d41cb083168251e9803382dc0de74a9c")

    def test_digest(self):
        M, p, N, steps = 9, 2, 2, 50
        dp = DiscretePlant(
            0.875 * np.eye(M) + _dyadic((M, M), 1, 2.0**-7),
            tuple(_dyadic((p, M, N), 2, 2.0**-3)),
            tuple(_dyadic((p, M, N), 3, 2.0**-3)))
        sched = GainSchedule(Scheme.PROPOSED,
                             _dyadic((steps, p, N, M), 4, 2.0**-4),
                             _dyadic((steps, p, p, N, N), 5, 2.0**-4))
        S = _dyadic((M, M), 6, 1.0)
        R = _dyadic((N, N), 7, 0.25)
        weights = GameWeights(Q=(S + S.T + 2 * M * np.eye(M),) * p,
                              QN=(S + S.T + 4 * M * np.eye(M),) * p,
                              R=(R + R.T + 2 * np.eye(N),) * p,
                              horizon=steps)
        x0 = _dyadic(M, 8, 1.0)
        tr = rollout(dp, sched, x0, weights)
        report = nash_deviation_check(dp, sched, weights, x0, trials=50,
                                      magnitude=0.25, seed=9)
        digest = hashlib.sha256()
        for array in (tr.states, tr.controls, tr.per_player_cost,
                      np.float64(tr.total_cost)):
            digest.update(np.ascontiguousarray(array).tobytes())
        digest.update(repr(report).encode())
        assert digest.hexdigest() == self.DIGEST
