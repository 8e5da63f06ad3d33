import json

import numpy as np
import pytest

from delay_lqgame import (
    DimensionError,
    GainSchedule,
    GameWeights,
    SchemaError,
    Scheme,
    Trajectory,
    ValidationError,
    discretize,
    evaluate_costs,
    nash_deviation_check,
    preset_generic,
    preset_lfc,
    read_trajectory_csv,
    rollout,
    simulate,
    synthesize_multi,
    synthesize_single_delayed,
    synthesize_two,
    write_trajectory_csv,
)

from conftest import random_stable_plant, random_weights
from oracles import closed_loop, per_trial_deviation_check, quadratic_costs


@pytest.fixture(scope="module")
def generic_schedule(generic_dp, generic_config):
    return synthesize_two(generic_dp, generic_config.weights)


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
        sched, values = synthesize_two(generic_dp, generic_config.weights,
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
        dp1 = generic_dp.select_controller(0)
        with pytest.raises(DimensionError):
            rollout(dp1, generic_schedule, np.zeros(2),
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
    ])
    def test_malformed_rows_name_file_and_line(self, written, mutate, where):
        lines = written.read_text().splitlines()
        mutate(lines)
        written.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match=f"traj.csv {where}"):
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
        dp1 = generic_dp.select_controller(0)
        w1 = generic_config.weights.select_player(0)
        sched = synthesize_single_delayed(dp1, w1)
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
        monkeypatch.setattr(simulate, "DEVIATION_BLOCK", 7)
        assert nash_deviation_check(*args, trials=30, seed=2) == whole

    def test_negative_trials_rejected(self, generic_dp, generic_config,
                                      generic_schedule):
        with pytest.raises(ValidationError, match="trials"):
            nash_deviation_check(generic_dp, generic_schedule,
                                 generic_config.weights, generic_config.x0,
                                 trials=-1)


def _seeded_p3_case():
    rng = np.random.default_rng(2026)
    plant = random_stable_plant(rng, M=5, p=3)
    weights = random_weights(rng, 5, p=3, horizon=30)
    dp = discretize(plant)
    return dp, synthesize_multi(dp, weights), weights, rng.normal(size=5)


def _preset_case(make):
    config = make()
    dp = discretize(config.plant)
    return dp, synthesize_two(dp, config.weights), config.weights, config.x0


def _perturbed_generic_case():
    dp, sched, weights, x0 = _preset_case(preset_generic)
    A = sched.A_coef.copy()
    A[:, 0] *= 0.5
    return dp, GainSchedule(sched.scheme, A, sched.B_coef), weights, x0


ORACLE_CASES = {
    "generic": lambda: _preset_case(preset_generic),
    "lfc": lambda: _preset_case(preset_lfc),
    "p3": _seeded_p3_case,
    "perturbed": _perturbed_generic_case,
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


class TestRandomizedRollouts:
    @pytest.mark.parametrize("seed", range(3))
    def test_residual_on_random_plants(self, seed):
        rng = np.random.default_rng(500 + seed)
        M = int(rng.integers(2, 5))
        plant = random_stable_plant(rng, M=M, p=2)
        dp = discretize(plant)
        w = random_weights(rng, M, p=2, horizon=15)
        sched = synthesize_two(dp, w)
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
