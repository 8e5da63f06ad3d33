from dataclasses import replace
from itertools import product

import numpy as np
import pytest

import delay_lqgame.lin_ops
import delay_lqgame.synthesis
from delay_lqgame import (
    ContinuousPlant,
    CouplingSingularityError,
    ExperimentConfig,
    GainSchedule,
    GameWeights,
    SchemaError,
    Scheme,
    ValidationError,
    compare_schemes,
    discretize,
    run_scheme,
    sweep_delays,
    synthesize_for_scheme,
    write_comparison_csv,
    write_sweep_csv,
)

from conftest import random_stable_plant, random_weights, singular_solve
from oracles import lifted_single_design


def small_grid_config(config, grid1, grid2):
    return replace(config, sweep=(tuple(grid1), tuple(grid2)),
                   x0=np.array(config.x0))


class TestRunScheme:
    def test_zero_delays_proposed_equals_delay_free(self, generic_config):
        cfg = replace(generic_config,
                      plant=generic_config.plant.with_delays((0.0, 0.0)),
                      x0=np.array(generic_config.x0))
        proposed = run_scheme(cfg, Scheme.PROPOSED)
        free = run_scheme(cfg, Scheme.DELAY_FREE_GAME)
        np.testing.assert_allclose(proposed.schedule.A_coef,
                                   free.schedule.A_coef, rtol=0, atol=1e-10)
        assert abs(proposed.j_total - free.j_total) <= 1e-10 * (
            1.0 + proposed.j_total)

    def test_inert_second_input_proposed_equals_single(self, generic_config):
        plant = ContinuousPlant(A=generic_config.plant.A,
                                B=(generic_config.plant.B[0],
                                   np.zeros((2, 1))),
                                delays=generic_config.plant.delays, h=0.05)
        cfg = replace(generic_config, plant=plant,
                      x0=np.array(generic_config.x0))
        proposed = run_scheme(cfg, Scheme.PROPOSED)
        single = run_scheme(cfg, Scheme.SINGLE_DELAYED)
        assert abs(proposed.j_total - single.j_total) <= 1e-10 * (
            1.0 + proposed.j_total)
        np.testing.assert_allclose(proposed.trajectory.states,
                                   single.trajectory.states, rtol=0,
                                   atol=1e-10)

    def test_single_delayed_keeps_controller_two_inert(self, generic_config):
        result = run_scheme(generic_config, Scheme.SINGLE_DELAYED)
        assert np.all(result.trajectory.controls[:, 1] == 0.0)

    def test_single_delayed_cost_ignores_other_delay(self, generic_config):
        costs = []
        for td2 in (0.0, 0.02):
            cfg = replace(generic_config,
                          plant=generic_config.plant.with_delays((0.01, td2)),
                          x0=np.array(generic_config.x0))
            costs.append(run_scheme(cfg, Scheme.SINGLE_DELAYED).j_total)
        assert abs(costs[0] - costs[1]) <= 1e-12 * (1.0 + abs(costs[0]))

    def test_delay_free_design_runs_on_true_plant(self, generic_config):
        # With real delays present the mismatch must show up in the cost.
        free = run_scheme(generic_config, Scheme.DELAY_FREE_GAME)
        cfg0 = replace(generic_config,
                       plant=generic_config.plant.with_delays((0.0, 0.0)),
                       x0=np.array(generic_config.x0))
        free0 = run_scheme(cfg0, Scheme.DELAY_FREE_GAME)
        assert free.j_total > free0.j_total
        assert np.abs(free.schedule.B_coef).max() == 0.0


def _count_discretize(monkeypatch):
    calls = []
    original = delay_lqgame.synthesis.discretize

    def counting(plant, *pairs):
        calls.append(plant.delays)
        return original(plant, *pairs)

    monkeypatch.setattr(delay_lqgame.synthesis, "discretize", counting)
    return calls


class TestCompareSchemes:
    @pytest.mark.parametrize("preset, grid1, grid2", [
        ("generic", [0.0, 0.012], [0.004, 0.02]),
        ("lfc", [0.0, 0.008], [0.004]),
    ], ids=["generic", "lfc"])
    def test_rows_equal_per_point_run_scheme(self, preset, grid1, grid2,
                                             generic_config, lfc_config):
        # compare designs every scheme at every point in one batch; each
        # row must equal its point's lone run_scheme bit for bit.
        config = {"generic": generic_config, "lfc": lfc_config}[preset]
        cfg = small_grid_config(config, grid1, grid2)
        results = compare_schemes(cfg)
        order = (Scheme.PROPOSED, Scheme.SINGLE_DELAYED,
                 Scheme.DELAY_FREE_GAME)
        expected = [
            run_scheme(replace(cfg, plant=cfg.plant.with_delays(point),
                               x0=np.array(cfg.x0)), scheme)
            for point in product(grid1, grid2)
            for scheme in order]
        assert len(results) == len(expected)
        for got, want in zip(results, expected):
            assert (got.scheme, got.delays) == (want.scheme, want.delays)
            assert got.j_total == want.j_total
            assert got.j_players == want.j_players
            for g, w in ((got.trajectory.states, want.trajectory.states),
                         (got.trajectory.controls, want.trajectory.controls),
                         (got.schedule.A_coef, want.schedule.A_coef),
                         (got.schedule.B_coef, want.schedule.B_coef)):
                np.testing.assert_array_equal(g, w)

    def test_sweep_rows_equal_per_point_run_scheme(self, lfc_config):
        cfg = small_grid_config(lfc_config, lfc_config.sweep[0][:3],
                                lfc_config.sweep[1][1:])
        points = sweep_delays(cfg)
        assert len(points) == 9
        for got in points:
            want = run_scheme(replace(cfg, plant=cfg.plant.with_delays(
                got.delays), x0=np.array(cfg.x0)), Scheme.PROPOSED)
            assert got.delays == want.delays
            assert got.j_total == want.j_total
            assert got.j_players == want.j_players
            assert got.ratio == want.j_players[0] / want.j_players[1]

    def test_discretizes_each_point_once_plus_the_zero_delay_plant(
            self, monkeypatch, generic_config):
        cfg = small_grid_config(generic_config, [0.0, 0.012], [0.004, 0.02])
        calls = _count_discretize(monkeypatch)
        compare_schemes(cfg)
        # One true plant per point, and one zero-delay plant for the
        # delay-free design, which does not depend on the point.
        assert sorted(calls) == sorted([(0.0, 0.0), (0.0, 0.004),
                                        (0.0, 0.02), (0.012, 0.004),
                                        (0.012, 0.02)])

    def test_sweep_discretizes_each_point_once(self, monkeypatch,
                                               generic_config):
        cfg = small_grid_config(generic_config, [0.0, 0.012], [0.004])
        calls = _count_discretize(monkeypatch)
        sweep_delays(cfg)
        assert calls == [(0.0, 0.004), (0.012, 0.004)]


def _count_recursions(monkeypatch):
    """Sizes of the batches that the recursion runs: ``synthesize``, its
    other entry point, is a batch of 1 handed to ``synthesize_batch``."""
    sizes = []
    entry = delay_lqgame.synthesis.synthesize_batch

    def counting(plants, weights, *args):
        sizes.append(len(plants))
        return entry(plants, weights, *args)

    monkeypatch.setattr(delay_lqgame.synthesis, "synthesize_batch", counting)
    return sizes


class TestOneRecursionPerCommand:
    def test_each_command_makes_one_recursion_call(self, monkeypatch,
                                                    generic_config):
        cfg = small_grid_config(generic_config, [0.0, 0.012], [0.004, 0.02])
        sizes = _count_recursions(monkeypatch)
        for scheme in Scheme:
            run_scheme(cfg, scheme)
            synthesize_for_scheme(cfg, scheme)
        assert sizes == [1] * 6
        # The four grid points; compare adds their single-delayed rows and
        # the one delay-free row, with or without a grid.
        no_grid = replace(cfg, sweep=None, x0=np.array(cfg.x0))
        for command, config, rows in ((sweep_delays, cfg, 4),
                                      (compare_schemes, cfg, 9),
                                      (compare_schemes, no_grid, 3)):
            sizes.clear()
            command(config)
            assert sizes == [rows]


class TestOneTagPerRow:
    def test_schedules_are_built_once_and_retagged_once(self, monkeypatch,
                                                        generic_config):
        # synthesize_batch builds one schedule per batch row, tagged
        # proposed; each other scheme's row is retagged once, the one
        # delay-free row too, however many points it serves.
        built = []
        post_init = GainSchedule.__post_init__

        def counting(self):
            built.append(self.scheme)
            post_init(self)

        monkeypatch.setattr(GainSchedule, "__post_init__", counting)
        cfg = small_grid_config(generic_config, [0.0, 0.012], [0.004, 0.02])
        no_grid = replace(cfg, sweep=None, x0=np.array(cfg.x0))
        for command, config, proposed, retagged in (
                (sweep_delays, cfg, 4, 0),
                (compare_schemes, cfg, 9, 5),
                (compare_schemes, no_grid, 3, 2)):
            built.clear()
            command(config)
            assert built.count(Scheme.PROPOSED) == proposed
            assert len(built) == proposed + retagged
        for scheme, calls in ((Scheme.PROPOSED, 1),
                              (Scheme.SINGLE_DELAYED, 2),
                              (Scheme.DELAY_FREE_GAME, 2)):
            built.clear()
            assert synthesize_for_scheme(cfg, scheme).scheme is scheme
            assert len(built) == calls


class TestOneExponentialPassPerCommand:
    def test_each_command_makes_one_stacked_exponential_call(
            self, monkeypatch, generic_config):
        cfg = small_grid_config(generic_config, [0.0, 0.012], [0.004, 0.02])
        stacks = []
        exp = delay_lqgame.lin_ops.mat_exp

        def counting(A, t=1.0):
            stacks.append(list(t))
            return exp(A, t)

        monkeypatch.setattr(delay_lqgame.lin_ops, "mat_exp", counting)
        h = cfg.plant.h
        # h, then h - tau and tau for each nonzero delay of the grid; the
        # zero-delay plant of the delay-free design needs h alone.
        grid_times = [h, h - 0.004, 0.004, h - 0.02, 0.02, h - 0.012, 0.012]
        for command in (sweep_delays, compare_schemes):
            stacks.clear()
            command(cfg)
            assert stacks == [grid_times]
        for scheme in Scheme:
            stacks.clear()
            synthesize_for_scheme(cfg, scheme)
            assert stacks == [[h, h - 0.01, 0.01]]


class TestSingularGridPoint:
    @pytest.mark.parametrize("command", ["sweep", "compare"])
    def test_error_names_the_point(self, command, monkeypatch,
                                   generic_config):
        cfg = small_grid_config(generic_config, [0.0, 0.012], [0.004, 0.02])
        # Both commands design the proposed scheme first, so the batch
        # starts with the grid's points.  The third, in row-major order,
        # is (0.012, 0.004).
        run = sweep_delays if command == "sweep" else compare_schemes
        singular_solve(monkeypatch, 2)
        with pytest.raises(CouplingSingularityError) as err:
            run(cfg)
        assert err.value.delays == (0.012, 0.004)
        assert err.value.plant == 2
        assert err.value.step == cfg.weights.horizon - 1
        assert err.value.controller == 1
        assert str(err.value).endswith("at delays (0.012, 0.004)")

    @pytest.mark.parametrize("scheme, row, delays", [
        (Scheme.SINGLE_DELAYED, 6, (0.012, 0.004)),
        (Scheme.DELAY_FREE_GAME, 8, (0.0, 0.0)),
    ])
    def test_baseline_design_names_its_scheme(self, scheme, row, delays,
                                              monkeypatch, generic_config):
        cfg = small_grid_config(generic_config, [0.0, 0.012], [0.004, 0.02])
        # compare designs every scheme in one batch: proposed on rows 0-3,
        # single_delayed on rows 4-7, both over the four points in grid
        # order, then the one delay-free plant, at zero delays, on row 8.
        horizon = cfg.weights.horizon
        singular_solve(monkeypatch, row)
        with pytest.raises(CouplingSingularityError) as err:
            compare_schemes(cfg)
        assert err.value.delays == delays
        assert err.value.row == err.value.plant == row
        assert err.value.step == horizon - 1
        assert err.value.controller == 1
        assert f" of plant {row} " in str(err.value)
        assert str(err.value).endswith(
            f"for scheme {scheme.value} at delays {delays}")


def _seeded_grid_config(M, N, p, size, seed):
    rng = np.random.default_rng(seed)
    plant = random_stable_plant(rng, M=M, N=N, p=p)
    grids = [np.sort(rng.uniform(0.0, 0.98 * plant.h, size=size))
             for _ in range(p)]
    return ExperimentConfig(plant=plant,
                            weights=random_weights(rng, M, N=N, p=p,
                                                   horizon=20),
                            sweep=grids)


def _is_positive_zero(a):
    return bool(np.all(a == 0.0) and not np.any(np.signbit(a)))


class TestSingleDelayedDesign:
    @pytest.mark.parametrize("case", ["generic", "lfc", "p3", "N2"])
    def test_equals_lifted_lone_controller_design(self, case, generic_config,
                                                  lfc_config):
        # The baseline runs the p-controller recursion on the plant with
        # only controller 1's input acting; it must equal controller 1
        # designed alone and lifted with zeros.
        config = {"generic": generic_config, "lfc": lfc_config,
                  "p3": _seeded_grid_config(4, 1, 3, 3, seed=51),
                  "N2": _seeded_grid_config(3, 2, 2, 3, seed=52)}[case]
        rows = [r for r in compare_schemes(config)
                if r.scheme is Scheme.SINGLE_DELAYED]
        assert len(rows) == np.prod([len(g) for g in config.sweep])
        for row in rows:
            got = row.schedule
            want = lifted_single_design(
                discretize(config.plant.with_delays(row.delays)),
                config.weights)
            for g, w in ((got.A_coef, want.A_coef),
                         (got.B_coef, want.B_coef)):
                assert np.abs(g - w).max() <= 1e-14 * np.abs(w).max()
            # Controllers 2..p, and controller 1's terms in their inputs.
            assert _is_positive_zero(got.A_coef[:, 1:])
            assert _is_positive_zero(got.B_coef[:, 1:])
            assert _is_positive_zero(got.B_coef[:, 0, 1:])


class TestSweep:
    def test_degenerate_single_point_matches_run_scheme(self, generic_config):
        cfg = small_grid_config(generic_config, [0.012], [0.004])
        points = sweep_delays(cfg)
        assert len(points) == 1
        direct = run_scheme(
            replace(cfg, plant=cfg.plant.with_delays((0.012, 0.004)),
                    x0=np.array(cfg.x0)),
            Scheme.PROPOSED)
        assert points[0].j_total == direct.j_total
        assert points[0].delays == (0.012, 0.004)

    def test_symmetric_diagonal_has_unit_ratio(self, generic_config):
        cfg = small_grid_config(generic_config, [0.0, 0.01], [0.0, 0.01])
        points = sweep_delays(cfg)
        for pt in points:
            if pt.delays[0] == pt.delays[1]:
                assert abs(pt.ratio - 1.0) <= 1e-9

    def test_rows_in_deterministic_grid_order(self, generic_config):
        cfg = small_grid_config(generic_config, [0.0, 0.01], [0.0, 0.02 / 3])
        points = sweep_delays(cfg)
        got = [pt.delays for pt in points]
        assert got == [(0.0, 0.0), (0.0, 0.02 / 3), (0.01, 0.0),
                       (0.01, 0.02 / 3)]

    def test_repeat_sweeps_identical(self, generic_config):
        cfg = small_grid_config(generic_config, [0.0, 0.016], [0.008])
        a = sweep_delays(cfg)
        b = sweep_delays(cfg)
        assert a == b

    def test_missing_grid_rejected(self, generic_config):
        cfg = replace(generic_config, sweep=None,
                      x0=np.array(generic_config.x0))
        with pytest.raises(ValidationError, match="sweep"):
            sweep_delays(cfg)

    def test_csv_table(self, tmp_path, generic_config):
        cfg = small_grid_config(generic_config, [0.0, 0.01], [0.004])
        points = sweep_delays(cfg)
        path = tmp_path / "sweep.csv"
        write_sweep_csv(points, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "td1,td2,j_total,j_1,j_2,ratio"
        assert len(lines) == 3


@pytest.mark.parametrize("write, argument", [
    (write_sweep_csv, "points"), (write_comparison_csv, "results")])
def test_empty_table_names_the_argument(tmp_path, write, argument):
    path = tmp_path / "table.csv"
    with pytest.raises(SchemaError, match=f"^{argument}: expected a "
                                          f"non-empty sequence$"):
        write([], path)
    assert not path.exists()


class TestCompare:
    def test_three_rows_per_point_with_proposed_minimal(self, generic_config):
        cfg = small_grid_config(generic_config, [0.004, 0.02], [0.02])
        results = compare_schemes(cfg)
        assert len(results) == 6
        for start in range(0, 6, 3):
            chunk = results[start:start + 3]
            assert [r.scheme for r in chunk] == [
                Scheme.PROPOSED, Scheme.SINGLE_DELAYED, Scheme.DELAY_FREE_GAME]
            proposed = chunk[0].j_total
            for other in chunk[1:]:
                assert proposed <= other.j_total + 1e-9 * (1.0 + proposed)

    def test_csv_table(self, tmp_path, generic_config):
        cfg = small_grid_config(generic_config, [0.0], [0.0])
        results = compare_schemes(cfg)
        path = tmp_path / "cmp.csv"
        write_comparison_csv(results, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "scheme,td1,td2,j_total,j_1,j_2"
        assert len(lines) == 4
        assert lines[1].startswith("proposed,")
        assert lines[2].startswith("single_delayed,")
        assert lines[3].startswith("delay_free_game,")

    def test_compare_without_grid_uses_config_delays(self, generic_config):
        cfg = replace(generic_config, sweep=None,
                      x0=np.array(generic_config.x0))
        results = compare_schemes(cfg)
        assert len(results) == 3
        assert results[0].delays == (0.01, 0.01)


class TestThreeControllers:
    def test_all_schemes_run_for_p3(self):
        rng = np.random.default_rng(77)
        A = rng.normal(size=(3, 3))
        A -= (np.max(np.linalg.eigvals(A).real) + 0.5) * np.eye(3)
        plant = ContinuousPlant(
            A=A, B=tuple(rng.normal(size=(3, 1)) for _ in range(3)),
            delays=(0.01, 0.02, 0.03), h=0.05)
        weights = GameWeights(Q=(np.eye(3),) * 3, QN=(np.eye(3),) * 3,
                              R=(np.eye(1),) * 3, horizon=20)
        cfg = ExperimentConfig(plant=plant, weights=weights,
                               x0=[1.0, 0.0, -1.0])
        results = {s: run_scheme(cfg, s) for s in Scheme}
        for res in results.values():
            assert np.isfinite(res.j_total)
            assert res.trajectory.controls.shape == (20, 3, 1)
        # the lone controller baseline leaves controllers 2 and 3 inert
        single = results[Scheme.SINGLE_DELAYED]
        assert np.all(single.trajectory.controls[:, 1:] == 0.0)
        # the delay-free design carries no previous-input terms
        assert np.abs(results[Scheme.DELAY_FREE_GAME].schedule.B_coef).max() == 0.0

    def test_sweep_table_for_p3(self, tmp_path):
        rng = np.random.default_rng(78)
        A = -np.eye(2)
        plant = ContinuousPlant(
            A=A, B=tuple(rng.normal(size=(2, 1)) for _ in range(3)),
            delays=(0.0, 0.0, 0.0), h=0.1)
        weights = GameWeights(Q=(np.eye(2),) * 3, QN=(np.eye(2),) * 3,
                              R=(np.eye(1),) * 3, horizon=10)
        cfg = ExperimentConfig(plant=plant, weights=weights, x0=[1.0, 1.0],
                               sweep=((0.0, 0.05), (0.0,), (0.02,)))
        points = sweep_delays(cfg)
        assert [pt.delays for pt in points] == [(0.0, 0.0, 0.02),
                                                (0.05, 0.0, 0.02)]
        path = tmp_path / "sweep3.csv"
        write_sweep_csv(points, path)
        header = path.read_text().splitlines()[0]
        assert header == "td1,td2,td3,j_total,j_1,j_2,j_3,ratio"


class TestCostsConvention:
    def test_total_is_state_cost_plus_all_control_costs(self, generic_config):
        result = run_scheme(generic_config, Scheme.PROPOSED)
        tr = result.trajectory
        w = generic_config.weights
        want = tr.states[-1] @ w.QN[0] @ tr.states[-1]
        for k in range(tr.horizon):
            want += tr.states[k] @ w.Q[0] @ tr.states[k]
            for i in range(2):
                want += tr.controls[k, i] @ w.R[i] @ tr.controls[k, i]
        np.testing.assert_allclose(result.j_total, want, rtol=1e-12)

    def test_per_player_costs_sum_each_own_effort(self, generic_config):
        result = run_scheme(generic_config, Scheme.PROPOSED)
        tr = result.trajectory
        w = generic_config.weights
        for i in range(2):
            want = tr.states[-1] @ w.QN[i] @ tr.states[-1]
            for k in range(tr.horizon):
                want += tr.states[k] @ w.Q[i] @ tr.states[k]
                want += tr.controls[k, i] @ w.R[i] @ tr.controls[k, i]
            np.testing.assert_allclose(result.j_players[i], want, rtol=1e-12)
