"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run as ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole suite is sized to finish well under a minute on one core.
"""

from dataclasses import replace

import numpy as np
import pytest

from delay_lqgame import (
    Scheme,
    discretize,
    dump_config,
    nash_deviation_check,
    preset_generic,
    preset_lfc,
    rollout,
    run_scheme,
    sweep_delays,
    synthesize,
)
from delay_lqgame.cli import main as cli_main
from delay_lqgame.model import DiscretePlant

from conftest import random_stable_plant, random_weights
from oracles import (
    augmented_delay_lqr,
    delay_free_game,
    exp_integral,
    gain,
    series_expm,
    simpson_exp_integral,
    two_controller_game,
)


def _criterion(number, description, ok):
    print(f"criterion {number:2d} {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def _with_delays(config, delays):
    return replace(config, plant=config.plant.with_delays(delays),
                   x0=np.array(config.x0))


@pytest.fixture(scope="module")
def generic():
    return preset_generic()


@pytest.fixture(scope="module")
def lfc():
    return preset_lfc()


@pytest.fixture(scope="module")
def generic_grid_costs(generic):
    """Proposed-scheme costs over the preset's 6x6 delay grid."""
    points = sweep_delays(generic)
    n1, n2 = len(generic.sweep[0]), len(generic.sweep[1])
    j_total = np.array([pt.j_total for pt in points]).reshape(n1, n2)
    ratio = np.array([pt.ratio for pt in points]).reshape(n1, n2)
    return j_total, ratio


def test_criterion_1_discretization_oracle(generic):
    ok = True
    cases = [generic.plant]
    rng = np.random.default_rng(1001)
    for _ in range(20):
        cases.append(random_stable_plant(
            rng, M=int(rng.integers(1, 7)), N=int(rng.integers(1, 3)),
            p=int(rng.integers(1, 4)), h=float(rng.uniform(0.02, 0.2))))
    for plant in cases:
        dp = discretize(plant)
        ok &= np.abs(dp.Phi - series_expm(plant.A, plant.h)).max() <= 1e-8
        total = exp_integral(plant.A, 0.0, plant.h)
        for i in range(plant.p):
            tau = plant.delays[i]
            g0 = simpson_exp_integral(plant.A, 0.0, plant.h - tau,
                                      tol=1e-10) @ plant.B[i]
            g1 = simpson_exp_integral(plant.A, plant.h - tau, plant.h,
                                      tol=1e-10) @ plant.B[i]
            ok &= np.abs(dp.Gamma0[i] - g0).max() <= 1e-8
            ok &= np.abs(dp.Gamma1[i] - g1).max() <= 1e-8
            ok &= np.abs(dp.Gamma0[i] + dp.Gamma1[i]
                         - total @ plant.B[i]).max() <= 1e-9
    _criterion(1, "discretization matches series+quadrature oracle (1e-8) "
                  "and conserves the delay split (1e-9)", ok)


def test_criterion_2_single_controller_equivalence():
    ok = True
    rng = np.random.default_rng(1002)
    for _ in range(20):
        plant = random_stable_plant(rng, M=int(rng.integers(1, 6)), p=1,
                                    h=float(rng.uniform(0.02, 0.1)))
        w = random_weights(rng, plant.M, p=1, horizon=50)
        sched = synthesize(discretize(plant), w)
        dp = discretize(plant)
        gains = augmented_delay_lqr(dp.Phi, dp.Gamma0[0], dp.Gamma1[0],
                                    w.Q[0], w.R[0], w.QN[0], 50)
        worst = max(np.abs(gain(sched, k, 0) - gains[k]).max()
                    for k in range(50))
        ok &= worst <= 1e-10
    _criterion(2, "single delayed controller equals the stacked-state "
                  "regulator oracle (1e-10, 20 random instances)", ok)


def _closed_form(dp, w):
    return two_controller_game(dp.Phi, dp.Gamma0, dp.Gamma1, w.Q, w.QN, w.R,
                               w.horizon)


def test_criterion_3_path_equivalence(generic, lfc):
    ok = True
    for config in (generic, lfc):
        dp = discretize(config.plant)
        A, B = _closed_form(dp, config.weights)
        multi = synthesize(dp, config.weights)
        ok &= np.abs(A - multi.A_coef).max() <= 1e-9
        ok &= np.abs(B - multi.B_coef).max() <= 1e-9
    rng = np.random.default_rng(1003)
    for _ in range(20):
        plant = random_stable_plant(rng, M=int(rng.integers(2, 5)), p=2)
        w = random_weights(rng, plant.M, p=2, horizon=30)
        dp = discretize(plant)
        A, B = _closed_form(dp, w)
        multi = synthesize(dp, w)
        ok &= np.abs(A - multi.A_coef).max() <= 1e-9
        ok &= np.abs(B - multi.B_coef).max() <= 1e-9
    _criterion(3, "general-p synthesis equals the two-controller closed "
                  "form (1e-9, both presets + 20 random instances)", ok)


def test_criterion_4_delay_free_degeneration(generic):
    dp0 = discretize(generic.plant.with_delays((0.0, 0.0)))
    w = generic.weights
    two = synthesize(dp0, w)
    free = delay_free_game(dp0.Phi, dp0.Gamma0, w.Q, w.QN, w.R, w.horizon)
    ok = np.abs(two.A_coef - free).max() <= 1e-10
    ok &= np.abs(two.B_coef).max() <= 1e-10
    # scalar one-step fixture: both coefficients are exactly -1/3
    dp = DiscretePlant([[1.0]], ([[1.0]], [[1.0]]), ([[0.0]], [[0.0]]))
    w = replace(generic.weights, Q=(np.eye(1), np.eye(1)),
                QN=(np.eye(1), np.eye(1)), R=(np.eye(1), np.eye(1)),
                horizon=1)
    sched = synthesize(dp, w)
    for i in (0, 1):
        ok &= abs(sched.A_coef[0, i, 0, 0] + 1.0 / 3.0) <= 1e-12
    _criterion(4, "zero-delay two-controller synthesis degenerates to the "
                  "delay-free game (1e-10); scalar fixture -1/3 (1e-12)", ok)


def test_criterion_5_nash_no_improvement(generic, lfc):
    ok = True
    for config in (generic, lfc):
        dp = discretize(config.plant)
        sched = synthesize(dp, config.weights)
        report = nash_deviation_check(dp, sched, config.weights, config.x0,
                                      trials=200, magnitude=1e-2, seed=0)
        ok &= report.passed
    _criterion(5, "200 unilateral single-step deviations never improve the "
                  "deviator by more than 1e-6*(1+J_i), both presets", ok)


def test_criterion_6_total_cost_trend(generic, generic_grid_costs):
    j_total, _ = generic_grid_costs
    slack = 1e-12 * (1.0 + np.abs(j_total).max())
    ok = bool(np.all(np.diff(j_total, axis=0) >= -slack))
    ok &= bool(np.all(np.diff(j_total, axis=1) >= -slack))
    _criterion(6, "total cost is non-decreasing in each delay over the "
                  "6x6 grid on [0, 0.02]^2", ok)


def test_criterion_7_cost_ratio_trend(generic, generic_grid_costs):
    _, ratio = generic_grid_costs
    slack = 1e-12 * (1.0 + np.abs(ratio).max())
    ok = bool(np.all(np.diff(ratio, axis=0) <= slack))      # falling in TD1
    ok &= bool(np.all(np.diff(ratio, axis=1) >= -slack))    # rising in TD2
    _criterion(7, "J_1/J_2 is non-increasing in TD1 and non-decreasing in "
                  "TD2 over the same grid", ok)


def _dominance_table(config, td1_values, td2_values):
    rows = []
    for td2 in td2_values:
        for td1 in td1_values:
            cfg = _with_delays(config, (td1, td2))
            j = {scheme: run_scheme(cfg, scheme).j_total
                 for scheme in Scheme}
            rows.append(((td1, td2), j))
    return rows


def test_criterion_8_scheme_ordering(generic):
    td1_values = generic.sweep[0]
    rows = _dominance_table(generic, td1_values, (0.0, 0.02))
    ok = True
    singles = {}
    for (td1, td2), j in rows:
        jp = j[Scheme.PROPOSED]
        tol = 1e-9 * (1.0 + jp)
        ok &= jp <= j[Scheme.SINGLE_DELAYED] + tol
        ok &= jp <= j[Scheme.DELAY_FREE_GAME] + tol
        singles.setdefault(td1, []).append(j[Scheme.SINGLE_DELAYED])
    for td1, values in singles.items():
        ok &= abs(values[0] - values[1]) <= 1e-12 * (1.0 + abs(values[0]))
    _criterion(8, "proposed scheme dominates both baselines for TD2 in "
                  "{0, 0.02}; single-controller cost is TD2-invariant "
                  "(1e-12 relative)", ok)


def test_criterion_9_lfc_fixture(lfc):
    grid = lfc.sweep[0]
    ok = True
    j_total = np.zeros((len(grid), len(grid)))
    ratio = np.zeros_like(j_total)
    min_eig = np.inf
    max_asym = 0.0
    for a, td1 in enumerate(grid):
        for b, td2 in enumerate(grid):
            cfg = _with_delays(lfc, (td1, td2))
            dp = discretize(cfg.plant)
            sched, values = synthesize(dp, cfg.weights, return_values=True)
            for step_values in values:
                for S in step_values:
                    max_asym = max(max_asym, np.abs(S - S.T).max())
                    min_eig = min(min_eig, np.linalg.eigvalsh(S).min())
            tr = rollout(dp, sched, cfg.x0, cfg.weights)
            j_total[a, b] = tr.total_cost
            ratio[a, b] = tr.per_player_cost[0] / tr.per_player_cost[1]
    ok &= max_asym <= 1e-9 and min_eig >= -1e-9
    slack = 1e-12 * (1.0 + np.abs(j_total).max())
    ok &= bool(np.all(np.diff(j_total, axis=0) >= -slack))
    ok &= bool(np.all(np.diff(j_total, axis=1) >= -slack))
    rslack = 1e-12 * (1.0 + np.abs(ratio).max())
    ok &= bool(np.all(np.diff(ratio, axis=0) <= rslack))
    ok &= bool(np.all(np.diff(ratio, axis=1) >= -rslack))
    # equilibrium check at the preset's own delays
    dp = discretize(lfc.plant)
    sched = synthesize(dp, lfc.weights)
    ok &= nash_deviation_check(dp, sched, lfc.weights, lfc.x0, trials=200,
                               magnitude=1e-2, seed=0).passed
    # scheme ordering with TD2 at the grid edges
    for (td1, td2), j in _dominance_table(lfc, grid, (0.0, 0.008)):
        jp = j[Scheme.PROPOSED]
        tol = 1e-9 * (1.0 + jp)
        ok &= jp <= j[Scheme.SINGLE_DELAYED] + tol
        ok &= jp <= j[Scheme.DELAY_FREE_GAME] + tol
    _criterion(9, "9-state two-area fixture synthesizes cleanly on the 4x4 "
                  "grid; trends, equilibrium, ordering, and PSD value "
                  "matrices (1e-9 floors) all hold", ok)


def test_criterion_10_cli_determinism(tmp_path, generic):
    cfg = tmp_path / "cfg.json"
    config = replace(generic, sweep=((0.0, 0.02), (0.0, 0.02)),
                     x0=np.array(generic.x0))
    cfg.write_text(dump_config(config))
    ok = True
    for command, name in (("sweep", "s"), ("compare", "c")):
        a = tmp_path / f"{name}_a.csv"
        b = tmp_path / f"{name}_b.csv"
        ok &= cli_main([command, "--config", str(cfg), "--out", str(a)]) == 0
        ok &= cli_main([command, "--config", str(cfg), "--out", str(b)]) == 0
        ok &= a.read_bytes() == b.read_bytes()
    gains = tmp_path / "gains.json"
    gains2 = tmp_path / "gains2.json"
    ok &= cli_main(["synthesize", "--config", str(cfg),
                    "--out", str(gains)]) == 0
    ok &= cli_main(["synthesize", "--config", str(cfg),
                    "--out", str(gains2)]) == 0
    ok &= gains.read_bytes() == gains2.read_bytes()
    t1 = tmp_path / "t1.csv"
    t2 = tmp_path / "t2.csv"
    ok &= cli_main(["simulate", "--config", str(cfg), "--gains", str(gains),
                    "--out", str(t1)]) == 0
    ok &= cli_main(["simulate", "--config", str(cfg), "--out", str(t2)]) == 0
    ok &= t1.read_bytes() == t2.read_bytes()
    ok &= (t1.with_suffix(".json").read_bytes()
           == t2.with_suffix(".json").read_bytes())
    _criterion(10, "every CLI pipeline rerun is byte-identical (sweep, "
                   "compare, synthesize, simulate; offline == fused)", ok)
