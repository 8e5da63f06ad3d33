"""The shape rule: every size agreement between plant, weights, gains, x0
and trajectories raises DimensionError whose message leads with the
field path, then the actual and the expected shape.

The table here drives each site of the rule from the Python API.  The
sites that a config or gains document reaches are driven through the CLI
in test_cli.py (``test_semantic_error_exits_1_naming_the_document_path``,
the gains tests), where the path is the document's.
"""

from dataclasses import replace

import numpy as np
import pytest

from delay_lqgame import (
    ContinuousPlant,
    DimensionError,
    DiscretePlant,
    ExperimentConfig,
    GainSchedule,
    GameWeights,
    Scheme,
    discretize,
    evaluate_costs,
    nash_deviation_check,
    preset_generic,
    preset_lfc,
    rollout,
    solve,
    synthesize,
    synthesize_batch,
)
from delay_lqgame.cli import schedule_from_dict, schedule_to_dict
from delay_lqgame.lin_ops import check_shape, mat_exp

from oracles import select_controller, select_player

# The generic preset: M = 2 states, p = 2 controllers of N = 1 input,
# horizon 50.
GENERIC = preset_generic()
PLANT, WEIGHTS, X0 = GENERIC.plant, GENERIC.weights, GENERIC.x0
DP = discretize(PLANT)
SCHEDULE = synthesize(DP, WEIGHTS)
TRAJECTORY = rollout(DP, SCHEDULE, X0, WEIGHTS)
EYE2 = np.eye(2)
COLUMN = np.ones((2, 1))


def _plant(**changes):
    args = dict(A=PLANT.A, B=PLANT.B, delays=PLANT.delays, h=PLANT.h)
    return ContinuousPlant(**{**args, **changes})


def _discrete(**changes):
    args = dict(Phi=DP.Phi, Gamma0=DP.Gamma0, Gamma1=DP.Gamma1)
    return DiscretePlant(**{**args, **changes})


def _weights(**changes):
    args = dict(Q=WEIGHTS.Q, QN=WEIGHTS.QN, R=WEIGHTS.R,
                horizon=WEIGHTS.horizon)
    return GameWeights(**{**args, **changes})


def _gains_doc(B_coef):
    doc = schedule_to_dict(SCHEDULE, PLANT)
    doc["B_coef"] = B_coef
    return doc


API_SITES = [
    ("as_matrix-axes", lambda: _plant(B=([0.0, 1.0], COLUMN)),
     "B[0]: shape (2,), expected (*, *)"),
    ("as_matrix-square-axes", lambda: _plant(A=[1.0, 2.0]),
     "A: shape (2,), expected (2, 2)"),
    ("as_matrix-square", lambda: _plant(A=np.ones((2, 3))),
     "A: shape (2, 3), expected (2, 2)"),
    ("mat_exp", lambda: mat_exp(np.ones((2, 3))),
     "A: shape (2, 3), expected (2, 2)"),
    ("plant-B-rows", lambda: _plant(B=(np.ones((1, 1)),) * 2),
     "B[0]: shape (1, 1), expected (2, 1)"),
    ("plant-B-columns", lambda: _plant(B=(COLUMN, np.ones((2, 2)))),
     "B[1]: shape (2, 2), expected (2, 1)"),
    ("plant-delays", lambda: _plant(delays=(0.01,)),
     "delays: shape (1,), expected (2,)"),
    ("plant-delays-document", lambda: ContinuousPlant(
        A=PLANT.A, B=PLANT.B, delays=(0.01,) * 3, h=PLANT.h, path="plant"),
     "plant.delays: shape (3,), expected (2,)"),
    ("Phi", lambda: _discrete(Phi=np.ones((2, 3))),
     "Phi: shape (2, 3), expected (2, 2)"),
    ("Gamma0-entry", lambda: _discrete(Gamma0=(COLUMN, np.ones((2, 2)))),
     "Gamma0[1]: shape (2, 2), expected (2, 1)"),
    ("Gamma1-entry", lambda: _discrete(Gamma1=(np.ones((1, 1)), COLUMN)),
     "Gamma1[0]: shape (1, 1), expected (2, 1)"),
    ("Gamma1-count", lambda: _discrete(Gamma1=(COLUMN,)),
     "Gamma1: shape (1, 2, 1), expected (2, 2, 1)"),
    ("weights-Q-entry", lambda: _weights(Q=(EYE2, np.eye(3))),
     "Q[1]: shape (3, 3), expected (2, 2)"),
    ("weights-Q-square", lambda: _weights(Q=(EYE2, np.ones((2, 3)))),
     "Q[1]: shape (2, 3), expected (2, 2)"),
    ("weights-QN-count", lambda: _weights(QN=(EYE2,)),
     "QN: shape (1, 2, 2), expected (2, 2, 2)"),
    ("weights-R-entry", lambda: _weights(R=([[1.0]], np.eye(2))),
     "R[1]: shape (2, 2), expected (1, 1)"),
    ("weights-R-count-document", lambda: GameWeights(
        Q=WEIGHTS.Q, QN=WEIGHTS.QN, R=WEIGHTS.R[:1], horizon=50,
        path="weights"),
     "weights.R: shape (1, 1, 1), expected (2, 1, 1)"),
    ("gains-A_coef-axes", lambda: GainSchedule(
        Scheme.PROPOSED, np.zeros((2, 1, 1)), np.zeros((2, 1, 1, 1, 1))),
     "A_coef: shape (2, 1, 1), expected (*, *, *, *)"),
    ("gains-B_coef", lambda: GainSchedule(
        Scheme.PROPOSED, np.zeros((2, 1, 1, 1)), np.zeros((2, 2, 2, 1, 1))),
     "B_coef: shape (2, 2, 2, 1, 1), expected (2, 1, 1, 1, 1)"),
    ("gains-document-B_coef", lambda: schedule_from_dict(
        _gains_doc(SCHEDULE.B_coef[:, :, :1].tolist()), PLANT,
        WEIGHTS.horizon),
     "<gains>.B_coef: shape (50, 2, 1, 1, 1), expected (50, 2, 2, 1, 1)"),
    ("weights-controllers", lambda: synthesize(DP, select_player(WEIGHTS, 0)),
     "weights.Q: shape (1, 2, 2), expected (2, 2, 2)"),
    ("weights-batch-plant", lambda: synthesize_batch(
        [DP, select_controller(DP, 0)], WEIGHTS),
     "weights.Q: shape (2, 2, 2), expected (1, 2, 2)"),
    ("weights-states", lambda: synthesize(DP, preset_lfc().weights),
     "weights.Q[0]: shape (9, 9), expected (2, 2)"),
    ("weights-controls", lambda: synthesize(
        DP, _weights(R=(EYE2, EYE2))),
     "weights.R[0]: shape (2, 2), expected (1, 1)"),
    ("x0", lambda: rollout(DP, SCHEDULE, np.zeros(3), WEIGHTS),
     "x0: shape (3,), expected (2,)"),
    ("x0-config", lambda: ExperimentConfig(PLANT, WEIGHTS, x0=[1.0]),
     "x0: shape (1,), expected (2,)"),
    ("sweep-grids", lambda: ExperimentConfig(PLANT, WEIGHTS,
                                             sweep=((0.0,),)),
     "sweep.delays_grid: shape (1,), expected (2,)"),
    ("schedule-horizon", lambda: rollout(
        DP, replace(SCHEDULE, A_coef=SCHEDULE.A_coef[:10],
                    B_coef=SCHEDULE.B_coef[:10]), X0, WEIGHTS),
     "schedule.A_coef: shape (10, 2, 1, 2), expected (50, 2, 1, 2)"),
    ("schedule-controllers", lambda: nash_deviation_check(
        DP, replace(SCHEDULE, A_coef=SCHEDULE.A_coef[:, :1],
                    B_coef=SCHEDULE.B_coef[:, :1, :1]), WEIGHTS, X0),
     "schedule.A_coef: shape (50, 1, 1, 2), expected (50, 2, 1, 2)"),
    ("trajectory-controls", lambda: evaluate_costs(
        TRAJECTORY, replace(WEIGHTS, horizon=10)),
     "trajectory.controls: shape (50, 2, 1), expected (10, 2, 1)"),
    ("trajectory-states", lambda: evaluate_costs(
        replace(TRAJECTORY, states=TRAJECTORY.states[:10]), WEIGHTS),
     "trajectory.states: shape (10, 2), expected (51, 2)"),
    ("trajectory-states-axes", lambda: evaluate_costs(
        replace(TRAJECTORY, states=TRAJECTORY.states[:, 0]), WEIGHTS),
     "trajectory.states: shape (51,), expected (51, 2)"),
    ("solve-A", lambda: solve(np.ones((2, 3)), np.ones((2, 1))),
     "A: shape (2, 3), expected (3, 3)"),
    ("solve-A-axes", lambda: solve(np.ones(3), np.ones((3, 1))),
     "A: shape (3,), expected (3, 3)"),
    ("solve-B", lambda: solve(np.ones((4, 2, 2)), np.ones((2, 2, 1))),
     "B: shape (2, 2, 1), expected (4, 2, *)"),
]


@pytest.mark.parametrize("build, message",
                         [pytest.param(build, message, id=name)
                          for name, build, message in API_SITES])
def test_api_site_names_the_field(build, message):
    with pytest.raises(DimensionError) as info:
        build()
    assert str(info.value) == message


def _first_leaf(leaf, cast):
    """A builder of nested lists of a field's entries as cast, the first
    entry replaced by leaf."""
    def build(a):
        nest = np.asarray(a).astype(cast).tolist()
        row = nest
        while isinstance(row[0], list):
            row = row[0]
        row[0] = leaf
        return nest
    return build


# Values that are not real numbers, each shaped like the generic preset's
# field it replaces: arrays, and lists of numbers holding one bool.
NON_REAL = {
    "complex": lambda a: np.asarray(a) + 1j,
    "string": lambda a: np.asarray(a).astype(str),
    "bool": lambda a: np.ones(np.shape(a), dtype=bool),
    "datetime": lambda a: np.zeros(np.shape(a), dtype="datetime64[D]"),
    "bool-in-floats": _first_leaf(True, float),
    "bool-in-ints": _first_leaf(True, int),
    "numpy-bool-in-floats": _first_leaf(np.True_, float),
    "0d-bool-array-in-floats": _first_leaf(np.array(True), float),
}

VALUE_SITES = {
    "solve": (lambda f: solve(f(EYE2), COLUMN), "A"),
    "plant": (lambda f: _plant(A=f(PLANT.A)), "A"),
    "schedule": (lambda f: GainSchedule(Scheme.PROPOSED, f(SCHEDULE.A_coef),
                                        SCHEDULE.B_coef), "A_coef"),
    "x0": (lambda f: rollout(DP, SCHEDULE, f(X0), WEIGHTS), "x0"),
}


@pytest.mark.parametrize("site", sorted(VALUE_SITES))
@pytest.mark.parametrize("kind", sorted(NON_REAL))
def test_api_site_refuses_non_real_values(kind, site):
    build, field = VALUE_SITES[site]
    dtype = "bool" if "bool" in kind else NON_REAL[kind](EYE2).dtype
    with pytest.raises(DimensionError) as info:
        build(NON_REAL[kind])
    assert str(info.value) == (f"{field}: expected real numbers, got "
                               f"{dtype} values")


class TestRule:
    def test_free_axes_match_any_length(self):
        check_shape((3, 7), (3, None), "x")
        check_shape((), (), "x")

    @pytest.mark.parametrize("shape, expected, message", [
        ((2, 3), (2,), "x: shape (2, 3), expected (2,)"),
        ((2, 3), (2, 4), "x: shape (2, 3), expected (2, 4)"),
        ((), (1,), "x: shape (), expected (1,)"),
    ])
    def test_mismatch_message(self, shape, expected, message):
        with pytest.raises(DimensionError) as info:
            check_shape(shape, expected, "x")
        assert str(info.value) == message
