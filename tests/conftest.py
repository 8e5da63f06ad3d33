import numpy as np
import pytest

from delay_lqgame import (
    ContinuousPlant,
    GameWeights,
    SingularMatrixError,
    discretize,
    lin_ops,
    preset_generic,
    preset_lfc,
)


def random_stable_plant(rng, M=None, N=1, p=2, h=0.05, zero_delays=False):
    """Random continuous plant with eigenvalues pushed into the left half
    plane and delays strictly inside [0, h)."""
    if M is None:
        M = int(rng.integers(2, 5))
    A = rng.normal(size=(M, M))
    shift = np.max(np.linalg.eigvals(A).real) + rng.uniform(0.2, 1.0)
    A = A - shift * np.eye(M)
    B = tuple(rng.normal(size=(M, N)) for _ in range(p))
    if zero_delays:
        delays = (0.0,) * p
    else:
        delays = tuple(rng.uniform(0.0, h * 0.98, size=p).tolist())
    return ContinuousPlant(A=A, B=B, delays=delays, h=h)


def random_weights(rng, M, N=1, p=2, horizon=50):
    """Random positive-definite running/control weights, PSD terminal."""
    def spd(n, scale):
        G = rng.normal(size=(n, n))
        return scale * (G @ G.T + n * np.eye(n))

    Q = tuple(spd(M, 1.0) for _ in range(p))
    QN = tuple(spd(M, rng.uniform(0.5, 2.0)) for _ in range(p))
    R = tuple(spd(N, 1.0) for _ in range(p))
    return GameWeights(Q=Q, QN=QN, R=R, horizon=horizon)


def singular_solve(monkeypatch, row, index=0):
    """Make the recursion's stacked solve report system ``row`` of the
    stack singular at pivot position ``index``, as the real solve does.
    The first call, the last step's, is the one that fails."""
    def singular(systems, out):
        raise SingularMatrixError("forced", 0.0, index, row)

    monkeypatch.setattr(lin_ops, "solve_into", singular)


@pytest.fixture(scope="session")
def generic_config():
    return preset_generic()


@pytest.fixture(scope="session")
def lfc_config():
    return preset_lfc()


@pytest.fixture(scope="session")
def generic_dp(generic_config):
    return discretize(generic_config.plant)
