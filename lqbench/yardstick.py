"""Fixed reference computations that measure the host's current speed.

On a shared host the same operation runs up to twice as fast or as slow
from one minute to the next, with CPU time equal to wall time, as the
neighbours' load comes and goes.  The benchmark therefore times a fixed
computation right after every operation, and reports each operation's time
as a multiple of it: both run at the same host speed, so the ratio keeps
the program's cost and drops the host's swings.

A yardstick must stay fixed and must not call the package, or a change to
the program would move it too.  It must also resemble the work it measures,
because the host's swings hit different kinds of work differently:

- ``rollout_seconds``: in-process work, a closed-loop rollout with
  per-step small numpy products in Python loops, the shape of
  ``simulate``'s deviation check, on a fixed synthetic plant.
- the cli-oneshot yardstick (``workloads.CliOneshot.yardstick``): a fresh
  interpreter that imports numpy, the shape of a CLI process's start-up.
"""

import time

import numpy as np

clock = time.perf_counter

M, N, P, HORIZON = 4, 1, 2, 60
TRIALS = 30  # about 0.1 s on a 2 GHz Xeon core

_rng = np.random.default_rng(0)
_A = 0.3 * _rng.normal(size=(M, M))
_GAMMA0 = _rng.normal(size=(P, M, N))
_GAMMA1 = _rng.normal(size=(P, M, N))
_K_STATE = 0.1 * _rng.normal(size=(HORIZON, P, N, M))
_K_INPUT = 0.1 * _rng.normal(size=(HORIZON, P, P, N, N))
_Q = np.eye(M)
_R = np.eye(N)
_X0 = np.ones(M)


def _rollout_cost(player, step, delta):
    states = np.zeros((HORIZON + 1, M))
    controls = np.zeros((HORIZON, P, N))
    x = _X0
    states[0] = x
    u_prev = np.zeros((P, N))
    for k in range(HORIZON):
        u = np.zeros((P, N))
        for i in range(P):
            ui = _K_STATE[k, i] @ x
            for j in range(P):
                ui = ui + _K_INPUT[k, i, j] @ u_prev[j]
            u[i] = ui
        if k == step:
            u[player] = u[player] + delta
        x_next = _A @ x
        for i in range(P):
            x_next = x_next + _GAMMA0[i] @ u[i] + _GAMMA1[i] @ u_prev[i]
        controls[k] = u
        states[k + 1] = x_next
        u_prev = u
        x = x_next
    cost = 0.0
    for i in range(P):
        for k in range(HORIZON):
            cost += states[k] @ _Q @ states[k]
            cost += controls[k, i] @ _R @ controls[k, i]
    return cost


def rollout_seconds():
    """Wall time of TRIALS seeded deviation rollouts on the fixed plant."""
    began = clock()
    for trial in range(TRIALS):
        rng = np.random.default_rng((7, trial))
        _rollout_cost(int(rng.integers(P)), int(rng.integers(HORIZON)),
                      rng.normal(size=N))
    return clock() - began
