"""Shared toy environments, feature maps and exact oracles for the test suite.

The diamond MDP is a three-layer chain with stochastic branching, two
actions everywhere, and small integer costs. With gamma = 0.5 every
reachable budget value is an exact dyadic rational, so augmented-state
closures, value iteration, and trajectory enumeration are all exact in
floating point. The full trajectory set has 10 elements.

``trade_off_certificate`` checks, with the library's exact lattice oracle,
that an optimal-stopping instance has the mean/CVaR trade-off that
acceptance criterion 6 needs. ``cvar_oracle`` is a grid brute force of
the Rockafellar-Uryasev minimum that the library's CVaR is checked against.
"""
from __future__ import annotations

import numpy as np
import pytest

from cvarpg.errors import InputError
from cvarpg.features import action_blocks
from cvarpg.lattice import StoppingLattice
from cvarpg.mdp import AugState, FiniteMDP
from cvarpg.optstop import OptStopParams
from cvarpg.risk import EmpiricalDistribution, cvar, tail_probability


def make_diamond_mdp() -> FiniteMDP:
    # states: 0 start, 1 and 2 interior, 3 terminal
    transitions = {
        0: [
            [(0.7, 1), (0.3, 2)],   # action 0
            [(0.2, 1), (0.8, 2)],   # action 1
        ],
        1: [
            [(1.0, 3)],
            [(1.0, 3)],
        ],
        2: [
            [(1.0, 3)],
            [(1.0, 1)],
        ],
    }
    costs = {
        (0, 0): 1.0,
        (0, 1): 2.0,
        (1, 0): 0.0,
        (1, 1): 3.0,
        (2, 0): 1.0,
        (2, 1): 0.0,
    }
    return FiniteMDP(transitions, costs, terminal={3}, x0=0)


class TabularPolicyFeatures:
    """One-hot (state, action) policy features for finite MDPs.

    Works on raw integer states and on augmented states (the budget
    coordinate is ignored, terminal phases get a single zero row).
    """

    def __init__(self, n_states: int, n_actions: int):
        self.n_states = n_states
        self.n_actions = n_actions
        self.dim = n_states * n_actions

    def _raw_state(self, state):
        if isinstance(state, AugState):
            return None if state.at_terminal else state.env_state
        return state

    def per_action(self, state) -> np.ndarray:
        x = self._raw_state(state)
        if x is None:
            return np.zeros((1, self.dim))
        base = np.zeros(self.n_states)
        base[x] = 1.0
        return action_blocks(base, self.n_actions)


class ChainFeatures:
    """One-hot features over a reachable augmented closure."""

    def __init__(self, chain, x0):
        self.chain = chain
        self.x0 = x0
        self.dim = chain.n

    def __call__(self, state) -> np.ndarray:
        if state is None:
            return np.zeros(self.dim)
        return self.chain.one_hot(state)

    def at_initial(self, s: float) -> np.ndarray:
        return self(AugState(self.x0, s))


def make_random_terminating_mdp(rng) -> FiniteMDP:
    """Small random chain with a guaranteed pull toward termination."""
    n = int(rng.integers(2, 5))
    terminal = n
    transitions = {}
    costs = {}
    for x in range(n):
        acts = []
        for a in range(2):
            targets = list(range(n)) + [terminal]
            w = rng.random(len(targets)) + 1e-3
            w[-1] += 0.6
            w /= w.sum()
            acts.append([(float(p), t) for p, t in zip(w, targets)])
            costs[(x, a)] = float(rng.integers(0, 4))
        transitions[x] = acts
    return FiniteMDP(transitions, costs, terminal={terminal}, x0=0)


def enumerated_objective(trajs, nu: float, lam: float, alpha: float, beta: float) -> float:
    """Exact saddle objective from an enumerated trajectory distribution."""
    e_loss = sum(p * t.loss for p, t in trajs)
    e_excess = sum(p * max(t.loss - nu, 0.0) for p, t in trajs)
    return e_loss + lam * nu + lam / (1.0 - alpha) * e_excess - lam * beta


def enumerated_gradients(trajs, nu: float, lam: float, alpha: float, beta: float):
    """Closed-form gradients of the saddle objective (quantile tie weight 1)."""
    dim = trajs[0][1].score.size
    g_theta = np.zeros(dim)
    tail_prob = 0.0
    tail_excess = 0.0
    for p, t in trajs:
        ind = 1.0 if t.loss >= nu else 0.0
        g_theta += p * t.score * (t.loss + lam / (1.0 - alpha) * (t.loss - nu) * ind)
        tail_prob += p * ind
        tail_excess += p * (t.loss - nu) * ind
    g_nu = lam - lam / (1.0 - alpha) * tail_prob
    g_lambda = nu - beta + tail_excess / (1.0 - alpha)
    return g_theta, g_nu, g_lambda


def cvar_oracle(dist: EmpiricalDistribution, alpha: float, grid) -> float:
    """Brute-force min of nu + E[(Z - nu)^+]/(1 - alpha) over an explicit grid of nu."""
    if not 0.0 < alpha < 1.0:
        raise InputError(f"alpha must be in (0,1), got {alpha}")
    grid = np.asarray(grid, dtype=float).reshape(-1)
    if grid.size == 0:
        raise InputError("grid must be non-empty")
    excess = np.maximum(dist.samples[None, :] - grid[:, None], 0.0)
    values = grid + (excess @ dist.weights) / (1.0 - alpha)
    return float(values.min())


@pytest.fixture
def diamond():
    return make_diamond_mdp()


@pytest.fixture
def diamond_features():
    return TabularPolicyFeatures(4, 2)


def trade_off_certificate(params: OptStopParams, alpha: float, beta: float,
                          factor: float) -> dict:
    """Exact check that a benchmark instance has a mean/CVaR trade-off at beta.

    ``ok`` holds when (i) the mean-optimal policy has CVaR_alpha >= beta /
    factor, so any policy meeting CVaR <= beta cuts CVaR by 1 - factor
    against it, and (ii) the constrained optimum from the Lagrangian scan
    cuts CVaR to at most ``factor`` of the mean optimum's, has no more
    probability at or above beta, and a mean no lower.
    """
    lattice = StoppingLattice(params)
    rn = lattice.distribution(lattice.mean_optimum()[1])
    rs, _ = lattice.constrained_optimum(alpha, beta)
    summary = {
        name: (d.mean(), cvar(d, alpha), tail_probability(d, beta))
        for name, d in (("risk_neutral", rn), ("constrained", rs))
    }
    (rn_mean, rn_cvar, rn_tail), (rs_mean, rs_cvar, rs_tail) = summary.values()
    summary["ok"] = (
        rn_cvar >= beta / factor
        and rs_cvar <= factor * rn_cvar
        and rs_tail <= rn_tail
        and rs_mean >= rn_mean
    )
    return summary
