"""Environment abstraction, trajectory simulation, and the budget-augmented wrapper.

An environment exposes::

    initial_state() -> state
    n_actions(state) -> int          # >= 1; single action means no decision
    step(state, action, rng) -> (next_state, cost, done)

Terminal transitions set done=True; after that the process is absorbed in
a zero-cost sink, so simulation simply stops. Stochastic environments may
additionally expose ``branches(state, action) -> [(prob, next, cost,
done)]`` which enables exact trajectory enumeration.

The augmented wrapper appends a running budget coordinate s with the
deterministic dynamics s' = (s - cost)/gamma and charges a terminal
penalty proportional to the positive part of the overrun, which converts
a quantile-excess objective into a plain expected discounted cost.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import InputError, SimulationError
from .policy import action_probabilities, grad_log_prob, sample_action
from .risk import RiskSpec

__all__ = [
    "Trajectory",
    "rollout",
    "discounted_loss",
    "AugmentedCostMode",
    "AugState",
    "AugmentedEnv",
    "augment",
    "augmented_loss_identity",
    "FiniteMDP",
    "enumerate_trajectories",
]


@dataclass
class Trajectory:
    """One simulated episode: states, actions, per-step costs, and score."""

    states: list
    actions: list
    costs: np.ndarray
    loss: float
    score: np.ndarray

    @property
    def length(self) -> int:
        return len(self.actions)


def discounted_loss(costs, gamma: float) -> float:
    # iterated multiplication, matching the batched simulators bit for bit
    total, disc = 0.0, 1.0
    for c in np.asarray(costs, dtype=float):
        total += disc * c
        disc *= gamma
    return total


def rollout(env, feature_map, theta, rng, horizon_cap: int, gamma: float) -> Trajectory:
    """Simulate one episode under the Boltzmann policy given by theta.

    Ends at the first terminal transition or after horizon_cap steps.
    Decision steps consume exactly one uniform for action selection,
    before any draws the environment itself makes; single-action states
    consume none. This fixed consumption order is what makes batched and
    sequential simulation bit-identical.
    """
    if horizon_cap < 1:
        raise InputError(f"horizon_cap must be >= 1, got {horizon_cap}")
    theta = np.asarray(theta, dtype=float)
    state = env.initial_state()
    states = [state]
    actions: list[int] = []
    costs: list[float] = []
    score = np.zeros_like(theta)
    for _ in range(horizon_cap):
        n_act = env.n_actions(state)
        if n_act > 1:
            feats = feature_map.per_action(state)
            probs = action_probabilities(theta, feats)
            action = sample_action(probs, rng.random())
            score += grad_log_prob(feats, probs, action)
        else:
            action = 0
        next_state, cost, done = env.step(state, action, rng)
        if not np.isfinite(cost):
            raise SimulationError(f"environment produced non-finite cost {cost!r}")
        actions.append(action)
        costs.append(float(cost))
        states.append(next_state)
        if done:
            break
        state = next_state
    costs_arr = np.asarray(costs, dtype=float)
    return Trajectory(states, actions, costs_arr, discounted_loss(costs_arr, gamma), score)


class AugmentedCostMode(enum.Enum):
    """Cost convention of the augmented process.

    STANDARD keeps interior costs and charges lambda * (-s)^+ / (1-alpha)
    at the terminal state. ZEROED zeroes interior costs and charges
    (-s)^+ / (1-alpha), isolating the quantile-excess value function for
    the two-critic gradient variant.
    """

    STANDARD = "standard"
    ZEROED = "zeroed"


@dataclass(frozen=True)
class AugState:
    """Environment state paired with the remaining budget s."""

    env_state: object
    s: float
    at_terminal: bool = False


@dataclass(frozen=True)
class AugStep:
    next_state: object
    cost: float       # cost under the wrapper's mode
    env_cost: float   # raw cost of the underlying environment
    done: bool


class AugmentedEnv:
    """Budget-augmented view of a base environment.

    The terminal penalty is produced by one extra decision-free step
    after the base environment terminates, so a trajectory's discounted
    cost already includes it.
    """

    def __init__(self, env, lam: float, risk: RiskSpec, mode: AugmentedCostMode,
                 s0: float = 0.0):
        if lam < 0.0:
            raise InputError(f"lambda must be >= 0, got {lam}")
        self.env = env
        self.lam = float(lam)
        self.risk = risk
        self.mode = mode
        self.s0 = float(s0)

    def initial_state(self) -> AugState:
        return AugState(self.env.initial_state(), self.s0)

    def n_actions(self, state: AugState) -> int:
        return 1 if state.at_terminal else self.env.n_actions(state.env_state)

    def terminal_cost(self, s: float) -> float:
        scale = self.lam if self.mode is AugmentedCostMode.STANDARD else 1.0
        return scale * max(-s, 0.0) / (1.0 - self.risk.alpha)

    def step_full(self, state: AugState, action: int, rng) -> AugStep:
        if state.at_terminal:
            return AugStep(None, self.terminal_cost(state.s), 0.0, True)
        nxt, cost, done = self.env.step(state.env_state, action, rng)
        s_next = (state.s - cost) / self.risk.gamma
        out_cost = cost if self.mode is AugmentedCostMode.STANDARD else 0.0
        new_state = AugState(None if done else nxt, s_next, at_terminal=done)
        return AugStep(new_state, out_cost, cost, False)

    def step(self, state: AugState, action: int, rng):
        st = self.step_full(state, action, rng)
        return st.next_state, st.cost, st.done

    def branches(self, state: AugState, action: int):
        if state.at_terminal:
            return [(1.0, None, self.terminal_cost(state.s), True)]
        out = []
        for prob, nxt, cost, done in self.env.branches(state.env_state, action):
            s_next = (state.s - cost) / self.risk.gamma
            out_cost = cost if self.mode is AugmentedCostMode.STANDARD else 0.0
            new_state = AugState(None if done else nxt, s_next, at_terminal=done)
            out.append((prob, new_state, out_cost, False))
        return out


def augment(env, lam: float, risk: RiskSpec, mode: AugmentedCostMode, s0: float = 0.0) -> AugmentedEnv:
    """Wrap an environment with budget dynamics starting at s0."""
    return AugmentedEnv(env, lam, risk, mode, s0)


def augmented_loss_identity(
    trajectory: Trajectory, s0: float, lam: float, alpha: float, gamma: float
) -> tuple[float, float]:
    """Both sides of the augmented-loss decomposition, computed independently.

    For a STANDARD-mode trajectory that terminated naturally, the total
    discounted cost (terminal penalty included) must equal
    D + lam*(D - s0)^+/(1-alpha) where D is the raw discounted loss.
    """
    lhs = discounted_loss(trajectory.costs, gamma)
    interior = trajectory.costs[:-1]  # final step is the terminal penalty
    d = discounted_loss(interior, gamma)
    rhs = d + lam * max(d - s0, 0.0) / (1.0 - alpha)
    return lhs, rhs


class FiniteMDP:
    """Tabular environment with deterministic per-(state, action) costs.

    ``transitions[x][a]`` is a list of (prob, next_state) pairs; states in
    ``terminal`` absorb, and moving into one ends the episode. Used by the
    enumeration and exact-solver test oracles.
    """

    def __init__(self, transitions, costs, terminal, x0: int = 0):
        self.transitions = transitions
        self.costs = costs
        self.terminal = set(terminal)
        self.x0 = x0
        self._n_actions = {x: len(acts) for x, acts in transitions.items()}
        for x, acts in transitions.items():
            for a, branch in enumerate(acts):
                total = sum(p for p, _ in branch)
                if abs(total - 1.0) > 1e-12:
                    raise InputError(f"transition probs at ({x},{a}) sum to {total}")

    def initial_state(self) -> int:
        return self.x0

    def n_actions(self, state: int) -> int:
        return self._n_actions[state]

    def step(self, state: int, action: int, rng):
        branch = self.transitions[state][action]
        probs = np.array([p for p, _ in branch])
        idx = int(np.searchsorted(np.cumsum(probs), rng.random(), side="right").clip(0, len(branch) - 1))
        nxt = branch[idx][1]
        cost = self.costs[(state, action)]
        done = nxt in self.terminal
        return (None if done else nxt, cost, done)

    def branches(self, state: int, action: int):
        cost = self.costs[(state, action)]
        out = []
        for prob, nxt in self.transitions[state][action]:
            done = nxt in self.terminal
            out.append((prob, None if done else nxt, cost, done))
        return out


def enumerate_trajectories(
    env, feature_map, theta, gamma: float, horizon_cap: int, max_trajectories: int = 100_000
):
    """Exhaustive trajectory distribution under a Boltzmann policy.

    Walks every action and transition branch of an environment that
    exposes ``branches``. Returns a list of (probability, Trajectory).
    Probabilities include both policy and transition factors and sum to
    one when every path terminates within the cap.
    """
    theta = np.asarray(theta, dtype=float)
    out: list[tuple[float, Trajectory]] = []

    def walk(state, prob, states, actions, costs, score, depth):
        if len(out) > max_trajectories:
            raise InputError(f"more than {max_trajectories} trajectories")
        if depth >= horizon_cap:
            raise InputError("trajectory exceeded horizon cap during enumeration")
        n_act = env.n_actions(state)
        if n_act > 1:
            feats = feature_map.per_action(state)
            probs = action_probabilities(theta, feats)
        else:
            feats, probs = None, np.ones(1)
        for a in range(n_act):
            glp = grad_log_prob(feats, probs, a) if n_act > 1 else 0.0
            for br_prob, nxt, cost, done in env.branches(state, a):
                p = prob * probs[a] * br_prob
                if p == 0.0:
                    continue
                st = states + [nxt]
                ac = actions + [a]
                cs = costs + [cost]
                sc = score + glp
                if done:
                    arr = np.asarray(cs, dtype=float)
                    out.append((p, Trajectory(st, ac, arr, discounted_loss(arr, gamma), sc)))
                else:
                    walk(nxt, p, st, ac, cs, sc, depth + 1)

    start = env.initial_state()
    walk(start, 1.0, [start], [], [], np.zeros_like(theta), 0)
    return out
