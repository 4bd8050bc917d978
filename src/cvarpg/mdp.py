"""Environment interface and the budget-augmented wrapper.

An environment exposes::

    initial_state() -> state
    n_actions(state) -> int          # >= 1; single action means no decision
    step(state, action, rng) -> (next_state, cost, done)

Terminal transitions set done=True; after that the process is absorbed in
a zero-cost sink, so simulation simply stops. Stochastic environments may
additionally expose ``branches(state, action) -> [(prob, next, cost,
done)]``, the exact transition law that enumeration walks.

The augmented wrapper appends a running budget coordinate s with the
deterministic dynamics s' = (s - cost)/gamma and charges a terminal
penalty proportional to the positive part of the overrun, which converts
a quantile-excess objective into a plain expected discounted cost. It is
the one implementation of these dynamics: the actor-critic learner steps
it, and the test suite's exact chain and occupation-measure oracles
enumerate it.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

from .errors import InputError
from .risk import RiskSpec

__all__ = ["AugmentedCostMode", "AugState", "AugmentedEnv"]


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


class AugStep(NamedTuple):
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

    def _successor(self, state: AugState, nxt, cost: float, done: bool) -> tuple[AugState, float]:
        """The augmented state after a base transition from ``state``, and the mode's cost."""
        s_next = (state.s - cost) / self.risk.gamma
        out_cost = cost if self.mode is AugmentedCostMode.STANDARD else 0.0
        return AugState(None if done else nxt, s_next, done), out_cost

    def step_full(self, state: AugState, action: int, rng) -> AugStep:
        if state.at_terminal:
            return AugStep(None, self.terminal_cost(state.s), 0.0, True)
        nxt, cost, done = self.env.step(state.env_state, action, rng)
        return AugStep(*self._successor(state, nxt, cost, done), cost, False)

    def step(self, state: AugState, action: int, rng):
        st = self.step_full(state, action, rng)
        return st.next_state, st.cost, st.done

    def branches(self, state: AugState, action: int):
        if state.at_terminal:
            return [(1.0, None, self.terminal_cost(state.s), True)]
        return [
            (prob, *self._successor(state, nxt, cost, done), False)
            for prob, nxt, cost, done in self.env.branches(state.env_state, action)
        ]
