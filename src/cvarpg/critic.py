"""Linear value-function machinery on the augmented process.

Incremental TD(0) drives the training path. For verification there is an
exact route: enumerate the reachable augmented states of a finite
environment under a fixed policy, solve the induced chain by value
iteration, and solve the projected fixed-point system A v = b built from
the exact discount-weighted occupation measure. A sampling route that
draws states directly from that occupation measure (geometric truncation
of episodes) backs the unbiasedness tests.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, SolverError
from .mdp import AugmentedEnv, AugState
from .policy import action_probabilities, sample_action

__all__ = [
    "Transition",
    "td_error",
    "td_update",
    "LstdSystem",
    "accumulate_lstd",
    "lstd_solve",
    "FiniteAugmentedChain",
    "build_chain",
    "value_iteration",
    "occupation_measure",
    "exact_lstd_system",
    "sample_occupation_transitions",
]


@dataclass(frozen=True)
class Transition:
    """One observed step, already featurized; phi_next is zero at the sink."""

    phi: np.ndarray
    phi_next: np.ndarray
    cost: float
    state: object = None
    next_state: object = None
    done: bool = False


def td_error(v: np.ndarray, tr: Transition, gamma: float) -> float:
    """One-step Bellman residual cost + gamma*v.phi' - v.phi."""
    return float(tr.cost + gamma * (v @ tr.phi_next) - v @ tr.phi)


def td_update(v: np.ndarray, tr: Transition, step: float, gamma: float) -> np.ndarray:
    """Rank-one update v + step * delta * phi."""
    if step <= 0.0:
        raise InputError(f"step must be positive, got {step}")
    return v + step * td_error(v, tr, gamma) * tr.phi


class LstdSystem:
    """Running averages of phi (phi - gamma phi')^T and phi * cost."""

    def __init__(self, dim: int):
        self.a_sum = np.zeros((dim, dim))
        self.b_sum = np.zeros(dim)
        self.count = 0

    @property
    def a(self) -> np.ndarray:
        return self.a_sum / max(self.count, 1)

    @property
    def b(self) -> np.ndarray:
        return self.b_sum / max(self.count, 1)


def accumulate_lstd(system: LstdSystem, tr: Transition, gamma: float) -> LstdSystem:
    system.a_sum += np.outer(tr.phi, tr.phi - gamma * tr.phi_next)
    system.b_sum += tr.phi * tr.cost
    system.count += 1
    return system


def lstd_solve(system, cond_limit: float = 1e12) -> np.ndarray:
    """Solve A v = b, refusing ill-conditioned systems.

    Accepts an LstdSystem or any object with ``a`` and ``b`` attributes.
    """
    a, b = np.asarray(system.a), np.asarray(system.b)
    cond = float(np.linalg.cond(a))
    if not np.isfinite(cond) or cond > cond_limit:
        raise SolverError(f"system condition {cond:.3e} exceeds limit", condition=cond)
    v = np.linalg.solve(a, b)
    residual = float(np.linalg.norm(a @ v - b))
    if residual > 1e-8 * (1.0 + float(np.linalg.norm(b))):
        raise SolverError(f"solve residual {residual:.3e} too large", condition=cond)
    return v


@dataclass
class ExactSystem:
    a: np.ndarray
    b: np.ndarray


def _state_key(state: AugState, decimals: int = 9):
    return (state.env_state, None if state.s is None else round(state.s, decimals),
            state.at_terminal)


class FiniteAugmentedChain:
    """Markov chain over the reachable augmented states under a fixed policy.

    Rows of P for penalty (terminal) states are zero: the process leaves
    into the zero-valued sink. ``snap`` optionally quantizes the budget
    coordinate after every transition, which turns a continuous-budget
    process into a finite instance.
    """

    def __init__(self, states, index, P, cost, start_index):
        self.states = states
        self.index = index
        self.P = P
        self.cost = cost
        self.start_index = start_index

    @property
    def n(self) -> int:
        return len(self.states)

    def one_hot(self, state: AugState | None) -> np.ndarray:
        phi = np.zeros(self.n)
        if state is not None:
            idx = self.index.get(_state_key(state))
            if idx is not None:
                phi[idx] = 1.0
        return phi


def build_chain(
    aug: AugmentedEnv,
    feature_map,
    theta: np.ndarray,
    s0_values,
    snap=None,
    max_states: int = 2000,
) -> FiniteAugmentedChain:
    """Reachable closure of the augmented process from the given budgets."""
    theta = np.asarray(theta, dtype=float)
    starts = [AugState(aug.env.initial_state(), float(s0)) for s0 in np.atleast_1d(s0_values)]
    if snap is not None:
        starts = [AugState(st.env_state, snap(st.s)) for st in starts]
    index: dict = {}
    states: list[AugState] = []
    edges: list[dict[int, float]] = []
    costs: list[float] = []

    def intern(state: AugState) -> int:
        key = _state_key(state)
        if key not in index:
            if len(states) >= max_states:
                raise InputError(f"augmented closure exceeded {max_states} states")
            index[key] = len(states)
            states.append(state)
            edges.append({})
            costs.append(0.0)
        return index[key]

    stack = [intern(st) for st in starts]
    seen = set(stack)
    while stack:
        i = stack.pop()
        state = states[i]
        n_act = aug.n_actions(state)
        if n_act > 1:
            probs = action_probabilities(theta, feature_map.per_action(state))
        else:
            probs = np.ones(1)
        exp_cost = 0.0
        for a in range(n_act):
            for br_prob, nxt, cost, done in aug.branches(state, a):
                w = float(probs[a] * br_prob)
                if w == 0.0:
                    continue
                exp_cost += w * cost
                if done:
                    continue  # absorbed into the sink
                if snap is not None:
                    nxt = AugState(nxt.env_state, snap(nxt.s), nxt.at_terminal)
                j = intern(nxt)
                edges[i][j] = edges[i].get(j, 0.0) + w
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        costs[i] = exp_cost
    n = len(states)
    P = np.zeros((n, n))
    for i, row in enumerate(edges):
        for j, w in row.items():
            P[i, j] = w
    start_index = [index[_state_key(st)] for st in starts]
    return FiniteAugmentedChain(states, index, P, np.asarray(costs), start_index)


def value_iteration(chain: FiniteAugmentedChain, gamma: float, tol: float = 1e-12,
                    max_iters: int = 200_000) -> np.ndarray:
    """Fixed point of V = c + gamma P V by iteration to sup-norm tol."""
    V = np.zeros(chain.n)
    for _ in range(max_iters):
        V_next = chain.cost + gamma * chain.P @ V
        if float(np.max(np.abs(V_next - V))) < tol:
            return V_next
        V = V_next
    raise SolverError("value iteration did not reach tolerance")


def occupation_measure(chain: FiniteAugmentedChain, gamma: float, start: int) -> np.ndarray:
    """Discount-weighted visiting distribution (1-gamma) sum_k gamma^k P(x_k=.).

    Mass missing from the returned vector sits on the absorbing sink.
    """
    e = np.zeros(chain.n)
    e[start] = 1.0 - gamma
    return np.linalg.solve(np.eye(chain.n) - gamma * chain.P.T, e)


def exact_lstd_system(chain: FiniteAugmentedChain, Phi: np.ndarray, gamma: float,
                      d: np.ndarray) -> ExactSystem:
    """Population A and b under an explicit occupation measure d."""
    expected_next = chain.P @ Phi  # sink rows contribute zero features
    A = Phi.T @ (d[:, None] * (Phi - gamma * expected_next))
    b = Phi.T @ (d * chain.cost)
    return ExactSystem(A, b)


def sample_occupation_transitions(
    aug: AugmentedEnv,
    feature_map,
    critic_features,
    theta: np.ndarray,
    s0: float,
    rng,
    n: int,
    horizon_cap: int = 10_000,
):
    """Draw transitions whose state marginal is the occupation measure.

    Each sample restarts an episode, walks K ~ Geometric(1-gamma) steps
    (K = 0, 1, 2, ... with mass (1-gamma) gamma^k), and records the
    transition taken at step K. Samples that land past absorption report
    a zero-feature sink self-loop.
    """
    theta = np.asarray(theta, dtype=float)
    gamma = aug.risk.gamma
    zero = np.zeros(critic_features.dim)

    def draw(state) -> int:
        if aug.n_actions(state) == 1:
            return 0
        return sample_action(action_probabilities(theta, feature_map.per_action(state)), rng.random())

    out = []
    for _ in range(n):
        k_stop = int(rng.geometric(1.0 - gamma)) - 1
        state = AugState(aug.env.initial_state(), float(s0))
        done = False
        for _step in range(min(k_stop, horizon_cap)):
            if done:
                break
            st = aug.step_full(state, draw(state), rng)
            state, done = st.next_state, st.done
        if done:
            out.append(Transition(zero, zero, 0.0, done=True))
            continue
        st = aug.step_full(state, draw(state), rng)
        phi = critic_features(state)
        phi_next = critic_features(st.next_state) if not st.done else zero
        out.append(Transition(phi, phi_next, st.cost, state, st.next_state, st.done))
    return out
