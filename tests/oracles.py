"""Test-side oracles: toy environments, exact enumerations and closed forms.

The diamond MDP is a three-layer chain with stochastic branching, two
actions everywhere, and small integer costs. With gamma = 0.5 every
reachable budget value is an exact dyadic rational, so augmented-state
closures, value iteration, and trajectory enumeration are all exact in
floating point. The full trajectory set has 10 elements.

``rollout`` simulates and ``enumerate_trajectories`` walks any
environment one decision at a time under a Boltzmann policy. The exact
critic route builds the reachable augmented chain under a fixed policy,
solves it by value iteration, and solves the projected fixed-point (LSTD)
system under the exact discounted occupation measure, which
``sample_occupation_transitions`` samples. ``trade_off_certificate``
checks, with the library's exact lattice oracle, that an optimal-stopping
instance has the mean/CVaR trade-off that acceptance criterion 6 needs.
``cvar_oracle`` is a grid brute force of the Rockafellar-Uryasev minimum
that the library's CVaR is checked against.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from cvarpg.errors import InputError, SimulationError
from cvarpg.features import action_blocks
from cvarpg.lattice import StoppingLattice
from cvarpg.mdp import AugmentedEnv, AugState
from cvarpg.optstop import OptStopParams
from cvarpg.pg import GradientEstimate, estimate_batch_gradients
from cvarpg.policy import action_probabilities, grad_log_prob, sample_action
from cvarpg.risk import EmpiricalDistribution, cvar, tail_probability


class SolverError(RuntimeError):
    """A linear system was singular or too ill-conditioned to solve."""

    def __init__(self, message: str, condition: float | None = None):
        super().__init__(message)
        self.condition = condition


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


def estimate_from_trajectories(trajectories, nu, lam, risk) -> GradientEstimate:
    """Convenience wrapper over a list of Trajectory objects."""
    losses = np.array([t.loss for t in trajectories])
    scores = np.stack([t.score for t in trajectories])
    return estimate_batch_gradients(losses, scores, nu, lam, risk)


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

    Works on raw integer states and on the decision states of the
    augmented process, whose budget coordinate it ignores.
    """

    def __init__(self, n_states: int, n_actions: int):
        self.n_states = n_states
        self.n_actions = n_actions
        self.dim = n_states * n_actions

    def per_action(self, state) -> np.ndarray:
        base = np.zeros(self.n_states)
        base[state.env_state if isinstance(state, AugState) else state] = 1.0
        return action_blocks(base, self.n_actions)


class ChainFeatures:
    """One-hot features over a reachable augmented closure."""

    def __init__(self, chain, x0):
        self.chain = chain
        self.x0 = x0
        self.dim = chain.n

    def __call__(self, state) -> np.ndarray:
        return self.chain.one_hot(state)

    def at_initial(self, s) -> np.ndarray:
        """One row for one budget; a sequence of budgets gives one row each, as the library's."""
        if np.ndim(s) == 0:
            return self(AugState(self.x0, s))
        return np.stack([self(AugState(self.x0, b)) for b in s])


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


@dataclass(frozen=True)
class Transition:
    """One observed step, already featurized; phi_next is zero at the sink."""

    phi: np.ndarray
    phi_next: np.ndarray
    cost: float


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
    into the zero-valued sink.
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

    def one_hot(self, state: AugState) -> np.ndarray:
        phi = np.zeros(self.n)
        idx = self.index.get(_state_key(state))
        if idx is not None:
            phi[idx] = 1.0
        return phi


def build_chain(
    aug: AugmentedEnv,
    feature_map,
    theta: np.ndarray,
    s0_values,
    max_states: int = 2000,
) -> FiniteAugmentedChain:
    """Reachable closure of the augmented process from the given budgets."""
    theta = np.asarray(theta, dtype=float)
    starts = [AugState(aug.env.initial_state(), float(s0)) for s0 in np.atleast_1d(s0_values)]
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
    rng,
    n: int,
    horizon_cap: int = 10_000,
):
    """Draw transitions whose state marginal is the occupation measure.

    Each sample restarts an episode at ``aug.initial_state()``, walks
    K ~ Geometric(1-gamma) steps (K = 0, 1, 2, ... with mass
    (1-gamma) gamma^k), and records the transition taken at step K.
    Samples that land past absorption report a zero-feature sink self-loop.
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
        state = aug.initial_state()
        done = False
        for _step in range(min(k_stop, horizon_cap)):
            if done:
                break
            st = aug.step_full(state, draw(state), rng)
            state, done = st.next_state, st.done
        if done:
            out.append(Transition(zero, zero, 0.0))
            continue
        st = aug.step_full(state, draw(state), rng)
        phi = critic_features(state)
        phi_next = critic_features(st.next_state) if not st.done else zero
        out.append(Transition(phi, phi_next, st.cost))
    return out
