"""Optimal stopping benchmark: accept a fluctuating cost now or keep waiting.

State is the pair (c, k) of current cost and step index. Accepting, or
hitting the horizon k = T, ends the episode at cost c; waiting costs the
holding fee p_h and moves the cost to f_u*c with probability p, else
f_d*c. All per-step costs are discounted by gamma^k in the episode loss.

Besides the step API this module provides the feature maps, batched
lockstep rollouts and the exact loss distribution of a fixed policy at
any horizon, from the recombining cost lattice of
``lattice.StoppingLattice``. ``OptStopParams`` holds the geometry that
all of them read: the cost envelope (``cost_range``) and the budget at
each decision step (``budgets``). The policy and critic feature maps
share one base, the same unit coordinates of a state and one RBF grid
over them, and they featurize only the states their callers reach: the
policy its decision states (k < T), the critic interior and terminal
states. The feature maps serve two kinds of caller.
A batched rollout (the hot path of the trajectory gradient and of
evaluation) draws all of its episodes' uniforms in one vectorized pass
(``seeding.substream_uniforms``) and, at each step, featurizes the
policy once per distinct cost among the alive episodes, so its Python
work grows with the distinct states, not with the episodes. The
actor-critic steps one state at a time, and its traffic rarely repeats a
state, so there the cost of one call is what counts: ``per_action`` and
the critic features clamp one state's coordinates in plain Python
(``features.clamp``) and build its unit row as one array, which then goes
through the same ``RbfGrid.batch`` as the rollouts' rows. Both paths give
the same features bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .features import AxisScale, RbfGrid, action_blocks, clamp
from .lattice import StoppingLattice
from .mdp import AugState
from .policy import action_probabilities, action_scores, sample_action
from .risk import EmpiricalDistribution
from .seeding import substream_uniforms

ACCEPT = 0
WAIT = 1


@dataclass(frozen=True)
class OptStopParams:
    c0: float = 1.0
    p_h: float = 0.1
    T: int = 20
    f_u: float = 1.5
    f_d: float = 0.8
    p: float = 0.65
    gamma: float = 0.95

    def __post_init__(self):
        if not (self.f_u > 1.0 > self.f_d > 0.0):
            raise InputError(f"need f_u > 1 > f_d > 0, got {self.f_u}, {self.f_d}")
        if not 0.0 < self.p < 1.0:
            raise InputError(f"p must be in (0,1), got {self.p}")
        if self.p_h < 0.0:
            raise InputError(f"p_h must be >= 0, got {self.p_h}")
        if not 0.0 < self.gamma <= 1.0:
            raise InputError(f"gamma must be in (0,1], got {self.gamma}")
        if self.T < 1 or self.c0 <= 0.0:
            raise InputError("need T >= 1 and c0 > 0")

    def cost_range(self) -> tuple[float, float]:
        """The envelope (c0 f_d^T, c0 f_u^T) of every cost the episode can reach."""
        return self.c0 * self.f_d**self.T, self.c0 * self.f_u**self.T

    def budgets(self, s0: float) -> np.ndarray:
        """The budget at each of the T decision steps from s0, whatever the cost moves.

        Only a wait leads on to the next decision, and a wait pays p_h, so
        step k's budget is step k-1's less p_h, divided by gamma.
        """
        s = np.empty(self.T)
        s[0] = s0
        for k in range(1, self.T):
            s[k] = (s[k - 1] - self.p_h) / self.gamma
        return s

    def loss_upper_bound(self) -> float:
        """Analytic envelope on any episode loss (holding fees + worst accept)."""
        if self.gamma == 1.0:
            fees = self.p_h * self.T
        else:
            fees = self.p_h * (1.0 - self.gamma**self.T) / (1.0 - self.gamma)
        return fees + self.cost_range()[1]


@dataclass(frozen=True)
class OptStopState:
    c: float
    k: int


class OptStopEnv:
    """Step/branch interface over the binary cost tree."""

    def __init__(self, params: OptStopParams):
        self.params = params

    def initial_state(self) -> OptStopState:
        return OptStopState(self.params.c0, 0)

    def n_actions(self, state: OptStopState) -> int:
        # at the horizon the acceptance is forced, no decision remains
        return 1 if state.k >= self.params.T else 2

    def step(self, state: OptStopState, action: int, rng):
        p = self.params
        if state.k > p.T:
            raise InputError("stepping past the horizon")
        if state.k == p.T or action == ACCEPT:
            return None, state.c, True
        up = rng.random() < p.p
        c_next = state.c * (p.f_u if up else p.f_d)
        return OptStopState(c_next, state.k + 1), p.p_h, False

    def branches(self, state: OptStopState, action: int):
        p = self.params
        if state.k == p.T or action == ACCEPT:
            return [(1.0, None, state.c, True)]
        return [
            (p.p, OptStopState(state.c * p.f_u, state.k + 1), p.p_h, False),
            (1.0 - p.p, OptStopState(state.c * p.f_d, state.k + 1), p.p_h, False),
        ]


class _StateFeatures:
    """What both feature maps read of a state: one grid over its unit coordinates.

    Cost is normalized on log scale over its envelope
    (``OptStopParams.cost_range``), the step index k as the elapsed
    fraction k / T, and the budget, when present, min-max over a configured
    range. One RBF grid covers the unit cube of these coordinates.
    """

    def __init__(self, params: OptStopParams, centers_per_dim: int, include_s: bool,
                 s_range: tuple[float, float], width_scale: float):
        self.params = params
        self.include_s = include_s
        self.c_axis = AxisScale(*params.cost_range(), log=True)
        self.s_axis = AxisScale(s_range[0], s_range[1])
        self.rbf = RbfGrid(3 if include_s else 2, centers_per_dim, width_scale)

    def _unit_inputs(self, c, k, s=None) -> list:
        """Unit coordinates (cost, elapsed fraction[, budget]) of one state or of state arrays."""
        cols = [self.c_axis.unit(c), k / self.params.T]
        if self.include_s:
            if s is None:
                raise InputError("budget-aware features need the budget s")
            cols.append(self.s_axis.unit(s))
        return cols


class OptStopPolicyFeatures(_StateFeatures):
    """Per-action RBF features of a decision state, raw or augmented.

    Each action owns its own block of the feature vector. ``scale``
    multiplies the whole vector; the policy class is invariant to it, but
    it sets the effective step size of likelihood-ratio updates, and the
    incremental algorithms need it well below one so the actor does not
    outrun the critic early on. Only decision states (k < T) are
    featurized: at the horizon acceptance is forced and the terminal state
    has no action, so no caller draws an action there
    (``OptStopEnv.n_actions``).
    """

    def __init__(
        self,
        params: OptStopParams,
        centers_per_dim: int = 4,
        include_s: bool = False,
        s_range: tuple[float, float] = (-20.0, 20.0),
        scale: float = 1.0,
        width_scale: float = 1.0,
    ):
        super().__init__(params, centers_per_dim, include_s, s_range, width_scale)
        self.scale = float(scale)
        self.n_actions = 2
        self.dim = self.n_actions * self.rbf.n_features

    def per_action(self, state) -> np.ndarray:
        """Features of one decision state, (2, dim)."""
        x, s = (state.env_state, state.s) if isinstance(state, AugState) else (state, None)
        z = self._unit_inputs(x.c, x.k, s)
        return action_blocks(self.scale * self.rbf(z), self.n_actions)

    def per_action_batch(self, c: np.ndarray, k, s: np.ndarray | None = None) -> np.ndarray:
        """Features of len(c) raw states, (m, 2, dim); k is one step index or one per state."""
        cols = self._unit_inputs(c, np.full(len(c), k), s)
        z = np.stack(cols, axis=1)
        return action_blocks(self.scale * self.rbf.batch(z), self.n_actions)


BUDGET_KNOTS = (0.5, 1.0, 1.5, 2.0, 3.0, 4.0)


class OptStopCriticFeatures(_StateFeatures):
    """Value-function features of an augmented state, or of a raw one.

    Interior states get the RBF grid plus a bias. With the budget included
    they also get one hinge (knot - s/c)^+ per ``BUDGET_KNOTS``: the future
    penalty is kinked where the budget meets the loss still to come, which
    scales with the current cost c, and the RBF budget axis is far too
    coarse to resolve that kink (the quantile's perturbed difference at the
    initial state would read a flat critic). Terminal states get their own
    block [1, s/scale, (-s)^+/scale] with the budget clamped to its
    configured range, which keeps feature magnitudes near one (TD
    stability) while representing the kinked terminal penalty exactly up to
    the clamp. Interior and terminal blocks never overlap. The absorbing
    sink after the terminal state is never featurized: its value is zero.
    """

    def __init__(
        self,
        params: OptStopParams,
        centers_per_dim: int = 4,
        include_s: bool = True,
        s_range: tuple[float, float] = (-20.0, 20.0),
        width_scale: float = 1.0,
    ):
        super().__init__(params, centers_per_dim, include_s, s_range, width_scale)
        self.s_scale = max(abs(s_range[0]), abs(s_range[1]))
        self.knots = np.array(BUDGET_KNOTS if include_s else ())
        self.n_interior = self.rbf.n_features + self.knots.size
        self.dim = self.n_interior + 3
        self._x0 = OptStopState(params.c0, 0)

    def __call__(self, state: AugState | OptStopState) -> np.ndarray:
        """Features of an augmented state or of a raw one, which is interior and has no budget."""
        out = np.zeros(self.dim)
        nb, ni = self.rbf.n_features, self.n_interior
        if isinstance(state, AugState) and state.at_terminal:
            if self.include_s:
                s = clamp(state.s, self.s_axis.lo, self.s_axis.hi)
                out[ni:] = (1.0, s / self.s_scale, max(-s, 0.0) / self.s_scale)
            else:
                out[ni] = 1.0
            return out
        x, s = (state.env_state, state.s) if isinstance(state, AugState) else (state, None)
        z = self._unit_inputs(x.c, x.k, s)
        if self.include_s:
            np.maximum(self.knots - s / x.c, 0.0, out=out[nb:ni])
        out[:nb] = self.rbf(z)
        return out

    def at_initial(self, s: float) -> np.ndarray:
        """Features of the initial environment state with budget s."""
        return self(AugState(self._x0, s))


@dataclass
class BatchRollouts:
    """Lockstep simulation results for a batch of episodes."""

    losses: np.ndarray       # raw discounted environment loss D per episode
    scores: np.ndarray       # likelihood-ratio score per episode; (n, 0) if skipped
    lengths: np.ndarray      # decision steps until termination


def _rollout(
    env: OptStopEnv,
    feats: OptStopPolicyFeatures,
    theta: np.ndarray,
    s0: float | None,
    seed: int,
    path: tuple,
    n: int,
    with_scores: bool,
) -> BatchRollouts:
    """Lockstep kernel behind both public rollouts; ``s0=None`` is the raw env.

    Episode j draws its uniforms from ``substream(seed, *path, j)``:
    position 2k for its step-k action and 2k+1 for the cost move, the order
    of the sequential rollout, so batched and per-episode simulation agree
    bit for bit. Every alive episode has waited at each earlier step, so
    all share step k's budget, ``OptStopParams.budgets(s0)[k]``. At each
    step the policy is featurized, and its softmax and scores computed,
    once per distinct cost among the alive episodes; each episode then
    draws its own action.
    """
    p = env.params
    theta = np.asarray(theta, dtype=float)
    u = substream_uniforms(seed, path, n, 2 * p.T)
    idx = np.arange(n)       # alive episodes
    c = np.full(n, p.c0)     # their costs
    s = p.budgets(s0) if s0 is not None and feats.include_s else None  # their budget per step
    losses = np.zeros(n)
    scores = np.zeros((n, theta.size if with_scores else 0))
    lengths = np.zeros(n, dtype=np.int64)
    disc = 1.0
    for k in range(p.T + 1):
        if k < p.T:
            costs, inv = np.unique(c, return_inverse=True)
            budget = None if s is None else np.full(costs.size, s[k])
            fa = feats.per_action_batch(costs, k, budget)  # (distinct, 2, dim)
            probs = action_probabilities(theta, fa)
            act = sample_action(probs[inv], u[idx, 2 * k])
            if with_scores:
                scores[idx] += action_scores(fa, probs)[inv, act]
            accepted = act == ACCEPT
        else:  # the horizon forces acceptance
            accepted = np.ones(idx.size, dtype=bool)
        acc_idx = idx[accepted]
        losses[acc_idx] += disc * c[accepted]
        lengths[acc_idx] = k + 1
        waiting = ~accepted
        idx, c = idx[waiting], c[waiting]
        if idx.size == 0:
            break
        losses[idx] += disc * p.p_h
        c *= np.where(u[idx, 2 * k + 1] < p.p, p.f_u, p.f_d)
        disc *= p.gamma
    return BatchRollouts(losses, scores, lengths)


def rollout_batch(
    env: OptStopEnv,
    feats: OptStopPolicyFeatures,
    theta: np.ndarray,
    seed: int,
    path: tuple,
    n: int,
    with_scores: bool = True,
) -> BatchRollouts:
    """Vectorized episodes of the raw environment under one parameter vector.

    ``with_scores=False`` skips the likelihood-ratio scores, which only
    gradient estimates read; ``scores`` is then an empty (n, 0) array.
    """
    return _rollout(env, feats, theta, None, seed, path, n, with_scores)


def rollout_batch_augmented(
    env: OptStopEnv,
    feats: OptStopPolicyFeatures,
    theta: np.ndarray,
    s0: float,
    seed: int,
    path: tuple,
    n: int,
    with_scores: bool = True,
) -> BatchRollouts:
    """Vectorized episodes of the budget-augmented environment.

    Losses reported are the raw environment losses D, without the terminal
    penalty. ``with_scores`` is as in ``rollout_batch``.
    """
    return _rollout(env, feats, theta, float(s0), seed, path, n, with_scores)


def enumerate_loss_distribution(
    feats: OptStopPolicyFeatures,
    theta: np.ndarray,
    params: OptStopParams,
    max_horizon: int | None = None,
) -> EmpiricalDistribution:
    """Exact loss distribution of the raw-state Boltzmann policy of feats/theta, at any T.

    It comes from the cost lattice; atoms are sorted, equal losses merged.
    An explicit ``max_horizon`` refuses a longer horizon.
    """
    if max_horizon is not None and params.T > max_horizon:
        raise InputError(f"enumeration refused: T={params.T} exceeds budget {max_horizon}")
    lattice = StoppingLattice(params)
    return lattice.distribution(lattice.node_rule(feats, theta))
