"""Optimal stopping benchmark: accept a fluctuating cost now or keep waiting.

State is the pair (c, k) of current cost and step index. Accepting, or
hitting the horizon k = T, ends the episode at cost c; waiting costs the
holding fee p_h and moves the cost to f_u*c with probability p, else
f_d*c. All per-step costs are discounted by gamma^k in the episode loss.

Besides the step API this module provides the feature maps, batched
lockstep rollouts and the exact loss distribution of a fixed policy at
any horizon, from the recombining cost lattice of
``lattice.StoppingLattice``, kept once per problem
(``lattice.kept_lattice``). ``OptStopParams`` holds the geometry that
all of them read: the cost envelope (``cost_range``), the budget at each
decision step (``budgets``) and the loss prefix (``fees_and_discounts``).
The policy and critic feature maps share one base, the same unit
coordinates of a state and one RBF grid over them, and they featurize
only the states their callers reach: the policy its decision states
(k < T), the critic interior and terminal states. The feature maps serve
two kinds of caller.
A batched rollout (the hot path of the trajectory gradient and of
evaluation) takes the policy map alone and solves the map's problem,
``feats.params``. It takes its episodes' uniforms from the caller, one
row per episode, and knows nothing of seeding: the harness draws them
(``seeding.substream_uniforms``), a PG run many iterations' batches in
one call. The rollout walks the reachable-cost table (``cost_table``),
every cost float a step can hold with its successors, numbered row by
row (``_walk``). Every episode
keeps its slot and its row for the whole rollout; a step is a few
whole-batch gathers, and each loss is read at the end from the loss
prefix that the lattice shares (``OptStopParams.fees_and_discounts``).
The softmax runs once per doubling window of steps, [0, 1), [1, 3),
[3, 7), ..., over the window's rows, which are featurized when a rollout
first enters the window: a raw map keeps them for its lifetime, a
budget-aware rollout builds its own. So a rollout makes a fixed number
of numpy calls per step and per window, whatever its episode count. The
actor-critic steps one state at a time, so there the cost of one call is
what counts: ``per_action`` and the critic features clamp one state's
coordinates in plain Python (``features.clamp``). ``per_action`` builds
its unit row as one array, which then goes through the same
``RbfGrid.batch`` as the rollouts' rows; a budget-aware critic adds the
state's budget term to the cost and step terms it keeps by (c, k). Both
paths give the same features bit for bit. The actor-critic builds each
state's RBF row once: the critic builds it, and a policy map on the same
grid (``same_grid``) reads it from the critic's features
(``per_action(state, phi)``). ``at_initial`` of several budgets makes one
call. A budget-blind map keeps each state's features, read-only, by
(c, k) for its lifetime, as the kernel's raw map keeps its windows; a
budget-aware one builds them afresh, as the budget moves with nu.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .features import AxisScale, RbfGrid, action_blocks, clamp
from .lattice import kept_lattice
from .mdp import AugState
from .policy import action_probabilities, action_scores, sample_action
from .risk import EmpiricalDistribution

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
        try:
            lo, hi = self.cost_range()
        except OverflowError:
            lo, hi = 0.0, math.inf
        if not (lo > 0.0 and hi < math.inf):
            raise InputError(f"the cost envelope c0 f_d^T .. c0 f_u^T leaves the float range "
                             f"at T={self.T}, f_u={self.f_u}, f_d={self.f_d}")

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

    def fees_and_discounts(self) -> tuple[np.ndarray, np.ndarray]:
        """Discounted holding fees paid before step k, and gamma^k, k = 0..T, in step order."""
        disc = np.cumprod(np.concatenate([[1.0], np.full(self.T, self.gamma)]))
        return np.concatenate([[0.0], np.cumsum(disc[:-1] * self.p_h)]), disc

    def loss_upper_bound(self) -> float:
        """Envelope on any episode loss: holding fees to the horizon, then the worst accept.

        With gamma = 1 it is the all-up path's loss itself, fees[T] +
        disc[T] c with c0 times f_u T times in order, the float the kernel
        and the lattice form, so no episode exceeds it by rounding.
        """
        if self.gamma == 1.0:
            fees, disc = self.fees_and_discounts()
            c = self.c0
            for _ in range(self.T):
                c *= self.f_u
            return float(fees[self.T] + disc[self.T] * c)
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
            cols.append(self._budget_unit(s))
        return cols

    def _budget_unit(self, s):
        if s is None:
            raise InputError("budget-aware features need the budget s")
        return self.s_axis.unit(s)

    def same_grid(self, other) -> bool:
        """Whether ``other`` gives every state this map's RBF row: one problem, axes and grid."""
        return (isinstance(other, _StateFeatures) and other.params == self.params
                and other.include_s == self.include_s and other.c_axis == self.c_axis
                and other.s_axis == self.s_axis and other.rbf.width == self.rbf.width
                and np.array_equal(other.rbf.centers, self.rbf.centers))


class OptStopPolicyFeatures(_StateFeatures):
    """Per-action RBF features of a decision state, raw or augmented.

    Each action owns its own block of the feature vector. ``scale``
    multiplies the whole vector; the policy class is invariant to it, but
    it sets the effective step size of likelihood-ratio updates, and the
    incremental algorithms need it well below one so the actor does not
    outrun the critic early on. Only decision states (k < T) are
    featurized: at the horizon acceptance is forced and the terminal state
    has no action, so no caller draws an action there
    (``OptStopEnv.n_actions``). A budget-blind map keeps each state's
    features, read-only, by (c, k) for its lifetime, and the features of
    a lattice's decision nodes by the lattice's problem (``node_blocks``).
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
        # raw rollouts' features of each window of steps of ``cost_table(params)``,
        # by its first step, built when a rollout first enters the window and kept
        self._window_blocks: dict = {}
        # a budget-blind map's ``per_action`` rows by (c, k), kept once built
        self._rows: dict = {}
        # a budget-blind map's ``node_blocks`` by the lattice's problem, kept once built
        self._node_blocks: dict = {}

    def per_action(self, state, phi: np.ndarray | None = None) -> np.ndarray:
        """Features of one decision state, (2, dim).

        ``phi``, if given, is the state's features from a map on this map's
        grid (``same_grid``), whose RBF row leads them, as it leads the
        critic's: the row is read there, not built again.
        """
        x, s = (state.env_state, state.s) if isinstance(state, AugState) else (state, None)
        if self.include_s:
            return self._blocks(x, s, phi)
        out = self._rows.get((x.c, x.k))
        if out is None:
            out = self._rows[x.c, x.k] = self._blocks(x, None, phi)
            out.flags.writeable = False
        return out

    def _blocks(self, x: OptStopState, s, phi) -> np.ndarray:
        row = self.rbf(self._unit_inputs(x.c, x.k, s)) if phi is None else phi[:self.rbf.n_features]
        return action_blocks(self.scale * row, self.n_actions)

    def per_action_batch(self, c: np.ndarray, k, s: np.ndarray | None = None) -> np.ndarray:
        """Features of len(c) raw states, (m, 2, dim); k is one step index or one per state."""
        cols = self._unit_inputs(c, np.full(len(c), k), s)
        z = np.stack(cols, axis=1)
        return action_blocks(self.scale * self.rbf.batch(z), self.n_actions)

    def node_blocks(self, lattice, s0: float | None = None) -> np.ndarray:
        """Features of the decision nodes of a ``lattice.StoppingLattice``, row by row.

        One ``per_action_batch`` call over the T(T+1)/2 nodes; every node
        of step k has the budget ``lattice.params.budgets(s0)[k]``. A
        budget-blind map keeps the array, read-only, by the lattice's
        problem for its lifetime, as it keeps its rollout windows; a
        budget-aware one builds it on every call, as its budget follows s0,
        and refuses a call without s0.
        """
        c, k = lattice.decision_cost, lattice.decision_k
        if self.include_s:
            budget = None if s0 is None else lattice.params.budgets(s0)[k]
            return self.per_action_batch(c, k, budget)
        out = self._node_blocks.get(lattice.params)
        if out is None:
            out = self._node_blocks[lattice.params] = self.per_action_batch(c, k)
            out.flags.writeable = False
        return out


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
    A budget-blind map keeps each interior state's features, read-only, by
    (c, k) for its lifetime. A budget-aware one cannot keep rows, as the
    budget moves with nu, but it keeps, read-only, by (c, k) for its
    lifetime, the cost and step terms (z_c - g_i)^2 + (z_k - g_j)^2 of each
    centre's squared distance: centres_per_dim^2 doubles, 16 with the
    shipped 4 per axis. A state then adds only its budget term
    (z_s - g_l)^2, and ``at_initial`` adds the terms of each perturbed
    budget to x0's. The rows equal ``RbfGrid.batch``'s bit for bit. At
    T = 20 the table (``cost_table``) holds 888 interior (c, k) on the
    defaults and 758 on criterion 6's instance, so a map that visits them
    all keeps 0.42 and 0.33 MB (about 450 bytes an entry with its key).
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
        # a budget-blind map's interior rows by (c, k), kept once built
        self._rows: dict = {}
        if include_s:
            # the grid's centres (i, j, l) in RbfGrid's order, as (cost-step (i, j), budget l)
            grid = self.rbf.centers.reshape(-1, centers_per_dim, 3)
            self._cost_step_centers = grid[:, 0, :2]
            self._budget_centers = grid[0, :, 2].tolist()
            # a budget-aware map's cost and step terms of each centre's squared
            # distance by (c, k), (n_centers / centers_per_dim, 1), kept once built
            self._cost_step_d2: dict = {}

    def __call__(self, state: AugState | OptStopState) -> np.ndarray:
        """Features of an augmented state or of a raw one, which is interior and has no budget."""
        if isinstance(state, AugState) and state.at_terminal:
            out = np.zeros(self.dim)
            ni = self.n_interior
            if self.include_s:
                s = clamp(state.s, self.s_axis.lo, self.s_axis.hi)
                out[ni:] = (1.0, s / self.s_scale, max(-s, 0.0) / self.s_scale)
            else:
                out[ni] = 1.0
            return out
        x, s = (state.env_state, state.s) if isinstance(state, AugState) else (state, None)
        if self.include_s:
            return self._interior(x, s)
        out = self._rows.get((x.c, x.k))
        if out is None:
            out = self._rows[x.c, x.k] = self._interior(x, None)
            out.flags.writeable = False
        return out

    def _interior(self, x: OptStopState, s: float | None) -> np.ndarray:
        """Features of the interior state of cost-step x and budget s."""
        out = np.zeros(self.dim)
        nb, ni = self.rbf.n_features, self.n_interior
        if self.include_s:
            np.exp(self._exponents(x, (s,)), out=out[None, :nb - 1])
            out[nb - 1] = 1.0
            np.maximum(self.knots - s / x.c, 0.0, out=out[nb:ni])
        else:
            out[:nb] = self.rbf(self._unit_inputs(x.c, x.k))
        return out

    def _exponents(self, x: OptStopState, budgets) -> np.ndarray:
        """-d2 / (2 w^2) of each RBF centre at cost-step x and each budget, (len(budgets), nb - 1).

        ``RbfGrid.batch`` sums a centre's squared distance over the axes
        left to right, (z_c - g_i)^2 + (z_k - g_j)^2 + (z_s - g_l)^2, so
        the first two terms are kept by (c, k) and only the budget term is
        added per call: the exponents, and so the rows, equal the grid's
        bit for bit.
        """
        cost_step = self._cost_step_d2.get((x.c, x.k))
        if cost_step is None:
            zc, zk, _ = self._unit_inputs(x.c, x.k, budgets[0])
            g = self._cost_step_centers
            cost_step = self._cost_step_d2[x.c, x.k] = (
                (zc - g[:, 0]) ** 2 + (zk - g[:, 1]) ** 2)[:, None]
            cost_step.flags.writeable = False
        # squared on Python floats as numpy squares, d * d
        budget = [[(z - g) * (z - g) for g in self._budget_centers]
                  for z in map(self._budget_unit, budgets)]
        d2 = cost_step + np.array(budget)[:, None, :]
        d2 /= self.rbf.neg_two_w2
        return d2.reshape(len(budgets), -1)

    def at_initial(self, s) -> np.ndarray:
        """Features of the initial environment state with budget s, (dim,).

        A sequence of budgets gives one row each, (len(s), dim), from one
        call; each row equals the one-budget call bit for bit.
        """
        budgets = np.asarray(s, dtype=float)
        if budgets.ndim == 0:
            return self(AugState(self._x0, s))
        x, nb, ni = self._x0, self.rbf.n_features, self.n_interior
        out = np.zeros((budgets.size, self.dim))
        if self.include_s:
            np.exp(self._exponents(x, budgets.tolist()), out=out[:, :nb - 1])
            out[:, nb - 1] = 1.0
            np.maximum(self.knots - budgets[:, None] / x.c, 0.0, out=out[:, nb:ni])
        else:
            out[:, :nb] = self(x)[:nb]
        return out


@functools.lru_cache(maxsize=16)
def cost_table(params: OptStopParams) -> tuple[tuple, tuple, tuple]:
    """Every cost float a rollout can hold, step by step, and its two successors.

    Returns (costs, up, down). ``costs[k]`` holds the sorted distinct
    floats reachable from c0 after k waits, k = 0..T:
    ``S_{k+1} = unique(S_k f_u | S_k f_d)``, the very products a simulated
    cost takes, so the table holds every float variant that path order
    makes. ``up[k][i]`` / ``down[k][i]`` is the index in ``costs[k + 1]``
    of ``costs[k][i] * f_u`` / ``* f_d``. Built on first use and kept; its
    arrays are read-only, as callers share them.

    Path order moves the last bits of a cost product, so the table holds
    those float variants, not only the lattice nodes, and it grows much
    faster than the lattice with T. On the defaults its T decision steps
    hold 767 rows at T = 20, 12 652 at T = 50, 106 809 at T = 100 and
    909 862 at T = 200 (661 at T = 20 on criterion 6's instance). A raw
    map that waits to the horizon keeps 68 doubles a row with the shipped
    34-weight policy: 0.4 MB at T = 20, 495 MB at T = 200. The table
    itself grows about as T^3, to 22 MB at T = 200.
    """
    costs, up, down = [np.array([params.c0])], [], []
    for _ in range(params.T):
        c = costs[-1]
        nxt, inv = np.unique(np.concatenate([c * params.f_u, c * params.f_d]),
                             return_inverse=True)
        costs.append(nxt)
        up.append(inv[:c.size])
        down.append(inv[c.size:])
    for a in (*costs, *up, *down):
        a.flags.writeable = False
    return tuple(costs), tuple(up), tuple(down)


@dataclass(frozen=True)
class _Walk:
    """``cost_table`` as the rollout kernel walks it: every float one numbered row.

    Rows are numbered step by step: the decision rows of steps 0..T-1
    (``start[k]`` is step k's first), the horizon's rows of step T (from
    ``start[T]``, the number of decision rows), then one stopped twin per
    decision row. ``succ[4 row + 2 action + moved]`` is the next row:
    waiting moves a decision row to its successor in step k + 1, up when
    ``moved`` is 1; accepting moves it to its twin; every other row stays.
    ``loss`` and ``length`` give, per row, the loss and the decision steps
    of an episode that ends there.
    """

    start: np.ndarray
    succ: np.ndarray
    loss: np.ndarray
    length: np.ndarray


@functools.lru_cache(maxsize=16)
def _walk(params: OptStopParams) -> _Walk:
    """The rows of ``cost_table(params)``, built on the first rollout and kept.

    The loss of a row of step k is fees[k] + disc[k] * cost, from the loss
    prefix the lattice shares (``OptStopParams.fees_and_discounts``).
    """
    costs, up, down = cost_table(params)
    T = params.T
    start = np.cumsum([0] + [c.size for c in costs])
    decisions, horizon = int(start[T]), int(start[T + 1])
    # the horizon's rows and the twins stay where they are; a decision row
    # that accepts moves to its twin, and one that waits to step k + 1
    succ = np.repeat(np.arange(horizon + decisions), 4).reshape(-1, 2, 2)
    succ[:decisions, ACCEPT] = horizon + np.arange(decisions)[:, None]
    for k in range(T):
        waits = succ[start[k]:start[k + 1], WAIT]
        waits[:, 0] = start[k + 1] + down[k]
        waits[:, 1] = start[k + 1] + up[k]
    fees, disc = params.fees_and_discounts()
    loss = np.concatenate([fees[k] + disc[k] * costs[k] for k in range(T + 1)])
    length = np.repeat(np.arange(1, T + 2), np.diff(start))
    # a stopped twin ends where its decision row accepted
    walk = _Walk(start, succ.reshape(-1), np.concatenate([loss, loss[:decisions]]),
                 np.concatenate([length, length[:decisions]]))
    for a in (walk.start, walk.succ, walk.loss, walk.length):
        a.flags.writeable = False
    return walk


@dataclass
class BatchRollouts:
    """Lockstep simulation results for a batch of episodes."""

    losses: np.ndarray       # raw discounted environment loss D per episode
    scores: np.ndarray       # likelihood-ratio score per episode; (n, 0) if skipped
    lengths: np.ndarray      # decision steps until termination


def _rollout(
    feats: OptStopPolicyFeatures,
    theta: np.ndarray,
    s0: float | None,
    u: np.ndarray,
    with_scores: bool,
) -> BatchRollouts:
    """Lockstep kernel behind both public rollouts; ``s0=None`` is the raw env.

    The problem is the policy map's own, ``feats.params``. Row j of the
    (n, 2T) array ``u`` holds episode j's uniforms: column 2k its step-k
    action draw and 2k+1 its cost move, the order of the sequential
    rollout. Given the first 2T uniforms of ``substream(seed, *path, j)``
    (``seeding.substream_uniforms``), batched and per-episode simulation
    agree bit for bit.

    Each episode keeps its slot for the whole rollout and carries its row
    of the cost table (``_walk``). A step gathers the probabilities at the
    episodes' rows, draws every action (``sample_action``) and moves every
    row along ``succ``. An episode that accepts moves to its row's stopped
    twin and stays there, whatever it draws, so its row records where it
    stopped. A twin reads the window's last row (``mode="clip"``), a dead
    row of zero features, so it scores zero. So each episode's scores add
    up step by step, in step order, and its loss and length are read
    once, at the end, from the row it ends on. The rollout ends when no
    episode is alive.

    Every alive episode has waited at each earlier step, so all share step
    k's budget, ``OptStopParams.budgets(s0)[k]``. The softmax and the
    scores run once per window of steps, over the window's stacked rows.
    The windows double, [0, 1), [1, 3), [3, 7), ..., so T steps take at
    most ceil(log2(T + 1)) calls: 5 at T = 20. A rollout featurizes only
    the windows it enters, one ``per_action_batch`` call per step. A raw
    map keeps its windows' features for its lifetime, as they never
    change; a budget-aware rollout builds its own, as the budget follows s0.
    """
    p = feats.params
    theta = np.asarray(theta, dtype=float)
    u = np.asarray(u, dtype=float)
    if u.ndim != 2 or u.shape[1] != 2 * p.T:
        raise InputError(f"u has shape {u.shape}; a rollout of T={p.T} needs (n, {2 * p.T})")
    n = len(u)
    step_costs = cost_table(p)[0]
    walk = _walk(p)
    decisions = walk.start[p.T]
    s = p.budgets(s0) if s0 is not None and feats.include_s else None
    node = np.zeros(n, dtype=np.intp)  # each episode's row
    scores = np.zeros((n, theta.size if with_scores else 0))
    end = 0  # the end of the windows entered so far
    for k in range(p.T):
        if node.min(initial=decisions) == decisions:  # every episode has stopped
            break
        if k == end:  # enter the window [k, 2k + 1)
            end = min(2 * k + 1, p.T)
            first = walk.start[k]
            fa = feats._window_blocks.get(k) if s is None else None
            if fa is None:  # the window's rows, then the dead row: zero features
                fa = np.empty((walk.start[end] - first + 1, 2, feats.dim))
                fa[-1] = 0.0
                for j in range(k, end):
                    budget = None if s is None else np.full(step_costs[j].size, s[j])
                    fa[walk.start[j] - first:walk.start[j + 1] - first] = \
                        feats.per_action_batch(step_costs[j], j, budget)
                if s is None:  # a raw map's features never change, so it keeps them
                    feats._window_blocks[k] = fa
            probs = action_probabilities(theta, fa)
            if with_scores:  # by 2 row + action
                pick_scores = action_scores(fa, probs).reshape(-1, theta.size)
            succ = walk.succ[4 * first:]
        # rows past the window, the stopped twins, read the dead row
        row = node - first
        act = sample_action(np.take(probs, row, axis=0, mode="clip"), u[:, 2 * k])
        pick = 2 * row + act
        if with_scores:
            scores += np.take(pick_scores, pick, axis=0, mode="clip")
        node = succ[2 * pick + (u[:, 2 * k + 1] < p.p)]
    return BatchRollouts(walk.loss[node], scores, walk.length[node])


def rollout_batch(
    feats: OptStopPolicyFeatures,
    theta: np.ndarray,
    u: np.ndarray,
    with_scores: bool = True,
) -> BatchRollouts:
    """Vectorized episodes of the raw environment under one parameter vector.

    ``u`` holds one row of 2T uniforms per episode, as ``_rollout`` reads
    them. ``with_scores=False`` skips the likelihood-ratio scores, which only
    gradient estimates read; ``scores`` is then an empty (n, 0) array.
    """
    return _rollout(feats, theta, None, u, with_scores)


def rollout_batch_augmented(
    feats: OptStopPolicyFeatures,
    theta: np.ndarray,
    s0: float,
    u: np.ndarray,
    with_scores: bool = True,
) -> BatchRollouts:
    """Vectorized episodes of the budget-augmented environment.

    Losses reported are the raw environment losses D, without the terminal
    penalty. ``u`` and ``with_scores`` are as in ``rollout_batch``.
    """
    return _rollout(feats, theta, float(s0), u, with_scores)


def enumerate_loss_distribution(
    feats: OptStopPolicyFeatures,
    theta: np.ndarray,
    params: OptStopParams,
    max_horizon: int | None = None,
) -> EmpiricalDistribution:
    """Exact loss distribution of the raw-state Boltzmann policy of feats/theta, at any T.

    It comes from the problem's kept cost lattice (``lattice.kept_lattice``);
    atoms are sorted, equal losses merged. A budget-blind map keeps its
    features at the lattice's nodes, so a repeated call on one problem
    featurizes nothing. An explicit ``max_horizon`` refuses a longer horizon.
    """
    if max_horizon is not None and params.T > max_horizon:
        raise InputError(f"enumeration refused: T={params.T} exceeds budget {max_horizon}")
    lattice = kept_lattice(params)
    return lattice.distribution(lattice.node_rule(feats, theta))
