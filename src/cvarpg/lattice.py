"""Exact oracle for the optimal-stopping benchmark on its recombining cost lattice.

After k waits with u up-moves the cost is c0 f_u^u f_d^(k-u) whatever the
order of the moves, and the holding fees paid so far are deterministic, so
stopping at node (k, u) ends the episode with loss

    D(k, u) = p_h (1 - gamma^k) / (1 - gamma) + gamma^k c0 f_u^u f_d^(k-u).

The tree of 2^T paths recombines into (T+1)(T+2)/2 nodes (231 at T = 20).
Every stop rule that is Markov in (c, k) has its exact loss distribution
from one forward pass over the nodes, and the best stop rule for any node
payoff g(D) comes from backward induction (Bauerle & Ott 2011, "Markov
decision processes with average-value-at-risk criteria"): g = D for the
mean; g = (D - nu)^+ inside a Rockafellar-Uryasev scan over nu for CVaR;
g = D + lam (D - nu)^+ / (1 - alpha) for the Lagrangian of the
CVaR-constrained problem.

Stop rules are (T+1, T+1) arrays of acceptance probabilities indexed
[k, u]; entries with u > k are ignored and row T is forced to accept.
Parameters and feature maps are read by attribute only, so the module
imports ``policy`` for the Boltzmann softmax but not ``optstop``.

A lattice computes everything that depends only on its problem once, in
its constructor: the node costs and losses, the decision nodes, and the
distinct node losses with each node's index among them. Its arrays are
read-only. ``kept_lattice(params)`` builds one lattice per problem on
first use and keeps it, as ``optstop.cost_table`` keeps the rollout's
table, so a repeated oracle call on one problem does only the work that
depends on the stop rule: the forward pass and one ``np.bincount`` over
the nodes. A kept lattice holds three (T+1)^2 arrays (costs, losses and
which entries are nodes) and five of at most (T+1)(T+2)/2 entries: 16 KB
in all at T = 20, for as long as the process runs, for each of the 16
problems used last. A budget-blind policy map keeps its features at the
decision nodes as well, by the lattice's problem, for the map's lifetime:
210 x 2 x 34 doubles (114 KB) per problem at T = 20 for the shipped raw
map (``OptStopPolicyFeatures.node_blocks``).
"""
from __future__ import annotations

import functools

import numpy as np

from .errors import InputError
from .policy import action_probabilities
from .risk import EmpiricalDistribution


def _unique_rules(rules: np.ndarray) -> np.ndarray:
    """The distinct boolean rules of a stack, in ``np.unique(axis=0)``'s order.

    Each rule's bits, packed first bit highest, form one byte string, and
    byte strings compare as the rules do, first node first. One unique
    over those strings is thousands of times faster than ``np.unique``'s
    row-wise sort.
    """
    packed = np.packbits(rules.reshape(len(rules), -1), axis=1)
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    _, first = np.unique(keys, return_index=True)
    return rules[first]


class StoppingLattice:
    """Node losses of the stopping problem with exact forward and backward passes.

    Node (k, u) has loss fees[k] + disc[k] cost[k, u], with the loss prefix
    that the Monte Carlo rollout kernel shares,
    ``params.fees_and_discounts()``. The constructor also finds the
    T(T+1)/2 decision nodes (k < T), row by row (``decision_k``,
    ``decision_u``, ``decision_cost``), and the sorted distinct node
    losses (``node_losses``) with the index of each valid node's loss
    among them, row by row (``node_atom``). Every array is read-only, so
    one lattice can serve every caller on its problem (``kept_lattice``).
    """

    def __init__(self, params):
        self.params = params
        T = params.T
        self.valid = np.arange(T + 1)[None, :] <= np.arange(T + 1)[:, None]
        # a node's cost is the product along the path that takes its
        # down-moves first, so that path's loss is the node loss bit for bit
        cost = np.zeros((T + 1, T + 1))
        cost[0, 0] = params.c0
        for k in range(T):
            cost[k + 1, 0] = cost[k, 0] * params.f_d
            cost[k + 1, 1:k + 2] = cost[k, :k + 1] * params.f_u
        fees, disc = params.fees_and_discounts()
        self.cost = cost
        self.loss = np.where(self.valid, fees[:, None] + disc[:, None] * cost, 0.0)
        self.decision_k, self.decision_u = np.nonzero(self.valid[:T])
        self.decision_cost = cost[self.decision_k, self.decision_u]
        self.node_losses, self.node_atom = np.unique(self.loss[self.valid], return_inverse=True)
        for a in vars(self).values():
            if isinstance(a, np.ndarray):
                a.flags.writeable = False

    def best_stop_rule(self, payoff: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Backward induction for min E[payoff at the stopping node].

        ``payoff`` has shape (..., T+1, T+1); leading axes are independent
        problems. Returns the optimal values at the root and the stop
        rules (ties stop).
        """
        p, T = self.params, self.params.T
        stop = np.zeros(payoff.shape, dtype=bool)
        stop[..., T, :] = True
        value = payoff[..., T, :]
        for k in range(T - 1, -1, -1):
            cont = p.p * value[..., 1:k + 2] + (1.0 - p.p) * value[..., :k + 1]
            here = payoff[..., k, :k + 1]
            stop[..., k, :k + 1] = here <= cont
            value = np.minimum(here, cont)
        return value[..., 0], stop

    def stop_weights(self, rules: np.ndarray) -> np.ndarray:
        """Probability of ending the episode at each node, per stop rule.

        Row T accepts whatever the rule says, so its weights are the
        probabilities of reaching it.
        """
        p, T = self.params, self.params.T
        rules = np.asarray(rules, dtype=float)
        batch = rules.shape[:-2]
        weights = np.zeros(rules.shape)
        reach = np.ones(batch + (1,))
        for k in range(T):
            accept = rules[..., k, :k + 1]
            np.multiply(reach, accept, out=weights[..., k, :k + 1])
            carry = reach * (1.0 - accept)
            reach = np.zeros(batch + (k + 2,))
            reach[..., 1:] += p.p * carry
            reach[..., :-1] += (1.0 - p.p) * carry
        weights[..., T, :] = reach
        return weights

    def distribution(self, rule: np.ndarray) -> EmpiricalDistribution:
        """Exact loss distribution of a stop rule: sorted atoms, equal losses merged.

        An atom's weight is the sum of its nodes' positive weights, added
        row by row; the atoms that no such node reaches are left out.
        """
        weights = self.stop_weights(rule)[self.valid]
        keep = weights > 0.0
        w = np.bincount(self.node_atom[keep], weights=weights[keep],
                        minlength=self.node_losses.size)
        reached = w > 0.0
        w = w[reached]
        return EmpiricalDistribution(self.node_losses[reached], w / w.sum())

    def node_rule(self, feats, theta, s0: float | None = None) -> np.ndarray:
        """Acceptance probabilities (action 0) of a Boltzmann policy at every node.

        One softmax over the T(T+1)/2 decision nodes, whose features come
        from ``feats.node_blocks``: built in one call, or kept by a
        budget-blind map. A policy that reads the budget is Markov on the
        lattice too: every node of step k has the budget
        ``params.budgets(s0)[k]``, whatever the moves.
        """
        T = self.params.T
        probs = action_probabilities(theta, feats.node_blocks(self, s0))
        rule = np.ones((T + 1, T + 1))
        rule[self.decision_k, self.decision_u] = probs[:, 0]
        return rule

    def mean_optimum(self) -> tuple[float, np.ndarray]:
        value, rule = self.best_stop_rule(self.loss)
        return float(value), rule

    def cvar_optimum(self, alpha: float) -> tuple[float, np.ndarray]:
        """min over stop rules of CVaR_alpha, and a rule attaining it.

        For each stop rule nu + E[(D - nu)^+]/(1 - alpha) is piecewise
        linear in nu with kinks at node losses, and a minimum of such
        functions is concave between consecutive kinks, so scanning nu
        over the node losses is exact.
        """
        nus = self.node_losses
        excess = np.maximum(self.loss[None] - nus[:, None, None], 0.0)
        values, rules = self.best_stop_rule(excess)
        scan = nus + values / (1.0 - alpha)
        best = int(np.argmin(scan))
        return float(scan[best]), rules[best]

    def constrained_optimum(self, alpha: float,
                            beta: float) -> tuple[EmpiricalDistribution, np.ndarray]:
        """Least-mean stop rule with CVaR_alpha <= beta from a Lagrangian scan.

        Minimizes E[D + lam (D - nu)^+ / (1 - alpha)] over deterministic
        stop rules for every nu in the node losses and every lam on a
        geometric grid, then keeps the feasible rule with the least mean.
        The result is feasible and exact for its rule; randomized rules
        could lower the mean further.
        """
        lams = np.concatenate([[0.0], np.geomspace(1e-3, 1e3, 61)])
        nus = self.node_losses
        excess = np.maximum(self.loss[None] - nus[:, None, None], 0.0) / (1.0 - alpha)
        rules = np.concatenate([
            self.best_stop_rule(self.loss[None] + lam * excess)[1] for lam in lams
        ])
        rules = _unique_rules(rules)
        weights = self.stop_weights(rules).reshape(len(rules), -1)
        losses = self.loss.reshape(-1)
        means = weights @ losses
        node_excess = np.maximum(losses[:, None] - nus[None, :], 0.0)
        cvars = (nus[None, :] + weights @ node_excess / (1.0 - alpha)).min(axis=1)
        feasible = np.flatnonzero(cvars <= beta)
        if feasible.size == 0:
            raise InputError(f"no scanned stop rule meets CVaR <= {beta}")
        best = int(feasible[np.argmin(means[feasible])])
        return self.distribution(rules[best]), rules[best]


@functools.lru_cache(maxsize=16)
def kept_lattice(params) -> StoppingLattice:
    """The lattice of ``params``, built on first use and kept; callers share it."""
    return StoppingLattice(params)
