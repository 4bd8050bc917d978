"""Output checks for the benchmark, computed apart from the library.

The exact oracle is the recombining cost lattice of the optimal-stopping
benchmark. After k waits with u up-moves the cost is c0 f_u^u f_d^(k-u)
whatever the order of the moves, and the holding fees paid so far are
fixed, so stopping at node (k, u) ends the episode with loss

    D(k, u) = p_h (1 - gamma^k) / (1 - gamma) + gamma^k c0 f_u^u f_d^(k-u).

A policy that sees only the cost, the step index and a budget that is a
function of the step index (the raw and the budget-augmented Boltzmann
policies) accepts with one probability per node, so its exact loss
distribution comes from one forward pass over the (T+1)(T+2)/2 nodes.

Nothing here calls the library: the Boltzmann acceptance probabilities are
recomputed from the feature definition, and the risk measures from sorted
losses.
"""
from __future__ import annotations

import math

import numpy as np

# Monte Carlo allowances are this many standard errors; a correct program
# fails one of them with probability below 1e-8.
Z_ALLOWANCE = 6.0
REL_TOL = 1e-9


class CheckFailed(Exception):
    """An output of the library disagrees with its independent recomputation."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


class Lattice:
    """Node losses of the stopping problem and exact forward and backward passes.

    ``params`` needs c0, p_h, T, f_u, f_d, p and gamma. Arrays are indexed
    [k, u]; entries with u > k are NaN.
    """

    def __init__(self, params):
        self.params = params
        T = params.T
        k = np.arange(T + 1)[:, None]
        u = np.arange(T + 1)[None, :]
        self.valid = u <= k
        disc = params.gamma ** k
        if params.gamma == 1.0:
            fees = params.p_h * k
        else:
            fees = params.p_h * (1.0 - disc) / (1.0 - params.gamma)
        cost = params.c0 * params.f_u ** np.minimum(u, k) * params.f_d ** np.maximum(k - u, 0)
        self.cost = np.where(self.valid, cost, np.nan)
        self.loss = np.where(self.valid, fees + disc * cost, np.nan)

    def stop_weights(self, accept: np.ndarray) -> np.ndarray:
        """Probability of ending at each node; row T always accepts."""
        p, T = self.params.p, self.params.T
        weights = np.zeros((T + 1, T + 1))
        reach = np.ones(1)
        for k in range(T + 1):
            a = np.ones(k + 1) if k == T else accept[k, :k + 1]
            weights[k, :k + 1] = reach * a
            carry = reach * (1.0 - a)
            reach = np.zeros(k + 2)
            reach[1:] += p * carry
            reach[:-1] += (1.0 - p) * carry
        return weights

    def distribution(self, accept: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Exact (losses, weights) of the stop rule ``accept``, nodes with mass only."""
        weights = self.stop_weights(accept)
        keep = self.valid & (weights > 0.0)
        return self.loss[keep], weights[keep]

    def mean_optimum(self) -> float:
        """Least expected loss over all stop rules, by backward induction."""
        p, T = self.params.p, self.params.T
        value = self.loss[T, :T + 1]
        for k in range(T - 1, -1, -1):
            cont = p * value[1:k + 2] + (1.0 - p) * value[:k + 1]
            value = np.minimum(self.loss[k, :k + 1], cont)
        return float(value[0])


def boltzmann_accept(lattice: Lattice, theta: np.ndarray, centers: int, scale: float,
                     width_scale: float = 1.0, s0: float | None = None,
                     s_range: tuple[float, float] = (-20.0, 20.0)) -> np.ndarray:
    """Acceptance probability at every node of a linear-softmax policy.

    Features are ``scale`` times Gaussian bumps on a uniform grid of
    ``centers`` per axis over (log cost on its envelope, k / T[, budget on
    ``s_range``]) plus a bias, one block per action (accept first). With
    ``s0`` the budget after k waits is s_k = (s_{k-1} - p_h) / gamma.
    """
    prm = lattice.params
    T = prm.T
    lo, hi = prm.c0 * prm.f_d ** T, prm.c0 * prm.f_u ** T
    k_idx, u_idx = np.nonzero(lattice.valid[:T])
    c = lattice.cost[k_idx, u_idx]
    cols = [np.clip((np.log(np.maximum(c, lo)) - math.log(lo)) / (math.log(hi) - math.log(lo)),
                    0.0, 1.0),
            k_idx / T]
    if s0 is not None:
        s = np.empty(T)
        s[0] = s0
        for k in range(1, T):
            s[k] = (s[k - 1] - prm.p_h) / prm.gamma
        cols.append(np.clip((s[k_idx] - s_range[0]) / (s_range[1] - s_range[0]), 0.0, 1.0))
    z = np.stack(cols, axis=1)
    grid = np.stack([m.ravel() for m in np.meshgrid(*[np.linspace(0.0, 1.0, centers)] * z.shape[1],
                                                    indexing="ij")], axis=1)
    width = width_scale / (centers - 1)
    bumps = np.exp(-((z[:, None, :] - grid[None]) ** 2).sum(axis=2) / (2.0 * width ** 2))
    phi = scale * np.concatenate([bumps, np.ones((len(z), 1))], axis=1)
    half = phi.shape[1]
    gap = phi @ (theta[half:2 * half] - theta[:half])   # wait logit minus accept logit
    accept = np.ones((T + 1, T + 1))
    accept[k_idx, u_idx] = 0.5 * (1.0 - np.tanh(0.5 * gap))  # 1 / (1 + e^gap), stable
    return accept


# ---- risk measures recomputed by sorting -------------------------------------


def sorted_cvar(losses: np.ndarray, weights: np.ndarray, alpha: float) -> float:
    """Weighted mean of the upper 1 - alpha tail, splitting the boundary atom."""
    order = np.argsort(losses)[::-1]
    x, w = losses[order], weights[order]
    tail = 1.0 - alpha
    cum = np.cumsum(w)
    j = min(int(np.searchsorted(cum, tail)), len(x) - 1)
    before = cum[j - 1] if j > 0 else 0.0
    return float((x[:j] @ w[:j] + (tail - before) * x[j]) / tail)


def sorted_quantile(losses: np.ndarray, weights: np.ndarray, alpha: float) -> float:
    order = np.argsort(losses)
    cum = np.cumsum(weights[order])
    return float(losses[order][min(int(np.searchsorted(cum, alpha)), len(cum) - 1)])


# ---- checks -------------------------------------------------------------------


def check_node_losses(lattice: Lattice, losses: np.ndarray, lengths: np.ndarray) -> None:
    """Every episode loss is the loss of a node at depth length - 1."""
    losses = np.asarray(losses, dtype=float)
    k = np.asarray(lengths) - 1
    _require(losses.shape == k.shape and losses.size > 0, "losses and lengths disagree")
    _require(bool(np.all((k >= 0) & (k <= lattice.params.T))), "episode length outside [1, T+1]")
    gap = np.nanmin(np.abs(losses[:, None] - lattice.loss[k]), axis=1)
    bad = np.flatnonzero(gap > REL_TOL * np.maximum(1.0, np.abs(losses)))
    _require(bad.size == 0,
             f"{bad.size} losses are no node loss, e.g. episode {bad[:1]} loss {losses[bad[:1]]}")


def check_report(report, losses: np.ndarray, alpha: float, beta: float) -> None:
    """The report's mean, CVaR and tail probability match a sort of ``losses``."""
    losses = np.asarray(losses, dtype=float)
    n = losses.size
    w = np.full(n, 1.0 / n)
    _require(report.episodes == n, f"report counts {report.episodes} episodes, losses {n}")
    mean = float(np.sort(losses).sum() / n)
    _require(_close(report.mean, mean), f"report mean {report.mean!r} vs {mean!r}")
    cv = sorted_cvar(losses, w, alpha)
    _require(_close(report.cvar_alpha, cv), f"report CVaR {report.cvar_alpha!r} vs {cv!r}")
    tail = int(np.count_nonzero(losses >= beta)) / n
    _require(_close(report.tail_prob_beta, tail, 1e-12),
             f"report tail probability {report.tail_prob_beta!r} vs {tail!r}")


def check_monte_carlo(losses: np.ndarray, exact: tuple[np.ndarray, np.ndarray],
                      alpha: float) -> None:
    """Sample mean and CVaR lie within Z_ALLOWANCE standard errors of the exact values."""
    losses = np.asarray(losses, dtype=float)
    n = losses.size
    x, w = exact
    mean = float(x @ w)
    se_mean = math.sqrt(float(w @ (x - mean) ** 2) / n)
    got = float(losses.mean())
    _require(abs(got - mean) <= Z_ALLOWANCE * se_mean + 1e-12,
             f"sample mean {got!r} vs exact {mean!r} (se {se_mean:.3g})")
    var = sorted_quantile(x, w, alpha)
    excess = np.maximum(x - var, 0.0)
    se_cvar = math.sqrt(float(w @ (excess - w @ excess) ** 2) / n) / (1.0 - alpha)
    cv, got_cv = sorted_cvar(x, w, alpha), sorted_cvar(losses, np.full(n, 1.0 / n), alpha)
    _require(abs(got_cv - cv) <= Z_ALLOWANCE * se_cvar + 1e-12,
             f"sample CVaR {got_cv!r} vs exact {cv!r} (se {se_cvar:.3g})")


def check_exact_distribution(dist, cvar_value: float, tail_value: float,
                             exact: tuple[np.ndarray, np.ndarray], alpha: float,
                             beta: float) -> None:
    """An enumerated distribution and its risk measures match the lattice to 1e-9."""
    samples = np.asarray(dist.samples, dtype=float)
    weights = np.asarray(dist.weights, dtype=float)
    _require(abs(float(weights.sum()) - 1.0) <= 1e-12, f"weights sum to {float(weights.sum())!r}")
    x, w = exact
    pairs = (
        ("mean", float(samples @ weights), float(x @ w)),
        ("CVaR", cvar_value, sorted_cvar(x, w, alpha)),
        ("P(D >= beta)", tail_value, float(w[x >= beta].sum())),
    )
    for name, got, want in pairs:
        _require(abs(got - want) <= REL_TOL, f"{name} {got!r} vs lattice {want!r}")


def check_trained(trained, theta_bound: float, nu_box: tuple[float, float], losses: np.ndarray,
                  mean_optimum: float) -> None:
    """Iterates are finite and inside their boxes; the evaluated mean is not below the optimum."""
    theta = np.asarray(trained.theta, dtype=float)
    _require(bool(np.all(np.isfinite(theta))), "theta is not finite")
    _require(float(np.abs(theta).max()) <= theta_bound, f"|theta| exceeds {theta_bound}")
    _require(math.isfinite(trained.nu) and nu_box[0] <= trained.nu <= nu_box[1],
             f"nu {trained.nu!r} outside [{nu_box[0]}, {nu_box[1]}]")
    _require(math.isfinite(trained.lam) and 0.0 <= trained.lam <= trained.lambda_max_final,
             f"lambda {trained.lam!r} outside [0, {trained.lambda_max_final}]")
    losses = np.asarray(losses, dtype=float)
    allowance = Z_ALLOWANCE * float(losses.std()) / math.sqrt(losses.size) + 1e-12
    _require(float(losses.mean()) >= mean_optimum - allowance,
             f"evaluated mean {float(losses.mean())!r} below the exact optimum {mean_optimum!r}")
