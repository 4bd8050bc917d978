"""Boltzmann policies over linear action scores.

mu(a | x; theta) = exp(theta . phi(x, a)) / sum_a' exp(theta . phi(x, a'))

with the analytic likelihood-ratio gradient

    grad log mu(a | x; theta) = phi(x, a) - sum_a' mu(a' | x) phi(x, a').
"""
from __future__ import annotations

import numpy as np

from .errors import InputError, SimulationError


def action_probabilities(theta: np.ndarray, feats: np.ndarray) -> np.ndarray:
    """Softmax over per-action logits, stabilized by max subtraction.

    feats has shape (n_actions, dim); returns strictly positive
    probabilities summing to one.
    """
    feats = np.asarray(feats, dtype=float)
    if feats.ndim != 2 or feats.shape[0] < 1:
        raise InputError("need a (n_actions, dim) feature matrix")
    logits = feats @ theta
    logits = logits - logits.max()
    if not np.all(np.isfinite(logits)):
        raise SimulationError("non-finite policy logits after stabilization")
    e = np.exp(logits)
    return e / e.sum()


def grad_log_prob(theta: np.ndarray, feats: np.ndarray, action: int) -> np.ndarray:
    """Exact gradient of log mu at the chosen action."""
    probs = action_probabilities(theta, feats)
    if not 0 <= action < feats.shape[0]:
        raise InputError(f"action {action} outside support of size {feats.shape[0]}")
    return feats[action] - probs @ feats


def sample_action(theta: np.ndarray, feats: np.ndarray, u: float) -> int:
    """Inverse-CDF draw using one externally supplied uniform."""
    probs = action_probabilities(theta, feats)
    return int(np.searchsorted(np.cumsum(probs), u, side="right").clip(0, len(probs) - 1))


def trajectory_score(trajectory, theta: np.ndarray, feature_map) -> np.ndarray:
    """Sum of per-step grad log mu over the recorded decision steps.

    Steps with a single available action contribute nothing (log mu = 0).
    """
    total = np.zeros_like(np.asarray(theta, dtype=float))
    for state, action in zip(trajectory.states[:-1], trajectory.actions):
        feats = feature_map.per_action(state)
        if feats.shape[0] > 1:
            total += grad_log_prob(theta, feats, action)
    return total
