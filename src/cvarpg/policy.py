"""The Boltzmann policy over linear action scores, the only module that computes it.

mu(a | x; theta) = exp(theta . phi(x, a)) / sum_a' exp(theta . phi(x, a'))

with the analytic likelihood-ratio gradient

    grad log mu(a | x; theta) = phi(x, a) - sum_a' mu(a' | x) phi(x, a').

Features have shape (..., n_actions, dim): one decision is an
(n_actions, dim) matrix, and any leading axes are a batch of decisions
(the rollout kernel's distinct costs, the lattice's nodes). A caller
computes the probabilities of a decision once and passes them to both
the draw and the score.
"""
from __future__ import annotations

import numpy as np

from .errors import InputError, SimulationError


def action_probabilities(theta: np.ndarray, feats: np.ndarray) -> np.ndarray:
    """Softmax over the action axis, stabilized by max subtraction.

    feats has shape (..., n_actions, dim); returns strictly positive
    probabilities of shape (..., n_actions), summing to one per decision.
    """
    feats = np.asarray(feats, dtype=float)
    if feats.ndim < 2 or feats.shape[-2] < 1:
        raise InputError("need a (..., n_actions, dim) feature array")
    logits = feats @ theta
    logits -= logits.max(axis=-1, keepdims=True)
    if not np.isfinite(logits).all():
        raise SimulationError("non-finite policy logits after stabilization")
    e = np.exp(logits)
    return e / e.sum(axis=-1, keepdims=True)


def sample_action(probs: np.ndarray, u):
    """Inverse-CDF draw, one externally supplied uniform per decision.

    The action is the number of cumulative probabilities at or below u,
    leaving out the last one, which stands for 1 and so maps any round-off
    to the last action. A scalar u gives an int, an array of u with the
    batch shape of ``probs`` gives an array of actions.
    """
    cdf = np.cumsum(np.asarray(probs)[..., :-1], axis=-1)
    action = (cdf <= np.asarray(u)[..., None]).sum(axis=-1)
    return int(action) if action.ndim == 0 else action


def action_scores(feats: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Exact gradient of log mu at every action, from the decisions' probabilities.

    Returns shape (..., n_actions, dim), the shape of ``feats``.
    """
    feats = np.asarray(feats, dtype=float)
    return feats - np.einsum("...a,...af->...f", probs, feats)[..., None, :]


def grad_log_prob(feats: np.ndarray, probs: np.ndarray, action) -> np.ndarray:
    """Exact gradient of log mu at the chosen action, from the decision's probabilities.

    ``action`` has the batch shape of ``feats``; returns shape (..., dim).
    """
    feats = np.asarray(feats, dtype=float)
    action = np.asarray(action)
    n_actions = feats.shape[-2]
    if action.min() < 0 or action.max() >= n_actions:
        raise InputError(f"action outside support of size {n_actions}")
    return action_scores(feats, probs)[np.indices(action.shape, sparse=True) + (action,)]
