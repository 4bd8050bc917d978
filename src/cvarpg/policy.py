"""The Boltzmann policy over linear action scores, the only module that computes it.

mu(a | x; theta) = exp(theta . phi(x, a)) / sum_a' exp(theta . phi(x, a'))

with the analytic likelihood-ratio gradient

    grad log mu(a | x; theta) = phi(x, a) - sum_a' mu(a' | x) phi(x, a').

Features have shape (..., n_actions, dim): one decision is an
(n_actions, dim) matrix, and any leading axes are a batch of decisions
(a window of the rollout kernel's cost table, the lattice's nodes).
A caller computes the probabilities of a decision once and passes them
to both the draw and the score.

The actor-critic calls these functions one decision at a time, where a
call's fixed numpy overhead is its whole cost. So each function has a
one-decision branch, taken for an (n_actions, dim) matrix, a float
uniform and an int action: the max, the finiteness check, the softmax's
normaliser and the draw's cumulative sum run on Python floats, which round
as numpy's float64 operations do, and the results equal the batch path's
bit for bit. numpy sums fewer than ``_SEQUENTIAL_SUM`` terms left to right
(the base case of its pairwise summation), so a decision with more actions
takes the batch path.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import InputError, SimulationError

# numpy's pairwise summation adds fewer terms than this in index order
_SEQUENTIAL_SUM = 8
_NON_FINITE = "non-finite policy logits after stabilization"


def action_probabilities(theta: np.ndarray, feats: np.ndarray) -> np.ndarray:
    """Softmax over the action axis, stabilized by max subtraction.

    feats has shape (..., n_actions, dim); returns strictly positive
    probabilities of shape (..., n_actions), summing to one per decision.
    """
    feats = np.asarray(feats, dtype=float)
    if feats.ndim < 2 or feats.shape[-2] < 1:
        raise InputError("need a (..., n_actions, dim) feature array")
    if feats.ndim == 2 and feats.shape[0] < _SEQUENTIAL_SUM:
        return _one_softmax((feats @ theta).tolist())
    logits = feats @ theta
    logits -= logits.max(axis=-1, keepdims=True)
    if not np.isfinite(logits).all():
        raise SimulationError(_NON_FINITE)
    e = np.exp(logits)
    return e / e.sum(axis=-1, keepdims=True)


def _one_softmax(logits: list) -> np.ndarray:
    """One decision's probabilities from its logits, as the batch path computes them."""
    top = max(logits)
    shifted = [x - top for x in logits]
    if not all(map(math.isfinite, shifted)):
        raise SimulationError(_NON_FINITE)
    e = np.exp(shifted)
    total = 0.0
    # in index order, as numpy adds them; the builtin sum compensates from Python 3.12
    for x in e.tolist():
        total += x
    return e / total


def sample_action(probs: np.ndarray, u):
    """Inverse-CDF draw, one externally supplied uniform per decision.

    The action is the number of cumulative probabilities at or below u,
    leaving out the last one, which stands for 1 and so maps any round-off
    to the last action. A scalar u gives an int, an array of u with the
    batch shape of ``probs`` gives an array of actions.
    """
    probs = np.asarray(probs)
    if isinstance(u, float) and probs.ndim == 1:
        return _one_draw(probs.tolist(), float(u))
    u = np.asarray(u)
    action = np.zeros(u.shape, dtype=np.intp)
    cdf = None
    for a in range(probs.shape[-1] - 1):  # the cumulative sum, added in action order
        cdf = probs[..., a] if cdf is None else cdf + probs[..., a]
        action += cdf <= u
    return int(action) if action.ndim == 0 else action


def _one_draw(probs: list, u: float) -> int:
    """One decision's action, as the batch path draws it; u a Python float, so the action is an int."""
    action, cdf = 0, 0.0
    for p in probs[:-1]:
        cdf += p
        action += cdf <= u
    return action


def _expected_features(feats: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """sum_a mu(a | x) phi(x, a) of each decision, shape (..., dim).

    Both score functions subtract this one expression, so the scores of a
    batch and of one chosen action agree bit for bit.
    """
    return np.einsum("...a,...af->...f", probs, feats)


def action_scores(feats: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Exact gradient of log mu at every action, from the decisions' probabilities.

    Returns shape (..., n_actions, dim), the shape of ``feats``.
    """
    feats = np.asarray(feats, dtype=float)
    return feats - _expected_features(feats, probs)[..., None, :]


def grad_log_prob(feats: np.ndarray, probs: np.ndarray, action) -> np.ndarray:
    """Exact gradient of log mu at the chosen action, from the decision's probabilities.

    ``action`` has the batch shape of ``feats``; returns shape (..., dim).
    """
    feats = np.asarray(feats, dtype=float)
    n_actions = feats.shape[-2]
    if isinstance(action, int) and feats.ndim == 2:
        if not 0 <= action < n_actions:
            raise InputError(f"action outside support of size {n_actions}")
        return feats[action] - _expected_features(feats, probs)
    action = np.asarray(action)
    if action.min() < 0 or action.max() >= n_actions:
        raise InputError(f"action outside support of size {n_actions}")
    # only the chosen action's row: the other actions' scores are never built
    chosen = feats[np.indices(action.shape, sparse=True) + (action,)]
    return chosen - _expected_features(feats, probs)
