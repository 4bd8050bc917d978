"""Risk measures on empirical loss distributions.

Losses are positive-bad, so value-at-risk and conditional value-at-risk
look at the right tail. CVaR is the minimum of the Rockafellar-Uryasev
surrogate

    H(nu) = nu + E[(Z - nu)^+] / (1 - alpha),

which is convex and piecewise linear in nu, with right derivative
1 - P(Z > nu) / (1 - alpha). That slope is negative exactly where
F(nu) < alpha, so H falls up to the alpha-quantile VaR and does not fall
after it: the minimum is H(VaR). ``cvar`` therefore sorts once for the
quantile and evaluates H there, in O(n log n) time and O(n) memory.
Evaluating H, rather than averaging the samples above VaR, weights the
atom at VaR by exactly the share of it that lies in the tail.

Reference:
    Rockafellar, R.T. & Uryasev, S. (2000). Optimization of Conditional
    Value-at-Risk. Journal of Risk, 2, 21-41.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError

__all__ = [
    "EmpiricalDistribution",
    "RiskSpec",
    "value_at_risk",
    "h_alpha",
    "cvar",
    "tail_probability",
]


@dataclass(frozen=True)
class RiskSpec:
    """Confidence level, loss tolerance, multiplier cap, and discount."""

    alpha: float
    beta: float
    lambda_max: float
    gamma: float

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise InputError(f"alpha must be in (0,1), got {self.alpha}")
        if not np.isfinite(self.beta):
            raise InputError(f"beta must be finite, got {self.beta}")
        if not self.lambda_max > 0.0:
            raise InputError(f"lambda_max must be positive, got {self.lambda_max}")
        if not 0.0 < self.gamma < 1.0:
            raise InputError(f"gamma must be in (0,1), got {self.gamma}")


# OpenBLAS runs a dot product of more than 10 000 terms on several threads,
# and the split moves the last bits of the sum with the thread count, which
# defaults to the core count. Dots of at most that many terms run on one
# thread, so longer ones are summed chunk by chunk, in order.
_DOT_CHUNK = 10_000


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """``a @ b`` of two vectors, with the same bits on any number of BLAS threads."""
    if a.size <= _DOT_CHUNK:
        return float(a @ b)
    total = 0.0
    for i in range(0, a.size, _DOT_CHUNK):
        total += float(a[i:i + _DOT_CHUNK] @ b[i:i + _DOT_CHUNK])
    return total


class EmpiricalDistribution:
    """Finite weighted sample of real losses.

    Weights default to uniform; they must be nonnegative and sum to one
    within 1e-12. Samples must be finite.
    """

    def __init__(self, samples, weights=None):
        samples = np.asarray(samples, dtype=float).reshape(-1)
        if samples.size == 0:
            raise InputError("distribution needs at least one sample")
        if not np.all(np.isfinite(samples)):
            raise InputError("samples contain non-finite values")
        if weights is None:
            weights = np.full(samples.size, 1.0 / samples.size)
        else:
            weights = np.asarray(weights, dtype=float).reshape(-1)
            if weights.shape != samples.shape:
                raise InputError("weights shape does not match samples")
            if np.any(weights < 0.0) or not np.all(np.isfinite(weights)):
                raise InputError("weights must be finite and nonnegative")
            if abs(weights.sum() - 1.0) > 1e-12:
                raise InputError(f"weights sum to {weights.sum()!r}, expected 1")
        self.samples = samples
        self.weights = weights

    def __len__(self) -> int:
        return self.samples.size

    def mean(self) -> float:
        return _dot(self.weights, self.samples)

    def variance(self) -> float:
        m = self.mean()
        return _dot(self.weights, (self.samples - m) ** 2)


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise InputError(f"alpha must be in (0,1), got {alpha}")


def value_at_risk(dist: EmpiricalDistribution, alpha: float) -> float:
    """Smallest sample z whose cumulative weight reaches alpha.

    This is the left-continuous inverse of the empirical CDF evaluated at
    alpha; the minimum is attained because the CDF is a right-continuous
    step function.
    """
    _check_alpha(alpha)
    order = np.argsort(dist.samples, kind="stable")
    cum = np.cumsum(dist.weights[order])
    pos = int(np.searchsorted(cum, alpha, side="left"))
    pos = min(pos, len(dist) - 1)  # guard float round-off at alpha near 1
    return float(dist.samples[order][pos])


def h_alpha(dist: EmpiricalDistribution, nu: float, alpha: float) -> float:
    """Rockafellar-Uryasev surrogate nu + E[(Z - nu)^+] / (1 - alpha)."""
    _check_alpha(alpha)
    excess = np.maximum(dist.samples - nu, 0.0)
    return float(nu + _dot(dist.weights, excess) / (1.0 - alpha))


def cvar(dist: EmpiricalDistribution, alpha: float) -> float:
    """CVaR_alpha as min over nu of h_alpha, taken at nu = value_at_risk.

    When the cumulative weight reaches alpha exactly at an atom, H is flat
    from that atom to the next and every point of the flat segment is a
    minimizer. Round-off in the cumulative weights can then choose the
    other end of the segment. The two values of H are equal in exact
    arithmetic and differ only by round-off, in practice in the last ulp.
    """
    return h_alpha(dist, value_at_risk(dist, alpha), alpha)


def tail_probability(dist: EmpiricalDistribution, threshold: float) -> float:
    """Total weight of samples at or above the threshold."""
    return float(dist.weights[dist.samples >= threshold].sum())
