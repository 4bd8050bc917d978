"""Radial-basis feature construction.

A uniform grid of Gaussian bumps over the unit cube plus a constant bias
term, in the style of LSPI featurizations. Policy features replicate the
state vector once per action (block one-hot layout), so a linear score
over them yields independent per-action logits.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError


def clamp(x: float, lo: float, hi: float) -> float:
    """``np.clip`` of one float, bit for bit (signed zeros included), without its call overhead."""
    return min(max(x, lo), hi)


@dataclass(frozen=True)
class AxisScale:
    """Maps a raw coordinate into [0, 1], optionally on log scale."""

    lo: float
    hi: float
    log: bool = False
    # the axis's origin and length on its own scale, fixed at construction
    _origin: float = field(init=False, repr=False, compare=False)
    _length: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.lo < self.hi:
            raise InputError(f"axis range is empty: [{self.lo}, {self.hi}]")
        if self.log and self.lo <= 0.0:
            raise InputError("log axis requires positive lower bound")
        origin = np.log(self.lo) if self.log else self.lo
        end = np.log(self.hi) if self.log else self.hi
        object.__setattr__(self, "_origin", origin)
        object.__setattr__(self, "_length", end - origin)

    def unit(self, x):
        """Position of x on the axis, clamped to [0, 1]; a float maps to a float."""
        if isinstance(x, float):
            z = np.log(max(x, self.lo)) if self.log else x
            return clamp((z - self._origin) / self._length, 0.0, 1.0)
        x = np.asarray(x, dtype=float)
        z = np.log(np.maximum(x, self.lo)) if self.log else x
        return np.clip((z - self._origin) / self._length, 0.0, 1.0)


class RbfGrid:
    """Gaussian bumps on a uniform grid over [0,1]^dims, plus a bias.

    Width defaults to the center spacing, so neighbouring bumps overlap
    at roughly 0.6 of their peak; ``width_scale`` multiplies it.
    """

    def __init__(self, dims: int, centers_per_dim: int = 4, width_scale: float = 1.0):
        if dims < 1 or centers_per_dim < 1:
            raise InputError("dims and centers_per_dim must be >= 1")
        if width_scale <= 0.0:
            raise InputError("width_scale must be positive")
        axes = [np.linspace(0.0, 1.0, centers_per_dim)] * dims
        mesh = np.meshgrid(*axes, indexing="ij")
        self.centers = np.stack([m.ravel() for m in mesh], axis=1)  # (n_centers, dims)
        spacing = 1.0 / (centers_per_dim - 1) if centers_per_dim > 1 else 1.0
        self.width = width_scale * spacing
        # -d2 / (2 w^2) equals d2 / (-2 w^2) bit for bit: negation is exact
        self.neg_two_w2 = -(2.0 * self.width**2)
        self.n_features = self.centers.shape[0] + 1

    def __call__(self, z) -> np.ndarray:
        """Featurize one row z of dims coordinates (an array or a list) -> (n_features,)."""
        return self.batch(np.asarray(z, dtype=float)[None, :])[0]

    def batch(self, Z: np.ndarray) -> np.ndarray:
        """Featurize rows of Z, shape (n, dims) -> (n, n_features)."""
        Z = np.asarray(Z, dtype=float)
        d2 = ((Z[:, None, :] - self.centers) ** 2).sum(axis=2)
        out = np.empty((Z.shape[0], self.n_features))
        out[:, :-1] = np.exp(d2 / self.neg_two_w2)
        out[:, -1] = 1.0
        return out


def action_blocks(state_features: np.ndarray, n_actions: int) -> np.ndarray:
    """Per-action rows, action a's state vector in block a.

    (..., f) -> (..., n_actions, n_actions*f), for one state or a batch.
    """
    f = state_features.shape[-1]
    out = np.zeros(state_features.shape[:-1] + (n_actions, n_actions * f))
    for a in range(n_actions):
        out[..., a, a * f:(a + 1) * f] = state_features
    return out
