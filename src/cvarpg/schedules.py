"""Step-size schedules, ``check_separation``, projections, and the multiplier-cap controller."""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InputError
from .features import clamp


MIN_WINDOW = 2  # a relative change needs two iterates


@dataclass(frozen=True)
class StepSchedule:
    """Polynomially decaying step size c / i^p with p in (0.5, 1].

    The exponent range guarantees sum zeta(i) = inf and sum zeta(i)^2 < inf.
    """

    c: float
    p: float

    def __post_init__(self):
        if not self.c > 0.0:
            raise InputError(f"schedule coefficient must be positive, got {self.c}")
        if not 0.5 < self.p <= 1.0:
            raise InputError(f"schedule exponent must be in (0.5, 1], got {self.p}")

    def __call__(self, i: int) -> float:
        if i < 1:
            raise InputError(f"schedule index must be >= 1, got {i}")
        return self.c / float(i) ** self.p


@dataclass(frozen=True)
class PerturbationSchedule:
    """Decaying perturbation width for two-sided difference estimates."""

    c: float
    p: float

    def __post_init__(self):
        if not self.c > 0.0:
            raise InputError(f"perturbation coefficient must be positive, got {self.c}")
        if self.p < 0.0:
            raise InputError(f"perturbation exponent must be >= 0, got {self.p}")

    def __call__(self, k: int) -> float:
        if k < 1:
            raise InputError(f"perturbation index must be >= 1, got {k}")
        return self.c / float(k) ** self.p


def check_separation(zetas: tuple[StepSchedule, ...],
                     perturbation: PerturbationSchedule | None = None) -> None:
    """Raise ``InputError`` unless ``zetas``, slowest first, separate their timescales.

    Separation requires strictly decreasing exponents from slow to fast,
    so each slower schedule is o() of every faster one. With a
    perturbation schedule, the second-slowest step size must satisfy
    2*(p2 - p_delta) > 1 so the perturbed-difference noise is
    square-summable.
    """
    exps = [s.p for s in zetas]
    for slow, fast in zip(exps, exps[1:]):
        if not slow > fast:
            raise InputError(
                f"timescale exponents must strictly decrease slow to fast, got {exps}"
            )
    if perturbation is not None:
        p2 = zetas[1].p
        if not 2.0 * (p2 - perturbation.p) > 1.0:
            raise InputError(
                "perturbation decays too fast: need 2*(p2 - p_delta) > 1, "
                f"got p2={p2}, p_delta={perturbation.p}"
            )


@dataclass(frozen=True)
class Box:
    """Axis-aligned box; Euclidean projection is a component-wise clamp."""

    lo: np.ndarray | float
    hi: np.ndarray | float

    def __post_init__(self):
        if np.any(np.asarray(self.lo) > np.asarray(self.hi)):
            raise InputError("box lower bound exceeds upper bound")

    def project(self, x):
        """``np.clip(x, lo, hi)``; a float between float bounds is clamped without numpy."""
        if isinstance(x, float) and isinstance(self.lo, float) and isinstance(self.hi, float):
            return clamp(x, self.lo, self.hi)
        return np.clip(x, self.lo, self.hi)


class Decision(Enum):
    CONTINUE = "continue"
    DOUBLE = "double"
    ACCEPT = "accept"


def relative_change(history, window: int) -> float:
    """Max step-to-step relative change over the trailing window.

    Each step from prev to cur changes by max|cur - prev| / (1 + max|cur|);
    the iterates of the window are stacked as rows of one array.
    """
    if len(history) < 2:
        return np.inf
    tail = np.asarray(history[-(window + 1):], dtype=float)
    tail = tail.reshape(len(tail), -1)
    num = np.abs(tail[1:] - tail[:-1]).max(axis=1)
    den = 1.0 + np.abs(tail[1:]).max(axis=1)
    return float((num / den).max())


def lambda_max_controller(
    lam_history,
    lambda_max: float,
    margin: float = 0.01,
    window: int = 50,
    rel_tol: float = 1e-4,
    params_converged: bool = True,
) -> Decision:
    """Decide whether to keep iterating, double the cap, or stop.

    DOUBLE when the trailing window of multiplier iterates is pinned
    within ``margin`` (fractional) of the cap, which signals convergence
    to a spurious boundary fixed point. ACCEPT when the multiplier has
    settled away from the cap and the caller's own parameter-change test
    passed. Otherwise CONTINUE.
    """
    if window < MIN_WINDOW:
        raise InputError(f"window must be >= {MIN_WINDOW}, got {window}")
    if len(lam_history) < window:
        return Decision.CONTINUE
    tail = np.asarray(lam_history[-window:], dtype=float)
    cap_edge = lambda_max * (1.0 - margin)
    if np.all(tail >= cap_edge):
        return Decision.DOUBLE
    lam_settled = relative_change(tail, window) < rel_tol
    if lam_settled and tail[-1] < cap_edge and params_converged:
        return Decision.ACCEPT
    return Decision.CONTINUE


@dataclass(frozen=True)
class Iterate:
    """Saddle iterate (theta, nu, lambda); the actor-critics add critic weights v and u."""

    theta: np.ndarray
    nu: float
    lam: float
    v: np.ndarray | None = None
    u: np.ndarray | None = None


class CapController:
    """The multiplier-cap policy of one training run, and the loop of its rounds.

    Both learners descend in (theta, nu) and ascend in lambda, projected
    by ``lam_box`` into [0, lambda_max]. ``run`` calls the learner's step
    once per round and passes each new iterate to ``observe``, which keeps
    the histories of the current cap, tests whether the parameters have
    settled over the trailing window and asks ``lambda_max_controller`` for
    a decision. On DOUBLE it rebuilds ``lam_box`` with twice the cap and
    starts afresh, and ``run`` restarts the step index at 1. A risk-neutral
    run keeps lambda at zero, so it never doubles and is accepted as soon
    as its parameters settle. The harness builds one controller per run.
    """

    def __init__(self, lambda_max: float, window: int = 50, rel_tol: float = 1e-4,
                 margin: float = 0.01, risk_neutral: bool = False):
        self.lam_box = Box(0.0, lambda_max)
        self.window = window
        self.rel_tol = rel_tol
        self.margin = margin
        self.risk_neutral = risk_neutral
        self.doublings = 0
        self._lam_history: list[float] = []
        self._param_history: list[np.ndarray] = []

    @property
    def lambda_max(self) -> float:
        return self.lam_box.hi

    def observe(self, theta: np.ndarray, nu: float, lam: float) -> Decision:
        self._lam_history.append(lam)
        self._param_history.append(np.concatenate([theta, [nu, lam]]))
        settled = (
            len(self._param_history) >= self.window
            and relative_change(self._param_history, self.window) < self.rel_tol
        )
        if self.risk_neutral:
            return Decision.ACCEPT if settled else Decision.CONTINUE
        decision = lambda_max_controller(
            self._lam_history, self.lambda_max, self.margin, self.window, self.rel_tol, settled
        )
        if decision is Decision.DOUBLE:
            self.lam_box = Box(0.0, 2.0 * self.lambda_max)
            self.doublings += 1
            self._lam_history.clear()
            self._param_history.clear()
        return decision

    def run(self, step, iterate0: Iterate, tuning: int, cap: int) -> TrainResult:
        """Run rounds until ACCEPT, ``tuning`` rounds under one cap, or ``cap`` rounds in all.

        ``step(i)`` runs round i, counted from 1 under the current cap, and
        returns the new iterate and the learner's own history fields. With
        no round run, the result holds ``iterate0``.
        """
        iterate = iterate0
        history: list[dict] = []
        converged = False
        i = 0
        while i < tuning and len(history) < cap:
            i += 1
            iterate, record = step(i)
            history.append({"iter": len(history) + 1, "nu": iterate.nu, "lambda": iterate.lam,
                            "theta_norm": float(np.linalg.norm(iterate.theta)), **record})
            decision = self.observe(iterate.theta, iterate.nu, iterate.lam)
            if decision is Decision.ACCEPT:
                converged = True
                break
            if decision is Decision.DOUBLE:
                i = 0
        return TrainResult(iterate, converged, self.lambda_max, self.doublings, history)


@dataclass
class TrainResult:
    """Outcome of one training run of either learner.

    ``iterate`` is the learner's final iterate; ``lambda_max`` and
    ``doublings`` are the cap controller's at the end of the run.
    """

    iterate: Iterate
    converged: bool
    lambda_max: float
    doublings: int
    history: list
