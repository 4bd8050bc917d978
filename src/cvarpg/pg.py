"""Trajectory-batch policy gradient for the risk-constrained saddle problem.

Each iteration draws a batch of episodes under the current policy and
nudges three coupled iterates on separated timescales: the quantile
estimate nu (fastest), the policy parameters theta (intermediate), and
the Lagrange multiplier lambda (slowest), each projected back into its
admissible set. One iteration is one round of ``CapController.run``: if
the multiplier pins to its cap, the cap doubles and the schedule
restarts with parameters retained.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .risk import RiskSpec
from .schedules import Box, CapController, Iterate, StepSchedule, TrainResult

__all__ = ["GradientEstimate", "estimate_batch_gradients", "pg_iteration", "pg_train"]


@dataclass(frozen=True)
class GradientEstimate:
    g_theta: np.ndarray
    g_nu: float
    g_lambda: float


def estimate_batch_gradients(
    losses: np.ndarray,
    scores: np.ndarray,
    nu: float,
    lam: float,
    risk: RiskSpec,
) -> GradientEstimate:
    """Sample gradients of the saddle objective from one batch.

    losses: (N,) episode losses D; scores: (N, dim) likelihood-ratio
    scores. The excess indicator uses D >= nu. With lam = 0 the theta
    component reduces to the plain score-times-return estimate.

    The theta component is two BLAS gemv calls over the batch. From about
    15 000 episodes OpenBLAS splits them across threads, so the bits of
    ``g_theta`` then depend on ``OPENBLAS_NUM_THREADS`` (a certified-instance
    batch of the shipped 34-weight map gave equal bytes under 1 and 2
    threads at 12 000 episodes, different ones at 15 000). A batch below
    that, such as the shipped configs' 100, gives the same bits on any
    thread count.
    """
    losses = np.asarray(losses, dtype=float)
    scores = np.asarray(scores, dtype=float)
    n = losses.size
    if n == 0:
        raise InputError("empty batch")
    if scores.shape[0] != n:
        raise InputError("scores and losses disagree on batch size")
    tail = losses >= nu
    one_m_alpha = 1.0 - risk.alpha
    g_nu = lam - (lam / (one_m_alpha * n)) * float(tail.sum())
    g_theta = scores.T @ losses / n + (lam / (one_m_alpha * n)) * (
        scores.T @ ((losses - nu) * tail)
    )
    g_lambda = nu - risk.beta + float(((losses - nu) * tail).sum()) / (one_m_alpha * n)
    return GradientEstimate(g_theta, g_nu, g_lambda)


def pg_iteration(
    iterate: Iterate,
    grads: GradientEstimate,
    i: int,
    schedules: tuple[StepSchedule, StepSchedule, StepSchedule],
    boxes: tuple[Box, Box, Box],
    risk_neutral: bool = False,
) -> Iterate:
    """One projected update of (nu, theta, lambda) from a shared batch.

    ``schedules``/``boxes`` are ordered slow to fast: (lambda, theta, nu).
    In risk-neutral mode only theta moves.
    """
    zeta_lam, zeta_theta, zeta_nu = schedules
    box_lam, box_theta, box_nu = boxes
    theta = box_theta.project(iterate.theta - zeta_theta(i) * grads.g_theta)
    if risk_neutral:
        return Iterate(theta, iterate.nu, iterate.lam)
    nu = float(box_nu.project(iterate.nu - zeta_nu(i) * grads.g_nu))
    lam = float(box_lam.project(iterate.lam + zeta_lam(i) * grads.g_lambda))
    return Iterate(theta, nu, lam)


def pg_train(
    sampler,
    iterate0: Iterate,
    risk: RiskSpec,
    schedules: tuple[StepSchedule, StepSchedule, StepSchedule],
    theta_box: Box,
    nu_box: Box,
    tuning_iterations: int,
    iteration_cap: int,
    controller: CapController,
) -> TrainResult:
    """Run batched saddle-point iterations until accepted or out of budget.

    ``sampler(theta, round_idx, iter_idx)`` returns (losses, scores) for a
    fresh batch. Each iteration is one round of ``controller.run``; a
    doubling of the multiplier cap restarts the schedule index while
    keeping the current iterate.
    """
    iterate = iterate0

    def step(i: int) -> tuple[Iterate, dict]:
        nonlocal iterate
        losses, scores = sampler(iterate.theta, controller.doublings, i)
        grads = estimate_batch_gradients(losses, scores, iterate.nu, iterate.lam, risk)
        iterate = pg_iteration(iterate, grads, i, schedules,
                               (controller.lam_box, theta_box, nu_box), controller.risk_neutral)
        return iterate, {"mean_batch_loss": float(np.mean(losses)),
                         "g_theta_norm": float(np.linalg.norm(grads.g_theta)),
                         "g_nu": grads.g_nu, "g_lambda": grads.g_lambda}

    return controller.run(step, iterate0, tuning_iterations, iteration_cap)
