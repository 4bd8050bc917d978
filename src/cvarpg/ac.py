"""Incremental actor-critic variants on the budget-augmented process.

Three flavours share one episode loop:

* SPSA_INCREMENTAL updates the critic, policy and quantile at every
  step and the multiplier at every terminal state; the quantile iterate
  moves along a two-sided perturbed difference of the critic at the
  initial state.
* SEMI_TRAJECTORY moves the critic and policy at every step but defers
  the quantile and multiplier updates to episode boundaries, where the
  final budget gives an unbiased excess-probability signal.
* ALTERNATIVE_TWO_CRITIC runs a second critic on the raw process with
  zeroed interior costs on the augmented one, which makes the multiplier
  update fully incremental.

Every episode steps ``mdp.AugmentedEnv``: STANDARD cost mode for the
first two, ZEROED for the two-critic variant. The loop holds no budget
dynamics or terminal penalty of its own. Every critic, the raw-process
one included, moves by ``td_step``, the one linear TD(0) step. Updates
inside one step all read the pre-step iterates (simultaneous update
convention).

The loop featurizes each state once. A state's critic features carry
over from the step that reached it, and a policy map on the critic's
grid builds a decision state's features from them. The quantile step
reads both perturbed initial states from one ``at_initial`` call.

A step's cost is the fixed overhead of its calls, so each call is kept
lean, bit for bit. One decision takes ``policy``'s one-decision branch:
its softmax runs one gemv, one exp and one divide, its draw runs on Python
floats, and its score is the chosen row less one einsum. A budget-aware
critic keeps, by (c, k) and for its
lifetime, the cost and step terms of each RBF centre's squared distance
(4 x 4 doubles with the shipped 4 centres per axis), so a state or a
perturbed initial budget adds only its budget term; at T = 20 a map that
visits every reachable cost keeps at most 888 of them (758 on criterion
6's instance), 0.42 and 0.33 MB. A budget-blind critic keeps its whole rows
by (c, k).
"""
from __future__ import annotations

import enum

import numpy as np

from .errors import InputError
from .mdp import AugmentedCostMode, AugmentedEnv
from .policy import action_probabilities, grad_log_prob, sample_action
from .risk import RiskSpec
from .schedules import (
    Box, CapController, Iterate, PerturbationSchedule, StepSchedule, TrainResult,
)

__all__ = [
    "AcVariant",
    "td_step",
    "spsa_nu_gradient",
    "spsa_nu_update",
    "ac_theta_update",
    "ac_lambda_update_incremental",
    "ac_lambda_update_alternative",
    "semi_trajectory_updates",
    "ac_train",
]


class AcVariant(enum.Enum):
    SPSA_INCREMENTAL = "spsa"
    SEMI_TRAJECTORY = "semi"
    ALTERNATIVE_TWO_CRITIC = "alternative"


def td_step(v: np.ndarray, phi: np.ndarray, cost: float, bootstrap: float, step: float,
            gamma: float) -> tuple[np.ndarray, float]:
    """One linear TD(0) step; returns (v + step * delta * phi, delta).

    delta = cost + gamma * bootstrap - v.phi, where ``bootstrap`` is the
    successor's value: v.phi' at an interior successor, 0 at the sink, or
    a closed form where one is known.
    """
    if step <= 0.0:
        raise InputError(f"step must be positive, got {step}")
    delta = cost + gamma * bootstrap - float(v @ phi)
    return v + step * delta * phi, delta


def spsa_nu_gradient(
    lam: float,
    v: np.ndarray,
    phi_plus: np.ndarray,
    phi_minus: np.ndarray,
    delta: float,
    alpha: float | None = None,
    alternative: bool = False,
) -> float:
    """Perturbed-difference estimate of the quantile sub-gradient."""
    if delta <= 0.0:
        raise InputError(f"delta must be positive, got {delta}")
    diff = float(v @ (phi_plus - phi_minus))
    if alternative:
        return lam * (1.0 + diff / (2.0 * (1.0 - alpha) * delta))
    return lam + diff / (2.0 * delta)


def spsa_nu_update(nu: float, gradient: float, step: float, nu_box: Box) -> float:
    return float(nu_box.project(nu - step * gradient))


def ac_theta_update(
    theta: np.ndarray,
    grad_log: np.ndarray,
    signal: float,
    step: float,
    gamma: float,
    theta_box: Box,
) -> np.ndarray:
    """Projected descent step theta - step/(1-gamma) * grad_log * signal."""
    return theta_box.project(theta - (step / (1.0 - gamma)) * signal * grad_log)


def ac_lambda_update_incremental(
    lam: float,
    nu: float,
    risk: RiskSpec,
    gamma_pow: float,
    s: float,
    step: float,
    lam_box: Box,
) -> float:
    """Ascent on nu - beta plus the discounted terminal-overrun term.

    The step fires once per episode, at the terminal state, where
    gamma^n (-s_n)^+ = (D - nu)^+ for the episode loss D, so the expected
    per-episode drift is step * (nu - beta + E[(D - nu)^+] / (1 - alpha)),
    the Lagrangian's gradient in lambda. The loop takes no step at interior
    states: adding nu - beta at each of the n + 1 states an on-policy
    episode visits would weight it by the episode length, which is
    unbiased only under occupation-measure sampling.
    """
    excess = gamma_pow * max(-s, 0.0) / (1.0 - risk.alpha)
    return float(lam_box.project(lam + step * (nu - risk.beta + excess)))


def ac_lambda_update_alternative(
    lam: float,
    nu: float,
    risk: RiskSpec,
    v_dot_phi: float,
    step: float,
    lam_box: Box,
) -> float:
    return float(lam_box.project(lam + step * (nu - risk.beta + v_dot_phi / (1.0 - risk.alpha))))


def semi_trajectory_updates(
    nu: float,
    lam: float,
    s_terminal: float,
    n_steps: int,
    risk: RiskSpec,
    step_nu: float,
    step_lam: float,
    nu_box: Box,
    lam_box: Box,
) -> tuple[float, float]:
    """End-of-episode quantile and multiplier updates.

    Both read the pre-update iterates; the indicator s_T <= 0 flags an
    episode whose loss reached the quantile.
    """
    g_nu = lam - (lam / (1.0 - risk.alpha)) * (1.0 if s_terminal <= 0.0 else 0.0)
    return (spsa_nu_update(nu, g_nu, step_nu, nu_box),
            ac_lambda_update_incremental(lam, nu, risk, risk.gamma**n_steps, s_terminal,
                                         step_lam, lam_box))


def ac_train(
    env,
    policy_features,
    critic_features,
    iterate0: Iterate,
    risk: RiskSpec,
    stack: tuple[StepSchedule, StepSchedule, StepSchedule, StepSchedule],
    perturbation: PerturbationSchedule,
    theta_box: Box,
    nu_box: Box,
    rng,
    variant: AcVariant,
    tuning_episodes: int,
    episode_cap: int,
    controller: CapController,
    horizon_cap: int = 10_000,
    original_critic_features=None,
    semi_nu_schedule: StepSchedule | None = None,
    critic_warmup_episodes: int = 0,
) -> TrainResult:
    """Episode loop shared by all variants, one episode a round of ``controller.run``.

    ``stack`` is ordered slow to fast: (zeta1 lambda, zeta2 theta,
    zeta3 nu, zeta4 critic). The alternative variant additionally needs
    ``original_critic_features`` for its raw-process critic. A risk-neutral
    ``controller`` freezes lambda and nu and starts every episode at budget 0;
    with budget-blind features it reduces every variant to a plain actor-critic.
    ``semi_nu_schedule`` overrides the step size of the per-episode
    quantile update (zeta2 by default; zeta3 keeps it on the faster
    quantile timescale).

    The first ``critic_warmup_episodes`` episodes pretrain the critic
    under the initial policy: they freeze theta, nu and lambda, add no
    history record. The global step count restarts at 1 with the first
    round, after the warmup and after each doubling of the cap.
    The weight vectors are free initialization inputs of the training
    loop; fitting them before any actor update keeps the early actor
    steps from chasing an uninformed critic.
    """
    zeta1, zeta2, zeta3, zeta4 = stack
    semi_nu = semi_nu_schedule if semi_nu_schedule is not None else zeta2
    alternative = variant is AcVariant.ALTERNATIVE_TWO_CRITIC
    mode = AugmentedCostMode.ZEROED if alternative else AugmentedCostMode.STANDARD
    if alternative and original_critic_features is None:
        raise InputError("alternative variant needs the raw-process critic features")
    per_episode = variant is AcVariant.SEMI_TRAJECTORY
    risk_neutral = controller.risk_neutral
    gamma = risk.gamma
    theta = np.asarray(iterate0.theta, dtype=float).copy()
    nu = float(iterate0.nu)
    lam = float(iterate0.lam)
    v = np.asarray(iterate0.v, dtype=float).copy()
    u = None
    if alternative:
        u0 = iterate0.u if iterate0.u is not None else np.zeros(original_critic_features.dim)
        u = np.asarray(u0, dtype=float).copy()
    k_global = 1
    # a policy map on the critic's grid reads a decision state's RBF row from
    # the critic features the loop holds for that state
    same_grid = getattr(policy_features, "same_grid", None)
    shared = same_grid is not None and same_grid(critic_features)

    def episode(learn: bool) -> tuple[float, int, float]:
        """Run one episode, stepping the critics and, if ``learn``, theta, nu and lambda.

        Returns the discounted loss, the number of interior steps and the
        terminal budget.
        """
        nonlocal theta, nu, lam, v, u, k_global
        # the incremental variants move nu and lambda at every step
        step_multipliers = learn and not per_episode and not risk_neutral
        # one env at the episode's lambda is exact: STANDARD mode reads lambda
        # only in the terminal penalty, and lambda moves only after the
        # terminal step's cost is read (SPSA) or between episodes (SEMI);
        # ZEROED mode does not read lambda
        aug = AugmentedEnv(env, lam, risk, mode, 0.0 if risk_neutral else nu)
        state = aug.initial_state()
        d_loss = 0.0
        disc = 1.0
        interior_steps = 0
        # critic features of the state, carried over from the step before;
        # only the first and the terminal state build their own
        phi = f = None
        while True:
            phi = critic_features(state) if phi is None else phi
            glp = None
            action = 0
            if aug.n_actions(state) > 1:
                feats = (policy_features.per_action(state, phi) if shared
                         else policy_features.per_action(state))
                probs = action_probabilities(theta, feats)
                action = sample_action(probs, rng.random())
                if learn:
                    glp = grad_log_prob(feats, probs, action)
            next_state, cost_bar, env_cost, done = aug.step_full(state, action, rng)

            phi_next = None
            if done:
                v_phi_next = 0.0
            elif next_state.at_terminal:
                # the terminal state's value is its one-shot penalty in closed
                # form; bootstrapping from it, not from the critic, keeps the
                # penalty exact in the last interior TD target
                v_phi_next = aug.terminal_cost(next_state.s)
            else:
                phi_next = critic_features(next_state)
                v_phi_next = float(v @ phi_next)
            # per-step updates decay with the global step count in every
            # variant; indexing them by episode would give each step of
            # the first episode the full schedule coefficient
            v_new, delta = td_step(v, phi, cost_bar, v_phi_next, zeta4(k_global), gamma)

            eps, f_next = 0.0, None
            if alternative and not done:
                f = original_critic_features(state.env_state) if f is None else f
                # the raw process ends where the augmented one reaches its terminal state
                if not next_state.at_terminal:
                    f_next = original_critic_features(next_state.env_state)
                u_next = 0.0 if f_next is None else float(u @ f_next)
                u, eps = td_step(u, f, env_cost, u_next, zeta4(k_global), gamma)

            nu_old, lam_old = nu, lam

            if step_multipliers:
                dk = perturbation(k_global)
                phi_plus, phi_minus = critic_features.at_initial((nu_old + dk, nu_old - dk))
                g = spsa_nu_gradient(
                    lam_old,
                    v,
                    phi_plus,
                    phi_minus,
                    dk,
                    alpha=risk.alpha,
                    alternative=alternative,
                )
                nu = spsa_nu_update(nu_old, g, zeta3(k_global), nu_box)

            if glp is not None:
                if alternative:
                    signal = eps + (lam_old / (1.0 - risk.alpha)) * delta
                else:
                    # delta weighs a unit of loss beyond nu 1 + lambda/(1-alpha);
                    # dividing that out keeps the actor's step from growing
                    # with the multiplier, which moves on the slowest timescale
                    signal = delta / (1.0 + lam_old / (1.0 - risk.alpha))
                theta = ac_theta_update(theta, glp, signal, zeta2(k_global), gamma, theta_box)

            if step_multipliers:
                if alternative:
                    # reads the pre-step critic, as the TD step did
                    lam = ac_lambda_update_alternative(
                        lam_old, nu_old, risk, float(v @ phi), zeta1(k_global), controller.lam_box
                    )
                elif done:
                    # the incremental step fires only at the terminal state
                    lam = ac_lambda_update_incremental(
                        lam_old, nu_old, risk, disc, state.s, zeta1(k_global), controller.lam_box,
                    )

            v = v_new
            k_global += 1
            if done:
                return d_loss, interior_steps, state.s
            d_loss += disc * env_cost
            disc *= gamma
            interior_steps += 1
            state, phi, f = next_state, phi_next, f_next
            if interior_steps > horizon_cap:
                raise InputError("episode exceeded horizon cap")

    for _ in range(critic_warmup_episodes):
        episode(learn=False)

    def step(i: int) -> tuple[Iterate, dict]:
        nonlocal nu, lam, k_global
        if i == 1:
            k_global = 1
        d_loss, interior_steps, s_terminal = episode(learn=True)
        if per_episode and not risk_neutral:
            nu, lam = semi_trajectory_updates(
                nu, lam, s_terminal, interior_steps, risk,
                semi_nu(i), zeta1(i), nu_box, controller.lam_box,
            )
        return Iterate(theta, nu, lam, v, u), {"mean_batch_loss": d_loss,
                                               "episode_steps": interior_steps,
                                               "v_norm": float(np.linalg.norm(v))}

    return controller.run(step, Iterate(theta, nu, lam, v, u), tuning_episodes, episode_cap)
