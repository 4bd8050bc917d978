import numpy as np
import pytest

from cvarpg.errors import InputError
from cvarpg.pg import GradientEstimate, estimate_batch_gradients, pg_iteration, pg_train
from cvarpg.risk import RiskSpec
from cvarpg.schedules import Box, CapController, Iterate, StepSchedule
from cvarpg.seeding import substream
from oracles import (
    FiniteMDP, TabularPolicyFeatures, enumerate_trajectories, enumerated_gradients,
    enumerated_objective, estimate_from_trajectories, rollout,
)

RISK_HALF = RiskSpec(0.5, 1.9, 100.0, 0.9)


def test_gradient_formulas_by_hand():
    losses = np.array([0.0, 1.0, 2.0, 3.0])
    scores = np.zeros((4, 2))
    g = estimate_batch_gradients(losses, scores, nu=1.5, lam=2.0, risk=RISK_HALF)
    assert g.g_nu == pytest.approx(0.0)  # 2 - (2/2) * (2/4 * 4) / 2

    g2 = estimate_batch_gradients(np.array([2.0]), np.zeros((1, 2)), nu=1.0, lam=1.0,
                                  risk=RISK_HALF)
    assert g2.g_lambda == pytest.approx(1.1)


def test_lambda_zero_reduces_to_reinforce():
    rng = np.random.default_rng(0)
    losses = rng.uniform(0, 3, 16)
    scores = rng.normal(0, 1, (16, 3))
    g = estimate_batch_gradients(losses, scores, nu=1.0, lam=0.0, risk=RISK_HALF)
    assert g.g_nu == 0.0
    assert g.g_theta == pytest.approx(scores.T @ losses / 16)


def test_empty_batch_rejected():
    with pytest.raises(InputError):
        estimate_batch_gradients(np.array([]), np.zeros((0, 2)), 0.0, 1.0, RISK_HALF)


def test_iteration_projections():
    schedules = (StepSchedule(0.1, 1.0), StepSchedule(0.05, 0.8), StepSchedule(0.01, 0.55))
    boxes = (Box(0.0, 5.0), Box(-1.0, 1.0), Box(-10.0, 10.0))
    it = Iterate(np.array([0.5]), nu=1.0, lam=5.0)

    zero = GradientEstimate(np.zeros(1), 0.0, 0.0)
    unchanged = pg_iteration(it, zero, 1, schedules, boxes)
    assert unchanged.theta == pytest.approx(it.theta)
    assert unchanged.nu == it.nu and unchanged.lam == it.lam

    push_up = GradientEstimate(np.zeros(1), 0.0, 10.0)  # ascent at the cap
    capped = pg_iteration(it, push_up, 1, schedules, boxes)
    assert capped.lam == 5.0


def test_risk_neutral_iteration_is_plain_reinforce():
    schedules = (StepSchedule(0.1, 1.0), StepSchedule(0.05, 0.8), StepSchedule(0.01, 0.55))
    boxes = (Box(0.0, 5.0), Box(-60.0, 60.0), Box(-10.0, 10.0))
    rng = np.random.default_rng(1)
    losses = rng.uniform(0, 3, 8)
    scores = rng.normal(0, 1, (8, 2))
    it = Iterate(rng.normal(0, 1, 2), nu=0.7, lam=0.0)
    g = estimate_batch_gradients(losses, scores, it.nu, it.lam, RISK_HALF)
    out = pg_iteration(it, g, 3, schedules, boxes, risk_neutral=True)
    manual = it.theta - schedules[1](3) * (scores.T @ losses / 8)
    assert np.array_equal(out.theta, np.clip(manual, -60, 60))
    assert out.nu == it.nu and out.lam == it.lam


def _sequential_sampler(env, fmap, seed, n, gamma, horizon=50):
    def sampler(theta, round_idx, iter_idx):
        losses = np.empty(n)
        scores = np.empty((n, fmap.dim))
        for j in range(n):
            t = rollout(env, fmap, theta, substream(seed, "pg", round_idx, iter_idx, j),
                        horizon, gamma)
            losses[j] = t.loss
            scores[j] = t.score
        return losses, scores

    return sampler


def test_estimator_expectation_matches_closed_forms(diamond, diamond_features):
    rng = np.random.default_rng(5)
    theta = rng.normal(0, 0.8, diamond_features.dim)
    trajs = enumerate_trajectories(diamond, diamond_features, theta, 0.5, 20)
    assert len(trajs) <= 100
    nu, lam, risk = 1.3, 1.7, RiskSpec(0.6, 2.0, 100.0, 0.5)
    expected_theta, expected_nu, expected_lambda = enumerated_gradients(
        trajs, nu, lam, risk.alpha, risk.beta
    )
    g_theta = np.zeros(diamond_features.dim)
    g_nu = 0.0
    g_lambda = 0.0
    for p, t in trajs:
        g = estimate_from_trajectories([t], nu, lam, risk)
        g_theta += p * g.g_theta
        g_nu += p * g.g_nu
        g_lambda += p * g.g_lambda
    assert np.max(np.abs(g_theta - expected_theta)) < 1e-10
    assert abs(g_nu - expected_nu) < 1e-10
    assert abs(g_lambda - expected_lambda) < 1e-10


def test_enumerated_gradient_matches_finite_differences(diamond, diamond_features):
    rng = np.random.default_rng(6)
    theta = rng.normal(0, 0.5, diamond_features.dim)
    nu, lam, alpha, beta = 1.3, 1.2, 0.6, 2.0  # nu off the loss atoms
    h = 1e-5

    def objective(th):
        trajs = enumerate_trajectories(diamond, diamond_features, th, 0.5, 20)
        return enumerated_objective(trajs, nu, lam, alpha, beta)

    trajs = enumerate_trajectories(diamond, diamond_features, theta, 0.5, 20)
    g_theta, _, g_lambda = enumerated_gradients(trajs, nu, lam, alpha, beta)
    for i in range(diamond_features.dim):
        e = np.zeros(diamond_features.dim)
        e[i] = h
        fd = (objective(theta + e) - objective(theta - e)) / (2 * h)
        assert fd == pytest.approx(g_theta[i], rel=1e-5, abs=1e-8)
    # the objective is linear in the multiplier, so one diff is exact
    lam_fd = (
        enumerated_objective(trajs, nu, lam + 0.25, alpha, beta)
        - enumerated_objective(trajs, nu, lam - 0.25, alpha, beta)
    ) / 0.5
    assert lam_fd == pytest.approx(g_lambda, abs=1e-10)


def test_quantile_gradient_within_subdifferential_at_atoms(diamond, diamond_features):
    rng = np.random.default_rng(7)
    theta = rng.normal(0, 0.5, diamond_features.dim)
    trajs = enumerate_trajectories(diamond, diamond_features, theta, 0.5, 20)
    lam, alpha = 1.4, 0.6
    losses = sorted({t.loss for _, t in trajs})
    for nu in losses:  # every atom
        p_above = sum(p for p, t in trajs if t.loss > nu)
        p_at = sum(p for p, t in trajs if t.loss == nu)
        lo = lam - lam / (1.0 - alpha) * (p_above + p_at)  # tie weight 1
        hi = lam - lam / (1.0 - alpha) * p_above           # tie weight 0
        _, g_nu, _ = enumerated_gradients(trajs, nu, lam, alpha, 2.0)
        assert lo - 1e-12 <= g_nu <= hi + 1e-12
        assert g_nu == pytest.approx(lo, abs=1e-12)  # convention matches tie weight 1


def test_monte_carlo_consistency_rate(diamond, diamond_features):
    # standard error of batch estimates roughly halves when N quadruples
    rng = np.random.default_rng(8)
    theta = rng.normal(0, 0.5, diamond_features.dim)
    nu, lam, risk = 1.3, 1.7, RiskSpec(0.6, 2.0, 100.0, 0.5)

    def batch_stats(n, tag, repeats=48):
        vals = np.empty(repeats)
        for r in range(repeats):
            losses = np.empty(n)
            scores = np.empty((n, diamond_features.dim))
            for j in range(n):
                t = rollout(diamond, diamond_features, theta,
                            substream(100 + r, tag, j), 20, 0.5)
                losses[j] = t.loss
                scores[j] = t.score
            g = estimate_batch_gradients(losses, scores, nu, lam, risk)
            vals[r] = g.g_lambda
        return vals.std(ddof=1)

    se_small = batch_stats(25, "a")
    se_big = batch_stats(100, "b")
    ratio = se_small / se_big
    assert 2.0 / 1.5 <= ratio <= 2.0 * 1.5


def test_train_lambda_decays_when_constraint_is_slack():
    # two-action bandit with bounded losses and a generous tolerance
    env = FiniteMDP(
        {0: [[(1.0, 1)], [(1.0, 1)]]},
        {(0, 0): 1.0, (0, 1): 2.0},
        terminal={1},
    )
    fmap = TabularPolicyFeatures(2, 2)
    risk = RiskSpec(0.8, 5.0, 64.0, 0.9)
    schedules = (StepSchedule(0.1, 1.0), StepSchedule(0.05, 0.8), StepSchedule(0.01, 0.55))
    sampler = _sequential_sampler(env, fmap, 3, 24, 0.9)
    result = pg_train(
        sampler,
        Iterate(np.zeros(fmap.dim), nu=2.0, lam=1.0),
        risk,
        schedules,
        Box(-60.0, 60.0),
        Box(-10.0, 10.0),
        tuning_iterations=150,
        iteration_cap=150,
        controller=CapController(risk.lambda_max, window=30),
    )
    lams = [rec["lambda"] for rec in result.history]
    assert lams[-1] < 0.25  # driven toward zero by the slack constraint
    assert lams[-1] < lams[0]
    assert all(b <= a + 1e-12 for a, b in zip(lams, lams[1:]))  # monotone descent


def test_train_doubles_cap_when_multiplier_pins():
    env = FiniteMDP(
        {0: [[(1.0, 1)], [(1.0, 1)]]},
        {(0, 0): 1.0, (0, 1): 2.0},
        terminal={1},
    )
    fmap = TabularPolicyFeatures(2, 2)
    # infeasible tolerance: every loss exceeds beta, so lambda climbs
    risk = RiskSpec(0.8, -10.0, 2.0, 0.9)
    schedules = (StepSchedule(0.5, 1.0), StepSchedule(0.05, 0.8), StepSchedule(0.01, 0.55))
    sampler = _sequential_sampler(env, fmap, 4, 16, 0.9)
    result = pg_train(
        sampler,
        Iterate(np.zeros(fmap.dim), nu=2.0, lam=1.0),
        risk,
        schedules,
        Box(-60.0, 60.0),
        Box(-10.0, 10.0),
        tuning_iterations=400,
        iteration_cap=400,
        controller=CapController(risk.lambda_max, window=20),
    )
    assert result.doublings >= 1
    assert result.lambda_max > risk.lambda_max


def test_train_iterates_stay_inside_projection_sets(diamond, diamond_features):
    risk = RiskSpec(0.6, 2.0, 3.0, 0.5)
    schedules = (StepSchedule(0.5, 1.0), StepSchedule(0.3, 0.8), StepSchedule(0.2, 0.55))
    sampler = _sequential_sampler(diamond, diamond_features, 9, 16, 0.5, horizon=20)
    nu_box = Box(0.5, 2.5)
    result = pg_train(
        sampler,
        Iterate(np.zeros(diamond_features.dim), nu=1.0, lam=1.0),
        risk,
        schedules,
        Box(-0.4, 0.4),
        nu_box,
        tuning_iterations=60,
        iteration_cap=60,
        controller=CapController(risk.lambda_max, window=20),
    )
    for rec in result.history:
        assert 0.5 - 1e-12 <= rec["nu"] <= 2.5 + 1e-12
        assert 0.0 <= rec["lambda"] <= result.lambda_max + 1e-12
    assert np.all(np.abs(result.iterate.theta) <= 0.4 + 1e-12)
