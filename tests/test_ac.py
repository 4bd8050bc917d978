from collections import Counter

import numpy as np
import pytest

from cvarpg import ac, harness
from cvarpg.ac import (
    AcVariant,
    ac_lambda_update_alternative,
    ac_lambda_update_incremental,
    ac_theta_update,
    ac_train,
    semi_trajectory_updates,
    spsa_nu_gradient,
    spsa_nu_update,
)
from cvarpg.config import config_from_mapping, parse_config_text
from cvarpg.errors import InputError
from cvarpg.features import RbfGrid
from cvarpg.mdp import AugmentedCostMode, AugmentedEnv
from cvarpg.optstop import OptStopCriticFeatures, OptStopPolicyFeatures
from cvarpg.risk import EmpiricalDistribution, RiskSpec, cvar, value_at_risk
from cvarpg.schedules import (
    Box,
    CapController,
    Decision,
    Iterate,
    PerturbationSchedule,
    StepSchedule,
    lambda_max_controller,
)
from cvarpg.seeding import substream
from oracles import (
    ChainFeatures, FiniteMDP, TabularPolicyFeatures, build_chain, enumerate_trajectories,
    make_diamond_mdp, occupation_measure, value_iteration,
)

GAMMA = 0.5
AC_STACK = (
    StepSchedule(1.0, 1.0),
    StepSchedule(1.0, 0.85),
    StepSchedule(0.5, 0.7),
    StepSchedule(0.5, 0.55),
)
DELTA = PerturbationSchedule(0.5, 0.1)


def test_spsa_gradient_hand_cases():
    v = np.array([1.0])
    assert spsa_nu_gradient(1.0, v, np.array([2.0]), np.array([1.0]), 0.5) == pytest.approx(2.0)
    assert spsa_nu_gradient(1.3, np.zeros(1), np.array([2.0]), np.array([1.0]), 0.5) == 0.0 + 1.3
    sym = np.array([0.7])
    assert spsa_nu_gradient(2.0, v, sym, sym, 0.25) == pytest.approx(2.0)
    with pytest.raises(InputError):
        spsa_nu_gradient(1.0, v, sym, sym, 0.0)


def test_spsa_gradient_alternative_form():
    v = np.array([1.0])
    got = spsa_nu_gradient(2.0, v, np.array([2.0]), np.array([1.0]), 0.5,
                           alpha=0.5, alternative=True)
    assert got == pytest.approx(2.0 * (1.0 + 1.0 / (2.0 * 0.5 * 0.5)))


def test_spsa_nu_update_projects():
    box = Box(0.0, 3.0)
    assert spsa_nu_update(1.0, gradient=2.0, step=0.25, nu_box=box) == 0.5
    assert spsa_nu_update(0.1, gradient=5.0, step=1.0, nu_box=box) == 0.0


def test_theta_update_scale_and_projection():
    box = Box(-1.0, 1.0)
    theta = np.array([0.0, 0.0])
    glp = np.array([0.5, -0.5])
    gamma = 0.95
    out = ac_theta_update(theta, glp, signal=-0.1, step=1.0 - gamma, gamma=gamma, theta_box=box)
    assert out == pytest.approx([0.05, -0.05])
    same = ac_theta_update(theta, glp, signal=0.0, step=0.3, gamma=gamma, theta_box=box)
    assert np.array_equal(same, theta)
    pinned = ac_theta_update(np.array([0.99, 0.0]), np.array([-1.0, 0.0]), signal=1.0,
                             step=1.0 - gamma, gamma=gamma, theta_box=box)
    assert pinned[0] == 1.0


def test_lambda_update_incremental_cases():
    risk = RiskSpec(0.9, 1.9, 100.0, 0.95)
    box = Box(0.0, 100.0)
    # the update is the terminal state's whole per-episode step
    # (see test_spsa_lambda_drift_is_lagrangian_gradient)
    gamma_pow = 0.95**4
    risk_eq = RiskSpec(0.9, 1.9, 100.0, 0.95)
    terminal = ac_lambda_update_incremental(1.0, 1.9, risk_eq, gamma_pow, s=-1.0,
                                            step=0.1, lam_box=box)
    assert terminal == pytest.approx(1.0 + 0.1 * gamma_pow * 10.0)
    slack = ac_lambda_update_incremental(1.0, 1.9, risk_eq, gamma_pow, s=0.5,
                                         step=0.1, lam_box=box)
    assert slack == pytest.approx(1.0)


def test_lambda_update_alternative_form():
    risk = RiskSpec(0.5, 2.0, 100.0, 0.9)
    box = Box(0.0, 100.0)
    out = ac_lambda_update_alternative(1.0, 1.5, risk, v_dot_phi=0.3, step=0.2, lam_box=box)
    assert out == pytest.approx(1.0 + 0.2 * (1.5 - 2.0 + 0.6))


def test_semi_trajectory_updates_cases():
    risk = RiskSpec(0.5, 2.0, 100.0, 0.9)
    nu_box, lam_box = Box(-10.0, 10.0), Box(0.0, 100.0)
    nu, lam = semi_trajectory_updates(1.0, 1.0, s_terminal=-0.2, n_steps=3, risk=risk,
                                      step_nu=0.1, step_lam=0.0 + 0.05,
                                      nu_box=nu_box, lam_box=lam_box)
    assert nu == pytest.approx(1.0 - 0.1 * (1.0 - 2.0))  # gradient is -1
    expected_lam = 1.0 + 0.05 * (1.0 - 2.0 + 0.9**3 * 0.2 / 0.5)
    assert lam == pytest.approx(expected_lam)

    nu2, _ = semi_trajectory_updates(1.0, 1.0, s_terminal=0.4, n_steps=2, risk=risk,
                                     step_nu=0.1, step_lam=0.05,
                                     nu_box=nu_box, lam_box=lam_box)
    assert nu2 == pytest.approx(1.0 - 0.1 * 1.0)  # indicator zero, gradient is lambda

    nu3, _ = semi_trajectory_updates(1.0, 0.0, s_terminal=-0.2, n_steps=2, risk=risk,
                                     step_nu=0.1, step_lam=0.05,
                                     nu_box=nu_box, lam_box=lam_box)
    assert nu3 == 1.0  # lambda zero freezes the quantile


def _augmented_diamond(lam, alpha, nu, theta):
    env = make_diamond_mdp()
    fmap = TabularPolicyFeatures(4, 2)
    risk = RiskSpec(alpha, 2.0, 100.0, GAMMA)
    aug = AugmentedEnv(env, lam, risk, AugmentedCostMode.STANDARD, s0=nu)
    return env, fmap, risk, aug


def test_semi_quantile_estimator_unbiased_by_enumeration():
    rng = np.random.default_rng(11)
    theta = rng.normal(0, 0.6, 8)
    lam, alpha, nu = 1.7, 0.6, 1.3  # nu off the 0.25-spaced loss atoms
    env, fmap, risk, aug = _augmented_diamond(lam, alpha, nu, theta)
    aug_trajs = enumerate_trajectories(aug, fmap, theta, GAMMA, 30)
    lhs = 0.0
    for p, t in aug_trajs:
        s_terminal = t.states[-2].s  # the state fed into the penalty step
        ind = 1.0 if s_terminal <= 0.0 else 0.0
        lhs += p * (lam - lam / (1.0 - alpha) * ind)
    raw_trajs = enumerate_trajectories(env, fmap, theta, GAMMA, 30)
    p_tail = sum(p for p, t in raw_trajs if t.loss >= nu)
    rhs = lam * (1.0 - p_tail / (1.0 - alpha))
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_multiplier_estimator_unbiased_under_occupation_measure():
    rng = np.random.default_rng(13)
    theta = rng.normal(0, 0.6, 8)
    lam, alpha, nu, beta = 1.2, 0.6, 1.3, 2.0
    env, fmap, risk, aug = _augmented_diamond(lam, alpha, nu, theta)
    chain = build_chain(aug, fmap, theta, [nu])
    d = occupation_measure(chain, GAMMA, chain.start_index[0])
    est = nu - beta  # the nu - beta part has total mass one, sink included
    for i, state in enumerate(chain.states):
        if state.at_terminal:
            est += d[i] * max(-state.s, 0.0) / ((1.0 - GAMMA) * (1.0 - alpha))
    raw_trajs = enumerate_trajectories(env, fmap, theta, GAMMA, 30)
    excess = sum(p * max(t.loss - nu, 0.0) for p, t in raw_trajs)
    grad = nu - beta + excess / (1.0 - alpha)
    assert est == pytest.approx(grad, abs=1e-10)


@pytest.mark.parametrize("violated", [True, False])
def test_spsa_lambda_drift_is_lagrangian_gradient(violated):
    # expected per-episode multiplier drift of the fully incremental loop,
    # which calls the update at the terminal state of an on-policy episode,
    # must equal step * (nu - beta + E[(D - nu)^+] / (1 - alpha)), so that
    # lambda rises exactly when the constraint at the current quantile is
    # violated
    rng = np.random.default_rng(19)
    theta = rng.normal(0, 0.6, 8)
    lam, alpha, step = 1.0, 0.6, 0.01
    raw_trajs = enumerate_trajectories(make_diamond_mdp(), TabularPolicyFeatures(4, 2),
                                       theta, GAMMA, 30)
    dist = EmpiricalDistribution([t.loss for _, t in raw_trajs], [p for p, _ in raw_trajs])
    cvar_alpha = cvar(dist, alpha)
    # at the floor nu = 0 the old per-state weighting drifted down under a
    # violated constraint; at nu = VaR the surrogate equals CVaR
    nu = 0.0 if violated else value_at_risk(dist, alpha)
    beta = cvar_alpha - 0.25 if violated else cvar_alpha + 1.0
    _, fmap, _, aug = _augmented_diamond(lam, alpha, nu, theta)
    risk = RiskSpec(alpha, beta, 100.0, GAMMA)
    box = Box(0.0, 100.0)
    drift = 0.0
    for p, t in enumerate_trajectories(aug, fmap, theta, GAMMA, 30):
        depth, state = len(t.states) - 2, t.states[-2]  # the state before the sink
        assert state.at_terminal
        new = ac_lambda_update_incremental(lam, nu, risk, GAMMA**depth, state.s, step, box)
        drift += p * (new - lam)
    gradient = nu - beta + sum(p * max(t.loss - nu, 0.0) for p, t in raw_trajs) / (1.0 - alpha)
    assert drift == pytest.approx(step * gradient, abs=1e-12)
    if violated:
        assert cvar_alpha > beta and drift > 0.0
    else:
        assert drift < 0.0


def test_spsa_estimate_approaches_exact_subgradient():
    rng = np.random.default_rng(17)
    theta = rng.normal(0, 0.6, 8)
    lam, alpha = 1.5, 0.6
    env, fmap, risk, aug = _augmented_diamond(lam, alpha, 0.0, theta)
    raw_trajs = enumerate_trajectories(env, fmap, theta, GAMMA, 30)
    atoms = np.array(sorted({t.loss for _, t in raw_trajs}))
    gaps = np.diff(atoms)
    mid = int(np.argmax(gaps))
    nu = float(atoms[mid] + gaps[mid] / 2.0)  # midpoint of the widest gap
    deltas = [0.5, 0.25, 0.125, gaps[mid] / 4.0]
    budgets = [nu] + [nu + d for d in deltas] + [nu - d for d in deltas]
    chain = build_chain(aug, fmap, theta, budgets)
    V = value_iteration(chain, GAMMA, tol=1e-13)
    features = ChainFeatures(chain, env.initial_state())

    def objective(s0):
        excess = sum(p * max(t.loss - s0, 0.0) for p, t in raw_trajs)
        mean = sum(p * t.loss for p, t in raw_trajs)
        return mean + lam / (1.0 - alpha) * excess

    p_tail = sum(p for p, t in raw_trajs if t.loss >= nu)
    true_subgradient = lam * (1.0 - p_tail / (1.0 - alpha))
    errors = []
    for delta in deltas:
        est = spsa_nu_gradient(lam, V, features.at_initial(nu + delta),
                               features.at_initial(nu - delta), delta)
        central = lam + (objective(nu + delta) - objective(nu - delta)) / (2 * delta)
        assert est == pytest.approx(central, abs=1e-9)
        errors.append(abs(est - true_subgradient))
    assert errors[0] >= errors[-1] - 1e-12
    # once the window is clear of atoms the difference quotient is exact
    assert errors[-1] < 1e-9


def _run_ac(variant, episodes=12, freeze=False, theta_seed=3, nu0=1.5, lam0=1.0,
            semi_nu_schedule=None, warmup=0, risk=None, window=10**6, rng=None,
            start=None):
    env = make_diamond_mdp()
    fmap = TabularPolicyFeatures(4, 2)
    risk = risk if risk is not None else RiskSpec(0.6, 2.0, 50.0, GAMMA)
    cfeats_chain = build_chain(
        AugmentedEnv(env, lam0, risk, AugmentedCostMode.STANDARD, s0=nu0),
        fmap, np.zeros(fmap.dim), np.linspace(-6.0, 6.0, 25), max_states=5000,
    )
    cfeats = ChainFeatures(cfeats_chain, env.initial_state())
    raw = _RawCritic(4)
    return ac_train(
        env,
        fmap,
        cfeats,
        start if start is not None
        else Iterate(np.zeros(fmap.dim), nu0, lam0, np.zeros(cfeats.dim)),
        risk,
        AC_STACK,
        DELTA,
        Box(-2.0, 2.0),
        Box(0.0, 6.0),
        rng if rng is not None else substream(theta_seed, "ac"),
        variant,
        tuning_episodes=episodes,
        episode_cap=episodes,
        # the default window keeps the run from stopping early
        controller=CapController(risk.lambda_max, window=window, risk_neutral=freeze),
        horizon_cap=50,
        original_critic_features=raw,
        semi_nu_schedule=semi_nu_schedule,
        critic_warmup_episodes=warmup,
    )


class _RawCritic:
    def __init__(self, n_states):
        self.dim = n_states

    def __call__(self, state):
        out = np.zeros(self.dim)
        if state is not None:
            out[state] = 1.0
        return out


@pytest.mark.parametrize("variant", list(AcVariant))
def test_variants_respect_projection_sets(variant):
    result = _run_ac(variant, episodes=15)
    for rec in result.history:
        assert 0.0 - 1e-12 <= rec["nu"] <= 6.0 + 1e-12
        assert 0.0 <= rec["lambda"] <= result.lambda_max + 1e-12
    assert np.all(np.abs(result.iterate.theta) <= 2.0 + 1e-12)
    assert np.all(np.isfinite(result.iterate.v))
    if variant is AcVariant.ALTERNATIVE_TWO_CRITIC:
        assert result.iterate.u is not None
        assert np.all(np.isfinite(result.iterate.u))


def test_semi_trajectory_updates_quantile_once_per_episode():
    # deterministic one-step environment makes the per-episode updates
    # reproducible in closed form
    env = FiniteMDP({0: [[(1.0, 1)]]}, {(0, 0): 2.0}, terminal={1})
    fmap = TabularPolicyFeatures(2, 1)

    class OneActionFeatures(TabularPolicyFeatures):
        pass

    risk = RiskSpec(0.5, 1.0, 50.0, GAMMA)
    chain = build_chain(
        AugmentedEnv(env, 1.0, risk, AugmentedCostMode.STANDARD, s0=1.0),
        OneActionFeatures(2, 1), np.zeros(2), np.linspace(-8.0, 8.0, 33),
        max_states=5000,
    )
    cfeats = ChainFeatures(chain, 0)
    episodes = 4
    result = ac_train(
        env,
        OneActionFeatures(2, 1),
        cfeats,
        Iterate(np.zeros(2), 1.0, 1.0, np.zeros(cfeats.dim)),
        risk,
        AC_STACK,
        DELTA,
        Box(-2.0, 2.0),
        Box(-10.0, 10.0),
        substream(0, "semi"),
        AcVariant.SEMI_TRAJECTORY,
        tuning_episodes=episodes,
        episode_cap=episodes,
        controller=CapController(risk.lambda_max, window=10**6),
        horizon_cap=10,
    )
    # replicate the per-episode recursions: D = 2 always, s0 = nu
    zeta1, zeta2 = AC_STACK[0], AC_STACK[1]
    nu, lam = 1.0, 1.0
    expected = []
    for i in range(1, episodes + 1):
        s_terminal = (nu - 2.0) / GAMMA
        ind = 1.0 if s_terminal <= 0.0 else 0.0
        g_nu = lam - lam / (1.0 - risk.alpha) * ind
        new_nu = float(np.clip(nu - zeta2(i) * g_nu, -10.0, 10.0))
        excess = GAMMA * max(-s_terminal, 0.0) / (1.0 - risk.alpha)  # one step, gamma^1
        new_lam = float(np.clip(lam + zeta1(i) * (nu - risk.beta + excess), 0.0, 50.0))
        nu, lam = new_nu, new_lam
        expected.append((nu, lam))
    got = [(rec["nu"], rec["lambda"]) for rec in result.history]
    assert got == pytest.approx(expected)


def test_risk_neutral_reduction_is_bit_exact():
    frozen = _run_ac(AcVariant.SPSA_INCREMENTAL, episodes=10, freeze=True,
                     nu0=0.0, lam0=0.0)
    again = _run_ac(AcVariant.SPSA_INCREMENTAL, episodes=10, freeze=True,
                    nu0=0.0, lam0=0.0)
    assert np.array_equal(frozen.iterate.theta, again.iterate.theta)
    for a, b in zip(frozen.history, again.history):
        assert a == b
    # frozen multiplier and quantile never move
    assert all(rec["lambda"] == 0.0 for rec in frozen.history)
    assert all(rec["nu"] == 0.0 for rec in frozen.history)


def test_alternative_variant_requires_second_critic():
    env = make_diamond_mdp()
    fmap = TabularPolicyFeatures(4, 2)
    risk = RiskSpec(0.6, 2.0, 50.0, GAMMA)
    with pytest.raises(InputError):
        ac_train(
            env, fmap, _RawCritic(4),
            Iterate(np.zeros(fmap.dim), 1.0, 1.0, np.zeros(4)),
            risk, AC_STACK, DELTA, Box(-2.0, 2.0), Box(0.0, 6.0),
            substream(0, "alt"), AcVariant.ALTERNATIVE_TWO_CRITIC,
            tuning_episodes=2, episode_cap=2, controller=CapController(risk.lambda_max),
        )


def test_critic_warmup_changes_initial_weights_only():
    cold = _run_ac(AcVariant.SPSA_INCREMENTAL, episodes=5, warmup=0)
    warm = _run_ac(AcVariant.SPSA_INCREMENTAL, episodes=5, warmup=20)
    # warmup consumes its own random draws, so the runs differ, but both
    # stay finite and inside their boxes; the warm critic must be nonzero
    assert np.all(np.isfinite(warm.iterate.v))
    assert np.linalg.norm(warm.iterate.v) > 0.0
    assert len(cold.history) == len(warm.history)


@pytest.mark.parametrize(
    "variant", [AcVariant.SPSA_INCREMENTAL, AcVariant.ALTERNATIVE_TWO_CRITIC]
)
def test_critic_warmup_is_a_frozen_prefix_of_the_run(variant):
    # a warmup-only run moves nothing but the critics and records nothing
    rng = substream(5, "ac")
    head = _run_ac(variant, episodes=0, warmup=7, rng=rng)
    assert head.history == []
    assert np.array_equal(head.iterate.theta, np.zeros(8))
    assert (head.iterate.nu, head.iterate.lam) == (1.5, 1.0)
    assert np.linalg.norm(head.iterate.v) > 0.0
    # continuing from its critics and its random stream, with the step
    # count back at 1, reproduces the run with the warmup folded in
    tail = _run_ac(variant, episodes=9, rng=rng, start=head.iterate)
    whole = _run_ac(variant, episodes=9, warmup=7, rng=substream(5, "ac"))
    assert np.array_equal(whole.iterate.theta, tail.iterate.theta)
    assert (whole.iterate.nu, whole.iterate.lam) == (tail.iterate.nu, tail.iterate.lam)
    assert np.array_equal(whole.iterate.v, tail.iterate.v)
    if variant is AcVariant.ALTERNATIVE_TWO_CRITIC:
        assert np.array_equal(whole.iterate.u, tail.iterate.u)
    else:
        assert whole.iterate.u is None and tail.iterate.u is None
    assert len(whole.history) == 9
    assert whole.history == tail.history


@pytest.mark.parametrize("variant", list(AcVariant))
def test_train_doubles_cap_when_multiplier_pins(variant):
    # infeasible tolerance: every loss exceeds beta, so lambda climbs to its cap
    risk = RiskSpec(0.6, -10.0, 0.5, GAMMA)
    window, episodes = 5, 40
    result = _run_ac(variant, episodes=episodes, lam0=0.25, risk=risk, window=window)
    assert result.doublings >= 1
    assert result.lambda_max > risk.lambda_max
    lams = [rec["lambda"] for rec in result.history]
    assert max(lams) > risk.lambda_max  # the raised cap is the one enforced
    # replay the cap: a doubling fires when the trailing window pins to it
    cap, since_doubling, doubled_at = risk.lambda_max, [], []
    for n, lam in enumerate(lams, start=1):
        assert 0.0 <= lam <= cap
        since_doubling.append(lam)
        decision = lambda_max_controller(since_doubling, cap, window=window,
                                         params_converged=False)
        if decision is Decision.DOUBLE:
            cap, since_doubling = 2.0 * cap, []
            doubled_at.append(n)
    assert (cap, len(doubled_at)) == (result.lambda_max, result.doublings)
    # after a doubling the run goes on as a fresh run from its iterate under
    # the doubled cap: the schedule index restarts and the window is empty
    first = doubled_at[0]
    rng = substream(3, "ac")
    head = _run_ac(variant, episodes=first, lam0=0.25, risk=risk, window=window, rng=rng)
    assert (head.doublings, head.lambda_max) == (1, 2.0 * risk.lambda_max)
    tail = _run_ac(variant, episodes=episodes - first, lam0=0.25,
                   risk=RiskSpec(0.6, -10.0, head.lambda_max, GAMMA), window=window,
                   rng=rng, start=head.iterate)
    assert result.history[first:] == [
        {**rec, "iter": rec["iter"] + first} for rec in tail.history
    ]
    assert np.array_equal(result.iterate.theta, tail.iterate.theta)
    assert np.array_equal(result.iterate.v, tail.iterate.v)
    if variant is AcVariant.ALTERNATIVE_TWO_CRITIC:
        assert np.array_equal(result.iterate.u, tail.iterate.u)
    assert (result.lambda_max, result.doublings) == (tail.lambda_max, tail.doublings + 1)


def test_critic_features_built_once_per_state(monkeypatch):
    # interior successors carry their features over from the step before;
    # the raw critic has no terminal step
    calls = {ChainFeatures: 0, _RawCritic: 0}
    for cls in calls:
        def counted(self, state, cls=cls, method=cls.__call__):
            calls[cls] += 1
            return method(self, state)
        monkeypatch.setattr(cls, "__call__", counted)
    # frozen multipliers, so the quantile step reads no initial-state features
    result = _run_ac(AcVariant.ALTERNATIVE_TWO_CRITIC, episodes=12, freeze=True)
    steps = [rec["episode_steps"] for rec in result.history]
    assert max(steps) > 1
    assert calls == {ChainFeatures: sum(steps) + len(steps), _RawCritic: sum(steps)}


@pytest.mark.parametrize("variant", list(AcVariant))
def test_learner_steps_the_augmented_env(monkeypatch, variant):
    # every step of every episode, warmup included, is a step of the
    # AugmentedEnv the library tests certify, the terminal penalty step too
    done_flags = []

    def counted(self, state, action, rng, original=AugmentedEnv.step_full):
        out = original(self, state, action, rng)
        done_flags.append(out.done)
        return out

    monkeypatch.setattr(AugmentedEnv, "step_full", counted)
    warmup, episodes = 4, 12
    result = _run_ac(variant, episodes=episodes, warmup=warmup)
    ends = [i for i, done in enumerate(done_flags) if done]
    assert len(ends) == warmup + episodes and ends[-1] == len(done_flags) - 1
    learned = done_flags[ends[warmup - 1] + 1:]
    steps = [rec["episode_steps"] for rec in result.history]
    assert len(learned) == sum(steps) + episodes


def test_one_softmax_per_decision(monkeypatch):
    # the draw and the score of a decision share its probabilities; the
    # critic chain that _run_ac builds also featurizes each state once
    import oracles
    from cvarpg import ac, policy

    counts = {"softmax": 0, "decisions": 0}

    def counted_softmax(theta, feats, original=policy.action_probabilities):
        counts["softmax"] += 1
        return original(theta, feats)

    def counted_features(self, state, original=TabularPolicyFeatures.per_action):
        counts["decisions"] += 1
        return original(self, state)

    monkeypatch.setattr(policy, "action_probabilities", counted_softmax)
    monkeypatch.setattr(oracles, "action_probabilities", counted_softmax)
    monkeypatch.setattr(ac, "action_probabilities", counted_softmax, raising=False)
    monkeypatch.setattr(TabularPolicyFeatures, "per_action", counted_features)
    result = _run_ac(AcVariant.SPSA_INCREMENTAL, episodes=12)
    assert len(result.history) == 12
    assert counts["decisions"] >= 12
    assert counts["softmax"] == counts["decisions"]


def _certified_config(algorithm, **keys):
    """Criterion 6's certified instance, the benchmark's, with a short AC run."""
    keys = {"algorithm": algorithm, "env.p_h": 0.01, "env.f_d": 0.7, "env.p": 0.4,
            "risk.beta": 2.5, "ac.tuning_episodes": 20, "ac.episode_cap": 20,
            "ac.critic_warmup_episodes": 5, **keys}
    return config_from_mapping(parse_config_text("".join(f"{k} = {v}\n" for k, v in keys.items())))


@pytest.mark.parametrize("centers", [4, 3])
@pytest.mark.parametrize("algorithm", ["AC", "AC_CVAR_SPSA", "AC_CVAR_SEMI", "AC_CVAR_ALT"])
def test_one_grid_call_per_actor_critic_state(monkeypatch, algorithm, centers):
    # on one grid the policy reads a decision state's row from the critic's
    # features, the quantile step reads both perturbed budgets from one call,
    # and a budget-blind map builds a state's row on its first visit only;
    # on two grids the policy builds its own rows, one per_action a decision.
    # A budget-aware critic builds its rows from kept (c, k) distances, one
    # _exponents call a state or a quantile step, and calls no grid
    cfg = _certified_config(algorithm, **{"features.policy_centers": centers,
                                          "features.critic_centers": 4})
    calls, visits, on = Counter(), [], [False]

    def spy(name, method):
        def counted(self, *args, **kwargs):
            calls[name] += on[0]
            return method(self, *args, **kwargs)
        return counted

    def stepped(self, state, action, rng, original=AugmentedEnv.step_full):
        if on[0] and not state.at_terminal:
            visits.append((state.env_state.c, state.env_state.k))
        return original(self, state, action, rng)

    def trained(*args, **kwargs):  # counts inside the actor-critic loop only
        on[0] = True
        try:
            return ac.ac_train(*args, **kwargs)
        finally:
            on[0] = False

    monkeypatch.setattr(RbfGrid, "batch", spy("grid", RbfGrid.batch))
    monkeypatch.setattr(OptStopCriticFeatures, "_exponents",
                        spy("exponents", OptStopCriticFeatures._exponents))
    monkeypatch.setattr(OptStopPolicyFeatures, "per_action",
                        spy("per_action", OptStopPolicyFeatures.per_action))
    monkeypatch.setattr(OptStopCriticFeatures, "at_initial",
                        spy("at_initial", OptStopCriticFeatures.at_initial))
    monkeypatch.setattr(AugmentedEnv, "step_full", stepped)
    monkeypatch.setattr(harness, "ac_train", trained)
    result = harness.train_policy(cfg, 1)

    decisions = [x for x in visits if x[1] < cfg.env_T]
    assert calls["per_action"] == len(decisions) > 0
    # the quantile step runs at every step of a learning episode of the incremental variants
    incremental = algorithm in ("AC_CVAR_SPSA", "AC_CVAR_ALT")
    nu_steps = sum(rec["episode_steps"] + 1 for rec in result.history) if incremental else 0
    assert calls["at_initial"] == nu_steps
    aware = algorithm != "AC"
    critic = len(visits) if aware else len(set(visits))
    policy = 0 if centers == 4 else len(decisions) if aware else len(set(decisions))
    raw_critic = len(set(visits)) if algorithm == "AC_CVAR_ALT" else 0
    assert calls["grid"] + calls["exponents"] == critic + policy + raw_critic + nu_steps
    assert calls["exponents"] == (critic + nu_steps if aware else 0)
