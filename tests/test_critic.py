import numpy as np
import pytest

from cvarpg.ac import td_step
from cvarpg.errors import InputError
from cvarpg.mdp import AugmentedCostMode, AugmentedEnv
from cvarpg.risk import RiskSpec
from cvarpg.schedules import StepSchedule
from cvarpg.seeding import substream
from oracles import (
    ChainFeatures, LstdSystem, SolverError, TabularPolicyFeatures, Transition, accumulate_lstd,
    build_chain, enumerate_trajectories, exact_lstd_system, lstd_solve, make_diamond_mdp,
    occupation_measure, sample_occupation_transitions, value_iteration,
)

GAMMA = 0.5  # keeps every reachable budget value exactly representable


def _tr(phi, phi_next, cost):
    return Transition(np.asarray(phi, float), np.asarray(phi_next, float), cost)


def _td(v, tr, gamma, step=1.0):
    """The TD step on a transition, bootstrapping from the critic at phi_next."""
    return td_step(v, tr.phi, tr.cost, float(v @ tr.phi_next), step, gamma)


def test_td_step_delta_formula():
    v = np.array([2.0, 3.0])
    tr = _tr([0.0, 1.0], [1.0, 0.0], 1.0)
    assert _td(v, tr, 0.95)[1] == pytest.approx(-0.1, abs=1e-12)
    assert _td(np.zeros(2), tr, 0.95)[1] == 1.0


def test_td_step_rank_one():
    tr = _tr([1.0, 0.5], [0.0, 0.0], 1.0)
    v, _ = _td(np.zeros(2), tr, 0.9, step=0.1)
    assert v == pytest.approx([0.1, 0.05])
    v_fixed = np.array([4.0, 0.0])
    tr0 = _tr([1.0, 0.0], [1.0, 0.0], 0.4)  # delta = 0.4 + 0.9*4 - 4 = 0
    assert _td(v_fixed, tr0, 0.9, step=0.2)[0] == pytest.approx(v_fixed)
    with pytest.raises(InputError):
        _td(v_fixed, tr0, 0.9, step=0.0)


def test_td_step_zero_at_bellman_fixed_point():
    # two-state deterministic chain: V = (c0 + gamma*c1, c1)
    gamma = 0.8
    c0, c1 = 1.0, 2.0
    v = np.array([c0 + gamma * c1, c1])
    tr01 = _tr([1.0, 0.0], [0.0, 1.0], c0)
    tr1T = _tr([0.0, 1.0], [0.0, 0.0], c1)
    assert _td(v, tr01, gamma)[1] == pytest.approx(0.0, abs=1e-12)
    assert _td(v, tr1T, gamma)[1] == pytest.approx(0.0, abs=1e-12)


def test_accumulate_lstd_examples():
    sys0 = LstdSystem(1)
    accumulate_lstd(sys0, _tr([0.0], [0.0], 0.0), 0.5)
    assert np.all(sys0.a == 0.0) and np.all(sys0.b == 0.0)

    sys1 = LstdSystem(1)
    accumulate_lstd(sys1, _tr([1.0], [0.0], 2.0), 0.5)
    assert sys1.a.ravel() == pytest.approx([1.0])
    assert sys1.b == pytest.approx([2.0])
    assert lstd_solve(sys1) == pytest.approx([2.0])


def test_lstd_identity_system():
    sys_ = LstdSystem(3)
    b = np.array([1.0, -2.0, 0.5])
    for i in range(3):
        phi = np.zeros(3)
        phi[i] = 1.0
        accumulate_lstd(sys_, _tr(phi, np.zeros(3), b[i]), 0.9)
    assert lstd_solve(sys_) == pytest.approx(b)


def test_lstd_rejects_singular_systems():
    sys_ = LstdSystem(2)
    accumulate_lstd(sys_, _tr([1.0, 1.0], [0.0, 0.0], 1.0), 0.9)
    with pytest.raises(SolverError) as err:
        lstd_solve(sys_)
    assert err.value.condition is not None


def test_lstd_matches_backward_induction_on_chain():
    # tabular 3-state deterministic chain solved by hand
    gamma = 0.9
    costs = [1.0, 2.0, 4.0]
    v2 = costs[2]
    v1 = costs[1] + gamma * v2
    v0 = costs[0] + gamma * v1
    sys_ = LstdSystem(3)
    eye = np.eye(3)
    transitions = [
        _tr(eye[0], eye[1], costs[0]),
        _tr(eye[1], eye[2], costs[1]),
        _tr(eye[2], np.zeros(3), costs[2]),
    ]
    for tr in transitions:
        accumulate_lstd(sys_, tr, gamma)
    assert lstd_solve(sys_) == pytest.approx([v0, v1, v2], abs=1e-8)


def _diamond_chain(lam=1.5, alpha=0.75, nu=2.0, theta_seed=0):
    env = make_diamond_mdp()
    fmap = TabularPolicyFeatures(4, 2)
    rng = np.random.default_rng(theta_seed)
    theta = rng.normal(0.0, 0.7, fmap.dim)
    risk = RiskSpec(alpha, 1.0, 100.0, GAMMA)
    aug = AugmentedEnv(env, lam, risk, AugmentedCostMode.STANDARD, s0=nu)
    chain = build_chain(aug, fmap, theta, [nu])
    return env, fmap, theta, risk, aug, chain, lam, alpha, nu


def test_tabular_fixed_point_matches_value_iteration():
    _, _, _, _, _, chain, _, _, nu = _diamond_chain()
    V = value_iteration(chain, GAMMA, tol=1e-13)
    d = occupation_measure(chain, GAMMA, chain.start_index[0])
    assert np.all(d > 0.0)  # every state in the closure is visited
    system = exact_lstd_system(chain, np.eye(chain.n), GAMMA, d)
    v_star = lstd_solve(system)
    assert np.max(np.abs(v_star - V)) < 1e-8


def test_value_decomposition_against_enumeration():
    env, fmap, theta, risk, aug, chain, lam, alpha, nu = _diamond_chain()
    V = value_iteration(chain, GAMMA, tol=1e-13)
    start = chain.start_index[0]
    trajs = enumerate_trajectories(env, fmap, theta, GAMMA, 20)
    e_loss = sum(p * t.loss for p, t in trajs)
    e_excess = sum(p * max(t.loss - nu, 0.0) for p, t in trajs)
    expected = e_loss + lam / (1.0 - alpha) * e_excess
    assert V[start] == pytest.approx(expected, abs=1e-9)


def test_td_converges_to_fixed_point_under_occupation_sampling():
    # error shrinks with the sample budget; the acceptance suite runs the
    # full-budget version of this check at its pinned 5 percent tolerance
    env, fmap, theta, risk, aug, chain, lam, alpha, nu = _diamond_chain()
    features = ChainFeatures(chain, env.initial_state())
    d = occupation_measure(chain, GAMMA, chain.start_index[0])
    v_star = lstd_solve(exact_lstd_system(chain, np.eye(chain.n), GAMMA, d))
    rng = substream(99, "td")
    sched = StepSchedule(0.5, 0.55)
    v = np.zeros(chain.n)
    checkpoints = {2_000: None, 10_000: None, 40_000: None}
    samples = sample_occupation_transitions(aug, fmap, features, theta, rng, 40_000)
    for k, tr in enumerate(samples, start=1):
        v, _ = _td(v, tr, GAMMA, step=sched(k))
        if k in checkpoints:
            checkpoints[k] = np.linalg.norm(v - v_star)
    errs = [checkpoints[k] for k in sorted(checkpoints)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] <= 0.15 * np.linalg.norm(v_star)


def test_sampled_lstd_approaches_exact_system():
    env, fmap, theta, risk, aug, chain, lam, alpha, nu = _diamond_chain()
    features = ChainFeatures(chain, env.initial_state())
    d = occupation_measure(chain, GAMMA, chain.start_index[0])
    exact = exact_lstd_system(chain, np.eye(chain.n), GAMMA, d)
    sys_ = LstdSystem(chain.n)
    rng = substream(7, "lstd")
    for tr in sample_occupation_transitions(aug, fmap, features, theta, rng, 30_000):
        accumulate_lstd(sys_, tr, GAMMA)
    assert np.max(np.abs(sys_.a - exact.a)) < 0.02
    assert np.max(np.abs(sys_.b - exact.b)) < 0.1  # terminal-cost entries are high variance
    v_star = lstd_solve(exact)
    v_hat = lstd_solve(sys_)
    assert np.linalg.norm(v_hat - v_star) < 0.05 * (1.0 + np.linalg.norm(v_star))


def test_occupation_sampler_marginal():
    env, fmap, theta, risk, aug, chain, lam, alpha, nu = _diamond_chain()
    features = ChainFeatures(chain, env.initial_state())
    d = occupation_measure(chain, GAMMA, chain.start_index[0])
    rng = substream(13, "marg")
    n = 30_000
    counts = np.zeros(chain.n)
    sink = 0
    for tr in sample_occupation_transitions(aug, fmap, features, theta, rng, n):
        if tr.phi.any():
            counts[np.argmax(tr.phi)] += 1
        else:
            sink += 1
    for i in range(chain.n):
        sigma = np.sqrt(n * d[i] * (1 - d[i]))
        assert abs(counts[i] - n * d[i]) <= 4.0 * sigma + 1e-9
    sink_mass = 1.0 - d.sum()
    sigma = np.sqrt(n * sink_mass * (1 - sink_mass))
    assert abs(sink - n * sink_mass) <= 4.0 * sigma + 1e-9


def test_projection_error_bound_with_coarse_features():
    # approximation error of the projected solution obeys the
    # 1/sqrt(1-gamma) inflation bound over the occupation-weighted norm
    env, fmap, theta, risk, aug, chain, lam, alpha, nu = _diamond_chain()
    V = value_iteration(chain, GAMMA, tol=1e-13)
    d = occupation_measure(chain, GAMMA, chain.start_index[0])
    rng = np.random.default_rng(3)
    for trial in range(10):
        k = max(2, chain.n // 3)
        Phi = rng.normal(0, 1, (chain.n, k))
        try:
            v_star = lstd_solve(exact_lstd_system(chain, Phi, GAMMA, d))
        except SolverError:
            continue
        def dnorm(x):
            return np.sqrt(float(d @ (x * x)))
        # occupation-weighted projection of V onto the feature span
        W = Phi.T * d
        coef = np.linalg.solve(W @ Phi, W @ V)
        proj_err = dnorm(V - Phi @ coef)
        sol_err = dnorm(V - Phi @ v_star)
        assert sol_err <= proj_err / np.sqrt(1.0 - GAMMA) + 1e-9


def test_repeated_td_sweeps_approach_lstd_solution():
    gamma = 0.9
    costs = [1.0, 2.0]
    v1 = costs[1]
    v0 = costs[0] + gamma * v1
    eye = np.eye(2)
    transitions = [
        _tr(eye[0], eye[1], costs[0]),
        _tr(eye[1], np.zeros(2), costs[1]),
    ]
    v = np.zeros(2)
    target = np.array([v0, v1])
    dist_prev = np.linalg.norm(v - target)
    k = 1
    for epoch in range(200):
        for tr in transitions:
            v, _ = _td(v, tr, gamma, step=0.5 / k**0.55)
            k += 1
        if epoch % 50 == 49:
            dist = np.linalg.norm(v - target)
            assert dist < dist_prev
            dist_prev = dist
    assert dist_prev < 0.05
