import numpy as np
import pytest

from cvarpg.errors import InputError
from cvarpg.features import AxisScale
from cvarpg.lattice import StoppingLattice
from cvarpg.mdp import AugmentedCostMode, AugmentedEnv, AugState
from cvarpg.optstop import (
    ACCEPT,
    BUDGET_KNOTS,
    WAIT,
    OptStopCriticFeatures,
    OptStopEnv,
    OptStopParams,
    OptStopPolicyFeatures,
    OptStopState,
    enumerate_loss_distribution,
    rollout_batch,
    rollout_batch_augmented,
)
from cvarpg.risk import EmpiricalDistribution, RiskSpec, cvar, value_at_risk
from cvarpg.schedules import Box
from cvarpg.seeding import substream
from oracles import discounted_loss, enumerate_trajectories, rollout, trade_off_certificate

PAPER = OptStopParams()  # c0=1, p_h=0.1, T=20, f_u=1.5, f_d=0.8, p=0.65, gamma=0.95


def test_params_validation():
    with pytest.raises(InputError):
        OptStopParams(f_u=0.9)
    with pytest.raises(InputError):
        OptStopParams(f_d=1.1)
    with pytest.raises(InputError):
        OptStopParams(p=1.0)
    with pytest.raises(InputError):
        OptStopParams(p_h=-0.1)
    with pytest.raises(InputError):
        OptStopParams(T=0)


def test_accept_ends_episode():
    env = OptStopEnv(PAPER)
    nxt, cost, done = env.step(OptStopState(1.0, 0), ACCEPT, substream(0, "t"))
    assert done and cost == 1.0 and nxt is None


def test_wait_cost_and_branches():
    env = OptStopEnv(PAPER)
    branches = env.branches(OptStopState(1.0, 0), WAIT)
    assert len(branches) == 2
    (p_up, up_state, fee_up, d1), (p_dn, dn_state, fee_dn, d2) = branches
    assert (p_up, p_dn) == (0.65, 0.35)
    assert fee_up == fee_dn == 0.1
    assert up_state.c == pytest.approx(1.5) and dn_state.c == pytest.approx(0.8)
    assert up_state.k == dn_state.k == 1
    assert not d1 and not d2


def test_forced_termination_at_horizon():
    env = OptStopEnv(PAPER)
    state = OptStopState(2.0, PAPER.T)
    assert env.n_actions(state) == 1
    for action in (ACCEPT, WAIT):
        nxt, cost, done = env.step(state, action, substream(0, "t"))
        assert done and cost == 2.0


def test_episodes_never_exceed_horizon():
    env = OptStopEnv(PAPER)
    feats = OptStopPolicyFeatures(PAPER)
    theta = np.zeros(feats.dim)
    for j in range(50):
        traj = rollout(env, feats, theta, substream(1, "h", j), PAPER.T + 2, PAPER.gamma)
        assert traj.length <= PAPER.T + 1


def fixed_rule(params, accept):
    """The exact loss distribution of a rule that accepts with one probability everywhere."""
    lattice = StoppingLattice(params)
    return lattice.distribution(np.full(lattice.loss.shape, accept))


def test_enumerate_always_accept_is_point_mass():
    params = OptStopParams(T=12)
    dist = fixed_rule(params, 1.0)
    assert len(dist) == 1
    assert dist.samples[0] == params.c0
    assert dist.weights[0] == 1.0


def test_enumerate_always_wait_binomial():
    params = OptStopParams(T=2, gamma=1.0, p_h=0.0)
    dist = fixed_rule(params, 0.0)
    expected = {
        1.5 * 1.5 * 1.0: 0.65 * 0.65,
        1.5 * 0.8 * 1.0: 2 * 0.65 * 0.35,  # recombining tree merges ud and du
        0.8 * 0.8 * 1.0: 0.35 * 0.35,
    }
    assert len(dist) == 3
    for loss, weight in zip(dist.samples, dist.weights):
        assert weight == pytest.approx(expected[loss], abs=1e-12)
    assert dist.weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_enumeration_budget_guard():
    # the lattice serves the full horizon; only an explicit cap below T refuses
    params = OptStopParams(T=20)
    feats = OptStopPolicyFeatures(params)
    for cap in (None, 20):
        dist = enumerate_loss_distribution(feats, np.zeros(feats.dim), params, max_horizon=cap)
        assert dist.weights.sum() == pytest.approx(1.0, abs=1e-12)
    dist = fixed_rule(params, 0.0)
    assert len(dist) == 21 and dist.weights.sum() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(InputError):
        enumerate_loss_distribution(None, None, OptStopParams(T=13), max_horizon=12)


def test_enumerate_uniform_matches_monte_carlo():
    params = OptStopParams(T=3)
    env = OptStopEnv(params)
    feats = OptStopPolicyFeatures(params)
    theta = np.zeros(feats.dim)
    dist = enumerate_loss_distribution(feats, theta, params)
    assert dist.weights.sum() == pytest.approx(1.0, abs=1e-12)
    n = 1_000_000
    batch = rollout_batch(env, feats, theta, 21, ("mc",), n, with_scores=False)
    # bin the simulated losses at the exact enumerated atoms
    order = np.argsort(dist.samples)
    atoms = dist.samples[order]
    weights = dist.weights[order]
    edges = np.concatenate([[-np.inf], (atoms[:-1] + atoms[1:]) / 2.0, [np.inf]])
    counts, _ = np.histogram(batch.losses, bins=edges)
    for count, w in zip(counts, weights):
        sigma = np.sqrt(n * w * (1 - w))
        assert abs(count - n * w) <= 3.0 * sigma + 1e-9
    assert batch.losses.max() <= params.loss_upper_bound()


@pytest.mark.parametrize("params", [
    OptStopParams(T=10),
    OptStopParams(T=12, p_h=0.01, f_d=0.7, p=0.4),
    OptStopParams(T=6, gamma=1.0),
])
@pytest.mark.parametrize("policy", ["accept", "wait", "boltzmann"])
def test_lattice_matches_path_enumeration(params, policy):
    feats = OptStopPolicyFeatures(params)
    theta = np.random.default_rng(8).normal(0.0, 1.5, feats.dim)
    if policy != "boltzmann":
        # a logit gap of 1000 on one bias weight makes the softmax exactly 0/1
        theta = np.zeros(feats.dim)
        theta[feats.rbf.n_features - 1 if policy == "accept" else -1] = 1000.0
    paths = enumerate_trajectories(OptStopEnv(params), feats, theta, params.gamma, params.T + 2)
    exact = EmpiricalDistribution([t.loss for _, t in paths], [p for p, _ in paths])
    if policy == "boltzmann":
        got = enumerate_loss_distribution(feats, theta, params)
    else:
        got = fixed_rule(params, float(policy == "accept"))
    assert np.all(np.diff(got.samples) > 0.0)  # sorted, equal losses merged
    # path-order cost products differ from the lattice's by an ulp, so the
    # atoms need not match one for one; the risk figures must
    assert got.mean() == pytest.approx(exact.mean(), rel=0.0, abs=1e-12)
    assert cvar(got, 0.9) == pytest.approx(cvar(exact, 0.9), rel=0.0, abs=1e-12)


def test_budget_aware_node_rule_matches_augmented_rollouts():
    params = OptStopParams(T=20, p_h=0.01, f_d=0.7, p=0.4)  # criterion 6's instance
    lattice = StoppingLattice(params)
    feats = OptStopPolicyFeatures(params, include_s=True, s_range=(0.0, 16.0))
    theta = np.random.default_rng(11).normal(0.0, 0.5, feats.dim)
    theta[-1] += 1.0
    # accept more as the budget grows: holding s at s0 would move the exact
    # mean by about 15 standard errors
    theta[:feats.rbf.n_features - 1] += 3.0 * (feats.rbf.centers[:, 2] - 0.5)
    s0, n, alpha = 5.0, 20_000, 0.9
    exact = lattice.distribution(lattice.node_rule(feats, theta, s0))
    batch = rollout_batch_augmented(OptStopEnv(params), feats, theta, s0, 3, ("lat",), n,
                                    with_scores=False)
    # every loss is a node loss at its depth (entries past the diagonal are 0)
    gap = np.abs(batch.losses[:, None] - lattice.loss[batch.lengths - 1]).min(axis=1)
    assert np.all(gap <= 1e-12 * batch.losses)
    assert abs(batch.losses.mean() - exact.mean()) <= 6.0 * np.sqrt(exact.variance() / n)
    excess = np.maximum(exact.samples - value_at_risk(exact, alpha), 0.0)
    se_cvar = np.sqrt((exact.weights @ excess**2 - (exact.weights @ excess) ** 2) / n) / (1 - alpha)
    sampled = cvar(EmpiricalDistribution(batch.losses), alpha)
    assert abs(sampled - cvar(exact, alpha)) <= 6.0 * se_cvar
    with pytest.raises(InputError):
        lattice.node_rule(feats, theta)  # the budget-aware policy needs s0


def test_node_rule_featurizes_all_nodes_in_one_call(monkeypatch):
    params = OptStopParams(T=12)
    feats = OptStopPolicyFeatures(params, include_s=True, s_range=(0.0, 16.0))
    theta = np.random.default_rng(5).normal(0.0, 1.0, feats.dim)
    rows = []
    original = OptStopPolicyFeatures.per_action_batch

    def counted(self, c, k, s=None):
        rows.append(len(c))
        return original(self, c, k, s)

    monkeypatch.setattr(OptStopPolicyFeatures, "per_action_batch", counted)
    rule = StoppingLattice(params).node_rule(feats, theta, 5.0)
    assert rows == [params.T * (params.T + 1) // 2]
    # node (k, u) is the raw state with cost c0 f_u^u f_d^(k-u) and budget s_k
    s = 5.0
    for k in range(params.T):
        for u in range(k + 1):
            state = AugState(OptStopState(params.c0 * params.f_u**u * params.f_d**(k - u), k), s)
            probs = np.exp(feats.per_action(state) @ theta)
            assert rule[k, u] == pytest.approx(probs[ACCEPT] / probs.sum(), rel=1e-12)
        s = (s - params.p_h) / params.gamma
    assert np.all(rule[params.T] == 1.0)


def test_budget_aware_features_refuse_a_missing_budget():
    feats = OptStopPolicyFeatures(PAPER, include_s=True)
    with pytest.raises(InputError):
        feats.per_action(OptStopState(1.0, 0))
    with pytest.raises(InputError):
        feats.per_action_batch(np.array([1.0, 1.2]), 3, None)
    assert feats.per_action(AugState(OptStopState(1.0, 0), 0.5)).shape == (2, feats.dim)


def test_critic_features_of_raw_states():
    # a raw environment state is an interior state without a budget
    raw = OptStopCriticFeatures(PAPER, include_s=False)
    for state in (OptStopState(1.0, 0), OptStopState(2.5, 7), OptStopState(0.3, PAPER.T)):
        assert np.array_equal(raw(state), raw(AugState(state, 0.0)))
    with pytest.raises(InputError):
        OptStopCriticFeatures(PAPER, include_s=True)(OptStopState(1.0, 0))


def test_lattice_optima_on_default_constants():
    # waiting from cost c costs p_h + gamma (p f_u + (1-p) f_d) c = 0.1 + 1.192 c > c,
    # so immediate acceptance is optimal for the mean and for CVaR
    lattice = StoppingLattice(PAPER)
    mean, rule = lattice.mean_optimum()
    assert mean == PAPER.c0
    assert rule[0, 0]
    value, rule = lattice.cvar_optimum(0.9)
    assert value == pytest.approx(PAPER.c0, abs=1e-12)
    assert rule[0, 0]
    for beta in (1.9, 2.5):
        assert not trade_off_certificate(PAPER, 0.9, beta, 0.9)["ok"]


def test_lattice_optima_by_brute_force():
    # every deterministic stop rule of a T = 3 lattice, enumerated
    params = OptStopParams(T=3, p_h=0.01, f_d=0.7, p=0.4)
    lattice = StoppingLattice(params)
    nodes = [(k, u) for k in range(3) for u in range(k + 1)]
    means, cvars = [], []
    for bits in range(2 ** len(nodes)):
        rule = np.ones_like(lattice.loss)
        for i, (k, u) in enumerate(nodes):
            rule[k, u] = (bits >> i) & 1
        dist = lattice.distribution(rule)
        means.append(dist.mean())
        cvars.append(cvar(dist, 0.6))
    assert lattice.mean_optimum()[0] == pytest.approx(min(means), abs=1e-12)
    assert lattice.cvar_optimum(0.6)[0] == pytest.approx(min(cvars), abs=1e-12)
    dist, _ = lattice.constrained_optimum(0.6, 1.5)
    assert cvar(dist, 0.6) <= 1.5
    assert dist.mean() == pytest.approx(min(m for m, c in zip(means, cvars) if c <= 1.5))
    assert dist.mean() < min(means[i] for i in np.flatnonzero(np.isclose(cvars, min(cvars))))


def test_batch_matches_sequential_rollouts():
    env = OptStopEnv(OptStopParams(T=8))
    feats = OptStopPolicyFeatures(OptStopParams(T=8))
    rng = np.random.default_rng(4)
    theta = rng.normal(0, 0.5, feats.dim)
    n = 64
    batch = rollout_batch(env, feats, theta, 17, ("eq",), n)
    for j in range(n):
        traj = rollout(env, feats, theta, substream(17, "eq", j), 10, 0.95)
        assert traj.loss == batch.losses[j]
        assert traj.length == batch.lengths[j]
        assert np.array_equal(traj.score, batch.scores[j])


def test_augmented_batch_matches_sequential():
    params = OptStopParams(T=8)
    env = OptStopEnv(params)
    feats = OptStopPolicyFeatures(params, include_s=True)
    rng = np.random.default_rng(5)
    theta = rng.normal(0, 0.5, feats.dim)
    risk = RiskSpec(0.9, 1.9, 100.0, params.gamma)
    s0 = 1.7
    n = 48
    batch = rollout_batch_augmented(env, feats, theta, s0, 23, ("aq",), n)
    aug = AugmentedEnv(env, 1.3, risk, AugmentedCostMode.STANDARD, s0=s0)
    for j in range(n):
        traj = rollout(aug, feats, theta, substream(23, "aq", j), 20, params.gamma)
        d = discounted_loss(traj.costs[:-1], params.gamma)
        assert d == batch.losses[j]
        assert np.array_equal(traj.score, batch.scores[j])


def _kernel_and_args(augmented: bool, n: int):
    params = OptStopParams(T=8)
    feats = OptStopPolicyFeatures(params, include_s=augmented)
    theta = np.random.default_rng(6).normal(0, 0.8, feats.dim)
    theta[-1] += 4.0  # lean to wait, so episodes end at many different steps
    if augmented:
        return rollout_batch_augmented, (OptStopEnv(params), feats, theta, 1.7, 29, ("blk",), n)
    return rollout_batch, (OptStopEnv(params), feats, theta, 29, ("blk",), n)


def _assert_same_episodes(got, want, scores=True):
    assert np.array_equal(got.losses, want.losses)
    assert np.array_equal(got.lengths, want.lengths)
    if scores:
        assert np.array_equal(got.scores, want.scores)


@pytest.mark.parametrize("augmented", [False, True])
def test_rollouts_featurize_each_distinct_cost_once(monkeypatch, augmented):
    params = OptStopParams(T=20, p_h=0.01, f_d=0.7, p=0.4)  # criterion 6's instance
    env = OptStopEnv(params)
    feats = OptStopPolicyFeatures(params, include_s=augmented, s_range=(0.0, 16.0))
    theta = np.random.default_rng(12).normal(0.0, 0.5, feats.dim)
    theta[-1] += 3.0  # lean to wait, so many episodes reach the late steps
    featurized = []
    per_action_batch = feats.per_action_batch

    def recording(c, k, s=None):
        featurized.append((k, np.array(c)))
        return per_action_batch(c, k, s)

    monkeypatch.setattr(feats, "per_action_batch", recording)
    n, s0, seed, path = 6000, 1.7, 31, ("dd",)
    if augmented:
        batch = rollout_batch_augmented(env, feats, theta, s0, seed, path, n)
    else:
        batch = rollout_batch(env, feats, theta, seed, path, n)
    # one call per decision step, on distinct cost floats; path order moves a
    # cost's last bits, so a late step holds more floats than its k + 1 nodes
    assert [k for k, _ in featurized] == list(range(params.T))
    assert all(np.unique(c).size == c.size for _, c in featurized)
    assert max(c.size - (k + 1) for k, c in featurized) > 0
    assert sum(c.size for _, c in featurized) < batch.lengths.sum() // 10
    monkeypatch.undo()
    # the longest episodes and a spread of others, bit for bit against the
    # sequential rollout of each episode's own substream
    aug = AugmentedEnv(env, 1.3, RiskSpec(0.9, 1.9, 100.0, params.gamma),
                       AugmentedCostMode.STANDARD, s0=s0)
    longest = np.argsort(batch.lengths, kind="stable")[-20:]
    for j in np.concatenate([longest, np.arange(0, n, 300)]):
        traj = rollout(aug if augmented else env, feats, theta, substream(seed, *path, int(j)),
                       params.T + 2, params.gamma)
        if augmented:
            assert discounted_loss(traj.costs[:-1], params.gamma) == batch.losses[j]
            assert traj.length - 1 == batch.lengths[j]
        else:
            assert traj.loss == batch.losses[j]
            assert traj.length == batch.lengths[j]
        assert np.array_equal(traj.score, batch.scores[j])
    assert batch.lengths.max() == params.T + 1


@pytest.mark.parametrize("augmented", [False, True])
def test_rollouts_without_scores(augmented):
    n = 40
    kernel, args = _kernel_and_args(augmented, n)
    bare = kernel(*args, with_scores=False)
    assert bare.scores.shape == (n, 0)
    _assert_same_episodes(bare, kernel(*args), scores=False)


def test_policy_features_shapes_and_scale():
    feats = OptStopPolicyFeatures(PAPER, centers_per_dim=3, scale=0.5)
    fa = feats.per_action(OptStopState(1.0, 0))
    assert fa.shape == (2, feats.dim)
    assert feats.dim == 2 * (3**2 + 1)
    batch = feats.per_action_batch(np.array([1.0, 2.0]), 3)
    assert batch.shape == (2, 2, feats.dim)
    assert np.array_equal(batch[0, 0], feats.per_action(OptStopState(1.0, 3))[0])


def test_budgets_are_the_augmented_env_budgets():
    # the budget path the kernel and the lattice read is the one the
    # augmented process carries after k waits, bit for bit
    params = OptStopParams(p_h=0.03, gamma=0.9)
    risk = RiskSpec(0.9, 1.9, 100.0, params.gamma)
    rng = np.random.default_rng(3)
    for s0 in (1.7, -2.25, 0.0, 13.0):
        aug = AugmentedEnv(OptStopEnv(params), 0.0, risk, AugmentedCostMode.STANDARD, s0=s0)
        budgets = params.budgets(s0)
        assert budgets.shape == (params.T,)
        state = aug.initial_state()
        for k in range(params.T):
            assert _same_bits(budgets[k], state.s)
            state = aug.step(state, WAIT, rng)[0]


def test_policy_and_critic_share_one_grid():
    # equal centres and width: the unscaled accept block is the critic's RBF block
    params = OptStopParams(p_h=0.01, f_d=0.7, p=0.4)
    policy = OptStopPolicyFeatures(params, centers_per_dim=3, include_s=True, s_range=(-5.0, 9.0),
                                   scale=1.0, width_scale=0.7)
    critic = OptStopCriticFeatures(params, centers_per_dim=3, include_s=True, s_range=(-5.0, 9.0),
                                   width_scale=0.7)
    nb = critic.rbf.n_features
    rng = np.random.default_rng(9)
    costs = np.exp(rng.uniform(-8.0, 9.0, 50))  # beyond both ends of the cost envelope
    steps, budgets = rng.integers(0, params.T, 50), rng.uniform(-8.0, 12.0, 50)
    for c, k, s in zip(costs.tolist(), steps.tolist(), budgets.tolist()):
        state = AugState(OptStopState(c, k), s)
        assert _same_bits(policy.per_action(state)[ACCEPT, :nb], critic(state)[:nb])


def test_critic_features_blocks():
    cf = OptStopCriticFeatures(PAPER, centers_per_dim=3, include_s=True, s_range=(-10, 10))
    interior = cf(AugState(OptStopState(2.0, 2), 1.0))
    assert interior.shape == (cf.dim,)
    assert np.all(interior[cf.n_interior:] == 0.0)  # terminal block empty
    # budget hinges (knot - s/c)^+ at s/c = 0.5
    hinges = interior[cf.rbf.n_features:cf.n_interior]
    assert hinges == pytest.approx(np.maximum(np.array(BUDGET_KNOTS) - 0.5, 0.0))
    term = cf(AugState(None, -4.0, at_terminal=True))
    assert np.all(term[: cf.n_interior] == 0.0)  # interior block empty
    assert term[cf.n_interior:] == pytest.approx([1.0, -0.4, 0.4])
    # the terminal budget clamps to the configured range
    clamped = cf(AugState(None, -50.0, at_terminal=True))
    assert clamped[cf.n_interior + 2] == pytest.approx(1.0)
    # without the budget there are no hinges
    assert OptStopCriticFeatures(PAPER, centers_per_dim=3, include_s=False).n_interior == 3**2 + 1


def _same_bits(a, b) -> bool:
    """Equal values and equal signs of zero (``np.array_equal`` takes -0.0 == 0.0)."""
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def test_one_state_featurizers_equal_the_batch_path():
    # the actor-critic featurizes one state per call; its one-state path must
    # give the batch path's numbers bit for bit, or training would drift
    params = OptStopParams(p_h=0.01, f_d=0.7, p=0.4)
    aware = OptStopPolicyFeatures(params, include_s=True, scale=0.1)
    blind = OptStopPolicyFeatures(params, include_s=False, scale=0.1)
    critic = OptStopCriticFeatures(params)
    rng = np.random.default_rng(2024)
    log_lo, log_hi = np.log(aware.c_axis.lo), np.log(aware.c_axis.hi)
    n = 400
    # costs from below the log axis's floor to above its top, budgets beyond s_range
    costs = np.exp(rng.uniform(log_lo - 2.0, log_hi + 1.0, n))
    budgets = rng.uniform(-35.0, 35.0, n)
    steps = rng.integers(0, params.T + 1, n)
    assert costs.min() < aware.c_axis.lo and np.abs(budgets).max() > 20.0
    assert (steps == params.T).any()
    for c, k, s in zip(costs.tolist(), steps.tolist(), budgets.tolist()):
        # the policy sees decision states only; the critic also the horizon's
        if k < params.T:
            one = aware.per_action(AugState(OptStopState(c, k), s))
            assert np.array_equal(one, aware.per_action_batch(np.array([c]), k, np.array([s]))[0])
            raw = blind.per_action(OptStopState(c, k))
            assert np.array_equal(raw, blind.per_action_batch(np.array([c]), k)[0])
        z = np.stack([critic.c_axis.unit(np.array([c])), np.array([k / params.T]),
                      critic.s_axis.unit(np.array([s]))], axis=1)
        phi = critic(AugState(OptStopState(c, k), s))
        assert np.array_equal(phi[:critic.rbf.n_features], critic.rbf.batch(z)[0])
        if k == 0 and c == params.c0:
            assert np.array_equal(critic.at_initial(s), phi)
    assert np.array_equal(critic.at_initial(1.5),
                          critic(AugState(OptStopState(params.c0, 0), 1.5)))

    for axis, xs in ((aware.c_axis, costs), (aware.s_axis, budgets),
                     (AxisScale(0.0, 5.0), np.array([-0.0, 0.0, -1.0, 2.5, 5.0, 7.0]))):
        unit = axis.unit(xs)
        for i, x in enumerate(xs.tolist()):
            assert _same_bits(axis.unit(x), unit[i])

    xs = [-0.0, 0.0, -1.0, 2.5, 5.0, 7.0, -1e-300]
    for lo, hi in ((0.0, 5.0), (-0.0, 0.0), (-1.0, -0.0), (0.0, 0.0)):
        box = Box(lo, hi)
        for x in xs:
            assert _same_bits(box.project(x), np.clip(x, lo, hi))
        assert _same_bits(box.project(np.array(xs)), np.clip(np.array(xs), lo, hi))
    lo, hi = np.array([0.0, -1.0, 2.0]), np.array([1.0, -0.0, 2.0])
    for x in (np.array([-0.0, 0.5, 3.0]), np.array([0.5, -2.0, 1.0]), -0.0, 0.5):
        assert _same_bits(Box(lo, hi).project(x), np.clip(x, lo, hi))
