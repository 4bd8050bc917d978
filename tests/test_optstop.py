import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvarpg import optstop
from cvarpg.errors import InputError
from cvarpg.features import AxisScale, action_blocks
from cvarpg.lattice import StoppingLattice, kept_lattice
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
    cost_table,
    enumerate_loss_distribution,
    rollout_batch,
    rollout_batch_augmented,
)
from cvarpg.risk import EmpiricalDistribution, RiskSpec, cvar, tail_probability, value_at_risk
from cvarpg.schedules import Box
from cvarpg.seeding import substream, substream_uniforms
from oracles import discounted_loss, enumerate_trajectories, rollout, trade_off_certificate

PAPER = OptStopParams()  # c0=1, p_h=0.1, T=20, f_u=1.5, f_d=0.8, p=0.65, gamma=0.95


def _uniforms(feats, seed, path, n):
    """The kernel's (n, 2T) uniforms: episode j's from substream(seed, *path, j)."""
    return substream_uniforms(seed, path, n, 2 * feats.params.T)


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
    # a cost envelope c0 f_d^T .. c0 f_u^T outside the float range
    with pytest.raises(InputError, match="T=2000"):
        OptStopParams(T=2000)
    with pytest.raises(InputError, match="f_u=1e[+]200"):
        OptStopParams(T=3, f_u=1e200)
    with pytest.raises(InputError, match="f_d=1e-300"):
        OptStopParams(T=2, f_d=1e-300)
    assert OptStopParams(T=1750).cost_range()[1] < np.inf  # the defaults' longest horizon


def test_loss_upper_bound_is_the_all_up_loss_with_gamma_one():
    # the closed form p_h T + c0 f_u^T read up to 1.1e-13 below the
    # all-up node loss on 11 of these sets
    for T, p_h, f_u in itertools.product((5, 10, 20, 35), (0.01, 0.1, 0.3), (1.2, 1.5, 2.0)):
        params = OptStopParams(T=T, p_h=p_h, f_u=f_u, f_d=0.7, p=0.4, gamma=1.0)
        assert params.loss_upper_bound() == StoppingLattice(params).loss.max()


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
    feats = OptStopPolicyFeatures(params)
    theta = np.zeros(feats.dim)
    dist = enumerate_loss_distribution(feats, theta, params)
    assert dist.weights.sum() == pytest.approx(1.0, abs=1e-12)
    n = 1_000_000
    batch = rollout_batch(feats, theta, _uniforms(feats, 21, ("mc",), n), with_scores=False)
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


@pytest.mark.parametrize("params", [
    PAPER,
    OptStopParams(T=20, p_h=0.01, f_d=0.7, p=0.4),  # criterion 6's instance
    OptStopParams(T=20, gamma=1.0),
])
def test_node_loss_is_its_down_moves_first_path_loss_bit_for_bit(params):
    lattice = StoppingLattice(params)
    env = OptStopEnv(params)
    for k in range(params.T + 1):
        for u in range(k + 1):
            # scripted draws: one below p moves the cost up, one at or above it down
            rng = SimpleNamespace(random=iter([1.0 - 1e-9] * (k - u) + [0.0] * u).__next__)
            state, costs = env.initial_state(), []
            for _ in range(k):
                state, fee, done = env.step(state, WAIT, rng)
                costs.append(fee)
                assert not done
            costs.append(env.step(state, ACCEPT, rng)[1])
            loss = discounted_loss(costs, params.gamma)
            assert loss.hex() == float(lattice.loss[k, u]).hex(), (k, u)


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
    batch = rollout_batch_augmented(feats, theta, s0, _uniforms(feats, 3, ("lat",), n),
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
    rows = _counting_per_action_batch(monkeypatch)
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


def _counting_per_action_batch(monkeypatch) -> list:
    """Spy on ``OptStopPolicyFeatures.per_action_batch``: the row count of each call."""
    rows = []
    original = OptStopPolicyFeatures.per_action_batch

    def counted(self, c, k, s=None):
        rows.append(len(c))
        return original(self, c, k, s)

    monkeypatch.setattr(OptStopPolicyFeatures, "per_action_batch", counted)
    return rows


CERTIFIED = OptStopParams(T=20, p_h=0.01, f_d=0.7, p=0.4)  # criterion 6's instance


def test_repeated_enumerations_featurize_a_budget_blind_map_once(monkeypatch):
    rows = _counting_per_action_batch(monkeypatch)
    nodes = CERTIFIED.T * (CERTIFIED.T + 1) // 2
    blind = OptStopPolicyFeatures(CERTIFIED, scale=8.0)
    rng = np.random.default_rng(21)
    for _ in range(5):
        enumerate_loss_distribution(blind, rng.normal(0.0, 0.2, blind.dim), CERTIFIED)
    assert rows == [nodes]
    # a budget-aware map featurizes the nodes on every call, as its budget follows s0
    rows.clear()
    aware = OptStopPolicyFeatures(CERTIFIED, include_s=True, s_range=(0.0, 16.0))
    lattice = kept_lattice(CERTIFIED)
    for s0 in (1.0, 2.0, 2.0):
        lattice.node_rule(aware, rng.normal(0.0, 0.2, aware.dim), s0)
    assert rows == [nodes] * 3
    with pytest.raises(InputError):
        lattice.node_rule(aware, np.zeros(aware.dim))  # the budget-aware policy needs s0


def test_kept_lattice_and_node_rows_are_read_only():
    lattice = kept_lattice(CERTIFIED)
    assert kept_lattice(OptStopParams(T=20, p_h=0.01, f_d=0.7, p=0.4)) is lattice
    arrays = {name: a for name, a in vars(lattice).items() if isinstance(a, np.ndarray)}
    assert {"cost", "loss", "valid", "decision_cost", "node_losses", "node_atom"} <= set(arrays)
    feats = OptStopPolicyFeatures(CERTIFIED)
    arrays["node_blocks"] = feats.node_blocks(lattice)
    assert feats.node_blocks(lattice) is arrays["node_blocks"]
    for name, a in arrays.items():
        with pytest.raises(ValueError, match="read-only"):
            a.reshape(-1)[0] = a.reshape(-1)[0]


def _distribution_by_unique(lattice, rule) -> EmpiricalDistribution:
    """The reference pass: every node's weight, then one ``np.unique`` of the kept losses."""
    p, T = lattice.params, lattice.params.T
    weights = np.zeros((T + 1, T + 1))
    reach = np.ones(1)
    for k in range(T + 1):
        accept = np.ones(k + 1) if k == T else rule[k, :k + 1]
        weights[k, :k + 1] = reach * accept
        carry = reach * (1.0 - accept)
        reach = np.zeros(k + 2)
        reach[1:] += p.p * carry
        reach[:-1] += (1.0 - p.p) * carry
    keep = lattice.valid & (weights > 0.0)
    losses, atom = np.unique(lattice.loss[keep], return_inverse=True)
    w = np.bincount(atom, weights=weights[keep])
    return EmpiricalDistribution(losses, w / w.sum())


def _same_figures(got: EmpiricalDistribution, want: EmpiricalDistribution):
    assert got.samples.tobytes() == want.samples.tobytes()
    assert got.weights.tobytes() == want.weights.tobytes()
    for alpha in (0.9, 0.95):
        assert cvar(got, alpha).hex() == cvar(want, alpha).hex()
        assert value_at_risk(got, alpha).hex() == value_at_risk(want, alpha).hex()
    for beta in (1.5, 2.5):
        assert tail_probability(got, beta).hex() == tail_probability(want, beta).hex()


@pytest.mark.parametrize("T", [12, 15, 20])
@pytest.mark.parametrize("problem", [dict(p_h=0.01, f_d=0.7, p=0.4), {}],
                         ids=["certified", "defaults"])
def test_kept_lattice_matches_a_fresh_one_byte_for_byte(T, problem):
    params = OptStopParams(T=T, **problem)
    kept = kept_lattice(params)
    blind = OptStopPolicyFeatures(params, scale=8.0)
    aware = OptStopPolicyFeatures(params, include_s=True, s_range=(0.0, 16.0))
    rng = np.random.default_rng(T)
    for _ in range(20):
        theta = rng.normal(0.0, 0.3, blind.dim)
        theta[-1] += rng.uniform(0.0, 3.0) / blind.scale
        fresh = StoppingLattice(params)
        rule = fresh.node_rule(OptStopPolicyFeatures(params, scale=8.0), theta)
        want = fresh.distribution(rule)
        _same_figures(enumerate_loss_distribution(blind, theta, params), want)
        _same_figures(want, _distribution_by_unique(fresh, rule))
        theta, s0 = rng.normal(0.0, 0.3, aware.dim), rng.uniform(0.0, 8.0)
        rule = fresh.node_rule(OptStopPolicyFeatures(params, include_s=True, s_range=(0.0, 16.0)),
                               theta, s0)
        want = fresh.distribution(rule)
        _same_figures(kept.distribution(kept.node_rule(aware, theta, s0)), want)
        _same_figures(want, _distribution_by_unique(fresh, rule))
    for accept in (0.5, 1.0, 0.0):  # enumerate-oracle's three rules
        rule = np.full(kept.loss.shape, accept)
        _same_figures(kept.distribution(rule), StoppingLattice(params).distribution(rule))
        _same_figures(kept.distribution(rule), _distribution_by_unique(kept, rule))


def test_one_map_keeps_separate_node_rows_per_problem(monkeypatch):
    rows = _counting_per_action_batch(monkeypatch)
    feats = OptStopPolicyFeatures(CERTIFIED, scale=8.0)
    theta = np.random.default_rng(4).normal(0.0, 0.3, feats.dim)
    first, second = kept_lattice(CERTIFIED), kept_lattice(OptStopParams(T=15))
    blocks = [feats.node_blocks(lattice) for lattice in (first, second, first, second)]
    assert rows == [210, 120]
    assert blocks[0] is blocks[2] and blocks[1] is blocks[3]
    for lattice, kept in zip((first, second), blocks):
        want = OptStopPolicyFeatures(CERTIFIED, scale=8.0).per_action_batch(
            lattice.decision_cost, lattice.decision_k)
        assert kept.tobytes() == want.tobytes()
        got = enumerate_loss_distribution(feats, theta, lattice.params)
        _same_figures(got, StoppingLattice(lattice.params).distribution(
            StoppingLattice(lattice.params).node_rule(OptStopPolicyFeatures(CERTIFIED, scale=8.0),
                                                      theta)))


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


@pytest.mark.parametrize("params", [OptStopParams(T=14, p_h=0.01, f_d=0.7, p=0.4),
                                    OptStopParams(T=14)])
def test_constrained_scan_keeps_np_unique_rows_and_order(monkeypatch, params):
    # the scan's distinct rules, from packed bytes, are np.unique(axis=0)'s in its order,
    # on criterion 6's certified instance and on the defaults
    from cvarpg import lattice as lattice_module

    scanned = []

    def recorded(rules, original=lattice_module._unique_rules):
        scanned.append(rules)
        return original(rules)

    monkeypatch.setattr(lattice_module, "_unique_rules", recorded)
    StoppingLattice(params).constrained_optimum(0.9, 1e9)
    (rules,) = scanned
    reference = np.unique(rules.reshape(len(rules), -1), axis=0).reshape(-1, *rules.shape[1:])
    assert len(rules) > len(reference) > 0
    got = lattice_module._unique_rules(rules)
    assert got.dtype == reference.dtype and np.array_equal(got, reference)


def test_unique_rules_order_rules_as_np_unique_does():
    # stacks with repeats, and rules that differ in any one node, the last
    # one (next to the packed bytes' zero padding) too
    from cvarpg.lattice import _unique_rules

    rng = np.random.default_rng(3)
    rows = rng.random((40, 5, 5)) < 0.5
    flips = np.repeat(rows[:1], 26, axis=0)
    flips.reshape(26, -1)[np.arange(1, 26), np.arange(25)] ^= True
    stack = np.concatenate([rows, rows[::-1], flips, np.zeros((2, 5, 5), bool), np.ones((2, 5, 5), bool)])
    reference = np.unique(stack.reshape(len(stack), -1), axis=0).reshape(-1, 5, 5)
    assert np.array_equal(_unique_rules(stack), reference)


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
    batch = rollout_batch(feats, theta, _uniforms(feats, 17, ("eq",), n))
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
    batch = rollout_batch_augmented(feats, theta, s0, _uniforms(feats, 23, ("aq",), n))
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
        return rollout_batch_augmented, (feats, theta, 1.7, _uniforms(feats, 29, ("blk",), n))
    return rollout_batch, (feats, theta, _uniforms(feats, 29, ("blk",), n))


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
        batch = rollout_batch_augmented(feats, theta, s0, _uniforms(feats, seed, path, n))
    else:
        batch = rollout_batch(feats, theta, _uniforms(feats, seed, path, n))
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


def _assert_equals_sequential(batch, env, feats, theta, s0, seed, path):
    """Each batch episode is the sequential rollout of its own substream, bit for bit."""
    params = env.params
    if s0 is not None:
        env = AugmentedEnv(env, 1.3, RiskSpec(0.9, 1.9, 100.0, params.gamma),
                           AugmentedCostMode.STANDARD, s0=s0)
    for j in range(batch.lengths.size):
        traj = rollout(env, feats, theta, substream(seed, *path, j), params.T + 2, params.gamma)
        if s0 is not None:  # the augmented episode ends with its terminal penalty
            assert discounted_loss(traj.costs[:-1], params.gamma) == batch.losses[j]
            assert traj.length - 1 == batch.lengths[j]
        else:
            assert traj.loss == batch.losses[j]
            assert traj.length == batch.lengths[j]
        assert np.array_equal(traj.score, batch.scores[j])


@settings(deadline=None, max_examples=40)
@given(f_u=st.floats(1.01, 2.5), f_d=st.floats(0.3, 0.99), p=st.floats(0.05, 0.95),
       gamma=st.floats(0.5, 0.999), T=st.integers(1, 10), augmented=st.booleans(),
       wait_lean=st.floats(-2.0, 6.0), seed=st.integers(0, 2**31 - 1))
def test_batch_episodes_equal_sequential_rollouts(f_u, f_d, p, gamma, T, augmented, wait_lean,
                                                  seed):
    params = OptStopParams(T=T, f_u=f_u, f_d=f_d, p=p, gamma=gamma)
    env = OptStopEnv(params)
    feats = OptStopPolicyFeatures(params, include_s=augmented, s_range=(0.0, 16.0))
    theta = np.random.default_rng(seed).normal(0.0, 1.0, feats.dim)
    theta[-1] += wait_lean
    s0 = 1.7 if augmented else None
    if augmented:
        batch = rollout_batch_augmented(feats, theta, s0, _uniforms(feats, seed, ("hyp",), 24))
    else:
        batch = rollout_batch(feats, theta, _uniforms(feats, seed, ("hyp",), 24))
    _assert_equals_sequential(batch, env, feats, theta, s0, seed, ("hyp",))


def test_raw_map_featurizes_each_step_once_for_its_lifetime(monkeypatch):
    params = OptStopParams(T=20, p_h=0.01, f_d=0.7, p=0.4)  # criterion 6's instance
    env = OptStopEnv(params)
    raw = OptStopPolicyFeatures(params)
    aware = OptStopPolicyFeatures(params, include_s=True, s_range=(0.0, 16.0))
    theta = np.random.default_rng(13).normal(0.0, 0.5, raw.dim)
    theta[-1] += 3.0  # lean to wait, so the first rollout reaches every step
    calls = []
    per_action_batch = OptStopPolicyFeatures.per_action_batch

    def recording(self, c, k, s=None):
        calls.append((self.include_s, k))
        return per_action_batch(self, c, k, s)

    monkeypatch.setattr(OptStopPolicyFeatures, "per_action_batch", recording)
    first = rollout_batch(raw, theta, _uniforms(raw, 41, ("raw",), 400))
    assert first.lengths.max() == params.T + 1
    assert calls == [(False, k) for k in range(params.T)]
    calls.clear()
    theta2 = theta + np.random.default_rng(14).normal(0.0, 0.5, raw.dim)
    second = rollout_batch(raw, theta2, _uniforms(raw, 42, ("raw",), 300))
    assert calls == []
    monkeypatch.undo()
    _assert_same_episodes(second, rollout_batch(OptStopPolicyFeatures(params), theta2,
                                                _uniforms(raw, 42, ("raw",), 300)))
    _assert_equals_sequential(second, env, raw, theta2, None, 42, ("raw",))

    # a budget-aware rollout builds its own blocks, as the budget follows s0,
    # every step of each window it enters: [0, 1), [1, 3), [3, 7), [7, 15),
    # [15, 20). With the accept lean the longest episode decides last at
    # step 5, so the rollout featurizes window [3, 7) whole and no further.
    monkeypatch.setattr(OptStopPolicyFeatures, "per_action_batch", recording)
    for wait_lean, s0, longest, steps in ((-3.0, 1.7, 6, range(7)), (3.0, 1.7, 21, range(20)),
                                          (3.0, 2.5, 21, range(20))):
        theta = np.random.default_rng(15).normal(0.0, 0.5, aware.dim)
        theta[-1] += wait_lean
        calls.clear()
        batch = rollout_batch_augmented(aware, theta, s0, _uniforms(aware, 43, ("aware",), 200))
        assert batch.lengths.max() == longest
        assert calls == [(True, k) for k in steps]
    monkeypatch.undo()
    _assert_equals_sequential(batch, env, aware, theta, 2.5, 43, ("aware",))


def test_softmax_runs_once_per_window_entered(monkeypatch):
    params = OptStopParams(T=20, p_h=0.01, f_d=0.7, p=0.4)  # criterion 6's instance
    rows = [c.size for c in cost_table(params)[0]]
    windows = [range(0, 1), range(1, 3), range(3, 7), range(7, 15), range(15, 20)]
    softmax_rows, featurized = [], []
    probabilities = optstop.action_probabilities
    per_action_batch = OptStopPolicyFeatures.per_action_batch

    def softmax(theta, fa):
        softmax_rows.append(len(fa))
        return probabilities(theta, fa)

    def featurize(self, c, k, s=None):
        featurized.append(k)
        return per_action_batch(self, c, k, s)

    monkeypatch.setattr(optstop, "action_probabilities", softmax)
    monkeypatch.setattr(OptStopPolicyFeatures, "per_action_batch", featurize)
    raw = OptStopPolicyFeatures(params)
    aware = OptStopPolicyFeatures(params, include_s=True, s_range=(0.0, 16.0))
    lasts = set()
    # the raw map's second pass reuses its kept features, but not its softmax
    for feats in (raw, aware, raw):
        for wait_lean in (-3.0, 0.0, 1.0, 3.0):
            theta = np.random.default_rng(16).normal(0.0, 0.5, feats.dim)
            theta[-1] += wait_lean
            softmax_rows.clear()
            u = _uniforms(feats, 44, ("win",), 200)
            if feats.include_s:
                batch = rollout_batch_augmented(feats, theta, 1.7, u)
            else:
                batch = rollout_batch(feats, theta, u)
            last = min(batch.lengths.max(), params.T) - 1  # the last step any episode decides at
            lasts.add(int(last))
            # each window's rows, and the dead row of the episodes that have stopped
            assert softmax_rows == [sum(rows[k] for k in w) + 1 for w in windows
                                    if w.start <= last]
    assert len(lasts) >= 3  # the leans end the rollouts in different windows
    # a budget-aware policy that accepts at step 0 featurizes step 0 only
    theta = np.zeros(aware.dim)
    theta[aware.dim // 2 - 1] = 1000.0  # the accept block's bias
    featurized.clear()
    softmax_rows.clear()
    batch = rollout_batch_augmented(aware, theta, 1.7, _uniforms(aware, 45, ("now",), 200))
    assert np.all(batch.lengths == 1)
    assert featurized == [0] and softmax_rows == [1 + 1]


@pytest.mark.parametrize("params,decision_floats", [
    (OptStopParams(T=20, p_h=0.01, f_d=0.7, p=0.4), 661),  # criterion 6's instance
    (PAPER, 767),
])
def test_cost_table_holds_every_simulated_cost(params, decision_floats):
    assert cost_table(params) is cost_table(params)
    costs, up, down = cost_table(params)
    assert len(costs) == params.T + 1 and len(up) == len(down) == params.T
    assert sum(c.size for c in costs[:params.T]) == decision_floats
    for k in range(params.T):
        assert np.all(np.diff(costs[k]) > 0.0)
        assert np.array_equal(costs[k + 1][up[k]], costs[k] * params.f_u)
        assert np.array_equal(costs[k + 1][down[k]], costs[k] * params.f_d)
    # an all-wait batch: the accept probability underflows to 0, so every
    # episode walks the cost moves of its substream to the horizon
    feats = OptStopPolicyFeatures(params)
    theta = np.zeros(feats.dim)
    theta[-1] = 1000.0
    n, seed, path = 6000, 51, ("wait",)
    u = substream_uniforms(seed, path, n, 2 * params.T)
    batch = rollout_batch(feats, theta, u, with_scores=False)
    assert np.all(batch.lengths == params.T + 1)
    c, losses, disc = np.full(n, params.c0), np.zeros(n), 1.0
    for k in range(params.T):
        assert np.isin(c, costs[k]).all()
        losses += disc * params.p_h
        c *= np.where(u[:, 2 * k + 1] < params.p, params.f_u, params.f_d)
        disc *= params.gamma
    assert np.isin(c, costs[params.T]).all()
    assert np.array_equal(batch.losses, losses + disc * c)


@pytest.mark.parametrize("augmented", [False, True])
def test_rollouts_without_scores(augmented):
    n = 40
    kernel, args = _kernel_and_args(augmented, n)
    bare = kernel(*args, with_scores=False)
    assert bare.scores.shape == (n, 0)
    _assert_same_episodes(bare, kernel(*args), scores=False)


@pytest.mark.parametrize("augmented", [False, True])
def test_rollouts_refuse_uniforms_of_the_wrong_shape(augmented):
    kernel, args = _kernel_and_args(augmented, 5)
    *head, u = args
    assert u.shape == (5, 16)  # T = 8
    for bad in (u[0], u[None], u[:, :-1], np.hstack([u, u[:, :1]])):
        with pytest.raises(InputError, match=r"needs \(n, 16\)"):
            kernel(*head, bad)


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


def test_policy_reads_its_row_from_a_critic_on_one_grid():
    # given the critic's features of a state on its own grid, the policy
    # builds that state's rows from them, bit for bit
    params = OptStopParams(p_h=0.01, f_d=0.7, p=0.4)
    policy = OptStopPolicyFeatures(params, include_s=True, scale=0.125)
    critic = OptStopCriticFeatures(params, include_s=True)
    assert policy.same_grid(critic) and critic.same_grid(policy)
    rng = np.random.default_rng(5)
    for c, k, s in zip(np.exp(rng.uniform(-8.0, 9.0, 30)).tolist(),
                       rng.integers(0, params.T, 30).tolist(), rng.uniform(-30.0, 30.0, 30).tolist()):
        state = AugState(OptStopState(c, k), s)
        assert _same_bits(policy.per_action(state, critic(state)), policy.per_action(state))
    # any other problem, budget axis, grid or width is another row
    others = [
        OptStopCriticFeatures(params, centers_per_dim=3),
        OptStopCriticFeatures(params, include_s=False),
        OptStopCriticFeatures(params, s_range=(-20.0, 21.0)),
        OptStopCriticFeatures(params, width_scale=0.9),
        OptStopCriticFeatures(OptStopParams(p_h=0.01, f_d=0.7, p=0.4, T=19)),
        SimpleNamespace(params=params, include_s=True, rbf=critic.rbf),
    ]
    assert not any(policy.same_grid(other) for other in others)


def test_at_initial_of_two_budgets_equals_two_single_calls():
    # the quantile step reads both perturbed budgets from one grid call
    params = OptStopParams(p_h=0.01, f_d=0.7, p=0.4)
    rng = np.random.default_rng(31)
    nus = rng.uniform(-30.0, 30.0, 40).tolist() + [20.0, -20.0, 0.0, -0.0]
    deltas = rng.uniform(0.0, 5.0, 40).tolist() + [0.0, 0.5, 0.0, 1e-300]
    for critic in (OptStopCriticFeatures(params), OptStopCriticFeatures(params, include_s=False),
                   OptStopCriticFeatures(params, centers_per_dim=3, s_range=(-5.0, 9.0),
                                         width_scale=0.7)):
        for nu, dk in zip(nus, deltas):
            pair = critic.at_initial((nu + dk, nu - dk))
            singles = np.stack([critic.at_initial(nu + dk), critic.at_initial(nu - dk)])
            assert pair.shape == (2, critic.dim) and pair.tobytes() == singles.tobytes()
        assert critic.at_initial([1.5]).tobytes() == critic.at_initial(1.5).tobytes()


def test_budget_blind_maps_keep_their_rows():
    # a budget-blind map builds a state's features once and hands out the same
    # read-only array on every revisit; a budget-aware one builds them afresh
    params = OptStopParams(p_h=0.01, f_d=0.7, p=0.4)
    policy = OptStopPolicyFeatures(params, include_s=False, scale=0.125)
    critic = OptStopCriticFeatures(params, include_s=False)
    x = OptStopState(0.7, 1)
    row = critic.rbf([critic.c_axis.unit(0.7), 1 / params.T])
    expected = (action_blocks(0.125 * row, 2), np.concatenate([row, np.zeros(3)]))
    for featurize, built in zip((policy.per_action, critic), expected):
        first = featurize(x)
        assert _same_bits(first, built)
        # the budget of an augmented state does not enter the key
        assert featurize(OptStopState(0.7, 1)) is first
        assert featurize(AugState(OptStopState(0.7, 1), 3.0)) is first
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[..., 0] = 1.0
        assert featurize(OptStopState(0.7, 2)) is not first
    # the policy's row read from the critic's is kept the same way
    shared = OptStopPolicyFeatures(params, include_s=False, scale=0.125)
    kept = shared.per_action(x, critic(x))
    assert _same_bits(kept, policy.per_action(x)) and shared.per_action(x) is kept
    aware = OptStopCriticFeatures(params)
    state = AugState(x, 3.0)
    assert aware(state) is not aware(state) and aware(state).flags.writeable
    aware_policy = OptStopPolicyFeatures(params, include_s=True)
    assert aware_policy.per_action(state) is not aware_policy.per_action(state)


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


@pytest.mark.parametrize("params, centers", [
    (OptStopParams(p_h=0.01, f_d=0.7, p=0.4), 4), (PAPER, 4), (PAPER, 3)])
def test_budget_aware_critic_rows_equal_the_grid_rows(params, centers):
    # a budget-aware critic adds each state's budget term to the cost and step
    # terms it keeps by (c, k); every row of every reachable cost must still
    # equal RbfGrid.batch's row and the knot hinges, sign bits included
    critic = OptStopCriticFeatures(params, centers_per_dim=centers)
    lo, hi = critic.s_axis.lo, critic.s_axis.hi
    budgets = [0.0, -0.0, -7.3, 0.4, 13.0, lo, hi, lo - 5.0, hi + 5.0, -1e300, 1e300]
    nb, ni = critic.rbf.n_features, critic.n_interior
    c = np.concatenate(cost_table(params)[0])
    k = np.repeat(np.arange(params.T + 1), [len(ck) for ck in cost_table(params)[0]])
    for s in budgets:  # every (c, k) is kept from the first budget on
        z = np.stack(critic._unit_inputs(c, k, np.full(len(c), s)), axis=1)
        expected = np.zeros((len(c), critic.dim))
        expected[:, :nb] = critic.rbf.batch(z)
        expected[:, nb:ni] = np.maximum(critic.knots - s / c[:, None], 0.0)
        rows = np.array([critic(AugState(OptStopState(ci, ki), s))
                         for ci, ki in zip(c.tolist(), k.tolist())])
        assert rows.tobytes() == expected.tobytes()
        assert critic.at_initial(s).tobytes() == expected[0].tobytes()
    for a, b in itertools.product(budgets, repeat=2):
        pair = critic.at_initial((a, b))
        assert pair.tobytes() == np.stack([critic.at_initial(a), critic.at_initial(b)]).tobytes()
    assert len(critic._cost_step_d2) == len(c)
    with pytest.raises(ValueError):
        critic._cost_step_d2[params.c0, 0][0, 0] = 0.0


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
