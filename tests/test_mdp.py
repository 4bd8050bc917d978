import numpy as np
import pytest

from cvarpg.errors import InputError, SimulationError
from cvarpg.mdp import AugmentedCostMode, AugmentedEnv, AugState
from cvarpg.risk import RiskSpec
from cvarpg.seeding import substream
from oracles import (
    FiniteMDP, TabularPolicyFeatures, augmented_loss_identity, discounted_loss,
    enumerate_trajectories, make_random_terminating_mdp, rollout,
)


class FixedCostChain:
    """Deterministic single-action chain with a given cost sequence."""

    def __init__(self, costs):
        self.costs = list(costs)

    def initial_state(self):
        return 0

    def n_actions(self, state):
        return 1

    def step(self, state, action, rng):
        done = state == len(self.costs) - 1
        return (None if done else state + 1, self.costs[state], done)

    def branches(self, state, action):
        done = state == len(self.costs) - 1
        return [(1.0, None if done else state + 1, self.costs[state], done)]


class NoFeatures:
    def per_action(self, state):
        return np.zeros((1, 1))


def test_rollout_single_step():
    traj = rollout(FixedCostChain([2.0]), NoFeatures(), np.zeros(1),
                   substream(0, "t"), horizon_cap=10, gamma=0.9)
    assert traj.length == 1
    assert traj.loss == 2.0


def test_rollout_discounted_loss():
    traj = rollout(FixedCostChain([1.0, 1.0, 1.0]), NoFeatures(), np.zeros(1),
                   substream(0, "t"), horizon_cap=10, gamma=0.5)
    assert traj.loss == pytest.approx(1.75, abs=1e-12)
    # recompute from recorded costs
    assert traj.loss == pytest.approx(discounted_loss(traj.costs, 0.5), abs=1e-12)


def test_rollout_horizon_cap_and_bad_cost():
    class Endless:
        def initial_state(self):
            return 0

        def n_actions(self, state):
            return 1

        def step(self, state, action, rng):
            return state, 1.0, False

    traj = rollout(Endless(), NoFeatures(), np.zeros(1), substream(0, "t"), 5, 0.9)
    assert traj.length == 5

    class BadCost(Endless):
        def step(self, state, action, rng):
            return state, np.nan, False

    with pytest.raises(SimulationError):
        rollout(BadCost(), NoFeatures(), np.zeros(1), substream(0, "t"), 5, 0.9)
    with pytest.raises(InputError):
        rollout(Endless(), NoFeatures(), np.zeros(1), substream(0, "t"), 0, 0.9)


def test_budget_dynamics_exact():
    risk = RiskSpec(0.5, 1.0, 10.0, 0.95)
    aug = AugmentedEnv(FixedCostChain([1.0, 0.5]), 1.0, risk, AugmentedCostMode.STANDARD, s0=1.0)
    state = aug.initial_state()
    st = aug.step_full(state, 0, substream(0, "t"))
    assert st.next_state.s == pytest.approx(0.0, abs=0.0)
    st2 = aug.step_full(AugState(1, 1.0), 0, substream(0, "t"))
    assert st2.next_state.s == pytest.approx(10.0 / 19.0, abs=1e-15)


def test_terminal_penalty_standard_mode():
    risk = RiskSpec(0.5, 1.0, 10.0, 0.95)
    aug = AugmentedEnv(FixedCostChain([2.0]), 2.0, risk, AugmentedCostMode.STANDARD, s0=1.0)
    terminal = AugState(None, -1.0, at_terminal=True)
    st = aug.step_full(terminal, 0, substream(0, "t"))
    assert st.cost == pytest.approx(4.0)  # 2 * 1 / 0.5
    assert st.done


def test_loss_identity_hand_case():
    # one step of cost 2, s0 = 1, gamma = 0.95, lambda = 1, alpha = 0.5
    risk = RiskSpec(0.5, 1.0, 10.0, 0.95)
    aug = AugmentedEnv(FixedCostChain([2.0]), 1.0, risk, AugmentedCostMode.STANDARD, s0=1.0)
    traj = rollout(aug, NoFeatures(), np.zeros(1), substream(0, "t"), 10, 0.95)
    lhs, rhs = augmented_loss_identity(traj, 1.0, 1.0, 0.5, 0.95)
    assert lhs == pytest.approx(4.0, abs=1e-12)
    assert rhs == pytest.approx(4.0, abs=1e-12)


def test_loss_identity_slack_budget():
    risk = RiskSpec(0.5, 1.0, 10.0, 0.9)
    aug = AugmentedEnv(FixedCostChain([1.0]), 3.0, risk, AugmentedCostMode.STANDARD, s0=5.0)
    traj = rollout(aug, NoFeatures(), np.zeros(1), substream(0, "t"), 10, 0.9)
    lhs, rhs = augmented_loss_identity(traj, 5.0, 3.0, 0.5, 0.9)
    assert rhs == pytest.approx(1.0)  # positive part vanishes, rhs = D
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_loss_identity_zero_costs():
    risk = RiskSpec(0.5, 1.0, 10.0, 0.9)
    aug = AugmentedEnv(FixedCostChain([0.0, 0.0]), 2.0, risk, AugmentedCostMode.STANDARD, s0=0.0)
    traj = rollout(aug, NoFeatures(), np.zeros(1), substream(0, "t"), 10, 0.9)
    lhs, rhs = augmented_loss_identity(traj, 0.0, 2.0, 0.5, 0.9)
    assert lhs == 0.0 and rhs == 0.0


def test_loss_identity_randomized():
    rng = np.random.default_rng(23)
    fmap = None
    for trial in range(300):
        env = make_random_terminating_mdp(rng)
        gamma = float(rng.uniform(0.5, 0.99))
        alpha = float(rng.uniform(0.05, 0.95))
        lam = float(rng.uniform(0.0, 3.0))
        s0 = float(rng.uniform(-2.0, 5.0))
        risk = RiskSpec(alpha, 1.0, 10.0, gamma)
        aug = AugmentedEnv(env, lam, risk, AugmentedCostMode.STANDARD, s0=s0)
        fmap = TabularPolicyFeatures(6, 2)
        theta = rng.normal(0, 1, fmap.dim)
        traj = rollout(aug, fmap, theta, substream(trial, "id"), 500, gamma)
        lhs, rhs = augmented_loss_identity(traj, s0, lam, alpha, gamma)
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_zeroed_mode_isolates_excess():
    rng = np.random.default_rng(29)
    for trial in range(100):
        env = make_random_terminating_mdp(rng)
        gamma = float(rng.uniform(0.5, 0.99))
        alpha = float(rng.uniform(0.05, 0.95))
        s0 = float(rng.uniform(-2.0, 5.0))
        risk = RiskSpec(alpha, 1.0, 10.0, gamma)
        aug = AugmentedEnv(env, 1.7, risk, AugmentedCostMode.ZEROED, s0=s0)
        fmap = TabularPolicyFeatures(6, 2)
        theta = rng.normal(0, 1, fmap.dim)
        rng_roll = substream(trial, "z")
        traj = rollout(aug, fmap, theta, rng_roll, 500, gamma)
        # raw loss must be recomputed from the environment cost sequence
        env_costs = []
        s = s0
        for cost in traj.costs[:-1]:
            env_costs.append(cost)
        assert np.all(np.asarray(env_costs) == 0.0)
        # reconstruct D from the budget recursion instead
        s_terminal = traj.states[-2].s if len(traj.states) >= 2 else s0
        d = s0 - s_terminal * gamma ** (traj.length - 1)
        total = discounted_loss(traj.costs, gamma)
        assert total == pytest.approx(max(d - s0, 0.0) / (1.0 - alpha), abs=1e-9)


def test_budget_replay_bit_exact():
    rng = np.random.default_rng(31)
    env = make_random_terminating_mdp(rng)
    gamma = 0.7
    risk = RiskSpec(0.5, 1.0, 10.0, gamma)
    aug = AugmentedEnv(env, 1.0, risk, AugmentedCostMode.STANDARD, s0=2.0)
    fmap = TabularPolicyFeatures(6, 2)
    theta = rng.normal(0, 1, fmap.dim)
    traj = rollout(aug, fmap, theta, substream(0, "r"), 500, gamma)
    s = 2.0
    for state, cost in zip(traj.states[1:], traj.costs[:-1]):
        s = (s - cost) / gamma
        assert state.s == s  # bit-exact replay of the recursion


def test_loss_invariant_under_sink_padding():
    costs = np.array([1.0, 2.0, 0.5])
    padded = np.concatenate([costs, np.zeros(7)])
    assert discounted_loss(costs, 0.9) == discounted_loss(padded, 0.9)


def test_finite_mdp_validation():
    with pytest.raises(InputError):
        FiniteMDP({0: [[(0.5, 0), (0.4, 1)]]}, {(0, 0): 1.0}, terminal={1})


def test_enumeration_matches_rollout_statistics(diamond, diamond_features):
    theta = np.zeros(diamond_features.dim)
    trajs = enumerate_trajectories(diamond, diamond_features, theta, 0.5, 10)
    probs = np.array([p for p, _ in trajs])
    assert len(trajs) == 10
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    # empirical frequencies over many rollouts agree with enumerated masses
    losses = {}
    for p, t in trajs:
        losses[t.loss] = losses.get(t.loss, 0.0) + p
    n = 40_000
    counts = {}
    for j in range(n):
        t = rollout(diamond, diamond_features, theta, substream(5, "mc", j), 10, 0.5)
        counts[t.loss] = counts.get(t.loss, 0) + 1
    for loss, p in losses.items():
        observed = counts.get(loss, 0)
        sigma = np.sqrt(n * p * (1 - p))
        assert abs(observed - n * p) <= 4.0 * sigma + 1e-9
