from collections import Counter

import numpy as np
import pytest

from cvarpg import policy
from cvarpg.errors import InputError, SimulationError
from cvarpg.lattice import kept_lattice
from cvarpg.optstop import (
    OptStopParams, OptStopPolicyFeatures, enumerate_loss_distribution, rollout_batch,
    rollout_batch_augmented,
)
from cvarpg.policy import action_probabilities, action_scores, grad_log_prob, sample_action


def test_uniform_at_zero_parameters():
    feats = np.array([[1.0, 0.0], [0.0, 1.0]])
    probs = action_probabilities(np.zeros(2), feats)
    assert probs == pytest.approx([0.5, 0.5], abs=1e-15)


def test_hand_softmax():
    feats = np.array([[np.log(2.0)], [0.0]])
    probs = action_probabilities(np.array([1.0]), feats)
    assert probs == pytest.approx([2.0 / 3.0, 1.0 / 3.0], abs=1e-12)


def test_single_action():
    probs = action_probabilities(np.array([3.0]), np.array([[7.0]]))
    assert probs == pytest.approx([1.0])
    assert grad_log_prob(np.array([[7.0]]), probs, 0) == pytest.approx([0.0])


def test_probabilities_sum_and_positivity():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n, d = rng.integers(1, 6), rng.integers(1, 8)
        feats = rng.normal(0, 3, (n, d))
        theta = rng.normal(0, 3, d)
        probs = action_probabilities(theta, feats)
        assert abs(probs.sum() - 1.0) < 1e-12
        assert np.all(probs > 0.0)


def test_overflow_safety():
    feats = np.array([[1000.0], [-1000.0]])
    probs = action_probabilities(np.array([10.0]), feats)
    assert np.all(np.isfinite(probs))
    assert probs.sum() == pytest.approx(1.0)


def test_grad_log_prob_hand_case():
    feats = np.array([[1.0, 0.0], [0.0, 1.0]])
    g = grad_log_prob(feats, action_probabilities(np.zeros(2), feats), 0)
    assert g == pytest.approx([0.5, -0.5], abs=1e-15)


def test_grad_normalization_identity():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n, d = rng.integers(2, 5), rng.integers(2, 6)
        feats = rng.normal(0, 2, (n, d))
        theta = rng.normal(0, 2, d)
        probs = action_probabilities(theta, feats)
        total = sum(probs[a] * grad_log_prob(feats, probs, a) for a in range(n))
        assert np.allclose(total, 0.0, atol=1e-12)


def test_grad_matches_finite_differences():
    rng = np.random.default_rng(2)
    h = 1e-5
    for _ in range(30):
        n, d = rng.integers(2, 5), rng.integers(2, 6)
        feats = rng.normal(0, 1.5, (n, d))
        theta = rng.normal(0, 1.5, d)
        a = int(rng.integers(n))
        g = grad_log_prob(feats, action_probabilities(theta, feats), a)
        for i in range(d):
            e = np.zeros(d)
            e[i] = h
            lp_plus = np.log(action_probabilities(theta + e, feats)[a])
            lp_minus = np.log(action_probabilities(theta - e, feats)[a])
            fd = (lp_plus - lp_minus) / (2 * h)
            assert fd == pytest.approx(g[i], rel=1e-6, abs=1e-8)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n, d = rng.integers(2, 5), rng.integers(2, 6)
        feats = rng.normal(0, 2, (n, d))
        theta = rng.normal(0, 2, d)
        shift = rng.normal(0, 5, d)
        p1 = action_probabilities(theta, feats)
        p2 = action_probabilities(theta, feats + shift)
        assert np.allclose(p1, p2, atol=1e-12)


def test_sample_action_inverse_cdf():
    probs = action_probabilities(np.array([0.0]), np.array([[1.0], [0.0]]))  # uniform
    assert sample_action(probs, 0.2) == 0
    assert sample_action(probs, 0.7) == 1
    assert sample_action(probs, 0.999999) == 1


def test_batch_equals_one_decision_at_a_time(monkeypatch):
    # any leading axes are independent decisions, computed bit for bit as
    # one decision alone: the draw by inverse CDF, the score at the drawn
    # action. One decision of fewer than _SEQUENTIAL_SUM actions, a float
    # uniform and an int action take the one-decision branch
    taken = Counter()
    for name in ("_one_softmax", "_one_draw"):
        monkeypatch.setattr(policy, name, _counted(taken, name, getattr(policy, name)))
    rng = np.random.default_rng(4)
    for n in (1, 2, 3, 5, 8, 9):
        feats = rng.normal(0, 2, (4, 3, n, 6))
        theta = rng.normal(0, 2, 6)
        u = rng.random((4, 3))
        taken.clear()
        probs = action_probabilities(theta, feats)
        actions = sample_action(probs, u)
        scores = grad_log_prob(feats, probs, actions)
        assert not taken  # the batched inputs never take the one-decision branch
        assert probs.shape == (4, 3, n) and actions.shape == (4, 3) and scores.shape == (4, 3, 6)
        for i in np.ndindex(4, 3):
            one = action_probabilities(theta, feats[i])
            assert np.array_equal(probs[i], one)
            # u as a Python float and as np.float64; a 0-d array takes the batch path
            for ui in (float(u[i]), u[i], np.array(u[i])):
                a = sample_action(one, ui)
                assert isinstance(a, int)
                assert a == actions[i]
                assert a == min(int(np.searchsorted(np.cumsum(one), ui, side="right")), n - 1)
                assert np.array_equal(scores[i], grad_log_prob(feats[i], one, a))
        branch = n < policy._SEQUENTIAL_SUM
        assert taken == Counter(_one_softmax=12 if branch else 0, _one_draw=24)
        # every action's score at once, as the drawn action's score
        every = action_scores(feats, probs)
        assert every.shape == feats.shape
        for a in range(n):
            assert np.array_equal(every[..., a, :], grad_log_prob(feats, probs, np.full((4, 3), a)))
            assert np.array_equal(every[0, 0, a], grad_log_prob(feats[0, 0], probs[0, 0], a))
        # a Python-int action outside the support is refused on either path
        for bad in (-1, n):
            with pytest.raises(InputError):
                grad_log_prob(feats[0, 0], probs[0, 0], bad)
            with pytest.raises(InputError):
                grad_log_prob(feats, probs, np.full((4, 3), bad))


def _counted(counter, name, fn):
    def counted(*args):
        counter[name] += 1
        return fn(*args)
    return counted


@pytest.mark.parametrize("n", [1, 2, 3])
def test_non_finite_logits_raise_on_one_decision_and_batch(n):
    rng = np.random.default_rng(5)
    feats = rng.normal(0, 2, (n, 6))
    theta = rng.normal(0, 2, 6)
    cases = []
    for bad in (np.inf, -np.inf, np.nan):
        t, f = theta.copy(), feats.copy()
        t[0] = bad
        f[-1, 0] = bad
        cases += [(t, feats), (theta, f)]
    if n > 1:
        # finite logits whose difference overflows to -inf after stabilization
        cases.append((np.array([1.0]), np.array([[1e308]] * (n - 1) + [[-1e308]])))
    for t, f in cases:
        with pytest.raises(SimulationError):
            action_probabilities(t, f)
        # the batch path's numpy subtraction warns of inf - inf or overflow before it raises
        with np.errstate(invalid="ignore", over="ignore"), pytest.raises(SimulationError):
            action_probabilities(t, f[None])


def test_batched_kernels_never_take_the_one_decision_branch(monkeypatch):
    def refused(*args):
        raise AssertionError("one-decision branch taken by a batched call")

    monkeypatch.setattr(policy, "_one_softmax", refused)
    monkeypatch.setattr(policy, "_one_draw", refused)
    params = OptStopParams(T=8, p_h=0.01, f_d=0.7, p=0.4)
    rng = np.random.default_rng(6)
    for include_s in (False, True):
        feats = OptStopPolicyFeatures(params, include_s=include_s)
        theta = rng.normal(0, 1, feats.dim)
        u = rng.random((50, 2 * params.T))
        if include_s:
            batch = rollout_batch_augmented(feats, theta, 0.5, u)
        else:
            batch = rollout_batch(feats, theta, u)
        assert batch.losses.shape == (50,)
        rule = kept_lattice(params).node_rule(feats, theta, 0.5 if include_s else None)
        assert rule.shape == (params.T + 1, params.T + 1)
        if not include_s:
            assert len(enumerate_loss_distribution(feats, theta, params)) > 0


def test_grad_log_prob_refuses_actions_outside_support():
    feats = np.eye(2)
    probs = action_probabilities(np.zeros(2), feats)
    for bad in (-1, 2):
        with pytest.raises(InputError):
            grad_log_prob(feats, probs, bad)
    with pytest.raises(InputError):
        grad_log_prob(feats[None], probs[None], np.array([2]))
