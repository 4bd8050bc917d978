import numpy as np
import pytest

from cvarpg.errors import InputError
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


def test_batch_equals_one_decision_at_a_time():
    # any leading axes are independent decisions, computed bit for bit as
    # one decision alone: the draw by inverse CDF, the score at the drawn action
    rng = np.random.default_rng(4)
    for n in (1, 2, 3, 5):
        feats = rng.normal(0, 2, (4, 3, n, 6))
        theta = rng.normal(0, 2, 6)
        u = rng.random((4, 3))
        probs = action_probabilities(theta, feats)
        actions = sample_action(probs, u)
        scores = grad_log_prob(feats, probs, actions)
        assert probs.shape == (4, 3, n) and actions.shape == (4, 3) and scores.shape == (4, 3, 6)
        for i in np.ndindex(4, 3):
            one = action_probabilities(theta, feats[i])
            a = sample_action(one, u[i])
            assert isinstance(a, int)
            assert np.array_equal(probs[i], one)
            assert a == actions[i]
            assert a == min(int(np.searchsorted(np.cumsum(one), u[i], side="right")), n - 1)
            assert np.array_equal(scores[i], grad_log_prob(feats[i], one, a))
        # every action's score at once, as the drawn action's score
        every = action_scores(feats, probs)
        assert every.shape == feats.shape
        for a in range(n):
            assert np.array_equal(every[..., a, :], grad_log_prob(feats, probs, np.full((4, 3), a)))


def test_grad_log_prob_refuses_actions_outside_support():
    feats = np.eye(2)
    probs = action_probabilities(np.zeros(2), feats)
    for bad in (-1, 2):
        with pytest.raises(InputError):
            grad_log_prob(feats, probs, bad)
    with pytest.raises(InputError):
        grad_log_prob(feats[None], probs[None], np.array([2]))
