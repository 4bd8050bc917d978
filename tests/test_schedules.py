import math

import numpy as np
import pytest

from cvarpg.errors import InputError
from cvarpg.schedules import (
    Box,
    CapController,
    Decision,
    Iterate,
    PerturbationSchedule,
    StepSchedule,
    check_separation,
    lambda_max_controller,
    relative_change,
)

PG_ZETAS = (
    StepSchedule(0.1, 1.0),
    StepSchedule(0.05, 0.8),
    StepSchedule(0.01, 0.55),
)
AC_ZETAS = (
    StepSchedule(1.0, 1.0),
    StepSchedule(1.0, 0.85),
    StepSchedule(0.5, 0.7),
    StepSchedule(0.5, 0.55),
)
AC_DELTA = PerturbationSchedule(0.5, 0.1)


def test_step_values():
    assert StepSchedule(0.1, 1.0)(10) == pytest.approx(0.01)
    assert StepSchedule(0.05, 0.8)(1) == 0.05
    with pytest.raises(InputError):
        StepSchedule(0.1, 1.0)(0)


def test_schedule_validation():
    with pytest.raises(InputError):
        StepSchedule(0.0, 0.8)
    with pytest.raises(InputError):
        StepSchedule(0.1, 0.5)
    with pytest.raises(InputError):
        StepSchedule(0.1, 1.1)


def test_timescale_separation_ratios():
    # slow/fast ratio shrinks below 0.1 by i = 1e6 and decreases monotonically
    for zetas in (PG_ZETAS, AC_ZETAS):
        slow, fast = zetas[0], zetas[-1]
        ratios = [slow(i) / fast(i) for i in (10, 10**3, 10**6)]
        assert ratios[0] > ratios[1] > ratios[2]
        assert ratios[2] < 0.1
    zeta1, zeta4 = AC_ZETAS[0], AC_ZETAS[-1]
    assert zeta1(10**6) / zeta4(10**6) < 1e-2


def test_timescale_stack_validation():
    check_separation(PG_ZETAS)
    check_separation(AC_ZETAS, AC_DELTA)
    with pytest.raises(InputError, match="strictly decrease"):
        check_separation((StepSchedule(0.1, 0.8), StepSchedule(0.1, 0.8)))
    with pytest.raises(InputError, match="perturbation decays too fast"):
        # perturbation decays too fast relative to the second schedule
        check_separation(
            (StepSchedule(0.1, 1.0), StepSchedule(0.1, 0.8)),
            PerturbationSchedule(0.5, 0.4),
        )


def test_spsa_delta_values():
    sched = PerturbationSchedule(0.5, 0.1)
    assert sched(1) == 0.5
    assert sched(1024) == pytest.approx(0.25, abs=1e-12)


def test_spsa_square_summability_tail():
    # spot-check of sum (zeta2/Delta)^2 < inf with the default constants:
    # terms decay like k^{-1.5}, so the increment at k = 1e6 is tiny and
    # the residual tail is bounded by the integral test
    zeta2, delta = AC_ZETAS[1], AC_DELTA
    term = lambda k: (zeta2(k) / delta(k)) ** 2
    assert term(10**6) < 1e-8
    ks = np.arange(10**5, 10**6, 997)
    assert all(term(int(a)) > term(int(b)) for a, b in zip(ks, ks[1:]))
    exponent = 2.0 * (zeta2.p - delta.p)
    tail_bound = (zeta2.c / delta.c) ** 2 * (10**5) ** (1.0 - exponent) / (exponent - 1.0)
    assert tail_bound < 0.1


def test_projection_examples():
    assert Box(0.0, 3.0).project(np.array([5.0]))[0] == 3.0
    box = Box(np.array([-60.0, -60.0]), np.array([60.0, 60.0]))
    assert np.array_equal(box.project(np.array([-100.0, 100.0])), [-60.0, 60.0])
    interior = np.array([1.5, -2.5])
    assert np.array_equal(box.project(interior), interior)


def test_projection_idempotent_and_nonexpansive():
    rng = np.random.default_rng(3)
    box = Box(np.array([-1.0, 0.0, 2.0]), np.array([1.0, 5.0, 2.5]))
    for _ in range(200):
        x = rng.normal(0, 4, 3)
        y = rng.uniform([-1.0, 0.0, 2.0], [1.0, 5.0, 2.5])
        px = box.project(x)
        assert np.array_equal(box.project(px), px)
        assert np.linalg.norm(px - y) <= np.linalg.norm(x - y) + 1e-12


def test_controller_double_when_pinned():
    lam_max = 10.0
    history = [lam_max] * 50
    assert lambda_max_controller(history, lam_max, window=50) is Decision.DOUBLE
    history = [lam_max * 0.995] * 50
    assert lambda_max_controller(history, lam_max, margin=0.01, window=50) is Decision.DOUBLE


def test_controller_accept_and_continue():
    lam_max = 10.0
    settled = [5.0 + 1e-7 * np.sin(i) for i in range(60)]
    assert lambda_max_controller(settled, lam_max, window=50) is Decision.ACCEPT
    wandering = [5.0 + np.sin(i) for i in range(60)]
    assert lambda_max_controller(wandering, lam_max, window=50) is Decision.CONTINUE
    # short history is never enough to decide
    assert lambda_max_controller([lam_max] * 10, lam_max, window=50) is Decision.CONTINUE


def test_controller_respects_params_converged_flag():
    settled = [5.0] * 60
    assert (
        lambda_max_controller(settled, 10.0, window=50, params_converged=False)
        is Decision.CONTINUE
    )


def test_controller_doubling_count_is_logarithmic():
    # a run whose multiplier needs lam_required doubles at most
    # ceil(log2(lam_required / lam_max0)) times
    lam_required = 37.0
    lam_max = 1.0
    doublings = 0
    for _ in range(100):
        lam = min(lam_required, lam_max)
        history = [lam] * 50
        decision = lambda_max_controller(history, lam_max, window=50)
        if decision is Decision.DOUBLE:
            lam_max *= 2.0
            doublings += 1
        else:
            break
    assert lam_max >= lam_required
    assert doublings <= math.ceil(math.log2(lam_required / 1.0))


def test_relative_change():
    assert relative_change([1.0], 5) == np.inf
    flat = [np.array([1.0, 2.0])] * 10
    assert relative_change(flat, 5) == 0.0

    def per_pair(history, window):
        tail = history[-(window + 1):]
        worst = 0.0
        for prev, cur in zip(tail, tail[1:]):
            prev, cur = np.atleast_1d(prev), np.atleast_1d(cur)
            num = float(np.max(np.abs(cur - prev)))
            worst = max(worst, num / (1.0 + float(np.max(np.abs(cur)))))
        return worst

    rng = np.random.default_rng(8)
    for _ in range(50):
        n, window = int(rng.integers(2, 80)), int(rng.integers(2, 60))
        scale = 10.0 ** rng.uniform(-6, 3)
        scalars = list(rng.normal(0.0, scale, n))
        vectors = list(rng.normal(0.0, scale, (n, int(rng.integers(1, 40)))))
        for history in (scalars, vectors):
            assert relative_change(history, window) == per_pair(history, window)


def test_cap_controller_doubles_and_starts_a_fresh_round():
    controller = CapController(2.0, window=5)
    theta = np.zeros(2)
    decisions = [controller.observe(theta, 1.0, 2.0) for _ in range(5)]
    assert decisions == [Decision.CONTINUE] * 4 + [Decision.DOUBLE]
    assert (controller.lambda_max, controller.doublings) == (4.0, 1)
    # the new round starts empty: a full window of settled iterates below
    # the new cap is accepted, with no trace of the jump from the old round
    decisions = [controller.observe(theta, 1.0, 3.0) for _ in range(5)]
    assert decisions == [Decision.CONTINUE] * 4 + [Decision.ACCEPT]
    # with a wide margin the old round's multipliers would pin the doubled cap
    wide = CapController(2.0, window=5, margin=0.6)
    for _ in range(5):
        wide.observe(theta, 1.0, 2.0)
    decisions = [wide.observe(theta, 1.0, 2.0) for _ in range(5)]
    assert decisions == [Decision.CONTINUE] * 4 + [Decision.DOUBLE]


def test_cap_controller_accepts_only_settled_parameters():
    controller = CapController(10.0, window=5)
    theta = np.zeros(2)
    # the multiplier is flat from the start, but theta still moves
    for i in range(10):
        assert controller.observe(theta + i, 1.0, 5.0) is Decision.CONTINUE
    decisions = [controller.observe(theta, 1.0, 5.0) for _ in range(6)]
    assert decisions == [Decision.CONTINUE] * 5 + [Decision.ACCEPT]


def test_cap_controller_risk_neutral_never_doubles():
    controller = CapController(1.0, window=5, risk_neutral=True)
    theta = np.zeros(2)
    # a multiplier pinned at the cap would double in a constrained run
    decisions = [controller.observe(theta, 0.0, 1.0) for _ in range(5)]
    assert decisions == [Decision.CONTINUE] * 4 + [Decision.ACCEPT]
    assert (controller.lambda_max, controller.doublings) == (1.0, 0)


def test_cap_controller_keeps_only_the_window_it_reads():
    window, rel_tol, margin = 5, 1e-3, 0.01
    controller = CapController(2.0, window, rel_tol, margin)
    # an untrimmed replay of the same tests, on the full histories of each cap
    lam_history, param_history, cap = [], [], 2.0
    rng = np.random.default_rng(9)
    decisions, replayed, longest = [], [], 0
    for i in range(500):
        phase = (i // 25) % 3
        if phase == 0:  # parameters and multiplier wander
            theta, lam = rng.normal(0.0, 1.0, 3), rng.uniform(0.0, cap)
        elif phase == 1:  # both settle below the cap
            theta, lam = 1.0 + rng.normal(0.0, 1e-6, 3), 0.3 + rng.normal(0.0, 1e-7)
        else:  # the multiplier pins the cap
            theta, lam = rng.normal(0.0, 1.0, 3), cap
        decisions.append(controller.observe(theta, 0.5, lam))
        longest = max(longest, len(controller._lam_history), len(controller._param_history))
        lam_history.append(lam)
        param_history.append(np.concatenate([theta, [0.5, lam]]))
        settled = (len(param_history) >= window
                   and relative_change(param_history, window) < rel_tol)
        replayed.append(lambda_max_controller(lam_history, cap, margin, window, rel_tol,
                                              settled))
        if replayed[-1] is Decision.DOUBLE:
            cap *= 2.0
            lam_history.clear()
            param_history.clear()
    assert decisions == replayed
    assert set(decisions) == set(Decision)
    assert longest <= window + 1
    assert controller.lambda_max == cap


def test_cap_controller_run_restarts_rounds_after_a_double():
    def learner():
        # the multiplier sits at the cap until the first doubling, then settles below it
        controller = CapController(2.0, window=3)
        rounds, iterates = [], []

        def step(i):
            rounds.append(i)
            iterates.append(Iterate(np.zeros(2), 1.0, 2.0 if controller.doublings == 0 else 3.0))
            return iterates[-1], {"round": i}

        return controller, step, rounds, iterates

    start = Iterate(np.ones(2), 0.5, 1.0)
    controller, step, rounds, iterates = learner()
    result = controller.run(step, start, tuning=10, cap=100)
    assert rounds == [1, 2, 3, 1, 2, 3]
    assert result.converged and result.iterate is iterates[-1]
    assert (result.lambda_max, result.doublings) == (4.0, 1)
    assert result.history == [
        {"iter": n, "nu": 1.0, "lambda": lam, "theta_norm": 0.0, "round": i}
        for n, (lam, i) in enumerate(zip([2.0] * 3 + [3.0] * 3, rounds), start=1)
    ]
    # the cap counts rounds across doublings
    controller, step, rounds, iterates = learner()
    result = controller.run(step, start, tuning=10, cap=4)
    assert rounds == [1, 2, 3, 1]
    assert not result.converged and result.iterate is iterates[-1]
    assert len(result.history) == 4
    # with no round run, the start iterate comes back
    for tuning, cap in ((0, 5), (5, 0)):
        controller, step, rounds, _ = learner()
        result = controller.run(step, start, tuning=tuning, cap=cap)
        assert rounds == [] and result.history == []
        assert result.iterate is start and not result.converged
