import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvarpg.errors import InputError
from cvarpg.risk import (
    EmpiricalDistribution,
    RiskSpec,
    cvar,
    h_alpha,
    tail_probability,
    value_at_risk,
)
from oracles import cvar_oracle

UNIFORM4 = EmpiricalDistribution([1.0, 2.0, 3.0, 4.0])


def test_value_at_risk_order_statistic():
    assert value_at_risk(UNIFORM4, 0.75) == 3.0
    assert value_at_risk(UNIFORM4, 0.76) == 4.0
    assert value_at_risk(EmpiricalDistribution([5.0, 5.0, 5.0]), 0.9) == 5.0


def test_value_at_risk_with_duplicates():
    dist = EmpiricalDistribution([1.0, 1.0, 2.0])
    assert value_at_risk(dist, 0.4) == 1.0
    assert value_at_risk(dist, 0.7) == 2.0


def test_h_alpha_direct_sums():
    assert h_alpha(UNIFORM4, 3.0, 0.75) == pytest.approx(4.0, abs=1e-12)
    assert h_alpha(UNIFORM4, 2.0, 0.75) == pytest.approx(5.0, abs=1e-12)
    # positive part vanishes at or above the max sample
    assert h_alpha(UNIFORM4, 4.0, 0.3) == 4.0
    assert h_alpha(UNIFORM4, 7.5, 0.3) == 7.5


def test_cvar_minimizes_surrogate():
    assert cvar(UNIFORM4, 0.75) == pytest.approx(4.0, abs=1e-12)
    assert cvar(EmpiricalDistribution([5.0, 5.0, 5.0]), 0.42) == 5.0
    # alpha -> 0 limit recovers the mean
    assert cvar(UNIFORM4, 1e-9) == pytest.approx(2.5, abs=1e-6)


def test_cvar_oracle_grid_scan():
    grid = np.arange(1.0, 4.0 + 1e-9, 0.01)
    assert cvar_oracle(UNIFORM4, 0.75, grid) == pytest.approx(4.0, abs=0.04)
    assert cvar_oracle(EmpiricalDistribution([5.0]), 0.5, [5.0]) == 5.0
    two = EmpiricalDistribution([0.0, 10.0])
    assert cvar_oracle(two, 0.5, np.arange(0.0, 10.001, 0.01)) == pytest.approx(10.0, abs=0.02)


def test_tail_probability():
    dist = EmpiricalDistribution([1.0, 3.0])
    assert tail_probability(dist, 2.0) == 0.5
    assert tail_probability(dist, 3.5) == 0.0
    assert tail_probability(dist, 1.0) == 1.0


def _random_dist(rng):
    n = rng.integers(1, 21)
    samples = rng.normal(0.0, 3.0, n)
    if rng.random() < 0.5:
        w = rng.random(n)
        weights = w / w.sum()
    else:
        weights = None
    return EmpiricalDistribution(samples, weights)


def test_cvar_matches_oracle_on_random_distributions():
    rng = np.random.default_rng(7)
    for _ in range(200):
        dist = _random_dist(rng)
        alpha = rng.uniform(0.1, 0.95)
        lo, hi = dist.samples.min(), dist.samples.max()
        grid = np.linspace(lo, hi, max(2, int((hi - lo) / 1e-3) + 1))
        tol = 1e-3 / (1.0 - alpha) + 1e-9
        assert abs(cvar(dist, alpha) - cvar_oracle(dist, alpha, grid)) <= tol


def test_cvar_dominates_var_and_mean():
    rng = np.random.default_rng(11)
    for _ in range(200):
        dist = _random_dist(rng)
        alpha = rng.uniform(0.05, 0.95)
        c = cvar(dist, alpha)
        assert c >= value_at_risk(dist, alpha) - 1e-12
        assert c >= dist.mean() - 1e-12


def test_h_alpha_convex_in_nu():
    rng = np.random.default_rng(13)
    for _ in range(200):
        dist = _random_dist(rng)
        alpha = rng.uniform(0.05, 0.95)
        nu1, nu2 = rng.normal(0, 5, 2)
        t = rng.random()
        mid = h_alpha(dist, t * nu1 + (1 - t) * nu2, alpha)
        chord = t * h_alpha(dist, nu1, alpha) + (1 - t) * h_alpha(dist, nu2, alpha)
        assert mid <= chord + 1e-12


def test_cvar_equals_strict_tail_mean_at_atom_boundaries():
    # with distinct samples and alpha = k/n the alpha-tail carries no
    # partial atom, so CVaR is exactly the mean of the n-k largest samples
    rng = np.random.default_rng(17)
    for _ in range(100):
        n = int(rng.integers(5, 40))
        samples = np.sort(rng.normal(0, 2, n))
        dist = EmpiricalDistribution(samples)
        k = int(rng.integers(1, n))
        alpha = k / n
        assert cvar(dist, alpha) == pytest.approx(samples[k:].mean(), abs=1e-9)


def test_cvar_near_tail_conditional_mean_off_boundaries():
    # away from boundaries the tail splits one atom, so the conditional
    # mean E[Z | Z >= VaR] matches CVaR only up to that atom's weight
    rng = np.random.default_rng(18)
    for _ in range(100):
        n = int(rng.integers(10, 60))
        samples = np.sort(rng.normal(0, 2, n))
        dist = EmpiricalDistribution(samples)
        k = int(rng.integers(1, n - 1))
        alpha = (k + 0.5) / n
        var = value_at_risk(dist, alpha)
        tail = samples[samples >= var]
        spread = samples.max() - samples.min()
        bound = spread / (n * (1.0 - alpha)) + 1e-12
        assert abs(cvar(dist, alpha) - tail.mean()) <= bound


def test_cvar_scaling_and_translation():
    rng = np.random.default_rng(19)
    for _ in range(100):
        dist = _random_dist(rng)
        alpha = rng.uniform(0.05, 0.95)
        c = rng.uniform(0.1, 5.0)
        b = rng.normal(0, 3.0)
        base = cvar(dist, alpha)
        scaled = EmpiricalDistribution(c * dist.samples, dist.weights)
        shifted = EmpiricalDistribution(dist.samples + b, dist.weights)
        assert cvar(scaled, alpha) == pytest.approx(c * base, rel=1e-12, abs=1e-12)
        assert cvar(shifted, alpha) == pytest.approx(base + b, rel=1e-12, abs=1e-12)


def test_cvar_at_scale_matches_sorted_tail_mean():
    # n^2 doubles would be 320 GB here, so this size also pins O(n) memory
    n, alpha = 200_000, 0.9123456
    samples = np.random.default_rng(23).lognormal(0.0, 0.5, n)
    assert np.unique(samples).size == n
    # the top n (1 - alpha) samples, the last of them taken in part
    top = np.sort(samples)[::-1]
    take = np.clip(n * (1.0 - alpha) - np.arange(n), 0.0, 1.0)
    assert 0.0 < take[take < 1.0].max() < 1.0  # the boundary atom is split
    expected = (take @ top) / (n * (1.0 - alpha))
    assert cvar(EmpiricalDistribution(samples), alpha) == pytest.approx(expected, rel=1e-12)


_SAMPLE = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
_ALPHA = st.floats(0.01, 0.99)


@st.composite
def _distributions(draw):
    samples = draw(st.lists(_SAMPLE, min_size=1, max_size=30))
    if draw(st.booleans()):
        return EmpiricalDistribution(samples)
    w = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=len(samples),
                               max_size=len(samples))))
    return EmpiricalDistribution(samples, w / w.sum())


def _tol(dist, alpha, scale=0.0):
    # round-off of one weighted sum of len(dist) terms, divided by 1 - alpha
    magnitude = np.abs(dist.samples).max() + abs(scale) + 1.0
    return 1e-13 * len(dist) * magnitude / (1.0 - alpha)


@settings(deadline=None)
@given(_distributions(), _ALPHA, _SAMPLE)
def test_cvar_translation_equivariant(dist, alpha, b):
    shifted = EmpiricalDistribution(dist.samples + b, dist.weights)
    assert cvar(shifted, alpha) == pytest.approx(cvar(dist, alpha) + b, rel=0.0,
                                                 abs=_tol(dist, alpha, b))


@settings(deadline=None)
@given(_distributions(), _ALPHA, st.floats(0.1, 10.0))
def test_cvar_positively_homogeneous(dist, alpha, c):
    scaled = EmpiricalDistribution(c * dist.samples, dist.weights)
    assert cvar(scaled, alpha) == pytest.approx(c * cvar(dist, alpha), rel=0.0,
                                                abs=c * _tol(dist, alpha))


@settings(deadline=None)
@given(_distributions(), _ALPHA, st.data())
def test_cvar_monotone(dist, alpha, data):
    bump = data.draw(st.lists(st.floats(0.0, 1e3), min_size=len(dist), max_size=len(dist)))
    larger = EmpiricalDistribution(dist.samples + np.array(bump), dist.weights)
    assert cvar(larger, alpha) >= cvar(dist, alpha) - _tol(larger, alpha)


@settings(deadline=None)
@given(_distributions(), _ALPHA)
def test_cvar_between_mean_and_max_and_minimizes_over_atoms(dist, alpha):
    value, tol = cvar(dist, alpha), _tol(dist, alpha)
    assert dist.mean() - tol <= value <= dist.samples.max() + tol
    # H at VaR is the minimum of H over every atom
    assert value == pytest.approx(cvar_oracle(dist, alpha, dist.samples), rel=0.0, abs=tol)


def test_input_validation():
    with pytest.raises(InputError):
        EmpiricalDistribution([])
    with pytest.raises(InputError):
        EmpiricalDistribution([1.0, np.inf])
    with pytest.raises(InputError):
        EmpiricalDistribution([1.0, 2.0], [0.7, 0.7])
    with pytest.raises(InputError):
        EmpiricalDistribution([1.0, 2.0], [-0.1, 1.1])
    with pytest.raises(InputError):
        value_at_risk(UNIFORM4, 1.0)
    with pytest.raises(InputError):
        cvar(UNIFORM4, 0.0)
    with pytest.raises(InputError):
        cvar_oracle(UNIFORM4, 0.5, [])


def test_risk_spec_validation():
    RiskSpec(0.9, 1.9, 1000.0, 0.95)
    with pytest.raises(InputError):
        RiskSpec(1.0, 1.9, 1000.0, 0.95)
    with pytest.raises(InputError):
        RiskSpec(0.9, 1.9, 0.0, 0.95)
    with pytest.raises(InputError):
        RiskSpec(0.9, 1.9, 10.0, 1.0)
    with pytest.raises(InputError):
        RiskSpec(0.9, np.nan, 10.0, 0.9)


_MOMENTS = """
import numpy as np
from cvarpg.risk import EmpiricalDistribution, cvar
dist = EmpiricalDistribution(np.random.default_rng(7).lognormal(0.0, 1.0, 20_001))
print(dist.mean().hex(), dist.variance().hex(), cvar(dist, 0.9).hex())
"""


def test_moments_do_not_hang_on_the_blas_thread_count():
    # OpenBLAS threads a dot of more than 10 000 terms, and its split moves
    # the last bits with the thread count; the risk reductions must not
    import cvarpg

    src = str(Path(cvarpg.__file__).resolve().parents[1])
    out = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        res = subprocess.run([sys.executable, "-c", _MOMENTS], env=env, capture_output=True,
                             text=True, check=True)
        out.append(res.stdout)
    assert out[0] == out[1] and out[0].count("0x") == 3


def test_long_dots_keep_the_bits_of_one_blas_call_up_to_10000_terms():
    rng = np.random.default_rng(8)
    for n in (1, 9_999, 10_000):
        dist = EmpiricalDistribution(rng.lognormal(0.0, 1.0, n))
        assert dist.mean() == float(dist.weights @ dist.samples)
        assert dist.variance() == float(dist.weights @ (dist.samples - dist.mean()) ** 2)
        nu = float(np.median(dist.samples))
        assert h_alpha(dist, nu, 0.9) == float(
            nu + (dist.weights @ np.maximum(dist.samples - nu, 0.0)) / (1.0 - 0.9))
    # longer dots add chunks of 10 000 in order
    dist = EmpiricalDistribution(rng.lognormal(0.0, 1.0, 25_000))
    w, x = dist.weights, dist.samples
    assert dist.mean() == (float(w[:10_000] @ x[:10_000]) + float(w[10_000:20_000] @ x[10_000:20_000])
                           + float(w[20_000:] @ x[20_000:]))
