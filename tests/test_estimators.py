"""Gradient estimator oracles: hand values, unbiasedness, bias and noise scaling."""

from __future__ import annotations

import re

import numpy as np
import pytest

from pertopt import (
    EstimatorConfig,
    ObjectiveError,
    estimate_gradient,
)


def sphere(theta):
    return float(np.dot(theta, theta))


class CountingObjective:
    def __init__(self, f):
        self.f = f
        self.calls = 0
        self.points = []

    def __call__(self, theta):
        self.calls += 1
        self.points.append(np.array(theta))
        return self.f(theta)


# ---------------------------------------------------------------- hand values


def test_fdsa_hand_value_on_sphere():
    est = estimate_gradient(
        sphere, np.array([1.0, 0.0]), EstimatorConfig("fdsa"), 0.1, None
    )
    # ((1.1)^2 - (0.9)^2) / 0.2 = 2 exactly; same for the zero coordinate
    np.testing.assert_allclose(est.g_hat, [2.0, 0.0], atol=1e-13)
    assert est.n_evaluations == 4


def test_fdsa_exact_on_random_quadratics():
    rng = np.random.default_rng(3)
    for _ in range(5):
        dim = int(rng.integers(1, 6))
        a = rng.standard_normal((dim, dim))
        h = a @ a.T  # symmetric
        b = rng.standard_normal(dim)
        theta = rng.standard_normal(dim)

        def quad(x):
            return 0.5 * float(x @ h @ x) + float(b @ x)

        est = estimate_gradient(quad, theta, EstimatorConfig("fdsa"), 0.05, None)
        np.testing.assert_allclose(est.g_hat, h @ theta + b, atol=1e-10)


def test_spsa_hand_values_forced_directions():
    # sphere at (1, 0): f(theta + c*delta) - f(theta - c*delta) = 4c*delta_0,
    # so the estimate is 2*delta_0 / delta, e.g. (2, 2) or (2, -2)
    theta = np.array([1.0, 0.0])
    seen = set()
    for seed in range(8):
        delta = 2.0 * np.random.default_rng(seed).integers(0, 2, size=2) - 1.0
        est = estimate_gradient(
            sphere, theta, EstimatorConfig("spsa"), 0.1, np.random.default_rng(seed)
        )
        np.testing.assert_allclose(est.g_hat, 2.0 * delta[0] / delta, atol=1e-13)
        assert est.n_evaluations == 2
        seen.add(tuple(delta[0] * delta))
    assert seen == {(1.0, 1.0), (1.0, -1.0)}


def test_rsgf_hand_value_forced_direction():
    # baseline f(1, 0) = 1, so the slope along u is 2*u_0 + c*|u|^2
    theta, c = np.array([1.0, 0.0]), 0.1
    f = CountingObjective(sphere)
    u = np.random.default_rng(4).standard_normal(2)
    est = estimate_gradient(
        f, theta, EstimatorConfig("rsgf"), c, np.random.default_rng(4)
    )
    np.testing.assert_allclose(est.g_hat, (2.0 * u[0] + c * (u @ u)) * u, atol=1e-13)
    assert est.n_evaluations == f.calls == 2
    np.testing.assert_array_equal(f.points[0], theta)  # the baseline


def test_positive_perturbation_required():
    for method, c, rng in (
        ("fdsa", 0.0, None),
        ("spsa", -0.1, np.random.default_rng(0)),
        ("rsgf", 0.0, np.random.default_rng(0)),
    ):
        with pytest.raises(ValueError, match="must be > 0"):
            estimate_gradient(sphere, np.zeros(2), EstimatorConfig(method), c, rng)


@pytest.mark.parametrize("method", ["fdsa", "spsa", "rsgf"])
@pytest.mark.parametrize("c", [np.nan, np.inf])
def test_perturbation_size_must_be_finite(c, method):
    # NaN gave an all-NaN estimate and inf an all-zero one
    with pytest.raises(ValueError, match="perturbation size c"):
        estimate_gradient(sphere, np.zeros(2), EstimatorConfig(method), c,
                          np.random.default_rng(0))


# ------------------------------------------------------------- distribution


def test_rademacher_entries_are_fair_signs():
    # at theta = 0 and c = 1 every "+" probe point is its direction
    f = CountingObjective(sphere)
    cfg = EstimatorConfig("spsa", n_samples=4000)
    estimate_gradient(f, np.zeros(8), cfg, 1.0, np.random.default_rng(17))
    draws = np.array(f.points[0::2])
    assert set(np.unique(draws)) == {-1.0, 1.0}
    # fair coin: mean of 32000 signs has sd ~ 0.0056
    assert abs(draws.mean()) < 0.02


def test_spsa_mean_matches_analytic_gradient():
    theta = np.array([1.0, -0.5, 0.25])
    grad = 2.0 * theta
    rng = np.random.default_rng(42)
    samples = np.array(
        [
            estimate_gradient(sphere, theta, EstimatorConfig("spsa"), 0.01, rng).g_hat
            for _ in range(10_000)
        ]
    )
    se = samples.std(axis=0, ddof=1) / np.sqrt(len(samples))
    assert np.all(np.abs(samples.mean(axis=0) - grad) <= 3.0 * se + 1e-12)


def test_rsgf_mean_matches_analytic_gradient():
    theta = np.array([1.0, -0.5, 0.25])
    grad = 2.0 * theta
    rng = np.random.default_rng(43)
    samples = np.array(
        [
            estimate_gradient(sphere, theta, EstimatorConfig("rsgf"), 0.01, rng).g_hat
            for _ in range(10_000)
        ]
    )
    se = samples.std(axis=0, ddof=1) / np.sqrt(len(samples))
    assert np.all(np.abs(samples.mean(axis=0) - grad) <= 3.0 * se + 1e-12)


def test_fdsa_bias_on_cubic_quarters_when_c_halves():
    # d/dx x^3 = 3 at x = 1; central difference gives 3 + c^2
    cube = lambda th: float(th[0] ** 3)
    theta = np.array([1.0])
    fdsa = EstimatorConfig("fdsa")
    bias_large = estimate_gradient(cube, theta, fdsa, 0.1, None).g_hat[0] - 3.0
    bias_small = estimate_gradient(cube, theta, fdsa, 0.05, None).g_hat[0] - 3.0
    assert bias_large / bias_small == pytest.approx(4.0, abs=1e-6)
    assert 3.0 <= bias_large / bias_small <= 5.0


def test_spsa_bias_on_cubic_halving_ratio():
    # multivariate cubic keeps the O(c^2) bias visible through the
    # cross-direction noise; the halving ratio should sit near 4
    cube = lambda th: float(np.sum(th**3))
    theta = np.array([1.0, 0.5])
    rng = np.random.default_rng(7)
    biases = {}
    for c in (0.8, 0.4):
        draws = np.array(
            [
                estimate_gradient(cube, theta, EstimatorConfig("spsa"), c, rng).g_hat
                for _ in range(100_000)
            ]
        )
        biases[c] = np.abs(draws.mean(axis=0) - 3.0 * theta**2).mean()
    ratio = biases[0.8] / biases[0.4]
    assert 3.0 <= ratio <= 5.0


@pytest.mark.parametrize("method", ["spsa", "rsgf"])
def test_component_noise_scales_inversely_with_c(method):
    sigma = 0.1
    noise = np.random.default_rng(100)

    def noisy_zero(theta):
        return float(theta @ theta) + sigma * noise.standard_normal()

    stds = {}
    for c, seed in ((0.02, 1), (0.01, 2)):
        rng = np.random.default_rng(seed)
        cfg = EstimatorConfig(method=method)
        draws = np.array(
            [
                estimate_gradient(noisy_zero, np.zeros(2), cfg, c, rng).g_hat[0]
                for _ in range(30_000)
            ]
        )
        stds[c] = draws.std(ddof=1)
    ratio = stds[0.01] / stds[0.02]
    assert 1.7 <= ratio <= 2.3


# ------------------------------------------------------ per-sample oracle


def reference_estimate(f, theta, method, n_samples, c, rng):
    """The estimate as per-sample loops: one draw and its probes at a time."""

    def fdsa():
        g = np.empty(theta.size)
        for i in range(theta.size):
            step = np.zeros(theta.size)
            step[i] = c
            g[i] = (f(theta + step) - f(theta - step)) / (2.0 * c)
        return g

    def spsa():
        delta = 2.0 * rng.integers(0, 2, size=theta.size) - 1.0
        return (f(theta + c * delta) - f(theta - c * delta)) / (2.0 * c * delta)

    def rsgf():
        u = rng.standard_normal(theta.size)
        return ((f(theta + c * u) - baseline) / c) * u

    if method == "rsgf":
        baseline = f(theta)
    sample = {"fdsa": fdsa, "spsa": spsa, "rsgf": rsgf}[method]
    return np.mean([sample() for _ in range(n_samples)], axis=0)


class NoisyObjective(CountingObjective):
    """A rough noisy loss that owns its noise stream and records its calls."""

    def __init__(self, seed):
        noise = np.random.default_rng(seed)
        super().__init__(
            lambda x: float(np.sum(np.sin(3.0 * x)) + x @ x)
            + 0.1 * noise.standard_normal()
        )


@pytest.mark.parametrize("n_samples", [1, 2, 3])
@pytest.mark.parametrize("method", ["fdsa", "spsa", "rsgf"])
def test_estimate_matches_per_sample_oracle_bit_for_bit(method, n_samples):
    cfg = EstimatorConfig(method, n_samples=n_samples)
    for d in range(1, 6):
        theta0 = np.random.default_rng(d).uniform(-1.0, 1.0, d)
        f_ref, f_new = NoisyObjective(d), NoisyObjective(d)
        rng_ref, rng_new = np.random.default_rng(50 + d), np.random.default_rng(50 + d)
        # two updates in a row: each must leave both streams where the loops do
        for theta, c in ((theta0, 0.07), (theta0[::-1] + 0.1, 0.03)):
            want = reference_estimate(f_ref, theta, method, n_samples, c, rng_ref)
            got = estimate_gradient(f_new, theta, cfg, c, rng_new)
            assert got.g_hat.tobytes() == want.tobytes()
            assert got.n_evaluations == f_new.calls == f_ref.calls
            f_ref.calls = f_new.calls = 0
        assert len(f_new.points) == len(f_ref.points)
        for p_new, p_ref in zip(f_new.points, f_ref.points):
            assert p_new.tobytes() == p_ref.tobytes()
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state


# ---------------------------------------------------------------- accounting


def test_evals_per_update_billing_table():
    assert EstimatorConfig("fdsa").evals_per_update(20) == 40
    assert EstimatorConfig("fdsa", n_samples=2).evals_per_update(3) == 12
    assert EstimatorConfig("spsa").evals_per_update(20) == 2
    assert EstimatorConfig("spsa", n_samples=4).evals_per_update(20) == 8
    assert EstimatorConfig("rsgf").evals_per_update(20) == 1
    assert EstimatorConfig("rsgf", n_samples=5).evals_per_update(20) == 5
    assert EstimatorConfig("rsgf", count_baseline=True).evals_per_update(20) == 2


def test_estimator_config_validation():
    with pytest.raises(ValueError, match=r"^method must be one of \('fdsa', 'spsa', "
                       r"'rsgf'\), got 'newton'$"):
        EstimatorConfig("newton")
    with pytest.raises(ValueError, match="n_samples"):
        EstimatorConfig("spsa", n_samples=0)
    for flag in ("no", 1, 0, None):
        with pytest.raises(ValueError, match="count_baseline"):
            EstimatorConfig("rsgf", count_baseline=flag)


def test_rsgf_samples_share_one_baseline():
    f = CountingObjective(sphere)
    cfg = EstimatorConfig("rsgf", n_samples=5)
    est = estimate_gradient(f, np.zeros(3), cfg, 0.1, np.random.default_rng(0))
    assert f.calls == 6  # one baseline + five perturbed points
    assert est.n_evaluations == 6
    assert cfg.evals_per_update(3) == 5  # baseline unbilled by default


def test_spsa_averaging_counts_all_calls():
    f = CountingObjective(sphere)
    cfg = EstimatorConfig("spsa", n_samples=3)
    est = estimate_gradient(f, np.zeros(4), cfg, 0.1, np.random.default_rng(1))
    assert f.calls == 6
    assert est.n_evaluations == 6


def test_averaging_reduces_variance_and_sums_cost():
    rng = np.random.default_rng(5)
    theta = np.array([1.0, 2.0])
    stds = {}
    for n in (1, 16):
        cfg = EstimatorConfig("spsa", n_samples=n)
        draws = [estimate_gradient(sphere, theta, cfg, 0.05, rng) for _ in range(400)]
        assert all(est.n_evaluations == 2 * n for est in draws)
        stds[n] = np.std([est.g_hat for est in draws], axis=0, ddof=1)
    # 16 independent samples shrink the spread by sqrt(16) = 4
    assert np.all((0.18 <= stds[16] / stds[1]) & (stds[16] / stds[1] <= 0.32))


def test_determinism_same_seed_same_estimate():
    theta = np.arange(6.0)
    for method in ("spsa", "rsgf"):
        cfg = EstimatorConfig(method, n_samples=3)
        a = estimate_gradient(sphere, theta, cfg, 0.02, np.random.default_rng(9))
        b = estimate_gradient(sphere, theta, cfg, 0.02, np.random.default_rng(9))
        assert np.array_equal(a.g_hat, b.g_hat)
        assert a.n_evaluations == b.n_evaluations


# -------------------------------------------------------------------- errors


def test_raising_objective_becomes_objective_error_with_probe():
    def broken(theta):
        raise ValueError("hardware went away")

    with pytest.raises(ObjectiveError, match=re.escape("probe +c*e_0")):
        estimate_gradient(broken, np.zeros(2), EstimatorConfig("fdsa"), 0.1, None)

    # an objective's own ObjectiveError passes through unwrapped
    own = ObjectiveError("pulse refused by the instrument")

    def refusing(theta):
        raise own

    with pytest.raises(ObjectiveError) as raised:
        estimate_gradient(refusing, np.zeros(2), EstimatorConfig("fdsa"), 0.1, None)
    assert raised.value is own and raised.value.__cause__ is None


def test_non_finite_value_is_rejected():
    bad = lambda theta: float("nan")
    with pytest.raises(ObjectiveError, match="non-finite"):
        estimate_gradient(
            bad, np.zeros(2), EstimatorConfig("spsa"), 0.1, np.random.default_rng(0)
        )

    inf = lambda theta: float("inf")
    with pytest.raises(ObjectiveError, match="non-finite"):
        estimate_gradient(
            inf, np.zeros(2), EstimatorConfig("rsgf"), 0.1, np.random.default_rng(0)
        )
