"""Gradient estimator oracles: hand values, unbiasedness, bias and noise scaling."""

from __future__ import annotations

import re

import numpy as np
import pytest

from pertopt import (
    EstimatorConfig,
    ObjectiveError,
    averaged_gradient,
    estimate_gradient,
    fdsa_gradient,
    rsgf_gradient,
    spsa_gradient,
)
from pertopt.estimators import (
    rademacher,
    rsgf_gradient_for_direction,
    spsa_gradient_for_direction,
)


def sphere(theta):
    return float(np.dot(theta, theta))


class CountingObjective:
    def __init__(self, f):
        self.f = f
        self.calls = 0

    def __call__(self, theta):
        self.calls += 1
        return self.f(theta)


# ---------------------------------------------------------------- hand values


def test_fdsa_hand_value_on_sphere():
    est = fdsa_gradient(sphere, np.array([1.0, 0.0]), c=0.1)
    # ((1.1)^2 - (0.9)^2) / 0.2 = 2 exactly; same for the zero coordinate
    np.testing.assert_allclose(est.g_hat, [2.0, 0.0], atol=1e-13)
    assert est.n_evaluations == 4
    assert est.perturbation_used == 0.1


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

        est = fdsa_gradient(quad, theta, c=0.05)
        np.testing.assert_allclose(est.g_hat, h @ theta + b, atol=1e-10)


def test_spsa_hand_values_forced_directions():
    theta = np.array([1.0, 0.0])
    est = spsa_gradient_for_direction(sphere, theta, 0.1, np.array([1.0, 1.0]))
    # (1.22 - 0.82) / (0.2 * delta) with delta = (+1, +1)
    np.testing.assert_allclose(est.g_hat, [2.0, 2.0], atol=1e-13)
    assert est.n_evaluations == 2

    est = spsa_gradient_for_direction(sphere, theta, 0.1, np.array([1.0, -1.0]))
    np.testing.assert_allclose(est.g_hat, [2.0, -2.0], atol=1e-13)


def test_spsa_rejects_zero_direction_entries():
    with pytest.raises(ValueError, match="zero entry"):
        spsa_gradient_for_direction(
            sphere, np.zeros(2), 0.1, np.array([1.0, 0.0])
        )


def test_rsgf_hand_value_forced_direction():
    est = rsgf_gradient_for_direction(
        sphere, np.array([1.0, 0.0]), 0.1, np.array([1.0, 0.0])
    )
    # baseline 1.0, perturbed 1.21: slope 2.1 along u = e_0
    np.testing.assert_allclose(est.g_hat, [2.1, 0.0], atol=1e-13)
    assert est.n_evaluations == 2


def test_rsgf_reuses_supplied_baseline():
    f = CountingObjective(sphere)
    est = rsgf_gradient_for_direction(
        f, np.array([1.0, 0.0]), 0.1, np.array([1.0, 0.0]), baseline=1.0
    )
    assert f.calls == 1
    assert est.n_evaluations == 1
    np.testing.assert_allclose(est.g_hat, [2.1, 0.0], atol=1e-13)


def test_positive_perturbation_required():
    for fn in (
        lambda: fdsa_gradient(sphere, np.zeros(2), 0.0),
        lambda: spsa_gradient(sphere, np.zeros(2), -0.1, np.random.default_rng(0)),
        lambda: rsgf_gradient(sphere, np.zeros(2), 0.0, np.random.default_rng(0)),
    ):
        with pytest.raises(ValueError, match="must be > 0"):
            fn()


# ------------------------------------------------------------- distribution


def test_rademacher_entries_are_fair_signs():
    rng = np.random.default_rng(17)
    draws = np.array([rademacher(rng, 8) for _ in range(4000)])
    assert set(np.unique(draws)) == {-1.0, 1.0}
    # fair coin: mean of 32000 signs has sd ~ 0.0056
    assert abs(draws.mean()) < 0.02


def test_spsa_mean_matches_analytic_gradient():
    theta = np.array([1.0, -0.5, 0.25])
    grad = 2.0 * theta
    rng = np.random.default_rng(42)
    samples = np.array(
        [spsa_gradient(sphere, theta, 0.01, rng).g_hat for _ in range(10_000)]
    )
    se = samples.std(axis=0, ddof=1) / np.sqrt(len(samples))
    assert np.all(np.abs(samples.mean(axis=0) - grad) <= 3.0 * se + 1e-12)


def test_rsgf_mean_matches_analytic_gradient():
    theta = np.array([1.0, -0.5, 0.25])
    grad = 2.0 * theta
    rng = np.random.default_rng(43)
    samples = np.array(
        [rsgf_gradient(sphere, theta, 0.01, rng).g_hat for _ in range(10_000)]
    )
    se = samples.std(axis=0, ddof=1) / np.sqrt(len(samples))
    assert np.all(np.abs(samples.mean(axis=0) - grad) <= 3.0 * se + 1e-12)


def test_fdsa_bias_on_cubic_quarters_when_c_halves():
    # d/dx x^3 = 3 at x = 1; central difference gives 3 + c^2
    cube = lambda th: float(th[0] ** 3)
    theta = np.array([1.0])
    bias_large = fdsa_gradient(cube, theta, 0.1).g_hat[0] - 3.0
    bias_small = fdsa_gradient(cube, theta, 0.05).g_hat[0] - 3.0
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
            [spsa_gradient(cube, theta, c, rng).g_hat for _ in range(100_000)]
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
    with pytest.raises(ValueError, match="unknown estimator"):
        EstimatorConfig("newton")
    with pytest.raises(ValueError, match="n_samples"):
        EstimatorConfig("spsa", n_samples=0)


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


def test_averaged_gradient_reduces_variance_and_sums_cost():
    rng = np.random.default_rng(5)
    theta = np.array([1.0, 2.0])
    single = lambda: spsa_gradient(sphere, theta, 0.05, rng)
    est = averaged_gradient(single, 16)
    assert est.n_evaluations == 32
    np.testing.assert_allclose(est.g_hat, 2.0 * theta, atol=1.0)
    with pytest.raises(ValueError, match="n_samples"):
        averaged_gradient(single, 0)


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
        fdsa_gradient(broken, np.zeros(2), 0.1)


def test_non_finite_value_is_rejected():
    bad = lambda theta: float("nan")
    with pytest.raises(ObjectiveError, match="non-finite"):
        spsa_gradient(bad, np.zeros(2), 0.1, np.random.default_rng(0))

    inf = lambda theta: float("inf")
    with pytest.raises(ObjectiveError, match="non-finite"):
        rsgf_gradient(inf, np.zeros(2), 0.1, np.random.default_rng(0))
