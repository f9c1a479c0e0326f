"""Zeroth-order gradient estimators with explicit evaluation accounting.

Three estimators are provided, all consuming only objective values:

- ``fdsa_gradient``: per-coordinate central differences (2p evaluations),
- ``spsa_gradient``: one Rademacher simultaneous perturbation
  (2 evaluations regardless of dimension),
- ``rsgf_gradient``: one-sided Gaussian-direction estimate built from a
  shared baseline value (baseline + 1 perturbed evaluation).

``GradientEstimate.n_evaluations`` always counts actual objective calls.
Budget accounting (which calls are billed) is a separate concern handled
by :class:`EstimatorConfig.evals_per_update`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

Objective = Callable[[np.ndarray], float]

_METHODS = ("fdsa", "spsa", "rsgf")


class ObjectiveError(RuntimeError):
    """An objective evaluation failed or returned a non-finite value."""


@dataclass(frozen=True)
class GradientEstimate:
    """One gradient estimate plus its cost and the perturbation used."""

    g_hat: np.ndarray
    n_evaluations: int
    perturbation_used: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "g_hat", np.asarray(self.g_hat, dtype=float))


@dataclass(frozen=True)
class EstimatorConfig:
    """Which estimator to run, how many samples to average, and billing.

    ``count_baseline`` only affects RSGF budget accounting: by default the
    shared baseline evaluation is free (an update costs ``n_samples``
    billed evaluations); setting it bills the baseline too.
    """

    method: str = "spsa"
    n_samples: int = 1
    count_baseline: bool = False

    def __post_init__(self) -> None:
        if self.method not in _METHODS:
            raise ValueError(
                f"unknown estimator {self.method!r}, expected one of {_METHODS}"
            )
        if self.n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {self.n_samples}")

    def evals_per_update(self, dim: int) -> int:
        """Billed objective evaluations for one averaged gradient estimate."""
        if self.method == "fdsa":
            return 2 * dim * self.n_samples
        if self.method == "spsa":
            return 2 * self.n_samples
        return self.n_samples + (1 if self.count_baseline else 0)


def _evaluate(f: Objective, theta: np.ndarray, probe: str) -> float:
    try:
        value = float(f(theta))
    except ObjectiveError:
        raise
    except Exception as exc:
        raise ObjectiveError(f"objective evaluation failed at probe {probe}") from exc
    if not np.isfinite(value):
        raise ObjectiveError(f"objective returned non-finite value at probe {probe}")
    return value


def fdsa_gradient(f: Objective, theta: np.ndarray, c: float) -> GradientEstimate:
    """Central-difference gradient, one coordinate pair at a time.

    Exact (up to roundoff) on quadratics; costs ``2 * len(theta)``
    evaluations.
    """
    theta = np.asarray(theta, dtype=float)
    if c <= 0:
        raise ValueError(f"perturbation size c must be > 0, got {c}")
    dim = theta.size
    g = np.empty(dim)
    for i in range(dim):
        step = np.zeros(dim)
        step[i] = c
        f_plus = _evaluate(f, theta + step, f"+c*e_{i}")
        f_minus = _evaluate(f, theta - step, f"-c*e_{i}")
        g[i] = (f_plus - f_minus) / (2.0 * c)
    return GradientEstimate(g_hat=g, n_evaluations=2 * dim, perturbation_used=c)


def rademacher(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Draw a +/-1 direction vector with independent fair signs."""
    return 2.0 * rng.integers(0, 2, size=dim) - 1.0


def spsa_gradient_for_direction(
    f: Objective, theta: np.ndarray, c: float, delta: np.ndarray
) -> GradientEstimate:
    """Simultaneous-perturbation estimate along a given +/-1 direction."""
    theta = np.asarray(theta, dtype=float)
    delta = np.asarray(delta, dtype=float)
    if c <= 0:
        raise ValueError(f"perturbation size c must be > 0, got {c}")
    # division by delta below requires every entry nonzero
    if not np.all(delta != 0.0):
        raise ValueError("perturbation direction contains a zero entry")
    f_plus = _evaluate(f, theta + c * delta, "+c*delta")
    f_minus = _evaluate(f, theta - c * delta, "-c*delta")
    g = (f_plus - f_minus) / (2.0 * c * delta)
    return GradientEstimate(g_hat=g, n_evaluations=2, perturbation_used=c)


def spsa_gradient(
    f: Objective, theta: np.ndarray, c: float, rng: np.random.Generator
) -> GradientEstimate:
    """Simultaneous-perturbation estimate with a fresh Rademacher draw."""
    theta = np.asarray(theta, dtype=float)
    return spsa_gradient_for_direction(f, theta, c, rademacher(rng, theta.size))


def rsgf_gradient_for_direction(
    f: Objective,
    theta: np.ndarray,
    c: float,
    u: np.ndarray,
    baseline: float | None = None,
) -> GradientEstimate:
    """One-sided Gaussian-smoothing estimate along a given direction.

    When ``baseline`` is supplied it is reused (no extra call); the
    evaluation count then covers only the perturbed point.
    """
    theta = np.asarray(theta, dtype=float)
    u = np.asarray(u, dtype=float)
    if c <= 0:
        raise ValueError(f"perturbation size c must be > 0, got {c}")
    n_evals = 1
    if baseline is None:
        baseline = _evaluate(f, theta, "baseline")
        n_evals += 1
    f_plus = _evaluate(f, theta + c * u, "+c*u")
    g = ((f_plus - baseline) / c) * u
    return GradientEstimate(g_hat=g, n_evaluations=n_evals, perturbation_used=c)


def rsgf_gradient(
    f: Objective, theta: np.ndarray, c: float, rng: np.random.Generator
) -> GradientEstimate:
    """One-sided Gaussian-direction estimate with a fresh standard-normal draw."""
    theta = np.asarray(theta, dtype=float)
    u = rng.standard_normal(theta.size)
    return rsgf_gradient_for_direction(f, theta, c, u)


def averaged_gradient(
    sample: Callable[[], GradientEstimate], n_samples: int
) -> GradientEstimate:
    """Average ``n_samples`` independent estimates; costs add up."""
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    estimates = [sample() for _ in range(n_samples)]
    g = np.mean([e.g_hat for e in estimates], axis=0)
    return GradientEstimate(
        g_hat=g,
        n_evaluations=sum(e.n_evaluations for e in estimates),
        perturbation_used=estimates[0].perturbation_used,
    )


def estimate_gradient(
    f: Objective,
    theta: np.ndarray,
    config: EstimatorConfig,
    c: float,
    rng: np.random.Generator,
) -> GradientEstimate:
    """Run the configured estimator once (averaging over its samples).

    RSGF samples share a single baseline evaluation; its actual call count
    is therefore ``n_samples + 1`` regardless of billing mode.
    """
    theta = np.asarray(theta, dtype=float)
    if config.method == "fdsa":
        return averaged_gradient(
            lambda: fdsa_gradient(f, theta, c), config.n_samples
        )
    if config.method == "spsa":
        return averaged_gradient(
            lambda: spsa_gradient(f, theta, c, rng), config.n_samples
        )
    baseline = _evaluate(f, theta, "baseline")
    est = averaged_gradient(
        lambda: rsgf_gradient_for_direction(
            f, theta, c, rng.standard_normal(theta.size), baseline=baseline
        ),
        config.n_samples,
    )
    return GradientEstimate(
        g_hat=est.g_hat,
        n_evaluations=est.n_evaluations + 1,
        perturbation_used=c,
    )
