"""Zeroth-order gradient estimators with explicit evaluation accounting.

Every estimate is one probe stack plus one combination.  For ``n``
samples at step size ``c``, ``estimate_gradient`` first draws all
directions in sample order, builds the ``(P, d)`` stack of probe points,
evaluates its rows in order, and combines the values:

- FDSA: ``theta + c*e_i`` then ``theta - c*e_i`` for ``i = 0..d-1``,
  per sample (``2*d*n`` calls); ``(f+ - f-) / (2c)`` for coordinate i,
- SPSA: ``theta + c*delta`` then ``theta - c*delta`` per sample, with a
  Rademacher (+/-1) ``delta`` (``2*n`` calls); ``(f+ - f-) / (2c*delta)``,
- RSGF: the baseline ``theta`` itself, then ``theta + c*u_k`` with a
  standard-normal ``u_k`` per sample (``1 + n`` calls);
  ``((f_k - f_0) / c) * u_k``.

The estimate is the mean of the per-sample rows.  A stochastic objective
owns its noise stream and the estimator's rng draws only the directions,
so both streams advance as they would sample by sample.

``GradientEstimate.n_evaluations`` always counts actual objective calls.
Budget accounting (which calls are billed) is a separate concern handled
by :class:`EstimatorConfig.evals_per_update`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .checks import check_fields

Objective = Callable[[np.ndarray], float]

_METHODS = ("fdsa", "spsa", "rsgf")


class ObjectiveError(RuntimeError):
    """An objective evaluation failed or returned a non-finite value."""


@dataclass(frozen=True)
class GradientEstimate:
    """One gradient estimate plus the objective calls it made."""

    g_hat: np.ndarray
    n_evaluations: int


@dataclass(frozen=True)
class EstimatorConfig:
    """Which estimator to run, how many samples to average, and billing.

    The fields are the config keys but ``method``, whose ``key`` metadata
    names its key.  ``count_baseline`` only affects RSGF budget accounting:
    by default the shared baseline evaluation is free (an update costs
    ``n_samples`` billed evaluations); setting it bills the baseline too.
    """

    method: str = field(default="spsa", metadata={"key": "estimator", "in": _METHODS})
    n_samples: int = field(default=1, metadata={"ge": 1})
    count_baseline: bool = False

    def __post_init__(self) -> None:
        check_fields(self)

    def evals_per_update(self, dim: int) -> int:
        """Billed objective evaluations for one averaged gradient estimate."""
        if self.method == "fdsa":
            return 2 * dim * self.n_samples
        if self.method == "spsa":
            return 2 * self.n_samples
        return self.n_samples + (1 if self.count_baseline else 0)


def evaluate_objective(f: Objective, theta: np.ndarray, probe: str) -> float:
    """``f(theta)`` as a finite float, or an ObjectiveError naming ``probe``."""
    try:
        value = float(f(theta))
    except ObjectiveError:
        raise
    except Exception as exc:
        raise ObjectiveError(f"objective evaluation failed at probe {probe}") from exc
    if not math.isfinite(value):
        raise ObjectiveError(f"objective returned non-finite value at probe {probe}")
    return value


def estimate_gradient(
    f: Objective,
    theta: np.ndarray,
    config: EstimatorConfig,
    c: float,
    rng: np.random.Generator | None,
) -> GradientEstimate:
    """Run the configured estimator once, averaging over its samples.

    RSGF samples share a single baseline evaluation; its actual call count
    is therefore ``n_samples + 1`` regardless of billing mode.  FDSA draws
    nothing, so ``rng`` may be ``None`` for it; SPSA and RSGF raise
    ``ValueError`` without one, before any draw or objective call.
    """
    theta = np.asarray(theta, dtype=float)
    if not 0.0 < c < math.inf:  # NaN fails this too
        raise ValueError(f"perturbation size c must be > 0 and finite, got {c}")
    if rng is None and config.method != "fdsa":
        raise ValueError(f"the {config.method} estimator requires an rng (Generator)")
    n, d = config.n_samples, theta.size
    if config.method == "rsgf":
        u = rng.standard_normal((n, d))
        points = np.concatenate([theta[None], theta + c * u])
        labels = ["baseline"] + ["+c*u"] * n
    else:
        if config.method == "fdsa":
            steps = np.tile(c * np.eye(d), (n, 1))
            labels = [f"{sign}c*e_{i}" for i in range(d) for sign in "+-"] * n
        else:
            delta = 2.0 * rng.integers(0, 2, size=(n, d)) - 1.0
            steps = c * delta
            labels = ["+c*delta", "-c*delta"] * n
        # each step's row pair theta + step, theta - step, in probe order
        points = np.concatenate([theta + steps, theta - steps], axis=1).reshape(-1, d)
    values = np.array([evaluate_objective(f, p, s) for p, s in zip(points, labels)])
    if config.method == "rsgf":
        rows = ((values[1:] - values[0]) / c)[:, None] * u
    else:
        diff = values[0::2] - values[1::2]
        if config.method == "fdsa":
            rows = (diff / (2.0 * c)).reshape(n, d)
        else:
            rows = diff[:, None] / (2.0 * c * delta)
    # the sum over samples, then one division: the bits of rows.mean(axis=0)
    return GradientEstimate(g_hat=rows.sum(axis=0) / n, n_evaluations=len(points))

