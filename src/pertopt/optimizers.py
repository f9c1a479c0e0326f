"""Update rules and the budgeted optimization loop.

The adaptive rule is an Adam variant whose momentum coefficient may change
every step.  Bias correction therefore cannot use the textbook
``1 - beta**t`` factor; instead each moment carries a recursively updated
weight mass ``W_t = beta_t * W_{t-1} + (1 - beta_t)`` (``W_0 = 0``), and
the renormalized moments are ``m_t / W_t`` and ``v_t / W_t``.  For
constant coefficients this reduces exactly to the classic correction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .checks import check_choice, is_finite_real, is_integer
from .estimators import (
    EstimatorConfig,
    Objective,
    ObjectiveError,
    estimate_gradient,
    evaluate_objective,
)
from .schedules import ScheduleSet

UPDATE_RULES = ("sgd", "momentum", "adam")


class OptimizationAborted(RuntimeError):
    """Objective failed mid-run; ``trajectory`` holds completed iterations."""

    def __init__(self, message: str, trajectory: "Trajectory"):
        super().__init__(message)
        self.trajectory = trajectory


def _gradient_values(g_hat: np.ndarray) -> np.ndarray:
    g = np.asarray(g_hat, dtype=float)
    finite = np.isfinite(g)
    if not finite.all():
        bad = np.flatnonzero(~finite)
        raise ValueError(f"non-finite gradient entries at components {bad.tolist()}")
    return g


def _check_coefficients(
    a_t: float, beta_t: float = 0.0, gamma_t: float = 0.0, delta: float = 1.0
) -> None:
    """``ValueError`` unless each update coefficient is finite and in range.

    Every comparison is written so that NaN fails it.
    """
    if not 0.0 <= a_t < math.inf:
        raise ValueError(f"learning rate must be >= 0 and finite, got {a_t}")
    for name, value in (("beta_t", beta_t), ("gamma_t", gamma_t)):
        if not 0.0 <= value < 1.0:
            raise ValueError(f"{name} must lie in [0, 1), got {value}")
    if not 0.0 < delta < math.inf:
        raise ValueError(f"delta must be > 0 and finite, got {delta}")


@dataclass
class AdamState:
    """First/second moment accumulators plus their weight masses."""

    m: np.ndarray
    v: np.ndarray
    weight_mass_m: float = 0.0
    weight_mass_v: float = 0.0

    @classmethod
    def zeros(cls, dim: int) -> "AdamState":
        return cls(m=np.zeros(dim), v=np.zeros(dim))


def sgd_step(
    theta: np.ndarray, g_hat: np.ndarray, a_t: float
) -> np.ndarray:
    """Plain descent step ``theta - a_t * g_hat``."""
    theta = np.asarray(theta, dtype=float)
    g = _gradient_values(g_hat)
    _check_coefficients(a_t)
    return theta - a_t * g


def momentum_step(
    state: AdamState,
    theta: np.ndarray,
    g_hat: np.ndarray,
    a_t: float,
    beta_t: float,
) -> tuple[AdamState, np.ndarray]:
    """Renormalized-momentum step: descend along ``m_t / W_t``."""
    theta = np.asarray(theta, dtype=float)
    g = _gradient_values(g_hat)
    _check_coefficients(a_t, beta_t)
    m = beta_t * state.m + (1.0 - beta_t) * g
    w_m = beta_t * state.weight_mass_m + (1.0 - beta_t)
    # no step changes a moment array in place, so v passes on as is
    new_state = AdamState(
        m=m, v=state.v, weight_mass_m=w_m, weight_mass_v=state.weight_mass_v
    )
    return new_state, theta - a_t * (m / w_m)


def adam_step(
    state: AdamState,
    theta: np.ndarray,
    g_hat: np.ndarray,
    a_t: float,
    beta_t: float,
    gamma_t: float,
    delta: float = 1e-8,
) -> tuple[AdamState, np.ndarray]:
    """Adaptive step with renormalized first and second moments.

    ``theta' = theta - a_t * m_hat / (sqrt(v_hat) + delta)`` where
    ``m_hat = m_t / W_m`` and ``v_hat = v_t / W_v``.
    """
    theta = np.asarray(theta, dtype=float)
    g = _gradient_values(g_hat)
    _check_coefficients(a_t, beta_t, gamma_t, delta)
    m = beta_t * state.m + (1.0 - beta_t) * g
    v = gamma_t * state.v + (1.0 - gamma_t) * g * g
    w_m = beta_t * state.weight_mass_m + (1.0 - beta_t)
    w_v = gamma_t * state.weight_mass_v + (1.0 - gamma_t)
    m_hat = m / w_m
    v_hat = v / w_v
    if (v_hat < 0).any():
        raise RuntimeError("second-moment renormalization went negative")
    new_state = AdamState(m=m, v=v, weight_mass_m=w_m, weight_mass_v=w_v)
    return new_state, theta - a_t * m_hat / (np.sqrt(v_hat) + delta)


@dataclass(frozen=True)
class TrajectoryRecord:
    """State after one accepted update."""

    iteration: int
    n_evals: int
    loss: float
    a_t: float
    c_t: float
    beta_t: float
    theta: np.ndarray


@dataclass
class Trajectory:
    """Initial point plus one record per completed update."""

    initial_theta: np.ndarray
    initial_loss: float
    records: list[TrajectoryRecord] = field(default_factory=list)

    @property
    def n_updates(self) -> int:
        return len(self.records)

    @property
    def total_evals(self) -> int:
        return self.records[-1].n_evals if self.records else 0

    def best(self) -> tuple[int, float, np.ndarray]:
        """(iteration, loss, theta) of the lowest recorded loss.

        The initial point participates as iteration 0; ties keep the
        earliest iterate.
        """
        best_it, best_loss, best_theta = 0, self.initial_loss, self.initial_theta
        for rec in self.records:
            if rec.loss < best_loss:
                best_it, best_loss, best_theta = rec.iteration, rec.loss, rec.theta
        return best_it, best_loss, best_theta


def run_optimization(
    objective: Objective,
    estimator: EstimatorConfig,
    update_rule: str,
    schedules: ScheduleSet,
    initial_theta: np.ndarray,
    budget: int,
    seed: int | np.random.Generator | None = 0,
    clip_box: tuple[float, float] | None = None,
) -> Trajectory:
    """Run budgeted zeroth-order optimization and record every update.

    Only estimator probe evaluations are billed against ``budget``; the
    loss recorded after each update (and at the initial point) is one extra
    unbilled objective call.  The loop stops when the next update would
    exceed the budget, so recorded ``n_evals`` never passes it.

    ``seed`` feeds the estimator's direction draws only; a stochastic
    objective owns its noise stream.  Identical seeds and objective give a
    bitwise-identical trajectory.  ``clip_box`` ``(low, high)``, two finite
    numbers with ``low < high``, bounds every coordinate of every update.
    """
    check_choice("update_rule", update_rule, UPDATE_RULES)
    if not is_integer(budget) or budget < 0:
        raise ValueError(f"budget must be an integer >= 0, got {budget!r}")
    if clip_box is not None and not (
        np.shape(clip_box) == (2,) and all(map(is_finite_real, clip_box))
        and clip_box[0] < clip_box[1]
    ):
        raise ValueError(f"clip_box must be finite with low < high, got {clip_box!r}")
    rng = np.random.default_rng(seed)
    theta = np.array(initial_theta, dtype=float)
    if theta.ndim != 1 or theta.size < 1:
        raise ValueError("initial_theta must be a 1-D vector of length >= 1")
    cost = estimator.evals_per_update(theta.size)

    trajectory = Trajectory(initial_theta=theta.copy(), initial_loss=np.nan)
    state = AdamState.zeros(theta.size)
    n_evals = 0
    t = 0
    try:
        trajectory.initial_loss = evaluate_objective(objective, theta, "loss")
        while n_evals + cost <= budget:
            t += 1
            a_t, c_t, beta_t, gamma_t = schedules.coefficients(t)
            g_hat = estimate_gradient(objective, theta, estimator, c_t, rng).g_hat
            if update_rule == "sgd":
                theta = sgd_step(theta, g_hat, a_t)
            elif update_rule == "momentum":
                state, theta = momentum_step(state, theta, g_hat, a_t, beta_t)
            else:
                state, theta = adam_step(
                    state, theta, g_hat, a_t, beta_t, gamma_t, schedules.delta
                )
            if clip_box is not None:
                theta = np.clip(theta, clip_box[0], clip_box[1])
            n_evals += cost
            loss = evaluate_objective(objective, theta, "loss")
            trajectory.records.append(
                TrajectoryRecord(
                    iteration=t,
                    n_evals=n_evals,
                    loss=loss,
                    a_t=a_t,
                    c_t=c_t,
                    beta_t=beta_t,
                    theta=theta.copy(),
                )
            )
    except ObjectiveError as exc:
        raise OptimizationAborted(
            f"objective failed after {trajectory.n_updates} updates: {exc}",
            trajectory,
        ) from exc
    return trajectory
