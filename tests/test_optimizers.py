"""Update rules (renormalized moments) and the budgeted optimization loop."""

from __future__ import annotations

import numpy as np
import pytest

from pertopt import (
    AdamState,
    EstimatorConfig,
    OptimizationAborted,
    ScheduleSet,
    Trajectory,
    TrajectoryRecord,
    adam_step,
    momentum_step,
    run_optimization,
    sgd_step,
)
from pertopt.estimators import GradientEstimate


def sphere(theta):
    return float(np.dot(theta, theta))


# ----------------------------------------------------------------- sgd


def test_sgd_step_exact_arithmetic():
    theta = sgd_step(np.array([1.0, 2.0]), np.array([0.5, -1.0]), 0.1)
    np.testing.assert_array_equal(theta, [0.95, 2.1])


def test_sgd_step_accepts_gradient_estimate():
    g = GradientEstimate(g_hat=np.array([1.0, 0.0]), n_evaluations=2,
                         perturbation_used=0.1)
    theta = sgd_step(np.zeros(2), g, 0.5)
    np.testing.assert_array_equal(theta, [-0.5, 0.0])


def test_sgd_step_rejects_negative_rate_and_bad_gradient():
    with pytest.raises(ValueError, match="learning rate"):
        sgd_step(np.zeros(2), np.zeros(2), -0.1)
    with pytest.raises(ValueError, match=r"components \[1\]"):
        sgd_step(np.zeros(2), np.array([0.0, np.nan]), 0.1)


# ------------------------------------------------------------- momentum


def test_momentum_constant_gradient_steps_by_exact_rate():
    # with a constant gradient the renormalized momentum m/W equals the
    # gradient itself, so every step moves by a_t * g
    state = AdamState.zeros(1)
    theta = np.array([0.0])
    for _ in range(10):
        prev = theta[0]
        state, theta = momentum_step(state, theta, np.array([1.0]), 0.1, 0.5)
        assert prev - theta[0] == pytest.approx(0.1, abs=1e-15)
    assert theta[0] == pytest.approx(-1.0, abs=1e-14)


def test_momentum_with_zero_beta_is_sgd():
    state = AdamState.zeros(2)
    g = np.array([0.3, -0.7])
    _, theta = momentum_step(state, np.array([1.0, 1.0]), g, 0.2, 0.0)
    np.testing.assert_array_equal(theta, sgd_step(np.array([1.0, 1.0]), g, 0.2))


def test_momentum_rejects_bad_beta():
    with pytest.raises(ValueError, match="beta_t"):
        momentum_step(AdamState.zeros(1), np.zeros(1), np.ones(1), 0.1, 1.0)


def test_momentum_does_not_touch_second_moment():
    state = AdamState.zeros(2)
    state, _ = momentum_step(state, np.zeros(2), np.ones(2), 0.1, 0.9)
    np.testing.assert_array_equal(state.v, np.zeros(2))
    assert state.weight_mass_v == 0.0
    assert state.t == 1


# ----------------------------------------------------------------- adam


def _weighted_sum_oracle(coeffs, values):
    """Literal finite-sum moment: sum_j (1-b_j) prod_{i>j} b_i * values_j."""
    t = len(coeffs)
    total = np.zeros_like(np.asarray(values[0], dtype=float))
    mass = 0.0
    for j in range(t):
        w = 1.0 - coeffs[j]
        for i in range(j + 1, t):
            w *= coeffs[i]
        total = total + w * values[j]
        mass += w
    return total, mass


def test_adam_matches_literal_weighted_sum_oracle():
    rng = np.random.default_rng(12)
    betas = rng.uniform(0.0, 0.999, size=20)
    gammas = rng.uniform(0.0, 0.999, size=20)
    grads = [rng.standard_normal(3) for _ in range(20)]

    state = AdamState.zeros(3)
    theta = np.zeros(3)
    for t in range(1, 21):
        state, theta = adam_step(
            state, theta, grads[t - 1], 0.01, betas[t - 1], gammas[t - 1]
        )
        m_sum, m_mass = _weighted_sum_oracle(betas[:t], grads[:t])
        v_sum, v_mass = _weighted_sum_oracle(
            gammas[:t], [g * g for g in grads[:t]]
        )
        np.testing.assert_allclose(
            state.m / state.weight_mass_m, m_sum / m_mass, rtol=1e-12
        )
        np.testing.assert_allclose(
            state.v / state.weight_mass_v, v_sum / v_mass, rtol=1e-12
        )


def test_adam_constant_coefficients_match_textbook():
    # classic Adam with 1 - beta**t correction, same delta placement
    beta, gamma, a, delta = 0.9, 0.999, 0.001, 1e-8
    rng = np.random.default_rng(21)

    state = AdamState.zeros(4)
    theta = np.zeros(4)
    m = np.zeros(4)
    v = np.zeros(4)
    ref = np.zeros(4)
    for t in range(1, 101):
        g = rng.uniform(0.5, 1.5, size=4)
        state, theta = adam_step(state, theta, g, a, beta, gamma, delta)

        m = beta * m + (1 - beta) * g
        v = gamma * v + (1 - gamma) * g * g
        m_hat = m / (1 - beta**t)
        v_hat = v / (1 - gamma**t)
        ref = ref - a * m_hat / (np.sqrt(v_hat) + delta)

        np.testing.assert_allclose(theta, ref, rtol=1e-12)


def test_adam_constant_gradient_renormalizes_exactly():
    # m_hat = g and v_hat = g**2 at every step, even with decaying beta_t
    g = np.array([2.0, -0.5])
    state = AdamState.zeros(2)
    theta = np.zeros(2)
    for t in range(1, 31):
        beta_t = 0.999 / t**0.4
        state, theta = adam_step(state, theta, g, 0.01, beta_t, 0.999)
        np.testing.assert_allclose(state.m / state.weight_mass_m, g, rtol=1e-13)
        np.testing.assert_allclose(
            state.v / state.weight_mass_v, g * g, rtol=1e-13
        )


def test_adam_first_step_is_sign_step():
    # after one update m_hat = g, v_hat = g^2, so theta moves by
    # a * g / (|g| + delta), i.e. almost exactly a * sign(g)
    state = AdamState.zeros(3)
    g = np.array([5.0, -0.01, 2.0])
    _, theta = adam_step(state, np.zeros(3), g, 0.1, 0.999, 0.999, 1e-8)
    np.testing.assert_allclose(theta, -0.1 * np.sign(g), rtol=1e-5)


def test_adam_parameter_validation():
    st = AdamState.zeros(1)
    with pytest.raises(ValueError, match="beta_t"):
        adam_step(st, np.zeros(1), np.ones(1), 0.1, -0.1, 0.9)
    with pytest.raises(ValueError, match="gamma_t"):
        adam_step(st, np.zeros(1), np.ones(1), 0.1, 0.9, 1.0)
    with pytest.raises(ValueError, match="delta"):
        adam_step(st, np.zeros(1), np.ones(1), 0.1, 0.9, 0.9, 0.0)


# ------------------------------------------------------------ trajectory


def _record(it, loss, theta=0.0):
    return TrajectoryRecord(
        iteration=it, n_evals=2 * it, loss=loss, a_t=0.1, c_t=0.01,
        beta_t=0.9, theta=np.array([theta]),
    )


def test_trajectory_best_includes_initial_point():
    traj = Trajectory(initial_theta=np.array([1.0]), initial_loss=0.5,
                      records=[_record(1, 0.7), _record(2, 0.6)])
    it, loss, theta = traj.best()
    assert (it, loss) == (0, 0.5)
    np.testing.assert_array_equal(theta, [1.0])


def test_trajectory_best_breaks_ties_earliest():
    traj = Trajectory(initial_theta=np.array([0.0]), initial_loss=1.0,
                      records=[_record(1, 0.3, 5.0), _record(2, 0.3, 9.0)])
    it, loss, theta = traj.best()
    assert (it, loss) == (1, 0.3)
    np.testing.assert_array_equal(theta, [5.0])


def test_trajectory_properties_empty_and_filled():
    empty = Trajectory(initial_theta=np.array([2.0]), initial_loss=4.0)
    assert empty.n_updates == 0
    assert empty.total_evals == 0
    np.testing.assert_array_equal(empty.final_theta, [2.0])

    filled = Trajectory(initial_theta=np.array([2.0]), initial_loss=4.0,
                        records=[_record(1, 1.0, -1.0)])
    assert filled.n_updates == 1
    assert filled.total_evals == 2
    np.testing.assert_array_equal(filled.final_theta, [-1.0])


# ------------------------------------------------------- optimization loop


def test_update_counts_against_budget():
    schedules = ScheduleSet()
    theta0 = np.full(20, 0.1)
    cases = [
        (EstimatorConfig("fdsa"), 12),
        (EstimatorConfig("spsa"), 240),
        (EstimatorConfig("rsgf", n_samples=2), 240),
        (EstimatorConfig("rsgf"), 480),
    ]
    for est, expected_updates in cases:
        traj = run_optimization(sphere, est, "sgd", schedules, theta0,
                                budget=480, seed=3)
        assert traj.n_updates == expected_updates
        assert traj.total_evals == 480


def test_budget_not_exceeded_when_indivisible():
    traj = run_optimization(
        sphere, EstimatorConfig("fdsa"), "sgd", ScheduleSet(),
        np.full(20, 0.1), budget=479, seed=0,
    )
    assert traj.n_updates == 11
    assert traj.total_evals == 440


def test_billing_matches_evals_per_update_and_stays_in_budget():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=120, deadline=None)
    @hypothesis.given(
        estimator=st.builds(
            EstimatorConfig,
            method=st.sampled_from(["fdsa", "spsa", "rsgf"]),
            n_samples=st.integers(1, 3),
            count_baseline=st.booleans(),
        ),
        update_rule=st.sampled_from(["sgd", "momentum", "adam"]),
        dim=st.integers(1, 4),
        budget=st.integers(0, 60),
        seed=st.integers(0, 2**32 - 1),
    )
    def check(estimator, update_rule, dim, budget, seed):
        cost = estimator.evals_per_update(dim)
        traj = run_optimization(sphere, estimator, update_rule, ScheduleSet(),
                                np.full(dim, 0.3), budget=budget, seed=seed)
        billed = [0] + [r.n_evals for r in traj.records]
        assert all(b - a == cost for a, b in zip(billed, billed[1:]))
        assert traj.total_evals == billed[-1] <= budget
        # the loop stops only when the next update would not fit
        assert budget - billed[-1] < cost

    check()


def test_zero_budget_records_only_initial_point():
    traj = run_optimization(
        sphere, EstimatorConfig("spsa"), "sgd", ScheduleSet(),
        np.array([0.3, -0.3]), budget=0, seed=0,
    )
    assert traj.n_updates == 0
    assert traj.initial_loss == pytest.approx(0.18)


def test_recorded_schedules_and_eval_grid():
    schedules = ScheduleSet(a0=0.05, alpha=0.602, c0=0.01, zeta=0.101,
                            beta0=0.9, lam=0.3)
    traj = run_optimization(sphere, EstimatorConfig("spsa"), "adam",
                            schedules, np.array([0.5, 0.5]), budget=20, seed=1)
    assert [r.iteration for r in traj.records] == list(range(1, 11))
    assert [r.n_evals for r in traj.records] == list(range(2, 21, 2))
    for r in traj.records:
        assert r.a_t == schedules.learning_rate(r.iteration)
        assert r.c_t == schedules.perturbation_size(r.iteration)
        assert r.beta_t == schedules.momentum_coeff(r.iteration)


def test_run_is_bitwise_deterministic():
    args = (sphere, EstimatorConfig("rsgf", n_samples=2), "adam",
            ScheduleSet(lam=0.4), np.array([0.4, -0.2, 0.1]))
    a = run_optimization(*args, budget=60, seed=7)
    b = run_optimization(*args, budget=60, seed=7)
    assert a.n_updates == b.n_updates
    for ra, rb in zip(a.records, b.records):
        assert np.array_equal(ra.theta, rb.theta)
        assert ra.loss == rb.loss


def test_different_seeds_differ():
    # SPSA estimates are invariant under delta -> -delta, so compare whole
    # trajectories rather than a single update
    args = (sphere, EstimatorConfig("spsa"), "sgd", ScheduleSet(),
            np.array([0.4, -0.2, 0.1]))
    a = run_optimization(*args, budget=40, seed=1)
    b = run_optimization(*args, budget=40, seed=2)
    assert not np.array_equal(a.records[-1].theta, b.records[-1].theta)


def test_clip_box_bounds_every_iterate():
    traj = run_optimization(
        lambda th: float(-np.sum(th)),  # push parameters upward
        EstimatorConfig("spsa"), "sgd", ScheduleSet(a0=0.5),
        np.zeros(4), budget=40, seed=2, clip_box=(-0.1, 0.1),
    )
    for rec in traj.records:
        assert np.all(rec.theta >= -0.1) and np.all(rec.theta <= 0.1)


def test_descent_on_sphere_improves():
    traj = run_optimization(sphere, EstimatorConfig("spsa"), "sgd",
                            ScheduleSet(), np.full(5, 0.5), budget=800, seed=5)
    assert traj.records[-1].loss < traj.initial_loss * 0.1


def test_abort_preserves_partial_trajectory():
    calls = {"n": 0}

    def dies_late(theta):
        calls["n"] += 1
        if calls["n"] > 13:
            raise RuntimeError("amplifier tripped")
        return sphere(theta)

    with pytest.raises(OptimizationAborted) as info:
        run_optimization(dies_late, EstimatorConfig("spsa"), "sgd",
                         ScheduleSet(), np.ones(2), budget=100, seed=0)
    traj = info.value.trajectory
    # call 1 is the initial probe; each update is 2 probes + 1 loss probe,
    # so calls 2..13 complete four updates and the fifth update dies
    assert traj.n_updates == 4
    assert traj.total_evals == 8


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_abort_on_non_finite_loss_probe():
    # steep linear slope: probes near the start stay finite, but the first
    # updated iterate overflows the loss probe to -inf/+inf
    def steep(theta):
        return float(1e308 * theta[0])

    with pytest.raises(OptimizationAborted, match="non-finite") as info:
        run_optimization(steep, EstimatorConfig("spsa"), "sgd",
                         ScheduleSet(), np.array([1.0]), budget=10, seed=0)
    assert info.value.trajectory.n_updates == 0


def test_unknown_update_rule_and_bad_budget():
    with pytest.raises(ValueError, match="unknown update rule"):
        run_optimization(sphere, EstimatorConfig("spsa"), "nesterov",
                         ScheduleSet(), np.ones(2), budget=10)
    with pytest.raises(ValueError, match="budget"):
        run_optimization(sphere, EstimatorConfig("spsa"), "sgd",
                         ScheduleSet(), np.ones(2), budget=-1)
    with pytest.raises(ValueError, match="initial_theta"):
        run_optimization(sphere, EstimatorConfig("spsa"), "sgd",
                         ScheduleSet(), np.ones((2, 2)), budget=10)


def test_momentum_truncation_reflected_in_records():
    schedules = ScheduleSet(beta0=0.9, lam=0.0, truncation_step=3)
    traj = run_optimization(sphere, EstimatorConfig("spsa"), "momentum",
                            schedules, np.full(3, 0.4), budget=16, seed=4)
    betas = [r.beta_t for r in traj.records]
    assert betas[:3] == [0.9, 0.9, 0.9]
    assert all(b == 0.0 for b in betas[3:])
