"""Acceptance suite: one end-to-end check per shipped claim.

Each test prints a single ``ACCEPTANCE n (name): PASS/FAIL`` line so the
whole gate can be read off a ``pytest -s`` run.  Benchmarks freeze their
seeds; every number here is reproducible bit for bit.
"""

from __future__ import annotations

import contextlib
import time

import numpy as np
import pytest

from pertopt import (
    AdamState,
    EstimatorConfig,
    ExperimentConfig,
    FinalRBConfig,
    ObjectiveConfig,
    PulseSequence,
    ScheduleSet,
    TransmonParams,
    adam_step,
    average_gate_fidelity,
    estimate_gradient,
    evolve,
    hann_waveform,
    read_summary_jsonl,
    read_trajectory_csv,
    rotation_unitary,
    run_experiment,
    run_rb,
    run_single,
    summarize_trajectories,
    two_stage_tuneup,
    validate_schedules,
)


@contextlib.contextmanager
def _criterion(num: int, name: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num} ({name}): FAIL", flush=True)
        raise
    print(f"\nACCEPTANCE {num} ({name}): PASS", flush=True)


# Shared benchmark pieces: six methods on the 20-dim Hann pulse task.
BENCH_SCHED = ScheduleSet(a0=0.032, c0=0.016, beta0=0.999, lam=0.4, gamma=0.999)
METHODS = {
    "fdsa": ("fdsa", "sgd", 1),
    "spsa": ("spsa", "sgd", 1),
    "rsgf": ("rsgf", "sgd", 2),
    "adamfdsa": ("fdsa", "adam", 1),
    "adamspsa": ("spsa", "adam", 1),
    "adamrsgf": ("rsgf", "adam", 2),
}


def _method_config(name, **overrides):
    est, rule, n_samples = METHODS[name]
    base = dict(
        name=name,
        objective="lx",
        estimator=EstimatorConfig(method=est, n_samples=n_samples),
        update_rule=rule,
        schedules=BENCH_SCHED,
        budget=480,
        initial_theta=np.zeros(20),
        objective_config=ObjectiveConfig(shots=0),
        repeats=1,
        base_seed=0,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_1_evaluation_accounting():
    # 480 evaluations, 20 parameters: 2p-cost FDSA fits 12 updates, the
    # 2-evaluation random-direction methods fit 240.
    with _criterion(1, "evaluation accounting"):
        start = time.monotonic()
        expected = {"fdsa": 12, "adamfdsa": 12}
        for name in METHODS:
            traj = run_single(_method_config(name), 0)
            assert traj.n_updates == expected.get(name, 240), name
            assert traj.total_evals == 480, name
        assert time.monotonic() - start < 60.0


def test_2_estimator_statistics():
    with _criterion(2, "estimator statistics"):
        start = time.monotonic()
        theta = np.array([0.7, -0.4, 0.2, 0.9, -1.1])
        sphere = lambda x: float(x @ x)  # noqa: E731
        true_grad = 2.0 * theta

        # Monte-Carlo mean of each random-direction estimator within 3
        # standard errors of the analytic gradient, 10^4 samples.
        for method, seed in (("spsa", 11), ("rsgf", 12)):
            rng, cfg = np.random.default_rng(seed), EstimatorConfig(method)
            draws = np.stack(
                [
                    estimate_gradient(sphere, theta, cfg, 0.01, rng).g_hat
                    for _ in range(10_000)
                ]
            )
            se = draws.std(axis=0, ddof=1) / np.sqrt(draws.shape[0])
            assert np.all(np.abs(draws.mean(axis=0) - true_grad) <= 3.0 * se)

        # Central differences are exact on quadratics.
        a_mat = np.array([[2.0, 0.3, 0.0], [0.3, 1.0, -0.2], [0.0, -0.2, 3.0]])
        b_vec = np.array([0.5, -1.0, 0.25])
        quad = lambda x: float(x @ a_mat @ x + b_vec @ x)  # noqa: E731
        x0 = np.array([0.4, -0.7, 1.2])
        fdsa = EstimatorConfig("fdsa")
        g = estimate_gradient(quad, x0, fdsa, 0.1, None).g_hat
        assert np.max(np.abs(g - (2.0 * a_mat @ x0 + b_vec))) <= 1e-10

        # Cubic curvature bias scales with c^2: halving c quarters it.
        cubic = lambda x: float(np.sum(x**3))  # noqa: E731
        x1 = np.array([1.0])
        bias = lambda c: abs(  # noqa: E731
            estimate_gradient(cubic, x1, fdsa, c, None).g_hat[0] - 3.0
        )
        assert 3.0 <= bias(0.2) / bias(0.1) <= 5.0

        # Measurement noise enters the estimate as sigma/c: halving c
        # doubles the spread.
        noise_rng = np.random.default_rng(21)
        noisy = lambda x: float(x @ x) + 0.05 * noise_rng.standard_normal()  # noqa: E731
        x2 = np.array([0.3, -0.2, 0.8])
        spreads = {}
        for c in (0.002, 0.001):
            draws = np.stack(
                [
                    estimate_gradient(noisy, x2, fdsa, c, None).g_hat
                    for _ in range(3000)
                ]
            )
            spreads[c] = draws.std(axis=0, ddof=1).mean()
        assert 1.7 <= spreads[0.001] / spreads[0.002] <= 2.3
        assert time.monotonic() - start < 60.0


def test_3_adaptive_update_equivalence():
    with _criterion(3, "adaptive update equivalence"):
        sched = ScheduleSet(a0=0.01, c0=0.01, beta0=0.999, lam=0.4, gamma=0.9)
        rng = np.random.default_rng(5)
        grads = rng.normal(size=(20, 4))

        # Recursive weight masses against the brute-force product sums.
        state = AdamState.zeros(4)
        theta = np.zeros(4)
        betas, gammas = [], []
        for t, g in enumerate(grads, start=1):
            a_t, _, beta_t, gamma_t = sched.coefficients(t)
            betas.append(beta_t)
            gammas.append(gamma_t)
            state, theta = adam_step(state, theta, g, a_t, beta_t, gamma_t)
            w_m = sum(
                (1.0 - betas[i]) * np.prod(betas[i + 1 : t])
                for i in range(t)
            )
            w_v = sum(
                (1.0 - gammas[i]) * np.prod(gammas[i + 1 : t])
                for i in range(t)
            )
            m_lit = sum(
                (1.0 - betas[i]) * np.prod(betas[i + 1 : t]) * grads[i]
                for i in range(t)
            )
            assert abs(state.weight_mass_m - w_m) <= 1e-12 * w_m
            assert abs(state.weight_mass_v - w_v) <= 1e-12 * w_v
            np.testing.assert_allclose(state.m, m_lit, rtol=1e-12, atol=0)

        # Constant coefficients reduce to textbook bias-corrected Adam.
        beta, gamma, a, delta = 0.9, 0.999, 0.05, 1e-8
        state = AdamState.zeros(4)
        ours = np.zeros(4)
        m = np.zeros(4)
        v = np.zeros(4)
        textbook = np.zeros(4)
        for t, g in enumerate(grads, start=1):
            state, ours = adam_step(state, ours, g, a, beta, gamma, delta)
            m = beta * m + (1 - beta) * g
            v = gamma * v + (1 - gamma) * g * g
            m_hat = m / (1.0 - beta**t)
            v_hat = v / (1.0 - gamma**t)
            textbook = textbook - a * m_hat / (np.sqrt(v_hat) + delta)
            np.testing.assert_allclose(ours, textbook, rtol=1e-12, atol=1e-15)

        # A constant gradient renormalizes to itself: m_hat = g, v_hat = g^2.
        g = np.array([2.0, -0.5, 1.0, 0.25])
        state = AdamState.zeros(4)
        pos = np.zeros(4)
        for t in range(1, 16):
            state, pos = adam_step(
                state, pos, g, 0.01, sched.coefficients(t)[2], 0.95
            )
            np.testing.assert_array_equal(state.m / state.weight_mass_m, g)
            np.testing.assert_array_equal(state.v / state.weight_mass_v, g * g)


def test_4_schedule_validator_examples():
    with _criterion(4, "schedule validator worked examples"):
        def report_for(lam, truncation=None):
            return validate_schedules(
                ScheduleSet(
                    a0=0.032, c0=0.016, beta0=0.999, lam=lam,
                    alpha=0.602, zeta=0.101, truncation_step=truncation,
                )
            )

        passing = report_for(0.502)
        assert all(c.passed for c in passing.values())
        assert [c.name for c in passing.values()] == [
            "learning-rate-divergence",
            "kushner-clark",
            "adaptive-divergence",
            "momentum-decay",
        ]

        # 0.4 + 0.602 - 0.101 = 0.901 fails the momentum decay bound ...
        failing = report_for(0.4)
        assert [c.name for c in failing.values() if not c.passed] == ["momentum-decay"]
        assert sum(c.passed for c in failing.values()) == 3

        # ... unless the momentum tail is truncated outright.
        assert all(c.passed for c in report_for(0.4, truncation=50).values())


def test_5_simulator_physics():
    with _criterion(5, "simulator physics oracles"):
        # Constant resonant drive on two levels Rabi-flops analytically.
        qubit = TransmonParams(n_levels=2)
        worst = 0.0
        for k in range(1, 21):
            u = evolve(PulseSequence(np.full(k, 0.3), np.zeros(k)), qubit)
            expect = np.sin(qubit.drive_scale * 0.3 * k / 2.0) ** 2
            worst = max(worst, abs(abs(u[1, 0]) ** 2 - expect))
        assert worst <= 1e-6

        # Propagators stay unitary for arbitrary in-range pulses.
        rng = np.random.default_rng(23)
        for _ in range(5):
            a, b = rng.uniform(-1, 1, 10), rng.uniform(-1, 1, 10)
            u = evolve(hann_waveform(a, b, 20.0, 1.0), TransmonParams())
            assert np.max(np.abs(u.conj().T @ u - np.eye(3))) <= 1e-9

        # Doing nothing instead of a quarter turn scores 2/3 on average.
        fid = average_gate_fidelity(np.eye(2), rotation_unitary("x", np.pi / 2))
        assert abs(fid - 2.0 / 3.0) <= 1e-10

        # A perfect gate survives randomized benchmarking untouched.
        data = run_rb(
            rotation_unitary("x", np.pi / 2),
            lengths=(0, 5, 20, 100),
            n_sequences=6,
            seed=3,
        )
        assert np.max(np.abs(data.survival - 1.0)) <= 1e-12


def test_6_twenty_dim_benchmark_ordering():
    # Six-method shootout on the 20-dim pulse task at 1000 shots from a
    # fixed random start; random-direction methods beat FDSA, the adaptive
    # variants at least match their plain counterparts, and the adaptive
    # family lands tighter.
    with _criterion(6, "20-dim benchmark ordering"):
        start = time.monotonic()
        initial = np.random.default_rng(13).uniform(-0.25, 0.25, 20)
        finals = {}
        for name in METHODS:
            cfg = _method_config(
                name,
                objective_config=ObjectiveConfig(shots=1000),
                initial_theta=initial,
                repeats=5,
            )
            runs = [run_single(cfg, r) for r in range(cfg.repeats)]
            assert all(t.total_evals == 480 for t in runs)
            finals[name] = np.array([t.records[-1].loss for t in runs])

        med = {k: np.median(v) for k, v in finals.items()}
        assert med["spsa"] < med["fdsa"]
        assert med["rsgf"] < med["fdsa"]
        assert med["adamspsa"] < med["adamfdsa"]
        assert med["adamrsgf"] < med["adamfdsa"]
        assert med["adamspsa"] <= med["spsa"]
        assert med["adamrsgf"] <= med["rsgf"]

        plain = np.sqrt(np.mean([finals[k].var() for k in ("fdsa", "spsa", "rsgf")]))
        adaptive = np.sqrt(
            np.mean([finals[k].var() for k in ("adamfdsa", "adamspsa", "adamrsgf")])
        )
        assert adaptive <= plain
        assert time.monotonic() - start < 600.0


def test_7_two_variable_benchmark():
    # On the two-variable task the shared step size overshoots for plain
    # SPSA (it rarely improves on its start) while both adaptive variants
    # descend within their 20 updates.
    with _criterion(7, "two-variable benchmark"):
        two_dim = ObjectiveConfig(shots=0, active_dims=(0, 10))
        sched = ScheduleSet(a0=0.15, c0=0.016, beta0=0.999, lam=0.4, gamma=0.999)
        initial = np.array([0.375, 0.225])

        def bests(name):
            cfg = _method_config(
                name,
                objective_config=two_dim,
                schedules=sched,
                budget=40,
                initial_theta=initial,
                repeats=5,
                base_seed=200,
            )
            out = []
            for r in range(cfg.repeats):
                traj = run_single(cfg, r)
                assert traj.n_updates == 20
                out.append(min(rec.loss for rec in traj.records))
            return np.median(out)

        plain_best = bests("spsa")
        assert bests("adamspsa") < plain_best
        assert bests("adamrsgf") < plain_best


@pytest.mark.filterwarnings("ignore:interleaved decay exceeds")
def test_8_two_stage_tuneup(tmp_path):
    # Full tune-up from the zero vector: a wide-step rough stage on the
    # combined loss, then the pinned small-step stage on the RB loss.  At
    # least one adaptive variant must land at >= 0.999 average gate
    # fidelity with the interleaved-RB estimate agreeing with the direct
    # oracle to 5e-4.
    with _criterion(8, "two-stage tuneup"):
        start = time.monotonic()
        rough_sched = ScheduleSet(a0=0.08, c0=0.016, beta0=0.999, lam=0.4, gamma=0.999)
        fine_obj = ObjectiveConfig(
            shots=0, rb_lengths=(1, 20, 60, 150, 300), rb_sequences=24
        )
        outcomes = {}
        for variant, est, fine_sched in (
            (
                "adamspsa",
                EstimatorConfig(method="spsa"),
                ScheduleSet(a0=0.002, c0=0.002, beta0=0.999, lam=0.1, gamma=0.999),
            ),
            (
                "adamrsgf",
                EstimatorConfig(method="rsgf", n_samples=2),
                ScheduleSet(a0=0.004, c0=0.004, beta0=0.999, lam=0.1, gamma=0.999),
            ),
        ):
            rough = ExperimentConfig(
                name=variant,
                objective="l_combined",
                estimator=est,
                update_rule="adam",
                schedules=rough_sched,
                budget=1600,
                initial_theta=np.zeros(20),
                objective_config=ObjectiveConfig(shots=10000),
                base_seed=53,
            )
            fine = ExperimentConfig(
                name=variant,
                objective="l_rb",
                estimator=est,
                update_rule="adam",
                schedules=fine_sched,
                budget=1000,
                initial_theta=np.zeros(20),
                objective_config=fine_obj,
                base_seed=1053,
            )
            result = two_stage_tuneup(rough, fine, tmp_path / variant)
            n_updates = len(result.rough.records) + len(result.fine.records)
            assert n_updates <= 3000
            outcomes[variant] = (
                result.interleaved_fidelity >= 0.999
                and abs(result.interleaved_fidelity - result.direct_fidelity) <= 5e-4
            )
        assert any(outcomes.values()), outcomes
        assert time.monotonic() - start < 1800.0


def test_9_persistence_round_trip(tmp_path):
    with _criterion(9, "persistence round trip"):
        cfg = _method_config(
            "adamspsa",
            objective_config=ObjectiveConfig(shots=200),
            budget=40,
            initial_theta=np.full(20, 0.1),
            repeats=2,
            base_seed=7,
        )
        first = run_experiment(cfg, tmp_path / "a")
        second = run_experiment(cfg, tmp_path / "b")

        # Identical config + seed means byte-identical artifacts.
        for p_a, p_b in zip(first.trajectory_paths, second.trajectory_paths):
            assert p_a.read_bytes() == p_b.read_bytes()
        assert first.summary_path.read_bytes() == second.summary_path.read_bytes()

        # Summary statistics recompute from the CSVs to the last digit.
        recomputed = summarize_trajectories(
            [read_trajectory_csv(p)[1] for p in first.trajectory_paths]
        )
        assert recomputed == read_summary_jsonl(first.summary_path)
