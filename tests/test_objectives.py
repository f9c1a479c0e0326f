"""Pulse objectives against exact targets and an independent reference; synthetic
functions."""

from __future__ import annotations

import numpy as np
import pytest

import pertopt.objectives
from pertopt import (
    EstimatorConfig,
    ObjectiveConfig,
    ObjectiveError,
    PulseSequence,
    ScheduleSet,
    TransmonParams,
    embed_qubit_gate,
    evolve,
    fit_rb_decay,
    hann_waveform,
    make_pulse_objective,
    measure_population,
    rotation_unitary,
    run_optimization,
    run_rb,
    synthetic_objective,
)
from pertopt.estimators import evaluate_objective
from pertopt.objectives import SYNTHETIC_OBJECTIVES, ideal_excited_after_x90s

TWO_LEVEL = TransmonParams(n_levels=2)


def pulse(a1=0.0, b1=0.0):
    """Full theta of a pulse driving only the first I and Q basis windows."""
    theta = np.zeros(20)
    theta[0], theta[10] = a1, b1
    return theta


def loss(name, theta, cfg, rng=None):
    """One value of a freshly built pulse objective."""
    return make_pulse_objective(name, cfg, rng)(theta)


def exact_cfg(**kwargs):
    kwargs.setdefault("transmon", TWO_LEVEL)
    kwargs.setdefault("shots", 0)
    return ObjectiveConfig(**kwargs)


# ------------------------------------------------------------ ideal targets


def test_ideal_population_cycle():
    assert [ideal_excited_after_x90s(k) for k in range(1, 6)] == [
        1.0, 0.5, 0.0, 0.5, 1.0,
    ]
    for k in range(1, 17):
        expect = np.sin((k + 1) * np.pi / 4.0) ** 2
        assert ideal_excited_after_x90s(k) == pytest.approx(expect, abs=1e-12)


def test_exact_x90_pulse_zeroes_all_losses():
    # s * A1 * duration = pi/2 at A1 = 0.5 on two levels
    cfg = exact_cfg()
    for name in ("lx", "ly", "l_combined"):
        assert loss(name, pulse(a1=0.5), cfg) <= 1e-12


def test_identity_pulse_frozen_values():
    # zero pulse leaves the +x-prepared population at 1/2 for every k:
    # k_list (1, 2) targets are (1.0, 0.5), so lx = 0.25 exactly
    cfg = exact_cfg()
    zero = pulse()
    assert loss("lx", zero, cfg) == pytest.approx(0.25, abs=1e-12)
    assert loss("ly", zero, cfg) == pytest.approx(0.0, abs=1e-12)
    assert loss("l_combined", zero, cfg) == pytest.approx(0.125, abs=1e-12)


def test_identity_pulse_values_hold_on_three_levels():
    cfg = ObjectiveConfig(shots=0)
    assert loss("lx", pulse(), cfg) == pytest.approx(0.25, abs=1e-12)
    assert loss("l_combined", pulse(), cfg) == pytest.approx(0.125, abs=1e-12)


def test_y_rotation_fails_the_y_loss():
    # a pure Q-drive quarter turn moves the +y state to the pole
    cfg = exact_cfg(k_list=(1,))
    assert loss("ly", pulse(b1=0.5), cfg) == pytest.approx(0.5, abs=1e-12)
    assert loss("ly", pulse(a1=0.5), cfg) <= 1e-12


def test_combined_averages_its_components_exactly():
    rng = np.random.default_rng(6)
    cfg = ObjectiveConfig(shots=0)
    for _ in range(5):
        theta = 0.3 * rng.standard_normal(20)
        lx, ly = loss("lx", theta, cfg), loss("ly", theta, cfg)
        assert loss("l_combined", theta, cfg) == (lx + ly) / 2.0


def test_losses_are_bounded():
    rng = np.random.default_rng(14)
    cfg = ObjectiveConfig(shots=0)
    noisy_cfg = ObjectiveConfig(shots=500)
    for _ in range(8):
        theta = rng.uniform(-1, 1, 20)
        for c, r in ((cfg, None), (noisy_cfg, rng)):
            for name in ("lx", "ly", "l_combined"):
                assert 0.0 <= loss(name, theta, c, r) <= 1.0


def test_shot_sampled_loss_is_seeded():
    cfg = ObjectiveConfig(shots=300)
    a = loss("lx", pulse(a1=0.4), cfg, rng=17)
    b = loss("lx", pulse(a1=0.4), cfg, rng=17)
    assert a == b
    assert loss("lx", pulse(a1=0.4), cfg, rng=18) != a


def test_shot_noise_shrinks_with_shot_count():
    exact = loss("lx", pulse(), ObjectiveConfig(shots=0))
    medians = []
    for shots, seed in ((100, 1), (10_000, 2), (1_000_000, 3)):
        cfg = ObjectiveConfig(shots=shots)
        objective = make_pulse_objective("lx", cfg, rng=seed)
        theta = np.zeros(20)
        errors = [abs(objective(theta) - exact) for _ in range(50)]
        medians.append(float(np.median(errors)))
    assert medians[0] > medians[1] > medians[2]


def test_shots_required_error_is_raised_at_call_time():
    objective = make_pulse_objective("lx", ObjectiveConfig(shots=100))
    with pytest.raises(ValueError, match="lx requires an rng"):
        objective(np.zeros(20))


def test_rb_objective_requires_an_rng_at_call_time():
    objective = make_pulse_objective("l_rb", exact_cfg())
    with pytest.raises(ValueError, match="l_rb requires an rng"):
        objective(np.zeros(20))


def _reference_propagator(theta, cfg):
    """The pulse's propagator, from the public simulator pieces only."""
    full = np.zeros(2 * cfg.n_basis)
    full[list(cfg.active_dims or range(full.size))] = theta
    a, b = full[:cfg.n_basis], full[cfg.n_basis:]
    pulse = hann_waveform(a, b, cfg.duration, cfg.dt, cfg.distortion)
    return evolve(pulse, cfg.transmon)


def _reference_population_loss(name, theta, cfg, rng):
    """``lx``/``ly``/``l_combined`` as the loss is defined, readout by readout."""
    u = _reference_propagator(theta, cfg)
    ground = np.eye(cfg.transmon.n_levels, dtype=complex)[0]
    readouts = {
        "x": [ideal_excited_after_x90s(k) for k in cfg.k_list],
        "y": [0.5] * len(cfg.k_list),
    }
    axes = {"lx": "x", "ly": "y", "l_combined": "xy"}[name]
    losses = []
    for axis in axes:
        prep = embed_qubit_gate(rotation_unitary(axis, np.pi / 2), ground.size)
        error = 0.0
        for k, target in zip(cfg.k_list, readouts[axis]):
            psi = prep @ ground
            for _ in range(k):
                psi = u @ psi
            excited = measure_population(psi, cfg.shots, rng).excited
            error += abs(target - excited)
        losses.append(error / len(cfg.k_list))
    return losses[0] if len(losses) == 1 else (losses[0] + losses[1]) / 2.0


def test_objective_matches_an_independent_reference_bit_for_bit():
    # the objective does its pulse-independent work once and reuses the
    # propagator of a repeated theta; every value must still be the loss
    # rebuilt from the simulator's public pieces, draw for draw from the
    # same stream
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def configs(draw):
        n_basis = draw(st.integers(1, 6))
        dt = draw(st.sampled_from([0.5, 1.0, 2.0]))
        kwargs = {
            "transmon": TransmonParams(n_levels=draw(st.integers(2, 4))),
            "n_basis": n_basis,
            "dt": dt,
            "duration": dt * draw(st.integers(1, 24)),
            "shots": draw(st.sampled_from([0, 1, 100, 1000])),
            "k_list": tuple(sorted(draw(
                st.sets(st.integers(1, 9), min_size=1, max_size=4)
            ))),
        }
        if draw(st.booleans()):
            kwargs["active_dims"] = tuple(draw(st.lists(
                st.integers(0, 2 * n_basis - 1), min_size=1, unique=True
            )))
        if draw(st.booleans()):
            kwargs["distortion"] = tuple(draw(st.lists(
                st.floats(-1.0, 1.0), min_size=1, max_size=3
            )))
        return ObjectiveConfig(**kwargs)

    @hypothesis.settings(max_examples=120, deadline=None)
    @hypothesis.given(
        name=st.sampled_from(["lx", "ly", "l_combined"]),
        cfg=configs(),
        seed=st.integers(0, 2**32 - 1),
    )
    def check(name, cfg, seed):
        objective = make_pulse_objective(name, cfg, seed)
        rng = np.random.default_rng(seed)
        for theta in np.random.default_rng(seed).uniform(-0.4, 0.4, (4, cfg.dim)):
            # each theta twice in a row, as an RSGF baseline follows the
            # loss probe; the second time as a copy
            for probe in (theta, theta.copy()):
                value = objective(probe)
                assert type(value) is float
                expected = _reference_population_loss(name, theta, cfg, rng)
                assert value.hex() == expected.hex()

    check()


def test_rb_objective_matches_run_rb_and_its_fit_bit_for_bit():
    cfg = exact_cfg(rb_lengths=(0, 2, 5, 9), rb_sequences=3, distortion=(0.9, 0.1))
    objective = make_pulse_objective("l_rb", cfg, 21)
    rng = np.random.default_rng(21)
    for theta in pulse(a1=0.5) + np.random.default_rng(22).uniform(-0.1, 0.1, (3, 20)):
        u = _reference_propagator(theta, cfg)
        # a repeated theta draws fresh Clifford sequences
        for _ in range(2):
            data = run_rb(u, cfg.rb_lengths, cfg.rb_sequences, cfg.shots, rng)
            decay = fit_rb_decay(data.lengths, data.survival).decay_rate
            assert objective(theta).hex() == max(0.0, (1.0 - decay) * 100.0).hex()


def _count_calls(monkeypatch, names):
    """Replace each ``pertopt.objectives`` name by a counting stand-in."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(pertopt.objectives, name)

        def counting(*args, _name=name, _real=real, **kwargs):
            counts[_name] += 1
            if _name == "evolve":  # the benchmark counts the pulse's segments
                assert isinstance(args[0], PulseSequence)
            return _real(*args, **kwargs)

        monkeypatch.setattr(pertopt.objectives, name, counting)
    return counts


@pytest.mark.parametrize(
    "name, layers",
    [
        ("lx", {"hann_waveform", "evolve"}),
        ("l_combined", {"hann_waveform", "evolve"}),
        ("l_rb", {"hann_waveform", "evolve", "run_rb", "fit_rb_decay"}),
    ],
)
def test_losses_reach_each_layer_through_the_module_lookups(monkeypatch, name, layers):
    # the benchmark times and counts its layers by wrapping these names on
    # pertopt.objectives; a loss that bypassed them would read as no work
    counts = _count_calls(
        monkeypatch, ("hann_waveform", "evolve", "run_rb", "fit_rb_decay")
    )
    cfg = exact_cfg(shots=100, rb_lengths=(0, 2, 5), rb_sequences=2)
    objective = make_pulse_objective(name, cfg, 3)
    for theta in (pulse(a1=0.5), pulse(a1=0.4)):
        objective(theta)
    assert counts == {layer: 2 if layer in layers else 0 for layer in counts}


def test_rsgf_baseline_reuses_the_loss_probes_propagator(monkeypatch):
    # each update's baseline is the theta its loss probe just simulated
    counts = _count_calls(monkeypatch, ("evolve",))
    objective = make_pulse_objective("lx", ObjectiveConfig(shots=1000), 4)
    n_samples = 2
    trajectory = run_optimization(
        objective, EstimatorConfig("rsgf", n_samples), "adam", ScheduleSet(),
        np.zeros(20), budget=12, seed=5,
    )
    assert trajectory.n_updates == 6
    assert counts["evolve"] == 1 + trajectory.n_updates * (n_samples + 1)


@pytest.mark.parametrize(
    "theta",
    [
        np.zeros(19),
        np.zeros((2, 10)),
        np.r_[np.nan, np.zeros(19)],
        np.r_[np.zeros(19), -np.inf],
    ],
    ids=["short", "2-d", "nan", "inf"],
)
@pytest.mark.parametrize("name", ["lx", "l_combined", "l_rb"])
def test_bad_theta_raises_at_call_time(name, theta):
    objective = make_pulse_objective(name, ObjectiveConfig(shots=100), rng=1)
    with pytest.raises(ValueError, match="theta must be 1-D|finite"):
        objective(theta)
    with pytest.raises(ObjectiveError, match="probe baseline"):
        evaluate_objective(objective, theta, "baseline")


# -------------------------------------------------------------------- l_rb


def test_loss_rb_requires_an_rng():
    # the RB loss needs its rng for the sequences, whatever the shot count
    objective = make_pulse_objective("l_rb", exact_cfg(shots=100))
    with pytest.raises(ValueError, match="l_rb requires an rng"):
        objective(pulse(a1=0.5))


def test_loss_rb_ideal_gate_scores_zero():
    cfg = exact_cfg(rb_sequences=8)
    assert loss("l_rb", pulse(a1=0.5), cfg, rng=3) <= 1e-4


def test_loss_rb_over_rotation_fixture():
    # A1 scaled so the gate is Rx(pi/2 + 0.0447); expected percent loss is
    # (1 - p) * 100 with 1 - p = 2 * r * 0.5 from the twirl oracle
    delta = 0.0447
    cfg = exact_cfg(rb_sequences=40)
    over = pulse(a1=0.5 * (1.0 + delta / (np.pi / 2.0)))
    theory = 2.0 * 0.0003329595541977648 * 0.5 * 100.0
    assert loss("l_rb", over, cfg, rng=4) == pytest.approx(theory, rel=0.5)


def test_loss_rb_floors_at_zero():
    cfg = exact_cfg(rb_sequences=8)
    assert loss("l_rb", pulse(a1=0.5), cfg, rng=11) >= 0.0


def test_loss_rb_is_seeded_even_without_shots():
    cfg = exact_cfg(rb_sequences=4, rb_lengths=(0, 2, 5, 9, 14))
    over = pulse(a1=0.52)
    assert loss("l_rb", over, cfg, rng=9) == loss("l_rb", over, cfg, rng=9)


# ----------------------------------------------------------- configuration


def test_objective_config_validation():
    with pytest.raises(ValueError, match="k_list"):
        ObjectiveConfig(k_list=(2, 1))
    with pytest.raises(ValueError, match="k_list"):
        ObjectiveConfig(k_list=(0,))
    for shots in (-1, 10.5, True):
        with pytest.raises(ValueError, match="shots"):
            ObjectiveConfig(shots=shots)
    with pytest.raises(ValueError, match="active_dims"):
        ObjectiveConfig(active_dims=(1, 1))
    with pytest.raises(ValueError, match="active_dims"):
        ObjectiveConfig(active_dims=(25,))
    with pytest.raises(ValueError, match="rb_lengths"):
        ObjectiveConfig(rb_lengths=(0, 5))
    with pytest.raises(ValueError, match="rb_sequences"):
        ObjectiveConfig(rb_sequences=0)
    for n_basis in (0, 2.5, 10.0, True):
        with pytest.raises(ValueError, match="n_basis"):
            ObjectiveConfig(n_basis=n_basis)
    # fractional entries are rejected, not truncated
    for field, bad in (
        ("k_list", (1.5, 2.7)), ("k_list", (1, 2.0)), ("k_list", "12"),
        ("active_dims", (0.5, 10)), ("active_dims", (True,)),
        ("rb_lengths", (0, 2.5, 5)),
    ):
        with pytest.raises(ValueError, match=field):
            ObjectiveConfig(**{field: bad})
    for fir in ((1.0, np.nan), (np.inf,), ("1.0",), (True,)):
        with pytest.raises(ValueError, match="distortion"):
            ObjectiveConfig(distortion=fir)
    cfg = ObjectiveConfig(k_list=np.array([1, 3]), distortion=np.array([1, 0]))
    assert cfg.k_list == (1, 3) and type(cfg.k_list[0]) is int
    assert cfg.distortion == (1.0, 0.0) and type(cfg.distortion[0]) is float
    for bad in (np.inf, np.nan, None, "20"):
        with pytest.raises(ValueError, match="duration must be a finite number"):
            ObjectiveConfig(duration=bad)
        with pytest.raises(ValueError, match="dt must be a finite number"):
            ObjectiveConfig(dt=bad)
    for bad in (0.0, -20.0):
        with pytest.raises(ValueError, match="duration must be > 0"):
            ObjectiveConfig(duration=bad)
        with pytest.raises(ValueError, match="dt must be > 0"):
            ObjectiveConfig(dt=bad)
    with pytest.raises(ValueError, match="evenly divide"):
        ObjectiveConfig(duration=1.0, dt=2.0)
    with pytest.raises(ValueError, match="evenly divide"):
        ObjectiveConfig(duration=20.0, dt=3.0)


def test_active_dims_reduce_the_search_space():
    cfg = exact_cfg(active_dims=(0, 10))
    assert cfg.dim == 2
    full = cfg.expand_theta(np.array([0.5, -0.2]))
    assert full[0] == 0.5 and full[10] == -0.2
    assert np.count_nonzero(full) == 2

    objective = make_pulse_objective("lx", cfg)
    assert objective(np.array([0.5, 0.0])) <= 1e-12


def test_expand_theta_validates_length():
    cfg = exact_cfg(active_dims=(0, 10))
    with pytest.raises(ValueError, match="length 2"):
        cfg.expand_theta(np.zeros(3))
    full_cfg = exact_cfg()
    with pytest.raises(ValueError, match="length 20"):
        full_cfg.expand_theta(np.zeros(4))


def test_distortion_config_feeds_the_propagator():
    base = exact_cfg()
    same = exact_cfg(distortion=(1.0,))
    halved = exact_cfg(distortion=(0.5,))
    theta = pulse(a1=0.5)
    assert loss("lx", theta, same) == loss("lx", theta, base)
    assert loss("lx", theta, halved) > loss("lx", theta, base) + 0.01


def test_unknown_pulse_loss_name():
    with pytest.raises(ValueError, match=r"^pulse loss must be one of \('lx', 'ly', "
                       r"'l_combined', 'l_rb'\), got 'fidelity'$"):
        make_pulse_objective("fidelity", exact_cfg())


# ---------------------------------------------------------------- synthetic


def test_synthetic_values_and_gradients():
    theta = np.array([1.0, -2.0, 0.5])
    sphere = synthetic_objective("sphere")
    assert sphere(theta) == pytest.approx(5.25)

    shifted = synthetic_objective("shifted_quadratic", shift=0.25)
    assert shifted(np.full(3, 0.25)) == 0.0

    cubic = synthetic_objective("cubic")
    assert cubic(theta) == pytest.approx(1.0 - 8.0 + 0.125)


def _clean_synthetic(name, theta, shift=0.5):
    """The noise-free value of a synthetic objective, written out."""
    if name == "sphere":
        return float(theta @ theta)
    if name == "shifted_quadratic":
        d = theta - shift
        return float(d @ d)
    return float(np.sum(theta**3))


def test_synthetic_noise_statistics():
    noisy = synthetic_objective("sphere", noise_sigma=0.1, seed=5)
    values = np.array([noisy(np.zeros(2)) for _ in range(10_000)])
    assert abs(values.mean()) < 0.004
    assert 0.095 <= values.std(ddof=1) <= 0.105


@pytest.mark.parametrize("name", SYNTHETIC_OBJECTIVES)
def test_synthetic_noise_is_the_seed_stream_scaled(name):
    # each value is the clean formula plus noise_sigma times the next
    # normal draw of the seed's stream, bit for bit
    noisy = synthetic_objective(name, noise_sigma=0.1, seed=5, shift=0.25)
    draws = np.random.default_rng(5)
    for theta in np.random.default_rng(0).normal(size=(20, 3)):
        expected = _clean_synthetic(name, theta, 0.25) + 0.1 * draws.standard_normal()
        assert noisy(theta) == expected


@pytest.mark.parametrize("name", SYNTHETIC_OBJECTIVES)
def test_noise_free_synthetic_ignores_the_seed(name):
    thetas = np.random.default_rng(1).normal(size=(10, 4))
    unseeded, seeded = synthetic_objective(name), synthetic_objective(name, seed=3)
    generator = synthetic_objective(name, seed=np.random.default_rng(3))
    for theta in thetas:
        expected = _clean_synthetic(name, theta)
        assert unseeded(theta) == seeded(theta) == generator(theta) == expected


def test_synthetic_validation():
    with pytest.raises(ValueError, match=r"^synthetic objective must be one of "
                       r"\('sphere', 'shifted_quadratic', 'cubic'\), got 'rosenbrock'$"):
        synthetic_objective("rosenbrock")
    with pytest.raises(ValueError, match="seed"):
        synthetic_objective("sphere", noise_sigma=0.1)
    with pytest.raises(ValueError, match="noise_sigma"):
        synthetic_objective("sphere", noise_sigma=-0.5, seed=1)


@pytest.mark.parametrize("noise_sigma", [np.nan, np.inf])
def test_synthetic_noise_sigma_must_be_finite(noise_sigma):
    # NaN used to run silently noise-free
    with pytest.raises(ValueError, match="noise_sigma"):
        synthetic_objective("sphere", noise_sigma=noise_sigma, seed=1)
