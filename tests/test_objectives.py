"""Calibration losses: exact targets, shot-noise behavior, synthetic functions."""

from __future__ import annotations

import numpy as np
import pytest

from pertopt import (
    ObjectiveConfig,
    ObjectiveError,
    TransmonParams,
    loss_combined,
    loss_rb,
    loss_x,
    loss_y,
    make_pulse_objective,
    synthetic_objective,
)
from pertopt.estimators import _evaluate
from pertopt.objectives import PULSE_LOSSES, ideal_excited_after_x90s
from pertopt.transmon import HannPulseParams

TWO_LEVEL = TransmonParams(n_levels=2)


def pulse(a1=0.0, b1=0.0):
    return HannPulseParams([a1] + [0.0] * 9, [b1] + [0.0] * 9)


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
    assert loss_x(pulse(a1=0.5), cfg).value <= 1e-12
    assert loss_y(pulse(a1=0.5), cfg).value <= 1e-12
    assert loss_combined(pulse(a1=0.5), cfg).value <= 1e-12


def test_identity_pulse_frozen_values():
    # zero pulse leaves the +x-prepared population at 1/2 for every k:
    # k_list (1, 2) targets are (1.0, 0.5), so loss_x = 0.25 exactly
    cfg = exact_cfg()
    zero = pulse()
    assert loss_x(zero, cfg).value == pytest.approx(0.25, abs=1e-12)
    assert loss_y(zero, cfg).value == pytest.approx(0.0, abs=1e-12)
    combined = loss_combined(zero, cfg)
    assert combined.value == pytest.approx(0.125, abs=1e-12)
    assert combined.components == {
        "loss_x": pytest.approx(0.25, abs=1e-12),
        "loss_y": pytest.approx(0.0, abs=1e-12),
    }


def test_identity_pulse_values_hold_on_three_levels():
    cfg = ObjectiveConfig(shots=0)
    assert loss_x(pulse(), cfg).value == pytest.approx(0.25, abs=1e-12)
    assert loss_combined(pulse(), cfg).value == pytest.approx(0.125, abs=1e-12)


def test_y_rotation_fails_the_y_loss():
    # a pure Q-drive quarter turn moves the +y state to the pole
    cfg = exact_cfg(k_list=(1,))
    assert loss_y(pulse(b1=0.5), cfg).value == pytest.approx(0.5, abs=1e-12)
    assert loss_y(pulse(a1=0.5), cfg).value <= 1e-12


def test_combined_averages_its_components_exactly():
    rng = np.random.default_rng(6)
    cfg = ObjectiveConfig(shots=0)
    for _ in range(5):
        ab = HannPulseParams(0.3 * rng.standard_normal(10),
                             0.3 * rng.standard_normal(10))
        v = loss_combined(ab, cfg)
        assert v.value == (v.components["loss_x"] + v.components["loss_y"]) / 2.0


def test_losses_are_bounded():
    rng = np.random.default_rng(14)
    cfg = ObjectiveConfig(shots=0)
    noisy_cfg = ObjectiveConfig(shots=500)
    for _ in range(8):
        ab = HannPulseParams(rng.uniform(-1, 1, 10), rng.uniform(-1, 1, 10))
        for c, r in ((cfg, None), (noisy_cfg, rng)):
            assert 0.0 <= loss_x(ab, c, r).value <= 1.0
            assert 0.0 <= loss_y(ab, c, r).value <= 1.0
            assert 0.0 <= loss_combined(ab, c, r).value <= 1.0


def test_shot_sampled_loss_is_seeded():
    cfg = ObjectiveConfig(shots=300)
    a = loss_x(pulse(a1=0.4), cfg, rng=17).value
    b = loss_x(pulse(a1=0.4), cfg, rng=17).value
    assert a == b
    assert loss_x(pulse(a1=0.4), cfg, rng=18).value != a


def test_shot_noise_shrinks_with_shot_count():
    exact = loss_x(pulse(), ObjectiveConfig(shots=0)).value
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
    with pytest.raises(ValueError, match="require an rng"):
        objective(np.zeros(20))


def test_rb_objective_requires_an_rng_at_call_time():
    objective = make_pulse_objective("l_rb", exact_cfg())
    with pytest.raises(ValueError, match="loss_rb requires an rng"):
        objective(np.zeros(20))


def test_objective_matches_the_public_losses_bit_for_bit():
    # the objective does its pulse-independent work once; every value must
    # still be the public loss's, draw for draw from the same stream
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
        loss, rng = PULSE_LOSSES[name], np.random.default_rng(seed)
        for theta in np.random.default_rng(seed).uniform(-0.4, 0.4, (4, cfg.dim)):
            value = objective(theta)
            assert type(value) is float
            expected = loss(cfg.pulse_from_theta(theta), cfg, rng).value
            assert value.hex() == expected.hex()

    check()


def test_rb_objective_matches_loss_rb_bit_for_bit():
    cfg = exact_cfg(rb_lengths=(0, 2, 5, 9), rb_sequences=3, distortion=(0.9, 0.1))
    objective = make_pulse_objective("l_rb", cfg, 21)
    rng = np.random.default_rng(21)
    x90 = pulse(a1=0.5).theta
    for theta in x90 + np.random.default_rng(22).uniform(-0.1, 0.1, (3, 20)):
        expected = loss_rb(cfg.pulse_from_theta(theta), cfg, rng).value
        assert objective(theta) == expected


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
        _evaluate(objective, theta, "baseline")


# -------------------------------------------------------------------- l_rb


def test_loss_rb_requires_an_rng():
    with pytest.raises(ValueError, match="rng"):
        loss_rb(pulse(a1=0.5), exact_cfg())


def test_loss_rb_ideal_gate_scores_zero():
    cfg = exact_cfg(rb_sequences=8)
    v = loss_rb(pulse(a1=0.5), cfg, rng=3)
    assert v.value <= 1e-4
    assert v.components["decay_rate"] >= 0.9999


def test_loss_rb_over_rotation_fixture():
    # A1 scaled so the gate is Rx(pi/2 + 0.0447); expected percent loss is
    # (1 - p) * 100 with 1 - p = 2 * r * 0.5 from the twirl oracle
    delta = 0.0447
    cfg = exact_cfg(rb_sequences=40)
    over = pulse(a1=0.5 * (1.0 + delta / (np.pi / 2.0)))
    theory = 2.0 * 0.0003329595541977648 * 0.5 * 100.0
    v = loss_rb(over, cfg, rng=4)
    assert v.value == pytest.approx(theory, rel=0.5)
    assert 0.0 < 1.0 - v.components["decay_rate"] < 0.001


def test_loss_rb_floors_at_zero():
    cfg = exact_cfg(rb_sequences=8)
    v = loss_rb(pulse(a1=0.5), cfg, rng=11)
    assert v.value >= 0.0


def test_loss_rb_is_seeded_even_without_shots():
    cfg = exact_cfg(rb_sequences=4, rb_lengths=(0, 2, 5, 9, 14))
    over = pulse(a1=0.52)
    assert loss_rb(over, cfg, rng=9).value == loss_rb(over, cfg, rng=9).value


# ----------------------------------------------------------- configuration


def test_objective_config_validation():
    with pytest.raises(ValueError, match="k_list"):
        ObjectiveConfig(k_list=(2, 1))
    with pytest.raises(ValueError, match="k_list"):
        ObjectiveConfig(k_list=(0,))
    with pytest.raises(ValueError, match="shots"):
        ObjectiveConfig(shots=-1)
    with pytest.raises(ValueError, match="active_dims"):
        ObjectiveConfig(active_dims=(1, 1))
    with pytest.raises(ValueError, match="active_dims"):
        ObjectiveConfig(active_dims=(25,))
    with pytest.raises(ValueError, match="rb_lengths"):
        ObjectiveConfig(rb_lengths=(0, 5))
    with pytest.raises(ValueError, match="rb_sequences"):
        ObjectiveConfig(rb_sequences=0)
    with pytest.raises(ValueError, match="n_basis"):
        ObjectiveConfig(n_basis=0)
    for bad in (0.0, -20.0, np.inf, np.nan, None, "20"):
        with pytest.raises(ValueError, match="duration must be a finite number"):
            ObjectiveConfig(duration=bad)
        with pytest.raises(ValueError, match="dt must be a finite number"):
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

    ab = cfg.pulse_from_theta(np.array([0.5, 0.0]))
    np.testing.assert_array_equal(ab.a_coeffs, [0.5] + [0.0] * 9)

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
    ab = pulse(a1=0.5)
    assert loss_x(ab, same).value == loss_x(ab, base).value
    assert loss_x(ab, halved).value > loss_x(ab, base).value + 0.01


def test_unknown_pulse_loss_name():
    with pytest.raises(ValueError, match="unknown pulse loss"):
        make_pulse_objective("fidelity", exact_cfg())


# ---------------------------------------------------------------- synthetic


def test_synthetic_values_and_gradients():
    theta = np.array([1.0, -2.0, 0.5])
    sphere = synthetic_objective("sphere")
    assert sphere(theta) == pytest.approx(5.25)
    np.testing.assert_allclose(sphere.gradient(theta), 2 * theta)

    shifted = synthetic_objective("shifted_quadratic", shift=0.25)
    assert shifted(np.full(3, 0.25)) == 0.0
    np.testing.assert_allclose(shifted.gradient(theta), 2 * (theta - 0.25))

    cubic = synthetic_objective("cubic")
    assert cubic(theta) == pytest.approx(1.0 - 8.0 + 0.125)
    np.testing.assert_allclose(cubic.gradient(theta), 3 * theta**2)


def test_synthetic_noise_statistics():
    noisy = synthetic_objective("sphere", noise_sigma=0.1, seed=5)
    values = np.array([noisy(np.zeros(2)) for _ in range(10_000)])
    assert abs(values.mean()) < 0.004
    assert 0.095 <= values.std(ddof=1) <= 0.105
    # the clean value ignores the noise stream
    assert noisy.clean_value(np.zeros(2)) == 0.0


def test_synthetic_validation():
    with pytest.raises(ValueError, match="unknown synthetic"):
        synthetic_objective("rosenbrock")
    with pytest.raises(ValueError, match="seed"):
        synthetic_objective("sphere", noise_sigma=0.1)
    with pytest.raises(ValueError, match="noise_sigma"):
        synthetic_objective("sphere", noise_sigma=-0.5, seed=1)
