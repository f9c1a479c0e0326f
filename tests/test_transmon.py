"""Pulse simulator physics: Rabi oracle, unitarity, populations, fidelity."""

from __future__ import annotations

import dataclasses
import re

import numpy as np
import pytest
from scipy.linalg import expm

from pertopt import (
    PulseSequence,
    TransmonParams,
    average_gate_fidelity,
    embed_qubit_gate,
    evolve,
    hann_waveform,
    measure_population,
    rotation_unitary,
)
from pertopt.objectives import _prepared_state
from pertopt.transmon import (
    TWO_PI,
    UnitarityError,
    _evolve_operators,
    hann_windows,
    lowering_operator,
)

QUBIT = TransmonParams(n_levels=2)
TRANSMON = TransmonParams()


def ground(n_levels):
    state = np.zeros(n_levels, dtype=complex)
    state[0] = 1.0
    return state


# -------------------------------------------------------------- parameters


def test_default_device_constants():
    p = TransmonParams()
    assert (p.n_levels, p.anharmonicity_mhz, p.drive_scale_mhz) == (3, 320.0, 25.0)
    assert p.anharmonicity == pytest.approx(TWO_PI * 0.320, rel=1e-15)
    assert p.drive_scale == pytest.approx(TWO_PI * 0.025, rel=1e-15)


def test_mhz_fields_give_the_default_rad_per_ns_bits():
    # the rad/ns values the defaults held before they were given in MHz
    p = TransmonParams()
    assert p.anharmonicity == TWO_PI * 0.320
    assert p.drive_scale == TWO_PI * 0.025
    assert TransmonParams(2, 200.0, 40.0).anharmonicity == TWO_PI * 200.0 / 1000.0


def test_level_count_validation():
    for n_levels in (5, 3.0, True, "3"):
        with pytest.raises(ValueError, match="n_levels"):
            TransmonParams(n_levels=n_levels)
    for name in ("anharmonicity_mhz", "drive_scale_mhz"):
        # 1e308 MHz is finite, but its rad/ns value overflows to inf
        for bad in (np.nan, np.inf, 0.0, -1.0, True, 1e308):
            with pytest.raises(ValueError, match=f"^{name} must be a finite number"):
                TransmonParams(**{name: bad})
    with pytest.raises(ValueError, match="n_levels must be >= 2"):
        embed_qubit_gate(np.eye(2), 1)


def test_lowering_operator_matrix():
    a = lowering_operator(3)
    np.testing.assert_allclose(
        a, [[0, 1, 0], [0, 0, np.sqrt(2)], [0, 0, 0]], atol=1e-15
    )


# ------------------------------------------------------------- pulse shapes


def test_hann_waveform_midpoint_sampling():
    pulse = hann_waveform([1.0], [0.0], 20.0, 4.0)
    t_mid = 4.0 * (np.arange(5) + 0.5)
    np.testing.assert_allclose(pulse.i_samples, 1.0 - np.cos(TWO_PI * t_mid / 20.0),
                               atol=1e-15)
    assert pulse.i_samples[2] == 2.0  # midpoint t = 10 hits the peak exactly
    np.testing.assert_array_equal(pulse.q_samples, np.zeros(5))
    assert pulse.dt == 4.0
    # no kernel travels with the pulse: evolve integrates these samples
    assert [f.name for f in dataclasses.fields(pulse)] == ["i_samples", "q_samples", "dt"]


def test_hann_waveform_matches_series_sum():
    rng = np.random.default_rng(8)
    a, b = rng.standard_normal(10), rng.standard_normal(10)
    pulse = hann_waveform(a, b, 20.0, 1.0)
    t_mid = np.arange(20) + 0.5
    window = [1.0 - np.cos(TWO_PI * (i + 1) * t_mid / 20.0) for i in range(10)]
    expect_i = sum(a[i] * window[i] for i in range(10))
    expect_q = sum(b[i] * window[i] for i in range(10))
    np.testing.assert_allclose(pulse.i_samples, expect_i, atol=1e-12)
    np.testing.assert_allclose(pulse.q_samples, expect_q, atol=1e-12)


def test_hann_waveform_requires_integer_segments():
    with pytest.raises(ValueError, match="does not evenly divide"):
        hann_waveform([1.0], [0.0], 20.0, 3.0)


def test_hann_waveform_validates_its_coefficients():
    for a, b in (([1.0, 2.0], [1.0]), ([], []), (np.ones((2, 2)), np.ones((2, 2)))):
        with pytest.raises(ValueError, match="equal length >= 1"):
            hann_waveform(a, b, 20.0, 1.0)
    for duration, dt in ((20.0, 0.0), (0.0, 1.0), (-20.0, -1.0)):
        with pytest.raises(ValueError, match="must be > 0"):
            hann_waveform([1.0], [0.0], duration, dt)
    with pytest.raises(ValueError, match="finite"):
        hann_waveform([np.nan], [0.0], 20.0, 1.0)
    for fir in ([np.nan], [0.5, np.inf], [], [[0.5]]):
        with pytest.raises(ValueError, match="distortion must be a finite"):
            hann_waveform([1.0], [0.0], 20.0, 1.0, distortion=fir)
    plain = hann_waveform([1.0], [0.0], 20.0, 1.0)
    distorted = hann_waveform([1.0], [0.0], 20.0, 1.0, distortion=(0.5,))
    np.testing.assert_array_equal(distorted.i_samples, 0.5 * plain.i_samples)


def test_pulse_sequence_validation():
    with pytest.raises(ValueError, match="equal length"):
        PulseSequence(i_samples=[1.0, 2.0], q_samples=[1.0])
    for dt in (0.0, np.nan):
        with pytest.raises(ValueError, match="dt must be > 0"):
            PulseSequence(i_samples=[1.0], q_samples=[0.0], dt=dt)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("quadrature", ["i", "q"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_pulse_sequence_samples_must_be_finite(bad, quadrature):
    # one bad sample among finite ones, refused without a warning
    samples = {"i": [0.1, 0.2, 0.3], "q": [0.0, -0.1, 0.4]}
    samples[quadrature][1] = bad
    with pytest.raises(ValueError, match="pulse samples must be finite"):
        PulseSequence(samples["i"], samples["q"])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("extreme", [1.7e308, -1.7e308, 5e-324, -5e-324])
def test_pulse_sequence_accepts_finite_extremes(extreme):
    pulse = PulseSequence([extreme, 0.0], [0.0, extreme])
    assert pulse.i_samples[0] == pulse.q_samples[1] == extreme


@pytest.mark.parametrize("dt", [np.inf, -np.inf])
def test_pulse_sequence_dt_must_be_finite(dt):
    with pytest.raises(ValueError, match="dt must be > 0 and finite"):
        PulseSequence(i_samples=[1.0], q_samples=[0.0], dt=dt)


def test_fir_distortion_shifts_and_scales_samples():
    a, b = [1.0, 0.5], [0.25, -1.0]
    plain = hann_waveform(a, b, 5.0, 1.0)
    delayed = hann_waveform(a, b, 5.0, 1.0, distortion=[0.0, 1.0])
    np.testing.assert_allclose(delayed.i_samples, [0.0, *plain.i_samples[:-1]],
                               atol=1e-15)
    np.testing.assert_allclose(delayed.q_samples, [0.0, *plain.q_samples[:-1]],
                               atol=1e-15)

    identity = hann_waveform(a, b, 5.0, 1.0, distortion=[1.0])
    np.testing.assert_array_equal(identity.i_samples, plain.i_samples)
    np.testing.assert_array_equal(identity.q_samples, plain.q_samples)


def test_distorted_waveform_evolves_as_convolved_samples():
    # hann_waveform's FIR path gives evolve the bits of the samples
    # convolved by hand, taken from the undistorted waveform
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    coeff = st.floats(-1.0, 1.0)

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(
        coeffs=st.integers(1, 6).flatmap(
            lambda n: st.tuples(st.lists(coeff, min_size=n, max_size=n),
                                st.lists(coeff, min_size=n, max_size=n))),
        segments=st.integers(1, 24),
        dt=st.sampled_from([0.5, 1.0, 2.0]),
        fir=st.lists(st.floats(-1.5, 1.5), min_size=1, max_size=4),
        n_levels=st.sampled_from([2, 3, 4]),
    )
    def check(coeffs, segments, dt, fir, n_levels):
        a, b = coeffs
        params = TransmonParams(n_levels=n_levels)
        duration = segments * dt
        plain = hann_waveform(a, b, duration, dt)
        n = plain.n_segments
        by_hand = PulseSequence(np.convolve(plain.i_samples, fir)[:n],
                                np.convolve(plain.q_samples, fir)[:n], dt)
        np.testing.assert_array_equal(
            evolve(hann_waveform(a, b, duration, dt, fir), params),
            evolve(by_hand, params),
        )

    check()


# ----------------------------------------------------------------- dynamics


def test_zero_pulse_acts_trivially_on_qubit_block():
    u = evolve(PulseSequence(np.zeros(20), np.zeros(20)), TRANSMON)
    np.testing.assert_allclose(u[:2, :2], np.eye(2), atol=1e-12)
    assert abs(abs(u[2, 2]) - 1.0) < 1e-12
    assert np.max(np.abs(u[:2, 2])) < 1e-12


def test_rabi_oscillation_matches_analytic_two_level():
    # constant resonant drive on two levels: P_excited = sin^2(s*A*t/2)
    amp = 0.3
    worst = 0.0
    for k in range(1, 21):
        pulse = PulseSequence(np.full(k, amp), np.zeros(k), dt=1.0)
        u = evolve(pulse, QUBIT)
        pop = abs(u[1, 0]) ** 2
        expect = np.sin(QUBIT.drive_scale * amp * k / 2.0) ** 2
        worst = max(worst, abs(pop - expect))
    assert worst <= 1e-6


def test_quadrature_phases_differ():
    # x drive gives -i*sin off-diagnoals, y drive gives a real rotation
    k, amp = 10, 0.5
    ux = evolve(PulseSequence(np.full(k, amp), np.zeros(k)), QUBIT)
    uy = evolve(PulseSequence(np.zeros(k), np.full(k, amp)), QUBIT)
    angle = QUBIT.drive_scale * amp * k
    np.testing.assert_allclose(ux, rotation_unitary("x", angle), atol=1e-10)
    np.testing.assert_allclose(uy, rotation_unitary("y", angle), atol=1e-10)


def test_propagator_stays_unitary_for_random_pulses():
    rng = np.random.default_rng(23)
    for _ in range(5):
        a, b = rng.uniform(-1, 1, 10), rng.uniform(-1, 1, 10)
        u = evolve(hann_waveform(a, b, 20.0, 1.0), TRANSMON)
        drift = np.max(np.abs(u.conj().T @ u - np.eye(3)))
        assert drift <= 1e-9


def test_exact_x90_at_half_amplitude_two_level():
    # hann series integrates to A1 * duration, so s * A1 * 20 = pi/2 at
    # A1 = 0.5; all segments commute on two levels
    pulse = hann_waveform([0.5] + [0.0] * 9, [0.0] * 10, 20.0, 1.0)
    u = evolve(pulse, QUBIT)
    fid = average_gate_fidelity(u, rotation_unitary("x", np.pi / 2))
    assert fid == pytest.approx(1.0, abs=1e-12)


def test_third_level_leaks_under_strong_fast_drive():
    # a strong high-harmonic drive modulates fast enough to defeat the
    # rotating-frame protection and strand population in level 2
    pulse = hann_waveform([0.0] * 9 + [3.0], [0.0] * 10, 20.0, 1.0)
    u = evolve(pulse, TRANSMON)
    leak = measure_population(u @ ground(3)).leakage
    assert leak > 1e-3

    # the same drive cannot leak on a two-level device
    u2 = evolve(hann_waveform([0.0, 3.0], [0.0, 0.0], 20.0, 1.0), QUBIT)
    pops = np.abs(u2 @ ground(2)) ** 2
    assert pops.sum() == pytest.approx(1.0, abs=1e-12)


def test_distorted_pulse_changes_rotation_angle():
    base = hann_waveform([0.4, 0.1], [0.0, 0.0], 8.0, 1.0)
    halved = hann_waveform([0.4, 0.1], [0.0, 0.0], 8.0, 1.0, distortion=[0.5])
    expected = hann_waveform([0.2, 0.05], [0.0, 0.0], 8.0, 1.0)
    np.testing.assert_allclose(
        evolve(halved, QUBIT), evolve(expected, QUBIT), atol=1e-12
    )
    assert not np.allclose(evolve(halved, QUBIT), evolve(base, QUBIT))


def lab_frame_propagator(i_s, q_s, dt, params, distortion=None):
    """Oracle: time-ordered product of ``expm(-i H_k dt)``, no phase frame."""
    if distortion is not None:
        n = len(i_s)
        i_s = np.convolve(i_s, distortion)[:n]
        q_s = np.convolve(q_s, distortion)[:n]
    a = lowering_operator(params.n_levels)
    ad = a.T
    h_static = -(params.anharmonicity / 2.0) * (ad @ ad @ a @ a)
    u = np.eye(params.n_levels, dtype=complex)
    for i_k, q_k in zip(i_s, q_s):
        h_k = h_static + (params.drive_scale / 2.0) * (
            i_k * (a + ad) + q_k * 1j * (ad - a)
        )
        u = expm(-1j * h_k * dt) @ u
    return u


def _oracle_cases():
    """``(n_levels, pulse, undistorted pulse, FIR kernel)`` per case."""
    rng = np.random.default_rng(41)
    for n in (2, 3, 4):
        cases = {
            f"random{n_seg}": PulseSequence(*rng.uniform(-1, 1, (2, n_seg)), 0.7)
            for n_seg in (1, 2, 7, 20, 33)
        }
        # 20 Hann samples through hann_waveform's FIR path; the oracle
        # convolves the undistorted samples itself
        a, b = rng.uniform(-1, 1, (2, 5))
        fir = [0.6, 0.3, 0.1]
        distorted = (hann_waveform(a, b, 26.0, 1.3, fir), hann_waveform(a, b, 26.0, 1.3))
        cases["pure_q"] = PulseSequence(np.zeros(7), rng.uniform(-1, 1, 7), 1.0)
        cases["negative_i"] = PulseSequence(-rng.uniform(0, 1, 7), np.zeros(7), 1.0)
        cases["all_zero"] = PulseSequence(np.zeros(5), np.zeros(5), 2.0)
        cases["mixed_zeros"] = PulseSequence(
            np.array([0.0, -0.4, 0.0, 0.8, -0.0, 0.3]),
            np.array([0.0, 0.0, 0.5, -0.2, -0.0, 0.0]),
            0.5,
        )
        for label, pulse in cases.items():
            yield pytest.param(n, pulse, pulse, None, id=f"{n}levels-{label}")
        yield pytest.param(n, *distorted, fir, id=f"{n}levels-distorted")


@pytest.mark.parametrize("n_levels, pulse, undistorted, distortion", _oracle_cases())
def test_evolve_matches_lab_frame_expm_product(n_levels, pulse, undistorted, distortion):
    params = TransmonParams(n_levels=n_levels)
    expected = lab_frame_propagator(
        undistorted.i_samples, undistorted.q_samples, undistorted.dt, params, distortion
    )
    np.testing.assert_allclose(evolve(pulse, params), expected, rtol=0.0, atol=1e-12)


def test_returned_propagator_is_a_fresh_writable_array():
    params = TransmonParams(n_levels=3)
    for n_seg in (1, 20):
        pulse = PulseSequence(np.full(n_seg, 0.3), np.full(n_seg, -0.2))
        u = evolve(pulse, params)
        expected = u.copy()
        assert u.flags.writeable
        u[...] = 0.0
        np.testing.assert_array_equal(evolve(pulse, params), expected)


def test_pulse_independent_caches_are_read_only():
    cached = [
        hann_windows(10, 20.0, 1.0),
        *_evolve_operators(TransmonParams()),
        _prepared_state("x", 3),
        _prepared_state("y", 2),
    ]
    for array in cached:
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0.0


def _scaled_modes(monkeypatch, scale):
    """Make ``eigh`` return its modes times ``scale``."""
    real_eigh = np.linalg.eigh

    def fake_eigh(h):
        energies, modes = real_eigh(h)
        return energies, modes * scale

    monkeypatch.setattr(np.linalg, "eigh", fake_eigh)


# on this 4-segment pulse, modes scaled by s drift by about 16 (s - 1)
SCALED_PULSE = PulseSequence(np.full(4, 0.3), np.full(4, 0.1))


@pytest.mark.parametrize(
    "scale, drift",
    [(np.nan, "nan"), (1.1, "3.595e+00"), (1.0 + 1e-9, "1.600e-08")],
    ids=["nan", "scaled", "just_above_threshold"],
)
def test_non_unitary_modes_raise(scale, drift, monkeypatch):
    _scaled_modes(monkeypatch, scale)
    message = f"unitarity drift {drift} exceeds 1e-8"
    with pytest.raises(UnitarityError, match=re.escape(message)):
        evolve(SCALED_PULSE, TRANSMON)


def test_modes_just_below_the_unitarity_threshold_evolve(monkeypatch):
    _scaled_modes(monkeypatch, 1.0 + 1e-10)
    assert evolve(SCALED_PULSE, TRANSMON).shape == (3, 3)


# ------------------------------------------------------------- measurement


def test_measure_population_exact():
    assert measure_population(np.array([0, 1, 0], dtype=complex)) == (0.0, 1.0, 0.0)
    m = measure_population(np.array([1, 1]) / np.sqrt(2))
    assert m.ground == pytest.approx(0.5, abs=1e-15)
    assert m.excited == pytest.approx(0.5, abs=1e-15)
    assert m.leakage == 0.0
    assert measure_population(np.array([0, 0, 1], dtype=complex)).leakage == 1.0


def test_measure_population_validation():
    with pytest.raises(ValueError, match="norm"):
        measure_population(np.array([1.0, 1.0]))
    for shots in (-1, 10.5, True):
        with pytest.raises(ValueError, match="shots"):
            measure_population(np.array([1.0, 0.0]), shots=shots, rng=0)
    with pytest.raises(ValueError, match="rng"):
        measure_population(np.array([1.0, 0.0]), shots=100)
    with pytest.raises(ValueError, match="1-D"):
        measure_population(np.ones((2, 2, 2)) / 2.0)
    with pytest.raises(ValueError, match="1-D"):
        measure_population(np.ones((3, 1)))
    with pytest.raises(ValueError, match="norm"):
        measure_population(np.array([[1.0, 0.0], [1.0, 1.0]]))


def test_nan_states_raise():
    with pytest.raises(ValueError, match="norm"):
        measure_population(np.array([np.nan, 0.0, 0.0]))
    with pytest.raises(ValueError, match="norm"):
        measure_population(np.array([[1.0, 0.0, 0.0], [np.nan, 0.0, 0.0]]))
    with pytest.raises(ValueError, match="norm"):
        measure_population(np.array([[np.nan, 0.0], [1.0, 0.0]]), shots=10, rng=0)


def test_frequencies_stay_normalized():
    hypothesis = pytest.importorskip("hypothesis")
    hnp = pytest.importorskip("hypothesis.extra.numpy")
    st = hypothesis.strategies

    @st.composite
    def states(draw):
        n_levels = draw(st.integers(2, 4))
        batch = draw(st.sampled_from([None, 1, 2, 5]))
        shape = (n_levels, 2) if batch is None else (batch, n_levels, 2)
        parts = draw(hnp.arrays(np.float64, shape, elements=st.floats(-1.0, 1.0)))
        state = parts[..., 0] + 1j * parts[..., 1]
        norms = np.linalg.norm(state, axis=-1, keepdims=True)
        hypothesis.assume(np.all(norms > 1e-3))
        return state / norms

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(
        state=states(),
        shots=st.sampled_from([0, 1, 7, 1000]),
        seed=st.integers(0, 2**32 - 1),
    )
    def check(state, shots, seed):
        m = measure_population(state, shots, rng=seed)
        fields = np.array([m.ground, m.excited, m.leakage])
        assert fields.shape == (3,) + state.shape[:-1]
        np.testing.assert_allclose(fields.sum(axis=0), 1.0, rtol=0.0, atol=1e-12)
        assert np.all(fields >= 0.0)
        # exact populations are |amplitude|^2 of a state whose norm is 1 only
        # to roundoff (|(1 + 1j) / sqrt(2)|^2 is 1 + 2e-16); counts / shots
        # never exceed 1
        assert np.all(fields <= (1.0 + 1e-12 if shots == 0 else 1.0))

    check()


def test_shot_sampling_is_seeded_and_normalized():
    state = np.array([np.sqrt(0.2), np.sqrt(0.5), np.sqrt(0.3)])
    a = measure_population(state, shots=500, rng=11)
    b = measure_population(state, shots=500, rng=11)
    assert a == b
    assert a.ground + a.excited + a.leakage == pytest.approx(1.0, abs=1e-12)
    assert a.ground * 500 == pytest.approx(round(a.ground * 500), abs=1e-9)


def _random_states(n, n_levels, seed):
    rng = np.random.default_rng(seed)
    states = rng.normal(size=(n, n_levels)) + 1j * rng.normal(size=(n, n_levels))
    return states / np.linalg.norm(states, axis=1, keepdims=True)


def test_batched_measurement_matches_rows_exactly():
    states = _random_states(7, 3, seed=4)
    batch = measure_population(states)
    for k, state in enumerate(states):
        row = measure_population(state)
        assert (batch.ground[k], batch.excited[k], batch.leakage[k]) == row
    assert isinstance(row.ground, float)


def test_batched_shot_draws_match_rows_on_one_generator():
    states = _random_states(9, 4, seed=5)
    batch = measure_population(states, shots=300, rng=np.random.default_rng(12))
    rng = np.random.default_rng(12)
    rows = [measure_population(state, shots=300, rng=rng) for state in states]
    np.testing.assert_array_equal(batch.ground, [r.ground for r in rows])
    np.testing.assert_array_equal(batch.excited, [r.excited for r in rows])
    np.testing.assert_array_equal(batch.leakage, [r.leakage for r in rows])


def test_shot_frequencies_concentrate_on_probabilities():
    # 1000 shots on an equal superposition: |freq - 0.5| <= 0.05 is a
    # ~3.2 sigma event, so nearly every seed lands inside
    state = np.array([1.0, 1.0]) / np.sqrt(2)
    inside = sum(
        abs(measure_population(state, shots=1000, rng=seed).excited - 0.5) <= 0.05
        for seed in range(200)
    )
    assert inside >= 197


# ---------------------------------------------------------------- fidelity


def test_rotation_unitary_matrices():
    x90 = rotation_unitary("x", np.pi / 2)
    np.testing.assert_allclose(
        x90, np.array([[1, -1j], [-1j, 1]]) / np.sqrt(2), atol=1e-15
    )
    y180 = rotation_unitary("y", np.pi)
    np.testing.assert_allclose(y180, [[0, -1], [1, 0]], atol=1e-15)
    z90 = rotation_unitary("z", np.pi / 2)
    assert z90[0, 1] == 0 and z90[1, 0] == 0
    with pytest.raises(ValueError, match="axis"):
        rotation_unitary("w", 1.0)
    np.testing.assert_allclose(x90 @ x90, rotation_unitary("x", np.pi),
                               atol=1e-15)


def test_rotation_axis_is_one_of_x_y_z():
    message = "axis must be one of ('x', 'y', 'z'), got 'w'"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        rotation_unitary("w", 1.0)


def test_embed_qubit_gate():
    u = embed_qubit_gate(rotation_unitary("x", np.pi), 3)
    assert u[2, 2] == 1.0
    assert u.shape == (3, 3)
    np.testing.assert_allclose(u[:2, :2], rotation_unitary("x", np.pi))
    with pytest.raises(ValueError, match="2x2"):
        embed_qubit_gate(np.eye(3), 3)


def test_identity_scores_two_thirds_against_x90():
    fid = average_gate_fidelity(np.eye(2), rotation_unitary("x", np.pi / 2))
    assert fid == pytest.approx(2.0 / 3.0, abs=1e-12)
    # same answer when the identity lives on three levels
    fid3 = average_gate_fidelity(np.eye(3), rotation_unitary("x", np.pi / 2))
    assert fid3 == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_over_rotation_fidelity_closed_form():
    for d in (0.01, 0.0447, 0.3):
        fid = average_gate_fidelity(
            rotation_unitary("x", np.pi / 2 + d), rotation_unitary("x", np.pi / 2)
        )
        expect = (2.0 + 4.0 * np.cos(d / 2.0) ** 2) / 6.0
        assert fid == pytest.approx(expect, abs=1e-12)


def test_perfect_gate_scores_one():
    u = rotation_unitary("y", 0.7)
    assert average_gate_fidelity(u, u) == pytest.approx(1.0, abs=1e-13)


def test_leakage_lowers_fidelity():
    # unitary that swaps the excited state with the leakage level
    swap = np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex)
    fid = average_gate_fidelity(swap, np.eye(2))
    assert fid == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_fidelity_validation():
    with pytest.raises(ValueError, match="2x2"):
        average_gate_fidelity(np.eye(3), np.eye(3))
    with pytest.raises(ValueError, match="square"):
        average_gate_fidelity(np.ones((2, 3)), np.eye(2))
