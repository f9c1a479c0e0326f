"""Clifford group structure, benchmarking runs, and decay fitting."""

from __future__ import annotations

import collections
import warnings

import numpy as np
import pytest
from scipy.linalg import expm, svd
from scipy.optimize import curve_fit, least_squares
from scipy.optimize._lsq.common import solve_lsq_trust_region
from scipy.optimize._numdiff import approx_derivative

import pertopt._trf as _trf
import pertopt.rb as rb_module
from pertopt import (
    FinalRBConfig,
    RBFitError,
    average_gate_fidelity,
    fit_rb_decay,
    interleaved_gate_fidelity,
    run_rb,
)
from pertopt.rb import (
    _GENERATORS,
    X90_GENERATOR_INDEX,
    clifford_group,
    compile_cliffords,
)
from pertopt.transmon import embed_qubit_gate, measure_population, rotation_unitary

X90 = rotation_unitary("x", np.pi / 2)


def phase_distance(a, b):
    """Distance between unitaries modulo global phase."""
    return abs(abs(np.trace(a.conj().T @ b)) - a.shape[0])


# -------------------------------------------------------------------- group


def test_group_has_24_elements_identity_first():
    g = clifford_group()
    assert len(g) == 24
    np.testing.assert_allclose(g.unitaries[0], np.eye(2), atol=1e-12)
    assert g.decompositions[0] == ()


def test_group_is_closed_with_permutation_rows():
    g = clifford_group()
    for i in range(24):
        assert sorted(g.multiplication[i]) == list(range(24))
        assert sorted(g.multiplication[:, i]) == list(range(24))


def test_multiplication_table_matches_matrix_products():
    g = clifford_group()
    for i in range(24):
        for j in range(24):
            product = g.unitaries[j] @ g.unitaries[i]  # apply i then j
            k = g.multiplication[i, j]
            assert phase_distance(product, g.unitaries[k]) < 1e-9


def test_multiplication_table_is_associative():
    # run_rb reduces each sequence's composite element pairwise
    m = clifford_group().multiplication
    i, j, k = np.ix_(range(24), range(24), range(24))
    np.testing.assert_array_equal(m[m[i, j], k], m[i, m[j, k]])


def test_inverse_table():
    g = clifford_group()
    for i in range(24):
        assert g.multiplication[i, g.inverse[i]] == 0
        product = g.unitaries[g.inverse[i]] @ g.unitaries[i]
        assert phase_distance(product, np.eye(2)) < 1e-9


def test_decompositions_rebuild_every_element():
    g = clifford_group()
    gens = _GENERATORS
    for decomp, u in zip(g.decompositions, g.unitaries):
        rebuilt = np.eye(2, dtype=complex)
        for g_idx in decomp:
            rebuilt = gens[g_idx] @ rebuilt
        assert phase_distance(rebuilt, u) < 1e-9


def test_x90_usage_across_decompositions():
    # the compiled group applies the gate under test 12 times across 24
    # elements: 0.5 occurrences per Clifford on average
    g = clifford_group()
    counts = [d.count(X90_GENERATOR_INDEX) for d in g.decompositions]
    assert sum(counts) == 12
    assert max(len(d) for d in g.decompositions) <= 3
    matches = [k for k, u in enumerate(g.unitaries) if phase_distance(u, X90) < 1e-9]
    assert matches == [1]


def test_compile_with_ideal_gate_reproduces_group():
    g = clifford_group()
    compiled = compile_cliffords(g, X90)
    for u, c in zip(g.unitaries, compiled):
        assert phase_distance(u, c) < 1e-9


def test_compile_embeds_other_generators_on_three_levels():
    g = clifford_group()
    compiled = compile_cliffords(g, embed_qubit_gate(X90, 3))
    for u, c in zip(g.unitaries, compiled):
        assert c.shape == (3, 3)
        assert phase_distance(u, c[:2, :2]) < 1e-9
        assert abs(c[2, 2]) == pytest.approx(1.0, abs=1e-12)


def test_compile_matches_a_full_rebuild_bit_for_bit():
    # compile_cliffords multiplies all elements at once, one stacked product
    # per decomposition position; every element must still equal a fresh
    # left-to-right product exactly
    g = clifford_group()
    for n_levels, seed in ((2, 0), (3, 1), (2, 2), (3, 3), (4, 4)):
        gate = noisy_x90(n_levels, 0.05, seed)
        gens = [embed_qubit_gate(u, n_levels) for u in _GENERATORS]
        gens[X90_GENERATOR_INDEX] = gate
        compiled = compile_cliffords(g, gate)
        assert compiled.shape == (24, n_levels, n_levels)
        for decomp, c in zip(g.decompositions, compiled):
            u = np.eye(n_levels, dtype=complex)
            for g_idx in decomp:
                u = gens[g_idx] @ u
            assert u.tobytes() == c.tobytes()


def test_build_is_deterministic():
    a, b = clifford_group.__wrapped__(), clifford_group.__wrapped__()
    assert a.decompositions == b.decompositions
    np.testing.assert_array_equal(a.multiplication, b.multiplication)


def test_cached_group_is_read_only():
    # clifford_group() is memoized: a write by one caller would reach run_rb
    # for the rest of the process
    g = clifford_group()
    for array in (g.multiplication, g.inverse, *g.unitaries, *g.pair_elements,
                  *(codes for _, codes in g.positions)):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


# ----------------------------------------------------------------- sequences


def test_ideal_gate_survival_is_one():
    data = run_rb(X90, lengths=(0, 5, 20, 100), n_sequences=6, seed=3)
    assert np.max(np.abs(data.survival - 1.0)) <= 1e-12


def test_ideal_gate_survival_is_one_with_shots():
    data = run_rb(X90, lengths=(1, 10, 50), n_sequences=4, shots=200, seed=9)
    np.testing.assert_array_equal(data.survival, np.ones(3))


def test_rb_run_is_seeded():
    gate = rotation_unitary("x", np.pi / 2 + 0.05)
    a = run_rb(gate, (0, 4, 16), 5, shots=100, seed=21)
    b = run_rb(gate, (0, 4, 16), 5, shots=100, seed=21)
    np.testing.assert_array_equal(a.survival, b.survival)


def test_rb_validation():
    # a fractional or bool length is refused, not truncated
    for lengths in ((-1, 2), (0, 2.5, 5), (0, True, 5), 5, ((0, 2),)):
        with pytest.raises(ValueError, match="lengths"):
            run_rb(X90, lengths, 2, seed=1)
    for n_sequences in (0, 2.5, True):
        with pytest.raises(ValueError, match="n_sequences"):
            run_rb(X90, (0, 2), n_sequences)
    # numpy's multinomial draws no count above int64
    for shots in (-1, 2.5, True, 2**63):
        with pytest.raises(ValueError, match="shots"):
            run_rb(X90, (0, 2), 4, shots=shots)
    with pytest.raises(ValueError, match="square"):
        run_rb(np.ones((2, 3)), (0, 2), 4)


def test_rb_rejects_non_unitary_gate():
    # every sequence's final state is norm-checked in the batched measurement
    with pytest.raises(ValueError, match="norm"):
        run_rb(1.01 * X90, (0, 3, 7), 3, seed=5)
    with pytest.raises(ValueError, match="norm"):
        run_rb(embed_qubit_gate(X90, 3) * 0.99, (2, 0), 2, shots=10, seed=5)


def test_rb_survival_comes_back_in_ladder_order():
    gate = rotation_unitary("x", np.pi / 2 + 0.3)
    data = run_rb(gate, (40, 0, 5, 40), 3, seed=8)
    np.testing.assert_array_equal(data.lengths, (40, 0, 5, 40))
    assert data.survival[1] == pytest.approx(1.0, abs=1e-12)
    assert data.survival[0] != data.survival[3]  # separate draws per entry


@pytest.mark.parametrize("interleaved", [False, True])
@pytest.mark.parametrize(
    "lengths, n_sequences",
    [((1, 3, 7, 11), 3), ((0, 0), 2), ((9, 2, 9, 0, 5), 3),
     ((1, 20, 60, 150, 300), 24), (FinalRBConfig.lengths, 40)],
    ids=["odd", "all-zero", "repeated-unsorted", "test-8", "final"],
)
def test_run_rb_draws_one_index_block_per_ladder_entry(
    lengths, n_sequences, interleaved
):
    # at shots 0 the Clifford indices are the whole stream: one block per
    # ladder entry, in ladder order, whatever order the rows are stepped in.
    # run_rb draws int32 blocks; the twin draws the default int64 ones
    rng, twin = np.random.default_rng(4), np.random.default_rng(4)
    run_rb(noisy_x90(3, 0.05, 1), lengths, n_sequences, seed=rng,
           interleaved=interleaved)
    for m in lengths:
        twin.integers(0, 24, size=(n_sequences, m))
    assert rng.bit_generator.state == twin.bit_generator.state


@pytest.mark.parametrize("n_levels", [2, 3, 4])
@pytest.mark.parametrize("interleaved", [False, True])
def test_run_rb_reads_no_unwritten_pair_code(monkeypatch, n_levels, interleaved):
    # run_rb allocates its code table uninitialized: a row is stepped only
    # while it has pairs of its own.  Filled with a code that is no identity
    # in either mode (Clifford 1, an X90 slot, then the identity), the table
    # would change survival if any unwritten entry were read
    gate = noisy_x90(n_levels, 0.1, seed=n_levels)
    lengths = (0, 1, 2, 7, 7, 301)
    seed = 10 * n_levels + interleaved
    clean = run_rb(gate, lengths, 3, seed=seed, interleaved=interleaved)
    empty = np.empty

    def filled_empty(shape, dtype=float, **kwargs):
        table = empty(shape, dtype=dtype, **kwargs)
        if np.dtype(dtype) == np.uint16:
            table.fill(601)
        return table

    monkeypatch.setattr(rb_module.np, "empty", filled_empty)
    data = run_rb(gate, lengths, 3, seed=seed, interleaved=interleaved)
    monkeypatch.undo()
    assert data.survival.tobytes() == clean.survival.tobytes()
    expected = loop_run_rb(gate, lengths, 3, seed=seed, interleaved=interleaved)
    np.testing.assert_allclose(data.survival, expected, rtol=0.0, atol=1e-12)


def test_three_level_ideal_gate_keeps_survival():
    data = run_rb(embed_qubit_gate(X90, 3), (0, 8, 40), 4, seed=1)
    assert np.max(np.abs(data.survival - 1.0)) <= 1e-12


def loop_run_rb(gate, lengths, n_sequences, shots=0, seed=None, interleaved=False):
    """Reference: one sequence at a time, one Clifford per mat-vec product.

    The per-sequence index draws come first and take the same stream as
    ``run_rb``'s one block per ladder entry.  At shots 0 that is the whole
    stream; with shots, the per-sequence measurement draws follow in
    ladder order.
    """
    rng = np.random.default_rng(seed)
    group = clifford_group()
    compiled = compile_cliffords(group, gate)
    x90_element = next(
        k for k, u in enumerate(group.unitaries) if phase_distance(u, X90) < 1e-9
    )
    draws = [[rng.integers(0, 24, size=m) for _ in range(n_sequences)]
             for m in lengths]
    ground = np.zeros(gate.shape[0], dtype=complex)
    ground[0] = 1.0
    survival = []
    for sequences in draws:
        acc = 0.0
        for sequence in sequences:
            psi, composite = ground, 0
            for idx in sequence:
                psi = compiled[idx] @ psi
                composite = group.multiplication[composite, idx]
                if interleaved:
                    psi = gate @ psi
                    composite = group.multiplication[composite, x90_element]
            psi = compiled[group.inverse[composite]] @ psi
            acc += measure_population(psi, shots, rng if shots else None).ground
        survival.append(acc / n_sequences)
    return np.array(survival)


def noisy_x90(n_levels, strength, seed):
    """Embedded X90 followed by a random coherent error."""
    h = np.random.default_rng(seed).normal(size=(2, n_levels, n_levels))
    h = h[0] + 1j * h[1]
    return expm(-1j * strength * (h + h.conj().T)) @ embed_qubit_gate(X90, n_levels)


@pytest.mark.parametrize("shots", [0, 50])
def test_batched_run_rb_matches_sequence_loop(shots):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=60 if shots == 0 else 20, deadline=None)
    @hypothesis.given(
        gate=st.builds(
            noisy_x90,
            n_levels=st.sampled_from([2, 3]),
            strength=st.floats(0.0, 0.2),
            seed=st.integers(0, 2**32 - 1),
        ),
        # ladders may hold 0, repeat a length and come in any order
        lengths=st.lists(st.integers(0, 40), min_size=1, max_size=6),
        n_sequences=st.integers(1, 4),
        interleaved=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def check(gate, lengths, n_sequences, interleaved, seed):
        data = run_rb(gate, lengths, n_sequences, shots=shots, seed=seed,
                      interleaved=interleaved)
        expected = loop_run_rb(gate, lengths, n_sequences, shots=shots,
                               seed=seed, interleaved=interleaved)
        np.testing.assert_array_equal(data.lengths, lengths)
        np.testing.assert_allclose(data.survival, expected, rtol=0.0, atol=1e-12)

    check()


@pytest.mark.parametrize("shots", [0, 50])
@pytest.mark.parametrize("n_levels", [2, 3, 4])
@pytest.mark.parametrize("interleaved", [False, True])
@pytest.mark.parametrize(
    "lengths", [(1, 3, 7, 11), (1,), (0, 0), (9, 2, 9, 0, 5)],
    ids=["odd", "lone-1", "all-zero", "repeated-unsorted"],
)
def test_pair_stepping_matches_sequence_loop(lengths, interleaved, n_levels, shots):
    # run_rb applies two Cliffords per product and pads a sequence past its
    # own length with the identity; the loop applies one Clifford at a time
    gate = noisy_x90(n_levels, 0.1, seed=n_levels)
    seed = 100 * n_levels + len(lengths)
    data = run_rb(gate, lengths, 3, shots=shots, seed=seed, interleaved=interleaved)
    expected = loop_run_rb(gate, lengths, 3, shots=shots, seed=seed,
                           interleaved=interleaved)
    np.testing.assert_array_equal(data.lengths, lengths)
    np.testing.assert_allclose(data.survival, expected, rtol=0.0, atol=1e-12)


# -------------------------------------------------------- fixture benchmark

FIXTURE_LENGTHS = (0, 1, 2, 3, 4, 5, 6, 8, 11, 14, 19, 25, 32, 42, 55, 72,
                   93, 122, 159, 208, 272, 355, 463, 605, 790, 1032, 1347,
                   1759, 2297, 3000)


def test_over_rotation_fixture_decay_matches_twirl_oracle():
    # 0.0447-rad over-rotation: per-gate infidelity r = sin^2(d/2) * 2/3,
    # and the group applies the gate 0.5 times per Clifford on average
    delta = 0.0447
    gate = rotation_unitary("x", np.pi / 2 + delta)
    fid = average_gate_fidelity(gate, X90)
    assert fid == pytest.approx(0.9996670404458022, abs=1e-12)

    # independent oracle: depolarizing parameter of the per-Clifford twirl
    g = clifford_group()
    compiled = compile_cliffords(g, gate)
    p_cliffords = [
        2.0 * average_gate_fidelity(c, u) - 1.0
        for c, u in zip(compiled, g.unitaries)
    ]
    p_theory = float(np.mean(p_cliffords))
    # the twirl reproduces the decomposition-count estimate 2 * r * 0.5
    assert 1.0 - p_theory == pytest.approx(2.0 * (1.0 - fid) * 0.5, rel=1e-3)

    data = run_rb(gate, FIXTURE_LENGTHS, n_sequences=60, seed=19)
    fit = fit_rb_decay(data.lengths, data.survival)
    assert not fit.degenerate
    # coherent errors average to a mixture of nearby exponentials, so a
    # single fitted rate lands within a factor of two of the oracle
    ratio = (1.0 - fit.decay_rate) / (1.0 - p_theory)
    assert 0.5 <= ratio <= 2.0
    assert fit.amplitude + fit.offset == pytest.approx(1.0, abs=0.02)


def test_interleaved_fixture_recovers_direct_fidelity():
    delta = 0.0447
    gate = rotation_unitary("x", np.pi / 2 + delta)
    direct = average_gate_fidelity(gate, X90)

    ref = run_rb(gate, FIXTURE_LENGTHS, n_sequences=60, seed=19)
    inter = run_rb(gate, FIXTURE_LENGTHS, n_sequences=60, seed=119,
                   interleaved=True)
    fit_ref = fit_rb_decay(ref.lengths, ref.survival)
    fit_int = fit_rb_decay(inter.lengths, inter.survival)
    estimate = interleaved_gate_fidelity(fit_ref.decay_rate, fit_int.decay_rate)
    assert abs(estimate - direct) <= 5e-4


# ---------------------------------------------------------------------- fit


def test_fit_recovers_noiseless_parameters():
    lengths = np.arange(0, 300, 10)
    survival = 0.45 * 0.985**lengths + 0.52
    fit = fit_rb_decay(lengths, survival)
    assert fit.amplitude == pytest.approx(0.45, abs=1e-6)
    assert fit.offset == pytest.approx(0.52, abs=1e-6)
    assert fit.decay_rate == pytest.approx(0.985, abs=1e-6)
    assert not fit.degenerate
    assert fit.stderr_decay < 1e-6


def test_fit_flags_constant_survival_as_degenerate():
    fit = fit_rb_decay((0, 10, 20, 40), np.full(4, 1.0))
    assert fit.degenerate
    assert fit.decay_rate == 1.0
    assert fit.amplitude == 0.0
    assert fit.offset == 1.0
    assert np.isinf(fit.stderr_decay)


def test_fit_input_validation():
    with pytest.raises(ValueError, match="points"):
        fit_rb_decay((0, 1), (1.0, 0.9))
    with pytest.raises(ValueError, match="points"):
        fit_rb_decay((0, 1, 2), (1.0, 0.9))


def test_fit_stderr_covers_truth():
    # 3-sigma coverage of the decay parameter across noisy realizations
    lengths = np.arange(0, 310, 10)
    truth = 0.97
    rng = np.random.default_rng(31)
    covered = 0
    for _ in range(100):
        survival = 0.5 * truth**lengths + 0.5 + 0.01 * rng.standard_normal(
            lengths.size
        )
        fit = fit_rb_decay(lengths, np.clip(survival, 0.0, 1.0))
        if abs(fit.decay_rate - truth) <= 3.0 * fit.stderr_decay:
            covered += 1
    assert covered >= 94


def _curve_fit_reference(lengths, survival):
    """The bounded ``curve_fit`` call ``fit_rb_decay`` reproduces."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return curve_fit(
            lambda m, a, b, p: a * p**m + b, lengths, survival,
            p0=(0.5, 0.5, 0.99), bounds=([0.0, 0.0, 0.0], [1.0, 1.0, 1.01]),
            maxfev=20000,
        )


def _random_decays(n_cases, seed):
    """Noisy decays, a third of them with a bound that binds."""
    rng = np.random.default_rng(seed)
    ladders = [
        np.array([1.0, 20, 60, 150, 300]),
        np.arange(0.0, 310, 10),
        np.array([0.0, 30, 80, 150, 250, 400, 600, 900, 1300, 1800]),
        np.array([0.0, 5, 20]),
        np.array([1.0, 2, 3]),
        np.array([0.0, 1, 2, 4, 8]),
    ]
    for case in range(n_cases):
        lengths = ladders[case % len(ladders)]
        kind = case % 6
        decay = rng.uniform(0.0, 0.3) if kind == 0 else rng.uniform(0.9, 0.9999)
        amplitude = rng.uniform(0.2, 0.6)
        offset = rng.uniform(0.0, 1.0 - amplitude)
        if kind == 1:
            amplitude, offset = 1.0, 0.0
        elif kind == 2:
            amplitude, offset = 0.0, rng.uniform(0.2, 0.8)
        elif kind == 3:
            offset = 1.0 - amplitude
        noise = 10 ** rng.uniform(-4.0, -1.5)
        survival = amplitude * decay**lengths + offset
        survival += noise * rng.standard_normal(lengths.size)
        yield lengths, np.clip(survival, 0.0, 1.0)


def _upper_bound_decays(n_cases, seed):
    """Flat, rising and bound-pinned survival: the search ends at or near
    an upper bound, where finite-difference steps are taken backwards."""
    rng = np.random.default_rng(seed)
    ladders = [
        np.array([1.0, 20, 60, 150, 300]),
        np.arange(0.0, 310, 10),
        np.array([0.0, 5, 20]),
        np.array([0.0, 30, 80, 150, 250, 400, 600, 900, 1300, 1800]),
    ]
    for case in range(n_cases):
        lengths = ladders[case % len(ladders)]
        kind = case % 5
        scale = lengths / lengths[-1]
        noise = 10 ** rng.uniform(-7, -4) * rng.standard_normal(lengths.size)
        if kind == 0:  # flat
            survival = rng.uniform(0.5, 1.0) + noise
        elif kind == 1:  # slightly rising
            survival = rng.uniform(0.5, 0.9) + rng.uniform(1e-6, 1e-3) * scale + noise
        elif kind == 2:  # rising faster than any decay <= 1.01 allows
            survival = rng.uniform(0.2, 0.5) + rng.uniform(0.2, 0.5) * scale**3 + noise
        else:  # amplitude or offset at its bound of 1
            decay = rng.uniform(0.9999, 1.0) if case % 2 else rng.uniform(0.9, 0.99)
            amplitude, offset = (1.0, rng.uniform(0.0, 0.2)) if kind == 3 else (
                rng.uniform(0.05, 0.3), 1.0)
            survival = amplitude * decay**lengths + offset + noise
        yield lengths, survival


TEST8_LADDER = (1, 20, 60, 150, 300)


def _simulated_rb(seeds_per_case):
    """RB data of noisy X90 gates on the test-8 ladder and the final one."""
    for lengths, n_sequences in ((TEST8_LADDER, 24), (FinalRBConfig.lengths, 40)):
        for shots in (0, 1000):
            for interleaved in (False, True):
                for seed in range(seeds_per_case):
                    gate = noisy_x90(3, (0.0005, 0.003, 0.02)[seed % 3], seed)
                    data = run_rb(gate, lengths, n_sequences, shots=shots,
                                  seed=seed, interleaved=interleaved)
                    yield data.lengths, data.survival


def _least_squares_reference(lengths, survival, max_nfev=20000):
    """scipy's own bounded trust-region search on the fit's problem."""
    return least_squares(
        lambda q: q[0] * q[2] ** lengths + q[1] - survival,
        (0.5, 0.5, 0.99), bounds=([0.0, 0.0, 0.0], [1.0, 1.0, 1.01]),
        max_nfev=max_nfev,
    )


def _rank_deficient_decays():
    """Ladders of repeated lengths: the Jacobian has rank 1 (one length,
    so the amplitude and offset columns are proportional) or 2 (two
    lengths).  The search's scaling rows keep its augmented system full
    rank, so the solver still takes its full-rank branch."""
    yield np.array([5.0, 5, 5, 5]), np.array([0.9, 0.91, 0.905, 0.899])
    yield np.array([0.0, 0, 40, 40]), np.array([1.0, 0.99, 0.8, 0.81])


def test_fit_matches_bounded_curve_fit():
    cases = (list(_random_decays(60, seed=7)) + list(_upper_bound_decays(40, seed=11))
             + list(_rank_deficient_decays()))
    simulated = list(_simulated_rb(3))
    fits = []
    for lengths, survival in cases + simulated:
        fit = fit_rb_decay(lengths, survival)
        popt, pcov = _curve_fit_reference(lengths, survival)
        assert (fit.amplitude, fit.offset, fit.decay_rate) == tuple(popt)
        stderr = (fit.stderr_amplitude, fit.stderr_offset, fit.stderr_decay)
        np.testing.assert_allclose(stderr, np.sqrt(np.diag(pcov)), rtol=1e-12)
        # the in-repo search ends where scipy's does, with the same Jacobian
        # and cost, so the standard errors agree to the last bit
        search = _least_squares_reference(lengths, survival)
        assert (fit.amplitude, fit.offset, fit.decay_rate) == tuple(search.x)
        reference = rb_module._fit_stderr(search.jac, 2.0 * search.cost)
        assert stderr == tuple(reference)
        fits.append(fit)
    # the second batch reaches every upper bound
    assert max(f.decay_rate for f in fits) > 1.0099
    assert max(f.amplitude for f in fits) > 0.999
    assert max(f.offset for f in fits) > 0.999
    # the simulated batch decays slowly, as RB data does
    assert len(simulated) == 24
    assert all(0.9 < f.decay_rate <= 1.01 for f in fits[len(cases):])


def _near_perfect_rb(n_gates):
    """RB data of near-perfect gates on the test-8 ladder (shots 0) and,
    for a quarter as many gates, on the final ladder (1000 shots)."""
    for seed in range(n_gates):
        gate = noisy_x90(3, (0.0005, 0.001, 0.002, 0.004)[seed % 4], seed)
        data = run_rb(gate, TEST8_LADDER, 24, seed=seed)
        yield data.lengths, data.survival
    for seed in range(n_gates // 4):
        gate = noisy_x90(3, (0.0005, 0.003, 0.02)[seed % 3], seed)
        for interleaved in (False, True):
            data = run_rb(gate, FinalRBConfig.lengths, 40, shots=1000, seed=seed,
                          interleaved=interleaved)
            yield data.lengths, data.survival


@pytest.mark.filterwarnings("error")
def test_search_reaches_every_branch_and_matches_scipy(monkeypatch):
    # the search keeps only its common step (Gauss-Newton, inside the
    # bounds) off numpy's small-array calls; this corpus also reaches the
    # regularized solve, each step _select_step chooses among and rejected
    # trials, and every search still ends on scipy's bits, without a warning
    seen = collections.Counter()
    svd, solve, select = _trf._svd, _trf._solve_lsq_trust_region, _trf._select_step
    trials = []  # per iteration, each trial after the first follows a rejection

    def counted_svd(a):
        trials.append(0)
        return svd(a)

    def counted_solve(*args):
        step, alpha, step_norm = solve(*args)
        seen["levenberg-marquardt" if alpha else "gauss-newton"] += 1
        return step, alpha, step_norm

    def counted_select(x, J_h, diag_h, g_h, p, p_h, *rest):
        direction = p_h / np.linalg.norm(p_h)
        step, step_h, predicted = select(x, J_h, diag_h, g_h, p, p_h, *rest)
        unit = step_h / np.linalg.norm(step_h)
        if np.allclose(unit, direction, rtol=0.0, atol=1e-12):
            seen["bounded"] += 1
        elif np.allclose(unit, -g_h / np.linalg.norm(g_h), rtol=0.0, atol=1e-12):
            seen["anti-gradient"] += 1
        else:
            seen["reflected"] += 1
        return step, step_h, predicted

    def counted(evaluate):
        def counted_evaluate(x):
            if trials:
                trials[-1] += 1
            return evaluate(x)

        return counted_evaluate

    monkeypatch.setattr(_trf, "_svd", counted_svd)
    monkeypatch.setattr(_trf, "_solve_lsq_trust_region", counted_solve)
    monkeypatch.setattr(_trf, "_select_step", counted_select)
    cases = (list(_near_perfect_rb(20)) + list(_random_decays(60, seed=7))
             + list(_upper_bound_decays(40, seed=11)) + list(_rank_deficient_decays()))
    for lengths, survival in cases:
        search = _trf.trf_bounds(
            counted(rb_module._forward_difference_jacobian(lengths, survival)),
            rb_module._FIT_START, *rb_module._FIT_BOUNDS, max_nfev=rb_module._FIT_MAX_NFEV,
        )
        expected = _least_squares_reference(lengths, survival)
        assert search.x.tobytes() == expected.x.tobytes()
        assert search.cost == expected.cost
        assert search.fun.tobytes() == expected.fun.tobytes()
        np.testing.assert_array_equal(search.jac, expected.jac)
        assert search.status == expected.status
    assert set(seen) == {
        "gauss-newton", "levenberg-marquardt", "bounded", "reflected", "anti-gradient",
    }
    assert sum(n - 1 for n in trials if n > 1) > 0  # rejected trials


def test_fused_residuals_are_the_models():
    # the trial point is evaluated with its three finite-difference steps in
    # one (4, m) broadcast; its row must be the residual least_squares takes
    # from the (m,) evaluation, although numpy may pick another power loop
    rng = np.random.default_rng(23)
    for lengths in (np.array(TEST8_LADDER, dtype=float),
                    np.array(FinalRBConfig.lengths, dtype=float)):
        survival = rng.uniform(0.5, 1.0, lengths.size)
        evaluate = rb_module._forward_difference_jacobian(lengths, survival)
        points = rng.uniform(0.0, [1.0, 1.0, 1.01], size=(5000, 3))
        points[:, 2] = 1.01 - 10 ** rng.uniform(-9, 0, len(points))
        for x in points:
            residuals = rb_module._decay_model(lengths, *x) - survival
            assert evaluate(x.tolist())[0].tobytes() == residuals.tobytes()


def test_fit_jacobian_is_scipys_forward_difference():
    lengths = np.array([1.0, 20, 60, 150, 300])
    survival = np.array([0.99, 0.97, 0.93, 0.85, 0.78])
    fun = lambda q: q[0] * q[2] ** lengths + q[1] - survival  # noqa: E731
    evaluate = rb_module._forward_difference_jacobian(lengths, survival)
    points = np.random.default_rng(5).uniform(0.0, [1.0, 1.0, 1.01], size=(50, 3))
    # within one step of the upper bounds the step is taken backwards
    points[::3, 2] = 1.01 - 1e-9
    points[1::3, :2] = 1.0 - 1e-9
    for x in points:
        expected = approx_derivative(
            fun, x, method="2-point", f0=fun(x), bounds=rb_module._FIT_BOUNDS
        )
        residuals, jacobian = evaluate(x.tolist())
        np.testing.assert_array_equal(jacobian, expected)
        np.testing.assert_array_equal(residuals, fun(x))


@pytest.mark.parametrize("ratio", [0.8, 1.0, 1.25])
def test_trust_region_rank_threshold_matches_scipy(ratio):
    # The fit's data never lands near the rank threshold eps * m * s[0]
    # (the augmented system is exactly singular or far from it), so the
    # threshold is pinned here with a smallest singular value just below,
    # at and just above it.  Gauss-Newton is taken only above: it returns
    # alpha = 0; below or at the threshold the step is regularized.
    n, m = 3, 5
    threshold = np.finfo(float).eps * m * 1.0
    s = np.array([1.0, 0.5, ratio * threshold])
    uf = np.array([0.3, -0.2, 0.0])
    V = np.linalg.qr(np.random.default_rng(3).normal(size=(n, n)))[0]
    step, alpha, step_norm = _trf._solve_lsq_trust_region(n, m, uf, s, V, 10.0, 0.0)
    expected_step, expected_alpha, _ = solve_lsq_trust_region(
        n, m, uf, s, V, 10.0, initial_alpha=0.0
    )
    np.testing.assert_array_equal(step, expected_step)
    assert alpha == expected_alpha
    assert step_norm == np.linalg.norm(expected_step)
    assert (alpha == 0.0) == (ratio > 1.0)


def test_svd_is_scipys_economy_svd():
    # the fit's SVD runs on numpy's LAPACK; its factors must equal scipy's
    # bit for bit and keep scipy's Fortran order, or the products with them
    # take other BLAS kernels and the search's last digits move
    rng = np.random.default_rng(17)
    random = rng.normal(size=(8, 3))
    rank_deficient = np.outer(rng.normal(size=8), rng.normal(size=3))
    rank_deficient[:, 2] = rank_deficient[:, 0] + rank_deficient[:, 1]
    zero_rows = rng.normal(size=(8, 3))
    zero_rows[5:] = 0.0
    for a in (random, rank_deficient, zero_rows, np.zeros((8, 3))):
        u, s, vt = _trf._svd(a)
        expected = svd(a, full_matrices=False)
        for got, want in zip((u, s, vt), expected):
            assert got.tobytes() == want.tobytes()
            assert got.shape == want.shape
        assert u.flags.f_contiguous and vt.flags.f_contiguous
    for bad in (np.nan, np.inf, -np.inf):
        a = random.copy()
        a[3, 1] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            _trf._svd(a)


def test_fit_reads_near_perfect_gate_on_short_ladder():
    # Here the sequence-averaged survival bends like a small fast component
    # (amplitude 6e-4, decay 0.998) over a flat offset, and that is the exact
    # least-squares optimum: 1 - decay = 2.1e-3, 700x the gate's error.
    # The trust-region search stops on the slow decay.
    gate = noisy_x90(3, 0.001, seed=1)
    data = run_rb(gate, TEST8_LADDER, 24, seed=1)
    fit = fit_rb_decay(data.lengths, data.survival)
    error = 2.0 * (1.0 - average_gate_fidelity(gate, X90))
    assert 0.5 * error < 1.0 - fit.decay_rate < 2.0 * error


def test_fit_rarely_overreads_near_perfect_gates():
    # A converged least-squares fit reads 1 - decay above 10x the gate's
    # error for 16 of these 40 gates; the trust-region search for 6.
    overreads = 0
    for seed in range(40):
        gate = noisy_x90(3, (0.0005, 0.001, 0.002, 0.004)[seed % 4], seed)
        data = run_rb(gate, TEST8_LADDER, 24, seed=seed)
        fit = fit_rb_decay(data.lengths, data.survival)
        error = 2.0 * (1.0 - average_gate_fidelity(gate, X90))
        overreads += 1.0 - fit.decay_rate > 10.0 * error
    assert overreads <= 10


def test_fit_error_carries_residuals_where_search_stopped(monkeypatch):
    monkeypatch.setattr(rb_module, "_FIT_MAX_NFEV", 2)
    lengths = np.arange(0.0, 300, 10)
    survival = 0.45 * 0.985**lengths + 0.52
    with pytest.raises(RBFitError, match="did not converge") as info:
        fit_rb_decay(lengths, survival)
    stopped = _least_squares_reference(lengths, survival, max_nfev=2)
    assert stopped.status == 0
    np.testing.assert_array_equal(info.value.residuals, -stopped.fun)


def test_fit_rejects_non_finite_survival():
    lengths = np.array([0.0, 10, 20, 40])
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            fit_rb_decay(lengths, np.array([1.0, 0.9, bad, 0.7]))


def test_interleaved_fidelity_formula():
    assert interleaved_gate_fidelity(0.995, 0.9936) == pytest.approx(
        0.9992964824120603, abs=1e-12
    )
    assert interleaved_gate_fidelity(1.0, 0.998) == pytest.approx(0.999,
                                                                  abs=1e-12)
    assert interleaved_gate_fidelity(0.9, 0.9) == 1.0


def test_interleaved_fidelity_warns_when_ratio_exceeds_one():
    with pytest.warns(UserWarning, match="exceeds"):
        value = interleaved_gate_fidelity(0.99, 0.995)
    assert value > 1.0


def test_interleaved_fidelity_validation():
    with pytest.raises(ValueError, match="p_reference"):
        interleaved_gate_fidelity(0.0, 0.99)
    with pytest.raises(ValueError, match="p_interleaved"):
        interleaved_gate_fidelity(0.99, 1.2)
