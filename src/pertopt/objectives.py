"""Calibration losses over pulse coefficients, plus synthetic test functions.

``make_pulse_objective`` builds each pulse loss as a black box
``f(theta) -> float``.  The population losses compare measured
excited-state populations against the ideal populations produced by
repeated perfect X90 gates applied to a reference state (prepared along
+x or +y); ``l_rb`` scores a pulse by the fitted randomized-benchmarking
decay instead.  ``synthetic_objective`` builds the sphere, shifted
quadratic and cubic test functions for estimator and optimizer tests.
Every objective is such a closure: the optimizer sees only its values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .checks import check_choice, check_fields, check_shots
from .rb import DEFAULT_RB_LENGTHS, check_rb_ladder, fit_rb_decay, run_rb
from .transmon import (
    TransmonParams,
    embed_qubit_gate,
    evolve,
    excited_frequency,
    hann_waveform,
    hann_windows,
    measure_population,  # unused here; bench/tracing.py wraps this lookup site
    rotation_unitary,
)


_FLOAT64 = np.dtype(np.float64)


def _float_array(theta) -> np.ndarray:
    """``np.asarray(theta, dtype=float)``; a float64 array is returned as
    is, without the call."""
    if type(theta) is np.ndarray and theta.dtype is _FLOAT64:
        return theta
    return np.asarray(theta, dtype=float)


@dataclass(frozen=True)
class ObjectiveConfig:
    """Everything a pulse loss needs besides the pulse coefficients.

    A field's metadata sets its bounds (``duration`` and ``dt`` > 0,
    ``n_basis`` and ``rb_sequences`` >= 1), which ``check_fields``
    enforces, and ``duration / dt`` must be a whole number of segments.
    ``active_dims`` restricts optimization to a subset of the flat
    ``(A, B)`` vector; inactive coefficients are fixed at zero.
    ``k_list`` must be strictly increasing positive repetition counts;
    the loss is normalized by its length.  ``shots`` must be an integer
    >= 0, and a ``distortion`` FIR kernel needs at least one tap.  A field
    spelled unlike its config key names the key in its ``key`` metadata.
    """

    transmon: TransmonParams = TransmonParams()
    duration: float = field(default=20.0, metadata={"key": "duration_ns", "gt": 0})
    dt: float = field(default=1.0, metadata={"key": "dt_ns", "gt": 0})
    n_basis: int = field(default=10, metadata={"ge": 1})
    k_list: tuple[int, ...] = (1, 2)
    shots: int = 1000
    active_dims: tuple[int, ...] | None = None
    distortion: tuple[float, ...] | None = field(
        default=None, metadata={"key": "distortion_fir"}
    )
    rb_lengths: tuple[int, ...] = DEFAULT_RB_LENGTHS
    rb_sequences: int = field(default=8, metadata={"ge": 1})

    def __post_init__(self) -> None:
        check_fields(self)
        # raises unless dt divides the duration into whole segments
        hann_windows(self.n_basis, self.duration, self.dt)
        ks = self.k_list
        if len(ks) < 1 or ks[0] < 1 or any(b <= a for a, b in zip(ks, ks[1:])):
            raise ValueError(
                f"k_list must be strictly increasing positive integers, got {ks}"
            )
        check_shots(self.shots)
        if self.active_dims is not None:
            dims, full = self.active_dims, 2 * self.n_basis
            if len(dims) < 1 or len(set(dims)) != len(dims):
                raise ValueError("active_dims must be non-empty and unique")
            if any(i < 0 or i >= full for i in dims):
                raise ValueError(f"active_dims entries must lie in [0, {full})")
        check_rb_ladder(self.rb_lengths, "rb_lengths")
        if self.distortion == ():
            raise ValueError("distortion must have at least one tap")

    @property
    def dim(self) -> int:
        """Length of the optimizer's parameter vector."""
        if self.active_dims is not None:
            return len(self.active_dims)
        return 2 * self.n_basis

    def expand_theta(self, theta: np.ndarray) -> np.ndarray:
        """Lift an active-subset vector to the full (A, B) vector."""
        theta = _float_array(theta)
        if theta.ndim != 1 or theta.size != self.dim:
            raise ValueError(f"theta must be 1-D of length {self.dim}")
        if self.active_dims is None:
            return theta
        full = np.zeros(2 * self.n_basis)
        full[list(self.active_dims)] = theta
        return full


def pulse_propagator(theta: np.ndarray, cfg: ObjectiveConfig) -> np.ndarray:
    """Simulated propagator of the pulse at ``theta`` (active dims) under ``cfg``.

    The one path from parameters to a gate: ``cfg.expand_theta``, then
    ``hann_waveform``, then ``evolve``.  Raises ``ValueError`` for a
    wrong-length or non-finite ``theta``.
    """
    coeffs, n = cfg.expand_theta(theta), cfg.n_basis
    pulse = hann_waveform(coeffs[:n], coeffs[n:], cfg.duration, cfg.dt, cfg.distortion)
    return evolve(pulse, cfg.transmon)


def _prepared_state(axis: str, n_levels: int) -> np.ndarray:
    """Read-only ground state after a perfect 90-degree rotation about ``axis``."""
    prep = embed_qubit_gate(rotation_unitary(axis, math.pi / 2.0), n_levels)
    psi0 = np.zeros(n_levels, dtype=complex)
    psi0[0] = 1.0
    psi = prep @ psi0
    psi.setflags(write=False)
    return psi


def ideal_excited_after_x90s(k: int) -> float:
    """Excited population after (k+1) perfect X90 gates from the ground state.

    Equals ``sin((k+1) pi/4)**2``, which cycles through {0, 1/2, 1}.
    """
    phase = (k + 1) % 4
    if phase == 0:
        return 0.0
    if phase == 2:
        return 1.0
    return 0.5


def _readouts(name: str, cfg: ObjectiveConfig) -> tuple:
    """Prepared state and ideal excited population per k of each readout."""
    n_levels, ks = cfg.transmon.n_levels, cfg.k_list
    x = (_prepared_state("x", n_levels), tuple(ideal_excited_after_x90s(k) for k in ks))
    # +y-prepared state: any x-rotation count leaves the ideal population at 1/2
    y = (_prepared_state("y", n_levels), (0.5,) * len(ks))
    return {"lx": (x,), "ly": (y,), "l_combined": (x, y)}[name]


def _population_losses(
    u: np.ndarray,
    readouts,
    cfg: ObjectiveConfig,
    rng: np.random.Generator | None,
) -> list[float]:
    """Mean absolute excited-population error of each readout of ``u``."""
    losses = []
    for psi, targets in readouts:
        # each k is a separately prepared circuit; measurement noise is fresh
        error, k_prev = 0.0, 0
        for k, target in zip(cfg.k_list, targets):
            for _ in range(k - k_prev):
                psi = u @ psi
            k_prev = k
            error += abs(target - excited_frequency(np.abs(psi) ** 2, cfg.shots, rng))
        losses.append(error / len(targets))
    return losses


def _rb_loss(u: np.ndarray, cfg: ObjectiveConfig, rng: np.random.Generator) -> float:
    """Percent Clifford infidelity ``(1 - decay) * 100`` of ``u`` from simulated RB.

    The fitted decay may overshoot 1 by fit noise on a near-perfect gate;
    the loss is floored at 0.
    """
    data = run_rb(
        u,
        cfg.rb_lengths,
        n_sequences=cfg.rb_sequences,
        shots=cfg.shots,
        seed=rng,
    )
    decay = fit_rb_decay(data.lengths, data.survival).decay_rate
    return max(0.0, (1.0 - decay) * 100.0)


# the pulse losses make_pulse_objective builds; experiments.py takes its
# pulse objective names from here
PULSE_LOSSES = ("lx", "ly", "l_combined", "l_rb")


def make_pulse_objective(
    name: str, cfg: ObjectiveConfig, rng=None
) -> Callable[[np.ndarray], float]:
    """The pulse loss ``name`` as ``f(theta) -> float`` over the active dims.

    ``lx`` is the mean absolute excited-population error against the
    repeated-X90 targets from the +x-prepared state, ``ly`` the same
    against the constant 1/2 target from the +y-prepared state, and
    ``l_combined`` their average on one propagator.  ``l_rb`` is the
    percent Clifford infidelity ``(1 - decay) * 100`` from simulated RB,
    floored at 0; its random Clifford sequences make it stochastic even
    at ``shots = 0``, so it always needs an rng.

    What does not depend on the pulse is done once, here: the rng is
    resolved into one persistent stream (successive calls draw fresh shot
    noise and benchmark sequences deterministically), and the prepared
    states and the ideal targets per repetition count are built.  ``cfg``
    has already checked the pulse geometry and the repetition counts,
    building the cached Hann windows.  Each call runs ``pulse_propagator``,
    or reuses the propagator of the last theta simulated if theta has its
    float64 bytes; the population losses then draw once per repetition
    count from ``|psi|**2``, and ``l_rb`` runs RB and fits its decay, fresh
    on every call.  A wrong-length or non-finite ``theta`` raises
    ``ValueError`` at call time, and so does a loss built without an rng
    that needs one (``l_rb``, or shots > 0), naming the loss.
    """
    check_choice("pulse loss", name, PULSE_LOSSES)
    if rng is not None:
        rng = np.random.default_rng(rng)
    needs_rng = rng is None and (name == "l_rb" or cfg.shots > 0)
    readouts = None if name == "l_rb" else _readouts(name, cfg)
    # the last theta simulated (its float64 bytes) and its propagator
    last = [None, None]

    def objective(theta: np.ndarray) -> float:
        if needs_rng:
            raise ValueError(f"{name} requires an rng (Generator or seed)")
        # an RSGF baseline repeats the loss probe's theta: reuse its
        # propagator, but draw the noise fresh
        theta = _float_array(theta)
        key = theta.shape, theta.tobytes()
        if key != last[0]:
            last[:] = key, pulse_propagator(theta, cfg)
            last[1].setflags(write=False)
        u = last[1]
        if readouts is None:
            return _rb_loss(u, cfg, rng)
        losses = _population_losses(u, readouts, cfg, rng)
        # one readout's loss as is; l_combined's as (lx + ly) / 2
        return sum(losses) / len(losses)

    return objective


SYNTHETIC_OBJECTIVES = ("sphere", "shifted_quadratic", "cubic")


def synthetic_objective(
    name: str,
    noise_sigma: float = 0.0,
    seed: int | np.random.Generator | None = None,
    shift: float = 0.5,
) -> Callable[[np.ndarray], float]:
    """The test function ``name`` as ``f(theta) -> float``: ``sphere`` is
    ``theta @ theta``, ``shifted_quadratic`` the same about ``shift`` in
    every coordinate, ``cubic`` the sum of ``theta**3``.  A positive
    ``noise_sigma`` adds that times the next standard normal draw of
    ``seed``'s stream, so it needs a seed; a noise-free one draws nothing.
    """
    check_choice("synthetic objective", name, SYNTHETIC_OBJECTIVES)
    if not 0.0 <= noise_sigma < math.inf:  # NaN fails this too
        raise ValueError(f"noise_sigma must be >= 0 and finite, got {noise_sigma}")
    if noise_sigma > 0 and seed is None:
        raise ValueError("noisy synthetic objectives require a seed")
    rng = np.random.default_rng(seed) if noise_sigma > 0 else None

    def objective(theta: np.ndarray) -> float:
        theta = np.asarray(theta, dtype=float)
        if name == "cubic":
            value = float(np.sum(theta**3))
        else:
            d = theta - shift if name == "shifted_quadratic" else theta
            value = float(d @ d)
        if rng is not None:
            value += noise_sigma * rng.standard_normal()
        return value

    return objective
