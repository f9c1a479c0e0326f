"""Calibration losses over pulse coefficients, plus synthetic test functions.

``make_pulse_objective`` builds each pulse loss as a black box
``f(theta) -> float``.  The population losses compare measured
excited-state populations against the ideal populations produced by
repeated perfect X90 gates applied to a reference state (prepared along
+x or +y); ``l_rb`` scores a pulse by the fitted randomized-benchmarking
decay instead.  Synthetic objectives (sphere, shifted quadratic, cubic)
carry analytic gradients for estimator and optimizer tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from numbers import Real
from typing import Callable

import numpy as np

from .rb import DEFAULT_RB_LENGTHS, fit_rb_decay, rb_ladder, run_rb
from .transmon import (
    TransmonParams,
    check_shots,
    embed_qubit_gate,
    evolve,
    hann_waveform,
    hann_windows,
    level_frequencies,
    measure_population,  # unused here; bench/tracing.py wraps this lookup site
    rotation_unitary,
)


@dataclass(frozen=True)
class ObjectiveConfig:
    """Everything a pulse loss needs besides the pulse coefficients.

    ``duration`` and ``dt`` must be finite numbers > 0, and ``duration /
    dt`` a whole number of segments.  ``active_dims`` restricts
    optimization to a subset of the flat ``(A, B)`` vector; inactive
    coefficients are fixed at zero.  ``k_list`` must be strictly
    increasing positive repetition counts; the loss is normalized by its
    length.  ``shots`` must be an integer >= 0.
    """

    transmon: TransmonParams = TransmonParams()
    duration: float = 20.0
    dt: float = 1.0
    n_basis: int = 10
    k_list: tuple[int, ...] = (1, 2)
    shots: int = 1000
    active_dims: tuple[int, ...] | None = None
    distortion: tuple[float, ...] | None = None
    rb_lengths: tuple[int, ...] = DEFAULT_RB_LENGTHS
    rb_sequences: int = 8

    def __post_init__(self) -> None:
        if self.n_basis < 1:
            raise ValueError(f"n_basis must be >= 1, got {self.n_basis}")
        for name in ("duration", "dt"):
            value = getattr(self, name)
            if not (isinstance(value, Real) and math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be a finite number > 0, got {value!r}")
        # raises unless dt divides the duration into whole segments
        hann_windows(self.n_basis, self.duration, self.dt)
        ks = tuple(int(k) for k in self.k_list)
        object.__setattr__(self, "k_list", ks)
        if len(ks) < 1 or ks[0] < 1 or any(b <= a for a, b in zip(ks, ks[1:])):
            raise ValueError(
                f"k_list must be strictly increasing positive integers, got {ks}"
            )
        check_shots(self.shots)
        if self.active_dims is not None:
            dims = tuple(int(i) for i in self.active_dims)
            object.__setattr__(self, "active_dims", dims)
            full = 2 * self.n_basis
            if len(dims) < 1 or len(set(dims)) != len(dims):
                raise ValueError("active_dims must be non-empty and unique")
            if any(i < 0 or i >= full for i in dims):
                raise ValueError(f"active_dims entries must lie in [0, {full})")
        if self.distortion is not None:
            fir = tuple(float(x) for x in self.distortion)
            object.__setattr__(self, "distortion", fir)
        lengths = rb_ladder(
            self.rb_lengths, self.rb_sequences, "rb_lengths", "rb_sequences"
        )
        object.__setattr__(self, "rb_lengths", lengths)

    @property
    def dim(self) -> int:
        """Length of the optimizer's parameter vector."""
        if self.active_dims is not None:
            return len(self.active_dims)
        return 2 * self.n_basis

    def expand_theta(self, theta: np.ndarray) -> np.ndarray:
        """Lift an active-subset vector to the full (A, B) vector."""
        theta = np.asarray(theta, dtype=float)
        if theta.ndim != 1 or theta.size != self.dim:
            raise ValueError(f"theta must be 1-D of length {self.dim}")
        if self.active_dims is None:
            return theta
        full = np.zeros(2 * self.n_basis)
        full[list(self.active_dims)] = theta
        return full

    @cached_property
    def fir(self) -> np.ndarray | None:
        """The distortion kernel as one read-only float array, or ``None``."""
        if self.distortion is None:
            return None
        fir = np.array(self.distortion)
        fir.setflags(write=False)
        return fir


def pulse_propagator(theta: np.ndarray, cfg: ObjectiveConfig) -> np.ndarray:
    """Simulated propagator of the pulse at ``theta`` (active dims) under ``cfg``.

    The one path from parameters to a gate: ``cfg.expand_theta``, then
    ``hann_waveform``, then ``evolve``.  Raises ``ValueError`` for a
    wrong-length or non-finite ``theta``.
    """
    coeffs, n = cfg.expand_theta(theta), cfg.n_basis
    pulse = hann_waveform(coeffs[:n], coeffs[n:], cfg.duration, cfg.dt, cfg.fir)
    return evolve(pulse, cfg.transmon)


@lru_cache(maxsize=None)
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
            excited = level_frequencies(np.abs(psi) ** 2, cfg.shots, rng)[1]
            error += abs(target - float(excited))
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
    building the cached Hann windows.  Each call runs ``pulse_propagator``
    and, for the population losses, draws once per repetition count from
    ``|psi|**2``; ``l_rb`` runs RB and fits its decay.  A wrong-length or
    non-finite ``theta`` raises ``ValueError`` at call time, and so does a
    loss that needs an rng (shots > 0, or ``l_rb``) when none was given.
    """
    if name not in PULSE_LOSSES:
        raise ValueError(
            f"unknown pulse loss {name!r}, expected one of {PULSE_LOSSES}"
        )
    missing_rng = None
    if rng is not None:
        rng = np.random.default_rng(rng)
    elif name == "l_rb":
        missing_rng = "loss_rb requires an rng for Clifford sequence sampling"
    elif cfg.shots > 0:
        missing_rng = "shot-sampled losses require an rng (Generator or seed)"
    readouts = None if name == "l_rb" else _readouts(name, cfg)

    def objective(theta: np.ndarray) -> float:
        if missing_rng is not None:
            raise ValueError(missing_rng)
        u = pulse_propagator(theta, cfg)
        if readouts is None:
            return _rb_loss(u, cfg, rng)
        losses = _population_losses(u, readouts, cfg, rng)
        # one readout's loss as is; l_combined's as (lx + ly) / 2
        return sum(losses) / len(losses)

    return objective


SYNTHETIC_OBJECTIVES = ("sphere", "shifted_quadratic", "cubic")


@dataclass
class SyntheticObjective:
    """Test function with known gradient and optional additive noise."""

    name: str
    noise_sigma: float = 0.0
    shift: float = 0.5
    rng: np.random.Generator | None = None

    def clean_value(self, theta: np.ndarray) -> float:
        theta = np.asarray(theta, dtype=float)
        if self.name == "sphere":
            return float(theta @ theta)
        if self.name == "shifted_quadratic":
            d = theta - self.shift
            return float(d @ d)
        return float(np.sum(theta**3))

    def gradient(self, theta: np.ndarray) -> np.ndarray:
        """Analytic noise-free gradient (test oracle)."""
        theta = np.asarray(theta, dtype=float)
        if self.name == "sphere":
            return 2.0 * theta
        if self.name == "shifted_quadratic":
            return 2.0 * (theta - self.shift)
        return 3.0 * theta**2

    def __call__(self, theta: np.ndarray) -> float:
        value = self.clean_value(theta)
        if self.noise_sigma > 0.0:
            value += self.noise_sigma * self.rng.standard_normal()
        return value


def synthetic_objective(
    name: str,
    noise_sigma: float = 0.0,
    seed: int | np.random.Generator | None = None,
    shift: float = 0.5,
) -> SyntheticObjective:
    """Build a sphere / shifted-quadratic / cubic test objective."""
    if name not in SYNTHETIC_OBJECTIVES:
        raise ValueError(
            f"unknown synthetic objective {name!r}, "
            f"expected one of {SYNTHETIC_OBJECTIVES}"
        )
    if noise_sigma < 0:
        raise ValueError(f"noise_sigma must be >= 0, got {noise_sigma}")
    rng = None
    if noise_sigma > 0:
        if seed is None:
            raise ValueError("noisy synthetic objectives require a seed")
        rng = np.random.default_rng(seed)
    return SyntheticObjective(name=name, noise_sigma=noise_sigma, shift=shift, rng=rng)
