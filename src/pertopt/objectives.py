"""Calibration losses over pulse coefficients, plus synthetic test functions.

The pulse losses compare measured excited-state populations against the
ideal populations produced by repeated perfect X90 gates applied to a
reference state (prepared along +x or +y).  ``loss_rb`` scores a pulse by
the fitted randomized-benchmarking decay instead.  Synthetic objectives
(sphere, shifted quadratic, cubic) carry analytic gradients for estimator
and optimizer tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable

import numpy as np

from .rb import DEFAULT_RB_LENGTHS, fit_rb_decay, rb_ladder, run_rb
from .transmon import (
    HannPulseParams,
    TransmonParams,
    embed_qubit_gate,
    evolve,
    hann_waveform,
    measure_population,
    rotation_unitary,
)


@dataclass(frozen=True)
class ObjectiveConfig:
    """Everything a pulse loss needs besides the pulse coefficients.

    ``active_dims`` restricts optimization to a subset of the flat
    ``(A, B)`` vector; inactive coefficients are fixed at zero.  ``k_list``
    must be strictly increasing positive repetition counts; the loss is
    normalized by its length.
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
        ks = tuple(int(k) for k in self.k_list)
        object.__setattr__(self, "k_list", ks)
        if len(ks) < 1 or ks[0] < 1 or any(b <= a for a, b in zip(ks, ks[1:])):
            raise ValueError(
                f"k_list must be strictly increasing positive integers, got {ks}"
            )
        if self.shots < 0:
            raise ValueError(f"shots must be >= 0, got {self.shots}")
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
    def n_repetitions(self) -> int:
        return len(self.k_list)

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

    def pulse_from_theta(self, theta: np.ndarray) -> HannPulseParams:
        return HannPulseParams.from_theta(
            self.expand_theta(theta), duration=self.duration, dt=self.dt
        )


@dataclass(frozen=True)
class LossValue:
    """A loss evaluation plus accounting and optional breakdown."""

    value: float
    components: dict[str, float] | None = None


def pulse_propagator(ab: HannPulseParams, cfg: ObjectiveConfig) -> np.ndarray:
    """Simulated propagator of the Hann pulse ``ab`` under ``cfg``."""
    seq = hann_waveform(ab)
    if cfg.distortion is not None:
        seq = replace(seq, distortion=np.asarray(cfg.distortion, dtype=float))
    return evolve(seq, cfg.transmon)


@lru_cache(maxsize=None)
def _prepared_state(axis: str, n_levels: int) -> np.ndarray:
    """Read-only ground state after a perfect 90-degree rotation about ``axis``."""
    prep = embed_qubit_gate(rotation_unitary(axis, math.pi / 2.0), n_levels)
    psi0 = np.zeros(n_levels, dtype=complex)
    psi0[0] = 1.0
    psi = prep @ psi0
    psi.setflags(write=False)
    return psi


def _rng_for_shots(shots: int, rng) -> np.random.Generator | None:
    if shots == 0:
        return None
    if rng is None:
        raise ValueError("shot-sampled losses require an rng (Generator or seed)")
    return np.random.default_rng(rng)


def _excited_populations(
    u: np.ndarray,
    psi_ref: np.ndarray,
    cfg: ObjectiveConfig,
    rng: np.random.Generator | None,
) -> list[float]:
    # each k is a separately prepared circuit; measurement noise is fresh
    pops = []
    psi = psi_ref
    k_prev = 0
    for k in cfg.k_list:
        for _ in range(k - k_prev):
            psi = u @ psi
        k_prev = k
        pops.append(measure_population(psi, cfg.shots, rng).excited)
    return pops


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


def _loss_x_from_propagator(
    u: np.ndarray, cfg: ObjectiveConfig, rng: np.random.Generator | None
) -> float:
    psi_ref = _prepared_state("x", cfg.transmon.n_levels)
    pops = _excited_populations(u, psi_ref, cfg, rng)
    return sum(
        abs(ideal_excited_after_x90s(k) - p) for k, p in zip(cfg.k_list, pops)
    ) / len(cfg.k_list)


def _loss_y_from_propagator(
    u: np.ndarray, cfg: ObjectiveConfig, rng: np.random.Generator | None
) -> float:
    psi_ref = _prepared_state("y", cfg.transmon.n_levels)
    pops = _excited_populations(u, psi_ref, cfg, rng)
    # +y-prepared state: any x-rotation count leaves the ideal population at 1/2
    return sum(abs(0.5 - p) for p in pops) / len(cfg.k_list)


def loss_x(ab: HannPulseParams, cfg: ObjectiveConfig, rng=None) -> LossValue:
    """Mean absolute population error against repeated-X90 targets (+x prep)."""
    rng = _rng_for_shots(cfg.shots, rng)
    return LossValue(value=_loss_x_from_propagator(pulse_propagator(ab, cfg), cfg, rng))


def loss_y(ab: HannPulseParams, cfg: ObjectiveConfig, rng=None) -> LossValue:
    """Mean absolute population error against the constant 1/2 target (+y prep)."""
    rng = _rng_for_shots(cfg.shots, rng)
    return LossValue(value=_loss_y_from_propagator(pulse_propagator(ab, cfg), cfg, rng))


def loss_combined(ab: HannPulseParams, cfg: ObjectiveConfig, rng=None) -> LossValue:
    """Average of the x and y losses on one simulated propagator."""
    rng = _rng_for_shots(cfg.shots, rng)
    u = pulse_propagator(ab, cfg)
    lx = _loss_x_from_propagator(u, cfg, rng)
    ly = _loss_y_from_propagator(u, cfg, rng)
    return LossValue(
        value=(lx + ly) / 2.0, components={"loss_x": lx, "loss_y": ly}
    )


def loss_rb(ab: HannPulseParams, cfg: ObjectiveConfig, rng=None) -> LossValue:
    """Percent Clifford infidelity ``(1 - decay) * 100`` from simulated RB.

    Random Clifford sequences make this loss stochastic even at
    ``shots = 0``, so an rng is always required.  The fitted decay may
    overshoot 1 by fit noise on a near-perfect gate; the loss is floored
    at 0 and the raw decay reported in components.
    """
    if rng is None:
        raise ValueError("loss_rb requires an rng for Clifford sequence sampling")
    rng = np.random.default_rng(rng)
    u = pulse_propagator(ab, cfg)
    data = run_rb(
        u,
        cfg.rb_lengths,
        n_sequences=cfg.rb_sequences,
        shots=cfg.shots,
        seed=rng,
    )
    fit = fit_rb_decay(data.lengths, data.survival)
    raw = (1.0 - fit.decay_rate) * 100.0
    return LossValue(
        value=max(0.0, raw), components={"decay_rate": fit.decay_rate}
    )


# pulse losses by name; experiments.py takes its pulse objective names from here
PULSE_LOSSES: dict[str, Callable[..., LossValue]] = {
    "lx": loss_x,
    "ly": loss_y,
    "l_combined": loss_combined,
    "l_rb": loss_rb,
}


def make_pulse_objective(
    name: str, cfg: ObjectiveConfig, rng=None
) -> Callable[[np.ndarray], float]:
    """Wrap a pulse loss as ``f(theta) -> float`` over the active dims."""
    if name not in PULSE_LOSSES:
        raise ValueError(
            f"unknown pulse loss {name!r}, expected one of {tuple(PULSE_LOSSES)}"
        )
    loss_fn = PULSE_LOSSES[name]
    if rng is not None:
        # one persistent stream: successive calls draw fresh shot noise
        # and benchmark sequences deterministically
        rng = np.random.default_rng(rng)

    def objective(theta: np.ndarray) -> float:
        return loss_fn(cfg.pulse_from_theta(theta), cfg, rng).value

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
