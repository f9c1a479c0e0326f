"""Few-level transmon pulse simulation in the rotating frame.

Everything works in units of rad/ns on a truncated oscillator with a
Kerr-type anharmonic shift.  The drive Hamiltonian (rotating-wave
approximation, frame co-rotating with the qubit) is

    H(t) = -(anharmonicity/2) ad.ad.a.a
           + (drive_scale/2) * (I(t) (a + ad) + Q(t) i(ad - a))

with piecewise-constant I/Q samples.  Each constant segment is integrated
exactly by eigendecomposition, so the propagator is numerically unitary
to roundoff.  The eigenproblem is real: with ``r = hypot(I, Q)``,
``phi = atan2(Q, I)`` and the phase frame ``D = diag(exp(i k phi))``,
``I (a + ad) + Q i(ad - a) = D r (a + ad) D^dag``, and ``D`` commutes
with the static diagonal.  So a segment's propagator is
``D V exp(-i E dt) V^T D^dag`` from the real symmetric eigenproblem
``h_static + (drive_scale/2) r (a + ad) = V E V^T``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

TWO_PI = 2.0 * math.pi

_ALLOWED_LEVELS = (2, 3, 4)


class UnitarityError(RuntimeError):
    """Propagator drifted from unitarity beyond tolerance."""


@dataclass(frozen=True)
class TransmonParams:
    """Device constants: level count, anharmonicity and drive scale (rad/ns).

    ``drive_scale`` converts a dimensionless pulse amplitude of 1.0 into
    the stated Rabi angular frequency.
    """

    n_levels: int = 3
    anharmonicity: float = TWO_PI * 0.320
    drive_scale: float = TWO_PI * 0.025

    def __post_init__(self) -> None:
        if self.n_levels not in _ALLOWED_LEVELS:
            raise ValueError(
                f"n_levels must be one of {_ALLOWED_LEVELS}, got {self.n_levels}"
            )
        if self.anharmonicity <= 0:
            raise ValueError(f"anharmonicity must be > 0, got {self.anharmonicity}")
        if self.drive_scale <= 0:
            raise ValueError(f"drive_scale must be > 0, got {self.drive_scale}")

    @classmethod
    def from_mhz(
        cls,
        anharmonicity_mhz: float = 320.0,
        drive_scale_mhz: float = 25.0,
        n_levels: int = 3,
    ) -> "TransmonParams":
        """Build params from linear frequencies in MHz."""
        return cls(
            n_levels=n_levels,
            anharmonicity=TWO_PI * anharmonicity_mhz / 1000.0,
            drive_scale=TWO_PI * drive_scale_mhz / 1000.0,
        )


def lowering_operator(n_levels: int) -> np.ndarray:
    """Truncated oscillator lowering operator."""
    return np.diag(np.sqrt(np.arange(1.0, n_levels)), k=1)


@dataclass(frozen=True)
class PulseSequence:
    """Piecewise-constant I/Q samples, optionally FIR-distorted.

    ``distortion`` is a causal FIR kernel applied to both quadratures via
    full convolution truncated back to the original sample count.
    """

    i_samples: np.ndarray
    q_samples: np.ndarray
    dt: float = 1.0
    distortion: np.ndarray | None = None

    def __post_init__(self) -> None:
        i_s = np.atleast_1d(np.asarray(self.i_samples, dtype=float))
        q_s = np.atleast_1d(np.asarray(self.q_samples, dtype=float))
        object.__setattr__(self, "i_samples", i_s)
        object.__setattr__(self, "q_samples", q_s)
        if i_s.ndim != 1 or q_s.ndim != 1 or i_s.size != q_s.size or i_s.size < 1:
            raise ValueError("I and Q must be 1-D arrays of equal length >= 1")
        if not (np.all(np.isfinite(i_s)) and np.all(np.isfinite(q_s))):
            raise ValueError("pulse samples must be finite")
        if self.dt <= 0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if self.distortion is not None:
            fir = np.atleast_1d(np.asarray(self.distortion, dtype=float))
            object.__setattr__(self, "distortion", fir)
            if fir.ndim != 1 or fir.size < 1 or not np.all(np.isfinite(fir)):
                raise ValueError("distortion must be a finite 1-D FIR kernel")

    @property
    def n_segments(self) -> int:
        return self.i_samples.size

    @property
    def duration(self) -> float:
        return self.n_segments * self.dt

    def effective_samples(self) -> tuple[np.ndarray, np.ndarray]:
        """Samples actually integrated, after any FIR distortion."""
        if self.distortion is None:
            return self.i_samples, self.q_samples
        n = self.n_segments
        return (
            np.convolve(self.i_samples, self.distortion, mode="full")[:n],
            np.convolve(self.q_samples, self.distortion, mode="full")[:n],
        )


def hann_basis(index: int, t: float | np.ndarray, duration: float):
    """Raised-cosine basis window ``1 - cos(2*pi*index*t/duration)``.

    Vanishes at ``t = 0`` and ``t = duration`` for every integer index.
    """
    if index < 1:
        raise ValueError(f"basis index must be >= 1, got {index}")
    return 1.0 - np.cos(TWO_PI * index * np.asarray(t, dtype=float) / duration)


@dataclass(frozen=True)
class HannPulseParams:
    """Raised-cosine series coefficients for the I and Q quadratures."""

    a_coeffs: np.ndarray
    b_coeffs: np.ndarray
    duration: float = 20.0
    dt: float = 1.0

    def __post_init__(self) -> None:
        a = np.atleast_1d(np.asarray(self.a_coeffs, dtype=float))
        b = np.atleast_1d(np.asarray(self.b_coeffs, dtype=float))
        object.__setattr__(self, "a_coeffs", a)
        object.__setattr__(self, "b_coeffs", b)
        if a.ndim != 1 or b.ndim != 1 or a.size != b.size or a.size < 1:
            raise ValueError("a_coeffs and b_coeffs must be 1-D and equal length >= 1")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValueError("pulse coefficients must be finite")
        if self.duration <= 0 or self.dt <= 0:
            raise ValueError("duration and dt must be > 0")
        if self.dt > self.duration:
            raise ValueError("dt must not exceed the pulse duration")

    @property
    def n_basis(self) -> int:
        return self.a_coeffs.size

    @property
    def theta(self) -> np.ndarray:
        """Flat parameter vector: A coefficients then B coefficients."""
        return np.concatenate([self.a_coeffs, self.b_coeffs])

    @classmethod
    def from_theta(
        cls, theta: np.ndarray, duration: float = 20.0, dt: float = 1.0
    ) -> "HannPulseParams":
        theta = np.asarray(theta, dtype=float)
        if theta.ndim != 1 or theta.size < 2 or theta.size % 2 != 0:
            raise ValueError("theta must be 1-D with even length >= 2")
        half = theta.size // 2
        return cls(
            a_coeffs=theta[:half], b_coeffs=theta[half:], duration=duration, dt=dt
        )


@lru_cache(maxsize=32)
def _hann_basis(n_basis: int, duration: float, dt: float) -> np.ndarray:
    """Read-only ``(n_basis, n_segments)`` windows at the segment midpoints."""
    ratio = duration / dt
    n_segments = int(round(ratio))
    if n_segments < 1 or abs(ratio - n_segments) > 1e-9:
        raise ValueError(f"dt={dt} does not evenly divide duration={duration}")
    t_mid = dt * (np.arange(n_segments) + 0.5)
    # rows: basis index i = 1..n_basis evaluated at every midpoint
    indices = np.arange(1, n_basis + 1)
    basis = 1.0 - np.cos(TWO_PI * np.outer(indices, t_mid) / duration)
    basis.setflags(write=False)
    return basis


def hann_waveform(params: HannPulseParams) -> PulseSequence:
    """Sample the raised-cosine series at segment midpoints.

    ``duration / dt`` must be an integer segment count; samples are taken
    at ``t = dt * (k + 1/2)``.
    """
    basis = _hann_basis(params.n_basis, params.duration, params.dt)
    return PulseSequence(
        i_samples=params.a_coeffs @ basis,
        q_samples=params.b_coeffs @ basis,
        dt=params.dt,
    )


@lru_cache(maxsize=32)
def _evolve_operators(params: TransmonParams) -> tuple[np.ndarray, ...]:
    """Read-only pulse-independent arrays of ``evolve``.

    The static Hamiltonian, the real drive operator ``(drive_scale/2)
    (a + ad)``, the level indices and the identity.
    """
    n = params.n_levels
    a = lowering_operator(n)
    levels = np.arange(n, dtype=float)
    h_static = np.diag(-(params.anharmonicity / 2.0) * levels * (levels - 1.0))
    x_drive = 0.5 * params.drive_scale * (a + a.T)
    ops = (h_static, x_drive, levels, np.eye(n))
    for op in ops:
        op.setflags(write=False)
    return ops


def evolve(pulse: PulseSequence, params: TransmonParams) -> np.ndarray:
    """Propagator for the full pulse, one exact exponential per segment.

    Each segment is diagonalized in its phase frame: one real symmetric
    ``eigh`` of ``h_static + r x_drive`` for the whole stack of segments,
    rotated back by ``D = diag(exp(i k phi))`` (see the module docstring).
    The time-ordered product is formed pairwise, later segments on the
    left, in about ``log2(n_segments)`` batched products.
    """
    i_s, q_s = pulse.effective_samples()
    h_static, x_drive, levels, eye = _evolve_operators(params)
    energies, modes = np.linalg.eigh(
        h_static + np.hypot(i_s, q_s)[:, None, None] * x_drive
    )
    frame = np.exp(1j * np.outer(np.arctan2(q_s, i_s), levels))
    # D V per segment; V is real, so (D V)^dag = conj(D V)^T
    frame_modes = frame[:, :, None] * modes
    phases = np.exp(-1j * pulse.dt * energies)
    segments = (frame_modes * phases[:, None, :]) @ np.swapaxes(
        frame_modes.conj(), -1, -2
    )
    while len(segments) > 1:
        paired = len(segments) // 2 * 2
        product = segments[1:paired:2] @ segments[0:paired:2]
        if paired < len(segments):  # odd count: the last segment joins on the left
            product[-1] = segments[-1] @ product[-1]
        segments = product
    u = segments[0]
    drift = np.max(np.abs(u.conj().T @ u - eye))
    if not drift <= 1e-8:
        raise UnitarityError(f"unitarity drift {drift:.3e} exceeds 1e-8")
    return u


class PopulationMeasurement(NamedTuple):
    """Level-population estimate split into ground/excited/leakage.

    Fields are floats for one state and arrays for a batch of states.
    """

    ground: float
    excited: float
    leakage: float


def measure_population(
    state: np.ndarray,
    shots: int = 0,
    rng: np.random.Generator | int | None = None,
) -> PopulationMeasurement:
    """Estimate level populations of a pure state or a batch of them.

    ``state`` is one vector or an ``(n, levels)`` batch of row vectors;
    a batch returns arrays of ``n`` populations per field, drawn row by
    row in order.  ``shots=0`` returns exact populations; ``shots>0``
    draws one multinomial sample over all levels per state (an ``rng`` is
    then required).  Leakage aggregates every level above the first
    excited state.
    """
    state = np.asarray(state, dtype=complex)
    if state.ndim not in (1, 2) or state.shape[-1] < 2:
        raise ValueError(
            "state must be a 1-D vector or a 2-D batch of rows with >= 2 levels"
        )
    # transposes put levels first, so one code path serves both shapes
    probs = (np.abs(state) ** 2).T
    total = probs.sum(axis=0)
    drift = abs(total - 1.0)
    if drift.ndim:  # a batch: its worst row (NaN if any row is NaN)
        drift = drift.max()
    if not drift <= 1e-9:
        raise ValueError(f"state norm deviates from 1 by {drift:.3e}")
    if shots < 0:
        raise ValueError(f"shots must be >= 0, got {shots}")
    if shots == 0:
        freq = probs
    else:
        if rng is None:
            raise ValueError("shot sampling requires an rng (Generator or seed)")
        rng = np.random.default_rng(rng)
        freq = rng.multinomial(shots, (probs / total).T).T / shots
    ground, excited, leakage = freq[0], freq[1], freq[2:].sum(axis=0)
    if state.ndim == 1:
        return PopulationMeasurement(float(ground), float(excited), float(leakage))
    return PopulationMeasurement(ground, excited, leakage)


def rotation_unitary(axis: str, angle: float) -> np.ndarray:
    """Qubit rotation ``exp(-i * angle * sigma_axis / 2)``."""
    if axis not in ("x", "y", "z"):
        raise ValueError(f"axis must be 'x', 'y' or 'z', got {axis!r}")
    half = angle / 2.0
    c, s = math.cos(half), math.sin(half)
    if axis == "x":
        return np.array([[c, -1j * s], [-1j * s, c]])
    if axis == "y":
        return np.array([[c, -s], [s, c]], dtype=complex)
    return np.array([[c - 1j * s, 0.0], [0.0, c + 1j * s]])


def embed_qubit_gate(u2: np.ndarray, n_levels: int) -> np.ndarray:
    """Embed a 2x2 gate into ``n_levels`` acting trivially on leakage levels."""
    u2 = np.asarray(u2, dtype=complex)
    if u2.shape != (2, 2):
        raise ValueError(f"expected a 2x2 gate, got shape {u2.shape}")
    if n_levels < 2:
        raise ValueError(f"n_levels must be >= 2, got {n_levels}")
    u = np.eye(n_levels, dtype=complex)
    u[:2, :2] = u2
    return u


def average_gate_fidelity(u_sim: np.ndarray, u_ideal: np.ndarray) -> float:
    """Average fidelity of the qubit block of ``u_sim`` against a 2x2 ideal.

    Uses the standard two-design formula
    ``(Tr(M^dag M) + |Tr M|^2) / 6`` with ``M = u_ideal^dag u_sim[:2,:2]``;
    leakage out of the qubit subspace lowers ``Tr(M^dag M)``.
    """
    u_sim = np.asarray(u_sim, dtype=complex)
    u_ideal = np.asarray(u_ideal, dtype=complex)
    if u_ideal.shape != (2, 2):
        raise ValueError(f"ideal gate must be 2x2, got shape {u_ideal.shape}")
    if u_sim.ndim != 2 or u_sim.shape[0] != u_sim.shape[1] or u_sim.shape[0] < 2:
        raise ValueError("simulated gate must be square with >= 2 levels")
    m = u_ideal.conj().T @ u_sim[:2, :2]
    return float(
        (np.trace(m.conj().T @ m).real + abs(np.trace(m)) ** 2) / 6.0
    )
