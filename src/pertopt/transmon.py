"""Few-level transmon pulse simulation in the rotating frame.

Everything works in units of rad/ns on a truncated oscillator with a
Kerr-type anharmonic shift; ``TransmonParams`` holds the device's
frequencies in MHz and converts them.  The drive Hamiltonian (rotating-wave
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
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .checks import check_choice, check_fields, check_shots

TWO_PI = 2.0 * math.pi

_ALLOWED_LEVELS = (2, 3, 4)


class UnitarityError(RuntimeError):
    """Propagator drifted from unitarity beyond tolerance."""


@dataclass(frozen=True)
class TransmonParams:
    """Device constants: level count, anharmonicity and drive scale in MHz.

    The fields are a config file's device keys.  The ``anharmonicity`` and
    ``drive_scale`` properties give rad/ns; ``drive_scale`` converts a
    dimensionless pulse amplitude of 1.0 into the stated Rabi angular
    frequency.
    """

    n_levels: int = field(default=3, metadata={"in": _ALLOWED_LEVELS})
    anharmonicity_mhz: float = 320.0
    drive_scale_mhz: float = 25.0

    def __post_init__(self) -> None:
        check_fields(self)
        for name in ("anharmonicity", "drive_scale"):
            # the rad/ns value, so an MHz value that overflows it is refused too
            if not 0 < getattr(self, name) < math.inf:
                value = getattr(self, f"{name}_mhz")
                raise ValueError(f"{name}_mhz must be a finite number > 0, got {value!r}")

    @property
    def anharmonicity(self) -> float:
        """Anharmonicity in rad/ns."""
        return TWO_PI * self.anharmonicity_mhz / 1000.0

    @property
    def drive_scale(self) -> float:
        """Drive scale in rad/ns."""
        return TWO_PI * self.drive_scale_mhz / 1000.0


def lowering_operator(n_levels: int) -> np.ndarray:
    """Truncated oscillator lowering operator."""
    return np.diag(np.sqrt(np.arange(1.0, n_levels)), k=1)


_FLOAT64 = np.dtype(np.float64)


def _float_vector(values) -> np.ndarray:
    """``values`` as a float array of at least one dimension; a 1-D float64
    array is returned as is."""
    if type(values) is np.ndarray and values.dtype is _FLOAT64 and values.ndim == 1:
        return values
    return np.atleast_1d(np.asarray(values, dtype=float))


@dataclass(frozen=True)
class PulseSequence:
    """Piecewise-constant I/Q samples, the drive ``evolve`` integrates.

    The samples are stored as 1-D float64 arrays; one that already is
    such an array is kept as given, not copied or converted, and every
    construction checks shapes and finiteness.
    """

    i_samples: np.ndarray
    q_samples: np.ndarray
    dt: float = 1.0

    def __post_init__(self) -> None:
        i_s = _float_vector(self.i_samples)
        q_s = _float_vector(self.q_samples)
        if i_s is not self.i_samples:
            object.__setattr__(self, "i_samples", i_s)
        if q_s is not self.q_samples:
            object.__setattr__(self, "q_samples", q_s)
        if i_s.ndim != 1 or q_s.ndim != 1 or i_s.size != q_s.size or i_s.size < 1:
            raise ValueError("I and Q must be 1-D arrays of equal length >= 1")
        # one count over both quadratures: count_nonzero is a plain loop,
        # about twice as fast as an all() reduction on a few dozen samples
        if np.count_nonzero(np.isfinite(i_s) & np.isfinite(q_s)) != i_s.size:
            raise ValueError("pulse samples must be finite")
        if not 0.0 < self.dt < math.inf:  # NaN fails this comparison too
            raise ValueError(f"dt must be > 0 and finite, got {self.dt}")

    @property
    def n_segments(self) -> int:
        return self.i_samples.size


@lru_cache(maxsize=32)
def hann_windows(n_basis: int, duration: float, dt: float) -> np.ndarray:
    """Read-only ``(n_basis, n_segments)`` windows at the segment midpoints.

    Raises ``ValueError`` unless ``duration / dt`` is a whole number.
    """
    if not (duration > 0 and dt > 0):
        raise ValueError(f"duration and dt must be > 0, got {duration}, {dt}")
    ratio = duration / dt
    n_segments = int(round(ratio))
    if n_segments < 1 or abs(ratio - n_segments) > 1e-9:
        raise ValueError(f"dt = {dt} does not evenly divide the {duration} ns pulse")
    t_mid = dt * (np.arange(n_segments) + 0.5)
    # rows: basis index i = 1..n_basis evaluated at every midpoint
    indices = np.arange(1, n_basis + 1)
    basis = 1.0 - np.cos(TWO_PI * np.outer(indices, t_mid) / duration)
    basis.setflags(write=False)
    return basis


def hann_waveform(
    a_coeffs, b_coeffs, duration: float, dt: float, distortion=None
) -> PulseSequence:
    """Sample the raised-cosine series at the segment midpoints.

    The I samples are ``sum_i a_i (1 - cos(2 pi i t / duration))`` over
    the basis indices ``i = 1..n`` at ``t = dt * (k + 1/2)``, the Q
    samples the same sum over ``b``.  The coefficients must be 1-D of
    equal length >= 1 and ``duration / dt`` a whole number of segments.
    A ``distortion`` FIR kernel, causal and applied to both quadratures by
    full convolution truncated back to the sample count, gives the
    samples the control line delivers.
    """
    a, b = _float_vector(a_coeffs), _float_vector(b_coeffs)
    if a.ndim != 1 or b.ndim != 1 or a.size != b.size or a.size < 1:
        raise ValueError("a_coeffs and b_coeffs must be 1-D and equal length >= 1")
    windows = hann_windows(a.size, duration, dt)
    # one vector product per quadrature: a (2, n) matrix product rounds
    # some samples differently in the last bit
    i_s, q_s = a @ windows, b @ windows
    if distortion is not None:
        fir = _float_vector(distortion)
        if fir.ndim != 1 or fir.size < 1 or not np.isfinite(fir).all():
            raise ValueError("distortion must be a finite 1-D FIR kernel")
        n = i_s.size
        i_s = np.convolve(i_s, fir, mode="full")[:n]
        q_s = np.convolve(q_s, fir, mode="full")[:n]
    return PulseSequence(i_s, q_s, dt)


@lru_cache(maxsize=32)
def _evolve_operators(params: TransmonParams) -> tuple[np.ndarray, ...]:
    """Read-only pulse-independent arrays of ``evolve``.

    The static Hamiltonian, the real drive operator ``(drive_scale/2)
    (a + ad)``, the imaginary level indices ``1j * k`` and the complex
    identity.
    """
    n = params.n_levels
    a = lowering_operator(n)
    levels = np.arange(n, dtype=float)
    h_static = np.diag(-(params.anharmonicity / 2.0) * levels * (levels - 1.0))
    x_drive = 0.5 * params.drive_scale * (a + a.T)
    ops = (h_static, x_drive, 1j * levels, np.eye(n, dtype=complex))
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
    i_s, q_s = pulse.i_samples, pulse.q_samples
    h_static, x_drive, i_levels, eye = _evolve_operators(params)
    energies, modes = np.linalg.eigh(
        h_static + np.hypot(i_s, q_s)[:, None, None] * x_drive
    )
    # phi * 1j k has the imaginary part phi k of 1j * (phi k), so the same bits
    frame = np.exp(np.arctan2(q_s, i_s)[:, None] * i_levels)
    # D V per segment; V is real, so (D V)^dag = conj(D V)^T
    frame_modes = frame[:, :, None] * modes
    phases = np.exp(-1j * pulse.dt * energies)
    segments = (frame_modes * phases[:, None, :]) @ frame_modes.conj().swapaxes(-1, -2)
    while len(segments) > 1:
        paired = len(segments) // 2 * 2
        product = segments[1:paired:2] @ segments[0:paired:2]
        if paired < len(segments):  # odd count: the last segment joins on the left
            product[-1] = segments[-1] @ product[-1]
        segments = product
    u = segments[0]
    # in place against the complex identity: the bits of
    # np.abs(gram - eye).max() without its cast, temporary and wrapper
    gram = u.conj().T @ u
    gram -= eye
    drift = np.maximum.reduce(np.abs(gram), axis=None)
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


def _check_norm(drift) -> None:
    """``ValueError`` unless a state's norm ``drift`` from 1 is <= 1e-9 (not NaN)."""
    if not drift <= 1e-9:
        raise ValueError(f"state norm deviates from 1 by {drift:.3e}")


def excited_frequency(probs: np.ndarray, shots: int, rng: np.random.Generator) -> float:
    """Measured excited-level frequency of one state's ``|psi|**2``.

    ``probs[1]`` at ``shots = 0``, else level 1's count over ``shots`` in one
    multinomial draw from ``rng``: ``measure_population(...).excited``'s bits.
    """
    # numpy sums fewer than 8 contiguous floats left to right, and so does
    # this loop, in Python floats (sum() compensates from Python 3.12 on)
    total = 0.0
    for p in probs.tolist():
        total += p
    _check_norm(abs(total - 1.0))
    if shots == 0:
        return float(probs[1])
    # an exact int over an int rounds once, as the float64 division does
    return rng.multinomial(shots, probs / total).item(1) / shots


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
    excited state.  Raises ``ValueError`` if a state's norm deviates from
    1 by more than 1e-9.
    """
    state = np.asarray(state, dtype=complex)
    if state.ndim not in (1, 2) or state.shape[-1] < 2:
        raise ValueError(
            "state must be a 1-D vector or a 2-D batch of rows with >= 2 levels"
        )
    check_shots(shots)
    if shots > 0:
        if rng is None:
            raise ValueError("shot sampling requires an rng (Generator or seed)")
        rng = np.random.default_rng(rng)
    # the transpose puts levels first, so one code path serves both shapes
    probs = (np.abs(state) ** 2).T
    total = probs.sum(axis=0)
    # a batch's worst state (NaN if any state is NaN)
    _check_norm(abs(total - 1.0).max())
    freq = probs if shots == 0 else rng.multinomial(shots, (probs / total).T).T / shots
    ground, excited, leakage = freq[0], freq[1], freq[2:].sum(axis=0)
    if state.ndim == 1:
        return PopulationMeasurement(float(ground), float(excited), float(leakage))
    return PopulationMeasurement(ground, excited, leakage)


def rotation_unitary(axis: str, angle: float) -> np.ndarray:
    """Qubit rotation ``exp(-i * angle * sigma_axis / 2)``."""
    check_choice("axis", axis, ("x", "y", "z"))
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
