"""Single-qubit randomized benchmarking of a simulated gate.

The 24-element single-qubit Clifford group is generated by breadth-first
closure over {I, X90, X180, X-90, Y90, Y-90}.  During benchmarking every
X90 occurrence in a Clifford's decomposition is replaced by the simulated
gate under test while the other generators stay ideal, so sequence errors
accumulate exactly where the real experiment puts them.  Recovery gates
are computed from the ideal composition through the group's
multiplication and inverse tables, which the closure derives.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._trf import trf_bounds
from .checks import check_shots, is_integer
from .transmon import measure_population, rotation_unitary

X90_GENERATOR_INDEX = 1
# the generators as a read-only (6, 2, 2) stack, identity first
_GENERATORS = np.array([
    np.eye(2, dtype=complex),
    rotation_unitary("x", math.pi / 2.0),
    rotation_unitary("x", math.pi),
    rotation_unitary("x", -math.pi / 2.0),
    rotation_unitary("y", math.pi / 2.0),
    rotation_unitary("y", -math.pi / 2.0),
])
_GENERATORS.flags.writeable = False

# log-spaced default sequence-length ladder, dense at short lengths
DEFAULT_RB_LENGTHS = (
    0, 1, 2, 3, 4, 5, 6, 8, 11, 14, 19, 25, 32, 42, 55, 72, 93, 122, 159,
    208, 272, 355, 463, 605, 790, 1032, 1347, 1759, 2297, 3000,
)


def check_rb_ladder(lengths: tuple[int, ...], lengths_name: str = "lengths") -> None:
    """Raise ``ValueError`` unless a decay can be fitted to the ladder.

    ``A p^m + B`` has three parameters, so the fit needs at least three
    distinct lengths, none negative; ``lengths_name`` labels the setting in
    errors.
    """
    if len(set(lengths)) < 3 or any(m < 0 for m in lengths):
        raise ValueError(
            f"{lengths_name} needs >= 3 distinct non-negative lengths, got {lengths}"
        )


class RBFitError(RuntimeError):
    """Decay fit failed; ``residuals`` holds the misfit where it stopped."""

    def __init__(self, message: str, residuals: np.ndarray | None = None):
        super().__init__(message)
        self.residuals = residuals


def _canonical_key(u: np.ndarray) -> tuple:
    """Hashable fingerprint of a 2x2 unitary modulo global phase.

    The phase reference is the first entry of magnitude > 0.25; Clifford
    entries are 0 or >= 1/2 in magnitude, so the pivot choice is stable
    against roundoff (unlike a magnitude argmax, which ties).
    """
    flat = u.reshape(-1)
    pivot = next(v for v in flat if abs(v) > 0.25)
    fixed = flat * (abs(pivot) / pivot)
    return tuple(np.round(fixed, 6).tolist())


@dataclass(frozen=True)
class CliffordGroup:
    """Phase-canonical unitaries plus composition bookkeeping.

    ``decompositions[k]`` lists generator indices applied left-to-right
    (earliest first) to build element ``k``; breadth-first order lists
    them shortest first.  ``multiplication[i, j]`` is the element equal to
    applying ``i`` then ``j``; ``inverse[i]`` composes with ``i`` to the
    identity (element 0).  The elements ``start:`` of ``positions[p] =
    (start, codes)`` have a ``p``-th generator, ``codes``; ``pair_elements[i]``
    is ``run_rb``'s pair-code table, interleaved if ``i``.  All arrays are
    read-only; ``multiplication`` and ``pair_elements`` are ``uint16``.
    """

    unitaries: tuple[np.ndarray, ...]
    decompositions: tuple[tuple[int, ...], ...]
    multiplication: np.ndarray
    inverse: np.ndarray
    positions: tuple[tuple[int, np.ndarray], ...]
    pair_elements: tuple[np.ndarray, np.ndarray]

    def __len__(self) -> int:
        return len(self.unitaries)


@functools.lru_cache(maxsize=1)
def clifford_group() -> CliffordGroup:
    """Breadth-first closure of the generator set; checks order 24.

    The closure meets every product of an element and a generator once and
    records which element it is.  Column ``j`` of ``multiplication`` walks
    decomposition ``j`` over that successor table from every element, so
    the tables take integer lookups, not matrix products.  The result is
    memoized, as the construction is pure, so its arrays are read-only:
    one caller's write would otherwise reach every later caller.
    """
    elements: list[np.ndarray] = []
    decomps: list[tuple[int, ...]] = []
    index: dict[tuple, int] = {}

    def element(u: np.ndarray, decomp: tuple[int, ...]) -> int:
        key = _canonical_key(u)
        if key not in index:
            index[key] = len(elements)
            elements.append(u)
            decomps.append(decomp)
        return index[key]

    element(_GENERATORS[0], ())
    # successor[k][g] is element k followed by generator g; the loop also
    # visits the elements it appends
    successor = [
        [element(g @ base, decomp + (g_idx,)) for g_idx, g in enumerate(_GENERATORS)]
        for base, decomp in zip(elements, decomps)
    ]
    n = len(elements)
    if n != 24:
        raise RuntimeError(f"Clifford closure found {n} elements")
    successor = np.array(successor)
    # uint16 as run_rb reads it: its code blocks are uint16
    multiplication = np.empty((n, n), dtype=np.uint16)
    for j, decomp in enumerate(decomps):
        column = np.arange(n)
        for g_idx in decomp:
            column = successor[column, g_idx]
        multiplication[:, j] = column
    rows, inverse = np.nonzero(multiplication == 0)
    if not np.array_equal(rows, np.arange(n)):
        raise RuntimeError("an element lacks a unique group inverse")
    x90 = int(successor[0, X90_GENERATOR_INDEX])
    # decompositions come shortest first: those reaching position p are a suffix
    positions = []
    for p in range(len(decomps[-1])):
        codes = [d[p] for d in decomps if len(d) > p]
        positions.append((n - len(codes), np.array(codes)))
    # the element of each step (with the X90 folded in when interleaved),
    # then the identity; pair code b * 25 + a applies step a then step b
    pair_elements = tuple(
        multiplication[np.ix_(ext, ext)].T.ravel()
        for ext in (np.append(steps, 0) for steps in (np.arange(n), multiplication[:, x90]))
    )
    for array in (multiplication, inverse, *elements, *pair_elements,
                  *(codes for _, codes in positions)):
        array.flags.writeable = False
    return CliffordGroup(
        unitaries=tuple(elements),
        decompositions=tuple(decomps),
        multiplication=multiplication,
        inverse=inverse,
        positions=tuple(positions),
        pair_elements=pair_elements,
    )


def compile_cliffords(group: CliffordGroup, gate_under_test: np.ndarray) -> np.ndarray:
    """Matrices of all Cliffords with X90 slots replaced by the test gate.

    A ``(24, n, n)`` array.  The generators are embedded on ``n`` levels
    and every element's generators are multiplied onto the identity, left
    to right: one stacked product per decomposition position, over the
    elements whose decomposition reaches it.
    """
    gate_under_test = np.asarray(gate_under_test, dtype=complex)
    eye = np.eye(gate_under_test.shape[0], dtype=complex)[None]
    gens = eye.repeat(len(_GENERATORS), axis=0)
    gens[:, :2, :2] = _GENERATORS
    gens[X90_GENERATOR_INDEX] = gate_under_test
    compiled = eye.repeat(len(group), axis=0)
    for start, codes in group.positions:
        compiled[start:] = gens.take(codes, axis=0) @ compiled[start:]
    return compiled


@dataclass(frozen=True)
class RBData:
    """Mean ground-state survival per sequence length, in ladder order."""

    lengths: np.ndarray
    survival: np.ndarray


def run_rb(
    gate: np.ndarray,
    lengths,
    n_sequences: int,
    shots: int = 0,
    seed: int | np.random.Generator | None = None,
    interleaved: bool = False,
) -> RBData:
    """Simulate randomized benchmarking of ``gate`` (an X90 candidate).

    Random Clifford sequences of each length are applied to the ground
    state, followed by the ideal-composition recovery Clifford; survival
    is the measured ground population.  ``interleaved=True`` inserts the
    gate under test after every Clifford.

    The Clifford indices are drawn one ``(n_sequences, m)`` ``int32`` block
    per length in ladder order (numpy serves ``int32`` and ``int64`` from
    the same bounded 32-bit generator, so the values and the stream are
    those of the default ``int64`` draw); with ``shots > 0`` the
    per-sequence measurement draws follow, also in ladder order.  Each
    block becomes that entry's ``((m + 1) // 2, n_sequences)`` ``uint16``
    pair codes, ``b * 25 + a`` for Clifford ``a`` then ``b``; 24 is the
    identity, which ends an odd length's last pair.  All sequences are
    stepped together, one code per row and step, through a table of all
    ordered products of two step matrices (and the identity) built once
    per call.  Rows are sorted by descending length, so the rows still
    running form a prefix, fixed between two ladder lengths: its codes for
    those steps are gathered into one slab, and it is stepped as one
    compact state, each product a fresh array, and written back once.
    Each row's composite element comes from its codes through the group's
    table of pair elements, then by multiplying neighbours pairwise (the
    group product is associative, so this is exact).
    """
    gate = np.asarray(gate, dtype=complex)
    if gate.ndim != 2 or gate.shape[0] != gate.shape[1] or gate.shape[0] < 2:
        raise ValueError("gate must be a square propagator with >= 2 levels")
    # checked entry by entry: an int conversion would truncate a fraction
    if np.ndim(lengths) != 1 or not all(map(is_integer, lengths)):
        raise ValueError(f"lengths must be a 1-D list of integers, got {lengths!r}")
    lengths = np.asarray(lengths, dtype=int)
    if lengths.size < 1 or np.any(lengths < 0):
        raise ValueError("lengths must be a non-empty list of m >= 0")
    if not is_integer(n_sequences) or n_sequences < 1:
        raise ValueError(f"n_sequences must be an integer >= 1, got {n_sequences!r}")
    check_shots(shots)
    rng = np.random.default_rng(seed)
    group = clifford_group()
    n_group = len(group)
    compiled = compile_cliffords(group, gate)
    # fold the gate under test (an X90 slot) into every step when interleaved
    step_matrices = gate @ compiled if interleaved else compiled

    # pairs[b * n_ext + a] applies ext[a] then ext[b]; ext ends with the
    # identity.  One 2-D product forms every block (ext[b] @ ext[a])[i, k]
    n_levels = gate.shape[0]
    ext = np.concatenate((step_matrices, np.eye(n_levels)[None]))
    n_ext = len(ext)
    pairs = (
        (ext.reshape(-1, n_levels) @ ext.transpose(1, 0, 2).reshape(n_levels, -1))
        .reshape(n_ext, n_levels, n_ext, n_levels)
        .transpose(0, 2, 1, 3)
        .reshape(n_ext * n_ext, n_levels, n_levels)
    )
    # flat uint16 tables and takes keep a long ladder's blocks small;
    # products[a * 24 + b] is element a then b
    pair_elements = group.pair_elements[bool(interleaved)]
    products = group.multiplication.ravel()

    # rows come in blocks of n_sequences per ladder entry, longest first
    # (stable, so equal lengths keep ladder order)
    order = np.argsort(-lengths, kind="stable")
    slot = np.argsort(order)  # the inverse permutation
    # codes[slot[li]]: entry li's pair codes, one row per step, written whole
    codes = [None] * lengths.size
    composite = np.zeros((lengths.size, n_sequences), dtype=np.uint16)
    for li, m in enumerate(lengths):
        draw = rng.integers(
            0, n_group, size=(n_sequences, m), dtype=np.int32
        ).T.astype(np.uint16)
        pair_codes = np.empty(((m + 1) // 2, n_sequences), dtype=np.uint16)
        pair_codes[:m // 2] = draw[1::2]
        # an odd length's last pair ends with the identity
        pair_codes[m // 2:] = n_group
        pair_codes *= n_ext
        pair_codes += draw[0::2]
        del draw  # not held through the composite tree's index conversions
        codes[slot[li]] = pair_codes
        block = pair_elements.take(pair_codes)
        while len(block) > 1:
            half = len(block) // 2
            pair = block[0:2 * half:2] * n_group + block[1::2]
            block = np.concatenate((products.take(pair), block[2 * half:]))
        if m:
            composite[slot[li]] = block[0]

    psi = np.zeros((lengths.size * n_sequences, n_levels), dtype=complex)
    psi[:, 0] = 1.0
    # ends[b] counts block b's pairs, longest first: the first c blocks alone
    # run from step ends[c] to ends[c - 1], one compact state and code slab
    ends = np.append((lengths[order] + 1) // 2, 0).tolist()
    for c in range(lengths.size, 0, -1):
        if ends[c] == ends[c - 1]:
            continue
        running = [entry[ends[c]:ends[c - 1]] for entry in codes[:c]]
        slab = running[0] if c == 1 else np.concatenate(running, axis=1)
        state = psi[:c * n_sequences]
        for row in slab:
            state = np.einsum("rij,rj->ri", pairs.take(row, axis=0), state)
        psi[:c * n_sequences] = state
    recovery = compiled[group.inverse[composite.ravel()]]
    psi = np.einsum("rij,rj->ri", recovery, psi)

    # back to ladder order before measuring
    psi = psi.reshape(lengths.size, n_sequences, -1)[slot].reshape(psi.shape)
    ground = measure_population(psi, shots, rng if shots > 0 else None).ground
    return RBData(
        lengths=lengths, survival=ground.reshape(lengths.size, n_sequences).mean(axis=1)
    )


@dataclass(frozen=True)
class RBFitResult:
    """Parameters and standard errors of ``amplitude * decay**m + offset``."""

    amplitude: float
    offset: float
    decay_rate: float
    stderr_amplitude: float
    stderr_offset: float
    stderr_decay: float
    degenerate: bool = False


def _decay_model(m, amplitude, offset, decay):
    return amplitude * decay**m + offset


_FIT_BOUNDS = (np.array([0.0, 0.0, 0.0]), np.array([1.0, 1.0, 1.01]))
_FIT_START = np.array([0.5, 0.5, 0.99])
# evaluation limit of the search, curve_fit's maxfev
_FIT_MAX_NFEV = 20000
# scipy's relative step for 2-point differences in float64
_FD_STEP = float(np.finfo(np.float64).eps) ** 0.5


def _forward_difference_jacobian(lengths, survival):
    """``evaluate(x)``: the decay residuals and scipy's 2-point Jacobian.

    ``x`` is a list of three floats.  It and its three steps are one
    broadcast evaluation of ``_decay_model``, bit-identical to what
    ``least_squares`` and ``approx_derivative`` compute one by one.
    scipy's step is ``sqrt(eps) * max(1, |x|)`` with the sign of ``x``,
    which is + inside the box (its lower bounds are 0).  Where it would
    pass an upper bound scipy reverses it, because the reversed step fits:
    every side of the box is far longer than the step.
    """
    upper = _FIT_BOUNDS[1].tolist()

    def evaluate(x):
        stepped = []
        for xj, uj in zip(x, upper):
            h = _FD_STEP * max(xj, 1.0)
            stepped.append(xj - h if xj + h > uj else xj + h)
        (a, o, c), (sa, so, sc) = x, stepped
        # each parameter at x and at the three steps (only its own moves),
        # then the steps, as columns
        p = np.array([a, sa, a, a, o, o, so, o, c, c, c, sc,
                      sa - a, so - o, sc - c])[:, None]
        f = _decay_model(lengths, p[0:4], p[4:8], p[8:12]) - survival
        return f[0], ((f[1:] - f[0]) / p[12:]).T

    return evaluate


def fit_rb_decay(lengths, survival) -> RBFitResult:
    """Least-squares fit of ``amplitude * decay**m + offset`` to RB data.

    A bounded trust-region search from (0.5, 0.5, 0.99) on [0, 1] x
    [0, 1] x [0, 1.01]: ``_trf.trf_bounds``, a port of the method
    ``curve_fit`` runs under bounds through ``least_squares``, which stops
    at the same bits.  The physical bounds keep shallow decays
    off the ``amplitude * (1 - decay) ~ const`` ridge where amplitude and
    decay are unidentifiable.  On a short ladder the search stops on that
    ridge near the slow decay; the exact least-squares optimum there is
    often a small fast component over a flat offset, which reads a
    near-perfect gate's ``1 - decay`` hundreds of times too high.
    Standard errors come from the Jacobian at the optimum, as in
    ``curve_fit``; a rank-deficient one (fewer than three distinct
    lengths, say) gives infinite errors and sets ``degenerate``.  Exactly
    constant survival carries no decay information and is returned as
    ``decay_rate = 1`` with infinite errors and ``degenerate=True``.
    """
    lengths = np.asarray(lengths, dtype=float)
    survival = np.asarray(survival, dtype=float)
    if lengths.shape != survival.shape or lengths.ndim != 1 or lengths.size < 3:
        raise ValueError("need >= 3 aligned (length, survival) points")
    if not (np.all(np.isfinite(lengths)) and np.all(np.isfinite(survival))):
        raise ValueError("lengths and survival must be finite")
    if np.any(lengths < 0):
        raise ValueError(f"sequence lengths must be >= 0, got {lengths.tolist()}")
    if np.ptp(survival) == 0.0:
        return RBFitResult(
            amplitude=0.0,
            offset=float(survival[0]),
            decay_rate=1.0,
            stderr_amplitude=math.inf,
            stderr_offset=math.inf,
            stderr_decay=math.inf,
            degenerate=True,
        )
    search = trf_bounds(
        _forward_difference_jacobian(lengths, survival),
        _FIT_START,
        *_FIT_BOUNDS,
        max_nfev=_FIT_MAX_NFEV,
    )
    if search.status == 0:
        raise RBFitError(
            "RB decay fit did not converge: "
            "The maximum number of function evaluations is exceeded.",
            residuals=-search.fun,
        )
    amplitude, offset, decay = (float(v) for v in search.x)
    if not 0.0 < decay <= 1.01:
        raise RBFitError(
            f"fitted decay {decay} outside (0, 1.01]", residuals=-search.fun
        )
    stderr = _fit_stderr(search.jac, 2.0 * search.cost)
    return RBFitResult(
        amplitude=amplitude,
        offset=offset,
        decay_rate=decay,
        stderr_amplitude=float(stderr[0]),
        stderr_offset=float(stderr[1]),
        stderr_decay=float(stderr[2]),
        degenerate=not np.all(np.isfinite(stderr)),
    )


def _fit_stderr(jacobian: np.ndarray, ssr: float) -> np.ndarray:
    """Parameter standard errors of a least-squares fit, as ``curve_fit``.

    The inverse of ``J^T J`` from the SVD of ``J``, scaled by
    ``SSR / (n - p)``.  Infinite when there are no spare degrees of
    freedom, and when ``J`` is rank-deficient: a singular value at or
    below ``eps * max(J.shape) * s_max``, which ``curve_fit``'s
    pseudo-inverse would drop, leaves the parameters undetermined.
    """
    n, n_params = jacobian.shape
    if n > n_params and np.all(np.isfinite(jacobian)):
        _, s, vt = np.linalg.svd(jacobian, full_matrices=False)
        if s[-1] > np.finfo(float).eps * max(jacobian.shape) * s[0]:
            pcov = (vt.T / s**2) @ vt
            return np.sqrt(np.diag(pcov) * ssr / (n - n_params))
    return np.full(n_params, math.inf)


def interleaved_gate_fidelity(p_reference: float, p_interleaved: float) -> float:
    """Gate fidelity from reference and interleaved decays.

    ``1 - (1 - p_int/p_ref)/2`` for a single qubit.  A ratio above 1
    (possible through fit noise) produces a warning, not an error.
    """
    for name, p in (("p_reference", p_reference), ("p_interleaved", p_interleaved)):
        if not 0.0 < p <= 1.01:
            raise ValueError(f"{name} must lie in (0, 1.01], got {p}")
    if p_interleaved > p_reference:
        warnings.warn(
            "interleaved decay exceeds reference decay; "
            "estimated fidelity exceeds 1",
            stacklevel=2,
        )
    return 1.0 - (1.0 - p_interleaved / p_reference) / 2.0
