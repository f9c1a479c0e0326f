"""The benchmark's three workloads: inputs from a seed, one pass, checks.

Every workload is a closed loop: one caller in one process waits for each
result before asking for the next.  The work in a pass is fixed by
evaluation budgets and gate counts, never by convergence, so a change to
the random stream changes the numbers a pass produces but not how much
work it does.  ``make_config`` turns the workload seed into JSON-shaped
inputs; the program sees only those.

- ``run_lx``: every estimator x update rule on the 20-dim ``lx`` loss at
  1000 shots, persisted as CSV and JSON lines.  Thousands of sub-ms
  objective calls put the simulator, estimators, optimizers and artifact
  writing in the critical path; the RB layer does no work.
- ``tuneup_rb``: two-stage tune-ups (adam-spsa and adam-rsgf) shaped like
  acceptance test 8, from a seeded drift of a calibrated pulse.
  The fine stage's ``l_rb`` loss and the final RB assessment take most of
  the time.  The rough stage's ``l_combined`` calls take well under a
  millisecond, so its budget is kept small: about one call in six is one,
  and the operation median sits near the middle of the ``l_rb`` latencies,
  not in their fast tail, where it moved 30 % between passes.
- ``rb_assess``: reference and interleaved RB with shot noise over the
  long final-assessment ladder, on seeded gates near X90 plus the exact
  X90.  Few long sequences, interleaving and multinomial draws.  The
  reference arm runs twice the interleaved arm's sequences.
"""

from __future__ import annotations

import hashlib
import math
from array import array
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import pertopt.experiments
from pertopt import (
    FinalRBConfig,
    ObjectiveError,
    OptimizationAborted,
    RBFitError,
    UnitarityError,
    average_gate_fidelity,
    experiment_config_from_dict,
    fit_rb_decay,
    interleaved_gate_fidelity,
    run_experiment,
    run_rb,
    tuneup_configs_from_dict,
    two_stage_tuneup,
)

from speed import SpeedClock
from tracing import patched

WORKLOADS = ("run_lx", "tuneup_rb", "rb_assess")
FAILURES = (OptimizationAborted, RBFitError, UnitarityError, ObjectiveError)

# Interleaved-RB fidelity against the direct oracle: at most IRB_ABS_TOL
# (the agreement acceptance test 8 asks of a tuned gate) plus the gate's
# own infidelity.  The protocol's systematic error grows with the error
# per gate, and leakage out of the qubit block lowers the direct fidelity
# without being resolved by ground-state survival; a broken RB layer
# misses this by orders of magnitude.
IRB_ABS_TOL = 5e-4
IRB_REL_TOL = 1.0
# Exact X90 at shots 0: every sequence returns to the ground state.
EXACT_SURVIVAL_TOL = 1e-12
# The benchmark's own fidelity formula against pertopt's.
FIDELITY_ORACLE_TOL = 1e-9

# Best fine-stage iterate of a full acceptance-test-8 tune-up (adam-spsa,
# rough 1600 / fine 600 evaluations, seeds 53 / 1053): average gate
# fidelity 0.99962.  tuneup_rb restarts from a seeded drift around it.
CALIBRATED_THETA = (
    -0.03427, -0.04889, 0.15836, -0.0697, 0.11397, 0.04553, -0.07366,
    0.31853, 0.11793, -0.02711, 0.04388, 0.12195, 0.10497, -0.0982,
    -0.00924, -0.06049, -0.02875, -0.05452, 0.02477, -0.04922,
)
TUNEUP_DRIFT = 0.02
LX_SCHEDULES = {"a0": 0.032, "c0": 0.016, "beta0": 0.999, "lambda": 0.4, "gamma": 0.999}


@dataclass(frozen=True)
class Size:
    """Work per pass; ``SMOKE`` keeps only enough to exercise the checks."""

    lx_repeats: int = 2
    lx_budget: int = 480
    rough_budget: int = 6
    fine_budget: int = 32
    final_sequences: int = 40
    gate_infidelities: tuple[float, ...] = (1e-4, 1e-3, 1e-2)


FULL = Size()
SMOKE = Size(
    lx_repeats=1,
    lx_budget=40,
    rough_budget=4,
    fine_budget=4,
    final_sequences=10,
    gate_infidelities=(1e-3,),
)


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31))


def _final_rb_section(size: Size, shots: int, rng: np.random.Generator) -> dict:
    return {
        "lengths": list(FinalRBConfig.lengths),
        "n_sequences": size.final_sequences,
        "shots": shots,
        "seed": _seed(rng),
    }


def make_config(workload: str, seed: int, size: Size = FULL) -> dict:
    """JSON-shaped inputs of one workload, all drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    if workload == "run_lx":
        theta = rng.uniform(-0.25, 0.25, 20).tolist()
        experiments = []
        for method in ("fdsa", "spsa", "rsgf"):
            for rule in ("sgd", "momentum", "adam"):
                experiments.append({
                    "name": f"{method}_{rule}",
                    "repeats": size.lx_repeats,
                    "objective": {"objective": "lx", "shots": 1000},
                    "estimator": {
                        "estimator": method,
                        "n_samples": 2 if method == "rsgf" else 1,
                    },
                    "optimizer": {
                        "update_rule": rule,
                        "budget_evaluations": size.lx_budget,
                        "seed": _seed(rng),
                    },
                    "schedules": LX_SCHEDULES,
                    "initial_theta": theta,
                })
        return {"experiments": experiments}
    if workload == "tuneup_rb":
        drift = rng.uniform(-TUNEUP_DRIFT, TUNEUP_DRIFT, 20)
        theta = (np.array(CALIBRATED_THETA) + drift).tolist()
        tuneups = []
        for variant, estimator, step in (
            ("adamspsa", {"estimator": "spsa"}, 0.002),
            ("adamrsgf", {"estimator": "rsgf", "n_samples": 2}, 0.004),
        ):
            tuneups.append({
                "name": variant,
                "rough": {
                    "name": variant,
                    "objective": {"objective": "l_combined", "shots": 10000},
                    "estimator": estimator,
                    "optimizer": {
                        "update_rule": "adam",
                        "budget_evaluations": size.rough_budget,
                        "seed": _seed(rng),
                    },
                    "schedules": {
                        "a0": 0.01, "c0": 0.016, "beta0": 0.999,
                        "lambda": 0.4, "gamma": 0.999,
                    },
                    "initial_theta": theta,
                },
                "fine": {
                    "name": variant,
                    "objective": {
                        "objective": "l_rb",
                        "shots": 0,
                        "rb_lengths": [1, 20, 60, 150, 300],
                        "rb_sequences": 24,
                    },
                    "estimator": estimator,
                    "optimizer": {
                        "update_rule": "adam",
                        "budget_evaluations": size.fine_budget,
                        "seed": _seed(rng),
                    },
                    "schedules": {
                        "a0": step, "c0": step, "beta0": 0.999,
                        "lambda": 0.1, "gamma": 0.999,
                    },
                    "initial_theta": {"kind": "zeros"},
                },
                "final_rb": _final_rb_section(size, 0, rng),
            })
        return {"tuneups": tuneups}
    if workload == "rb_assess":
        # log-uniform jitter around each target keeps the span 1e-4..1e-2
        gates = [
            {"infidelity": r * float(10 ** rng.uniform(-0.1, 0.1)), "seed": _seed(rng)}
            for r in size.gate_infidelities
        ]
        return {"final_rb": _final_rb_section(size, 1000, rng), "gates": gates}
    raise ValueError(f"unknown workload {workload!r}, expected one of {WORKLOADS}")


def parse_config(workload: str, config: dict):
    """Parse the JSON-shaped config with the functions the CLI uses."""
    if workload == "run_lx":
        return [experiment_config_from_dict(c) for c in config["experiments"]]
    if workload == "tuneup_rb":
        return [tuneup_configs_from_dict(c) for c in config["tuneups"]]
    section = config["final_rb"]
    # no CLI command takes a bare RB config; this mirrors how
    # tuneup_configs_from_dict builds its final_rb section
    return FinalRBConfig(
        lengths=tuple(section["lengths"]),
        n_sequences=section["n_sequences"],
        shots=section["shots"],
        seed=section["seed"],
    )


# ---------------------------------------------------------------------------
# gates for rb_assess, built without pertopt so the fidelity oracle is checked


def _x90() -> np.ndarray:
    c = s = math.sqrt(0.5)
    return np.array([[c, -1j * s], [-1j * s, c]])


def _qubit_block_infidelity(u: np.ndarray) -> float:
    m = _x90().conj().T @ u[:2, :2]
    return 1.0 - (np.trace(m.conj().T @ m).real + abs(np.trace(m)) ** 2) / 6.0


def make_gate(infidelity: float, seed: int) -> np.ndarray:
    """3-level X90 followed by a random coherent error of given infidelity.

    The error generator is a random Hermitian 3x3 matrix, so it both
    rotates the qubit block and leaks into the second excited level; its
    strength is bisected until the qubit-block infidelity hits the target.
    """
    x90 = np.eye(3, dtype=complex)
    x90[:2, :2] = _x90()
    a = np.random.default_rng(seed).standard_normal((2, 3, 3))
    h = a[0] + 1j * a[1]
    h = (h + h.conj().T) / 2.0
    evals, evecs = np.linalg.eigh(h - np.trace(h).real / 3.0 * np.eye(3))
    evals = evals / np.max(np.abs(evals))

    def gate(eps: float) -> np.ndarray:
        return (evecs * np.exp(-1j * eps * evals)) @ evecs.conj().T @ x90

    low, high = 0.0, 0.5
    while _qubit_block_infidelity(gate(high)) < infidelity:
        high *= 2.0
    for _ in range(80):
        mid = 0.5 * (low + high)
        if _qubit_block_infidelity(gate(mid)) < infidelity:
            low = mid
        else:
            high = mid
    return gate(0.5 * (low + high))


@dataclass
class Inputs:
    workload: str
    parsed: object
    gates: list[tuple[str, float, np.ndarray]] = field(default_factory=list)


def make_inputs(workload: str, config: dict, parsed) -> Inputs:
    gates = []
    if workload == "rb_assess":
        gates = [
            (f"gate{i}", g["infidelity"], make_gate(g["infidelity"], g["seed"]))
            for i, g in enumerate(config["gates"])
        ]
        exact = np.eye(3, dtype=complex)
        exact[:2, :2] = _x90()
        gates.append(("exact_x90", 0.0, exact))
    return Inputs(workload, parsed, gates)


# ---------------------------------------------------------------------------
# one pass


class OpLog:
    """Latency of every operation of a pass and how many of them failed.

    ``clock`` samples the machine's speed during the pass; each latency is
    kept raw and scaled to the reference speed, in flat arrays
    so that the memory they hold stays small next to a pass's own.
    """

    def __init__(self, clock: SpeedClock) -> None:
        self.clock = clock
        self.raw = array("d")
        self.normalized = array("d")
        self.failed = 0

    def timed(self, fn):
        raw, normalized, clock = self.raw, self.normalized, self.clock

        def op(*args, **kwargs):
            raw_start, normalized_start = clock.read()
            try:
                return fn(*args, **kwargs)
            except Exception:
                self.failed += 1
                raise
            finally:
                raw_end, normalized_end = clock.read()
                raw.append(raw_end - raw_start)
                normalized.append(normalized_end - normalized_start)

        return op


@dataclass
class Outcome:
    """What a pass produced, for the checks."""

    # (label, budget, billed evals per update, trajectory)
    trajectories: list = field(default_factory=list)
    # (label, interleaved-RB fidelity, direct fidelity, target infidelity or None)
    fidelities: list = field(default_factory=list)


def _timed_objectives(ops: OpLog):
    make_objective = pertopt.experiments.make_pulse_objective

    def timed_make_objective(name, cfg, rng=None):
        return ops.timed(make_objective(name, cfg, rng))

    return patched([(pertopt.experiments, "make_pulse_objective", timed_make_objective)])


def _billing(cfg) -> int:
    return cfg.estimator.evals_per_update(cfg.initial_theta.size)


def run_pass(inputs: Inputs, out_dir: Path, ops: OpLog) -> Outcome:
    outcome = Outcome()
    if inputs.workload == "run_lx":
        with _timed_objectives(ops):
            for cfg in inputs.parsed:
                result = run_experiment(cfg, out_dir)
                for r, traj in enumerate(result.trajectories):
                    outcome.trajectories.append(
                        (f"{cfg.name}_run{r}", cfg.budget, _billing(cfg), traj)
                    )
    elif inputs.workload == "tuneup_rb":
        with _timed_objectives(ops):
            for rough, fine, final_rb in inputs.parsed:
                try:
                    result = two_stage_tuneup(rough, fine, out_dir, final_rb)
                except FAILURES:
                    continue  # the failed operation is counted by ``ops``
                for stage, cfg, traj in (
                    ("rough", rough, result.rough), ("fine", fine, result.fine)
                ):
                    outcome.trajectories.append(
                        (f"{cfg.name}_{stage}", cfg.budget, _billing(cfg), traj)
                    )
                outcome.fidelities.append(
                    (fine.name, result.interleaved_fidelity, result.direct_fidelity, None)
                )
    else:
        final_rb = inputs.parsed
        experiment = ops.timed(_rb_experiment)
        seeds = np.random.SeedSequence(final_rb.seed).spawn(len(inputs.gates))
        # the reference arm runs twice the sequences, so both arms apply the
        # same number of Clifford steps and every operation costs about the
        # same: the latency median then sits inside one cluster, not on the
        # gap between a cheap reference and a costly interleaved cluster
        reference = replace(final_rb, n_sequences=2 * final_rb.n_sequences)
        for (label, target, gate), seed in zip(inputs.gates, seeds):
            ref_seed, int_seed = seed.spawn(2)
            try:
                p_ref = experiment(gate, reference, ref_seed, False).decay_rate
                p_int = experiment(gate, final_rb, int_seed, True).decay_rate
            except FAILURES:
                continue  # the failed operation is counted by ``ops``
            outcome.fidelities.append((
                label,
                interleaved_gate_fidelity(p_ref, p_int),
                average_gate_fidelity(gate, _x90()),
                target,
            ))
    return outcome


def _rb_experiment(gate, final_rb: FinalRBConfig, seed, interleaved: bool):
    data = run_rb(
        gate,
        final_rb.lengths,
        n_sequences=final_rb.n_sequences,
        shots=final_rb.shots,
        seed=np.random.default_rng(seed),
        interleaved=interleaved,
    )
    return fit_rb_decay(data.lengths, data.survival)


# ---------------------------------------------------------------------------
# checks: each returns a list of human-readable failures


def check_outcome(outcome: Outcome) -> list[str]:
    errors = []
    for label, budget, cost, traj in outcome.trajectories:
        billed = [rec.n_evals for rec in traj.records]
        expected = [cost * (i + 1) for i in range(traj.n_updates)]
        if billed != expected or traj.total_evals != cost * traj.n_updates:
            errors.append(f"{label}: billed evals {billed[-3:]} do not step by {cost}")
        if traj.total_evals > budget or budget - traj.total_evals >= cost:
            errors.append(
                f"{label}: {traj.total_evals} billed evals for budget {budget} "
                f"at {cost} per update"
            )
    for label, f_irb, f_direct, target in outcome.fidelities:
        bound = IRB_ABS_TOL + IRB_REL_TOL * (1.0 - f_direct)
        if not abs(f_irb - f_direct) <= bound:
            errors.append(
                f"{label}: interleaved-RB fidelity {f_irb!r} vs direct "
                f"{f_direct!r} exceeds {bound:.3g}"
            )
        if target is not None and not abs(1.0 - f_direct - target) <= FIDELITY_ORACLE_TOL:
            errors.append(
                f"{label}: average_gate_fidelity {f_direct!r} disagrees with the "
                f"generated infidelity {target!r}"
            )
    return errors


def check_exact_x90(inputs: Inputs) -> list[str]:
    """Exact X90 at shots 0: reference and interleaved survival stay 1."""
    final_rb = replace(inputs.parsed, shots=0)
    gate = inputs.gates[-1][2]
    errors = []
    for interleaved in (False, True):
        data = run_rb(
            gate, final_rb.lengths, n_sequences=final_rb.n_sequences,
            shots=0, seed=final_rb.seed, interleaved=interleaved,
        )
        worst = float(np.max(np.abs(data.survival - 1.0)))
        if not worst <= EXACT_SURVIVAL_TOL:
            errors.append(
                f"exact X90 (interleaved={interleaved}): survival off 1 by {worst:.3g}"
            )
    return errors


def artifact_digests(out_dir: Path) -> dict[str, str]:
    """SHA-256 of every file a pass wrote, so passes compare byte for byte
    without keeping their artifacts."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir()) if p.is_file()
    }
