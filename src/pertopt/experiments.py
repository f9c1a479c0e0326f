"""Experiment runner: configs, seeded repeats, persistence, scans, tuneup.

Trajectory files are CSV with header
``run_id,iteration,n_evals,loss,a_t,c_t,beta_t,theta_0,...,theta_{p-1}``;
the iteration-0 row carries the initial point and its unbilled loss with
empty schedule cells.  Summaries are JSON lines keyed
``n_evals``/``loss_mean``/``loss_std``/``n_runs`` and recompute from the
CSVs to the last digit (floats are serialized via ``repr``).
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .estimators import EstimatorConfig
from .objectives import (
    ObjectiveConfig,
    make_pulse_objective,
    pulse_propagator,
    synthetic_objective,
)
from .optimizers import OptimizationAborted, Trajectory, run_optimization
from .rb import fit_rb_decay, interleaved_gate_fidelity, run_rb, RBFitResult
from .schedules import ScheduleSet
from .transmon import TransmonParams, average_gate_fidelity, rotation_unitary

PULSE_OBJECTIVES = ("lx", "ly", "l_combined", "l_rb")
SYNTHETIC_OBJECTIVES = ("sphere", "shifted_quadratic", "cubic")
# names accepted in config files (normative set)
CONFIG_OBJECTIVES = ("lx", "l_combined", "l_rb", "sphere", "cubic")


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: objective x estimator x update rule x schedules."""

    name: str
    objective: str
    estimator: EstimatorConfig
    update_rule: str
    schedules: ScheduleSet
    budget: int
    initial_theta: np.ndarray
    repeats: int = 1
    base_seed: int = 0
    objective_config: ObjectiveConfig | None = None
    noise_sigma: float = 0.0
    shift: float = 0.5
    clip_box: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "initial_theta", np.asarray(self.initial_theta, dtype=float)
        )
        if self.objective not in PULSE_OBJECTIVES + SYNTHETIC_OBJECTIVES:
            raise ConfigError(f"unknown objective {self.objective!r}")
        if self.repeats < 1:
            raise ConfigError(f"repeats must be >= 1, got {self.repeats}")
        if self.budget < 0:
            raise ConfigError(f"budget must be >= 0, got {self.budget}")
        if self.objective in PULSE_OBJECTIVES:
            if self.objective_config is None:
                raise ConfigError(
                    f"objective {self.objective!r} needs an objective_config"
                )
            if self.initial_theta.size != self.objective_config.dim:
                raise ConfigError(
                    f"initial_theta has length {self.initial_theta.size}, "
                    f"objective expects {self.objective_config.dim}"
                )

    def run_seed(self, repeat_index: int) -> int:
        return self.base_seed + repeat_index


@dataclass(frozen=True)
class SummaryRecord:
    """Cross-repeat loss statistics at one shared evaluation count."""

    n_evals: int
    loss_mean: float
    loss_std: float
    n_runs: int


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    trajectories: list[Trajectory]
    summary: list[SummaryRecord]
    trajectory_paths: list[Path]
    summary_path: Path
    failures: list[tuple[int, str]] = field(default_factory=list)


def _build_objective(cfg: ExperimentConfig, rng: np.random.Generator):
    if cfg.objective in PULSE_OBJECTIVES:
        return make_pulse_objective(cfg.objective, cfg.objective_config, rng)
    return synthetic_objective(
        cfg.objective,
        noise_sigma=cfg.noise_sigma,
        seed=rng if cfg.noise_sigma > 0 else None,
        shift=cfg.shift,
    )


def run_single(cfg: ExperimentConfig, repeat_index: int) -> Trajectory:
    """One seeded repeat: estimator and objective get disjoint substreams."""
    root = np.random.SeedSequence(cfg.run_seed(repeat_index))
    est_seq, obj_seq = root.spawn(2)
    objective = _build_objective(cfg, np.random.default_rng(obj_seq))
    return run_optimization(
        objective,
        cfg.estimator,
        cfg.update_rule,
        cfg.schedules,
        cfg.initial_theta,
        cfg.budget,
        seed=np.random.default_rng(est_seq),
        clip_box=cfg.clip_box,
    )


def run_experiment(cfg: ExperimentConfig, out_dir: str | Path) -> ExperimentResult:
    """Run all repeats, persist per-run CSVs and the summary JSONL.

    A repeat whose objective fails is recorded (partial trajectory file
    kept, warning emitted) and excluded from the summary; if every repeat
    fails the error propagates.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    trajectories: list[Trajectory] = []
    paths: list[Path] = []
    failures: list[tuple[int, str]] = []
    for r in range(cfg.repeats):
        path = out / f"{cfg.name}_run{r}.csv"
        try:
            traj = run_single(cfg, r)
        except OptimizationAborted as exc:
            write_trajectory_csv(path, r, exc.trajectory)
            paths.append(path)
            failures.append((r, str(exc)))
            warnings.warn(f"run {r} failed: {exc}", stacklevel=2)
            continue
        write_trajectory_csv(path, r, traj)
        paths.append(path)
        trajectories.append(traj)
    if not trajectories:
        raise RuntimeError(f"all {cfg.repeats} runs failed: {failures[0][1]}")
    summary = summarize_trajectories(trajectories)
    summary_path = out / f"{cfg.name}_summary.jsonl"
    write_summary_jsonl(summary_path, summary)
    return ExperimentResult(
        config=cfg,
        trajectories=trajectories,
        summary=summary,
        trajectory_paths=paths,
        summary_path=summary_path,
        failures=failures,
    )


def _format_float(x: float) -> str:
    return repr(float(x))


def _write_atomic(path: str | Path, text: str) -> None:
    """Write ``text`` to a temp file beside ``path``, then rename it over.

    An interrupted write leaves the previous file whole (or no file).
    """
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    try:
        with open(tmp, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _csv_text(rows: list[list[str]]) -> str:
    buffer = io.StringIO()
    csv.writer(buffer).writerows(rows)
    return buffer.getvalue()


def write_trajectory_csv(path: str | Path, run_id: int, traj: Trajectory) -> None:
    dim = traj.initial_theta.size
    header = ["run_id", "iteration", "n_evals", "loss", "a_t", "c_t", "beta_t"]
    header += [f"theta_{i}" for i in range(dim)]
    rows = [header]
    rows.append(
        [str(run_id), "0", "0", _format_float(traj.initial_loss), "", "", ""]
        + [_format_float(x) for x in traj.initial_theta]
    )
    for rec in traj.records:
        rows.append(
            [
                str(run_id),
                str(rec.iteration),
                str(rec.n_evals),
                _format_float(rec.loss),
                _format_float(rec.a_t),
                _format_float(rec.c_t),
                _format_float(rec.beta_t),
            ]
            + [_format_float(x) for x in rec.theta]
        )
    _write_atomic(path, _csv_text(rows))


@dataclass(frozen=True)
class TrajectoryFile:
    """Parsed trajectory CSV (losses keyed by evaluation count)."""

    run_id: int
    iterations: np.ndarray
    n_evals: np.ndarray
    losses: np.ndarray
    thetas: np.ndarray


def read_trajectory_csv(path: str | Path) -> TrajectoryFile:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[:7] != ["run_id", "iteration", "n_evals", "loss", "a_t", "c_t", "beta_t"]:
            raise ValueError(f"unexpected trajectory header in {path}")
        rows = list(reader)
    if not rows:
        raise ValueError(f"trajectory file {path} has no data rows")
    run_id = int(rows[0][0])
    iterations = np.array([int(r[1]) for r in rows])
    n_evals = np.array([int(r[2]) for r in rows])
    losses = np.array([float(r[3]) for r in rows])
    thetas = np.array([[float(v) for v in r[7:]] for r in rows])
    return TrajectoryFile(
        run_id=run_id,
        iterations=iterations,
        n_evals=n_evals,
        losses=losses,
        thetas=thetas,
    )


def _summarize(grid: np.ndarray, losses: np.ndarray) -> list[SummaryRecord]:
    n_runs = losses.shape[0]
    return [
        SummaryRecord(
            n_evals=int(grid[j]),
            loss_mean=float(np.mean(losses[:, j])),
            loss_std=float(np.std(losses[:, j])),
            n_runs=n_runs,
        )
        for j in range(grid.size)
    ]


def summarize_trajectories(trajectories: Sequence[Trajectory]) -> list[SummaryRecord]:
    """Per-evaluation-count mean/std of loss over aligned repeats."""
    if not trajectories:
        raise ValueError("need at least one trajectory")
    grids = [
        np.array([0] + [rec.n_evals for rec in t.records]) for t in trajectories
    ]
    if any(g.shape != grids[0].shape or np.any(g != grids[0]) for g in grids[1:]):
        raise ValueError("trajectories have misaligned evaluation grids")
    losses = np.array(
        [[t.initial_loss] + [rec.loss for rec in t.records] for t in trajectories]
    )
    return _summarize(grids[0], losses)


def summarize_csv_files(paths: Sequence[str | Path]) -> list[SummaryRecord]:
    """Recompute the summary from persisted trajectory files."""
    files = [read_trajectory_csv(p) for p in paths]
    grids = [f.n_evals for f in files]
    if any(g.shape != grids[0].shape or np.any(g != grids[0]) for g in grids[1:]):
        raise ValueError("trajectory files have misaligned evaluation grids")
    losses = np.array([f.losses for f in files])
    return _summarize(grids[0], losses)


def write_summary_jsonl(path: str | Path, records: Sequence[SummaryRecord]) -> None:
    """Atomic write (temp file + rename) of summary JSON lines."""
    lines = [
        json.dumps(
            {
                "n_evals": r.n_evals,
                "loss_mean": r.loss_mean,
                "loss_std": r.loss_std,
                "n_runs": r.n_runs,
            }
        )
        for r in records
    ]
    _write_atomic(path, "\n".join(lines) + "\n")


def read_summary_jsonl(path: str | Path) -> list[SummaryRecord]:
    records = []
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        d = json.loads(line)
        records.append(
            SummaryRecord(
                n_evals=d["n_evals"],
                loss_mean=d["loss_mean"],
                loss_std=d["loss_std"],
                n_runs=d["n_runs"],
            )
        )
    return records


@dataclass(frozen=True)
class ScanConfig:
    """Grid scan over the two active dims of a pulse objective."""

    objective: str
    objective_config: ObjectiveConfig
    values_1: np.ndarray
    values_2: np.ndarray
    max_cells: int = 10000

    def __post_init__(self) -> None:
        object.__setattr__(self, "values_1", np.asarray(self.values_1, dtype=float))
        object.__setattr__(self, "values_2", np.asarray(self.values_2, dtype=float))
        if self.objective not in PULSE_OBJECTIVES:
            raise ConfigError(f"scan objective must be a pulse loss, got {self.objective!r}")
        if (
            self.objective_config.active_dims is None
            or len(self.objective_config.active_dims) != 2
        ):
            raise ConfigError("landscape scans require exactly two active dims")
        if self.values_1.ndim != 1 or self.values_2.ndim != 1:
            raise ConfigError("scan value lists must be 1-D")
        if self.values_1.size < 1 or self.values_2.size < 1:
            raise ConfigError("scan value lists must be non-empty")
        if self.values_1.size * self.values_2.size > self.max_cells:
            raise ConfigError(
                f"grid has {self.values_1.size * self.values_2.size} cells, "
                f"cap is {self.max_cells}"
            )


def landscape_scan(scan: ScanConfig) -> np.ndarray:
    """Exact-measurement loss on the grid; rows follow values_1.

    Shots are forced to zero; the only stochastic element left is l_rb's
    sequence sampling, which runs from a fixed stream for reproducibility.
    """
    cfg = replace(scan.objective_config, shots=0)
    objective = make_pulse_objective(scan.objective, cfg, rng=0)
    grid = np.empty((scan.values_1.size, scan.values_2.size))
    for i, v1 in enumerate(scan.values_1):
        for j, v2 in enumerate(scan.values_2):
            grid[i, j] = objective(np.array([v1, v2]))
    return grid


def write_scan_csv(
    path: str | Path, scan: ScanConfig, grid: np.ndarray
) -> None:
    """Labeled matrix CSV: first row/column carry the swept values."""
    d1, d2 = scan.objective_config.active_dims
    rows = [[f"theta_{d1}\\theta_{d2}"] + [_format_float(v) for v in scan.values_2]]
    for i, v1 in enumerate(scan.values_1):
        rows.append([_format_float(v1)] + [_format_float(x) for x in grid[i]])
    _write_atomic(path, _csv_text(rows))


@dataclass(frozen=True)
class FinalRBConfig:
    """Settings for the tuneup's final fidelity assessment."""

    lengths: tuple[int, ...] = (0, 30, 80, 150, 250, 400, 600, 900, 1300, 1800)
    n_sequences: int = 40
    shots: int = 0
    seed: int = 2024


@dataclass
class TuneupResult:
    rough: Trajectory
    fine: Trajectory
    best_rough: tuple[int, float, np.ndarray]
    best_fine: tuple[int, float, np.ndarray]
    reference_fit: RBFitResult
    interleaved_fit: RBFitResult
    interleaved_fidelity: float
    direct_fidelity: float


def two_stage_tuneup(
    rough_cfg: ExperimentConfig,
    fine_cfg: ExperimentConfig,
    out_dir: str | Path,
    final_rb: FinalRBConfig = FinalRBConfig(),
) -> TuneupResult:
    """Rough stage, then a fine stage seeded at the best rough iterate.

    The fine stage's best iterate is assessed with reference + interleaved
    RB (fidelity from the decay ratio) next to the direct propagator
    fidelity oracle.  Stage trajectories are persisted even on failure.
    """
    if rough_cfg.objective not in PULSE_OBJECTIVES:
        raise ConfigError("rough stage must use a pulse objective")
    if fine_cfg.objective != "l_rb" or fine_cfg.objective_config is None:
        raise ConfigError("fine stage must use the l_rb pulse objective")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        rough = run_single(rough_cfg, 0)
    except OptimizationAborted as exc:
        write_trajectory_csv(out / f"{rough_cfg.name}_rough_run0.csv", 0, exc.trajectory)
        raise
    write_trajectory_csv(out / f"{rough_cfg.name}_rough_run0.csv", 0, rough)
    best_rough = rough.best()

    fine_cfg = replace(fine_cfg, initial_theta=best_rough[2])
    try:
        fine = run_single(fine_cfg, 0)
    except OptimizationAborted as exc:
        write_trajectory_csv(out / f"{fine_cfg.name}_fine_run0.csv", 0, exc.trajectory)
        raise
    write_trajectory_csv(out / f"{fine_cfg.name}_fine_run0.csv", 0, fine)
    best_fine = fine.best()

    result = assess_gate(fine_cfg.objective_config, best_fine[2], final_rb)
    reference_fit, interleaved_fit, fidelity, direct = result
    tuneup = TuneupResult(
        rough=rough,
        fine=fine,
        best_rough=best_rough,
        best_fine=best_fine,
        reference_fit=reference_fit,
        interleaved_fit=interleaved_fit,
        interleaved_fidelity=fidelity,
        direct_fidelity=direct,
    )
    _write_tuneup_json(out / f"{fine_cfg.name}_tuneup.json", tuneup)
    return tuneup


def assess_gate(
    objective_config: ObjectiveConfig,
    theta: np.ndarray,
    final_rb: FinalRBConfig = FinalRBConfig(),
) -> tuple[RBFitResult, RBFitResult, float, float]:
    """Reference + interleaved RB of the pulse at ``theta`` vs the direct oracle."""
    u = pulse_propagator(objective_config.pulse_from_theta(theta), objective_config)
    root = np.random.SeedSequence(final_rb.seed)
    ref_seq, int_seq = root.spawn(2)
    ref = run_rb(
        u,
        final_rb.lengths,
        n_sequences=final_rb.n_sequences,
        shots=final_rb.shots,
        seed=np.random.default_rng(ref_seq),
    )
    reference_fit = fit_rb_decay(ref.lengths, ref.survival)
    inter = run_rb(
        u,
        final_rb.lengths,
        n_sequences=final_rb.n_sequences,
        shots=final_rb.shots,
        seed=np.random.default_rng(int_seq),
        interleaved=True,
    )
    interleaved_fit = fit_rb_decay(inter.lengths, inter.survival)
    fidelity = interleaved_gate_fidelity(
        reference_fit.decay_rate, interleaved_fit.decay_rate
    )
    direct = average_gate_fidelity(u, rotation_unitary("x", math.pi / 2.0))
    return reference_fit, interleaved_fit, fidelity, direct


def _write_tuneup_json(path: Path, result: TuneupResult) -> None:
    payload = {
        "best_rough": {
            "iteration": result.best_rough[0],
            "loss": result.best_rough[1],
            "theta": [float(x) for x in result.best_rough[2]],
        },
        "best_fine": {
            "iteration": result.best_fine[0],
            "loss": result.best_fine[1],
            "theta": [float(x) for x in result.best_fine[2]],
        },
        "reference_decay": result.reference_fit.decay_rate,
        "interleaved_decay": result.interleaved_fit.decay_rate,
        "interleaved_fidelity": result.interleaved_fidelity,
        "direct_fidelity": result.direct_fidelity,
    }
    for arm, fit in (("reference", result.reference_fit),
                     ("interleaved", result.interleaved_fit)):
        # a degenerate fit's error is infinite: null keeps the file strict JSON
        stderr = fit.stderr_decay if math.isfinite(fit.stderr_decay) else None
        payload[f"{arm}_stderr_decay"] = stderr
        payload[f"{arm}_degenerate"] = fit.degenerate
    _write_atomic(path, json.dumps(payload, indent=2) + "\n")


# ---------------------------------------------------------------------------
# config-file parsing


def _require_keys(section: dict, allowed: set[str], where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def parse_schedules(section: dict) -> ScheduleSet:
    allowed = {
        "a0", "alpha", "c0", "zeta", "beta0", "lambda", "gamma", "delta",
        "truncation_step",
    }
    _require_keys(section, allowed, "schedules")
    kwargs = {k: v for k, v in section.items() if k != "lambda"}
    if "lambda" in section:
        kwargs["lam"] = section["lambda"]
    try:
        return ScheduleSet(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"invalid schedules: {exc}") from exc


def _parse_estimator(section: dict) -> EstimatorConfig:
    allowed = {"estimator", "n_samples", "count_baseline"}
    _require_keys(section, allowed, "estimator")
    try:
        return EstimatorConfig(
            method=section.get("estimator", "spsa"),
            n_samples=section.get("n_samples", 1),
            count_baseline=section.get("count_baseline", False),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid estimator: {exc}") from exc


def _parse_objective(section: dict) -> dict:
    """Returns kwargs for ExperimentConfig: objective name + configs."""
    if "objective" not in section:
        raise ConfigError("objective section needs an 'objective' name")
    name = section["objective"]
    if name not in CONFIG_OBJECTIVES:
        raise ConfigError(
            f"objective must be one of {CONFIG_OBJECTIVES}, got {name!r}"
        )
    if name in PULSE_OBJECTIVES:
        allowed = {
            "objective", "n_levels", "anharmonicity_mhz", "drive_scale_mhz",
            "duration_ns", "dt_ns", "n_basis", "k_list", "shots",
            "active_dims", "distortion_fir", "rb_lengths", "rb_sequences",
        }
        _require_keys(section, allowed, "objective")
        try:
            transmon = TransmonParams.from_mhz(
                anharmonicity_mhz=section.get("anharmonicity_mhz", 320.0),
                drive_scale_mhz=section.get("drive_scale_mhz", 25.0),
                n_levels=section.get("n_levels", 3),
            )
            kwargs = dict(transmon=transmon)
            if "duration_ns" in section:
                kwargs["duration"] = section["duration_ns"]
            if "dt_ns" in section:
                kwargs["dt"] = section["dt_ns"]
            if "n_basis" in section:
                kwargs["n_basis"] = section["n_basis"]
            if "k_list" in section:
                kwargs["k_list"] = tuple(section["k_list"])
            if "shots" in section:
                kwargs["shots"] = section["shots"]
            if section.get("active_dims") is not None:
                kwargs["active_dims"] = tuple(section["active_dims"])
            if section.get("distortion_fir") is not None:
                kwargs["distortion"] = tuple(section["distortion_fir"])
            if "rb_lengths" in section:
                kwargs["rb_lengths"] = tuple(section["rb_lengths"])
            if "rb_sequences" in section:
                kwargs["rb_sequences"] = section["rb_sequences"]
            objective_config = ObjectiveConfig(**kwargs)
        except ValueError as exc:
            raise ConfigError(f"invalid objective config: {exc}") from exc
        return {"objective": name, "objective_config": objective_config}
    allowed = {"objective", "noise_sigma", "shift", "dimension"}
    _require_keys(section, allowed, "objective")
    return {
        "objective": name,
        "noise_sigma": section.get("noise_sigma", 0.0),
        "shift": section.get("shift", 0.5),
    }


def _parse_initial_theta(spec, dim: int | None) -> np.ndarray:
    if isinstance(spec, (list, tuple)):
        spec = {"kind": "values", "values": spec}
    if spec is None:
        spec = {"kind": "zeros"}
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("initial_theta must be a list or a {kind: ...} object")
    kind = spec["kind"]
    if kind == "values":
        theta = np.asarray(spec.get("values", []), dtype=float)
        if theta.ndim != 1 or theta.size < 1:
            raise ConfigError("initial_theta values must be a non-empty list")
        return theta
    if dim is None:
        raise ConfigError(
            "synthetic objectives need a 'dimension' key or explicit "
            "initial_theta values"
        )
    if kind == "zeros":
        return np.zeros(dim)
    if kind == "random_uniform":
        low = spec.get("low", -0.5)
        high = spec.get("high", 0.5)
        seed = spec.get("seed", 0)
        # drawn once here so every algorithm/repeat shares the same point
        return np.random.default_rng(seed).uniform(low, high, size=dim)
    raise ConfigError(f"unknown initial_theta kind {kind!r}")


def experiment_config_from_dict(config: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from a parsed config mapping."""
    if not isinstance(config, dict):
        raise ConfigError("config root must be an object")
    allowed = {
        "name", "repeats", "objective", "estimator", "optimizer",
        "schedules", "initial_theta",
    }
    _require_keys(config, allowed, "config")
    for required in ("objective", "optimizer", "schedules"):
        if required not in config:
            raise ConfigError(f"config is missing the {required!r} section")

    objective_kwargs = _parse_objective(config["objective"])
    estimator = _parse_estimator(config.get("estimator", {}))
    schedules = parse_schedules(config["schedules"])

    optimizer = config["optimizer"]
    allowed_opt = {"update_rule", "budget_evaluations", "seed", "clip_box"}
    _require_keys(optimizer, allowed_opt, "optimizer")
    update_rule = optimizer.get("update_rule", "adam")
    budget = optimizer.get("budget_evaluations", 0)
    base_seed = optimizer.get("seed", 0)
    clip_box = optimizer.get("clip_box")
    if clip_box is not None:
        if not isinstance(clip_box, (list, tuple)) or len(clip_box) != 2:
            raise ConfigError("clip_box must be [low, high]")
        clip_box = (float(clip_box[0]), float(clip_box[1]))
        if clip_box[0] >= clip_box[1]:
            raise ConfigError("clip_box low must be < high")

    if objective_kwargs["objective"] in PULSE_OBJECTIVES:
        dim = objective_kwargs["objective_config"].dim
    else:
        dim = config["objective"].get("dimension")
    initial_theta = _parse_initial_theta(config.get("initial_theta"), dim)

    try:
        return ExperimentConfig(
            name=config.get("name", "experiment"),
            estimator=estimator,
            update_rule=update_rule,
            schedules=schedules,
            budget=budget,
            initial_theta=initial_theta,
            repeats=config.get("repeats", 1),
            base_seed=base_seed,
            clip_box=clip_box,
            **objective_kwargs,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def scan_config_from_dict(config: dict) -> ScanConfig:
    if not isinstance(config, dict):
        raise ConfigError("config root must be an object")
    allowed = {"objective", "scan", "name"}
    _require_keys(config, allowed, "config")
    if "objective" not in config or "scan" not in config:
        raise ConfigError("scan config needs 'objective' and 'scan' sections")
    objective_kwargs = _parse_objective(config["objective"])
    if objective_kwargs["objective"] not in PULSE_OBJECTIVES:
        raise ConfigError("scan objective must be a pulse loss")
    scan = config["scan"]
    allowed_scan = {"values_1", "values_2", "max_cells"}
    _require_keys(scan, allowed_scan, "scan")

    def resolve(values, which: str) -> np.ndarray:
        if isinstance(values, dict):
            extra = set(values) - {"start", "stop", "num"}
            if extra:
                raise ConfigError(f"unknown keys in scan {which}: {sorted(extra)}")
            return np.linspace(values["start"], values["stop"], int(values["num"]))
        if isinstance(values, (list, tuple)):
            return np.asarray(values, dtype=float)
        raise ConfigError(f"scan {which} must be a list or start/stop/num object")

    try:
        return ScanConfig(
            objective=objective_kwargs["objective"],
            objective_config=objective_kwargs["objective_config"],
            values_1=resolve(scan.get("values_1"), "values_1"),
            values_2=resolve(scan.get("values_2"), "values_2"),
            max_cells=scan.get("max_cells", 10000),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def tuneup_configs_from_dict(
    config: dict,
) -> tuple[ExperimentConfig, ExperimentConfig, FinalRBConfig]:
    if not isinstance(config, dict):
        raise ConfigError("config root must be an object")
    allowed = {"rough", "fine", "final_rb", "name"}
    _require_keys(config, allowed, "config")
    for section in ("rough", "fine"):
        if section not in config:
            raise ConfigError(f"tuneup config needs a {section!r} section")
    rough = experiment_config_from_dict(config["rough"])
    fine = experiment_config_from_dict(config["fine"])
    if fine.objective != "l_rb":
        raise ConfigError("fine stage objective must be l_rb")
    final = config.get("final_rb", {})
    allowed_final = {"lengths", "n_sequences", "shots", "seed"}
    _require_keys(final, allowed_final, "final_rb")
    final_rb = FinalRBConfig(
        lengths=tuple(final.get("lengths", FinalRBConfig.lengths)),
        n_sequences=final.get("n_sequences", FinalRBConfig.n_sequences),
        shots=final.get("shots", FinalRBConfig.shots),
        seed=final.get("seed", FinalRBConfig.seed),
    )
    return rough, fine, final_rb
