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
import json
import logging
import math
import os
import warnings
from dataclasses import dataclass, field, replace
from operator import attrgetter
from pathlib import Path
from typing import Sequence

import numpy as np

from .checks import check_fields, check_shots, config_keys, is_finite_real, is_integer
from .estimators import EstimatorConfig
from .objectives import (
    PULSE_LOSSES,
    SYNTHETIC_OBJECTIVES,
    ObjectiveConfig,
    make_pulse_objective,
    pulse_propagator,
    synthetic_objective,
)
from .optimizers import (
    UPDATE_RULES,
    OptimizationAborted,
    Trajectory,
    TrajectoryRecord,
    run_optimization,
)
from .rb import (
    RBFitResult, check_rb_ladder, fit_rb_decay, interleaved_gate_fidelity, run_rb,
)
from .schedules import ScheduleSet
from .transmon import TransmonParams, average_gate_fidelity, rotation_unitary

# the objectives a config file may name; ly and shifted_quadratic are API-only
CONFIG_OBJECTIVES = ("lx", "l_combined", "l_rb", "sphere", "cubic")
# the most grid points a landscape scan evaluates
MAX_SCAN_CELLS = 10000

logger = logging.getLogger(__name__)


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
    budget: int = field(metadata={"key": "budget_evaluations", "ge": 0})
    initial_theta: np.ndarray
    repeats: int = field(default=1, metadata={"ge": 1})
    # np.random.SeedSequence refuses a negative seed, but only mid-run
    base_seed: int = field(default=0, metadata={"key": "seed", "ge": 0})
    objective_config: ObjectiveConfig | None = None
    noise_sigma: float = field(default=0.0, metadata={"ge": 0})
    clip_box: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        check_fields(self, ConfigError)
        _check_name(self.name)
        if self.objective not in (*PULSE_LOSSES, *SYNTHETIC_OBJECTIVES):
            raise ConfigError(f"unknown objective {self.objective!r}")
        if self.update_rule not in UPDATE_RULES:
            raise ConfigError(
                f"unknown update rule {self.update_rule!r}, "
                f"expected one of {UPDATE_RULES}"
            )
        if self.clip_box is not None and not self.clip_box[0] < self.clip_box[1]:
            raise ConfigError("clip_box low must be < high")
        if self.objective in PULSE_LOSSES:
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
    """Cross-repeat loss statistics at one shared evaluation count.

    Only ``read_summary_jsonl`` checks the fields, so that
    ``summarize_trajectories`` builds its thousands of records unchecked.
    A statistic that is not finite (losses near the float limit) is ``None``.
    """

    n_evals: int = field(metadata={"ge": 0})
    loss_mean: float | None
    loss_std: float | None = field(metadata={"ge": 0})
    n_runs: int = field(metadata={"ge": 1})


@dataclass
class ExperimentResult:
    trajectories: list[Trajectory]
    summary: list[SummaryRecord]
    trajectory_paths: list[Path]
    summary_path: Path
    failures: list[tuple[int, str]] = field(default_factory=list)


def _build_objective(cfg: ExperimentConfig, rng: np.random.Generator):
    if cfg.objective in PULSE_LOSSES:
        return make_pulse_objective(cfg.objective, cfg.objective_config, rng)
    return synthetic_objective(cfg.objective, cfg.noise_sigma, seed=rng)


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


def _run_stage(cfg: ExperimentConfig, repeat_index: int, path: Path) -> Trajectory:
    """``run_single``, its trajectory written to ``path`` even if it aborts."""
    try:
        traj = run_single(cfg, repeat_index)
    except OptimizationAborted as exc:
        write_trajectory_csv(path, repeat_index, exc.trajectory)
        raise
    write_trajectory_csv(path, repeat_index, traj)
    return traj


def run_experiment(cfg: ExperimentConfig, out_dir: str | Path) -> ExperimentResult:
    """Run all repeats, persist per-run CSVs and the summary JSONL.

    A repeat whose objective fails is recorded (partial trajectory file
    kept, warning emitted and logged) and excluded from the summary; if
    every repeat fails the error propagates.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    trajectories: list[Trajectory] = []
    paths: list[Path] = []
    failures: list[tuple[int, str]] = []
    for r in range(cfg.repeats):
        paths.append(out / f"{cfg.name}_run{r}.csv")
        try:
            trajectories.append(_run_stage(cfg, r, paths[-1]))
        except OptimizationAborted as exc:
            failures.append((r, str(exc)))
            message = f"run {r} failed: {exc}"
            logger.warning(message)
            warnings.warn(message, stacklevel=2)
    if not trajectories:
        raise RuntimeError(f"all {cfg.repeats} runs failed: {failures[0][1]}")
    summary = summarize_trajectories(trajectories)
    summary_path = out / f"{cfg.name}_summary.jsonl"
    write_summary_jsonl(summary_path, summary)
    return ExperimentResult(trajectories, summary, paths, summary_path, failures)


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


def _csv_text(rows) -> str:
    """``rows`` of fields as ``csv.writer`` writes them: comma-separated,
    each row ending in ``\\r\\n``.  No field written here needs quoting
    (integers, ``repr`` floats, column names, empty cells), so each row is
    joined directly."""
    return "".join([",".join(row) + "\r\n" for row in rows])


def _format_floats(values) -> list[str]:
    """``_format_float`` of each entry of a float vector."""
    return list(map(repr, np.asarray(values, dtype=float).tolist()))


_CSV_COLUMNS = ["run_id", "iteration", "n_evals", "loss", "a_t", "c_t", "beta_t"]


def write_trajectory_csv(path: str | Path, run_id: int, traj: Trajectory) -> None:
    dim, run = traj.initial_theta.size, str(run_id)
    rows = [_CSV_COLUMNS + [f"theta_{i}" for i in range(dim)]]
    rows.append(
        [run, "0", "0", _format_float(traj.initial_loss), "", "", ""]
        + _format_floats(traj.initial_theta)
    )
    for rec in traj.records:
        rows.append(
            [run, str(rec.iteration), str(rec.n_evals), _format_float(rec.loss),
             _format_float(rec.a_t), _format_float(rec.c_t), _format_float(rec.beta_t)]
            + _format_floats(rec.theta)
        )
    _write_atomic(path, _csv_text(rows))


def read_trajectory_csv(path: str | Path) -> tuple[int, Trajectory]:
    """Run id and trajectory of a file written by ``write_trajectory_csv``:
    every row carries one run id, and the iterations count 0, 1, 2, ..."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])  # none in a zero-byte file
        if header[:7] != _CSV_COLUMNS:
            raise ValueError(f"unexpected trajectory header in {path}")
        rows = list(reader)
    if not rows:
        raise ValueError(f"trajectory file {path} has no data rows")
    if any(len(row) != len(header) for row in rows):
        raise ValueError(f"trajectory file {path} has a row unlike its header")
    first, *updates = rows
    try:
        traj = Trajectory(np.array([float(v) for v in first[7:]]), float(first[3]))
        # the columns after run_id are TrajectoryRecord's fields in order
        traj.records.extend(
            TrajectoryRecord(int(row[1]), int(row[2]), *map(float, row[3:7]),
                             np.array([float(v) for v in row[7:]]))
            for row in updates
        )
        run_ids = {int(row[0]) for row in rows}
        iterations = [int(row[1]) for row in rows]
    except ValueError as exc:  # a cell that is not a number
        raise ValueError(f"trajectory file {path} has a malformed cell: {exc}") from exc
    if len(run_ids) != 1:
        raise ValueError(f"trajectory file {path} mixes run ids {sorted(run_ids)}")
    if iterations != list(range(len(rows))):
        raise ValueError(f"trajectory file {path} has iterations out of order")
    return run_ids.pop(), traj


def summarize_trajectories(trajectories: Sequence[Trajectory]) -> list[SummaryRecord]:
    """Per-evaluation-count mean/std of loss over aligned repeats."""
    if not trajectories:
        raise ValueError("need at least one trajectory")
    grids = [[0] + [rec.n_evals for rec in t.records] for t in trajectories]
    if any(g != grids[0] for g in grids[1:]):
        raise ValueError("trajectories have misaligned evaluation grids")
    losses = np.array(
        [[t.initial_loss] + [rec.loss for rec in t.records] for t in trajectories]
    )
    # one row per evaluation count, reduced along its contiguous last axis:
    # each row sums pairwise as np.mean/np.std of that column alone would
    columns = np.ascontiguousarray(losses.T)
    stats = np.array([columns.mean(axis=1), columns.std(axis=1)])
    if not np.isfinite(stats).all():  # JSON has no inf or NaN: store None
        stats = np.where(np.isfinite(stats), stats, None)
    means, stds = stats.tolist()
    n_runs = len(trajectories)
    return [
        SummaryRecord(int(n), mean, std, n_runs)
        for n, mean, std in zip(grids[0], means, stds)
    ]


def write_summary_jsonl(path: str | Path, records: Sequence[SummaryRecord]) -> None:
    """Atomic write (temp file + rename) of summary JSON lines; strict JSON,
    so a statistic that is not finite raises ``ValueError``."""
    encode = json.JSONEncoder(allow_nan=False).encode
    # a record's __dict__ holds its fields in declaration order
    lines = [encode(vars(r)) for r in records]
    _write_atomic(path, "\n".join(lines) + "\n")


def read_summary_jsonl(path: str | Path) -> list[SummaryRecord]:
    """The records of a file written by ``write_summary_jsonl``, each
    checked by ``check_fields`` against its field kinds and bounds."""
    lines = Path(path).read_text().splitlines()
    try:
        records = [SummaryRecord(**json.loads(line)) for line in lines if line.strip()]
        for record in records:
            check_fields(record)
    except (TypeError, ValueError) as exc:  # a missing key, not JSON, a bad value
        raise ValueError(f"malformed summary line in {path}: {exc}") from exc
    return records


@dataclass(frozen=True)
class ScanConfig:
    """Grid scan over the two active dims of a pulse objective."""

    objective: str
    objective_config: ObjectiveConfig
    values_1: np.ndarray
    values_2: np.ndarray

    def __post_init__(self) -> None:
        check_fields(self, ConfigError)
        if self.objective not in PULSE_LOSSES:
            raise ConfigError(f"scan objective must be a pulse loss, got {self.objective!r}")
        if (
            self.objective_config.active_dims is None
            or len(self.objective_config.active_dims) != 2
        ):
            raise ConfigError("landscape scans require exactly two active dims")
        if self.values_1.size * self.values_2.size > MAX_SCAN_CELLS:
            raise ConfigError(
                f"grid has {self.values_1.size * self.values_2.size} cells, "
                f"cap is {MAX_SCAN_CELLS}"
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
    rows = [[f"theta_{d1}\\theta_{d2}"] + _format_floats(scan.values_2)]
    for i, v1 in enumerate(_format_floats(scan.values_1)):
        rows.append([v1] + _format_floats(grid[i]))
    _write_atomic(path, _csv_text(rows))


@dataclass(frozen=True)
class FinalRBConfig:
    """Settings for the tuneup's final fidelity assessment."""

    lengths: tuple[int, ...] = (0, 30, 80, 150, 250, 400, 600, 900, 1300, 1800)
    n_sequences: int = field(default=40, metadata={"ge": 1})
    shots: int = 0
    seed: int = field(default=2024, metadata={"ge": 0})

    def __post_init__(self) -> None:
        check_fields(self)
        check_rb_ladder(self.lengths)
        check_shots(self.shots)


@dataclass
class TuneupResult:
    rough: Trajectory
    fine: Trajectory
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

    Each stage runs once (``repeats`` must be 1), and the stages must share
    the pulse basis and timing.  The fine stage's best iterate is assessed
    with reference + interleaved RB (fidelity from the decay ratio) next to
    the direct propagator fidelity oracle.  Stage trajectories are
    persisted even on failure.
    """
    if rough_cfg.objective not in PULSE_LOSSES:
        raise ConfigError("rough stage must use a pulse objective")
    if fine_cfg.objective != "l_rb" or fine_cfg.objective_config is None:
        raise ConfigError("fine stage must use the l_rb pulse objective")
    for stage, cfg in (("rough", rough_cfg), ("fine", fine_cfg)):
        if cfg.repeats != 1:
            raise ConfigError(f"{stage} stage repeats must be 1, got {cfg.repeats!r}")
    # the fine stage starts at the rough stage's best coefficients, which
    # are the same pulse only in the same basis and timing
    shared = ("n_basis", "active_dims", "duration", "dt", "distortion")
    pulse = attrgetter(*shared)
    if pulse(rough_cfg.objective_config) != pulse(fine_cfg.objective_config):
        keys = {name: key for key, name in config_keys(ObjectiveConfig).items()}
        raise ConfigError("rough and fine stages must share {} and {}, {}, {} and {}"
                          .format(*map(keys.get, shared)))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rough = _run_stage(rough_cfg, 0, out / f"{rough_cfg.name}_rough_run0.csv")
    fine_cfg = replace(fine_cfg, initial_theta=rough.best()[2])
    fine = _run_stage(fine_cfg, 0, out / f"{fine_cfg.name}_fine_run0.csv")
    gate = assess_gate(fine_cfg.objective_config, fine.best()[2], final_rb)
    tuneup = TuneupResult(rough, fine, *gate)
    _write_tuneup_json(out / f"{fine_cfg.name}_tuneup.json", tuneup)
    return tuneup


def assess_gate(
    objective_config: ObjectiveConfig,
    theta: np.ndarray,
    final_rb: FinalRBConfig = FinalRBConfig(),
) -> tuple[RBFitResult, RBFitResult, float, float]:
    """Reference + interleaved RB of the pulse at ``theta`` vs the direct oracle."""
    u = pulse_propagator(theta, objective_config)
    fits = []
    streams = np.random.SeedSequence(final_rb.seed).spawn(2)
    for interleaved, stream in zip((False, True), streams):
        data = run_rb(
            u,
            final_rb.lengths,
            n_sequences=final_rb.n_sequences,
            shots=final_rb.shots,
            seed=np.random.default_rng(stream),
            interleaved=interleaved,
        )
        fits.append(fit_rb_decay(data.lengths, data.survival))
    reference_fit, interleaved_fit = fits
    fidelity = interleaved_gate_fidelity(
        reference_fit.decay_rate, interleaved_fit.decay_rate
    )
    direct = average_gate_fidelity(u, rotation_unitary("x", math.pi / 2.0))
    return reference_fit, interleaved_fit, fidelity, direct


def _write_tuneup_json(path: Path, result: TuneupResult) -> None:
    payload = {}
    for stage, trajectory in (("rough", result.rough), ("fine", result.fine)):
        iteration, loss, theta = trajectory.best()
        payload[f"best_{stage}"] = {
            "iteration": iteration, "loss": loss, "theta": [float(x) for x in theta]
        }
    payload |= {
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
#
# A section's keys are the ``config_keys`` of the dataclass it builds; a
# key left out takes the field's default.


def _require_keys(section, allowed, where: str) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = set(section) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _build(cls, where: str, /, **kwargs):
    """``cls(**kwargs)``, a bad value raised as a ConfigError; an error that
    begins with a field's name names the field's config key instead."""
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        name, space, rest = str(exc).partition(" ")
        spelling = {field: key for key, field in config_keys(cls).items()}
        prefix = "" if isinstance(exc, ConfigError) else f"invalid {where}: "
        raise ConfigError(prefix + spelling.get(name, name) + space + rest) from exc


def _section_fields(cls, section, where: str, names) -> dict:
    """The ``section`` setting the ``names`` fields of ``cls``, by field name."""
    keys = {key: name for key, name in config_keys(cls).items() if name in names}
    _require_keys(section, keys, where)
    return {keys[key]: value for key, value in section.items()}


def _from_section(cls, section, where: str, **fixed):
    """``cls`` from a config section and the caller's ``fixed`` fields."""
    names = set(config_keys(cls).values()) - set(fixed)
    return _build(cls, where, **_section_fields(cls, section, where, names), **fixed)


def parse_schedules(section: dict) -> ScheduleSet:
    return _from_section(ScheduleSet, section, "schedules")


def _parse_objective(section) -> tuple[dict, int | None]:
    """ExperimentConfig's objective arguments, and the dimension if known."""
    if not isinstance(section, dict):
        raise ConfigError("objective must be an object")
    if "objective" not in section:
        raise ConfigError("objective section needs an 'objective' name")
    rest = dict(section)
    name = rest.pop("objective")
    if name not in CONFIG_OBJECTIVES:
        raise ConfigError(
            f"objective must be one of {CONFIG_OBJECTIVES}, got {name!r}"
        )
    if name in PULSE_LOSSES:
        keys = config_keys(TransmonParams)
        device = {keys[key]: rest.pop(key) for key in keys if key in rest}
        transmon = _build(TransmonParams, "objective", **device)
        cfg = _from_section(ObjectiveConfig, rest, "objective", transmon=transmon)
        return {"objective": name, "objective_config": cfg}, cfg.dim
    _require_keys(rest, ("noise_sigma", "dimension"), "objective")
    dim = rest.pop("dimension", None)
    if dim is not None and not (is_integer(dim) and dim >= 1):
        raise ConfigError(f"dimension must be an integer >= 1, got {dim!r}")
    return {"objective": name, **rest}, dim


# the keys each {kind: ...} form of initial_theta takes
_THETA_KEYS = {"zeros": ("kind",), "random_uniform": ("kind", "low", "high", "seed")}


def _parse_initial_theta(spec, dim: int | None) -> np.ndarray | list:
    if isinstance(spec, (list, tuple)):
        # ExperimentConfig checks the entries
        if dim is not None and len(spec) != dim:
            raise ConfigError(
                f"initial_theta has {len(spec)} values, the dimension is {dim}"
            )
        return spec
    if spec is None:
        spec = {"kind": "zeros"}
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("initial_theta must be a list or a {kind: ...} object")
    kind = spec["kind"]
    if kind not in tuple(_THETA_KEYS):  # a list-valued kind is not hashable
        raise ConfigError(f"unknown initial_theta kind {kind!r}")
    _require_keys(spec, _THETA_KEYS[kind], f"initial_theta of kind {kind!r}")
    if dim is None:
        raise ConfigError(
            "synthetic objectives need a 'dimension' key or explicit "
            "initial_theta values"
        )
    if kind == "zeros":
        return np.zeros(dim)
    seed = spec.get("seed", 0)
    if not is_integer(seed):
        # a null seed would draw from OS entropy: the run could not be repeated
        raise ConfigError(f"initial_theta seed must be an integer, got {seed!r}")
    low, high = spec.get("low", -0.5), spec.get("high", 0.5)
    if not (is_finite_real(low) and is_finite_real(high)):
        raise ConfigError(
            f"initial_theta low and high must be finite numbers, got {low!r}, {high!r}"
        )
    try:
        # drawn once here so every algorithm/repeat shares the same point
        return np.random.default_rng(seed).uniform(low, high, size=dim)
    except (OverflowError, ValueError) as exc:  # high < low, or an overflowing width
        raise ConfigError(f"invalid initial_theta: {exc}") from exc


def experiment_config_from_dict(config: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from a parsed config mapping."""
    allowed = (
        "name", "repeats", "objective", "estimator", "optimizer",
        "schedules", "initial_theta",
    )
    _require_keys(config, allowed, "config")
    for required in ("objective", "optimizer", "schedules"):
        if required not in config:
            raise ConfigError(f"config is missing the {required!r} section")
    objective, dim = _parse_objective(config["objective"])
    kwargs = {"name": "experiment", "update_rule": "adam", "budget": 0}
    kwargs.update((key, config[key]) for key in ("name", "repeats") if key in config)
    kwargs.update(_section_fields(
        ExperimentConfig, config["optimizer"], "optimizer",
        ("update_rule", "clip_box", "budget", "base_seed"),
    ))
    estimator = _from_section(EstimatorConfig, config.get("estimator", {}), "estimator")
    return _build(
        ExperimentConfig,
        "config",
        estimator=estimator,
        schedules=parse_schedules(config["schedules"]),
        initial_theta=_parse_initial_theta(config.get("initial_theta"), dim),
        **objective,
        **kwargs,
    )


def _scan_values(values, which: str):
    """A ``{start, stop, num}`` range as its values; anything else as is."""
    if not isinstance(values, dict):
        return values
    _require_keys(values, ("start", "stop", "num"), f"scan {which}")
    if len(values) != 3:
        raise ConfigError(f"scan {which} range needs start, stop and num")
    num = values["num"]
    if not is_integer(num) or num < 1:
        raise ConfigError(f"scan {which} num must be an integer >= 1, got {num!r}")
    for name in ("start", "stop"):
        if not is_finite_real(values[name]):
            raise ConfigError(
                f"scan {which} {name} must be a finite number, got {values[name]!r}"
            )
    return np.linspace(values["start"], values["stop"], num)


def _check_name(name) -> None:
    """A config ``name`` must be a string and one file-name component.

    Artifacts are written as ``<out>/<name>_...``: a path separator would
    put them outside the output directory, or in one that does not exist.
    """
    if not isinstance(name, str):
        raise ConfigError(f"name must be a string, got {name!r}")
    if any(sep in name for sep in (os.sep, os.altsep) if sep):
        raise ConfigError(f"name must be a single file-name component, got {name!r}")


def scan_config_from_dict(config: dict) -> ScanConfig:
    _require_keys(config, ("objective", "scan", "name"), "config")
    if "objective" not in config or "scan" not in config:
        raise ConfigError("scan config needs 'objective' and 'scan' sections")
    _check_name(config.get("name", ""))
    objective, _ = _parse_objective(config["objective"])
    if objective["objective"] not in PULSE_LOSSES:
        raise ConfigError("scan objective must be a pulse loss")
    scan = config["scan"]
    if isinstance(scan, dict):
        scan = {key: _scan_values(value, key) for key, value in scan.items()}
    return _from_section(ScanConfig, scan, "scan", **objective)


def tuneup_configs_from_dict(
    config: dict,
) -> tuple[ExperimentConfig, ExperimentConfig, FinalRBConfig]:
    _require_keys(config, ("rough", "fine", "final_rb", "name"), "config")
    _check_name(config.get("name", ""))
    stages = []
    for section in ("rough", "fine"):
        if section not in config:
            raise ConfigError(f"tuneup config needs a {section!r} section")
        stage = config[section]
        # a top-level name names both stages; a stage may repeat it, not change it
        if "name" in config and isinstance(stage, dict):
            stage = {"name": config["name"]} | stage
            if stage["name"] != config["name"]:
                raise ConfigError(f"{section} name {stage['name']!r} is not the "
                                  f"tuneup name {config['name']!r}")
        stages.append(experiment_config_from_dict(stage))
    rough, fine = stages
    final_rb = _from_section(FinalRBConfig, config.get("final_rb", {}), "final_rb")
    return rough, fine, final_rb
