"""Experiment runner: persistence round-trips, scans, tuneup, config parsing."""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import logging
import re
import typing
from pathlib import Path

import numpy as np
import pytest

from pertopt import (
    ConfigError,
    EstimatorConfig,
    ExperimentConfig,
    FinalRBConfig,
    ObjectiveConfig,
    ScanConfig,
    ScheduleSet,
    TransmonParams,
    experiment_config_from_dict,
    fit_rb_decay,
    landscape_scan,
    read_summary_jsonl,
    read_trajectory_csv,
    run_experiment,
    run_single,
    scan_config_from_dict,
    summarize_trajectories,
    tuneup_configs_from_dict,
    two_stage_tuneup,
    write_scan_csv,
    write_summary_jsonl,
    write_trajectory_csv,
)
from pertopt.experiments import SummaryRecord
from pertopt.optimizers import OptimizationAborted, Trajectory, TrajectoryRecord
import pertopt
import pertopt.experiments as experiments

TWO_LEVEL = TransmonParams(n_levels=2)

# exact X90 on two levels: only the first I-quadrature coefficient is live
X90_THETA = np.array([0.5] + [0.0] * 19)


def sphere_config(**kwargs):
    kwargs.setdefault("name", "demo")
    kwargs.setdefault("objective", "sphere")
    kwargs.setdefault("estimator", EstimatorConfig(method="spsa"))
    kwargs.setdefault("update_rule", "sgd")
    kwargs.setdefault("schedules", ScheduleSet(a0=0.1, c0=0.05))
    kwargs.setdefault("budget", 40)
    kwargs.setdefault("initial_theta", np.array([1.0, -0.5, 0.25]))
    kwargs.setdefault("repeats", 3)
    kwargs.setdefault("base_seed", 5)
    kwargs.setdefault("noise_sigma", 0.1)
    return ExperimentConfig(**kwargs)


def pulse_config(**kwargs):
    obj_cfg = kwargs.pop(
        "objective_config",
        ObjectiveConfig(transmon=TWO_LEVEL, shots=200),
    )
    kwargs.setdefault("name", "pulse")
    kwargs.setdefault("objective", "lx")
    kwargs.setdefault("estimator", EstimatorConfig(method="spsa"))
    kwargs.setdefault("update_rule", "adam")
    kwargs.setdefault("schedules", ScheduleSet())
    kwargs.setdefault("budget", 12)
    kwargs.setdefault("initial_theta", np.zeros(obj_cfg.dim))
    return ExperimentConfig(objective_config=obj_cfg, **kwargs)


# -------------------------------------------------------------- run + files


def test_config_validation():
    with pytest.raises(ConfigError, match="^objective must be one of .*, got 'rastrigin'$"):
        sphere_config(objective="rastrigin")
    with pytest.raises(ConfigError, match="repeats"):
        sphere_config(repeats=0)
    for budget in (-1, 7.5, True, "10"):
        with pytest.raises(ConfigError, match="budget"):
            sphere_config(budget=budget)
    with pytest.raises(ConfigError, match="objective_config"):
        ExperimentConfig(
            name="x", objective="lx", estimator=EstimatorConfig(),
            update_rule="sgd", schedules=ScheduleSet(), budget=10,
            initial_theta=np.zeros(20),
        )
    with pytest.raises(ConfigError, match="length"):
        pulse_config(initial_theta=np.zeros(7))
    with pytest.raises(ConfigError, match="base_seed must be >= 0"):
        sphere_config(base_seed=-1)


def test_a_setting_its_objective_ignores_is_refused():
    # a pulse loss adds no noise and a synthetic objective reads no
    # objective config, so either setting would be silently ignored
    with pytest.raises(ConfigError, match="^objective 'lx' takes no noise_sigma$"):
        pulse_config(noise_sigma=0.5)
    with pytest.raises(ConfigError, match="^objective 'sphere' takes no objective_config$"):
        sphere_config(objective_config=ObjectiveConfig())
    pulse_config(noise_sigma=0.0)
    sphere_config(objective_config=None)


@pytest.mark.parametrize(
    "cls, name, lengths",
    [
        (ObjectiveConfig, "rb_lengths", (5, 5, 5)),
        (ObjectiveConfig, "rb_lengths", (0, 5, 0, 5)),
        (FinalRBConfig, "lengths", (30, 30, 30, 30)),
        (FinalRBConfig, "lengths", (0, 0, 900)),
    ],
)
def test_an_rb_ladder_needs_three_distinct_lengths(cls, name, lengths):
    # A p^m + B has three parameters, so fewer distinct lengths fit anything
    message = f"{name} needs >= 3 distinct non-negative lengths, got {lengths}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        cls(**{name: lengths})
    # repeated lengths are fine beside three distinct ones
    cls(**{name: (*lengths, max(lengths) + 1, max(lengths) + 2)})


def test_run_experiment_persists_everything(tmp_path):
    cfg = sphere_config()
    result = run_experiment(cfg, tmp_path)

    assert len(result.trajectories) == 3
    assert result.failures == []
    for r in range(3):
        assert (tmp_path / f"demo_run{r}.csv").exists()
    assert result.summary_path == tmp_path / "demo_summary.jsonl"
    assert result.summary_path.exists()

    header = (tmp_path / "demo_run0.csv").read_text().splitlines()[0]
    assert header == (
        "run_id,iteration,n_evals,loss,a_t,c_t,beta_t,theta_0,theta_1,theta_2"
    )
    first = (tmp_path / "demo_run0.csv").read_text().splitlines()[1].split(",")
    assert first[:3] == ["0", "0", "0"]
    assert first[4:7] == ["", "", ""]    # schedules undefined before update 1


def test_trajectory_csv_round_trip(tmp_path):
    cfg = sphere_config(repeats=1)
    traj = run_single(cfg, 0)
    path = tmp_path / "t.csv"
    write_trajectory_csv(path, 4, traj)
    run_id, back = read_trajectory_csv(path)

    assert run_id == 4
    # the initial point is the file's iteration-0 row, at 0 evaluations
    assert path.read_text().splitlines()[1].startswith("4,0,0,")
    assert back.initial_loss == traj.initial_loss
    np.testing.assert_array_equal(back.initial_theta, traj.initial_theta)
    assert len(back.records) == len(traj.records)
    for got, rec in zip(back.records, traj.records):
        assert got.iteration == rec.iteration
        assert got.n_evals == rec.n_evals
        assert got.loss == rec.loss
        assert (got.a_t, got.c_t, got.beta_t) == (rec.a_t, rec.c_t, rec.beta_t)
        np.testing.assert_array_equal(got.theta, rec.theta)


def test_trajectory_csv_rewrites_byte_identical(tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    floats = st.floats(allow_nan=True, allow_infinity=True)

    @st.composite
    def trajectories(draw):
        dim = draw(st.integers(1, 4))
        vectors = st.lists(floats, min_size=dim, max_size=dim).map(np.array)
        records = [
            TrajectoryRecord(
                iteration=t,
                n_evals=draw(st.integers(0, 10**6)),
                loss=draw(floats),
                a_t=draw(floats),
                c_t=draw(floats),
                beta_t=draw(floats),
                theta=draw(vectors),
            )
            for t in range(1, draw(st.integers(0, 5)) + 1)
        ]
        return Trajectory(draw(vectors), draw(floats), records)

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(run_id=st.integers(0, 10**6), traj=trajectories())
    def check(run_id, traj):
        # CSV -> Trajectory -> CSV
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        write_trajectory_csv(first, run_id, traj)
        write_trajectory_csv(second, *read_trajectory_csv(first))
        assert second.read_bytes() == first.read_bytes()

    check()


class _HalfWrittenFile:
    """Writes half of what it is given, then fails like a full disk."""

    def __init__(self, fh):
        self.fh = fh

    def write(self, text):
        self.fh.write(text[: len(text) // 2])
        self.fh.flush()
        raise OSError("no space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


@pytest.mark.parametrize("writer", ["trajectory", "summary"])
def test_interrupted_write_keeps_previous_file(tmp_path, monkeypatch, writer):
    result = run_experiment(sphere_config(repeats=2), tmp_path)
    if writer == "trajectory":
        path = result.trajectory_paths[0]
    else:
        path = result.summary_path
    before = path.read_bytes()

    def failing_open(file, mode="r", **kwargs):
        fh = open(file, mode, **kwargs)
        return _HalfWrittenFile(fh) if "w" in mode else fh

    monkeypatch.setattr(experiments, "open", failing_open, raising=False)
    with pytest.raises(OSError, match="no space"):
        if writer == "trajectory":
            write_trajectory_csv(path, 0, result.trajectories[1])
        else:
            write_summary_jsonl(path, result.summary[:2])
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "demo_run0.csv", "demo_run1.csv", "demo_summary.jsonl",
    ]


_CSV_HEADER = "run_id,iteration,n_evals,loss,a_t,c_t,beta_t,theta_0\n"


def test_read_trajectory_csv_validation(tmp_path):
    path = tmp_path / "bad.csv"
    for text, match in [
        ("foo,bar\n1,2\n", "header"),
        (_CSV_HEADER, "no data rows"),
        # a zero-byte file used to let StopIteration out
        ("", "header"),
        # a short row used to raise IndexError, a long one to read as theta
        (_CSV_HEADER + "0,0,0,1.5,,,\n", "row unlike its header"),
        (_CSV_HEADER + "0,0,0,1.5,,,,0.0,0.0\n", "row unlike its header"),
        (_CSV_HEADER + "0,0,0,1.5,,,,0.0\n0,1,2,x,0.1,0.1,0.9,0.5\n", "malformed cell"),
        # these used to read as run 0 with one record at iteration 5
        (_CSV_HEADER + "0,0,0,1.5,,,,0.0\n7,1,2,1.0,0.1,0.1,0.9,0.5\n", "run ids"),
        (_CSV_HEADER + "0,0,0,1.5,,,,0.0\n0,5,2,1.0,0.1,0.1,0.9,0.5\n", "out of order"),
    ]:
        path.write_text(text)
        with pytest.raises(ValueError, match=match) as info:
            read_trajectory_csv(path)
        assert str(path) in str(info.value)


def test_read_summary_jsonl_validation(tmp_path):
    path = tmp_path / "bad.jsonl"
    for text, match in [
        # a line missing a key used to raise TypeError
        ('{"n_evals": 0, "loss_mean": 1.0, "loss_std": 0.0}\n', "missing"),
        ('{"n_evals": 0, "loss_mean": 1.0, "loss_std": 0.0, "n_runs": 1, "x": 1}\n',
         "unexpected"),
        ("[0, 1.0, 0.0, 1]\n", "mapping"),
        ("{not json\n", "Expecting"),
        # an ill-typed record used to read back silently
        ('{"n_evals": "x", "loss_mean": null, "loss_std": [1], "n_runs": true}\n',
         "n_evals must be an integer"),
        ('{"n_evals": 0, "loss_mean": 1.0, "loss_std": -0.5, "n_runs": 1}\n',
         "loss_std must be >= 0"),
        ('{"n_evals": 0, "loss_mean": 1.0, "loss_std": 0.0, "n_runs": 0}\n',
         "n_runs must be >= 1"),
    ]:
        path.write_text(text)
        with pytest.raises(ValueError, match=match) as info:
            read_summary_jsonl(path)
        assert str(path) in str(info.value)


def test_rerun_is_byte_identical(tmp_path):
    cfg = pulse_config(repeats=2)
    run_experiment(cfg, tmp_path / "a")
    run_experiment(cfg, tmp_path / "b")
    for name in ("pulse_run0.csv", "pulse_run1.csv", "pulse_summary.jsonl"):
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes()


def test_repeats_use_distinct_streams(tmp_path):
    result = run_experiment(sphere_config(repeats=2), tmp_path)
    t0, t1 = result.trajectories
    assert not np.array_equal(t0.records[-1].theta, t1.records[-1].theta)
    # repeat r runs from seed base_seed + r
    shifted = run_single(sphere_config(base_seed=12), 0)
    assert _records(run_single(sphere_config(base_seed=9), 3)) == _records(shifted)


def test_summary_recomputes_from_csv_files(tmp_path):
    result = run_experiment(sphere_config(), tmp_path)
    read_back = [read_trajectory_csv(p)[1] for p in result.trajectory_paths]
    assert summarize_trajectories(read_back) == result.summary
    assert read_summary_jsonl(result.summary_path) == result.summary
    grid = [rec.n_evals for rec in result.summary]
    assert grid[0] == 0 and grid == sorted(grid)
    assert all(rec.n_runs == 3 for rec in result.summary)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize(
    "losses, mean, std", [((1e200, -1e200), 0.0, None), ((1.5e308, 1.5e308), None, None)]
)
def test_summary_of_overflowing_losses_reads_back_as_written(tmp_path, losses, mean, std):
    # the spread of +-1e200 (or the mean of two 1.5e308) overflows; it used
    # to be written as Infinity, which the reader refused
    trajectories = [
        Trajectory(np.zeros(1), loss,
                   [TrajectoryRecord(1, 2, loss, 0.1, 0.1, 0.0, np.zeros(1))])
        for loss in losses
    ]
    summary = summarize_trajectories(trajectories)
    assert [(r.loss_mean, r.loss_std) for r in summary] == [(mean, std)] * 2
    path = tmp_path / "summary.jsonl"
    write_summary_jsonl(path, summary)
    assert "Infinity" not in path.read_text() and "NaN" not in path.read_text()
    assert read_summary_jsonl(path) == summary


def test_summary_writer_refuses_what_its_reader_refuses(tmp_path):
    path = tmp_path / "summary.jsonl"
    with pytest.raises(ValueError, match="JSON"):
        write_summary_jsonl(path, [SummaryRecord(0, 0.0, float("inf"), 2)])
    assert not path.exists()
    path.write_text('{"n_evals": 0, "loss_mean": 0.0, "loss_std": Infinity, "n_runs": 2}\n')
    with pytest.raises(ValueError, match="loss_std must be a finite number or null"):
        read_summary_jsonl(path)


def test_summarize_validation():
    with pytest.raises(ValueError, match="at least one"):
        summarize_trajectories([])
    t_a = Trajectory(np.zeros(2), 1.0, [])
    cfg = sphere_config(repeats=1, budget=8)
    t_b = run_single(cfg, 0)
    with pytest.raises(ValueError, match="misaligned"):
        summarize_trajectories([t_a, t_b])


def _fail_first_repeat(monkeypatch):
    real = experiments.run_single

    def flaky(c, r):
        if r == 0:
            raise OptimizationAborted(
                "objective failed at iteration 1: non-finite loss",
                Trajectory(c.initial_theta, 1.0, []),
            )
        return real(c, r)

    monkeypatch.setattr(experiments, "run_single", flaky)


def test_partial_failure_is_recorded(tmp_path, monkeypatch):
    cfg = sphere_config()
    _fail_first_repeat(monkeypatch)
    with pytest.warns(UserWarning, match="run 0 failed"):
        result = run_experiment(cfg, tmp_path)

    assert len(result.trajectories) == 2
    assert len(result.failures) == 1 and result.failures[0][0] == 0
    assert (tmp_path / "demo_run0.csv").exists()   # partial file kept
    assert all(rec.n_runs == 2 for rec in result.summary)


def test_partial_failure_is_logged(tmp_path, monkeypatch, caplog):
    _fail_first_repeat(monkeypatch)
    with pytest.warns(UserWarning) as warned, caplog.at_level(
        logging.WARNING, logger="pertopt.experiments"
    ):
        run_experiment(sphere_config(), tmp_path)

    message = "run 0 failed: objective failed at iteration 1: non-finite loss"
    assert [str(w.message) for w in warned] == [message]
    assert [
        (rec.name, rec.levelno, rec.getMessage()) for rec in caplog.records
    ] == [("pertopt.experiments", logging.WARNING, message)]


@pytest.mark.filterwarnings("ignore:run [01] failed")
def test_all_failures_raise(tmp_path, monkeypatch):
    def doomed(c, r):
        raise OptimizationAborted("boom", Trajectory(c.initial_theta, 1.0, []))

    monkeypatch.setattr(experiments, "run_single", doomed)
    with pytest.raises(RuntimeError, match="all 2 runs failed"):
        run_experiment(sphere_config(repeats=2), tmp_path)


# ------------------------------------------------------------------- scans


def scan_objective_config(**kwargs):
    kwargs.setdefault("transmon", TWO_LEVEL)
    kwargs.setdefault("shots", 1000)
    kwargs.setdefault("active_dims", (0, 10))
    return ObjectiveConfig(**kwargs)


def test_landscape_scan_values_are_exact():
    # shots in the config are ignored: scans always use exact measurement
    scan = ScanConfig(
        objective="lx",
        objective_config=scan_objective_config(),
        values_1=np.array([0.0, 0.5]),
        values_2=np.array([0.0]),
    )
    grid = landscape_scan(scan)
    assert grid.shape == (2, 1)
    assert grid[0, 0] == pytest.approx(0.25, abs=1e-12)
    assert grid[1, 0] <= 1e-12


def test_landscape_scan_of_l_rb_is_reproducible():
    scan = ScanConfig(
        objective="l_rb",
        objective_config=scan_objective_config(
            rb_lengths=(0, 2, 5, 9), rb_sequences=2
        ),
        values_1=np.array([0.48]),
        values_2=np.array([0.05]),
    )
    np.testing.assert_array_equal(landscape_scan(scan), landscape_scan(scan))


def test_scan_config_validation():
    with pytest.raises(ConfigError, match=r"^objective must be one of \('lx', 'ly', "
                       r"'l_combined', 'l_rb'\), got 'sphere'$"):
        ScanConfig(
            objective="sphere",
            objective_config=scan_objective_config(),
            values_1=np.zeros(1),
            values_2=np.zeros(1),
        )
    with pytest.raises(ConfigError, match="two active dims"):
        ScanConfig(
            objective="lx",
            objective_config=ObjectiveConfig(transmon=TWO_LEVEL),
            values_1=np.zeros(1),
            values_2=np.zeros(1),
        )
    with pytest.raises(ConfigError, match="cap"):
        ScanConfig(
            objective="lx",
            objective_config=scan_objective_config(),
            values_1=np.zeros(101),
            values_2=np.zeros(100),
        )


def test_write_scan_csv_labels(tmp_path):
    scan = ScanConfig(
        objective="lx",
        objective_config=scan_objective_config(),
        values_1=np.array([0.0, 0.5]),
        values_2=np.array([-0.1, 0.1]),
    )
    grid = np.array([[1.0, 2.0], [3.0, 4.0]])
    path = tmp_path / "scan.csv"
    write_scan_csv(path, scan, grid)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("theta_0\\theta_10,")
    assert lines[1].split(",") == ["0.0", "1.0", "2.0"]
    assert lines[2].split(",") == ["0.5", "3.0", "4.0"]


def _csv_writer_text(rows) -> str:
    """The reference: ``csv.writer``'s excel dialect over ``rows``."""
    buffer = io.StringIO()
    csv.writer(buffer).writerows(rows)
    return buffer.getvalue()


_EDGE_FLOATS = [-0.0, 5e-324, 1e16, -1.5e-300, 0.1, 1.7976931348623157e308]


def test_csv_files_match_csv_writer_byte_for_byte(tmp_path):
    # the writers join fields directly; csv.writer would quote a field
    # holding a comma, a quote or a line break, and none of these does
    theta = np.array(_EDGE_FLOATS)
    records = [
        TrajectoryRecord(1, 2, -0.0, 1e16, 5e-324, 0.0, theta[::-1].copy()),
        TrajectoryRecord(2, 4, 5e-324, 0.032, 0.016, 0.999, -theta),
    ]
    # an aborted run: a NaN initial loss, and a run with no update
    for run_id, traj in enumerate([
        Trajectory(theta, float("nan"), records),
        Trajectory(theta, float("nan"), []),
    ]):
        header = ["run_id", "iteration", "n_evals", "loss", "a_t", "c_t", "beta_t"]
        rows = [header + [f"theta_{i}" for i in range(theta.size)]]
        rows.append([run_id, 0, 0, repr(traj.initial_loss), "", "", ""]
                    + [repr(x) for x in theta.tolist()])
        for r in traj.records:
            rows.append([run_id, r.iteration, r.n_evals]
                        + [repr(x) for x in (r.loss, r.a_t, r.c_t, r.beta_t)]
                        + [repr(x) for x in r.theta.tolist()])
        path = tmp_path / f"run{run_id}.csv"
        write_trajectory_csv(path, run_id, traj)
        assert path.read_bytes() == _csv_writer_text(rows).encode()

    scan = ScanConfig(
        objective="lx",
        objective_config=scan_objective_config(),
        values_1=np.array(_EDGE_FLOATS[:3]),
        values_2=np.array(_EDGE_FLOATS[3:]),
    )
    grid = np.array(_EDGE_FLOATS * 2).reshape(3, 4)[:, :3]
    rows = [["theta_0\\theta_10"] + [repr(x) for x in _EDGE_FLOATS[3:]]]
    for v1, values in zip(_EDGE_FLOATS[:3], grid.tolist()):
        rows.append([repr(v1)] + [repr(x) for x in values])
    path = tmp_path / "scan.csv"
    write_scan_csv(path, scan, grid)
    assert path.read_bytes() == _csv_writer_text(rows).encode()
    assert b"\\" in path.read_bytes().splitlines()[0]


@pytest.mark.parametrize("repeats", [2, 7, 8, 9, 40])
def test_summary_matches_per_column_numpy_bit_for_bit(repeats):
    # numpy sums 8 or more entries pairwise in blocks: the column-wise
    # reduction must add each evaluation count's losses in the same order
    rng = np.random.default_rng(repeats)
    n_points = 25
    losses = rng.lognormal(0.0, 3.0, size=(repeats, n_points))
    trajectories = [
        Trajectory(
            np.zeros(2), row[0],
            [TrajectoryRecord(j, 2 * j, row[j], 0.1, 0.1, 0.0, np.zeros(2))
             for j in range(1, n_points)],
        )
        for row in losses.tolist()
    ]
    summary = summarize_trajectories(trajectories)
    assert [r.n_evals for r in summary] == [2 * j for j in range(n_points)]
    for j, record in enumerate(summary):
        column = np.array([row[j] for row in losses.tolist()])
        assert record.loss_mean.hex() == float(np.mean(column)).hex()
        assert record.loss_std.hex() == float(np.std(column)).hex()
        assert record.n_runs == repeats


# ------------------------------------------------------------------ tuneup


def rb_objective_config(**kwargs):
    kwargs.setdefault("transmon", TWO_LEVEL)
    kwargs.setdefault("shots", 0)
    kwargs.setdefault("rb_lengths", (0, 2, 5, 9))
    kwargs.setdefault("rb_sequences", 2)
    return ObjectiveConfig(**kwargs)


@pytest.mark.filterwarnings("ignore:interleaved decay exceeds")
def test_two_stage_tuneup_smoke(tmp_path):
    rough = pulse_config(name="tune", budget=12, objective="l_combined",
                         objective_config=ObjectiveConfig(transmon=TWO_LEVEL, shots=0))
    fine = pulse_config(name="tune", budget=8, objective="l_rb",
                        objective_config=rb_objective_config())
    final = FinalRBConfig(lengths=(0, 10, 30, 60, 100), n_sequences=4, seed=7)
    result = two_stage_tuneup(rough, fine, tmp_path, final)

    assert (tmp_path / "tune_rough_run0.csv").exists()
    assert (tmp_path / "tune_fine_run0.csv").exists()
    payload = json.loads((tmp_path / "tune_tuneup.json").read_text())
    assert set(payload) == {
        "best_rough", "best_fine", "reference_decay", "interleaved_decay",
        "interleaved_fidelity", "direct_fidelity",
        "reference_stderr_decay", "reference_degenerate",
        "interleaved_stderr_decay", "interleaved_degenerate",
    }
    # the fine stage starts from the best rough iterate
    np.testing.assert_array_equal(result.fine.initial_theta, result.rough.best()[2])
    assert 0.0 <= result.direct_fidelity <= 1.0
    # a barely-tuned gate gives a rough ratio estimate; just require sanity
    assert np.isfinite(result.interleaved_fidelity)
    assert 0.0 < result.interleaved_fidelity < 1.5


def test_tuneup_keeps_an_already_good_gate(tmp_path):
    # zero-budget stages leave theta at the exact quarter-turn pulse, so the
    # interleaved estimate and the direct oracle must both report ~1
    rough = pulse_config(name="hold", budget=0, initial_theta=X90_THETA,
                         objective_config=ObjectiveConfig(transmon=TWO_LEVEL, shots=0))
    fine = pulse_config(name="hold", budget=0, objective="l_rb",
                        objective_config=rb_objective_config(),
                        initial_theta=X90_THETA)
    final = FinalRBConfig(lengths=(0, 50, 150, 300, 600), n_sequences=8, seed=11)
    result = two_stage_tuneup(rough, fine, tmp_path, final)

    np.testing.assert_array_equal(result.fine.best()[2], X90_THETA)
    assert result.direct_fidelity == pytest.approx(1.0, abs=1e-12)
    assert result.interleaved_fidelity >= 0.999
    assert abs(result.interleaved_fidelity - result.direct_fidelity) <= 5e-4


def _strict_json(text):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=reject)


@pytest.mark.filterwarnings("ignore:interleaved decay exceeds")
def test_tuneup_json_records_final_fit_trust(tmp_path):
    # a barely-tuned gate: the reference fit has finite errors, while the
    # interleaved decay (about 0.003) reaches the offset by length 10, so
    # its Jacobian is rank-deficient and its errors are infinite
    rough = pulse_config(name="tune", budget=4, objective="l_combined",
                         objective_config=ObjectiveConfig(transmon=TWO_LEVEL, shots=0))
    fine = pulse_config(name="tune", budget=4, objective="l_rb",
                        objective_config=rb_objective_config())
    final = FinalRBConfig(lengths=(0, 10, 30, 60, 100), n_sequences=4, seed=7)
    result = two_stage_tuneup(rough, fine, tmp_path, final)
    payload = _strict_json((tmp_path / "tune_tuneup.json").read_text())
    assert not result.reference_fit.degenerate
    assert payload["reference_stderr_decay"] == result.reference_fit.stderr_decay
    assert payload["reference_degenerate"] is False
    assert result.interleaved_fit.degenerate
    assert payload["interleaved_stderr_decay"] is None
    assert payload["interleaved_degenerate"] is True

    # constant survival gives a degenerate fit with infinite errors,
    # written as null
    degenerate = fit_rb_decay((0, 10, 30), (1.0, 1.0, 1.0))
    assert degenerate.degenerate and np.isinf(degenerate.stderr_decay)
    path = tmp_path / "degenerate_tuneup.json"
    experiments._write_tuneup_json(
        path, dataclasses.replace(result, interleaved_fit=degenerate)
    )
    payload = _strict_json(path.read_text())
    assert payload["reference_stderr_decay"] == result.reference_fit.stderr_decay
    assert payload["interleaved_stderr_decay"] is None
    assert payload["interleaved_degenerate"] is True


def _records(traj):
    return [(r.iteration, r.n_evals, r.loss, r.a_t, r.c_t, r.beta_t, r.theta.tolist())
            for r in traj.records]


@pytest.mark.parametrize("failing", ["rough", "fine"])
def test_aborted_tuneup_stage_keeps_its_trajectories(tmp_path, monkeypatch, failing):
    # the failing stage aborts after its first update: every stage that
    # ran leaves its CSV, whole or partial, and no tuneup JSON is written
    real, ran = experiments.run_single, {}

    def aborting(cfg, r):
        stage = "fine" if cfg.objective == "l_rb" else "rough"
        ran[stage] = traj = real(cfg, r)
        if stage == failing:
            partial = Trajectory(traj.initial_theta, traj.initial_loss, traj.records[:1])
            raise OptimizationAborted("objective failed at iteration 2", partial)
        return traj

    monkeypatch.setattr(experiments, "run_single", aborting)
    rough = pulse_config(name="tune", budget=6, objective="l_combined",
                         objective_config=ObjectiveConfig(transmon=TWO_LEVEL, shots=0))
    fine = pulse_config(name="tune", budget=6, objective="l_rb",
                        objective_config=rb_objective_config())
    with pytest.raises(OptimizationAborted, match="iteration 2"):
        two_stage_tuneup(rough, fine, tmp_path, FinalRBConfig(n_sequences=2))

    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        f"tune_{stage}_run0.csv" for stage in ran
    )
    for stage, whole in ran.items():
        assert len(whole.records) == 3
        run_id, written = read_trajectory_csv(tmp_path / f"tune_{stage}_run0.csv")
        assert run_id == 0
        assert written.initial_loss == whole.initial_loss
        np.testing.assert_array_equal(written.initial_theta, whole.initial_theta)
        kept = 1 if stage == failing else 3
        assert _records(written) == _records(whole)[:kept]


def test_tuneup_stage_validation(tmp_path):
    rough = sphere_config()
    fine = pulse_config(objective="l_rb", objective_config=rb_objective_config())
    with pytest.raises(ConfigError, match="^rough stage objective must be one of "):
        two_stage_tuneup(rough, fine, tmp_path)
    with pytest.raises(ConfigError, match="l_rb"):
        two_stage_tuneup(pulse_config(), pulse_config(), tmp_path)
    # each stage runs once: a stage's repeats used to be ignored
    rough = pulse_config(objective="l_combined")
    for rough_repeats, fine_repeats, stage in ((5, 1, "rough"), (1, 3, "fine")):
        with pytest.raises(ConfigError, match=f"^{stage} stage repeats must be 1, got"):
            two_stage_tuneup(dataclasses.replace(rough, repeats=rough_repeats),
                             dataclasses.replace(fine, repeats=fine_repeats),
                             tmp_path / "out")
    assert not (tmp_path / "out").exists()


# ----------------------------------------------------------- config parsing


def synthetic_dict(**overrides):
    config = {
        "name": "synthetic-demo",
        "objective": {"objective": "sphere", "dimension": 3, "noise_sigma": 0.05},
        "estimator": {"estimator": "spsa"},
        "optimizer": {"update_rule": "adam", "budget_evaluations": 100, "seed": 3},
        "schedules": {"a0": 0.1, "lambda": 0.4},
    }
    config.update(overrides)
    return config


def pulse_dict(**overrides):
    config = {
        "name": "pulse-demo",
        "objective": {
            "objective": "lx",
            "n_levels": 2,
            "shots": 0,
            "active_dims": [0, 10],
        },
        "estimator": {"estimator": "spsa"},
        "optimizer": {"update_rule": "sgd", "budget_evaluations": 20},
        "schedules": {},
        "initial_theta": [0.5, 0.0],
    }
    config.update(overrides)
    return config


def test_experiment_config_from_dict_synthetic():
    cfg = experiment_config_from_dict(synthetic_dict())
    assert cfg.name == "synthetic-demo"
    assert cfg.objective == "sphere"
    assert cfg.noise_sigma == 0.05
    assert cfg.schedules.lam == 0.4       # 'lambda' key maps onto lam
    assert cfg.schedules.a0 == 0.1
    assert cfg.base_seed == 3
    np.testing.assert_array_equal(cfg.initial_theta, np.zeros(3))


def test_experiment_config_from_dict_pulse():
    cfg = experiment_config_from_dict(pulse_dict())
    assert cfg.objective == "lx"
    assert cfg.objective_config.transmon.n_levels == 2
    assert cfg.objective_config.active_dims == (0, 10)
    assert cfg.objective_config.dim == 2
    np.testing.assert_array_equal(cfg.initial_theta, [0.5, 0.0])


def test_config_dict_validation():
    with pytest.raises(ConfigError, match="missing the 'schedules'"):
        experiment_config_from_dict(
            {k: v for k, v in synthetic_dict().items() if k != "schedules"}
        )
    with pytest.raises(ConfigError, match="unknown keys in optimizer"):
        bad = synthetic_dict()
        bad["optimizer"]["learning_rate"] = 0.1
        experiment_config_from_dict(bad)
    with pytest.raises(ConfigError, match="objective must be one of"):
        experiment_config_from_dict(synthetic_dict(objective={"objective": "ly"}))
    with pytest.raises(ConfigError, match="dimension"):
        cfg = synthetic_dict()
        del cfg["objective"]["dimension"]
        experiment_config_from_dict(cfg)
    with pytest.raises(ConfigError, match="clip_box"):
        bad = synthetic_dict()
        bad["optimizer"]["clip_box"] = [1.0, -1.0]
        experiment_config_from_dict(bad)
    with pytest.raises(ConfigError, match="invalid schedules"):
        experiment_config_from_dict(synthetic_dict(schedules={"a0": -1.0}))
    with pytest.raises(ConfigError, match="budget_evaluations must be an integer"):
        bad = synthetic_dict()
        bad["optimizer"]["budget_evaluations"] = 7.5
        experiment_config_from_dict(bad)
    # sphere and cubic have no shift; only the API's shifted quadratic reads it
    for name in ("sphere", "cubic"):
        with pytest.raises(ConfigError, match=r"unknown keys in objective: \['shift'\]"):
            experiment_config_from_dict(synthetic_dict(
                objective={"objective": name, "dimension": 3, "shift": [1]}
            ))


def test_list_fields_become_tuples():
    cfg = ObjectiveConfig(
        k_list=[1, 2], active_dims=[0, 10], distortion=[1, 0.5], rb_lengths=[0, 1, 2]
    )
    assert cfg.k_list == (1, 2) and cfg.active_dims == (0, 10)
    assert cfg.distortion == (1.0, 0.5) and cfg.rb_lengths == (0, 1, 2)
    hash(cfg)  # frozen and hashable once every list is a tuple
    assert FinalRBConfig(lengths=[0, 5, 9]).lengths == (0, 5, 9)


# one valid instance of each config dataclass; every field is replaced
# in turn by values of the wrong kind for its annotation
_SCAN_OBJECTIVE = ObjectiveConfig(transmon=TWO_LEVEL, active_dims=(0, 10))
CONFIG_INSTANCES = (
    pulse_config(objective_config=_SCAN_OBJECTIVE, clip_box=(-1.0, 1.0)),
    ScanConfig("lx", _SCAN_OBJECTIVE, values_1=[0.0, 0.5], values_2=[0.0]),
    FinalRBConfig(),
    ObjectiveConfig(active_dims=(0, 10), distortion=(1.0, 0.5)),
    TransmonParams(),
    EstimatorConfig(),
    ScheduleSet(truncation_step=10),
)


def _wrong_kinds(annotation):
    """Values that ``annotation`` does not admit, for a field of that type."""
    args = typing.get_args(annotation)
    if type(None) in args:
        (annotation,) = (a for a in args if a is not type(None))
        args = typing.get_args(annotation)
    if annotation is str:
        return [1, None]
    wrong = ["x"]  # a string for any other field
    if annotation is int:
        wrong += [True, 2.5]
    elif annotation is float:
        wrong += [True, float("nan")]
    elif annotation is np.ndarray or typing.get_origin(annotation) is tuple:
        entry = args[0] if args else float
        good = 1 if entry is int else 0.5
        size = len(args) if args and args[-1] is not Ellipsis else 2
        # a string entry, a bool entry, a nested list
        for bad in ("1", True, [good]):
            wrong.append([bad] + [good] * (size - 1))
        wrong.append([2.5] * size if entry is int else [float("nan")] * size)
        if not args or args[-1] is not Ellipsis:
            wrong.append([])  # an array or a pair needs entries
    return wrong


@pytest.mark.parametrize(
    "instance", CONFIG_INSTANCES, ids=lambda obj: type(obj).__name__
)
def test_every_config_field_refuses_a_wrong_kind(instance):
    cls = type(instance)
    error = ConfigError if cls in (ExperimentConfig, ScanConfig) else ValueError
    hints = typing.get_type_hints(cls)
    for field in dataclasses.fields(cls):
        for bad in _wrong_kinds(hints[field.name]):
            with pytest.raises(error, match=rf"^{field.name} must be "):
                dataclasses.replace(instance, **{field.name: bad})


def test_final_rb_config_validation():
    for n_sequences in (0, 2.5):
        with pytest.raises(ValueError, match="n_sequences"):
            FinalRBConfig(n_sequences=n_sequences)
    for shots in (-1, 2.5, True):
        with pytest.raises(ValueError, match="shots"):
            FinalRBConfig(shots=shots)
    for seed in ("x", None, 1.0, -1):
        with pytest.raises(ValueError, match="seed"):
            FinalRBConfig(seed=seed)
    for lengths in ([0, 10], [0, -1, 10]):
        with pytest.raises(ValueError, match="lengths"):
            FinalRBConfig(lengths=lengths)


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_example(heading):
    """The first JSON block under the README's ``### heading``."""
    section = README.read_text().split(f"\n### {heading}\n", 1)[1]
    return json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])


def test_readme_config_examples_parse():
    run = experiment_config_from_dict(_readme_example("run"))
    assert (run.name, run.objective, run.repeats) == ("demo", "lx", 5)
    assert run.schedules.lam == 0.4 and run.budget == 480
    scan = scan_config_from_dict(_readme_example("scan"))
    assert scan.objective_config.active_dims == (0, 10)
    assert scan.values_1.size == scan.values_2.size == 41
    rough, fine, _ = tuneup_configs_from_dict(_readme_example("tuneup"))
    assert rough.name == fine.name == "x90"
    assert (rough.objective, fine.objective) == ("l_combined", "l_rb")


def test_readme_python_api_names_only_exported_objects():
    # an inline code span in the Python API prose that starts with a name
    # documents a package object: it must still be exported
    section = README.read_text().split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    prose = "".join(section.split("```")[::2])  # the text outside code blocks
    names = {
        match.group()
        for span in re.findall(r"`([^`]+)`", prose)
        if (match := re.match(r"[A-Za-z_]\w*", span))
    }
    assert "estimate_gradient" in names
    assert sorted(names - set(pertopt.__all__)) == []
    # a dotted span `Object.member` names an attribute, property, method or
    # dataclass field of that object: a removed member leaves the prose too
    members = {
        match.groups()
        for span in re.findall(r"`([^`]+)`", prose)
        if (match := re.match(r"([A-Za-z_]\w*)\.([A-Za-z_]\w*)", span))
    }
    assert ("ScheduleSet", "coefficients") in members

    def has_member(name, member):
        obj = getattr(pertopt, name)
        fields = dataclasses.fields(obj) if dataclasses.is_dataclass(obj) else ()
        return hasattr(obj, member) or member in {f.name for f in fields}

    assert [m for m in sorted(members) if not has_member(*m)] == []


def test_initial_theta_kinds():
    spec = {"kind": "random_uniform", "low": -0.2, "high": 0.2, "seed": 9}
    cfg_a = experiment_config_from_dict(synthetic_dict(initial_theta=spec))
    cfg_b = experiment_config_from_dict(synthetic_dict(initial_theta=spec))
    np.testing.assert_array_equal(cfg_a.initial_theta, cfg_b.initial_theta)
    assert np.all(np.abs(cfg_a.initial_theta) <= 0.2)
    assert cfg_a.initial_theta.size == 3

    with pytest.raises(ConfigError, match=r"^initial_theta kind must be one of "
                       r"\('zeros', 'random_uniform'\), got 'gaussian'$"):
        experiment_config_from_dict(
            synthetic_dict(initial_theta={"kind": "gaussian"})
        )


def test_scan_config_from_dict():
    scan = scan_config_from_dict(
        {
            "objective": {
                "objective": "lx",
                "n_levels": 2,
                "active_dims": [0, 10],
            },
            "scan": {
                "values_1": {"start": 0.0, "stop": 1.0, "num": 5},
                "values_2": [-0.1, 0.0, 0.1],
            },
        }
    )
    np.testing.assert_allclose(scan.values_1, np.linspace(0.0, 1.0, 5))
    np.testing.assert_array_equal(scan.values_2, [-0.1, 0.0, 0.1])
    with pytest.raises(ConfigError, match="unknown keys in scan"):
        scan_config_from_dict(
            {
                "objective": {"objective": "lx", "active_dims": [0, 10]},
                "scan": {"values_1": [0.0], "values_2": [0.0], "step": 0.1},
            }
        )


def test_tuneup_configs_from_dict():
    rough, fine, final = tuneup_configs_from_dict(
        {
            "rough": pulse_dict(),
            "fine": pulse_dict(
                objective={
                    "objective": "l_rb",
                    "n_levels": 2,
                    "rb_lengths": [0, 2, 5, 9],
                    "rb_sequences": 2,
                },
                initial_theta=[0.0] * 20,
            ),
            "final_rb": {"lengths": [0, 10, 30], "n_sequences": 3, "seed": 1},
        }
    )
    assert rough.objective == "lx"
    assert fine.objective == "l_rb"
    assert final.lengths == (0, 10, 30)
    assert final.n_sequences == 3 and final.seed == 1

    with pytest.raises(ConfigError, match="needs a 'rough'"):
        tuneup_configs_from_dict({"fine": pulse_dict()})


def test_tuneup_name_names_both_stages():
    fine = pulse_dict(
        objective={"objective": "l_rb", "n_levels": 2, "rb_lengths": [0, 2, 5]},
        initial_theta=[0.0] * 20,
    )
    unnamed = {key: v for key, v in pulse_dict().items() if key != "name"}
    rough, fine_cfg, _ = tuneup_configs_from_dict(
        {"name": "top", "rough": unnamed, "fine": fine | {"name": "top"}}
    )
    assert rough.name == fine_cfg.name == "top"
    # without a top-level name each stage keeps its own
    rough, fine_cfg, _ = tuneup_configs_from_dict({"rough": unnamed, "fine": fine})
    assert (rough.name, fine_cfg.name) == ("experiment", "pulse-demo")
    with pytest.raises(ConfigError, match="fine name 'pulse-demo' is not the tuneup name 'top'"):
        tuneup_configs_from_dict({"name": "top", "rough": unnamed, "fine": fine})
    for name in (5, None, ["top"]):
        with pytest.raises(ConfigError, match="name must be a string"):
            tuneup_configs_from_dict({"name": name, "rough": unnamed, "fine": fine})
