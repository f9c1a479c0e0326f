"""CLI exit codes, validate report format, and end-to-end subcommands."""

from __future__ import annotations

import dataclasses
import json
import re
import subprocess
import sys
import typing
from pathlib import Path

import pytest

from pertopt import (
    EstimatorConfig,
    ExperimentConfig,
    FinalRBConfig,
    ObjectiveConfig,
    RBFitResult,
    ScanConfig,
    ScheduleSet,
    TransmonParams,
    __version__,
    experiments,
)
from pertopt.checks import config_keys
from pertopt.cli import main


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


RUN_CONFIG = {
    "name": "cli-demo",
    "objective": {"objective": "sphere", "dimension": 2, "noise_sigma": 0.1},
    "estimator": {"estimator": "spsa"},
    "optimizer": {"update_rule": "adam", "budget_evaluations": 20, "seed": 1},
    "schedules": {"a0": 0.1, "c0": 0.05, "beta0": 0.9, "lambda": 0.1},
    "initial_theta": [1.0, -1.0],
    "repeats": 2,
}

SCAN_CONFIG = {
    "name": "cli-scan",
    "objective": {
        "objective": "lx",
        "n_levels": 2,
        "active_dims": [0, 10],
    },
    "scan": {
        "values_1": [0.0, 0.5],
        "values_2": [0.0],
    },
}

# a run of the 2-dim lx loss, the scan's objective
PULSE_RUN_CONFIG = dict(RUN_CONFIG, objective=SCAN_CONFIG["objective"])

TUNEUP_CONFIG = {
    "rough": {
        "name": "cli-tune",
        "objective": {"objective": "l_combined", "n_levels": 2, "shots": 0},
        "estimator": {"estimator": "spsa"},
        "optimizer": {"update_rule": "adam", "budget_evaluations": 8},
        "schedules": {},
        "initial_theta": [0.5] + [0.0] * 19,
    },
    "fine": {
        "name": "cli-tune",
        "objective": {
            "objective": "l_rb",
            "n_levels": 2,
            "shots": 0,
            "rb_lengths": [0, 2, 5, 9],
            "rb_sequences": 2,
        },
        "estimator": {"estimator": "spsa"},
        "optimizer": {"update_rule": "adam", "budget_evaluations": 4},
        "schedules": {"a0": 0.002, "c0": 0.002, "lambda": 0.1},
        "initial_theta": [0.0] * 20,
    },
    "final_rb": {"lengths": [0, 10, 30, 60], "n_sequences": 3, "seed": 5},
}


def test_version(capsys):
    assert main(["version"]) == 0
    assert capsys.readouterr().out.strip() == f"pertopt {__version__}"


def test_run_writes_trajectories_and_summary(tmp_path, capsys):
    config = write_config(tmp_path, RUN_CONFIG)
    out = tmp_path / "results"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert str(out / "cli-demo_run0.csv") in printed
    assert str(out / "cli-demo_run1.csv") in printed
    assert str(out / "cli-demo_summary.jsonl") in printed
    assert (out / "cli-demo_summary.jsonl").exists()


def test_run_seed_override_changes_output(tmp_path):
    config = write_config(tmp_path, RUN_CONFIG)
    main(["run", "--config", str(config), "--out", str(tmp_path / "a")])
    main(["run", "--config", str(config), "--out", str(tmp_path / "b"),
          "--seed", "99"])
    a = (tmp_path / "a" / "cli-demo_run0.csv").read_bytes()
    b = (tmp_path / "b" / "cli-demo_run0.csv").read_bytes()
    assert a != b


def test_run_repeats_override(tmp_path):
    config = write_config(tmp_path, RUN_CONFIG)
    out = tmp_path / "one"
    main(["run", "--config", str(config), "--out", str(out), "--repeats", "1"])
    assert (out / "cli-demo_run0.csv").exists()
    assert not (out / "cli-demo_run1.csv").exists()


def test_scan_writes_labeled_grid(tmp_path, capsys):
    config = write_config(tmp_path, SCAN_CONFIG)
    out = tmp_path / "scans"
    assert main(["scan", "--config", str(config), "--out", str(out)]) == 0
    path = out / "cli-scan_scan.csv"
    assert str(path) in capsys.readouterr().out
    lines = path.read_text().splitlines()
    assert lines[0].startswith("theta_0\\theta_10,")
    assert float(lines[1].split(",")[1]) == pytest.approx(0.25, abs=1e-12)
    assert float(lines[2].split(",")[1]) <= 1e-12


@pytest.mark.filterwarnings("ignore:interleaved decay exceeds")
def test_tuneup_runs_end_to_end(tmp_path, capsys):
    config = write_config(tmp_path, TUNEUP_CONFIG)
    out = tmp_path / "tune"
    assert main(["tuneup", "--config", str(config), "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "best rough loss:" in text
    assert "interleaved fidelity:" in text
    assert (out / "cli-tune_rough_run0.csv").exists()
    assert (out / "cli-tune_fine_run0.csv").exists()
    assert (out / "cli-tune_tuneup.json").exists()


@pytest.mark.parametrize("p_reference, p_interleaved, degenerate, unreliable", [
    (0.99, 0.985, None, False),
    (0.985, 0.99, None, True),
    (0.99, 0.985, "reference", True),
    (0.99, 0.985, "interleaved", True),
])
def test_tuneup_marks_an_unreliable_interleaved_fidelity(
    tmp_path, capsys, monkeypatch, p_reference, p_interleaved, degenerate, unreliable
):
    def fit(arm, decay):
        return RBFitResult(0.5, 0.5, decay, 0.01, 0.01, 1e-4, degenerate=arm == degenerate)

    fidelity = 1.0 - (1.0 - p_interleaved / p_reference) / 2.0
    monkeypatch.setattr(experiments, "assess_gate", lambda *args: (
        fit("reference", p_reference), fit("interleaved", p_interleaved), fidelity, 0.999,
    ))
    config = write_config(tmp_path, TUNEUP_CONFIG)
    assert main(["tuneup", "--config", str(config), "--out", str(tmp_path / "t")]) == 0
    line = capsys.readouterr().out.splitlines()[2]
    mark = " (unreliable: interleaved decay exceeds reference or a fit is degenerate)"
    assert line == f"interleaved fidelity: {fidelity!r}" + (mark if unreliable else "")


@pytest.mark.filterwarnings("ignore:interleaved decay exceeds")
def test_tuneup_seed_override_sets_both_stage_seeds(tmp_path, capsys):
    def tuneup(config, out, *extra):
        path = write_config(tmp_path, config, name=f"{out}.json")
        assert main(["tuneup", "--config", str(path), "--out",
                     str(tmp_path / out), *extra]) == 0
        files = sorted((tmp_path / out).iterdir())
        return capsys.readouterr().out, {p.name: p.read_bytes() for p in files}

    both = _with(_with(TUNEUP_CONFIG, ["rough", "optimizer", "seed"], 7),
                 ["fine", "optimizer", "seed"], 7)
    overridden = tuneup(TUNEUP_CONFIG, "flag", "--seed", "7")
    assert overridden == tuneup(both, "config")
    for stage in ("rough", "fine"):
        # one stage's seed alone does not reproduce the override
        one = _with(TUNEUP_CONFIG, [stage, "optimizer", "seed"], 7)
        assert tuneup(one, f"only-{stage}") != overridden
    assert tuneup(TUNEUP_CONFIG, "default") != overridden


@pytest.mark.filterwarnings("ignore:interleaved decay exceeds")
def test_tuneup_name_names_the_artifacts(tmp_path):
    config = dict(TUNEUP_CONFIG, name="top")
    for stage in ("rough", "fine"):
        config[stage] = {k: v for k, v in TUNEUP_CONFIG[stage].items() if k != "name"}
    out = tmp_path / "tune"
    path = write_config(tmp_path, config)
    assert main(["tuneup", "--config", str(path), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "top_fine_run0.csv", "top_rough_run0.csv", "top_tuneup.json",
    ]


def test_validate_reports_each_condition(tmp_path, capsys):
    config = write_config(
        tmp_path,
        {"schedules": {"a0": 0.032, "c0": 0.016, "lambda": 0.4}},
    )
    assert main(["validate", "--config", str(config)]) == 0
    lines = capsys.readouterr().out.splitlines()
    names = [
        "learning-rate-divergence",
        "kushner-clark",
        "adaptive-divergence",
        "momentum-decay",
    ]
    for line, name in zip(lines, names):
        assert line.split()[0] in ("PASS", "FAIL")
        assert line.split()[1].rstrip(":") == name
    # lambda = 0.4 with the default exponents fails the momentum condition,
    # but validation is advisory: the exit code stays 0
    assert lines[3].startswith("FAIL momentum-decay")
    assert "advisory" in lines[4]


def test_validate_accepts_a_full_run_config(tmp_path, capsys):
    # the schedules section is picked out of a complete experiment config
    good = dict(RUN_CONFIG, schedules={"a0": 0.1, "c0": 0.05, "lambda": 0.6})
    config = write_config(tmp_path, good)
    assert main(["validate", "--config", str(config)]) == 0
    assert "all conditions satisfied" in capsys.readouterr().out


def test_validate_accepts_a_bare_schedules_object(tmp_path, capsys):
    config = write_config(tmp_path, {"a0": 0.1, "c0": 0.05, "lambda": 0.6})
    assert main(["validate", "--config", str(config)]) == 0
    assert "all conditions satisfied" in capsys.readouterr().out


@pytest.mark.parametrize(
    "config",
    [{k: v for k, v in RUN_CONFIG.items() if k != "schedules"}, TUNEUP_CONFIG],
    ids=["run-without-schedules", "tuneup"],
)
def test_validate_names_a_missing_schedules_section(tmp_path, capsys, config):
    # a config that is no bare schedules object used to be read as one,
    # its section names reported as unknown schedules keys
    path = write_config(tmp_path, config)
    assert main(["validate", "--config", str(path)]) == 1
    assert capsys.readouterr().err == (
        "config error: config is missing the 'schedules' section\n"
    )


def test_config_error_exits_1(tmp_path, capsys):
    bad = dict(RUN_CONFIG, schedules={"a0": -1.0})
    config = write_config(tmp_path, bad)
    assert main(["run", "--config", str(config), "--out", str(tmp_path)]) == 1
    assert "config error:" in capsys.readouterr().err


def test_unknown_update_rule_exits_1(tmp_path, capsys):
    bad = dict(RUN_CONFIG, optimizer={"update_rule": "adamm", "budget_evaluations": 20})
    config = write_config(tmp_path, bad)
    out = tmp_path / "results"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 1
    assert "unknown update rule 'adamm'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "final_rb",
    [
        {"n_sequences": 0},
        {"shots": -1},
        {"lengths": [0, 10]},
        {"lengths": [0, -5, 10]},
        {"seed": "x"},
        {"shots": 2.5},
    ],
    ids=[
        "no-sequences", "negative-shots", "two-lengths", "negative-length",
        "string-seed", "fractional-shots",
    ],
)
def test_bad_final_rb_exits_1_before_any_stage(tmp_path, capsys, final_rb):
    config = write_config(tmp_path, dict(TUNEUP_CONFIG, final_rb=final_rb))
    out = tmp_path / "tune"
    assert main(["tuneup", "--config", str(config), "--out", str(out)]) == 1
    assert "config error: invalid final_rb" in capsys.readouterr().err
    assert not out.exists()


def _with(config, path, value):
    """A deep copy of ``config`` with the entry at ``path`` replaced."""
    config = json.loads(json.dumps(config))
    section = config
    for key in path[:-1]:
        section = section[key]
    section[path[-1]] = value
    return config


_RANDOM_THETA = {"kind": "random_uniform", "low": -0.5, "high": 0.5}
_RANGE = {"start": 0.0, "stop": 1.0, "num": 3}
# a tune-up whose rough stage optimizes (A_1, B_1) alone
_ROUGH_ON_TWO_DIMS = _with(
    _with(TUNEUP_CONFIG, ["rough", "objective", "active_dims"], [0, 10]),
    ["rough", "initial_theta"], [0.5, 0.0],
)
_DEVICE_KEYS = ("anharmonicity_mhz", "drive_scale_mhz")


@pytest.mark.parametrize(
    "command, config",
    [
        ("run", _with(RUN_CONFIG, ["estimator"], [])),
        ("run", _with(RUN_CONFIG, ["optimizer", "budget_evaluations"], "10")),
        ("run", _with(RUN_CONFIG, ["repeats"], "2")),
        ("scan", _with(SCAN_CONFIG, ["objective", "k_list"], 2)),
        ("scan", _with(SCAN_CONFIG, ["scan", "values_1"], {"start": 0.0, "stop": 1.0})),
        ("tuneup", _with(TUNEUP_CONFIG, ["final_rb", "lengths"], 30)),
        ("tuneup", _with(TUNEUP_CONFIG, ["fine", "schedules"], None)),
        ("scan", _with(SCAN_CONFIG, ["objective", "duration_ns"], "x")),
        ("scan", _with(SCAN_CONFIG, ["objective", "dt_ns"], None)),
        ("scan", _with(SCAN_CONFIG, ["objective", "dt_ns"], 3.0)),
        ("tuneup", _with(TUNEUP_CONFIG, ["fine", "objective", "dt_ns"], 30.0)),
        ("run", _with(RUN_CONFIG, ["initial_theta"], _RANDOM_THETA | {"seed": None})),
        ("run", _with(RUN_CONFIG, ["initial_theta"], _RANDOM_THETA | {"seed": "7"})),
        ("run", _with(RUN_CONFIG, ["initial_theta"], _RANDOM_THETA | {"seed": 7.5})),
        ("run", _with(RUN_CONFIG, ["objective", "noise_sigma"], "10")),
        ("run", _with(RUN_CONFIG, ["objective", "noise_sigma"], -1)),
        ("run", _with(RUN_CONFIG, ["optimizer", "seed"], "x")),
        ("run", _with(RUN_CONFIG, ["estimator", "n_samples"], 1.5)),
        ("run", _with(RUN_CONFIG, ["repeats"], 1.5)),
        ("tuneup", _with(TUNEUP_CONFIG, ["fine", "objective", "rb_sequences"], 2.5)),
        ("tuneup", _with(TUNEUP_CONFIG, ["rough", "objective", "shots"], 2.5)),
        ("run", _with(RUN_CONFIG, ["optimizer", "budget_evaluations"], 7.5)),
        ("run", _with(RUN_CONFIG, ["objective", "shift"], [1])),
        ("run", _with(RUN_CONFIG, ["estimator"], {"estimator": "rsgf", "count_baseline": "no"})),
        ("run", _with(RUN_CONFIG, ["schedules", "alpha"], float("nan"))),
        ("run", _with(RUN_CONFIG, ["schedules", "a0"], float("inf"))),
        ("run", _with(RUN_CONFIG, ["schedules", "c0"], True)),
        ("run", _with(RUN_CONFIG, ["schedules", "truncation_step"], 10.5)),
        ("run", _with(RUN_CONFIG, ["schedules", "truncation_step"], True)),
        ("scan", _with(SCAN_CONFIG, ["objective", "k_list"], [1.5, 2.7])),
        ("scan", _with(SCAN_CONFIG, ["objective", "active_dims"], [0.5, 10])),
        ("scan", _with(SCAN_CONFIG, ["objective", "n_levels"], 3.0)),
        ("scan", _with(SCAN_CONFIG, ["objective", "anharmonicity_mhz"], float("nan"))),
        ("scan", _with(SCAN_CONFIG, ["objective", "drive_scale_mhz"], float("inf"))),
        ("scan", _with(SCAN_CONFIG, ["objective", "distortion_fir"], [float("nan")])),
        ("tuneup", _with(TUNEUP_CONFIG, ["fine", "objective", "rb_lengths"], [0, 2.5, 5])),
        ("tuneup", _with(TUNEUP_CONFIG, ["final_rb", "lengths"], [0, 10.5, 30, 60])),
        ("run", _with(RUN_CONFIG, ["optimizer", "clip_box"], ["-1", "1"])),
        ("run", _with(RUN_CONFIG, ["optimizer", "clip_box"], [True, 2])),
        ("run", _with(RUN_CONFIG, ["initial_theta"], [0.0, float("nan")])),
        ("scan", _with(SCAN_CONFIG, ["scan", "values_1"], [0.0, float("nan")])),
        ("scan", _with(SCAN_CONFIG, ["scan", "values_1"], _RANGE | {"num": 2.5})),
        ("scan", _with(SCAN_CONFIG, ["scan", "values_1"], _RANGE | {"num": True})),
        ("scan", _with(SCAN_CONFIG, ["scan", "values_1"], _RANGE | {"start": float("nan")})),
        ("run", _with(RUN_CONFIG, ["initial_theta"], _RANDOM_THETA | {"low": float("nan")})),
        ("run", _with(RUN_CONFIG, ["initial_theta"], _RANDOM_THETA | {"low": True, "high": 2})),
        ("run", _with(RUN_CONFIG, ["initial_theta"], _RANDOM_THETA | {"low": -1e308, "high": 1e308})),
        ("scan", _with(SCAN_CONFIG, ["scan", "values_1"], _RANGE | {"start": True})),
        # np.random.SeedSequence refuses a negative seed, but only mid-run
        ("run", _with(RUN_CONFIG, ["optimizer", "seed"], -1)),
        ("run --seed -5", RUN_CONFIG),
        ("tuneup", _with(TUNEUP_CONFIG, ["final_rb", "seed"], -3)),
        # a bad dimension used to fail only at run time (exit 2), or run
        # in the dimension of the explicit values
        ("run", _with(_with(RUN_CONFIG, ["objective", "dimension"], -1),
                      ["initial_theta"], {"kind": "zeros"})),
        ("run", _with(_with(RUN_CONFIG, ["objective", "dimension"], 2.5),
                      ["initial_theta"], _RANDOM_THETA)),
        ("run", _with(_with(RUN_CONFIG, ["objective", "dimension"], True),
                      ["initial_theta"], {"kind": "zeros"})),
        ("run", _with(RUN_CONFIG, ["objective", "dimension"], 3)),
        # every initial_theta form takes only its own keys
        ("run", _with(RUN_CONFIG, ["initial_theta"],
                      {"kind": "random_uniform", "low": -1, "hihg": 1, "seed": 1})),
        ("run", _with(RUN_CONFIG, ["initial_theta"], {"kind": "zeros", "values": [1, 2]})),
        ("run", _with(RUN_CONFIG, ["initial_theta"], {"kind": "values", "values": [1, 2]})),
        ("run", _with(RUN_CONFIG, ["initial_theta"], {"kind": ["zeros"]})),
        ("scan", _with(SCAN_CONFIG, ["name"], ["a", "b"])),
        ("scan", _with(SCAN_CONFIG, ["name"], None)),
        ("tuneup", _with(TUNEUP_CONFIG, ["name"], 5)),
        ("tuneup", _with(TUNEUP_CONFIG, ["name"], "other")),
        ("tuneup", _with(TUNEUP_CONFIG, ["fine", "objective", "objective"], "lx")),
        # the stages must share the pulse basis: the fine stage starts at
        # the rough stage's best coefficients
        ("tuneup", _ROUGH_ON_TWO_DIMS),
        ("tuneup", _with(_with(_ROUGH_ON_TWO_DIMS, ["fine", "objective", "active_dims"],
                               [1, 11]), ["fine", "initial_theta"], [0.0, 0.0])),
        # and its timing: the same coefficients are another pulse
        ("tuneup", _with(TUNEUP_CONFIG, ["fine", "objective", "duration_ns"], 40.0)),
        ("tuneup", _with(TUNEUP_CONFIG, ["fine", "objective", "dt_ns"], 0.5)),
        ("tuneup", _with(TUNEUP_CONFIG, ["fine", "objective", "distortion_fir"], [0.9, 0.1])),
        ("scan", _with(SCAN_CONFIG, ["objective", "distortion_fir"], [])),
        # numpy's multinomial draws no count above int64: these used to fail
        # mid-run (exit 2) after writing artifacts
        ("run", _with(PULSE_RUN_CONFIG, ["objective", "shots"], 10**20)),
        ("tuneup", _with(TUNEUP_CONFIG, ["final_rb", "shots"], 10**20)),
        # each stage runs once: its repeats used to be ignored
        ("tuneup", _with(_with(TUNEUP_CONFIG, ["rough", "repeats"], 5),
                         ["fine", "repeats"], 3)),
        ("tuneup", _with(TUNEUP_CONFIG, ["fine", "repeats"], 2)),
    ],
    ids=[
        "section-not-object", "string-budget", "string-repeats", "scalar-k_list",
        "range-without-num", "scalar-final-lengths", "null-section",
        "string-duration", "null-dt", "dt-not-dividing-duration", "dt-over-duration",
        "null-theta-seed", "string-theta-seed", "float-theta-seed",
        "string-noise-sigma", "negative-noise-sigma", "string-seed",
        "fractional-n-samples", "fractional-repeats", "fractional-rb-sequences",
        "fractional-shots", "fractional-budget", "synthetic-shift",
        "string-count-baseline", "nan-alpha", "infinite-a0", "bool-c0",
        "fractional-truncation-step", "bool-truncation-step", "fractional-k_list",
        "fractional-active-dims", "float-n-levels", "nan-anharmonicity",
        "infinite-drive-scale", "nan-distortion", "fractional-rb-lengths",
        "fractional-final-lengths", "string-clip-box", "bool-clip-box",
        "nan-initial-theta", "nan-scan-value", "fractional-num", "bool-num",
        "nan-range-start", "nan-theta-low", "bool-theta-low",
        "overflowing-theta-range", "bool-range-start", "negative-seed",
        "negative-cli-seed", "negative-final-rb-seed", "negative-dimension",
        "fractional-dimension", "bool-dimension", "dimension-over-values",
        "theta-key-typo", "zeros-with-values", "values-kind", "list-kind",
        "list-scan-name", "null-scan-name", "int-tuneup-name",
        "tuneup-name-not-stage-name", "fine-stage-not-l_rb",
        "rough-active-dims-only", "stage-active-dims-differ", "stage-duration-differs",
        "stage-dt-differs", "stage-distortion-differs", "empty-distortion",
        "int64-overflowing-shots", "int64-overflowing-final-shots",
        "stage-repeats", "fine-stage-repeats",
    ],
)
def test_wrong_typed_config_exits_1(tmp_path, capsys, command, config):
    path = write_config(tmp_path, config)
    out = tmp_path / "out"
    assert main([*command.split(), "--config", str(path), "--out", str(out)]) == 1
    assert "config error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, config, message",
    [
        ("run", _with(RUN_CONFIG, ["schedules", "lambda"], "y"),
         "invalid schedules: lambda must be a finite number, got 'y'"),
        ("run", _with(RUN_CONFIG, ["optimizer", "seed"], "x"),
         "config error: seed must be an integer, got 'x'"),
        ("run", _with(RUN_CONFIG, ["optimizer", "seed"], -1),
         "config error: seed must be >= 0, got -1"),
        ("run", _with(RUN_CONFIG, ["estimator", "estimator"], 3),
         "invalid estimator: estimator must be a string, got 3"),
        ("scan", _with(SCAN_CONFIG, ["objective", "duration_ns"], "a"),
         "invalid objective: duration_ns must be a finite number, got 'a'"),
        ("run", _with(RUN_CONFIG, ["schedules", "lambda"], -1),
         "invalid schedules: lambda must be >= 0, got -1"),
        ("run", _with(RUN_CONFIG, ["schedules", "zeta"], -1),
         "invalid schedules: zeta must be >= 0, got -1"),
        ("scan", _with(SCAN_CONFIG, ["objective", "dt_ns"], 3),
         "invalid objective: dt_ns = 3 does not evenly divide the 20.0 ns pulse"),
        ("run", _with(RUN_CONFIG, ["objective"], []),
         "config error: objective must be an object"),
        ("run", _with(RUN_CONFIG, ["objective"], {"dimension": 2}),
         "config error: objective section needs an 'objective' name"),
        ("run", _with(RUN_CONFIG, ["initial_theta"], 1.0),
         "config error: initial_theta must be a list or a {kind: ...} object"),
        ("scan", {k: v for k, v in SCAN_CONFIG.items() if k != "objective"},
         "config error: scan config needs 'objective' and 'scan' sections"),
        ("scan", {k: v for k, v in SCAN_CONFIG.items() if k != "scan"},
         "config error: scan config needs 'objective' and 'scan' sections"),
        ("scan", _with(SCAN_CONFIG, ["objective"], {"objective": "sphere", "dimension": 2}),
         "config error: scan objective must be a pulse loss"),
        ("run", _with(PULSE_RUN_CONFIG, ["objective", "anharmonicity_mhz"], -5),
         "invalid objective: anharmonicity_mhz must be a finite number > 0, got -5"),
        ("run", _with(PULSE_RUN_CONFIG, ["objective", "drive_scale_mhz"], True),
         "invalid objective: drive_scale_mhz must be a finite number, got True"),
        # both device keys used to be multiplied before they were checked
        *(
            ("run", _with(PULSE_RUN_CONFIG, ["objective", key], bad),
             f"invalid objective: {key} must be a finite number, got {bad!r}")
            for key in _DEVICE_KEYS
            for bad in ("x", [1.5], {})
        ),
        ("scan", _with(SCAN_CONFIG, ["objective", "distortion_fir"], []),
         "invalid objective: distortion_fir must have at least one tap"),
        ("tuneup", _with(_with(TUNEUP_CONFIG, ["fine", "objective", "n_basis"], 5),
                         ["fine", "initial_theta"], [0.0] * 10),
         "config error: rough and fine stages must share n_basis and active_dims"),
        ("tuneup", _with(TUNEUP_CONFIG, ["fine", "objective", "duration_ns"], 40.0),
         "config error: rough and fine stages must share n_basis and active_dims, "
         "duration_ns, dt_ns and distortion_fir"),
        ("run", _with(RUN_CONFIG, ["optimizer", "budget_evaluations"], -1),
         "config error: budget_evaluations must be >= 0, got -1"),
        # a --seed override meets the optimizer seed's bound under its key
        ("run --seed -5", RUN_CONFIG, "config error: seed must be >= 0, got -5"),
        ("tuneup --seed -5", TUNEUP_CONFIG, "config error: seed must be >= 0, got -5"),
    ],
    ids=[
        "lambda", "seed", "negative-seed", "estimator", "duration_ns",
        "negative-lambda", "negative-zeta", "dt_ns", "objective-not-object",
        "objective-without-name", "scalar-initial-theta", "scan-without-objective",
        "scan-without-scan", "scan-synthetic-objective", "negative-anharmonicity",
        "bool-drive-scale",
        *(f"{kind}-{key}" for key in _DEVICE_KEYS for kind in ("string", "list", "object")),
        "empty-distortion", "stage-n-basis-differ", "stage-duration-differs",
        "negative-budget", "run-seed-override", "tuneup-seed-override",
    ],
)
def test_config_errors_name_the_key_written(tmp_path, capsys, command, config, message):
    # the dataclass field behind a renamed key (lam, base_seed, method,
    # duration) means nothing to the author of the config file
    path = write_config(tmp_path, config)
    argv = [*command.split(), "--config", str(path), "--out", str(tmp_path / "o")]
    assert main(argv) == 1
    assert message in capsys.readouterr().err


def _section_keys(cls, elsewhere=()):
    """``(key, annotation, field)`` of each field of ``cls`` a config
    section sets.

    Keys are spelled as ``config_keys`` spells them.  A field holding a
    dataclass is built from other keys, and the ``elsewhere`` keys are set
    outside the section; both are left out.
    """
    hints = typing.get_type_hints(cls)
    fields = {f.name: f for f in dataclasses.fields(cls)}
    for key, name in config_keys(cls).items():
        annotation = hints[name]
        held = typing.get_args(annotation) or (annotation,)
        if key not in elsewhere and not any(map(dataclasses.is_dataclass, held)):
            yield key, annotation, fields[name]


def _wrong_values(annotation):
    """``true`` (a string for a bool field), and ``null`` unless admitted."""
    held = typing.get_args(annotation) or (annotation,)
    yield "x" if bool in held else True
    if type(None) not in held:
        yield None


_OBJECTIVE_SECTION = [
    *_section_keys(ObjectiveConfig), *_section_keys(TransmonParams)
]
# a run config's sections; its optimizer sets the ExperimentConfig fields
# that the config holds nowhere else
_RUN_SECTIONS = {
    "objective": _OBJECTIVE_SECTION,
    "estimator": [*_section_keys(EstimatorConfig)],
    "optimizer": [
        *_section_keys(ExperimentConfig, {*RUN_CONFIG, *RUN_CONFIG["objective"]})
    ],
    "schedules": [*_section_keys(ScheduleSet)],
}
_SECTIONS = [
    *(("run", PULSE_RUN_CONFIG, [s], keys) for s, keys in _RUN_SECTIONS.items()),
    *(
        ("tuneup", TUNEUP_CONFIG, [stage, s], keys)
        for stage in ("rough", "fine")
        for s, keys in _RUN_SECTIONS.items()
    ),
    ("tuneup", TUNEUP_CONFIG, ["final_rb"], [*_section_keys(FinalRBConfig)]),
    ("scan", SCAN_CONFIG, ["objective"], _OBJECTIVE_SECTION),
    ("scan", SCAN_CONFIG, ["scan"], [*_section_keys(ScanConfig, SCAN_CONFIG)]),
]
_KEY_CASES = [
    pytest.param(
        command, _with(config, [*path, key], bad), key,
        id=f"{command}-{'.'.join(path)}.{key}={json.dumps(bad)}",
    )
    for command, config, path, keys in _SECTIONS
    for key, annotation, _ in keys
    for bad in _wrong_values(annotation)
]


@pytest.mark.parametrize("command, config, key", _KEY_CASES)
def test_every_section_key_refuses_a_wrong_kind_under_its_name(
    tmp_path, capsys, command, config, key
):
    # keys come from config_keys, so a new section or field that bypasses
    # the field checks fails here
    path = write_config(tmp_path, config)
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f": {key} must be " in err
    assert not out.exists()


_BOUND_SYMBOLS = {"ge": ">=", "gt": ">", "lt": "<"}


def _outside_bounds(annotation, metadata):
    """``(symbol, bound, value)`` of each bound in a field's ``metadata``,
    with a value just outside it: below a ``ge`` bound by 1 (an integer
    field) or 0.5, and the bound itself for ``gt`` and ``lt``."""
    step = 1 if int in (typing.get_args(annotation) or (annotation,)) else 0.5
    for op, symbol in _BOUND_SYMBOLS.items():
        if op in metadata:
            bound = metadata[op]
            yield symbol, bound, bound - step if op == "ge" else bound


# a run config sets these ExperimentConfig keys outside its optimizer
# section: repeats at its top level, noise_sigma in a synthetic objective
_RUN_OUTSIDE_OPTIMIZER = [
    ("run", RUN_CONFIG, path,
     [entry for entry in _section_keys(ExperimentConfig) if entry[0] == key])
    for path, key in (([], "repeats"), (["objective"], "noise_sigma"))
]
_BOUND_CASES = [
    pytest.param(
        command, _with(config, [*path, key], bad), key, symbol,
        id=f"{command}-{'.'.join([*path, key])}{symbol}{json.dumps(bad)}",
    )
    for command, config, path, keys in [*_SECTIONS, *_RUN_OUTSIDE_OPTIMIZER]
    for key, annotation, field in keys
    for symbol, _, bad in _outside_bounds(annotation, field.metadata)
]


@pytest.mark.parametrize("command, config, key, symbol", _BOUND_CASES)
def test_every_bound_refuses_a_value_outside_it_under_its_key(
    tmp_path, capsys, command, config, key, symbol
):
    # bounds come from the fields' metadata, so a bounded field added to a
    # config class is tested here without a case of its own
    path = write_config(tmp_path, config)
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f": {key} must be {symbol} " in err
    assert not out.exists()


_CONFIG_CLASSES = (
    ScheduleSet, EstimatorConfig, ObjectiveConfig, ExperimentConfig, FinalRBConfig,
    ScanConfig, TransmonParams,
)
# the arguments a config class needs besides the field under test
_API_ARGS = {
    ExperimentConfig: dict(
        name="api", objective="sphere", estimator=EstimatorConfig(),
        update_rule="sgd", schedules=ScheduleSet(), budget=0, initial_theta=[0.0],
    ),
}
_API_BOUND_CASES = [
    pytest.param(cls, f.name, *case, id=f"{cls.__name__}.{f.name}{case[0]}{case[2]}")
    for cls in _CONFIG_CLASSES
    for f in dataclasses.fields(cls)
    for case in _outside_bounds(typing.get_type_hints(cls)[f.name], f.metadata)
]


@pytest.mark.parametrize("cls, name, symbol, bound, bad", _API_BOUND_CASES)
def test_every_bound_refuses_a_value_outside_it_on_construction(
    cls, name, symbol, bound, bad
):
    args = _API_ARGS.get(cls, {}) | {name: bad}
    message = f"{name} must be {symbol} {bound}, got {bad!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        cls(**args)
    if symbol == ">=":  # a ge bound itself is inside
        cls(**args | {name: bound})


def test_bound_tests_cover_every_bounded_field():
    bounded = {
        f for cls in _CONFIG_CLASSES for f in dataclasses.fields(cls)
        if f.metadata.keys() & _BOUND_SYMBOLS.keys()
    }
    assert len(bounded) == 20
    assert {
        f for *_, keys in [*_SECTIONS, *_RUN_OUTSIDE_OPTIMIZER]
        for *_, f in keys if f in bounded
    } == bounded
    assert len({(case.values[0], case.values[1]) for case in _API_BOUND_CASES}) == 20


# the class whose fields each run config section sets
_SECTION_CLASSES = {
    "objective": ObjectiveConfig, "estimator": EstimatorConfig,
    "optimizer": ExperimentConfig, "schedules": ScheduleSet,
}
_FIELD_NAME_CASES = [
    pytest.param(section, name, id=f"{section}.{name}")
    for section, cls in _SECTION_CLASSES.items()
    for key, name in config_keys(cls).items()
    if key != name
]


def test_section_keys_are_derived_from_the_fields():
    keys = {(command, *path): {k for k, *_ in ks} for command, _, path, ks in _SECTIONS}
    assert keys["run", "objective"] >= {"n_levels", "anharmonicity_mhz", "dt_ns"}
    assert keys["run", "optimizer"] == {
        "update_rule", "budget_evaluations", "seed", "clip_box"
    }
    assert keys["scan", "scan"] == {"values_1", "values_2"}
    assert len(_KEY_CASES) > 100
    assert {case.values[1] for case in _FIELD_NAME_CASES} == {
        "lam", "method", "duration", "dt", "distortion", "budget", "base_seed"
    }


@pytest.mark.parametrize("section, name", _FIELD_NAME_CASES)
def test_a_field_name_is_no_second_spelling_of_its_key(tmp_path, capsys, section, name):
    # a key spelled unlike its field is refused under the field's name, so
    # each setting has one spelling in a config file
    config = _with(PULSE_RUN_CONFIG, [section, name], 1)
    path = write_config(tmp_path, config)
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"config error: unknown keys in {section}: [{name!r}]\n"
    )
    assert not out.exists()


# the class each section of the README's bound table names
_BOUND_TABLE_SECTIONS = {
    "`schedules`": ScheduleSet, "`estimator`": EstimatorConfig,
    "pulse `objective`": ObjectiveConfig, "top level": ExperimentConfig,
    "synthetic `objective`": ExperimentConfig, "`optimizer`": ExperimentConfig,
    "`final_rb`": FinalRBConfig,
}


def test_readme_bound_table_matches_the_field_metadata():
    # one row per bounded key: `key` | section | `op bound`, ...
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    header = "| Config key | Section | Bounds |\n|---|---|---|\n"
    table = readme.split(header, 1)[1].split("\n\n", 1)[0].splitlines()
    rows = {}
    for line in table:
        key, section, bounds = (cell.strip() for cell in line.strip("|").split("|"))
        rows[_BOUND_TABLE_SECTIONS[section], key.strip("`")] = bounds
    assert len(rows) == len(table)
    assert rows == {
        (cls, key): ", ".join(
            f"`{symbol} {f.metadata[op]}`"
            for op, symbol in _BOUND_SYMBOLS.items() if op in f.metadata
        )
        for cls in _CONFIG_CLASSES
        for key, name in config_keys(cls).items()
        for f in dataclasses.fields(cls)
        if f.name == name and f.metadata.keys() & _BOUND_SYMBOLS.keys()
    }


def test_readme_spelling_table_matches_config_keys():
    # one row per key spelled unlike its field: `key` | `section` | `Class.field`
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    header = "| Config key | Section | API field |\n|---|---|---|\n"
    table = readme.split(header, 1)[1].split("\n\n", 1)[0]
    rows = {}
    for line in table.splitlines():
        key, section, field = re.findall(r"`([^`]+)`", line)
        cls, name = field.split(".")
        assert cls == _SECTION_CLASSES[section].__name__, line
        rows[key] = section, name
    assert rows == {
        key: (section, name)
        for section, cls in _SECTION_CLASSES.items()
        for key, name in config_keys(cls).items()
        if key != name
    }


def _unnamed_stages(config, name):
    """A tune-up ``config`` whose stages take their name from ``name``."""
    stages = {
        stage: {k: v for k, v in config[stage].items() if k != "name"}
        for stage in ("rough", "fine")
    }
    return config | stages | {"name": name}


@pytest.mark.parametrize(
    "command, config",
    [
        ("scan", _with(SCAN_CONFIG, ["name"], "../escaped")),
        ("tuneup", _unnamed_stages(TUNEUP_CONFIG, "../up")),
        ("tuneup", _with(TUNEUP_CONFIG, ["fine", "name"], "../up")),
        ("run", _with(RUN_CONFIG, ["name"], "sub/x")),
    ],
    ids=["scan-parent", "tuneup-parent", "tuneup-stage-parent", "run-subdirectory"],
)
def test_name_with_a_path_separator_exits_1_and_writes_nothing(
    tmp_path, capsys, command, config
):
    # artifacts are named <out>/<name>_...: a separator in the name used to
    # write beside --out, or fail at the write after the whole experiment
    path = write_config(tmp_path, config)
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 1
    assert "name must be a single file-name component" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_missing_config_file_exits_1(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["run", "--config", str(missing), "--out", str(tmp_path)]) == 1
    assert "config error:" in capsys.readouterr().err


def test_invalid_json_exits_1(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 1
    assert "not valid JSON" in capsys.readouterr().err


def test_config_holding_a_json_array_exits_1(tmp_path, capsys):
    path = write_config(tmp_path, [RUN_CONFIG])
    out = tmp_path / "results"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 1
    assert "must hold a JSON object" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("ignore:run 0 failed")
@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_runtime_failure_exits_2(tmp_path, capsys):
    # a divergent learning rate drives the iterate until the loss overflows
    doomed = dict(
        RUN_CONFIG,
        repeats=1,
        schedules={"a0": 1e150, "alpha": 0.0, "c0": 0.05},
        optimizer={"update_rule": "sgd", "budget_evaluations": 40, "seed": 1},
        objective={"objective": "cubic", "dimension": 2},
        initial_theta=[1.0, 1.0],
    )
    config = write_config(tmp_path, doomed)
    code = main(["run", "--config", str(config), "--out", str(tmp_path / "r")])
    assert code == 2
    assert "runtime failure:" in capsys.readouterr().err


def test_module_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "pertopt", "version"],
        capture_output=True,
        text=True,
        check=False,
    )
    assert result.returncode == 0
    assert result.stdout.strip() == f"pertopt {__version__}"
