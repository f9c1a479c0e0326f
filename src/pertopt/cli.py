"""Command-line front end: run, scan, tuneup, validate, version.

Exit codes: 0 success, 1 configuration error, 2 runtime failure.
Configs are JSON files with nested sections (objective / estimator /
optimizer / schedules); see the README for worked examples.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .experiments import (
    ConfigError,
    experiment_config_from_dict,
    landscape_scan,
    parse_schedules,
    run_experiment,
    scan_config_from_dict,
    tuneup_configs_from_dict,
    two_stage_tuneup,
    write_scan_csv,
)
from .checks import config_keys
from .schedules import ScheduleSet, validate_schedules


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        config = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return config


def _seeded(stage, seed: int | None):
    """A stage config whose optimizer ``seed`` key is ``seed``, if one is given,
    so that the config's own checks and key names judge it."""
    optimizer = stage.get("optimizer") if isinstance(stage, dict) else None
    if seed is None or not isinstance(optimizer, dict):
        return stage  # parsing reports a section that is not an object
    return stage | {"optimizer": optimizer | {"seed": seed}}


def _cmd_run(args: argparse.Namespace) -> int:
    config = _seeded(_load_config(args.config), args.seed)
    if args.repeats is not None:
        config["repeats"] = args.repeats
    result = run_experiment(experiment_config_from_dict(config), args.out)
    for path in result.trajectory_paths:
        print(path)
    print(result.summary_path)
    if result.failures:
        print(f"{len(result.failures)} run(s) failed; summary covers the rest")
    return 0


def _cmd_scan(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    scan = scan_config_from_dict(config)
    grid = landscape_scan(scan)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{config.get('name', 'scan')}_scan.csv"
    write_scan_csv(path, scan, grid)
    print(path)
    return 0


def _cmd_tuneup(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    config |= {s: _seeded(config[s], args.seed) for s in ("rough", "fine") if s in config}
    rough, fine, final_rb = tuneup_configs_from_dict(config)
    result = two_stage_tuneup(rough, fine, args.out, final_rb)
    for stage, trajectory in (("rough", result.rough), ("fine", result.fine)):
        iteration, loss, _ = trajectory.best()
        print(f"best {stage} loss: {loss!r} at iteration {iteration}")
    ref, inter = result.reference_fit, result.interleaved_fit
    # the decay ratio means nothing above 1 or from a fit without errors
    unreliable = inter.decay_rate > ref.decay_rate or ref.degenerate or inter.degenerate
    mark = " (unreliable: interleaved decay exceeds reference or a fit is degenerate)"
    fidelity = f"interleaved fidelity: {result.interleaved_fidelity!r}"
    print(fidelity + mark if unreliable else fidelity)
    print(f"direct fidelity: {result.direct_fidelity!r}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    # a bare schedules object holds ScheduleSet keys alone
    if not config.keys() <= config_keys(ScheduleSet).keys():
        if "schedules" not in config:
            raise ConfigError("config is missing the 'schedules' section")
        config = config["schedules"]
    checks = validate_schedules(parse_schedules(config)).values()
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"{status} {check.name}: {check.detail}")
    n = sum(not check.passed for check in checks)
    if n == 0:
        print("all conditions satisfied")
    else:
        print(f"{n} condition(s) failed (advisory; runs are not blocked)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pertopt",
        description="Zeroth-order pulse-calibration experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a configured experiment")
    p_run.add_argument("--config", required=True, help="JSON config path")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--seed", type=int, default=None, help="override base seed")
    p_run.add_argument("--repeats", type=int, default=None, help="override repeats")
    p_run.set_defaults(func=_cmd_run)

    p_scan = sub.add_parser("scan", help="two-parameter landscape scan")
    p_scan.add_argument("--config", required=True)
    p_scan.add_argument("--out", required=True)
    p_scan.set_defaults(func=_cmd_scan)

    p_tune = sub.add_parser("tuneup", help="two-stage gate tuneup")
    p_tune.add_argument("--config", required=True)
    p_tune.add_argument("--out", required=True)
    p_tune.add_argument("--seed", type=int, default=None, help="override both stage seeds")
    p_tune.set_defaults(func=_cmd_tuneup)

    p_val = sub.add_parser("validate", help="schedule convergence report")
    p_val.add_argument("--config", required=True)
    p_val.set_defaults(func=_cmd_validate)

    p_ver = sub.add_parser("version", help="print the package version")
    p_ver.set_defaults(func=lambda args: print(f"pertopt {__version__}") or 0)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
