"""Source-level guards on the package itself."""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from pertopt import ObjectiveConfig, make_pulse_objective, objectives

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pertopt"


def test_no_assert_statements_in_package():
    # `python -O` strips assert statements, so runtime checks must raise
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_import_does_not_load_scipy_optimize():
    # scipy.optimize adds about 20 MB of memory and 0.3 s to start-up; the
    # RB fit runs the in-repo trust-region port instead
    code = (
        "import sys, pertopt; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))"
    )
    path = [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    assert result.stdout.strip() == "[]"


def _patch_targets(path: Path, function: str) -> set[tuple[str, str]]:
    """``(module, attr)`` of every ``(module, "attr", ...)`` tuple in
    ``function``, for the modules it names as ``pertopt.<module>``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    body = next(
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == function
    )
    aliases = {}  # e.g. ``objectives, rb = pertopt.objectives, pertopt.rb``
    for node in ast.walk(body):
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Tuple):
            for target, value in zip(node.targets[0].elts, node.value.elts):
                aliases[ast.unparse(target)] = ast.unparse(value)
    targets = set()
    for node in ast.walk(body):
        if (
            isinstance(node, ast.Tuple)
            and len(node.elts) >= 2
            and isinstance(node.elts[1], ast.Constant)
            and isinstance(node.elts[1].value, str)
        ):
            module = ast.unparse(node.elts[0])
            module = aliases.get(module, module)
            if module.startswith("pertopt."):
                targets.add((module, node.elts[1].value))
    return targets


def test_benchmark_patch_targets_exist():
    # bench/run.py --trace 1 wraps these names where pertopt looks them up;
    # a refactor that drops one breaks the traced benchmark, not the suite
    traced = _patch_targets(ROOT / "bench" / "tracing.py", "installed")
    timed = _patch_targets(ROOT / "bench" / "workloads.py", "_timed_objectives")
    assert {
        ("pertopt.objectives", "evolve"),
        ("pertopt.objectives", "hann_waveform"),
        ("pertopt.objectives", "measure_population"),
        ("pertopt.objectives", "run_rb"),
        ("pertopt.objectives", "fit_rb_decay"),
        ("pertopt.experiments", "make_pulse_objective"),
    } <= traced
    assert timed == {("pertopt.experiments", "make_pulse_objective")}
    missing = [
        f"{module}.{attr}"
        for module, attr in sorted(traced | timed)
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []


def test_benchmark_traced_layers_run(monkeypatch):
    # a patch target that exists but is no longer called reads 0 in every
    # traced run; each pulse-loss call must pass through these lookup sites
    calls = {}

    def counted(attr):
        original = getattr(objectives, attr)

        def wrapper(*args, **kwargs):
            calls[attr] = calls.get(attr, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(objectives, attr, wrapper)

    for attr in ("hann_waveform", "evolve", "run_rb", "fit_rb_decay"):
        counted(attr)
    cfg = ObjectiveConfig(shots=0, rb_lengths=(0, 2, 5), rb_sequences=2)
    theta = np.zeros(cfg.dim)
    theta[0] = 0.5
    make_pulse_objective("lx", cfg)(theta)
    assert calls == {"hann_waveform": 1, "evolve": 1}
    make_pulse_objective("l_rb", cfg, rng=0)(theta)
    assert calls == {"hann_waveform": 2, "evolve": 2, "run_rb": 1, "fit_rb_decay": 1}
