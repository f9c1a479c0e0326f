"""Source-level guards on the package itself."""

from __future__ import annotations

import ast
import importlib
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from pertopt import ObjectiveConfig, make_pulse_objective, objectives, rb

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


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _numpy_private_uses(tree: ast.AST) -> set[str]:
    """Dotted names of numpy's ``_``-prefixed modules and names that
    ``tree`` imports, or reads through a name bound to numpy."""
    roots, found = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [(a.name, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [(f"{node.module}.{a.name}", a.asname or a.name) for a in node.names]
        else:
            continue
        for dotted, bound in names:
            if dotted.split(".")[0] == "numpy":
                roots.add(bound)
                if any(map(_private, dotted.split("."))):
                    found.add(dotted)
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.insert(0, node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id in roots and any(map(_private, chain)):
            found.add(".".join([node.id, *chain]))
    return found


def test_no_module_imports_another_modules_private_name():
    # `from .rb import _helper` couples two modules through a name the
    # first never promised to keep; a shared helper gets a public name
    found = [
        f"{path.name}:{node.lineno} {alias.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if _private(alias.name)
    ]
    assert found == []
    # numpy's private modules, such as the gufunc behind np.linalg.eigh
    # (numpy.linalg._umath_linalg), skip its wrappers' checks but are no
    # API: their names, results and errors may change in any release
    found = [
        f"{path.name}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in sorted(_numpy_private_uses(ast.parse(path.read_text())))
    ]
    assert found == []
    bad = ast.parse(
        "import numpy as np\nimport numpy.linalg._umath_linalg\n"
        "from numpy.linalg import _umath_linalg\nfrom numpy import linalg as la\n"
        "np.linalg._umath_linalg.eigh_lo(x)\nla._linalg\nnp.__version__\n"
    )
    assert _numpy_private_uses(bad) == {
        "numpy.linalg._umath_linalg", "np.linalg._umath_linalg",
        "np.linalg._umath_linalg.eigh_lo", "la._linalg",
    }


def _package_imports(source: str) -> set[str]:
    """The pertopt modules that ``source`` imports, by relative or full name."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ("pertopt" * bool(node.level), node.module)))
            # ``from . import x`` and ``from pertopt import x`` import module x
            dotted = [module] if module != "pertopt" else [
                f"pertopt.{alias.name}" for alias in node.names
            ]
        else:
            continue
        found.update(d.split(".")[1] for d in dotted if d.startswith("pertopt."))
    return found


def test_the_optimizer_core_imports_no_physics():
    # AdamSPSA and AdamRSGF need only loss values: the estimators, schedules
    # and update rules load neither the pulse simulator nor RB, and the
    # config checks they share live in a module that imports no other
    imports = {p.stem: _package_imports(p.read_text()) for p in PACKAGE.glob("*.py")}
    assert imports["checks"] == set()
    physics = {"transmon", "rb", "_trf", "objectives", "experiments"}
    for core in ("estimators", "schedules", "optimizers"):
        assert imports[core].isdisjoint(physics), (core, imports[core])
    assert _package_imports(
        "import pertopt.rb\nfrom pertopt import transmon\nfrom pertopt.objectives "
        "import x\nfrom . import experiments\nfrom ._trf import y\nimport numpy\n"
    ) == {"rb", "transmon", "objectives", "experiments", "_trf"}


CONFIG_CLASSES = {
    "ExperimentConfig", "ScanConfig", "FinalRBConfig", "ObjectiveConfig",
    "TransmonParams", "EstimatorConfig", "ScheduleSet",
}


def test_config_classes_check_every_field_first():
    # check_fields types each field from its annotation, so a field added
    # to a config class is checked without a rule of its own, and so are
    # the bounds in its metadata; the rest of __post_init__ holds only
    # cross-field and entry rules
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name in CONFIG_CLASSES:
                found[node.name] = next(
                    item for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and item.name == "__post_init__"
                )
    assert set(found) == CONFIG_CLASSES
    for name, post_init in found.items():
        first = post_init.body[0]
        assert isinstance(first, ast.Expr) and isinstance(first.value, ast.Call), name
        assert ast.unparse(first.value.func) == "check_fields", name
        assert ast.unparse(first.value.args[0]) == "self", name
        calls = {
            ast.unparse(node.func)
            for node in ast.walk(post_init) if isinstance(node, ast.Call)
        }
        assert not calls & {"is_integer", "is_finite_real", "object.__setattr__"}, name


def _numeric_bound_comparisons(tree: ast.AST) -> list[str]:
    """Each comparison in the ``__post_init__`` of a class that calls
    ``check_fields`` with ``self.<field>`` on one side of an operator and
    an int or float literal on the other."""

    def number(node):
        node = node.operand if isinstance(node, ast.UnaryOp) else node
        return isinstance(node, ast.Constant) and type(node.value) in (int, float)

    def own_field(node):
        return isinstance(node, ast.Attribute) and ast.unparse(node.value) == "self"

    post_inits = [
        (cls.name, item)
        for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for item in cls.body
        if isinstance(item, ast.FunctionDef) and item.name == "__post_init__"
        and "check_fields(self" in ast.unparse(item)
    ]
    return [
        f"{name}: {ast.unparse(node)}"
        for name, post_init in post_inits
        for node in ast.walk(post_init) if isinstance(node, ast.Compare)
        if any(
            own_field(a) and number(b) or number(a) and own_field(b)
            for a, b in itertools.pairwise([node.left, *node.comparators])
        )
    ]


def test_config_classes_bound_no_single_field_by_hand():
    # a single field's bound belongs in its metadata (``ge``, ``gt``, ``lt``),
    # where check_fields enforces it; __post_init__ keeps cross-field and
    # entry rules
    found = [
        f"{path.name}: {comparison}"
        for path in sorted(PACKAGE.glob("*.py"))
        for comparison in _numeric_bound_comparisons(ast.parse(path.read_text()))
    ]
    assert found == []
    bad = ast.parse(
        "class A:\n    def __post_init__(self):\n        check_fields(self)\n"
        "        if self.a0 <= 0 or 0.0 <= self.beta0 < 1.0 or -1 > self.b: pass\n"
        "        if self.x is None or len(self.k) < 1 or self.s.size > C: pass\n"
        "class B:\n    def __post_init__(self):\n        if self.a0 <= 0: pass\n"
    )
    assert _numeric_bound_comparisons(bad) == [
        "A: self.a0 <= 0", "A: 0.0 <= self.beta0 < 1.0", "A: -1 > self.b",
    ]


def _hand_choice_checks(tree: ast.AST) -> list[str]:
    """The test of each ``if`` that raises and whose whole test is ``<value>
    not in <choices>``: an upper-case name, a ``tuple()`` of one or a
    tuple literal."""

    def choices(node):
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "tuple":
            node = node.args[0]
        name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")
        return isinstance(node, ast.Tuple) or name.lstrip("_").isupper()

    return [
        ast.unparse(node.test)
        for node in ast.walk(tree)
        if isinstance(node, ast.If) and isinstance(node.test, ast.Compare)
        and [type(op) for op in node.test.ops] == [ast.NotIn]
        and choices(node.test.comparators[0])
        and any(isinstance(n, ast.Raise) for stmt in node.body for n in ast.walk(stmt))
    ]


def test_no_allowed_value_is_checked_by_hand():
    # a field's allowed values belong in its ``in`` metadata and an
    # argument's go through check_choice: one message for every choice
    found = [
        f"{path.name}: {test}"
        for path in sorted(PACKAGE.glob("*.py"))
        for test in _hand_choice_checks(ast.parse(path.read_text()))
    ]
    assert found == []
    bad = ast.parse(
        "if self.method not in _METHODS:\n    raise ValueError(1)\n"
        "if kind not in tuple(_KEYS):\n    raise E\n"
        "if axis not in ('x', 'y'):\n    if z:\n        raise E\n"
        "if name not in mod.PULSE_LOSSES:\n    raise E\n"
        "if key not in index:\n    raise KeyError\n"
        "if a not in B or c:\n    raise E\n"
        "if a not in B:\n    pass\n"
    )
    assert _hand_choice_checks(bad) == [
        "self.method not in _METHODS", "kind not in tuple(_KEYS)",
        "axis not in ('x', 'y')", "name not in mod.PULSE_LOSSES",
    ]


def _callable_classes(tree: ast.AST) -> list[str]:
    """Names of the classes in ``tree`` that define ``__call__``."""
    return [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any(
            isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and item.name == "__call__"
            for item in node.body
        )
    ]


def test_no_class_defines_call():
    # every objective is a closure, like the pulse losses: a callable class
    # would be a second kind, with fields a caller could change mid-run
    found = [
        f"{path.name}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in _callable_classes(ast.parse(path.read_text()))
    ]
    assert found == []
    bad = ast.parse("class A:\n    def __call__(self, x): pass\nclass B: pass\n")
    assert _callable_classes(bad) == ["A"]


def test_import_does_not_load_scipy():
    # numpy is the only run-time dependency: scipy.linalg alone adds about
    # 20 MB of memory and 0.3 s to start-up, and the RB fit runs the in-repo
    # trust-region port on numpy's SVD instead
    code = (
        "import sys, pertopt; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
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
    # traced run; each pulse-loss call must pass through these lookup sites,
    # and each run_rb call through pertopt.rb's own
    calls = {}

    def counted(module, attr, name):
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, attr, wrapper)

    for attr in ("hann_waveform", "evolve", "run_rb", "fit_rb_decay"):
        counted(objectives, attr, attr)
    for attr in ("compile_cliffords", "measure_population"):
        counted(rb, attr, f"rb.{attr}")
    cfg = ObjectiveConfig(shots=0, rb_lengths=(0, 2, 5), rb_sequences=2)
    theta = np.zeros(cfg.dim)
    theta[0] = 0.5
    make_pulse_objective("lx", cfg)(theta)
    assert calls == {"hann_waveform": 1, "evolve": 1}
    # a distorted loss passes through the same two sites, once each
    distorted = ObjectiveConfig(shots=0, distortion=(0.8, 0.2))
    make_pulse_objective("lx", distorted)(theta)
    assert calls == {"hann_waveform": 2, "evolve": 2}
    # the rough stage's loss: one propagator for both readouts
    make_pulse_objective("l_combined", cfg)(theta)
    assert calls == {"hann_waveform": 3, "evolve": 3}
    make_pulse_objective("l_rb", cfg, rng=0)(theta)
    assert calls == {
        "hann_waveform": 4, "evolve": 4, "run_rb": 1, "fit_rb_decay": 1,
        "rb.compile_cliffords": 1, "rb.measure_population": 1,
    }
