"""Power-law coefficient schedules and their convergence diagnostics.

A run is driven by four per-iteration coefficients: the learning rate
``a_t = a0 / t**alpha``, the perturbation size ``c_t = c0 / t**zeta``, the
momentum coefficient ``beta_t = beta0 / t**lam`` (optionally truncated to
zero after a fixed step), and a constant second-moment coefficient
``gamma``.  ``validate_schedules`` reports which textbook convergence
conditions a configuration satisfies; failing a condition is advisory and
never blocks a run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .checks import check_fields, is_integer


def _power_law(coeff: float, exponent: float, t: int) -> float:
    """``coeff / t**exponent`` for constants already checked; ``t`` is checked."""
    if not is_integer(t) or t < 1:
        raise ValueError(f"schedule step must be >= 1 and an integer, got t={t!r}")
    return coeff / float(t) ** exponent


@dataclass(frozen=True)
class ScheduleSet:
    """Bundle of all schedules used by one optimization run.

    Parameters mirror the config file keys: ``a0``/``alpha`` for the
    learning rate, ``c0``/``zeta`` for the perturbation size,
    ``beta0``/``lam`` for momentum (``lam``'s ``key`` metadata names its
    config key), ``gamma`` for the constant second-moment coefficient,
    ``delta`` for the adaptive-update regularizer, and ``truncation_step``
    to force ``beta_t = 0`` for all ``t`` beyond it.  Each field's
    metadata sets its bounds, which ``check_fields`` enforces.
    """

    a0: float = field(default=0.032, metadata={"gt": 0})
    alpha: float = field(default=0.602, metadata={"ge": 0})
    c0: float = field(default=0.016, metadata={"gt": 0})
    zeta: float = field(default=0.101, metadata={"ge": 0})
    beta0: float = field(default=0.999, metadata={"ge": 0, "lt": 1})
    lam: float = field(default=0.0, metadata={"key": "lambda", "ge": 0})
    gamma: float = field(default=0.999, metadata={"ge": 0, "lt": 1})
    delta: float = field(default=1e-8, metadata={"gt": 0})
    truncation_step: int | None = field(default=None, metadata={"ge": 0})

    def __post_init__(self) -> None:
        check_fields(self)

    # __post_init__ has checked the constants; each call checks only t
    def learning_rate(self, t: int) -> float:
        return _power_law(self.a0, self.alpha, t)

    def perturbation_size(self, t: int) -> float:
        return _power_law(self.c0, self.zeta, t)

    def momentum_coeff(self, t: int) -> float:
        if self.truncation_step is not None and t > self.truncation_step:
            return 0.0
        return _power_law(self.beta0, self.lam, t)

    def second_moment_coeff(self, t: int) -> float:
        # constant by design (gamma / t**0 is gamma); kept as a method so
        # the update loop treats all four coefficients uniformly
        return _power_law(self.gamma, 0.0, t)


@dataclass(frozen=True)
class ConditionCheck:
    """Outcome of a single named convergence condition."""

    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    """Advisory convergence report for a :class:`ScheduleSet`."""

    checks: tuple[ConditionCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed(self) -> tuple[ConditionCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def __getitem__(self, name: str) -> ConditionCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def validate_schedules(schedules: ScheduleSet) -> ValidationReport:
    """Check the advisory convergence conditions for a schedule bundle.

    Four named conditions are evaluated:

    - ``learning-rate-divergence``: the learning-rate sum diverges,
      requiring ``alpha <= 1``.
    - ``kushner-clark``: accumulated estimator noise stays summable,
      requiring ``alpha - zeta > 0.5``.
    - ``adaptive-divergence``: the effective adaptive step sum still
      diverges, requiring ``alpha + zeta <= 1``.
    - ``momentum-decay``: momentum forgets fast enough, requiring
      ``lam > 0`` and ``lam + alpha - zeta > 1``, or an explicit
      ``truncation_step``.

    The report is pure: identical inputs give identical reports, and no
    check mutates the schedule or blocks anything.
    """
    a, z, lam = schedules.alpha, schedules.zeta, schedules.lam
    conditions = {
        "learning-rate-divergence": (a <= 1.0, f"alpha = {a} (requires alpha <= 1)"),
        "kushner-clark": (a - z > 0.5, f"alpha - zeta = {a - z} (requires > 0.5)"),
        "adaptive-divergence": (a + z <= 1.0, f"alpha + zeta = {a + z} (requires <= 1)"),
        "momentum-decay": (
            lam > 0.0 and lam + a - z > 1.0,
            f"lambda = {lam}, lambda + alpha - zeta = {lam + a - z} "
            "(requires lambda > 0 and sum > 1, or a truncation_step)",
        ),
    }
    if schedules.truncation_step is not None:
        conditions["momentum-decay"] = (
            True, f"beta_t truncated to 0 after t = {schedules.truncation_step}"
        )
    return ValidationReport(tuple(ConditionCheck(n, *c) for n, c in conditions.items()))
