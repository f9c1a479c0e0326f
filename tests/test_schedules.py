"""Schedule values and the advisory convergence validator."""

from __future__ import annotations

import numpy as np
import pytest

from pertopt import ScheduleSet, validate_schedules


def test_power_law_first_step_returns_coefficient():
    s = ScheduleSet(a0=0.032, alpha=0.602, c0=0.016, zeta=0.101)
    assert s.learning_rate(1) == 0.032
    assert s.perturbation_size(1) == 0.016


def test_power_law_frozen_values():
    # 0.032 / 2**0.602 and 0.016 / 10**0.101
    s = ScheduleSet(a0=0.032, alpha=0.602, c0=0.016, zeta=0.101)
    assert np.isclose(s.learning_rate(2), 0.02108287922774624, atol=1e-15)
    assert np.isclose(s.perturbation_size(10), 0.012680021287687549, atol=1e-15)


def test_power_law_zero_exponent_is_constant():
    s = ScheduleSet(beta0=0.999, lam=0.0)
    for t in (1, 7, 1000):
        assert s.momentum_coeff(t) == 0.999


@pytest.mark.parametrize(
    "coeff, exponent, t, match",
    [
        (1.0, 0.5, 1.5, "step"),
        (1.0, 0.5, np.nan, "step"),
        (1.0, 0.5, True, "step"),
    ],
)
def test_power_law_refuses_non_finite_constants_and_fractional_steps(
    coeff, exponent, t, match
):
    # ScheduleSet refuses non-finite constants itself, see
    # test_schedule_coefficients_must_be_finite_numbers
    with pytest.raises(ValueError, match=match):
        ScheduleSet(a0=coeff, alpha=exponent).learning_rate(t)


def test_power_law_rejects_bad_steps():
    s = ScheduleSet(a0=1.0, alpha=0.5)
    with pytest.raises(ValueError, match="step must be >= 1"):
        s.learning_rate(0)
    with pytest.raises(ValueError, match="step must be >= 1"):
        s.learning_rate(-3)


def test_schedule_set_per_step_values():
    s = ScheduleSet(a0=0.032, alpha=0.602, c0=0.016, zeta=0.101, beta0=0.999,
                    lam=0.4, gamma=0.99)
    assert s.learning_rate(1) == 0.032
    assert s.perturbation_size(1) == 0.016
    assert s.momentum_coeff(1) == 0.999
    assert s.second_moment_coeff(1) == 0.99
    assert s.learning_rate(2) == 0.032 / 2**0.602
    assert s.momentum_coeff(8) == 0.999 / 8**0.4


def test_momentum_truncation_zeroes_late_steps():
    s = ScheduleSet(beta0=0.9, lam=0.0, truncation_step=5)
    assert s.momentum_coeff(5) == 0.9
    assert s.momentum_coeff(6) == 0.0
    assert s.momentum_coeff(1000) == 0.0


def test_schedule_set_validation_errors():
    with pytest.raises(ValueError, match="a0 must be > 0"):
        ScheduleSet(a0=0.0)
    with pytest.raises(ValueError, match="c0 must be > 0"):
        ScheduleSet(c0=0)
    with pytest.raises(ValueError, match="beta0"):
        ScheduleSet(beta0=1.0)
    with pytest.raises(ValueError, match="gamma"):
        ScheduleSet(gamma=-0.1)
    with pytest.raises(ValueError, match="delta"):
        ScheduleSet(delta=0.0)


def test_schedule_coefficients_must_be_finite_numbers():
    # a config file may spell NaN and Infinity; both used to fail mid-run
    for name in ("a0", "alpha", "c0", "zeta", "beta0", "lam", "gamma", "delta"):
        for bad in (np.nan, np.inf, -np.inf, True, "0.5", None):
            with pytest.raises(ValueError, match=f"{name} must be a finite number"):
                ScheduleSet(**{name: bad})


def test_truncation_step_must_be_an_integer_or_none():
    for bad in (10.5, 10.0, True, "3"):
        with pytest.raises(ValueError, match="truncation_step"):
            ScheduleSet(truncation_step=bad)
    assert ScheduleSet(truncation_step=np.int64(3)).momentum_coeff(4) == 0.0
    assert ScheduleSet(a0=1, alpha=np.float64(0.5)).learning_rate(4) == 0.5
    with pytest.raises(ValueError, match="truncation_step"):
        ScheduleSet(truncation_step=-1)
    with pytest.raises(ValueError, match="exponents"):
        ScheduleSet(alpha=-0.1)


def test_schedules_positive_and_non_increasing():
    rng = np.random.default_rng(11)
    for _ in range(25):
        s = ScheduleSet(
            a0=rng.uniform(0.001, 1.0),
            alpha=rng.uniform(0.0, 1.0),
            c0=rng.uniform(0.001, 1.0),
            zeta=rng.uniform(0.0, 1.0),
            beta0=rng.uniform(0.01, 0.999),
            lam=rng.uniform(0.0, 1.0),
        )
        ts = np.arange(1, 60)
        for values in (
            [s.learning_rate(t) for t in ts],
            [s.perturbation_size(t) for t in ts],
            [s.momentum_coeff(t) for t in ts],
        ):
            values = np.array(values)
            assert np.all(values > 0)
            assert np.all(np.diff(values) <= 0)


def test_validator_passes_reference_exponents():
    report = validate_schedules(
        ScheduleSet(alpha=0.602, zeta=0.101, beta0=0.999, lam=0.502)
    )
    assert report.all_passed
    assert {c.name for c in report.checks} == {
        "learning-rate-divergence",
        "kushner-clark",
        "adaptive-divergence",
        "momentum-decay",
    }
    with pytest.raises(KeyError, match="unknown"):
        report["unknown"]


def test_validator_flags_slow_momentum_decay():
    report = validate_schedules(
        ScheduleSet(alpha=0.602, zeta=0.101, beta0=0.999, lam=0.4)
    )
    assert not report.all_passed
    failed = report.failed()
    assert len(failed) == 1
    assert failed[0].name == "momentum-decay"
    # the other three conditions still hold
    assert report["learning-rate-divergence"].passed
    assert report["kushner-clark"].passed
    assert report["adaptive-divergence"].passed


def test_validator_accepts_truncation_instead_of_decay():
    report = validate_schedules(
        ScheduleSet(alpha=0.602, zeta=0.101, beta0=0.999, lam=0.4,
                    truncation_step=50)
    )
    assert report.all_passed
    assert "truncated" in report["momentum-decay"].detail


@pytest.mark.parametrize(
    "kwargs, failing",
    [
        (dict(alpha=0.9, zeta=0.3, lam=0.9), "adaptive-divergence"),
        (dict(alpha=0.55, zeta=0.1, lam=0.9), "kushner-clark"),
        (dict(alpha=0.5, zeta=0.2, lam=0.0), "momentum-decay"),
    ],
)
def test_validator_individual_conditions(kwargs, failing):
    report = validate_schedules(ScheduleSet(**kwargs))
    assert not report[failing].passed


def test_validator_is_pure():
    s = ScheduleSet(alpha=0.7, zeta=0.05, lam=0.2)
    assert validate_schedules(s) == validate_schedules(s)
