"""Config field checks and config keys; imports no other pertopt module."""

from __future__ import annotations

import dataclasses
import math
import numbers
import operator
import typing
from functools import lru_cache

import numpy as np


def is_integer(value) -> bool:
    """True for an int or a numpy integer, False for a bool or a float."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_finite_real(value) -> bool:
    """True for a finite int or float (numpy's too), False for a bool."""
    return (
        isinstance(value, numbers.Real)
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


# each annotation's kind as errors name it
_KINDS = {
    int: "an integer", float: "a finite number", bool: "true or false",
    str: "a string", tuple[int, ...]: "a list of integers",
    tuple[float, ...]: "a list of finite numbers",
    tuple[float, float]: "a list of 2 finite numbers",
    np.ndarray: "a non-empty 1-D list of finite numbers",
}


def _kind(annotation) -> str:
    args = typing.get_args(annotation)
    if type(None) in args:
        return f"{_kind(args[0])} or null"
    return _KINDS.get(annotation) or f"a {annotation.__name__}"


def _conform(annotation, value):
    """``value`` as its field stores it; ``TypeError`` if of another kind."""
    args = typing.get_args(annotation)
    if type(None) in args:
        return None if value is None else _conform(args[0], value)
    if annotation is np.ndarray:
        array = np.array(_conform(tuple[float, ...], value))
        if array.size < 1:
            raise TypeError
        return array
    if typing.get_origin(annotation) is tuple:
        # entry by entry: numpy would read "1" and True as numbers
        if isinstance(value, str) or (args[-1] is not ... and len(value) != len(args)):
            raise TypeError
        return tuple(args[0](_conform(args[0], v)) for v in value)
    accepts = {int: is_integer, float: is_finite_real}.get(annotation)
    if not (accepts(value) if accepts else isinstance(value, annotation)):
        raise TypeError
    return value


# each rule a field's metadata may set: its words in an error, and its test
_RULES = {
    "ge": (">=", operator.ge), "gt": (">", operator.gt), "lt": ("<", operator.lt),
    "in": ("one of", lambda value, choices: value in choices),
}


@lru_cache(maxsize=None)
def _field_types(cls) -> tuple:
    """``(name, annotation, kind, rules)`` of each field, resolved once per
    class; ``rules`` holds ``(symbol, test, bound)`` per rule it sets."""
    hints = typing.get_type_hints(cls)
    return tuple(
        (f.name, hints[f.name], _kind(hints[f.name]), tuple(
            (*_RULES[op], f.metadata[op]) for op in _RULES if op in f.metadata
        ))
        for f in dataclasses.fields(cls)
    )


def check_fields(obj, error: type[Exception] = ValueError) -> None:
    """Check each field of the dataclass ``obj`` against its annotation.

    - ``int``: an integer (numpy's too), not a bool;
    - ``float``: a finite int or float, not a bool;
    - ``bool``: ``True`` or ``False``; ``str``: a string;
    - ``tuple[T, ...]``, ``tuple[T, T]``: a list of ``T`` (``int`` or
      ``float`` as above), stored as a tuple of ``T``;
    - ``np.ndarray``: a non-empty 1-D list of finite numbers, no strings
      or bools, stored as a new float array;
    - ``X | None``: ``None`` or an ``X``; a dataclass: an instance of it.

    A field of the right kind then meets each rule its metadata sets, for
    example ``field(default=0.032, metadata={"gt": 0})``: the bounds ``ge``
    (>=), ``gt`` (>) and ``lt`` (<), and ``in``, a tuple of the allowed
    values; ``None`` meets every rule.  The first field of another kind
    raises ``error("<field> must be <kind>, got <value>")``, and the first
    to break a rule ``error("<field> must be <op> <bound>, got <value>")``,
    ``in`` as ``one of <choices>``.  Cross-field and entry rules stay with
    each class.
    """
    for name, annotation, kind, rules in _field_types(type(obj)):
        value = getattr(obj, name)
        try:
            stored = _conform(annotation, value)
        except TypeError:
            raise error(f"{name} must be {kind}, got {value!r}") from None
        if stored is not value:
            object.__setattr__(obj, name, stored)
        for symbol, test, bound in rules:
            if stored is not None and not test(stored, bound):
                raise error(f"{name} must be {symbol} {bound}, got {value!r}")


def check_choice(
    name: str, value, choices: tuple, error: type[Exception] = ValueError
) -> None:
    """Raise ``error("<name> must be one of <choices>, got <value>")`` unless
    ``value`` is one of ``choices``, as a field's ``in`` rule does."""
    if value not in choices:
        raise error(f"{name} must be one of {choices}, got {value!r}")


def check_shots(shots) -> None:
    """Raise ``ValueError`` unless ``shots`` is an integer in [0, 2**63 - 1].

    numpy's multinomial truncates a fractional count, while the frequencies
    would be divided by the unrounded one, and draws no count above int64.
    """
    if not is_integer(shots):
        raise ValueError(f"shots must be an integer, got {shots!r}")
    if shots < 0:
        raise ValueError(f"shots must be >= 0, got {shots}")
    if shots > np.iinfo(np.int64).max:
        raise ValueError(f"shots must be <= 2**63 - 1, got {shots}")


def config_keys(cls) -> dict[str, str]:
    """``{config key: field name}`` of the dataclass ``cls``: a field's key is
    its ``key`` metadata if it has one, else its name."""
    return {f.metadata.get("key", f.name): f.name for f in dataclasses.fields(cls)}
