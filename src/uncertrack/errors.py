"""Error taxonomy: configuration/precondition problems vs numerical failures.

``ConfigError`` lives here; ``NumericsError`` comes from the numerics package.
"""

from __future__ import annotations

import math
from numbers import Integral, Real

__all__ = ["ConfigError", "check_fields", "check_value"]


class ConfigError(Exception):
    """Bad configuration, violated precondition, or malformed input file."""


def _integer(value) -> bool:
    return isinstance(value, Integral) and not isinstance(value, bool)


def _finite(value) -> bool:
    try:
        return (isinstance(value, Real) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:  # an integer beyond float range
        return False


# what a field must be -> the test of its value
_RULES = {
    "an integer": _integer,
    "a 64-bit integer": lambda v: _integer(v) and -2 ** 63 <= v < 2 ** 63,
    "a bool": lambda v: isinstance(v, bool),
    "a positive integer": lambda v: _integer(v) and v > 0,
    "a non-negative integer": lambda v: _integer(v) and v >= 0,
    "a positive finite number": lambda v: _finite(v) and v > 0,
    "a non-negative finite number": lambda v: _finite(v) and v >= 0,
    "a finite real number": _finite,
    "in [0, 1]": lambda v: _finite(v) and 0 <= v <= 1,
    "in (0, 1)": lambda v: _finite(v) and 0 < v < 1,
}


def check_value(label: str, rule: str, value):
    """``value`` if it is ``rule`` (a key of ``_RULES``, e.g. ``"a positive
    integer"``), else raise ``ConfigError`` naming ``label`` and the value."""
    if not _RULES[rule](value):
        raise ConfigError(f"{label} must be {rule}, got {value!r}")
    return value


def check_fields(config, rule: str, names: tuple[str, ...]) -> None:
    """Check each of ``config``'s fields ``names`` with :func:`check_value`,
    labelled ``Class.field``."""
    for name in names:
        check_value(f"{type(config).__name__}.{name}", rule,
                    getattr(config, name))
