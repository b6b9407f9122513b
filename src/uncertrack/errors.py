"""Error taxonomy: configuration/precondition problems vs numerical failures.

``ConfigError`` lives here; ``NumericsError`` comes from the numerics package.
"""

from __future__ import annotations

import math
from numbers import Integral, Real

__all__ = ["ConfigError", "check_fields"]


class ConfigError(Exception):
    """Bad configuration, violated precondition, or malformed input file."""


def _integer(value) -> bool:
    return isinstance(value, Integral) and not isinstance(value, bool)


def _finite(value) -> bool:
    return (isinstance(value, Real) and not isinstance(value, bool)
            and math.isfinite(value))


# what a field must be -> the test of its value
_RULES = {
    "an integer": _integer,
    "a bool": lambda v: isinstance(v, bool),
    "a positive integer": lambda v: _integer(v) and v > 0,
    "a non-negative integer": lambda v: _integer(v) and v >= 0,
    "a positive finite number": lambda v: _finite(v) and v > 0,
    "a non-negative finite number": lambda v: _finite(v) and v >= 0,
    "in [0, 1]": lambda v: _finite(v) and 0 <= v <= 1,
    "in (0, 1)": lambda v: _finite(v) and 0 < v < 1,
}


def check_fields(config, rule: str, names: tuple[str, ...]) -> None:
    """Raise ``ConfigError`` naming the class, the field and the value of the
    first of ``config``'s fields ``names`` that is not ``rule`` (a key of
    ``_RULES``, e.g. ``"a positive integer"``)."""
    test = _RULES[rule]
    for name in names:
        value = getattr(config, name)
        if not test(value):
            raise ConfigError(f"{type(config).__name__}.{name} must be "
                              f"{rule}, got {value!r}")
