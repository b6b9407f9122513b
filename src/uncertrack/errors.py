"""Error taxonomy: configuration/precondition problems vs numerical failures.

``ConfigError`` lives here; ``NumericsError`` comes from the numerics package.
"""

from __future__ import annotations

__all__ = ["ConfigError"]


class ConfigError(Exception):
    """Bad configuration, violated precondition, or malformed input file."""
