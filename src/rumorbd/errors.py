"""Exception hierarchy for the rumor birth-death toolkit.

Three semantic classes, mapped to CLI exit codes by ``rumorbd.cli``:

* :class:`DomainError`   -- a request outside the model's domain (bad parameters,
  preconditions violated).  CLI exit code 2.
* :class:`NumericsError` -- a computation that cannot be completed to tolerance
  (truncation leak too large, root bracketing failed, an ODE state that left
  the float range).  CLI exit code 3.
* :class:`DataError`     -- malformed user-supplied data (CSV schema, grids,
  observation sequences).  CLI exit code 4.

The argument checkers every module shares sit next to the class they raise.
"""

from __future__ import annotations

import math

import numpy as np


class RumorBDError(Exception):
    """Base class for all toolkit errors."""


class DomainError(RumorBDError, ValueError):
    """Parameters or arguments outside the model's domain."""


class NumericsError(RumorBDError, ArithmeticError):
    """A numerical procedure failed to reach its guaranteed tolerance."""


class DataError(RumorBDError, ValueError):
    """User-supplied data is malformed or inconsistent."""


def check_int(name: str, value, lo: int) -> None:
    """``value`` an integer (a bool is not one) and ``>= lo``."""
    if not isinstance(value, int) or isinstance(value, bool) or value < lo:
        raise DomainError(f"{name} must be an integer >= {lo}, got {value!r}")


def check_j(j: int) -> None:
    check_int("initial spreader count", j, 1)


def check_time(t, name: str = "time") -> None:
    """``t`` (a real or operational time) finite and >= 0; an array is checked
    in one vector pass."""
    if isinstance(t, (int, float)):
        if not (t >= 0.0 and math.isfinite(t)):
            raise DomainError(f"{name} must be finite and >= 0, got {t}")
        return
    arr = np.asarray(t, dtype=float)
    bad = ~(np.isfinite(arr) & (arr >= 0.0))
    if bad.any():
        raise DomainError(f"{name} must be finite and >= 0, got {arr[bad][0]}")


def check_times(times) -> None:
    """Each time finite and >= 0, in nondecreasing order; one vector pass."""
    arr = np.asarray(times, dtype=float)
    check_time(arr)
    down = np.flatnonzero(arr[1:] < arr[:-1])
    if down.size:
        i = down[0] + 1
        raise DomainError(f"times must be nondecreasing, got {times[i]} after {times[i - 1]}")


def check_positive(name: str, value: float) -> None:
    if not (value > 0.0 and math.isfinite(value)):
        raise DomainError(f"{name} must be positive and finite, got {value}")


def check_z(name: str, z: float) -> None:
    if not (-1.0 <= z <= 1.0):
        raise DomainError(f"{name} must lie in [-1, 1], got {z}")


def check_final_count(j: int, k: int) -> None:
    check_int("inactive count k", k, 0)
    if k < j:
        raise DomainError(
            f"final inactive count k={k} is unreachable from j={j} (needs k >= j)"
        )


def converted(value, kind, what: str):
    """``kind(value)``; a value that does not convert raises :class:`DataError`
    naming ``what``.  Nothing is truncated or read by truthiness: a bool
    converts only to ``bool``, ``bool`` takes only a bool, and ``int`` takes
    no fractional number."""
    message = f"{what} must be {kind.__name__}, got {value!r}"
    if isinstance(value, bool) != (kind is bool) or (
        kind is int and isinstance(value, float) and not value.is_integer()
    ):
        raise DataError(message)
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise DataError(message) from exc


def config_field(cfg: dict, key: str, what: str, kind=float, default=None):
    """``cfg[key]`` (``default`` when absent) converted by ``kind``; a missing key
    with no default, or a value that does not convert, raises :class:`DataError`
    naming the key."""
    if key not in cfg and default is None:
        raise DataError(f"{what} is missing {key!r}")
    return converted(cfg.get(key, default), kind, f"{what}: {key!r}")
