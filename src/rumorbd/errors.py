"""Exception hierarchy for the rumor birth-death toolkit.

Three semantic classes, mapped to CLI exit codes by ``rumorbd.cli``:

* :class:`DomainError`   -- a request outside the model's domain (bad parameters,
  preconditions violated).  CLI exit code 2.
* :class:`NumericsError` -- a computation that cannot be completed to tolerance
  (truncation leak too large, root bracketing failed, overflow without a
  log-scaled escape hatch).  CLI exit code 3.
* :class:`DataError`     -- malformed user-supplied data (CSV schema, grids,
  observation sequences).  CLI exit code 4.

The argument checkers every module shares sit next to the class they raise.
"""

from __future__ import annotations

import math


class RumorBDError(Exception):
    """Base class for all toolkit errors."""


class DomainError(RumorBDError, ValueError):
    """Parameters or arguments outside the model's domain."""


class NumericsError(RumorBDError, ArithmeticError):
    """A numerical procedure failed to reach its guaranteed tolerance."""


class DataError(RumorBDError, ValueError):
    """User-supplied data is malformed or inconsistent."""


def check_j(j: int) -> None:
    if not isinstance(j, int) or isinstance(j, bool) or j < 1:
        raise DomainError(f"initial spreader count must be an integer >= 1, got {j!r}")


def check_time(t: float) -> None:
    if not (t >= 0.0 and math.isfinite(t)):
        raise DomainError(f"time must be finite and >= 0, got {t}")


def check_times(times: list[float]) -> None:
    """Each time finite and >= 0, in nondecreasing order."""
    for i, t in enumerate(times):
        check_time(t)
        if i and t < times[i - 1]:
            raise DomainError(f"times must be nondecreasing, got {t} after {times[i - 1]}")


def check_positive(name: str, value: float) -> None:
    if not (value > 0.0 and math.isfinite(value)):
        raise DomainError(f"{name} must be positive and finite, got {value}")


def check_z(name: str, z: float) -> None:
    if not (-1.0 <= z <= 1.0):
        raise DomainError(f"{name} must lie in [-1, 1], got {z}")


def check_final_count(j: int, k: int) -> None:
    if not isinstance(k, int) or isinstance(k, bool):
        raise DomainError(f"inactive count k must be an integer, got {k!r}")
    if k < j:
        raise DomainError(
            f"final inactive count k={k} is unreachable from j={j} (needs k >= j)"
        )
