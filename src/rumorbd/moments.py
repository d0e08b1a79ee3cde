"""Exact moments, dispersion indices and the spreader/inactive crossing time.

Two independent computation routes are provided and cross-checked in tests:

* the **closed** route, available for constant/proportional rate families,
  evaluates the kernel formulas of :mod:`rumorbd.proportional` at
  ``M = int_0^t mu``;
* the **ode** route reads the moment engine of :mod:`rumorbd._ode`, which
  integrates the moment differential system implied by the master equation
  directly (valid for any rate family) with LSODA::

      m_X'   = (lam - mu) m_X
      m2_X'  = (lam + mu) m_X + 2 (lam - mu) m2_X
      m_Y'   = mu m_X
      m_XY'  = (lam - mu) m_XY + mu (m2_X - m_X)
      m2_Y'  = mu (2 m_XY + m_X)

  and derives the dispersion index as ``r = m_XY / (m_X m_Y)``.
  :func:`moment_report` makes one solve to the last time of its grid and
  evaluates no rate past that time.  Nothing is cached between calls.

On the closed route a grid is one vector evaluation: ``M`` at every time,
then each closed form once over the whole ``M`` array.  One vectorized
assembly turns either route's columns into one :class:`MomentReport`: of
floats for one time, of arrays over a grid.  A scalar goes through the same
code, so column ``i`` of a closed grid report equals the scalar report at
``t_i`` bit for bit.

At ``t = 0`` both variances vanish, so the correlation is reported as its
analytic ``t -> 0+`` limit ``-sqrt(mu(0)/(lam(0) + mu(0)))`` with the
``corr_is_limit`` flag set, and the dispersion index as its limit
``(j - 1)/j``, correctly rounded on both routes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import proportional as prop
from ._ode import moment_states
from .errors import DomainError, check_j, check_times
from .rates import RateFamily, first_passage, resolve_method

_VAR_LOST = "variance assembly lost all precision ({})"


@dataclass(frozen=True, slots=True)
class MomentReport:
    """All first/second-order summaries of ``(X(t), Y(t))``.

    At one time every field is a float (``corr_is_limit`` a bool); over a
    sequence of times ``t`` and every other field but ``j`` are numpy arrays
    over it, ``corr_is_limit`` a bool array, so two grid reports are compared
    column by column rather than with ``==``.
    """

    t: float
    j: int
    m_x: float
    m_y: float
    var_x: float
    var_y: float
    m2_y: float
    m_xy: float
    cov: float
    corr: float
    fano_x: float
    fano_y: float
    cv_x: float
    cv_y: float
    r_index: float
    corr_is_limit: bool = False


def _corr_zero_limit(rates: RateFamily) -> float:
    view = rates.proportional_view()
    if view is not None:
        return -1.0 / math.sqrt(1.0 + view[0])
    lam0, mu0 = rates.lam_at(0.0), rates.mu_at(0.0)
    tot = lam0 + mu0
    return -math.sqrt(mu0 / tot) if tot > 0.0 else math.nan


# ===== Bundled report =========================================================


def _assemble(t, j: int, *columns) -> MomentReport:
    """The report from its columns, in field order after ``j``: floats for
    one time ``t``, the columns themselves for a sequence of times."""
    if np.ndim(t) == 0:
        return MomentReport(t, j, *(np.asarray(c).item() for c in columns))
    return MomentReport(np.asarray(t, dtype=float), j, *map(np.asarray, columns))


def report_from_prop(rho: float, big_m_value, j: int, t) -> MomentReport:
    """Full moment report from the closed kernels.

    ``big_m_value`` is one cumulative intensity at time ``t``, or an array
    of them paired with the sequence of times ``t``, giving columns.  The
    dispersion columns are the evaluator's kernel ratios (see
    :mod:`rumorbd.proportional` for where they stay finite); a raw moment
    past the float range reads +inf.
    Where M = 0 the moments are exact, the correlation is reported as its
    limit ``-1/sqrt(1 + rho)``, ``fano_y`` is 1, ``cv_y`` is inf and ``r``
    is the evaluator's ``(j - 1)/j``.
    """
    f = prop._forms(rho, big_m_value, j)
    at_zero = f.m == 0.0
    with np.errstate(all="ignore"):
        return _assemble(
            t, j, f.m_x, f.m_y, f.var_x, f.var_y, f.m2_y, f.m_xy, f.cov,
            np.where(at_zero, -1.0 / math.sqrt(1.0 + rho), f.corr),
            f.fano_x, f.fano_y, f.cv_x, f.cv_y, f.r_index, at_zero,
        )


def _ode_report(rates: RateFamily, j: int, t) -> MomentReport:
    mx, m2x, my, mxy, m2y = moment_states(rates, j, np.atleast_1d(t))[:, :5].T
    vx = prop.clamp_variance(m2x - mx * mx, m2x, _VAR_LOST)
    vy = prop.clamp_variance(m2y - my * my, m2y, _VAR_LOST)
    cov = mxy - mx * my
    limit = ~((vx > 0.0) & (vy > 0.0))
    # the solve raises before its state overflows, so ratios of the raw
    # moments are safe here
    with np.errstate(all="ignore"):
        corr = cov / (np.sqrt(vx) * np.sqrt(vy))
        r = np.where(my > 0.0, mxy / (mx * my), (j - 1) / j)
        fano_x = np.where(mx > 0.0, vx / mx, 0.0)
        cv_x = np.where(mx > 0.0, np.sqrt(vx) / mx, 0.0)
        fano_y = np.where(my > 0.0, vy / my, 1.0)
        cv_y = np.where(my > 0.0, np.sqrt(vy) / my, math.inf)
    if limit.any():
        corr = np.where(limit, _corr_zero_limit(rates), corr)
    return _assemble(
        t, j, mx, my, vx, vy, m2y, mxy, cov, corr, fano_x, fano_y, cv_x, cv_y, r, limit
    )


def moment_report(rates: RateFamily, j: int, t, method: str = "auto") -> MomentReport:
    """Everything :class:`MomentReport` carries, via one consistent route.

    ``t`` is one time, giving floats, or a nondecreasing sequence of times,
    giving columns over it.  On the closed route a sequence is one vector
    evaluation; on the ODE route, one solve to its last time.  A last time
    past the family's validity window raises :class:`DomainError`.
    """
    check_j(j)
    times = np.atleast_1d(t)
    check_times(times)
    if times.size:
        rates.validate_horizon(float(times[-1]))
    if resolve_method(rates, method) == "ode":
        return _ode_report(rates, j, t)
    rho, base = rates.proportional_view()
    return report_from_prop(rho, base.big_m(t), j, t)


# ===== Crossing time ==========================================================


def crossing_time(rates: RateFamily, j: int) -> float | None:
    """First time with ``m_X(t) = m_Y(t)``, or None when no crossing exists.

    Requires a constant or proportional family.  The crossing condition is
    ``M(t) = -log(2 - rho)/(rho - 1)`` — independent of ``j`` (the argument is
    kept for interface symmetry).  There is no crossing when ``rho >= 2``, nor
    when ``M`` stays below the threshold up to the profile's validity end.
    Non-invertible cumulative intensities are handled by root bracketing.
    """
    check_j(j)
    view = rates.proportional_view()
    if view is None:
        raise DomainError("crossing time needs a constant or proportional family")
    rho, base = view
    m_thr = prop.crossing_m_threshold(rho)
    if math.isinf(m_thr):
        return None
    return first_passage(base, m_thr, hi=base.validity_end())
