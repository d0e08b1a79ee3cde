"""Exact moments, dispersion indices and the spreader/inactive crossing time.

Two independent computation routes are provided and cross-checked in tests:

* the **closed** route, available for constant/proportional rate families,
  evaluates the kernel formulas of :mod:`rumorbd.proportional` at
  ``M = int_0^t mu``;
* the **ode** route reads the moment engine of :mod:`rumorbd._ode`, which
  integrates the moment differential system implied by the master equation
  directly (valid for any rate family)::

      m_X'   = (lam - mu) m_X
      m2_X'  = (lam + mu) m_X + 2 (lam - mu) m2_X
      m_Y'   = mu m_X
      m_XY'  = (lam - mu) m_XY + mu (m2_X - m_X)
      m2_Y'  = mu (2 m_XY + m_X)

  and derives the dispersion index as ``r = m_XY / (m_X m_Y)``.  A scalar
  accessor solves to its own ``t``; :func:`moment_report` over a grid makes
  one solve for the whole grid.  Nothing is cached between calls.

On the closed route a grid is one vector evaluation: ``M`` at every time,
then each closed form once over the whole ``M`` array.  One vectorized
assembly turns either route's columns into reports, and a scalar goes
through the same code, so a grid report equals the scalar reports of its
times bit for bit.

At ``t = 0`` both variances vanish, so the correlation is reported as its
analytic ``t -> 0+`` limit ``-sqrt(mu(0)/(lam(0) + mu(0)))`` with the
``corr_is_limit`` flag set, and the dispersion index as its limit ``1 - 1/j``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import proportional as prop
from ._ode import moment_states
from .errors import DomainError, check_j, check_times
from .rates import RateFamily, first_passage

_METHODS = ("auto", "closed", "ode")
_VAR_LOST = "variance assembly lost all precision ({})"


@dataclass(frozen=True, slots=True)
class MomentReport:
    """All first/second-order summaries of ``(X(t), Y(t))`` at one time."""

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


def _resolve(rates: RateFamily, method: str) -> str:
    if method not in _METHODS:
        raise DomainError(f"unknown moment method {method!r}")
    view = rates.proportional_view()
    if method == "closed" and view is None:
        raise DomainError("closed moments need a constant or proportional family")
    if method == "auto":
        return "closed" if view is not None else "ode"
    return method


def _corr_zero_limit(rates: RateFamily) -> float:
    view = rates.proportional_view()
    if view is not None:
        return -1.0 / math.sqrt(1.0 + view[0])
    lam0, mu0 = rates.lam_at(0.0), rates.mu_at(0.0)
    tot = lam0 + mu0
    return -math.sqrt(mu0 / tot) if tot > 0.0 else math.nan


# ===== Individual moments =====================================================
# On the closed route an accessor is the one ``prop`` function it needs, at
# M(t); on the ODE route it reads one field of the report.  Either way it runs
# the code of the grid rows, so accessors and grid reports agree bit for bit.


def _field(prop_fn, name: str, rates, j: int, t: float, method: str, at_zero=None) -> float:
    """``prop_fn(rho, M(t), j)`` on the closed route, ``at_zero`` instead where
    M(t) = 0 if one is given; the report's ``name`` on the ODE route."""
    check_j(j)
    if _resolve(rates, method) == "ode":
        return getattr(moment_report(rates, j, t, method), name)
    rho, base = rates.proportional_view()
    m = base.big_m(t)
    return at_zero if m == 0.0 and at_zero is not None else prop_fn(rho, m, j)


def mean_x(rates: RateFamily, j: int, t: float, method: str = "auto") -> float:
    """E[X(t)] = j * eta(t)."""
    return _field(prop.mean_x_prop, "m_x", rates, j, t, method)


def var_x(rates: RateFamily, j: int, t: float, method: str = "auto") -> float:
    """Var X(t)."""
    return _field(prop.var_x_prop, "var_x", rates, j, t, method)


def mean_y(rates: RateFamily, j: int, t: float, method: str = "auto") -> float:
    """E[Y(t)] = j * (phi_y - eta + 1)."""
    return _field(prop.mean_y_prop, "m_y", rates, j, t, method)


def second_moment_y(rates: RateFamily, j: int, t: float, method: str = "auto") -> float:
    """E[Y(t)^2]."""
    return _field(prop.m2_y_prop, "m2_y", rates, j, t, method)


def mixed_moment(rates: RateFamily, j: int, t: float, method: str = "auto") -> float:
    """E[X(t) Y(t)] = m_X(t) * gamma(t; j)."""
    return _field(prop.mixed_moment_prop, "m_xy", rates, j, t, method)


def cov_corr(
    rates: RateFamily, j: int, t: float, method: str = "auto"
) -> tuple[float, float]:
    """(Cov, Corr) of ``(X(t), Y(t))``.

    At ``t = 0`` both variances vanish; the covariance is 0 and the
    correlation is reported as its analytic limit
    ``-sqrt(mu(0)/(lam(0)+mu(0)))``.
    """
    if _resolve(rates, method) == "ode":
        rep = moment_report(rates, j, t, method)
        return rep.cov, rep.corr
    corr = _field(prop.corr_prop, "corr", rates, j, t, method, _corr_zero_limit(rates))
    return _field(prop.cov_prop, "cov", rates, j, t, method), corr


def r_index(rates: RateFamily, j: int, t: float, method: str = "auto") -> float:
    """Dispersion index ``gamma(t; j) / m_Y(t)``; limit ``1 - 1/j`` at t = 0."""
    check_j(j)
    return _field(prop.r_index_prop, "r_index", rates, j, t, method, 1.0 - 1.0 / j)


def fano_cv(
    rates: RateFamily, j: int, t: float, method: str = "auto"
) -> tuple[float, float, float, float]:
    """(Fano_X, CV_X, Fano_Y, CV_Y).

    At ``t = 0`` the X-pair is exactly 0 and the Y-pair is reported as its
    ``t -> 0+`` limits (Fano_Y -> 1, CV_Y -> oo).
    """
    rep = moment_report(rates, j, t, method)
    return rep.fano_x, rep.cv_x, rep.fano_y, rep.cv_y


# ===== Bundled report =========================================================


def _assemble(times, j: int, cols: dict, corr_is_limit) -> list[MomentReport]:
    """One report per time from ``prop.REPORT_COLUMNS``, adding fano and cv."""
    m_x, m_y, var_x_, var_y_ = (np.asarray(cols[k]) for k in ("m_x", "m_y", "var_x", "var_y"))
    with np.errstate(all="ignore"):
        fano_x = np.where(m_x > 0.0, var_x_ / m_x, 0.0)
        cv_x = np.where(m_x > 0.0, np.sqrt(var_x_) / m_x, 0.0)
        fano_y = np.where(m_y > 0.0, var_y_ / m_y, 1.0)
        cv_y = np.where(m_y > 0.0, np.sqrt(var_y_) / m_y, math.inf)
    columns = (
        m_x, m_y, var_x_, var_y_, cols["m2_y"], cols["m_xy"], cols["cov"], cols["corr"],
        fano_x, fano_y, cv_x, cv_y, cols["r_index"], corr_is_limit,
    )
    rows = zip(times, *(np.atleast_1d(c).tolist() for c in columns))
    return [MomentReport(t, j, *row) for t, *row in rows]


def report_from_prop(rho: float, big_m_value, j: int, t):
    """Full moment report from the closed kernels.

    ``big_m_value`` is one cumulative intensity, giving one report at time
    ``t``, or an array of them paired with the sequence of times ``t``,
    giving a list.  Where M = 0 the moments are exact, the correlation is
    reported as its limit ``-1/sqrt(1 + rho)`` and ``r`` as ``1 - 1/j``.
    """
    check_j(j)
    scalar = np.ndim(big_m_value) == 0
    cols = prop.report_columns_prop(rho, big_m_value, j)
    at_zero = np.asarray(big_m_value) == 0.0
    cols["corr"] = np.where(at_zero, -1.0 / math.sqrt(1.0 + rho), cols["corr"])
    cols["r_index"] = np.where(at_zero, 1.0 - 1.0 / j, cols["r_index"])
    reports = _assemble([t] if scalar else t, j, cols, at_zero)
    return reports[0] if scalar else reports


def _ode_reports(rates: RateFamily, j: int, times, states: np.ndarray) -> list[MomentReport]:
    mx, m2x, my, mxy, m2y = states[:, :5].T
    vx = prop.clamp_variance(m2x - mx * mx, m2x, _VAR_LOST)
    vy = prop.clamp_variance(m2y - my * my, m2y, _VAR_LOST)
    cov = mxy - mx * my
    limit = ~((vx > 0.0) & (vy > 0.0))
    with np.errstate(all="ignore"):
        corr = cov / (np.sqrt(vx) * np.sqrt(vy))
        r = np.where(my > 0.0, mxy / (mx * my), 1.0 - 1.0 / j)
    if limit.any():
        corr = np.where(limit, _corr_zero_limit(rates), corr)
    cols = dict(m_x=mx, m_y=my, var_x=vx, var_y=vy, m2_y=m2y, m_xy=mxy, cov=cov, corr=corr,
                r_index=r)
    return _assemble(times, j, cols, limit)


def moment_report(rates: RateFamily, j: int, t, method: str = "auto"):
    """Everything :class:`MomentReport` carries, via one consistent route.

    ``t`` is one time, giving one report, or a nondecreasing sequence of
    times, giving a list of reports.  On the closed route a sequence is one
    vector evaluation; on the ODE route, one solve to its last time.
    """
    check_j(j)
    scalar = np.ndim(t) == 0
    times = [t] if scalar else list(t)
    check_times(times)
    how = _resolve(rates, method)
    if not times:
        return []
    if how == "closed":
        rho, base = rates.proportional_view()
        reports = report_from_prop(rho, base.big_m(times), j, times)
    else:
        reports = _ode_reports(rates, j, times, moment_states(rates, j, times))
    return reports[0] if scalar else reports


# ===== Crossing time ==========================================================


def crossing_time(rates: RateFamily, j: int) -> float | None:
    """First time with ``m_X(t) = m_Y(t)``, or None when no crossing exists.

    Requires a constant or proportional family.  The crossing condition is
    ``M(t) = -log(2 - rho)/(rho - 1)`` — independent of ``j`` (the argument is
    kept for interface symmetry).  There is no crossing when ``rho >= 2``.
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
    return first_passage(base, m_thr)
