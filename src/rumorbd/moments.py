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

At ``t = 0`` both variances vanish, so the correlation is reported as its
analytic ``t -> 0+`` limit ``-sqrt(mu(0)/(lam(0) + mu(0)))`` with the
``corr_is_limit`` flag set, and the dispersion index as its limit ``1 - 1/j``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from . import proportional as prop
from ._ode import moment_state, moment_states
from .errors import DomainError, NumericsError, check_j, check_time
from .rates import ConstantMu, RateFamily

_METHODS = ("auto", "closed", "ode")


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


# ===== ODE route ==============================================================


def _ode_r_index(j: int, mx: float, my: float, mxy: float) -> float:
    return mxy / (mx * my) if my > 0.0 else 1.0 - 1.0 / j


def _clamp_var(v: float, scale: float) -> float:
    if v < 0.0:
        if v >= -1e-12 * max(1.0, scale):
            return 0.0
        raise NumericsError(f"variance assembly lost all precision ({v})")
    return v


# ===== Individual moments =====================================================


def mean_x(rates: RateFamily, j: int, t: float, method: str = "auto") -> float:
    """E[X(t)] = j * eta(t)."""
    check_j(j)
    check_time(t)
    how = _resolve(rates, method)
    if how == "closed":
        rho, base = rates.proportional_view()
        return prop.mean_x_prop(rho, base.big_m(t), j)
    return moment_state(rates, j, t)[0]


def var_x(rates: RateFamily, j: int, t: float, method: str = "auto") -> float:
    """Var X(t)."""
    check_j(j)
    check_time(t)
    how = _resolve(rates, method)
    if how == "closed":
        rho, base = rates.proportional_view()
        return prop.var_x_prop(rho, base.big_m(t), j)
    mx, m2x, *_ = moment_state(rates, j, t)
    return _clamp_var(m2x - mx * mx, m2x)


def mean_y(rates: RateFamily, j: int, t: float, method: str = "auto") -> float:
    """E[Y(t)] = j * (phi_y - eta + 1)."""
    check_j(j)
    check_time(t)
    how = _resolve(rates, method)
    if how == "closed":
        rho, base = rates.proportional_view()
        return prop.mean_y_prop(rho, base.big_m(t), j)
    return moment_state(rates, j, t)[2]


def second_moment_y(rates: RateFamily, j: int, t: float, method: str = "auto") -> float:
    """E[Y(t)^2]."""
    check_j(j)
    check_time(t)
    how = _resolve(rates, method)
    if how == "closed":
        rho, base = rates.proportional_view()
        return prop.m2_y_prop(rho, base.big_m(t), j)
    return moment_state(rates, j, t)[4]


def mixed_moment(rates: RateFamily, j: int, t: float, method: str = "auto") -> float:
    """E[X(t) Y(t)] = m_X(t) * gamma(t; j)."""
    check_j(j)
    check_time(t)
    how = _resolve(rates, method)
    if how == "closed":
        rho, base = rates.proportional_view()
        return prop.mixed_moment_prop(rho, base.big_m(t), j)
    return moment_state(rates, j, t)[3]


def cov_corr(
    rates: RateFamily, j: int, t: float, method: str = "auto"
) -> tuple[float, float]:
    """(Cov, Corr) of ``(X(t), Y(t))``.

    At ``t = 0`` both variances vanish; the covariance is 0 and the
    correlation is reported as its analytic limit
    ``-sqrt(mu(0)/(lam(0)+mu(0)))``.
    """
    check_j(j)
    check_time(t)
    if t == 0.0:
        return 0.0, _corr_zero_limit(rates)
    how = _resolve(rates, method)
    if how == "closed":
        rho, base = rates.proportional_view()
        m = base.big_m(t)
        if m == 0.0:
            return 0.0, _corr_zero_limit(rates)
        return prop.cov_prop(rho, m, j), prop.corr_prop(rho, m, j)
    rep = _ode_report(rates, j, t, moment_state(rates, j, t))
    return rep.cov, rep.corr


def r_index(rates: RateFamily, j: int, t: float, method: str = "auto") -> float:
    """Dispersion index ``gamma(t; j) / m_Y(t)``; limit ``1 - 1/j`` at t = 0."""
    check_j(j)
    check_time(t)
    if t == 0.0:
        return 1.0 - 1.0 / j
    how = _resolve(rates, method)
    if how == "closed":
        rho, base = rates.proportional_view()
        return prop.r_index_prop(rho, base.big_m(t), j)
    mx, _, my, mxy, *_ = moment_state(rates, j, t)
    return _ode_r_index(j, mx, my, mxy)


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


def _assemble_report(
    t: float,
    j: int,
    m_x_: float,
    m_y_: float,
    var_x_: float,
    var_y_: float,
    m2_y_: float,
    m_xy_: float,
    cov_: float,
    corr_: float,
    r_: float,
    corr_is_limit: bool,
) -> MomentReport:
    fano_x_ = var_x_ / m_x_ if m_x_ > 0.0 else 0.0
    cv_x_ = math.sqrt(var_x_) / m_x_ if m_x_ > 0.0 else 0.0
    if m_y_ > 0.0:
        fano_y_ = var_y_ / m_y_
        cv_y_ = math.sqrt(var_y_) / m_y_
    else:
        fano_y_, cv_y_ = 1.0, math.inf
    return MomentReport(
        t=t, j=j, m_x=m_x_, m_y=m_y_, var_x=var_x_, var_y=var_y_, m2_y=m2_y_,
        m_xy=m_xy_, cov=cov_, corr=corr_, fano_x=fano_x_, fano_y=fano_y_,
        cv_x=cv_x_, cv_y=cv_y_, r_index=r_, corr_is_limit=corr_is_limit,
    )


def report_from_prop(rho: float, big_m_value: float, j: int, t: float) -> MomentReport:
    """Full moment report from the closed kernels at one cumulative intensity."""
    check_j(j)
    if big_m_value == 0.0:
        return _assemble_report(
            t, j, float(j), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
            -1.0 / math.sqrt(1.0 + rho), 1.0 - 1.0 / j, True,
        )
    m = big_m_value
    return _assemble_report(
        t, j,
        prop.mean_x_prop(rho, m, j),
        prop.mean_y_prop(rho, m, j),
        prop.var_x_prop(rho, m, j),
        prop.var_y_prop(rho, m, j),
        prop.m2_y_prop(rho, m, j),
        prop.mixed_moment_prop(rho, m, j),
        prop.cov_prop(rho, m, j),
        prop.corr_prop(rho, m, j),
        prop.r_index_prop(rho, m, j),
        False,
    )


def _ode_report(rates: RateFamily, j: int, t: float, state: list[float]) -> MomentReport:
    mx, m2x, my, mxy, m2y, *_ = state
    vx = _clamp_var(m2x - mx * mx, m2x)
    vy = _clamp_var(m2y - my * my, m2y)
    cov = mxy - mx * my
    if vx > 0.0 and vy > 0.0:
        corr = cov / (math.sqrt(vx) * math.sqrt(vy))
        corr_is_limit = False
    else:
        corr = _corr_zero_limit(rates)
        corr_is_limit = True
    r_ = _ode_r_index(j, mx, my, mxy)
    return _assemble_report(t, j, mx, my, vx, vy, m2y, mxy, cov, corr, r_, corr_is_limit)


def moment_report(rates: RateFamily, j: int, t, method: str = "auto"):
    """Everything :class:`MomentReport` carries, via one consistent route.

    ``t`` is one time, giving one report, or a nondecreasing sequence of
    times, giving a list of reports.  On the ODE route a sequence costs one
    solve to its last time.
    """
    check_j(j)
    scalar = np.ndim(t) == 0
    times = [t] if scalar else list(t)
    for i, ti in enumerate(times):
        check_time(ti)
        if i and ti < times[i - 1]:
            raise DomainError(f"times must be nondecreasing, got {ti} after {times[i - 1]}")
    how = _resolve(rates, method)
    if how == "closed":
        rho, base = rates.proportional_view()
        reports = [report_from_prop(rho, base.big_m(ti), j, ti) for ti in times]
    else:
        states = moment_states(rates, j, times) if times else []
        reports = [_ode_report(rates, j, ti, y) for ti, y in zip(times, states)]
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
    if isinstance(base, ConstantMu):
        return m_thr / base.mu
    t_hi = 1.0
    for _ in range(80):
        if base.big_m(t_hi) >= m_thr:
            break
        t_hi *= 2.0
        if t_hi > 1e18:
            return None  # cumulative intensity saturates below the threshold
    else:
        return None
    return float(
        brentq(lambda s: base.big_m(s) - m_thr, 0.0, t_hi, xtol=1e-12, rtol=8.9e-16)
    )
