"""Proportional-rates closed forms: everything as a function of ``(rho, M, j)``.

When ``lam(t) = rho * mu(t)`` the process is a deterministic time change of the
constant-rate chain: with ``M(t) = int_0^t mu`` every distributional quantity
depends on ``t`` only through ``M(t)``.  Writing ``x = (rho - 1) M`` and using
the kernels of :mod:`rumorbd._kernels`::

    m_X    = j e^x
    Var_X  = j (rho + 1) e^x M f1(x)
    m_Y    = j M f1(x)                       # = j (e^x - 1)/(rho - 1)
    m2_Y   = j [ G1 + 4 G3 + 2 (j-1) G4 ]
    gamma  = (j-1) G1 + 2 G2
    m_XY   = m_X * gamma
    Cov    = m_X * (gamma - m_Y)
    r      = gamma / m_Y = 1 - 1/j + (2 rho M / j) * (1 - x/(e^x - 1))/x

with ``G1 = M f1(x)``, ``G2 = rho M^2 f2(x)``, ``G3 = rho M^3 h3(x)``,
``G4 = M^2 g4(x)``.  The balanced case ``rho = 1`` is the point ``x = 0`` of
the same formulas — no separate branch exists anywhere in this module.

The p.g.f. and absorption functionals are the constant-rate ones under the
substitution ``lam t -> rho M``, ``mu t -> M``; they are implemented here
independently in ``(rho, M)`` variables (the constant-rate module serves as a
cross-check, not as a backend).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import homogeneous
from ._kernels import (
    f1,
    f2,
    g4,
    h3,
    log_f1,
    log_f2,
    log_g4,
    log_h3,
    one_minus_q_over_x,
)
from .errors import DomainError, NumericsError, check_j

_CONFLUENT_REL_DISC = 1e-18
_LINEAR_LIMIT = 1e300


def _check_rho(rho: float) -> None:
    if not (rho > 0.0 and math.isfinite(rho)):
        raise DomainError(f"rate ratio rho must be positive and finite, got {rho}")


def _check_big_m(big_m_value: float) -> None:
    if not (big_m_value >= 0.0 and math.isfinite(big_m_value)):
        raise DomainError(
            f"cumulative forgetting intensity M must be finite and >= 0, got {big_m_value}"
        )


def _exp_guarded(x: float) -> float:
    return math.exp(x) if x < 709.0 else math.inf


# ===== Probability generating function ========================================


def pgf_prop(rho: float, big_m_value: float, j: int, z1: float, z2: float) -> float:
    """Joint p.g.f. ``E[z1^X z2^Y]`` at cumulative intensity ``M``."""
    _check_rho(rho)
    _check_big_m(big_m_value)
    check_j(j)
    homogeneous._check_z("z1", z1)
    homogeneous._check_z("z2", z2)
    if big_m_value == 0.0:
        return z1**j

    tot = rho + 1.0
    disc = tot * tot - 4.0 * z2 * rho
    if disc / (tot * tot) <= _CONFLUENT_REL_DISC:
        xi = tot / (2.0 * rho)
        g = xi + (z1 - xi) / (1.0 - rho * big_m_value * (z1 - xi))
        return g**j

    s = math.sqrt(disc)
    xi1 = (tot - s) / (2.0 * rho)
    xi2 = (tot + s) / (2.0 * rho)
    # rho * (xi2 - xi1) = s, so the exponential factor is exp(s M); scale it out.
    em = math.exp(-s * big_m_value) if s * big_m_value < 745.0 else 0.0
    num = xi2 * (z1 - xi1) * em - xi1 * (z1 - xi2)
    den = (z1 - xi1) * em - (z1 - xi2)
    return (num / den) ** j


# ===== Absorption =============================================================


def absorption_prop(rho: float, big_m_value: float, j: int) -> float:
    """P(absorbed by the time M(t) reaches ``big_m_value``)."""
    _check_rho(rho)
    _check_big_m(big_m_value)
    check_j(j)
    a = rho - 1.0
    x = a * big_m_value
    if a == 0.0:
        p1 = big_m_value / (1.0 + big_m_value)
    elif x > 350.0:
        w = math.exp(-x) if x < 745.0 else 0.0
        p1 = (1.0 - w) / (rho * (1.0 - w) + a * w)
    else:
        em = math.expm1(x)
        p1 = em / (rho * em + a)
    return p1**j


def absorption_prop_limit(rho: float, m_limit: float, j: int) -> float:
    """Eventual absorption probability when ``M(t) -> m_limit`` (may be inf)."""
    _check_rho(rho)
    check_j(j)
    if math.isinf(m_limit):
        if m_limit < 0:
            raise DomainError("M limit cannot be -inf")
        return rho ** float(-j) if rho > 1.0 else 1.0
    return absorption_prop(rho, m_limit, j)


def p0k_limit_prop(rho: float, j: int, k: int) -> float:
    """Limiting final-inactive-count distribution, assuming ``M(t) -> oo``.

    Identical to the constant-rate law with ``(lam, mu) = (rho, 1)``: the final
    count distribution depends on the rates only through their ratio.  The
    caller is responsible for the premise that the cumulative intensity
    actually diverges.
    """
    _check_rho(rho)
    return homogeneous.p0k_limit(rho, 1.0, j, k)


# ===== Moments ================================================================


def _g_blocks(rho: float, big_m_value: float) -> tuple[float, float, float, float]:
    x = (rho - 1.0) * big_m_value
    m = big_m_value
    g1 = m * f1(x)
    g2 = rho * m * m * f2(x)
    g3 = rho * m * m * m * h3(x)
    g4_ = m * m * g4(x)
    return g1, g2, g3, g4_


def mean_x_prop(rho: float, big_m_value: float, j: int) -> float:
    _check_rho(rho)
    _check_big_m(big_m_value)
    check_j(j)
    return j * _exp_guarded((rho - 1.0) * big_m_value)


def var_x_prop(rho: float, big_m_value: float, j: int) -> float:
    _check_rho(rho)
    _check_big_m(big_m_value)
    check_j(j)
    x = (rho - 1.0) * big_m_value
    return j * (rho + 1.0) * _exp_guarded(x) * big_m_value * f1(x)


def mean_y_prop(rho: float, big_m_value: float, j: int) -> float:
    _check_rho(rho)
    _check_big_m(big_m_value)
    check_j(j)
    x = (rho - 1.0) * big_m_value
    return j * big_m_value * f1(x)


def m2_y_prop(rho: float, big_m_value: float, j: int) -> float:
    _check_rho(rho)
    _check_big_m(big_m_value)
    check_j(j)
    g1, _, g3, g4_ = _g_blocks(rho, big_m_value)
    return j * (g1 + 4.0 * g3 + 2.0 * (j - 1) * g4_)


def var_y_prop(rho: float, big_m_value: float, j: int) -> float:
    """Var Y = m2_Y - m_Y^2, with a guard for roundoff-negative results.

    The subtraction is benign at moderate scales but can produce a tiny
    negative number near t = 0; anything below -1e-12 (relative to the
    second moment) indicates a genuine numerical failure and raises.
    """
    m2 = m2_y_prop(rho, big_m_value, j)
    my = mean_y_prop(rho, big_m_value, j)
    v = m2 - my * my
    if v < 0.0:
        if v >= -1e-12 * max(1.0, m2):
            return 0.0
        raise NumericsError(
            f"second-moment assembly lost all precision (Var_Y = {v})"
        )
    return v


def gamma_prop(rho: float, big_m_value: float, j: int) -> float:
    _check_rho(rho)
    _check_big_m(big_m_value)
    check_j(j)
    g1, g2, _, _ = _g_blocks(rho, big_m_value)
    return (j - 1) * g1 + 2.0 * g2


def mixed_moment_prop(rho: float, big_m_value: float, j: int) -> float:
    return mean_x_prop(rho, big_m_value, j) * gamma_prop(rho, big_m_value, j)


def cov_prop(rho: float, big_m_value: float, j: int) -> float:
    return mean_x_prop(rho, big_m_value, j) * (
        gamma_prop(rho, big_m_value, j) - mean_y_prop(rho, big_m_value, j)
    )


def corr_prop(rho: float, big_m_value: float, j: int) -> float:
    """Correlation of (X, Y); NaN at M = 0 where both variances vanish."""
    vx = var_x_prop(rho, big_m_value, j)
    vy = var_y_prop(rho, big_m_value, j)
    if vx <= 0.0 or vy <= 0.0:
        return math.nan
    return cov_prop(rho, big_m_value, j) / (math.sqrt(vx) * math.sqrt(vy))


def r_index_prop(rho: float, big_m_value: float, j: int) -> float:
    """Dispersion index gamma/m_Y in the cancellation-free ratio form.

    Equals 1 - 1/j at M = 0 (the kernel value 1/2 makes the second term
    vanish there) and stays exact for M as large as 1e3 and beyond.
    """
    _check_rho(rho)
    _check_big_m(big_m_value)
    check_j(j)
    x = (rho - 1.0) * big_m_value
    return (j - 1.0) / j + (2.0 * rho * big_m_value / j) * one_minus_q_over_x(x)


def crossing_m_threshold(rho: float) -> float:
    """Cumulative intensity at which m_X = m_Y; inf when no crossing exists.

    m_X = m_Y  iff  e^{(rho-1)M} (2 - rho) = 1, so the threshold is
    -log(2 - rho)/(rho - 1) for rho < 2 (value 1 at rho = 1) and there is no
    crossing at all for rho >= 2.  The threshold does not depend on j.
    """
    _check_rho(rho)
    if rho >= 2.0:
        return math.inf
    if rho == 1.0:
        return 1.0
    return -math.log1p(1.0 - rho) / (rho - 1.0)


# ===== Bundled reports ========================================================


@dataclass(frozen=True)
class PropMoments:
    """Moment bundle for the proportional family at one cumulative intensity.

    When ``log_scale`` is True every field except ``r_index`` carries the
    natural logarithm of the quantity (triggered when any value would exceed
    1e300 in linear scale).
    """

    rho: float
    big_m: float
    j: int
    m_x: float
    var_x: float
    m_y: float
    m2_y: float
    m_xy: float
    r_index: float
    log_scale: bool


def _logsumexp(terms: list[float]) -> float:
    top = max(terms)
    if math.isinf(top):
        return top
    return top + math.log(sum(math.exp(v - top) for v in terms))


def moments_prop(rho: float, big_m_value: float, j: int) -> PropMoments:
    """Closed-form moments at cumulative intensity M, overflow-safe.

    Linear-scale values are returned whenever they all fit below 1e300;
    otherwise the computation is redone in the log domain and the report is
    flagged ``log_scale=True``.
    """
    _check_rho(rho)
    _check_big_m(big_m_value)
    check_j(j)
    r_val = r_index_prop(rho, big_m_value, j)

    x = (rho - 1.0) * big_m_value
    if x < 650.0:  # linear attempt is safe to evaluate (no inf intermediates)
        vals = (
            mean_x_prop(rho, big_m_value, j),
            var_x_prop(rho, big_m_value, j),
            mean_y_prop(rho, big_m_value, j),
            m2_y_prop(rho, big_m_value, j),
            mixed_moment_prop(rho, big_m_value, j),
        )
        if all(math.isfinite(v) and abs(v) <= _LINEAR_LIMIT for v in vals):
            return PropMoments(rho, big_m_value, j, *vals, r_val, False)

    # Log-domain assembly (requires x > 0, which is how overflow arises).
    if x <= 0.0:
        raise NumericsError(
            "moment overflow without growth: inconsistent inputs "
            f"(rho={rho}, M={big_m_value})"
        )
    lj = math.log(j)
    lm = math.log(big_m_value)
    log_m_x = lj + x
    log_var_x = lj + math.log(rho + 1.0) + x + lm + log_f1(x)
    log_m_y = lj + lm + log_f1(x)
    m2_terms = [
        lj + lm + log_f1(x),
        math.log(4.0) + lj + math.log(rho) + 3.0 * lm + log_h3(x),
    ]
    if j > 1:
        m2_terms.append(math.log(2.0) + lj + math.log(j - 1.0) + 2.0 * lm + log_g4(x))
    log_m2_y = _logsumexp(m2_terms)
    gamma_terms = [math.log(2.0) + math.log(rho) + 2.0 * lm + log_f2(x)]
    if j > 1:
        gamma_terms.append(math.log(j - 1.0) + lm + log_f1(x))
    log_m_xy = log_m_x + _logsumexp(gamma_terms)
    return PropMoments(
        rho, big_m_value, j, log_m_x, log_var_x, log_m_y, log_m2_y, log_m_xy,
        r_val, True,
    )
