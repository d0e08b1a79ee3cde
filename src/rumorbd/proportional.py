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

The moment functions and :func:`absorption_prop` take ``M`` as a float or an
array; a float gives a float, computed by the same code as an array element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from ._kernels import (
    f1,
    f2,
    g4,
    h3,
    log_f1,
    log_f2,
    log_g4,
    log_h3,
    float_or_array,
    one_minus_q_over_x,
)
from .errors import (
    DomainError, NumericsError, check_final_count, check_j, check_positive, check_time, check_z,
)

_CONFLUENT_REL_DISC = 1e-18
_LINEAR_LIMIT = 1e300


_check_rho = partial(check_positive, "rate ratio rho")
# M(t) is operational time, checked as a time is
_check_big_m = partial(check_time, name="cumulative forgetting intensity M")


def _exp_guarded(x):
    return np.where(x < 709.0, np.exp(x), np.inf)


# ===== Probability generating function ========================================


def pgf_prop(rho: float, big_m_value: float, j: int, z1: float, z2: float) -> float:
    """Joint p.g.f. ``E[z1^X z2^Y]`` at cumulative intensity ``M``."""
    _check_rho(rho)
    _check_big_m(big_m_value)
    check_j(j)
    check_z("z1", z1)
    check_z("z2", z2)
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

    The ratio-only law ``(j/(2k-j)) C(2k-j, k) (rho/(rho+1)^2)^k
    ((rho+1)/rho)^j`` for ``k >= j``, with the ballot number exact in integers
    up to k = 300 and through ``lgamma`` beyond.  The caller is responsible
    for the premise that the cumulative intensity actually diverges.
    """
    _check_rho(rho)
    check_j(j)
    check_final_count(j, k)
    tot = rho + 1.0
    c = rho / (tot * tot)
    n = 2 * k - j
    if k <= 300:
        return j * math.comb(n, k) // n * c**k * (tot / rho) ** j
    log_ballot = (
        math.log(j) - math.log(n) + math.lgamma(n + 1) - math.lgamma(k + 1)
        - math.lgamma(k - j + 1)
    )
    return math.exp(log_ballot + k * math.log(c) + j * math.log(tot / rho))


# ===== Moments and absorption over an array of M ==============================


def clamp_variance(v: np.ndarray, scale: np.ndarray, message: str) -> np.ndarray:
    """``v`` with roundoff-negative entries clamped to 0; NumericsError
    (``message`` formatted with the first offender) below -1e-12 max(1, scale)."""
    lost = v < -1e-12 * np.maximum(1.0, scale)
    if lost.any():
        raise NumericsError(message.format(v[lost][0]))
    return np.where(v < 0.0, 0.0, v)


class _ClosedForms:
    """Every closed form at validated intensities ``m`` (a float array); each
    kernel and each quantity is evaluated at most once, on first use."""

    def __init__(self, rho: float, m: np.ndarray, j: int) -> None:
        self.rho, self.m, self.j, self.x = rho, m, j, (rho - 1.0) * m

    eta = cached_property(lambda s: _exp_guarded(s.x))
    k1 = cached_property(lambda s: f1(s.x))
    G1 = cached_property(lambda s: s.m * s.k1)
    G2 = cached_property(lambda s: s.rho * s.m * s.m * f2(s.x))
    G3 = cached_property(lambda s: s.rho * s.m * s.m * s.m * h3(s.x))
    G4 = cached_property(lambda s: s.m * s.m * g4(s.x))
    m_x = cached_property(lambda s: s.j * s.eta)
    var_x = cached_property(lambda s: s.j * (s.rho + 1.0) * s.eta * s.m * s.k1)
    m_y = cached_property(lambda s: s.j * s.m * s.k1)
    m2_y = cached_property(lambda s: s.j * (s.G1 + 4.0 * s.G3 + 2.0 * (s.j - 1) * s.G4))
    gamma = cached_property(lambda s: (s.j - 1) * s.G1 + 2.0 * s.G2)
    m_xy = cached_property(lambda s: s.m_x * s.gamma)
    cov = cached_property(lambda s: s.m_x * (s.gamma - s.m_y))

    @cached_property
    def var_y(self):
        # m2_Y - m_Y^2 can dip a few ulp below zero near M = 0 (clamped);
        # below -1e-12 relative to m2_Y the assembly has genuinely failed
        return clamp_variance(
            self.m2_y - self.m_y * self.m_y, self.m2_y,
            "second-moment assembly lost all precision (Var_Y = {})",
        )

    @cached_property
    def corr(self):
        vx, vy = self.var_x, self.var_y
        corr = self.cov / (np.sqrt(vx) * np.sqrt(vy))
        return np.where((vx > 0.0) & (vy > 0.0), corr, np.nan)

    @cached_property
    def r_index(self):
        # gamma/m_Y in the cancellation-free ratio form: 1 - 1/j at M = 0
        # (the kernel's 1/2 meets M = 0) and exact for M as large as 1e3
        second = (2.0 * self.rho * self.m / self.j) * one_minus_q_over_x(self.x)
        return (self.j - 1.0) / self.j + second

    @cached_property
    def absorption(self):
        rho, m = self.rho, self.m
        a = rho - 1.0
        if a == 0.0:
            return (m / (1.0 + m)) ** self.j
        # supercritical long run: rewritten in e^{-x} to dodge overflow
        w = np.where(self.x < 745.0, np.exp(-self.x), 0.0)
        em = np.expm1(self.x)
        p1 = np.where(
            self.x > 350.0, (1.0 - w) / (rho * (1.0 - w) + a * w), em / (rho * em + a)
        )
        return p1**self.j


def _forms(rho: float, big_m_value, j: int) -> _ClosedForms:
    _check_rho(rho)
    _check_big_m(big_m_value)
    check_j(j)
    return _ClosedForms(rho, np.asarray(big_m_value, dtype=float), j)


def _closed_form(name: str, attr: str, doc: str):
    """The public function ``name(rho, big_m_value, j)`` returning ``attr``."""

    def public(rho: float, big_m_value, j: int):
        return float_or_array(getattr, _forms(rho, big_m_value, j), attr)

    public.__name__ = public.__qualname__ = name
    public.__doc__ = doc + "\n\n``big_m_value`` is a float or an array; a float gives a float."
    return public


mean_x_prop = _closed_form("mean_x_prop", "m_x", "E[X] = j e^x.")
var_x_prop = _closed_form("var_x_prop", "var_x", "Var X = j (rho + 1) e^x M f1(x).")
mean_y_prop = _closed_form("mean_y_prop", "m_y", "E[Y] = j M f1(x).")
m2_y_prop = _closed_form("m2_y_prop", "m2_y", "E[Y^2] = j (G1 + 4 G3 + 2 (j - 1) G4).")
var_y_prop = _closed_form(
    "var_y_prop", "var_y",
    "Var Y = m2_Y - m_Y^2; roundoff-negative values near M = 0 are clamped to 0,\n"
    "and NumericsError is raised where the subtraction lost all precision.",
)
gamma_prop = _closed_form("gamma_prop", "gamma", "gamma = (j - 1) G1 + 2 G2.")
mixed_moment_prop = _closed_form("mixed_moment_prop", "m_xy", "E[XY] = m_X gamma.")
cov_prop = _closed_form("cov_prop", "cov", "Cov(X, Y) = m_X (gamma - m_Y).")
corr_prop = _closed_form(
    "corr_prop", "corr", "Correlation of (X, Y); NaN at M = 0 where both variances vanish."
)
r_index_prop = _closed_form(
    "r_index_prop", "r_index", "Dispersion index gamma/m_Y in the cancellation-free ratio form."
)
absorption_prop = _closed_form(
    "absorption_prop", "absorption", "P(absorbed by the time M(t) reaches ``big_m_value``)."
)

REPORT_COLUMNS = ("m_x", "m_y", "var_x", "var_y", "m2_y", "m_xy", "cov", "corr", "r_index")


def report_columns_prop(rho: float, big_m_value, j: int) -> dict:
    """The :data:`REPORT_COLUMNS` at ``(rho, M, j)`` from one evaluation of
    each kernel, as numpy values shaped like ``big_m_value``."""
    forms = _forms(rho, big_m_value, j)
    with np.errstate(all="ignore"):
        return {name: getattr(forms, name) for name in REPORT_COLUMNS}


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
    forms = _forms(rho, big_m_value, j)
    r_val = float_or_array(getattr, forms, "r_index")

    x = (rho - 1.0) * big_m_value
    if x < 650.0:  # linear attempt is safe to evaluate (no inf intermediates)
        names = ("m_x", "var_x", "m_y", "m2_y", "m_xy")
        vals = tuple(float_or_array(getattr, forms, name) for name in names)
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
