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
    phi_x  = rho M f1(-x),    phi_y = rho M f1(x)

with ``G1 = M f1(x)``, ``G2 = rho M^2 f2(x)``, ``G3 = rho M^3 h3(x)``,
``G4 = M^2 f1(x)^2 / 2``.  The balanced case ``rho = 1`` is the point
``x = 0`` of the same formulas — no separate branch exists anywhere in this
module.

The dispersion columns are ratios of kernels, never ratios of raw moments,
so ``corr`` and ``cv_*`` are finite wherever their true value is, however
far ``e^x`` or the powers of ``M`` are past the float range; ``fano_*`` are
finite wherever theirs is, as are the kernels they are made of::

    fano_X = (rho + 1) M f1(x)
    cv_X^2 = (rho + 1) M f1(-x) / j            # f1(x) e^{-x} = f1(-x)
    fano_Y = 1 + G1 (w - 1),    cv_Y^2 = (1/G1 + w - 1) / j
    corr   = (r - 1) / (cv_X cv_Y)             # Cov = m_X m_Y (r - 1)
    r - 1  = (2 rho M (1 - x/(e^x - 1))/x - 1) / j

with ``w = 4 G3/G1^2 = 4 rho M h3(x)/f1(x)^2``.  A raw moment past the
float range reads +inf, never NaN.

The p.g.f. and absorption functionals are the constant-rate ones under the
substitution ``lam t -> rho M``, ``mu t -> M``.  Constant rates are the case
``(rho, M) = (lam/mu, mu t)``, so these are the package's one set of them;
the independent transcriptions they are checked against live in the tests.
At ``z2 = 1`` the p.g.f. is the X-marginal
``(1 - (1 - z1)/(e^{-x} + rho (1 - z1) M f1(-x)))^j``, exactly 1 at ``z1 = 1``.

One evaluator, ``_ClosedForms``, computes each of these forms once over a
float or an array of ``M``: :func:`rumorbd.moments.report_from_prop` reads the
moments and the dispersion columns from it, and the closed route of the
:mod:`rumorbd.rates` transforms reads ``eta``, ``phi_x``, ``phi_y`` and
``gamma``.  :func:`absorption_prop`
takes ``M`` as a float or an array; a float gives a float, computed by the
same code as an array element.
"""

from __future__ import annotations

import math
from functools import cached_property, partial

import numpy as np

from ._kernels import f1, f2, float_or_array, h3, one_minus_q_over_x
from .errors import (
    DomainError, NumericsError, check_final_count, check_j, check_positive, check_time, check_z,
)

_check_rho = partial(check_positive, "rate ratio rho")
# M(t) is operational time, checked as a time is
_check_big_m = partial(check_time, name="cumulative forgetting intensity M")


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

    if z2 == 1.0:
        # the X-marginal, written without the root xi = 1 that roundoff
        # moves off 1; its denominator stays positive
        if z1 == 1.0:
            return 1.0
        x = (rho - 1.0) * big_m_value
        em = math.exp(-x) if x > -709.0 else math.inf
        return (1.0 - (1.0 - z1) / (em + rho * (1.0 - z1) * big_m_value * f1(-x))) ** j

    # the roots of rho xi^2 - (rho + 1) xi + z2, both without cancellation;
    # the discriminant (rho + 1)^2 - 4 z2 rho is positive for z2 < 1
    a = abs(rho - 1.0)
    s = math.sqrt(a * a + 4.0 * rho * (1.0 - z2))
    tot = rho + 1.0
    xi1 = 2.0 * z2 / (tot + s)
    xi2 = (tot + s) / (2.0 * rho)
    # rho * (xi2 - xi1) = s, so the exponential factor is exp(s M); scale it
    # out.  Past e^{-745} = 0 the p.g.f. is its limit xi1^j, not 0/0.
    if s * big_m_value >= 745.0:
        return xi1**j
    # the root that tends to 1 as z2 -> 1 (xi2 for rho >= 1, xi1 below) is
    # within ulps of 1 near there, so z1 - xi is (z1 - 1) + (1 - xi), with
    # 1 - xi from d = s - |rho - 1| written without cancellation
    d = 4.0 * rho * (1.0 - z2) / (s + a)
    if rho >= 1.0:
        u1, u2 = z1 - xi1, (z1 - 1.0) - d / (2.0 * rho)
    else:
        u1, u2 = (z1 - 1.0) + (d + 2.0 * (1.0 - z2)) / (tot + s), z1 - xi2
    em = math.exp(-s * big_m_value)
    return ((xi2 * u1 * em - xi1 * u2) / (u1 * em - u2)) ** j


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

    The ratio-only law ``(j/(2k-j)) C(2k-j, k) rho^(k-j) (1+rho)^(j-2k)`` for
    ``k >= j``, summed in logs so no power overflows or underflows on its own;
    the ballot number is an exact integer up to k = 300 and goes through
    ``lgamma`` beyond.  The caller is responsible for the premise that the
    cumulative intensity actually diverges.
    """
    _check_rho(rho)
    check_j(j)
    check_final_count(j, k)
    n = 2 * k - j
    if k <= 300:
        log_ballot = math.log(j * math.comb(n, k) // n)
    else:
        log_ballot = (
            math.log(j) - math.log(n) + math.lgamma(n + 1) - math.lgamma(k + 1)
            - math.lgamma(k - j + 1)
        )
    return math.exp(log_ballot + (k - j) * math.log(rho) - n * math.log1p(rho))


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

    eta = cached_property(lambda s: np.exp(s.x))
    k1 = cached_property(lambda s: f1(s.x))
    k1_neg = cached_property(lambda s: f1(-s.x))
    phi_x = cached_property(lambda s: s.rho * s.m * s.k1_neg)
    phi_y = cached_property(lambda s: s.rho * s.m * s.k1)
    G1 = cached_property(lambda s: s.m * s.k1)
    G2 = cached_property(lambda s: s.rho * s.m * s.m * f2(s.x))
    k3 = cached_property(lambda s: h3(s.x))
    G3 = cached_property(lambda s: s.rho * s.m * s.m * s.m * s.k3)
    G4 = cached_property(lambda s: s.m * s.m * (0.5 * s.k1 * s.k1))
    m_x = cached_property(lambda s: s.j * s.eta)
    var_x = cached_property(lambda s: s.j * (s.rho + 1.0) * s.eta * s.m * s.k1)
    m_y = cached_property(lambda s: s.j * s.m * s.k1)
    # the (j - 1) terms pair two spreaders: with one spreader they are 0,
    # not 0 * inf = NaN where G1 or G4 overflowed
    m2_y = cached_property(
        lambda s: s.j * (s.G1 + 4.0 * s.G3 + 2.0 * (s.j - 1) * np.where(s.j > 1, s.G4, 0.0))
    )
    gamma = cached_property(lambda s: (s.j - 1) * np.where(s.j > 1, s.G1, 0.0) + 2.0 * s.G2)
    m_xy = cached_property(lambda s: s.m_x * s.gamma)

    @cached_property
    def var_y(self):
        # m2_Y - m_Y^2 can dip a few ulp below zero near M = 0 (clamped);
        # below -1e-12 relative to m2_Y the assembly has genuinely failed.
        # Where m2_Y overflowed, m_Y^2 cv_Y^2 instead of inf - inf.
        v = clamp_variance(
            self.m2_y - self.m_y * self.m_y, self.m2_y,
            "second-moment assembly lost all precision (Var_Y = {})",
        )
        return np.where(np.isfinite(self.m2_y), v, self.m_y * (self.m_y * self.cv2_y))

    @cached_property
    def cov(self):
        # m_X m_Y (r - 1) where m_X (gamma - m_Y) overflowed, or met inf - inf
        c = self.m_x * (self.gamma - self.m_y)
        return np.where(np.isfinite(c), c, self.m_x * (self.m_y * self.r_excess))

    @cached_property
    def w(self):
        # 4 G3/G1^2 = 4 rho M h3/f1^2; past x = 350, where h3 nears overflow,
        # h3/f1^2 = (1 - e^{-2x} - 2x e^{-x}) / (2x (1 - e^{-x})^2) is 1/(2x)
        # to within 2x e^{-x}
        ratio = np.where(self.x > 350.0, 0.5 / self.x, self.k3 / (self.k1 * self.k1))
        return 4.0 * self.rho * self.m * ratio

    fano_x = cached_property(lambda s: (s.rho + 1.0) * s.m * s.k1)
    fano_y = cached_property(lambda s: 1.0 + s.G1 * (s.w - 1.0))
    cv2_y = cached_property(lambda s: (1.0 / s.G1 + s.w - 1.0) / s.j)
    cv_y = cached_property(lambda s: np.sqrt(s.cv2_y))

    @cached_property
    def cv_x(self):
        # below x = 0, f1(-x) grows like e^{-x} and overflows long before
        # cv_X does: there the root is taken before the exponential,
        # cv_X = e^{-x/4} sqrt(fano_X/j) e^{-x/4}
        quarter = np.exp(-0.25 * self.x)
        return np.where(
            self.x < 0.0,
            quarter * np.sqrt(self.fano_x / self.j) * quarter,
            np.sqrt((self.rho + 1.0) * self.m * self.k1_neg / self.j),
        )

    corr = cached_property(lambda s: s.r_excess / s.cv_y / s.cv_x)

    q = cached_property(lambda s: one_minus_q_over_x(s.x))
    # r - 1 = (2 rho M q - 1)/j, without the rounding of r near its crossing of 1
    r_excess = cached_property(lambda s: (2.0 * s.rho * s.m * s.q - 1.0) / s.j)

    @cached_property
    def r_index(self):
        # gamma/m_Y in the cancellation-free ratio form: (j - 1)/j at M = 0
        # (the kernel's 1/2 meets M = 0) and exact for M as large as 1e3
        return (self.j - 1.0) / self.j + (2.0 * self.rho * self.m / self.j) * self.q

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


def absorption_prop(rho: float, big_m_value, j: int):
    """P(absorbed by the time M(t) reaches ``big_m_value``); a float gives a
    float, an array an array."""
    return float_or_array(getattr, _forms(rho, big_m_value, j), "absorption")


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
