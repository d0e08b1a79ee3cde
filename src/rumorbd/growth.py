"""Growth-curve families and the time-varying rates they induce.

Six spreader-mean (X) families and two inactive-mean (Y) families are
supported.  Every curve carries its initial spreader count ``j`` and rate
ratio ``rho > 1``; postulating that the curve equals the corresponding
proportional-family mean defines a cumulative forgetting intensity::

    X family:  m(t) = j exp((rho-1) M(t))   =>  M(t) = log(m(t)/j) / (rho-1)
    Y family:  m(t) = j (e^{(rho-1)M} - 1)/(rho-1)
                                            =>  M(t) = log1p((rho-1) m(t)/j)/(rho-1)

and an instantaneous forgetting rate ``mu(t) = M'(t)`` (with
``lam(t) = rho mu(t)``), turning any fitted curve into a fully specified
stochastic model.

Each family's mean (``mean_array``, also ``mean``), induced ``M`` and induced
``mu`` is one numpy implementation that takes a time or an array of times: an
array is one vector evaluation, and a float gives a Python float from the same
code, bit for bit an array element's.  The mean is written once, as the
family's ``mean_formula``, whose parameters may also be columns that broadcast
against the times: a fit evaluates many parameter rows in one call, bit for bit
the ``mean_array`` of each row's curve.  Floating-point warnings are off inside
(overflow to inf is part of the contract).  The bound of ``mu`` over a window
(``induced_mu_sup``) is no longer read by any sampler.

The quartic-exponent multisigmoidal family is the one member whose induced
``mu`` can become negative (its polynomial exponent ``Q`` eventually
decreases); its validity window ``{t : Q'(t) >= 0}`` is computed exactly,
enforced by every entry that takes a time of the induced rates (samplers,
moments, transforms, the oracle and the CLI ``absorb``) and bounds the
crossing-time search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import elementwise, float_or_array
from .errors import (
    DataError, DomainError, check_j, check_positive, check_time, config_field, converted,
)
from .rates import MuBase, Proportional


def _nonneg(big_m_value):
    # log-difference forms can round M(0) to -1 ulp; the intensity integral
    # itself is never negative, so snap boundary noise back to exact zero
    return np.where((big_m_value < 0.0) & (big_m_value > -1e-12), 0.0, big_m_value)


def _check_common(j: int, rho: float) -> None:
    check_j(j)
    if not (rho > 1.0 and math.isfinite(rho)):
        raise DomainError(f"curve families require a rate ratio rho > 1, got {rho}")


class GrowthCurve:
    """What the eight families share.

    Each family writes its mean as the static ``mean_formula(t, j, rho,
    *params)`` and ``induced_big_m`` and ``induced_mu`` as numpy code on an
    array of times.  Defining the class gives it ``mean_array``, the formula at
    the curve's own ``params``, and wraps it and the two induced functions in
    :func:`~rumorbd._kernels.elementwise`, which gives them the float-or-array
    contract of the module docstring.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        formula = cls.mean_formula

        def mean_array(self, t):
            return formula(t, self.j, self.rho, *self.params)

        cls.mean_array = elementwise(mean_array)
        for name in ("induced_big_m", "induced_mu"):
            setattr(cls, name, elementwise(cls.__dict__[name]))

    @property
    def params(self) -> tuple[float, ...]:
        """The curve's parameters, in ``param_names`` order."""
        return tuple(getattr(self, name) for name in self.param_names)

    def mean(self, t):
        """The curve's mean at ``t``, a time or an array of times."""
        return self.mean_array(t)

    def induced_validity_end(self) -> float:
        """Largest T with the induced ``mu >= 0`` on [0, T]: inf but for the
        quartic-exponent family."""
        return math.inf

    def validate_horizon(self, horizon: float) -> None:
        """Raise if the induced rate turns negative before ``horizon``."""
        CurveInducedMu(self).validate_horizon(horizon)


# ===== Spreader-mean (X) families =============================================


@dataclass(frozen=True)
class Gompertz(GrowthCurve):
    """m(t) = j exp(alpha (1 - e^{-beta t}))."""

    alpha: float
    beta: float
    j: int = 1
    rho: float = 2.0

    family = "gompertz"
    kind = "x"
    param_names = ("alpha", "beta")

    def __post_init__(self) -> None:
        check_positive("alpha", self.alpha)
        check_positive("beta", self.beta)
        _check_common(self.j, self.rho)

    @staticmethod
    def mean_formula(t, j, rho, alpha, beta):
        return j * np.exp(alpha * -np.expm1(-beta * t))

    def induced_big_m(self, t):
        return self.alpha * -np.expm1(-self.beta * t) / (self.rho - 1.0)

    def induced_mu(self, t):
        return self.alpha * self.beta * np.exp(-self.beta * t) / (self.rho - 1.0)

    def induced_mu_sup(self, t0: float, t1: float) -> float:
        return self.induced_mu(t0)  # decreasing

    def mean_limit(self) -> float:
        return self.j * float_or_array(np.exp, self.alpha)

    def big_m_limit(self) -> float:
        return self.alpha / (self.rho - 1.0)


@dataclass(frozen=True)
class GenGompertz(GrowthCurve):
    """m(t) = j exp(a b t / (t + b))."""

    a: float
    b: float
    j: int = 1
    rho: float = 2.0

    family = "gen_gompertz"
    kind = "x"
    param_names = ("a", "b")

    def __post_init__(self) -> None:
        check_positive("a", self.a)
        check_positive("b", self.b)
        _check_common(self.j, self.rho)

    @staticmethod
    def mean_formula(t, j, rho, a, b):
        return j * np.exp(a * b * t / (t + b))

    def induced_big_m(self, t):
        return self.a * self.b * t / ((self.rho - 1.0) * (t + self.b))

    def induced_mu(self, t):
        return self.a * self.b**2 / ((self.rho - 1.0) * (t + self.b) ** 2)

    def induced_mu_sup(self, t0: float, t1: float) -> float:
        return self.induced_mu(t0)  # decreasing

    def mean_limit(self) -> float:
        return self.j * float_or_array(np.exp, self.a * self.b)

    def big_m_limit(self) -> float:
        return self.a * self.b / (self.rho - 1.0)


@dataclass(frozen=True)
class Logistic(GrowthCurve):
    """m(t) = C j / (j + (C - j) e^{-r t})."""

    c: float
    r: float
    j: int = 1
    rho: float = 2.0

    family = "logistic"
    kind = "x"
    param_names = ("c", "r")

    def __post_init__(self) -> None:
        check_positive("c", self.c)
        check_positive("r", self.r)
        _check_common(self.j, self.rho)
        if not self.c > self.j:
            raise DomainError(
                f"carrying capacity must exceed the initial count, got c={self.c} <= j={self.j}"
            )

    @staticmethod
    def mean_formula(t, j, rho, c, r):
        return c * j / (j + (c - j) * np.exp(-r * t))

    def induced_big_m(self, t):
        # table form (r t + log C - log(C + j(e^{rt} - 1)))/(rho - 1), evaluated
        # through logaddexp so huge r t cannot overflow
        rt = self.r * t
        num = rt + math.log(self.c) - np.logaddexp(math.log(self.c - self.j), math.log(self.j) + rt)
        return _nonneg(num / (self.rho - 1.0))

    def induced_mu(self, t):
        w = np.exp(-self.r * t)
        cj = self.c - self.j
        return self.r * cj * w / ((self.rho - 1.0) * (cj * w + self.j))

    def induced_mu_sup(self, t0: float, t1: float) -> float:
        return self.induced_mu(t0)  # decreasing

    def mean_limit(self) -> float:
        return self.c

    def big_m_limit(self) -> float:
        return math.log(self.c / self.j) / (self.rho - 1.0)


@dataclass(frozen=True)
class ExtLogistic(GrowthCurve):
    """Extended logistic with asymmetry parameter eps in (-1, 1).

    m(t) = (A + B e^{(1+eps)t}) / (D + E e^{(1+eps)t}) with
    A = (eps-1) N (N-j), B = N (2 eps j + N - eps N), D = 2 eps (N-j),
    E = 2 eps j + N - eps N; then m(0) = j and m(oo) = N.
    """

    n: float
    eps: float
    j: int = 1
    rho: float = 2.0

    family = "ext_logistic"
    kind = "x"
    param_names = ("n", "eps")

    def __post_init__(self) -> None:
        check_positive("n", self.n)
        _check_common(self.j, self.rho)
        if not self.n > self.j:
            raise DomainError(
                f"carrying capacity must exceed the initial count, got n={self.n} <= j={self.j}"
            )
        if not (-1.0 < self.eps < 1.0):
            raise DomainError(f"asymmetry eps must lie in (-1, 1), got {self.eps}")

    @staticmethod
    def _coeffs(n, e, j):
        j = float(j)
        a = (e - 1.0) * n * (n - j)
        b = n * (2.0 * e * j + n - e * n)
        d = 2.0 * e * (n - j)
        ee = 2.0 * e * j + n - e * n
        return a, b, d, ee

    @staticmethod
    def mean_formula(t, j, rho, n, eps):
        a, b, d, ee = ExtLogistic._coeffs(n, eps, j)
        wbar = np.exp(-(1.0 + eps) * t)
        return (a * wbar + b) / (d * wbar + ee)

    def induced_big_m(self, t):
        a, b, d, ee = self._coeffs(self.n, self.eps, self.j)
        wbar = np.exp(-(1.0 + self.eps) * t)
        num = np.log(a * wbar + b) - math.log(self.j) - np.log(d * wbar + ee)
        return _nonneg(num / (self.rho - 1.0))

    def induced_mu(self, t):
        a, b, d, ee = self._coeffs(self.n, self.eps, self.j)
        n, j = self.n, float(self.j)
        one_eps = 1.0 + self.eps
        wbar = np.exp(-one_eps * t)
        k = one_eps**2 * n * (n - j) * ee
        return k * wbar / ((self.rho - 1.0) * (d * wbar + ee) * (a * wbar + b))

    def _mu_peak_time(self) -> float:
        """Interior maximum of the induced mu, or 0 when mu is decreasing."""
        a, b, d, ee = self._coeffs(self.n, self.eps, self.j)
        ad = a * d
        if ad <= 0.0:  # eps >= 0: decreasing everywhere
            return 0.0
        wbar_star = math.sqrt(ee * b / ad)
        if wbar_star >= 1.0:
            return 0.0
        return -math.log(wbar_star) / (1.0 + self.eps)

    def induced_mu_sup(self, t0: float, t1: float) -> float:
        return self.induced_mu(min(max(self._mu_peak_time(), t0), t1))

    def mean_limit(self) -> float:
        return self.n

    def big_m_limit(self) -> float:
        return math.log(self.n / self.j) / (self.rho - 1.0)


@dataclass(frozen=True)
class MultisigLogistic(GrowthCurve):
    """Logistic with a quartic exponent: m(t) = C j / (j + (C-j) e^{-Q(t)}).

    Q(t) = b1 t + b2 t^2 + b3 t^3 + b4 t^4 with b4 < 0.  Setting
    (b1, b2, b3, b4) -> (r, 0, 0, 0-) recovers the plain logistic curve.  The
    induced forgetting rate is nonnegative exactly where Q' >= 0; the validity
    window is computed exactly from the roots of Q'.
    """

    c: float
    betas: tuple[float, float, float, float]
    j: int = 1
    rho: float = 2.0

    family = "multisig_logistic"
    kind = "x"
    param_names = ("c", "beta1", "beta2", "beta3", "beta4")

    def __post_init__(self) -> None:
        check_positive("c", self.c)
        _check_common(self.j, self.rho)
        object.__setattr__(self, "betas", tuple(float(b) for b in self.betas))
        if len(self.betas) != 4:
            raise DomainError(f"exponent needs exactly 4 coefficients, got {len(self.betas)}")
        if not self.betas[3] < 0.0:
            raise DomainError(f"leading exponent coefficient must be negative, got {self.betas[3]}")
        if not self.c > self.j:
            raise DomainError(
                f"carrying capacity must exceed the initial count, got c={self.c} <= j={self.j}"
            )

    @property
    def params(self) -> tuple[float, ...]:
        return (self.c, *self.betas)

    @staticmethod
    def _q(t, b1, b2, b3, b4):
        return t * (b1 + t * (b2 + t * (b3 + t * b4)))

    def q(self, t):
        return self._q(t, *self.betas)

    def q_prime(self, t):
        b1, b2, b3, b4 = self.betas
        return b1 + t * (2.0 * b2 + t * (3.0 * b3 + t * 4.0 * b4))

    @staticmethod
    def mean_formula(t, j, rho, c, b1, b2, b3, b4):
        qv = MultisigLogistic._q(t, b1, b2, b3, b4)
        cj = c - j
        # e^{-Q} overflows where Q << 0: there the form in e^{Q} is used
        pos = c * j / (j + cj * np.exp(-qv))
        eq = np.exp(np.minimum(qv, 0.0))
        neg = c * j * eq / (j * eq + cj)
        return np.where(qv >= 0.0, pos, neg)

    def induced_big_m(self, t):
        qv = self.q(t)
        num = qv + math.log(self.c) - np.logaddexp(math.log(self.c - self.j), math.log(self.j) + qv)
        return _nonneg(num / (self.rho - 1.0))

    def _share(self, qv):
        # (C-j) e^{-Q} / ((rho-1)(j + (C-j) e^{-Q})), the factor of Q' in the
        # induced rate, with e^{-Q} cancelled so that neither sign of Q overflows
        cj = self.c - self.j
        return cj / ((self.rho - 1.0) * (cj + self.j * np.exp(qv)))

    def induced_mu(self, t):
        return self.q_prime(t) * self._share(self.q(t))

    def _q_prime_roots(self) -> list[float]:
        b1, b2, b3, b4 = self.betas
        roots = np.roots([4.0 * b4, 3.0 * b3, 2.0 * b2, b1])
        out = []
        for z in roots:
            if abs(z.imag) <= 1e-9 * (1.0 + abs(z)):
                if z.real > 1e-12:
                    out.append(float(z.real))
        return sorted(out)

    def induced_validity_end(self) -> float:
        """Largest T with Q' >= 0 on [0, T] (0 if Q' < 0 right away)."""
        pts = [0.0] + self._q_prime_roots()
        scale = 1.0 + max(abs(b) for b in self.betas)
        for i, s in enumerate(pts):
            mid = 0.5 * (s + pts[i + 1]) if i + 1 < len(pts) else s + 1.0
            if self.q_prime(mid) < -1e-12 * scale:
                return s
        return math.inf

    def induced_mu_sup(self, t0: float, t1: float) -> float:
        b1, b2, b3, b4 = self.betas
        cands = [t0, t1]
        # interior extrema of Q' are roots of Q'' (a quadratic, b4 != 0)
        aq, bq, cq = 12.0 * b4, 6.0 * b3, 2.0 * b2
        disc = bq * bq - 4.0 * aq * cq
        if disc >= 0.0:
            sq = math.sqrt(disc)
            for z in ((-bq - sq) / (2.0 * aq), (-bq + sq) / (2.0 * aq)):
                if t0 < z < t1:
                    cands.append(z)
        qp_max = max(0.0, max(self.q_prime(s) for s in cands))
        # the share decreases in Q, which is smallest at t0 where Q' >= 0
        return qp_max * float_or_array(self._share, self.q(t0))

    def mean_limit(self) -> float:
        raise DomainError("the quartic-exponent curve has no long-run limit inside its validity window")


@dataclass(frozen=True)
class ModKorf(GrowthCurve):
    """m(t) = j exp((alpha/beta)(1 - (1+t)^{-beta}))."""

    alpha: float
    beta: float
    j: int = 1
    rho: float = 2.0

    family = "mod_korf"
    kind = "x"
    param_names = ("alpha", "beta")

    def __post_init__(self) -> None:
        check_positive("alpha", self.alpha)
        check_positive("beta", self.beta)
        _check_common(self.j, self.rho)

    @staticmethod
    def _u(t, beta):
        # 1 - (1+t)^{-beta}, evaluated without cancellation
        return -np.expm1(-beta * np.log1p(t))

    @staticmethod
    def mean_formula(t, j, rho, alpha, beta):
        return j * np.exp(alpha / beta * ModKorf._u(t, beta))

    def induced_big_m(self, t):
        return self.alpha / self.beta * self._u(t, self.beta) / (self.rho - 1.0)

    def induced_mu(self, t):
        return self.alpha * np.exp(-(self.beta + 1.0) * np.log1p(t)) / (self.rho - 1.0)

    def induced_mu_sup(self, t0: float, t1: float) -> float:
        return self.induced_mu(t0)  # decreasing

    def mean_limit(self) -> float:
        return self.j * float_or_array(np.exp, self.alpha / self.beta)

    def big_m_limit(self) -> float:
        return self.alpha / self.beta / (self.rho - 1.0)


# ===== Inactive-mean (Y) families =============================================


@dataclass(frozen=True)
class Korf(GrowthCurve):
    """m_Y(t) = (j/(rho-1)) exp(-(alpha/beta) t^{-beta}), with m_Y(0) = 0."""

    alpha: float
    beta: float
    j: int = 1
    rho: float = 2.0

    family = "korf"
    kind = "y"
    param_names = ("alpha", "beta")

    def __post_init__(self) -> None:
        check_positive("alpha", self.alpha)
        check_positive("beta", self.beta)
        _check_common(self.j, self.rho)

    @staticmethod
    def _w(t, alpha, beta):
        # exp(-(alpha/beta) t^{-beta}); t^{-beta} is inf at t = 0, giving exactly 0
        return np.exp(-(alpha / beta) * np.power(t, -beta))

    def _envelope(self, t):
        # dominating bound alpha t^{-beta-1} w(t) / (rho-1) >= mu(t), 0 at t = 0
        w = self._w(t, self.alpha, self.beta)
        env = self.alpha * np.power(t, -(self.beta + 1.0)) * w / (self.rho - 1.0)
        return np.where(t > 0.0, env, 0.0)

    @staticmethod
    def mean_formula(t, j, rho, alpha, beta):
        return j / (rho - 1.0) * Korf._w(t, alpha, beta)

    def induced_big_m(self, t):
        return np.log1p(self._w(t, self.alpha, self.beta)) / (self.rho - 1.0)

    def induced_mu(self, t):
        return self._envelope(t) / (1.0 + self._w(t, self.alpha, self.beta))

    def induced_mu_sup(self, t0: float, t1: float) -> float:
        t_star = (self.alpha / (self.beta + 1.0)) ** (1.0 / self.beta)
        return float_or_array(self._envelope, min(max(t_star, t0), t1))

    def mean_limit(self) -> float:
        return self.j / (self.rho - 1.0)

    def big_m_limit(self) -> float:
        return math.log(2.0) / (self.rho - 1.0)


@dataclass(frozen=True)
class Mitscherlich(GrowthCurve):
    """m_Y(t) = beta (1 - e^{-alpha t})."""

    alpha: float
    beta: float
    j: int = 1
    rho: float = 2.0

    family = "mitscherlich"
    kind = "y"
    param_names = ("alpha", "beta")

    def __post_init__(self) -> None:
        check_positive("alpha", self.alpha)
        check_positive("beta", self.beta)
        _check_common(self.j, self.rho)

    @staticmethod
    def mean_formula(t, j, rho, alpha, beta):
        return beta * -np.expm1(-alpha * t)

    def induced_big_m(self, t):
        a = self.rho - 1.0
        return np.log1p(a * self.mean_formula(t, self.j, self.rho, *self.params) / self.j) / a

    def induced_mu(self, t):
        a = self.rho - 1.0
        num = self.alpha * self.beta * np.exp(-self.alpha * t)
        return num / (self.j + a * self.mean_formula(t, self.j, self.rho, *self.params))

    def induced_mu_sup(self, t0: float, t1: float) -> float:
        return self.induced_mu(t0)  # decreasing

    def mean_limit(self) -> float:
        return self.beta

    def big_m_limit(self) -> float:
        a = self.rho - 1.0
        return math.log1p(a * self.beta / self.j) / a


# ===== Registry and module-level operations ===================================

FAMILIES: dict[str, type] = {
    cls.family: cls
    for cls in (
        Gompertz, GenGompertz, Logistic, ExtLogistic, MultisigLogistic,
        ModKorf, Korf, Mitscherlich,
    )
}

def eval_curve(curve: GrowthCurve, t):
    """The curve's mean value at ``t``, a time or an array of times."""
    check_time(t)
    return curve.mean(t)


def induced_m(curve: GrowthCurve, t):
    """Cumulative forgetting intensity the curve induces at ``t``, a time or
    an array of times.

    Raises a domain error when the implied ``M(t)`` is negative (possible only
    for the quartic-exponent family outside its validity window); the families
    snap roundoff negatives above -1e-12 to 0 themselves.
    """
    check_time(t)
    m = curve.induced_big_m(t)
    bad = np.asarray(m) < 0.0
    if bad.any():
        raise DomainError(
            f"curve implies a negative cumulative intensity at "
            f"t={np.asarray(t, dtype=float)[bad][0]} (outside the validity window)"
        )
    return m


# ===== Curve-induced forgetting profile =======================================


@dataclass(frozen=True)
class CurveInducedMu(MuBase):
    """Forgetting-rate profile read off a growth curve, whose ``j`` and
    ``rho`` it carries."""

    curve: GrowthCurve

    @property
    def j(self) -> int:
        return self.curve.j

    @property
    def rho(self) -> float:
        return self.curve.rho

    def mu_at(self, t: float) -> float:
        return self.curve.induced_mu(t)

    def big_m(self, t):
        return induced_m(self.curve, t)

    def mu_sup(self, t0: float, t1: float) -> float:
        return self.curve.induced_mu_sup(t0, t1)

    def validity_end(self) -> float:
        return self.curve.induced_validity_end()


def proportional_from_curve(curve: GrowthCurve) -> Proportional:
    """The proportional rate family a curve induces."""
    return Proportional(rho=curve.rho, base_mu=CurveInducedMu(curve))


# ===== Config parsing =========================================================


def curve_from_config(cfg: dict) -> GrowthCurve:
    """Build a growth curve from a JSON-style mapping."""
    if not isinstance(cfg, dict) or "family" not in cfg:
        raise DataError(f"curve config needs a 'family' key, got {cfg!r}")
    name = cfg["family"]
    cls = FAMILIES.get(name)
    if cls is None:
        raise DataError(
            f"unknown curve family {name!r} (known: {', '.join(sorted(FAMILIES))})"
        )
    what = f"curve family {name!r}"
    j = config_field(cfg, "j", what, int, 1)
    rho = config_field(cfg, "rho", what, float, 2.0)
    if cls is MultisigLogistic:
        if "betas" in cfg:
            if not isinstance(cfg["betas"], (list, tuple)):
                raise DataError(f"{what}: 'betas' must be a list, got {cfg['betas']!r}")
            betas = tuple(converted(b, float, f"{what}: 'betas'") for b in cfg["betas"])
        else:
            betas = tuple(config_field(cfg, f"beta{i}", what) for i in range(1, 5))
        return MultisigLogistic(c=config_field(cfg, "c", what), betas=betas, j=j, rho=rho)
    return cls(j=j, rho=rho, **{key: config_field(cfg, key, what) for key in cls.param_names})


def curve_to_config(curve: GrowthCurve) -> dict:
    """JSON-style mapping for a curve (inverse of :func:`curve_from_config`)."""
    out: dict = {"family": curve.family, "j": curve.j, "rho": curve.rho}
    if isinstance(curve, MultisigLogistic):
        out["c"] = curve.c
        out["betas"] = list(curve.betas)
    else:
        for name in curve.param_names:
            out[name] = getattr(curve, name)
    return out
