"""Rate families and the integral transforms built on them.

A rate family supplies the instantaneous spreading rate ``lam(t)`` and
forgetting rate ``mu(t)`` of the two-type population process.  Three families
are provided:

* :class:`Constant`     -- ``lam(t) = lam``, ``mu(t) = mu``.
* :class:`Proportional` -- ``lam(t) = rho * mu(t)`` with ``mu`` drawn from a
  pluggable base profile (:class:`ConstantMu`, :class:`CosineMu`, or a
  growth-curve-induced profile defined in :mod:`rumorbd.growth`).
* :class:`Explicit`     -- arbitrary callables plus a declared sup bound used
  by the exact thinning sampler.

The integral transforms underlying every closed-form moment are::

    L(t)     = int_0^t (lam - mu)            eta(t) = exp(L(t))
    M(t)     = int_0^t mu
    phi_x(t) = int_0^t lam / eta             phi_y(t) = int_0^t lam * eta
    gamma(t) = int_0^t mu * eta * (2 phi_x + j - 1)

For Constant/Proportional rates all five reduce to closed kernel expressions
in ``(rho, M)``, read from the closed-form evaluator of
:mod:`rumorbd.proportional`.  For any family the ``"ode"`` route reads them
off the moment engine of :mod:`rumorbd._ode`, one solve to ``t``::

    M = M,   eta = m_X / j,   phi_x = phi_x,
    phi_y = m_Y / j + eta - 1,   gamma = m_XY / m_X

The engine carries second moments (~ eta^2), so on this route a transform
raises :class:`NumericsError` once ``L(t)`` exceeds about 354, half the
range of a lone ``exp``.  Constant and proportional families default to the
closed route and never meet this limit.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._kernels import elementwise, float_or_array
from .errors import DataError, DomainError, check_j, check_positive, check_time, config_field

_TWO_PI = 2.0 * math.pi


# ===== Base forgetting-rate profiles ==========================================


class MuBase(abc.ABC):
    """Time profile of the forgetting rate inside a proportional family."""

    @abc.abstractmethod
    def mu_at(self, t: float) -> float: ...

    @abc.abstractmethod
    def big_m(self, t):
        """Cumulative intensity ``int_0^t mu`` at a time or an array of times.

        An array is checked in one vector pass (a negative or NaN time raises
        :class:`DomainError`) and evaluated in one vector call; a float gives a
        Python float from the same code, bit for bit an array element's."""

    @abc.abstractmethod
    def mu_sup(self, t0: float, t1: float) -> float:
        """An exact upper bound of ``mu`` on ``[t0, t1]``."""

    def validity_end(self) -> float:
        """Largest ``T`` with ``mu >= 0`` on ``[0, T]``; inf by default."""
        return math.inf

    def validate_horizon(self, horizon: float) -> None:
        """Raise if the profile leaves the model's domain before ``horizon``."""
        end = self.validity_end()
        if horizon > end + 1e-9:
            raise DomainError(
                f"forgetting rate turns negative at t~{end:.6g}; "
                f"requested horizon {horizon} exceeds the validity window"
            )


@dataclass(frozen=True)
class ConstantMu(MuBase):
    """Constant forgetting rate."""

    mu: float

    def __post_init__(self) -> None:
        check_positive("mu", self.mu)

    def mu_at(self, t: float) -> float:
        return self.mu

    @elementwise
    def big_m(self, t):
        check_time(t)
        return self.mu * t

    def mu_sup(self, t0: float, t1: float) -> float:
        return self.mu


def _cos_extremes(theta0: float, theta1: float) -> tuple[float, float]:
    """(min, max) of cos over [theta0, theta1]."""
    span = theta1 - theta0
    if span >= _TWO_PI:
        return -1.0, 1.0
    a = theta0 % _TWO_PI
    b = a + span
    c0, c1 = math.cos(a), math.cos(b)
    hi = 1.0 if (a == 0.0 or b >= _TWO_PI) else max(c0, c1)
    lo = -1.0 if (a <= math.pi <= b or a <= 3.0 * math.pi <= b) else min(c0, c1)
    return lo, hi


@dataclass(frozen=True)
class CosineMu(MuBase):
    """Seasonal forgetting rate ``mu + alpha * cos(2 pi t / period)``.

    Requires ``mu > |alpha| > 0`` so the rate stays strictly positive.
    """

    mu: float
    alpha: float
    period: float

    def __post_init__(self) -> None:
        check_positive("mu", self.mu)
        check_positive("period", self.period)
        if not (0.0 < abs(self.alpha) < self.mu):
            raise DomainError(
                f"cosine amplitude must satisfy 0 < |alpha| < mu, got "
                f"alpha={self.alpha}, mu={self.mu}"
            )

    def mu_at(self, t: float) -> float:
        return self.mu + self.alpha * math.cos(_TWO_PI * t / self.period)

    @elementwise
    def big_m(self, t):
        check_time(t)
        return self.mu * t + (self.alpha * self.period / _TWO_PI) * np.sin(
            _TWO_PI * t / self.period
        )

    def mu_sup(self, t0: float, t1: float) -> float:
        lo, hi = _cos_extremes(_TWO_PI * t0 / self.period, _TWO_PI * t1 / self.period)
        return self.mu + max(self.alpha * lo, self.alpha * hi)


def first_passage(
    base: MuBase, level: float, lo: float = 0.0, hi: float = math.inf
) -> float | None:
    """First ``t >= lo`` at which the profile's nondecreasing M reaches ``level``.

    A finite ``hi`` confines the search to ``[lo, hi]``; an infinite one
    doubles from 1 until ``M(hi) >= level``.  None when ``M`` stays below
    ``level`` up to ``hi`` (or up to 1e18, where ``M`` is taken to saturate).
    :class:`ConstantMu` inverts in closed form; any other profile by
    ``brentq`` (xtol 1e-12, rtol 8.9e-16), which calls only ``big_m``.
    """
    big_m = base.big_m
    if hi < math.inf and big_m(hi) < level:
        return None
    if isinstance(base, ConstantMu):
        return min(level / base.mu, hi)
    if hi == math.inf:
        hi = 1.0
        while big_m(hi) < level:
            hi *= 2.0
            if hi > 1e18:
                return None
    if big_m(lo) >= level:
        return lo
    from scipy.optimize import brentq  # imported on first use, as in fit.minimize

    return float(brentq(lambda s: big_m(s) - level, lo, hi, xtol=1e-12, rtol=8.9e-16))


# ===== Rate families ==========================================================


class RateFamily(abc.ABC):
    """Common interface of the three rate families."""

    @abc.abstractmethod
    def lam_at(self, t: float) -> float: ...

    @abc.abstractmethod
    def mu_at(self, t: float) -> float: ...

    @abc.abstractmethod
    def total_rate_sup(self, t0: float, t1: float) -> float:
        """An upper bound of ``lam + mu`` on ``[t0, t1]`` (thinning envelope)."""

    def proportional_view(self) -> tuple[float, MuBase] | None:
        """(rho, mu-profile) when the family is a proportional one, else None."""
        return None

    def validate_horizon(self, horizon: float) -> None:
        """Raise if the family leaves the model's domain before ``horizon``."""


@dataclass(frozen=True)
class Constant(RateFamily):
    """Constant spreading and forgetting rates."""

    lam: float
    mu: float

    def __post_init__(self) -> None:
        check_positive("lam", self.lam)
        check_positive("mu", self.mu)

    def lam_at(self, t: float) -> float:
        return self.lam

    def mu_at(self, t: float) -> float:
        return self.mu

    def total_rate_sup(self, t0: float, t1: float) -> float:
        return self.lam + self.mu

    def proportional_view(self) -> tuple[float, MuBase]:
        return self.lam / self.mu, ConstantMu(self.mu)


@dataclass(frozen=True)
class Proportional(RateFamily):
    """``lam(t) = rho * mu(t)`` for a pluggable forgetting profile."""

    rho: float
    base_mu: MuBase

    def __post_init__(self) -> None:
        check_positive("rho", self.rho)
        if not isinstance(self.base_mu, MuBase):
            raise DomainError(
                f"base_mu must be a forgetting-rate profile, got {self.base_mu!r}"
            )
        curve_rho = getattr(self.base_mu, "rho", None)
        if curve_rho is not None and not math.isclose(
            curve_rho, self.rho, rel_tol=1e-12
        ):
            raise DomainError(
                f"rate ratio {self.rho} disagrees with the ratio {curve_rho} "
                "baked into the curve-induced forgetting profile"
            )

    def lam_at(self, t: float) -> float:
        return self.rho * self.base_mu.mu_at(t)

    def mu_at(self, t: float) -> float:
        return self.base_mu.mu_at(t)

    def total_rate_sup(self, t0: float, t1: float) -> float:
        return (1.0 + self.rho) * self.base_mu.mu_sup(t0, t1)

    def proportional_view(self) -> tuple[float, MuBase]:
        return self.rho, self.base_mu

    def validate_horizon(self, horizon: float) -> None:
        self.base_mu.validate_horizon(horizon)


@dataclass(frozen=True)
class Explicit(RateFamily):
    """Arbitrary rate callables with a declared total-rate sup bound.

    ``rate_sup_fn(t0, t1)`` must bound ``lam + mu`` from above on ``[t0, t1]``;
    the thinning sampler verifies the bound pointwise and raises if violated.
    """

    lambda_fn: Callable[[float], float]
    mu_fn: Callable[[float], float]
    rate_sup_fn: Callable[[float, float], float]

    def lam_at(self, t: float) -> float:
        return self.lambda_fn(t)

    def mu_at(self, t: float) -> float:
        return self.mu_fn(t)

    def total_rate_sup(self, t0: float, t1: float) -> float:
        return self.rate_sup_fn(t0, t1)


def resolve_method(rates: RateFamily, method: str) -> str:
    """The route of a transform or moment: ``"closed"`` or ``"ode"``.

    ``"auto"`` takes the closed route when the family has a proportional view
    and the ODE route otherwise; ``"closed"`` needs that view."""
    if method not in ("auto", "closed", "ode"):
        raise DomainError(f"unknown method {method!r}")
    view = rates.proportional_view()
    if method == "closed" and view is None:
        raise DomainError("the closed route needs a constant or proportional family")
    if method == "auto":
        return "closed" if view is not None else "ode"
    return method


# ===== Transforms =============================================================


def _closed(rates: RateFamily, t: float, method: str) -> bool:
    """Check ``t``, also against the family's validity window; True when the
    transform takes the closed route."""
    check_time(t)
    rates.validate_horizon(t)
    return resolve_method(rates, method) == "closed"


def _closed_value(rates: RateFamily, t: float, name: str, j: int = 1) -> float:
    """The closed form ``name`` of a constant or proportional family at ``t``."""
    from . import proportional as prop

    rho, base = rates.proportional_view()
    return float_or_array(getattr, prop._forms(rho, base.big_m(t), j), name)


def big_m(rates: RateFamily, t: float, method: str = "auto") -> float:
    """Cumulative forgetting intensity ``M(t) = int_0^t mu``."""
    if _closed(rates, t, method):
        _, base = rates.proportional_view()
        return base.big_m(t)
    from ._ode import moment_state

    return moment_state(rates, 1, t)[5]


def eta(rates: RateFamily, t: float, method: str = "auto") -> float:
    """Growth factor ``eta(t) = exp(int_0^t (lam - mu))``."""
    if _closed(rates, t, method):
        return _closed_value(rates, t, "eta")
    from ._ode import moment_state

    return moment_state(rates, 1, t)[0]


def phi_x(rates: RateFamily, t: float, method: str = "auto") -> float:
    """Discounted spreading integral ``int_0^t lam / eta``."""
    if _closed(rates, t, method):
        return _closed_value(rates, t, "phi_x")
    from ._ode import moment_state

    return moment_state(rates, 1, t)[6]


def phi_y(rates: RateFamily, t: float, method: str = "auto") -> float:
    """Amplified spreading integral ``int_0^t lam * eta``."""
    if _closed(rates, t, method):
        return _closed_value(rates, t, "phi_y")
    from ._ode import moment_state

    mx, _, my, *_ = moment_state(rates, 1, t)
    return my + mx - 1.0


def gamma(rates: RateFamily, j: int, t: float, method: str = "auto") -> float:
    """Mixed-moment integrand ``int_0^t mu eta (2 phi_x + j - 1)``."""
    check_j(j)
    if _closed(rates, t, method):
        return _closed_value(rates, t, "gamma", j)
    from ._ode import moment_state

    mx, _, _, mxy, *_ = moment_state(rates, j, t)
    return mxy / mx


# ===== Config parsing =========================================================


def mu_base_from_config(cfg: dict) -> MuBase:
    """Build a forgetting-rate profile from a JSON-style mapping."""
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise DataError(f"forgetting-rate config needs a 'kind' key, got {cfg!r}")
    kind = cfg["kind"]
    what = f"{kind!r} forgetting-rate profile"
    if kind == "constant":
        return ConstantMu(mu=config_field(cfg, "mu", what))
    if kind == "cosine":
        period = "period" if "period" in cfg else "Q"
        return CosineMu(
            mu=config_field(cfg, "mu", what),
            alpha=config_field(cfg, "alpha", what),
            period=config_field(cfg, period, what, default=0.0),
        )
    if kind == "curve":
        from .growth import CurveInducedMu, curve_from_config

        return CurveInducedMu(curve_from_config(cfg.get("curve")))
    raise DataError(f"unknown forgetting-rate profile kind {kind!r}")


def rates_from_config(cfg: dict) -> RateFamily:
    """Build a rate family from a JSON-style mapping."""
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise DataError(f"rates config needs a 'kind' key, got {cfg!r}")
    kind = cfg["kind"]
    if kind == "constant":
        lam = "lam" if "lam" in cfg else "lambda"
        if lam not in cfg or "mu" not in cfg:
            raise DataError("constant rates need 'lam' (or 'lambda') and 'mu'")
        what = "constant rates"
        return Constant(lam=config_field(cfg, lam, what), mu=config_field(cfg, "mu", what))
    if kind == "proportional":
        if "rho" not in cfg or "base" not in cfg:
            raise DataError("proportional rates need 'rho' and 'base'")
        return Proportional(
            rho=config_field(cfg, "rho", "proportional rates"),
            base_mu=mu_base_from_config(cfg["base"]),
        )
    raise DataError(f"unknown rate family kind {kind!r} (explicit rates are code-only)")
