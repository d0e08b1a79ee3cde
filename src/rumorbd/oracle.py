"""Brute-force verification oracle: the truncated master equation.

The forward (Kolmogorov) equations for the pair (X, Y) are solved on the
truncated rectangle {0..n_max} x {0..k_max}.  Probability flux out of the
rectangle — births attempted at n = n_max and forgets attempted at k = k_max —
is routed into an absorbing ``leaked_mass`` state, so ``p.sum() + leaked_mass
== 1`` holds to machine precision and the truncation error stays auditable
rather than silent.

The rate family picks one of two routes, reported as ``TruncatedGrid.route``:

* ``"uniformization"`` for every family with a ``proportional_view()``
  (constant, proportional and curve-induced rates).  Under lam = rho * mu(t),
  (X, Y) is the constant-rate chain with rates (rho, 1) read at operational
  time M(t) = int_0^t mu, so (Jensen 1953)

      p(M) = sum_i Poisson(Lam * M; i) P^i p(0),   P = I + Q / Lam,

  with Lam = n_max * (rho + 1), the largest exit rate on the rectangle.  P is
  nonnegative, so every table it produces is too.  Operational time is split
  into equal chunks with Lam * Delta <= 400, so exp(-Lam * Delta) never
  underflows.  In each chunk (a = Lam * Delta) the series stops at the first
  i with r = a / (i + 1) < 1 and w_i * r / (1 - r) < 1e-17, an a-priori bound
  on the Poisson mass left out; the kept weights are renormalised.  The
  result is therefore within total variation 2e-17 per chunk of the exact
  truncated chain, on top of floating-point rounding.  The bound is absolute:
  a probability far below it, such as a 1e-40 leak, is not held to a
  relative accuracy.
* ``"rk4"`` for ``Explicit`` rates, which have no time change to exploit:
  classical fixed-step RK4 with h = min(max_step, rate_budget / (n_max *
  sup(lam + mu))) (see :class:`StepControl`), which keeps the explicit scheme
  well inside its stability region.  Each step applies the generator four
  times.

``TruncatedGrid.applications`` counts the generator applications either
route made.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, NumericsError, check_j, check_time
from .rates import RateFamily

_CHUNK_MAX = 400.0  # cap on Lam * Delta per chunk: exp(-400) ~ 1.9e-174
_TAIL_TOL = 1e-17  # a-priori bound on the Poisson mass a chunk leaves out


@dataclass(frozen=True)
class StepControl:
    """Fixed-step bounds: h = min(max_step, rate_budget / (n_max * sup rate))."""

    max_step: float = 0.01
    rate_budget: float = 0.1

    def __post_init__(self) -> None:
        if not (self.max_step > 0.0 and math.isfinite(self.max_step)):
            raise DomainError(f"max_step must be positive, got {self.max_step}")
        if not (self.rate_budget > 0.0 and math.isfinite(self.rate_budget)):
            raise DomainError(f"rate_budget must be positive, got {self.rate_budget}")


@dataclass(eq=False)
class TruncatedGrid:
    """Dense probability table p[n, k] at a single time, plus leaked mass."""

    p: np.ndarray
    j: int
    t: float
    n_max: int
    k_max: int
    leaked_mass: float
    route: str  # "uniformization" or "rk4"
    applications: int  # generator applications made to reach t

    def total_mass(self) -> float:
        return float(self.p.sum())

    def prob(self, n: int, k: int) -> float:
        if not (0 <= n <= self.n_max and 0 <= k <= self.k_max):
            raise DomainError(
                f"state ({n}, {k}) is outside the grid "
                f"[0..{self.n_max}] x [0..{self.k_max}]"
            )
        return float(self.p[n, k])


class GridMoments(NamedTuple):
    m_x: float
    m_y: float
    var_x: float
    var_y: float
    cov: float


def _flow(
    p: np.ndarray, lam: float, mu: float, nvec: np.ndarray
) -> tuple[np.ndarray, float]:
    """Master-equation derivative and instantaneous leak rate.

    Inflow to (n, k) comes from a spread at (n-1, k) and a forget at
    (n+1, k-1); outflow is n(lam+mu).  Mass pushed past n_max (spread in the
    top row) or past k_max (forget in the last column) is the leak.
    """
    ncol = nvec[:, None]
    dp = -(lam + mu) * ncol * p
    dp[1:, :] += lam * (ncol[:-1] * p[:-1, :])
    dp[:-1, 1:] += mu * (ncol[1:] * p[1:, :-1])
    leak = lam * nvec[-1] * float(p[-1, :].sum()) + mu * float(nvec[1:] @ p[1:, -1])
    return dp, leak


def _poisson_weights(a: float) -> list[float]:
    """Poisson(a) weights w_0..w_N, cut where the right tail is below _TAIL_TOL.

    The tail beyond w_i is at most w_i * r / (1 - r) with r = a / (i + 1) < 1,
    because each later weight is at most r times the one before it.
    """
    w = math.exp(-a)
    weights = [w]
    i = 0
    while True:
        r = a / (i + 1)
        if r < 1.0 and w * r / (1.0 - r) < _TAIL_TOL:
            break
        i += 1
        w *= r
        weights.append(w)
    total = math.fsum(weights)
    return [x / total for x in weights]


def _uniformized(
    p: np.ndarray, rho: float, big_m: float, n_max: int
) -> tuple[np.ndarray, float, int]:
    """Run the (rho, 1) chain over operational time ``big_m`` by uniformization."""
    lam_u = n_max * (rho + 1.0)
    chunks = max(1, math.ceil(lam_u * big_m / _CHUNK_MAX))
    weights = _poisson_weights(lam_u * big_m / chunks)
    nvec = np.arange(n_max + 1, dtype=float)
    leak = 0.0
    for _ in range(chunks):
        q, q_leak = p, leak
        p = weights[0] * q
        leak = weights[0] * q_leak
        for w in weights[1:]:
            dq, dleak = _flow(q, rho, 1.0, nvec)
            q = q + dq / lam_u
            q_leak += dleak / lam_u
            p += w * q
            leak += w * q_leak
    return p, leak, chunks * (len(weights) - 1)


def _rk4(
    rates: RateFamily, p: np.ndarray, t: float, n_max: int, control: StepControl
) -> tuple[np.ndarray, float, int]:
    """Integrate the forward equations to ``t`` with fixed-step RK4."""
    if t == 0.0:
        return p, 0.0, 0
    sup_tot = rates.total_rate_sup(0.0, t)
    if not (math.isfinite(sup_tot) and sup_tot >= 0.0):
        raise DomainError(f"rate supremum over [0, {t}] must be finite, got {sup_tot}")
    if sup_tot > 0.0:
        h = min(control.max_step, control.rate_budget / (n_max * sup_tot))
    else:
        h = control.max_step
    steps = max(1, math.ceil(t / h))
    h = t / steps
    nvec = np.arange(n_max + 1, dtype=float)
    leak = 0.0
    for i in range(steps):
        t0 = i * h
        tm = t0 + 0.5 * h
        t1 = t0 + h
        la0, mu0 = rates.lam_at(t0), rates.mu_at(t0)
        lam, mum = rates.lam_at(tm), rates.mu_at(tm)
        la1, mu1 = rates.lam_at(t1), rates.mu_at(t1)
        k1, l1 = _flow(p, la0, mu0, nvec)
        k2, l2 = _flow(p + (0.5 * h) * k1, lam, mum, nvec)
        k3, l3 = _flow(p + (0.5 * h) * k2, lam, mum, nvec)
        k4, l4 = _flow(p + h * k3, la1, mu1, nvec)
        p = p + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        leak += (h / 6.0) * (l1 + 2.0 * (l2 + l3) + l4)
    return p, leak, 4 * steps


def solve_forward(
    rates: RateFamily,
    j: int,
    t: float,
    n_max: int,
    k_max: int,
    step_control: StepControl | None = None,
    *,
    max_leak: float = 1e-4,
) -> TruncatedGrid:
    """Solve the truncated forward equations from (j, 0) up to time ``t``.

    Constant and proportional rates take the uniformization route, which has
    no step to control: passing ``step_control`` for them is a domain error.
    ``Explicit`` rates take the RK4 route with ``step_control`` (default
    :class:`StepControl()`).

    Raises a numerics error when the accumulated leaked mass exceeds
    ``max_leak`` (enlarge the grid or shorten the horizon).  Note that mass
    which leaks at the n_max edge can never return to low-(n, k) states
    without pushing k past the states it left behind, so probabilities of
    individual small states remain accurate even when the total leak is
    sizeable; callers exploiting this may raise ``max_leak`` explicitly.
    """
    check_j(j)
    check_time(t)
    for name, v in (("n_max", n_max), ("k_max", k_max)):
        if not isinstance(v, int) or isinstance(v, bool) or v < j + 5:
            raise DomainError(f"{name} must be an integer >= j+5 = {j + 5}, got {v!r}")
    rates.validate_horizon(t)
    view = rates.proportional_view()
    if view is not None and step_control is not None:
        raise DomainError(
            "step_control applies only to Explicit rates; constant and "
            "proportional rates are solved by uniformization, which has no step"
        )

    p = np.zeros((n_max + 1, k_max + 1), dtype=float)
    p[j, 0] = 1.0
    if view is not None:
        rho, base_mu = view
        big_m = base_mu.big_m(t)
        if not math.isfinite(big_m):
            raise DomainError(f"cumulative intensity M({t}) must be finite, got {big_m}")
        p, leak, applications = _uniformized(p, rho, big_m, n_max)
        route = "uniformization"
    else:
        control = step_control if step_control is not None else StepControl()
        p, leak, applications = _rk4(rates, p, t, n_max, control)
        route = "rk4"

    if not np.all(np.isfinite(p)) or not math.isfinite(leak):
        advice = "; reduce the step bounds" if route == "rk4" else ""
        raise NumericsError(
            f"the {route} route produced non-finite probabilities{advice}"
        )
    if leak > max_leak:
        raise NumericsError(
            f"probability leak {leak:.3e} exceeds max_leak={max_leak:.3e}; "
            "enlarge n_max/k_max or shorten the horizon"
        )
    return TruncatedGrid(
        p=p, j=j, t=t, n_max=n_max, k_max=k_max, leaked_mass=float(leak),
        route=route, applications=applications,
    )


def moments_from_grid(grid: TruncatedGrid) -> GridMoments:
    """Expectations over the truncated table (left unnormalized on purpose).

    Requires leaked_mass <= 1e-6: beyond that the missing tail mass would
    contaminate the moments by more than the advertised accuracy.
    """
    if grid.leaked_mass > 1e-6:
        raise NumericsError(
            f"grid leaked {grid.leaked_mass:.3e} > 1e-6 of its mass; "
            "moments over the truncated table would be unreliable"
        )
    p = grid.p
    n = np.arange(grid.n_max + 1, dtype=float)
    k = np.arange(grid.k_max + 1, dtype=float)
    pn = p.sum(axis=1)
    pk = p.sum(axis=0)
    m_x = float(n @ pn)
    m_y = float(k @ pk)
    m2_x = float((n * n) @ pn)
    m2_y = float((k * k) @ pk)
    m_xy = float(n @ p @ k)
    return GridMoments(
        m_x=m_x,
        m_y=m_y,
        var_x=m2_x - m_x * m_x,
        var_y=m2_y - m_y * m_y,
        cov=m_xy - m_x * m_y,
    )
