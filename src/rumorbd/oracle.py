"""Brute-force verification oracle: the truncated master equation.

The forward (Kolmogorov) equations for (X, Y) are solved on {0..n_max} x
{0..k_max}, stored row by row as one flat vector over the padded
(n_max + 2) x (k_max + 2) grid (s = k_max + 2 cells a row).  The extra row and
column are absorbing leak cells: a spread from the top row (s cells on) and a
forget from the last column (s - 1 cells back) reach them like any other move.
``leaked_mass`` is their ``math.fsum`` and the table is the live block, so
``p.sum() + leaked_mass == 1`` holds to rounding.  Both routes apply the
generator in five contiguous passes, G q = a q + shift_s(b q) +
shift_{s-1}(c q); b and c are n times a rate, so 0 on the leak cells.

The rate family picks one of two routes, reported as ``TruncatedGrid.route``:

* ``"uniformization"`` for every family with a ``proportional_view()``
  (constant, proportional and curve-induced rates).  Under lam = rho * mu(t),
  (X, Y) is the constant-rate chain with rates (rho, 1) read at operational
  time M(t) = int_0^t mu, so (Jensen 1953)

      p(M) = sum_i Poisson(Lam * M; i) P^i p(0),   P = I + Q / Lam,

  with Lam = n_max * (rho + 1), the largest exit rate on the rectangle.  P is G
  at a = 1 - n (rho + 1) / Lam (1 on the leak cells), b = rho n / Lam and
  c = n / Lam; in the top row n (rho + 1) is Lam bit for bit, so a is exactly
  0, never below.  P is nonnegative, and so is every table it produces.
  Operational time is split into equal chunks with Lam * Delta <= 400, so
  exp(-Lam * Delta) never underflows.  In each chunk (x = Lam * Delta) the
  series stops at the first i with r = x / (i + 1) < 1 and
  w_i * r / (1 - r) < 1e-17, an a-priori bound on the Poisson mass left out;
  the kept weights are renormalised.  The result is therefore within total
  variation 2e-17 per chunk of the exact truncated chain, on top of
  floating-point rounding.  The bound is absolute: a probability far below
  it, such as a 1e-40 leak, is not held to a relative accuracy.
* ``"rk4"`` for ``Explicit`` rates, which have no time change to exploit:
  classical fixed-step RK4 on G with a = -(lam + mu) n, b = lam n, c = mu n
  at each stage, and h = min(max_step, rate_budget / (n_max * sup(lam +
  mu))) (see :class:`StepControl`), which keeps the explicit scheme well
  inside its stability region.  Each step applies the generator four times.

``TruncatedGrid.applications`` counts the generator applications either
route made.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, NumericsError, check_int, check_j, check_positive, check_time
from .rates import RateFamily

_CHUNK_MAX = 400.0  # cap on Lam * Delta per chunk: exp(-400) ~ 1.9e-174
_TAIL_TOL = 1e-17  # a-priori bound on the Poisson mass a chunk leaves out


@dataclass(frozen=True)
class StepControl:
    """Fixed-step bounds: h = min(max_step, rate_budget / (n_max * sup rate))."""

    max_step: float = 0.01
    rate_budget: float = 0.1

    def __post_init__(self) -> None:
        check_positive("max_step", self.max_step)
        check_positive("rate_budget", self.rate_budget)


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


def _apply(q: np.ndarray, a, b, c, s: int, out: np.ndarray, tmp: np.ndarray) -> None:
    """``out = a q + shift_s(b q) + shift_{s-1}(c q)``: G or P applied to ``q``."""
    np.multiply(a, q, out=out)
    np.multiply(b, q, out=tmp)
    np.add(out[s:], tmp[:-s], out=out[s:])
    np.multiply(c, q, out=tmp)
    np.add(out[: 1 - s], tmp[s - 1:], out=out[: 1 - s])


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
    p: np.ndarray, n, s: int, rho: float, big_m: float, n_max: int
) -> tuple[np.ndarray, int]:
    """Run the (rho, 1) chain over operational time ``big_m`` by uniformization."""
    lam_u = n_max * (rho + 1.0)
    chunks = max(1, math.ceil(lam_u * big_m / _CHUNK_MAX))
    weights = _poisson_weights(lam_u * big_m / chunks)
    a, b, c = 1.0 - n * (rho + 1.0) / lam_u, rho * n / lam_u, n / lam_u
    q_next, tmp = np.empty_like(p), np.empty_like(p)
    for _ in range(chunks):
        q, p = p, weights[0] * p
        for w in weights[1:]:
            _apply(q, a, b, c, s, q_next, tmp)
            q, q_next = q_next, q
            np.multiply(q, w, out=tmp)
            np.add(p, tmp, out=p)
    return p, chunks * (len(weights) - 1)


def _rk4(
    rates: RateFamily, p: np.ndarray, n, s: int, t: float, n_max: int, control: StepControl
) -> tuple[np.ndarray, int]:
    """Integrate the forward equations to ``t`` with fixed-step RK4."""
    if t == 0.0:
        return p, 0
    sup_tot = rates.total_rate_sup(0.0, t)
    if not (math.isfinite(sup_tot) and sup_tot >= 0.0):
        raise DomainError(f"rate supremum over [0, {t}] must be finite, got {sup_tot}")
    if sup_tot > 0.0:
        h = min(control.max_step, control.rate_budget / (n_max * sup_tot))
    else:
        h = control.max_step
    steps = max(1, math.ceil(t / h))
    h = t / steps
    k1, k2, k3, k4, tmp = (np.empty_like(p) for _ in range(5))

    def generator(at: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        lam, mu = rates.lam_at(at), rates.mu_at(at)
        return -(lam + mu) * n, lam * n, mu * n

    for i in range(steps):
        t0 = i * h
        g0, gm, g1 = generator(t0), generator(t0 + 0.5 * h), generator(t0 + h)
        _apply(p, *g0, s, k1, tmp)
        _apply(p + (0.5 * h) * k1, *gm, s, k2, tmp)
        _apply(p + (0.5 * h) * k2, *gm, s, k3, tmp)
        _apply(p + h * k3, *g1, s, k4, tmp)
        p = p + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
    return p, 4 * steps


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
    ``max_leak``, which must be positive and finite (enlarge the grid or
    shorten the horizon).  Note that mass which leaks at the n_max edge can
    never return to low-(n, k) states without pushing k past the states it
    left behind, so probabilities of individual small states remain accurate
    even when the total leak is sizeable; callers exploiting this may raise
    ``max_leak`` explicitly.
    """
    check_j(j)
    check_time(t)
    check_int("n_max", n_max, j + 5)
    check_int("k_max", k_max, j + 5)
    check_positive("max_leak", max_leak)
    rates.validate_horizon(t)
    view = rates.proportional_view()
    if view is not None and step_control is not None:
        raise DomainError(
            "step_control applies only to Explicit rates; constant and "
            "proportional rates are solved by uniformization, which has no step"
        )

    s = k_max + 2
    p = np.zeros((n_max + 2) * s)
    p[j * s] = 1.0
    n = (np.arange(p.size) // s).astype(float)
    n[s - 1::s] = n[-s:] = 0.0  # the leak cells
    if view is not None:
        rho, base_mu = view
        big_m = base_mu.big_m(t)
        if not math.isfinite(big_m):
            raise DomainError(f"cumulative intensity M({t}) must be finite, got {big_m}")
        p, applications = _uniformized(p, n, s, rho, big_m, n_max)
        route = "uniformization"
    else:
        control = step_control if step_control is not None else StepControl()
        p, applications = _rk4(rates, p, n, s, t, n_max, control)
        route = "rk4"

    if not np.all(np.isfinite(p)):
        advice = "; reduce the step bounds" if route == "rk4" else ""
        raise NumericsError(
            f"the {route} route produced non-finite probabilities{advice}"
        )
    p = p.reshape(n_max + 2, s)
    leak = math.fsum(np.concatenate((p[-1], p[:-1, -1])))
    if leak > max_leak:
        raise NumericsError(
            f"probability leak {leak:.3e} exceeds max_leak={max_leak:.3e}; "
            "enlarge n_max/k_max or shorten the horizon"
        )
    return TruncatedGrid(
        p=p[:-1, :-1].copy(), j=j, t=t, n_max=n_max, k_max=k_max, leaked_mass=leak,
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
