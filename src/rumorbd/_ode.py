"""The one numeric engine: the moment equations integrated once per grid.

For any rate family the first and second moments of ``(X, Y)`` started from
``(j, 0)`` solve the linear system implied by the master equation, which is
carried here together with the two integrals the transforms of
:mod:`rumorbd.rates` need and the moments do not determine::

    m_X'   = (lam - mu) m_X
    m2_X'  = (lam + mu) m_X + 2 (lam - mu) m2_X
    m_Y'   = mu m_X
    m_XY'  = (lam - mu) m_XY + mu (m2_X - m_X)
    m2_Y'  = mu (2 m_XY + m_X)
    M'     = mu
    phi_x' = lam j / m_X                      (= lam / eta)

One DOP853 solve runs from 0 to the last requested time and reports the
state at every requested time.  Nothing is cached: the value at ``t`` depends
only on ``(rates, j, t)`` and on the last requested time, which sets the
solver's steps.  The state carries second moments, which grow like
``eta^2``, so it overflows once ``int_0^t (lam - mu)`` exceeds about 354.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericsError

_ODE_OPTS = dict(method="DOP853", rtol=1e-12, atol=1e-14)


def moment_states(rates, j: int, times) -> np.ndarray:
    """``[m_X, m2_X, m_Y, m_XY, m2_Y, M, phi_x]`` at each of ``times``, one row each.

    ``times`` must be a nondecreasing sequence of validated times.
    """
    # imported here: scipy.integrate takes longer to import than all of rumorbd
    from scipy.integrate import solve_ivp

    grid, back = np.unique(np.asarray(times, dtype=float), return_inverse=True)
    y0 = [float(j), float(j * j), 0.0, 0.0, 0.0, 0.0, 0.0]
    if not grid.size or grid[-1] == 0.0:
        return np.tile(y0, (len(back), 1))

    def rhs(s, y):
        mx, m2x, _, mxy, _, _, _ = y
        lam = rates.lam_at(s)
        mu = rates.mu_at(s)
        return [
            (lam - mu) * mx,
            (lam + mu) * mx + 2.0 * (lam - mu) * m2x,
            mu * mx,
            (lam - mu) * mxy + mu * (m2x - mx),
            mu * (2.0 * mxy + mx),
            mu,
            lam * j / mx,
        ]

    sol = solve_ivp(rhs, (0.0, grid[-1]), y0, t_eval=grid, **_ODE_OPTS)
    if not sol.success:
        raise NumericsError(f"moment integration failed at t={grid[-1]}: {sol.message}")
    if not np.isfinite(sol.y).all():
        raise NumericsError(
            f"moment integration overflowed before t={grid[-1]}; use the closed route"
        )
    return sol.y[:, back].T


def moment_state(rates, j: int, t: float) -> list[float]:
    """The state at one time, from a solve to that time."""
    return moment_states(rates, j, [t])[0].tolist()
