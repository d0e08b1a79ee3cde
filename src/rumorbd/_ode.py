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

One LSODA solve (``scipy.integrate.odeint``, rtol 1e-13, atol 1e-15) runs
from 0 to the last requested time and interpolates the state at every
requested time.  Its first step is fixed and the last requested time is a
critical time it never steps past, so no rate is evaluated beyond it and the
steps depend only on the last requested time.  Nothing is cached: the value
at ``t`` depends only on ``(rates, j, t)`` and on the last requested time.

The state carries second moments, which grow like ``eta^2``, so it
overflows once ``int_0^t (lam - mu)`` exceeds about 354.  The right-hand
side raises :class:`NumericsError` as soon as it is handed a state that left
the float range, rather than letting the solver shrink its step against it.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import NumericsError
from .rates import Proportional

# h0: a first step sized from the first requested time would make the steps,
# and so the values, depend on the whole grid; mxstep bounds the steps
# between two requested times (odeint's default of 500 is too few at 1e-13)
_ODE_OPTS = dict(rtol=1e-13, atol=1e-15, h0=1e-6, mxstep=10**6)


def moment_states(rates, j: int, times) -> np.ndarray:
    """``[m_X, m2_X, m_Y, m_XY, m2_Y, M, phi_x]`` at each of ``times``, one row each.

    ``times`` must be a nondecreasing sequence of validated times.
    """
    # imported here: scipy.integrate takes longer to import than all of rumorbd
    from scipy.integrate import ODEintWarning, odeint

    grid, back = np.unique(np.asarray(times, dtype=float), return_inverse=True)
    y0 = [float(j), float(j * j), 0.0, 0.0, 0.0, 0.0, 0.0]
    if not grid.size or grid[-1] == 0.0:
        return np.tile(y0, (len(back), 1))
    # odeint reports the initial state as its first row
    out_times = grid if grid[0] == 0.0 else np.concatenate(([0.0], grid))
    rho = rates.rho if isinstance(rates, Proportional) else None  # rho * mu is lam_at

    def rhs(s, y):
        # python floats, so an overflow below gives inf rather than a warning;
        # the next call then sees a state that is not finite (or m_X, which
        # is j e^L > 0, underflowed to 0) and stops the solve
        state = y.tolist()
        mx, m2x, _, mxy, _, _, _ = state
        if mx == 0.0 or not math.isfinite(sum(state)):
            raise NumericsError(
                f"moment integration left the float range at t={s}; use the closed route"
            )
        mu = float(rates.mu_at(s))
        lam = float(rates.lam_at(s)) if rho is None else rho * mu  # one profile read
        return [
            (lam - mu) * mx,
            (lam + mu) * mx + 2.0 * (lam - mu) * m2x,
            mu * mx,
            (lam - mu) * mxy + mu * (m2x - mx),
            mu * (2.0 * mxy + mx),
            mu,
            lam * j / mx,
        ]

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ODEintWarning)  # a failure is reported below
        states, info = odeint(
            rhs, y0, out_times, tfirst=True, tcrit=grid[-1:], full_output=True, **_ODE_OPTS
        )
    if info["message"] != "Integration successful.":
        raise NumericsError(f"moment integration failed before t={grid[-1]}: {info['message']}")
    return states[out_times.size - grid.size:][back]


def moment_state(rates, j: int, t: float) -> list[float]:
    """The state at one time, from a solve to that time."""
    return moment_states(rates, j, [t])[0].tolist()
