"""Stable array-native kernels for the closed-form moment machinery.

Every closed-form moment of the time-changed process can be written in terms of
``x = (rho - 1) * M`` and four entire functions of ``x``::

    f1(x) = (e^x - 1) / x                 = sum_{m>=0} x^m / (m+1)!
    f2(x) = (e^x - 1 - x) / x^2           = sum_{m>=0} x^m / (m+2)!
    g4(x) = (e^x - 1)^2 / (2 x^2)         = sum_{m>=0} (2^{m+1}-1) x^m / (m+2)!
    h3(x) = (e^{2x} - 1 - 2x e^x)/(2 x^3) = sum_{m>=0} [2^{m+2}/(m+3)! - 1/(m+2)!] x^m

with removable singularities at 0: ``f1(0)=1``, ``f2(0)=1/2``, ``g4(0)=1/2``,
``h3(0)=1/6``.  The integrated building blocks are then::

    G1 = M f1(x)        # int mu eta
    G2 = rho M^2 f2(x)  # int mu eta phi_x
    G3 = rho M^3 h3(x)  # int mu eta G2
    G4 = M^2 g4(x)      # int mu eta G1

so the critical balance point ``rho = 1`` (``x = 0``) needs no special-casing
anywhere downstream.

The four kernels and :func:`one_minus_q_over_x` take a float or an array and
evaluate elementwise, so a whole grid costs one call; a scalar returns a
Python float, computed by the same code as the array elements, so scalar and
grid values agree bit for bit.  Values past the overflow threshold are inf;
ratios of kernels that stay finite where the kernels overflow are formed in
:mod:`rumorbd.proportional`.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# exp overflows beyond ~709.78; every kernel reports inf from here on.
_X_OVERFLOW = 709.0

# Maclaurin series are used inside this radius; ~30 terms reach machine
# precision at the boundary, and the closed forms lose no digits outside it.
_SERIES_RADIUS = 0.5
_SERIES_TERMS = 34

# Series coefficients, highest order first (np.polyval's order); the
# h3 ones are 2^{m+2}/(m+3)! - 1/(m+2)! == (2^{m+2} - (m+3))/(m+3)!.
_ORDERS = range(_SERIES_TERMS, -1, -1)
_F2_SERIES = np.array([1.0 / math.factorial(m + 2) for m in _ORDERS])
_H3_SERIES = np.array([(2.0 ** (m + 2) - (m + 3)) / math.factorial(m + 3) for m in _ORDERS])


@np.errstate(all="ignore")  # as a decorator: no errstate object per call
def float_or_array(fn, *args):
    """``fn(*args)`` with FP warnings off (overflow to inf is part of every
    contract here); a 0-d result is returned as a Python float."""
    out = fn(*args)
    return out if isinstance(out, np.ndarray) and out.ndim else float(out)


def elementwise(fn):
    """Run ``fn`` on its last argument as a float array, through
    :func:`float_or_array`; leading arguments (such as ``self``) pass as is.
    A number goes in as a float64 scalar: the same loops as an array element,
    with less call overhead than a 0-d array."""

    @functools.wraps(fn)
    def wrapper(*args):
        *head, x = args
        x = np.float64(x) if isinstance(x, (int, float)) else np.asarray(x, dtype=float)
        return float_or_array(fn, *head, x)

    return wrapper


def _split(x: np.ndarray, near, far) -> np.ndarray:
    """``near`` inside the series radius, ``far`` outside it; a branch no
    element takes is not evaluated."""
    inside = np.abs(x) <= _SERIES_RADIUS
    out = np.empty_like(x)
    for mask, fn in ((inside, near), (~inside, far)):
        if mask.any():
            out[mask] = fn(x[mask])
    return out


@elementwise
def f1(x):
    """(e^x - 1)/x with the removable singularity filled in."""
    out = np.where(x > _X_OVERFLOW, np.inf, np.expm1(x) / x)
    return np.where(x == 0.0, 1.0, out)


@elementwise
def f2(x):
    """(e^x - 1 - x)/x^2, the second exponential remainder."""
    return _split(
        x,
        functools.partial(np.polyval, _F2_SERIES),
        lambda v: np.where(v > _X_OVERFLOW, np.inf, (np.expm1(v) - v) / (v * v)),
    )


@elementwise
def g4(x):
    """(e^x - 1)^2 / (2 x^2) == f1(x)^2 / 2."""
    v = f1(x)
    return 0.5 * v * v


@elementwise
def h3(x):
    """(e^{2x} - 1 - 2x e^x) / (2 x^3)."""
    return _split(
        x,
        functools.partial(np.polyval, _H3_SERIES),
        lambda v: np.where(
            2.0 * v > _X_OVERFLOW,
            np.inf,
            (np.expm1(2.0 * v) / (2.0 * v) - np.exp(v)) / (v * v),
        ),
    )


# ===== Ratio kernel for the dispersion index ==================================


@elementwise
def one_minus_q_over_x(x):
    """(1 - x/(e^x - 1)) / x, the kernel of the dispersion-index formula.

    Entire in x with value 1/2 at 0.  Inside the series radius it is computed
    as f2(x)/f1(x), which keeps full precision (the direct form cancels
    near 0); outside, directly, with an underflow-safe tail for huge x.
    """

    def direct(v):
        q = np.where(
            v < _X_OVERFLOW, v / np.expm1(v), np.where(v < 745.0, v * np.exp(-v), 0.0)
        )
        return (1.0 - q) / v

    return _split(x, lambda v: f2(v) / f1(v), direct)
