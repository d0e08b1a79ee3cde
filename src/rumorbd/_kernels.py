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
grid values agree bit for bit.  Values past the overflow threshold are inf.
Each kernel has a scalar log-domain companion, used when ``e^x`` would
overflow the float range.
"""

from __future__ import annotations

import functools
import math

import numpy as np

_LN2 = math.log(2.0)

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


def float_or_array(fn, *args):
    """``fn(*args)`` with FP warnings off (overflow to inf is part of every
    contract here); a 0-d result is returned as a Python float."""
    with np.errstate(all="ignore"):
        out = np.asarray(fn(*args))
    return float(out) if out.ndim == 0 else out


def _elementwise(kernel):
    """Run ``kernel`` on ``x`` as a float array, through :func:`float_or_array`."""

    @functools.wraps(kernel)
    def wrapper(x):
        return float_or_array(kernel, np.asarray(x, dtype=float))

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


@_elementwise
def f1(x):
    """(e^x - 1)/x with the removable singularity filled in."""
    out = np.where(x > _X_OVERFLOW, np.inf, np.expm1(x) / x)
    return np.where(x == 0.0, 1.0, out)


@_elementwise
def f2(x):
    """(e^x - 1 - x)/x^2, the second exponential remainder."""
    return _split(
        x,
        functools.partial(np.polyval, _F2_SERIES),
        lambda v: np.where(v > _X_OVERFLOW, np.inf, (np.expm1(v) - v) / (v * v)),
    )


@_elementwise
def g4(x):
    """(e^x - 1)^2 / (2 x^2) == f1(x)^2 / 2."""
    v = f1(x)
    return 0.5 * v * v


@_elementwise
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


# ===== Log-domain companions ==================================================
# Valid for x > 0; exact rearrangements, no asymptotic truncation.


def log_f1(x: float) -> float:
    """log f1(x) for x > 0."""
    if x <= 0.0:
        raise ValueError("log_f1 requires x > 0")
    return x + math.log1p(-math.exp(-x)) - math.log(x)


def log_f2(x: float) -> float:
    """log f2(x) for x > 0."""
    if x <= 0.0:
        raise ValueError("log_f2 requires x > 0")
    if x <= 40.0:
        return math.log(f2(x))
    # e^x - 1 - x = e^x (1 - (1+x) e^{-x}); the correction is < 2^-53 for x > 40
    return x + math.log1p(-(1.0 + x) * math.exp(-x)) - 2.0 * math.log(x)


def log_g4(x: float) -> float:
    """log g4(x) for x > 0."""
    return 2.0 * log_f1(x) - _LN2


def log_h3(x: float) -> float:
    """log h3(x) for x > 0."""
    if x <= 0.0:
        raise ValueError("log_h3 requires x > 0")
    if x <= 45.0:
        return math.log(h3(x))
    # e^{2x} - 1 - 2x e^x = e^{2x} (1 - e^{-2x} - 2x e^{-x})
    return (
        2.0 * x
        + math.log1p(-math.exp(-2.0 * x) - 2.0 * x * math.exp(-x))
        - _LN2
        - 3.0 * math.log(x)
    )


# ===== Ratio kernel for the dispersion index ==================================


@_elementwise
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
