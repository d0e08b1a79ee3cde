"""Constant-rate absorption probability in (lam, mu, t) form.

Constant rates are the proportional case ``lam(t) = rho * mu(t)`` with ``mu``
constant, so every constant-rate closed form is the one of
:mod:`rumorbd.proportional` at ``(rho, M) = (lam/mu, mu t)``.  This module
keeps only :func:`absorption_prob`, a separate transcription that the
benchmark's ``absorb`` check reads as its second route; it goes once that
check reads its own.
"""

from __future__ import annotations

import math

from .errors import check_j, check_positive, check_time


def absorption_prob(lam: float, mu: float, j: int, t: float) -> float:
    """P(absorbed by t) = P(X(t) = 0) from ``(j, 0)`` under constant rates."""
    check_positive("spreading rate", lam)
    check_positive("forgetting rate", mu)
    check_j(j)
    check_time(t)
    d = lam - mu
    if d == 0.0:
        p1 = mu * t / (1.0 + mu * t)
    elif d * t > 350.0:
        # supercritical long run: rewrite in exp(-d t) to dodge overflow
        w = math.exp(-d * t) if d * t < 745.0 else 0.0
        p1 = mu * (1.0 - w) / (lam * (1.0 - w) + d * w)
    else:
        em = math.expm1(d * t)
        p1 = mu * em / (lam * em + d)
    return p1**j
