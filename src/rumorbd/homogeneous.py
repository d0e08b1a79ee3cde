"""Constant-rate (time-homogeneous) closed forms.

For constant spreading rate ``lam`` and forgetting rate ``mu`` the joint
probability generating function of ``(X(t), Y(t))`` started from ``(j, 0)`` is
``G(z1, z2, t) = g(z1, z2, t)^j`` where ``g`` is the single-ancestor p.g.f.::

            xi2 (z1 - xi1) - xi1 (z1 - xi2) E
    g(t) = -----------------------------------,   E = exp(lam * t * (xi2 - xi1)),
              (z1 - xi1) - (z1 - xi2) E

and ``xi1 <= xi2`` are the roots of ``lam xi^2 - (lam + mu) xi + z2 mu = 0``::

    xi_{1,2} = ((lam + mu) -/+ sqrt((lam + mu)^2 - 4 z2 lam mu)) / (2 lam).

The discriminant is nonnegative for real ``z2 <= 1`` and degenerates only at
``z2 -> 1`` together with ``lam -> mu``; that corner is evaluated with the
confluent (double-root) form

    g(t) = xi + (z1 - xi) / (1 - lam t (z1 - xi)),      xi = (lam + mu)/(2 lam).

Absorption happens in the set ``{X = 0}``; the probability of having been
absorbed by time ``t`` and its ``t -> oo`` limit, the limiting distribution of
the final inactive count ``p_{0,k}``, and the early absorption probability
``p_{0,1}(t)`` all have elementary forms implemented below.
"""

from __future__ import annotations

import math

from .errors import DomainError, check_final_count, check_j, check_time, check_z

# Relative-discriminant threshold below which the double-root form is used.
# At z2 = 1 this is equivalent to |lam - mu| / (lam + mu) < 1e-9.
_CONFLUENT_REL_DISC = 1e-18


def _check_rates(lam: float, mu: float) -> None:
    if not (lam > 0.0 and math.isfinite(lam)):
        raise DomainError(f"spreading rate must be positive and finite, got {lam}")
    if not (mu > 0.0 and math.isfinite(mu)):
        raise DomainError(f"forgetting rate must be positive and finite, got {mu}")


# ===== Probability generating function ========================================


def pgf(lam: float, mu: float, j: int, z1: float, z2: float, t: float) -> float:
    """Joint p.g.f. ``E[z1^X(t) z2^Y(t)]`` from ``(j, 0)`` under constant rates."""
    _check_rates(lam, mu)
    check_j(j)
    check_time(t)
    check_z("z1", z1)
    check_z("z2", z2)
    if t == 0.0:
        return z1**j

    tot = lam + mu
    disc = tot * tot - 4.0 * z2 * lam * mu
    if disc / (tot * tot) <= _CONFLUENT_REL_DISC:
        xi = tot / (2.0 * lam)
        g = xi + (z1 - xi) / (1.0 - lam * t * (z1 - xi))
        return g**j

    s = math.sqrt(disc)
    xi1 = (tot - s) / (2.0 * lam)
    xi2 = (tot + s) / (2.0 * lam)
    # Multiply numerator and denominator by exp(-s t) so nothing overflows:
    # lam * t * (xi2 - xi1) = s * t.
    em = math.exp(-s * t) if s * t < 745.0 else 0.0
    num = xi2 * (z1 - xi1) * em - xi1 * (z1 - xi2)
    den = (z1 - xi1) * em - (z1 - xi2)
    g = num / den
    return g**j


# ===== Absorption =============================================================


def absorption_prob(lam: float, mu: float, j: int, t: float) -> float:
    """P(absorbed by t) = P(X(t) = 0) from ``(j, 0)`` under constant rates."""
    _check_rates(lam, mu)
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


def absorption_limit(lam: float, mu: float, j: int) -> float:
    """t -> oo limit of :func:`absorption_prob`: ``(mu/lam)^j`` if lam > mu else 1."""
    _check_rates(lam, mu)
    check_j(j)
    if lam > mu:
        return (mu / lam) ** j
    return 1.0


def p0k_limit(lam: float, mu: float, j: int, k: int) -> float:
    """Limiting probability that absorption ends at ``(0, k)``.

    The final inactive count of an eventually absorbed path has distribution::

        p_{0,k} = (lam mu / (lam+mu)^2)^k ((lam+mu)/lam)^j
                  [ C(2k-j-1, k-1) - C(2k-j-1, k) ],     k >= j.

    The binomial difference equals ``(j/(2k-j)) C(2k-j, k)`` (ballot form),
    which is evaluated through ``lgamma`` for large ``k`` where exact binomials
    would overflow on conversion to float.
    """
    _check_rates(lam, mu)
    check_j(j)
    check_final_count(j, k)
    tot = lam + mu
    c = lam * mu / (tot * tot)
    if k <= 300:
        n = 2 * k - j - 1
        bracket = math.comb(n, k - 1) - (math.comb(n, k) if n >= k else 0)
        return bracket * c**k * (tot / lam) ** j
    log_p = (
        math.log(j)
        - math.log(2 * k - j)
        + math.lgamma(2 * k - j + 1)
        - math.lgamma(k + 1)
        - math.lgamma(k - j + 1)
        + k * math.log(c)
        + j * math.log(tot / lam)
    )
    return math.exp(log_p)


def p01(lam: float, mu: float, t: float) -> float:
    """P(X(t) = 0, Y(t) = 1): absorbed after a single forgetting event."""
    _check_rates(lam, mu)
    check_time(t)
    tot = lam + mu
    return mu * (-math.expm1(-tot * t)) / tot
