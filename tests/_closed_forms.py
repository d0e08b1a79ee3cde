"""Independent closed-form transcriptions used as dual-route oracles.

Everything here is written in the plainest possible algebra — direct
exponentials, no cancellation-avoiding kernels, no shared helpers with the
package — so that agreement between these expressions and the package
implementations is a genuine two-route check rather than a tautology.
Only small/moderate arguments are used in tests, where the naive forms are
numerically fine.

The proportional-intensity process is a deterministic time change of the
homogeneous one: (rho, M(t)) plays the role of (lam/mu, mu*t).  The
homogeneous forms below evaluated at (lam=rho, mu=1, t=M) therefore provide
an independent route to every proportional-case moment.
"""

import math


# ===== Time-homogeneous moment displays =======================================


def mean_x(lam: float, mu: float, j: int, t: float) -> float:
    return j * math.exp((lam - mu) * t)


def var_x(lam: float, mu: float, j: int, t: float) -> float:
    if lam == mu:
        return 2.0 * j * mu * t
    d = lam - mu
    e = math.exp(d * t)
    return j * (lam + mu) / d * e * (e - 1.0)


def mean_y(lam: float, mu: float, j: int, t: float) -> float:
    if lam == mu:
        return j * mu * t
    d = lam - mu
    return j * mu * (math.exp(d * t) - 1.0) / d


def m2_y(lam: float, mu: float, j: int, t: float) -> float:
    if lam == mu:
        u = mu * t
        return j * u * (3.0 + 3.0 * (j - 1) * u + 2.0 * u * u) / 3.0
    d = lam - mu
    e = math.exp(d * t)
    e2 = math.exp(2.0 * d * t)
    return (
        j
        * mu
        / d**3
        * (
            -(lam**2)
            - lam * mu
            + j * lam * mu
            - j * mu**2
            + e2 * mu * (lam + j * lam + mu - j * mu)
            + e * (mu - lam) * ((2 * j - 1) * mu + lam * (4.0 * mu * t - 1.0))
        )
    )


def var_y(lam: float, mu: float, j: int, t: float) -> float:
    if lam == mu:
        u = mu * t
        return j * u * (1.0 - u + 2.0 * u * u / 3.0)
    d = lam - mu
    e = math.exp(d * t)
    e2 = math.exp(2.0 * d * t)
    return (
        j
        * mu
        / d**3
        * (
            -lam * (lam + mu)
            + e2 * mu * (lam + mu)
            + e * (mu - lam) * (-mu + lam * (4.0 * mu * t - 1.0))
        )
    )


def mixed_moment(lam: float, mu: float, j: int, t: float) -> float:
    if lam == mu:
        return j * mu * t * (j + mu * t - 1.0)
    d = lam - mu
    e = math.exp(d * t)
    big = e / (mu - lam) * (2.0 * lam * t - (e - 1.0) * (lam + j * lam + mu - j * mu) / d)
    return j * mu * big


def cov(lam: float, mu: float, j: int, t: float) -> float:
    return mixed_moment(lam, mu, j, t) - mean_x(lam, mu, j, t) * mean_y(lam, mu, j, t)


def corr(lam: float, mu: float, j: int, t: float) -> float:
    return cov(lam, mu, j, t) / math.sqrt(var_x(lam, mu, j, t) * var_y(lam, mu, j, t))


def r_index(lam: float, mu: float, j: int, t: float) -> float:
    if lam == mu:
        return 1.0 + (mu * t - 1.0) / j
    d = lam - mu
    return 1.0 + ((lam + mu) / d - 2.0 * lam * t / math.expm1(d * t)) / j


def corr_zero_limit(lam: float, mu: float) -> float:
    return -math.sqrt(mu / (lam + mu))


def underdispersion_root(lam: float, mu: float) -> float:
    """Time at which Fano(X) crosses 1 (supercritical case)."""
    return math.log(2.0 * lam / (lam + mu)) / (lam - mu)


def var_y_limit_subcritical(lam: float, mu: float, j: int) -> float:
    return j * lam * mu * (lam + mu) / (mu - lam) ** 3


def absorption(lam: float, mu: float, j: int, t: float) -> float:
    if lam == mu:
        return (mu * t / (1.0 + mu * t)) ** j
    e = math.exp((lam - mu) * t)
    return (mu * (e - 1.0) / (lam * e - mu)) ** j


def p01(lam: float, mu: float, t: float) -> float:
    return mu * (1.0 - math.exp(-(lam + mu) * t)) / (lam + mu)


# ===== Growth-table curve means (direct algebra) ==============================


def mean_gompertz(alpha, beta, j, t):
    return j * math.exp(alpha * (1.0 - math.exp(-beta * t)))


def mean_gen_gompertz(a, b, j, t):
    return j * math.exp(a * b * t / (t + b))


def mean_logistic(c, r, j, t):
    return c * j / (j + (c - j) * math.exp(-r * t))


def mean_ext_logistic(n, eps, j, t):
    w = math.exp((1.0 + eps) * t)
    num = (eps - 1.0) * n * (n - j) + w * n * (2.0 * eps * j + n - eps * n)
    den = 2.0 * eps * (n - j) + w * (2.0 * eps * j + n - eps * n)
    return num / den


def mean_multisig(c, betas, j, t):
    b1, b2, b3, b4 = betas
    q = b1 * t + b2 * t**2 + b3 * t**3 + b4 * t**4
    return c * j / (j + (c - j) * math.exp(-q))


def mean_mod_korf(alpha, beta, j, t):
    return j * math.exp(alpha / beta * (1.0 - (1.0 + t) ** (-beta)))


def mean_korf(alpha, beta, j, rho, t):
    if t == 0.0:
        return 0.0
    return j / (rho - 1.0) * math.exp(-(alpha / beta) * t ** (-beta))


def mean_mitscherlich(alpha, beta, t):
    return beta * (1.0 - math.exp(-alpha * t))


# ===== Growth-table induced intensities (direct algebra) ======================


def big_m_gompertz(alpha, beta, rho, t):
    return alpha * (1.0 - math.exp(-beta * t)) / (rho - 1.0)


def big_m_gen_gompertz(a, b, rho, t):
    return a * b * t / ((rho - 1.0) * (t + b))


def big_m_logistic(c, r, j, rho, t):
    return (math.log(c) - math.log(j + (c - j) * math.exp(-r * t))) / (rho - 1.0)


def big_m_ext_logistic(n, eps, j, rho, t):
    w = math.exp((1.0 + eps) * t)
    num = (eps - 1.0) * n * (n - j) + w * n * (2.0 * eps * j + n - eps * n)
    den = j * (2.0 * eps * (n - j) + w * (2.0 * eps * j + n - eps * n))
    return math.log(num / den) / (rho - 1.0)


def big_m_multisig(c, betas, j, rho, t):
    b1, b2, b3, b4 = betas
    q = b1 * t + b2 * t**2 + b3 * t**3 + b4 * t**4
    return (math.log(c) - math.log(j + (c - j) * math.exp(-q))) / (rho - 1.0)


def big_m_mod_korf(alpha, beta, rho, t):
    return alpha / beta * (1.0 - (1.0 + t) ** (-beta)) / (rho - 1.0)


def big_m_korf(alpha, beta, rho, t):
    if t == 0.0:
        return 0.0
    return math.log(1.0 + math.exp(-(alpha / beta) * t ** (-beta))) / (rho - 1.0)


def big_m_mitscherlich(alpha, beta, j, rho, t):
    m = beta * (1.0 - math.exp(-alpha * t))
    return math.log(1.0 + (rho - 1.0) * m / j) / (rho - 1.0)


# ===== Crossing times (closed displays) =======================================


def crossing_gompertz(alpha, beta, rho):
    return -math.log(1.0 + math.log(2.0 - rho) / alpha) / beta


def crossing_gen_gompertz(a, b, rho):
    big_l = -math.log(2.0 - rho)
    return b * big_l / (a * b - big_l)


def crossing_logistic(c, r, j, rho):
    return math.log((c - j) / (c * (2.0 - rho) - j)) / r


def crossing_mod_korf(alpha, beta, rho):
    return (1.0 + beta / alpha * math.log(2.0 - rho)) ** (-1.0 / beta) - 1.0


def crossing_korf(alpha, beta, rho):
    return (alpha / (beta * math.log((2.0 - rho) / (rho - 1.0)))) ** (1.0 / beta)


def crossing_mitscherlich(alpha, beta, j, rho):
    return math.log(beta * (2.0 - rho) / (beta * (2.0 - rho) - j)) / alpha
