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
an independent route to every proportional-case moment, and to the p.g.f.
and the final-size law, which the package writes in (rho, M) alone.
"""

import math
from decimal import Decimal, localcontext
from fractions import Fraction


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


def pgf(lam: float, mu: float, j: int, z1: float, z2: float, t: float) -> float:
    """Kendall's joint p.g.f. E[z1^X z2^Y] from (j, 0): g^j, with xi1 <= xi2
    the roots of lam xi^2 - (lam + mu) xi + z2 mu and E = exp(lam t (xi2 - xi1)),
    or their double root xi where the discriminant vanishes."""
    disc = (lam + mu) ** 2 - 4.0 * z2 * lam * mu
    if disc == 0.0:
        xi = (lam + mu) / (2.0 * lam)
        return (xi + (z1 - xi) / (1.0 - lam * t * (z1 - xi))) ** j
    xi1 = (lam + mu - math.sqrt(disc)) / (2.0 * lam)
    xi2 = (lam + mu + math.sqrt(disc)) / (2.0 * lam)
    e = math.exp(lam * t * (xi2 - xi1))
    return ((xi2 * (z1 - xi1) - xi1 * (z1 - xi2) * e) / ((z1 - xi1) - (z1 - xi2) * e)) ** j


def p0k_limit(lam: float, mu: float, j: int, k: int) -> Fraction:
    """The final-size law p_{0,k} (k >= j) in exact rational arithmetic on the
    values of the floats ``lam`` and ``mu``, in its binomial-difference form:

        (lam mu/(lam+mu)^2)^k ((lam+mu)/lam)^j [C(2k-j-1, k-1) - C(2k-j-1, k)].
    """
    lam, mu = Fraction(lam), Fraction(mu)
    n = 2 * k - j - 1
    bracket = math.comb(n, k - 1) - math.comb(n, k)
    return (lam * mu / (lam + mu) ** 2) ** k * ((lam + mu) / lam) ** j * bracket


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


# ===== Dispersion columns in 60-digit decimal =================================


def dispersion_decimal(rho: float, m: float, j: int) -> dict:
    """The raw moments and ``fano_*``, ``cv_*``, ``corr`` of the chain at rates
    (lam, mu) = (rho, 1) and time M > 0: the displays above in 60-digit
    decimal arithmetic, whose exponent range holds e^x for any x used here,
    each rounded once to a float (+inf past the float range)."""
    with localcontext() as ctx:
        ctx.prec = 60
        lam, t, one = Decimal(rho), Decimal(m), Decimal(1)
        if rho == 1.0:
            mx, vx, my = Decimal(j), 2 * j * t, j * t
            vy = j * t * (1 - t + 2 * t * t / 3)
            mxy = j * t * (j + t - 1)
        else:
            d = lam - one
            e = (d * t).exp()
            e2 = e * e
            mx = j * e
            vx = j * (lam + 1) / d * e * (e - 1)
            my = j * (e - 1) / d
            vy = j / d**3 * (
                -lam * (lam + 1) + e2 * (lam + 1) + e * (1 - lam) * (lam * (4 * t - 1) - 1)
            )
            mxy = j * e / (1 - lam) * (2 * lam * t - (e - 1) * (lam + j * lam + 1 - j) / d)
        cov = mxy - mx * my
        exact = {
            "m_x": mx, "var_x": vx, "m_y": my, "var_y": vy, "m2_y": vy + my * my,
            "m_xy": mxy, "cov": cov, "corr": cov / (vx * vy).sqrt(),
            "fano_x": vx / mx, "fano_y": vy / my, "cv_x": vx.sqrt() / mx, "cv_y": vy.sqrt() / my,
        }
        return {name: float(value) for name, value in exact.items()}
