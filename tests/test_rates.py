"""Rate families, their integral transforms, and config parsing."""

import math
import warnings

import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from rumorbd import DataError, DomainError, NumericsError
from rumorbd.moments import moment_report
from rumorbd.rates import (
    Constant,
    ConstantMu,
    CosineMu,
    Explicit,
    Proportional,
    big_m,
    eta,
    first_passage,
    gamma,
    mu_base_from_config,
    phi_x,
    phi_y,
    rates_from_config,
)

# ===== family basics ==========================================================


def test_constant_family_basics():
    r = Constant(lam=2.0, mu=0.5)
    assert r.lam_at(0.0) == 2.0
    assert r.lam_at(17.3) == 2.0
    assert r.mu_at(5.0) == 0.5
    assert r.total_rate_sup(0.0, 100.0) == 2.5
    rho, base = r.proportional_view()
    assert rho == 4.0
    assert isinstance(base, ConstantMu)
    assert base.mu == 0.5


@pytest.mark.parametrize("lam,mu", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (math.inf, 1.0), (1.0, math.nan)])
def test_constant_family_rejects_bad_rates(lam, mu):
    with pytest.raises(DomainError):
        Constant(lam=lam, mu=mu)


def test_constant_mu_profile():
    p = ConstantMu(mu=1.5)
    assert p.mu_at(3.0) == 1.5
    assert p.big_m(4.0) == 6.0
    assert p.mu_sup(0.0, 10.0) == 1.5
    with pytest.raises(DomainError):
        p.big_m(-1.0)
    with pytest.raises(DomainError):
        ConstantMu(mu=0.0)


def test_cosine_mu_values_and_integral():
    p = CosineMu(mu=1.0, alpha=0.5, period=2.5)
    assert p.mu_at(0.0) == 1.5
    assert p.mu_at(1.25) == pytest.approx(0.5)  # half a period: cos = -1
    # closed cumulative intensity vs direct quadrature of mu_at
    for t in (0.3, 1.0, 2.5, 7.8):
        ref, _ = quad(p.mu_at, 0.0, t, epsabs=1e-12, epsrel=1e-12, limit=200)
        assert p.big_m(t) == pytest.approx(ref, rel=1e-10, abs=1e-12)


def test_first_passage_at_the_window_end_returns_it():
    # M(hi) equals the level exactly: the passage is hi, not "never"
    p = CosineMu(mu=1.0, alpha=0.5, period=2.5)
    assert first_passage(p, p.big_m(3.0), 0.0, 3.0) == 3.0


def test_cosine_mu_validation():
    with pytest.raises(DomainError):
        CosineMu(mu=1.0, alpha=0.0, period=1.0)  # amplitude must be nonzero
    with pytest.raises(DomainError):
        CosineMu(mu=1.0, alpha=1.0, period=1.0)  # |alpha| must stay below mu
    with pytest.raises(DomainError):
        CosineMu(mu=1.0, alpha=-1.2, period=1.0)
    with pytest.raises(DomainError):
        CosineMu(mu=1.0, alpha=0.5, period=0.0)


@given(
    st.floats(min_value=0.0, max_value=50.0),
    st.floats(min_value=1e-3, max_value=20.0),
    st.floats(min_value=0.5, max_value=10.0),
    st.sampled_from([0.4, -0.4, 0.9, -0.9]),
)
def test_cosine_mu_sup_is_exact_upper_bound(t0, span, period, alpha):
    p = CosineMu(mu=1.0, alpha=alpha, period=period)
    t1 = t0 + span
    sup = p.mu_sup(t0, t1)
    n = 800
    step = span / n
    grid_max = max(p.mu_at(t0 + i * step) for i in range(n + 1))
    # a genuine upper bound ...
    assert grid_max <= sup + 1e-12
    # ... and a tight one: within the grid's curvature resolution of the max
    curvature = abs(alpha) * (2.0 * math.pi * step / period) ** 2
    assert sup <= grid_max + curvature + 1e-12


def test_cosine_mu_sup_full_period_window():
    p = CosineMu(mu=2.0, alpha=-0.7, period=3.0)
    assert p.mu_sup(0.4, 0.4 + 3.0) == pytest.approx(2.7)
    assert p.mu_sup(0.0, 100.0) == pytest.approx(2.7)


def test_proportional_family_basics():
    base = CosineMu(mu=1.0, alpha=0.5, period=2.0)
    r = Proportional(rho=2.5, base_mu=base)
    for t in (0.0, 0.7, 1.9):
        assert r.lam_at(t) == pytest.approx(2.5 * base.mu_at(t), rel=1e-15)
        assert r.mu_at(t) == base.mu_at(t)
    assert r.total_rate_sup(0.0, 2.0) == pytest.approx(3.5 * 1.5)
    view = r.proportional_view()
    assert view == (2.5, base)


def test_proportional_family_validation():
    with pytest.raises(DomainError):
        Proportional(rho=0.0, base_mu=ConstantMu(mu=1.0))
    with pytest.raises(DomainError):
        Proportional(rho=2.0, base_mu="not a profile")


def test_proportional_rejects_mismatched_curve_ratio():
    from rumorbd.growth import CurveInducedMu, Gompertz

    prof = CurveInducedMu(Gompertz(alpha=3.0, beta=2.0, j=1, rho=1.5))
    assert Proportional(rho=1.5, base_mu=prof).lam_at(0.0) > 0.0
    with pytest.raises(DomainError):
        Proportional(rho=2.0, base_mu=prof)


def test_explicit_family_passthrough():
    r = Explicit(
        lambda_fn=lambda t: 1.0 + t,
        mu_fn=lambda t: 2.0,
        rate_sup_fn=lambda t0, t1: 3.0 + t1,
    )
    assert r.lam_at(0.5) == 1.5
    assert r.mu_at(9.0) == 2.0
    assert r.total_rate_sup(0.0, 4.0) == 7.0
    assert r.proportional_view() is None
    r.validate_horizon(100.0)  # default: no-op


# ===== transforms: closed route vs ODE route ==================================

# Naive reference values computed inside the test from the defining integrals,
# with eta built from the elementary antiderivatives -- independent of the
# package's kernel-based closed forms and of its ODE sweep.


def _naive_transforms(lam_fn, mu_fn, t, j):
    def big_l(s):
        v, _ = quad(lambda u: lam_fn(u) - mu_fn(u), 0.0, s, epsabs=1e-12, epsrel=1e-11, limit=200)
        return v

    m, _ = quad(mu_fn, 0.0, t, epsabs=1e-12, epsrel=1e-11, limit=200)
    px, _ = quad(lambda s: lam_fn(s) * math.exp(-big_l(s)), 0.0, t, epsabs=1e-12, epsrel=1e-10, limit=200)
    py, _ = quad(lambda s: lam_fn(s) * math.exp(big_l(s)), 0.0, t, epsabs=1e-12, epsrel=1e-10, limit=200)

    def px_at(s):
        v, _ = quad(lambda u: lam_fn(u) * math.exp(-big_l(u)), 0.0, s, epsabs=1e-12, epsrel=1e-10, limit=200)
        return v

    gam, _ = quad(
        lambda s: mu_fn(s) * math.exp(big_l(s)) * (2.0 * px_at(s) + j - 1),
        0.0,
        t,
        epsabs=1e-11,
        epsrel=1e-9,
        limit=200,
    )
    return m, math.exp(big_l(t)), px, py, gam


@pytest.mark.parametrize("lam,mu", [(2.0, 1.0), (1.0, 2.0), (1.0, 1.0)])
@pytest.mark.parametrize("t", [0.4, 1.7])
def test_transforms_constant_closed_vs_naive(lam, mu, t):
    r = Constant(lam=lam, mu=mu)
    j = 3
    m, e, px, py, gam = _naive_transforms(lambda s: lam, lambda s: mu, t, j)
    assert big_m(r, t) == pytest.approx(m, rel=1e-12)
    assert eta(r, t) == pytest.approx(e, rel=1e-12)
    assert phi_x(r, t) == pytest.approx(px, rel=1e-9)
    assert phi_y(r, t) == pytest.approx(py, rel=1e-9)
    assert gamma(r, j, t) == pytest.approx(gam, rel=1e-8)


@pytest.mark.parametrize("rho", [0.5, 1.0, 2.5])
def test_transforms_cosine_proportional_closed_vs_naive(rho):
    base = CosineMu(mu=1.0, alpha=0.5, period=2.5)
    r = Proportional(rho=rho, base_mu=base)
    t, j = 3.1, 2
    m, e, px, py, gam = _naive_transforms(
        lambda s: rho * base.mu_at(s), base.mu_at, t, j
    )
    assert big_m(r, t) == pytest.approx(m, rel=1e-10)
    assert eta(r, t) == pytest.approx(e, rel=1e-9)
    assert phi_x(r, t) == pytest.approx(px, rel=1e-8)
    assert phi_y(r, t) == pytest.approx(py, rel=1e-8)
    assert gamma(r, j, t) == pytest.approx(gam, rel=1e-7)


@pytest.mark.parametrize("rho", [0.5, 1.0, 2.5])
def test_transforms_quadrature_route_matches_closed(rho):
    """The two internal routes must agree on families that support both."""
    base = CosineMu(mu=1.0, alpha=0.5, period=2.5)
    r = Proportional(rho=rho, base_mu=base)
    for t in (0.2, 1.0, 3.1, 6.0):
        assert big_m(r, t, "ode") == pytest.approx(big_m(r, t, "closed"), rel=1e-9)
        assert eta(r, t, "ode") == pytest.approx(eta(r, t, "closed"), rel=1e-9)
        assert phi_x(r, t, "ode") == pytest.approx(phi_x(r, t, "closed"), rel=1e-8)
        assert phi_y(r, t, "ode") == pytest.approx(phi_y(r, t, "closed"), rel=1e-8)
        for j in (1, 4):
            assert gamma(r, j, t, "ode") == pytest.approx(
                gamma(r, j, t, "closed"), rel=1e-8
            )


def test_transforms_explicit_family_uses_sweep():
    # an Explicit wrapper of constant rates must reproduce the closed values
    lam, mu, t, j = 1.3, 0.7, 2.2, 2
    r = Explicit(lambda_fn=lambda s: lam, mu_fn=lambda s: mu, rate_sup_fn=lambda a, b: lam + mu)
    c = Constant(lam=lam, mu=mu)
    assert big_m(r, t) == pytest.approx(big_m(c, t), rel=1e-10)
    assert eta(r, t) == pytest.approx(eta(c, t), rel=1e-10)
    assert phi_x(r, t) == pytest.approx(phi_x(c, t), rel=1e-9)
    assert phi_y(r, t) == pytest.approx(phi_y(c, t), rel=1e-9)
    assert gamma(r, j, t) == pytest.approx(gamma(c, j, t), rel=1e-9)


def test_transforms_at_time_zero():
    r = Constant(lam=2.0, mu=1.0)
    assert big_m(r, 0.0) == 0.0
    assert eta(r, 0.0) == 1.0
    assert phi_x(r, 0.0) == 0.0
    assert phi_y(r, 0.0) == 0.0
    assert gamma(r, 3, 0.0) == 0.0


def test_single_spreader_pair_terms_overflow_to_inf_not_nan():
    # the (j - 1) terms of gamma and m2_Y vanish at j = 1 even where G1
    # (x > 709) or G4 (x > ~355) overflowed: 0 * inf would be NaN
    r = Constant(lam=2.0, mu=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert gamma(r, 1, 720.0) == gamma(r, 2, 720.0) == math.inf
        for t in (360.0, 720.0):
            assert moment_report(r, 1, t).m2_y == math.inf


def test_transform_method_dispatch_errors():
    c = Constant(lam=1.0, mu=1.0)
    e = Explicit(lambda_fn=lambda s: 1.0, mu_fn=lambda s: 1.0, rate_sup_fn=lambda a, b: 2.0)
    with pytest.raises(DomainError):
        big_m(c, 1.0, "fancy")
    with pytest.raises(DomainError):
        big_m(e, 1.0, "closed")
    with pytest.raises(DomainError):
        big_m(c, -1.0)
    with pytest.raises(DomainError):
        gamma(c, 0, 1.0)
    with pytest.raises(DomainError):
        gamma(c, 1.5, 1.0)
    with pytest.raises(DomainError):
        gamma(c, True, 1.0)


def test_sweep_overflow_raises_numerics_error(capfd):
    # exp(9 t) overflows well before t = 100: the state leaves the float range
    # near t = 39.2 after about 19,000 rate calls, and the solve must stop
    # there, silently, not shrink its step against the overflow
    calls = [0]

    def lam_fn(s):
        calls[0] += 1
        return 10.0

    r = Explicit(lambda_fn=lam_fn, mu_fn=lambda s: 1.0, rate_sup_fn=lambda a, b: 11.0)
    with pytest.raises(NumericsError, match="float range"):
        phi_y(r, 100.0)
    assert calls[0] < 40_000
    assert capfd.readouterr() == ("", "")


def test_engine_overflows_at_half_the_exponent_range():
    # the engine carries second moments ~ eta^2 = exp(2 L): with L = 9 t that
    # is exp(540) at t = 30 and exp(702) ~ 1e305 at t = 39, both finite, while
    # exp(720) at t = 40 exceeds the float range and the solve raises
    r = Explicit(lambda_fn=lambda s: 10.0, mu_fn=lambda s: 1.0, rate_sup_fn=lambda a, b: 11.0)
    assert math.isfinite(phi_y(r, 30.0))
    assert phi_y(r, 30.0) == pytest.approx(phi_y(Constant(lam=10.0, mu=1.0), 30.0), rel=1e-9)
    with pytest.raises(NumericsError):
        phi_y(r, 40.0)


def test_eta_closed_overflow_is_inf():
    assert eta(Constant(lam=3.0, mu=1.0), 400.0) == math.inf


# ===== caching behaviour ======================================================


def test_transform_cache_is_order_independent():
    def make():
        return Proportional(rho=2.0, base_mu=CosineMu(mu=1.0, alpha=0.3, period=1.7))

    ts = [0.3, 2.9, 1.1, 0.7, 2.0, 0.05]
    fwd = make()
    ordered = {t: gamma(fwd, 2, t, "ode") for t in sorted(ts)}
    shuffled = make()
    mixed = {t: gamma(shuffled, 2, t, "ode") for t in ts}
    for t in ts:
        assert mixed[t] == ordered[t]  # no hidden state: bit-identical


def test_transform_cache_repeat_is_identical():
    r = Proportional(rho=2.0, base_mu=CosineMu(mu=1.0, alpha=0.3, period=1.7))
    a = phi_x(r, 1.8, "ode")
    b = phi_x(r, 1.8, "ode")
    assert a == b  # the same solve twice, bit-identical


def test_transform_cache_extension_matches_fresh():
    r1 = Explicit(lambda_fn=lambda s: 1.5, mu_fn=lambda s: 1.0, rate_sup_fn=lambda a, b: 2.5)
    phi_y(r1, 1.0)
    extended = phi_y(r1, 2.0)  # extends from the t = 1 checkpoint
    r2 = Explicit(lambda_fn=lambda s: 1.5, mu_fn=lambda s: 1.0, rate_sup_fn=lambda a, b: 2.5)
    fresh = phi_y(r2, 2.0)  # integrates from zero
    assert extended == pytest.approx(fresh, rel=1e-10)


# ===== config parsing =========================================================


def test_rates_from_config_constant():
    r = rates_from_config({"kind": "constant", "lam": 2.0, "mu": 1.0})
    assert r == Constant(lam=2.0, mu=1.0)
    r2 = rates_from_config({"kind": "constant", "lambda": 3, "mu": "1.5"})
    assert r2 == Constant(lam=3.0, mu=1.5)


def test_rates_from_config_proportional_cosine():
    cfg = {
        "kind": "proportional",
        "rho": 1.5,
        "base": {"kind": "cosine", "mu": 1.0, "alpha": 0.5, "period": 2.5},
    }
    r = rates_from_config(cfg)
    assert isinstance(r, Proportional)
    assert r.rho == 1.5
    assert r.base_mu == CosineMu(mu=1.0, alpha=0.5, period=2.5)
    # the period key has a short alias
    alias = dict(cfg, base={"kind": "cosine", "mu": 1.0, "alpha": 0.5, "Q": 2.5})
    assert rates_from_config(alias).base_mu == r.base_mu


def test_mu_base_from_config_curve():
    from rumorbd.growth import CurveInducedMu

    prof = mu_base_from_config(
        {
            "kind": "curve",
            "curve": {"family": "gompertz", "alpha": 3.0, "beta": 2.0, "j": 1, "rho": 1.5},
        }
    )
    assert isinstance(prof, CurveInducedMu)
    assert prof.rho == 1.5


@pytest.mark.parametrize(
    "cfg",
    [
        {},
        {"kind": "sinusoid"},
        {"kind": "constant", "mu": 1.0},
        {"kind": "constant", "lam": 1.0},
        {"kind": "proportional", "rho": 2.0},
        {"kind": "proportional", "base": {"kind": "constant", "mu": 1.0}},
        "not a dict",
    ],
)
def test_rates_from_config_rejects_malformed(cfg):
    with pytest.raises(DataError):
        rates_from_config(cfg)


def test_mu_base_from_config_rejects_malformed():
    with pytest.raises(DataError):
        mu_base_from_config({"kind": "sawtooth"})
    with pytest.raises(DataError):
        mu_base_from_config({})
    with pytest.raises(DomainError):
        # missing period collapses to zero, which the profile rejects
        mu_base_from_config({"kind": "cosine", "mu": 1.0, "alpha": 0.5})
