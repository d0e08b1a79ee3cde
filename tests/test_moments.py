"""Moment reports: closed route vs direct ODE integration vs naive algebra."""

import gc
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

import _closed_forms as cf
from rumorbd import DomainError
from rumorbd.moments import (
    MomentReport,
    cov_corr,
    crossing_time,
    fano_cv,
    mean_x,
    mean_y,
    mixed_moment,
    moment_report,
    r_index,
    report_from_prop,
    second_moment_y,
    var_x,
)
from rumorbd.moments import var_x as var_x_fn
from rumorbd.rates import Constant, CosineMu, Explicit, Proportional

CONSTANT_CASES = [(2.0, 1.0), (1.0, 2.0), (1.0, 1.0), (0.7, 1.3)]


def _explicit_copy(lam, mu):
    return Explicit(
        lambda_fn=lambda s: lam, mu_fn=lambda s: mu, rate_sup_fn=lambda a, b: lam + mu
    )


# ===== closed route vs independent algebra ====================================


@pytest.mark.parametrize("lam,mu", CONSTANT_CASES)
@pytest.mark.parametrize("j", [1, 2, 5])
@pytest.mark.parametrize("t", [0.25, 1.0, 3.0])
def test_closed_moments_match_naive_forms(lam, mu, j, t):
    r = Constant(lam=lam, mu=mu)
    assert mean_x(r, j, t) == pytest.approx(cf.mean_x(lam, mu, j, t), rel=1e-12)
    assert var_x(r, j, t) == pytest.approx(cf.var_x(lam, mu, j, t), rel=1e-11)
    assert mean_y(r, j, t) == pytest.approx(cf.mean_y(lam, mu, j, t), rel=1e-12)
    assert second_moment_y(r, j, t) == pytest.approx(cf.m2_y(lam, mu, j, t), rel=1e-10)
    assert mixed_moment(r, j, t) == pytest.approx(
        cf.mixed_moment(lam, mu, j, t), rel=1e-10
    )
    c, rr = cov_corr(r, j, t)
    assert c == pytest.approx(cf.cov(lam, mu, j, t), rel=1e-9, abs=1e-12)
    assert rr == pytest.approx(cf.corr(lam, mu, j, t), rel=1e-8)
    assert r_index(r, j, t) == pytest.approx(cf.r_index(lam, mu, j, t), rel=1e-10)


# ===== ODE route vs closed route (same family, both methods) ==================


@pytest.mark.parametrize("lam,mu", CONSTANT_CASES)
def test_ode_route_matches_closed_route_constant(lam, mu):
    r = Constant(lam=lam, mu=mu)
    j = 2
    for t in (0.3, 1.0, 2.7):
        for fn in (mean_x, var_x, mean_y, second_moment_y, mixed_moment):
            a = fn(r, j, t, method="closed")
            b = fn(r, j, t, method="ode")
            assert b == pytest.approx(a, rel=1e-9, abs=1e-12), fn.__name__


@pytest.mark.parametrize("rho", [0.5, 1.0, 1.5, 2.5])
def test_ode_route_matches_closed_route_seasonal(rho):
    r = Proportional(rho=rho, base_mu=CosineMu(mu=1.0, alpha=0.5, period=2.5))
    j = 3
    for t in (0.5, 2.0, 6.0):
        for fn in (mean_x, var_x, mean_y, second_moment_y, mixed_moment, r_index):
            a = fn(r, j, t, method="closed")
            b = fn(r, j, t, method="ode")
            assert b == pytest.approx(a, rel=1e-8, abs=1e-10), (fn.__name__, t)
        ca, ra = cov_corr(r, j, t, method="closed")
        cb, rb = cov_corr(r, j, t, method="ode")
        assert cb == pytest.approx(ca, rel=1e-8, abs=1e-10)
        assert rb == pytest.approx(ra, rel=1e-7)


def test_explicit_family_goes_through_ode_and_agrees():
    lam, mu, j, t = 1.3, 0.9, 2, 1.7
    e = _explicit_copy(lam, mu)
    c = Constant(lam=lam, mu=mu)
    rep_e = moment_report(e, j, t)
    rep_c = moment_report(c, j, t)
    for name in ("m_x", "m_y", "var_x", "var_y", "m2_y", "m_xy", "cov", "corr", "r_index"):
        assert getattr(rep_e, name) == pytest.approx(
            getattr(rep_c, name), rel=1e-8, abs=1e-10
        ), name


# ===== t = 0 semantics ========================================================


def test_time_zero_report():
    r = Constant(lam=2.0, mu=1.0)
    rep = moment_report(r, 3, 0.0)
    assert rep.m_x == 3.0
    assert rep.m_y == 0.0
    assert rep.var_x == 0.0
    assert rep.var_y == 0.0
    assert rep.cov == 0.0
    assert rep.corr_is_limit
    assert rep.corr == pytest.approx(-1.0 / math.sqrt(3.0), rel=1e-14)
    assert rep.r_index == pytest.approx(1.0 - 1.0 / 3.0, rel=1e-14)
    assert rep.fano_x == 0.0
    assert rep.cv_x == 0.0
    assert rep.fano_y == 1.0
    assert rep.cv_y == math.inf


def test_corr_zero_limit_matches_naive_and_small_t():
    for lam, mu in CONSTANT_CASES:
        r = Constant(lam=lam, mu=mu)
        _, c0 = cov_corr(r, 1, 0.0)
        assert c0 == pytest.approx(cf.corr_zero_limit(lam, mu), rel=1e-13)
        _, c_small = cov_corr(r, 1, 1e-7)
        assert c_small == pytest.approx(c0, rel=1e-3)


def test_corr_zero_limit_ode_route_uses_initial_rates():
    e = _explicit_copy(3.0, 1.0)
    _, c0 = cov_corr(e, 2, 0.0)
    assert c0 == pytest.approx(-0.5, rel=1e-14)  # -sqrt(1/4)


def test_r_index_zero_time_limit():
    r = Constant(lam=1.0, mu=1.0)
    for j in (1, 2, 5):
        assert r_index(r, j, 0.0) == pytest.approx(1.0 - 1.0 / j, abs=1e-15)


# ===== dispersion anchors =====================================================


def test_fano_x_balanced_anchor():
    # lam = mu = 1, t = 1: Fano_X = 2 mu t = 2 exactly
    fx, cvx, fy, cvy = fano_cv(Constant(lam=1.0, mu=1.0), 1, 1.0)
    assert fx == pytest.approx(2.0, rel=1e-12)
    assert cvx == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert fy > 0.0 and cvy > 0.0


def test_fano_x_crosses_one_at_underdispersion_root():
    lam, mu = 2.0, 1.0
    root = cf.underdispersion_root(lam, mu)
    r = Constant(lam=lam, mu=mu)
    fx_at, *_ = fano_cv(r, 1, root)
    assert fx_at == pytest.approx(1.0, rel=1e-10)
    fx_before, *_ = fano_cv(r, 1, root * 0.5)
    fx_after, *_ = fano_cv(r, 1, root * 2.0)
    assert fx_before < 1.0 < fx_after


def test_var_y_saturates_subcritical():
    lam, mu, j = 1.0, 2.0, 3
    rep = moment_report(Constant(lam=lam, mu=mu), j, 60.0)
    assert rep.var_y == pytest.approx(cf.var_y_limit_subcritical(lam, mu, j), rel=1e-9)


# ===== report internal consistency ============================================


@given(
    st.sampled_from(CONSTANT_CASES),
    st.integers(min_value=1, max_value=5),
    st.floats(min_value=1e-3, max_value=5.0),
)
def test_report_fields_are_mutually_consistent(case, j, t):
    lam, mu = case
    rep = moment_report(Constant(lam=lam, mu=mu), j, t)
    assert rep.var_y == pytest.approx(rep.m2_y - rep.m_y**2, rel=1e-8, abs=1e-12)
    assert rep.cov == pytest.approx(rep.m_xy - rep.m_x * rep.m_y, rel=1e-8, abs=1e-12)
    if rep.var_x > 0.0 and rep.var_y > 0.0:
        assert rep.corr == pytest.approx(
            rep.cov / math.sqrt(rep.var_x * rep.var_y), rel=1e-10
        )
        assert -1.0 <= rep.corr <= 1.0
    assert rep.fano_x == pytest.approx(rep.var_x / rep.m_x, rel=1e-12)
    assert rep.cv_x == pytest.approx(math.sqrt(rep.var_x) / rep.m_x, rel=1e-12)
    if rep.m_y > 0.0:
        assert rep.fano_y == pytest.approx(rep.var_y / rep.m_y, rel=1e-12)
        assert rep.cv_y == pytest.approx(math.sqrt(rep.var_y) / rep.m_y, rel=1e-12)


def test_report_from_prop_at_zero_intensity():
    rep = report_from_prop(2.0, 0.0, 4, 0.0)
    assert isinstance(rep, MomentReport)
    assert rep.m_x == 4.0
    assert rep.corr_is_limit
    assert rep.corr == pytest.approx(-1.0 / math.sqrt(3.0))
    assert rep.r_index == 0.75


def test_ode_cache_is_order_independent():
    def make():
        return _explicit_copy(1.4, 0.8)

    ts = [2.3, 0.5, 1.7, 0.2, 3.0]
    a = make()
    ordered = {t: second_moment_y(a, 2, t) for t in sorted(ts)}
    b = make()
    mixed = {t: second_moment_y(b, 2, t) for t in ts}
    for t in ts:
        assert mixed[t] == ordered[t]  # no hidden state: bit-identical


def test_ode_grid_values_match_across_grids_with_the_same_end():
    # the solver's steps depend only on the last time, so shared points agree
    r = Proportional(rho=1.5, base_mu=CosineMu(mu=1.0, alpha=0.5, period=2.5))
    fine = [20.0 * i / 1000 for i in range(1001)]
    coarse = moment_report(r, 2, [5.0, 20.0], method="ode")
    dense = moment_report(r, 2, fine, method="ode")
    assert coarse == [dense[250], dense[1000]]


def test_moment_report_over_a_grid():
    r = Proportional(rho=1.5, base_mu=CosineMu(mu=1.0, alpha=0.5, period=2.5))
    ts = [0.0, 0.5, 0.5, 2.0, 6.0]
    closed = moment_report(r, 3, ts, method="closed")
    assert closed == [moment_report(r, 3, t, method="closed") for t in ts]
    ode = moment_report(r, 3, ts, method="ode")
    assert ode[0] == moment_report(r, 3, 0.0, method="ode")
    assert ode[1] == ode[2]
    for a, b in zip(ode, closed):
        assert a.t == b.t and a.corr_is_limit == b.corr_is_limit
        for name in ("m_x", "m_y", "var_x", "var_y", "m2_y", "m_xy", "cov", "r_index"):
            assert getattr(a, name) == pytest.approx(getattr(b, name), rel=1e-8, abs=1e-10)
        assert a.corr == pytest.approx(b.corr, rel=1e-7)
    assert moment_report(r, 3, [], method="ode") == []
    with pytest.raises(DomainError):
        moment_report(r, 3, [1.0, 0.5])
    with pytest.raises(DomainError):
        moment_report(r, 3, [0.5, -1.0], method="ode")


def _counting_cosine():
    base = CosineMu(mu=1.0, alpha=0.5, period=2.5)
    calls = [0]

    def mu_fn(s):
        calls[0] += 1
        return base.mu_at(s)

    def lam_fn(s):
        calls[0] += 1
        return 1.5 * base.mu_at(s)

    return Explicit(lam_fn, mu_fn, lambda a, b: 2.5 * base.mu_sup(a, b)), calls


def test_ode_grid_is_one_solve():
    grid = [20.0 * i / 1000 for i in range(1000)]
    one, one_calls = _counting_cosine()
    moment_report(one, 1, [grid[-1]])
    many, many_calls = _counting_cosine()
    moment_report(many, 1, grid)
    # dense output adds three stages per step; a solve per point would cost ~13x
    assert many_calls[0] < 1.5 * one_calls[0]


def test_ode_grid_leaves_no_cyclic_garbage():
    r, _ = _counting_cosine()
    grid = [20.0 * i / 1000 for i in range(1000)]
    gc.collect()
    gc.disable()
    try:
        moment_report(r, 1, grid)
        assert gc.collect() < 200
    finally:
        gc.enable()


def test_queries_attach_nothing_to_the_rates_object():
    for r in (_explicit_copy(1.4, 0.8),
              Proportional(rho=2.0, base_mu=CosineMu(mu=1.0, alpha=0.3, period=1.7))):
        before = dict(vars(r))
        moment_report(r, 2, [0.5, 1.0], method="ode")
        r_index(r, 2, 1.0, method="ode")
        second_moment_y(r, 2, 1.0, method="ode")
        assert vars(r) == before


# ===== crossing time ==========================================================


def test_crossing_time_balanced_is_inverse_mu():
    for mu in (0.5, 1.0, 2.0):
        r = Constant(lam=mu, mu=mu)
        assert crossing_time(r, 1) == pytest.approx(1.0 / mu, rel=1e-14)
        assert crossing_time(r, 5) == pytest.approx(1.0 / mu, rel=1e-14)  # j-free


def test_crossing_time_none_when_spreading_dominates():
    assert crossing_time(Constant(lam=2.0, mu=1.0), 1) is None
    assert crossing_time(Constant(lam=5.0, mu=2.0), 1) is None
    # just below the boundary a crossing still exists (late)
    assert crossing_time(Constant(lam=1.99, mu=1.0), 1) is not None


def test_crossing_time_is_the_mean_crossing():
    for lam, mu in ((1.0, 1.0), (1.5, 1.0), (0.5, 1.0), (1.0, 2.0)):
        r = Constant(lam=lam, mu=mu)
        t_star = crossing_time(r, 2)
        assert mean_x(r, 2, t_star) == pytest.approx(mean_y(r, 2, t_star), rel=1e-10)


def test_crossing_time_seasonal_bracketing():
    r = Proportional(rho=1.5, base_mu=CosineMu(mu=1.0, alpha=0.5, period=2.5))
    t_star = crossing_time(r, 1)
    assert t_star > 0.0
    assert mean_x(r, 1, t_star) == pytest.approx(mean_y(r, 1, t_star), rel=1e-9)


def test_crossing_time_none_when_intensity_saturates():
    from rumorbd.growth import CurveInducedMu, Gompertz

    # induced M saturates at (e^0.3 - 1)/0.5 ~ 0.70 < threshold 2 log 2
    curve = Gompertz(alpha=0.3, beta=1.0, j=1, rho=1.5)
    r = Proportional(rho=1.5, base_mu=CurveInducedMu(curve))
    assert crossing_time(r, 1) is None


def test_crossing_time_requires_proportional_family():
    with pytest.raises(DomainError):
        crossing_time(_explicit_copy(1.0, 1.0), 1)


# ===== validation =============================================================


def test_method_and_argument_validation():
    r = Constant(lam=1.0, mu=1.0)
    with pytest.raises(DomainError):
        mean_x(r, 1, 1.0, method="magic")
    with pytest.raises(DomainError):
        mean_x(_explicit_copy(1.0, 1.0), 1, 1.0, method="closed")
    with pytest.raises(DomainError):
        mean_x(r, 0, 1.0)
    with pytest.raises(DomainError):
        mean_x(r, 1, -1.0)
    with pytest.raises(DomainError):
        var_x_fn(r, 2.0, 1.0)
