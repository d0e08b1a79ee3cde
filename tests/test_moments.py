"""Moment reports: closed route vs direct ODE integration vs naive algebra."""

import dataclasses
import gc
import math
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import _closed_forms as cf
from rumorbd import DomainError
from rumorbd import proportional as prop
from rumorbd.moments import MomentReport, crossing_time, moment_report, report_from_prop
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
    rep = moment_report(Constant(lam=lam, mu=mu), j, t)
    assert rep.m_x == pytest.approx(cf.mean_x(lam, mu, j, t), rel=1e-12)
    assert rep.var_x == pytest.approx(cf.var_x(lam, mu, j, t), rel=1e-11)
    assert rep.m_y == pytest.approx(cf.mean_y(lam, mu, j, t), rel=1e-12)
    assert rep.m2_y == pytest.approx(cf.m2_y(lam, mu, j, t), rel=1e-10)
    assert rep.m_xy == pytest.approx(cf.mixed_moment(lam, mu, j, t), rel=1e-10)
    assert rep.cov == pytest.approx(cf.cov(lam, mu, j, t), rel=1e-9, abs=1e-12)
    assert rep.corr == pytest.approx(cf.corr(lam, mu, j, t), rel=1e-8)
    assert rep.r_index == pytest.approx(cf.r_index(lam, mu, j, t), rel=1e-10)


# ===== ODE route vs closed route (same family, both methods) ==================


@pytest.mark.parametrize("lam,mu", CONSTANT_CASES)
def test_ode_route_matches_closed_route_constant(lam, mu):
    r = Constant(lam=lam, mu=mu)
    j = 2
    for t in (0.3, 1.0, 2.7):
        a = moment_report(r, j, t, method="closed")
        b = moment_report(r, j, t, method="ode")
        for name in ("m_x", "var_x", "m_y", "m2_y", "m_xy"):
            assert getattr(b, name) == pytest.approx(
                getattr(a, name), rel=1e-9, abs=1e-12
            ), name


@pytest.mark.parametrize("rho", [0.5, 1.0, 1.5, 2.5])
def test_ode_route_matches_closed_route_seasonal(rho):
    r = Proportional(rho=rho, base_mu=CosineMu(mu=1.0, alpha=0.5, period=2.5))
    j = 3
    for t in (0.5, 2.0, 6.0):
        a = moment_report(r, j, t, method="closed")
        b = moment_report(r, j, t, method="ode")
        for name in ("m_x", "var_x", "m_y", "m2_y", "m_xy", "r_index", "cov"):
            assert getattr(b, name) == pytest.approx(
                getattr(a, name), rel=1e-8, abs=1e-10
            ), (name, t)
        assert b.corr == pytest.approx(a.corr, rel=1e-7)


# every column but cov and corr, which subtract near-equal moments
_ACCURATE_COLUMNS = (
    "m_x", "m_y", "var_x", "var_y", "m2_y", "m_xy", "r_index", "fano_x", "fano_y", "cv_x", "cv_y",
)


@pytest.mark.parametrize("rho", [0.5, 1.5, 2.5])
@pytest.mark.parametrize("seasonal", [True, False], ids=["cosine", "constant"])
def test_ode_grid_accuracy_against_closed_route(rho, seasonal):
    # the CLI grid 0:20:1000; on it the worst column of the engine is about
    # 1e-11 relative, and cov and corr about 2e-10
    if seasonal:
        r = Proportional(rho=rho, base_mu=CosineMu(mu=1.0, alpha=0.5, period=2.5))
    else:
        r = Constant(lam=rho, mu=1.0)
    grid = [20.0 * i / 1000 for i in range(1000)]
    for j in (1, 3):
        ode = moment_report(r, j, grid, method="ode")
        closed = moment_report(r, j, grid, method="closed")
        assert (ode.corr_is_limit == closed.corr_is_limit).all()
        for name in _ACCURATE_COLUMNS:
            np.testing.assert_allclose(
                getattr(ode, name), getattr(closed, name), rtol=2e-11, atol=0.0, err_msg=name
            )
        for name in ("cov", "corr"):
            np.testing.assert_allclose(
                getattr(ode, name), getattr(closed, name), rtol=1e-9, atol=0.0, err_msg=name
            )


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
        c0 = moment_report(r, 1, 0.0).corr
        assert c0 == pytest.approx(cf.corr_zero_limit(lam, mu), rel=1e-13)
        c_small = moment_report(r, 1, 1e-7).corr
        assert c_small == pytest.approx(c0, rel=1e-3)


def test_corr_zero_limit_ode_route_uses_initial_rates():
    e = _explicit_copy(3.0, 1.0)
    c0 = moment_report(e, 2, 0.0).corr
    assert c0 == pytest.approx(-0.5, rel=1e-14)  # -sqrt(1/4)


def test_r_index_zero_time_limit():
    r = Constant(lam=1.0, mu=1.0)
    for j in (1, 2, 5):
        assert moment_report(r, j, 0.0).r_index == pytest.approx(1.0 - 1.0 / j, abs=1e-15)


def test_r_index_zero_time_limit_is_the_same_bits_on_every_route():
    # the correctly rounded (j - 1)/j; 1 - 1/j is one ulp above it at j = 3
    for j in range(1, 11):
        want = (j - 1) / j
        assert report_from_prop(2.0, 0.0, j, 0.0).r_index == want
        assert report_from_prop(2.0, np.zeros(1), j, np.zeros(1)).r_index[0] == want
        assert float(prop._forms(2.0, 0.0, j).r_index) == want
        assert moment_report(_explicit_copy(2.0, 1.0), j, 0.0).r_index == want


# ===== dispersion anchors =====================================================


def test_fano_x_balanced_anchor():
    # lam = mu = 1, t = 1: Fano_X = 2 mu t = 2 exactly
    rep = moment_report(Constant(lam=1.0, mu=1.0), 1, 1.0)
    assert rep.fano_x == pytest.approx(2.0, rel=1e-12)
    assert rep.cv_x == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert rep.fano_y > 0.0 and rep.cv_y > 0.0


def test_fano_x_crosses_one_at_underdispersion_root():
    lam, mu = 2.0, 1.0
    root = cf.underdispersion_root(lam, mu)
    r = Constant(lam=lam, mu=mu)
    assert moment_report(r, 1, root).fano_x == pytest.approx(1.0, rel=1e-10)
    fx_before = moment_report(r, 1, root * 0.5).fano_x
    fx_after = moment_report(r, 1, root * 2.0).fano_x
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


def test_explicit_rates_zero_at_time_zero_report_nan_limit():
    """With lam(0) = mu(0) = 0 the correlation has no limit at t = 0: NaN,
    flagged as the limit, not a division by zero."""
    r = Explicit(lambda_fn=lambda s: 2.0 * s, mu_fn=lambda s: s, rate_sup_fn=lambda a, b: 3.0 * b)
    rep = moment_report(r, 1, [0.0, 1.0])
    assert math.isnan(rep.corr[0]) and rep.corr_is_limit[0]
    assert math.isfinite(rep.corr[1]) and not rep.corr_is_limit[1]


def test_ode_cache_is_order_independent():
    def make():
        return _explicit_copy(1.4, 0.8)

    ts = [2.3, 0.5, 1.7, 0.2, 3.0]
    a = make()
    ordered = {t: moment_report(a, 2, t).m2_y for t in sorted(ts)}
    b = make()
    mixed = {t: moment_report(b, 2, t).m2_y for t in ts}
    for t in ts:
        assert mixed[t] == ordered[t]  # no hidden state: bit-identical


def _row(rep: MomentReport, i: int) -> MomentReport:
    """Column ``i`` of a grid report, read as the report of one time."""
    return MomentReport(**{
        f.name: rep.j if f.name == "j" else getattr(rep, f.name)[i].item()
        for f in dataclasses.fields(rep)
    })


def test_ode_grid_values_match_across_grids_with_the_same_end():
    # the solver's steps depend only on the last time, so shared points agree
    r = Proportional(rho=1.5, base_mu=CosineMu(mu=1.0, alpha=0.5, period=2.5))
    fine = [20.0 * i / 1000 for i in range(1001)]
    coarse = moment_report(r, 2, [5.0, 20.0], method="ode")
    dense = moment_report(r, 2, fine, method="ode")
    assert [_row(coarse, 0), _row(coarse, 1)] == [_row(dense, 250), _row(dense, 1000)]


def test_moment_report_over_a_grid():
    r = Proportional(rho=1.5, base_mu=CosineMu(mu=1.0, alpha=0.5, period=2.5))
    ts = [0.0, 0.5, 0.5, 2.0, 6.0]
    closed = moment_report(r, 3, ts, method="closed")
    assert isinstance(closed, MomentReport) and closed.corr_is_limit.dtype == bool
    assert [_row(closed, i) for i in range(len(ts))] == [
        moment_report(r, 3, t, method="closed") for t in ts
    ]
    ode = moment_report(r, 3, ts, method="ode")
    assert _row(ode, 0) == moment_report(r, 3, 0.0, method="ode")
    assert _row(ode, 1) == _row(ode, 2)
    for i in range(len(ts)):
        a, b = _row(ode, i), _row(closed, i)
        assert a.t == b.t and a.corr_is_limit == b.corr_is_limit
        for name in ("m_x", "m_y", "var_x", "var_y", "m2_y", "m_xy", "cov", "r_index"):
            assert getattr(a, name) == pytest.approx(getattr(b, name), rel=1e-8, abs=1e-10)
        assert a.corr == pytest.approx(b.corr, rel=1e-7)
    empty = moment_report(r, 3, [], method="ode")
    assert all(
        getattr(empty, f.name).shape == (0,) for f in dataclasses.fields(empty) if f.name != "j"
    )
    with pytest.raises(DomainError):
        moment_report(r, 3, [1.0, 0.5])
    with pytest.raises(DomainError):
        moment_report(r, 3, [0.5, -1.0], method="ode")


def _bits(values) -> tuple:
    return tuple(struct.pack("<d", v) if isinstance(v, float) else v for v in values)


def _edge_times(x_per_t: float) -> list[float]:
    """Times whose x = (rho - 1) M lands on the kernels' branch edges: 0, +-1e-3,
    the series radius +-0.5 and its neighbours, and around the split of e^x at 709."""
    if x_per_t == 0.0:
        return [0.0, 1e-3, 0.5, 3.0]
    xs = [0.0, 1e-3, np.nextafter(0.5, 0.0), 0.5, np.nextafter(0.5, 1.0), 3.0]
    xs += [np.nextafter(709.0, 0.0), 709.0, np.nextafter(709.0, 710.0), 800.0]
    return [float(x) / abs(x_per_t) for x in xs]


# x = (rho - 1) M = x_per_t * t exactly: rho - 1 and mu are powers of two
VECTOR_CASES = [((2.0, 1.0), 1.0), ((1.0, 2.0), -1.0), ((1.0, 1.0), 0.0)]


@pytest.mark.parametrize("rates_args,x_per_t", VECTOR_CASES)
def test_closed_grid_rows_equal_scalar_calls_bit_for_bit(rates_args, x_per_t):
    lam, mu = rates_args
    r = Constant(lam=lam, mu=mu)
    j = 3
    ts = _edge_times(x_per_t)
    rho, base = r.proportional_view()
    assert [(rho - 1.0) * base.big_m(t) for t in ts] == [x_per_t * t for t in ts]
    grid = moment_report(r, j, ts)
    if x_per_t > 0.0:  # the overflow rows are there: inf moments, finite ratios
        assert math.isinf(grid.m_x[-1]) and math.isinf(grid.var_x[-3])
        assert grid.corr[-1] == pytest.approx(1.0, rel=1e-15)
    for i, t in enumerate(ts):
        rep = _row(grid, i)
        assert _bits(dataclasses.astuple(moment_report(r, j, t))) == _bits(
            dataclasses.astuple(rep)
        )
        fields = (
            rep.m_x, rep.var_x, rep.m_y, rep.m2_y, rep.m_xy, rep.cov, rep.corr,
            rep.r_index, rep.fano_x, rep.cv_x, rep.fano_y, rep.cv_y,
        )
        assert rep.corr_is_limit == (t == 0.0)
        # the naive forms divide by Var_X, which underflows with m_X
        if t == 0.0 or not all(math.isfinite(v) for v in fields) or rep.m_x == 0.0:
            continue
        # the naive transcriptions, at the tolerances of the scalar check above
        assert rep.m_x == pytest.approx(cf.mean_x(lam, mu, j, t), rel=1e-12)
        assert rep.var_x == pytest.approx(cf.var_x(lam, mu, j, t), rel=1e-11)
        assert rep.m_y == pytest.approx(cf.mean_y(lam, mu, j, t), rel=1e-12)
        assert rep.m2_y == pytest.approx(cf.m2_y(lam, mu, j, t), rel=1e-10)
        assert rep.m_xy == pytest.approx(cf.mixed_moment(lam, mu, j, t), rel=1e-10)
        assert rep.cov == pytest.approx(cf.cov(lam, mu, j, t), rel=1e-9, abs=1e-12)
        assert rep.corr == pytest.approx(cf.corr(lam, mu, j, t), rel=1e-8)
        assert rep.r_index == pytest.approx(cf.r_index(lam, mu, j, t), rel=1e-10)


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
    # LSODA interpolates every requested time from its step history without
    # calling the rates; a solve per point would cost ~13x
    assert many_calls[0] < 1.5 * one_calls[0]


@pytest.mark.parametrize("last", [0.7, 5.0, 20.0])
def test_ode_evaluates_no_rate_past_the_last_time(last):
    base = CosineMu(mu=1.0, alpha=0.5, period=2.5)
    largest = [0.0]

    def mu_fn(s):
        largest[0] = max(largest[0], s)
        return base.mu_at(s)

    r = Explicit(lambda s: 1.5 * mu_fn(s), mu_fn, lambda a, b: 2.5 * base.mu_sup(a, b))
    moment_report(r, 2, [last * i / 100 for i in range(101)])
    assert 0.0 < largest[0] <= last
    largest[0] = 0.0
    moment_report(r, 2, last)
    assert 0.0 < largest[0] <= last


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
        moment_report(r, 2, 1.0, method="ode")
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
        rep = moment_report(r, 2, crossing_time(r, 2))
        assert rep.m_x == pytest.approx(rep.m_y, rel=1e-10)


def test_crossing_time_seasonal_bracketing():
    r = Proportional(rho=1.5, base_mu=CosineMu(mu=1.0, alpha=0.5, period=2.5))
    t_star = crossing_time(r, 1)
    assert t_star > 0.0
    rep = moment_report(r, 1, t_star)
    assert rep.m_x == pytest.approx(rep.m_y, rel=1e-9)


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
        moment_report(r, 1, 1.0, method="magic")
    with pytest.raises(DomainError):
        moment_report(_explicit_copy(1.0, 1.0), 1, 1.0, method="closed")
    with pytest.raises(DomainError):
        moment_report(r, 0, 1.0)
    with pytest.raises(DomainError):
        moment_report(r, 1, -1.0)
    with pytest.raises(DomainError):
        moment_report(r, 2.0, 1.0)
