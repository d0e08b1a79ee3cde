"""Growth-curve families: induced intensities, round trips, crossings, configs."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import _closed_forms as cf
from rumorbd import DataError, DomainError
from rumorbd.errors import check_times
from rumorbd.growth import (
    FAMILIES,
    CurveInducedMu,
    ExtLogistic,
    GenGompertz,
    Gompertz,
    Korf,
    Logistic,
    Mitscherlich,
    ModKorf,
    MultisigLogistic,
    curve_from_config,
    curve_to_config,
    eval_curve,
    induced_m,
    proportional_from_curve,
)
from rumorbd.moments import crossing_time, moment_report
from rumorbd.rates import ConstantMu, CosineMu

CANON = [
    Gompertz(alpha=3.0, beta=2.0, j=1, rho=1.5),
    GenGompertz(a=2.0, b=1.5, j=2, rho=2.0),
    Logistic(c=10.0, r=1.2, j=1, rho=2.0),
    ExtLogistic(n=8.0, eps=0.4, j=1, rho=1.8),
    ExtLogistic(n=8.0, eps=-0.6, j=1, rho=1.8),
    MultisigLogistic(c=20.0, beta1=2.0, beta2=-1.2, beta3=0.3, beta4=-0.012, j=1, rho=2.0),
    ModKorf(alpha=2.0, beta=1.5, j=1, rho=2.0),
    Korf(alpha=1.0, beta=0.8, j=1, rho=1.3),
    Mitscherlich(alpha=1.0, beta=5.0, j=2, rho=1.5),
]

TIMES = [0.0, 0.3, 1.0, 2.5, 6.0]


def _report(curve, t):
    """Moment report of the process the curve induces."""
    return moment_report(proportional_from_curve(curve), curve.j, t)


def _crossing(curve):
    """Crossing time of the rates the curve induces, None when there is none."""
    return crossing_time(proportional_from_curve(curve), curve.j)


def _naive_m(curve, t):
    """Dispatch to the independently transcribed induced-intensity forms."""
    if isinstance(curve, Gompertz):
        return cf.big_m_gompertz(curve.alpha, curve.beta, curve.rho, t)
    if isinstance(curve, GenGompertz):
        return cf.big_m_gen_gompertz(curve.a, curve.b, curve.rho, t)
    if isinstance(curve, Logistic):
        return cf.big_m_logistic(curve.c, curve.r, curve.j, curve.rho, t)
    if isinstance(curve, ExtLogistic):
        return cf.big_m_ext_logistic(curve.n, curve.eps, curve.j, curve.rho, t)
    if isinstance(curve, MultisigLogistic):
        return cf.big_m_multisig(curve.c, curve.betas, curve.j, curve.rho, t)
    if isinstance(curve, ModKorf):
        return cf.big_m_mod_korf(curve.alpha, curve.beta, curve.rho, t)
    if isinstance(curve, Korf):
        return cf.big_m_korf(curve.alpha, curve.beta, curve.rho, t)
    if isinstance(curve, Mitscherlich):
        return cf.big_m_mitscherlich(curve.alpha, curve.beta, curve.j, curve.rho, t)
    raise AssertionError(f"no naive form for {curve!r}")


def _naive_mean(curve, t):
    """Dispatch to the independently transcribed curve means."""
    if isinstance(curve, Gompertz):
        return cf.mean_gompertz(curve.alpha, curve.beta, curve.j, t)
    if isinstance(curve, GenGompertz):
        return cf.mean_gen_gompertz(curve.a, curve.b, curve.j, t)
    if isinstance(curve, Logistic):
        return cf.mean_logistic(curve.c, curve.r, curve.j, t)
    if isinstance(curve, ExtLogistic):
        return cf.mean_ext_logistic(curve.n, curve.eps, curve.j, t)
    if isinstance(curve, MultisigLogistic):
        return cf.mean_multisig(curve.c, curve.betas, curve.j, t)
    if isinstance(curve, ModKorf):
        return cf.mean_mod_korf(curve.alpha, curve.beta, curve.j, t)
    if isinstance(curve, Korf):
        return cf.mean_korf(curve.alpha, curve.beta, curve.j, curve.rho, t)
    if isinstance(curve, Mitscherlich):
        return cf.mean_mitscherlich(curve.alpha, curve.beta, t)
    raise AssertionError(f"no naive form for {curve!r}")


# ===== boundary values and array evaluation ===================================


@pytest.mark.parametrize("curve", CANON, ids=lambda c: c.family + str(c.rho))
def test_initial_value_matches_kind(curve):
    if curve.kind == "x":
        assert eval_curve(curve, 0.0) == pytest.approx(float(curve.j), rel=1e-14)
    else:
        assert eval_curve(curve, 0.0) == 0.0
    assert induced_m(curve, 0.0) == 0.0


@pytest.mark.parametrize("curve", CANON, ids=lambda c: c.family + str(c.rho))
def test_mean_array_matches_scalar(curve):
    ts = np.array(TIMES)
    arr = curve.mean_array(ts)
    for i, t in enumerate(TIMES):
        assert arr[i] == pytest.approx(curve.mean(t), rel=1e-13)


# parameter rows per family, in param_names order: a canonical curve, fitted
# optima, box edges, and a row whose mean overflows to inf
BROADCAST_ROWS = {
    "gompertz": [(3.0, 2.0), (0.5, 1e-3), (100.0, 100.0)],
    "gen_gompertz": [(2.0, 1.5), (40.0, 100.0), (100.0, 100.0), (1e-3, 0.3)],
    "logistic": [(10.0, 1.2), (107.0, 0.87), (10700.0, 100.0)],
    "ext_logistic": [(8.0, 0.4), (8.0, -0.6), (107.0, -0.99), (107.0, 0.99)],
    "multisig_logistic": [(20.0, 2.0, -1.2, 0.3, -0.012), (110.0, 0.84, 0.02, -0.0027, -1e-12),
                          (108.0, -2.6, 10.0, 10.0, -0.36), (108.0, 6.6, -8.0, 1.9, -10.0)],
    "mod_korf": [(2.0, 1.5), (3.7, 0.62), (100.0, 1e-3)],
    "korf": [(1.0, 0.8), (1e-3, 4.5), (1e-3, 100.0)],
    "mitscherlich": [(1.0, 5.0), (0.047, 256.0), (100.0, 1e-3)],
}


def _with_params(cls, params, j, rho):
    return cls(j=j, rho=rho, **dict(zip(cls.param_names, params)))


@pytest.mark.parametrize("family", list(FAMILIES))
@pytest.mark.parametrize("j, rho", [(1, 2.0), (3, 1.4)])
def test_mean_formula_on_parameter_rows_is_each_curves_mean_array(family, j, rho):
    cls = FAMILIES[family]
    rows = np.array(BROADCAST_ROWS[family])
    t = np.linspace(0.0, 14.0, 40)
    with np.errstate(all="ignore"):
        m = cls.mean_formula(t, j, rho, *rows.T[:, :, None])
    assert m.shape == (len(rows), t.size)
    for params, got in zip(rows.tolist(), m):
        curve = _with_params(cls, tuple(params), j, rho)
        assert curve.params == tuple(params)
        assert np.array_equal(got, curve.mean_array(t))


def test_multisig_mean_array_negative_exponent_branch():
    c = MultisigLogistic(c=5.0, beta1=1.0, beta2=0.0, beta3=0.0, beta4=-0.1, j=1, rho=2.0)
    ts = np.array([0.5, 1.0, 3.0, 6.0])  # Q < 0 from t ~ 2.15 on
    assert c.q(3.0) < 0.0
    arr = c.mean_array(ts)
    for i, t in enumerate(ts):
        assert arr[i] == pytest.approx(c.mean(float(t)), rel=1e-13)
    assert np.all(np.isfinite(arr))


@pytest.mark.parametrize("curve", CANON, ids=lambda c: c.family + str(c.rho))
def test_mean_array_matches_naive_forms(curve):
    arr = curve.mean_array(np.array(TIMES))
    for i, t in enumerate(TIMES):
        assert arr[i] == pytest.approx(_naive_mean(curve, t), rel=1e-13, abs=0.0)


def test_gompertz_mean_overflows_to_inf_without_warning():
    curve = Gompertz(alpha=800.0, beta=1.0, j=1, rho=2.0)  # e^800 is past the float range
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        arr = curve.mean_array(np.array([0.0, 1.0, 50.0]))
        far = curve.mean(50.0)
    assert arr[0] == 1.0 and math.isfinite(arr[1]) and arr[2] == math.inf
    assert type(far) is float and far == math.inf


def test_korf_is_exactly_zero_at_time_zero():
    curve = Korf(alpha=1.0, beta=0.8, j=1, rho=1.3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fn in (curve.mean_array, curve.induced_big_m, curve.induced_mu):
            assert fn(0.0) == 0.0
            assert fn(np.array([0.0, 1.0]))[0] == 0.0


def test_multisig_mean_matches_naive_form_where_q_is_negative():
    c = MultisigLogistic(c=5.0, beta1=1.0, beta2=0.0, beta3=0.0, beta4=-0.1, j=1, rho=2.0)
    ts = [3.0, 4.5, 6.0]  # Q < 0 from t ~ 2.15 on
    arr = c.mean_array(np.array(ts))
    for i, t in enumerate(ts):
        assert c.q(t) < 0.0
        assert arr[i] == pytest.approx(cf.mean_multisig(5.0, c.betas, 1, t), rel=1e-13, abs=0.0)


# ===== array contract of the forgetting-rate profiles =========================

PROFILES = [ConstantMu(0.7), CosineMu(mu=1.0, alpha=0.5, period=2.5)] + [
    CurveInducedMu(c) for c in CANON
]


def _profile_id(prof):
    return type(prof).__name__ + (
        f"-{prof.curve.family}{prof.curve.rho}" if isinstance(prof, CurveInducedMu) else ""
    )


@pytest.mark.parametrize("prof", PROFILES, ids=_profile_id)
def test_big_m_array_equals_pointwise_calls(prof):
    grid = np.linspace(0.0, 8.0, 257)
    arr = prof.big_m(grid)
    assert isinstance(arr, np.ndarray) and arr.shape == grid.shape
    assert arr.tolist() == [prof.big_m(float(t)) for t in grid]  # bit for bit
    assert type(prof.big_m(0.7)) is float
    empty = prof.big_m(np.array([]))
    assert isinstance(empty, np.ndarray) and empty.shape == (0,)


@pytest.mark.parametrize("prof", PROFILES, ids=_profile_id)
@pytest.mark.parametrize("bad", [-1.0, math.nan])
def test_big_m_array_rejects_bad_times(prof, bad):
    with pytest.raises(DomainError):
        prof.big_m(np.array([0.0, bad, 2.0]))
    with pytest.raises(DomainError):
        prof.big_m(bad)


@pytest.mark.parametrize("curve", CANON, ids=lambda c: c.family + str(c.rho))
def test_closed_report_grid_equals_scalar_reports(curve):
    rates = proportional_from_curve(curve)
    grid = [float(t) for t in np.linspace(0.0, 8.0, 33)]
    reports = moment_report(rates, curve.j, grid)
    names = [f.name for f in dataclasses.fields(reports) if f.name != "j"]
    for i, t in enumerate(grid):
        scalar = moment_report(rates, curve.j, t)
        for name in names:  # bit for bit
            assert repr(getattr(scalar, name)) == repr(getattr(reports, name)[i].item())
    assert all(getattr(reports, name).shape == (33,) for name in names)


def test_check_times_keeps_its_message_on_arrays():
    message = r"^times must be nondecreasing, got 1\.0 after 2\.0$"
    for times in ([0.0, 2.0, 1.0], np.array([0.0, 2.0, 1.0])):
        with pytest.raises(DomainError, match=message):
            check_times(times)
    with pytest.raises(DomainError, match=r"^time must be finite and >= 0, got -1\.0$"):
        check_times(np.array([0.0, -1.0]))


# ===== induced intensity vs naive transcriptions ==============================


@pytest.mark.parametrize("curve", CANON, ids=lambda c: c.family + str(c.rho))
@pytest.mark.parametrize("t", [0.2, 1.0, 4.0, 8.0])
def test_induced_m_matches_naive_forms(curve, t):
    assert induced_m(curve, t) == pytest.approx(_naive_m(curve, t), rel=1e-10, abs=1e-14)


# ===== round trip through the moment machinery ================================


@pytest.mark.parametrize("curve", CANON, ids=lambda c: c.family + str(c.rho))
@pytest.mark.parametrize("t", TIMES)
def test_round_trip_recovers_the_curve(curve, t):
    """The mean the induced process assigns must equal the curve itself."""
    rep = _report(curve, t)
    got = rep.m_x if curve.kind == "x" else rep.m_y
    assert got == pytest.approx(eval_curve(curve, t), rel=1e-10, abs=1e-12)


@given(
    st.floats(min_value=0.3, max_value=4.0),
    st.floats(min_value=0.3, max_value=4.0),
    st.integers(min_value=1, max_value=3),
    st.floats(min_value=1.05, max_value=3.0),
    st.floats(min_value=0.0, max_value=20.0),
)
def test_round_trip_gompertz_property(alpha, beta, j, rho, t):
    curve = Gompertz(alpha=alpha, beta=beta, j=j, rho=rho)
    assert _report(curve, t).m_x == pytest.approx(curve.mean(t), rel=1e-10)


@given(
    st.floats(min_value=0.5, max_value=50.0),
    st.floats(min_value=0.3, max_value=4.0),
    st.integers(min_value=1, max_value=3),
    st.floats(min_value=1.05, max_value=3.0),
    st.floats(min_value=0.0, max_value=20.0),
)
def test_round_trip_logistic_property(gap, r, j, rho, t):
    curve = Logistic(c=j + gap, r=r, j=j, rho=rho)
    assert _report(curve, t).m_x == pytest.approx(curve.mean(t), rel=1e-10)


@given(
    st.floats(min_value=0.3, max_value=4.0),
    st.floats(min_value=0.5, max_value=50.0),
    st.integers(min_value=1, max_value=3),
    st.floats(min_value=1.05, max_value=3.0),
    st.floats(min_value=0.0, max_value=20.0),
)
def test_round_trip_mitscherlich_property(alpha, beta, j, rho, t):
    curve = Mitscherlich(alpha=alpha, beta=beta, j=j, rho=rho)
    assert _report(curve, t).m_y == pytest.approx(
        curve.mean(t), rel=1e-10, abs=1e-12
    )


# ===== induced forgetting rate ================================================


@pytest.mark.parametrize("curve", CANON, ids=lambda c: c.family + str(c.rho))
def test_induced_mu_is_derivative_of_intensity(curve):
    h = 1e-5
    for t in (0.2, 0.9, 2.1, 5.0):
        fd = (curve.induced_big_m(t + h) - curve.induced_big_m(t - h)) / (2.0 * h)
        assert curve.induced_mu(t) == pytest.approx(fd, rel=1e-5, abs=1e-10), t


@pytest.mark.parametrize("curve", CANON, ids=lambda c: c.family + str(c.rho))
def test_induced_mu_nonnegative_on_validity_window(curve):
    t_end = 8.0
    if isinstance(curve, MultisigLogistic):
        t_end = min(t_end, curve.induced_validity_end())
    for t in np.linspace(0.0, t_end, 50):
        assert curve.induced_mu(float(t)) >= 0.0


@pytest.mark.parametrize("curve", CANON, ids=lambda c: c.family + str(c.rho))
def test_induced_mu_sup_bounds_the_rate(curve):
    windows = [(0.0, 0.5), (0.3, 2.0), (1.5, 6.0), (0.0, 8.0)]
    for t0, t1 in windows:
        if isinstance(curve, MultisigLogistic):
            t1 = min(t1, curve.induced_validity_end())
            if t1 <= t0:
                continue
        sup = curve.induced_mu_sup(t0, t1)
        for t in np.linspace(t0, t1, 200):
            assert curve.induced_mu(float(t)) <= sup * (1.0 + 1e-12) + 1e-15, (t0, t1, t)


@pytest.mark.parametrize(
    "curve", [c for c in CANON if not isinstance(c, (MultisigLogistic, Korf))],
    ids=lambda c: c.family + str(c.rho),
)
def test_induced_mu_sup_is_tight_where_claimed_exact(curve):
    for t0, t1 in ((0.0, 1.0), (0.4, 3.0)):
        sup = curve.induced_mu_sup(t0, t1)
        grid = np.linspace(t0, t1, 4001)
        grid_max = max(curve.induced_mu(float(t)) for t in grid)
        assert sup == pytest.approx(grid_max, rel=1e-5)


@given(
    st.floats(min_value=1.05, max_value=20.0),
    st.floats(min_value=-0.99, max_value=0.99).filter(lambda e: abs(e) > 1e-6),
    st.integers(min_value=1, max_value=7),
)
def test_ext_logistic_rate_is_always_decreasing(n_mult, eps, j):
    # An interior rate peak would need sqrt(2|e|(1+|e|)) (n-j) to exceed
    # (1+|e|) n - 2|e| j, which is impossible for |e| < 1 and n > j: the
    # peak-locating branch must always land on the left endpoint.
    curve = ExtLogistic(n=j * n_mult, eps=eps, j=j, rho=1.8)
    assert curve._mu_peak_time() == 0.0
    prev = curve.induced_mu(0.0)
    for t in (0.3, 1.0, 2.5, 6.0):
        cur = curve.induced_mu(t)
        assert cur <= prev * (1.0 + 1e-12)
        prev = cur
    assert curve.induced_mu_sup(0.7, 3.0) == curve.induced_mu(0.7)


# ===== quartic-exponent validity window =======================================


def test_multisig_validity_window_canonical():
    curve = MultisigLogistic(c=20.0, beta1=2.0, beta2=-1.2, beta3=0.3, beta4=-0.012, j=1, rho=2.0)
    end = curve.induced_validity_end()
    assert 15.0 < end < 16.0
    assert curve.q_prime(end) == pytest.approx(0.0, abs=1e-9)
    for t in np.linspace(0.0, end * 0.999, 100):
        assert curve.q_prime(float(t)) >= -1e-12
    curve.validate_horizon(end - 1e-6)  # fine
    curve.validate_horizon(10.0)
    with pytest.raises(DomainError):
        curve.validate_horizon(end + 1.0)


def test_multisig_validity_zero_when_rate_starts_negative():
    curve = MultisigLogistic(c=5.0, beta1=-1.0, beta2=0.0, beta3=0.0, beta4=-0.1, j=1, rho=2.0)
    assert curve.induced_validity_end() == 0.0
    with pytest.raises(DomainError):
        curve.validate_horizon(0.5)


def test_multisig_validity_is_always_finite():
    # the quartic exponent eventually decreases for any admissible coefficients
    for betas in ((2.0, 0.0, 0.0, -1e-9), (0.5, 1.0, 2.0, -0.01)):
        curve = MultisigLogistic(5.0, *betas, j=1, rho=2.0)
        assert math.isfinite(curve.induced_validity_end())


def test_multisig_outside_validity_intensity_rejected():
    curve = MultisigLogistic(c=20.0, beta1=2.0, beta2=-1.2, beta3=0.3, beta4=-0.012, j=1, rho=2.0)
    with pytest.raises(DomainError):
        induced_m(curve, 25.0)  # implied M is negative far past the window


def test_multisig_nests_plain_logistic():
    base = Logistic(c=12.0, r=1.5, j=2, rho=2.0)
    nested = MultisigLogistic(c=12.0, beta1=1.5, beta2=0.0, beta3=0.0, beta4=-1e-12, j=2, rho=2.0)
    for t in (0.0, 0.7, 2.0, 5.0):
        assert nested.mean(t) == pytest.approx(base.mean(t), rel=1e-9)
        assert nested.induced_big_m(t) == pytest.approx(
            base.induced_big_m(t), rel=1e-9, abs=1e-12
        )


def test_multisig_has_no_long_run_limit():
    curve = MultisigLogistic(c=20.0, beta1=2.0, beta2=-1.2, beta3=0.3, beta4=-0.012, j=1, rho=2.0)
    with pytest.raises(DomainError):
        curve.mean_limit()


# ===== long-run limits ========================================================


@pytest.mark.parametrize(
    "curve,t_far,rel",
    [
        (Gompertz(alpha=3.0, beta=2.0, j=1, rho=1.5), 50.0, 1e-10),
        (GenGompertz(a=2.0, b=1.5, j=2, rho=2.0), 1e9, 1e-7),
        (Logistic(c=10.0, r=1.2, j=1, rho=2.0), 60.0, 1e-10),
        (ExtLogistic(n=8.0, eps=0.4, j=1, rho=1.8), 60.0, 1e-10),
        (ModKorf(alpha=2.0, beta=1.5, j=1, rho=2.0), 1e9, 1e-7),
        (Korf(alpha=1.0, beta=0.8, j=1, rho=1.3), 1e9, 1e-6),
        (Mitscherlich(alpha=1.0, beta=5.0, j=2, rho=1.5), 60.0, 1e-10),
    ],
    ids=lambda v: v.family if hasattr(v, "family") else str(v),
)
def test_limits_match_far_field(curve, t_far, rel):
    assert curve.mean(t_far) == pytest.approx(curve.mean_limit(), rel=rel)
    assert curve.induced_big_m(t_far) == pytest.approx(curve.big_m_limit(), rel=rel)


def test_limit_anchor_values():
    assert Gompertz(alpha=3.0, beta=2.0, j=2, rho=1.5).mean_limit() == pytest.approx(
        2.0 * math.exp(3.0), rel=1e-14
    )
    assert Logistic(c=10.0, r=1.2, j=1, rho=2.0).mean_limit() == 10.0
    assert ExtLogistic(n=8.0, eps=0.4, j=1, rho=1.8).mean_limit() == 8.0
    assert Korf(alpha=1.0, beta=0.8, j=1, rho=1.3).mean_limit() == pytest.approx(
        1.0 / 0.3, rel=1e-12
    )
    assert Korf(alpha=1.0, beta=0.8, j=1, rho=1.3).big_m_limit() == pytest.approx(
        math.log(2.0) / 0.3, rel=1e-12
    )
    assert Mitscherlich(alpha=1.0, beta=5.0, j=2, rho=1.5).mean_limit() == 5.0


# ===== crossing times =========================================================


def test_crossing_closed_forms_match_naive_displays():
    g = Gompertz(alpha=3.0, beta=2.0, j=1, rho=1.5)
    assert _crossing(g) == pytest.approx(
        cf.crossing_gompertz(3.0, 2.0, 1.5), rel=1e-12
    )
    lo = Logistic(c=10.0, r=1.2, j=1, rho=1.5)
    assert _crossing(lo) == pytest.approx(
        cf.crossing_logistic(10.0, 1.2, 1, 1.5), rel=1e-12
    )
    mk = ModKorf(alpha=2.0, beta=1.5, j=1, rho=1.5)
    assert _crossing(mk) == pytest.approx(
        cf.crossing_mod_korf(2.0, 1.5, 1.5), rel=1e-12
    )
    ko = Korf(alpha=1.0, beta=0.8, j=1, rho=1.3)
    assert _crossing(ko) == pytest.approx(
        cf.crossing_korf(1.0, 0.8, 1.3), rel=1e-12
    )
    mi = Mitscherlich(alpha=1.0, beta=5.0, j=2, rho=1.5)
    assert _crossing(mi) == pytest.approx(
        cf.crossing_mitscherlich(1.0, 5.0, 2, 1.5), rel=1e-12
    )


def test_crossing_numeric_families_match_naive_displays():
    gg = GenGompertz(a=2.0, b=1.5, j=2, rho=1.5)
    assert _crossing(gg) == pytest.approx(
        cf.crossing_gen_gompertz(2.0, 1.5, 1.5), rel=1e-9
    )


@pytest.mark.parametrize(
    "curve",
    [
        Gompertz(alpha=3.0, beta=2.0, j=1, rho=1.5),
        GenGompertz(a=2.0, b=1.5, j=2, rho=1.5),
        Logistic(c=10.0, r=1.2, j=1, rho=1.5),
        ExtLogistic(n=8.0, eps=-0.3, j=1, rho=1.5),
        MultisigLogistic(c=20.0, beta1=2.0, beta2=-1.2, beta3=0.3, beta4=-0.012, j=1, rho=1.5),
        ModKorf(alpha=2.0, beta=1.5, j=1, rho=1.5),
        Korf(alpha=1.0, beta=0.8, j=1, rho=1.3),
        Mitscherlich(alpha=1.0, beta=5.0, j=2, rho=1.5),
    ],
    ids=lambda c: c.family,
)
def test_crossing_is_where_the_means_meet(curve):
    t_star = _crossing(curve)
    assert t_star > 0.0
    rep = _report(curve, t_star)
    assert rep.m_x == pytest.approx(rep.m_y, rel=1e-9)


def test_crossing_is_none_when_none_exists():
    # rho >= 2: spreaders dominate forever
    assert _crossing(Gompertz(alpha=3.0, beta=2.0, j=1, rho=2.0)) is None
    assert _crossing(Logistic(c=10.0, r=1.2, j=1, rho=2.5)) is None
    # intensity saturates below the threshold
    assert _crossing(Gompertz(alpha=0.3, beta=1.0, j=1, rho=1.5)) is None
    assert _crossing(Logistic(c=1.5, r=1.0, j=1, rho=1.9)) is None
    assert _crossing(MultisigLogistic(1.5, 1.0, 0.0, 0.0, -0.1, j=1, rho=1.9)) is None
    # the Korf intensity tops out at log(2)/(rho-1): crossing needs rho < 1.5
    assert _crossing(Korf(alpha=1.0, beta=0.8, j=1, rho=1.7)) is None


NO_CROSSING = [
    Gompertz(alpha=3.0, beta=2.0, j=1, rho=2.0),
    Logistic(c=10.0, r=1.2, j=1, rho=2.5),
    Gompertz(alpha=0.3, beta=1.0, j=1, rho=1.5),
    Logistic(c=1.5, r=1.0, j=1, rho=1.9),
    MultisigLogistic(c=1.5, beta1=1.0, beta2=0.0, beta3=0.0, beta4=-0.1, j=1, rho=1.9),
    Korf(alpha=1.0, beta=0.8, j=1, rho=1.7),
]


@pytest.mark.parametrize("curve", CANON + NO_CROSSING, ids=lambda c: c.family + str(c.rho))
def test_crossing_time_curve_is_the_rates_crossing_time(curve):
    """The rates' crossing is the first time the curve itself reaches
    j/(2 - rho): on the proportional route m_Y = (m_X - j)/(rho - 1), so
    m_X = m_Y there, for an X curve and a Y curve alike."""
    t = _crossing(curve)
    level = curve.j / (2.0 - curve.rho) if curve.rho < 2.0 else math.inf
    end = min(curve.induced_validity_end(), 1e3)
    before = np.linspace(0.0, end if t is None else t, 2001)[:-1]
    assert np.all(curve.mean(before) < level)
    if t is not None:
        assert t <= end and curve.mean(t) == pytest.approx(level, rel=1e-9)


def test_crossing_search_stops_at_the_validity_end():
    # M peaks below the threshold inside the window and turns negative past it
    curve = MultisigLogistic(c=1.6, beta1=1.0, beta2=0.0, beta3=0.0, beta4=-0.5, j=1, rho=1.5)
    assert _crossing(curve) is None


def test_crossing_time_is_j_free_for_x_kind():
    a = _crossing(Gompertz(alpha=3.0, beta=2.0, j=1, rho=1.5))
    b = _crossing(Gompertz(alpha=3.0, beta=2.0, j=3, rho=1.5))
    assert a == b


def test_multisig_crossing_stays_inside_validity():
    curve = MultisigLogistic(c=20.0, beta1=2.0, beta2=-1.2, beta3=0.3, beta4=-0.012, j=1, rho=1.5)
    t_star = _crossing(curve)
    assert 0.0 < t_star < curve.induced_validity_end()


# ===== curve-induced rate family ==============================================


def test_curve_induced_profile_reads_j_and_rho_from_the_curve():
    curve = Gompertz(alpha=3.0, beta=2.0, j=2, rho=1.5)
    prof = CurveInducedMu(curve)
    assert prof.j == 2
    assert prof.rho == 1.5


def test_curve_induced_profile_delegates():
    curve = Logistic(c=10.0, r=1.2, j=1, rho=2.0)
    prof = CurveInducedMu(curve)
    for t in (0.0, 0.5, 2.0):
        assert prof.mu_at(t) == curve.induced_mu(t)
        assert prof.big_m(t) == induced_m(curve, t)
    assert prof.mu_sup(0.2, 1.0) == curve.induced_mu_sup(0.2, 1.0)


def test_curve_induced_profile_validates_horizon_for_multisig():
    curve = MultisigLogistic(c=5.0, beta1=1.0, beta2=0.0, beta3=0.0, beta4=-0.1, j=1, rho=2.0)
    prof = CurveInducedMu(curve)
    end = curve.induced_validity_end()
    prof.validate_horizon(end * 0.9)
    with pytest.raises(DomainError):
        prof.validate_horizon(end + 1.0)


def test_proportional_from_curve_matches_moment_machinery():
    curve = Gompertz(alpha=3.0, beta=2.0, j=2, rho=1.5)
    rates = proportional_from_curve(curve)
    assert rates.rho == 1.5
    for t in (0.3, 1.0, 4.0):
        assert rates.lam_at(t) == pytest.approx(1.5 * curve.induced_mu(t), rel=1e-14)
        assert moment_report(rates, 2, t).m_x == pytest.approx(curve.mean(t), rel=1e-10)


# ===== configs ================================================================


@pytest.mark.parametrize("curve", CANON, ids=lambda c: c.family + str(c.rho))
def test_config_round_trip(curve):
    assert curve_from_config(curve_to_config(curve)) == curve


def test_config_multisig_accepts_numbered_keys():
    cfg = {
        "family": "multisig_logistic",
        "c": 20.0,
        "beta1": 2.0,
        "beta2": -1.2,
        "beta3": 0.3,
        "beta4": -0.012,
        "j": 1,
        "rho": 2.0,
    }
    assert curve_from_config(cfg) == MultisigLogistic(
        c=20.0, beta1=2.0, beta2=-1.2, beta3=0.3, beta4=-0.012, j=1, rho=2.0
    )


def test_config_of_earlier_releases_with_a_betas_list_still_loads():
    curve = MultisigLogistic(c=20.0, beta1=2.0, beta2=-1.2, beta3=0.3, beta4=-0.012, j=1, rho=2.0)
    legacy = {"family": "multisig_logistic", "j": 1, "rho": 2.0, "c": 20.0,
              "betas": [2.0, -1.2, 0.3, -0.012]}
    assert curve_from_config(legacy) == curve
    assert curve_to_config(curve) == {
        "family": "multisig_logistic", "j": 1, "rho": 2.0, "c": 20.0,
        "beta1": 2.0, "beta2": -1.2, "beta3": 0.3, "beta4": -0.012,
    }
    with pytest.raises(DomainError, match="exactly 4 coefficients"):
        curve_from_config({**legacy, "betas": [1.0, 0.0, -0.1]})
    with pytest.raises(DataError, match="'betas' must be a list"):
        curve_from_config({**legacy, "betas": "1 0 0 -0.1"})


def test_config_defaults():
    c = curve_from_config({"family": "gompertz", "alpha": 1.0, "beta": 1.0})
    assert c.j == 1
    assert c.rho == 2.0


def test_config_rejects_malformed():
    with pytest.raises(DataError):
        curve_from_config({})
    with pytest.raises(DataError):
        curve_from_config({"family": "weibull"})
    with pytest.raises(DataError):
        curve_from_config({"family": "gompertz", "alpha": 1.0})  # beta missing
    with pytest.raises(DataError):
        curve_from_config("gompertz")


def test_registry_covers_every_family():
    assert sorted(FAMILIES) == [
        "ext_logistic",
        "gen_gompertz",
        "gompertz",
        "korf",
        "logistic",
        "mitscherlich",
        "mod_korf",
        "multisig_logistic",
    ]
    for name, cls in FAMILIES.items():
        assert cls.family == name
        assert cls.kind in ("x", "y")


# ===== validation =============================================================


@pytest.mark.parametrize("bad_rho", [1.0, 0.9, 0.0, -1.0, math.inf, math.nan])
def test_rate_ratio_must_exceed_one(bad_rho):
    with pytest.raises(DomainError):
        Gompertz(alpha=1.0, beta=1.0, j=1, rho=bad_rho)


@pytest.mark.parametrize("bad_j", [0, -1, 1.5, True])
def test_initial_count_must_be_positive_integer(bad_j):
    with pytest.raises(DomainError):
        Logistic(c=10.0, r=1.0, j=bad_j, rho=2.0)


def test_family_specific_validation():
    with pytest.raises(DomainError):
        Gompertz(alpha=0.0, beta=1.0)
    with pytest.raises(DomainError):
        Logistic(c=2.0, r=1.0, j=2, rho=2.0)  # capacity must exceed j
    with pytest.raises(DomainError):
        ExtLogistic(n=0.5, eps=0.2, j=1, rho=2.0)
    with pytest.raises(DomainError):
        ExtLogistic(n=8.0, eps=1.0, j=1, rho=2.0)
    with pytest.raises(DomainError):
        MultisigLogistic(c=5.0, beta1=1.0, beta2=0.0, beta3=0.0, beta4=0.1, j=1, rho=2.0)
    with pytest.raises(DomainError):
        Korf(alpha=1.0, beta=-0.5)


@pytest.mark.parametrize("curve", {c.family: c for c in CANON}.values(), ids=lambda c: c.family)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_parameters_are_rejected_by_name(curve, bad):
    for name in curve.param_names:
        with pytest.raises(DomainError, match=f"^{name} must be"):
            dataclasses.replace(curve, **{name: bad})


def test_time_validation_and_frozen_instances():
    curve = Gompertz(alpha=1.0, beta=1.0)
    with pytest.raises(DomainError):
        eval_curve(curve, -0.5)
    with pytest.raises(DomainError):
        induced_m(curve, math.nan)
    with pytest.raises(Exception):
        curve.alpha = 2.0
