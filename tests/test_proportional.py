"""Proportional-regime closed forms in (rho, M, j) variables.

The backbone check: with ``lam(t) = rho * mu(t)`` the process is the
constant-rate chain run on the clock ``M(t)``, so every quantity here must
equal its constant-rate counterpart evaluated at ``(lam, mu, t) = (rho, 1, M)``.
The constant-rate reference values come from the independent transcriptions in
``_closed_forms``, not from the package.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import _closed_forms as cf
from rumorbd import DomainError, NumericsError, proportional
from rumorbd.moments import MomentReport, report_from_prop
from rumorbd.proportional import (
    absorption_prop,
    absorption_prop_limit,
    crossing_m_threshold,
    p0k_limit_prop,
    pgf_prop,
)
from rumorbd.rates import ConstantMu, Proportional, gamma


def _report(rho, m, j):
    """The closed-form report at intensity(ies) ``m``, on the unit clock t = M."""
    return report_from_prop(rho, m, j, m)


def _column(name):
    return lambda rho, m, j: getattr(_report(rho, m, j), name)


def _gamma(rho, m, j):
    """gamma(M): the transform on the unit clock for a float, the evaluator's
    column for an array."""
    if np.ndim(m):
        with np.errstate(all="ignore"):
            return proportional._forms(rho, m, j).gamma
    return gamma(Proportional(rho, ConstantMu(1.0)), j, m)


GRID = [
    (rho, m, j)
    for rho in (0.5, 1.0, 1.3, 2.5)
    for m in (0.1, 1.0, 5.0)
    for j in (1, 2, 5)
]


# ===== time-change identity against the independent constant-rate forms ======


@pytest.mark.parametrize("rho,m,j", GRID)
def test_moments_match_constant_rate_clock_change(rho, m, j):
    rep = _report(rho, m, j)
    assert rep.m_x == pytest.approx(cf.mean_x(rho, 1.0, j, m), rel=1e-12)
    assert rep.var_x == pytest.approx(cf.var_x(rho, 1.0, j, m), rel=1e-11)
    assert rep.m_y == pytest.approx(cf.mean_y(rho, 1.0, j, m), rel=1e-12)
    assert rep.m2_y == pytest.approx(cf.m2_y(rho, 1.0, j, m), rel=1e-10)
    assert rep.var_y == pytest.approx(cf.var_y(rho, 1.0, j, m), rel=1e-9)
    assert rep.m_xy == pytest.approx(cf.mixed_moment(rho, 1.0, j, m), rel=1e-10)
    assert rep.cov == pytest.approx(cf.cov(rho, 1.0, j, m), rel=1e-9)
    assert rep.corr == pytest.approx(cf.corr(rho, 1.0, j, m), rel=1e-8)
    assert rep.r_index == pytest.approx(cf.r_index(rho, 1.0, j, m), rel=1e-10)


@pytest.mark.parametrize("rho,m,j", GRID)
def test_absorption_matches_constant_rate_clock_change(rho, m, j):
    assert absorption_prop(rho, m, j) == pytest.approx(
        cf.absorption(rho, 1.0, j, m), rel=1e-12
    )


@pytest.mark.parametrize(
    "z1,z2", [(0.0, 0.0), (0.3, 0.8), (0.9, 0.2), (1.0, 1.0), (-1.0, 1.0), (0.0, 1.0), (0.5, 1.0)]
)
def test_pgf_matches_constant_rate_clock_change(z1, z2):
    for rho in (0.5, 1.0, 2.5):
        for m in (0.4, 2.0):
            for j in (1, 3):
                assert pgf_prop(rho, m, j, z1, z2) == pytest.approx(
                    cf.pgf(rho, 1.0, j, z1, z2, m), rel=1e-10, abs=1e-300
                )


def test_pgf_prop_initial_condition():
    assert pgf_prop(2.0, 0.0, 3, 0.4, 0.9) == 0.4**3


def test_pgf_prop_confluent_branch():
    # rho = 1, z2 = 1 collapses the characteristic roots
    g = pgf_prop(1.0, 2.0, 2, 0.5, 1.0)
    g_near = pgf_prop(1.0, 2.0, 2, 0.5, 1.0 - 1e-10)
    assert g == pytest.approx(g_near, rel=1e-7)
    assert g == pytest.approx(cf.pgf(1.0, 1.0, 2, 0.5, 1.0, 2.0), rel=1e-12)


# rho in linspace(0.2, 9, 300) x M in logspace(-2, 3, 40): it takes e^{-s M}
# far below the few-ulp error that a root 1 of the z2 = 1 characteristic
# equation carries when taken from the discriminant, and s M past 745
MASS_GRID = [(float(rho), float(m)) for rho in np.linspace(0.2, 9.0, 300)
             for m in np.logspace(-2.0, 3.0, 40)]


def test_pgf_prop_total_mass_is_one():
    for j in (1, 3):
        assert all(pgf_prop(rho, m, j, 1.0, 1.0) == 1.0 for rho, m in MASS_GRID)
    assert pgf_prop(1.1, 400.0, 1, 1.0, 1.0) == 1.0
    assert pgf_prop(2.0, 800.0, 1, 1.0, 1.0) == 1.0
    assert pgf_prop(1.0 + 1e-10, 2e10, 1, 1.0, 1.0) == 1.0


def test_pgf_prop_far_past_the_exponential_is_its_limit():
    # past s M = 745, e^{-s M} is 0; in the first case xi2 also rounds to
    # z1 = 1, so the two-root form would read 0/0
    z2 = float(np.nextafter(1.0, 0.0))
    assert pgf_prop(3.0, 400.0, 1, 1.0, z2) == pytest.approx(1.0 / 3.0, rel=1e-15)
    for z1, z2 in ((0.5, 0.5), (-1.0, 0.9), (1.0, -1.0)):
        limit = pgf_prop(3.0, 400.0, 2, z1, z2)
        assert limit == pytest.approx(pgf_prop(3.0, 20.0, 2, z1, z2), rel=1e-15)


@pytest.mark.parametrize("z1", [0.0, 0.5, 0.999])
def test_pgf_prop_x_marginal_is_a_probability(z1):
    values = [pgf_prop(rho, m, 1, z1, 1.0) for rho, m in MASS_GRID]
    assert all(0.0 <= v <= 1.0 for v in values)


# ===== balanced case is the x = 0 point, not a separate branch ================


def test_rho_one_is_continuous_limit():
    m, j = 2.0, 3
    for name in ("m_x", "var_x", "m_y", "m2_y", "gamma", "m_xy", "r_index"):
        fn = _gamma if name == "gamma" else _column(name)
        at = fn(1.0, m, j)
        below = fn(1.0 - 1e-9, m, j)
        above = fn(1.0 + 1e-9, m, j)
        assert at == pytest.approx(below, rel=1e-7), name
        assert at == pytest.approx(above, rel=1e-7), name


def test_balanced_anchor_values():
    # rho = 1: m_X = j, m_Y = j M, Var_X = 2 j M
    rep = _report(1.0, 3.0, 2)
    assert rep.m_x == 2.0
    assert rep.m_y == pytest.approx(6.0, rel=1e-14)
    assert rep.var_x == pytest.approx(12.0, rel=1e-14)
    # m2_Y = j (M + 2 M^3 / 3 + (j-1) M^2)
    assert rep.m2_y == pytest.approx(2 * (3 + 18 + 9), rel=1e-13)


# ===== variance guard =========================================================


def test_var_y_clamps_roundoff_negative_to_zero():
    # near M = 0 the subtraction can dip an ulp below zero; must clamp, not raise
    for m in (1e-12, 1e-9, 1e-6):
        v = _report(1.5, m, 1).var_y
        assert v >= 0.0


@given(
    st.floats(min_value=0.1, max_value=3.0),
    st.floats(min_value=1e-6, max_value=50.0),
    st.integers(min_value=1, max_value=10),
)
def test_var_y_nonnegative_property(rho, m, j):
    assert _report(rho, m, j).var_y >= 0.0


# ===== dispersion index =======================================================


def test_r_index_at_zero_intensity():
    for j, want in ((1, 0.0), (2, 0.5), (5, 0.8)):
        assert _report(1.7, 0.0, j).r_index == pytest.approx(want, abs=1e-15)
        assert _report(1.7, np.zeros(1), j).r_index[0] == pytest.approx(want, abs=1e-15)


def test_r_index_supercritical_asymptote():
    # r(inf) = 1 + (rho + 1)/(j (rho - 1)); at M = 100 the gap is ~ e^{-x}
    for rho in (1.5, 2.0, 3.0):
        for j in (1, 2, 5):
            want = 1.0 + (rho + 1.0) / (j * (rho - 1.0))
            assert _report(rho, 100.0, j).r_index == pytest.approx(want, rel=1e-12)


def test_r_index_stays_exact_at_huge_intensity():
    want = 1.0 + 3.0 / (2.0 * 1.0)
    assert _report(2.0, 1e6, 2).r_index == pytest.approx(want, rel=1e-12)


# ===== mean-crossing threshold ================================================


def test_crossing_threshold_balanced():
    assert crossing_m_threshold(1.0) == 1.0


def test_crossing_threshold_no_crossing_at_two_or_more():
    assert crossing_m_threshold(2.0) == math.inf
    assert crossing_m_threshold(3.5) == math.inf


@given(st.floats(min_value=0.05, max_value=1.95).filter(lambda r: abs(r - 1.0) > 1e-6))
def test_crossing_threshold_is_the_mean_crossing(rho):
    m_thr = crossing_m_threshold(rho)
    assert m_thr > 0.0
    j = 3
    rep = _report(rho, m_thr, j)
    assert rep.m_x == pytest.approx(rep.m_y, rel=1e-10)


def test_crossing_threshold_rejects_bad_rho():
    with pytest.raises(DomainError):
        crossing_m_threshold(0.0)
    with pytest.raises(DomainError):
        crossing_m_threshold(-1.0)


# ===== absorption limits and final-count law ==================================


def test_absorption_limit_diverging_intensity():
    assert absorption_prop_limit(2.0, math.inf, 1) == 0.5
    assert absorption_prop_limit(2.0, math.inf, 3) == 0.125
    assert absorption_prop_limit(1.0, math.inf, 2) == 1.0
    assert absorption_prop_limit(0.5, math.inf, 4) == 1.0


def test_absorption_limit_finite_intensity():
    # M(t) -> 2.0: simply absorption at M = 2
    assert absorption_prop_limit(1.5, 2.0, 2) == absorption_prop(1.5, 2.0, 2)


def test_absorption_limit_rejects_negative_infinity():
    with pytest.raises(DomainError):
        absorption_prop_limit(1.5, -math.inf, 1)


def test_p0k_limit_prop_delegates_to_ratio_law():
    for rho in (0.7, 1.0, 2.0):
        for j, k in ((1, 1), (1, 4), (2, 3)):
            want = float(cf.p0k_limit(rho, 1.0, j, k))
            assert p0k_limit_prop(rho, j, k) == pytest.approx(want, rel=1e-14)
    assert p0k_limit_prop(2.0, 1, 1) == pytest.approx(1.0 / 3.0, rel=1e-14)


def test_p0k_limit_prop_matches_the_constant_rate_law_across_the_lgamma_switch():
    # against exact rationals: the sum of logs carries an absolute error of a
    # few ulp of its largest term (~1e-13 relative at k = 300), and past
    # k = 300 the lgamma terms near 1e4 carry ~1e-12
    for rho in (0.5, 1.0, 3.0):
        for j in (1, 3):
            for k in (j, j + 1, 7, 299, 300, 301, 302, 800):
                want = float(cf.p0k_limit(rho, 1.0, j, k))
                rel = 1e-12 if k <= 300 else 3e-12
                assert p0k_limit_prop(rho, j, k) == pytest.approx(want, rel=rel, abs=0.0)
    with pytest.raises(DomainError):
        p0k_limit_prop(2.0, 3, 2)
    with pytest.raises(DomainError):
        p0k_limit_prop(2.0, 1, 2.0)


def test_p0k_limit_prop_never_overflows_and_matches_exact_rationals():
    # the exact branch (k <= 300), where ((rho + 1)/rho)^j alone overflows and
    # (rho/(rho + 1)^2)^k alone underflows: at (1e-3, 200, 200) and
    # (0.1, 250, 300), whose values are 0.8188 and 3.09e-4
    for rho in (1e-3, 0.01, 0.05, 0.1, 0.5, 2.0, 50.0, 1e3):
        for j in (1, 10, 50, 100, 150, 200, 250, 300):
            for k in sorted(k for k in {j, j + 1, j + 20, 300} if k <= 300):
                got = p0k_limit_prop(rho, j, k)
                want = float(cf.p0k_limit(rho, 1.0, j, k))
                if want >= 1e-300:
                    assert got == pytest.approx(want, rel=1e-12, abs=0.0), (rho, j, k)
                else:
                    assert 0.0 <= got < 1e-299, (rho, j, k)


# ===== array intensities ======================================================

# every report column, gamma and absorption, each under the name of the
# (rho, M, j) quantity it carries
ARRAY_FUNCTIONS = {
    "mean_x_prop": _column("m_x"),
    "var_x_prop": _column("var_x"),
    "mean_y_prop": _column("m_y"),
    "m2_y_prop": _column("m2_y"),
    "var_y_prop": _column("var_y"),
    "gamma_prop": _gamma,
    "mixed_moment_prop": _column("m_xy"),
    "cov_prop": _column("cov"),
    "corr_prop": _column("corr"),
    "r_index_prop": _column("r_index"),
    "absorption_prop": absorption_prop,
}


def _bits(values) -> list[bytes]:
    return [struct.pack("<d", v) for v in np.asarray(values, dtype=float).ravel()]


def _edge_intensities(rho: float) -> np.ndarray:
    """M values whose x = (rho - 1) M sits on every branch edge of the kernels
    (series radius 0.5, overflow 709) and of the absorption law (350, 745)."""
    m = [0.0, 1e-300, 1e-3, 1.0, 20.0]
    if rho != 1.0:
        for x in (0.5, 350.0, 709.0, 745.0):
            edge = x / abs(rho - 1.0)
            m += [np.nextafter(edge, 0.0), edge, np.nextafter(edge, math.inf)]
    return np.array(sorted(m))


@pytest.mark.parametrize("fn", ARRAY_FUNCTIONS.values(), ids=list(ARRAY_FUNCTIONS))
@pytest.mark.parametrize("rho", [0.5, 1.0, 2.0])
def test_array_intensities_match_scalar_calls_bit_for_bit(fn, rho):
    ms = _edge_intensities(rho)
    got = fn(rho, ms, 3)
    assert isinstance(got, np.ndarray) and got.shape == ms.shape
    scalars = [fn(rho, float(m), 3) for m in ms]
    assert all(type(v) is float for v in scalars)
    assert _bits(got) == _bits(scalars)


def test_array_intensities_are_validated_once_with_the_scalar_message():
    with pytest.raises(DomainError, match="got -0.5"):
        _report(2.0, np.array([1.0, -0.5, 2.0]), 1)
    with pytest.raises(DomainError, match="got inf"):
        absorption_prop(2.0, np.array([0.0, math.inf]), 1)
    with pytest.raises(DomainError, match="rho"):
        _report(-1.0, np.array([1.0]), 1)


def test_var_y_raises_when_any_element_loses_precision(monkeypatch):
    ms = np.array([0.5, 1.0, 2.0])
    exact = proportional._ClosedForms.m2_y.func
    assert _report(2.0, ms, 2).var_y.min() > 0.0
    # damage the second moment of the middle element only
    monkeypatch.setattr(proportional._ClosedForms, "m2_y", property(
        lambda forms: exact(forms) * np.where(forms.m == 1.0, 0.5, 1.0)
    ))
    with pytest.raises(NumericsError):
        _report(2.0, ms, 2)
    assert _report(2.0, 0.5, 2).var_y > 0.0


# ===== report columns against a 60-digit transcription =======================

_RAW_COLUMNS = ("m_x", "var_x", "m_y", "var_y", "m2_y", "m_xy", "cov")
_RATIO_COLUMNS = ("corr", "fano_x", "fano_y", "cv_x", "cv_y")
# M > 0 up to 1e4, across every overflow point of rho = 2 (x = M: the second
# moments near 355, e^x near 710) and of rho = 0.5 (x = -M/2: e^{-x} near
# M = 1420, cv_X near M = 2840)
_DECIMAL_MS = [
    1e-3, 0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 100.0, 300.0, 354.0, 354.6, 356.0,
    360.0, 700.0, 709.5, 712.0, 720.0, 1000.0, 1419.0, 1440.0, 2838.0, 2845.0, 3000.0, 1e4,
]


def _assert_matches_decimal(rep, rho, m, j):
    """Each column within 1e-12 of the 60-digit value rounded once; a value
    below 1e-300 may underflow.  A column reads inf exactly where that value
    is past the float range."""
    want = cf.dispersion_decimal(rho, m, j)
    for name in _RAW_COLUMNS + _RATIO_COLUMNS:
        got = getattr(rep, name)
        assert got == pytest.approx(want[name], rel=1e-12, abs=1e-300), (rho, m, j, name)


@pytest.mark.parametrize("rho", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("j", [1, 3])
def test_report_columns_against_60_digit_decimal(rho, j):
    for m in _DECIMAL_MS:
        _assert_matches_decimal(_report(rho, m, j), rho, m, j)


@pytest.mark.parametrize("rho", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("j", [1, 3])
def test_closed_report_has_no_nan_and_documented_zero_limits(rho, j):
    ms = np.concatenate(([0.0], np.geomspace(1e-3, 1e4, 400)))
    rep = _report(rho, ms, j)
    for name in MomentReport.__slots__:
        assert not np.isnan(np.asarray(getattr(rep, name), dtype=float)).any(), name
    assert rep.corr[0] == -1.0 / math.sqrt(1.0 + rho) and rep.corr_is_limit[0]
    assert not rep.corr_is_limit[1:].any()
    assert (rep.fano_y[0], rep.cv_y[0], rep.fano_x[0], rep.cv_x[0]) == (1.0, math.inf, 0.0, 0.0)


def test_report_just_past_the_kernel_split_is_finite_where_the_value_is():
    """x = 709.5 at rho = 11: f1 is 1.91e305 there, so m_Y = 1.35e307 and
    fano_X = 1.63e308 are finite; Var_X and the second moments are not."""
    rho, m, j = 11.0, 70.95, 1
    rep = _report(rho, m, j)
    _assert_matches_decimal(rep, rho, m, j)
    assert max(rep.m_y, rep.fano_x, rep.fano_y) < math.inf
    assert rep.var_x == rep.m2_y == math.inf


def test_moments_report_at_huge_intensity_against_decimal():
    """Past e^{2x} overflow the dispersion columns stay finite: rho = 2.5, x = 700."""
    rho, m, j = 2.5, 700.0 / 1.5, 3
    rep = _report(rho, m, j)
    _assert_matches_decimal(rep, rho, m, j)
    assert rep.var_x == rep.var_y == rep.m2_y == rep.cov == math.inf
    assert math.isfinite(rep.fano_x) and math.isfinite(rep.fano_y)
    assert rep.r_index == pytest.approx(1.0 + (rho + 1.0) / (j * (rho - 1.0)), rel=1e-12)


def test_moments_report_balanced_huge_intensity_corr_is_sqrt3_over_2():
    # rho = 1 keeps x = 0 while M^3 overflows: Var_Y is inf, the ratios are not
    rep = _report(1.0, 1e103, 1)
    _assert_matches_decimal(rep, 1.0, 1e103, 1)
    assert rep.corr == pytest.approx(math.sqrt(3.0) / 2.0, rel=1e-15)
    assert rep.var_y == math.inf and not rep.corr_is_limit


def test_corr_nan_at_zero_intensity():
    # both variances vanish: the closed form is NaN, the report gives the limit
    with np.errstate(all="ignore"):
        assert math.isnan(proportional._forms(2.0, 0.0, 3).corr)
    rep = _report(2.0, 0.0, 3)
    assert rep.corr_is_limit and rep.corr == -1.0 / math.sqrt(3.0)


def test_corr_matches_independent_form():
    assert _report(1.0, 0.01, 1).corr < 0.0  # early correlation is negative
    assert _report(2.5, 3.0, 2).corr == pytest.approx(cf.corr(2.5, 1.0, 2, 3.0), rel=1e-9)


# ===== validation =============================================================


def test_domain_checks():
    with pytest.raises(DomainError):
        _report(0.0, 1.0, 1)
    with pytest.raises(DomainError):
        _report(2.0, -0.5, 1)
    with pytest.raises(DomainError):
        _report(2.0, math.inf, 1)
    with pytest.raises(DomainError):
        _report(2.0, 1.0, 0)
    with pytest.raises(DomainError):
        pgf_prop(2.0, 1.0, 1, 1.2, 0.5)
    with pytest.raises(DomainError):
        _report(math.nan, 1.0, 1)


def test_report_is_frozen():
    rep = _report(2.0, 1.0, 1)
    assert isinstance(rep, MomentReport)
    with pytest.raises(Exception):
        rep.m_x = 0.0
