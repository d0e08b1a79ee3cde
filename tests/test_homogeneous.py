"""Constant-rate generating function, absorption, and limit distributions.

Constant rates are the proportional case with mu constant, so the constant-rate
p.g.f., absorption limit and final-size law are the proportional ones at
(rho, M) = (lam/mu, mu t); ``absorption_prob`` is the one form still written
in (lam, mu, t).
"""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

import _closed_forms as cf
from rumorbd import DomainError
from rumorbd.homogeneous import absorption_prob
from rumorbd.proportional import absorption_prop_limit, p0k_limit_prop, pgf_prop

RATE_PAIRS = [(1.0, 1.0), (2.0, 1.0), (1.0, 2.0), (0.7, 1.3), (3.5, 0.4)]

rates_st = st.tuples(
    st.floats(min_value=0.05, max_value=5.0),
    st.floats(min_value=0.05, max_value=5.0),
)


def _absorption_limit(lam, mu, j):
    return absorption_prop_limit(lam / mu, math.inf, j)


def _p01(lam, mu, t, h=1e-5):
    """P(X(t) = 0, Y(t) = 1) from one spreader: the z2 coefficient of
    G(0, z2) = p01 z2 + p02 z2^2 + ..., Richardson-extrapolated (error 2 p03 h^2)."""
    rho, m = lam / mu, mu * t
    return (4.0 * pgf_prop(rho, m, 1, 0.0, h) - pgf_prop(rho, m, 1, 0.0, 2.0 * h)) / (2.0 * h)


# ===== pgf =====================================================================


@pytest.mark.parametrize("lam,mu", RATE_PAIRS)
def test_pgf_at_unit_arguments_is_one(lam, mu):
    for j in (1, 2, 5):
        for t in (0.0, 0.3, 2.0):
            assert pgf_prop(lam / mu, mu * t, j, 1.0, 1.0) == 1.0


def test_pgf_initial_condition():
    # t = 0: G = z1^j regardless of rates
    for z1 in (0.0, 0.4, 1.0):
        for j in (1, 3):
            assert pgf_prop(2.0, 0.0, j, z1, 0.7) == z1**j


@pytest.mark.parametrize("lam,mu", RATE_PAIRS)
def test_pgf_power_property(lam, mu):
    for j in (2, 3, 7):
        for (z1, z2) in ((0.0, 0.0), (0.3, 0.8), (0.9, 0.2), (0.5, 1.0)):
            g1 = pgf_prop(lam / mu, mu * 1.3, 1, z1, z2)
            gj = pgf_prop(lam / mu, mu * 1.3, j, z1, z2)
            assert gj == pytest.approx(g1**j, rel=1e-12, abs=1e-300)


@given(rates_st, st.floats(min_value=0.01, max_value=8.0))
def test_pgf_at_origin_is_extinct_at_zero_mass(rates, t):
    # G(0, 0, t) = P(X=0, Y=0) = 0 for j >= 1 (absorption requires Y >= j)
    lam, mu = rates
    assert pgf_prop(lam / mu, mu * t, 1, 0.0, 0.0) == pytest.approx(0.0, abs=1e-12)


@given(rates_st, st.floats(min_value=0.01, max_value=5.0), st.sampled_from([0.5, 1.0]))
def test_pgf_monotone_in_z1(rates, t, z2):
    lam, mu = rates
    vals = [pgf_prop(lam / mu, mu * t, 2, z1, z2) for z1 in (0.1, 0.4, 0.7, 1.0)]
    assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))


def test_pgf_z1_one_z2_marginal_mean():
    # d/dz1 at z1=z2=1 recovers the mean of X; one-sided stencil (domain is [0,1])
    lam, mu, j, t = 1.3, 0.8, 2, 1.1
    h = 1e-6
    d = (
        3.0 * pgf_prop(lam / mu, mu * t, j, 1.0, 1.0)
        - 4.0 * pgf_prop(lam / mu, mu * t, j, 1.0 - h, 1.0)
        + pgf_prop(lam / mu, mu * t, j, 1.0 - 2 * h, 1.0)
    ) / (2 * h)
    assert d == pytest.approx(cf.mean_x(lam, mu, j, t), rel=1e-7)


def test_pgf_z2_derivative_mean_y():
    lam, mu, j, t = 0.9, 1.7, 3, 0.8
    h = 1e-6
    d = (
        3.0 * pgf_prop(lam / mu, mu * t, j, 1.0, 1.0)
        - 4.0 * pgf_prop(lam / mu, mu * t, j, 1.0, 1.0 - h)
        + pgf_prop(lam / mu, mu * t, j, 1.0, 1.0 - 2 * h)
    ) / (2 * h)
    assert d == pytest.approx(cf.mean_y(lam, mu, j, t), rel=1e-7)


def test_pgf_critical_confluent_branch_continuous():
    # z2 = 1 collapses the two characteristic roots; nearby z2 must agree
    lam = mu = 1.0
    g_at = pgf_prop(lam / mu, mu * 2.0, 2, 0.5, 1.0)
    g_near = pgf_prop(lam / mu, mu * 2.0, 2, 0.5, 1.0 - 1e-9)
    assert g_at == pytest.approx(g_near, rel=1e-6)
    assert g_at == pytest.approx(cf.pgf(lam, mu, 2, 0.5, 1.0, 2.0), rel=1e-14)


def test_pgf_long_time_approaches_absorption_transform():
    # t -> inf, subcritical (lam, mu, t) = (1, 2, 200): G -> sum_k p0k z2^k;
    # at z2=1 that's 1
    val = pgf_prop(0.5, 400.0, 1, 0.3, 1.0)
    assert val == pytest.approx(1.0, rel=1e-9)


def test_pgf_domain_checks():
    with pytest.raises(DomainError):
        pgf_prop(1.0, 1.0, 0, 0.5, 0.5)
    with pytest.raises(DomainError):
        pgf_prop(1.0, 1.0, 1, 1.5, 0.5)
    with pytest.raises(DomainError):
        pgf_prop(-1.0, 1.0, 1, 0.5, 0.5)
    with pytest.raises(DomainError):
        pgf_prop(1.0, -0.1, 1, 0.5, 0.5)


# ===== absorption =============================================================


@pytest.mark.parametrize("lam,mu", RATE_PAIRS)
def test_absorption_matches_naive_form(lam, mu):
    for j in (1, 2, 4):
        for t in (0.1, 1.0, 5.0):
            assert absorption_prob(lam, mu, j, t) == pytest.approx(
                cf.absorption(lam, mu, j, t), rel=1e-12
            )


def test_absorption_critical_value():
    # lam = mu = 1, j = 1, t = 1: mu t/(1 + mu t) = 1/2
    assert absorption_prob(1.0, 1.0, 1, 1.0) == pytest.approx(0.5, rel=1e-14)


def test_absorption_limit_values():
    assert _absorption_limit(2.0, 1.0, 1) == pytest.approx(0.5)
    assert _absorption_limit(2.0, 1.0, 3) == pytest.approx(0.125)
    assert _absorption_limit(1.0, 1.0, 2) == 1.0
    assert _absorption_limit(1.0, 2.0, 5) == 1.0


@given(rates_st, st.integers(min_value=1, max_value=6))
def test_absorption_monotone_to_limit(rates, j):
    lam, mu = rates
    ts = [0.0, 0.5, 1.0, 3.0, 10.0, 60.0]
    vals = [absorption_prob(lam, mu, j, t) for t in ts]
    assert vals[0] == 0.0
    assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
    assert vals[-1] <= _absorption_limit(lam, mu, j) + 1e-9


def test_absorption_huge_time_supercritical():
    # d*t > 350 exercises the scaled form; must equal the limit to all digits
    assert absorption_prob(3.0, 1.0, 2, 400.0) == pytest.approx(
        _absorption_limit(3.0, 1.0, 2), rel=1e-15
    )


def test_absorption_near_critical_continuity():
    base = absorption_prob(1.0, 1.0, 1, 2.0)
    near = absorption_prob(1.0 + 1e-11, 1.0, 1, 2.0)
    assert near == pytest.approx(base, rel=1e-9)


# ===== p01 and the absorbed-state limit law ===================================


@pytest.mark.parametrize("lam,mu", RATE_PAIRS)
def test_p01_matches_naive(lam, mu):
    for t in (0.05, 0.7, 4.0):
        assert _p01(lam, mu, t) == pytest.approx(cf.p01(lam, mu, t), rel=1e-8)


def test_p01_long_time_equals_k1_limit():
    for lam, mu in RATE_PAIRS:
        assert cf.p01(lam, mu, 300.0) == pytest.approx(
            p0k_limit_prop(lam / mu, 1, 1), rel=1e-12
        )


def test_p0k_limit_small_cases():
    # j=1: p_{0,1}(inf) = mu/(lam+mu)
    for lam, mu in RATE_PAIRS:
        assert p0k_limit_prop(lam / mu, 1, 1) == pytest.approx(mu / (lam + mu), rel=1e-13)
    # critical j=1, k=2: (1/4)^2 * (C(2,1) - C(2,2)) * 2^1 -> 1/8
    assert p0k_limit_prop(1.0, 1, 2) == pytest.approx(0.125, rel=1e-13)


def test_p0k_limit_rejects_unreachable_k():
    # fewer inactives than the initial spreaders is unreachable at absorption
    with pytest.raises(DomainError):
        p0k_limit_prop(0.5, 3, 2)
    with pytest.raises(DomainError):
        p0k_limit_prop(0.5, 3, 0)


@pytest.mark.parametrize("lam,mu", [(1.0, 2.0), (2.0, 1.0), (0.5, 3.0)])
@pytest.mark.parametrize("j", [1, 2, 3])
def test_p0k_limit_sums_to_absorption_limit_noncritical(lam, mu, j):
    # geometric-type tail: a few thousand terms are plenty away from lam=mu
    total = sum(p0k_limit_prop(lam / mu, j, k) for k in range(j, 4000))
    assert total == pytest.approx(_absorption_limit(lam, mu, j), abs=1e-10)


def test_p0k_limit_large_k_log_route_continuity():
    # the exact-binomial and lgamma branches must agree where they meet
    lam, mu, j = 1.3, 1.1, 2
    for k in (299, 300, 301, 302):
        exact = float(cf.p0k_limit(lam, mu, j, k))
        assert p0k_limit_prop(lam / mu, j, k) == pytest.approx(exact, rel=1e-12)


def test_p0k_limit_ballot_form_far_tail():
    # very large k goes through the log-gamma route and must stay finite/positive
    v = p0k_limit_prop(1.0, 1, 200_000)
    assert 0.0 < v < 1e-7
    # critical tail ~ k^{-3/2}/sqrt(4 pi): check the asymptotic shape

    k = 200_000
    asymp = k ** (-1.5) / math.sqrt(4.0 * math.pi)
    assert v == pytest.approx(asymp, rel=1e-4)
