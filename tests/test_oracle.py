"""Truncated master-equation solver: conservation, exactness, and guards."""

import math

import numpy as np
import pytest

import _closed_forms as cf
from rumorbd import DomainError, NumericsError
from rumorbd.oracle import StepControl, TruncatedGrid, moments_from_grid, solve_forward
from rumorbd.proportional import p0k_limit_prop
from rumorbd.rates import Constant, ConstantMu, CosineMu, Explicit, Proportional


# ===== basic structure ========================================================


def test_time_zero_is_a_point_mass():
    grid = solve_forward(Constant(lam=1.0, mu=1.0), 2, 0.0, 20, 20)
    assert grid.prob(2, 0) == 1.0
    assert grid.total_mass() == 1.0
    assert grid.leaked_mass == 0.0
    assert grid.j == 2 and grid.t == 0.0
    assert grid.n_max == 20 and grid.k_max == 20


def test_mass_plus_leak_is_conserved():
    for rates, j, t in [
        (Constant(lam=1.0, mu=1.0), 1, 2.0),
        (Constant(lam=2.0, mu=1.0), 3, 1.0),
        (Proportional(rho=1.5, base_mu=CosineMu(mu=1.0, alpha=0.5, period=2.5)), 1, 1.5),
    ]:
        grid = solve_forward(rates, j, t, 40, 40, max_leak=1.0)
        assert grid.total_mass() + grid.leaked_mass == pytest.approx(1.0, abs=1e-12)
        assert grid.p.min() >= -1e-12  # no meaningfully negative probabilities


def test_leak_stays_tiny_on_an_adequate_grid():
    # subcritical spreading keeps the population small: 60x60 is generous
    grid = solve_forward(Constant(lam=1.0, mu=2.0), 2, 2.0, 60, 60)
    assert grid.leaked_mass <= 1e-8


def test_structural_zeros():
    # n + k = j + (spreads so far) >= j: anything below that line is unreachable
    j = 3
    grid = solve_forward(Constant(lam=1.0, mu=1.0), j, 1.5, 30, 30)
    for n in range(j):
        for k in range(j - n):
            assert grid.prob(n, k) == 0.0
    # in particular the absorbed states with k < j
    assert grid.prob(0, 0) == 0.0
    assert grid.prob(0, j - 1) == 0.0


# ===== pointwise exactness ====================================================


@pytest.mark.parametrize("lam,mu", [(1.0, 1.0), (2.0, 1.0), (1.0, 2.0)])
def test_single_forget_state_matches_naive_form(lam, mu):
    grid = solve_forward(Constant(lam=lam, mu=mu), 1, 1.0, 40, 40)
    assert grid.prob(0, 1) == pytest.approx(cf.p01(lam, mu, 1.0), abs=1e-9)


def test_small_state_probabilities_survive_large_leak():
    """Trajectories that end in small (n, k) never visit the truncation edge,
    so their probabilities stay exact even when the grid leaks heavily."""
    grid = solve_forward(
        Constant(lam=1.0, mu=1.0), 1, 15.0, 40, 40, max_leak=1.0
    )
    assert grid.leaked_mass > 0.01  # the run genuinely leaks
    assert grid.prob(0, 2) == pytest.approx(p0k_limit_prop(1.0, 1, 2), abs=1e-9)
    assert grid.prob(0, 1) == pytest.approx(p0k_limit_prop(1.0, 1, 1), abs=1e-9)


def test_absorbed_mass_matches_absorption_probability():
    grid = solve_forward(Constant(lam=1.0, mu=1.0), 1, 1.0, 40, 40)
    absorbed = sum(grid.prob(0, k) for k in range(41))
    assert absorbed == pytest.approx(cf.absorption(1.0, 1.0, 1, 1.0), abs=1e-9)
    assert absorbed == pytest.approx(0.5, abs=1e-9)


def test_supercritical_terminal_absorption():
    # Per-state values are exact; the aggregate is limited by the k-truncation
    # tail, which for lam = 2 mu decays only like (8/9)^k.
    grid = solve_forward(Constant(lam=2.0, mu=1.0), 3, 15.0, 45, 45, max_leak=1.0)
    for k in range(3, 21):
        assert grid.prob(0, k) == pytest.approx(p0k_limit_prop(2.0, 3, k), abs=1e-8)
    absorbed = sum(grid.prob(0, k) for k in range(46))
    truncated_limit = sum(p0k_limit_prop(2.0, 3, k) for k in range(3, 46))
    assert absorbed == pytest.approx(truncated_limit, abs=1e-7)
    assert absorbed == pytest.approx(0.125, abs=1e-4)


# ===== moments from the grid ==================================================


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_grid_moments_match_naive_forms_subcritical(t):
    lam, mu, j = 1.0, 2.0, 2
    grid = solve_forward(Constant(lam=lam, mu=mu), j, t, 60, 60)
    mom = moments_from_grid(grid)
    assert mom.m_x == pytest.approx(cf.mean_x(lam, mu, j, t), abs=1e-7)
    assert mom.m_y == pytest.approx(cf.mean_y(lam, mu, j, t), abs=1e-7)
    assert mom.var_x == pytest.approx(cf.var_x(lam, mu, j, t), abs=1e-6)
    assert mom.var_y == pytest.approx(cf.var_y(lam, mu, j, t), abs=1e-6)
    assert mom.cov == pytest.approx(cf.cov(lam, mu, j, t), abs=1e-6)


def test_grid_moments_match_closed_route_seasonal():
    from rumorbd.moments import moment_report

    rates = Proportional(rho=1.5, base_mu=CosineMu(mu=1.0, alpha=0.5, period=2.5))
    j, t = 1, 1.0
    mom = moments_from_grid(solve_forward(rates, j, t, 70, 70))
    rep = moment_report(rates, j, t)
    assert mom.m_x == pytest.approx(rep.m_x, abs=1e-7)
    assert mom.m_y == pytest.approx(rep.m_y, abs=1e-7)
    assert mom.var_x == pytest.approx(rep.var_x, abs=1e-6)
    assert mom.cov == pytest.approx(rep.cov, abs=1e-6)


def test_constant_and_proportional_constant_rates_share_a_route():
    c = solve_forward(Constant(lam=1.3, mu=0.7), 1, 1.0, 30, 30)
    p = solve_forward(
        Proportional(rho=1.3 / 0.7, base_mu=ConstantMu(mu=0.7)), 1, 1.0, 30, 30
    )
    assert np.array_equal(c.p, p.p)
    assert c.leaked_mass == p.leaked_mass


def test_explicit_rates_reproduce_constant_rates():
    # RK4 (Explicit) against uniformization (Constant): two algorithms, held
    # to the RK4 step-error tolerance of the refinement test below
    c = solve_forward(Constant(lam=1.3, mu=0.7), 1, 1.0, 30, 30)
    e = solve_forward(
        Explicit(lambda_fn=lambda s: 1.3, mu_fn=lambda s: 0.7, rate_sup_fn=lambda a, b: 2.0),
        1, 1.0, 30, 30,
    )
    assert (c.route, e.route) == ("uniformization", "rk4")
    assert np.abs(c.p - e.p).max() <= 1e-10


# ===== uniformization against RK4 =============================================


def _explicit_twin(rates):
    """The same rates as an Explicit family, which the oracle solves by RK4."""
    return Explicit(
        lambda_fn=rates.lam_at, mu_fn=rates.mu_at, rate_sup_fn=rates.total_rate_sup
    )


def _logistic_rates():
    from rumorbd.growth import Logistic, proportional_from_curve

    return proportional_from_curve(Logistic(c=100.0, r=0.9, j=1, rho=2.0))


@pytest.mark.parametrize(
    "rates,j,t",
    [
        (Proportional(rho=1.5, base_mu=CosineMu(mu=1.0, alpha=0.5, period=2.5)), 1, 1.5),
        (_logistic_rates(), 1, 3.0),
    ],
    ids=["cosine", "logistic-curve"],
)
def test_uniformization_matches_rk4_on_time_varying_rates(rates, j, t):
    # RK4 reads lam/mu pointwise and never calls big_m, so this also checks
    # the operational time M(t) the uniformization route runs to
    u = solve_forward(rates, j, t, 40, 40, max_leak=1.0)
    e = solve_forward(_explicit_twin(rates), j, t, 40, 40, max_leak=1.0)
    assert (u.route, e.route) == ("uniformization", "rk4")
    assert np.abs(u.p - e.p).max() <= 1e-12
    assert abs(u.leaked_mass - e.leaked_mass) <= 1e-12


def test_uniformization_over_many_chunks_stays_a_distribution():
    # Lam * M = 45 * 3 * 15 = 2025: six chunks of operational time
    grid = solve_forward(Constant(lam=2.0, mu=1.0), 3, 15.0, 45, 45, max_leak=1.0)
    assert grid.p.min() >= 0.0
    assert grid.total_mass() + grid.leaked_mass == pytest.approx(1.0, abs=1e-12)


def test_route_and_application_count_are_reported():
    grid = solve_forward(Constant(lam=1.0, mu=2.0), 2, 1.0, 100, 100)
    assert grid.route == "uniformization"
    assert 0 < grid.applications <= 500  # RK4 took 12 000 on this table
    control = StepControl(max_step=0.01, rate_budget=0.1)
    rk = solve_forward(_explicit_twin(Constant(lam=1.0, mu=2.0)), 2, 1.0, 30, 30, control)
    steps = math.ceil(1.0 / min(0.01, 0.1 / (30 * 3.0)))
    assert rk.route == "rk4"
    assert rk.applications == 4 * steps


# ===== guards =================================================================


def test_leak_budget_guard_raises_with_advice():
    with pytest.raises(NumericsError, match="n_max"):
        solve_forward(Constant(lam=1.0, mu=1.0), 3, 2.0, 30, 30)
    # the same run on a larger grid is fine
    grid = solve_forward(Constant(lam=1.0, mu=1.0), 3, 2.0, 50, 50)
    assert grid.leaked_mass < 1e-4


def test_moments_guard_rejects_leaky_grid():
    grid = solve_forward(Constant(lam=1.0, mu=1.0), 1, 15.0, 40, 40, max_leak=1.0)
    with pytest.raises(NumericsError):
        moments_from_grid(grid)


def test_step_control_validation():
    assert StepControl().max_step == 0.01
    assert StepControl().rate_budget == 0.1
    with pytest.raises(DomainError):
        StepControl(max_step=0.0)
    with pytest.raises(DomainError):
        StepControl(rate_budget=-1.0)


def test_step_control_refinement_converges():
    rates = Explicit(lambda_fn=lambda s: 1.0, mu_fn=lambda s: 1.0, rate_sup_fn=lambda a, b: 2.0)
    coarse = solve_forward(
        rates, 1, 1.0, 30, 30,
        step_control=StepControl(max_step=0.01, rate_budget=0.5),
    )
    fine = solve_forward(
        rates, 1, 1.0, 30, 30,
        step_control=StepControl(max_step=0.002, rate_budget=0.05),
    )
    assert coarse.prob(0, 1) == pytest.approx(fine.prob(0, 1), abs=1e-10)


def test_non_finite_operational_time_is_rejected():
    class RunawayMu(ConstantMu):
        def big_m(self, t):
            return math.inf

    with pytest.raises(DomainError, match="finite"):
        solve_forward(Proportional(rho=1.0, base_mu=RunawayMu(mu=1.0)), 1, 1.0, 30, 30)


def test_step_control_is_rejected_where_there_is_no_step():
    with pytest.raises(DomainError, match="step_control"):
        solve_forward(Constant(lam=1.0, mu=1.0), 1, 1.0, 30, 30, StepControl())


def test_argument_validation():
    r = Constant(lam=1.0, mu=1.0)
    with pytest.raises(DomainError):
        solve_forward(r, 0, 1.0, 30, 30)
    with pytest.raises(DomainError):
        solve_forward(r, 1, -1.0, 30, 30)
    with pytest.raises(DomainError):
        solve_forward(r, 1, 1.0, 5, 30)  # n_max must be >= j + 5
    with pytest.raises(DomainError):
        solve_forward(r, 1, 1.0, 30, 5)
    with pytest.raises(DomainError):
        solve_forward(r, 1, 1.0, 30.5, 30)


def test_prob_bounds_checking():
    grid = solve_forward(Constant(lam=1.0, mu=1.0), 1, 0.5, 20, 20)
    assert isinstance(grid, TruncatedGrid)
    with pytest.raises(DomainError):
        grid.prob(-1, 0)
    with pytest.raises(DomainError):
        grid.prob(0, 21)
    with pytest.raises(DomainError):
        grid.prob(21, 0)


def test_horizon_validation_consults_the_rate_family():
    from rumorbd.growth import MultisigLogistic, proportional_from_curve

    curve = MultisigLogistic(c=5.0, betas=(1.0, 0.0, 0.0, -0.1), j=1, rho=2.0)
    rates = proportional_from_curve(curve)
    end = curve.induced_validity_end()
    solve_forward(rates, 1, end * 0.5, 25, 25)  # inside the window: fine
    with pytest.raises(DomainError):
        solve_forward(rates, 1, end + 1.0, 25, 25)
