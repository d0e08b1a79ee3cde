"""Exact stochastic sampler: path laws, determinism, and ensemble statistics."""

import hashlib
import math

import numpy as np
import pytest
from scipy import stats as sps

import _closed_forms as cf
from rumorbd import DomainError, process
from rumorbd.growth import Logistic, proportional_from_curve
from rumorbd.process import EnsembleStats, Trajectory, ensemble, simulate
from rumorbd.rates import Constant, CosineMu, Explicit, MuBase, Proportional

SEASONAL = Proportional(rho=1.5, base_mu=CosineMu(mu=1.0, alpha=0.5, period=2.5))
INDUCED = proportional_from_curve(Logistic(c=50.0, r=0.9, j=2, rho=2.0))


def _state_at(traj: Trajectory, g: float) -> tuple[int, int]:
    """Right-continuous state at time g (after all events with time <= g)."""
    n, k = traj.initial_j, 0
    for ev in traj.events:
        if ev.time <= g:
            n, k = ev.n, ev.k
        else:
            break
    return n, k


def _explicit_copy(lam, mu):
    return Explicit(
        lambda_fn=lambda s: lam, mu_fn=lambda s: mu, rate_sup_fn=lambda a, b: lam + mu
    )


def _explicit_twin(rates):
    """The same rates as an Explicit family, which the sampler thins in real time."""
    return Explicit(
        lambda_fn=rates.lam_at, mu_fn=rates.mu_at, rate_sup_fn=rates.total_rate_sup
    )


# ===== per-trajectory invariants ==============================================


def _check_path_invariants(traj: Trajectory, cap: int):
    j = traj.initial_j
    n, k, spreads = j, 0, 0
    prev_t = 0.0
    for ev in traj.events:
        assert ev.time > prev_t  # strictly increasing times
        assert ev.time <= traj.horizon
        prev_t = ev.time
        if ev.kind == "spread":
            n, spreads = n + 1, spreads + 1
        elif ev.kind == "forget":
            n, k = n - 1, k + 1
        else:
            raise AssertionError(f"unknown event kind {ev.kind!r}")
        assert (ev.n, ev.k) == (n, k)  # events carry the post-jump state
        assert n >= 0
        assert n + k == j + spreads  # conservation law
    assert (traj.final_n, traj.final_k) == (n, k)
    assert traj.absorbed == (n == 0)
    if traj.absorbed:
        assert traj.events[-1].kind == "forget"
    if traj.cap_hit:
        assert n == cap
    else:
        assert n < cap


@pytest.mark.parametrize(
    "rates",
    [Constant(lam=1.2, mu=0.8), SEASONAL, _explicit_twin(SEASONAL)],
    ids=["constant", "seasonal", "seasonal-explicit"],
)
def test_trajectory_invariants_hold_on_every_path(rates):
    cap = 10**6
    n_paths = 1200 if isinstance(rates, Constant) else 400
    absorbed = 0
    for seed in range(n_paths):
        traj = simulate(rates, 2, 2.0, seed, cap=cap)
        _check_path_invariants(traj, cap)
        absorbed += traj.absorbed
    assert 0 < absorbed < n_paths  # both outcomes actually occur


def test_simulate_is_reproducible_and_seed_sensitive():
    a = simulate(Constant(lam=1.0, mu=1.0), 2, 3.0, 42)
    b = simulate(Constant(lam=1.0, mu=1.0), 2, 3.0, 42)
    c = simulate(Constant(lam=1.0, mu=1.0), 2, 3.0, 43)
    assert a.events == b.events
    assert a.events != c.events


# ===== exactness of the event-time law ========================================


def test_first_event_time_is_exponential_constant_rates():
    lam, mu = 0.4, 0.6
    times = []
    for seed in range(10_000):
        traj = simulate(Constant(lam=lam, mu=mu), 1, 50.0, seed)
        if traj.events:
            times.append(traj.events[0].time)
    assert len(times) == 10_000  # P(no event by t=50) ~ e^{-50}
    res = sps.kstest(times, "expon", args=(0.0, 1.0 / (lam + mu)))
    assert res.pvalue > 0.01


def test_first_event_split_matches_rate_ratio():
    lam, mu = 0.3, 0.9  # subcritical so the paths stay short past the first event
    spreads = 0
    n = 4000
    for seed in range(n):
        traj = simulate(Constant(lam=lam, mu=mu), 1, 50.0, seed)
        spreads += traj.events[0].kind == "spread"
    p = lam / (lam + mu)
    se = math.sqrt(p * (1.0 - p) / n)
    assert abs(spreads / n - p) < 3.5 * se


@pytest.mark.parametrize("explicit", [False, True], ids=["proportional", "explicit"])
def test_first_event_time_thinning_matches_time_changed_exponential(explicit):
    # With intensity n (1+rho) mu(t), the compensator (1+rho) M(t) of the first
    # event (from n = 1) must be a unit exponential.  Subcritical rho keeps the
    # paths short: only the first event matters here.
    base = CosineMu(mu=1.0, alpha=0.5, period=2.5)
    rates = Proportional(rho=0.4, base_mu=base)
    if explicit:
        rates = _explicit_twin(rates)
    transformed = []
    for seed in range(10_000):
        traj = simulate(rates, 1, 14.0, seed)
        if traj.events:
            transformed.append(1.4 * base.big_m(traj.events[0].time))
    assert len(transformed) == 10_000
    res = sps.kstest(transformed, "expon")
    assert res.pvalue > 0.01


def test_thinning_sampler_agrees_with_direct_sampler():
    # the same constant rates through the two independent sampling paths
    j, horizon, R = 1, 1.0, 6000
    grid = [1.0]
    direct = ensemble(Constant(lam=1.5, mu=1.0), j, horizon, grid, R, seed=11)
    thinned = ensemble(_explicit_copy(1.5, 1.0), j, horizon, grid, R, seed=12)
    gap = abs(direct.mean_x[0] - thinned.mean_x[0])
    assert gap < 3.5 * math.hypot(direct.se_x[0], thinned.se_x[0])
    gap_y = abs(direct.mean_y[0] - thinned.mean_y[0])
    assert gap_y < 3.5 * math.hypot(direct.se_y[0], thinned.se_y[0])


def test_operational_time_agrees_with_thinning_on_seasonal_rates():
    # one proportional family through the two clocks: operational time M(t)
    # for the family itself, real-time thinning for its Explicit twin
    j, horizon, R = 1, 3.0, 4000
    grid = [0.5, 1.0, 2.0, 3.0]
    operational = ensemble(SEASONAL, j, horizon, grid, R, seed=11)
    thinned = ensemble(_explicit_twin(SEASONAL), j, horizon, grid, R, seed=12)
    for i in range(len(grid)):
        gap = abs(operational.mean_x[i] - thinned.mean_x[i])
        assert gap < 3.5 * math.hypot(operational.se_x[i], thinned.se_x[i])
        gap_y = abs(operational.mean_y[i] - thinned.mean_y[i])
        assert gap_y < 3.5 * math.hypot(operational.se_y[i], thinned.se_y[i])


class _BigMOnly(MuBase):
    """The seasonal profile's M, with a rate and an envelope that raise."""

    def big_m(self, t):
        return SEASONAL.base_mu.big_m(t)

    def mu_at(self, t):
        raise AssertionError("mu_at called")

    def mu_sup(self, t0, t1):
        raise AssertionError("mu_sup called")


def test_proportional_sampling_needs_only_big_m():
    # neither the pointwise rates nor the thinning envelope are consulted
    rates = Proportional(rho=1.5, base_mu=_BigMOnly())
    traj = simulate(rates, 2, 3.0, 5)
    assert traj.events
    assert traj.events == simulate(SEASONAL, 2, 3.0, 5).events
    grid = [0.0, 1.0, 3.0]
    stats = ensemble(rates, 2, 3.0, grid, 50, 5)
    ref = ensemble(SEASONAL, 2, 3.0, grid, 50, 5)
    assert np.array_equal(stats.mean_x, ref.mean_x)
    assert np.array_equal(stats.mean_y, ref.mean_y)


def test_thinning_rejects_a_violated_envelope():
    lying = Explicit(
        lambda_fn=lambda s: 2.0, mu_fn=lambda s: 0.5, rate_sup_fn=lambda a, b: 1.0
    )
    with pytest.raises(DomainError, match="supremum"):
        simulate(lying, 3, 5.0, 0)


# ===== ensemble statistics ====================================================


@pytest.mark.parametrize(
    "rates",
    [Constant(lam=1.3, mu=0.9), SEASONAL, INDUCED, _explicit_twin(SEASONAL)],
    ids=["constant", "seasonal", "induced", "seasonal-explicit"],
)
def test_ensemble_single_replicate_replays_the_trajectory(rates):
    # the contract: simulate is ensemble(replicates=1) for the same seed, the
    # same stream through the same sampler, read at the grid times
    j, horizon, seed = 2, 2.0, 7
    traj = simulate(rates, j, horizon, seed)
    grid = [0.0, 0.25, 0.5, 1.0, 1.5, 2.0]
    stats = ensemble(rates, j, horizon, grid, replicates=1, seed=seed)
    for i, g in enumerate(grid):
        n, k = _state_at(traj, g)
        assert stats.mean_x[i] == float(n)
        assert stats.mean_y[i] == float(k)
        assert stats.absorbed_frac[i] == float(n == 0)
    assert np.isnan(stats.var_x).all()  # ddof=1 undefined for one replicate
    assert np.isnan(stats.corr).all()


def test_ensemble_matches_closed_moments_within_monte_carlo_error():
    lam, mu, j = 2.0, 1.0, 1
    grid = [0.5, 1.0]
    stats = ensemble(Constant(lam=lam, mu=mu), j, 1.0, grid, replicates=20_000, seed=3)
    for i, t in enumerate(grid):
        assert abs(stats.mean_x[i] - cf.mean_x(lam, mu, j, t)) < 3.0 * stats.se_x[i]
        assert abs(stats.mean_y[i] - cf.mean_y(lam, mu, j, t)) < 3.0 * stats.se_y[i]
        p = cf.absorption(lam, mu, j, t)
        se_p = math.sqrt(p * (1.0 - p) / stats.replicates)
        assert abs(stats.absorbed_frac[i] - p) < 3.0 * se_p
    # sample variances land near the closed ones (loose 5% check)
    assert stats.var_x[1] == pytest.approx(cf.var_x(lam, mu, j, 1.0), rel=0.05)
    assert stats.var_y[1] == pytest.approx(cf.var_y(lam, mu, j, 1.0), rel=0.05)
    assert stats.cov[1] == pytest.approx(cf.cov(lam, mu, j, 1.0), rel=0.10)


def test_ensemble_time_zero_and_monotone_absorption():
    stats = ensemble(
        Constant(lam=1.0, mu=1.0), 3, 2.0, list(np.linspace(0.0, 2.0, 9)),
        replicates=2000, seed=5,
    )
    assert stats.mean_x[0] == 3.0
    assert stats.mean_y[0] == 0.0
    assert stats.absorbed_frac[0] == 0.0
    assert np.all(np.diff(stats.absorbed_frac) >= 0.0)  # absorption is permanent
    assert np.all((stats.absorbed_frac >= 0.0) & (stats.absorbed_frac <= 1.0))
    assert np.all(stats.cap_frac == 0.0)
    assert isinstance(stats, EnsembleStats)
    assert stats.seed == 5 and stats.j == 3


def test_population_cap_freezes_paths():
    rates = Constant(lam=5.0, mu=0.01)
    traj = simulate(rates, 1, 5.0, 1, cap=4)
    assert traj.cap_hit
    assert traj.final_n == 4
    assert traj.events[-1].n == 4
    stats = ensemble(rates, 1, 5.0, [0.0, 2.5, 5.0], replicates=500, seed=9, cap=4)
    assert stats.cap_frac[-1] > 0.9  # nearly every path explodes to the cap
    assert np.all(np.diff(stats.cap_frac) >= 0.0)
    assert np.all(stats.mean_x <= 4.0)


# ===== determinism ============================================================


def test_ensemble_bit_identical_for_fixed_seed():
    args = (Constant(lam=1.0, mu=1.0), 2, 1.0, [0.5, 1.0], 3000, 17)
    a = ensemble(*args)
    b = ensemble(*args)
    for name in ("mean_x", "var_x", "mean_y", "var_y", "cov", "absorbed_frac"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    c = ensemble(Constant(lam=1.0, mu=1.0), 2, 1.0, [0.5, 1.0], 3000, 18)
    assert not np.array_equal(a.mean_x, c.mean_x)


_FIELDS = ("mean_x", "var_x", "mean_y", "var_y", "cov", "corr", "absorbed_frac",
           "se_x", "se_y", "cap_frac")


def test_ensemble_over_several_blocks_is_bit_identical():
    args = (SEASONAL, 1, 2.0, [0.0, 0.5, 1.0, 2.0], process._BLOCK + 3, 23)
    a = ensemble(*args)
    b = ensemble(*args)
    for name in _FIELDS:
        assert np.array_equal(getattr(a, name), getattr(b, name), equal_nan=True), name
    assert a.mean_x[0] == 1.0 and 0.0 < a.absorbed_frac[-1] < 1.0


def test_statistics_depend_neither_on_an_unreached_cap_nor_on_the_sum_width(monkeypatch):
    args = (INDUCED, 2, 3.0, [0.5, 1.0, 3.0], 400, 4)
    ref = ensemble(*args, cap=10**6)
    assert np.all(ref.cap_frac == 0.0)
    huge_cap = ensemble(*args, cap=2**40)
    monkeypatch.setattr(process, "_EXACT", 1)  # every block sums in Python ints
    python_ints = ensemble(*args, cap=2**40)
    for name in _FIELDS:
        assert np.array_equal(getattr(ref, name), getattr(huge_cap, name), equal_nan=True)
        assert np.array_equal(getattr(ref, name), getattr(python_ints, name), equal_nan=True)


def test_block_sums_equal_python_int_sums_on_states_near_3e9():
    # one square of 3e9 fits int64 and two overflow it: the table must widen
    rng = np.random.default_rng(5)
    g_len, m = 9, 40
    lo = rng.integers(0, g_len, m)
    hi = np.minimum(lo + rng.integers(1, 4, m), g_len)
    x = 3_000_000_000 + rng.integers(-10**6, 10**6, m)
    y = rng.integers(0, 3_100_000_000, m)
    acc = np.zeros((7, g_len + 1), dtype=np.int64)
    acc = process._accumulate(acc, lo[:5], hi[:5], x[:5] % 1000, y[:5] % 1000)  # int64 still
    assert acc.dtype == np.int64
    acc = process._accumulate(acc, lo[5:], hi[5:], x[5:], y[5:])
    assert acc.dtype == object
    got = np.cumsum(acc[:5, :g_len], axis=1).tolist()
    want = [[0] * g_len for _ in range(5)]
    xs = [int(v) % 1000 for v in x[:5]] + [int(v) for v in x[5:]]
    ys = [int(v) % 1000 for v in y[:5]] + [int(v) for v in y[5:]]
    for a, b, xi, yi in zip(lo.tolist(), hi.tolist(), xs, ys):
        for g in range(a, b):
            for row, v in enumerate((xi, xi * xi, yi, yi * yi, xi * yi)):
                want[row][g] += v
    assert got == want


# ===== argument validation ====================================================


def test_simulate_argument_validation():
    r = Constant(lam=1.0, mu=1.0)
    with pytest.raises(DomainError):
        simulate(r, 0, 1.0, 0)
    with pytest.raises(DomainError):
        simulate(r, 1, 0.0, 0)
    with pytest.raises(DomainError):
        simulate(r, 1, 1.0, -1)
    with pytest.raises(DomainError):
        simulate(r, 1, 1.0, 0, cap=0)  # cap must be >= j
    with pytest.raises(DomainError):
        simulate(r, 1.5, 1.0, 0)


def test_ensemble_argument_validation():
    r = Constant(lam=1.0, mu=1.0)
    with pytest.raises(DomainError):
        ensemble(r, 1, 1.0, [], 10, 0)
    with pytest.raises(DomainError):
        ensemble(r, 1, 1.0, [0.5, 0.2], 10, 0)  # decreasing grid
    with pytest.raises(DomainError):
        ensemble(r, 1, 1.0, [0.5, 1.5], 10, 0)  # beyond the horizon
    with pytest.raises(DomainError):
        ensemble(r, 1, 1.0, [-0.1, 0.5], 10, 0)
    with pytest.raises(DomainError):
        ensemble(r, 1, 1.0, [1.0], 0, 0)


@pytest.mark.parametrize(
    "rates", [Constant(lam=1.0, mu=1.0), SEASONAL, _explicit_twin(SEASONAL)],
    ids=["constant", "seasonal", "seasonal-explicit"],
)
@pytest.mark.parametrize(
    "grid", [[math.nan, 0.5], [0.5, math.nan]], ids=["nan-first", "nan-last"]
)
def test_ensemble_rejects_a_non_finite_grid_time(rates, grid):
    with pytest.raises(DomainError, match="finite"):
        ensemble(rates, 1, 1.0, grid, 10, 0)


def test_horizon_validation_consults_the_rate_family():
    import json

    from rumorbd import cli
    from rumorbd import rates as rates_mod
    from rumorbd.growth import MultisigLogistic, curve_to_config, proportional_from_curve
    from rumorbd.moments import moment_report

    curve = MultisigLogistic(c=5.0, beta1=1.0, beta2=0.0, beta3=0.0, beta4=-0.1, j=1, rho=2.0)
    rates = proportional_from_curve(curve)
    end = curve.induced_validity_end()
    simulate(rates, 1, end * 0.5, 0)  # inside the validity window
    with pytest.raises(DomainError):
        simulate(rates, 1, end + 1.0, 0)
    with pytest.raises(DomainError):
        ensemble(rates, 1, end + 1.0, [0.1], 10, 0)
    # past the window, where M is falling but still positive: only the window
    # check tells these entries that the numbers are not the process's
    past = 1.2 * end
    for method in ("closed", "ode"):
        with pytest.raises(DomainError):
            moment_report(rates, 1, [0.1, past], method=method)
    for transform in (rates_mod.big_m, rates_mod.eta, rates_mod.phi_x, rates_mod.phi_y):
        with pytest.raises(DomainError):
            transform(rates, past)
    with pytest.raises(DomainError):
        rates_mod.gamma(rates, 1, past)
    spec = json.dumps({"kind": "proportional", "rho": 2.0,
                       "base": {"kind": "curve", "curve": curve_to_config(curve)}})
    assert cli.main(["absorb", "--rates", spec, "--j", "1", "--grid", f"0:{past}:4"]) == 0
    assert cli.main(["absorb", "--rates", spec, "--j", "1",
                     "--grid", f"{past}:{past + 0.1}:2"]) == 2


def test_seed_to_realisation_map_is_pinned():
    """Fixed seeds give fixed paths.  Only integer content is pinned, so the
    check holds on any CPU; a change to the random streams updates these
    values and says so in CHANGES.md."""
    traj = simulate(Constant(lam=1.0, mu=1.0), 5, 10.0, 3)
    path = repr([(ev.kind, ev.n, ev.k) for ev in traj.events]).encode()
    assert len(traj.events) == 37
    assert hashlib.sha256(path).hexdigest()[:16] == "85fad94ead99dc95"
    stats = ensemble(Constant(lam=2.0, mu=1.0), 1, 1.0, [0.0, 0.5, 1.0], 5000, 11)
    assert [round(f * 5000) for f in stats.absorbed_frac.tolist()] == [0, 1458, 1978]
    assert [round(m * 5000) for m in stats.mean_x.tolist()] == [5000, 8189, 13630]
