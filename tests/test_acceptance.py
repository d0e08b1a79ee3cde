"""Acceptance gate: one test per release criterion, one PASS/FAIL line each.

Each criterion checks a measured number against a second, independent route:
the closed forms transcribed in ``tests/_closed_forms.py``, the oracle, or
another engine of the package.  Where a target is a limit rather than a value
some route computes (criterion 2's large-time correlation sqrt(3)/2), the
test's comment derives it from the model's moment equations.
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import brentq

import _closed_forms as cf
from rumorbd import growth, moments, oracle
from rumorbd.fit import Dataset, fit_one, select_model
from rumorbd.process import ensemble
from rumorbd.proportional import absorption_prop_limit, p0k_limit_prop, pgf_prop
from rumorbd.rates import Constant, CosineMu, Proportional


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} — {detail}")


def _hybrid_ok(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b)) or a == b


# ------------------------------------------------------------------ criterion 1


def test_criterion_01_monte_carlo_vs_closed_means():
    lam, mu, j, reps = 2.0, 1.0, 1, 100_000
    t0 = time.perf_counter()
    stats = ensemble(Constant(lam=lam, mu=mu), j, 1.0, [0.5, 1.0], reps, seed=101)
    elapsed = time.perf_counter() - t0
    worst = 0.0
    for i, t in enumerate((0.5, 1.0)):
        zx = abs(stats.mean_x[i] - cf.mean_x(lam, mu, j, t)) / stats.se_x[i]
        zy = abs(stats.mean_y[i] - cf.mean_y(lam, mu, j, t)) / stats.se_y[i]
        worst = max(worst, zx, zy)
    ok = worst < 3.0 and elapsed <= 60.0
    _line(1, ok, f"max |z| = {worst:.2f} over mean_x/mean_y at t in (0.5, 1); "
                 f"{elapsed:.1f}s <= 60s")
    assert worst < 3.0
    assert elapsed <= 60.0


# ------------------------------------------------------------------ criterion 2


def test_criterion_02_correlation_sign_and_large_time_value():
    # Target: the large-time limit of Corr(X,Y) in the critical case lam = mu,
    # from the forward moment equations (with s = mu*t):
    #   m_X = j,  Var X = 2 j s,  Cov(X,Y) = j s (s - 1),
    #   Var Y = j s (1 - s + 2 s^2 / 3),
    # so Corr = (s - 1) / sqrt(2 (1 - s + 2 s^2 / 3)) -> 1 / sqrt(4/3) = sqrt(3)/2
    # for every j.  At s = 50 the exact value is 0.8615; the +-0.02 band covers
    # that finite-t offset plus sampling noise at 10^5 replicates.
    stats = ensemble(Constant(lam=1.0, mu=1.0), 1, 50.0, [0.1, 50.0], 100_000, seed=202)
    corr_small, corr_large = float(stats.corr[0]), float(stats.corr[1])
    closed_large = cf.corr(1.0, 1.0, 1, 50.0)
    target = math.sqrt(3.0) / 2.0
    ok = corr_small < 0.0 and abs(corr_large - target) <= 0.02
    _line(2, ok,
          f"corr(0.1) = {corr_small:+.4f} (negative as required); "
          f"corr(50) = {corr_large:.4f} vs derived limit sqrt(3)/2 = {target:.4f} "
          f"+- 0.02 (closed form at t=50: {closed_large:.4f})")
    assert corr_small < 0.0
    assert abs(corr_large - target) <= 0.02, (
        f"corr(50) = {corr_large:.4f} is not within 0.02 of the derived limit "
        f"sqrt(3)/2 = {target:.4f} (closed form at t=50: {closed_large:.4f})"
    )


# ------------------------------------------------------------------ criterion 3


def test_criterion_03_absorption_frequencies():
    reps = 100_000
    crit = ensemble(Constant(lam=1.0, mu=1.0), 1, 1.0, [1.0], reps, seed=303)
    p_hat = float(crit.absorbed_frac[0])
    se = math.sqrt(0.5 * 0.5 / reps)
    z_crit = abs(p_hat - 0.5) / se

    sup = ensemble(Constant(lam=2.0, mu=1.0), 1, 12.0, [12.0], reps, seed=304, cap=200)
    q_hat = float(sup.absorbed_frac[0])
    z_sup = abs(q_hat - 0.5) / se  # limit (mu/lam)^j = 0.5 again

    ok = z_crit < 3.0 and z_sup < 3.0
    _line(3, ok, f"critical t=1: {p_hat:.4f} (|z| = {z_crit:.2f}); "
                 f"supercritical terminal: {q_hat:.4f} (|z| = {z_sup:.2f}); both vs 0.5")
    assert z_crit < 3.0
    assert z_sup < 3.0


# ------------------------------------------------------------------ criterion 4


def test_criterion_04_oracle_matches_closed_moments():
    lam, mu, j = 1.0, 2.0, 2
    rho = lam / mu
    t0 = time.perf_counter()
    worst = 0.0
    worst_leak = 0.0
    for t in (0.5, 1.0, 2.0):
        grid = oracle.solve_forward(Constant(lam=lam, mu=mu), j, t, 60, 60)
        worst_leak = max(worst_leak, grid.leaked_mass)
        gm = oracle.moments_from_grid(grid)
        rep = moments.report_from_prop(rho, mu * t, j, t)
        closed = {key: getattr(rep, key) for key in ("m_x", "m_y", "var_x", "m2_y", "m_xy")}
        got = {
            "m_x": gm.m_x,
            "m_y": gm.m_y,
            "var_x": gm.var_x,
            "m2_y": gm.var_y + gm.m_y**2,
            "m_xy": gm.cov + gm.m_x * gm.m_y,
        }
        for key in closed:
            worst = max(worst, abs(got[key] - closed[key]))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-5 and worst_leak <= 1e-8 and elapsed <= 30.0
    _line(4, ok, f"max |moment error| = {worst:.2e} <= 1e-5, "
                 f"leak = {worst_leak:.2e} <= 1e-8, {elapsed:.1f}s <= 30s")
    assert worst <= 1e-5
    assert worst_leak <= 1e-8
    assert elapsed <= 30.0


# ------------------------------------------------------------------ criterion 5


def _partial_sums(lam, mu, j, ks):
    total, out, k, target = 0.0, [], j, sorted(ks)
    it = iter(target)
    nxt = next(it)
    while True:
        total += p0k_limit_prop(lam / mu, j, k)
        if k == nxt:
            out.append(total)
            try:
                nxt = next(it)
            except StopIteration:
                return out
        k += 1


def test_criterion_05_pgf_cross_checks():
    # constant rates (lam, mu) at time t read the proportional forms at
    # (rho, M) = (lam/mu, mu t)
    # (a) one-sided second-order stencil for d pgf / d z2 at (0, 0) vs p01
    tuples = [(l, m, t)
              for (l, m) in ((0.5, 1.0), (1.0, 1.0), (2.0, 1.0), (1.0, 2.0), (3.0, 2.0))
              for t in (0.25, 1.0, 3.0, 8.0)]
    h = 1e-4
    worst_a = 0.0
    for lam, mu, t in tuples:
        f0 = pgf_prop(lam / mu, mu * t, 1, 0.0, 0.0)
        f1 = pgf_prop(lam / mu, mu * t, 1, 0.0, h)
        f2 = pgf_prop(lam / mu, mu * t, 1, 0.0, 2 * h)
        deriv = (-3.0 * f0 + 4.0 * f1 - f2) / (2.0 * h)
        worst_a = max(worst_a, abs(deriv - cf.p01(lam, mu, t)))

    # (b) branching property: starting from j spreaders multiplies the pgf
    worst_b = 0.0
    for lam, mu, t in ((1.5, 1.0, 0.7), (1.0, 1.0, 2.0), (0.5, 2.0, 1.3)):
        for z1, z2 in ((0.3, 0.9), (0.7, 0.2), (1.0, 0.5)):
            g1 = pgf_prop(lam / mu, mu * t, 1, z1, z2)
            for j in (2, 3, 5):
                gj = pgf_prop(lam / mu, mu * t, j, z1, z2)
                worst_b = max(worst_b, abs(gj - g1**j))

    # (c) final-size law sums to the absorption limit; the critical case has a
    # k^(-3/2) tail, so extrapolate partial sums in powers of K^(-1/2)
    worst_c = 0.0
    ks = (1000, 4000, 16000, 64000)
    for lam, mu in ((1.0, 1.0), (2.0, 1.0), (1.0, 2.0)):
        for j in (1, 2, 3):
            sums = _partial_sums(lam, mu, j, ks)
            if lam == mu:
                powers = (0.0, -0.5, -1.5, -2.5)
                mat = np.array([[k**p for p in powers] for k in ks])
                s_inf = float(np.linalg.solve(mat, np.array(sums))[0])
            else:
                s_inf = sums[-1]  # geometric tail: already converged
            worst_c = max(worst_c, abs(s_inf - absorption_prop_limit(lam / mu, math.inf, j)))

    ok = worst_a <= 1e-6 and worst_b <= 1e-12 and worst_c <= 1e-6
    _line(5, ok, f"d/dz2 vs p01: {worst_a:.2e} <= 1e-6 (20 tuples); "
                 f"pgf(j) vs pgf(1)^j: {worst_b:.2e} <= 1e-12; "
                 f"sum p0k vs absorption limit: {worst_c:.2e} <= 1e-6")
    assert worst_a <= 1e-6
    assert worst_b <= 1e-12
    assert worst_c <= 1e-6


# ------------------------------------------------------------------ criterion 6


def test_criterion_06_ode_path_equals_proportional_closed_forms():
    base = CosineMu(mu=1.0, alpha=0.5, period=2.5)
    fields = ("m_x", "var_x", "m_y", "var_y", "m2_y", "m_xy", "cov")
    worst = 0.0
    for rho in (0.5, 1.0, 1.5):
        rates = Proportional(rho=rho, base_mu=base)
        for t in np.linspace(0.0, 10.0, 100):
            via_ode = moments.moment_report(rates, 2, float(t), method="ode")
            closed = moments.report_from_prop(rho, base.big_m(float(t)), 2, float(t))
            for f in fields:
                a, b = getattr(via_ode, f), getattr(closed, f)
                scale = max(abs(a), abs(b), 1e-300)
                worst = max(worst, abs(a - b) / scale if a != b else 0.0)
    ok = worst <= 1e-8
    _line(6, ok, f"max relative gap over 7 moments x 3 rho x 100 times = "
                 f"{worst:.2e} <= 1e-8")
    assert worst <= 1e-8


# ------------------------------------------------------------------ criterion 7


def _draw_curve(family: str, rng: np.random.Generator):
    j = int(rng.choice((1, 2, 3, 5)))
    rho = float(rng.uniform(1.05, 3.0))
    rate = lambda: float(rng.uniform(0.3, 4.0))  # noqa: E731
    amp = lambda: float(j + rng.uniform(0.5, 50.0))  # noqa: E731
    if family == "gompertz":
        return growth.Gompertz(alpha=rate(), beta=rate(), j=j, rho=rho)
    if family == "gen_gompertz":
        return growth.GenGompertz(a=rate(), b=rate(), j=j, rho=rho)
    if family == "logistic":
        return growth.Logistic(c=amp(), r=rate(), j=j, rho=rho)
    if family == "ext_logistic":
        return growth.ExtLogistic(n=amp(), eps=float(rng.uniform(-0.9, 0.9)), j=j, rho=rho)
    if family == "multisig_logistic":
        for _ in range(200):
            betas = (float(rng.uniform(0.5, 3.0)), float(rng.uniform(-0.3, 0.3)),
                     float(rng.uniform(-0.05, 0.05)), -float(10 ** rng.uniform(-6, -4)))
            curve = growth.MultisigLogistic(amp(), *betas, j=j, rho=rho)
            if curve.induced_validity_end() > 20.0:
                return curve
        raise AssertionError("no valid multisigmoidal draw found")
    if family == "mod_korf":
        return growth.ModKorf(alpha=rate(), beta=rate(), j=j, rho=rho)
    if family == "korf":
        return growth.Korf(alpha=rate(), beta=rate(), j=j, rho=rho)
    if family == "mitscherlich":
        return growth.Mitscherlich(alpha=rate(), beta=amp(), j=j, rho=rho)
    raise AssertionError(family)


def test_criterion_07_growth_round_trip_and_gompertz_positive_corr():
    rng = np.random.default_rng(7)
    grid = np.linspace(0.0, 20.0, 41)
    worst = 0.0
    for family in growth.FAMILIES:
        for _ in range(50):
            curve = _draw_curve(family, rng)
            for t in grid:
                m_true = curve.mean(float(t))
                rep = moments.report_from_prop(
                    curve.rho, curve.induced_big_m(float(t)), curve.j, float(t)
                )
                m_back = rep.m_x if curve.kind == "x" else rep.m_y
                scale = max(abs(m_true), abs(m_back), 1e-300)
                if m_true != m_back:
                    worst = max(worst, abs(m_true - m_back) / scale)

    g = growth.Gompertz(alpha=3.0, beta=2.0, j=1, rho=1.5)
    corr_min = min(
        moments.report_from_prop(1.5, g.induced_big_m(float(t)), 1, float(t)).corr
        for t in np.linspace(0.1, 20.0, 80)
    )
    ok = worst <= 1e-10 and corr_min > 0.0
    _line(7, ok, f"8 families x 50 draws round trip: max rel gap = {worst:.2e} "
                 f"<= 1e-10; Gompertz corr min on [0.1, 20] = {corr_min:.3f} > 0")
    assert worst <= 1e-10
    assert corr_min > 0.0


# ------------------------------------------------------------------ criterion 8


def test_criterion_08_r_index_routes_and_small_time_limit():
    worst = 0.0
    for rho in (0.5, 1.0, 1.5, 2.5):
        for big_m in (0.1, 0.7, 2.0, 5.0):
            for j in (1, 2, 5):
                rep = moments.report_from_prop(rho, big_m, j, big_m)
                via_gamma = rep.r_index
                via_moments = rep.m_xy / (rep.m_x * rep.m_y)
                worst = max(worst, abs(via_gamma - via_moments)
                            / max(abs(via_gamma), abs(via_moments)))
    # same identity through the general rate-family interface
    rates = Proportional(rho=1.5, base_mu=CosineMu(mu=1.0, alpha=0.5, period=2.5))
    for t in (0.3, 1.0, 4.0):
        rep = moments.moment_report(rates, 2, t)
        r_manual = rep.m_xy / (rep.m_x * rep.m_y)
        worst = max(worst, abs(rep.r_index - r_manual) / abs(r_manual))

    worst_lim = max(
        abs(moments.report_from_prop(1.5, 1e-12, j, 1e-12).r_index - (1.0 - 1.0 / j))
        for j in (1, 2, 5)
    )
    ok = worst <= 1e-10 and worst_lim <= 1e-8
    _line(8, ok, f"gamma/m_y vs m_xy/(m_x m_y): max rel gap = {worst:.2e} <= 1e-10; "
                 f"r(t->0) vs 1-1/j: max gap = {worst_lim:.2e}")
    assert worst <= 1e-10
    assert worst_lim <= 1e-8


# ------------------------------------------------------------------ criterion 9


def test_criterion_09_fit_round_trips_and_model_selection():
    t_grid = np.linspace(0.0, 10.0, 50)

    logi = growth.Logistic(c=10.0, r=1.2, j=1, rho=2.0)
    ds = Dataset("logi", tuple(t_grid), tuple(logi.mean_array(t_grid)))
    fit_l = fit_one("logistic", ds, "mse", budget=4000, restarts=8, seed=0)
    err_l = max(abs(fit_l.params[0] - 10.0) / 10.0, abs(fit_l.params[1] - 1.2) / 1.2)

    gomp = growth.Gompertz(alpha=3.0, beta=2.0, j=1, rho=2.0)
    ds = Dataset("gomp", tuple(t_grid), tuple(gomp.mean_array(t_grid)))
    fit_g = fit_one("gompertz", ds, "mse", budget=4000, restarts=8, seed=0)
    err_g = max(abs(fit_g.params[0] - 3.0) / 3.0, abs(fit_g.params[1] - 2.0) / 2.0)

    multi = growth.MultisigLogistic(
        c=20.0, beta1=2.0, beta2=-1.2, beta3=0.3, beta4=-0.012, j=1, rho=2.0
    )
    t80 = np.linspace(0.0, 10.0, 80)
    ds = Dataset("multi", tuple(t80), tuple(multi.mean_array(t80)))
    report = select_model(ds, "all", "mse", seed=0)
    vals = {r.family: r.value for r in report.results}

    ok = err_l < 0.01 and err_g < 0.01 and report.winner == "multisig_logistic"
    _line(9, ok,
          f"logistic params within {err_l:.2e}, gompertz within {err_g:.2e} "
          f"(<= 1% required); multisigmoidal data: winner = {report.winner} "
          f"(value {vals.get('multisig_logistic', float('nan')):.2e} vs logistic "
          f"{vals.get('logistic', float('nan')):.2e}); archived per-dataset CSVs "
          f"are not bundled, so their table is reported, never asserted")
    assert err_l < 0.01
    assert err_g < 0.01
    assert report.winner == "multisig_logistic"


# ----------------------------------------------------------------- criterion 10


def test_criterion_10_crossing_times():
    worst_crit = max(
        abs(moments.crossing_time(Constant(lam=c, mu=c), 1) - 1.0 / c) * c
        for c in (0.5, 1.0, 2.0)
    )
    none_ok = all(
        moments.crossing_time(Constant(lam=lam, mu=mu), 2) is None
        for lam, mu in ((2.0, 1.0), (3.0, 1.0), (1.0, 0.5))
    )

    # numeric root against an independently solved closed-form relation
    base = CosineMu(mu=1.0, alpha=0.5, period=2.5)
    rates = Proportional(rho=1.5, base_mu=base)
    t_num = moments.crossing_time(rates, 3)
    m_tilde = -math.log(2.0 - 1.5) / 0.5
    t_closed = brentq(lambda t: base.big_m(t) - m_tilde, 1e-9, 50.0,
                      xtol=1e-14, rtol=8.9e-16)
    gap_seasonal = abs(t_num - t_closed) / t_closed

    gaps_curves = []
    for curve, closed in (
        (growth.Gompertz(alpha=3.0, beta=2.0, j=1, rho=1.5),
         cf.crossing_gompertz(3.0, 2.0, 1.5)),
        (growth.Mitscherlich(alpha=1.0, beta=5.0, j=2, rho=1.5),
         cf.crossing_mitscherlich(1.0, 5.0, 2, 1.5)),
    ):
        t_num_c = moments.crossing_time(growth.proportional_from_curve(curve), curve.j)
        gaps_curves.append(abs(t_num_c - closed) / closed)
    worst_fallback = max(gap_seasonal, *gaps_curves)

    ok = worst_crit <= 1e-9 and none_ok and worst_fallback <= 1e-9
    _line(10, ok, f"critical 1/mu: max rel gap = {worst_crit:.2e}; "
                  f"lam >= 2 mu correctly yields no crossing: {none_ok}; "
                  f"numeric vs closed: max rel gap = {worst_fallback:.2e} <= 1e-9")
    assert worst_crit <= 1e-9
    assert none_ok
    assert worst_fallback <= 1e-9
