"""Curve fitting: objectives, multi-start optimization, model selection,
and inactive-mean reconstruction."""

import itertools
import math
import statistics
import warnings

import numpy as np
import pytest
from scipy.optimize import least_squares, minimize

from rumorbd import DataError, DomainError
from rumorbd import fit as fit_module
from rumorbd import growth
from rumorbd.fit import (
    Dataset,
    FitResult,
    _Batch,
    _build_curve,
    _dims_for,
    _latin_hypercube,
    _Problem,
    _starts,
    dataset_from_csv,
    fit_one,
    objective,
    reconstruct_y,
    select_model,
)


def _sampled(curve, times, name="synthetic"):
    t = np.asarray(times, dtype=float)
    return Dataset(name=name, times=tuple(t), counts=tuple(curve.mean_array(t)))


def _noisy(curve, times, rel, seed, name="noisy"):
    """Multiplicative noise, then restore the dataset invariants."""
    t = np.asarray(times, dtype=float)
    rng = np.random.default_rng(seed)
    y = curve.mean_array(t) * (1.0 + rel * rng.standard_normal(t.size))
    y[0] = curve.mean(0.0)  # keep the exact initial count
    y = np.maximum.accumulate(np.maximum(y, 1.0))
    return Dataset(name=name, times=tuple(t), counts=tuple(y))


def _count_series(seed):
    """The benchmark's count series: logistic c=100, r=0.9, j=1 at 40 days in
    [0, 14], log-normal noise (sigma 0.05), rounded, monotone."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))
    t = np.linspace(0.0, 14.0, 40)
    m = 100.0 / (1.0 + 99.0 * np.exp(-0.9 * t))
    y = np.round(m * np.exp(0.05 * rng.standard_normal(t.size)))
    y[0] = 1.0
    y = np.maximum.accumulate(np.maximum(y, 1.0))
    return Dataset(name=f"series{seed}", times=tuple(t.tolist()), counts=tuple(y.tolist()))


def _search_alone(problem, starts, budget=400):
    """Where each MSE restart from ``starts`` ends, in a batch of ``problem`` alone."""
    return fit_module._search(_Batch([problem]), [starts], "mse", budget)[0]


class _ConstantStub:
    """Minimal curve interface: a flat mean, for objective arithmetic checks."""

    def __init__(self, level):
        self.level = float(level)

    def mean_array(self, t):
        return np.full(np.asarray(t, dtype=float).shape, self.level)


# ===== datasets ================================================================


def test_dataset_accepts_valid_input_and_reports_length():
    ds = Dataset(name="ok", times=(0, 1, 2.5), counts=(1, 1, 4))
    assert len(ds) == 3
    assert ds.times == (0.0, 1.0, 2.5)
    assert ds.counts == (1.0, 1.0, 4.0)


@pytest.mark.parametrize(
    "times,counts",
    [
        ((), ()),  # empty
        ((0, 1), (1,)),  # length mismatch
        ((1, 2), (1, 2)),  # first time not zero
        ((0, 1, 1), (1, 2, 3)),  # times not strictly increasing
        ((0, 1, 2), (1, 3, 2)),  # counts decrease
        ((0, 1), (0.5, 2)),  # first count below one
        ((0, 1, 2), (1, math.nan, 3)),  # a NaN count
        ((0, 1, 2), (1, 2, math.inf)),  # an infinite count
        ((0, 1, math.inf), (1, 2, 3)),  # an infinite time
    ],
)
def test_dataset_rejects_malformed_input(times, counts):
    with pytest.raises(DataError):
        Dataset(name="bad", times=times, counts=counts)


def test_dataset_error_names_the_first_count():
    with pytest.raises(DataError, match=r"first count must be >= 1, got 0\.5$"):
        Dataset(name="bad", times=(0, 1), counts=(0.5, 2))


def test_dataset_from_csv_round_trip(tmp_path):
    p = tmp_path / "week1.csv"
    p.write_text("# retweet tallies\nt,count\n0,1\n# midweek\n1,3\n2.5,7\n")
    ds = dataset_from_csv(p)
    assert ds.name == "week1"
    assert ds.times == (0.0, 1.0, 2.5)
    assert ds.counts == (1.0, 3.0, 7.0)
    assert dataset_from_csv(p, name="renamed").name == "renamed"


@pytest.mark.parametrize(
    "text",
    [
        "time,value\n0,1\n",  # wrong header
        "t,count\n0,one\n",  # malformed number
        "0,1\n1,2\n",  # header missing entirely
        "# only comments\n",
    ],
)
def test_dataset_from_csv_rejects_bad_files(tmp_path, text):
    p = tmp_path / "bad.csv"
    p.write_text(text)
    with pytest.raises(DataError):
        dataset_from_csv(p)


def test_dataset_from_csv_missing_file(tmp_path):
    with pytest.raises(DataError):
        dataset_from_csv(tmp_path / "absent.csv")


# ===== objective ===============================================================


def test_objective_is_zero_on_interpolating_curve():
    curve = growth.Logistic(c=10.0, r=1.2, j=1, rho=2.0)
    ds = _sampled(curve, np.linspace(0.0, 8.0, 25))
    assert objective(curve, ds, "mse") == 0.0
    assert objective(curve, ds, "rae") == 0.0


def test_objective_arithmetic_on_flat_curve():
    ds = Dataset(name="two", times=(0.0, 1.0), counts=(1.0, 3.0))
    stub = _ConstantStub(2.0)  # residuals -1 and +1
    assert objective(stub, ds, "mse") == pytest.approx(1.0, rel=1e-15)
    assert objective(stub, ds, "rae") == pytest.approx(0.5, rel=1e-15)
    assert objective(stub, ds, "MSE") == pytest.approx(1.0, rel=1e-15)


def test_objective_overflowing_curve_scores_infinite():
    ds = Dataset(name="two", times=(0.0, 1.0), counts=(1.0, 3.0))
    assert objective(_ConstantStub(math.inf), ds, "mse") == math.inf
    assert objective(_ConstantStub(math.nan), ds, "rae") == math.inf


def test_objective_rejects_unknown_kind():
    ds = Dataset(name="two", times=(0.0, 1.0), counts=(1.0, 3.0))
    with pytest.raises(DomainError):
        objective(_ConstantStub(2.0), ds, "rmse")


# ===== single-family fits ======================================================


def test_logistic_self_fit_recovers_exactly():
    truth = growth.Logistic(c=10.0, r=1.2, j=1, rho=2.0)
    ds = _sampled(truth, np.linspace(0.0, 10.0, 50))
    fit = fit_one("logistic", ds, "mse", budget=4000, restarts=8, seed=0)
    assert fit.value <= 1e-20
    assert fit.converged
    assert fit.j == 1
    c_hat, r_hat = fit.params
    assert c_hat == pytest.approx(10.0, rel=1e-6)
    assert r_hat == pytest.approx(1.2, rel=1e-6)
    assert fit.curve is not None and fit.curve.family == "logistic"


def test_gompertz_fit_survives_one_percent_noise():
    truth = growth.Gompertz(alpha=3.0, beta=2.0, j=1, rho=2.0)
    times = np.linspace(0.0, 10.0, 60)
    err_a, err_b = [], []
    for seed in range(20):
        ds = _noisy(truth, times, rel=0.01, seed=seed)
        fit = fit_one("gompertz", ds, "mse", budget=1500, restarts=4, seed=seed)
        a_hat, b_hat = fit.params
        err_a.append(abs(a_hat - 3.0) / 3.0)
        err_b.append(abs(b_hat - 2.0) / 2.0)
    assert statistics.median(err_a) < 0.10
    assert statistics.median(err_b) < 0.10


def test_fit_requires_more_points_than_parameters():
    ds = Dataset(name="tiny", times=(0.0, 1.0), counts=(1.0, 3.0))
    with pytest.raises(DataError, match="points"):
        fit_one("multisig_logistic", ds, "mse")
    with pytest.raises(DataError):
        fit_one("gompertz", ds, "mse")  # 2 points cannot pin 2 params + 1
    three = Dataset(name="three", times=(0.0, 1.0, 2.0), counts=(1.0, 2.0, 3.0))
    assert fit_one("gompertz", three, "mse", 50, restarts=1).n_evals > 0
    with pytest.raises(DataError, match="at least 4 points to fit 3 parameters"):
        fit_one("gompertz", three, "mse", 50, restarts=1, estimate_j=True)  # j is one more


def test_fit_is_deterministic_for_fixed_seed():
    truth = growth.Gompertz(alpha=1.0, beta=0.8, j=2, rho=2.0)
    ds = _noisy(truth, np.linspace(0.0, 6.0, 30), rel=0.02, seed=5)
    a = fit_one("gompertz", ds, "mse", budget=800, restarts=4, seed=9)
    b = fit_one("gompertz", ds, "mse", budget=800, restarts=4, seed=9)
    assert a.params == b.params
    assert a.value == b.value
    assert a.n_evals == b.n_evals


def test_latin_hypercube_puts_one_point_in_each_stratum():
    n, d = 16, 5
    unit = _latin_hypercube(n, d, seed=3)
    assert unit.shape == (n, d)
    assert np.all((unit >= 0.0) & (unit < 1.0))
    for k in range(d):
        assert sorted(np.floor(unit[:, k] * n).astype(int)) == list(range(n))
    assert np.array_equal(unit, _latin_hypercube(n, d, seed=3))
    assert not np.array_equal(unit, _latin_hypercube(n, d, seed=4))


def test_fit_budget_caps_evaluations_per_restart():
    truth = growth.Gompertz(alpha=1.0, beta=0.8, j=2, rho=2.0)
    ds = _noisy(truth, np.linspace(0.0, 6.0, 30), rel=0.02, seed=5)
    for kind, budget in (("mse", 60), ("mse", 400), ("rae", 60)):
        fit = fit_one("gompertz", ds, kind, budget=budget, restarts=3, seed=1)
        assert 0 < fit.n_evals <= fit.restarts * budget


def _polished(family, ds, params):
    """Nelder-Mead from ``params`` in natural coordinates, +inf off the box."""
    dims = _dims_for(family, ds)
    cls = growth.FAMILIES[family]

    def mse(p):
        p = tuple(p)
        if not all(d.lo <= v <= d.hi for v, d in zip(p, dims)):
            return math.inf
        try:
            curve = cls(j=1, rho=2.0, **dict(zip(cls.param_names, p)))
        except DomainError:
            return math.inf
        return objective(curve, ds, "mse")

    res = minimize(mse, np.array(params), method="Nelder-Mead",
                   options={"maxfev": 4000, "xatol": 1e-13, "fatol": 1e-16,
                            "adaptive": True})
    return res.fun


def test_mse_fits_are_local_optima_nelder_mead_cannot_improve():
    truth = growth.Logistic(c=9.0, r=1.1, j=1, rho=2.0)
    ds = _noisy(truth, np.linspace(0.0, 8.0, 40), rel=0.02, seed=1)
    report = select_model(ds, "all", "mse", budget=2000, restarts=6, seed=0)
    for fr in report.results:
        polished = _polished(fr.family, ds, fr.params)
        assert polished >= fr.value * (1.0 - 1e-9), fr.family


def test_fit_message_names_parameters_on_a_box_bound():
    ds = _count_series(1)
    fit = fit_one("logistic", ds, "mse", budget=400, restarts=4, seed=1)
    y_max = max(ds.counts)
    assert y_max == 107.0
    assert fit.params[0] == pytest.approx(y_max, rel=1e-12)  # c on its lower bound
    assert fit.message == "on the parameter box bound: c (lower)"
    truth = growth.Logistic(c=10.0, r=1.2, j=1, rho=2.0)
    inside = fit_one("logistic", _sampled(truth, np.linspace(0.0, 10.0, 50)), "mse",
                     budget=400, restarts=4, seed=0)
    assert inside.message == ""


def test_estimate_j_recovers_the_initial_count():
    truth = growth.Logistic(c=12.0, r=1.0, j=3, rho=2.0)
    ds = _sampled(truth, np.linspace(0.0, 6.0, 25))
    fit = fit_one("logistic", ds, "mse", seed=0, estimate_j=True)
    assert fit.j == 3
    c_hat, r_hat = fit.params
    assert c_hat == pytest.approx(12.0, rel=1e-6)
    assert r_hat == pytest.approx(1.0, rel=1e-6)


@pytest.mark.parametrize("kind", ["mse", "rae"])
@pytest.mark.parametrize("c, r, n, horizon", [(12.0, 1.0, 25, 6.0), (50.0, 0.8, 40, 12.0)])
def test_estimate_j_does_not_depend_on_the_starts(c, r, n, horizon, kind):
    """Exact logistic series with j = 3, at the 8 restarts x 4000 where a
    search over a rounded j coordinate ended at j = 2 or 4 for some seeds."""
    ds = _sampled(growth.Logistic(c=c, r=r, j=3, rho=2.0), np.linspace(0.0, horizon, n))
    for seed in range(3):
        fit = fit_one("logistic", ds, kind, 4000, restarts=8, seed=seed, estimate_j=True)
        assert fit.j == 3, seed


@pytest.mark.parametrize("kind", ["mse", "rae"])
@pytest.mark.parametrize("family, truth", [
    ("logistic", growth.Logistic(c=20.0, r=1.0, j=4, rho=2.0)),
    ("gompertz", growth.Gompertz(alpha=1.2, beta=0.8, j=4, rho=2.0)),
    ("gen_gompertz", growth.GenGompertz(a=1.2, b=0.5, j=4, rho=2.0)),
    ("ext_logistic", growth.ExtLogistic(n=20.0, eps=0.3, j=4, rho=2.0)),
    ("mod_korf", growth.ModKorf(alpha=1.0, beta=0.8, j=4, rho=2.0)),
])
def test_estimate_j_profile_equals_the_exhaustive_argmin(family, truth, kind):
    """Independent route: the pinned-j fit at every j in [1, max count], the
    minimum taken with ties to the j nearer the first count, then the
    smaller.  The noise is on the first count too, so the minimum is not
    always at the first count."""
    t = np.linspace(0.0, 6.0, 12)
    rng = np.random.default_rng(3)
    y = truth.mean_array(t) * (1.0 + 0.15 * rng.standard_normal(12))
    y = np.maximum.accumulate(np.maximum(y, 1.0))
    ds = Dataset(name="noisy", times=tuple(t), counts=tuple(y))
    fit = fit_one(family, ds, kind, 300, restarts=3, seed=3, estimate_j=True)
    dims = _dims_for(family, ds)
    starts = _starts(dims, 3, 3)
    j0 = round(ds.counts[0])
    profile = {j: fit_module._fits([_Problem(family, dims, ds, j, 2.0)], [starts], kind, 300)[0]
               for j in range(1, round(max(ds.counts)) + 1)}
    best = min(profile, key=lambda j: (profile[j].value, abs(j - j0), j))
    assert fit.j == best
    assert fit.value == profile[best].value and fit.params == profile[best].params
    assert fit.restarts < 3 * len(profile)


def test_estimate_j_gallops_to_the_end_of_the_range():
    """Korf's profile falls all the way to j = max count: the scan doubles its
    stride there instead of stepping through every j."""
    ds = _count_series(1)
    fit = fit_one("korf", ds, "mse", 400, restarts=4, seed=1, estimate_j=True)
    assert fit.j == max(ds.counts) == 107
    assert fit.restarts <= 12 * 4
    assert 0 < fit.n_evals <= fit.restarts * 400


@pytest.mark.parametrize("kind", ["mse", "rae"])
def test_rho_not_above_one_fails_before_any_evaluation(kind):
    ds = _count_series(1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = select_model(ds, ["logistic", "korf"], kind, budget=2000, restarts=4,
                              seed=0, rho=1.0)
    assert report.winner is None
    for fr in report.results:
        assert fr.value == math.inf and fr.n_evals == 0
        assert fr.message == "curve families require a rate ratio rho > 1, got 1.0"


@pytest.mark.parametrize("family", list(growth.FAMILIES))
def test_rae_evaluator_equals_the_objective_of_the_constructed_curve(family):
    """At in-box points where the constructor accepts the parameters and the
    residuals stay under the cap, the search's RAE is the objective of the
    constructed curve; off the box it is +inf."""
    ds = _count_series(1)
    dims = _dims_for(family, ds)
    problem = _Problem(family, dims, ds, 1, 2.0)
    batch = _Batch([problem])
    corners = np.array(list(itertools.product(*zip(problem.lo, problem.hi))))
    points = np.concatenate([problem.encode(_starts(dims, 32, seed=5)), corners])
    checked = 0
    for z in points:
        try:
            curve = _build_curve(family, tuple(batch.decode(z, 0).tolist()), 1, 2.0)
        except DomainError:
            continue
        with np.errstate(over="ignore"):
            if not np.all(np.abs(ds.counts - curve.mean_array(np.asarray(ds.times))) < 1e50):
                continue
        assert batch.rae(z, 0) == pytest.approx(objective(curve, ds, "rae"), rel=1e-15, abs=0.0)
        checked += 1
    assert checked >= 32
    span = problem.hi - problem.lo
    for i in range(len(dims)):
        for side, bound in ((-1.0, problem.lo), (1.0, problem.hi)):
            z = 0.5 * (problem.lo + problem.hi)
            z[i] = bound[i] + side * 1e-9 * span[i]
            assert batch.rae(z, 0) == math.inf


def test_fit_accepts_class_and_rejects_unknown_family():
    truth = growth.Logistic(c=8.0, r=1.0, j=1, rho=2.0)
    ds = _sampled(truth, np.linspace(0.0, 6.0, 20))
    fit = fit_one(growth.Logistic, ds, "mse", budget=600, restarts=2, seed=0)
    assert fit.family == "logistic"
    with pytest.raises(DataError):
        fit_one("cubic_spline", ds, "mse")
    with pytest.raises(DomainError):
        fit_one("logistic", ds, "mse", budget=0)
    with pytest.raises(DomainError):
        fit_one("logistic", ds, "mse", restarts=0)
    for effort in ({"budget": 2.5}, {"budget": True}, {"restarts": 2.5}, {"restarts": True}):
        with pytest.raises(DomainError):
            fit_one("logistic", ds, "mse", **effort)
        with pytest.raises(DomainError):
            select_model(ds, ["logistic"], "mse", **effort)


def test_fit_pins_j_to_the_initial_count():
    truth = growth.Logistic(c=12.0, r=1.0, j=3, rho=2.0)
    ds = _sampled(truth, np.linspace(0.0, 6.0, 25))
    fit = fit_one("logistic", ds, "mse", budget=2000, restarts=6, seed=0)
    assert fit.j == 3
    assert fit.value <= 1e-16


def test_multisig_nests_the_plain_logistic():
    truth = growth.Logistic(c=9.0, r=1.1, j=1, rho=2.0)
    ds = _noisy(truth, np.linspace(0.0, 8.0, 40), rel=0.02, seed=1)
    logi = fit_one("logistic", ds, "mse", budget=2000, restarts=6, seed=0)
    multi = fit_one("multisig_logistic", ds, "mse", budget=2000, restarts=6, seed=0)
    assert multi.value <= logi.value + 1e-9  # the richer family can only improve


# ===== model selection =========================================================


def test_select_model_ranks_families_and_records_failures():
    truth = growth.Logistic(c=10.0, r=1.2, j=1, rho=2.0)
    ds = _sampled(truth, np.linspace(0.0, 8.0, 5))  # too short for multisig
    report = select_model(
        ds, ["logistic", "multisig_logistic"], "mse", budget=1500, restarts=4, seed=0
    )
    assert report.winner == "logistic"
    assert report.dataset_name == ds.name
    by_family = {r.family: r for r in report.results}
    assert by_family["logistic"].value <= 1e-16
    failed = by_family["multisig_logistic"]
    assert failed.value == math.inf
    assert not failed.converged
    assert "points" in failed.message


def test_select_model_multisig_is_no_worse_than_its_logistic():
    """Also when j is profiled: the nested start is then the same at every j."""
    truth = growth.Logistic(c=9.0, r=1.1, j=1, rho=2.0)
    ds = _noisy(truth, np.linspace(0.0, 8.0, 40), rel=0.02, seed=1)
    for estimate_j in (False, True):
        report = select_model(
            ds, ["logistic", "multisig_logistic"], "mse", budget=2000, restarts=6, seed=0,
            estimate_j=estimate_j,
        )
        logi, multi = report.results
        assert multi.value <= logi.value, estimate_j


def test_rae_multisig_is_no_worse_than_its_logistic_on_every_count_series():
    """The polish starts from the least RAE among the starts, the nested one
    included, so the richer family keeps its bound.  On series 4 it is
    strictly better: a polish starved of evaluations by the least-squares
    stage would stay near the logistic start."""
    for seed in range(1, 15):
        report = select_model(_count_series(seed), ["logistic", "multisig_logistic"], "rae",
                              400, restarts=4, seed=seed)
        logi, multi = report.results
        assert multi.value <= logi.value, seed
        if seed == 4:
            assert multi.value < 0.031 < 0.033 < logi.value


def test_rae_fit_is_one_lockstep_search_and_one_polish(monkeypatch):
    """Per pinned-j RAE fit: one least-squares batch at half the budget per
    restart, then one Nelder-Mead run on what the batch left."""
    calls = []
    inner = fit_module.minimize

    def spy(fun, x0, method, **kwargs):
        res = inner(fun, x0, method, **kwargs)
        calls.append((method, kwargs, int(np.sum(res.nfev))))
        return res

    monkeypatch.setattr(fit_module, "minimize", spy)
    fr = fit_one("gompertz", _count_series(2), "rae", 400, restarts=4, seed=2)
    (lm, lm_kwargs, lm_evals), (nm, nm_kwargs, nm_evals) = calls
    assert (lm, lm_kwargs["budget"], nm) == ("lm", 200, "Nelder-Mead")
    assert nm_kwargs["options"]["maxfev"] == 4 * 400 - lm_evals >= nm_evals
    assert fr.n_evals == lm_evals + nm_evals <= fr.restarts * 400


def test_select_model_survives_overflowing_curves_without_warnings():
    """Residuals near overflow are capped: no RuntimeWarning, no solver error."""
    for seed in range(1, 13):
        ds = _count_series(seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = select_model(ds, "all", "mse", budget=400, restarts=4, seed=seed)
        assert all(math.isfinite(r.value) for r in report.results)


def test_least_squares_restart_caps_finite_overflowing_residuals():
    """exp(491) ~ 1e213 is finite, but its square overflows the cost r.r; the
    capped row leaves the rows beside it in its batch bit for bit unchanged."""
    ds = _count_series(1)
    dims = _dims_for("gen_gompertz", ds)
    problem = _Problem("gen_gompertz", dims, ds, 1, 2.0)
    p0 = np.array([40.0, 100.0])  # a = 40, b = 100: m(14) = e^491
    others = _starts(dims, 4, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = _Batch([problem]).residuals(problem.encode(p0)[None], 0)[0]
        (capped,) = _search_alone(problem, p0[None])
        mixed = _search_alone(problem, np.vstack([others[0], p0, others[1:]]))
        alone = [_search_alone(problem, p[None])[0] for p in others]
    assert np.all(r == r[0]) and math.isfinite(float(r @ r))
    assert capped.value == math.inf and not capped.converged
    assert mixed[1].value == math.inf and not mixed[1].converged
    beside = [mixed[0], *mixed[2:]]
    assert all(row.converged and math.isfinite(row.value) for row in beside)
    for a, b in zip(alone, beside):
        assert np.array_equal(a.z, b.z) and a.value == b.value and a.evals == b.evals


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_lockstep_rows_are_bit_identical_alone_and_in_the_batch(seed):
    ds = _count_series(seed)
    for family in growth.FAMILIES:
        dims = _dims_for(family, ds)
        problem = _Problem(family, dims, ds, 1, 2.0)
        starts = _starts(dims, 6, seed)
        batch = _search_alone(problem, starts)
        for p0, row in zip(starts, batch):
            (alone,) = _search_alone(problem, p0[None])
            assert np.array_equal(alone.z, row.z), family
            assert alone.value == row.value and alone.evals == row.evals, family


@pytest.mark.parametrize("family", list(growth.FAMILIES))
def test_residual_fill_equals_the_constructor_on_box_edges(family):
    """Every corner of the fit's box on a flat series (where c = j), which
    takes in eps = +-0.99 and beta4 = -1e-12: the residual rows are filled
    exactly where the constructor rejects the parameters or the curve
    overflows the cap."""
    flat = Dataset(name="flat", times=tuple(range(7)), counts=(2.0,) * 7)
    dims = _dims_for(family, flat)
    problem = _Problem(family, dims, flat, 2, 2.0)
    batch = _Batch([problem])
    corners = np.array(list(itertools.product(*zip(problem.lo, problem.hi))))
    rows = np.concatenate([corners, [0.5 * (problem.lo + problem.hi)]])

    def fits(z):
        try:
            curve = _build_curve(family, tuple(batch.decode(z, 0).tolist()), 2, 2.0)
        except DomainError:
            return False
        with np.errstate(over="ignore"):
            return bool(np.all(np.abs(2.0 - curve.mean_array(np.arange(7.0))) < 1e50))

    filled = np.all(batch.residuals(rows, 0) == 1e50, axis=1)
    assert (~filled).tolist() == [fits(z) for z in rows]
    if dims[0].name in ("c", "n"):  # the all-lower corner has c = j
        assert filled[0]
    with pytest.raises(DomainError, match="rho"):
        _Problem(family, dims, flat, 2, 1.0)


def _spy_on_points(monkeypatch):
    """Record every point the batches evaluate with its own row's box:
    (lower bounds, points, upper bounds)."""
    seen = []
    residuals = _Batch.residuals

    def spy(batch, z, which):
        seen.append((batch.lo[which], z, batch.hi[which]))
        return residuals(batch, z, which)

    monkeypatch.setattr(_Batch, "residuals", spy)
    return seen


def _inside(seen):
    return all(np.all((lo < z) & (z < hi)) for lo, z, hi in seen)


@pytest.mark.parametrize("seed, family", [(1, "logistic"), (6, "korf"),
                                          (6, "multisig_logistic")])
def test_lockstep_evaluates_only_points_strictly_inside_the_box(seed, family, monkeypatch):
    """Also where the optimum is on a bound (c of series 1), where a long step
    heads for a flat corner (Korf) and where a start is on a bound (the
    nested multisigmoidal start has beta4 = -1e-12)."""
    ds = _count_series(seed)
    dims = _dims_for(family, ds)
    logistic = fit_one("logistic", ds, "mse", 400, restarts=4, seed=seed)
    problem = _Problem(family, dims, ds, 1, 2.0)
    seen = _spy_on_points(monkeypatch)
    nested = logistic if family == "multisig_logistic" else None
    _search_alone(problem, _starts(dims, 4, seed, nested))
    assert seen and _inside(seen)
    for lo, _, hi in seen:
        assert np.all(lo == problem.lo) and np.all(hi == problem.hi)


def test_a_mixed_batch_evaluates_every_point_inside_its_own_rows_box(monkeypatch):
    """Every two-parameter family of series 6 and the logistic of series 2
    (another capacity box) in one batch, as a model selection runs them."""
    series6, series2 = _count_series(6), _count_series(2)
    problems = [_Problem(family, _dims_for(family, series6), series6, 1, 2.0)
                for family, cls in growth.FAMILIES.items() if len(cls.param_names) == 2]
    problems.append(_Problem("logistic", _dims_for("logistic", series2), series2, 1, 2.0))
    seen = _spy_on_points(monkeypatch)
    fit_module._search(_Batch(problems), [_starts(p.dims, 4, 6) for p in problems], "mse", 400)
    assert len(seen) > 1 and _inside(seen)
    boxes = {(tuple(p.lo), tuple(p.hi)) for p in problems}
    assert len(boxes) == 5  # rates, two capacities, eps, Mitscherlich's amplitude
    assert {(tuple(a), tuple(b)) for lo, _, hi in seen for a, b in zip(lo, hi)} == boxes


def test_lockstep_rows_of_problems_with_different_boxes_are_bit_identical_alone():
    """One _lockstep_lm batch of logistic rows on two series (two capacity
    boxes) and Gompertz rows (a rate box), bounds given per row; each row
    alone is given its problem's (d,) bounds."""
    problems = [_Problem(family, _dims_for(family, ds), ds, 1, 2.0)
                for family, ds in (("logistic", _count_series(1)), ("logistic", _count_series(2)),
                                   ("gompertz", _count_series(2)))]
    assert not np.array_equal(problems[0].hi, problems[1].hi)
    z0 = np.concatenate([p.encode(_starts(p.dims, 3, 2)) for p in problems])
    owner = np.repeat([0, 1, 2], 3)
    batch = _Batch(problems)
    res = fit_module._lockstep_lm(lambda z, rows: batch.residuals(z, owner[rows]), z0,
                                  batch.lo[owner], batch.hi[owner], 400)
    for i, k in enumerate(owner):
        p, single = problems[k], _Batch([problems[k]])
        alone = fit_module._lockstep_lm(lambda z, rows: single.residuals(z, 0), z0[i:i + 1],
                                        p.lo, p.hi, 400)
        assert np.array_equal(alone.x[0], res.x[i]) and np.array_equal(alone.fun[0], res.fun[i])
        assert alone.nfev[0] == res.nfev[i] and alone.exhausted[0] == res.exhausted[i]


def test_rejected_trials_follow_nielsens_damping_schedule():
    """Independent route: Nielsen's (1999) schedule.  On atan(z) from z = 100
    in [-1e4, 1e4] the first two trials overshoot.  Each rejection multiplies
    mu by nu, from mu = 10 and nu = 2, then doubles nu; with one parameter the
    step is the undamped one over 1 + mu, so the first three trials step at
    mu = 10, 20 and 80."""
    trials = []

    def residuals(points, rows):
        trials.append(points[0, 0])
        return np.arctan(points)

    fit_module._lockstep_lm(residuals, [[100.0]], -1e4, 1e4, 100)
    start, *first = np.abs(np.arctan(trials[:4]))
    assert first[0] > start and first[1] > start > first[2]
    steps = (np.array(trials[1:4]) - trials[0]) * [1.0 + 10.0, 1.0 + 20.0, 1.0 + 80.0]
    np.testing.assert_allclose(steps, steps[0], rtol=1e-12)


def _spy_on_rounds(monkeypatch):
    """Record each _lockstep_lm run: its result, and per ``residuals`` call
    the rows, the points and the cost r.r of each point."""
    runs = []
    inner = fit_module._lockstep_lm

    def spy(residuals, x0, *args, **kwargs):
        calls = []

        def seen(points, rows):
            out = residuals(points, rows)
            calls.append((rows, points, np.add.reduce(out * out, axis=1)))
            return out

        runs.append((inner(seen, x0, *args, **kwargs), calls))
        return runs[-1][0]

    monkeypatch.setattr(fit_module, "_lockstep_lm", spy)
    return runs


def test_a_lockstep_row_spends_one_round_per_trial_plus_its_start(monkeypatch):
    """Each round evaluates the row's trial point first, its start in the
    first round, and with it the d Jacobian columns at that point or none:
    no round is spent on a Jacobian alone."""
    ds = _count_series(1)
    dims = _dims_for("gompertz", ds)
    problem = _Problem("gompertz", dims, ds, 1, 2.0)
    runs = _spy_on_rounds(monkeypatch)
    _search_alone(problem, _starts(dims, 1, 1))
    ((res, calls),) = runs
    d = len(dims)
    assert res.rounds == len(calls) > 10
    assert np.array_equal(calls[0][1][0], res.x0[0])
    for _, points, _ in calls:
        trial, columns = points[0], points[1:]
        assert len(columns) in (0, d)
        assert np.array_equal(columns != trial, np.eye(len(columns), d, dtype=bool))
    assert (res.nfev[0] - res.rounds) % d == 0


def test_a_selection_spends_a_third_fewer_rounds(monkeypatch):
    """Series 1, all families: the two batches took 90 + 139 ``residuals``
    calls when every Jacobian had a round of its own."""
    runs = _spy_on_rounds(monkeypatch)
    select_model(_count_series(1), "all", "mse", 400, restarts=4, seed=1)
    assert sum(res.rounds for res, _ in runs) <= (90 + 139) * 2 / 3


@pytest.mark.parametrize("kind, budget", [("mse", 400), ("mse", 4), ("mse", 7), ("rae", 400)])
def test_every_uncounted_point_is_a_column_at_a_rejected_or_last_trial(kind, budget,
                                                                       monkeypatch):
    """Per row, from the costs the evaluator returned (a trial is accepted
    when it lowers the cost of the row's point): the points nfev leaves out
    are the d columns at each rejected trial that had them, and at most d
    more at the row's last trial, which may end it on ftol."""
    runs = _spy_on_rounds(monkeypatch)
    report = select_model(_count_series(1), "all", kind, budget, restarts=4, seed=1)
    for res, calls in runs:
        d = res.x.shape[1]
        for i, nfev in enumerate(res.nfev.tolist()):
            mine = [cost[rows == i] for rows, _, cost in calls if (rows == i).any()]
            assert {len(c) for c in mine} <= {1, d + 1}
            point, dropped, last = mine[0][0], 0, 0
            for c in mine[1:]:
                accepted = c[0] < point
                point = min(point, c[0])
                dropped += d * (len(c) > 1 and not accepted)
                last = d * (len(c) > 1 and accepted)
            assert dropped <= sum(map(len, mine)) - nfev <= dropped + last
    for fit in report.results:
        assert 0 < fit.n_evals <= fit.restarts * budget


def _trf_best(family, ds, starts, budget):
    """Independent route: scipy's trust-region reflective least squares from
    each start (a row of parameter values), its own 2-point Jacobian, on the
    residuals of the constructed curves (positive parameters in log scale);
    budget // (d + 1) iterations.  Returns the best MSE."""
    dims = _dims_for(family, ds)
    log = [d.log for d in dims]
    lo = np.array([math.log(d.lo) if lg else d.lo for d, lg in zip(dims, log)])
    hi = np.array([math.log(d.hi) if lg else d.hi for d, lg in zip(dims, log)])
    y = np.asarray(ds.counts)

    def residual(z):
        params = tuple(min(max(math.exp(v) if lg else v, d.lo), d.hi)
                       for v, lg, d in zip(z, log, dims))
        try:
            r = y - _build_curve(family, params, 1, 2.0).mean_array(np.asarray(ds.times))
        except DomainError:
            return np.full(y.size, 1e50)
        return r if np.all(np.abs(r) < 1e50) else np.full(y.size, 1e50)

    best = math.inf
    for s in starts:
        x0 = np.array([math.log(v) if lg else v for v, lg in zip(s, log)])
        res = least_squares(residual, np.clip(x0, lo, hi), method="trf", bounds=(lo, hi),
                            x_scale="jac", max_nfev=budget // (len(dims) + 1),
                            ftol=1e-12, xtol=1e-10, gtol=1e-12)
        if np.all(np.abs(res.fun) < 1e50):
            best = min(best, float(np.mean(res.fun * res.fun)))
    return best


@pytest.mark.parametrize("seed", [1, 2, 3, 6, 11])
def test_lockstep_fits_are_no_worse_than_trust_region_reflective(seed):
    """Series 6 and 11 have Korf starts whose first long step heads for the
    flat corner alpha = 1e-3, beta = 100 of the box, where the Jacobian
    vanishes: a step must stop short of the bounds."""
    ds = _count_series(seed)
    report = select_model(ds, "all", "mse", 400, restarts=4, seed=seed)
    fits = {fit.family: fit for fit in report.results}
    for family, fit in fits.items():
        nested = fits["logistic"] if family == "multisig_logistic" else None
        trf = _trf_best(family, ds, _starts(_dims_for(family, ds), 4, seed, nested), 400)
        assert fit.value <= trf * (1.0 + 1e-9), (family, fit.value, trf)


def test_select_model_all_covers_the_registry():
    truth = growth.Logistic(c=10.0, r=1.2, j=1, rho=2.0)
    ds = _sampled(truth, np.linspace(0.0, 8.0, 30))
    report = select_model(ds, "all", "rae", budget=200, restarts=2, seed=0)
    assert [r.family for r in report.results] == list(growth.FAMILIES)
    assert report.winner is not None
    # the first family attaining the minimum objective wins
    assert min(report.results, key=lambda r: r.value).family == report.winner


@pytest.mark.parametrize("kind", ["mse", "rae"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_select_model_equals_each_familys_fit_one(seed, kind):
    ds = _count_series(seed)
    report = select_model(ds, "all", kind, 400, restarts=4, seed=seed)
    alone = tuple(fit_one(family, ds, kind, 400, restarts=4, seed=seed)
                  for family in growth.FAMILIES)
    assert report.results == alone


def test_select_model_runs_one_batch_per_number_of_parameters(monkeypatch):
    """With the multisigmoidal family listed first, logistic is still fitted
    once: one batch of the two-parameter families, then the nested one."""
    ds = _count_series(2)
    calls = []
    inner = fit_module.minimize

    def spy(fun, x0, method, **kwargs):
        calls.append((method, len(x0)))
        return inner(fun, x0, method, **kwargs)

    monkeypatch.setattr(fit_module, "minimize", spy)
    first = select_model(ds, ["multisig_logistic", "logistic", "korf"], "mse", 400,
                         restarts=4, seed=2)
    assert calls == [("lm", 8), ("lm", 5)]
    second = select_model(ds, ["logistic", "multisig_logistic", "korf"], "mse", 400,
                          restarts=4, seed=2)
    assert first.results == tuple(second.results[i] for i in (1, 0, 2))
    assert [r.family for r in first.results] == ["multisig_logistic", "logistic", "korf"]


# (series, kind, budget): the winner, then per family in registry order its
# n_evals, "+" when converged.  Budgets 3, 4, 6 and 7 are d + 1 and d + 2 for
# the two-parameter families and for the multisigmoidal one: the edges of
# room for a Jacobian and the trial after it.
_FIT_MAP = {
    (1, "mse", 400): ("multisig_logistic", "215+ 297+ 205+ 162+ 1582+ 331+ 207+ 238+"),
    (1, "rae", 400): ("multisig_logistic", "422+ 615+ 455+ 517+ 2000- 535+ 439+ 500+"),
    (2, "mse", 400): ("multisig_logistic", "210+ 291+ 200+ 165+ 1565+ 283+ 182+ 223+"),
    (2, "rae", 400): ("multisig_logistic", "528+ 549+ 372+ 498+ 2000- 583+ 421+ 428+"),
    (3, "mse", 400): ("multisig_logistic", "227+ 271+ 204+ 171+ 1695+ 189+ 200+ 216+"),
    (3, "rae", 400): ("multisig_logistic", "439+ 492+ 665+ 516+ 1566+ 432+ 444+ 473+"),
    (6, "mse", 400): ("multisig_logistic", "193+ 467+ 188+ 165+ 1461+ 284+ 282+ 226+"),
    (6, "rae", 400): ("multisig_logistic", "397+ 601+ 459+ 528+ 2000- 511+ 521+ 415+"),
    (1, "mse", 3): ("mitscherlich", "4- 4- 4- 4- 5- 4- 4- 4-"),
    (1, "mse", 4): ("mitscherlich", "16- 16- 16- 16- 5- 16- 15- 16-"),
    (1, "mse", 6): ("mitscherlich", "16- 16- 16- 16- 5- 16- 15- 16-"),
    (1, "mse", 7): ("mitscherlich", "28- 28- 28- 28- 35- 28- 24- 28-"),
}


@pytest.mark.parametrize("series, kind, budget", list(_FIT_MAP))
def test_fit_map_is_pinned(series, kind, budget):
    """Fixed settings give fixed fits.  Only integers and bools are pinned, so
    the check holds on any CPU; a change to the search that moves them
    updates these values and says so in CHANGES.md."""
    report = select_model(_count_series(series), "all", kind, budget, restarts=4, seed=series)
    fits = " ".join(f"{fit.n_evals}{'+' if fit.converged else '-'}" for fit in report.results)
    assert (report.winner, fits) == _FIT_MAP[series, kind, budget]


def test_estimate_j_fit_is_pinned():
    fit = fit_one("logistic", _count_series(2), "mse", 400, restarts=4, seed=2, estimate_j=True)
    assert (fit.j, fit.n_evals, fit.restarts, fit.converged) == (1, 577, 12, True)


def test_every_family_gets_one_box_dim_per_parameter():
    ds = _count_series(1)
    y_max = max(ds.counts)
    rate, amp = (1e-3, 1e2, True), (y_max, 100.0 * y_max, True)
    boxes = {
        "gompertz": [rate, rate], "gen_gompertz": [rate, rate], "logistic": [amp, rate],
        "ext_logistic": [amp, (-0.99, 0.99, False)],
        "multisig_logistic": [amp, *[(-10.0, 10.0, False)] * 3, (-10.0, -1e-12, False)],
        "mod_korf": [rate, rate], "korf": [rate, rate], "mitscherlich": [rate, amp],
    }
    assert set(boxes) == set(growth.FAMILIES)
    for family, cls in growth.FAMILIES.items():
        dims = _dims_for(family, ds)
        assert [d.name for d in dims] == list(cls.param_names)
        assert all(d.lo < d.hi for d in dims)
        assert [(d.lo, d.hi, d.log) for d in dims] == boxes[family], family


def test_select_model_requires_a_family():
    ds = Dataset(name="two", times=(0.0, 1.0, 2.0), counts=(1.0, 2.0, 3.0))
    with pytest.raises(DomainError):
        select_model(ds, [], "mse")


@pytest.mark.parametrize("families", ["logistic", "ALL"])
def test_select_model_rejects_a_string_other_than_all(families):
    """A bare name is not split into letters: the error names the argument."""
    with pytest.raises(DomainError, match=f"families .*{families!r}"):
        select_model(_count_series(1), families, "mse")


@pytest.mark.parametrize("estimate_j", [False, True])
@pytest.mark.parametrize("family, points, rho, error", [
    ("multisig_logistic", 4, 2.0, DataError),
    ("logistic", 40, 1.0, DomainError),
    ("multisig_logistic", 40, 1.0, DomainError),  # and so would its nested logistic fit
])
def test_fit_one_raises_the_error_select_model_records(family, points, rho, error, estimate_j,
                                                       monkeypatch):
    """Before any search: the logistic fit the failed family would nest at
    is not run either."""
    monkeypatch.setattr(fit_module, "minimize", None)
    ds = _count_series(1)
    ds = Dataset(name="short", times=ds.times[:points], counts=ds.counts[:points])
    settings = {"restarts": 2, "seed": 0, "rho": rho, "estimate_j": estimate_j}
    with pytest.raises(error) as raised:
        fit_one(family, ds, "mse", 200, **settings)
    (failed,) = select_model(ds, [family], "mse", 200, **settings).results
    assert failed.message == str(raised.value)
    assert failed.value == math.inf and failed.n_evals == 0 and not failed.converged


# ===== inactive-mean reconstruction ===========================================


def _manual_fit(curve, j):
    return FitResult(
        family=curve.family, params=(), kind="mse", value=0.0, converged=True,
        n_evals=0, restarts=0, j=j, rho=curve.rho, curve=curve,
    )


def test_reconstruct_from_spreader_curve_rescales_the_gap():
    curve = growth.Gompertz(alpha=3.0, beta=2.0, j=1, rho=2.0)
    fit = _manual_fit(curve, j=1)
    grid = [0.0, 1.0, 40.0]
    rec = reconstruct_y(fit, [2.0, 1.5], grid)
    assert rec.m_y.shape == (2, 3)
    assert rec.m_y[0, 0] == 0.0  # nobody has forgotten at t = 0
    # rho = 2: m_Y = m_hat - j; far field approaches j e^alpha - j
    assert rec.m_y[0, 2] == pytest.approx(math.e**3 - 1.0, rel=1e-10)
    # rho = 1.5 doubles the gap scaling
    assert rec.m_y[1, 1] == pytest.approx((curve.mean(1.0) - 1.0) / 0.5, rel=1e-12)
    assert not rec.overflow.any()


def test_reconstruct_from_inactive_curve_returns_the_fit_for_every_rho():
    curve = growth.Mitscherlich(alpha=1.0, beta=5.0, j=2, rho=1.5)
    fit = _manual_fit(curve, j=2)
    grid = np.linspace(0.0, 10.0, 11)
    rec = reconstruct_y(fit, [0.5, 1.0, 2.0], grid)
    expected = curve.mean_array(grid)
    for row in rec.m_y:
        np.testing.assert_allclose(row, expected, rtol=1e-15)


def test_reconstruct_rejects_rho_one_for_spreader_curves():
    """A spreader mean rises from j, so (m_hat - j)/(rho - 1) is constant at
    rho = 1 and negative below it."""
    curve = growth.Gompertz(alpha=3.0, beta=2.0, j=1, rho=2.0)
    for rho in (1.0, 0.5):
        with pytest.raises(DomainError, match=f"rho > 1, got {rho}"):
            reconstruct_y(_manual_fit(curve, j=1), [2.0, rho], [0.0, 1.0])


def test_reconstruct_flags_overflow_points_as_nan():
    curve = growth.Gompertz(alpha=800.0, beta=1.0, j=1, rho=2.0)
    rec = reconstruct_y(_manual_fit(curve, j=1), [2.0], [0.0, 0.1, 30.0])
    assert not rec.overflow[0, 0]
    assert rec.overflow[0, 2]
    assert math.isnan(rec.m_y[0, 2])


def test_reconstruct_argument_validation():
    curve = growth.Gompertz(alpha=3.0, beta=2.0, j=1, rho=2.0)
    fit = _manual_fit(curve, j=1)
    with pytest.raises(DomainError):
        reconstruct_y(fit, [], [0.0, 1.0])
    with pytest.raises(DomainError):
        reconstruct_y(fit, [2.0], [])
    with pytest.raises(DomainError):
        reconstruct_y(fit, [2.0], [-1.0, 0.0])
    with pytest.raises(DomainError):
        reconstruct_y(fit, [0.0], [0.0, 1.0])
    # the induced rate of this curve turns negative at t ~ 2.924
    multisig = growth.MultisigLogistic(50.0, 1.0, 0.0, 0.0, -0.01, j=1, rho=2.0)
    with pytest.raises(DomainError, match="validity window"):
        reconstruct_y(_manual_fit(multisig, j=1), [1.5], [3.0, 3.5, 4.0, 4.5])
    failed = FitResult(
        family="gompertz", params=(), kind="mse", value=math.inf, converged=False,
        n_evals=0, restarts=0, j=1, rho=2.0, curve=None,
    )
    with pytest.raises(DomainError, match="failed"):
        reconstruct_y(failed, [2.0], [0.0, 1.0])
