"""The three rate-regime workloads: CLI job lists and their seeded inputs.

Every job is one ``rumorbd`` subcommand run in-process through
``rumorbd.cli.main(argv)``, writing its CSV with ``--out``.  A workload is
an ordered job list; one repetition runs the whole list once.

What ``--seed`` drives:

* ``constant``: the ensemble's stream seed.  Replicates carry about 5
  events each, so the work per repetition barely depends on the stream.
* ``growth``: the noise of the fitted count series and the Latin-hypercube
  seed of the fits.  The fits stop on their evaluation budget, so the work
  barely depends on the noise.
* The ensembles of ``seasonal`` and ``growth`` use a pinned stream seed
  (0).  Their replicates grow heavy-tailed trees (about 930 and 350
  events on average, coefficient of variation near 2), so at the replicate
  counts a run can afford the event total of one stream seed differs from
  another's by 15-25%; letting ``--seed`` pick it would put that much
  spread into the ``simulate`` time between seeds.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

NAMES = ("constant", "seasonal", "growth")

SEASONAL_RATES = {
    "kind": "proportional",
    "rho": 1.5,
    "base": {"kind": "cosine", "mu": 1.0, "alpha": 0.5, "period": 2.5},
}

# generating curve of the growth workload's count series and induced rates
CURVE = {"family": "logistic", "c": 100.0, "r": 0.9, "j": 1, "rho": 2.0}
GROWTH_RATES = {"kind": "proportional", "rho": 2.0, "base": {"kind": "curve", "curve": CURVE}}
SERIES_DAYS = 14.0
SERIES_POINTS = 40
SERIES_NOISE = 0.05  # multiplicative log-normal sigma

FIT_RESTARTS = "4"
FIT_BUDGET = "400"
PINNED_STREAM = "0"


@dataclass(frozen=True)
class Job:
    """One CLI call: ``rumorbd <cmd> <args> --out <dir>/<out>``."""

    cmd: str
    args: tuple[str, ...]
    out: str
    check: dict  # what the output check needs to know

    def argv(self, out_dir: Path) -> list[str]:
        return [self.cmd, *self.args, "--out", str(out_dir / self.out)]


def series(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Sigmoidal count series: the logistic curve with multiplicative noise.

    Counts are rounded, start at the curve's j (the first post) and are made
    monotone by a running maximum.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))
    t = np.linspace(0.0, SERIES_DAYS, SERIES_POINTS)
    c, r, j = CURVE["c"], CURVE["r"], CURVE["j"]
    m = c * j / (j + (c - j) * np.exp(-r * t))
    y = np.round(m * np.exp(SERIES_NOISE * rng.standard_normal(t.size)))
    y[0] = j
    return t, np.maximum.accumulate(np.maximum(y, j))


def _write_series(path: Path, seed: int) -> None:
    t, y = series(seed)
    lines = ["t,count"] + [f"{a!r},{b!r}" for a, b in zip(t.tolist(), y.tolist())]
    path.write_text("\n".join(lines) + "\n")


def _grid_points(spec: str) -> list[float]:
    a, b, n = spec.split(":")
    a, b, n = float(a), float(b), int(n)
    return [a + i * (b - a) / n for i in range(n)]


def _simulate(rates: str, j: int, horizon: float, grid: str, replicates: int,
              seed: str, model: dict) -> Job:
    last = _grid_points(grid)[-1]
    if last != horizon:  # process.events reads the final row, so it must sit at the horizon
        raise ValueError(f"grid {grid} ends at {last}, not at the horizon {horizon}")
    return Job(
        "simulate",
        ("--rates", rates, "--j", str(j), "--horizon", repr(horizon), "--grid", grid,
         "--replicates", str(replicates), "--seed", seed),
        "simulate.csv",
        {"model": model, "j": j, "replicates": replicates},
    )


def build(workload: str, seed: int, run_dir: Path) -> list[Job]:
    """The workload's job list; writes any input file it needs into ``run_dir``."""
    if workload == "constant":
        const = {"kind": "constant", "lam": 2.0, "mu": 1.0}
        return [
            _simulate("constant:2,1", 1, 1.0, "0:1.05:21", 3000, str(seed), const),
            Job("moments", ("--rates", "constant:2,1", "--j", "3", "--grid", "0:20:10000"),
                "moments.csv", {"model": const, "j": 3}),
            Job("absorb", ("--rates", "constant:2,1", "--j", "3", "--grid", "0:20:10000"),
                "absorb.csv", {"model": const, "j": 3}),
            Job("oracle", ("--rates", "constant:1,2", "--j", "2", "--t", "1",
                           "--n-max", "100", "--k-max", "100"),
                "oracle.csv", {"model": {"kind": "constant", "lam": 1.0, "mu": 2.0},
                               "j": 2, "t": 1.0}),
        ]
    if workload == "seasonal":
        spec = json.dumps(SEASONAL_RATES)
        return [
            _simulate(spec, 1, 10.0, "0:10.5:21", 150, PINNED_STREAM, SEASONAL_RATES),
            Job("moments", ("--method", "ode", "--rates", spec, "--j", "1",
                            "--grid", "0:20:1000"),
                "moments.csv", {"model": SEASONAL_RATES, "j": 1, "ode": True}),
            Job("oracle", ("--rates", spec, "--j", "1", "--t", "2",
                           "--n-max", "60", "--k-max", "60"),
                "oracle.csv", {"model": SEASONAL_RATES, "j": 1, "t": 2.0}),
        ]
    if workload == "growth":
        data = run_dir / "series.csv"
        _write_series(data, seed)
        spec = json.dumps(GROWTH_RATES)
        fit_opts = ("--restarts", FIT_RESTARTS, "--budget", FIT_BUDGET,
                    "--seed", str(seed), "--rho", repr(CURVE["rho"]))
        return [
            Job("fit", ("--data", str(data), "--families", "all", *fit_opts), "fit",
                {"generator": CURVE["family"]}),
            Job("reconstruct-y", ("--data", str(data), "--family", CURVE["family"],
                                  "--rho-values", "1.5,2,3", "--grid", "0:14:200", *fit_opts),
                "reconstruct.csv", {"family": CURVE["family"], "fit_out": "fit.json"}),
            _simulate(spec, 1, SERIES_DAYS, "0:14.7:21", 250, PINNED_STREAM, GROWTH_RATES),
            Job("moments", ("--rates", spec, "--j", "1", "--grid", "0:14:5000"),
                "moments.csv", {"model": GROWTH_RATES, "j": 1}),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def big_m(model: dict, t: float) -> tuple[float, float]:
    """(rho, M(t)) of a workload's rates, transcribed independently of rumorbd."""
    if model["kind"] == "constant":
        return model["lam"] / model["mu"], model["mu"] * t
    rho, base = model["rho"], model["base"]
    if base["kind"] == "cosine":
        w = 2.0 * math.pi / base["period"]
        return rho, base["mu"] * t + base["alpha"] / w * math.sin(w * t)
    curve = base["curve"]
    return rho, math.log(curve_mean(curve, t) / curve["j"]) / (rho - 1.0)


def curve_mean(curve: dict, t: float) -> float:
    """The logistic curve c j / (j + (c - j) e^{-r t})."""
    c, r, j = curve["c"], curve["r"], curve["j"]
    return c * j / (j + (c - j) * math.exp(-r * t))
