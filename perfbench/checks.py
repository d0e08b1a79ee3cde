"""Output checks: every job's CSV against a route independent of the one the
CLI took.  Each check returns a list of error strings (empty when the output
is right).  Checks run after the timed repetitions, on fresh rate objects.

* ``simulate``: ensemble means within z <= 5 of the closed-form
  ``moment_report`` (z uses the closed-form variance); no replicate capped.
* ``moments``: the ODE route against the closed route at the tier-1
  tolerances (rel 1e-8, corr rel 1e-7); the closed route against the
  elementary displays m_X = j e^x, m_Y = j (e^x - 1)/(rho - 1),
  Var X = j (rho + 1) e^x (e^x - 1)/(rho - 1), with e^x taken from the
  constant rates or from the generating curve itself.
* ``absorb``: ``homogeneous.absorption_prob`` at (lam, mu, t) = (rho, 1, M(t)),
  the time change, with M(t) transcribed here.
* ``oracle``: table mass plus leaked mass equals 1 to 1e-12, and the absorbed
  mass sum_k p(0, k) matches ``proportional.absorption_prop`` to 1e-9.
* ``fit``: the winner's objective is no worse than the generating family's.
* ``reconstruct-y``: m_Y = (m_hat - j)/(rho - 1) with m_hat the logistic fit
  that the ``fit`` job reported (same data, seed, budget and restarts).
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import workloads

Z_MAX = 5.0


def read_csv(path: Path) -> tuple[list[str], list[list[float]]]:
    with path.open(newline="") as f:
        lines = [row for row in csv.reader(f) if row and not row[0].startswith("#")]
    return lines[0], [[float(v) for v in row] for row in lines[1:]]


def data_rows(path: Path) -> int:
    with path.open() as f:
        return sum(1 for line in f if line.strip() and not line.startswith("#")) - 1


def _close(a: float, b: float, rel: float, abs_: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), abs_)


def _rates(model: dict):
    from rumorbd.rates import rates_from_config

    return rates_from_config(model)


def events(path: Path, job) -> int:
    """Total jumps over all replicates: R (x_bar - j + 2 y_bar) on the final row.

    Each spread adds one to X and each forget moves one from X to Y, so a
    replicate at (n, k) has made n - j + 2k jumps.  The final grid row sits
    at the horizon, so it sees every jump.
    """
    header, rows = read_csv(path)
    last = dict(zip(header, rows[-1]))
    r, j = job.check["replicates"], job.check["j"]
    return round(r * (last["mean_x"] - j + 2.0 * last["mean_y"]))


def check_simulate(job, out_dir: Path, _captured) -> list[str]:
    from rumorbd.moments import moment_report

    rates = _rates(job.check["model"])
    j, r = job.check["j"], job.check["replicates"]
    header, rows = read_csv(out_dir / job.out)
    errors = []
    for row in rows:
        got = dict(zip(header, row))
        t = got["t"]
        rep = moment_report(rates, j, t)
        if got["cap_frac"] != 0.0:
            errors.append(f"t={t}: {got['cap_frac']} of replicates hit the cap")
        for col, mean, var in (("mean_x", rep.m_x, rep.var_x), ("mean_y", rep.m_y, rep.var_y)):
            if var == 0.0:
                if got[col] != mean:
                    errors.append(f"t={t}: {col}={got[col]} but the law is a point mass at {mean}")
                continue
            z = abs(got[col] - mean) / math.sqrt(var / r)
            if z > Z_MAX:
                errors.append(f"t={t}: {col}={got[col]} is z={z:.2f} from {mean}")
    return errors


def check_moments(job, out_dir: Path, _captured) -> list[str]:
    from rumorbd.moments import moment_report

    model, j = job.check["model"], job.check["j"]
    header, rows = read_csv(out_dir / job.out)
    errors = []
    if job.check.get("ode"):
        rates = _rates(model)
        for row in rows:
            got = dict(zip(header, row))
            rep = moment_report(rates, j, got["t"], method="closed")
            for col in header[1:]:
                rel = 1e-7 if col == "corr" else 1e-8
                if not _close(got[col], getattr(rep, col), rel, 1e-10):
                    errors.append(f"t={got['t']}: ODE {col}={got[col]} vs closed {getattr(rep, col)}")
        return errors
    for row in rows:
        got = dict(zip(header, row))
        t = got["t"]
        rho, m = workloads.big_m(model, t)
        if model["kind"] == "constant":
            ex = math.exp((rho - 1.0) * m)
        else:
            ex = workloads.curve_mean(model["base"]["curve"], t) / j
        want = {
            "m_x": j * ex,
            "m_y": j * (ex - 1.0) / (rho - 1.0),
            "var_x": j * (rho + 1.0) * ex * (ex - 1.0) / (rho - 1.0),
        }
        for col, value in want.items():
            if not _close(got[col], value, 1e-9, 1e-12):
                errors.append(f"t={t}: {col}={got[col]} vs {value}")
    return errors


def check_absorb(job, out_dir: Path, _captured) -> list[str]:
    from rumorbd.homogeneous import absorption_prob

    model, j = job.check["model"], job.check["j"]
    _, rows = read_csv(out_dir / job.out)
    errors = []
    for t, p in rows:
        rho, m = workloads.big_m(model, t)
        want = absorption_prob(rho, 1.0, j, m)
        if not _close(p, want, 1e-9, 1e-12):
            errors.append(f"t={t}: absorption {p} vs {want}")
    return errors


def check_oracle(job, out_dir: Path, captured) -> list[str]:
    from rumorbd.proportional import absorption_prop

    model, j, t = job.check["model"], job.check["j"], job.check["t"]
    _, rows = read_csv(out_dir / job.out)
    grid = captured["oracle"]
    mass = math.fsum(p for _, _, p in rows)
    absorbed = math.fsum(p for n, _, p in rows if n == 0)
    rho, m = workloads.big_m(model, t)
    want = absorption_prop(rho, m, j)
    errors = []
    if len(rows) != grid.p.size:
        errors.append(f"table has {len(rows)} cells, the solver returned {grid.p.size}")
    if abs(mass + grid.leaked_mass - 1.0) > 1e-12:
        errors.append(f"mass {mass!r} + leaked {grid.leaked_mass!r} != 1")
    if abs(absorbed - want) > 1e-9:
        errors.append(f"absorbed mass {absorbed!r} vs absorption_prop {want!r}")
    return errors


def check_fit(job, out_dir: Path, _captured) -> list[str]:
    report = json.loads((out_dir / f"{job.out}.json").read_text())
    values = {r["family"]: r["value"] for r in report["results"]}
    gen = values.get(job.check["generator"])
    winner = report["winner"]
    if winner is None or gen is None:
        return [f"winner {winner!r}, generating family's objective {gen!r}"]
    if values[winner] > gen:
        return [f"winner {winner} objective {values[winner]} > generator's {gen}"]
    return []


def check_reconstruct(job, out_dir: Path, _captured) -> list[str]:
    report = json.loads((out_dir / job.check["fit_out"]).read_text())
    fr = next(r for r in report["results"] if r["family"] == job.check["family"])
    curve = {**fr["params"], "j": fr["j"]}
    _, rows = read_csv(out_dir / job.out)
    errors = []
    for t, rho, m_y in rows:
        want = (workloads.curve_mean(curve, t) - fr["j"]) / (rho - 1.0)
        if not _close(m_y, want, 1e-9, 1e-9):
            errors.append(f"t={t}, rho={rho}: m_y={m_y} vs {want}")
    return errors


CHECKS = {
    "simulate": check_simulate,
    "moments": check_moments,
    "absorb": check_absorb,
    "oracle": check_oracle,
    "fit": check_fit,
    "reconstruct-y": check_reconstruct,
}


def output_files(job, out_dir: Path) -> list[Path]:
    if job.cmd == "fit":
        return [out_dir / f"{job.out}.csv", out_dir / f"{job.out}.json"]
    return [out_dir / job.out]
