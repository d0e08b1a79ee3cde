"""Command-line front end: simulate, analyze, fit, and emit plot-ready CSV.

Subcommands: simulate | moments | absorb | oracle | fit | reconstruct-y.
Every output is a CSV whose first line is a versioned schema comment
(`# schema: rumorbd.<name>.v1`), so downstream plotting scripts can pin the
column layout.  A float cell is exactly ``format(v, ".12g")``; subcommands
hand the writer columns, which :mod:`rumorbd._csvtext` encodes in numpy.
Options may come from flags or a JSON --config file; flags win over the
file, the file wins over defaults.  Exit codes: 0 ok, 1 stdout closed by its
reader, 2 bad usage or parameter domain, 3 numeric failure, 4 malformed data
or an unwritable output path.  Each subcommand imports the engine modules
it runs, so a start loads no other.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .errors import DataError, DomainError, NumericsError, converted


# ===== CSV output ==============================================================


@contextlib.contextmanager
def _opened(path: str | None):
    """Stdout for no path or "-", else the file at ``path`` opened for
    writing; failing to open or write it is a :class:`DataError`."""
    if path is None or path == "-":
        yield sys.stdout
        return
    try:
        with open(path, "w", newline="") as f:
            yield f
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _write_csv(path: str | None, schema: str, header: list[str], rows=(), *,
               columns=None) -> None:
    """Write a table under its schema line and header line.

    The cells come as ``columns``, one sequence per header name (numpy
    arrays or lists), or as ``rows``.  A float cell is exactly
    ``format(v, ".12g")``, ``inf``, ``-inf``, ``nan`` and ``-0`` included;
    an int is written in full; a bool, a string or anything else is its
    ``str``.  :mod:`rumorbd._csvtext` encodes the cells, a block of rows at
    a time.
    """
    from ._csvtext import blocks

    if columns is None:
        columns = list(zip(*rows)) or [()] * len(header)
    with _opened(path) as f:
        f.write(f"# schema: rumorbd.{schema}.v1\n" + ",".join(header) + "\n")
        f.writelines(blocks(columns))


class _Conf:
    """Option lookup with precedence: flag > config file > default."""

    def __init__(self, ns: argparse.Namespace) -> None:
        self.ns = ns
        self.cfg: dict = {}
        cfg_path = getattr(ns, "config", None)
        if cfg_path:
            try:
                self.cfg = json.loads(Path(cfg_path).read_text())
            except OSError as exc:
                raise DataError(f"cannot read config file {cfg_path}: {exc}") from exc
            except json.JSONDecodeError as exc:
                raise DataError(f"config file {cfg_path} is not valid JSON: {exc}") from exc
            if not isinstance(self.cfg, dict):
                raise DataError(f"config file {cfg_path} must hold a JSON object")

    def get(self, key: str, default=None, required: bool = False, kind=None):
        """The option's value, converted by ``kind`` when one is given."""
        flag = f"--{key.replace('_', '-')}"
        v = getattr(self.ns, key, None)
        if v is None:
            v = self.cfg.get(key, default)
        if v is None and required:
            raise DataError(f"missing required option {flag}")
        return v if v is None or kind is None else converted(v, kind, f"option {flag}")


def _listed(value, flag: str) -> list:
    """A comma-separated string, or a JSON list from the config, as a list."""
    if isinstance(value, str):
        return [v.strip() for v in value.split(",") if v.strip()]
    if not isinstance(value, list):
        raise DataError(f"option {flag} must be a comma-separated list, got {value!r}")
    return value


def _parse_rates(value):
    """Inline rate spec: JSON object, or the shorthand 'constant:LAM,MU'."""
    from . import rates as rates_mod

    if isinstance(value, dict):
        return rates_mod.rates_from_config(value)
    text = str(value).strip()
    if text.startswith("constant:"):
        parts = text[len("constant:"):].split(",")
        if len(parts) != 2:
            raise DataError(f"shorthand must be constant:LAM,MU, got {value!r}")
        try:
            lam, mu = float(parts[0]), float(parts[1])
        except ValueError as exc:
            raise DataError(f"bad rate numbers in {value!r}") from exc
        return rates_mod.Constant(lam=lam, mu=mu)
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(
            f"rates must be 'constant:LAM,MU' or a JSON object, got {value!r}"
        ) from exc
    return rates_mod.rates_from_config(cfg)


def _parse_grid(value) -> list[float]:
    """Half-open grid 'a:b:n': n points a + i(b-a)/n, endpoint excluded."""
    text = str(value).strip()
    parts = text.split(":")
    if len(parts) != 3:
        raise DataError(f"grid must look like START:END:STEPS, got {value!r}")
    try:
        a, b = float(parts[0]), float(parts[1])
        n = int(parts[2])
    except ValueError as exc:
        raise DataError(f"bad grid numbers in {value!r}") from exc
    if n < 2:
        raise DataError(f"grid needs at least 2 steps, got {n}")
    if not (b > a >= 0.0 and math.isfinite(b)):
        raise DataError(f"grid needs finite END > START >= 0, got {value!r}")
    step = (b - a) / n
    return [a + i * step for i in range(n)]


# ===== Subcommands =============================================================


def _cmd_simulate(ns: argparse.Namespace) -> int:
    from . import process as process_mod

    conf = _Conf(ns)
    rates = _parse_rates(conf.get("rates", required=True))
    j = conf.get("j", required=True, kind=int)
    horizon = conf.get("horizon", required=True, kind=float)
    seed = conf.get("seed", 0, kind=int)
    cap = conf.get("cap", 10**6, kind=int)
    out = conf.get("out")
    if conf.get("trajectory", False, kind=bool):
        traj = process_mod.simulate(rates, j, horizon, seed, cap=cap)
        _write_csv(out, "trajectory", ["time", "event", "n", "k"], traj.events)
        return 0
    replicates = conf.get("replicates", 1000, kind=int)
    grid = _parse_grid(conf.get("grid", f"0:{horizon}:50"))
    stats = process_mod.ensemble(rates, j, horizon, grid, replicates, seed, cap=cap)
    header = [
        "t", "mean_x", "var_x", "mean_y", "var_y", "cov", "corr",
        "absorbed_frac", "se_x", "se_y", "cap_frac",
    ]
    columns = [stats.grid, *(getattr(stats, h) for h in header[1:])]
    _write_csv(out, "ensemble", header, columns=columns)
    return 0


def _cmd_moments(ns: argparse.Namespace) -> int:
    from . import moments as moments_mod

    conf = _Conf(ns)
    rates = _parse_rates(conf.get("rates", required=True))
    j = conf.get("j", required=True, kind=int)
    grid = _parse_grid(conf.get("grid", required=True))
    method = str(conf.get("method", "auto"))
    out = conf.get("out")
    header = [
        "t", "m_x", "var_x", "m_y", "var_y", "m2_y", "m_xy", "cov", "corr",
        "fano_x", "fano_y", "cv_x", "cv_y", "r_index",
    ]
    rep = moments_mod.moment_report(rates, j, grid, method=method)
    _write_csv(out, "moments", header, columns=[getattr(rep, h) for h in header])
    return 0


def _cmd_absorb(ns: argparse.Namespace) -> int:
    from . import proportional

    conf = _Conf(ns)
    rates = _parse_rates(conf.get("rates", required=True))
    j = conf.get("j", required=True, kind=int)
    grid = _parse_grid(conf.get("grid", required=True))
    out = conf.get("out")
    view = rates.proportional_view()
    if view is None:
        raise DomainError(
            "absorption probabilities need constant or proportional rates"
        )
    rates.validate_horizon(grid[-1])
    rho, base_mu = view
    p_abs = proportional.absorption_prop(rho, base_mu.big_m(grid), j)
    _write_csv(out, "absorb", ["t", "absorption_prob"], columns=[grid, p_abs])
    return 0


def _cmd_oracle(ns: argparse.Namespace) -> int:
    from . import oracle as oracle_mod

    conf = _Conf(ns)
    rates = _parse_rates(conf.get("rates", required=True))
    j = conf.get("j", required=True, kind=int)
    t = conf.get("t", required=True, kind=float)
    n_max = conf.get("n_max", required=True, kind=int)
    k_max = conf.get("k_max", required=True, kind=int)
    max_leak = conf.get("max_leak", 1e-4, kind=float)
    out = conf.get("out")
    grid = oracle_mod.solve_forward(rates, j, t, n_max, k_max, max_leak=max_leak)
    n, k = np.indices(grid.p.shape).reshape(2, -1)
    _write_csv(out, "oracle", ["n", "k", "p"], columns=[n, k, grid.p.ravel()])
    return 0


def _cmd_fit(ns: argparse.Namespace) -> int:
    from . import fit as fit_mod
    from . import growth

    conf = _Conf(ns)
    dataset = fit_mod.dataset_from_csv(conf.get("data", required=True))
    kind = str(conf.get("objective", "mse"))
    families = conf.get("families", "all")
    if families != "all":
        families = _listed(families, "--families")
    report = fit_mod.select_model(
        dataset,
        families,
        kind,
        budget=conf.get("budget", 10_000, kind=int),
        restarts=conf.get("restarts", 16, kind=int),
        seed=conf.get("seed", 0, kind=int),
        rho=conf.get("rho", 2.0, kind=float),
        estimate_j=conf.get("estimate_j", False, kind=bool),
    )
    out = conf.get("out")
    params = [dict(zip(growth.FAMILIES[fr.family].param_names, fr.params))
              for fr in report.results]
    header = ["family", "objective", "value", "converged", "n_evals", "restarts", "params"]
    rows = [
        (fr.family, fr.kind, fr.value, fr.converged, fr.n_evals, fr.restarts,
         ";".join(f"{n}={format(v, '.12g')}" for n, v in named.items()))
        for fr, named in zip(report.results, params)
    ]
    as_json = {
        "dataset": report.dataset_name,
        "objective": report.kind,
        "winner": report.winner,
        "results": [
            {
                "family": fr.family,
                "value": fr.value if math.isfinite(fr.value) else None,
                "converged": fr.converged,
                "n_evals": fr.n_evals,
                "restarts": fr.restarts,
                "j": fr.j,
                "rho": fr.rho,
                "params": named,
                "message": fr.message,
            }
            for fr, named in zip(report.results, params)
        ],
    }
    own = out and out != "-"
    _write_csv(out + ".csv" if own else None, "fit", header, rows)
    with _opened(out + ".json" if own else None) as f:
        f.write(json.dumps(as_json, indent=2) + "\n")
    return 0


def _cmd_reconstruct_y(ns: argparse.Namespace) -> int:
    from . import fit as fit_mod

    conf = _Conf(ns)
    dataset = fit_mod.dataset_from_csv(conf.get("data", required=True))
    family = str(conf.get("family", required=True))
    kind = str(conf.get("objective", "mse"))
    rho_raw = _listed(conf.get("rho_values", required=True), "--rho-values")
    rho_values = [converted(r, float, "option --rho-values") for r in rho_raw]
    grid = _parse_grid(conf.get("grid", required=True))
    fr = fit_mod.fit_one(
        family,
        dataset,
        kind,
        budget=conf.get("budget", 10_000, kind=int),
        restarts=conf.get("restarts", 16, kind=int),
        seed=conf.get("seed", 0, kind=int),
        rho=conf.get("rho", 2.0, kind=float),
    )
    rec = fit_mod.reconstruct_y(fr, rho_values, grid)
    columns = [np.tile(rec.grid, len(rec.rho_values)),
               np.repeat(rec.rho_values, rec.grid.size), rec.m_y.ravel()]
    _write_csv(conf.get("out"), "reconstruction", ["t", "rho", "m_y"], columns=columns)
    return 0


# ===== Parser and entry point ==================================================


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file with option defaults")
    p.add_argument("--out", help="output path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rumorbd",
        description=(
            "Two-dimensional birth-death toolkit for rumor diffusion: "
            "exact simulation, transient moments, absorption, a brute-force "
            "master-equation oracle, growth-curve fitting, and inactive-mean "
            "reconstruction. Option precedence: flags > --config file > defaults."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="sample trajectories / ensemble statistics")
    p.add_argument("--rates", help="JSON object or shorthand constant:LAM,MU")
    p.add_argument("--j", type=int, help="initial spreader count")
    p.add_argument("--horizon", type=float)
    p.add_argument("--replicates", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--cap", type=int, help="population cap (default 10^6)")
    p.add_argument("--grid", help="recording grid START:END:STEPS (endpoint excluded)")
    p.add_argument(
        "--trajectory", action="store_true", default=None,
        help="emit one event-by-event trajectory instead of ensemble statistics",
    )
    _add_common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("moments", help="closed-form/ODE transient moments on a grid")
    p.add_argument("--rates")
    p.add_argument("--j", type=int)
    p.add_argument("--grid")
    p.add_argument("--method", choices=("auto", "closed", "ode"))
    _add_common(p)
    p.set_defaults(func=_cmd_moments)

    p = sub.add_parser("absorb", help="absorption probability on a grid")
    p.add_argument("--rates")
    p.add_argument("--j", type=int)
    p.add_argument("--grid")
    _add_common(p)
    p.set_defaults(func=_cmd_absorb)

    p = sub.add_parser("oracle", help="truncated master-equation probability table")
    p.add_argument("--rates")
    p.add_argument("--j", type=int)
    p.add_argument("--t", type=float)
    p.add_argument("--n-max", dest="n_max", type=int)
    p.add_argument("--k-max", dest="k_max", type=int)
    p.add_argument("--max-leak", dest="max_leak", type=float)
    _add_common(p)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("fit", help="fit growth-curve families to t,count data")
    p.add_argument("--data", help="CSV file with header t,count")
    p.add_argument("--objective", choices=("mse", "rae"))
    p.add_argument("--families", help="'all' or comma-separated family names")
    p.add_argument(
        "--budget", type=int,
        help="evaluations per restart, and per j tried with --estimate-j: residual "
        "vectors, Jacobian columns included; RAE gives the restarts half and "
        "its Nelder-Mead polish what they leave",
    )
    p.add_argument("--restarts", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--rho", type=float, help="fixed rate ratio carried by the curves")
    p.add_argument(
        "--estimate-j", dest="estimate_j", action="store_true", default=None,
        help="estimate j instead of pinning it to the first observation",
    )
    _add_common(p)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser(
        "reconstruct-y", help="inactive mean implied by a fitted curve, per rho"
    )
    p.add_argument("--data")
    p.add_argument("--family")
    p.add_argument("--objective", choices=("mse", "rae"))
    p.add_argument("--rho-values", dest="rho_values", help="comma-separated rho list")
    p.add_argument("--grid")
    p.add_argument("--budget", type=int)
    p.add_argument("--restarts", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--rho", type=float, help="rate ratio used during the fit itself")
    _add_common(p)
    p.set_defaults(func=_cmd_reconstruct_y)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        code = ns.func(ns)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader of stdout left early (`| head`): end quietly, and send
        # what is still buffered to devnull, where the exit flush cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
