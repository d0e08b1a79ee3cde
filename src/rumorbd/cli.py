"""Command-line front end: simulate, analyze, fit, and emit plot-ready CSV.

Subcommands: simulate | moments | absorb | oracle | fit | reconstruct-y.
Every output is a CSV whose first line is a versioned schema comment
(`# schema: rumorbd.<name>.v1`), so downstream plotting scripts can pin the
column layout.  A float cell is exactly ``format(v, ".12g")``; subcommands
hand the writer columns, which :mod:`rumorbd._csvtext` encodes in numpy.
Each option is declared once, in ``_OPTIONS``, and each subcommand's options
and defaults once, in ``_COMMANDS``: the parser, ``--help`` and the lookup
read both.  Options may come from flags or a JSON --config file; flags win
over the file, the file wins over defaults.  Exit codes: 0 ok, 1 stdout
closed by its reader, 2 bad usage or parameter domain, 3 numeric failure, 4
malformed data or an unwritable output path.  Each subcommand imports the
engine modules it runs, so a start loads no other.
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


# ===== Options =================================================================

# option -> (kind, help).  An int or float kind is the flag's type, a bool
# kind a switch, and a tuple the choices of a string option.  Any other
# option is a string; a config may give a ``list`` option as a JSON list and
# a ``dict`` option as a JSON object.
_OPTIONS = {
    "rates": (dict, "JSON object or shorthand constant:LAM,MU"),
    "j": (int, "initial spreader count"),
    "horizon": (float, "time span of each path"),
    "replicates": (int, "number of paths"),
    "seed": (int, "random seed"),
    "cap": (int, "population cap"),
    "grid": (str, "time grid START:END:STEPS (endpoint excluded)"),
    "trajectory": (bool, "emit one event-by-event trajectory instead of ensemble statistics"),
    "method": (("auto", "closed", "ode"), "moment route"),
    "t": (float, "time of the probability table"),
    "n_max": (int, "largest spreader count of the table"),
    "k_max": (int, "largest inactive count of the table"),
    "max_leak": (float, "largest probability allowed to leave the table"),
    "data": (str, "CSV file with header t,count"),
    "objective": (("mse", "rae"), "fit objective"),
    "families": (list, "'all' or comma-separated family names"),
    "budget": (int, "evaluations per restart, and per j tried with --estimate-j: residual "
                    "vectors, Jacobian columns included; RAE gives the restarts half and its "
                    "Nelder-Mead polish what they leave"),
    "restarts": (int, "random starts per family"),
    "rho": (float, "fixed rate ratio the curves carry during the fit"),
    "estimate_j": (bool, "estimate j instead of pinning it to the first observation"),
    "family": (str, "growth-curve family to fit"),
    "rho_values": (list, "comma-separated rho list"),
    "config": (str, "JSON file with option defaults"),
    "out": (str, "output path (default: stdout)"),
}
_REQUIRED = object()


class _Conf:
    """Option lookup with precedence: flag > config file > the subcommand's
    default."""

    def __init__(self, ns: argparse.Namespace) -> None:
        self.ns = ns
        self.defaults = _COMMANDS[ns.command][2]
        self.cfg: dict = {}
        if ns.config:
            try:
                self.cfg = json.loads(Path(ns.config).read_text())
            except OSError as exc:
                raise DataError(f"cannot read config file {ns.config}: {exc}") from exc
            except json.JSONDecodeError as exc:
                raise DataError(f"config file {ns.config} is not valid JSON: {exc}") from exc
            if not isinstance(self.cfg, dict):
                raise DataError(f"config file {ns.config} must hold a JSON object")

    def __getitem__(self, key: str):
        """The option's value.  A config value must be of the option's kind
        (:func:`converted` for a number or a switch), else it is a
        :class:`DataError` naming the option."""
        flag = f"--{key.replace('_', '-')}"
        v = getattr(self.ns, key)
        if v is not None:  # argparse has converted it
            return v
        if key in self.cfg:
            v, kind = self.cfg[key], _OPTIONS[key][0]
            if kind in (int, float, bool):
                return converted(v, kind, f"option {flag}")
            if isinstance(v, str) or kind in (list, dict) and isinstance(v, kind):
                return v
            also = f" or {kind.__name__}" if kind in (list, dict) else ""
            raise DataError(f"option {flag} must be str{also}, got {v!r}")
        default = self.defaults.get(key)
        if default is _REQUIRED:
            raise DataError(f"missing required option {flag}")
        # a string default may name another option: simulate's grid ends at its horizon
        return default.format_map(self) if isinstance(default, str) else default


def _listed(value) -> list:
    """A comma-separated string as a list; a JSON list as it is."""
    return [v.strip() for v in value.split(",") if v.strip()] if isinstance(value, str) else value


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


def _cmd_simulate(conf: _Conf) -> None:
    from . import process as process_mod

    rates = _parse_rates(conf["rates"])
    if conf["trajectory"]:
        traj = process_mod.simulate(rates, conf["j"], conf["horizon"], conf["seed"],
                                    cap=conf["cap"])
        _write_csv(conf["out"], "trajectory", ["time", "event", "n", "k"], traj.events)
        return
    stats = process_mod.ensemble(rates, conf["j"], conf["horizon"], _parse_grid(conf["grid"]),
                                 conf["replicates"], conf["seed"], cap=conf["cap"])
    header = [
        "t", "mean_x", "var_x", "mean_y", "var_y", "cov", "corr",
        "absorbed_frac", "se_x", "se_y", "cap_frac",
    ]
    columns = [stats.grid, *(getattr(stats, h) for h in header[1:])]
    _write_csv(conf["out"], "ensemble", header, columns=columns)


def _cmd_moments(conf: _Conf) -> None:
    from . import moments as moments_mod

    header = [
        "t", "m_x", "var_x", "m_y", "var_y", "m2_y", "m_xy", "cov", "corr",
        "fano_x", "fano_y", "cv_x", "cv_y", "r_index",
    ]
    rep = moments_mod.moment_report(_parse_rates(conf["rates"]), conf["j"],
                                    _parse_grid(conf["grid"]), method=conf["method"])
    _write_csv(conf["out"], "moments", header, columns=[getattr(rep, h) for h in header])


def _cmd_absorb(conf: _Conf) -> None:
    from . import proportional

    rates, j, grid = _parse_rates(conf["rates"]), conf["j"], _parse_grid(conf["grid"])
    view = rates.proportional_view()
    if view is None:
        raise DomainError("absorption probabilities need constant or proportional rates")
    rates.validate_horizon(grid[-1])
    rho, base_mu = view
    p_abs = proportional.absorption_prop(rho, base_mu.big_m(grid), j)
    _write_csv(conf["out"], "absorb", ["t", "absorption_prob"], columns=[grid, p_abs])


def _cmd_oracle(conf: _Conf) -> None:
    from . import oracle as oracle_mod

    grid = oracle_mod.solve_forward(_parse_rates(conf["rates"]), conf["j"], conf["t"],
                                    conf["n_max"], conf["k_max"], max_leak=conf["max_leak"])
    n, k = np.indices(grid.p.shape).reshape(2, -1)
    _write_csv(conf["out"], "oracle", ["n", "k", "p"], columns=[n, k, grid.p.ravel()])


def _cmd_fit(conf: _Conf) -> None:
    from . import fit as fit_mod
    from . import growth

    dataset = fit_mod.dataset_from_csv(conf["data"])
    families = conf["families"]
    report = fit_mod.select_model(
        dataset, families if families == "all" else _listed(families), conf["objective"],
        budget=conf["budget"], restarts=conf["restarts"], seed=conf["seed"], rho=conf["rho"],
        estimate_j=conf["estimate_j"],
    )
    out = conf["out"]
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


def _cmd_reconstruct_y(conf: _Conf) -> None:
    from . import fit as fit_mod

    dataset = fit_mod.dataset_from_csv(conf["data"])
    family, kind = conf["family"], conf["objective"]
    rho_values = [converted(r, float, "option --rho-values") for r in _listed(conf["rho_values"])]
    grid = _parse_grid(conf["grid"])
    fr = fit_mod.fit_one(family, dataset, kind, budget=conf["budget"],
                         restarts=conf["restarts"], seed=conf["seed"], rho=conf["rho"])
    rec = fit_mod.reconstruct_y(fr, rho_values, grid)
    columns = [np.tile(rec.grid, len(rec.rho_values)),
               np.repeat(rec.rho_values, rec.grid.size), rec.m_y.ravel()]
    _write_csv(conf["out"], "reconstruction", ["t", "rho", "m_y"], columns=columns)


# ===== Parser and entry point ==================================================

_RATES = {"rates": _REQUIRED, "j": _REQUIRED}
_FIT = {"objective": "mse", "budget": 10_000, "restarts": 16, "seed": 0, "rho": 2.0}

# subcommand -> (handler, help, {option: default or _REQUIRED}); every
# subcommand also takes --config and --out
_COMMANDS = {
    "simulate": (_cmd_simulate, "sample trajectories / ensemble statistics", {
        **_RATES, "horizon": _REQUIRED, "replicates": 1000, "seed": 0, "cap": 10**6,
        "grid": "0:{horizon}:50", "trajectory": False}),
    "moments": (_cmd_moments, "closed-form/ODE transient moments on a grid",
                {**_RATES, "grid": _REQUIRED, "method": "auto"}),
    "absorb": (_cmd_absorb, "absorption probability on a grid", {**_RATES, "grid": _REQUIRED}),
    "oracle": (_cmd_oracle, "truncated master-equation probability table", {
        **_RATES, "t": _REQUIRED, "n_max": _REQUIRED, "k_max": _REQUIRED, "max_leak": 1e-4}),
    "fit": (_cmd_fit, "fit growth-curve families to t,count data", {
        "data": _REQUIRED, "families": "all", **_FIT, "estimate_j": False}),
    "reconstruct-y": (_cmd_reconstruct_y, "inactive mean implied by a fitted curve, per rho", {
        "data": _REQUIRED, "family": _REQUIRED, "rho_values": _REQUIRED, "grid": _REQUIRED,
        **_FIT}),
}


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
    for command, (func, text, defaults) in _COMMANDS.items():
        p = sub.add_parser(command, help=text)
        for key, default in {**defaults, "config": None, "out": None}.items():
            kind, text = _OPTIONS[key]
            if default is _REQUIRED:
                text += " (required)"
            elif default is not None and kind is not bool:
                text += f" (default: {default})"
            flag = "--" + key.replace("_", "-")
            if kind is bool:  # None when absent, so that a config value can stand in
                p.add_argument(flag, action="store_true", default=None, help=text)
            else:
                p.add_argument(flag, type=kind if kind in (int, float) else None,
                               choices=kind if isinstance(kind, tuple) else None, help=text)
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        ns.func(_Conf(ns))
        sys.stdout.flush()
        return 0
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
