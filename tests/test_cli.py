"""Command-line interface: schemas, subcommand output, config precedence,
and exit codes."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import _closed_forms as cf
import rumorbd
from rumorbd import cli
from rumorbd.cli import main
from rumorbd import fit, growth, moments, oracle, process, proportional


def _run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _rows(out):
    """Parse `# schema` CSV text into (schema_line, header, list-of-row-lists)."""
    lines = out.strip().splitlines()
    return lines[0], lines[1].split(","), [ln.split(",") for ln in lines[2:]]


def _write_logistic_csv(path, n_points=40, horizon=8.0):
    curve = growth.Logistic(c=10.0, r=1.2, j=1, rho=2.0)
    t = np.linspace(0.0, horizon, n_points)
    lines = ["t,count"] + [f"{ti},{yi}" for ti, yi in zip(t, curve.mean_array(t))]
    path.write_text("\n".join(lines) + "\n")
    return curve


# ===== moments =================================================================


def test_moments_schema_and_closed_values(capsys):
    rc, out, err = _run(
        capsys, ["moments", "--rates", "constant:1,1", "--j", "1", "--grid", "0:5:100"]
    )
    assert rc == 0 and err == ""
    schema, header, rows = _rows(out)
    assert schema == "# schema: rumorbd.moments.v1"
    assert header == [
        "t", "m_x", "var_x", "m_y", "var_y", "m2_y", "m_xy", "cov", "corr",
        "fano_x", "fano_y", "cv_x", "cv_y", "r_index",
    ]
    assert len(rows) == 100  # half-open grid: endpoint excluded
    assert float(rows[-1][0]) == pytest.approx(4.95)
    at_one = next(r for r in rows if abs(float(r[0]) - 1.0) < 1e-12)
    assert float(at_one[9]) == pytest.approx(2.0, rel=1e-9)  # critical Fano factor
    assert float(at_one[1]) == pytest.approx(cf.mean_x(1, 1, 1, 1.0), rel=1e-9)
    assert float(at_one[4]) == pytest.approx(cf.var_y(1, 1, 1, 1.0), rel=1e-9)


def test_moments_ode_route_matches_closed_route(capsys):
    rates = json.dumps({
        "kind": "proportional", "rho": 1.5,
        "base": {"kind": "cosine", "mu": 1, "alpha": 0.5, "period": 2.5},
    })
    tables = {}
    for method in ("closed", "ode"):
        rc, out, err = _run(capsys, [
            "moments", "--rates", rates, "--j", "2", "--grid", "0:20:400", "--method", method,
        ])
        assert rc == 0 and err == ""
        tables[method] = _rows(out)
    schema, header, closed = tables["closed"]
    assert tables["ode"][:2] == (schema, header)
    ode = tables["ode"][2]
    assert len(ode) == len(closed) == 400
    for a, b in zip(ode, closed):
        assert a[0] == b[0]
        for name, x, y in zip(header[1:], a[1:], b[1:]):
            rel = 1e-7 if name == "corr" else 1e-8
            assert float(x) == pytest.approx(float(y), rel=rel, abs=1e-10), (b[0], name)


def test_moments_requires_rates(capsys):
    rc, out, err = _run(capsys, ["moments", "--j", "1", "--grid", "0:1:4"])
    assert rc == 4
    assert "rates" in err


# ===== absorb ==================================================================


def test_absorb_matches_closed_absorption(capsys):
    rc, out, err = _run(
        capsys, ["absorb", "--rates", "constant:2,1", "--j", "3", "--grid", "0:20:50"]
    )
    assert rc == 0
    schema, header, rows = _rows(out)
    assert schema == "# schema: rumorbd.absorb.v1"
    assert header == ["t", "absorption_prob"]
    assert len(rows) == 50
    assert float(rows[0][1]) == 0.0
    t_last = float(rows[-1][0])
    assert float(rows[-1][1]) == pytest.approx(cf.absorption(2, 1, 3, t_last), rel=1e-9)
    assert float(rows[-1][1]) == pytest.approx(0.125, abs=1e-6)  # (mu/lam)^j


# ===== simulate ================================================================


def test_simulate_ensemble_csv(capsys):
    argv = [
        "simulate", "--rates", "constant:1,1", "--j", "2", "--horizon", "1",
        "--replicates", "300", "--seed", "3", "--grid", "0:1:4",
    ]
    rc, out, err = _run(capsys, argv)
    assert rc == 0
    schema, header, rows = _rows(out)
    assert schema == "# schema: rumorbd.ensemble.v1"
    assert header == [
        "t", "mean_x", "var_x", "mean_y", "var_y", "cov", "corr",
        "absorbed_frac", "se_x", "se_y", "cap_frac",
    ]
    assert len(rows) == 4
    first = [float(v) for v in rows[0]]
    assert first[0] == 0.0 and first[1] == 2.0 and first[2] == 0.0
    assert first[7] == 0.0 and first[10] == 0.0
    assert math.isnan(first[6])  # zero variance at t = 0: correlation undefined
    # deterministic: a second identical invocation prints identical bytes
    rc2, out2, _ = _run(capsys, argv)
    assert rc2 == 0 and out2 == out


def test_simulate_trajectory_csv(capsys):
    rc, out, err = _run(
        capsys,
        ["simulate", "--trajectory", "--rates", "constant:1.2,0.8", "--j", "2",
         "--horizon", "2", "--seed", "1"],
    )
    assert rc == 0
    schema, header, rows = _rows(out)
    assert schema == "# schema: rumorbd.trajectory.v1"
    assert header == ["time", "event", "n", "k"]
    n, k, prev_t = 2, 0, 0.0
    for row in rows:
        t, kind = float(row[0]), row[1]
        assert t > prev_t
        prev_t = t
        if kind == "spread":
            n += 1
        else:
            assert kind == "forget"
            n, k = n - 1, k + 1
        assert int(row[2]) == n and int(row[3]) == k


# ===== oracle ==================================================================


def test_oracle_probability_table(capsys):
    rc, out, err = _run(
        capsys,
        ["oracle", "--rates", "constant:1,2", "--j", "1", "--t", "0.5",
         "--n-max", "25", "--k-max", "25"],
    )
    assert rc == 0
    schema, header, rows = _rows(out)
    assert schema == "# schema: rumorbd.oracle.v1"
    assert header == ["n", "k", "p"]
    assert len(rows) == 26 * 26
    table = {(int(r[0]), int(r[1])): float(r[2]) for r in rows}
    assert sum(table.values()) == pytest.approx(1.0, abs=1e-4)
    assert table[(0, 1)] == pytest.approx(cf.p01(1, 2, 0.5), abs=1e-8)
    assert table[(1, 0)] > 0.1  # still alive with decent probability


def test_oracle_leak_failure_exits_3(capsys):
    rc, out, err = _run(
        capsys,
        ["oracle", "--rates", "constant:2,1", "--j", "1", "--t", "3",
         "--n-max", "8", "--k-max", "8"],
    )
    assert rc == 3
    assert "numeric failure" in err


def test_oracle_nan_max_leak_exits_2(capsys):
    rc, out, err = _run(
        capsys,
        ["oracle", "--rates", "constant:2,1", "--j", "1", "--t", "1",
         "--n-max", "20", "--k-max", "20", "--max-leak", "nan"],
    )
    assert rc == 2 and out == ""
    assert "max_leak" in err


# ===== fit and reconstruct-y ===================================================


def test_fit_writes_csv_and_json(tmp_path, capsys):
    data = tmp_path / "cascade.csv"
    _write_logistic_csv(data)
    prefix = tmp_path / "fitout"
    rc, out, err = _run(
        capsys,
        ["fit", "--data", str(data), "--families", "logistic,gompertz",
         "--budget", "800", "--restarts", "3", "--seed", "0",
         "--out", str(prefix)],
    )
    assert rc == 0
    csv_text = (tmp_path / "fitout.csv").read_text()
    schema, header, rows = _rows(csv_text)
    assert schema == "# schema: rumorbd.fit.v1"
    assert header == ["family", "objective", "value", "converged", "n_evals",
                      "restarts", "params"]
    assert [r[0] for r in rows] == ["logistic", "gompertz"]
    report = json.loads((tmp_path / "fitout.json").read_text())
    assert report["winner"] == "logistic"
    assert report["dataset"] == "cascade"
    logi = report["results"][0]
    assert logi["family"] == "logistic"
    assert logi["params"]["c"] == pytest.approx(10.0, rel=1e-4)
    assert logi["params"]["r"] == pytest.approx(1.2, rel=1e-4)
    assert logi["value"] < 1e-12


def test_fit_stdout_mode_emits_csv_then_json(tmp_path, capsys):
    data = tmp_path / "cascade.csv"
    _write_logistic_csv(data, n_points=25, horizon=6.0)
    rc, out, err = _run(
        capsys,
        ["fit", "--data", str(data), "--families", "logistic",
         "--budget", "400", "--restarts", "2"],
    )
    assert rc == 0
    assert out.startswith("# schema: rumorbd.fit.v1\n")
    report = json.loads(out[out.index("{"):])
    assert report["winner"] == "logistic"


def test_fit_estimate_j_runs_end_to_end(tmp_path, capsys):
    data = tmp_path / "cascade.csv"
    _write_logistic_csv(data, n_points=25, horizon=6.0)
    prefix = tmp_path / "fitj"
    rc, out, err = _run(
        capsys,
        ["fit", "--data", str(data), "--families", "logistic", "--estimate-j",
         "--budget", "400", "--restarts", "2", "--out", str(prefix)],
    )
    assert rc == 0 and err == ""
    logi = json.loads((tmp_path / "fitj.json").read_text())["results"][0]
    assert logi["family"] == "logistic"
    assert isinstance(logi["j"], int) and logi["j"] >= 1
    assert math.isfinite(logi["value"])


def test_fit_missing_data_file_exits_4(tmp_path, capsys):
    rc, out, err = _run(capsys, ["fit", "--data", str(tmp_path / "absent.csv")])
    assert rc == 4
    assert "data error" in err


def test_reconstruct_y_csv(tmp_path, capsys):
    data = tmp_path / "cascade.csv"
    _write_logistic_csv(data)
    rc, out, err = _run(
        capsys,
        ["reconstruct-y", "--data", str(data), "--family", "logistic",
         "--rho-values", "2.0,1.5", "--grid", "0:5:10",
         "--budget", "600", "--restarts", "2"],
    )
    assert rc == 0
    schema, header, rows = _rows(out)
    assert schema == "# schema: rumorbd.reconstruction.v1"
    assert header == ["t", "rho", "m_y"]
    assert len(rows) == 20  # 2 rho values x 10 grid points
    by_rho_t = {(float(r[1]), float(r[0])): float(r[2]) for r in rows}
    assert by_rho_t[(2.0, 0.0)] == 0.0  # nothing forgotten at t = 0
    # rho = 1.5 scales the spreader gap by 1/(rho-1) = 2x relative to rho = 2
    t_probe = next(t for (rho, t) in by_rho_t if rho == 2.0 and t > 1.0)
    assert by_rho_t[(1.5, t_probe)] == pytest.approx(
        2.0 * by_rho_t[(2.0, t_probe)], rel=1e-9
    )


# ===== config file and precedence =============================================


def test_config_file_supplies_options_and_flags_win(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(
        {"rates": {"kind": "constant", "lam": 1.0, "mu": 1.0},
         "j": 1, "grid": "0:2:4"}
    ))
    rc, out, _ = _run(capsys, ["moments", "--config", str(cfg)])
    assert rc == 0
    assert len(_rows(out)[2]) == 4  # grid from the config file
    rc, out, _ = _run(capsys, ["moments", "--config", str(cfg), "--grid", "0:2:8"])
    assert rc == 0
    assert len(_rows(out)[2]) == 8  # flag overrides the file


def test_config_file_must_be_a_json_object(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("[1, 2, 3]")
    rc, _, err = _run(capsys, ["moments", "--config", str(cfg), "--j", "1"])
    assert rc == 4
    cfg.write_text("{not json")
    rc, _, err = _run(capsys, ["moments", "--config", str(cfg), "--j", "1"])
    assert rc == 4


def test_output_file_mode_writes_schema_line(tmp_path, capsys):
    out_path = tmp_path / "mom.csv"
    rc, out, _ = _run(
        capsys,
        ["moments", "--rates", "constant:1,1", "--j", "1", "--grid", "0:1:4",
         "--out", str(out_path)],
    )
    assert rc == 0
    assert out == ""  # nothing on stdout when a file is requested
    assert out_path.read_text().startswith("# schema: rumorbd.moments.v1\n")


def test_csv_template_writes_the_bytes_of_per_cell_formatting(tmp_path):
    # reference: each cell formatted on its own, floats to 12 significant digits
    def cell(v):
        return format(v, ".12g") if isinstance(v, float) else str(v)

    floats = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e300, -1e300,
              0.1 + 0.2, 1.0 / 3.0, 123456789012.5, 2.0**53, np.float64(0.1)]
    ints = [10**12, 10**13 + 7, 10**14 - 1, 10**15, -(10**15), 0]
    texts = ["spread", "", "a%b;c=1.5", "nan"]
    rows = [
        (f, ints[i % len(ints)], texts[i % len(texts)], i % 2 == 0)
        for i, f in enumerate(floats)
    ]
    path = tmp_path / "cells.csv"
    cli._write_csv(str(path), "cells", ["f", "i", "s", "b"], iter(rows))
    expected = "# schema: rumorbd.cells.v1\nf,i,s,b\n" + "".join(
        ",".join(map(cell, row)) + "\n" for row in rows
    )
    assert path.read_bytes() == expected.encode()
    cli._write_csv(str(path), "cells", ["f"], [])
    assert path.read_bytes() == b"# schema: rumorbd.cells.v1\nf\n"


# ===== argument and domain failures ===========================================


@pytest.mark.parametrize(
    "argv,code",
    [
        (["moments", "--rates", "constant:1,1", "--j", "0", "--grid", "0:1:4"], 2),
        (["moments", "--rates", "constant:1,1", "--j", "1", "--grid", "5"], 4),
        (["moments", "--rates", "constant:1,1", "--j", "1", "--grid", "3:1:5"], 4),
        (["moments", "--rates", "constant:1,1", "--j", "1", "--grid", "0:1:1"], 4),
        (["moments", "--rates", "gibberish", "--j", "1", "--grid", "0:1:4"], 4),
        (["moments", "--rates", "constant:1", "--j", "1", "--grid", "0:1:4"], 4),
        (["simulate", "--rates", "constant:1,1", "--j", "1", "--horizon", "-2",
          "--grid", "0:1:4"], 2),
        (["moments", "--rates", "constant:1,1", "--j", "1", "--grid", "0:inf:4"], 4),
    ],
)
def test_exit_codes_for_bad_usage(capsys, argv, code):
    rc, out, err = _run(capsys, argv)
    assert rc == code
    assert err != ""


@pytest.mark.parametrize(
    "curve,name",
    [
        ({"family": "multisig_logistic", "c": 5, "betas": [math.nan, 0, 0, -0.1]}, "beta1"),
        ({"family": "multisig_logistic", "c": 5, "betas": [1, 0, 0, -math.inf]}, "beta4"),
        ({"family": "ext_logistic", "n": 8, "eps": math.nan}, "eps"),
        ({"family": "logistic", "c": math.inf, "r": 1}, "c"),
    ],
    ids=["nan-beta1", "minus-inf-beta4", "nan-eps", "inf-capacity"],
)
def test_non_finite_curve_parameters_exit_2_naming_the_parameter(capsys, curve, name):
    # JSON as Python writes and reads it carries NaN and Infinity
    rates = {"kind": "proportional", "rho": 2,
             "base": {"kind": "curve", "curve": {**curve, "rho": 2}}}
    rc, out, err = _run(
        capsys, ["moments", "--rates", json.dumps(rates), "--j", "1", "--grid", "0:2:4"]
    )
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and f"{name} must be" in err


@pytest.mark.parametrize(
    "rates,key",
    [
        ({"kind": "proportional", "rho": 1.5, "base": {"kind": "cosine", "mu": 1}}, "alpha"),
        ({"kind": "proportional", "rho": 1.5, "base": {"kind": "constant"}}, "mu"),
        ({"kind": "constant", "lam": "x", "mu": 1}, "lam"),
        ({"kind": "proportional", "rho": 2.0, "base": {"kind": "curve", "curve": {
            "family": "logistic", "c": "abc", "r": 1.0, "rho": 2.0}}}, "c"),
    ],
    ids=["cosine-without-alpha", "constant-base-without-mu", "lam-not-a-number",
         "curve-parameter-not-a-number"],
)
def test_malformed_rate_values_exit_4_naming_the_key(capsys, rates, key):
    rc, out, err = _run(
        capsys, ["moments", "--rates", json.dumps(rates), "--j", "1", "--grid", "0:1:4"]
    )
    assert rc == 4 and out == ""
    assert err.startswith("data error: ") and f"'{key}'" in err


def test_malformed_config_option_exits_4_naming_the_option(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"rates": "constant:1,1", "j": "two", "grid": "0:1:4"}))
    rc, out, err = _run(capsys, ["moments", "--config", str(cfg)])
    assert rc == 4 and out == ""
    assert err.startswith("data error: ") and "--j" in err and "'two'" in err


_CURVE_RATES = {"kind": "proportional", "rho": 2.0, "base": {"kind": "curve", "curve": {
    "family": "logistic", "c": 10.0, "r": 1.0, "j": 1.5, "rho": 2.0}}}


@pytest.mark.parametrize(
    "argv,cfg,named",
    [
        (["moments"], {"rates": "constant:1,1", "j": 2.7, "grid": "0:1:4"}, "--j"),
        (["moments"], {"rates": "constant:1,1", "j": True, "grid": "0:1:4"}, "--j"),
        (["moments"], {"rates": _CURVE_RATES, "j": 1, "grid": "0:1:4"}, "'j'"),
        (["simulate"], {"rates": "constant:1,1", "j": 1, "horizon": 1.0, "grid": "0:1:4",
                        "replicates": 10.9}, "--replicates"),
        (["simulate"], {"rates": "constant:1,1", "j": 1, "horizon": 1.0,
                        "trajectory": "no"}, "--trajectory"),
        (["fit"], {"families": 5}, "--families"),
        (["fit"], {"families": "logistic", "estimate_j": "no"}, "--estimate-j"),
        (["reconstruct-y"], {"family": "logistic", "rho_values": 2, "grid": "0:5:10"},
         "--rho-values"),
    ],
    ids=["j-fractional", "j-bool", "curve-j-fractional", "replicates-fractional",
         "trajectory-string", "families-number", "estimate-j-string", "rho-values-number"],
)
def test_config_values_of_the_wrong_type_exit_4_naming_the_option(
    tmp_path, capsys, argv, cfg, named
):
    data = tmp_path / "cascade.csv"
    _write_logistic_csv(data, n_points=20, horizon=6.0)
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"data": str(data), **cfg}))
    rc, out, err = _run(capsys, [*argv, "--config", str(path)])
    assert rc == 4 and out == ""
    assert err.startswith("data error: ") and named in err


def test_config_accepts_integral_numbers_and_json_booleans(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"rates": "constant:1,1", "j": 2.0, "grid": "0:1:4"}))
    rc, out, _ = _run(capsys, ["moments", "--config", str(path)])
    assert rc == 0 and _rows(out)[2][0][:2] == ["0", "2"]
    path.write_text(json.dumps({"rates": "constant:1,1", "j": 1, "horizon": 1.0,
                                "seed": 1, "trajectory": True}))
    rc, out, _ = _run(capsys, ["simulate", "--config", str(path)])
    assert rc == 0 and out.startswith("# schema: rumorbd.trajectory.v1\n")


_MOMENT_HEADER = [
    "t", "m_x", "var_x", "m_y", "var_y", "m2_y", "m_xy", "cov", "corr",
    "fano_x", "fano_y", "cv_x", "cv_y", "r_index",
]


def test_moments_csv_has_no_nan_past_the_float_range(capsys):
    # rows at t = 480 and 640 put Var_Y and the second moments past the
    # float range; the ratio columns stay at their finite values
    rc, out, err = _run(capsys, ["moments", "--rates", "constant:2,1", "--j", "1",
                                 "--grid", "0:800:5"])
    assert rc == 0 and err == ""
    _, header, rows = _rows(out)
    assert [row[0] for row in rows] == ["0", "160", "320", "480", "640"]
    assert not any(cell == "nan" for row in rows for cell in row)
    for row in rows[1:]:
        assert row[header.index("cv_x")] == row[header.index("cv_y")] == "1.73205080757"
    # subcritical: m_X underflows at t = 1600, Fano_X is still 3
    rc, out, err = _run(capsys, ["moments", "--rates", "constant:0.5,1", "--j", "2",
                                 "--grid", "0:3200:2"])
    assert rc == 0 and err == ""
    _, header, rows = _rows(out)
    assert rows[1][0] == "1600" and rows[1][header.index("fano_x")] == "3"
    assert not any(cell == "nan" for row in rows for cell in row)


@pytest.mark.parametrize("method", ["closed", "ode"])
def test_moments_csv_is_the_report_to_12_digits(capsys, method):
    spec = json.dumps({"kind": "proportional", "rho": 1.5,
                       "base": {"kind": "cosine", "mu": 1.0, "alpha": 0.5, "period": 2.5}})
    rc, out, err = _run(capsys, ["moments", "--rates", spec, "--j", "2", "--grid", "0:3:6",
                                 "--method", method])
    assert rc == 0 and err == ""
    rates, times = cli._parse_rates(spec), cli._parse_grid("0:3:6")
    scalars = [moments.moment_report(rates, 2, t, method=method) for t in times]
    if method == "closed":
        rows = [[getattr(rep, h) for h in _MOMENT_HEADER] for rep in scalars]
    else:
        # an ODE value depends on the last time of its solve, so the scalar
        # report pins the last row; earlier rows are the grid report's columns
        grid = moments.moment_report(rates, 2, times, method=method)
        rows = [[getattr(grid, h)[i].item() for h in _MOMENT_HEADER] for i in range(6)]
        assert rows[-1] == [getattr(scalars[-1], h) for h in _MOMENT_HEADER]
    expected = "# schema: rumorbd.moments.v1\n" + ",".join(_MOMENT_HEADER) + "\n" + "".join(
        ",".join(format(v, ".12g") for v in row) + "\n" for row in rows
    )
    assert out == expected


# ===== every CSV cell is per-cell formatting ===================================


def _cell(v) -> str:
    return format(v, ".12g") if isinstance(v, float) else str(v)


def _table(schema: str, header: list[str], rows) -> str:
    """A CSV as ``_write_csv`` must write it, each cell formatted on its own."""
    return f"# schema: rumorbd.{schema}.v1\n" + ",".join(header) + "\n" + "".join(
        ",".join(map(_cell, row)) + "\n" for row in rows
    )


def _written(columns) -> str:
    """The data lines that ``_write_csv`` writes for ``columns``."""
    with contextlib.redirect_stdout(io.StringIO()) as f:
        cli._write_csv(None, "cells", ["c"] * len(columns), columns=columns)
    return f.getvalue().split("\n", 2)[2]


def test_csv_floats_are_per_cell_formatting_on_a_sweep():
    """Random bit patterns; every power of ten from 1e-300 to 1e300 and the
    floats 1, 2, 4, ..., 2048 ulps either side of it, where log10 can round
    across the power; values that round to the next decade; ties at the
    12th digit; the smallest subnormal and the largest float; both signs."""
    bits = np.random.default_rng(27).integers(0, 2**64, 10**5, dtype=np.uint64)
    powers = np.array([float(f"1e{k}") for k in range(-300, 301)]).view(np.int64)
    ulps = 2 ** np.arange(12)
    values = np.concatenate([
        bits.view(np.float64),
        (powers[:, None] + np.concatenate([-ulps, [0], ulps])).view(np.float64).ravel(),
        [float(f"9.999999999995e{k}") for k in range(-300, 300)],
        [99999999999.95, 123456789012.5, 5e-324, sys.float_info.max],
    ])
    values = np.concatenate([values, -values])
    assert _written([values]) == "".join(_cell(v) + "\n" for v in values.tolist())


@given(st.lists(st.tuples(st.floats(), st.integers(-2 * 10**12, 2 * 10**12)), min_size=1))
def test_csv_cells_are_per_cell_formatting(rows):
    assert _written(list(zip(*rows))) == "".join(
        f"{_cell(f)},{i}\n" for f, i in rows
    )


def test_absorb_csv_is_the_engine_to_12_digits(capsys):
    rc, out, err = _run(capsys, ["absorb", "--rates", "constant:2,1", "--j", "3",
                                 "--grid", "0:20:50"])
    assert rc == 0 and err == ""
    grid = cli._parse_grid("0:20:50")
    rho, base = cli._parse_rates("constant:2,1").proportional_view()
    p_abs = proportional.absorption_prop(rho, base.big_m(grid), 3).tolist()
    assert out == _table("absorb", ["t", "absorption_prob"], zip(grid, p_abs))


def test_oracle_csv_is_the_engine_to_12_digits(capsys):
    rc, out, err = _run(capsys, ["oracle", "--rates", "constant:1,2", "--j", "1", "--t", "0.5",
                                 "--n-max", "12", "--k-max", "15"])
    assert rc == 0 and err == ""
    p = oracle.solve_forward(cli._parse_rates("constant:1,2"), 1, 0.5, 12, 15).p.tolist()
    rows = [(n, k, p[n][k]) for n in range(13) for k in range(16)]
    assert out == _table("oracle", ["n", "k", "p"], rows)


def test_simulate_csvs_are_the_engine_to_12_digits(capsys):
    rates = cli._parse_rates("constant:1,1")
    rc, out, err = _run(capsys, ["simulate", "--rates", "constant:1,1", "--j", "2",
                                 "--horizon", "1", "--replicates", "300", "--seed", "3",
                                 "--grid", "0:1:4"])
    assert rc == 0 and err == ""
    stats = process.ensemble(rates, 2, 1.0, cli._parse_grid("0:1:4"), 300, 3)
    header = out.splitlines()[1].split(",")
    rows = zip(stats.grid.tolist(), *(getattr(stats, h).tolist() for h in header[1:]))
    assert out == _table("ensemble", header, rows)
    rc, out, err = _run(capsys, ["simulate", "--trajectory", "--rates", "constant:1,1",
                                 "--j", "2", "--horizon", "3", "--seed", "5"])
    assert rc == 0 and err == ""
    events = process.simulate(rates, 2, 3.0, 5).events
    assert len(events) > 3
    assert out == _table("trajectory", ["time", "event", "n", "k"], events)


_FIT_OPTS = ["--budget", "300", "--restarts", "2", "--seed", "1", "--rho", "2"]


def test_fit_csv_is_the_engine_to_12_digits(tmp_path, capsys):
    data = tmp_path / "cascade.csv"
    _write_logistic_csv(data, n_points=25, horizon=6.0)
    rc, out, err = _run(capsys, ["fit", "--data", str(data), "--families", "logistic,gompertz",
                                 *_FIT_OPTS, "--out", str(tmp_path / "fitout")])
    assert rc == 0 and out == err == ""
    report = fit.select_model(fit.dataset_from_csv(str(data)), ["logistic", "gompertz"], "mse",
                              budget=300, restarts=2, seed=1, rho=2.0)
    rows = [
        (fr.family, fr.kind, fr.value, fr.converged, fr.n_evals, fr.restarts,
         ";".join(f"{n}={_cell(v)}"
                  for n, v in zip(growth.FAMILIES[fr.family].param_names, fr.params)))
        for fr in report.results
    ]
    header = ["family", "objective", "value", "converged", "n_evals", "restarts", "params"]
    assert (tmp_path / "fitout.csv").read_text() == _table("fit", header, rows)


def test_reconstruct_y_csv_is_the_engine_to_12_digits(tmp_path, capsys):
    data = tmp_path / "cascade.csv"
    _write_logistic_csv(data, n_points=25, horizon=6.0)
    rc, out, err = _run(capsys, ["reconstruct-y", "--data", str(data), "--family", "logistic",
                                 "--rho-values", "2,1.5,3", "--grid", "0:5:7", *_FIT_OPTS])
    assert rc == 0 and err == ""
    fr = fit.fit_one("logistic", fit.dataset_from_csv(str(data)), "mse",
                     budget=300, restarts=2, seed=1, rho=2.0)
    rec = fit.reconstruct_y(fr, [2.0, 1.5, 3.0], cli._parse_grid("0:5:7"))
    rows = [(t, rho, v) for rho, m_y in zip(rec.rho_values, rec.m_y.tolist())
            for t, v in zip(rec.grid.tolist(), m_y)]
    assert len(rows) == 21
    assert out == _table("reconstruction", ["t", "rho", "m_y"], rows)


def test_an_unwritable_out_path_exits_4_naming_it(tmp_path, capsys):
    target = tmp_path / "missing" / "x.csv"
    rc, out, err = _run(capsys, ["absorb", "--rates", "constant:2,1", "--j", "2",
                                 "--grid", "0:1:4", "--out", str(target)])
    assert rc == 4 and out == ""
    assert err == f"data error: cannot write {target}: No such file or directory\n"
    # fit writes its CSV, then fails on the JSON beside it
    data = tmp_path / "cascade.csv"
    _write_logistic_csv(data, n_points=20, horizon=6.0)
    (tmp_path / "fitout.json").mkdir()
    rc, out, err = _run(capsys, ["fit", "--data", str(data), "--families", "logistic",
                                 *_FIT_OPTS, "--out", str(tmp_path / "fitout")])
    assert rc == 4 and out == ""
    assert err.startswith(f"data error: cannot write {tmp_path / 'fitout.json'}: ")
    assert err.count("\n") == 1


def test_a_closed_stdout_pipe_ends_quietly_with_exit_1():
    """``rumorbd ... | head -2``: no traceback, no 'Exception ignored' line."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "rumorbd.cli", "moments", "--rates", "constant:2,1",
         "--j", "3", "--grid", "0:20:100000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_checkout_env(),
    )
    assert proc.stdout.readline() == b"# schema: rumorbd.moments.v1\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""


def _checkout_env() -> dict:
    # a subprocess imports the same package as this test, installed or not
    src = str(Path(rumorbd.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}


def test_installed_script_round_trip(tmp_path):
    """The console entry point wires argv and exit codes correctly."""
    env = _checkout_env()
    res = subprocess.run(
        [sys.executable, "-m", "rumorbd.cli", "absorb", "--rates", "constant:1,1",
         "--j", "1", "--grid", "0:2:4"],
        capture_output=True, text=True, env=env,
    )
    assert res.returncode == 0
    assert res.stdout.startswith("# schema: rumorbd.absorb.v1\n")
    res = subprocess.run(
        [sys.executable, "-m", "rumorbd.cli", "absorb", "--rates", "constant:1,1",
         "--j", "0", "--grid", "0:2:4"],
        capture_output=True, text=True, env=env,
    )
    assert res.returncode == 2


def _fresh(code: str) -> str:
    """What ``code`` prints in a fresh interpreter, stripped."""
    res = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_checkout_env()
    )
    assert res.returncode == 0, res.stderr
    return res.stdout.strip()


_LOADED = "*sorted(m for m in sys.modules if m == 'rumorbd' or m.startswith('rumorbd.'))"


def test_cli_import_does_not_load_scipy_solvers():
    """Cold start: ``import rumorbd.cli`` loads numpy and the error classes,
    and no engine module; scipy.optimize and scipy.integrate load on first
    use only."""
    assert _fresh(
        "import sys, rumorbd.cli; "
        "print(sorted(m for m in ('scipy.optimize', 'scipy.integrate') if m in sys.modules), "
        f"'numpy' in sys.modules, {_LOADED})"
    ) == "[] True rumorbd rumorbd.cli rumorbd.errors"


def test_the_package_root_imports_a_module_on_first_access():
    assert _fresh(
        f"import sys, rumorbd; print({_LOADED}, "
        "rumorbd.oracle is sys.modules['rumorbd.oracle'], "
        "rumorbd.Logistic is sys.modules['rumorbd.growth'].Logistic, "
        "set(rumorbd.__all__) <= set(dir(rumorbd)))"
    ) == "rumorbd True True True"
    with pytest.raises(AttributeError, match="no_such_name"):
        rumorbd.no_such_name


def _cli_probe(argv, report: str) -> str:
    """Exit code of ``main(argv)`` run in a fresh interpreter, then what
    ``report`` (an expression that may read ``sys``) evaluates to there."""
    return _fresh(f"import sys; from rumorbd.cli import main; rc = main({argv!r}); "
                  f"print(rc, {report})")


_RATES = ["--rates", "constant:2,1", "--j", "1"]
_BUDGET = ["--budget", "50", "--restarts", "1"]


@pytest.mark.parametrize(
    "argv,used,unused",
    [
        (["absorb", *_RATES, "--grid", "0:2:4"], "proportional",
         {"fit", "growth", "oracle", "process"}),
        (["moments", *_RATES, "--grid", "0:2:4"], "moments",
         {"fit", "growth", "oracle", "process"}),
        (["oracle", *_RATES, "--t", "0.5", "--n-max", "20", "--k-max", "20"], "oracle",
         {"fit", "growth", "process", "proportional", "_ode"}),
        (["simulate", *_RATES, "--horizon", "1", "--replicates", "10"], "process",
         {"fit", "growth", "oracle", "proportional", "_ode"}),
        (["fit", "--families", "logistic", *_BUDGET], "fit", {"oracle", "process", "moments"}),
        (["reconstruct-y", "--family", "logistic", "--rho-values", "2", "--grid", "0:5:4",
          *_BUDGET], "fit", {"oracle", "process", "moments"}),
    ],
    ids=["absorb", "moments", "oracle", "simulate", "fit", "reconstruct-y"],
)
def test_a_subcommand_loads_only_the_modules_it_runs(tmp_path, argv, used, unused):
    """A one-shot run compiles and runs no engine module it does not use."""
    if used == "fit":
        data = tmp_path / "cascade.csv"
        _write_logistic_csv(data, n_points=20, horizon=6.0)
        argv = [*argv, "--data", str(data)]
    rc, *loaded = _cli_probe([*argv, "--out", str(tmp_path / "out")], _LOADED).split()
    assert rc == "0"
    assert f"rumorbd.{used}" in loaded
    assert not {f"rumorbd.{m}" for m in unused} & set(loaded)


def _fit_probe(tmp_path, *options):
    """Exit code of a CLI fit in a fresh interpreter, then whether it loaded
    scipy.optimize and scipy.stats."""
    data = tmp_path / "cascade.csv"
    _write_logistic_csv(data, n_points=20, horizon=6.0)
    argv = ["fit", "--data", str(data), "--families", "logistic,gompertz", "--budget", "200",
            "--restarts", "2", *options, "--out", str(tmp_path / "fitout")]
    return _cli_probe(argv, "'scipy.optimize' in sys.modules, 'scipy.stats' in sys.modules")


def test_cli_fit_does_not_load_scipy_stats(tmp_path):
    """An MSE fit runs its own least squares and draws its Latin hypercube
    with numpy, also when it profiles j: it loads neither scipy.optimize nor
    scipy.stats."""
    assert _fit_probe(tmp_path) == "0 False False"
    assert _fit_probe(tmp_path, "--estimate-j") == "0 False False"


def test_cli_rae_fit_loads_scipy_optimize(tmp_path):
    """RAE keeps scipy's Nelder-Mead, imported on first use."""
    assert _fit_probe(tmp_path, "--objective", "rae") == "0 True False"
