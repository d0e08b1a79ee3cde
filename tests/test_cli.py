"""Command-line interface: schemas, subcommand output, config precedence,
and exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import _closed_forms as cf
import rumorbd
from rumorbd import cli
from rumorbd.cli import main
from rumorbd import growth


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
    ],
)
def test_exit_codes_for_bad_usage(capsys, argv, code):
    rc, out, err = _run(capsys, argv)
    assert rc == code
    assert err != ""


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


def test_cli_import_does_not_load_scipy_solvers():
    """Cold start: scipy.optimize and scipy.integrate load on first use only."""
    probe = (
        "import sys, rumorbd.cli; "
        "print(sorted(m for m in ('scipy.optimize', 'scipy.integrate') if m in sys.modules))"
    )
    res = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=_checkout_env()
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def test_cli_fit_does_not_load_scipy_stats(tmp_path):
    """The fit's Latin hypercube is drawn with numpy: scipy.stats stays unloaded."""
    data = tmp_path / "cascade.csv"
    _write_logistic_csv(data, n_points=20, horizon=6.0)
    probe = (
        "import sys; from rumorbd.cli import main; "
        f"rc = main(['fit', '--data', {str(data)!r}, '--families', 'logistic,gompertz', "
        f"'--budget', '200', '--restarts', '2', '--out', {str(tmp_path / 'fitout')!r}]); "
        "print(rc, 'scipy.optimize' in sys.modules, 'scipy.stats' in sys.modules)"
    )
    res = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=_checkout_env()
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "0 True False"
