"""One workload run in a fresh process: import the CLI, repeat the job list
until the time is up, check the outputs, print one JSON line.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``; not meant to be run by
hand.  The first thing it does is import ``rumorbd.cli``, so the moment that
import finishes is one set-up sample.

Repetitions run the job list in order through ``rumorbd.cli.main``.  Each
CLI call parses its own rate objects, so the per-instance ``_moment_cache``
and ``_transform_cache`` start cold in every job, as they do for a user.
Repetition 0 keeps its outputs for the checks; later repetitions must
reproduce them byte for byte.  With ``--trace 1`` odd repetitions run under
the tracer and even ones run bare, which gives the tracing overhead.
"""

import time

import rumorbd.cli as cli  # noqa: E402

T_IMPORTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def call_cli(argv: list[str]) -> int:
    """Exit code of ``rumorbd argv``; any escaping exception counts as a failure."""
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad flags this way
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # the job list must go on; the job is counted as failed
        traceback.print_exc(file=sys.stderr)
        return -1


class Capture:
    """Keep what ``oracle.solve_forward`` returns: the CSV omits the leaked mass."""

    def __init__(self) -> None:
        from rumorbd import oracle

        self.module = oracle
        self.original = oracle.solve_forward
        self.grids: list = []

    def __enter__(self):
        def keep(*args, **kwargs):
            grid = self.original(*args, **kwargs)
            self.grids.append(grid)
            return grid

        self.module.solve_forward = keep
        return self

    def __exit__(self, *exc) -> None:
        self.module.solve_forward = self.original


def run_rep(jobs, out_dir: Path, tracer=None) -> dict:
    """Run the job list once: wall and CPU seconds of each job, in job order."""
    out_dir.mkdir(parents=True)
    wall, cpu, codes = [], [], []
    for job in jobs:
        argv = job.argv(out_dir)
        c0 = time.process_time()
        t0 = time.perf_counter()
        if tracer is None:
            code = call_cli(argv)
        else:
            code = tracing.run_root(tracer, f"cli.{job.cmd}", call_cli, argv)
        wall.append(time.perf_counter() - t0)
        cpu.append(time.process_time() - c0)
        codes.append(code)
    return {"wall": wall, "cpu": cpu, "codes": codes}


def same_outputs(jobs, a: Path, b: Path) -> list[bool]:
    out = []
    for job in jobs:
        files = checks.output_files(job, a)
        out.append(all(
            f.exists() and (b / f.name).exists() and f.read_bytes() == (b / f.name).read_bytes()
            for f in files
        ))
    return out


def layer_metrics(tr: "tracing.Tracer", jobs, ref_dir: Path) -> tuple[dict, dict]:
    """Per-layer values of one traced repetition: (timings, exact counts)."""
    spans, counts = tr.spans, tr.counts

    def count(name: str, entry=None, exclude=None) -> int:
        return sum(n for (k, e), n in counts.items()
                   if k == name and (entry is None or e == entry) and e != exclude)

    def span_n(prefix: str) -> int:
        return sum(int(v[0]) for k, v in spans.items() if k.startswith(prefix))

    def span_t(prefix: str) -> float:
        return sum(v[1] for k, v in spans.items() if k.startswith(prefix))

    ensembles = tr.results["process.ensemble"]
    grids = tr.results["oracle.solve_forward"]
    fits = tr.results["fit.fit_one"]
    minimized = tr.results["fit.minimize"]
    oracle_entry = "oracle.solve_forward"
    point = lambda **kw: count("rates.lam_at", **kw) + count("rates.mu_at", **kw)  # noqa: E731
    exact = {
        "cli.rows": sum(checks.data_rows(f) for job in jobs
                        for f in checks.output_files(job, ref_dir) if f.suffix == ".csv"),
        "process.replicates": sum(s.replicates for s in ensembles),
        "process.events": sum(checks.events(ref_dir / j.out, j) for j in jobs
                              if j.cmd == "simulate"),
        "rates.point_evals": point(exclude=oracle_entry),
        "rates.sup_evals": count("rates.total_rate_sup", exclude=oracle_entry),
        "rates.big_m_evals": span_n("rates.big_m"),
        "proportional.calls": span_n("proportional."),
        "oracle.cells": sum(g.p.size for g in grids),
        "oracle.rate_evals": count("rates.lam_at", entry=oracle_entry),
        "growth.mean_array_calls": span_n("growth.mean_array"),
        "growth.induced_evals": count("growth.induced"),
        "fit.objective_evals": sum(fr.n_evals for fr in fits),
        "fit.restarts": len(minimized),
    }
    ensemble_rate_evals = point(entry="process.ensemble")
    closed_n = span_n("moments.moment_report.closed")
    ode_n = span_n("moments.moment_report.ode")
    ode_evals = point(entry="moments.moment_report.ode")
    exact["moments.ode_rate_evals_per_point"] = ode_evals / ode_n if ode_n else 0.0
    exact["process.events_per_rate_eval"] = (
        exact["process.events"] / ensemble_rate_evals if ensemble_rate_evals else 0.0
    )
    exact["fit.budget_exhausted_frac"] = (
        sum(not res.success for res in minimized) / len(minimized) if minimized else 0.0
    )
    exact["oracle.leaked_mass"] = sum(g.leaked_mass for g in grids)

    ens_s = span_t("process.ensemble")
    solve_s = span_t(oracle_entry)
    cell_evals = exact["oracle.cells"] * exact["oracle.rate_evals"]
    timing = {
        "cli.self_s": sum(v[2] for k, v in spans.items() if k.startswith("cli.")),
        "process.ensemble_s": ens_s,
        "process.us_per_replicate": 1e6 * ens_s / exact["process.replicates"]
        if exact["process.replicates"] else 0.0,
        "process.ns_per_event": 1e9 * ens_s / exact["process.events"]
        if exact["process.events"] else 0.0,
        "moments.closed_us_per_point": 1e6 * span_t("moments.moment_report.closed") / closed_n
        if closed_n else 0.0,
        "moments.ode_us_per_point": 1e6 * span_t("moments.moment_report.ode") / ode_n
        if ode_n else 0.0,
        "proportional.us_per_call": 1e6 * tr.layer_time["proportional"]
        / exact["proportional.calls"] if exact["proportional.calls"] else 0.0,
        "oracle.solve_s": solve_s,
        "oracle.ns_per_cell_eval": 1e9 * solve_s / cell_evals if cell_evals else 0.0,
        "growth.mean_array_us": 1e6 * span_t("growth.mean_array")
        / exact["growth.mean_array_calls"] if exact["growth.mean_array_calls"] else 0.0,
        "fit.us_per_eval": 1e6 * span_t("fit.minimize") / exact["fit.objective_evals"]
        if exact["fit.objective_evals"] else 0.0,
    }
    return timing, exact


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--run-dir", required=True)
    args = ap.parse_args()

    run_dir = Path(args.run_dir)
    jobs = workloads.build(args.workload, args.seed, run_dir)
    ref_dir = run_dir / "rep0"
    min_reps = 4 if args.trace else 3

    reps = []
    traced = []  # (timing, exact) per traced repetition
    captured = {}
    start = time.perf_counter()
    longest = 0.0
    while len(reps) < min_reps or time.perf_counter() - start + longest <= args.seconds:
        i = len(reps)
        out_dir = run_dir / f"rep{i}"
        tracer = tracing.Tracer() if args.trace and i % 2 == 1 else None
        undo = tracing.install(tracer) if tracer is not None else []
        try:
            if i == 0:
                with Capture() as cap:
                    rep = run_rep(jobs, out_dir)
                captured["oracle"] = cap.grids[0] if cap.grids else None
            else:
                rep = run_rep(jobs, out_dir, tracer)
        finally:
            tracing.uninstall(undo)
        longest = max(longest, sum(rep["wall"]))
        same = [True] * len(jobs) if i == 0 else same_outputs(jobs, ref_dir, out_dir)
        rep["ok"] = [code == 0 and s for code, s in zip(rep["codes"], same)]
        if tracer is not None:
            traced.append(layer_metrics(tracer, jobs, ref_dir))
        rep["traced"] = tracer is not None
        reps.append(rep)
        if i > 0:
            shutil.rmtree(out_dir)
    measured_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    errors: dict[str, list[str]] = {}
    for k, job in enumerate(jobs):
        if reps[0]["codes"][k] != 0:
            errs = [f"exit code {reps[0]['codes'][k]}"]
        else:
            try:
                errs = checks.CHECKS[job.cmd](job, ref_dir, captured)
            except Exception as exc:  # unreadable output is a failed check, not a crash
                errs = [f"check raised {exc!r}"]
        bad_reps = sum(not r["ok"][k] for r in reps)
        if bad_reps:
            errs.append(f"{bad_reps} repetitions failed or changed the output")
        if errs:
            errors[job.cmd] = errs[:5] + ([f"... {len(errs) - 5} more"] if len(errs) > 5 else [])
    attempted = len(reps) * len(jobs)
    failed = sum(not (r["ok"][k] and jobs[k].cmd not in errors)
                 for r in reps for k in range(len(jobs)))

    bare = [r for r in reps if not r["traced"]]
    result = {
        "t_imported": T_IMPORTED,
        "reps": len(reps),
        "measured_s": measured_s,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "peak_rss_mb": peak_rss_mb,
        "jobs": [job.cmd for job in jobs],
        "job_wall": [[r["wall"][k] for r in bare] for k in range(len(jobs))],
        "job_cpu": [[r["cpu"][k] for r in bare] for k in range(len(jobs))],
        "versions": versions(),
    }
    if args.trace:
        timings = [t for t, _ in traced]
        exacts = [e for _, e in traced]
        result["exact_repeat"] = all(e == exacts[0] for e in exacts)
        layer = dict(exacts[0])
        for name in timings[0]:
            layer[name] = statistics.median(t[name] for t in timings)
        traced_wall = statistics.median(sum(r["wall"]) for r in reps if r["traced"])
        bare_wall = statistics.median(sum(r["wall"]) for r in bare)
        layer["trace.overhead_frac"] = traced_wall / bare_wall - 1.0
        result["layer"] = layer
    shutil.rmtree(ref_dir)
    print(json.dumps(result))
    return 0


def versions() -> dict:
    import numpy
    import scipy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__}


if __name__ == "__main__":
    sys.exit(main())
