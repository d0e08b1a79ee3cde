"""rumorbd benchmark: one workload, timed through the CLI, outputs checked.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload constant --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the line before it
is the run record (git sha, machine, versions, samples, spreads).  Job
outputs go to ``.perfbench/`` in the checkout and are removed at the end.
See ``perfbench/README.md`` for the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("constant", "seasonal", "growth")
SETUP_PROBES = 4  # fresh interpreters that only import the CLI; the worker is one more
TIME_LIMIT_S = 170.0  # the whole run, probes and checks included
PROBE = "import rumorbd.cli, time; print(repr(time.perf_counter()))"

END_TO_END = {  # name -> unit
    "setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "ok_frac": "fraction",
}
JOB_TIMES = {  # per-layer name -> subcommand; 0 where the workload does not run it
    "job.simulate_s": "simulate", "job.moments_s": "moments", "job.absorb_s": "absorb",
    "job.oracle_s": "oracle", "job.fit_s": "fit", "job.reconstruct_s": "reconstruct-y",
}
PER_LAYER = {
    **dict.fromkeys(JOB_TIMES, "s"),
    "cli.self_s": "s", "cli.rows": "count",
    "process.ensemble_s": "s", "process.replicates": "count", "process.events": "count",
    "process.us_per_replicate": "us", "process.ns_per_event": "ns",
    "process.events_per_rate_eval": "ratio",
    "rates.point_evals": "count", "rates.sup_evals": "count", "rates.big_m_evals": "count",
    "moments.closed_us_per_point": "us", "moments.ode_us_per_point": "us",
    "moments.ode_rate_evals_per_point": "ratio",
    "proportional.calls": "count", "proportional.us_per_call": "us",
    "oracle.solve_s": "s", "oracle.cells": "count", "oracle.rate_evals": "count",
    "oracle.ns_per_cell_eval": "ns", "oracle.leaked_mass": "probability",
    "growth.mean_array_calls": "count", "growth.mean_array_us": "us",
    "growth.induced_evals": "count",
    "fit.objective_evals": "count", "fit.us_per_eval": "us", "fit.restarts": "count",
    "fit.budget_exhausted_frac": "fraction",
    "trace.overhead_frac": "fraction",
}


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def git_sha(root: Path) -> str:
    """HEAD of the checkout read from .git directly; 'unknown' outside git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def spread(values: list[float]) -> dict:
    if len(values) < 2:
        return {"n": len(values), "min": values[0] if values else None}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "min": min(values), "median": q2, "q1": q1, "q3": q3}


def run_probe(env: dict) -> float:
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                         text=True, timeout=20, check=True)
    return float(out.stdout.strip()) - t0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    started = time.perf_counter()
    root = Path.cwd()
    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    if not (root / "src" / "rumorbd" / "cli.py").is_file():
        return fail(f"no rumorbd sources under {root / 'src'}; run from a checkout root")
    if args.seed < 0 or not 0 < args.seconds <= 60:
        return fail("--seed must be >= 0 and --seconds in (0, 60]")

    env = dict(os.environ)
    env.pop("RUMORBD_THREADS", None)  # the default worker count
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    run_dir = root / ".perfbench" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)
    try:
        setup = [] if args.trace else [run_probe(env) for _ in range(SETUP_PROBES)]
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", str(args.trace), "--run-dir", str(run_dir)]
        t_spawn = time.perf_counter()
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=TIME_LIMIT_S - (t_spawn - started))
    except subprocess.TimeoutExpired as exc:
        return fail(f"timed out: {exc}")
    except subprocess.CalledProcessError as exc:
        return fail(f"set-up probe failed: {exc.stderr.strip()[-2000:]}")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return fail(f"worker exited with code {proc.returncode}")
    sys.stderr.write(proc.stderr)  # tracebacks of failed jobs, if any
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    setup.append(res["t_imported"] - t_spawn)

    # A job's time is its median over the untraced repetitions.  Other
    # tenants slow this host for seconds to minutes at a time, which moves a
    # job's fastest repetition as well; over ten runs the median spread less.
    job_wall = [statistics.median(v) for v in res["job_wall"]]
    job_cpu = [statistics.median(v) for v in res["job_cpu"]]
    if args.trace:
        metrics = dict(res["layer"])
        for name, cmd_name in JOB_TIMES.items():
            metrics[name] = sum((t for c, t in zip(res["jobs"], job_wall) if c == cmd_name), 0.0)
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": sum(job_wall),
            "cpu_s": sum(job_cpu),
            "peak_rss_mb": res["peak_rss_mb"],
            "ok_frac": 1.0 - res["failed"] / res["attempted"],
        }
        units = END_TO_END
    correct = res["failed"] == 0 and res.get("exact_repeat", True)

    record = {
        "git_sha": git_sha(root),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        **res["versions"],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": len(res["job_wall"][0]),
        "repetitions": res["reps"],
        "measured_s": res["measured_s"],
        "setup_samples": setup,
        "spreads": {  # over untraced repetitions
            "wall_s": spread([sum(r) for r in zip(*res["job_wall"])]),
            "cpu_s": spread([sum(r) for r in zip(*res["job_cpu"])]),
            **{f"{c}_s": spread(v) for c, v in zip(res["jobs"], res["job_wall"])},
        },
        "errors": res["errors"],
    }
    if args.trace:
        record["trace_overhead_frac"] = res["layer"]["trace.overhead_frac"]
        record["exact_counts_repeat"] = res["exact_repeat"]
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
