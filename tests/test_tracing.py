"""The benchmark's tracer patches rumorbd by attribute name: every name it
patches must exist, and uninstalling must put every original back."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

import rumorbd
from rumorbd import fit, growth

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _namespaces():
    """Every rumorbd module and every class defined in one."""
    modules = [m for name, m in sorted(sys.modules.items()) if name.startswith("rumorbd")]
    return modules + [obj for m in modules for obj in vars(m).values()
                      if isinstance(obj, type) and obj.__module__ == m.__name__]


def _changed(owners, saved):
    return [(owner, name) for owner, names in zip(owners, saved)
            for name, value in names.items() if vars(owner).get(name) is not value]


def test_tracer_installs_on_every_patched_name_and_uninstall_restores_them():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    owners = _namespaces()
    saved = [dict(vars(owner)) for owner in owners]
    try:
        undo = tracing.install(tracer)
        assert not [(owner, attr) for owner, attr, original in undo
                    if owner.__dict__[attr] is original]
        growth.Logistic(c=10.0, r=1.2).mean(0.5)
        assert tracer.spans["growth.mean_array"][0] == 1
        tracing.uninstall(undo)
        assert not _changed(owners, saved)
    finally:
        # a failed install leaves its patches in place: undo them for the
        # tests that run after this one
        for owner, name in _changed(owners, saved):
            setattr(owner, name, saved[owners.index(owner)][name])
    patched = {(owner, attr) for owner, attr, _ in undo}
    assert (rumorbd.rates.Proportional, "total_rate_sup") in patched
    for cls in growth.FAMILIES.values():
        assert {(cls, "mean_array"), (cls, "induced_mu_sup")} <= patched


def test_a_traced_model_selection_keeps_what_the_benchmark_reads():
    """The benchmark's fit metrics count the kept ``fit.minimize`` results
    and read their ``success`` and ``nfev``: a lockstep batch's and a
    Nelder-Mead polish's alike."""
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    t = [0.5 * i for i in range(20)]
    ds = fit.Dataset("logistic", t, [float(growth.Logistic(c=40.0, r=0.9).mean(s)) for s in t])
    undo = tracing.install(tracer)
    try:
        fit.select_model(ds, ["logistic", "korf"], "rae", 200, restarts=2, seed=0)
    finally:
        tracing.uninstall(undo)
    kept = tracer.results["fit.minimize"]
    assert tracer.spans["fit.minimize"][0] == len(kept) == 3  # one batch, two polishes
    for res in kept:
        assert res.success in (True, False) and int(np.sum(res.nfev)) > 0
