"""Spans and exact call counts around rumorbd's public entry points.

Tracing is installed from outside the package: :func:`install` replaces
module attributes and class methods with wrappers and returns an undo list,
so nothing under ``src/`` changes and untraced repetitions run the original
code.  Two kinds of wrapper exist:

* **timed** wrappers record a span (name, duration, parent) for calls that
  cost microseconds or more: the CLI job (the root, recorded by the runner),
  ``process.ensemble``, ``moments.moment_report`` (split by route), every
  public function of ``rumorbd.proportional``, ``oracle.solve_forward``,
  ``rates.rates_from_config``, the fit entry points,
  ``scipy.optimize.minimize`` as ``rumorbd.fit`` calls it, growth-curve
  ``mean_array`` and forgetting-profile ``big_m``;
* **counted** wrappers only bump a counter, for the sub-microsecond pointwise
  calls ``lam_at``/``mu_at``/``total_rate_sup`` and the curve-induced
  ``induced_mu``/``induced_big_m``/``induced_mu_sup``.  Counts are
  attributed to the *entry*, the span the CLI job called directly, by taking
  the difference of the counters across each entry span; so rate
  evaluations made by the oracle are told apart from those made by the
  sampler or the ODE route.

Spans are aggregated in memory per name (count, total, self time) and per
layer (time covered by the outermost span of that layer).  Self time is a
span's duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

_perf = time.perf_counter


class Tracer:
    """In-memory span and counter aggregation for one traced repetition."""

    def __init__(self) -> None:
        self.stack: list[list] = []  # frames: [name, layer, child_time]
        self.spans: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.layer_time: dict[str, float] = defaultdict(float)
        self.layer_depth: Counter = Counter()
        self.cells: dict[str, list[int]] = {}  # counted name -> [calls so far]
        self.counts: Counter = Counter()  # (counted name, entry) -> calls
        self.results: dict[str, list] = defaultdict(list)  # name -> return values

    def cell(self, name: str) -> list[int]:
        return self.cells.setdefault(name, [0])

    def span(self, name: str, layer: str, fn, args, kwargs, keep: bool = False):
        stack = self.stack
        frame = [name, layer, 0.0]
        is_entry = len(stack) == 1  # called directly by the CLI job
        if is_entry:
            before = {k: c[0] for k, c in self.cells.items()}
        stack.append(frame)
        self.layer_depth[layer] += 1
        t0 = _perf()
        try:
            out = fn(*args, **kwargs)
        finally:
            dt = _perf() - t0
            stack.pop()
            self.layer_depth[layer] -= 1
            rec = self.spans[name]
            rec[0] += 1
            rec[1] += dt
            rec[2] += dt - frame[2]
            if not self.layer_depth[layer]:
                self.layer_time[layer] += dt
            if stack:
                stack[-1][2] += dt
            if is_entry:
                for k, c in self.cells.items():
                    if c[0] != before.get(k, 0):
                        self.counts[(k, name)] += c[0] - before.get(k, 0)
        if keep:
            self.results[name].append(out)
        return out


def _timed(tracer: Tracer, name: str, fn, keep: bool = False, route=None):
    layer = name.split(".", 1)[0]

    def wrapper(*args, **kwargs):
        span_name = name if route is None else f"{name}.{route(args, kwargs)}"
        return tracer.span(span_name, layer, fn, args, kwargs, keep)

    return wrapper


def _counted(tracer: Tracer, name: str, fn):
    # pointwise calls are positional and sub-microsecond: keep this wrapper bare
    cell = tracer.cell(name)

    def wrapper(*args):
        cell[0] += 1
        return fn(*args)

    return wrapper


def _moment_route(args, kwargs) -> str:
    rates = args[0]
    method = args[3] if len(args) > 3 else kwargs.get("method", "auto")
    if method == "ode" or (method == "auto" and rates.proportional_view() is None):
        return "ode"
    return "closed"


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap the traced entry points; returns the undo list for :func:`uninstall`."""
    from rumorbd import fit, growth, moments, oracle, process, proportional, rates

    undo: list[tuple[object, str, object]] = []

    def patch(owner, attr: str, make) -> None:
        original = owner.__dict__[attr]
        undo.append((owner, attr, original))
        setattr(owner, attr, make(original))

    patch(process, "ensemble", lambda f: _timed(tracer, "process.ensemble", f, keep=True))
    patch(moments, "moment_report",
          lambda f: _timed(tracer, "moments.moment_report", f, route=_moment_route))
    for name, obj in list(vars(proportional).items()):
        if callable(obj) and not name.startswith("_") and getattr(
            obj, "__module__", None
        ) == proportional.__name__ and not isinstance(obj, type):
            patch(proportional, name, lambda f, n=name: _timed(tracer, f"proportional.{n}", f))
    patch(oracle, "solve_forward",
          lambda f: _timed(tracer, "oracle.solve_forward", f, keep=True))
    patch(rates, "rates_from_config", lambda f: _timed(tracer, "rates.rates_from_config", f))

    for cls in (rates.Constant, rates.Proportional):
        for meth in ("lam_at", "mu_at", "total_rate_sup"):
            patch(cls, meth, lambda f, m=meth: _counted(tracer, f"rates.{m}", f))
    for cls in (rates.ConstantMu, rates.CosineMu, growth.CurveInducedMu):
        patch(cls, "big_m", lambda f: _timed(tracer, "rates.big_m", f))

    for cls in growth.FAMILIES.values():
        patch(cls, "mean_array", lambda f: _timed(tracer, "growth.mean_array", f))
        for meth in ("induced_mu", "induced_big_m", "induced_mu_sup"):
            patch(cls, meth, lambda f: _counted(tracer, "growth.induced", f))

    patch(fit, "dataset_from_csv", lambda f: _timed(tracer, "fit.dataset_from_csv", f))
    patch(fit, "select_model", lambda f: _timed(tracer, "fit.select_model", f))
    patch(fit, "fit_one", lambda f: _timed(tracer, "fit.fit_one", f, keep=True))
    patch(fit, "reconstruct_y", lambda f: _timed(tracer, "fit.reconstruct_y", f))
    # fit_one calls scipy's minimize through the name bound in rumorbd.fit
    patch(fit, "minimize", lambda f: _timed(tracer, "fit.minimize", f, keep=True))
    return undo


def uninstall(undo: list[tuple[object, str, object]]) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def run_root(tracer: Tracer, name: str, fn, *args):
    """Run one CLI job as a root span (layer ``cli``)."""
    return tracer.span(name, "cli", fn, args, {})
