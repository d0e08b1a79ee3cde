"""Exact stochastic simulation of the spreader/inactive pair (X(t), Y(t)).

From state (n, k) the process jumps to (n+1, k) at rate n*lam(t) (a spread)
and to (n-1, k+1) at rate n*mu(t) (a forget); {n = 0} is absorbing.  Constant
rates use the classical exponential-clock scheme.  Time-varying rates use
exact Ogata-style thinning against the dominating rate n * sup(lam + mu)
taken over adaptive lookahead windows (halved until the acceptance ratio at
the window start reaches 0.2), so no discretization error enters either way.

Each replicate draws from its own counter-based stream (Philox keyed by
(seed, replicate index)): ensembles are reproducible replicate by replicate
and safe to fan across threads.  Partial sums are reduced in chunk order, so
results are bit-identical regardless of scheduling; the worker count is
capped by the RUMORBD_THREADS environment variable (default 1).

A hard population cap (default 10**6) guards the supercritical regime, where
the spreader count grows exponentially in mean: a trajectory reaching the cap
is frozen there and flagged, never silently truncated.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DataError, DomainError, check_j
from .rates import Constant, ConstantMu, Proportional, RateFamily

_CHUNK = 1024
_BUF = 256
_MAX_HALVINGS = 60
_MIN_ACCEPT = 0.2


class Event(NamedTuple):
    time: float
    kind: str  # "spread" | "forget"
    n: int
    k: int


@dataclass(eq=False)
class Trajectory:
    """One sampled path: events carry the state *after* each jump."""

    initial_j: int
    horizon: float
    events: list[Event]
    absorbed: bool
    cap_hit: bool
    final_n: int
    final_k: int


@dataclass(eq=False)
class EnsembleStats:
    """Per-grid-point sample statistics over independent replicates.

    Variances and covariances use ddof=1; correlation is NaN wherever either
    variance vanishes.  ``cap_frac`` is the data-quality field: the fraction
    of replicates frozen at the population cap by each grid time (their
    frozen states bias the moments high-side-down, so any nonzero value
    warrants a larger cap).
    """

    replicates: int
    j: int
    horizon: float
    seed: int
    grid: np.ndarray
    mean_x: np.ndarray
    var_x: np.ndarray
    mean_y: np.ndarray
    var_y: np.ndarray
    cov: np.ndarray
    corr: np.ndarray
    absorbed_frac: np.ndarray
    se_x: np.ndarray
    se_y: np.ndarray
    cap_frac: np.ndarray


class _Draws:
    """Buffered scalar draws from one generator (lists beat ndarray indexing)."""

    __slots__ = ("gen", "_exp", "_ei", "_uni", "_ui")

    def __init__(self, gen: np.random.Generator) -> None:
        self.gen = gen
        self._exp: list[float] = []
        self._ei = 0
        self._uni: list[float] = []
        self._ui = 0

    def exp(self) -> float:
        if self._ei >= len(self._exp):
            self._exp = self.gen.standard_exponential(_BUF).tolist()
            self._ei = 0
        v = self._exp[self._ei]
        self._ei += 1
        return v

    def uni(self) -> float:
        if self._ui >= len(self._uni):
            self._uni = self.gen.random(_BUF).tolist()
            self._ui = 0
        v = self._uni[self._ui]
        self._ui += 1
        return v


def _gen_for(seed: int, replicate: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(replicate,))
    return np.random.Generator(np.random.Philox(ss))


def _constant_rates(rates: RateFamily) -> tuple[float, float] | None:
    """(lam, mu) when the family is constant in time, else None."""
    if isinstance(rates, Constant):
        return rates.lam, rates.mu
    if isinstance(rates, Proportional) and isinstance(rates.base_mu, ConstantMu):
        mu = rates.base_mu.mu
        return rates.rho * mu, mu
    return None


def _check_sim_args(j: int, horizon: float, seed: int, cap: int) -> None:
    check_j(j)
    if not (horizon > 0.0 and math.isfinite(horizon)):
        raise DomainError(f"horizon must be positive and finite, got {horizon}")
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise DomainError(f"seed must be a nonnegative integer, got {seed!r}")
    if not isinstance(cap, int) or isinstance(cap, bool) or cap < j:
        raise DomainError(f"population cap must be an integer >= j={j}, got {cap!r}")


def _next_event(
    rates: RateFamily, n: int, t: float, horizon: float, d: _Draws
) -> tuple[float, bool] | None:
    """Next jump time and type via thinning; None when the horizon is reached."""
    while t < horizon:
        width = horizon - t
        tot_now = rates.lam_at(t) + rates.mu_at(t)
        sup_pc = rates.total_rate_sup(t, t + width)
        halvings = 0
        while tot_now > 0.0 and sup_pc * _MIN_ACCEPT > tot_now and halvings < _MAX_HALVINGS:
            width *= 0.5
            halvings += 1
            sup_pc = rates.total_rate_sup(t, t + width)
        end = min(t + width, horizon)
        if sup_pc <= 0.0:
            t = end  # rates vanish on the whole window: nothing can fire
            continue
        while t < end:
            t_cand = t + d.exp() / (n * sup_pc)
            if t_cand >= end:
                t = end
                break
            t = t_cand
            lam_c = rates.lam_at(t)
            tot_c = lam_c + rates.mu_at(t)
            if tot_c > sup_pc * (1.0 + 1e-9):
                raise DomainError(
                    "declared rate supremum violated: lam(t)+mu(t) = "
                    f"{tot_c:.6g} > sup {sup_pc:.6g} on [{t:.6g}, {end:.6g}]"
                )
            if d.uni() * sup_pc <= tot_c:
                return t, d.uni() * tot_c <= lam_c
    return None


def simulate(
    rates: RateFamily,
    j: int,
    horizon: float,
    seed: int,
    cap: int = 10**6,
) -> Trajectory:
    """Sample one exact trajectory from state (j, 0).

    Stops at absorption (n = 0), at the horizon, or on reaching the
    population cap (flagged via ``cap_hit``).  The stream is the same one
    replicate 0 of :func:`ensemble` would use for this seed.
    """
    _check_sim_args(j, horizon, seed, cap)
    rates.validate_horizon(horizon)
    d = _Draws(_gen_for(seed, 0))
    n, k, t = j, 0, 0.0
    events: list[Event] = []
    absorbed = False
    cap_hit = False

    cr = _constant_rates(rates)
    if cr is not None:
        lam, mu = cr
        tot = lam + mu
        p_spread = lam / tot
        while n > 0:
            t_next = t + d.exp() / (n * tot)
            if t_next > horizon:
                break
            t = t_next
            if d.uni() < p_spread:
                n += 1
                events.append(Event(t, "spread", n, k))
                if n >= cap:
                    cap_hit = True
                    break
            else:
                n -= 1
                k += 1
                events.append(Event(t, "forget", n, k))
                if n == 0:
                    absorbed = True
                    break
    else:
        while n > 0:
            nxt = _next_event(rates, n, t, horizon, d)
            if nxt is None:
                break
            t, is_spread = nxt
            if is_spread:
                n += 1
                events.append(Event(t, "spread", n, k))
                if n >= cap:
                    cap_hit = True
                    break
            else:
                n -= 1
                k += 1
                events.append(Event(t, "forget", n, k))
                if n == 0:
                    absorbed = True
                    break

    return Trajectory(
        initial_j=j,
        horizon=horizon,
        events=events,
        absorbed=absorbed,
        cap_hit=cap_hit,
        final_n=n,
        final_k=k,
    )


def _chunk_sums(
    rates: RateFamily,
    j: int,
    horizon: float,
    grid: list[float],
    seed: int,
    lo: int,
    hi: int,
    cap: int,
) -> tuple[list[float], ...]:
    """Partial per-grid-point sums over replicates [lo, hi)."""
    g_len = len(grid)
    sx = [0.0] * g_len
    sxx = [0.0] * g_len
    sy = [0.0] * g_len
    syy = [0.0] * g_len
    sxy = [0.0] * g_len
    n_abs = [0.0] * g_len
    n_cap = [0.0] * g_len

    cr = _constant_rates(rates)
    if cr is not None:
        lam, mu = cr
        tot = lam + mu
        p_spread = lam / tot

    for ridx in range(lo, hi):
        d = _Draws(_gen_for(seed, ridx))
        n, k, t = j, 0, 0.0
        gi = 0
        t_cap = math.inf
        if cr is not None:
            while n > 0:
                t_next = t + d.exp() / (n * tot)
                if t_next > horizon:
                    break
                while gi < g_len and grid[gi] < t_next:
                    fn = float(n)
                    fk = float(k)
                    sx[gi] += fn
                    sxx[gi] += fn * fn
                    sy[gi] += fk
                    syy[gi] += fk * fk
                    sxy[gi] += fn * fk
                    gi += 1
                t = t_next
                if d.uni() < p_spread:
                    n += 1
                    if n >= cap:
                        t_cap = t
                        break
                else:
                    n -= 1
                    k += 1
                    if n == 0:
                        break
        else:
            while n > 0:
                nxt = _next_event(rates, n, t, horizon, d)
                if nxt is None:
                    break
                t_next, is_spread = nxt
                while gi < g_len and grid[gi] < t_next:
                    fn = float(n)
                    fk = float(k)
                    sx[gi] += fn
                    sxx[gi] += fn * fn
                    sy[gi] += fk
                    syy[gi] += fk * fk
                    sxy[gi] += fn * fk
                    gi += 1
                t = t_next
                if is_spread:
                    n += 1
                    if n >= cap:
                        t_cap = t
                        break
                else:
                    n -= 1
                    k += 1
                    if n == 0:
                        break
        # grid points at/after the last transition see the frozen final state
        fn = float(n)
        fk = float(k)
        while gi < g_len:
            sx[gi] += fn
            sxx[gi] += fn * fn
            sy[gi] += fk
            syy[gi] += fk * fk
            sxy[gi] += fn * fk
            if n == 0:
                n_abs[gi] += 1.0
            if grid[gi] >= t_cap:
                n_cap[gi] += 1.0
            gi += 1
    return sx, sxx, sy, syy, sxy, n_abs, n_cap


def _worker_count() -> int:
    raw = os.environ.get("RUMORBD_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError as exc:
        raise DataError(f"RUMORBD_THREADS must be an integer, got {raw!r}") from exc
    return max(1, workers)


def ensemble(
    rates: RateFamily,
    j: int,
    horizon: float,
    grid: list[float],
    replicates: int,
    seed: int,
    cap: int = 10**6,
) -> EnsembleStats:
    """Monte Carlo statistics over independent replicates, recorded on a grid.

    The state reported at grid time g is the state after all events with
    time <= g (right-continuous paths).  Given a seed the result is
    bit-identical however many worker threads run.
    """
    _check_sim_args(j, horizon, seed, cap)
    if not isinstance(replicates, int) or isinstance(replicates, bool) or replicates < 1:
        raise DomainError(f"replicates must be an integer >= 1, got {replicates!r}")
    grid_f = [float(g) for g in grid]
    if not grid_f:
        raise DomainError("grid must contain at least one time point")
    for a, b in zip(grid_f, grid_f[1:]):
        if b < a:
            raise DomainError("grid times must be nondecreasing")
    if grid_f[0] < 0.0 or grid_f[-1] > horizon:
        raise DomainError(
            f"grid must lie within [0, horizon={horizon}], got "
            f"[{grid_f[0]}, {grid_f[-1]}]"
        )
    rates.validate_horizon(horizon)

    spans = [(lo, min(lo + _CHUNK, replicates)) for lo in range(0, replicates, _CHUNK)]
    workers = min(_worker_count(), len(spans))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_chunk_sums, rates, j, horizon, grid_f, seed, lo, hi, cap)
                for lo, hi in spans
            ]
            partials = [f.result() for f in futures]  # reduced in chunk order
    else:
        partials = [
            _chunk_sums(rates, j, horizon, grid_f, seed, lo, hi, cap)
            for lo, hi in spans
        ]

    g_len = len(grid_f)
    totals = [np.zeros(g_len) for _ in range(7)]
    for part in partials:
        for acc, chunk in zip(totals, part):
            acc += np.asarray(chunk)
    sx, sxx, sy, syy, sxy, n_abs, n_cap = totals

    r = float(replicates)
    mean_x = sx / r
    mean_y = sy / r
    if replicates > 1:
        var_x = np.maximum((sxx - sx * sx / r) / (r - 1.0), 0.0)
        var_y = np.maximum((syy - sy * sy / r) / (r - 1.0), 0.0)
        cov = (sxy - sx * sy / r) / (r - 1.0)
    else:
        var_x = np.full(g_len, math.nan)
        var_y = np.full(g_len, math.nan)
        cov = np.full(g_len, math.nan)
    with np.errstate(invalid="ignore", divide="ignore"):
        corr = np.where(
            (var_x > 0.0) & (var_y > 0.0), cov / np.sqrt(var_x * var_y), math.nan
        )
        se_x = np.sqrt(var_x / r)
        se_y = np.sqrt(var_y / r)

    return EnsembleStats(
        replicates=replicates,
        j=j,
        horizon=horizon,
        seed=seed,
        grid=np.asarray(grid_f),
        mean_x=mean_x,
        var_x=var_x,
        mean_y=mean_y,
        var_y=var_y,
        cov=cov,
        corr=corr,
        absorbed_frac=n_abs / r,
        se_x=se_x,
        se_y=se_y,
        cap_frac=n_cap / r,
    )
