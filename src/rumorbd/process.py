"""Exact stochastic simulation of the spreader/inactive pair (X(t), Y(t)).

From state (n, k) the process jumps to (n+1, k) at rate n*lam(t) (a spread)
and to (n-1, k+1) at rate n*mu(t) (a forget); {n = 0} is absorbing.  One
event loop serves :func:`simulate` and :func:`ensemble`, on one of two clocks:

* a family with a proportional view (``lam = rho * mu``: constant rates and
  every :class:`Proportional` profile) runs in operational time
  ``M(t) = int_0^t mu``, where it is the constant-rate (rho, 1) chain: jumps
  at total rate n (rho + 1), a spread with probability rho / (rho + 1).
  Grid times are mapped forward through M; trajectory event times are mapped
  back through M^-1 (closed for constant mu, a bracketed root otherwise), so
  the sampler calls nothing of the profile but ``big_m``;
* any other family (:class:`Explicit`) runs in real time by Ogata-style
  thinning against the dominating rate n * sup(lam + mu) taken over adaptive
  lookahead windows (halved until the acceptance ratio at the window start
  reaches 0.2).

Neither clock introduces discretization error.  Each replicate draws from its
own counter-based stream (Philox keyed by (seed, replicate index)), so a
result depends only on its inputs, and :func:`simulate` replays replicate 0
of :func:`ensemble` for the same seed.

A hard population cap (default 10**6) guards the supercritical regime, where
the spreader count grows exponentially in mean: a trajectory reaching the cap
is frozen there and flagged, never silently truncated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, check_j, check_time
from .rates import MuBase, RateFamily, first_passage

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


def _path(
    rates: RateFamily,
    view: tuple[float, MuBase] | None,
    end: float,
    j: int,
    d: _Draws,
    cap: int,
    clock: list[float],
    jumps: list[tuple[float, bool, int, int]] | None = None,
) -> tuple[list[tuple[int, int]], int, int, float]:
    """Run one path from state (j, 0) until absorption, past ``end`` or the cap.

    ``view`` is ``rates.proportional_view()``; with one the clock is
    operational time M(t), otherwise real time, and ``end`` and ``clock`` (a
    nondecreasing grid) are on that clock.  Returns ``(states, n, k, s_cap)``:
    ``states[i]`` is the (right-continuous) state at ``clock[i]`` for the grid
    points before the last jump, later points see the final state (n, k), and
    ``s_cap`` is the clock at which a spread reached ``cap`` (inf if none).
    ``jumps``, when given, receives ``(clock, is_spread, n, k)`` after each jump.
    """
    if view is not None:
        tot = view[0] + 1.0
        p_spread = view[0] / tot
    g_len = len(clock)
    states: list[tuple[int, int]] = []
    gi = 0
    n, k, s = j, 0, 0.0
    while n > 0:
        if view is None:
            nxt = _next_event(rates, n, s, end, d)
            if nxt is None:
                break
            s, spread = nxt
        else:
            s += d.exp() / (n * tot)
            if s > end:
                break
            spread = d.uni() < p_spread
        while gi < g_len and clock[gi] < s:
            states.append((n, k))
            gi += 1
        if spread:
            n += 1
        else:
            n -= 1
            k += 1
        if jumps is not None:
            jumps.append((s, spread, n, k))
        if spread and n >= cap:
            return states, n, k, s
    return states, n, k, math.inf


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
    view = rates.proportional_view()
    end = horizon if view is None else view[1].big_m(horizon)
    d = _Draws(_gen_for(seed, 0))
    jumps: list[tuple[float, bool, int, int]] = []
    _, n, k, s_cap = _path(rates, view, end, j, d, cap, [], jumps)
    t = 0.0
    events: list[Event] = []
    for s, spread, n_after, k_after in jumps:
        # M is nondecreasing, so the previous event time brackets this one
        t = s if view is None else first_passage(view[1], s, t, horizon)
        events.append(Event(t, "spread" if spread else "forget", n_after, k_after))

    return Trajectory(
        initial_j=j,
        horizon=horizon,
        events=events,
        absorbed=n == 0,
        cap_hit=s_cap < math.inf,
        final_n=n,
        final_k=k,
    )


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
    bit-identical on every run.
    """
    _check_sim_args(j, horizon, seed, cap)
    if not isinstance(replicates, int) or isinstance(replicates, bool) or replicates < 1:
        raise DomainError(f"replicates must be an integer >= 1, got {replicates!r}")
    grid_f = [float(g) for g in grid]
    if not grid_f:
        raise DomainError("grid must contain at least one time point")
    for g in grid_f:
        check_time(g)
    for a, b in zip(grid_f, grid_f[1:]):
        if b < a:
            raise DomainError("grid times must be nondecreasing")
    if grid_f[-1] > horizon:
        raise DomainError(
            f"grid must lie within [0, horizon={horizon}], got "
            f"[{grid_f[0]}, {grid_f[-1]}]"
        )
    rates.validate_horizon(horizon)
    view = rates.proportional_view()
    if view is None:
        end, clock = horizon, grid_f
    else:
        end, clock = view[1].big_m(horizon), [view[1].big_m(g) for g in grid_f]

    # integer sums are exact, so the statistics do not depend on summation order
    g_len = len(grid_f)
    sx = [0] * g_len
    sxx = [0] * g_len
    sy = [0] * g_len
    syy = [0] * g_len
    sxy = [0] * g_len
    n_abs = [0] * g_len
    n_cap = [0] * g_len
    for ridx in range(replicates):
        d = _Draws(_gen_for(seed, ridx))
        states, n, k, s_cap = _path(rates, view, end, j, d, cap, clock)
        for gi, (x, y) in enumerate(states):
            sx[gi] += x
            sxx[gi] += x * x
            sy[gi] += y
            syy[gi] += y * y
            sxy[gi] += x * y
        # grid points at/after the last transition see the frozen final state
        for gi in range(len(states), g_len):
            sx[gi] += n
            sxx[gi] += n * n
            sy[gi] += k
            syy[gi] += k * k
            sxy[gi] += n * k
            if n == 0:
                n_abs[gi] += 1
            if clock[gi] >= s_cap:
                n_cap[gi] += 1
    sx, sxx, sy, syy, sxy, n_abs, n_cap = (
        np.array(v, dtype=float) for v in (sx, sxx, sy, syy, sxy, n_abs, n_cap)
    )

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
