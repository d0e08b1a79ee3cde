"""Exact stochastic simulation of the spreader/inactive pair (X(t), Y(t)).

From state (n, k) the process jumps to (n+1, k) at rate n*lam(t) (a spread)
and to (n-1, k+1) at rate n*mu(t) (a forget); {n = 0} is absorbing.  Both
samplers feed one lockstep loop, :func:`_run`, which reads paths off a grid:

* a family with a proportional view (``lam = rho * mu``: constant rates and
  every :class:`Proportional` profile) is the constant-rate (rho, 1) chain
  in operational time ``M(t) = int_0^t mu``.  Blocks of ``_BLOCK``
  replicates advance together on one Philox stream per block, keyed by
  (seed, block): the same law as the earlier stream per replicate, but a
  different realisation.  Event times map back through M^-1, so nothing of
  the profile but ``big_m`` is called;
* an :class:`Explicit` family is thinned in real time against
  n * sup(lam + mu) over adaptive lookahead windows, one replicate at a time
  on a stream keyed by (seed, replicate), bit-identical to earlier releases.

Neither introduces discretization error.  Results are bit-identical for
fixed inputs, and :func:`simulate` replays ``ensemble(replicates=1)``.  A
population cap (default 10**6) guards the supercritical regime: a path
reaching it is frozen there and flagged, never truncated silently.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, check_int, check_j, check_positive, check_times
from .rates import RateFamily, first_passage

_BUF = 256
_MAX_HALVINGS = 60
_MIN_ACCEPT = 0.2
_BLOCK = 4096  # replicates per kernel stream: fixed, so streams depend on nothing else
_FIRST_CHUNK = 8  # jumps per replicate in the first round; the chunk doubles each round
_CELLS = 8192  # ceiling on (active replicates) x (chunk): small rounds, small peak memory
# states up to this size keep a block's int64 sums of squares and products exact
_EXACT = math.isqrt((2**63 - 1) // _BLOCK)


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


def _buffered(draw: Callable[[int], np.ndarray]) -> Iterator[float]:
    """Scalar draws, refilled ``_BUF`` at a time (lists beat ndarray indexing)."""
    while True:
        yield from draw(_BUF).tolist()


def _gen_for(seed: int, key: int) -> np.random.Generator:
    """The Philox stream keyed by (seed, key): a kernel block or a thinned replicate."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(key,))
    return np.random.Generator(np.random.Philox(ss))


def _check_sim_args(j: int, horizon: float, seed: int, cap: int) -> None:
    check_j(j)
    check_positive("horizon", horizon)
    check_int("seed", seed, 0)
    check_int("population cap", cap, j)


def _thin(
    rates: RateFamily, horizon: float, j: int, cap: int, gen: np.random.Generator
) -> tuple[list[float], list[int]]:
    """Jump times and +-1 steps of one path from (j, 0), thinned in real time.

    Each lookahead window is halved until the acceptance ratio at its start
    reaches ``_MIN_ACCEPT``.  The path stops at absorption, at the horizon
    or at a spread reaching ``cap``.
    """
    exp, uni = _buffered(gen.standard_exponential), _buffered(gen.random)
    times: list[float] = []
    steps: list[int] = []
    n, t = j, 0.0
    while n > 0 and t < horizon:
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
            t_cand = t + next(exp) / (n * sup_pc)
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
            if next(uni) * sup_pc <= tot_c:
                spread = next(uni) * tot_c <= lam_c
                times.append(t)
                steps.append(1 if spread else -1)
                n += steps[-1]
                if spread and n >= cap:
                    return times, steps
                break
    return times, steps


def _accumulate(
    acc: np.ndarray, lo: np.ndarray, hi: np.ndarray, x: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """Add each state (x, y) over the grid points [lo, hi) of a difference table.

    ``acc`` has rows for x, x^2, y, y^2, xy, absorbed and capped, over the
    grid plus a spill column; cumulative sums along the rows give the grid
    sums.  It stays int64, exact for ``_BLOCK`` replicates while no state
    exceeds ``_EXACT``, and turns into Python ints past that.
    """
    if not lo.size:
        return acc
    if acc.dtype != object and max(x.max(), y.max()) > _EXACT:
        acc = acc.astype(object)
    if acc.dtype == object:
        x, y = x.astype(object), y.astype(object)
    for row, (a, b) in enumerate(((x, 1), (x, x), (y, 1), (y, y), (x, y))):
        w = a * b
        np.add.at(acc[row], lo, w)
        np.subtract.at(acc[row], hi, w)
    return acc


def _chain(gen: np.random.Generator, rho: float) -> Callable:
    """Jumps of the (rho, 1) chain: total rate n (rho + 1), a spread w.p. rho / (rho + 1)."""

    def chunk(n: np.ndarray, s: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
        clocks = gen.standard_exponential((n.size, width))
        step = np.where(gen.random(clocks.shape) < rho / (rho + 1.0), 1, -1)
        walk = np.cumsum(np.concatenate((n[:, None], step), axis=1), axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):  # walk <= 0 past absorption
            clocks /= walk[:, :-1] * (rho + 1.0)
        clocks[:, 0] += s
        return np.cumsum(clocks, axis=1, out=clocks), walk

    return chunk


def _run(
    chunk: Callable, clock: list[float], end: float, j: int, cap: int, rows: int,
    jumps: list[tuple[float, bool, int, int]] | None = None,
) -> np.ndarray:
    """Advance ``rows`` replicates from (j, 0) in lockstep; return their difference table.

    Each round ``chunk(n, s, width)`` gives the clocks of the next ``width``
    jumps of the replicates at ``n`` spreaders and clock ``s``, and their walk
    (``n``, then the spreaders after each jump); it doubles within ``_CELLS``.
    A replicate takes its jumps up to the first past ``end`` (not taken) or
    the first that absorbs or reaches ``cap`` (taken), which ends it.  The
    state at ``clock[g]`` follows every jump at clocks <= ``clock[g]``.
    ``jumps``, given with one row, receives ``(clock, is_spread, n, k)``.
    """
    clock = np.asarray(clock, dtype=float)
    acc = np.zeros((7, len(clock) + 1), dtype=np.int64)
    n = np.full(rows, j, dtype=np.int64)
    k, gi = np.zeros((2, rows), dtype=np.int64)  # gi: grid points recorded
    s = np.zeros(rows)
    width = _FIRST_CHUNK
    while n.size:
        clocks, walk = chunk(n, s, max(1, min(width, _CELLS // n.size)))
        width = clocks.shape[1]
        # the grid points bounds[r, i] <= g < bounds[r, i + 1] see the state before jump i
        bounds = np.concatenate((gi[:, None], np.searchsorted(clock, clocks)), axis=1)
        past = clocks > end
        stop = (walk[:, 1:] <= 0) | (walk[:, 1:] >= cap)
        first_past = np.where(past.any(axis=1), past.argmax(axis=1), width)
        first_stop = np.where(stop.any(axis=1), stop.argmax(axis=1), width)
        taken = np.where(first_past <= first_stop, first_past, first_stop + 1)
        done = np.minimum(first_past, first_stop) < width
        r, i = np.nonzero((np.arange(width) < taken[:, None]) & (bounds[:, :-1] < bounds[:, 1:]))
        n_before = walk[r, i]
        k_before = k[r] + (i - n_before + n[r]) // 2  # forgets = (jumps - net spreads) / 2
        acc = _accumulate(acc, bounds[r, i], bounds[r, i + 1], n_before, k_before)
        if jumps is not None:  # zip stops at the taken jumps
            step = np.diff(walk[0, : taken[0] + 1])
            jumps.extend(zip(clocks[0].tolist(), (step > 0).tolist(), walk[0, 1:].tolist(),
                             (k[0] + np.cumsum(step < 0)).tolist()))
        at = (np.arange(n.size), taken)
        k += (taken - walk[at] + n) // 2
        n, gi, s = walk[at], bounds[at], clocks[:, -1]  # s matters only where all were taken
        acc = _accumulate(acc, gi[done], np.full(done.sum(), len(clock)), n[done], k[done])
        np.add.at(acc[5], gi[done & (n == 0)], 1)
        np.add.at(acc[6], gi[done & (n >= cap)], 1)
        n, k, gi, s = n[~done], k[~done], gi[~done], s[~done]
        width *= 2
    return acc


def _tables(
    rates: RateFamily, horizon: float, grid: list[float], j: int, cap: int, seed: int,
    replicates: int, jumps: list[tuple[float, bool, int, int]] | None = None,
) -> Iterator[np.ndarray]:
    """The replicates' difference tables on ``grid``, one per stream (see :func:`_run`)."""
    view = rates.proportional_view()
    if view is None:  # thinning in real time, a stream per replicate
        for ridx in range(replicates):
            times, steps = _thin(rates, horizon, j, cap, _gen_for(seed, ridx))
            # one chunk, ended by a jump past the horizon
            path = np.array([times + [math.inf]]), np.cumsum([[j] + steps + [1]], axis=1)
            yield _run(lambda *_: path, grid, horizon, j, cap, 1, jumps)
    else:  # the (rho, 1) chain in operational time, a stream per block
        m = view[1].big_m(grid + [horizon])  # one vector call: the grid, then the horizon
        clock, end = m[:-1], float(m[-1])
        for block, first in enumerate(range(0, replicates, _BLOCK)):
            chunk = _chain(_gen_for(seed, block), view[0])
            yield _run(chunk, clock, end, j, cap, min(_BLOCK, replicates - first), jumps)


def simulate(
    rates: RateFamily,
    j: int,
    horizon: float,
    seed: int,
    cap: int = 10**6,
) -> Trajectory:
    """Sample one exact trajectory from state (j, 0).

    Stops at absorption (n = 0), at the horizon, or on reaching the
    population cap (flagged via ``cap_hit``).  It replays
    ``ensemble(replicates=1)`` for this seed: the same stream and sampler.
    """
    _check_sim_args(j, horizon, seed, cap)
    rates.validate_horizon(horizon)
    jumps: list[tuple[float, bool, int, int]] = []
    next(_tables(rates, horizon, [], j, cap, seed, 1, jumps))
    view = rates.proportional_view()
    t = 0.0
    events: list[Event] = []
    for s, spread, n_after, k_after in jumps:
        # M is nondecreasing, so the previous event time brackets this one
        t = s if view is None else first_passage(view[1], s, t, horizon)
        events.append(Event(t, "spread" if spread else "forget", n_after, k_after))
    n, k = (events[-1].n, events[-1].k) if events else (j, 0)
    return Trajectory(
        initial_j=j,
        horizon=horizon,
        events=events,
        absorbed=n == 0,
        cap_hit=bool(events) and events[-1].kind == "spread" and n >= cap,
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
    check_int("replicates", replicates, 1)
    grid_f = [float(g) for g in grid]
    if not grid_f:
        raise DomainError("grid must contain at least one time point")
    check_times(grid_f)
    if grid_f[-1] > horizon:
        raise DomainError(
            f"grid must lie within [0, horizon={horizon}], got "
            f"[{grid_f[0]}, {grid_f[-1]}]"
        )
    rates.validate_horizon(horizon)
    # integer sums are exact, so the statistics do not depend on summation order
    g_len = len(grid_f)
    sums = np.zeros((7, g_len), dtype=object)
    for acc in _tables(rates, horizon, grid_f, j, cap, seed, replicates):
        sums += np.cumsum(acc[:, :g_len], axis=1).astype(object)
    sx, sxx, sy, syy, sxy, n_abs, n_cap = sums.astype(float)

    r = float(replicates)
    # one replicate leaves 0/0 here, exactly: NaN, as ddof=1 asks
    with np.errstate(invalid="ignore", divide="ignore"):
        var_x = np.maximum((sxx - sx * sx / r) / (r - 1.0), 0.0)
        var_y = np.maximum((syy - sy * sy / r) / (r - 1.0), 0.0)
        cov = (sxy - sx * sy / r) / (r - 1.0)
        corr = np.where((var_x > 0.0) & (var_y > 0.0), cov / np.sqrt(var_x * var_y), math.nan)

    return EnsembleStats(
        replicates=replicates,
        j=j,
        horizon=horizon,
        seed=seed,
        grid=np.asarray(grid_f),
        mean_x=sx / r,
        var_x=var_x,
        mean_y=sy / r,
        var_y=var_y,
        cov=cov,
        corr=corr,
        absorbed_frac=n_abs / r,
        se_x=np.sqrt(var_x / r),
        se_y=np.sqrt(var_y / r),
        cap_frac=n_cap / r,
    )
