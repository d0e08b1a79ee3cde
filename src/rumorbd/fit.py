"""Curve fitting for diffusion time series: objectives, multi-start search,
model selection, and inactive-mean reconstruction.

Fitting minimizes MSE or RAE over each family's parameter box from
Latin-hypercube starts, positive parameters searched in log scale.  The
families with the same number of parameters are one fit (:class:`_Batch`):
one dataset at one j and rho, one box per family, declared by the roles of
its parameters.  Both criteria run one multi-start search, bounded least
squares by a Levenberg-Marquardt written in numpy (:func:`_lockstep_lm`):
each round is one call of the batch's residuals y - m(t) on every restart's
trial point, in its own box, and the Jacobian columns there.  A fit is a
model selection of one family, and a restart ends the same whichever rows
share its batch.  MSE is that search; RAE is not smooth, so it then runs one
scipy Nelder-Mead per family from the best point the search met, and only
RAE fits import scipy.optimize.
The initial spreader count j is pinned to the first observation by default —
the model requires X(0) = j and the series starts at the first post — or,
with ``estimate_j``, profiled over the integers (:func:`_profile_argmin`).
The rate ratio rho is never estimated: it is a fixed input (Y-family mean
levels depend on it, X-family means do not).

Reconstruction composes a fitted spreader-mean curve with the proportional
inactive-mean formula for user-chosen rho values.  For an X-family fit this
collapses to the exact identity m_Y = (m_hat - j)/(rho - 1), which cannot
lose precision for large means; for a Y-family fit the composition returns
the fitted curve itself for every rho (the induced intensity absorbs rho
exactly), which is reported as-is.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import growth
from .errors import DataError, DomainError, check_int, check_positive, check_time

_KINDS = ("mse", "rae")
_RATE_LO, _RATE_HI = 1e-3, 1e2
_POLY_BOUND = 10.0
_B4_EDGE = -1e-12  # beta4 must stay strictly negative
_NESTED = "multisig_logistic"  # the family with a start at the logistic optimum


@dataclass(frozen=True)
class Dataset:
    """Observed cumulative counts (t in days since the first post)."""

    name: str
    times: tuple[float, ...]
    counts: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "times", tuple(float(t) for t in self.times))
        object.__setattr__(self, "counts", tuple(float(c) for c in self.counts))
        if not self.times:
            raise DataError(f"dataset {self.name!r} is empty")
        if len(self.times) != len(self.counts):
            raise DataError(
                f"dataset {self.name!r}: {len(self.times)} times vs "
                f"{len(self.counts)} counts"
            )
        if not all(map(math.isfinite, self.times + self.counts)):
            raise DataError(f"dataset {self.name!r}: times and counts must be finite")
        if self.times[0] != 0.0:
            raise DataError(
                f"dataset {self.name!r}: first time must be 0, got {self.times[0]}"
            )
        for a, b in zip(self.times, self.times[1:]):
            if not b > a:
                raise DataError(f"dataset {self.name!r}: times must strictly increase")
        for a, b in zip(self.counts, self.counts[1:]):
            if b < a:
                raise DataError(f"dataset {self.name!r}: counts must be nondecreasing")
        if self.counts[0] < 1.0:
            raise DataError(
                f"dataset {self.name!r}: first count must be >= 1, got {self.counts[0]}"
            )

    def __len__(self) -> int:
        return len(self.times)


def dataset_from_csv(path: str | Path, name: str | None = None) -> Dataset:
    """Load a `t,count` CSV (header required; '#' lines are comments)."""
    path = Path(path)
    rows: list[tuple[float, float]] = []
    header_seen = False
    try:
        with path.open(newline="") as f:
            text_rows = list(csv.reader(f))
    except OSError as exc:
        raise DataError(f"cannot read dataset file {path}: {exc}") from exc
    for lineno, row in enumerate(text_rows, start=1):
        if not row or row[0].lstrip().startswith("#"):
            continue
        if not header_seen:
            head = [c.strip().lower() for c in row[:2]]
            if head != ["t", "count"]:
                raise DataError(
                    f"{path}:{lineno}: expected header 't,count', got {','.join(row)}"
                )
            header_seen = True
            continue
        try:
            rows.append((float(row[0]), float(row[1])))
        except (ValueError, IndexError) as exc:
            raise DataError(f"{path}:{lineno}: malformed row {row!r}") from exc
    if not header_seen:
        raise DataError(f"{path}: missing 't,count' header")
    return Dataset(
        name=name if name is not None else path.stem,
        times=tuple(r[0] for r in rows),
        counts=tuple(r[1] for r in rows),
    )


def _check_kind(kind: str) -> str:
    k = kind.lower()
    if k not in _KINDS:
        raise DomainError(f"objective kind must be one of {_KINDS}, got {kind!r}")
    return k


def objective(curve, dataset: Dataset, kind: str) -> float:
    """MSE = mean squared residual; RAE = sum |residual| / sum |observed|.

    Overflowing curve evaluations yield +inf so optimizers can retreat.
    """
    k = _check_kind(kind)
    t = np.asarray(dataset.times)
    y = np.asarray(dataset.counts)
    m = curve.mean_array(t)
    if not np.all(np.isfinite(m)):
        return math.inf
    val = float(_value(y - m, y, k))
    return val if math.isfinite(val) else math.inf


def _value(r: np.ndarray, y: np.ndarray, kind: str):
    """MSE or RAE of the residuals ``r`` along their last axis."""
    if kind == "mse":
        return np.mean(r * r, axis=-1)
    add = np.add.reduce  # np.sum without its per-call overhead: Nelder-Mead calls this per point
    return add(np.abs(r), axis=-1) / add(np.abs(y))


# ===== Parameter boxes =========================================================


class _Dim(NamedTuple):
    name: str
    lo: float  # hard bounds of the parameter's value
    hi: float
    log: bool  # a positive parameter: searched, and drawn, in log scale


def _dims_for(family: str, dataset: Dataset) -> list[_Dim]:
    """The family's search box: each parameter over the box of its role (see
    :class:`~rumorbd.growth.GrowthCurve`); a capacity or an amplitude from
    the largest count to 100 times it."""
    y_max = max(dataset.counts)
    amp = (y_max, 100.0 * y_max, True)
    boxes = {"rate": (_RATE_LO, _RATE_HI, True), "capacity": amp, "amplitude": amp,
             "asymmetry": (-0.99, 0.99, False), "coefficient": (-_POLY_BOUND, _POLY_BOUND, False),
             "leading": (-_POLY_BOUND, _B4_EDGE, False)}
    roles = growth.FAMILIES[family].roles
    return [_Dim(name, *boxes[role]) for name, role in roles.items()]


def _build_curve(family: str, params: tuple[float, ...], j: int, rho: float):
    cls = growth.FAMILIES[family]
    return cls(j=j, rho=rho, **dict(zip(cls.param_names, params)))


# ===== Fitting =================================================================


@dataclass(frozen=True)
class FitResult:
    family: str
    params: tuple[float, ...]
    kind: str
    value: float
    converged: bool
    n_evals: int
    restarts: int
    j: int
    rho: float
    curve: object | None = None
    message: str = ""


@dataclass(frozen=True)
class SelectionReport:
    dataset_name: str
    kind: str
    results: tuple[FitResult, ...]
    winner: str | None


def minimize(fun, x0, method: str, **kwargs):
    """The one optimizer entry of the fits.

    ``method="lm"`` runs :func:`_lockstep_lm` on every row of ``x0`` at once,
    ``fun`` mapping a matrix of points, and the row of ``x0`` each belongs to,
    to a matrix of residual rows.  Any other
    method is one ``scipy.optimize.minimize`` run from ``x0`` (the RAE
    polish), imported on first use: scipy.optimize takes longer to import
    than all of rumorbd, and only RAE fits need it.
    """
    if method == "lm":
        return _lockstep_lm(fun, x0, **kwargs)
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(fun, x0, method=method, **kwargs)


def _latin_hypercube(n: int, d: int, seed: int) -> np.ndarray:
    """``n`` points in [0, 1)^d, one in each of the ``n`` strata of every axis."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    strata = np.stack([rng.permutation(n) for _ in range(d)], axis=1)
    return (strata + rng.random((n, d))) / n


def _starts(dims: list[_Dim], restarts: int, seed: int,
            logistic: FitResult | None = None) -> np.ndarray:
    """Latin-hypercube starts as rows of parameter values: a positive
    parameter log-uniform on its box, a negative one (beta4) as -|x| with |x|
    log-uniform on [1e-4, 10], any other parameter uniform on its box.  The
    multisigmoidal family gets one more start, nested at the ``logistic``
    optimum: with beta = (r, 0, 0, 0-) the quartic exponent reduces to r t,
    so the optimum can only improve on the logistic one."""
    unit = _latin_hypercube(restarts, len(dims), seed)
    draws = [(1e-4, -d.lo, True) if d.hi < 0.0 else (d.lo, d.hi, d.log) for d in dims]
    logs = [log for _, _, log in draws]
    sign = [-1.0 if d.hi < 0.0 else 1.0 for d in dims]
    lows, highs = np.array([(math.log(lo), math.log(hi)) if log else (lo, hi)
                            for lo, hi, log in draws]).T
    z = lows + unit * (highs - lows)
    # the math module's exp, as in _Batch.encode
    starts = np.array([[math.exp(v) if log else v for v, log in zip(row, logs)] for row in z]) * sign
    if logistic is not None and logistic.curve is not None:
        starts = np.vstack([starts, (*logistic.params, 0.0, 0.0, _B4_EDGE)])
    return starts


def _box(name: str, dataset: Dataset, estimate_j: bool, j: int, rho: float) -> list[_Dim]:
    """The family's box, once the dataset is known to hold more points than
    the fit has parameters (j among them with ``estimate_j``) and the
    family's constructor to accept ``j`` and ``rho``."""
    dims = _dims_for(name, dataset)
    n_params = len(dims) + estimate_j
    if len(dataset) < n_params + 1:
        raise DataError(
            f"{name} needs at least {n_params + 1} points to fit "
            f"{n_params} parameters, dataset {dataset.name!r} has {len(dataset)}"
        )
    _build_curve(name, tuple(d.hi for d in dims), j, rho)  # raises on a bad j or rho
    return dims


def _resolve_family(family) -> str:
    if isinstance(family, str):
        name = family.lower()
        if name not in growth.FAMILIES:
            raise DataError(
                f"unknown curve family {family!r} "
                f"(known: {', '.join(sorted(growth.FAMILIES))})"
            )
        return name
    if isinstance(family, type) and family in growth.FAMILIES.values():
        return family.family
    raise DataError(f"family must be a name or curve class, got {family!r}")


def fit_one(
    family,
    dataset: Dataset,
    kind: str,
    budget: int = 10_000,
    *,
    restarts: int = 16,
    seed: int = 0,
    rho: float = 2.0,
    estimate_j: bool = False,
) -> FitResult:
    """Multi-start fit of one family: :func:`select_model` of that family
    alone, raising the :class:`DataError` or :class:`DomainError` that stops
    it.  ``budget`` caps the evaluations counted per restart (uncounted: the
    Jacobian columns at a trial that is rejected or ends its restart).

    The restarts run bounded least squares, all of them in lockstep; an RAE
    fit gives them half its budget and polishes the best point with one
    Nelder-Mead run on the rest.  The multisigmoidal family gets one extra
    restart at the optimum of a logistic fit with the same settings.  j is
    pinned to the first count, rounded, or with ``estimate_j`` profiled over
    the integers, ``n_evals`` and ``restarts`` then summing over every j
    tried (:func:`_fit_families`).  ``message`` names the parameters that
    ended on a hard box bound.

    Deterministic: identical (dataset, kind, seed, budget) give a bit-identical
    result.  When every restart fails to find a finite objective, an explicit
    failure result is returned (value = inf, converged = False) rather than a
    silent garbage fit.
    """
    name = _resolve_family(family)
    fit = _fit_families([name], dataset, _check_kind(kind), budget, restarts, seed, rho,
                        estimate_j)[name]
    if isinstance(fit, Exception):
        raise fit
    return fit


def _fit_families(names: list[str], dataset: Dataset, kind: str, budget: int, restarts: int,
                  seed: int, rho: float, estimate_j: bool) -> dict[str, FitResult | Exception]:
    """Each family of ``names`` fitted, or the :class:`DataError` or
    :class:`DomainError` that stopped its fit.  Logistic is fitted first when
    the multisigmoidal family, nested at its optimum, is asked for.  With j
    pinned, one :class:`_Batch` per (nested, number of parameters); with
    ``estimate_j``, one profile per family (:func:`_profiled`)."""
    check_int("budget", budget, 1)
    check_int("restarts", restarts, 1)
    fits: dict[str, FitResult | Exception] = {}
    boxes: dict[str, list[_Dim]] = {}
    j0 = max(1, int(round(dataset.counts[0])))  # the first count, rounded
    for name in dict.fromkeys(["logistic", *names] if _NESTED in names else names):
        try:
            boxes[name] = _box(name, dataset, estimate_j, j0, rho)
        except (DataError, DomainError) as exc:
            fits[name] = exc
    if _NESTED in fits and "logistic" not in names:
        boxes.pop("logistic", None)  # nothing nests at its optimum

    def starts(name: str) -> np.ndarray:
        logistic = fits.get("logistic") if name == _NESTED else None
        return _starts(boxes[name], restarts, seed,
                       logistic if isinstance(logistic, FitResult) else None)

    if estimate_j:
        for name, box in boxes.items():
            fits[name] = _profiled(_Batch([name], [box], dataset, j0, rho), starts(name), kind,
                                   budget)
        return fits
    batch_key = lambda name: (name == _NESTED, len(boxes[name]))  # noqa: E731
    for _, group in itertools.groupby(sorted(boxes, key=batch_key), key=batch_key):
        group = list(group)
        batch = _Batch(group, [boxes[name] for name in group], dataset, j0, rho)
        fits.update(zip(group, batch.fits([starts(name) for name in group], kind, budget)))
    return fits


def _profiled(first: _Batch, starts: np.ndarray, kind: str, budget: int) -> FitResult:
    """The fit of the one family of ``first`` from ``starts`` at the j
    :func:`_profile_argmin` picks from ``first.j`` over [1, round(max
    count)], with ``n_evals`` and ``restarts`` summed over every j tried."""
    tried: dict[int, FitResult] = {}

    def value(j: int) -> float:
        if j not in tried:
            batch = _Batch(first.names, first.boxes, first.dataset, j, first.rho)
            tried[j] = batch.fits([starts], kind, budget)[0]
        return tried[j].value

    j = _profile_argmin(value, first.j, int(round(max(first.dataset.counts))))
    return replace(tried[j], n_evals=sum(f.n_evals for f in tried.values()),
                   restarts=sum(f.restarts for f in tried.values()))


def _profile_argmin(value, j0: int, hi: int) -> int:
    """A local minimum of ``value`` over the integers 1..``hi``, searched from
    ``j0``; each j is evaluated at most once by the caller's memo.

    In each direction the scan gallops: from j0 it steps 1, 2, 4, ... (clipped
    at 1 and ``hi``) while each step lowers the best value of that direction,
    and after a step that does not, it steps by 1 again from there.  A
    direction stops at its end of the range or after two steps in a row that
    do not lower its best.  From the best j of both directions a walk then
    moves to the best of j - 1, j, j + 1 until j itself is best.  Everywhere,
    ties go to the j nearer j0, then to the smaller j.
    """
    key = lambda j: (value(j), abs(j - j0), j)  # noqa: E731
    best = j0
    for step in (1, -1):
        at, lead, stride, misses = j0, j0, 1, 0
        while misses < 2 and at != (hi if step > 0 else 1):
            at = min(max(at + step * stride, 1), hi)
            if value(at) < value(lead):
                lead, stride, misses = at, 2 * stride, 0
            else:
                stride, misses = 1, misses + 1
        best = min(best, lead, key=key)
    while True:
        walk = min((j for j in (best - 1, best, best + 1) if 1 <= j <= hi), key=key)
        if walk == best:
            return best
        best = walk


# Stopping tolerances of the lockstep least squares (see _lockstep_lm).
_FTOL = 1e-12
_XTOL = 1e-10
_GTOL = 1e-12
_MU0 = 10.0  # initial damping, relative to the largest eigenvalue of the scaled model
_THETA = 0.995  # least share of the way to its bound a truncated coordinate goes
# A residual row with any |entry| at or above this cap, NaN, or a carrying
# capacity not above j is replaced by a constant finite fill: curves near
# overflow give finite residuals near 1e200, whose squares overflow r.r, and
# the RAE polish meets a finite plateau there, not inf - inf.
_RESIDUAL_CAP = 1e50
_EPS = float(np.finfo(float).eps)
_FD_STEP = _EPS**0.5


def _bound_message(params: tuple[float, ...], dims: list[_Dim]) -> str:
    """Names the parameters that ended on a hard box bound (within _XTOL)."""
    hits = [
        f"{dim.name} ({side})"
        for v, dim in zip(params, dims)
        for side, bound in (("lower", dim.lo), ("upper", dim.hi))
        if abs(v - bound) <= _XTOL * max(1.0, abs(bound))
    ]
    return f"on the parameter box bound: {', '.join(hits)}" if hits else ""


class _Lockstep(NamedTuple):
    """What :func:`_lockstep_lm` returns: one row per start."""

    x0: np.ndarray  # (n, d) the starts as evaluated, moved inside the box
    fun0: np.ndarray  # (n, m) residuals there
    x: np.ndarray  # (n, d) final points
    fun: np.ndarray  # (n, m) residuals there
    nfev: np.ndarray  # (n,) residual evaluations counted, Jacobian columns included
    exhausted: np.ndarray  # (n,) the row ended on its budget
    success: bool  # no row ended on its budget
    rounds: int  # ``residuals`` calls


@np.errstate(over="ignore")  # a damping that overflows gives a zero step
def _lockstep_lm(residuals, x0, lower, upper, budget: int) -> _Lockstep:
    """Bounded Levenberg-Marquardt on every row of ``x0`` at once.

    ``residuals(points, rows)`` maps an (N, d) matrix of points to the (N, m)
    matrix of their residual vectors, ``rows`` being the row of ``x0`` each
    point belongs to, so rows may be starts of different problems.  Each row
    minimises its own cost F = r.r over its own box [lower, upper], through
    points strictly inside it: the bounds are (n, d) matrices, or (d,) rows
    that every row shares.  The rows advance in lockstep rounds, one
    ``residuals`` call each.  In a round each running row evaluates one trial
    point, its start in the first round, and with it, if the trial leaves room
    for a Jacobian and one more trial (nfev + d + 2 <= ``budget``), the d
    forward-difference columns of its Jacobian J at the trial point (step
    h = sqrt(eps) max(1, |z_i|), taken inward where z + h reaches the upper
    bound).  The round judges the trials, forms J at each new point that does
    not end its row and takes the next steps.  Columns at a rejected trial, or
    at one that ends its row, are dropped: nfev counts the trial points and
    the columns of the Jacobians formed.  Each row's arithmetic is its own: a
    row ends bit for bit the same alone as in any batch, whatever the other
    rows' problems.

    The model is that of scipy's trust-region reflective method with
    ``x_scale="jac"`` (Coleman and Li's scaling for bounds).  After each
    Jacobian, with g = J^T r, N_i the largest norm of column i seen so far (a
    zero norm counts as 1) and v_i = N_i times the distance from z_i to the
    bound that -g_i heads for (v_i = 1 where g_i = 0), the step p = S q is
    taken in the variables q scaled by s_i = sqrt(v_i)/N_i, where the model
    matrix is B = (J S)^T (J S) + diag(|g|/N).  A coordinate close to the
    bound its gradient pushes it to thus moves little.  S is then divided by
    the square root of B's diagonal (Marquardt's scaling), B is diagonalised
    once, and q solves (B + mu e_max I) q = -S g, e_max the largest eigenvalue
    of B.  A coordinate of z + p that would reach its bound stops
    theta = max(0.995, 1 - |g v|_inf) of the way there, and one that rounds
    onto it one ulp inside.  The start is moved 1e-10 max(1, |bound|) inside a
    bound it sits on or outside.  The initial damping is mu = 10.  With
    rho = (actual reduction)/(predicted reduction) of the step taken, a trial
    that lowers F is accepted and mu is multiplied by
    max(1/3, 1 - (2 min(rho, 1) - 1)^3), but not below the machine epsilon; a
    rejected trial multiplies mu by nu, then doubles nu (Nielsen 1999; nu
    restarts at 2 on acceptance).  After a rejected trial the next step
    reuses the diagonalisation.

    A row stops on the first of:

    * gtol: |g v|_inf < 1e-12, tested after each Jacobian;
    * ftol: an accepted trial lowered F by less than 1e-12 F with rho > 0.25;
    * xtol: its next step has |p| < 1e-10 (1e-10 + |z|); that step is not
      evaluated;
    * budget: its next evaluation would take nfev past ``budget``: a new
      point has no room for its Jacobian and the trial after it (d + 1
      evaluations), or a rejected trial no room for the next.  The
      evaluation at the start is always made.

    A damping that overflows gives a zero step, which ends the row on xtol.
    """
    x0 = np.array(x0, dtype=float)
    n, d = x0.shape
    lower, upper = np.broadcast_to(lower, (n, d)), np.broadcast_to(upper, (n, d))
    inset = 1e-10 * np.maximum(1.0, np.abs([lower, upper]))
    z0 = np.clip(x0, lower + inset[0], upper - inset[1])
    in_lo, in_hi = np.nextafter([lower, upper], [upper, lower])
    add = np.add.reduce
    z, r0 = z0.copy(), None
    nfev = np.zeros(n, dtype=int)
    done = np.zeros(n, dtype=bool)
    exhausted = np.zeros(n, dtype=bool)
    # per row, from its last Jacobian: J; the column norms N; the scaling s;
    # the term diag(|g|/N) of B, in the units of q; theta; the eigenvalues e
    # of B, its eigenvectors V times s, and V^T S g
    norm = np.zeros((n, d))
    scale = np.empty((n, d))
    extra = np.empty((n, d))
    theta = np.empty(n)
    eig = np.empty((n, d))
    basis = np.empty((n, d, d))
    vg = np.empty((n, d))
    mu = np.full(n, _MU0)
    nu = np.full(n, 2.0)
    step = np.zeros((n, d))
    diag = np.eye(d, dtype=bool)
    ti, trial, rounds = np.arange(n), z0, 0  # the first round evaluates the starts
    while ti.size:
        nt = ti.size
        room = nfev[ti] + d + 2 <= budget
        ci, zc = ti[room], trial[room]
        h = _FD_STEP * np.maximum(1.0, np.abs(zc))
        zh = zc + h
        zh = np.where(zh < upper[ci], zh, zc - h)
        columns = np.where(diag, zh[:, None, :], zc[:, None, :])
        out = residuals(np.concatenate([trial, columns.reshape(-1, d)]),
                        np.concatenate([ti, np.repeat(ci, d)]))
        rounds += 1
        nfev[ti] += 1
        rt, m = out[:nt], out.shape[1]
        ct = add(rt * rt, axis=1)
        if r0 is None:  # every start is accepted
            r0, r, cost, ok = rt, rt.copy(), ct, np.ones(n, dtype=bool)
            jac = np.empty((n, d, m))
        else:
            p = step[ti]
            jp = add(jac[ti] * p[:, :, None], axis=1)
            q = p / scale[ti]
            pred = -(2.0 * add(r[ti] * jp, axis=1) + add(jp * jp, axis=1)
                     + add(extra[ti] * q * q, axis=1))
            cost_t, mu_t, nu_t = cost[ti], mu[ti], nu[ti]
            actual = cost_t - ct
            rho = np.divide(actual, pred, out=np.zeros(nt), where=pred > 0.0)
            ok = actual > 0.0
            done[ti[ok & (actual < _FTOL * cost_t) & (rho > 0.25)]] = True
            factor = np.maximum(1.0 / 3.0, 1.0 - (2.0 * np.minimum(rho, 1.0) - 1.0) ** 3)
            mu[ti] = np.where(ok, np.maximum(mu_t * factor, _EPS), mu_t * nu_t)
            nu[ti] = np.where(ok, 2.0, 2.0 * nu_t)
            ai = ti[ok]
            z[ai], r[ai], cost[ai] = trial[ok], rt[ok], ct[ok]
        # a new point that does not end its row takes its Jacobian from the
        # columns, or ends the row on its budget when it has none
        over = ti[ok & ~room & ~done[ti]]
        exhausted[over] = done[over] = True
        fresh = ok[room] & ~done[ci]
        ji, zj, hj = ci[fresh], zc[fresh], (zh - zc)[fresh]
        if ji.size:
            nfev[ji] += d
            rj = r[ji]
            jj = (out[nt:].reshape(-1, d, m)[fresh] - rj[:, None, :]) / hj[:, :, None]
            g = add(jj * rj[:, None, :], axis=2)
            nj = np.maximum(norm[ji], np.sqrt(add(jj * jj, axis=2)))
            nj[nj == 0.0] = 1.0
            v = np.where(g < 0.0, upper[ji] - zj, zj - lower[ji]) * nj
            v[g == 0.0] = 1.0
            gv = np.maximum.reduce(np.abs(g * v), axis=1)
            done[ji[gv < _GTOL]] = True
            sj = np.sqrt(v) / nj
            cj = np.abs(g) / nj
            js = jj * sj[:, :, None]
            b = add(js[:, :, None, :] * js[:, None, :, :], axis=3)
            b[:, diag] += cj
            unit = np.sqrt(b[:, diag])
            unit[unit == 0.0] = 1.0
            e, vec = np.linalg.eigh(b / (unit[:, :, None] * unit[:, None, :]))
            sj /= unit
            jac[ji], norm[ji], scale[ji], extra[ji] = jj, nj, sj, cj / (unit * unit)
            theta[ji] = np.maximum(_THETA, 1.0 - gv)
            eig[ji] = np.maximum(e, 0.0)
            basis[ji] = vec * sj[:, :, None]
            vg[ji] = add(vec * (g * sj)[:, :, None], axis=1)

        si = ti[~done[ti]]
        e = eig[si]
        w = vg[si] / (e + (mu[si] * e[:, -1])[:, None])
        p = -add(basis[si] * w[:, None, :], axis=2)
        zs = z[si]
        wall = np.where(p > 0.0, upper[si] - zs, lower[si] - zs)
        p = np.where(np.abs(p) < np.abs(wall), p, theta[si, None] * wall)
        p = np.minimum(np.maximum(zs + p, in_lo[si]), in_hi[si]) - zs
        small = np.sqrt(add(p * p, axis=1)) < _XTOL * (_XTOL + np.sqrt(add(zs * zs, axis=1)))
        done[si[small]] = True
        step[si] = p
        over = si[~small & (nfev[si] >= budget)]  # no room for the next trial
        exhausted[over] = done[over] = True
        ti = (~done).nonzero()[0]
        trial = z[ti] + step[ti]
    return _Lockstep(z0, r0, z, r, nfev, exhausted, not exhausted.any(), rounds)


class _Batch:
    """The fit of families with the same number of parameters to one dataset
    at one j and rho: row k of each array is the box of ``names[k]``.  The
    one evaluator of every fit's residuals.

    A positive parameter is searched as its log, any other as itself, beta4
    included: its optimum is often the bound 0-, where a log coordinate runs
    to -inf and the residual's slope in it vanishes.
    """

    def __init__(self, names: list[str], boxes: list[list[_Dim]], dataset: Dataset, j: int,
                 rho: float):
        self.names, self.boxes, self.dataset, self.j, self.rho = names, boxes, dataset, j, rho
        self.families = [growth.FAMILIES[name] for name in names]
        self.t = np.asarray(dataset.times)
        self.y = np.asarray(dataset.counts)
        # each field of the boxes as a matrix, one row per family
        _, self.p_lo, self.p_hi, self.log = map(np.array, zip(*(zip(*box) for box in boxes)))
        self.lo, self.hi = self.encode(self.p_lo, self.log), self.encode(self.p_hi, self.log)
        # the box holds every parameter where its constructor wants it, but for
        # the carrying capacity > j (its lower bound max(y) may equal j)
        self.free = np.array([[family.roles[d.name] != "capacity" for d in box]
                              for family, box in zip(self.families, boxes)])

    @staticmethod
    def encode(params, log) -> np.ndarray:
        """Search coordinates of a parameter row, or of a matrix of rows, where
        ``log`` marks the parameters searched in log scale.  The logs are the
        math module's, like the exps of :func:`_starts`, so the start points
        are those of earlier releases bit for bit; numpy's differ from them in
        the last ulp."""
        z = np.array(params, dtype=float)
        z[..., log] = np.vectorize(math.log, otypes=[float])(z[..., log])
        return z

    def decode(self, z: np.ndarray, which) -> np.ndarray:
        """Parameter rows of the rows of ``z``, row i on the box of family
        ``which[i]``, or all on that of the family ``which``, an int;
        exp(log(lo)) can round just outside the box, so they are clipped onto
        it."""
        return np.minimum(np.maximum(np.where(self.log[which], np.exp(z), z), self.p_lo[which]),
                          self.p_hi[which])

    @np.errstate(all="ignore")
    def residuals(self, z: np.ndarray, which) -> np.ndarray:
        """Residual rows y - m(t) at the rows of ``z``, as :meth:`decode`
        assigns them to families: decoding, the cap and the fill run once on
        all rows, each family's broadcast ``mean_formula`` once on its own
        rows (on numpy scalars for a single row).  A row is the constant fill
        where the carrying capacity is not above j or any |residual| reaches
        the cap (NaN included)."""
        params = self.decode(z, which)

        def deviation(k: int, p: np.ndarray) -> np.ndarray:
            cols = p.T[:, :, None] if p.ndim == 2 else p
            return self.y - self.families[k].mean_formula(self.t, self.j, self.rho, *cols)

        if np.ndim(which):
            r = np.empty((len(z), len(self.t)))
            for k in range(len(self.names)):
                i = (which == k).nonzero()[0]
                if i.size:
                    r[i] = deviation(k, params[i])
        else:
            r = deviation(which, params)
        ok = ((np.abs(r) < _RESIDUAL_CAP).all(axis=-1)
              & ((params > self.j) | self.free[which]).all(axis=-1))
        return np.where(ok[..., None], r, _RESIDUAL_CAP)

    def rae(self, z: np.ndarray, k: int) -> float:
        """RAE of family ``k`` at the point ``z``: +inf off its box, and on a
        filled row the fill's RAE, a finite plateau."""
        if not ((self.lo[k] <= z) & (z <= self.hi[k])).all():
            return math.inf
        return float(_value(self.residuals(z, k), self.y, "rae"))

    def fits(self, starts: list[np.ndarray], kind: str, budget: int) -> list[FitResult]:
        """Each family's fit from its ``starts``, a matrix of parameter rows.

        One :func:`_lockstep_lm` runs every start to its end, on its family's
        residuals and box, at ``budget`` counted residual evaluations per
        restart (Jacobian columns included) for MSE and ``budget // 2`` for
        RAE; a row ends the same whichever families share the batch.  A start
        or an end on a filled row scores inf.  RAE then runs one Nelder-Mead
        per family on :meth:`rae` from the point of least RAE among its starts
        and ends, allowed the evaluations its restarts left unused, so the
        fit's counted evaluations stay within ``restarts * budget``.  The fit
        is the family's first end of least value, or the polish where that
        scores strictly less, its objective re-evaluated on the constructed
        curve; the failure result when every end scores inf and no polish ran.
        """
        owner = np.repeat(np.arange(len(starts)), [len(s) for s in starts])
        res = minimize(lambda z, rows: self.residuals(z, owner[rows]),
                       np.concatenate([self.encode(s, log) for s, log in zip(starts, self.log)]),
                       "lm", lower=self.lo[owner], upper=self.hi[owner],
                       budget=budget if kind == "mse" else budget // 2)
        fun = np.concatenate([res.fun0, res.fun])  # the starts, then the ends
        values = np.where(fun[:, 0] == _RESIDUAL_CAP, math.inf, _value(fun, self.y, kind))
        fits = []
        for k, name in enumerate(self.names):
            mine = owner == k
            met = values.reshape(2, -1)[:, mine]  # its starts, then its ends
            x, evals = res.x[mine], int(res.nfev[mine].sum())
            end = int(np.argmin(met[1]))
            z, value = x[end], met[1, end]
            converged = not res.exhausted[mine][end]
            if kind == "rae" and met.min() < math.inf:
                best = int(np.argmin(met))
                options = {"maxfev": budget * len(x) - evals, "xatol": 1e-10, "fatol": 1e-14,
                           "adaptive": True}
                polish = minimize(self.rae, np.concatenate([res.x0[mine], x])[best],
                                  "Nelder-Mead", args=(k,), options=options)
                evals += polish.nfev
                # with no evaluation left the run returns its start at value inf
                polished = min(polish.fun, met.flat[best])
                if polished < value:
                    z, value, converged = polish.x, polished, polish.success
            fit = FitResult(
                family=name, params=(), kind=kind, value=math.inf, converged=False,
                n_evals=evals, restarts=len(x), j=self.j, rho=self.rho, curve=None,
                message="all restarts diverged or left the parameter box")
            if value < math.inf:
                params = tuple(self.decode(z, k).tolist())
                curve = _build_curve(name, params, self.j, self.rho)
                fit = replace(fit, params=params, value=objective(curve, self.dataset, kind),
                              converged=converged, curve=curve,
                              message=_bound_message(params, self.boxes[k]))
            fits.append(fit)
        return fits


def select_model(
    dataset: Dataset,
    families,
    kind: str,
    budget: int = 10_000,
    *,
    restarts: int = 16,
    seed: int = 0,
    rho: float = 2.0,
    estimate_j: bool = False,
) -> SelectionReport:
    """Fit the requested families and rank by objective (failures recorded).

    ``families`` is an ordered list of names or curve classes, or "all" for
    every registered family.  The winner attains the minimum objective; ties
    go to the family listed first.  Each result is the family's
    :func:`fit_one` with the same settings; where that raises, a failure
    result (value = inf, n_evals = 0) carries the error's message.
    """
    k = _check_kind(kind)
    if isinstance(families, str):
        if families != "all":
            raise DomainError(
                f"families must be 'all' or a list of curve families, got {families!r}")
        families = growth.FAMILIES
    names = [_resolve_family(f) for f in families]
    if not names:
        raise DomainError("at least one curve family is required")

    fits = _fit_families(names, dataset, k, budget, restarts, seed, rho, estimate_j)
    results = tuple(
        fits[name] if isinstance(fits[name], FitResult) else FitResult(
            family=name, params=(), kind=k, value=math.inf, converged=False,
            n_evals=0, restarts=0, j=0, rho=rho, curve=None, message=str(fits[name]))
        for name in names)
    best = min(results, key=lambda fr: fr.value)  # the first of the least values
    winner = best.family if best.value < math.inf else None
    return SelectionReport(dataset_name=dataset.name, kind=k, results=results, winner=winner)


# ===== Inactive-mean reconstruction ===========================================


@dataclass(eq=False)
class YReconstruction:
    """Per-rho inactive-mean series; overflow is flagged per point (NaN)."""

    grid: np.ndarray
    rho_values: tuple[float, ...]
    m_y: np.ndarray  # shape (len(rho_values), len(grid))
    overflow: np.ndarray  # same shape, bool


def reconstruct_y(fit: FitResult, rho_values, grid) -> YReconstruction:
    """Inactive mean implied by a fitted curve for each requested rho.

    X-family fits: m_Y(t) = (m_hat(t) - j)/(rho - 1) exactly.  A fitted X
    mean rises from j, which needs rho > 1 (rho = 1 pins it at j, and rho < 1
    would make m_Y negative), so rho <= 1 is rejected.  Y-family fits:
    composing the induced intensity with the inactive-mean formula returns
    the fitted curve unchanged for every rho.  A grid past the curve's validity window raises
    :class:`DomainError`.
    """
    if fit.curve is None:
        raise DomainError(f"cannot reconstruct from a failed {fit.family} fit")
    rhos = tuple(float(r) for r in rho_values)
    if not rhos:
        raise DomainError("at least one rho value is required")
    t = np.asarray([float(g) for g in grid])
    if t.size == 0:
        raise DomainError("grid must contain at least one time point")
    check_time(t)
    curve = fit.curve
    curve.validate_horizon(float(t.max()))

    m_hat = curve.mean_array(t)
    out = np.empty((len(rhos), t.size))
    for i, rho in enumerate(rhos):
        check_positive("rho", rho)
        if curve.kind == "x":
            if rho <= 1.0:
                raise DomainError(
                    f"a spreader-mean curve rises from j, which needs rho > 1, got {rho}"
                )
            out[i] = (m_hat - float(fit.j)) / (rho - 1.0)
        else:
            out[i] = m_hat
    overflow = ~np.isfinite(out)
    out[overflow] = math.nan
    return YReconstruction(grid=t, rho_values=rhos, m_y=out, overflow=overflow)
