"""Curve fitting for diffusion time series: objectives, multi-start search,
model selection, and inactive-mean reconstruction.

Fitting minimizes MSE or RAE over each family's parameter box from
Latin-hypercube starts (positive parameters are searched in log scale).  MSE
is a smooth sum of squares, so it is minimized as bounded least squares on
the residual vector y - m(t): trust-region reflective steps (Branch, Coleman
& Li 1999) with the hard box as bounds and a forward-difference Jacobian.
``budget`` caps the residual evaluations per restart, Jacobian columns
included.  RAE is not smooth, and with ``estimate_j`` the rounded j makes the
residual piecewise constant in its coordinate (a zero Jacobian column), so
both keep Nelder-Mead, where ``budget`` caps objective evaluations per
restart.  The initial spreader count j is pinned to the first
observation by default — the model requires X(0) = j and the series starts at
the first post — and the rate ratio rho is never estimated: it is a fixed
input (Y-family mean levels depend on it, X-family means do not).

Reconstruction composes a fitted spreader-mean curve with the proportional
inactive-mean formula for user-chosen rho values.  For an X-family fit this
collapses to the exact identity m_Y = (m_hat - j)/(rho - 1), which cannot
lose precision for large means; for a Y-family fit the composition returns
the fitted curve itself for every rho (the induced intensity absorbs rho
exactly), which is reported as-is.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import growth
from .errors import DataError, DomainError

_KINDS = ("mse", "rae")
_RATE_LO, _RATE_HI = 1e-3, 1e2
_POLY_BOUND = 10.0
_B4_EDGE = -1e-12  # beta4 must stay strictly negative


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
        text_rows = list(csv.reader(path.open(newline="")))
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
    with np.errstate(all="ignore"):
        m = np.asarray(curve.mean_array(t), dtype=float)
    if not np.all(np.isfinite(m)):
        return math.inf
    res = y - m
    if k == "mse":
        val = float(np.mean(res * res))
    else:
        val = float(np.sum(np.abs(res)) / np.sum(np.abs(y)))
    return val if math.isfinite(val) else math.inf


# ===== Parameter boxes =========================================================


class _Dim(NamedTuple):
    name: str
    lo: float  # bounds in natural (signed) space
    hi: float
    log: bool  # search/draw in log of |value|
    negate: bool = False  # value = -exp(z) (used for beta4 < 0)


def _dims_for(family: str, dataset: Dataset) -> list[_Dim]:
    y_max = max(dataset.counts)
    amp = _Dim("amp", y_max, 100.0 * y_max, log=True)
    rate = lambda name: _Dim(name, _RATE_LO, _RATE_HI, log=True)  # noqa: E731
    if family == "gompertz":
        return [rate("alpha"), rate("beta")]
    if family == "gen_gompertz":
        return [rate("a"), rate("b")]
    if family == "logistic":
        return [amp._replace(name="c"), rate("r")]
    if family == "ext_logistic":
        return [amp._replace(name="n"), _Dim("eps", -0.99, 0.99, log=False)]
    if family == "multisig_logistic":
        poly = [_Dim(f"beta{i}", -_POLY_BOUND, _POLY_BOUND, log=False) for i in (1, 2, 3)]
        b4 = _Dim("beta4", -_POLY_BOUND, _B4_EDGE, log=True, negate=True)
        return [amp._replace(name="c"), *poly, b4]
    if family == "mod_korf":
        return [rate("alpha"), rate("beta")]
    if family == "korf":
        return [rate("alpha"), rate("beta")]
    if family == "mitscherlich":
        return [rate("alpha"), amp._replace(name="beta")]
    raise DataError(f"unknown curve family {family!r}")


def _z_box(dim: _Dim) -> tuple[float, float]:
    """Sampling range in internal coordinates (narrower than the hard box)."""
    if dim.negate:  # |beta4| drawn log-uniform on [1e-4, 10]
        return math.log(1e-4), math.log(_POLY_BOUND)
    if dim.log:
        return math.log(dim.lo), math.log(dim.hi)
    return dim.lo, dim.hi


def _decode(z: np.ndarray, dims: list[_Dim]) -> tuple[float, ...]:
    out = []
    for zi, dim in zip(z, dims):
        if dim.log:
            v = math.exp(zi) if zi < 705.0 else math.inf
            if dim.negate:
                v = -v
        else:
            v = float(zi)
        out.append(v)
    return tuple(out)


def _encode(params: tuple[float, ...], dims: list[_Dim]) -> np.ndarray:
    z = []
    for v, dim in zip(params, dims):
        z.append(math.log(abs(v)) if dim.log else float(v))
    return np.asarray(z)


def _in_box(params: tuple[float, ...], dims: list[_Dim]) -> bool:
    return all(dim.lo <= v <= dim.hi for v, dim in zip(params, dims))


def _build_curve(family: str, params: tuple[float, ...], j: int, rho: float):
    cls = growth.FAMILIES[family]
    if cls is growth.MultisigLogistic:
        return growth.MultisigLogistic(c=params[0], betas=tuple(params[1:]), j=j, rho=rho)
    kwargs = dict(zip(cls.param_names, params))
    return cls(j=j, rho=rho, **kwargs)


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
    """One restart: ``scipy.optimize.least_squares`` for ``method="trf"``, else
    ``scipy.optimize.minimize``.  Imported on first use: scipy.optimize takes
    longer to import than all of rumorbd, and only fits need it."""
    if method == "trf":
        from scipy.optimize import least_squares

        return least_squares(fun, x0, method="trf", **kwargs)
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(fun, x0, method=method, **kwargs)


def _latin_hypercube(n: int, d: int, seed: int) -> np.ndarray:
    """``n`` points in [0, 1)^d, one in each of the ``n`` strata of every axis."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    strata = np.stack([rng.permutation(n) for _ in range(d)], axis=1)
    return (strata + rng.random((n, d))) / n


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
    logistic: FitResult | None = None,
) -> FitResult:
    """Multi-start fit of one family; ``budget`` caps the evaluations per restart.

    MSE restarts run bounded least squares (:class:`_LeastSquares`); RAE and
    ``estimate_j`` restarts run Nelder-Mead (:class:`_NelderMead`).  The
    multisigmoidal family gets one extra restart at the plain-logistic
    optimum: ``logistic`` when given (as :func:`select_model` does), else a
    logistic fit with the same settings.  ``message`` names the parameters
    that ended on a hard box bound.

    Deterministic: identical (dataset, kind, seed, budget) give a bit-identical
    result.  When every restart fails to find a finite objective, an explicit
    failure result is returned (value = inf, converged = False) rather than a
    silent garbage fit.
    """
    name = _resolve_family(family)
    k = _check_kind(kind)
    if budget < 1 or restarts < 1:
        raise DomainError(f"budget and restarts must be >= 1, got {budget}, {restarts}")
    dims = _dims_for(name, dataset)
    j = max(1, int(round(dataset.counts[0])))
    if estimate_j:
        dims = dims + [_Dim("j", 1.0, max(dataset.counts), log=True)]
    if len(dataset) < len(dims) + 1:
        raise DataError(
            f"{name} needs at least {len(dims) + 1} points to fit "
            f"{len(dims)} parameters, dataset {dataset.name!r} has {len(dataset)}"
        )

    unit = _latin_hypercube(restarts, len(dims), seed)
    lows, highs = np.array([_z_box(d) for d in dims]).T
    starts = list(lows + unit * (highs - lows))

    if name == "multisig_logistic" and not estimate_j:
        # extra restart nested at the plain-logistic solution: with
        # beta = (r, 0, 0, 0-) the quartic exponent reduces to r t, so the
        # optimum can only improve on the logistic one
        if logistic is None:
            logistic = fit_one(
                "logistic", dataset, k, budget, restarts=restarts, seed=seed, rho=rho
            )
        if logistic.curve is not None:
            c_hat, r_hat = logistic.params
            seed_params = (c_hat, r_hat, 0.0, 0.0, _B4_EDGE)
            starts.append(_encode(seed_params, dims))

    if k == "mse" and not estimate_j:
        search = _LeastSquares(name, dims, dataset, j, rho)
    else:
        search = _NelderMead(name, dims, dataset, k, j, rho, estimate_j)

    best_val = math.inf
    best_z: np.ndarray | None = None
    best_ok = False
    for z0 in starts:
        z, val, ok = search.run(z0, budget)
        if val < best_val:
            best_val, best_z, best_ok = val, z, ok

    if best_z is None:
        return FitResult(
            family=name,
            params=(),
            kind=k,
            value=math.inf,
            converged=False,
            n_evals=search.evals,
            restarts=len(starts),
            j=j,
            rho=rho,
            curve=None,
            message="all restarts diverged or left the parameter box",
        )

    params, j_fin = search.params(best_z)
    curve = _build_curve(name, params, j_fin, rho)
    value = objective(curve, dataset, k)  # re-evaluated at the stored parameters
    return FitResult(
        family=name,
        params=params,
        kind=k,
        value=value,
        converged=best_ok,
        n_evals=search.evals,
        restarts=len(starts),
        j=j_fin,
        rho=rho,
        curve=curve,
        message=_bound_message(params, dims),
    )


# Tolerances of the bounded least-squares restarts (each must exceed the
# machine epsilon, or least_squares warns that the test is disabled).
_FTOL = 1e-12
_XTOL = 1e-10
_GTOL = 1e-12
# A residual vector with any |entry| at or above this cap (or a curve that
# raises DomainError) is replaced by a constant finite fill: curves near
# overflow give finite residuals near 1e200, whose squares overflow TRF's
# cost 0.5 f.f and leave infs in the SVD of its Jacobian.
_RESIDUAL_CAP = 1e50
_FD_STEP = float(np.finfo(float).eps) ** 0.5


def _bound_message(params: tuple[float, ...], dims: list[_Dim]) -> str:
    """Names the parameters that ended on a hard box bound (within _XTOL)."""
    hits = [
        f"{dim.name} ({side})"
        for v, dim in zip(params, dims)
        for side, bound in (("lower", dim.lo), ("upper", dim.hi))
        if abs(v - bound) <= _XTOL * max(1.0, abs(bound))
    ]
    return f"on the parameter box bound: {', '.join(hits)}" if hits else ""


class _LeastSquares:
    """MSE restarts: bounded trust-region reflective least squares on the
    residual vector y - m(t) in the internal coordinates, the hard box as
    bounds.

    ``budget`` caps residual evaluations per restart, Jacobian columns
    included: at most ``budget // (d + 1)`` solver steps, each one residual
    and at most one d-column Jacobian (the first residual and Jacobian are
    spent even when the budget is smaller).
    """

    def __init__(self, name, dims, dataset, j, rho):
        # beta4 = -e^z is searched as beta4 itself: its optimum is often the
        # bound 0-, where z -> -inf and the residual's slope in z vanishes
        self.start_dims = dims
        dims = [d._replace(log=False, negate=False) if d.negate else d for d in dims]
        self.name, self.dims, self.j, self.rho = name, dims, j, rho
        self.t = np.asarray(dataset.times)
        self.y = np.asarray(dataset.counts)
        self.lo = np.array([math.log(d.lo) if d.log else d.lo for d in dims])
        self.hi = np.array([math.log(d.hi) if d.log else d.hi for d in dims])
        self.fill = np.full(self.y.size, _RESIDUAL_CAP)
        self.evals = 0
        self.last: tuple[np.ndarray, np.ndarray] | None = None

    def params(self, z: np.ndarray) -> tuple[tuple[float, ...], int]:
        # exp(log(lo)) can round just outside the box: clip onto it
        decoded = _decode(z, self.dims)
        return tuple(min(max(v, d.lo), d.hi) for v, d in zip(decoded, self.dims)), self.j

    def residual(self, z: np.ndarray) -> np.ndarray:
        self.evals += 1
        try:
            curve = _build_curve(self.name, self.params(z)[0], self.j, self.rho)
        except DomainError:
            r = self.fill
        else:
            with np.errstate(all="ignore"):
                r = self.y - np.asarray(curve.mean_array(self.t), dtype=float)
                if not np.all(np.abs(r) < _RESIDUAL_CAP):  # also catches NaN
                    r = self.fill
        self.last = (z.copy(), r)
        return r

    def jacobian(self, z: np.ndarray) -> np.ndarray:
        """Forward differences from the residual the solver just evaluated at
        ``z``, stepping inward at an upper bound."""
        if self.last is not None and np.array_equal(self.last[0], z):
            r0 = self.last[1]
        else:
            r0 = self.residual(z)
        jac = np.empty((r0.size, z.size))
        for i in range(z.size):
            h = _FD_STEP * max(1.0, abs(z[i]))
            zh = z.copy()
            zh[i] = z[i] + h if z[i] + h <= self.hi[i] else z[i] - h
            jac[:, i] = (self.residual(zh) - r0) / (zh[i] - z[i])
        return jac

    def run(self, z0: np.ndarray, budget: int) -> tuple[np.ndarray, float, bool]:
        res = minimize(
            self.residual,
            np.clip(_encode(_decode(z0, self.start_dims), self.dims), self.lo, self.hi),
            "trf",
            jac=self.jacobian,
            bounds=(self.lo, self.hi),
            x_scale="jac",
            max_nfev=max(1, budget // (len(self.dims) + 1)),
            ftol=_FTOL,
            xtol=_XTOL,
            gtol=_GTOL,
        )
        if not np.all(np.abs(res.fun) < _RESIDUAL_CAP):
            return res.x, math.inf, False
        return res.x, float(np.mean(res.fun * res.fun)), bool(res.success)


class _NelderMead:
    """RAE and ``estimate_j`` restarts: Nelder-Mead on the objective, +inf
    outside the hard box.  RAE is not smooth, and a rounded j makes the
    residual piecewise constant in its coordinate (a zero Jacobian column),
    so neither suits least squares."""

    def __init__(self, name, dims, dataset, kind, j, rho, estimate_j):
        self.name, self.dims, self.dataset, self.kind = name, dims, dataset, kind
        self.j, self.rho, self.estimate_j = j, rho, estimate_j
        self.evals = 0

    def params(self, z: np.ndarray) -> tuple[tuple[float, ...], int]:
        decoded = _decode(z, self.dims)
        if self.estimate_j:
            return decoded[:-1], max(1, int(round(decoded[-1])))
        return decoded, self.j

    def score(self, z: np.ndarray) -> float:
        self.evals += 1
        if not _in_box(_decode(z, self.dims), self.dims):
            return math.inf
        params, j = self.params(z)
        try:
            curve = _build_curve(self.name, params, j, self.rho)
        except DomainError:
            return math.inf
        return objective(curve, self.dataset, self.kind)

    def run(self, z0: np.ndarray, budget: int) -> tuple[np.ndarray, float, bool]:
        res = minimize(
            self.score,
            z0,
            "Nelder-Mead",
            options={"maxfev": budget, "xatol": 1e-10, "fatol": 1e-14, "adaptive": True},
        )
        return np.asarray(res.x), float(res.fun), bool(res.success)


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

    ``families`` is an ordered list of names, or "all" for every registered
    family.  The winner attains the minimum objective; ties go to the family
    listed first.
    """
    k = _check_kind(kind)
    if families == "all":
        names = list(growth.FAMILIES)
    else:
        names = [_resolve_family(f) for f in families]
    if not names:
        raise DomainError("at least one curve family is required")

    results: list[FitResult] = []
    for name in names:
        # the multisigmoidal fit nests at the logistic optimum fitted here
        logistic = next((r for r in results if r.family == "logistic"), None)
        try:
            results.append(
                fit_one(
                    name, dataset, k, budget, restarts=restarts, seed=seed,
                    rho=rho, estimate_j=estimate_j, logistic=logistic,
                )
            )
        except (DataError, DomainError) as exc:
            results.append(
                FitResult(
                    family=name, params=(), kind=k, value=math.inf, converged=False,
                    n_evals=0, restarts=0, j=0, rho=rho, curve=None, message=str(exc),
                )
            )

    winner: str | None = None
    best = math.inf
    for fr in results:
        if fr.value < best:
            best = fr.value
            winner = fr.family
    return SelectionReport(
        dataset_name=dataset.name, kind=k, results=tuple(results), winner=winner
    )


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

    X-family fits: m_Y(t) = (m_hat(t) - j)/(rho - 1) exactly (rho = 1 makes
    the fitted X mean constant and is rejected).  Y-family fits: composing the
    induced intensity with the inactive-mean formula returns the fitted curve
    unchanged for every rho.
    """
    if fit.curve is None:
        raise DomainError(f"cannot reconstruct from a failed {fit.family} fit")
    rhos = tuple(float(r) for r in rho_values)
    if not rhos:
        raise DomainError("at least one rho value is required")
    t = np.asarray([float(g) for g in grid])
    if t.size == 0:
        raise DomainError("grid must contain at least one time point")
    if np.any(t < 0.0) or not np.all(np.isfinite(t)):
        raise DomainError("grid times must be finite and >= 0")

    curve = fit.curve
    with np.errstate(all="ignore"):
        m_hat = np.asarray(curve.mean_array(t), dtype=float)
    out = np.empty((len(rhos), t.size))
    for i, rho in enumerate(rhos):
        if not (rho > 0.0 and math.isfinite(rho)):
            raise DomainError(f"rho must be positive and finite, got {rho}")
        if curve.kind == "x":
            if rho == 1.0:
                raise DomainError(
                    "rho = 1 pins the spreader mean at j, so a spreader-mean "
                    "curve cannot induce an intensity there; use rho != 1"
                )
            out[i] = (m_hat - float(fit.j)) / (rho - 1.0)
        else:
            out[i] = m_hat
    overflow = ~np.isfinite(out)
    out[overflow] = math.nan
    return YReconstruction(grid=t, rho_values=rhos, m_y=out, overflow=overflow)
