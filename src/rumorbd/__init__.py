"""Two-dimensional birth-death toolkit for rumor diffusion.

The pair (X(t), Y(t)) counts active spreaders and inactives: from (n, k) the
chain jumps to (n+1, k) at rate n*lam(t) and to (n-1, k+1) at rate n*mu(t),
with {n = 0} absorbing.  The package provides exact simulation, transient
moments (closed forms and an ODE route), absorption and generating-function
formulas for proportional rates, which serve constant rates at
(rho, M) = (lam/mu, mu t), a brute-force master-equation oracle, eight
growth-curve families with their induced rate profiles, and curve fitting
with inactive-mean reconstruction.

Importing the package loads none of its modules: reading a public name, or a
module such as ``rumorbd.oracle``, imports its module on first access.
"""

import importlib

_EXPORTS = {
    "errors": ("RumorBDError", "DomainError", "NumericsError", "DataError"),
    "rates": (
        "MuBase", "ConstantMu", "CosineMu", "RateFamily", "Constant", "Proportional",
        "Explicit", "rates_from_config", "big_m", "eta", "phi_x", "phi_y", "gamma",
    ),
    "homogeneous": ("absorption_prob",),
    "proportional": (
        "pgf_prop", "absorption_prop", "absorption_prop_limit", "p0k_limit_prop",
        "crossing_m_threshold",
    ),
    "moments": ("MomentReport", "moment_report", "crossing_time"),
    "growth": (
        "Gompertz", "GenGompertz", "Logistic", "ExtLogistic", "MultisigLogistic", "ModKorf",
        "Korf", "Mitscherlich", "FAMILIES", "CurveInducedMu", "eval_curve", "induced_m",
        "proportional_from_curve", "curve_from_config", "curve_to_config",
    ),
    "oracle": ("TruncatedGrid", "StepControl", "GridMoments", "solve_forward", "moments_from_grid"),
    "process": ("Event", "Trajectory", "EnsembleStats", "simulate", "ensemble"),
    "fit": (
        "Dataset", "FitResult", "SelectionReport", "YReconstruction", "dataset_from_csv",
        "objective", "fit_one", "select_model", "reconstruct_y",
    ),
    "_kernels": (),
    "_ode": (),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "1.0.0"

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    if name in _EXPORTS:
        value = importlib.import_module(f"{__name__}.{name}")
    elif name in _MODULE_OF:
        value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
