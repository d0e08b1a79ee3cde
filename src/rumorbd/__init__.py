"""Two-dimensional birth-death toolkit for rumor diffusion.

The pair (X(t), Y(t)) counts active spreaders and inactives: from (n, k) the
chain jumps to (n+1, k) at rate n*lam(t) and to (n-1, k+1) at rate n*mu(t),
with {n = 0} absorbing.  The package provides exact simulation, transient
moments (closed forms and an ODE route), absorption and generating-function
formulas for constant and proportional rates, a brute-force master-equation
oracle, eight growth-curve families with their induced rate profiles, and
curve fitting with inactive-mean reconstruction.
"""

from .errors import DataError, DomainError, NumericsError, RumorBDError
from .fit import (
    Dataset,
    FitResult,
    SelectionReport,
    YReconstruction,
    dataset_from_csv,
    fit_one,
    objective,
    reconstruct_y,
    select_model,
)
from .growth import (
    FAMILIES,
    CurveInducedMu,
    ExtLogistic,
    GenGompertz,
    Gompertz,
    Korf,
    Logistic,
    Mitscherlich,
    ModKorf,
    MultisigLogistic,
    curve_from_config,
    curve_to_config,
    eval_curve,
    induced_m,
    proportional_from_curve,
)
from .homogeneous import absorption_limit, absorption_prob, p01, p0k_limit, pgf
from .moments import MomentReport, crossing_time, moment_report
from .oracle import GridMoments, StepControl, TruncatedGrid, moments_from_grid, solve_forward
from .process import EnsembleStats, Event, Trajectory, ensemble, simulate
from .proportional import (
    absorption_prop,
    absorption_prop_limit,
    crossing_m_threshold,
    p0k_limit_prop,
    pgf_prop,
)
from .rates import (
    Constant,
    ConstantMu,
    CosineMu,
    Explicit,
    MuBase,
    Proportional,
    RateFamily,
    big_m,
    eta,
    gamma,
    phi_x,
    phi_y,
    rates_from_config,
)

__version__ = "1.0.0"

__all__ = [
    "RumorBDError", "DomainError", "NumericsError", "DataError",
    "MuBase", "ConstantMu", "CosineMu", "RateFamily", "Constant",
    "Proportional", "Explicit", "rates_from_config",
    "big_m", "eta", "phi_x", "phi_y", "gamma",
    "pgf", "absorption_prob", "absorption_limit", "p0k_limit", "p01",
    "pgf_prop", "absorption_prop", "absorption_prop_limit", "p0k_limit_prop",
    "crossing_m_threshold",
    "MomentReport", "moment_report", "crossing_time",
    "Gompertz", "GenGompertz", "Logistic", "ExtLogistic", "MultisigLogistic",
    "ModKorf", "Korf", "Mitscherlich", "FAMILIES", "CurveInducedMu",
    "eval_curve", "induced_m", "proportional_from_curve", "curve_from_config",
    "curve_to_config",
    "TruncatedGrid", "StepControl", "GridMoments", "solve_forward",
    "moments_from_grid",
    "Event", "Trajectory", "EnsembleStats", "simulate", "ensemble",
    "Dataset", "FitResult", "SelectionReport", "YReconstruction",
    "dataset_from_csv", "objective", "fit_one", "select_model", "reconstruct_y",
    "__version__",
]
