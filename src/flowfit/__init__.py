"""Fit latent two-compartment stock-flow models to completion-flow series."""

from .model import (
    LOGISTIC_CLAMP,
    ModelSpec,
    ObservedSeries,
    ParamTrajectories,
    SimulationResult,
    TRAJECTORY_NAMES,
    YearGrid,
    eval_param_trajectories,
    initialize_stocks,
    inv_logit,
    logit,
    rescale_time,
    run_recurrence,
    simulate,
    theta_labels,
)
from .estimation import (
    FitOptions,
    FitResult,
    NumericalError,
    ResidualSet,
    TrajectoryBands,
    UncertaintyResult,
    bfgs_minimize,
    confidence_bands,
    covariance,
    default_starts,
    fd_gradient,
    gradient_fd,
    loss,
    loss_gradient,
    minimize_bfgs,
    numerical_hessian,
    residuals,
    sample_parameters,
)
from .selection import (
    GridEntry,
    enumerate_grid,
    information_criteria,
    run_grid,
    select_best,
)
from .diagnostics import (
    HindcastResult,
    ResidualReport,
    RobustnessReport,
    TruncationRow,
    log_rmse,
    residual_report,
    rolling_origin_hindcast,
    truncation_study,
)
from .synthetic import (
    ConstantInput,
    ExponentialInput,
    PiecewiseLinearInput,
    SyntheticScenario,
    generate,
    scenario_from_dict,
)
from .dataio import DataError, ReportBundle, load_series, write_reports, write_series

__version__ = "0.1.0"


def __getattr__(name: str):
    # ``run_cli`` loads the CLI module (and argparse) on first use, so that
    # ``import flowfit`` stays light and ``python -m flowfit.cli`` does not
    # find its module already imported.
    if name == "run_cli":
        from .cli import run_cli
        globals()[name] = run_cli
        return run_cli
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
