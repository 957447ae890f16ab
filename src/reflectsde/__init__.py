"""Simulation and drift estimation for reflected stochastic differential
equations with one- and two-sided barriers."""

from .errors import ConfigError, DataError, ModelError, UsageError
from .model import (
    BarrierConfig,
    DriftSpec,
    ModelConfig,
    RegimeDiagnostics,
    SamplingPlan,
    validate_regime,
)
from .simulate import (
    LEPINGLE,
    PROJECTION,
    SamplePath,
    SimOptions,
    TwoFactorPath,
    read_path_csv,
    simulate_path,
    simulate_two_factor,
    write_path_csv,
)
from .stationary import (
    DensityGrid,
    information,
    invariant_density,
    stationary_average,
)
from .estimate import (
    EstimateResult,
    asymptotic_stderr,
    confidence_interval,
    contrast,
    estimate_nlse,
    estimate_power_closed_form,
    estimate_two_factor,
    minimize_unimodal,
    nlse_optimize,
)
from .harness import (
    McConfig,
    McRun,
    McSummary,
    NormalityReport,
    TwoFactorMcConfig,
    normality_diagnostic,
    run_mc,
    run_mc_two_factor,
    summarize,
)

__version__ = "0.1.0"

__all__ = [
    "BarrierConfig",
    "ConfigError",
    "DataError",
    "DensityGrid",
    "DriftSpec",
    "EstimateResult",
    "LEPINGLE",
    "McConfig",
    "McRun",
    "McSummary",
    "ModelConfig",
    "ModelError",
    "NormalityReport",
    "PROJECTION",
    "RegimeDiagnostics",
    "SamplePath",
    "SamplingPlan",
    "SimOptions",
    "TwoFactorMcConfig",
    "TwoFactorPath",
    "UsageError",
    "asymptotic_stderr",
    "confidence_interval",
    "contrast",
    "estimate_nlse",
    "estimate_power_closed_form",
    "estimate_two_factor",
    "information",
    "invariant_density",
    "minimize_unimodal",
    "nlse_optimize",
    "normality_diagnostic",
    "read_path_csv",
    "run_mc",
    "run_mc_two_factor",
    "simulate_path",
    "simulate_two_factor",
    "stationary_average",
    "summarize",
    "validate_regime",
    "write_path_csv",
    "__version__",
]
