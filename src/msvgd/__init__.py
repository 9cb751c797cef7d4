"""Particle-based variational inference with matrix-valued Stein kernels."""

from .errors import ConfigError, InvalidInputError, NumericalAbort
from .psdlin import PreconditionerBundle, make_bundle, psd_repair
from .targets import (
    DoubleBanana,
    Gaussian,
    LogisticDataset,
    LogisticPosterior,
    Sine,
    StarMixture,
    make_target,
)
from .kernels import (
    ConstPrecond,
    MixturePrecond,
    ScalarRBF,
    median_bandwidth,
    mixture_weights,
)
from .dynamics import (
    METHODS,
    PrecondPolicy,
    RunResult,
    StepperState,
    adagrad_step,
    averaged_preconditioner,
    refresh_anchors,
    run,
    svn_direction,
    svn_metrics,
)
from .metrics import MmdReport, mmd_sq, predictive_metrics
from .harness import RunConfig, RunRecord, compare, parse_config, run_experiment

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "ConstPrecond", "DoubleBanana", "Gaussian",
    "InvalidInputError", "LogisticDataset", "LogisticPosterior", "METHODS",
    "MixturePrecond", "MmdReport", "NumericalAbort", "PrecondPolicy",
    "PreconditionerBundle", "RunConfig", "RunRecord", "RunResult",
    "ScalarRBF", "Sine", "StarMixture", "StepperState", "adagrad_step",
    "averaged_preconditioner", "compare", "make_bundle", "make_target",
    "median_bandwidth", "mixture_weights", "mmd_sq", "parse_config",
    "predictive_metrics", "psd_repair", "refresh_anchors", "run",
    "run_experiment", "svn_direction", "svn_metrics",
]
