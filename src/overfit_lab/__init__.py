"""overfit-lab: minimum-norm kernel interpolation under controlled eigen-decay.

The library samples feature designs, assembles Mercer kernel matrices,
measures their extreme singular values with decay-proof numerics, fits
ridgeless interpolants, and decomposes their test error, with experiment
drivers and CSV/SVG reporting on top.

The package exports what the command line, the demos and the README quick
start use, plus the error classes; everything else is in its module.
"""

from .errors import (
    ConfigError,
    DomainError,
    EmptyReportError,
    InsufficientTailError,
    InvalidParameterError,
    InvariantViolationError,
    NumericError,
    OverfitLabError,
    PlotFieldError,
    RankDeficientKernelWarning,
    ShapeError,
    SpectrumTruncationError,
)
from .spectra import make_spectrum, theoretical_condition_ratio
from .features import AnalyticKernel, kernel_gram, ntk_kappa0, ntk_kappa1, sample_design
from .linalg import (
    assemble_kernel,
    mercer_factor,
    min_norm_solve,
    row_norm_diagnostics,
    singular_extremes,
)
from .regression import (
    TargetModel,
    clean_labels,
    empirical_test_error,
    fit_ridgeless,
    population_bias,
    synthesize_labels,
    truncation_study,
    variance_closed_form,
)
from .experiments import ExperimentConfig, run_experiment
from .config import parse_config
from .csvio import write_csv, write_singular_values_csv, write_spectrum_csv
from .plotting import render_plot

__version__ = "0.1.0"
