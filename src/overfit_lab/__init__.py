"""overfit-lab: minimum-norm kernel interpolation under controlled eigen-decay.

The library samples feature designs, assembles Mercer kernel matrices,
measures their extreme singular values with decay-proof numerics, fits
ridgeless interpolants, and decomposes their test error, with experiment
drivers and CSV/SVG reporting on top.
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
from .spectra import (
    Spectrum,
    effective_rank,
    make_spectrum,
    max_exponential_length,
    theoretical_condition_ratio,
)
from .features import (
    AnalyticKernel,
    DesignMatrix,
    FeatureLaw,
    InputDomain,
    fill_design,
    fourier_design,
    kernel_cross,
    kernel_gram,
    ntk_kappa0,
    ntk_kappa1,
    sample_design,
    sample_inputs,
)
from .linalg import (
    KernelMatrix,
    MinNormSolution,
    RowNormDiagnostics,
    SpectrumSummary,
    assemble_kernel,
    mercer_factor,
    min_norm_solve,
    row_norm_diagnostics,
    singular_extremes,
)
from .regression import (
    Interpolant,
    TargetModel,
    bias_monte_carlo,
    clean_labels,
    empirical_test_error,
    fit_ridgeless,
    population_bias,
    predict,
    synthesize_labels,
    truncation_study,
    variance_closed_form,
)
from .experiments import (
    Aggregate,
    ExperimentConfig,
    ExperimentReport,
    TrialRecord,
    aggregate,
    derive_seed,
    run_experiment,
)
from .config import parse_config, serialize_config
from .csvio import write_csv, write_singular_values_csv, write_spectrum_csv
from .plotting import render_plot

__version__ = "0.1.0"
