"""Experiment drivers: sweep N, repeat trials, aggregate quartiles.

Every trial derives its RNG seed as a SHA-256 hash of (master_seed,
experiment, N, trial index, stream tag), so runs are reproducible bit for
bit, trials never share state, and inserting a new stream cannot shift the
draws of an existing one.  Records are emitted in deterministic order
(N, law, trial), and aggregation is pure, so identical configs produce
identical reports.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import (
    EmptyReportError,
    InvalidParameterError,
    InvariantViolationError,
    NumericError,
)
from .features import (
    AnalyticKernel,
    FeatureLaw,
    InputDomain,
    kernel_cross,
    kernel_gram,
    sample_design,
    sample_inputs,
)
from .linalg import (
    assemble_kernel,
    min_norm_solve,
    row_norm_diagnostics,
    singular_extremes,
)
from .regression import (
    TargetModel,
    evaluate_risk,
    fit_ridgeless,
    synthesize_labels,
    truncation_study,
)
from .spectra import make_spectrum, max_exponential_length, theoretical_condition_ratio

EXPERIMENTS = ("condnum", "learning_curve", "smin_study", "kernel_interp", "truncation")
SMIN_LAWS = ("gaussian", "uniform_subgaussian", "cosine", "sine")


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated knobs for one experiment sweep.

    eta >= 2 keeps the over-parameterization assumption; eta == 1 is allowed
    in-process only for the degenerate square-design identity checks (the
    config-file layer rejects it).
    """

    experiment: str = "condnum"
    spectrum: str = "polynomial"
    a: float = 1.0
    law: str = "gaussian"
    eta: int = 10
    n_grid: tuple[int, ...] = (32, 64, 128, 256, 512)
    trials: int = 20
    n_test: int = 1000
    sigma: float = 1.0
    master_seed: int = 2024
    out: str = ""
    kernel: str = "laplacian"
    bandwidth: float = 1.0
    input_domain: str = ""
    interval_lo: float = 0.0
    interval_hi: float = 2.0 * math.pi
    n_anchors: int = 10
    anchors_in_training: bool = False
    eta_full: int = 100
    truncation_etas: tuple[int, ...] = (10,)
    spectrum_length: int = 0

    def __post_init__(self):
        object.__setattr__(self, "n_grid", tuple(int(n) for n in self.n_grid))
        object.__setattr__(
            self, "truncation_etas", tuple(int(e) for e in self.truncation_etas)
        )
        if self.experiment not in EXPERIMENTS:
            raise InvariantViolationError(f"unknown experiment {self.experiment!r}")
        if self.eta < 1:
            raise InvariantViolationError("eta must be at least 1")
        if self.trials < 1:
            raise InvariantViolationError("trials must be at least 1")
        if self.n_test < 1:
            raise InvariantViolationError("n_test must be at least 1")
        if self.sigma < 0:
            raise InvariantViolationError("sigma must be >= 0")
        if self.a <= 0:
            raise InvariantViolationError("decay parameter a must be positive")
        if len(self.n_grid) == 0 or any(n < 1 for n in self.n_grid):
            raise InvariantViolationError("n_grid must hold positive sample sizes")
        if any(b <= a for a, b in zip(self.n_grid, self.n_grid[1:])):
            raise InvariantViolationError("n_grid must be strictly increasing")
        if self.eta_full <= self.eta:
            raise InvariantViolationError("eta_full must exceed eta")
        if any(e < 2 for e in self.truncation_etas):
            raise InvariantViolationError("truncation etas must be at least 2")

    def feature_count(self, n: int) -> int:
        """M for sample size n: eta*n, capped where the spectrum underflows."""
        m = self.eta * n
        if self.spectrum == "exponential":
            cap = max_exponential_length(self.a)
            if cap < n:
                raise InvariantViolationError(
                    f"exponential decay a={self.a} underflows before N={n}; "
                    f"largest representable index is {cap}"
                )
            m = min(m, cap)
        return m


@dataclass(frozen=True)
class TrialRecord:
    """One trial's measured quantities; unused fields stay None.

    A NaN field is a numeric failure of the trial that produced it and raises
    NumericError naming the trial.
    """

    experiment: str
    seed: int
    N: int
    M: int
    trial: int
    spectrum: str | None = None
    law: str | None = None
    kernel: str | None = None
    s_max: float | None = None
    s_min: float | None = None
    condition_number: float | None = None
    ratio_to_theory: float | None = None
    s_min_over_n_lambda_n: float | None = None
    s_min_over_n: float | None = None
    min_p_squared: float | None = None
    mse: float | None = None
    bias: float | None = None
    variance: float | None = None
    m_truncated: int | None = None
    variance_full: float | None = None
    truncation_gap: float | None = None
    truncation_bound: float | None = None
    bound_holds: bool | None = None

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, float) and math.isnan(v):
                raise NumericError(
                    f"trial {self.trial} (N={self.N}, seed {self.seed}): "
                    f"record field {f.name} is NaN"
                )


GROUP_FIELDS = ("N", "spectrum", "law", "kernel", "m_truncated")
VALUE_FIELDS = (
    "s_max", "s_min", "condition_number", "ratio_to_theory",
    "s_min_over_n_lambda_n", "s_min_over_n", "min_p_squared",
    "mse", "bias", "variance",
    "variance_full", "truncation_gap", "truncation_bound",
)


@dataclass(frozen=True)
class Aggregate:
    q25: float
    median: float
    q75: float


@dataclass(frozen=True)
class ExperimentReport:
    config: ExperimentConfig
    records: list[TrialRecord]
    aggregates: dict = field(default_factory=dict)


def derive_seed(master_seed: int, experiment: str, N, trial, stream: str = "") -> int:
    """Stable 63-bit seed from the trial coordinates."""
    h = hashlib.sha256(
        f"{master_seed}|{experiment}|{N}|{trial}|{stream}".encode()
    ).digest()
    return int.from_bytes(h[:8], "big") >> 1


def aggregate(records) -> dict:
    """Median and quartiles of every populated value field, per group key.

    The group key is (N, spectrum, law, kernel, m_truncated); ordering of the
    input records does not affect the result.
    """
    records = list(records)
    if not records:
        raise EmptyReportError("cannot aggregate an empty record list")
    buckets: dict = {}
    for r in records:
        key = tuple(getattr(r, f) for f in GROUP_FIELDS)
        buckets.setdefault(key, []).append(r)
    out = {}
    for key in sorted(buckets, key=_group_sort_key):
        stats = {}
        group = buckets[key]
        for f in VALUE_FIELDS:
            vals = [getattr(r, f) for r in group if getattr(r, f) is not None]
            if not vals:
                continue
            arr = np.asarray(vals, dtype=np.float64)
            # linear interpolation breaks on inf sentinels (inf - inf); fall
            # back to the plain order statistic there
            method = "nearest" if np.isinf(arr).any() else "linear"
            q25, med, q75 = np.quantile(arr, [0.25, 0.5, 0.75], method=method)
            stats[f] = Aggregate(float(q25), float(med), float(q75))
        out[key] = stats
    return out


def _group_sort_key(key):
    return tuple("" if k is None else str(k) if isinstance(k, str) else k for k in key)


def _sorted_records(records):
    return sorted(
        records, key=lambda r: (r.N, r.law or "", r.m_truncated or 0, r.trial)
    )


def _theory_regime(spectrum_kind: str) -> str:
    return "exp" if spectrum_kind == "exponential" else "poly"


def run_condnum(cfg: ExperimentConfig) -> ExperimentReport:
    """Condition number of the Mercer kernel against its predicted scale."""
    _expect(cfg, "condnum")
    records = []
    law = FeatureLaw(cfg.law)
    for n in cfg.n_grid:
        m = cfg.feature_count(n)
        s = make_spectrum(cfg.spectrum, cfg.a, m)
        theory = theoretical_condition_ratio(s, n, _theory_regime(cfg.spectrum))
        for t in range(cfg.trials):
            seed = derive_seed(cfg.master_seed, cfg.experiment, n, t)
            d = sample_design(law, m, n, seed)
            summary = singular_extremes(assemble_kernel(s, d), full=False)
            records.append(
                TrialRecord(
                    experiment=cfg.experiment,
                    seed=seed,
                    N=n,
                    M=m,
                    trial=t,
                    spectrum=cfg.spectrum,
                    law=cfg.law,
                    s_max=summary.s_max,
                    s_min=summary.s_min,
                    condition_number=summary.condition_number,
                    ratio_to_theory=summary.condition_number / theory,
                )
            )
    records = _sorted_records(records)
    return ExperimentReport(cfg, records, aggregate(records))


def run_learning_curve(cfg: ExperimentConfig) -> ExperimentReport:
    """Test error, bias, and variance of the interpolant along the N grid.

    The true coefficient is drawn once per N and shared by all trials of
    that N; each trial redraws design, label noise, and test inputs.
    """
    _expect(cfg, "learning_curve")
    records = []
    law = FeatureLaw(cfg.law)
    for n in cfg.n_grid:
        m = cfg.feature_count(n)
        s = make_spectrum(cfg.spectrum, cfg.a, m)
        theta_rng = np.random.default_rng(
            derive_seed(cfg.master_seed, cfg.experiment, n, -1, "theta")
        )
        target = TargetModel(theta_rng.standard_normal(m), cfg.sigma)
        for t in range(cfg.trials):
            seed = derive_seed(cfg.master_seed, cfg.experiment, n, t)
            d = sample_design(law, m, n, seed)
            K = assemble_kernel(s, d)
            y = synthesize_labels(
                d, s, target, derive_seed(cfg.master_seed, cfg.experiment, n, t, "noise")
            )
            f = fit_ridgeless(K, y)
            test = sample_design(
                law, m, cfg.n_test,
                derive_seed(cfg.master_seed, cfg.experiment, n, t, "test"),
            )
            risk = evaluate_risk(
                f, target, test, cfg.n_test,
                derive_seed(cfg.master_seed, cfg.experiment, n, t, "bias"),
            )
            summary = singular_extremes(K, full=False)
            records.append(
                TrialRecord(
                    experiment=cfg.experiment,
                    seed=seed,
                    N=n,
                    M=m,
                    trial=t,
                    spectrum=cfg.spectrum,
                    law=cfg.law,
                    mse=risk.empirical_mse,
                    bias=risk.bias,
                    variance=risk.variance,
                    s_max=summary.s_max,
                    s_min=summary.s_min,
                    condition_number=summary.condition_number,
                )
            )
    records = _sorted_records(records)
    return ExperimentReport(cfg, records, aggregate(records))


def run_smin_study(cfg: ExperimentConfig) -> ExperimentReport:
    """Smallest singular value across feature laws, normalized two ways.

    Runs all four laws regardless of cfg.law: the point of the study is the
    independent-vs-dependent contrast.
    """
    _expect(cfg, "smin_study")
    records = []
    for n in cfg.n_grid:
        m = cfg.feature_count(n)
        s = make_spectrum(cfg.spectrum, cfg.a, m)
        lam_n = float(s.eigenvalues[n - 1])
        for law_name in SMIN_LAWS:
            law = FeatureLaw(law_name)
            for t in range(cfg.trials):
                seed = derive_seed(cfg.master_seed, cfg.experiment, n, t, law_name)
                d = sample_design(law, m, n, seed)
                summary = singular_extremes(assemble_kernel(s, d), full=False)
                diag = row_norm_diagnostics(d, n)
                records.append(
                    TrialRecord(
                        experiment=cfg.experiment,
                        seed=seed,
                        N=n,
                        M=m,
                        trial=t,
                        spectrum=cfg.spectrum,
                        law=law_name,
                        s_max=summary.s_max,
                        s_min=summary.s_min,
                        condition_number=summary.condition_number,
                        s_min_over_n_lambda_n=summary.s_min / (n * lam_n),
                        s_min_over_n=summary.s_min / n,
                        min_p_squared=diag.min_p_squared,
                    )
                )
    records = _sorted_records(records)
    return ExperimentReport(cfg, records, aggregate(records))


def _kernel_domain(cfg: ExperimentConfig) -> InputDomain:
    if cfg.input_domain:
        return InputDomain(cfg.input_domain, cfg.interval_lo, cfg.interval_hi)
    if cfg.kernel == "ntk_1hidden":
        return InputDomain("unit_disk_2d")
    return InputDomain("std_normal_1d")


def run_kernel_interp(cfg: ExperimentConfig) -> ExperimentReport:
    """Interpolation with an analytic kernel against a fixed in-span target.

    The target is a combination of kernel sections at n_anchors anchor points
    with a unit-norm coefficient vector, both drawn once from the master seed
    so every N fits the same function.
    """
    _expect(cfg, "kernel_interp")
    domain = _kernel_domain(cfg)
    dim = 2 if domain.kind in ("unit_disk_2d", "unit_circle_2d") else 1
    kern = AnalyticKernel(cfg.kernel, dimension=dim, bandwidth=cfg.bandwidth)
    anchor_seed = derive_seed(cfg.master_seed, cfg.experiment, 0, -1, "anchors")
    anchors = sample_inputs(domain, cfg.n_anchors, anchor_seed)
    coeff_rng = np.random.default_rng(
        derive_seed(cfg.master_seed, cfg.experiment, 0, -1, "anchor-coeffs")
    )
    coeffs = coeff_rng.standard_normal(cfg.n_anchors)
    coeffs /= np.linalg.norm(coeffs)

    records = []
    for n in cfg.n_grid:
        for t in range(cfg.trials):
            seed = derive_seed(cfg.master_seed, cfg.experiment, n, t)
            rng = np.random.default_rng(seed)
            x_train = sample_inputs(domain, n, rng)
            if cfg.anchors_in_training:
                if n < cfg.n_anchors:
                    raise InvalidParameterError(
                        "anchors_in_training needs N >= n_anchors"
                    )
                x_train[: cfg.n_anchors] = anchors
            z = anchors if not cfg.anchors_in_training else x_train[: cfg.n_anchors]
            K = kernel_gram(kern, x_train)
            f_star_train = kernel_cross(kern, x_train, z) @ coeffs
            y = f_star_train + cfg.sigma * rng.standard_normal(n)
            sol = min_norm_solve(K, y)
            x_test = sample_inputs(
                domain, cfg.n_test,
                derive_seed(cfg.master_seed, cfg.experiment, n, t, "test"),
            )
            preds = kernel_cross(kern, x_test, x_train) @ sol.alpha
            truth = kernel_cross(kern, x_test, z) @ coeffs
            mse = float(np.mean((preds - truth) ** 2))
            summary = singular_extremes(K, full=False)
            records.append(
                TrialRecord(
                    experiment=cfg.experiment,
                    seed=seed,
                    N=n,
                    M=n,
                    trial=t,
                    kernel=cfg.kernel,
                    law=domain.kind,
                    mse=mse,
                    s_max=summary.s_max,
                    s_min=summary.s_min,
                    condition_number=summary.condition_number,
                    s_min_over_n=summary.s_min / n,
                )
            )
    records = _sorted_records(records)
    return ExperimentReport(cfg, records, aggregate(records))


def run_truncation(cfg: ExperimentConfig) -> ExperimentReport:
    """Variance of truncated kernels versus the full-rank reference."""
    _expect(cfg, "truncation")
    records = []
    law = FeatureLaw(cfg.law)
    for n in cfg.n_grid:
        m_full = cfg.eta_full * n
        if cfg.spectrum == "exponential":
            m_full = min(m_full, max_exponential_length(cfg.a))
        s_full = make_spectrum(cfg.spectrum, cfg.a, m_full)
        m_list = []
        for e in cfg.truncation_etas:
            m = min(e * n, m_full)
            if m not in m_list and m > n:
                m_list.append(m)
        for t in range(cfg.trials):
            seed = derive_seed(cfg.master_seed, cfg.experiment, n, t)
            d_full = sample_design(law, m_full, n, seed)
            for rec in truncation_study(s_full, d_full, cfg.sigma, m_list):
                records.append(
                    TrialRecord(
                        experiment=cfg.experiment,
                        seed=seed,
                        N=n,
                        M=m_full,
                        trial=t,
                        spectrum=cfg.spectrum,
                        law=cfg.law,
                        m_truncated=rec.m_truncated,
                        variance=rec.variance,
                        variance_full=rec.variance_full,
                        truncation_gap=rec.gap,
                        truncation_bound=rec.bound,
                        bound_holds=rec.holds,
                    )
                )
    records = _sorted_records(records)
    return ExperimentReport(cfg, records, aggregate(records))


RUNNERS = {
    "condnum": run_condnum,
    "learning_curve": run_learning_curve,
    "smin_study": run_smin_study,
    "kernel_interp": run_kernel_interp,
    "truncation": run_truncation,
}


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    return RUNNERS[cfg.experiment](cfg)


def _expect(cfg: ExperimentConfig, name: str):
    if cfg.experiment != name:
        raise InvalidParameterError(
            f"config names experiment {cfg.experiment!r}, runner is {name!r}"
        )
