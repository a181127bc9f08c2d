"""Experiment sweeps: sweep N, repeat trials, aggregate quartiles.

``run_experiment(cfg)`` runs every sweep.  For every N in ``cfg.n_grid``
and every trial index ``t < cfg.trials`` it calls the experiment's trial
function ``TRIALS[cfg.experiment](cfg, n, t) -> list[TrialRecord]``, then
sorts the records and aggregates them.  A trial function is pure: it
rebuilds whatever it needs from the config (spectrum, true coefficients,
anchors) and draws every random number from a seed given by
``derive_seed``, so the (N, t) cells can run in any order or in separate
processes and still give the same records.

Two trials draw on a one-thread pool that lives only for that trial.  A
learning-curve trial draws its one M x n_test test factor there (for the
empirical MSE; the bias is exact and needs none) while the calling thread
draws the training design and fits; the factor is freed once the MSE is
taken.  A smin-study trial draws each law's design there while the calling
thread decomposes the previous law's.  Both pools keep one rule:

* the pool thread only fills or scales a buffer the calling thread
  allocated (RNG fills and elementwise ufuncs, which release the GIL); a
  large allocation there would sit in a per-thread malloc arena after the
  trial;
* it makes no BLAS call, so the records are the same bytes as a sequential
  run's;
* it calls nothing ``bench/spans.py`` wraps (``sample_design``,
  ``assemble_kernel`` and the rest), because that tracing assumes
  single-threaded, strictly nested calls;
* no pool outlives its trial.

The sweep runs with numpy's OpenBLAS on one thread
(``linalg.single_threaded_blas``): on two cores its second thread cost more
than it gave, competing with the draw thread and with the thread pool of
scipy's bundled OpenBLAS.  Values-only factorizations, the Jacobi SVD's
among them, run numpy's library (called through ``ctypes``, so no sweep
imports scipy).  scipy's runs only the Jacobi SVD with vectors (a steep
learning-curve fit), at scipy's own thread count, which the fit's last bits
depend on, until the benchmark's steep bias check has a roundoff floor.

``derive_seed`` hashes (master_seed, experiment, N, trial index, stream tag)
with SHA-256, so runs are reproducible bit for bit, trials never share
state, and inserting a new stream cannot shift the draws of an existing one.
Records are emitted in deterministic order (N, law, m_truncated, trial), and
aggregation is pure, so identical configs produce identical reports.
"""

from __future__ import annotations

import hashlib
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import (
    EmptyReportError,
    InvalidParameterError,
    InvariantViolationError,
    NumericError,
)
from .features import (
    FEATURE_LAWS,
    INPUT_DOMAINS,
    KERNEL_KINDS,
    AnalyticKernel,
    InputDomain,
    fill_design,
    kernel_cross,
    kernel_gram,
    sample_design,
    sample_inputs,
)
from .linalg import (
    KernelMatrix,
    assemble_kernel,
    mercer_factor,
    min_norm_solve,
    row_norm_diagnostics,
    single_threaded_blas,
    singular_extremes,
)
# the learning-curve trial calls the risk terms through the module, the
# namespace bench/spans.py wraps them in
from . import regression
from .regression import (
    TargetModel,
    clean_labels,
    fit_ridgeless,
    synthesize_labels,
    truncation_study,
)
from .spectra import (
    DECAY_KINDS,
    make_spectrum,
    max_exponential_length,
    theoretical_condition_ratio,
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated knobs for one experiment sweep.

    The only config schema: every field is a config key and a CLI flag,
    parsed by its default's type; ``experiment`` is a key of TRIALS.

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
        if self.experiment not in TRIALS:
            raise InvariantViolationError(f"unknown experiment {self.experiment!r}")
        # every subcommand checks every key; a custom spectrum needs eigenvalues
        for key, allowed in (
            ("spectrum", tuple(k for k in DECAY_KINDS if k != "custom")),
            ("law", FEATURE_LAWS), ("kernel", KERNEL_KINDS),
            ("input_domain", ("", *INPUT_DOMAINS)),
        ):
            value = getattr(self, key)
            if value not in allowed:
                raise InvariantViolationError(
                    f"unknown {key} {value!r}; expected one of "
                    f"{', '.join(filter(None, allowed))}"
                )
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
        if self.bandwidth <= 0:
            raise InvariantViolationError("bandwidth must be positive")
        if len(self.n_grid) == 0 or any(n < 1 for n in self.n_grid):
            raise InvariantViolationError("n_grid must hold positive sample sizes")
        if any(b <= a for a, b in zip(self.n_grid, self.n_grid[1:])):
            raise InvariantViolationError("n_grid must be strictly increasing")
        if self.eta_full <= self.eta:
            raise InvariantViolationError("eta_full must exceed eta")
        if any(e < 2 for e in self.truncation_etas):
            raise InvariantViolationError("truncation etas must be at least 2")
        if self.n_anchors < 1:
            raise InvariantViolationError("n_anchors must be at least 1")
        # after the sign checks, so a negative infinity reports its sign
        for key in ("a", "sigma", "bandwidth", "interval_lo", "interval_hi"):
            if not math.isfinite(getattr(self, key)):
                raise InvariantViolationError(f"{key} must be finite")
        if self.interval_lo >= self.interval_hi:
            raise InvariantViolationError("interval_lo must be below interval_hi")

    def feature_count(self, n: int, eta: int | None = None) -> int:
        """M for sample size n: eta*n, capped where the spectrum underflows.

        eta defaults to the config's; truncation passes eta_full.
        """
        m = (self.eta if eta is None else eta) * n
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

    A NaN or infinite field is a numeric failure of the trial that produced
    it and raises NumericError naming the trial, except that
    ``condition_number`` is +inf when s_min is (or is cut to) 0 and
    ``ratio_to_theory``, its quotient by the predicted scale, is +inf with it.
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
            if isinstance(v, float) and not math.isfinite(v) and (
                    math.isnan(v)
                    or f.name not in ("condition_number", "ratio_to_theory")):
                raise NumericError(
                    f"trial {self.trial} (N={self.N}, seed {self.seed}): "
                    f"record field {f.name} is {v}"
                )


GROUP_FIELDS = ("N", "spectrum", "law", "kernel", "m_truncated")
VALUE_FIELDS = tuple(f.name for f in fields(TrialRecord) if f.type == "float | None")


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


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Run cfg's sweep: every N in n_grid, every trial t < trials, then aggregate.

    The work of one (N, t) cell is ``TRIALS[cfg.experiment](cfg, n, t)``.
    The cells run with numpy's OpenBLAS on one thread (see the module
    docstring); the caller's thread count is back when this returns or raises.
    """
    trial_fn = TRIALS[cfg.experiment]
    cells = [(n, t) for n in cfg.n_grid for t in range(cfg.trials)]
    with single_threaded_blas():
        records = sorted(
            (rec for n, t in cells for rec in trial_fn(cfg, n, t)),
            key=lambda r: (r.N, r.law or "", r.m_truncated or 0, r.trial),
        )
    return ExperimentReport(cfg, records, aggregate(records))


def _seed(cfg: ExperimentConfig, n: int, t: int, stream: str = "") -> int:
    return derive_seed(cfg.master_seed, cfg.experiment, n, t, stream)


def _record(cfg: ExperimentConfig, n: int, m: int, t: int, seed: int, **values):
    """TrialRecord of cfg's experiment; spectrum and law default to cfg's."""
    return TrialRecord(**{
        "experiment": cfg.experiment, "seed": seed, "N": n, "M": m, "trial": t,
        "spectrum": cfg.spectrum, "law": cfg.law, **values,
    })


def _extremes(K) -> dict:
    """s_max, s_min and condition number of K, as TrialRecord fields."""
    summary = singular_extremes(K)
    return dict(s_max=summary.s_max, s_min=summary.s_min,
                condition_number=summary.condition_number)


def _condnum_trial(cfg: ExperimentConfig, n: int, t: int) -> list[TrialRecord]:
    """Condition number of the Mercer kernel against its predicted scale."""
    m = cfg.feature_count(n)
    s = make_spectrum(cfg.spectrum, cfg.a, m)
    regime = "exp" if cfg.spectrum == "exponential" else "poly"
    theory = theoretical_condition_ratio(s, n, regime)
    seed = _seed(cfg, n, t)
    # the kernel keeps only G, so Psi is freed once it is assembled
    ext = _extremes(assemble_kernel(s, sample_design(cfg.law, m, n, seed).entries))
    return [_record(cfg, n, m, t, seed, **ext,
                    ratio_to_theory=ext["condition_number"] / theory)]


def _learning_curve_trial(cfg: ExperimentConfig, n: int, t: int) -> list[TrialRecord]:
    """Test error, bias, and variance of the interpolant.

    The true coefficient is drawn from a per-N seed, so all trials of one N
    share it; each trial redraws design, label noise, and test inputs.  The
    M x n_test test factor of the MSE (stream "test") is drawn on a pool
    thread while this thread draws the training design and fits (the pool
    rule is in the module docstring).

    The training design is drawn into one M x N buffer (``fill_design``),
    which gives the clean labels and is then scaled into G in place, as in
    smin-study; the test factor is dropped once the MSE is taken, so it does
    not coexist with the M x N left vectors the variance forms.  The clean
    labels are taken once: the noisy labels add noise to them, and the bias
    regresses them.
    """
    m = cfg.feature_count(n)
    s = make_spectrum(cfg.spectrum, cfg.a, m)
    theta_rng = np.random.default_rng(_seed(cfg, n, -1, "theta"))
    target = TargetModel(theta_rng.standard_normal(m), cfg.sigma)
    seed = _seed(cfg, n, t)
    with ThreadPoolExecutor(max_workers=1) as pool:
        draw = pool.submit(_draw_test_factor, cfg.law, s, np.empty((m, cfg.n_test)),
                           _seed(cfg, n, t, "test"))
        psi = fill_design(cfg.law, np.empty((m, n)), seed)
        clean = clean_labels(psi, s, target)
        # psi becomes G in place, so the trial holds one M x N training buffer
        K = KernelMatrix(mercer_factor(s, psi, out=psi), s)
        del psi
        y = synthesize_labels(clean, target.sigma, _seed(cfg, n, t, "noise"))
        dual = fit_ridgeless(K, y)
    # the pool has joined, so the Future holds the test factor's only reference
    mse = regression.empirical_test_error(dual, target, draw.result())
    del draw
    # after the fit, so the values are read from the full record it cached
    return [_record(cfg, n, m, t, seed, mse=mse,
                    bias=regression.population_bias(K, target, clean),
                    variance=regression.variance_closed_form(K, cfg.sigma),
                    **_extremes(K))]


def _draw_test_factor(law: str, s, out, seed):
    """G_test = Lambda^{1/2} Psi_test drawn into ``out``: the same bits as
    ``mercer_factor`` of a ``sample_design`` draw.  Runs on a pool thread,
    under the pool rule in the module docstring."""
    return mercer_factor(s, fill_design(law, out, seed), out=out)


def _smin_study_trial(cfg: ExperimentConfig, n: int, t: int) -> list[TrialRecord]:
    """Smallest singular value for each feature law, normalized two ways.

    Runs all four laws regardless of cfg.law: the point of the study is the
    independent-vs-dependent contrast.  Each law's design is drawn on a pool
    thread (``fill_design``) while this thread decomposes the previous law's.
    This thread takes the row norms from the unscaled draw, then scales that
    same buffer into G in place, so at most two M x N buffers are alive: the
    law being decomposed and the next law's draw.

    The laws are drawn uniform first, whose draw is the cheapest, so the
    first decomposition waits least; the records come back in
    ``FEATURE_LAWS`` order, each law with its own seed.
    """
    m = cfg.feature_count(n)
    laws = ("uniform_subgaussian", "gaussian", "cosine", "sine")
    seeds = [_seed(cfg, n, t, law) for law in laws]
    records = {}
    with ThreadPoolExecutor(max_workers=1) as pool:
        def draw(i):
            return pool.submit(fill_design, laws[i], np.empty((m, n)), seeds[i])

        pending = draw(0)
        s = make_spectrum(cfg.spectrum, cfg.a, m)
        lam_n = float(s.eigenvalues[n - 1])
        for i, law in enumerate(laws):
            psi = pending.result()
            pending = draw(i + 1) if i + 1 < len(laws) else None
            diag = row_norm_diagnostics(psi, n)
            # psi becomes G in place; the next result() rebinds it before the
            # draw after that allocates, so no third M x N buffer appears
            ext = _extremes(KernelMatrix(mercer_factor(s, psi, out=psi), s))
            records[law] = _record(
                cfg, n, m, t, seeds[i], law=law, **ext,
                s_min_over_n_lambda_n=ext["s_min"] / (n * lam_n),
                s_min_over_n=ext["s_min"] / n,
                min_p_squared=diag.min_p_squared,
            )
    return [records[kind] for kind in FEATURE_LAWS]


def _kernel_domain(cfg: ExperimentConfig) -> InputDomain:
    if cfg.input_domain:
        return InputDomain(cfg.input_domain, cfg.interval_lo, cfg.interval_hi)
    if cfg.kernel == "ntk_1hidden":
        return InputDomain("unit_disk_2d")
    return InputDomain("std_normal_1d")


def _kernel_interp_trial(cfg: ExperimentConfig, n: int, t: int) -> list[TrialRecord]:
    """Interpolation with an analytic kernel against a fixed in-span target.

    The target is a combination of kernel sections at n_anchors anchor points
    with a unit-norm coefficient vector, both drawn from N-free seeds so every
    N fits the same function.
    """
    domain = _kernel_domain(cfg)
    dim = 2 if domain.kind in ("unit_disk_2d", "unit_circle_2d") else 1
    kern = AnalyticKernel(cfg.kernel, dimension=dim, bandwidth=cfg.bandwidth)
    anchors = sample_inputs(domain, cfg.n_anchors, _seed(cfg, 0, -1, "anchors"))
    coeff_rng = np.random.default_rng(_seed(cfg, 0, -1, "anchor-coeffs"))
    coeffs = coeff_rng.standard_normal(cfg.n_anchors)
    coeffs /= np.linalg.norm(coeffs)

    seed = _seed(cfg, n, t)
    rng = np.random.default_rng(seed)
    x_train = sample_inputs(domain, n, rng)
    if cfg.anchors_in_training:
        if n < cfg.n_anchors:
            raise InvalidParameterError("anchors_in_training needs N >= n_anchors")
        x_train[: cfg.n_anchors] = anchors
    K = kernel_gram(kern, x_train)
    f_star_train = kernel_cross(kern, x_train, anchors) @ coeffs
    y = f_star_train + cfg.sigma * rng.standard_normal(n)
    sol = min_norm_solve(K, y)
    x_test = sample_inputs(domain, cfg.n_test, _seed(cfg, n, t, "test"))
    preds = kernel_cross(kern, x_test, x_train) @ sol.alpha
    truth = kernel_cross(kern, x_test, anchors) @ coeffs
    ext = _extremes(K)
    return [_record(cfg, n, n, t, seed, spectrum=None, law=domain.kind,
                    kernel=cfg.kernel, mse=float(np.mean((preds - truth) ** 2)),
                    **ext, s_min_over_n=ext["s_min"] / n)]


def _truncation_trial(cfg: ExperimentConfig, n: int, t: int) -> list[TrialRecord]:
    """Variance of truncated kernels versus the full-rank reference."""
    m_full = cfg.feature_count(n, eta=cfg.eta_full)
    if m_full <= n:
        raise InvariantViolationError(
            f"truncation needs M_full > N, but at N={n} the spectrum caps "
            f"M_full at {m_full}"
        )
    s_full = make_spectrum(cfg.spectrum, cfg.a, m_full)
    m_list = [m for m in sorted({min(e * n, m_full) for e in cfg.truncation_etas})
              if m > n]
    seed = _seed(cfg, n, t)
    # the kernel keeps only G, so Psi is freed before the variances
    K_full = assemble_kernel(s_full, sample_design(cfg.law, m_full, n, seed).entries)
    return [_record(cfg, n, m_full, t, seed, **row)
            for row in truncation_study(K_full, cfg.sigma, m_list)]


# trial_fn(cfg, n, t) -> list[TrialRecord] per experiment; see the module docstring
TRIALS = {
    "condnum": _condnum_trial,
    "learning_curve": _learning_curve_trial,
    "smin_study": _smin_study_trial,
    "kernel_interp": _kernel_interp_trial,
    "truncation": _truncation_trial,
}
