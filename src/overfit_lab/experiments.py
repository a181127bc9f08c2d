"""Experiment sweeps: sweep N, repeat trials, aggregate quartiles.

``run_experiment(cfg)`` runs every sweep.  For every N in ``cfg.n_grid``
and every trial index ``t < cfg.trials`` it calls the experiment's trial
function ``TRIALS[cfg.experiment](cfg, n, t) -> list[TrialRecord]``, then
sorts the records and aggregates them.  A trial function is pure: it
rebuilds whatever it needs from the config (spectrum, true coefficients,
anchors) and draws every random number from a seed given by
``derive_seed``, so the (N, t) cells can run in any order or in separate
processes and still give the same records.

smin-study and condnum trials need K's extreme values only: their designs
stream through a buffer of one TSQR fold, FOLD_ROWS rows, scaled into G's
rows in place, into a values-only kernel (``KernelMatrix.from_blocks``), so
they form no M x N array; where the route must see G twice, the design is
drawn again from its seed.

Two trials open a one-thread pool, scoped to the trial; every other draw
and decomposition runs on the calling thread.

* A learning-curve trial streams its test design on the pool thread, a row
  block at a time, into the residuals of the empirical MSE (the bias is
  exact and needs none): the first block while the calling thread draws
  the training design and fits, the rest while it takes the bias, the
  variance and the extremes; no M x n_test array is formed.  That thread
  only fills, scales or reduces buffers the calling thread allocated (RNG
  fills, elementwise ufuncs and ``np.add.reduce``, which release the GIL),
  and it makes no BLAS call, so the records are the same bytes as a
  sequential run's.
* An smin-study trial decomposes its four laws on two lanes: the calling
  thread takes two and the pool thread the other two, each lane streaming
  through its own buffer.  A lane makes BLAS and LAPACK calls (``dsyrk``,
  ``dsyevd``, TSQR), which release the GIL, on numpy's OpenBLAS, which the
  sweep keeps on one thread; so no call's bits depend on the thread that
  makes it, and the records are the bytes of the two lanes run one after
  the other.  The pool thread's allocations (K or TSQR's R and fold, the
  cosine and sine tables) land in its own malloc arena: over four
  smin-study sweeps of the bench grid (N = 64 to 512) a process peaked at
  50.4-51.0 MB RSS, against 45.5-45.7 MB with the same lanes run in turn
  on the calling thread.

The pool thread calls nothing ``bench/spans.py`` wraps (``sample_design``,
``singular_extremes``, ``row_norm_diagnostics`` and the rest), because that
tracing assumes single-threaded, strictly nested calls; smin-study's lane
reaches the decomposition through ``linalg.singular_extremes``, and the
calling thread then reads each law's values through the wrapped name.  The
pool thread does not outlive its trial.

The sweep runs with numpy's OpenBLAS on one thread
(``linalg.single_threaded_blas``): on two cores its second thread cost more
than it gave, competing with the pool thread and with the thread pool of
scipy's bundled OpenBLAS.  Values-only factorizations, the Jacobi SVD's
among them, run numpy's library (called through ``ctypes``, so no sweep
imports scipy).  scipy's runs only the Jacobi SVD with vectors (a steep
learning-curve fit), at scipy's own thread count, which the fit's last bits
depend on, until the benchmark's steep bias check has a roundoff floor.
The sweep loads that library (``linalg._openblas``) with OpenBLAS's
shortest idle-wait timeout, so its worker sleeps between and after fits
instead of spinning a core for about 0.13 s after each; the count and the
bits are unchanged.  A process that imported ``scipy.linalg`` before its
first steep fit has the library mapped already, with the default timeout.

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
from functools import partial

import numpy as np

from .errors import (
    EmptyReportError,
    InvalidParameterError,
    InvariantViolationError,
    NumericError,
)
from .features import (
    FEATURE_LAWS,
    FOURIER_BLOCK,
    INPUT_DOMAINS,
    KERNEL_KINDS,
    AnalyticKernel,
    InputDomain,
    design_blocks,
    fill_design,
    kernel_cross,
    kernel_gram,
    sample_design,
    sample_inputs,
)
from .linalg import (
    FOLD_ROWS,
    KernelMatrix,
    assemble_kernel,
    mercer_factor,
    min_norm_solve,
    row_norm_diagnostics,
    single_threaded_blas,
    singular_extremes,
)
# the learning-curve trial calls the risk terms through the module, the
# namespace bench/spans.py wraps them in; smin-study's pool thread calls
# linalg's singular_extremes, which bench/spans.py does not wrap
from . import linalg, regression
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
        if self.eta_full < 2:
            raise InvariantViolationError("eta_full must be at least 2")
        # only truncation reads both, and its truncated kernels need M < M_full
        if self.experiment == "truncation" and self.eta_full <= self.eta:
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
    """Condition number of the Mercer kernel against its predicted scale.

    The design streams through one buffer into a values-only kernel
    (``_factor_blocks``), as in smin-study.
    """
    m = cfg.feature_count(n)
    s = make_spectrum(cfg.spectrum, cfg.a, m)
    regime = "exp" if cfg.spectrum == "exponential" else "poly"
    theory = theoretical_condition_ratio(s, n, regime)
    seed = _seed(cfg, n, t)
    block = _stream_buffer(m, n)
    ext = _extremes(KernelMatrix.from_blocks(
        partial(_factor_blocks, cfg.law, s, block, seed), s, n))
    return [_record(cfg, n, m, t, seed, **ext,
                    ratio_to_theory=ext["condition_number"] / theory)]


def _stream_buffer(m: int, n: int) -> np.ndarray:
    """The buffer an M x N design streams through: one fold of FOLD_ROWS
    rows, as TSQR folds them (``linalg._tsqr``), which holds the pair
    screen's leading rows, and at most M rows, so a lane holds N FOLD_ROWS
    entries of it whatever M."""
    return np.empty((min(m, FOLD_ROWS), n))


def _factor_blocks(law: str, s, block: np.ndarray, seed, tail_sq=None):
    """One pass over the Mercer factor G = Lambda^{1/2} Psi of the M x N
    design (M = s.size, N = block.shape[1]) drawn under ``law``, a row block
    at a time: ``design_blocks`` draws each block into ``block``, which is
    scaled into G's rows in place and yielded, so the next block overwrites
    it.  With ``tail_sq``, the unscaled tail rows' (index >= N) column sums
    of squares are added into it first; each pass zeroes it."""
    n = block.shape[1]
    root = np.sqrt(s.eigenvalues)
    if tail_sq is not None:
        tail_sq[...] = 0.0
    for rows in design_blocks(law, s.size, block, seed):
        g = block[:rows.stop - rows.start]
        if tail_sq is not None:
            tail = g[max(n - rows.start, 0):]
            tail_sq += np.einsum("ki,ki->i", tail, tail)
        g *= root[rows, None]
        yield g


# fewest entries of a learning-curve test-design block (8 MB): where half of
# G is less (N < 512 at M = 10 N, or a steep spectrum's capped M), the pool
# would draw little of the test design during the fit, and the calling
# thread would wait for the rest after it
TEST_BLOCK_FLOOR = 1 << 20


def _learning_curve_trial(cfg: ExperimentConfig, n: int, t: int) -> list[TrialRecord]:
    """Test error, bias, and variance of the interpolant.

    The true coefficient is drawn from a per-N seed, so all trials of one N
    share it; each trial redraws design, label noise, and test inputs.

    The training design is drawn into one M x N buffer (``fill_design``),
    which gives the clean labels and is then scaled into G in place, as in
    smin-study.  The clean labels are taken once: the noisy labels add noise
    to them, and the bias regresses them.  The MSE's test design (stream
    "test") is streamed on a pool thread (the pool rule is in the module
    docstring) through one buffer of a multiple of FOURIER_BLOCK rows
    holding about half as many entries as G, or TEST_BLOCK_FLOOR if that is
    more; only a test design within that floor is ever held whole.  The
    first block is drawn while this thread draws, factors and fits; after
    the fit the pool reduces the blocks into the residuals
    G_test^T (w - theta) = Psi_test^T d with d = Lambda^{1/2} (w - theta),
    while this thread takes the bias, the variance and the extremes.
    """
    m = cfg.feature_count(n)
    s = make_spectrum(cfg.spectrum, cfg.a, m)
    theta_rng = np.random.default_rng(_seed(cfg, n, -1, "theta"))
    target = TargetModel(theta_rng.standard_normal(m), cfg.sigma)
    seed = _seed(cfg, n, t)
    rows = FOURIER_BLOCK * max(1, max(m * n // 2, TEST_BLOCK_FLOOR)
                               // (cfg.n_test * FOURIER_BLOCK))
    block = np.empty((min(m, rows), cfg.n_test))
    blocks = design_blocks(cfg.law, m, block, _seed(cfg, n, t, "test"))
    residuals = np.zeros(cfg.n_test)
    with ThreadPoolExecutor(max_workers=1) as pool:
        # the first test block is drawn while this thread draws, factors and fits
        first = pool.submit(next, blocks)
        psi = fill_design(cfg.law, np.empty((m, n)), seed)
        clean = clean_labels(psi, s, target)
        # psi becomes G in place, so the trial holds one M x N training buffer
        K = KernelMatrix(mercer_factor(s, psi, out=psi), s)
        del psi
        y = synthesize_labels(clean, target.sigma, _seed(cfg, n, t, "noise"))
        dual = fit_ridgeless(K, y)
        d = np.sqrt(s.eigenvalues) * (dual - target.theta_star)
        stream = pool.submit(_test_residuals, first, blocks, block, d, residuals)
        # after the fit, so the values are read from the full record it cached
        risk = dict(bias=regression.population_bias(K, target, clean),
                    variance=regression.variance_closed_form(K, cfg.sigma),
                    **_extremes(K))
        stream.result()
    return [_record(cfg, n, m, t, seed, **risk,
                    mse=regression.empirical_test_error(residuals))]


def _test_residuals(first, blocks, block, d, out):
    """Add Psi_test^T d to ``out`` (n_test), for the M x n_test test design
    (M = d.size) that the row-block generator ``blocks`` (``design_blocks``)
    writes into ``block``; ``first`` is the future of its first block,
    already drawn.  Runs on a pool thread, under the pool rule in the module
    docstring."""
    rows = first.result()
    while rows is not None:
        c = block[:rows.stop - rows.start]
        c *= d[rows, None]
        out += np.add.reduce(c, axis=0)
        rows = next(blocks, None)


def _smin_study_trial(cfg: ExperimentConfig, n: int, t: int) -> list[TrialRecord]:
    """Smallest singular value for each feature law, normalized two ways.

    Runs all four laws regardless of cfg.law, each with its own seed, and
    returns their records in ``FEATURE_LAWS`` order: the point of the study
    is the independent-vs-dependent contrast.  Each law's design streams
    through a buffer of FOLD_ROWS rows, one TSQR fold (``_factor_blocks``):
    each block adds the tail's unscaled row norms into the law's own
    ``tail_sq`` and is then scaled into G's rows in place and folded into
    the values-only kernel's K or R (``KernelMatrix.from_blocks``), so no
    M x N array is formed.  A route that must see G twice draws the design
    again from its seed.

    The laws run on two lanes, each with its own buffer: this thread
    decomposes gaussian then cosine, and a pool thread uniform then sine
    (the pool rule is in the module docstring), so each lane usually forms
    one K and runs one TSQR.  This thread then reads the pool thread's
    extremes from its kernels' caches and takes every law's row norms.
    """
    m = cfg.feature_count(n)
    s = make_spectrum(cfg.spectrum, cfg.a, m)
    lam_n = float(s.eigenvalues[n - 1])
    seeds = {law: _seed(cfg, n, t, law) for law in FEATURE_LAWS}
    tail_sq = {law: np.zeros(n) for law in FEATURE_LAWS}
    lanes, kernels = (FEATURE_LAWS[0::2], FEATURE_LAWS[1::2]), {}
    for lane in lanes:
        block = _stream_buffer(m, n)
        for law in lane:
            kernels[law] = KernelMatrix.from_blocks(
                partial(_factor_blocks, law, s, block, seeds[law], tail_sq[law]), s, n)
    with ThreadPoolExecutor(max_workers=1) as pool:
        worker = pool.submit(list, map(linalg.singular_extremes,
                                       [kernels[law] for law in lanes[1]]))
        ext = {law: _extremes(kernels[law]) for law in lanes[0]}
        worker.result()
    ext.update((law, _extremes(kernels[law])) for law in lanes[1])  # cached
    return [_record(cfg, n, m, t, seeds[law], law=law, **ext[law],
                    s_min_over_n_lambda_n=ext[law]["s_min"] / (n * lam_n),
                    s_min_over_n=ext[law]["s_min"] / n,
                    min_p_squared=row_norm_diagnostics(tail_sq[law], n, m).min_p_squared)
            for law in FEATURE_LAWS]


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
