import math
import sys
import threading
import tracemalloc
from functools import partial

import numpy as np
import pytest

from conftest import mc_test_error
from overfit_lab import experiments, linalg, regression
from overfit_lab.errors import (
    EmptyReportError,
    InvalidParameterError,
    InvariantViolationError,
    NumericError,
)
from overfit_lab.experiments import (
    TRIALS,
    ExperimentConfig,
    TrialRecord,
    aggregate,
    derive_seed,
    run_experiment,
)
from overfit_lab.features import FEATURE_LAWS, FOURIER_BLOCK, sample_design
from overfit_lab.linalg import (
    KernelMatrix,
    assemble_kernel,
    mercer_factor,
    row_norm_diagnostics,
    singular_extremes,
)
from overfit_lab.regression import TargetModel, clean_labels, fit_ridgeless
from overfit_lab.spectra import make_spectrum


def _cfg(**kw):
    return ExperimentConfig(**kw)


class TestConfigValidation:
    def test_defaults(self):
        cfg = _cfg()
        assert cfg.eta == 10 and cfg.trials == 20 and cfg.n_test == 1000
        assert cfg.sigma == 1.0

    @pytest.mark.parametrize("kw", [
        dict(eta=0),
        dict(trials=0),
        dict(n_grid=()),
        dict(n_grid=(64, 32)),
        dict(n_grid=(32, 32)),
        dict(sigma=-1.0),
        dict(a=0.0),
        dict(experiment="nonsense"),
        dict(truncation_etas=(1,)),
        dict(experiment="truncation", eta_full=5),
        dict(n_anchors=0),
        dict(a=float("inf")),
        dict(sigma=float("inf")),
        dict(bandwidth=float("inf")),
        dict(interval_lo=float("-inf")),
        dict(interval_hi=float("inf")),
        dict(a=float("nan")),
        dict(spectrum="foo"),
        dict(spectrum="custom"),
        dict(law="foo"),
        dict(kernel="foo"),
        dict(input_domain="bar"),
        dict(experiment="smin_study", law="foo"),
        dict(experiment="kernel_interp", spectrum="foo"),
        dict(experiment="learning_curve", kernel="foo", input_domain="bar"),
        dict(experiment="smin_study", eta_full=1),
    ])
    def test_invariant_violations(self, kw):
        with pytest.raises(InvariantViolationError):
            _cfg(**kw)

    def test_eta_full_need_not_exceed_eta_outside_truncation(self):
        # only truncation reads eta_full against eta; every other subcommand
        # checks eta_full on its own
        cfg = _cfg(experiment="smin_study", eta=100)
        assert (cfg.eta, cfg.eta_full) == (100, 100)

    def test_degenerate_eta_allowed_in_process(self):
        assert _cfg(eta=1).eta == 1

    def test_exponential_feature_cap(self):
        cfg = _cfg(spectrum="exponential", a=1.0)
        assert cfg.feature_count(32) == 320
        assert cfg.feature_count(512) == 690  # underflow cap
        steep = _cfg(spectrum="exponential", a=20.0, n_grid=(64,))
        with pytest.raises(InvariantViolationError):
            steep.feature_count(64)

    def test_polynomial_not_capped(self):
        assert _cfg().feature_count(512) == 5120


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_seed(1, "condnum", 64, 3) == derive_seed(1, "condnum", 64, 3)

    def test_distinct_streams(self):
        seeds = {
            derive_seed(1, "condnum", 64, 3),
            derive_seed(1, "condnum", 64, 4),
            derive_seed(1, "condnum", 128, 3),
            derive_seed(2, "condnum", 64, 3),
            derive_seed(1, "learning_curve", 64, 3),
            derive_seed(1, "condnum", 64, 3, "noise"),
        }
        assert len(seeds) == 6

    def test_nonnegative_63_bit(self):
        s = derive_seed(123, "x", 1, 1)
        assert 0 <= s < 2**63


class TestAggregate:
    def test_single_record(self):
        rec = TrialRecord("condnum", seed=1, N=8, M=80, trial=0,
                          spectrum="polynomial", law="gaussian", mse=2.5)
        aggs = aggregate([rec])
        key = (8, "polynomial", "gaussian", None, None)
        assert aggs[key]["mse"].median == 2.5
        assert aggs[key]["mse"].q25 == 2.5

    def test_median_of_three(self):
        recs = [
            TrialRecord("condnum", seed=i, N=8, M=80, trial=i,
                        spectrum="polynomial", law="gaussian", mse=float(v))
            for i, v in enumerate((1.0, 2.0, 3.0))
        ]
        aggs = aggregate(recs)
        assert aggs[(8, "polynomial", "gaussian", None, None)]["mse"].median == 2.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        recs = [
            TrialRecord("condnum", seed=i, N=n, M=10 * n, trial=i,
                        spectrum="polynomial", law="gaussian",
                        mse=float(rng.uniform()))
            for n in (8, 16) for i in range(7)
        ]
        a = aggregate(recs)
        b = aggregate(list(reversed(recs)))
        assert a == b

    def test_empty_rejected(self):
        with pytest.raises(EmptyReportError):
            aggregate([])

    def test_nan_rejected_at_record_level(self):
        with pytest.raises(NumericError, match="trial 0"):
            TrialRecord("condnum", seed=1, N=8, M=80, trial=0, mse=float("nan"))

    def test_only_the_condition_sentinels_may_be_infinite(self):
        # condition_number and its quotient ratio_to_theory are +inf when
        # s_min is cut to 0; an infinity anywhere else is a numeric failure
        TrialRecord("condnum", seed=1, N=8, M=80, trial=0,
                    condition_number=math.inf, ratio_to_theory=math.inf)
        for name in ("s_max", "s_min", "s_min_over_n", "mse", "bias", "variance",
                     "variance_full", "truncation_gap"):
            for value in (math.inf, -math.inf):
                with pytest.raises(NumericError, match=f"trial 0 .*{name}"):
                    TrialRecord("condnum", seed=1, N=8, M=80, trial=0,
                                **{name: value})


class TestCondnum:
    def test_single_trial_shape(self):
        report = run_experiment(_cfg(experiment="condnum", n_grid=(8,), trials=1))
        assert len(report.records) == 1
        rec = report.records[0]
        assert rec.N == 8 and rec.M == 80 and rec.trial == 0
        assert rec.ratio_to_theory is not None and np.isfinite(rec.ratio_to_theory)
        assert rec.condition_number >= 1.0

    def test_record_count_and_determinism(self):
        cfg = _cfg(experiment="condnum", n_grid=(8, 16), trials=3)
        r1 = run_experiment(cfg)
        r2 = run_experiment(cfg)
        assert len(r1.records) == 6
        assert r1.records == r2.records
        assert r1.aggregates == r2.aggregates


class TestLearningCurve:
    def test_exact_recovery_square_design(self):
        # sigma = 0 and M = N: interpolation recovers the target exactly
        cfg = _cfg(experiment="learning_curve", eta=1, sigma=0.0,
                   n_grid=(8, 16), trials=2, n_test=50)
        report = run_experiment(cfg)
        assert len(report.records) == 4
        for rec in report.records:
            assert rec.mse <= 1e-8

    def test_fields_populated(self):
        cfg = _cfg(experiment="learning_curve", n_grid=(16,), trials=2, n_test=50)
        report = run_experiment(cfg)
        for rec in report.records:
            assert rec.mse is not None and rec.bias is not None
            assert rec.variance is not None and rec.variance > 0

    def test_shared_theta_within_n(self):
        # same target across trials of one N: bias identical when the design
        # seed is the only thing that changes is NOT guaranteed, but the
        # derivation must be deterministic across runs
        cfg = _cfg(experiment="learning_curve", n_grid=(8,), trials=2, n_test=20)
        a = run_experiment(cfg).records
        b = run_experiment(cfg).records
        assert a == b

    @pytest.mark.parametrize("law,svds", [
        ("gaussian", 0), ("uniform_subgaussian", 0), ("cosine", 1),
    ])
    def test_factor_svds_per_trial(self, monkeypatch, law, svds):
        # independent designs take the certified Gram route for the solve,
        # the risk terms and the reported values, so no factor SVD runs; a
        # cosine design fails the certificate at N=512 and takes exactly one
        real_svd = np.linalg.svd
        calls = []

        def counting_svd(*args, **kwargs):
            if sys._getframe(1).f_globals["__name__"] == "overfit_lab.linalg":
                calls.append(kwargs.get("compute_uv", True))
            return real_svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        cfg = _cfg(experiment="learning_curve", law=law, n_grid=(512,), trials=1,
                   n_test=20)
        TRIALS["learning_curve"](cfg, 512, 0)
        assert len(calls) == svds

    def test_one_test_factor_per_trial(self, monkeypatch):
        # the bias is exact, so a trial streams only the MSE's test design
        real_stream = experiments._test_residuals
        calls = []

        def counting_stream(*args):
            calls.append(1)
            return real_stream(*args)

        monkeypatch.setattr(experiments, "_test_residuals", counting_stream)
        run_experiment(_cfg(experiment="learning_curve", n_grid=(8, 16), trials=2,
                            n_test=30))
        assert len(calls) == 4

    @pytest.mark.parametrize("floor", [None, 0], ids=["one-block", "blocks"])
    @pytest.mark.parametrize("law,spectrum,n,route", [
        ("gaussian", "polynomial", 64, "gram_eigh"),
        ("uniform_subgaussian", "polynomial", 64, "gram_eigh"),
        ("cosine", "polynomial", 192, "gesdd"),
        ("sine", "polynomial", 192, "gesdd"),
        ("gaussian", "exponential", 32, "jacobi"),
    ])
    def test_streamed_mse_matches_the_whole_test_factor(
            self, monkeypatch, law, spectrum, n, route, floor):
        # the trial streams Psi_test in row blocks into the residuals
        # Psi_test^T Lambda^{1/2} (w - theta): in one block within
        # TEST_BLOCK_FLOOR, and in four to ten blocks of about M N / 2
        # entries without it; the oracle draws the whole M x n_test test
        # factor and averages (G_test^T w - G_test^T theta)^2, the trial's
        # formula before
        if floor is not None:
            monkeypatch.setattr(experiments, "TEST_BLOCK_FLOOR", floor)
        cfg = _cfg(experiment="learning_curve", law=law, spectrum=spectrum,
                   n_grid=(n,), trials=1, n_test=300)
        m = cfg.feature_count(n)
        s = make_spectrum(spectrum, cfg.a, m)
        theta = np.random.default_rng(experiments._seed(cfg, n, -1, "theta"))
        target = TargetModel(theta.standard_normal(m), cfg.sigma)
        d = sample_design(law, m, n, experiments._seed(cfg, n, 0)).entries
        with linalg.single_threaded_blas():
            (rec,) = TRIALS["learning_curve"](cfg, n, 0)
            K = assemble_kernel(s, d)
            y = regression.synthesize_labels(clean_labels(d, s, target), target.sigma,
                                             experiments._seed(cfg, n, 0, "noise"))
            dual = fit_ridgeless(K, y)
        assert K._full.path == route
        g_test = mercer_factor(s, sample_design(
            law, m, cfg.n_test, experiments._seed(cfg, n, 0, "test")).entries)
        assert rec.mse == pytest.approx(mc_test_error(dual, target, g_test),
                                        rel=1e-12, abs=0)

    def test_trial_peak_memory(self):
        # the design is scaled into G in place, the test design streams
        # through a buffer of about M N / 2 entries (at N = 512, above
        # TEST_BLOCK_FLOOR) and the variance forms its left vectors N rows at
        # a time, so a trial's traced peak is G, half of G and a few N x N
        # arrays: 2.00 x 8 M N measured, with no M x n_test term; a whole
        # test factor here would add 1.95 x 8 M N, a second M x N array 1.0
        n, m, n_test = 512, 5120, 1000
        cfg = _cfg(experiment="learning_curve", n_grid=(n,), trials=1, n_test=n_test)
        experiments._learning_curve_trial(cfg, n, 1)  # warm up imports and caches
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            experiments._learning_curve_trial(cfg, n, 0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 2.25 * 8 * m * n

    def test_design_and_test_factor_freed_before_the_variance(self, monkeypatch):
        # the variance meets one M x N array, the kernel's G, which is the
        # training design's buffer scaled in place (no separate Psi); the
        # test design streams through a buffer of fewer than M rows (here
        # TEST_BLOCK_FLOOR entries, more than half of G), so no M x n_test
        # array exists; and the variance sums its left vectors over row
        # blocks, so it forms no second M x N array beside G (its N x N
        # blocks and einsum buffers measure about 0.31 of one)
        n, n_test = 256, 1000
        m = 10 * n
        real_fill, real_stream = experiments.fill_design, experiments._test_residuals
        real_variance = regression.variance_closed_form
        designs, blocks, seen = [], [], []

        def fill(law, out, seed):
            designs.append(out)
            return real_fill(law, out, seed)

        def stream(first, rows, block, d, out):
            blocks.append(block.shape)
            return real_stream(first, rows, block, d, out)

        def variance(K, sigma):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                value = real_variance(K, sigma)
                grown = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            seen.append((K.factor is designs[0], grown))
            return value

        monkeypatch.setattr(experiments, "fill_design", fill)
        monkeypatch.setattr(experiments, "_test_residuals", stream)
        monkeypatch.setattr(regression, "variance_closed_form", variance)
        cfg = _cfg(experiment="learning_curve", n_grid=(n,), trials=1, n_test=n_test)
        experiments._learning_curve_trial(cfg, n, 0)
        ((rows, cols),) = blocks
        assert len(designs) == 1 and rows < m
        assert rows * cols <= max(m * n / 2, experiments.TEST_BLOCK_FLOOR)
        ((factor_is_design, grown),) = seen
        assert factor_is_design and grown < 0.5 * 8 * m * n


@pytest.mark.parametrize("experiment", ["learning_curve", "smin_study"])
def test_no_thread_outlives_the_sweep(experiment, monkeypatch):
    # learning-curve test designs are streamed on a one-thread pool scoped
    # to each trial, open while the training design is drawn; smin-study
    # decomposes two laws on such a pool, open while all four are drawn
    real_fill, real_blocks, counts = experiments.fill_design, experiments.design_blocks, []

    def fill(law, out, seed):
        counts.append(threading.active_count())
        return real_fill(law, out, seed)

    def blocks(law, *args):  # counted where the stream is drawn
        counts.append(threading.active_count())
        yield from real_blocks(law, *args)

    monkeypatch.setattr(experiments, "fill_design", fill)
    monkeypatch.setattr(experiments, "design_blocks", blocks)
    before = threading.active_count()
    run_experiment(_cfg(experiment=experiment, n_grid=(8, 16), trials=2, n_test=30))
    assert threading.active_count() == before
    assert set(counts) == {before + 1}


class TestSminStudy:
    def test_all_laws_recorded(self):
        cfg = _cfg(experiment="smin_study", n_grid=(16,), trials=2)
        report = run_experiment(cfg)
        assert len(report.records) == 2 * 4
        laws = {r.law for r in report.records}
        assert laws == {"gaussian", "uniform_subgaussian", "cosine", "sine"}
        for rec in report.records:
            assert rec.s_min_over_n_lambda_n is not None
            assert rec.s_min_over_n is not None
            assert rec.min_p_squared is not None

    def test_independent_laws_close(self):
        cfg = _cfg(experiment="smin_study", n_grid=(32, 64), trials=8)
        aggs = run_experiment(cfg).aggregates
        for n in (32, 64):
            g = aggs[(n, "polynomial", "gaussian", None, None)]["s_min_over_n_lambda_n"]
            u = aggs[(n, "polynomial", "uniform_subgaussian", None, None)][
                "s_min_over_n_lambda_n"]
            ratio = g.median / u.median
            assert 0.5 <= ratio <= 2.0

    @pytest.mark.parametrize("n", [16, 64, 128, 256, 512])
    def test_records_match_the_sequential_path(self, n, monkeypatch):
        # the oracle is the sequential path on the whole design:
        # sample_design -> assemble_kernel -> singular_extremes -> row norms,
        # one law after another, at N = 16 and over the bench grid (N = 64
        # to 512).  The trial streams each design in row blocks, so each
        # law must take the oracle's route, with the same bits on TSQR
        # ("gesdd") and within the two certificates' bounds on
        # "gram_eigh"; the tail sums of squares, added block by block, are
        # within 2 gamma_M of the whole sums
        cfg = _cfg(experiment="smin_study", n_grid=(n,), trials=2)
        m = cfg.feature_count(n)
        s = make_spectrum(cfg.spectrum, cfg.a, m)
        lam_n = float(s.eigenvalues[n - 1])
        eps = np.finfo(np.float64).eps
        real_extremes, summaries = experiments.singular_extremes, {}

        def kept_extremes(K):  # a kernel's source is its law's _factor_blocks
            summaries[K._source.args[0]] = real_extremes(K)
            return summaries[K._source.args[0]]

        monkeypatch.setattr(experiments, "singular_extremes", kept_extremes)
        for t in range(cfg.trials):
            summaries.clear()
            with linalg.single_threaded_blas():
                got = TRIALS["smin_study"](cfg, n, t)
                for law, rec in zip(FEATURE_LAWS, got, strict=True):
                    summary = summaries[law]
                    seed = derive_seed(cfg.master_seed, cfg.experiment, n, t, law)
                    d = sample_design(law, m, n, seed).entries
                    want = singular_extremes(assemble_kernel(s, d))
                    diag = row_norm_diagnostics(d, n)
                    assert (rec.law, rec.seed, rec.N, rec.M, rec.trial) == (law, seed, n, m, t)
                    assert summary.path == want.path, law
                    rtol = 0.0
                    if want.path == "gram_eigh":
                        rtol = summary.rel_error_bound + want.rel_error_bound + 4 * eps
                    for field, value, tol in (
                            ("s_max", want.s_max, rtol), ("s_min", want.s_min, rtol),
                            ("condition_number", want.condition_number, 2 * rtol),
                            ("s_min_over_n_lambda_n", want.s_min / (n * lam_n), rtol),
                            ("s_min_over_n", want.s_min / n, rtol),
                            ("min_p_squared", diag.min_p_squared,
                             2 * m * eps / (1 - m * eps) + 8 * eps)):
                        moved = getattr(rec, field)
                        assert moved == value or abs(moved - value) <= tol * value, (
                            law, field, moved, value)

    @pytest.mark.parametrize("n", [16, 128, 512])
    def test_lanes_match_each_law_alone(self, n):
        # each record is the one its law gives alone on the calling thread:
        # the law's design streamed through a buffer of its own into a
        # values-only kernel, its extremes and its row norms, bit for bit.
        # The two lanes share no buffer or tail sums, and numpy's OpenBLAS
        # runs on one thread, so the bits do not depend on the thread
        cfg = _cfg(experiment="smin_study", n_grid=(n,), trials=1)
        m = cfg.feature_count(n)
        s = make_spectrum(cfg.spectrum, cfg.a, m)
        lam_n = float(s.eigenvalues[n - 1])
        with linalg.single_threaded_blas():
            got = TRIALS["smin_study"](cfg, n, 0)
            for law, rec in zip(FEATURE_LAWS, got, strict=True):
                seed = derive_seed(cfg.master_seed, cfg.experiment, n, 0, law)
                tail_sq = np.zeros(n)
                ext = singular_extremes(KernelMatrix.from_blocks(partial(
                    experiments._factor_blocks, law, s, experiments._stream_buffer(m, n),
                    seed, tail_sq), s, n))
                assert rec == TrialRecord(
                    experiment="smin_study", seed=seed, N=n, M=m, trial=0,
                    spectrum=cfg.spectrum, law=law, s_max=ext.s_max, s_min=ext.s_min,
                    condition_number=ext.condition_number,
                    s_min_over_n_lambda_n=ext.s_min / (n * lam_n),
                    s_min_over_n=ext.s_min / n,
                    min_p_squared=row_norm_diagnostics(tail_sq, n, m).min_p_squared)

    def test_trial_peak_memory(self):
        # each law's design streams through its lane's buffer of one TSQR
        # fold, FOLD_ROWS rows, scaled into G's rows in place and folded
        # into K or TSQR's R, so a trial holds a few N x N arrays and a few
        # M-vectors per lane, never an M x N array: a whole design alone is
        # 8 M N bytes, 5.2 MB here, and the bound 3.7 MB (3.4 MB were
        # measured; 2.25 MB with one lane and a buffer of N rows)
        self._assert_peak_without_design(256, 10)

    def test_trial_peak_memory_at_m_much_larger_than_n(self):
        # M = 100 N, where a whole design is 3.3 MB and the bound 1.0 MB
        # (0.93 MB were measured; 0.38 MB with one lane and a buffer of
        # max(N, 32) rows)
        self._assert_peak_without_design(64, 100)

    @staticmethod
    def _assert_peak_without_design(n, eta):
        # the layout of a values-only trial, whose two lanes may both run
        # TSQR at once: per lane, the stream buffer of h rows, TSQR's R,
        # fold, T and work array (K on the Gram route is less), the cosine
        # and sine rows' three FOURIER_BLOCK x N angle-addition arrays, the
        # spectrum's square root and numpy's 8192-entry ufunc buffer (which
        # scaling a block into G takes); the spectrum and one M-vector to
        # spare; plus a tenth
        cfg = _cfg(experiment="smin_study", n_grid=(n,), trials=1, eta=eta)
        m = cfg.feature_count(n)
        h, nb = min(m, linalg.FOLD_ROWS), min(n, 32)
        lane = n * (2 * h + n + 2 * nb + 3 * FOURIER_BLOCK) + m + 8192
        layout = 2 * lane + 2 * m
        experiments._smin_study_trial(cfg, n, 1)  # warm up imports and caches
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            experiments._smin_study_trial(cfg, n, 0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * 8 * layout


class TestKernelInterp:
    def test_representable_target_recovered(self):
        # anchors inside the training set and sigma = 0: exact interpolation
        cfg = _cfg(experiment="kernel_interp", kernel="laplacian", sigma=0.0,
                   anchors_in_training=True, n_grid=(32,), trials=3, n_test=100)
        report = run_experiment(cfg)
        for rec in report.records:
            assert rec.mse <= 1e-8

    def test_laplacian_tempered_band(self):
        cfg = _cfg(experiment="kernel_interp", kernel="laplacian",
                   n_grid=(32, 64, 128, 256), trials=10, n_test=400)
        aggs = run_experiment(cfg).aggregates
        meds = [aggs[(n, None, "std_normal_1d", "laplacian", None)]["mse"].median
                for n in (32, 64, 128, 256)]
        assert max(meds) / min(meds) < 5.0

    def test_ntk_disk_error_grows(self):
        cfg = _cfg(experiment="kernel_interp", kernel="ntk_1hidden",
                   n_grid=(16, 32, 64), trials=10, n_test=400)
        aggs = run_experiment(cfg).aggregates
        meds = [aggs[(n, None, "unit_disk_2d", "ntk_1hidden", None)]["mse"].median
                for n in (16, 32, 64)]
        assert meds[2] > meds[0]

    def test_anchor_count_validation(self):
        cfg = _cfg(experiment="kernel_interp", anchors_in_training=True,
                   n_grid=(8,), trials=1, n_anchors=10)
        with pytest.raises(InvalidParameterError):
            run_experiment(cfg)


class TestTruncation:
    def test_full_rank_row_has_zero_gap(self):
        cfg = _cfg(experiment="truncation", n_grid=(16,), trials=2,
                   eta_full=20, truncation_etas=(20,))
        report = run_experiment(cfg)
        for rec in report.records:
            assert rec.m_truncated == 320
            assert rec.truncation_gap == 0.0
            assert rec.bound_holds

    def test_inequality_mostly_holds(self):
        cfg = _cfg(experiment="truncation", n_grid=(32,), trials=5,
                   eta_full=50, truncation_etas=(10,))
        report = run_experiment(cfg)
        assert sum(r.bound_holds for r in report.records) >= 4

    def test_record_count(self):
        cfg = _cfg(experiment="truncation", n_grid=(16, 32), trials=2,
                   eta_full=50, truncation_etas=(5, 10))
        report = run_experiment(cfg)
        assert len(report.records) == 2 * 2 * 2

    def test_trial_peak_memory(self):
        # Psi is freed once K_full is assembled, so the variances meet G and
        # its M_full x N left vectors, not Psi as well
        n, m_full = 64, 6400
        cfg = _cfg(experiment="truncation", n_grid=(n,), trials=1, eta_full=100)
        experiments._truncation_trial(cfg, n, 1)  # warm up imports and caches
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            experiments._truncation_trial(cfg, n, 0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 8 * m_full * n


@pytest.fixture
def blas_threads():
    """numpy's OpenBLAS thread-count getter, with the caller's count set to 3
    for the test and put back after it; skips on any other BLAS."""
    blas = linalg._openblas("numpy")
    if blas is None:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        pytest.skip(f"numpy's BLAS is {info.get('name')} {info.get('version')}, "
                    "not the bundled scipy-openblas")
    get, set_ = blas.get_threads, blas.set_threads
    before = get()
    set_(3)  # neither the sweep's 1 nor OpenBLAS's default on two cores
    yield get
    set_(before)


def _probe(monkeypatch, name, get, then=None):
    """Register a trial ``name`` in TRIALS that records numpy's BLAS thread
    count, then calls ``then(cfg)``; returns the list of counts seen."""
    seen = []

    def trial(cfg, n, t):
        seen.append(get())
        if then is not None:
            then(cfg)
        return [TrialRecord(experiment=cfg.experiment, seed=0, N=n, M=n, trial=t,
                            s_max=1.0)]

    monkeypatch.setitem(TRIALS, name, trial)
    return seen


class TestBlasThreads:
    def test_sweep_runs_on_one_thread_and_restores_the_count(
            self, monkeypatch, blas_threads):
        seen = _probe(monkeypatch, "probe", blas_threads)
        run_experiment(_cfg(experiment="probe", n_grid=(8, 16), trials=2))
        assert seen == [1] * 4
        assert blas_threads() == 3

    def test_count_restored_when_a_trial_raises(self, monkeypatch, blas_threads):
        def fail(cfg):
            raise NumericError("probe trial failed")

        seen = _probe(monkeypatch, "probe", blas_threads, then=fail)
        with pytest.raises(NumericError, match="probe trial failed"):
            run_experiment(_cfg(experiment="probe", n_grid=(8,), trials=1))
        assert seen == [1] and blas_threads() == 3

    def test_nested_sweeps_restore_only_at_the_outermost_exit(
            self, monkeypatch, blas_threads):
        inner = _probe(monkeypatch, "inner", blas_threads)
        after_inner = []

        def sweep_inner(cfg):
            run_experiment(_cfg(experiment="inner", n_grid=(8,), trials=2))
            after_inner.append(blas_threads())

        outer = _probe(monkeypatch, "outer", blas_threads, then=sweep_inner)
        run_experiment(_cfg(experiment="outer", n_grid=(8,), trials=2))
        assert outer == after_inner == [1, 1] and inner == [1] * 4
        assert blas_threads() == 3

    def test_concurrent_sweeps_share_one_count(self, monkeypatch, blas_threads):
        # the first sweep to finish must not restore the count while the
        # other is still inside
        both_inside, first_done = threading.Barrier(2, timeout=30), threading.Event()
        seen_after_first = []

        def first(cfg):
            both_inside.wait()

        def second(cfg):
            both_inside.wait()
            first_done.wait(timeout=30)
            seen_after_first.append(blas_threads())

        _probe(monkeypatch, "first", blas_threads, then=first)
        _probe(monkeypatch, "second", blas_threads, then=second)

        def sweep_first():
            run_experiment(_cfg(experiment="first", n_grid=(8,), trials=1))
            first_done.set()

        threads = [threading.Thread(target=sweep_first),
                   threading.Thread(target=run_experiment,
                                    args=(_cfg(experiment="second", n_grid=(8,),
                                               trials=1),))]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
        assert not any(th.is_alive() for th in threads)
        assert first_done.is_set() and seen_after_first == [1]
        assert blas_threads() == 3

    def test_threads_churning_the_block_keep_the_count(self, blas_threads):
        # more threads than cores enter and leave the block with a short
        # switch interval; a lost update to the depth count would restore the
        # count while a thread is inside, or leave it at 1
        wrong = []

        def churn():
            for _ in range(200):
                with linalg.single_threaded_blas():
                    if blas_threads() != 1:
                        wrong.append(blas_threads())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=churn) for _ in range(8)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert wrong == [] and blas_threads() == 3

    @pytest.mark.parametrize("experiment", ["condnum", "learning_curve"])
    def test_jacobi_records_keep_their_bits(self, experiment):
        # a Jacobi SVD sets its own threads (values only from numpy's bundle
        # on one thread, with vectors from scipy's at its count), so a steep
        # trial swept by run_experiment is the bits of the trial called
        # directly at the default thread counts; N=512 is where scipy's
        # thread count moves them
        cfg = _cfg(experiment=experiment, spectrum="exponential", n_grid=(512,),
                   trials=1)
        assert cfg.feature_count(512) == 690
        direct = TRIALS[experiment](cfg, 512, 0)
        assert repr(run_experiment(cfg).records) == repr(direct)

    @pytest.mark.parametrize("experiment", ["condnum", "learning_curve"])
    def test_certified_records_move_within_their_bound(self, experiment):
        # on the gram_eigh route numpy's thread count changes roundoff only:
        # each run is within rel_error_bound of the exact values, so two runs
        # differ by at most twice it (four times on ratios and the variance);
        # mse and bias are squared errors of duals that each move by at most
        # rel_error_bound, which bounds them through their first and second
        # order terms
        n = 512
        cfg = _cfg(experiment=experiment, n_grid=(n,), trials=1, n_test=100)
        (direct,) = TRIALS[experiment](cfg, n, 0)
        (swept,) = run_experiment(cfg).records
        m = cfg.feature_count(n)
        s = make_spectrum(cfg.spectrum, cfg.a, m)
        law = cfg.law
        d = sample_design(law, m, n, experiments._seed(cfg, n, 0)).entries
        K = assemble_kernel(s, d)
        if experiment == "learning_curve":
            # fit first: the trial reads its values after the fit
            theta = np.random.default_rng(experiments._seed(cfg, n, -1, "theta"))
            target = TargetModel(theta.standard_normal(m), cfg.sigma)
            y = regression.synthesize_labels(clean_labels(d, s, target), target.sigma,
                                             experiments._seed(cfg, n, 0, "noise"))
            duals = {"mse": fit_ridgeless(K, y),
                     "bias": K.dual(clean_labels(d, s, target))}
            g_test = mercer_factor(s, sample_design(
                law, m, cfg.n_test, experiments._seed(cfg, n, 0, "test")).entries)
        summary = singular_extremes(K)
        bound = summary.rel_error_bound
        assert summary.path == "gram_eigh"
        tol = {"s_max": 2 * bound * direct.s_max, "s_min": 2 * bound * direct.s_min,
               "condition_number": 4 * bound * direct.condition_number}
        if experiment == "condnum":
            tol["ratio_to_theory"] = 4 * bound * direct.ratio_to_theory
        else:
            tol["variance"] = 4 * bound * direct.variance
            # ||x' - x|| <= e moves q = ||A (x - c)||^2 by at most
            # 2 sqrt(q) ||A|| e + (||A|| e)^2
            norms = {"mse": np.linalg.norm(g_test) / np.sqrt(cfg.n_test),
                     "bias": np.sqrt(s.eigenvalues[0])}
            for name, dual in duals.items():
                a_e = norms[name] * 2 * bound * np.linalg.norm(dual)
                tol[name] = 2 * np.sqrt(getattr(direct, name)) * a_e + a_e ** 2
        for name, limit in tol.items():
            assert abs(getattr(swept, name) - getattr(direct, name)) <= limit, name
