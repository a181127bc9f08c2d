import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from overfit_lab import experiments, regression
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
        dict(eta_full=5),
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
    ])
    def test_invariant_violations(self, kw):
        with pytest.raises(InvariantViolationError):
            _cfg(**kw)

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
        # the bias is exact, so a trial draws only the MSE's test factor
        real_draw = experiments._draw_test_factor
        calls = []

        def counting_draw(*args):
            calls.append(1)
            return real_draw(*args)

        monkeypatch.setattr(experiments, "_draw_test_factor", counting_draw)
        run_experiment(_cfg(experiment="learning_curve", n_grid=(8, 16), trials=2,
                            n_test=30))
        assert len(calls) == 4

    def test_trial_peak_memory(self):
        # Psi is freed once the labels are taken and the test factor once the
        # MSE is, so a trial's traced peak is about Psi + G + the test factor,
        # 8 (2 M N + M n_test) bytes; kept to the end, Psi and the test
        # factor would coexist with the variance's M x N left vectors
        n, m, n_test = 256, 2560, 1000
        cfg = _cfg(experiment="learning_curve", n_grid=(n,), trials=1, n_test=n_test)
        experiments._learning_curve_trial(cfg, n, 1)  # warm up imports and caches
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            experiments._learning_curve_trial(cfg, n, 0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * 8 * (m * n + m * n_test)

    def test_design_and_test_factor_freed_before_the_variance(self, monkeypatch):
        # the variance forms M x N left vectors; by then nothing holds Psi or
        # the M x n_test test factor: not the kernel, the trial, nor the pool
        real_sample, real_draw = experiments.sample_design, experiments._draw_test_factor
        real_variance = regression.variance_closed_form
        refs, alive = [], []

        def sample(*args):
            d = real_sample(*args)
            refs.append(weakref.ref(d.entries))
            return d

        def draw(*args):
            out = real_draw(*args)
            refs.append(weakref.ref(out))
            return out

        def variance(*args):
            alive.extend(ref() is not None for ref in refs)
            return real_variance(*args)

        monkeypatch.setattr(experiments, "sample_design", sample)
        monkeypatch.setattr(experiments, "_draw_test_factor", draw)
        monkeypatch.setattr(regression, "variance_closed_form", variance)
        cfg = _cfg(experiment="learning_curve", n_grid=(16,), trials=1, n_test=30)
        experiments._learning_curve_trial(cfg, 16, 0)
        assert alive == [False, False]

    def test_no_thread_outlives_the_sweep(self):
        # the test factors are drawn on a pool scoped to each trial
        before = threading.active_count()
        run_experiment(_cfg(experiment="learning_curve", n_grid=(8, 16), trials=2,
                            n_test=30))
        assert threading.active_count() == before


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
