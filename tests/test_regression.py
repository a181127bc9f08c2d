import warnings

import numpy as np
import pytest

from conftest import left_vector_variance, mc_noise_variance, mc_test_error, predict
from test_linalg import _smin_grid_design, _steep_design
from overfit_lab import regression
from overfit_lab.errors import (
    InvalidParameterError,
    RankDeficientKernelWarning,
    ShapeError,
)
from overfit_lab.features import (
    AnalyticKernel,
    kernel_gram,
    sample_design,
)
from overfit_lab.linalg import (
    KernelMatrix,
    assemble_kernel,
    mercer_factor,
    min_norm_solve,
    singular_extremes,
)
from overfit_lab.regression import (
    TargetModel,
    bias_monte_carlo,
    clean_labels,
    empirical_test_error,
    fit_ridgeless,
    population_bias,
    synthesize_labels,
    truncation_study,
    variance_closed_form,
)
from overfit_lab.spectra import Spectrum, make_spectrum

GAUSSIAN = "gaussian"


def _square_problem(n, seed, sigma=0.0, kind="polynomial"):
    s = make_spectrum(kind, 1.0, n)
    d = sample_design(GAUSSIAN, n, n, seed=seed).entries
    rng = np.random.default_rng(seed + 1)
    t = TargetModel(rng.standard_normal(n), sigma)
    return s, d, t


def _test_factor(s, n_test, seed):
    """Lambda^{1/2} Psi_test of a fresh gaussian test design."""
    return mercer_factor(s, sample_design(GAUSSIAN, s.size, n_test, seed=seed).entries)


class TestSynthesizeLabels:
    def test_zero_target_zero_noise(self):
        s, d, _ = _square_problem(6, seed=0)
        t = TargetModel(np.zeros(6), 0.0)
        np.testing.assert_array_equal(
            synthesize_labels(clean_labels(d, s, t), t.sigma, seed=1), np.zeros(6))

    def test_rank_one_scaling(self):
        s = make_spectrum("custom", eigenvalues=[4.0])
        d = np.array([[1.0, 1.0]])
        t = TargetModel(np.array([3.0]), 0.0)
        np.testing.assert_allclose(
            synthesize_labels(clean_labels(d, s, t), t.sigma, seed=0), [6.0, 6.0])

    def test_deterministic(self):
        s, d, t = _square_problem(5, seed=3, sigma=1.0)
        a = synthesize_labels(clean_labels(d, s, t), t.sigma, seed=9)
        b = synthesize_labels(clean_labels(d, s, t), t.sigma, seed=9)
        assert np.array_equal(a, b)

    def test_dimension_mismatch(self):
        s, d, _ = _square_problem(5, seed=3)
        t = TargetModel(np.zeros(4), 0.0)
        with pytest.raises(Exception):
            synthesize_labels(clean_labels(d, s, t), t.sigma, seed=0)


class TestFitAndPredict:
    def test_single_point_interpolation(self):
        s = make_spectrum("custom", eigenvalues=[2.0])
        d = np.array([[1.0]])
        K = assemble_kernel(s, d)
        f = fit_ridgeless(K, [4.0])
        assert predict(s, f, d)[0] == pytest.approx(4.0, rel=1e-12)

    def test_exact_recovery_identity(self):
        # M = N, invertible design, sigma = 0: the interpolant IS the target
        s, d, t = _square_problem(16, seed=5)
        K = assemble_kernel(s, d)
        y = synthesize_labels(clean_labels(d, s, t), t.sigma, seed=0)
        f = fit_ridgeless(K, y)
        fresh = sample_design(GAUSSIAN, 16, 40, seed=77).entries
        preds = predict(s, f, fresh)
        truth = (np.sqrt(s.eigenvalues) * t.theta_star) @ fresh
        np.testing.assert_allclose(preds, truth, rtol=1e-6, atol=1e-9)
        assert mc_test_error(f, t, mercer_factor(s, fresh)) <= 1e-8

    def test_zero_labels_zero_coefficients(self):
        s, d, _ = _square_problem(8, seed=2)
        K = assemble_kernel(s, d)
        f = fit_ridgeless(K, np.zeros(8))
        np.testing.assert_array_equal(min_norm_solve(K, np.zeros(8)).alpha, np.zeros(8))
        assert np.all(predict(s, f, d) == 0.0)

    def test_training_interpolation_bound(self):
        # nonsingular K reproduces labels to 1e-6 * (1 + max |y|)
        for kind in ("polynomial", "exponential"):
            s = make_spectrum(kind, 1.0, 320)
            d = sample_design(GAUSSIAN, 320, 32, seed=8).entries
            rng = np.random.default_rng(1)
            t = TargetModel(rng.standard_normal(320), 1.0)
            y = synthesize_labels(clean_labels(d, s, t), t.sigma, seed=4)
            K = assemble_kernel(s, d)
            f = fit_ridgeless(K, y)
            assert not min_norm_solve(K, y).inconsistent
            err = np.abs(predict(s, f, d) - y).max()
            assert err <= 1e-6 * (1.0 + np.abs(y).max())

    def test_predict_rejects_a_test_design_of_another_width(self):
        # one feature row would broadcast across all 8 eigenvalues
        s, d, _ = _square_problem(8, seed=2)
        f = fit_ridgeless(assemble_kernel(s, d), np.zeros(8))
        for m in (1, 9):
            with pytest.raises(ShapeError):
                predict(s, f, sample_design(GAUSSIAN, m, 3, seed=1).entries)

    def test_rank_one_proportionality(self):
        s = make_spectrum("custom", eigenvalues=[4.0])
        d = np.array([[1.0, 1.0]])
        f = fit_ridgeless(assemble_kernel(s, d), [4.0, 4.0])
        test = np.array([[0.5, 1.0, 2.0]])
        preds = predict(s, f, test)
        np.testing.assert_allclose(preds, [2.0, 4.0, 8.0], rtol=1e-12)

    def test_prediction_dual_follows_its_labels(self):
        s, d, t = _square_problem(12, seed=7)
        K = assemble_kernel(s, d)
        y = synthesize_labels(clean_labels(d, s, t), t.sigma, seed=0)
        f = fit_ridgeless(K, y)
        assert np.array_equal(K.dual(y), f)
        y_new = 2.0 * y + 1.0
        w_new = K.dual(y_new)
        assert not np.allclose(w_new, f)
        np.testing.assert_array_equal(w_new, fit_ridgeless(K, y_new))
        # the dual bound at fit time is unaffected by later calls
        np.testing.assert_array_equal(f, fit_ridgeless(K, y))

    def test_singular_extremes_independent_of_call_order(self):
        s = make_spectrum("polynomial", 1.0, 640)
        t = TargetModel(np.random.default_rng(3).standard_normal(640), 1.0)
        d = sample_design(GAUSSIAN, 640, 64, seed=12).entries
        y = synthesize_labels(clean_labels(d, s, t), t.sigma, seed=1)
        K = assemble_kernel(s, d)
        before = singular_extremes(K)
        fit_ridgeless(K, y)
        after = singular_extremes(K)
        assert before.path == after.path == "gram_eigh"
        assert before.s_min == after.s_min and before.s_max == after.s_max
        np.testing.assert_array_equal(before.full_singular_values,
                                      after.full_singular_values)
        assert before.rel_error_bound == after.rel_error_bound

    def test_inconsistent_labels_flagged(self):
        s = make_spectrum("custom", eigenvalues=[4.0])
        d = np.array([[1.0, 1.0]])
        K = assemble_kernel(s, d)
        sol = min_norm_solve(K, [1.0, -1.0])
        assert sol.inconsistent
        np.testing.assert_allclose(sol.alpha, [0.0, 0.0], atol=1e-14)
        # the fit keeps only the labels' component in the range: none here
        np.testing.assert_allclose(fit_ridgeless(K, [1.0, -1.0]), [0.0], atol=1e-14)


@pytest.mark.parametrize("call", [
    lambda K, y: K.dual(y),
    lambda K, y: fit_ridgeless(K, y),
    lambda K, y: variance_closed_form(K, 1.0),
    lambda K, y: bias_monte_carlo(K, TargetModel(np.zeros(6)), y, np.ones((6, 10))),
    lambda K, y: population_bias(K, TargetModel(np.zeros(6)), y),
], ids=["dual", "fit_ridgeless", "variance_closed_form", "bias_monte_carlo",
        "population_bias"])
def test_explicit_kernel_is_a_validation_error(call):
    # an analytic Gram matrix has no factor, spectrum or design to fit or
    # decompose with; that is a caller error (CLI exit 1), not a numeric one
    x = np.linspace(-1.0, 1.0, 6)
    K = kernel_gram(AnalyticKernel("laplacian"), x)
    with pytest.raises(InvalidParameterError, match="no Mercer factor"):
        call(K, np.ones(6))


class TestEmpiricalTestError:
    def test_perfect_fit_zero_error(self):
        s, d, t = _square_problem(12, seed=6)
        y = synthesize_labels(clean_labels(d, s, t), t.sigma, seed=0)
        f = fit_ridgeless(assemble_kernel(s, d), y)
        g_test = _test_factor(s, 100, 13)
        assert empirical_test_error(g_test.T @ (f - t.theta_star)) < 1e-12

    def test_constant_offset_squares(self):
        # constant feature: fitting f* + c yields exactly c^2 error
        s = make_spectrum("custom", eigenvalues=[1.0])
        d = np.ones((1, 4))
        t = TargetModel(np.array([2.0]), 0.0)
        c = 0.75
        y = synthesize_labels(clean_labels(d, s, t), t.sigma, seed=0) + c
        f = fit_ridgeless(assemble_kernel(s, d), y)
        test = np.ones((1, 50))
        g_test = mercer_factor(s, test)
        residuals = g_test.T @ (f - t.theta_star)
        assert empirical_test_error(residuals) == pytest.approx(c * c, rel=1e-12)

    def test_tempered_error_stays_bounded(self):
        # medians over 20 seeds at N=64 and N=256 within a factor 3
        def median_mse(n, base_seed):
            s = make_spectrum("polynomial", 1.0, 10 * n)
            theta = np.random.default_rng(base_seed).standard_normal(10 * n)
            t = TargetModel(theta, 1.0)
            out = []
            for trial in range(20):
                d = sample_design(GAUSSIAN, 10 * n, n, seed=base_seed + trial + 1).entries
                y = synthesize_labels(clean_labels(d, s, t), t.sigma, seed=7000 + trial)
                f = fit_ridgeless(assemble_kernel(s, d), y)
                out.append(mc_test_error(f, t, _test_factor(s, 500, 8000 + trial)))
            return float(np.median(out))

        lo = median_mse(64, 100)
        hi = median_mse(256, 200)
        assert max(lo, hi) / min(lo, hi) < 3.0

    def test_n_test_validation(self):
        # no test input, or residuals that are not one per test input
        s, d, t = _square_problem(4, seed=1)
        f = fit_ridgeless(assemble_kernel(s, d), np.zeros(4))
        for residuals in (np.empty((4, 0)).T @ (f - t.theta_star), np.ones((3, 2))):
            with pytest.raises(InvalidParameterError):
                empirical_test_error(residuals)


class TestVarianceClosedForm:
    def test_scalar_case(self):
        s = make_spectrum("custom", eigenvalues=[3.7])
        d = np.array([[1.0]])
        assert variance_closed_form(assemble_kernel(s, d), sigma=2.0) == pytest.approx(
            4.0, rel=1e-12
        )

    def test_orthonormal_design_identity_spectrum(self):
        rng = np.random.default_rng(4)
        q, _ = np.linalg.qr(rng.standard_normal((30, 8)))
        s = make_spectrum("custom", eigenvalues=np.ones(30))
        d = q
        assert variance_closed_form(assemble_kernel(s, d), sigma=1.5) == pytest.approx(
            1.5**2 * 8, rel=1e-10
        )

    def test_matches_explicit_pinv_trace(self):
        # independent oracle: sigma^2 tr[(Psi^T L^2 Psi) pinv(K)^2] via numpy
        rng = np.random.default_rng(19)
        s = make_spectrum("polynomial", 1.0, 64)
        d = rng.standard_normal((64, 16))
        lam = s.eigenvalues
        K = d.T @ np.diag(lam) @ d
        inner = d.T @ np.diag(lam**2) @ d
        pinv = np.linalg.pinv(K, rcond=1e-12, hermitian=True)
        oracle = 2.0**2 * np.trace(inner @ pinv @ pinv)
        got = variance_closed_form(assemble_kernel(s, d), sigma=2.0)
        assert got == pytest.approx(oracle, rel=1e-8)

    @pytest.mark.parametrize("law,kind,n,route", [
        ("gaussian", "polynomial", 64, "gram_eigh"),
        ("cosine", "polynomial", 192, "gesdd"),
        ("gaussian", "exponential", 32, "jacobi"),
    ])
    def test_row_blocks_match_whole_left_vectors(self, law, kind, n, route):
        # the variance sums over row blocks of N rows; the oracle forms U_k
        # whole and takes one einsum.  Both are sums of the same positive
        # terms, in another order, so they agree within 4 M eps relative
        m = 10 * n
        s = make_spectrum(kind, 1.0, m)
        K = assemble_kernel(s, sample_design(law, m, n, seed=1).entries)
        got = variance_closed_form(K, sigma=1.5)
        assert K._full.path == route
        want = left_vector_variance(K, 1.5)
        assert abs(got - want) <= 4 * m * np.finfo(np.float64).eps * want

    def test_row_blocks_on_a_rank_deficient_kernel(self):
        # two equal design columns: one mode is cut, the blocked sums run
        # over the kept modes like the whole U_k, and the kernel warns once
        m, n = 200, 10
        s = make_spectrum("polynomial", 1.0, m)
        d = sample_design(GAUSSIAN, m, n, seed=3).entries.copy()
        d[:, 1] = d[:, 0]
        K = assemble_kernel(s, d)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = variance_closed_form(K, sigma=1.0)
        assert [w.category for w in caught] == [RankDeficientKernelWarning]
        assert K._full.rank == n - 1
        want = left_vector_variance(K, 1.0)
        assert abs(got - want) <= 4 * m * np.finfo(np.float64).eps * want

    @pytest.mark.parametrize("kind,seed", [("polynomial", 11), ("exponential", 14)])
    def test_matches_monte_carlo(self, kind, seed):
        n = 64
        m = 640
        s = make_spectrum(kind, 1.0, m)
        d = sample_design(GAUSSIAN, m, n, seed=seed).entries
        K = assemble_kernel(s, d)
        closed = variance_closed_form(K, sigma=1.0)
        mc = mc_noise_variance(K, s, GAUSSIAN, sigma=1.0, draws=2000, batches=20,
                               n_test=1000, seed=seed + 5000)
        assert closed == pytest.approx(mc, rel=0.05)

    def test_rank_deficiency_warns(self):
        s = make_spectrum("custom", eigenvalues=[1.0])
        d = np.array([[1.0, 1.0]])
        with pytest.warns(RankDeficientKernelWarning):
            variance_closed_form(assemble_kernel(s, d), sigma=1.0)


def _monte_carlo_bias(K, t, clean, law, n_test=20_000, chunk=2_000, seed=0):
    """``bias_monte_carlo`` of the clean labels over n_test fresh columns of
    the design's law, drawn in chunks, and its standard error from the
    per-column squared residuals (no Gaussian law assumed)."""
    s = K.spectrum
    w = K.dual(clean)
    means, residuals = [], []
    for i in range(n_test // chunk):
        g = mercer_factor(s, sample_design(law, s.size, chunk, seed=(seed, i)).entries)
        means.append(bias_monte_carlo(K, t, clean, g))
        residuals.append((g.T @ w - g.T @ t.theta_star) ** 2)
    residuals = np.concatenate(residuals)
    return float(np.mean(means)), residuals.std(ddof=1) / np.sqrt(residuals.size)


class TestBias:
    @pytest.mark.parametrize("make,law,path", [
        (lambda: _smin_grid_design("gaussian", 64), "gaussian", "gram_eigh"),
        (lambda: _smin_grid_design("cosine", 256), "cosine", "gesdd"),
        (_steep_design, GAUSSIAN, "jacobi"),
        (lambda: _smin_grid_design("uniform_subgaussian", 64), "uniform_subgaussian",
         "gram_eigh"),
        (lambda: _smin_grid_design("sine", 64), "sine", "gesdd"),
    ], ids=["gram_eigh", "gesdd", "jacobi", "uniform", "sine"])
    def test_population_bias_matches_monte_carlo(self, make, law, path):
        # the exact sum is the mean of the Monte-Carlo estimator, on every
        # route and for every law (isotropy, see test_features)
        s, d = make()
        K = assemble_kernel(s, d)
        t = TargetModel(np.random.default_rng(K.size).standard_normal(K.spectrum.size))
        clean = clean_labels(d, s, t)
        exact = population_bias(K, t, clean)
        assert K._full.path == path
        mc, se = _monte_carlo_bias(K, t, clean, law, seed=K.size)
        assert exact > 0.0
        assert abs(exact - mc) <= 5 * se

    @pytest.mark.parametrize("make,path", [
        (lambda: _smin_grid_design("gaussian", 64), "gram_eigh"),
        (lambda: _smin_grid_design("cosine", 256), "gesdd"),
        (_steep_design, "jacobi"),
    ], ids=["gram_eigh", "gesdd", "jacobi"])
    def test_population_bias_from_clean_labels_keeps_its_bits(self, make, path):
        # the kernel keeps no Psi: the bias from the caller's clean labels is,
        # bit for bit, the one formed from Psi inline
        s, d = make()
        K = assemble_kernel(s, d)
        t = TargetModel(np.random.default_rng(K.size + 1).standard_normal(s.size))
        lam = s.eigenvalues
        w = K.dual((np.sqrt(lam) * t.theta_star) @ d)
        oracle = float(np.sum(lam * (w - t.theta_star) ** 2))
        assert population_bias(K, t, clean_labels(d, s, t)) == oracle
        assert K._full.path == path

    def test_clean_labels_are_the_noise_free_synthesized_labels(self):
        s, d, t = _square_problem(9, seed=12)
        noise_free = TargetModel(t.theta_star, 0.0)
        np.testing.assert_array_equal(
            clean_labels(d, s, t),
            synthesize_labels(clean_labels(d, s, noise_free), noise_free.sigma, seed=0))

    def test_exact_recovery_bias_vanishes(self):
        s, d, t = _square_problem(16, seed=9)
        assert population_bias(assemble_kernel(s, d), t, clean_labels(d, s, t)) <= 1e-10

    def test_zero_target_zero_bias(self):
        s = make_spectrum("polynomial", 1.0, 40)
        d = sample_design(GAUSSIAN, 40, 8, seed=10).entries
        t = TargetModel(np.zeros(40), 1.0)
        assert population_bias(assemble_kernel(s, d), t, clean_labels(d, s, t)) == 0.0

    def test_decomposition_consistency(self):
        # empirical risk over many noise draws matches B + V within 3 MC sigma
        n, m = 128, 1280
        s = make_spectrum("polynomial", 1.0, m)
        d = sample_design(GAUSSIAN, m, n, seed=30).entries
        rng = np.random.default_rng(31)
        t = TargetModel(rng.standard_normal(m), 1.0)
        K = assemble_kernel(s, d)
        b = population_bias(K, t, clean_labels(d, s, t))
        v = variance_closed_form(K, 1.0)
        risks = []
        for i in range(60):
            y = synthesize_labels(clean_labels(d, s, t), t.sigma, seed=900 + i)
            f = fit_ridgeless(K, y)
            risks.append(mc_test_error(f, t, _test_factor(s, 500, 5000 + i)))
        risks = np.asarray(risks)
        se = risks.std(ddof=1) / np.sqrt(len(risks))
        assert abs(risks.mean() - (b + v)) <= 3 * se


class TestTruncation:
    def test_full_rank_truncation_gap_is_zero(self):
        s = make_spectrum("polynomial", 1.0, 320)
        d = sample_design(GAUSSIAN, 320, 32, seed=40).entries
        row = truncation_study(assemble_kernel(s, d), sigma=1.0, M_list=[320])[0]
        assert row["truncation_gap"] == 0.0
        assert row["bound_holds"]
        assert row["truncation_bound"] == pytest.approx(3 * row["variance"] + 1.0 / 32)

    def test_inequality_at_ten_n(self):
        n = 64
        s = make_spectrum("polynomial", 1.0, 100 * n)
        for seed in (50, 51, 52):
            d = sample_design(GAUSSIAN, 100 * n, n, seed=seed).entries
            row = truncation_study(assemble_kernel(s, d), sigma=1.0, M_list=[10 * n])[0]
            assert row["bound_holds"]

    def test_monotone_gap_across_seeds(self):
        # the gap should shrink as the truncation keeps more of the spectrum
        n = 64
        s = make_spectrum("polynomial", 1.0, 100 * n)
        wins = 0
        for seed in range(20):
            d = sample_design(GAUSSIAN, 100 * n, n, seed=600 + seed).entries
            rows = truncation_study(assemble_kernel(s, d), sigma=1.0,
                                    M_list=[2 * n, 4 * n, 10 * n, 20 * n])
            gaps = [r["truncation_gap"] for r in rows]
            wins += all(a >= b for a, b in zip(gaps, gaps[1:]))
        assert wins >= 18

    @pytest.mark.parametrize("kind,n,levels", [
        ("polynomial", 64, (10, 20)), ("polynomial", 128, (10, 20)),
        ("exponential", 32, (10, 20)),
    ])
    def test_prefix_factor_matches_reassembled_truncation(self, kind, n, levels):
        # each truncated kernel is a row prefix of the full factor; its
        # variance is the one a kernel assembled from the sliced spectrum and
        # design gives, bit for bit
        m_full = 100 * n if kind == "polynomial" else 690
        s = make_spectrum(kind, 1.0, m_full)
        d = sample_design(GAUSSIAN, m_full, n, seed=n).entries
        ms = [e * n for e in levels]
        rows = truncation_study(assemble_kernel(s, d), sigma=1.0, M_list=ms)
        for m, row in zip(ms, rows):
            k_m = assemble_kernel(Spectrum(s.eigenvalues[:m], "custom"),
                                  d[:m])
            assert row["variance"] == variance_closed_form(k_m, 1.0)

    def test_truncation_below_n_rejected(self):
        s = make_spectrum("polynomial", 1.0, 100)
        d = sample_design(GAUSSIAN, 100, 10, seed=1).entries
        with pytest.raises(InvalidParameterError):
            truncation_study(assemble_kernel(s, d), sigma=1.0, M_list=[10])
        with pytest.raises(InvalidParameterError):
            truncation_study(assemble_kernel(s, d), sigma=1.0, M_list=[101])

    @pytest.mark.parametrize("levels", [[10], [20, 10], [20, 101]])
    def test_levels_checked_before_any_variance(self, monkeypatch, levels):
        # an invalid level fails before the full-rank variance (or that of a
        # valid level listed before it) is computed
        calls = []

        def counting(K, sigma):
            calls.append(K.size)
            return variance_closed_form(K, sigma)

        monkeypatch.setattr(regression, "variance_closed_form", counting)
        s = make_spectrum("polynomial", 1.0, 100)
        K = assemble_kernel(s, sample_design(GAUSSIAN, 100, 10, seed=1).entries)
        with pytest.raises(InvalidParameterError):
            truncation_study(K, sigma=1.0, M_list=levels)
        assert calls == []

    def test_explicit_kernel_rejected(self):
        # like every risk term, the study needs a Mercer kernel's spectrum and factor
        with pytest.raises(InvalidParameterError):
            truncation_study(KernelMatrix.from_entries(np.eye(2)), sigma=1.0, M_list=[3])
