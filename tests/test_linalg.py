import ctypes
import itertools
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from functools import partial
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import mpmath
import numpy as np
import pytest
from conftest import gram_pair_bound
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from overfit_lab import cli, experiments, linalg
from overfit_lab.errors import (
    InsufficientTailError,
    InvalidParameterError,
    InvariantViolationError,
    NumericError,
    RankDeficientKernelWarning,
    ShapeError,
)
from overfit_lab.experiments import (
    TRIALS,
    ExperimentConfig,
    derive_seed,
    run_experiment,
)
from overfit_lab.features import (
    FEATURE_LAWS,
    AnalyticKernel,
    design_blocks,
    fill_design,
    kernel_gram,
    sample_design,
)
from overfit_lab.linalg import (
    GRAM_CERTIFIED_TOLERANCE,
    KernelMatrix,
    assemble_kernel,
    mercer_factor,
    min_norm_solve,
    row_norm_diagnostics,
    singular_extremes,
)
from overfit_lab.regression import fit_ridgeless, variance_closed_form
from overfit_lab.spectra import make_spectrum

GAUSSIAN = "gaussian"

# Ground truth for the steep-decay factor SVD: singular values of
# K = Psi^T Lambda Psi with lambda_k = exp(-2k), Psi = default_rng(7)
# standard normal of shape (96, 48), computed independently with a
# 120-digit multiprecision SVD (mpmath) and squared.
STEEP_SIGMA_SQUARED = (
    5.307947133731694,
    0.5702955956193757,
    0.10131842905985018,
    0.010791963150827857,
    0.002101817547357668,
    0.00029930569468151504,
    2.6578379195988742e-05,
    4.4704223979448604e-06,
    6.138810167618829e-07,
    7.169660879581067e-08,
    1.0087044020202236e-08,
    9.60418827421618e-10,
    1.481930897410417e-10,
    2.227753103819927e-11,
    2.433187390562627e-12,
    4.964257537941394e-13,
    5.443266652723266e-14,
    7.022008721974599e-15,
    8.855796702934173e-16,
    9.509337749859981e-17,
    2.0148287139590165e-17,
    2.7933777244990846e-18,
    3.6241868349656766e-19,
    3.099293316060094e-20,
    3.637360608644663e-21,
    4.513075669795157e-22,
    8.158687208671281e-23,
    1.1093846135507342e-23,
    2.1511746933493936e-24,
    2.9270246352805353e-25,
    4.292389329499137e-26,
    3.2237843432410538e-27,
    2.505177686181876e-28,
    3.591157215239404e-29,
    2.7648140581118776e-30,
    3.9124415664362623e-31,
    7.47560601420837e-32,
    7.287274371498281e-33,
    1.3483639934432406e-33,
    1.5834493027870276e-34,
    6.095254183021329e-36,
    2.430079470704854e-36,
    2.4481771582858588e-37,
    1.0277107494117171e-38,
    2.3957034717639906e-39,
    1.2020588148722043e-40,
    7.109438801416126e-42,
    2.3696730458926578e-42,
)


def _steep_design():
    rng = np.random.default_rng(7)
    psi = rng.standard_normal((96, 48))
    s = make_spectrum("exponential", 2.0, 96)
    return s, psi


def _steep_kernel():
    return assemble_kernel(*_steep_design())


class TestAssembleKernel:
    def test_identity_design_gives_diagonal(self):
        s = make_spectrum("custom", eigenvalues=[4.0, 2.0, 1.0])
        d = np.eye(3)
        K = assemble_kernel(s, d)
        np.testing.assert_allclose(K.entries, np.diag([4.0, 2.0, 1.0]), atol=0)

    def test_rank_one_outer_product(self):
        s = make_spectrum("custom", eigenvalues=[4.0])
        d = np.array([[1.0, 1.0]])
        K = assemble_kernel(s, d)
        np.testing.assert_allclose(K.entries, np.full((2, 2), 4.0), atol=0)

    def test_matches_explicit_triple_product(self):
        # oracle: Psi^T diag(lambda) Psi formed directly
        rng = np.random.default_rng(11)
        s = make_spectrum("polynomial", 1.0, 60)
        d = rng.standard_normal((60, 12))
        K = assemble_kernel(s, d)
        oracle = d.T @ np.diag(s.eigenvalues) @ d
        rel = np.linalg.norm(K.entries - oracle) / np.linalg.norm(oracle)
        assert rel < 1e-12

    def test_dimension_mismatch(self):
        s = make_spectrum("polynomial", 1.0, 5)
        d = np.ones((4, 2))
        with pytest.raises(ShapeError):
            assemble_kernel(s, d)

    def test_mercer_factor_rejects_a_one_row_design(self):
        # one row would broadcast across all 40 eigenvalues into a 40 x 8 factor
        s = make_spectrum("polynomial", 1.0, 40)
        with pytest.raises(ShapeError):
            mercer_factor(s, np.ones((1, 8)))

    def test_mercer_factor_rejects_a_row_count_mismatch(self):
        # a shape error (exit 1 from the CLI), not numpy's broadcasting ValueError
        s = make_spectrum("polynomial", 1.0, 40)
        for entries in (np.ones((39, 8)), np.ones(40)):
            with pytest.raises(ShapeError):
                mercer_factor(s, entries)

    def test_kernel_keeps_the_factor_not_the_design(self):
        # Psi is freed with its DesignMatrix: the kernel pins one M x N array
        s, d = _steep_design()
        K = assemble_kernel(s, d)
        assert not hasattr(K, "design")
        assert not np.shares_memory(K.factor, d)
        np.testing.assert_array_equal(K.factor,
                                      np.sqrt(s.eigenvalues)[:, None] * d)

    def test_dual_rejects_labels_of_the_wrong_length(self):
        K = _steep_kernel()
        with pytest.raises(ShapeError):
            K.dual(np.ones(K.size + 1))


class TestKernelMatrixConstruction:
    def test_mercer_kernel_needs_both_arguments(self):
        with pytest.raises(TypeError):
            KernelMatrix()

    def test_factor_without_a_spectrum_rejected(self):
        with pytest.raises(TypeError):
            KernelMatrix(np.ones((4, 2)))
        with pytest.raises(InvalidParameterError):
            KernelMatrix(np.ones((4, 2)), None)

    def test_factor_rows_must_match_the_spectrum(self):
        s = make_spectrum("polynomial", 1.0, 5)
        for factor in (np.ones((4, 2)), np.ones((6, 2)), np.ones(5)):
            with pytest.raises(ShapeError):
                KernelMatrix(factor, s)

    def test_entries_and_factor_cannot_be_combined(self):
        s = make_spectrum("polynomial", 1.0, 2)
        g = np.eye(2)
        with pytest.raises(TypeError):
            KernelMatrix(g, s, entries=np.eye(2))
        with pytest.raises(TypeError):
            KernelMatrix.from_entries(np.eye(2), factor=g)

    def test_each_constructor_builds_one_kind(self):
        s = make_spectrum("polynomial", 1.0, 3)
        mercer = KernelMatrix(np.ones((3, 2)), s)
        explicit = KernelMatrix.from_entries(np.eye(2))
        assert mercer.is_mercer and mercer.spectrum is s and mercer.size == 2
        assert not explicit.is_mercer and explicit.spectrum is None
        assert explicit.factor is None and explicit.size == 2

    def test_from_entries_leaves_the_callers_array_writable(self):
        entries = np.eye(3)
        K = KernelMatrix.from_entries(entries)
        assert entries.flags.writeable
        assert not K.entries.flags.writeable
        entries[0, 0] = 5.0  # the kernel keeps its own copy
        assert K.entries[0, 0] == 1.0 and singular_extremes(K).s_max == 1.0


class TestSingularExtremes:
    def test_diagonal(self):
        summary = singular_extremes(KernelMatrix.from_entries(np.diag([4.0, 1.0])))
        assert summary.s_max == pytest.approx(4.0)
        assert summary.s_min == pytest.approx(1.0)
        assert summary.condition_number == pytest.approx(4.0)

    def test_identity(self):
        summary = singular_extremes(KernelMatrix.from_entries(np.eye(5)))
        assert summary.condition_number == pytest.approx(1.0)
        assert summary.path == "eigh" and summary.rel_error_bound is None

    def test_rank_deficient_reports_zero(self):
        summary = singular_extremes(KernelMatrix.from_entries(np.ones((2, 2))))
        assert summary.s_max == pytest.approx(2.0)
        assert summary.s_min == 0.0
        assert summary.condition_number == math.inf

    def test_full_list_sorted(self):
        rng = np.random.default_rng(5)
        s = make_spectrum("polynomial", 1.0, 30)
        d = rng.standard_normal((30, 10))
        summary = singular_extremes(assemble_kernel(s, d))
        vals = summary.full_singular_values
        assert vals.shape == (10,)
        assert np.all(np.diff(vals) <= 0)
        assert summary.s_max == vals[0] and summary.s_min == vals[-1]

    def test_asymmetric_entries_rejected(self):
        with pytest.raises(InvariantViolationError):
            KernelMatrix.from_entries(np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_empty_entries_rejected(self):
        # a shape error (exit 1 from the CLI), not numpy's bare ValueError
        # from the max of an empty array
        with pytest.raises(ShapeError):
            KernelMatrix.from_entries(np.zeros((0, 0)))

    def test_non_finite_rejected(self):
        K = KernelMatrix.from_entries(np.array([[1.0, 0.0], [0.0, np.inf]]))
        with pytest.raises(NumericError):
            singular_extremes(K)

    def test_mercer_equals_squared_factor_svd(self):
        rng = np.random.default_rng(9)
        s = make_spectrum("polynomial", 1.0, 80)
        d = rng.standard_normal((80, 16))
        K = assemble_kernel(s, d)
        summary = singular_extremes(K)
        sv = np.linalg.svd(K.factor, compute_uv=False)
        assert summary.s_max == pytest.approx(sv[0] ** 2, rel=1e-10)
        assert summary.s_min == pytest.approx(sv[-1] ** 2, rel=1e-10)

    def test_steep_spectrum_matches_multiprecision_oracle(self):
        K = _steep_kernel()
        summary = singular_extremes(K)
        assert summary.accurate
        np.testing.assert_allclose(
            summary.full_singular_values, STEEP_SIGMA_SQUARED, rtol=1e-10
        )
        assert summary.condition_number == pytest.approx(
            STEEP_SIGMA_SQUARED[0] / STEEP_SIGMA_SQUARED[-1], rel=1e-9
        )

    def test_steep_and_fast_paths_agree_where_both_valid(self):
        # moderate exponential decay: full range ~1e-7 is well inside the
        # fast path's resolution, so the two routes must coincide
        rng = np.random.default_rng(21)
        s = make_spectrum("exponential", 1.0, 320)
        d = rng.standard_normal((320, 32))
        K = assemble_kernel(s, d)
        assert K._steep
        jac = singular_extremes(K).full_singular_values
        fast = np.linalg.svd(K.factor, compute_uv=False) ** 2
        np.testing.assert_allclose(jac, fast, rtol=1e-8)


def _count_syevd(monkeypatch) -> dict:
    """Calls of ``linalg._syevd`` while the monkeypatch is active, counted
    apart by whether they take eigenvectors: ``{False: values, True:
    vectors}``."""
    real_syevd, calls = linalg._syevd, {False: 0, True: 0}

    def counting_syevd(k, vectors):
        calls[vectors] += 1
        return real_syevd(k, vectors)

    monkeypatch.setattr(linalg, "_syevd", counting_syevd)
    return calls


def _mp_squared_singular_values(g, dps=50):
    """Squared singular values of g, descending, by a multiprecision SVD."""
    with mpmath.workdps(dps):
        sv = mpmath.svd_r(mpmath.matrix(g.tolist()), compute_uv=False)
        return np.array(sorted((float(x * x) for x in sv), reverse=True))


def _mp_dual(g, y, dps=50):
    """Dual G (G^T G)^-1 y of a full-rank factor g, by a multiprecision solve."""
    with mpmath.workdps(dps):
        gm = mpmath.matrix(g.tolist())
        dual = gm * mpmath.lu_solve(gm.T * gm, mpmath.matrix(y.tolist()))
        return np.array([float(x) for x in dual])


def _graded_kernel(n, aspect, decay, collapse, seed):
    """G = D * B with D = diag(sqrt(lambda)) graded over up to 1e8 in lambda
    (never steep at this aspect) and B optionally given a near-duplicate
    column, which collapses s_min."""
    m = aspect * n
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((m, n))
    if collapse is not None:
        b[:, -1] = b[:, 0] + collapse * rng.standard_normal(m)
    s = make_spectrum("custom", eigenvalues=10.0 ** (-decay * np.arange(m) / m))
    return assemble_kernel(s, b)


GRADED_FACTORS = dict(
    n=st.integers(2, 10),
    aspect=st.integers(1, 4),
    decay=st.floats(0.0, 8.0),
    collapse=st.sampled_from([None, 1e-2, 1e-4, 1e-6, 1e-9]),
    seed=st.integers(0, 2**32 - 1),
)


def _planted_kernel(n, extra_rows, decay, flip, perturbation, tail_only, scale,
                    seed):
    """G = 10^scale * D * B with D = diag(sqrt(lambda)) graded over up to 1e4
    in lambda (never steep) and M = n + extra_rows, where B's last column is
    a near-duplicate of its first, sign-flipped or not, perturbed by
    ``perturbation`` on every row or only on rows past the pair screen's
    leading SCREEN_ROWS."""
    m = n + extra_rows
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((m, n))
    noise = rng.standard_normal(m)
    if tail_only:
        noise[:linalg.SCREEN_ROWS] = 0.0
    b[:, -1] = (-1.0 if flip else 1.0) * b[:, 0] + perturbation * noise
    s = make_spectrum("custom", eigenvalues=10.0 ** (-decay * np.arange(m) / m))
    return KernelMatrix(mercer_factor(s, b) * 10.0 ** scale, s)


def _gram_certified(K):
    """Whether eigvalsh of K's formed Gram passes the Gram route's
    certificate."""
    eps = np.finfo(np.float64).eps
    m, n = K.factor.shape
    gamma = m * eps / (1.0 - m * eps)
    trace = float(np.trace(K.entries))
    w = np.linalg.eigvalsh(K.entries)
    return bool(w[0] > 0.0 and (gamma * trace + n * eps * w[-1]) / w[0]
                <= GRAM_CERTIFIED_TOLERANCE)


def _record_fields(summary, full):
    """Every field of a kernel's values summary and of its full record."""
    return [*vars(summary).values(), *full]


PLANTED_FACTORS = dict(
    n=st.integers(2, 24),
    extra_rows=st.integers(0, 120),
    decay=st.floats(0.0, 4.0),
    flip=st.booleans(),
    perturbation=st.sampled_from([1e-14, 1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-3, 1e-2]),
    tail_only=st.booleans(),
    scale=st.sampled_from([-100, 0, 100]),
    seed=st.integers(0, 2**32 - 1),
)


def _smin_grid_design(law, n, trial=0):
    """Spectrum and design of trial ``trial`` of the default smin-study sweep
    at N = n."""
    s = make_spectrum("polynomial", 1.0, 10 * n)
    seed = derive_seed(2024, "smin_study", n, trial, law)
    return s, sample_design(law, 10 * n, n, seed).entries


def _smin_grid_kernel(law, n, trial=0):
    """Kernel of trial ``trial`` of the default smin-study sweep at N = n."""
    return assemble_kernel(*_smin_grid_design(law, n, trial))


class TestGramCertificate:
    @settings(max_examples=40, deadline=None)
    @given(**GRADED_FACTORS)
    def test_graded_factor_certified_or_escalated(self, n, aspect, decay, collapse,
                                                  seed):
        K = _graded_kernel(n, aspect, decay, collapse, seed)
        assert not K._steep
        summary = singular_extremes(K)
        event(summary.path)
        if summary.path == "gesdd":
            assert summary.rel_error_bound is None
            return
        assert summary.path == "gram_eigh" and not summary.accurate
        bound = summary.rel_error_bound
        assert 0.0 < bound <= GRAM_CERTIFIED_TOLERANCE
        vals = summary.full_singular_values
        oracle = _mp_squared_singular_values(K.factor)
        # the certificate bounds every absolute error by bound * lambda_min
        err = np.abs(vals - oracle)
        assert np.all(err <= bound * vals[-1] + np.finfo(float).eps * oracle)

    @pytest.mark.parametrize("n", [256, 512])
    @pytest.mark.parametrize("law", ["cosine", "sine"])
    def test_collapsing_designs_escalate(self, law, n):
        for trial in range(2):
            summary = singular_extremes(_smin_grid_kernel(law, n, trial))
            assert summary.path == "gesdd"
            assert summary.rel_error_bound is None

    @pytest.mark.parametrize("law", ["gaussian", "uniform_subgaussian"])
    def test_independent_designs_certify_at_scale(self, law):
        K = _smin_grid_kernel(law, 512)
        summary = singular_extremes(K)
        assert summary.path == "gram_eigh"
        assert summary.rel_error_bound <= GRAM_CERTIFIED_TOLERANCE
        ref = np.linalg.svd(K.factor, compute_uv=False) ** 2
        assert summary.s_min == pytest.approx(ref[-1], rel=summary.rel_error_bound)
        assert summary.s_max == pytest.approx(ref[0], rel=summary.rel_error_bound)

    def test_full_solve_reports_its_route(self):
        # a full solve stays on the Gram route when the certificate holds and
        # the values it leaves behind carry the bound; a cosine design fails
        # the certificate and falls back to the factor SVD
        K = _smin_grid_kernel("gaussian", 64)
        min_norm_solve(K, np.ones(64))
        summary = singular_extremes(K)
        assert summary.path == "gram_eigh"
        assert 0.0 < summary.rel_error_bound <= GRAM_CERTIFIED_TOLERANCE
        K = _smin_grid_kernel("cosine", 256)
        min_norm_solve(K, np.ones(256))
        summary = singular_extremes(K)
        assert summary.path == "gesdd" and summary.rel_error_bound is None

    def test_failed_certificate_skips_eigh(self, monkeypatch):
        # values measured first already failed the certificate on a cosine
        # N=256 design, so the full solve goes straight to the factor SVD
        K = _smin_grid_kernel("cosine", 256)
        assert singular_extremes(K).path == "gesdd"
        calls = _count_syevd(monkeypatch)
        min_norm_solve(K, np.ones(256))
        assert calls == {False: 0, True: 0}
        assert K._full.path == "gesdd" and singular_extremes(K).path == "gesdd"

    @pytest.mark.parametrize("law", FEATURE_LAWS)
    def test_pair_bound_fires_only_where_certificate_fails(self, law):
        # smin-grid designs at N=128, 256 and 512 and the design of a default
        # learning-curve trial at N=512: the pair screen on G never rules out
        # a certificate that holds, fires wherever the Gram pair bound of the
        # formed K does, rules out every cosine and sine certificate at
        # N=512, and never fires on independent designs
        eps = np.finfo(np.float64).eps
        lc_seed = derive_seed(2024, "learning_curve", 512, 0)
        kernels = [_smin_grid_kernel(law, n, trial) for n in (128, 256, 512)
                   for trial in range(3)]
        kernels.append(assemble_kernel(make_spectrum("polynomial", 1.0, 5120),
                                       sample_design(law, 5120, 512,
                                                     lc_seed).entries))
        fired = []
        for K in kernels:
            fires = linalg._PairScreen(K.factor, len(K.factor)).fires()
            k = K.entries
            m, n = K.factor.shape
            trace = float(np.trace(k))
            gamma = m * eps / (1.0 - m * eps)
            oracle = gamma * trace > GRAM_CERTIFIED_TOLERANCE * (
                gram_pair_bound(k) + n * eps * trace)
            assert fires or not oracle, (n, "the Gram pair bound fires, the screen not")
            assert not (fires and _gram_certified(K))
            if fires:
                assert singular_extremes(K).path == "gesdd"
            fired.append((n, fires))
        independent = law in ("gaussian", "uniform_subgaussian")
        assert all(fires != independent for n, fires in fired if n == 512)
        assert not (independent and any(fires for _, fires in fired))

    @settings(max_examples=300, deadline=None)
    @given(**PLANTED_FACTORS)
    @example(n=8, extra_rows=92, decay=0.0, flip=True, perturbation=1e-2,
             tail_only=True, scale=0, seed=0)
    def test_pair_screen_is_sound(self, n, extra_rows, decay, flip, perturbation,
                                  tail_only, scale, seed):
        # a fired screen proves that eigvalsh of the formed K fails the
        # certificate, and the screen moves no bit: with it forced off, the
        # values and the full record are the same
        K = _planted_kernel(n, extra_rows, decay, flip, perturbation, tail_only,
                            scale, seed)
        assert not K._steep
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            fires = linalg._PairScreen(K.factor, len(K.factor)).fires()
        event(f"screen fires: {fires}")
        assert not (fires and _gram_certified(K))
        screened = singular_extremes(K), K._full
        unscreened = KernelMatrix(K.factor, K.spectrum)
        with mock.patch.object(linalg._PairScreen, "fires", return_value=False):
            plain = singular_extremes(unscreened), unscreened._full
        for got, want in zip(_record_fields(*screened), _record_fields(*plain)):
            assert (got is None and want is None) or np.array_equal(got, want)

    def test_pair_bound_skips_eigh(self, monkeypatch):
        # a cosine learning-curve trial at N=512 forms no K and runs no
        # eigensolver, and in a smin-study trial only the gaussian and
        # uniform designs do: the cosine and sine kernels never form their
        # Gram.  K is formed by ``_syrk`` (for ``entries`` too), and every
        # eigensolver is ``_syevd``, counted apart for values only and with
        # vectors (a fit).  smin-study decomposes two laws on a pool
        # thread, so each law is tagged on the thread that draws it; the
        # learning curve's pool thread draws its test design, which is
        # never decomposed
        laws, formed, solved = {}, [], {False: [], True: []}
        real_syrk, real_syevd = linalg._syrk, linalg._syevd

        def forming(*args):
            formed.append(laws[threading.get_ident()])
            return real_syrk(*args)

        def solving(k, vectors):
            solved[vectors].append(laws[threading.get_ident()])
            return real_syevd(k, vectors)

        def tagged_fill_design(law, out, seed):
            laws[threading.get_ident()] = law
            return fill_design(law, out, seed)

        def tagged_design_blocks(law, *args):
            laws[threading.get_ident()] = law
            yield from design_blocks(law, *args)

        monkeypatch.setattr(linalg, "_syrk", forming)
        monkeypatch.setattr(linalg, "_syevd", solving)
        monkeypatch.setattr(experiments, "fill_design", tagged_fill_design)
        monkeypatch.setattr(experiments, "design_blocks", tagged_design_blocks)
        cfg = ExperimentConfig(experiment="learning_curve", law="cosine",
                               n_grid=(512,), trials=1, n_test=20)
        TRIALS["learning_curve"](cfg, 512, 0)
        assert formed == solved[False] == solved[True] == []
        cfg = ExperimentConfig(experiment="smin_study", n_grid=(512,), trials=1)
        TRIALS["smin_study"](cfg, 512, 0)
        assert sorted(formed) == sorted(solved[False]) == ["gaussian", "uniform_subgaussian"]
        assert solved[True] == []

    def test_steep_kernel_keeps_jacobi(self):
        summary = singular_extremes(_steep_kernel())
        assert summary.path == "jacobi" and summary.rel_error_bound is None

    def test_wide_factor_skips_gram(self):
        s = make_spectrum("polynomial", 1.0, 4)
        psi = np.random.default_rng(2).standard_normal((4, 8))
        K = assemble_kernel(s, psi)
        assert singular_extremes(K).path == "gesdd"


@settings(max_examples=40, deadline=None)
@given(**GRADED_FACTORS)
def test_certified_full_solve_agrees_with_svd_route(n, aspect, decay, collapse, seed):
    # the same factor solved on the certified Gram route and, with the
    # certificate switched off, on the gesdd route
    y = np.random.default_rng(seed + 1).standard_normal(n)
    with mock.patch.object(linalg, "GRAM_CERTIFIED_TOLERANCE", -1.0), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore", RankDeficientKernelWarning)
        ref = _graded_kernel(n, aspect, decay, collapse, seed)
        ref_sol, ref_dual = min_norm_solve(ref, y), ref.dual(y)
        ref_var = variance_closed_form(ref, 1.0)
    assert ref._full.path == "gesdd"
    K = _graded_kernel(n, aspect, decay, collapse, seed)
    sol = min_norm_solve(K, y)
    event(K._full.path)
    assert sol.rank == ref_sol.rank and sol.inconsistent == ref_sol.inconsistent
    if K._full.path == "gesdd":
        return
    assert K._full.path == "gram_eigh" and sol.rank == n and not sol.inconsistent
    bound = singular_extremes(K).rel_error_bound
    # the certified bound covers the dual and twice it the variance (module
    # docstring); gesdd's own error, about M eps sqrt(cond K), is smaller
    dual_err = np.linalg.norm(K.dual(y) - ref_dual) / np.linalg.norm(ref_dual)
    var_err = abs(variance_closed_form(K, 1.0) - ref_var) / ref_var
    assert dual_err <= 2 * bound and var_err <= 2 * (2 * bound)
    # a certified solve is as good as the SVD's to the 1e-5 relative at which
    # the reference outputs are compared, and within its bound of a 50-digit
    # dual
    assert max(dual_err, var_err) <= 1e-5
    oracle = _mp_dual(K.factor, y)
    assert np.linalg.norm(K.dual(y) - oracle) <= bound * np.linalg.norm(oracle)


@pytest.mark.parametrize("make,path", [
    (lambda: _smin_grid_kernel("gaussian", 64), "gram_eigh"),
    (lambda: _smin_grid_kernel("cosine", 256), "gesdd"),
    (_steep_kernel, "jacobi"),
], ids=["gram_eigh", "gesdd", "jacobi"])
def test_call_order_does_not_matter(make, path):
    # values measured before a fit are the ones reported after it, and the
    # fit and variance of a kernel whose values were measured first are the
    # bits of a fresh kernel's.  Between two kernels, one measured first and
    # one fitted first, the route is the same but the routine is not
    # (eigvalsh and eigh, TSQR and the full gesdd, dgejsv without and with
    # vectors), so their values agree within the route's bound
    K = make()
    y = np.random.default_rng(5).standard_normal(K.size)
    before = singular_extremes(K)
    assert before.path == path
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RankDeficientKernelWarning)
        dual, var = fit_ridgeless(K, y), variance_closed_form(K, 1.0)
        after = singular_extremes(K)
        fresh = make()
        fresh_dual = fit_ridgeless(fresh, y)
        fresh_var = variance_closed_form(fresh, 1.0)
    for name in ("s_max", "s_min", "condition_number", "path", "rel_error_bound"):
        assert getattr(after, name) == getattr(before, name), name
    assert np.array_equal(after.full_singular_values, before.full_singular_values)
    assert np.array_equal(fresh_dual, dual) and fresh_var == var
    fit_first = singular_extremes(fresh)
    assert fit_first.path == path
    a, b = before.full_singular_values, fit_first.full_singular_values
    n, eps = K.size, np.finfo(np.float64).eps
    if path == "gram_eigh":
        # each value is within rel_error_bound of the exact one; the gap
        # between the two was below 1e-3 of it on the smin grid
        bound = max(before.rel_error_bound, fit_first.rel_error_bound)
        assert np.all(np.abs(a - b) <= bound * b)
    elif path == "gesdd":
        # TSQR_C N eps s_max(G) on G's values is 2 TSQR_C N eps s_max(K) on K's
        assert np.all(np.abs(a - b) <= 2 * TSQR_C * n * eps * b[0])
    else:
        assert np.all(np.abs(a - b) <= JACOBI_ORDER_C * n * eps * b)


# |s_i - s'_i| <= TSQR_C * N * eps * s_max(G) between the TSQR values and
# numpy's gesdd of G; each is backward stable to about eps s_max, and the
# largest gap seen on the grid below is 0.25 N eps s_max, and 2.4 on 30,000
# draws of test_graded_tall_factors' strategy
TSQR_C = 4.0

# relative gap between the Jacobi values without and with vectors, in units
# of N eps; the largest seen on 27 exponential designs (N = 24 to 64) was 0.71
JACOBI_ORDER_C = 4.0


def _assert_within_gesdd(g, s):
    ref = np.linalg.svd(g, compute_uv=False)
    bound = TSQR_C * g.shape[1] * np.finfo(np.float64).eps * ref[0]
    assert s.shape == ref.shape and np.all(np.abs(s - ref) <= bound)


class TestTallValues:
    """Values only of a tall factor on the gesdd route: TSQR to R, then the
    SVD of R (``linalg._values_only_svd``)."""

    @pytest.mark.parametrize("aspect", [2, 10])
    @pytest.mark.parametrize("n", [16, 64, 256, 512])
    @pytest.mark.parametrize("law", FEATURE_LAWS)
    def test_matches_gesdd_on_every_law(self, law, n, aspect):
        m = aspect * n
        d = sample_design(law, m, n, seed=7 + n).entries
        g = mercer_factor(make_spectrum("polynomial", 1.0, m), d)
        _assert_within_gesdd(g, linalg._values_only_svd((g,), *g.shape))

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 12), rows=st.integers(0, 48), decay=st.floats(0.0, 8.0),
           collapse=st.sampled_from([None, 1e-2, 1e-6, 1e-9]),
           seed=st.integers(0, 2**32 - 1))
    @example(n=8, rows=0, decay=2.0, collapse=None, seed=1)  # R alone
    @example(n=8, rows=5, decay=2.0, collapse=None, seed=1)  # M < 2N
    @example(n=8, rows=8, decay=2.0, collapse=None, seed=1)  # M = 2N
    @example(n=8, rows=21, decay=2.0, collapse=1e-6, seed=1)  # one partial fold
    @example(n=8, rows=256, decay=2.0, collapse=None, seed=1)  # two whole folds
    @example(n=8, rows=261, decay=2.0, collapse=1e-6, seed=1)  # then a partial one
    @example(n=160, rows=300, decay=4.0, collapse=None, seed=1)  # folds shorter than N
    @example(n=2, rows=43, decay=4.766757437591703, collapse=1e-6, seed=43)
    def test_graded_tall_factors(self, n, rows, decay, collapse, seed):
        # G = D * B with rows graded over up to 1e8 and B optionally given a
        # near-duplicate column; after R from the first N rows, the other
        # rows fold in by blocks of FOLD_ROWS, the last one possibly
        # partial.  The last example, at M = 22.5 N, is where N-row blocks
        # missed the bound
        m = n + rows
        fold = linalg.FOLD_ROWS
        event("no fold" if rows == 0 else "last fold whole" if rows % fold == 0
              else "last fold partial")
        rng = np.random.default_rng(seed)
        b = rng.standard_normal((m, n))
        if collapse is not None:
            b[:, -1] = b[:, 0] + collapse * rng.standard_normal(m)
        g = np.sqrt(10.0 ** (-decay * np.arange(m) / m))[:, None] * b
        _assert_within_gesdd(g, linalg._values_only_svd((g,), *g.shape))

    @pytest.mark.parametrize("n, m", [(2, 45), (8, 261), (200, 1000), (512, 5120)])
    @pytest.mark.parametrize("law", ["gaussian", "cosine"])
    def test_fold_height_keeps_n_eps(self, law, n, m):
        # with folds of FOLD_ROWS rows, TSQR's values stay within
        # N eps s_max(G) of numpy's gesdd of G: on the narrow factor where
        # N-row folds were 4.1 N eps off, one fold and a part, two folds
        # and a part, and folds shorter than N (the largest gap was 0.41
        # N eps, cosine at N = 2)
        g = mercer_factor(make_spectrum("polynomial", 1.0, m),
                          sample_design(law, m, n, seed=m + n).entries)
        ref = np.linalg.svd(g, compute_uv=False)
        s = linalg._values_only_svd((g,), m, n)
        assert np.all(np.abs(s - ref) <= n * np.finfo(np.float64).eps * ref[0])

    def test_cosine_route_against_50_digits(self):
        # a cosine design at N=16, M=64 whose Gram certificate fails, so its
        # values come from TSQR; K's values are s^2, so their absolute error
        # is at most 2 s_max times that of s
        s = make_spectrum("polynomial", 1.0, 64)
        K = assemble_kernel(s, sample_design("cosine", 64, 16, seed=0).entries)
        summary = singular_extremes(K)
        assert summary.path == "gesdd" and summary.rel_error_bound is None
        oracle = _mp_squared_singular_values(K.factor)
        bound = 2 * TSQR_C * 16 * np.finfo(np.float64).eps * oracle[0]
        assert np.all(np.abs(summary.full_singular_values - oracle) <= bound)

    def test_fallback_is_gesdd_bit_for_bit(self, monkeypatch):
        # where numpy's OpenBLAS is not found, and for a wide factor, the
        # values are numpy's gesdd of G; a held factor is a pass of one
        # block, which numpy's SVD copies itself, so it is not collected
        # into a copy of its own first
        def no_collect(blocks, m, n):
            raise AssertionError("a one-block pass was collected")

        monkeypatch.setattr(linalg, "_collect", no_collect)
        wide = assemble_kernel(make_spectrum("polynomial", 1.0, 4),
                               np.random.default_rng(2).standard_normal((4, 8)))
        ref = np.linalg.svd(wide.factor, compute_uv=False)
        summary = singular_extremes(wide)
        assert summary.path == "gesdd"
        assert np.array_equal(summary.full_singular_values[:4], ref * ref)
        K = _smin_grid_kernel("cosine", 256)
        monkeypatch.setattr(linalg, "_openblas", lambda package: None)
        summary = singular_extremes(K)
        assert summary.path == "gesdd"
        ref = np.linalg.svd(K.factor, compute_uv=False)
        assert np.array_equal(summary.full_singular_values, ref * ref)

    def test_svd_gets_no_more_than_n_rows(self, monkeypatch):
        # tracemalloc cannot see what numpy's LAPACK wrappers malloc, so the
        # peak-memory tests would miss gesdd copying the M x N factor.  The
        # library asks numpy for no SVD of an array of more than N rows: with
        # numpy's bundle it asks for none, and takes R's values in place with
        # the bundle's dgesdd, bit for bit those of numpy's SVD of R
        real_svd, real_openblas, shapes, rs = np.linalg.svd, linalg._openblas, [], []

        def recording(a, *args, **kwargs):
            if sys._getframe(1).f_globals["__name__"] == "overfit_lab.linalg":
                shapes.append(np.shape(a))
            return real_svd(a, *args, **kwargs)

        def keeping_r(layout, jobz, m, n, a, lda, *rest):
            if rest[-2] != -1:  # not the workspace query
                r = (ctypes.c_double * (lda * n)).from_address(a)
                rs.append(np.ctypeslib.as_array(r).reshape((n, n), order="F").copy())
            return real_openblas("numpy").dgesdd(layout, jobz, m, n, a, lda, *rest)

        monkeypatch.setattr(np.linalg, "svd", recording)
        blas = real_openblas("numpy")
        if blas is not None:
            monkeypatch.setattr(linalg, "_openblas", lambda package: (
                blas._replace(dgesdd=keeping_r) if package == "numpy"
                else real_openblas(package)))
        K = _smin_grid_kernel("cosine", 256)
        assert singular_extremes(K).path == "gesdd"
        assert K.factor.shape[0] > K.size
        assert all(rows <= K.size for rows, _ in shapes), shapes
        if blas is None:
            assert shapes
            return
        assert not shapes and len(rs) == 1
        for law in ("cosine", "gaussian"):
            g = _smin_grid_kernel(law, 256).factor
            rs.clear()
            s = linalg._values_only_svd((g,), *g.shape)
            assert len(rs) == 1 and np.array_equal(rs[0], np.triu(rs[0]))
            assert np.array_equal(s, real_svd(rs[0], compute_uv=False)), law

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_factor_fails(self, bad):
        s = make_spectrum("polynomial", 1.0, 37)
        psi = np.random.default_rng(3).standard_normal((37, 8))
        psi[34, 5] = bad  # in the one, partial fold block (rows 8-36)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises((NumericError, np.linalg.LinAlgError)) as failure:
                singular_extremes(assemble_kernel(s, psi))
        assert any(entry.name == "_values_only_svd" for entry in failure.traceback)
        # the pair screen reads the column too, and proves nothing from it
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def _streamed(g, height):
    """A ``from_blocks`` source of ``g`` through one reused buffer of
    ``height`` rows (at most all of g's); ``passes`` counts its calls."""
    buf = np.empty((min(height, len(g)), g.shape[1]))
    passes = []

    def blocks():
        passes.append(1)
        for i in range(0, len(g), len(buf)):
            b = buf[:min(len(buf), len(g) - i)]
            b[...] = g[i:i + len(b)]
            yield b

    return blocks, passes


def _assert_streamed_like_one_block(g, s, height):
    """Values of g streamed in ``height``-row blocks take the route of g
    held whole (one block), with the same bits on TSQR and within the two
    certificates' bounds on the Gram route; returns the number of passes."""
    blocks, passes = _streamed(g, height)
    got = singular_extremes(KernelMatrix.from_blocks(blocks, s, g.shape[1]))
    want = singular_extremes(KernelMatrix(g, s))
    assert got.path == want.path
    a, b = got.full_singular_values, want.full_singular_values
    if want.path == "gram_eigh":
        eps = np.finfo(np.float64).eps
        tol = got.rel_error_bound * a[-1] + want.rel_error_bound * b[-1] + 4 * eps * b
        assert np.all(np.abs(a - b) <= tol)
    else:
        assert np.array_equal(a, b)
    return len(passes)


class TestStreamedValues:
    """Values only of a ``KernelMatrix.from_blocks`` kernel, whose factor
    arrives in row blocks, against the factor held whole."""

    @settings(max_examples=60, deadline=None)
    @given(law=st.sampled_from(FEATURE_LAWS), n=st.integers(1, 40),
           eta=st.integers(1, 12), height=st.sampled_from(["1 row", "45 rows", ">= M"]),
           seed=st.integers(0, 2**32 - 1))
    @example(law="cosine", n=40, eta=10, height="45 rows", seed=0)  # TSQR
    @example(law="gaussian", n=40, eta=10, height="1 row", seed=0)  # Gram
    def test_streamed_values_take_the_one_block_route(self, law, n, eta, height, seed):
        # 45-row blocks sit off TSQR's fold grid (the first N rows, then
        # max(N, 32) at a time) and off the screen's 32 leading rows
        m = eta * n
        s = make_spectrum("polynomial", 1.0, m)
        g = mercer_factor(s, sample_design(law, m, n, seed).entries)
        rows = {"1 row": 1, "45 rows": 45, ">= M": m + 3}[height]
        passes = _assert_streamed_like_one_block(g, s, rows)
        event(f"passes: {passes}")

    @settings(max_examples=40, deadline=None)
    @given(law=st.sampled_from(FEATURE_LAWS), n=st.integers(1, 40),
           eta=st.integers(1, 12), height=st.sampled_from(["1 row", "45 rows", "N rows",
                                                           ">= M"]),
           order=st.sampled_from("CF"), seed=st.integers(0, 2**32 - 1))
    @example(law="gaussian", n=40, eta=10, height=">= M", order="C", seed=0)  # one block
    @example(law="gaussian", n=40, eta=10, height="45 rows", order="C", seed=0)
    @example(law="cosine", n=40, eta=10, height="N rows", order="F", seed=0)
    def test_gram_is_exactly_symmetric(self, law, n, eta, height, order, seed):
        # K's blocks are summed into one triangle by dsyrk, which is then
        # copied into the other, so K is exactly symmetric; one block is
        # numpy's g.T @ g bit for bit, and so are a kernel's entries
        m = eta * n
        s = make_spectrum("polynomial", 1.0, m)
        g = np.asarray(mercer_factor(s, sample_design(law, m, n, seed).entries),
                       order=order)
        rows = {"1 row": 1, "45 rows": 45, "N rows": n, ">= M": m + 3}[height]
        k = linalg._gram(g[i:i + rows] for i in range(0, m, rows))
        assert np.array_equal(k, k.T) and not k.flags.writeable
        if rows >= m:
            assert np.array_equal(k, g.T @ g)
            assert np.array_equal(KernelMatrix(g, s).entries, k)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 8), rows=st.integers(0, 40), cuts=st.lists(
               st.floats(0.0, 1.0), max_size=2), decay=st.floats(0.0, 8.0),
           order=st.sampled_from("CF"), seed=st.integers(0, 2**32 - 1))
    @example(n=5, rows=40, cuts=[0.3, 0.6], decay=8.0, order="C", seed=0)
    @example(n=5, rows=40, cuts=[0.5], decay=0.0, order="F", seed=0)
    def test_streamed_gram_against_50_digits(self, n, rows, cuts, decay, order, seed):
        # K summed in place over up to 3 row blocks is a sum of M products
        # per entry, so it stays within gamma_M trace(K) of the exact Gram
        m = n + rows
        rng = np.random.default_rng(seed)
        g = np.asarray(np.sqrt(10.0 ** (-decay * np.arange(m) / m))[:, None]
                       * rng.standard_normal((m, n)), order=order)
        edges = [0, *sorted(int(c * m) for c in cuts), m]
        k = linalg._gram(g[i:j] for i, j in zip(edges, edges[1:]))
        with mpmath.workdps(50):
            gm = mpmath.matrix(g.tolist())
            exact = np.array((gm.T * gm).tolist(), dtype=float)
        eps = np.finfo(np.float64).eps
        gamma = m * eps / (1.0 - m * eps)
        assert np.all(np.abs(k - exact) <= gamma * np.trace(exact))

    @pytest.mark.parametrize("n", [1, 2, 64, 256, 512])
    def test_in_place_eigenvalues_are_numpys(self, n):
        # _syevd in place on the triangle _syrk fills, from a C- or an
        # F-ordered factor, gives the bits of numpy's eigh (with vectors) and
        # eigvalsh (values only) of the symmetric K, reversed; so it does
        # without numpy's bundled OpenBLAS, where it calls them itself
        g = _smin_grid_kernel("gaussian", n).factor
        for bundle, order in itertools.product((True, False), "CF"):
            factor = np.asarray(g, order=order)
            with _bundled_openblas(bundle):
                k = linalg._gram((factor,))
                w, q = np.linalg.eigh(k)
                got_w, got_q = linalg._syevd(linalg._syrk((factor,)), vectors=True)
                assert np.array_equal(got_w, w[::-1]) and np.array_equal(got_q, q[:, ::-1])
                got_w, got_q = linalg._syevd(linalg._syrk((factor,)), vectors=False)
                assert np.array_equal(got_w, np.linalg.eigvalsh(k)[::-1]) and got_q is None

    @pytest.mark.parametrize("bundle", [True, False], ids=["bundle", "no-bundle"])
    def test_explicit_eigenvalues_are_numpys(self, bundle):
        # an explicit matrix's record is numpy's eigh of its entries bit for
        # bit: a kernel_gram matrix, and one whose upper triangle is skewed
        # by 1e-13 max|K|, since numpy reads the lower one
        x = np.random.default_rng(4).standard_normal((64, 1))
        rng = np.random.default_rng(5)
        b = rng.standard_normal((48, 48))
        sym = b @ b.T
        skew = np.triu(rng.uniform(-1.0, 1.0, sym.shape), 1) * 1e-13 * np.abs(sym).max()
        skewed = KernelMatrix.from_entries(sym + skew)
        assert not np.array_equal(np.linalg.eigh(skewed.entries, UPLO="U")[0],
                                  np.linalg.eigh(skewed.entries)[0])
        for K in (kernel_gram(AnalyticKernel("laplacian", 1), x), skewed):
            with _bundled_openblas(bundle):
                w, q = np.linalg.eigh(K.entries)
                full = K._full
            assert full.path == "eigh"
            assert np.array_equal(full.w, w[::-1]) and np.array_equal(full.q, q[:, ::-1])

    def test_failed_certificate_draws_again_for_tsqr(self):
        # column 2 is nearly columns 0 + 1: no column pair is close, so the
        # screen never fires, and the certificate fails on K; TSQR then
        # needs a second pass
        rng = np.random.default_rng(5)
        b = rng.standard_normal((200, 8))
        b[:, 2] = b[:, 0] + b[:, 1] + 1e-5 * rng.standard_normal(200)
        s = make_spectrum("custom", eigenvalues=np.ones(200))
        g = mercer_factor(s, b)
        assert not linalg._PairScreen(g, len(g)).fires()
        assert not _gram_certified(KernelMatrix(g, s))
        assert _assert_streamed_like_one_block(g, s, 32) == 2

    def test_screen_fired_on_the_leading_rows_only_draws_again_for_k(self):
        # columns 0 and 1 agree on the leading 32 rows only: the first
        # block's screen fires, the screen of all of G does not, and the
        # certificate holds, so K takes a second pass
        rng = np.random.default_rng(6)
        b = rng.standard_normal((200, 8))
        b[:linalg.SCREEN_ROWS, 1] = b[:linalg.SCREEN_ROWS, 0]
        s = make_spectrum("custom", eigenvalues=np.ones(200))
        g = mercer_factor(s, b)
        first = linalg._PairScreen(g[:32], 200)
        assert first.fires() and not linalg._PairScreen(g, len(g)).fires()
        assert _assert_streamed_like_one_block(g, s, 32) == 2
        blocks, passes = _streamed(g, 32)
        assert singular_extremes(KernelMatrix.from_blocks(blocks, s, 8)).path == "gram_eigh"

    def test_steep_factor_is_collected_for_jacobi(self):
        s = make_spectrum("exponential", 1.0, 64)
        g = mercer_factor(s, sample_design("gaussian", 64, 16, seed=2).entries)
        assert _assert_streamed_like_one_block(g, s, 20) == 1

    def test_steep_factor_is_copied_once(self, jacobi_bundles, monkeypatch):
        # a steep factor in two blocks is collected into one Fortran array,
        # which dgejsv (argument 9 is A) factors in place, with no copy of it
        real_collect, real_openblas, collected, factored = (
            linalg._collect, linalg._openblas, [], [])

        def collecting(*args):
            collected.append(real_collect(*args))
            return collected[-1]

        def dgejsv(*args):
            factored.append(args[9])
            return real_openblas("numpy").dgejsv(*args)

        monkeypatch.setattr(linalg, "_collect", collecting)
        monkeypatch.setattr(linalg, "_openblas", lambda package: (
            real_openblas(package)._replace(dgejsv=dgejsv) if package == "numpy"
            else real_openblas(package)))
        s = make_spectrum("exponential", 1.0, 64)
        g = mercer_factor(s, sample_design("gaussian", 64, 32, seed=2).entries)
        assert singular_extremes(KernelMatrix.from_blocks(
            _streamed(g, 40)[0], s, 32)).path == "jacobi"
        assert len(collected) == 1 and collected[0].flags.f_contiguous
        assert factored == [collected[0].ctypes.data]

    @pytest.mark.parametrize("blocks, match", [
        (lambda: [np.ones((10, 4))], "10 rows"),
        (lambda: [np.ones((12, 4))], "more than"),
        (lambda: [np.ones((11, 4), dtype=np.float32)], "float64"),
        (lambda: [np.ones((11, 3))], "4 columns"),
    ])
    def test_blocks_must_hold_the_factor(self, blocks, match):
        K = KernelMatrix.from_blocks(blocks, make_spectrum("polynomial", 1.0, 11), 4)
        with pytest.raises(ShapeError, match=match):
            singular_extremes(K)

    def test_streamed_kernel_gives_values_only(self):
        s = make_spectrum("polynomial", 1.0, 40)
        g = mercer_factor(s, sample_design("gaussian", 40, 4, seed=1).entries)
        K = KernelMatrix.from_blocks(_streamed(g, 32)[0], s, 4)
        assert K.factor is None and K.is_mercer
        whole = KernelMatrix(g, s).entries  # one syrk, where the stream adds two
        np.testing.assert_allclose(K.entries, whole, rtol=0, atol=1e-14 * np.trace(whole))
        with pytest.raises(InvalidParameterError, match="values only"):
            min_norm_solve(K, np.ones(4))


@contextmanager
def _bundled_openblas(present):
    """The block as it runs with numpy's bundled OpenBLAS, or, where
    ``present`` is False, as it runs on a numpy without one."""
    with nullcontext() if present else mock.patch.object(
            linalg, "_openblas", lambda package: None):
        yield


@pytest.fixture
def jacobi_bundles():
    """Skips where numpy's or scipy's bundled OpenBLAS, or its ``dgejsv``, is
    missing: values only then take scipy.linalg's wrapper, or vectors do."""
    for package in ("numpy", "scipy"):
        if linalg._openblas(package) is None:
            pytest.skip(f"{package}'s bundled scipy-openblas or its "
                        "LAPACKE_dgejsv_work not found")


@contextmanager
def _scipy_threads(count):
    """scipy's bundled OpenBLAS at ``count`` threads for the block."""
    lib = linalg._openblas("scipy")
    before = lib.get_threads()
    lib.set_threads(count)
    try:
        yield
    finally:
        lib.set_threads(before)


class TestJacobiLibrary:
    @pytest.mark.parametrize("want_vectors", [False, True], ids=["values", "full"])
    @pytest.mark.parametrize("n,m", [(512, 690), (6, 6)])
    def test_matches_the_scipy_wrapper_bit_for_bit(self, jacobi_bundles, n, m,
                                                   want_vectors):
        # the steep sweeps' largest factor, where scipy's thread count and
        # jobp move bits, and a square one, the only shape whose bits jobt
        # moves (dgejsv considers transposing square matrices only)
        from scipy.linalg.lapack import dgejsv

        s = make_spectrum("exponential", 1.0, m)
        seed = derive_seed(2024, "condnum", n, 0)
        g = mercer_factor(s, sample_design(GAUSSIAN, m, n, seed).entries)
        g.setflags(write=False)
        u, sv, v = linalg._jacobi_svd((g,), *g.shape, want_vectors)
        job = 0 if want_vectors else 3
        # values only run numpy's bundle on one thread, which must match the
        # wrapper on one scipy thread; vectors run scipy's at its count
        with nullcontext() if want_vectors else _scipy_threads(1):
            sva, u_ref, v_ref, work, _, info = dgejsv(np.asfortranarray(g), joba=2,
                                                      jobu=job, jobv=job)
        assert info == 0
        assert np.array_equal(sv, sva * (work[0] / work[1]))
        if want_vectors:
            assert np.array_equal(u, u_ref) and np.array_equal(v, v_ref)
            assert u.flags.f_contiguous and v.flags.f_contiguous
        else:
            assert u is None and v is None

    def test_factor_is_left_untouched(self, jacobi_bundles):
        # dgejsv overwrites its input; a one-column factor is already in
        # Fortran order, so only the copy the blocks are collected into
        # keeps G
        g = np.sqrt(make_spectrum("exponential", 1.0, 40).eigenvalues)[:, None]
        before = g.copy()
        linalg._jacobi_svd((g,), *g.shape, want_vectors=True)
        assert np.array_equal(g, before)

    def test_fallback_writes_the_same_bytes(self, jacobi_bundles, monkeypatch,
                                            tmp_path):
        # without the bundle a Jacobi call takes, it imports scipy's wrapper;
        # a steep condnum sweep (values only, numpy's bundle) and a steep
        # learning-curve sweep (vectors, scipy's) write the same bytes
        import scipy.linalg.lapack as lapack

        from overfit_lab import cli

        def sweep(sub):
            out = tmp_path / f"{sub}.csv"
            assert cli.main([sub, "--spectrum", "exponential", "--n-grid", "32,64",
                             "--trials", "2", "--n-test", "20",
                             "--out", str(out)]) == 0
            return out.read_bytes()

        real_openblas, real_dgejsv = linalg._openblas, lapack.dgejsv
        for sub, missing in (("condnum", "numpy"), ("learning-curve", "scipy")):
            direct, calls = sweep(sub), []

            def counting(*args, **kwargs):
                calls.append(1)
                return real_dgejsv(*args, **kwargs)

            with monkeypatch.context() as patch:
                patch.setattr(linalg, "_openblas", lambda package: (
                    None if package == missing else real_openblas(package)))
                patch.setattr(lapack, "dgejsv", counting)
                assert sweep(sub) == direct
            assert calls, sub

    @pytest.mark.parametrize("n", [64, 128, 256, 512])
    def test_one_thread_values_match_two_thread_values(self, jacobi_bundles, n):
        # the steep condnum sweep's factors: the values-only call on one
        # thread agrees with the wrapper on two scipy threads to a few N eps
        # relative, the accuracy dgejsv attains on a row-graded factor at
        # any count
        from scipy.linalg.lapack import dgejsv

        m = min(10 * n, 690)
        s = make_spectrum("exponential", 1.0, m)
        g = mercer_factor(s, sample_design(
            GAUSSIAN, m, n, derive_seed(2024, "condnum", n, 0)).entries)
        _, sv, _ = linalg._jacobi_svd((g,), *g.shape, want_vectors=False)
        with _scipy_threads(2):
            sva, _, _, work, _, info = dgejsv(np.asfortranarray(g), joba=2,
                                              jobu=3, jobv=3)
        assert info == 0
        ref = sva * (work[0] / work[1])
        assert np.max(np.abs(sv - ref) / ref) <= 4 * n * np.finfo(np.float64).eps


@pytest.fixture
def jacobi_calls(jacobi_bundles, monkeypatch):
    """Both bundled OpenBLAS libraries with their thread counts set to 3 for
    the test and put back after it.  ``seen`` lists (package, that library's
    count) for each ``dgejsv`` call, ``counts()`` reads both counts, and
    setting ``fail`` makes numpy's ``dgejsv`` return info 1."""
    libs = {package: linalg._openblas(package) for package in ("numpy", "scipy")}
    probe = SimpleNamespace(seen=[], fail=False, counts=lambda: {
        package: lib.get_threads() for package, lib in libs.items()})

    def recording(package, *args):
        lib = libs[package]
        probe.seen.append((package, lib.get_threads()))
        return 1 if probe.fail and package == "numpy" else lib.dgejsv(*args)

    patched = {package: lib._replace(dgejsv=partial(recording, package))
               for package, lib in libs.items()}
    monkeypatch.setattr(linalg, "_openblas", patched.get)
    before = probe.counts()
    for lib in libs.values():
        lib.set_threads(3)  # neither one thread nor OpenBLAS's default on two cores
    yield probe
    for package, lib in libs.items():
        lib.set_threads(before[package])


class TestJacobiThreads:
    def test_values_only_run_on_one_thread(self, jacobi_calls):
        # from numpy's bundle; scipy's library is neither called nor set
        singular_extremes(_steep_kernel())
        assert jacobi_calls.seen == [("numpy", 1)]
        assert jacobi_calls.counts() == {"numpy": 3, "scipy": 3}

    @pytest.mark.parametrize("experiment,count", [("condnum", 1),
                                                  ("learning_curve", 3)])
    def test_steep_sweep_restores_the_count(self, jacobi_calls, experiment,
                                            count):
        # condnum takes values only, from numpy's bundle on one thread; a
        # learning-curve trial fits first, and its values reuse the fit's
        # record, so every call runs scipy's bundle at scipy's count
        run_experiment(ExperimentConfig(experiment=experiment,
                                        spectrum="exponential", n_grid=(32, 64),
                                        trials=1, n_test=20))
        package = "numpy" if experiment == "condnum" else "scipy"
        assert jacobi_calls.seen == [(package, count)] * 2
        assert jacobi_calls.counts() == {"numpy": 3, "scipy": 3}

    def test_failed_call_restores_the_count(self, jacobi_calls):
        jacobi_calls.fail = True
        with pytest.raises(NumericError, match="info=1"):
            singular_extremes(_steep_kernel())
        assert jacobi_calls.seen == [("numpy", 1)]
        assert jacobi_calls.counts() == {"numpy": 3, "scipy": 3}


class TestThreadTimeout:
    """scipy's bundled OpenBLAS loads with ``OPENBLAS_THREAD_TIMEOUT=4``."""

    @staticmethod
    def _timeout_at_load(monkeypatch):
        # loads scipy's bundle past ``_openblas``'s cache (the library is
        # mapped already, so that is a no-op) and returns the variable's
        # value as ``ctypes.CDLL`` saw it
        real, seen = ctypes.CDLL, []

        def recording(*args, **kwargs):
            seen.append(os.environ.get("OPENBLAS_THREAD_TIMEOUT"))
            return real(*args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(ctypes, "CDLL", recording)
            assert linalg._openblas.__wrapped__("scipy") is not None
        return seen

    def test_load_leaves_the_environment_as_it_was(self, jacobi_bundles,
                                                   monkeypatch):
        monkeypatch.delenv("OPENBLAS_THREAD_TIMEOUT", raising=False)
        before = dict(os.environ)
        assert self._timeout_at_load(monkeypatch) == ["4"]
        assert dict(os.environ) == before

    def test_callers_timeout_is_kept(self, jacobi_bundles, monkeypatch):
        monkeypatch.setenv("OPENBLAS_THREAD_TIMEOUT", "28")
        assert self._timeout_at_load(monkeypatch) == ["28"]
        assert os.environ["OPENBLAS_THREAD_TIMEOUT"] == "28"

    def test_pool_sleeps_after_a_steep_fit(self, jacobi_bundles, tmp_path):
        # in a fresh interpreter that never imports scipy.linalg, the steep
        # fit loads scipy's library, whose idle worker then sleeps: at the
        # default timeout it spins a core for about 0.11 s of the 0.4 s
        pytest.importorskip("resource")
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
        env["PYTHONPATH"] = str(Path(linalg.__file__).parents[1])
        env["OPENBLAS_NUM_THREADS"] = "2"  # a worker to idle, on two cores or more
        code = (
            "import resource, sys, time\n"
            "import overfit_lab.cli as c\n"
            "assert c.main(['learning-curve', '--spectrum', 'exponential', "
            "'--n-grid', '512', '--trials', '1', '--n-test', '20', '--out', "
            f"{str(tmp_path / 'steep.csv')!r}]) == 0\n"
            "assert 'scipy.linalg' not in sys.modules\n"
            "cpu = lambda: sum(resource.getrusage(resource.RUSAGE_SELF)[:2])\n"
            "before = cpu()\n"
            "time.sleep(0.4)\n"
            "print(cpu() - before)\n"
        )
        run = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        assert float(run.stdout.split()[-1]) < 0.03


class TestRowNormDiagnostics:
    def test_all_ones(self):
        d = np.ones((7, 3))
        diag = row_norm_diagnostics(d, 3)
        np.testing.assert_allclose(diag.p_values, 1.0, atol=0)
        assert diag.min_p_squared == 1.0

    def test_gaussian_concentration(self):
        # chi-square mean: sd of P_i^2 is sqrt(2/(M-N)) ~ 0.014, band is 7 sigma
        d = sample_design(GAUSSIAN, 10_032, 32, seed=12).entries
        diag = row_norm_diagnostics(d, 32)
        assert np.all(diag.p_values**2 > 0.9)
        assert np.all(diag.p_values**2 < 1.1)

    def test_cosine_min_p_shrinks_with_n(self):
        def median_min_p(n, seeds):
            vals = []
            for seed in seeds:
                d = sample_design("cosine", 10 * n, n, seed=seed).entries
                vals.append(row_norm_diagnostics(d, n).min_p_squared)
            return np.median(vals)

        small = median_min_p(32, range(5))
        large = median_min_p(256, range(5, 10))
        assert large < small

    def test_no_tail_rejected(self):
        d = np.ones((3, 3))
        with pytest.raises(InsufficientTailError):
            row_norm_diagnostics(d, 3)

    def test_negative_tail_offset_rejected(self):
        # N = -1 would slice the last row and divide by M + 1
        d = np.ones((3, 3))
        with pytest.raises(InvalidParameterError):
            row_norm_diagnostics(d, -1)

    def test_design_without_columns_rejected(self):
        # no column has a row norm to take the minimum of
        with pytest.raises(ShapeError):
            row_norm_diagnostics(np.ones((4, 0)), 1)


class TestMinNormSolve:
    def test_diagonal_solve(self):
        sol = min_norm_solve(KernelMatrix.from_entries(np.diag([2.0, 4.0])), [2.0, 8.0])
        np.testing.assert_allclose(sol.alpha, [1.0, 2.0], rtol=1e-12)
        assert not sol.inconsistent
        assert sol.rank == 2

    def test_rank_one_consistent(self):
        K = KernelMatrix.from_entries(np.ones((2, 2)))
        sol = min_norm_solve(K, [1.0, 1.0])
        np.testing.assert_allclose(sol.alpha, [0.5, 0.5], rtol=1e-12)
        np.testing.assert_allclose(K.entries @ sol.alpha, [1.0, 1.0], rtol=1e-12)
        assert not sol.inconsistent

    def test_rank_one_inconsistent(self):
        sol = min_norm_solve(KernelMatrix.from_entries(np.ones((2, 2))), [1.0, -1.0])
        assert sol.inconsistent
        np.testing.assert_allclose(sol.alpha, [0.0, 0.0], atol=1e-14)

    def test_pseudo_inverse_contract(self):
        # range component reproduced, null component untouched
        rng = np.random.default_rng(17)
        b = rng.standard_normal((12, 7))
        K = KernelMatrix.from_entries(b @ b.T)  # rank 7 PSD, size 12
        y = rng.standard_normal(12)
        sol = min_norm_solve(K, y)
        u, sv, vt = np.linalg.svd(K.entries)
        rank = int((sv > 1e-12 * sv[0]).sum())
        y_range = u[:, :rank] @ (u[:, :rank].T @ y)
        assert np.linalg.norm(K.entries @ sol.alpha - y_range) <= 1e-8 * np.linalg.norm(y)
        null = u[:, rank:]
        assert np.linalg.norm(null.T @ sol.alpha) <= 1e-8 * np.linalg.norm(sol.alpha)
        assert sol.inconsistent  # random y has a genuine null component

    def test_shape_and_finite_checks(self):
        K = KernelMatrix.from_entries(np.eye(3))
        with pytest.raises(ShapeError):
            min_norm_solve(K, [1.0, 2.0])
        with pytest.raises(NumericError):
            min_norm_solve(K, [1.0, np.nan, 0.0])

    def test_wide_mercer_factor(self):
        # M < N: kernel is rank deficient but the solve must still work
        s = make_spectrum("custom", eigenvalues=[4.0])
        d = np.array([[1.0, 1.0]])
        K = assemble_kernel(s, d)
        sol = min_norm_solve(K, [4.0, 4.0])
        np.testing.assert_allclose(K.entries @ sol.alpha, [4.0, 4.0], rtol=1e-12)
        assert sol.rank == 1


@pytest.mark.parametrize("entries", [[[0.0, 1.0], [1.0, 0.0]], -np.eye(3)],
                         ids=["swap", "negative-identity"])
def test_indefinite_explicit_matrix_rejected(entries):
    # both readers of an explicit matrix go through its modes: neither may
    # report |eigenvalues| or silently drop the negative modes
    for read in (singular_extremes, lambda K: min_norm_solve(K, np.ones(K.size))):
        with pytest.raises(InvariantViolationError, match="positive semi-definite"):
            read(KernelMatrix.from_entries(entries))


def test_kernels_decompose_concurrently():
    # kernel A's pass waits inside its decomposition until kernel B's values
    # are taken on another thread: kernels cache their records without a
    # lock they share (functools.cached_property before Python 3.12 takes
    # one per decorated method, so B would wait for A and this would time
    # out)
    s = make_spectrum("polynomial", 1.0, 40)
    g = mercer_factor(s, sample_design("gaussian", 40, 4, seed=1).entries)
    entered, release = threading.Event(), threading.Event()

    def held_blocks():
        entered.set()
        release.wait(timeout=60)
        yield g

    with ThreadPoolExecutor(max_workers=2) as pool:
        first = pool.submit(singular_extremes, KernelMatrix.from_blocks(held_blocks, s, 4))
        try:
            assert entered.wait(timeout=30)
            second = pool.submit(singular_extremes, KernelMatrix(g, s))
            want = second.result(timeout=30)
            assert not first.done()
        finally:
            release.set()
        got = first.result(timeout=30)
    assert np.array_equal(got.full_singular_values, want.full_singular_values)


def test_shared_kernel_under_thread_switches():
    # more threads than cores take one kernel's values, or another's fit, at
    # once, with the interpreter switching threads every microsecond: first
    # reads may race to decompose, but every reader gets the bits of the
    # same read on one thread, and numpy's BLAS thread count is back when
    # the readers are done
    s = make_spectrum("polynomial", 1.0, 640)
    g = mercer_factor(s, sample_design("gaussian", 640, 64, seed=3).entries)
    y = np.ones(64)
    blas = linalg._openblas("numpy")
    threads_before = blas.get_threads() if blas is not None else None
    with linalg.single_threaded_blas():
        want = (singular_extremes(KernelMatrix(g, s)).full_singular_values,
                min_norm_solve(KernelMatrix(g, s), y).alpha)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            values, fit = KernelMatrix(g, s), KernelMatrix(g, s)

            def read(i):
                with linalg.single_threaded_blas():
                    if i % 2:
                        return min_norm_solve(fit, y).alpha
                    return singular_extremes(values).full_singular_values

            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(read, i) for i in range(8)]
                got = [f.result(timeout=60) for f in futures]
            for i, result in enumerate(got):
                assert np.array_equal(result, want[i % 2])
    finally:
        sys.setswitchinterval(interval)
    if blas is not None:
        assert blas.get_threads() == threads_before


def test_explicit_matrix_decomposes_once(monkeypatch):
    # an explicit matrix's values record is its full record: whichever of
    # singular_extremes and min_norm_solve comes first, one eigh serves both,
    # and both orders report the same values, route and rank
    x = np.random.default_rng(4).standard_normal((40, 1))
    y = np.ones(40)
    calls = _count_syevd(monkeypatch)
    results = []
    for values_first in (True, False):
        K = kernel_gram(AnalyticKernel("laplacian", 1), x)
        calls.update({False: 0, True: 0})
        if values_first:
            summary, sol = singular_extremes(K), min_norm_solve(K, y)
        else:
            sol = min_norm_solve(K, y)
            summary = singular_extremes(K)
        assert calls == {False: 0, True: 1}
        assert summary.path == "eigh"
        results.append((summary.full_singular_values, sol.rank))
    (vals, rank), (vals_after_solve, rank_after_solve) = results
    assert np.array_equal(vals, vals_after_solve) and rank == rank_after_solve


def test_fitted_kernel_keeps_no_gram():
    # K is summed into one triangle that dsyevd overwrites with K's
    # eigenvectors, so a fitted Mercer kernel keeps no N x N Gram: its first
    # full decomposition leaves one N x N array held (1.05 N^2 values
    # measured; 2.04 where the kernel kept its entries beside the vectors)
    # and peaks at that array and dsyevd's workspace of 2 N^2 + 6 N + 1
    # values (3.09 N^2 measured).  tracemalloc sees the arrays numpy hands
    # out, not the copy and workspace numpy's own eigh allocates inside
    n = 256
    K = _smin_grid_kernel("gaussian", n)
    tracemalloc.start()
    try:
        K._full
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert K._full.path == "gram_eigh"
    assert held <= 1.25 * 8 * n * n and peak <= 3.25 * 8 * n * n
    fit_ridgeless(K, np.ones(n))
    assert K._entries is None


def test_failed_eigensolver_is_a_numeric_error(monkeypatch, tmp_path, capsys):
    # a nonzero info from dsyevd raises NumericError on every route that
    # takes it (values, fit, explicit matrix), and a sweep exits 2
    real_openblas = linalg._openblas
    if real_openblas("numpy") is None:
        pytest.skip("numpy's bundled scipy-openblas not found")
    monkeypatch.setattr(linalg, "_openblas", lambda package: (
        real_openblas(package)._replace(dsyevd=lambda *args: 1)
        if package == "numpy" else real_openblas(package)))
    explicit = kernel_gram(AnalyticKernel("laplacian", 1),
                           np.random.default_rng(4).standard_normal((40, 1)))
    for read in (lambda: singular_extremes(_smin_grid_kernel("gaussian", 64)),
                 lambda: fit_ridgeless(_smin_grid_kernel("gaussian", 64), np.ones(64)),
                 lambda: singular_extremes(explicit)):
        with pytest.raises(NumericError, match="info=1"):
            read()
    assert cli.main(["kernel-interp", "--n-grid", "16", "--trials", "1", "--n-test", "20",
                     "--out", str(tmp_path / "k.csv")]) == 2
    assert "info=1" in capsys.readouterr().err


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 12),
    m=st.integers(1, 40),
    decay=st.floats(0.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_mercer_and_explicit_solves_agree(n, m, decay, seed):
    # one cutoff policy for both routes: the factor SVD of G (Mercer) and
    # the eigendecomposition of the formed K = G^T G (explicit) keep the
    # same modes.  M < N gives wide, rank-deficient factors.  The kept
    # eigenvalues span at most 1e6, far above the 1e-12 cutoff, and the
    # dropped ones are exact zeros (Mercer) or roundoff near eps (explicit).
    rng = np.random.default_rng(seed)
    s = make_spectrum("custom", eigenvalues=10.0 ** (-decay * np.arange(m) / m))
    K = assemble_kernel(s, rng.standard_normal((m, n)))
    assert not K._steep
    sv = np.linalg.svd(K.factor, compute_uv=False)
    cond = (sv[0] / sv[-1]) ** 2
    assume(cond <= 1e6)
    y = rng.standard_normal(n)
    mercer = min_norm_solve(K, y)
    explicit = min_norm_solve(KernelMatrix.from_entries(K.entries), y)
    assert mercer.rank == explicit.rank == min(m, n)
    assert mercer.inconsistent == explicit.inconsistent == (m < n)
    # both routes are backward stable to about M eps ||K||, so alpha moves
    # by about cond(K) * M * eps <= 1e6 * 40 * 2.2e-16 ~ 1e-8 relative
    err = np.linalg.norm(mercer.alpha - explicit.alpha)
    assert err <= 1e-6 * np.linalg.norm(explicit.alpha)


class TestConcentrationBounds:
    def test_largest_singular_value_band(self):
        # s_max(K) within [N lam_1 / 2, 3 N lam_1 / 2] in >= 19/20 trials
        n, eta = 128, 10
        s = make_spectrum("polynomial", 1.0, eta * n)
        hits = 0
        for seed in range(20):
            d = sample_design(GAUSSIAN, eta * n, n, seed=seed).entries
            s_max = singular_extremes(assemble_kernel(s, d)).s_max
            hits += 0.5 * n <= s_max <= 1.5 * n
        assert hits >= 19

    @pytest.mark.parametrize("kind,a", [
        ("polynomial", 1.0), ("exponential", 1.0), ("linear_polylog", 1.0),
    ])
    def test_trivial_smallest_singular_value_bound(self, kind, a):
        # s_min(K) >= 1e-6 lambda_N / N for independent designs, all trials
        for n in (32, 64):
            s = make_spectrum(kind, a, 10 * n)
            floor = 1e-6 * s.eigenvalues[n - 1] / n
            for seed in range(5):
                d = sample_design(GAUSSIAN, 10 * n, n, seed=100 + seed).entries
                s_min = singular_extremes(assemble_kernel(s, d)).s_min
                assert s_min >= floor
