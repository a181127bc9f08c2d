import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from overfit_lab.errors import DomainError, InvalidParameterError, ShapeError
from overfit_lab.features import (
    FEATURE_LAWS,
    AnalyticKernel,
    InputDomain,
    design_blocks,
    fill_design,
    fourier_design,
    kernel_cross,
    kernel_gram,
    ntk_kappa0,
    ntk_kappa1,
    sample_design,
    sample_inputs,
)


class TestSampleDesign:
    def test_uniform_unit_variance(self):
        # law of large numbers: sample variance of 1e5 entries within 3 sigma
        d = sample_design("uniform_subgaussian", 500, 200, seed=4)
        var = d.entries.var()
        assert 0.97 < var < 1.03
        assert np.abs(d.entries).max() <= math.sqrt(3.0)

    def test_gaussian_deterministic(self):
        a = sample_design("gaussian", 30, 7, seed=42)
        b = sample_design("gaussian", 30, 7, seed=42)
        assert np.array_equal(a.entries, b.entries)

    def test_cosine_at_zero_angle(self):
        col = fourier_design(np.array([0.0]), 3, "cosine")
        np.testing.assert_allclose(col[:, 0], math.sqrt(2.0) * np.ones(3), rtol=0)

    def test_sine_at_zero_angle(self):
        col = fourier_design(np.array([0.0]), 3, "sine")
        np.testing.assert_allclose(col[:, 0], np.zeros(3), atol=0)

    def test_cosine_law_shape_and_range(self):
        d = sample_design("cosine", 12, 5, seed=1)
        assert d.entries.shape == (12, 5)
        assert np.abs(d.entries).max() <= math.sqrt(2.0) + 1e-12

    def test_unknown_law_rejected(self):
        out = np.full((3, 2), np.nan)
        with pytest.raises(InvalidParameterError):
            sample_design("poisson", 3, 2, seed=0)
        with pytest.raises(InvalidParameterError):
            fill_design("poisson", out, seed=0)
        assert np.isnan(out).all()  # rejected before anything is drawn

    def test_bad_dimensions(self):
        with pytest.raises(InvalidParameterError):
            sample_design("gaussian", 0, 3, seed=0)

    @pytest.mark.parametrize("kind", ["cosine", "sine"])
    def test_fourier_design_without_rows(self, kind):
        # M = 0 is the empty block, as in design_blocks
        assert fourier_design(np.arange(3.0), 0, kind).shape == (0, 3)

    def test_cosine_isotropy(self):
        # empirical second-moment matrix of the feature vector approaches I
        d = sample_design("cosine", 20, 10_000, seed=3)
        gram = d.entries @ d.entries.T / 10_000
        off = gram - np.diag(np.diag(gram))
        assert np.abs(off).max() < 0.1

    @pytest.mark.parametrize("law", FEATURE_LAWS)
    def test_isotropic_second_moment(self, law):
        # population_bias is exact only when E[psi psi^T] = I: every entry of
        # the empirical second-moment matrix lies within 6 sqrt(2/n) of I
        n = 200_000
        d = sample_design(law, 16, n, seed=21)
        second = d.entries @ d.entries.T / n
        assert np.abs(second - np.eye(16)).max() <= 6 * math.sqrt(2.0 / n)

    def test_design_immutable(self):
        d = sample_design("gaussian", 3, 3, seed=0)
        with pytest.raises(ValueError):
            d.entries[0, 0] = 1.0


def _allocating_design(law, M, N, seed):
    """The allocating draw each law used before the in-place fill: the oracle
    the fill must reproduce bit for bit.  Cosine and sine designs are
    ``fourier_design`` of the same angles into a new array (its accuracy is
    ``TestFourierAccuracy``'s)."""
    rng = np.random.default_rng(seed)
    if law == "gaussian":
        return rng.standard_normal((M, N))
    if law == "uniform_subgaussian":
        return rng.uniform(-math.sqrt(3.0), math.sqrt(3.0), (M, N))
    x = rng.uniform(0.0, 2.0 * math.pi, (N, 1))[:, 0]
    return fourier_design(x, M, law)


class TestFourierAccuracy:
    @pytest.mark.parametrize("kind", ["cosine", "sine"])
    def test_within_the_phase_bound_of_mpmath(self, kind):
        # k up to 51,200, the truncation study's M_full at N=512, and x in
        # [0, 2 pi): every value lies within sqrt(2) eps (k |x| + 4) of the
        # 40-digit sqrt(2) cos(k x), a bound sqrt(2) cos(fl(k x)) evaluated
        # elementwise also meets; rows at and after block edges included
        eps = np.finfo(np.float64).eps
        M = 51_200
        rng = np.random.default_rng(23)
        x = np.concatenate([[0.0, 1e-300, np.nextafter(2.0 * math.pi, 0.0)],
                            rng.uniform(0.0, 2.0 * math.pi, 13)])
        got = fourier_design(x, M, kind)
        ks = np.unique(np.concatenate([rng.integers(1, M + 1, 120),
                                       [1, 2, 64, 65, 66, 128, 129, M - 1, M]]))
        elementwise = math.sqrt(2.0) * (np.cos if kind == "cosine" else np.sin)(
            ks[:, None] * x[None, :])
        fn = mpmath.cos if kind == "cosine" else mpmath.sin
        with mpmath.workdps(40):
            exact = np.array([[float(mpmath.sqrt(2) * fn(int(k) * mpmath.mpf(xi)))
                               for xi in x] for k in ks])
        bound = math.sqrt(2.0) * eps * (ks[:, None] * np.abs(x)[None, :] + 4.0)
        assert np.all(np.abs(got[ks - 1] - exact) <= bound)
        assert np.all(np.abs(elementwise - exact) <= bound)


@settings(max_examples=200, deadline=None)
@given(law=st.sampled_from(FEATURE_LAWS), M=st.integers(1, 64), N=st.integers(1, 64),
       seed=st.integers(0, 2**63 - 1))
def test_in_place_fill_matches_allocating_draw(law, M, N, seed):
    want = _allocating_design(law, M, N, seed)
    got = sample_design(law, M, N, seed).entries
    assert got.shape == want.shape and np.array_equal(got, want)
    out = np.full((M, N), np.nan)
    assert fill_design(law, out, seed) is out
    assert np.array_equal(out, want)


@settings(max_examples=200, deadline=None)
@given(law=st.sampled_from(FEATURE_LAWS), rows=st.integers(1, 160),
       blocks=st.integers(0, 3), tail=st.integers(0, 159), N=st.integers(1, 16),
       seed=st.integers(0, 2**63 - 1))
@example(law="cosine", rows=64, blocks=0, tail=30, N=3, seed=0)  # M below a block
@example(law="sine", rows=64, blocks=1, tail=0, N=3, seed=0)  # M equal to one
@example(law="cosine", rows=64, blocks=2, tail=17, N=3, seed=0)  # not a multiple
@example(law="sine", rows=50, blocks=3, tail=13, N=3, seed=0)  # blocks off the grid
@example(law="gaussian", rows=64, blocks=2, tail=17, N=3, seed=0)
@example(law="uniform_subgaussian", rows=50, blocks=3, tail=13, N=3, seed=0)
def test_streamed_rows_match_one_fill(law, rows, blocks, tail, N, seed):
    # a design streamed through a buffer of ``rows`` rows is, row for row,
    # the bits of one fill of the whole M x N design; M runs from
    # blocks * rows + 1 to (blocks + 1) * rows, so it lands below, on and
    # off a multiple of the buffer's height, and the buffer need not sit on
    # FOURIER_BLOCK's grid
    M = blocks * rows + min(tail, rows - 1) + 1
    want = fill_design(law, np.empty((M, N)), seed)
    block = np.full((rows, N), np.nan)
    got, starts = np.full((M, N), np.nan), []
    for r in design_blocks(law, M, block, seed):
        starts.append(r.start)
        got[r] = block[:r.stop - r.start]
    assert starts == list(range(0, M, rows))
    assert np.array_equal(got, want)


@pytest.mark.parametrize("law", FEATURE_LAWS)
@pytest.mark.parametrize("block", [
    np.empty((0, 3)),  # no row to draw into
    np.empty((4, 3), dtype=np.float32),
    np.empty(3),  # one row as a vector
    [[0.0, 0.0, 0.0]],  # not an array
], ids=["no-rows", "float32", "1-d", "list"])
def test_design_blocks_rejects_a_bad_buffer(law, block):
    # before anything is drawn, as a ShapeError; an empty design draws
    # nothing and takes any buffer
    with pytest.raises(ShapeError, match="design block"):
        next(design_blocks(law, 5, block, seed=0))
    assert list(design_blocks(law, 0, block, seed=0)) == []


class TestSampleInputs:
    def test_std_normal_moments(self):
        x = sample_inputs(InputDomain("std_normal_1d"), 100_000, seed=8)[:, 0]
        assert abs(x.mean()) < 0.02
        assert 0.97 < x.var() < 1.03

    def test_unit_disk_membership(self):
        pts = sample_inputs(InputDomain("unit_disk_2d"), 500, seed=2)
        norms = np.linalg.norm(pts, axis=1)
        assert norms.max() <= 1.0 + 1e-12

    def test_unit_circle_on_boundary(self):
        pts = sample_inputs(InputDomain("unit_circle_2d"), 200, seed=2)
        np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, rtol=1e-12)

    def test_deterministic(self):
        a = sample_inputs(InputDomain("uniform_interval", 0.0, 1.0), 50, seed=5)
        b = sample_inputs(InputDomain("uniform_interval", 0.0, 1.0), 50, seed=5)
        assert np.array_equal(a, b)

    def test_bad_interval(self):
        with pytest.raises(InvalidParameterError):
            InputDomain("uniform_interval", 2.0, 2.0)

    def test_bad_count(self):
        with pytest.raises(InvalidParameterError):
            sample_inputs(InputDomain("std_normal_1d"), 0, seed=1)


class TestAnalyticKernels:
    def test_laplacian_halving_distance(self):
        K = kernel_gram(AnalyticKernel("laplacian", 1), np.array([[0.0], [math.log(2.0)]]))
        assert K.entries[0, 1] == pytest.approx(0.5, rel=1e-15)
        np.testing.assert_allclose(np.diag(K.entries), 1.0, rtol=0)

    def test_single_point(self):
        K = kernel_gram(AnalyticKernel("laplacian", 1), np.array([[3.7]]))
        assert K.entries.shape == (1, 1)
        assert K.entries[0, 0] == 1.0

    def test_laplacian_psd(self):
        # oracle: full eigendecomposition of the assembled Gram
        rng = np.random.default_rng(0)
        K = kernel_gram(AnalyticKernel("laplacian", 1), rng.standard_normal((200, 1)))
        w = np.linalg.eigvalsh(K.entries)
        assert w.min() >= -1e-10

    def test_gaussian_rbf_psd_and_symmetric(self):
        rng = np.random.default_rng(1)
        pts = rng.standard_normal((300, 2))
        K = kernel_gram(AnalyticKernel("gaussian_rbf", 2, bandwidth=0.7), pts)
        assert np.array_equal(K.entries, K.entries.T)
        np.testing.assert_allclose(np.diag(K.entries), 1.0, rtol=0)
        assert np.linalg.eigvalsh(K.entries).min() >= -1e-10 * np.abs(K.entries).max()

    def test_rbf_bandwidth_scaling(self):
        pts = np.array([[0.0], [1.0]])
        K = kernel_gram(AnalyticKernel("gaussian_rbf", 1, bandwidth=2.0), pts)
        assert K.entries[0, 1] == pytest.approx(math.exp(-1.0 / 8.0), rel=1e-15)

    def test_ntk_on_circle_psd(self):
        rng = np.random.default_rng(2)
        ang = rng.uniform(0, 2 * np.pi, 150)
        pts = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        K = kernel_gram(AnalyticKernel("ntk_1hidden", 2), pts)
        assert np.linalg.eigvalsh(K.entries).min() >= -1e-10 * np.abs(K.entries).max()

    def test_ntk_rejects_points_outside_ball(self):
        pts = np.array([[2.0, 0.0], [0.0, 1.0]])
        with pytest.raises(DomainError):
            kernel_gram(AnalyticKernel("ntk_1hidden", 2), pts)

    def test_ntk_accepts_interior_points(self):
        pts = np.array([[0.5, 0.0], [0.0, -0.25], [0.1, 0.1]])
        K = kernel_gram(AnalyticKernel("ntk_1hidden", 2), pts)
        assert np.all(np.isfinite(K.entries))

    def test_cross_consistent_with_gram_block(self):
        rng = np.random.default_rng(3)
        pts = rng.standard_normal((6, 1))
        kern = AnalyticKernel("laplacian", 1)
        gram = kernel_gram(kern, pts).entries
        cross = kernel_cross(kern, pts[:2], pts)
        np.testing.assert_allclose(cross, gram[:2, :], rtol=0, atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            kernel_gram(AnalyticKernel("laplacian", 2), np.zeros((4, 3)))


class TestArcCosineFunctions:
    def test_endpoints_and_center(self):
        assert ntk_kappa0(1.0) == pytest.approx(1.0, abs=1e-15)
        assert ntk_kappa1(1.0) == pytest.approx(1.0, abs=1e-15)
        assert ntk_kappa0(-1.0) == pytest.approx(0.0, abs=1e-15)
        assert ntk_kappa1(-1.0) == pytest.approx(0.0, abs=1e-15)
        assert ntk_kappa0(0.0) == pytest.approx(0.5, abs=1e-15)
        assert ntk_kappa1(0.0) == pytest.approx(1.0 / np.pi, abs=1e-15)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            ntk_kappa0(1.0001)
        with pytest.raises(DomainError):
            ntk_kappa1(-1.0001)

    def test_monotone_and_bounded(self):
        t = np.linspace(-1.0, 1.0, 1000)
        for fn in (ntk_kappa0, ntk_kappa1):
            vals = fn(t)
            assert np.all(np.diff(vals) >= -1e-12)
            assert vals.min() >= -1e-12 and vals.max() <= 1.0 + 1e-12
