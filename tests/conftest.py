"""Shared test helpers: Monte-Carlo oracles used against closed-form paths,
the whole-array forms the streamed MSE and the blocked variance are held
against, a Mercer kernel's formed Gram and the Gram pair bound the factor's
pair screen is held against, predictions of a fitted dual, the effective
rank of a spectrum, and a guard that keeps numpy's own LAPACK calls out of a
traced memory bound."""

from contextlib import contextmanager
from unittest import mock

import numpy as np

from overfit_lab import linalg
from overfit_lab.errors import InvalidParameterError
from overfit_lab.linalg import KernelMatrix, mercer_factor


@contextmanager
def no_numpy_lapack():
    """The block with numpy's ``eigh``, ``eigvalsh`` and ``svd`` made to
    raise AssertionError, where numpy's bundled OpenBLAS is found.

    tracemalloc does not see what those calls malloc inside numpy (their
    copy of the input and LAPACK's workspace), so a ``tracemalloc`` bound
    covers every array of a route only where the route makes none of them.
    With the bundle no route the library takes on a tall, non-steep factor
    calls them; without it they are its fallback, and the block runs as
    it is."""
    if linalg._openblas("numpy") is None:
        yield
        return

    def forbidden(*args, **kwargs):
        raise AssertionError("numpy's LAPACK ran where tracemalloc cannot see it")

    with mock.patch.multiple(np.linalg, eigh=forbidden, eigvalsh=forbidden,
                             svd=forbidden):
        yield


def predict(s, dual, test_design):
    """Predictions K_x^T alpha at the columns of the M x n_test design
    ``test_design``, through the dual of ``fit_ridgeless`` under spectrum s."""
    return mercer_factor(s, test_design).T @ dual


def mc_test_error(dual, t, test_factor):
    """Monte-Carlo MSE of the interpolant with dual ``dual`` against the
    noise-free target over the columns of a whole M x n_test test factor
    G_test: mean((G_test^T w - G_test^T theta)^2), the formula a
    learning-curve trial used before it streamed its test design."""
    g = np.asarray(test_factor, dtype=np.float64)
    return float(np.mean((g.T @ dual - g.T @ t.theta_star) ** 2))


def left_vector_variance(kernel, sigma):
    """sigma^2 sum_j ||L^{1/2} u_j||^2 / s_j(K) with the kept left singular
    vectors U_k formed whole (U_k = G Q_k / sqrt(w) on the Gram route): the
    single einsum ``variance_closed_form`` made before it summed over row
    blocks."""
    full = kernel._full
    w = full.w[:full.rank]
    if full.path == "gram_eigh":
        uk = kernel.factor @ full.q
        uk /= np.sqrt(w)
    else:
        uk = full.u
    weights = np.einsum("kj,k,kj->j", uk, kernel.spectrum.eigenvalues, uk)
    return float(sigma**2 * np.sum(weights / w))


def effective_rank(s, l, N):
    """Tail-mass ratio sum(lambda_k, k > l) / (N * lambda_{l+1}).

    Measures the strength of the implicit regularization that the spectral
    tail beyond level ``l`` exerts at sample size ``N``.
    """
    if N < 1:
        raise InvalidParameterError("N must be at least 1")
    if l < 0 or l >= s.size:
        raise IndexError(f"level l={l} outside [0, {s.size})")
    lam = s.eigenvalues
    tail = float(np.sum(lam[l:]))  # lam[l] is lambda_{l+1} in 1-based indexing
    return tail / (N * float(lam[l]))


def gram(source):
    """K = G^T G of a Mercer kernel ``source``, or of the factor whose row
    blocks ``source`` yields, summed block by block (``linalg._syrk``),
    read-only; one block gives the bits of numpy's G^T G itself.

    The upper triangle is copied into the lower one, as numpy's
    ``g.T @ g`` does after its syrk, so K is exactly symmetric.  (numpy's
    loop without BLAS forms entries (i, j) and (j, i) from the same products
    in the same order, and floating-point addition is commutative, so a sum
    of those is exactly symmetric too.)  No route forms K whole; this is the
    reference the tests that read K take."""
    if isinstance(source, KernelMatrix):
        source = source._blocks()
    k = linalg._syrk(source)
    for i in range(1, len(k)):
        k[i, :i] = k[:i, i]
    k.setflags(write=False)
    return k


def gram_pair_bound(k):
    """min over i != j of (k_ii + k_jj - 2|k_ij|)/2 + 4 eps max k_ii: an upper
    bound on lambda_min of the symmetric matrix k (+inf for 1 x 1), read from
    all N^2 entries of a formed Gram.

    (k_ii + k_jj - 2|k_ij|)/2 is the Rayleigh quotient of (e_i -+ e_j)/sqrt 2;
    the 4 eps max k_ii term covers the roundoff of evaluating it.
    """
    d = np.diagonal(k)
    pairs = np.abs(k)
    pairs *= -2.0
    pairs += d[:, None]
    pairs += d[None, :]
    np.fill_diagonal(pairs, np.inf)
    return float(pairs.min() / 2.0 + 4.0 * np.finfo(np.float64).eps * d.max())


def mc_noise_variance(kernel, spectrum, law, sigma, draws=2000, batches=20,
                      n_test=1000, seed=0):
    """Monte-Carlo noise variance through the prediction route.

    Pure-noise labels are regressed and squared predictions averaged over
    fresh test designs (one per batch of noise draws, so the test-point
    average does not carry a fixed-grid bias).
    """
    from overfit_lab.features import sample_design
    from overfit_lab.linalg import _jacobi_svd

    # the oracle takes its own SVD of the factor, not the kernel's cached one
    if kernel._steep:
        u, s, v = _jacobi_svd((kernel.factor,), *kernel.factor.shape,
                               want_vectors=True)
    else:
        u, s, vh = np.linalg.svd(kernel.factor, full_matrices=False)
        v = vh.T
    rank = kernel._full.rank
    uk, sk, vk = u[:, :rank], s[:rank], v[:, :rank]
    m = spectrum.size
    sqrt_lam = np.sqrt(spectrum.eigenvalues)
    rng = np.random.default_rng(seed)
    per = draws // batches
    total = 0.0
    for b in range(batches):
        test = sample_design(law, m, n_test, rng)
        g_test = sqrt_lam[:, None] * test.entries
        eps = sigma * rng.standard_normal((kernel.size, per))
        duals = uk @ ((vk.T @ eps) / sk[:, None])
        preds = g_test.T @ duals
        total += float(np.mean(preds**2))
    return total / batches
