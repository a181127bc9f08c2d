"""Shared test helpers: Monte-Carlo oracles used against closed-form paths,
predictions of a fitted dual and the effective rank of a spectrum."""

import numpy as np

from overfit_lab.errors import InvalidParameterError
from overfit_lab.linalg import mercer_factor


def predict(s, dual, test_design):
    """Predictions K_x^T alpha at the columns of the M x n_test design
    ``test_design``, through the dual of ``fit_ridgeless`` under spectrum s."""
    return mercer_factor(s, test_design).T @ dual


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
        u, s, v = _jacobi_svd(kernel.factor, want_vectors=True)
    else:
        u, s, vh = np.linalg.svd(kernel.factor, full_matrices=False)
        v = vh.T
    keep = kernel._full.keep
    uk, sk, vk = u[:, keep], s[keep], v[:, keep]
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
