"""Shared test helpers: Monte-Carlo oracles used against closed-form paths."""

import numpy as np


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
    keep = kernel._modes[2]
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
