"""Ridgeless regression: label synthesis, interpolation, risk decomposition.

The target function is f*(x) = <theta, Lambda^{1/2} psi(x)>, so clean labels
are G^T theta with G the training factor.  Test error is always measured
against the noise-free f* on fresh inputs.

A fit is its dual vector w = G K^+ y (``KernelMatrix.dual``), which
``fit_ridgeless(K, y)`` returns; the prediction at the columns of a test
factor G_test is G_test^T w = K_x^T alpha.  Numerical note: with steep
spectra the coefficient vector alpha = K^+ y has entries of magnitude up to
1/lambda_N and G alpha cancels catastrophically, so there the dual is formed
as U Sigma^-1 V^T y, whose partial sums never exceed the result's own scale;
on the certified Gram route it is G alpha (see the ``linalg`` docstring).

Everything here takes the training kernel and reads its ``spectrum`` and
factor, ``truncation_study(K_full, sigma, M_list)`` included; the
pseudo-inverse (kept modes and dual) is the kernel's own,
``KernelMatrix.dual``.  The kernel does not keep the design Psi, so the
caller takes the clean labels ``clean_labels(psi, s, t)`` = G^T theta from
the M x N design array before dropping it; ``synthesize_labels(clean, sigma,
seed)`` adds noise to them, and the bias regresses them.  The risk terms are
``empirical_test_error(dual, t, test_factor)``, ``population_bias(K, t,
clean)`` and ``variance_closed_form(K, sigma)``.  The empirical MSE takes an
M x n_test test factor G_test = Lambda^{1/2} Psi_test drawn by the caller
(``mercer_factor(s, sample_design(...).entries)``), so where and when the
test inputs are drawn, and when they are freed, is the caller's choice.

The bias needs no test draw.  Every feature law is isotropic on its domain,
E[psi psi^T] = I, so the clean-label interpolant's population error is
E[(psi^T Lambda^{1/2} (w - theta))^2] = sum_k lambda_k (w_k - theta_k)^2
with w its dual.  ``bias_monte_carlo(K, t, clean, test_factor)`` averages the
same squared error over a test factor's columns; it is the Monte-Carlo oracle
the exact value is tested against.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidParameterError,
    NumericError,
    RankDeficientKernelWarning,
    ShapeError,
)
from .features import sample_design  # noqa: F401 -- bench/spans.py wraps this name
from .linalg import KernelMatrix, min_norm_solve
from .spectra import Spectrum


@dataclass(frozen=True)
class TargetModel:
    """Ground-truth coefficients and noise level."""

    theta_star: np.ndarray
    sigma: float = 1.0

    def __post_init__(self):
        theta = np.asarray(self.theta_star, dtype=np.float64).reshape(-1)
        theta.setflags(write=False)
        object.__setattr__(self, "theta_star", theta)
        if self.sigma < 0:
            raise InvalidParameterError("noise level sigma must be >= 0")
        if not np.all(np.isfinite(theta)):
            raise NumericError("theta_star has non-finite entries")


def clean_labels(psi, s: Spectrum, t: TargetModel) -> np.ndarray:
    """Noise-free labels f*(x_i) = theta^T Lambda^{1/2} Psi_i of the M x N
    design ``psi``."""
    if np.ndim(psi) != 2 or s.size != len(psi) or t.theta_star.size != s.size:
        raise ShapeError(
            f"inconsistent sizes: spectrum {s.size}, design of shape "
            f"{np.shape(psi)}, theta {t.theta_star.size}"
        )
    return (np.sqrt(s.eigenvalues) * t.theta_star) @ psi


def synthesize_labels(clean, sigma: float, seed) -> np.ndarray:
    """y_i = clean_i + eps_i with eps ~ N(0, sigma^2); ``clean`` itself when
    sigma is 0."""
    if sigma == 0.0:
        return clean
    rng = np.random.default_rng(seed)
    return clean + sigma * rng.standard_normal(len(clean))


def fit_ridgeless(K: KernelMatrix, y) -> np.ndarray:
    """Minimum-norm interpolant of (training inputs, y) under Mercer kernel K,
    as its dual ``K.dual(y)``: predictions at test columns are G_test^T dual.

    The solve validates y; its rank and consistency flags are not kept
    (``min_norm_solve(K, y)`` returns them, and ``bench/spans.py`` counts
    them there).
    """
    min_norm_solve(K, y)
    return K.dual(y)


def empirical_test_error(dual, t: TargetModel, test_factor) -> float:
    """MSE of the interpolant with dual ``dual`` against the noise-free target
    at the columns of the test factor G_test = Lambda^{1/2} Psi_test
    (M x n_test)."""
    return _test_mse(_check_test_factor(len(dual), test_factor), dual, t.theta_star)


def _check_test_factor(rows: int, test_factor) -> np.ndarray:
    g = np.asarray(test_factor, dtype=np.float64)
    if g.ndim != 2 or g.shape[0] != rows:
        raise ShapeError(
            f"test factor has shape {g.shape}, expected {rows} rows"
        )
    if g.shape[1] < 1:
        raise InvalidParameterError("test factor needs at least one column")
    return g


def _test_mse(g_test, dual, theta) -> float:
    """Mean of (G_test^T dual - G_test^T theta)^2 over the test columns."""
    return float(np.mean((g_test.T @ dual - g_test.T @ theta) ** 2))


def variance_closed_form(K: KernelMatrix, sigma: float) -> float:
    """Noise variance of the interpolant: sigma^2 tr[(Psi^T L^2 Psi) K^-2].

    Evaluated as sigma^2 * sum_j ||L^{1/2} u_j||^2 / s_j(K) over the kept
    left singular vectors u_j of the factor (on the certified Gram route
    u_j = G q_j / sqrt(s_j(K))); every term is a positive sum, so steep
    spectra lose no accuracy.  Numerically rank-deficient kernels fall back
    to the pseudo-inverse and emit a RankDeficientKernelWarning.
    """
    uk = K._kept_left_vectors()
    full = K._full
    if int(full.keep.sum()) < K.size:
        warnings.warn(
            "kernel numerically rank deficient; variance uses the pseudo-inverse",
            RankDeficientKernelWarning,
            stacklevel=2,
        )
    weights = np.einsum("kj,k,kj->j", uk, K.spectrum.eigenvalues, uk)
    return float(sigma**2 * np.sum(weights / full.w[full.keep]))


def population_bias(K: KernelMatrix, t: TargetModel, clean) -> float:
    """Exact bias: population squared error of the noise-free interpolant.

    Regresses the clean labels ``clean`` = G^T theta (``clean_labels``); with
    w their dual and E[psi psi^T] = I (every feature law here),
    E[(f*(x) - fhat(x))^2] = sum_k lambda_k (w_k - theta_k)^2.
    """
    K._require_factor()  # explicit kernels (no spectrum) raise InvalidParameterError
    lam = K.spectrum.eigenvalues
    w = K.dual(clean)
    return float(np.sum(lam * (w - t.theta_star) ** 2))


def bias_monte_carlo(K: KernelMatrix, t: TargetModel, clean, test_factor) -> float:
    """Monte-Carlo bias: squared error of the noise-free interpolant.

    Regresses the clean labels ``clean`` = G^T theta and averages
    (f*(x) - fhat(x))^2 over the columns of the test factor
    G_test = Lambda^{1/2} Psi_test, which the caller draws from the design's
    law.
    """
    K._require_factor()  # explicit kernels (no spectrum) raise InvalidParameterError
    g = _check_test_factor(K.spectrum.size, test_factor)
    return _test_mse(g, K.dual(clean), t.theta_star)


def truncation_study(K_full: KernelMatrix, sigma: float, M_list) -> list[dict]:
    """Compare the variance of rank-M truncations against the full kernel.

    ``K_full`` is the Mercer kernel of the full M_full x N factor.  For each
    M the leading M eigenvalues and factor rows define the truncated kernel.
    One dict per M, keyed ``m_truncated, variance, variance_full,
    truncation_gap, truncation_bound, bound_holds``: |V - V(M)| next to the
    bound 3 V(M) + sigma^2/N and whether it holds.
    """
    K_full._require_factor()  # explicit kernels (no spectrum) raise InvalidParameterError
    n = K_full.size
    s_full = K_full.spectrum
    levels = [int(m) for m in M_list]
    # every level is checked before the full-rank variance is paid for
    for m in levels:
        if m <= n:
            raise InvalidParameterError(f"truncation level M={m} must exceed N={n}")
        if m > s_full.size:
            raise InvalidParameterError(
                f"truncation level M={m} exceeds M_full={s_full.size}")
    v_full = variance_closed_form(K_full, sigma)
    rows = []
    for m in levels:
        # a row prefix of Lambda^{1/2} Psi is the truncated factor, bit for bit
        K_m = KernelMatrix(K_full.factor[:m], Spectrum(s_full.eigenvalues[:m], "custom"))
        v_m = variance_closed_form(K_m, sigma)
        gap = abs(v_full - v_m)
        bound = 3.0 * v_m + sigma**2 / n
        rows.append(dict(m_truncated=m, variance=v_m, variance_full=v_full,
                         truncation_gap=gap, truncation_bound=bound,
                         bound_holds=bool(gap <= bound)))
    return rows
