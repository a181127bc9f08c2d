"""Ridgeless regression: label synthesis, interpolation, risk decomposition.

The target function is f*(x) = <theta, Lambda^{1/2} psi(x)>, so clean labels
are G^T theta with G the training factor.  Test error is always measured
against the noise-free f* on fresh inputs.

Numerical note: with steep spectra the coefficient vector alpha = K^+ y has
entries of magnitude up to 1/lambda_N, and evaluating predictions as
G_test^T (G alpha) cancels catastrophically.  Predictions therefore go
through the dual vector w = U Sigma^-1 V^T y (so K_x^T alpha = G_test^T w),
whose partial sums never exceed the result's own scale.
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
from .features import DesignMatrix, sample_design
from .linalg import KernelMatrix, assemble_kernel, kept_modes, min_norm_solve
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


@dataclass(frozen=True)
class RiskReport:
    empirical_mse: float
    bias: float
    variance: float
    n_test: int

    def __post_init__(self):
        if self.empirical_mse < 0 or self.bias < 0 or self.variance < 0:
            raise InvalidParameterError("risk components cannot be negative")
        if self.n_test < 1:
            raise InvalidParameterError("n_test must be at least 1")


class Interpolant:
    """Fitted minimum-norm interpolant tied to its training kernel."""

    def __init__(self, alpha, kernel: KernelMatrix, inconsistency_flag: bool, rank: int):
        alpha = np.asarray(alpha, dtype=np.float64)
        alpha.setflags(write=False)
        self.alpha = alpha
        self.kernel = kernel
        self.inconsistency_flag = inconsistency_flag
        self.rank = rank
        self._dual = None  # w = G alpha of the fitted labels, bound by fit_ridgeless

    @property
    def design(self) -> DesignMatrix:
        return self.kernel.provenance.design

    @property
    def spectrum(self) -> Spectrum:
        return self.kernel.provenance.spectrum

    def prediction_dual(self, y) -> np.ndarray:
        """Dual vector w = U Sigma^-1 V^T y of labels y, so K_x^T K^+ y = G_test^T w."""
        return self.kernel.dual(y)


def synthesize_labels(d: DesignMatrix, s: Spectrum, t: TargetModel, seed) -> np.ndarray:
    """y_i = theta^T Lambda^{1/2} Psi_i + eps_i with eps ~ N(0, sigma^2)."""
    if s.size != d.num_features or t.theta_star.size != s.size:
        raise ShapeError(
            f"inconsistent sizes: spectrum {s.size}, design {d.num_features} "
            f"features, theta {t.theta_star.size}"
        )
    clean = (np.sqrt(s.eigenvalues) * t.theta_star) @ d.entries
    if t.sigma == 0.0:
        return clean
    rng = np.random.default_rng(seed)
    return clean + t.sigma * rng.standard_normal(d.num_samples)


def fit_ridgeless(K: KernelMatrix, y) -> Interpolant:
    """Minimum-norm interpolant of (training inputs, y) under kernel K."""
    if not K.is_mercer:
        raise InvalidParameterError(
            "fit_ridgeless expects a Mercer-assembled kernel; analytic Gram "
            "matrices are fitted through min_norm_solve directly"
        )
    sol = min_norm_solve(K, y)
    f = Interpolant(sol.alpha, K, sol.inconsistent, sol.rank)
    f._dual = f.prediction_dual(y)  # bind the dual to this y while it is at hand
    return f


def predict(f: Interpolant, test_design: DesignMatrix) -> np.ndarray:
    """Evaluate K_x^T alpha at each test column, through the stable dual."""
    if test_design.num_features != f.spectrum.size:
        raise ShapeError(
            f"test design has {test_design.num_features} features, "
            f"expected {f.spectrum.size}"
        )
    if f._dual is None:
        raise NumericError("interpolant has no bound labels")
    g_test = np.sqrt(f.spectrum.eigenvalues)[:, None] * test_design.entries
    return g_test.T @ f._dual


def empirical_test_error(
    f: Interpolant, t: TargetModel, test_design: DesignMatrix, n_test: int
) -> float:
    """MSE of the interpolant against the noise-free target on fresh inputs."""
    if n_test < 1:
        raise InvalidParameterError("n_test must be at least 1")
    if test_design.num_samples < n_test:
        raise ShapeError(
            f"test design has {test_design.num_samples} columns, need {n_test}"
        )
    sub = test_design.entries[:, :n_test]
    g_test = np.sqrt(f.spectrum.eigenvalues)[:, None] * sub
    preds = g_test.T @ f._dual
    truth = g_test.T @ t.theta_star
    return float(np.mean((preds - truth) ** 2))


def variance_closed_form(
    s: Spectrum, d: DesignMatrix, sigma: float, kernel: KernelMatrix | None = None
) -> float:
    """Noise variance of the interpolant: sigma^2 tr[(Psi^T L^2 Psi) K^-2].

    Evaluated through the factor SVD as sigma^2 * sum_j ||L^{1/2} u_j||^2 /
    s_j(K); every term is a positive sum, so steep spectra lose no accuracy.
    Numerically rank-deficient kernels fall back to the pseudo-inverse and
    emit a RankDeficientKernelWarning.
    """
    if kernel is None:
        kernel = assemble_kernel(s, d)
    u, sv, _ = kernel._factor_svd
    w_eigs = sv * sv
    keep = kept_modes(kernel, w_eigs)
    if int(keep.sum()) < kernel.size:
        warnings.warn(
            "kernel numerically rank deficient; variance uses the pseudo-inverse",
            RankDeficientKernelWarning,
            stacklevel=2,
        )
    uk = u[:, keep]
    weights = np.einsum("kj,k,kj->j", uk, s.eigenvalues, uk)
    return float(sigma**2 * np.sum(weights / w_eigs[keep]))


def bias_monte_carlo(
    s: Spectrum,
    d: DesignMatrix,
    t: TargetModel,
    n_test: int,
    seed,
    kernel: KernelMatrix | None = None,
) -> float:
    """Monte-Carlo bias: squared error of the noise-free interpolant.

    Regresses the clean labels G^T theta and averages (f*(x) - fhat(x))^2
    over n_test fresh inputs drawn from the design's law.
    """
    if n_test < 1:
        raise InvalidParameterError("n_test must be at least 1")
    if kernel is None:
        kernel = assemble_kernel(s, d)
    dual = kernel.dual((np.sqrt(s.eigenvalues) * t.theta_star) @ d.entries)
    test = sample_design(d.law, s.size, n_test, seed)
    g_test = np.sqrt(s.eigenvalues)[:, None] * test.entries
    resid = g_test.T @ t.theta_star - g_test.T @ dual
    return float(np.mean(resid**2))


def evaluate_risk(
    f: Interpolant,
    t: TargetModel,
    test_design: DesignMatrix,
    n_test: int,
    bias_seed,
) -> RiskReport:
    """Bundle empirical MSE with its bias/variance decomposition."""
    mse = empirical_test_error(f, t, test_design, n_test)
    bias = bias_monte_carlo(f.spectrum, f.design, t, n_test, bias_seed,
                            kernel=f.kernel)
    var = variance_closed_form(f.spectrum, f.design, t.sigma, kernel=f.kernel)
    return RiskReport(empirical_mse=mse, bias=bias, variance=var, n_test=n_test)


@dataclass(frozen=True)
class TruncationRecord:
    m_truncated: int
    variance: float
    variance_full: float
    gap: float
    bound: float
    holds: bool


def truncation_study(
    s_full: Spectrum, d_full: DesignMatrix, sigma: float, M_list
) -> list[TruncationRecord]:
    """Compare the variance of rank-M truncations against the full kernel.

    For each M the leading M eigenvalues and design rows define the truncated
    kernel; the record carries |V - V(M)| next to the bound 3 V(M) + sigma^2/N.
    """
    n = d_full.num_samples
    m_full = d_full.num_features
    records = []
    v_full = variance_closed_form(s_full, d_full, sigma)
    for m in M_list:
        m = int(m)
        if m <= n:
            raise InvalidParameterError(f"truncation level M={m} must exceed N={n}")
        if m > m_full:
            raise InvalidParameterError(f"truncation level M={m} exceeds M_full={m_full}")
        s_m = Spectrum(s_full.eigenvalues[:m], "custom")
        d_m = DesignMatrix(d_full.entries[:m, :], d_full.law, d_full.seed)
        v_m = variance_closed_form(s_m, d_m, sigma)
        gap = abs(v_full - v_m)
        bound = 3.0 * v_m + sigma**2 / n
        records.append(
            TruncationRecord(
                m_truncated=m,
                variance=v_m,
                variance_full=v_full,
                gap=gap,
                bound=bound,
                holds=bool(gap <= bound),
            )
        )
    return records
