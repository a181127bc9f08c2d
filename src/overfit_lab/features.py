"""Feature sampling and analytic kernels.

Design matrices hold one feature vector per column: ``entries[k, i]`` is the
value of feature k at input i.  Independent laws (gaussian, uniform) draw the
entries i.i.d.; the dependent laws (cosine, sine) evaluate a deterministic
feature map at randomly drawn scalar inputs, which couples the entries of
each column.

``fill_design(law, out, seed)`` draws a design into a caller's M x N buffer
and is the one sampler: ``sample_design`` allocates that buffer with
``np.empty`` and wraps it.  The fill writes the RNG output straight into the
buffer (``standard_normal(out=)``; ``random(out=)`` scaled in place to
low + (high - low) u, numpy's ``uniform``; the phases multiplied into
``out``, then ``cos``/``sin`` in place), which is bit-for-bit what the
allocating expressions give and leaves no M x N temporary.  Its M x N work
(RNG fills and elementwise ufuncs) releases the GIL and it makes no BLAS
call, so a pool thread may run it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidParameterError, InvariantViolationError, ShapeError

FEATURE_LAWS = ("gaussian", "uniform_subgaussian", "cosine", "sine")
INPUT_DOMAINS = ("std_normal_1d", "unit_disk_2d", "unit_circle_2d", "uniform_interval")
KERNEL_KINDS = ("laplacian", "gaussian_rbf", "ntk_1hidden")

SQRT3 = math.sqrt(3.0)
TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class InputDomain:
    """Sampling domain for kernel inputs and for cosine/sine feature angles."""

    kind: str = "uniform_interval"
    lo: float = 0.0
    hi: float = TWO_PI

    def __post_init__(self):
        if self.kind not in INPUT_DOMAINS:
            raise InvalidParameterError(f"unknown input domain {self.kind!r}")
        if self.kind == "uniform_interval" and self.lo >= self.hi:
            raise InvalidParameterError(
                f"uniform_interval needs lo < hi, got [{self.lo}, {self.hi}]"
            )


@dataclass(frozen=True)
class FeatureLaw:
    """How the columns of a design matrix are drawn.

    gaussian and uniform_subgaussian are isotropic with independent entries;
    cosine and sine are isotropic with dependent entries.
    """

    kind: str = "gaussian"

    def __post_init__(self):
        if self.kind not in FEATURE_LAWS:
            raise InvalidParameterError(f"unknown feature law {self.kind!r}")


@dataclass(frozen=True)
class DesignMatrix:
    """Realized M x N feature block plus the law it came from."""

    entries: np.ndarray
    law: FeatureLaw

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=np.float64)
        if arr.ndim != 2:
            raise ShapeError("design entries must be a 2-d array")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def num_features(self) -> int:
        return self.entries.shape[0]

    @property
    def num_samples(self) -> int:
        return self.entries.shape[1]


@dataclass(frozen=True)
class AnalyticKernel:
    """Closed-form kernel on R^d points."""

    kind: str
    dimension: int = 1
    bandwidth: float = 1.0

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise InvalidParameterError(f"unknown kernel kind {self.kind!r}")
        if self.dimension < 1:
            raise InvalidParameterError("kernel input dimension must be >= 1")
        if self.bandwidth <= 0:
            raise InvalidParameterError("bandwidth must be positive")


def sample_inputs(domain: InputDomain, N: int, seed) -> np.ndarray:
    """Draw N input points from the domain; shape (N, d).

    unit_disk_2d is uniform over the closed unit disk; unit_circle_2d pushes
    the same draw to the boundary (uniform angle).
    """
    if N < 1:
        raise InvalidParameterError("N must be at least 1")
    rng = np.random.default_rng(seed)
    if domain.kind == "std_normal_1d":
        return rng.standard_normal((N, 1))
    if domain.kind == "uniform_interval":
        return rng.uniform(domain.lo, domain.hi, (N, 1))
    # polar draw: radius sqrt(u) makes the disk uniform
    angles = rng.uniform(0.0, TWO_PI, N)
    pts = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    if domain.kind == "unit_circle_2d":
        return pts
    radii = np.sqrt(rng.uniform(0.0, 1.0, N))
    return pts * radii[:, None]


def fourier_design(x: np.ndarray, M: int, kind: str, out=None) -> np.ndarray:
    """Feature block of sqrt(2)*cos(k*x) (or sin), k = 1..M, one column per x.

    Written into ``out`` (M x len(x) float64) when given, else into a new array.
    """
    if kind not in ("cosine", "sine"):
        raise InvalidParameterError(f"fourier_design expects cosine or sine, got {kind!r}")
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    if out is None:
        out = np.empty((M, x.size))
    np.multiply(np.arange(1, M + 1, dtype=np.float64)[:, None], x[None, :], out=out)
    fn = np.cos if kind == "cosine" else np.sin
    fn(out, out=out)
    out *= math.sqrt(2.0)
    return out


def fill_design(law: FeatureLaw, out: np.ndarray, seed) -> np.ndarray:
    """Draw an M x N design under ``law`` into the float64 buffer ``out``.

    Deterministic in ``seed``; ``sample_design`` is this fill into a new
    buffer.  Returns ``out``.
    """
    rng = np.random.default_rng(seed)
    if law.kind == "gaussian":
        rng.standard_normal(out=out)
    elif law.kind == "uniform_subgaussian":
        rng.random(out=out)
        out *= SQRT3 - (-SQRT3)
        out += -SQRT3
    else:  # cosine or sine
        x = sample_inputs(InputDomain("uniform_interval", 0.0, TWO_PI), out.shape[1], rng)
        fourier_design(x[:, 0], out.shape[0], law.kind, out)
    return out


def sample_design(law: FeatureLaw, M: int, N: int, seed) -> DesignMatrix:
    """Draw an M x N design matrix under ``law``, deterministically in ``seed``."""
    if M < 1 or N < 1:
        raise InvalidParameterError("design dimensions must be positive")
    return DesignMatrix(fill_design(law, np.empty((M, N)), seed), law)


def ntk_kappa0(t):
    """First arc-cosine function: 1 - arccos(t)/pi, the ReLU gating term."""
    t = np.asarray(t, dtype=np.float64)
    if np.any(np.abs(t) > 1.0):
        raise DomainError("kappa0 argument must lie in [-1, 1]")
    return 1.0 - np.arccos(t) / np.pi


def ntk_kappa1(t):
    """Second arc-cosine function: (t*(pi - arccos(t)) + sqrt(1-t^2))/pi."""
    t = np.asarray(t, dtype=np.float64)
    if np.any(np.abs(t) > 1.0):
        raise DomainError("kappa1 argument must lie in [-1, 1]")
    return (t * (np.pi - np.arccos(t)) + np.sqrt(np.maximum(0.0, 1.0 - t * t))) / np.pi


def kernel_cross(kernel: AnalyticKernel, X, Z) -> np.ndarray:
    """Kernel evaluations k(x_i, z_j) for rows of X against rows of Z."""
    X = _as_points(X, kernel.dimension)
    Z = _as_points(Z, kernel.dimension)
    if kernel.kind == "laplacian":
        d = np.linalg.norm(X[:, None, :] - Z[None, :, :], axis=2)
        return np.exp(-d)
    if kernel.kind == "gaussian_rbf":
        d2 = np.sum((X[:, None, :] - Z[None, :, :]) ** 2, axis=2)
        return np.exp(-d2 / (2.0 * kernel.bandwidth**2))
    # 1-hidden-layer ReLU tangent kernel; needs inner products inside [-1, 1],
    # i.e. all points inside the closed unit ball.
    for pts, name in ((X, "X"), (Z, "Z")):
        norms = np.linalg.norm(pts, axis=1)
        if np.any(norms > 1.0 + 1e-9):
            raise DomainError(
                f"ntk_1hidden input in {name} has norm {norms.max():.6g} > 1; "
                "arccos argument would leave [-1, 1]"
            )
    t = np.clip(X @ Z.T, -1.0, 1.0)
    return t * ntk_kappa0(t) + ntk_kappa1(t)


def kernel_gram(kernel: AnalyticKernel, X):
    """Symmetric Gram matrix of an analytic kernel on sampled points.

    Returned as an explicit :class:`overfit_lab.linalg.KernelMatrix`
    (``from_entries``: no spectrum or design).
    """
    from .linalg import KernelMatrix  # deferred; linalg imports features types

    X = _as_points(X, kernel.dimension)
    if not np.all(np.isfinite(X)):
        raise InvariantViolationError("kernel inputs must be finite")
    entries = kernel_cross(kernel, X, X)
    entries = 0.5 * (entries + entries.T)  # exact symmetry under roundoff
    return KernelMatrix.from_entries(entries)


def _as_points(X, d: int) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, None]
    if X.ndim != 2 or X.shape[1] != d:
        raise ShapeError(f"expected points of dimension {d}, got shape {X.shape}")
    return X
