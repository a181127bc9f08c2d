"""Kernel matrices, extreme singular values, and pseudo-inverse solves.

All spectral quantities of a Mercer kernel K = Psi^T Lambda Psi come from
the factor G = Lambda^{1/2} Psi, so K's singular values are the squares of
G's.  Values are produced by one of three routes, recorded in
``SpectrumSummary.path``:

* ``"jacobi"`` -- steep spectra (lambda_1/lambda_N > 1e8).  G's singular
  values span more than the 1e16 range a bidiagonalization-based SVD can
  resolve.  G is row-graded (G = D * B with D diagonal and B well
  conditioned), exactly the class where the Jacobi SVD (LAPACK dgejsv)
  attains high *relative* accuracy for every singular value.  Quantities
  from this path carry no zero cutoff: values far below eps * s_max are
  still fully accurate.
* ``"gram_eigh"`` -- tall factors (M >= N) that are not steep.  An
  eigendecomposition of the formed Gram matrix K = G^T G (``eigvalsh`` for
  values only, ``eigh`` with vectors) costs a fraction of an SVD of G, but
  forming K squares the condition number, so the result is kept only under
  an a-posteriori certificate.  Forming K perturbs it by at most
  gamma_M * trace(K) in the 2-norm, with gamma_M = M eps / (1 - M eps), and
  the symmetric eigensolver is backward stable to about N eps lambda_max,
  so the computed eigenpairs are exact for some K + dK with
  ||dK|| <= gamma_M trace(K) + N eps lambda_max.  By Weyl's inequality
  every computed eigenvalue lies within ||dK|| of the exact one; divided by
  the smallest computed eigenvalue, ||dK|| ||K^-1|| is the relative error
  bound reported as ``rel_error_bound``.  The result is accepted when it is
  at most GRAM_CERTIFIED_TOLERANCE (2e-6 on K's singular values, 1e-6 on
  G's).  Where s_min collapses (dependent features) the bound fails and the
  computation escalates to the next route; a bound on lambda_min from pairs
  of K's entries catches most such failures before the eigensolver runs
  (``KernelMatrix._decompose``).
* ``"gesdd"`` -- everything else: NumPy's divide-and-conquer SVD of G, whose
  absolute error is about eps * s_max.  Values only of a tall factor take R
  of a Householder QR of G first, by tall-skinny QR (``_values_only_svd``), and
  then the divide-and-conquer SVD of R; both steps are backward stable, so
  the absolute error stays about eps * s_max.

The same bound covers the outputs of a full solve on the ``gram_eigh``
route.  To first order in dK, the dual G K^-1 y moves by
-G K^-1 dK alpha with alpha = K^-1 y; since ||G K^-1|| = 1/s_min(G) and
||dual|| = ||G alpha|| >= s_min(G) ||alpha||, ||d dual|| <= ||dK|| ||K^-1||
||dual||, so the dual's relative error is at most ``rel_error_bound``.  The
variance V = sigma^2 tr(B), with B = K^-1 A K^-1 and A = G^T Lambda G both
PSD, moves by -2 sigma^2 tr(K^-1 dK B), and |tr(K^-1 dK B)| <=
||K^-1 dK|| tr(B), so its relative error is at most 2 * ``rel_error_bound``.
The dual is formed as G (K^+ y) with one refinement step whose residual
y - G^T (G alpha) is taken through G, not K, which removes the roundoff of
forming K from it.

One function, ``KernelMatrix._decompose``, holds this route rule, for
explicit matrices (``from_entries``) too: their route is ``"eigh"`` of the
entries, rejected when an eigenvalue is below -1e-12 * max |eigenvalue|.  It
returns one record per request kind, each cached once per kernel: values
only (``singular_extremes``) or full, which adds K's eigenvectors and, on
the SVD routes, G's left singular vectors.  An explicit matrix has only the
full record.  Neither cache writes the other; each may read it.  Values
requested after a full decomposition reuse it, and a full decomposition
after values that failed the certificate (``"gesdd"``) skips ``eigh``.  So
the route does not depend on call order, and one kernel reports the same
values before and after its fit.  Two kernels of one factor, one measured
first and one fitted first, agree within the route's bound, not bit for
bit: ``eigvalsh`` and ``eigh`` on ``"gram_eigh"``, TSQR and the full gesdd
on ``"gesdd"``, and dgejsv with and without vectors on ``"jacobi"`` differ
in their last bits.

Pseudo-inverse solves, duals and variances all read the full record, whose
``keep`` mask is the pseudo-inverse cutoff policy, computed once there:
eigenvalues below 1e-12 * s_max are dropped, except on the Jacobi path,
which keeps every positive eigenvalue.

Two OpenBLAS libraries can be loaded, each the scipy-openblas build its
package bundles, and ``_openblas`` resolves both the same way, through
``ctypes`` and without importing scipy.  numpy's (ILP64) runs every call
here but one, on one thread in sweeps and in values-only factorizations
(``single_threaded_blas``).  scipy's (LP64) runs only the Jacobi SVD with
vectors, at scipy's own thread count, since the steep bias carries its
bits, until the benchmark's bias check has a roundoff floor (ROADMAP item
1).  ``scipy.linalg`` is imported only where the bundle a call takes, or
its ``dgejsv``, is missing.  Values on the other routes move with numpy's
thread count by roundoff only, within their bounds.
"""

from __future__ import annotations

import ctypes
import glob
import importlib.util
import math
import os
import threading
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache, cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    InsufficientTailError,
    InvalidParameterError,
    InvariantViolationError,
    NumericError,
    ShapeError,
)
from .spectra import Spectrum

# lambda_1/lambda_min spread beyond which the factor SVD switches to the
# high-relative-accuracy Jacobi routine
STEEP_SPECTRUM_RATIO = 1e8

# largest certified relative error accepted from the Gram-eigenvalue route
GRAM_CERTIFIED_TOLERANCE = 2e-6

# fast-path floors (meaningless noise below these; not applied to Jacobi results)
SMIN_ZERO_CUTOFF = 1e-13
PINV_RELATIVE_CUTOFF = 1e-12


@dataclass(frozen=True)
class SpectrumSummary:
    """Extreme singular values of a kernel matrix.

    ``condition_number`` is +inf when s_min is (or is cut to) zero.
    ``path`` names the route that produced the values (``"jacobi"``,
    ``"gram_eigh"`` or ``"gesdd"`` for Mercer kernels, ``"eigh"`` for
    explicit matrices); ``rel_error_bound`` is the certified relative error
    of every value on the ``"gram_eigh"`` route and None elsewhere.
    """

    s_max: float
    s_min: float
    condition_number: float
    full_singular_values: np.ndarray
    path: str
    rel_error_bound: float | None = None

    @property
    def accurate(self) -> bool:
        """Whether the values came from the Jacobi path and are therefore
        trustworthy below the standard SVD noise floor."""
        return self.path == "jacobi"


@dataclass(frozen=True)
class RowNormDiagnostics:
    """Normalized tail-row norms P_i of a design matrix.

    P_i^2 concentrates near 1 for independent entries; its minimum collapsing
    toward 0 signals feature dependence.
    """

    p_values: np.ndarray
    min_p_squared: float


@dataclass(frozen=True)
class MinNormSolution:
    """Result of a pseudo-inverse solve K alpha = y."""

    alpha: np.ndarray
    inconsistent: bool
    rank: int


class _Decomposition(NamedTuple):
    """A kernel's record from ``KernelMatrix._decompose``: G's singular values
    ``s`` (None for an explicit matrix) and K's eigenvalues ``w`` descending,
    the route, its bound, and on a full request K's eigenvectors ``q``, G's
    left vectors ``u`` and the kept mask ``keep`` (``KernelMatrix._full``)."""

    s: np.ndarray | None
    w: np.ndarray
    path: str
    bound: float | None = None
    q: np.ndarray | None = None
    u: np.ndarray | None = None
    keep: np.ndarray | None = None


class KernelMatrix:
    """Symmetric PSD Gram matrix and the one pseudo-inverse it defines.

    Two constructors.  ``KernelMatrix(factor, spectrum)`` is a Mercer kernel:
    it keeps the M x N factor G = Lambda^{1/2} Psi and the ``spectrum`` it
    came from (G has one row per eigenvalue) and builds its entries lazily
    as G^T G.  It does not keep Psi: G is the only M x N array a kernel
    pins, and whatever needs Psi itself (clean labels, row norms) takes it
    from the design before the caller drops it.  ``from_entries(entries)``
    wraps an explicit matrix, which holds only its entries; its ``spectrum``
    is None.  Every downstream solve, prediction, and variance evaluation
    reuses the one cached full record (``_full``).  Instances are immutable
    and safe to share across trial workers.
    """

    spectrum: Spectrum | None = None
    _factor: np.ndarray | None = None
    _entries: np.ndarray | None = None  # a Mercer kernel builds them on first use

    def __init__(self, factor, spectrum: Spectrum):
        if not isinstance(spectrum, Spectrum):
            raise InvalidParameterError(
                f"a Mercer kernel needs a Spectrum, got {spectrum!r}")
        factor = np.asarray(factor, dtype=np.float64)
        if factor.ndim != 2 or factor.shape[0] != spectrum.size:
            raise ShapeError(
                f"Mercer factor has shape {factor.shape}, expected {spectrum.size} rows"
            )
        factor.setflags(write=False)
        self.spectrum = spectrum
        self._factor = factor
        self.size = int(factor.shape[1])

    @classmethod
    def from_entries(cls, entries) -> KernelMatrix:
        """Wrap a raw symmetric PSD matrix (no factor or spectrum)."""
        entries = np.asarray(entries, dtype=np.float64)
        # an empty matrix has no max to scale the symmetry check by
        if (entries.ndim != 2 or entries.shape[0] != entries.shape[1]
                or entries.size == 0):
            raise ShapeError(
                f"kernel matrix must be square and non-empty, got {entries.shape}"
            )
        scale = float(np.abs(entries).max())
        if np.isfinite(scale):  # non-finite matrices fail later, at use
            skew = float(np.abs(entries - entries.T).max())
            if skew > 1e-12 * max(scale, 1e-300):
                raise InvariantViolationError(
                    f"kernel matrix asymmetric beyond tolerance (skew {skew:.3g})"
                )
        entries.setflags(write=False)
        kernel = cls.__new__(cls)
        kernel._entries = entries
        kernel.size = int(entries.shape[0])
        return kernel

    @property
    def entries(self) -> np.ndarray:
        if self._entries is None:
            g = self._factor
            k = g.T @ g
            k = 0.5 * (k + k.T)
            k.setflags(write=False)
            self._entries = k
        return self._entries

    @property
    def is_mercer(self) -> bool:
        return self._factor is not None

    @property
    def factor(self) -> np.ndarray | None:
        return self._factor

    # -- memoized spectral data ------------------------------------------------

    @cached_property
    def _steep(self) -> bool:
        g = self._factor
        if g.shape[0] < g.shape[1]:
            return False  # wide factors are rank deficient; fast path + cutoff
        lam = self.spectrum.eigenvalues
        visible = min(len(lam), self.size) - 1
        return bool(lam[0] / lam[visible] > STEEP_SPECTRUM_RATIO)

    def _require_factor(self) -> np.ndarray:
        """The Mercer factor G; an explicit matrix raises InvalidParameterError."""
        if not self.is_mercer:
            raise InvalidParameterError(
                "kernel has no Mercer factor: duals, fits and risk terms need a "
                "kernel from assemble_kernel; explicit matrices are solved "
                "through min_norm_solve"
            )
        return self._factor

    @cached_property
    def _values(self) -> _Decomposition:
        """Values-only record; a full record measured earlier serves as is,
        and an explicit matrix's is its full record."""
        if self.is_mercer and "_full" not in self.__dict__:
            return self._decompose(full=False)
        return self._full

    @cached_property
    def _full(self) -> _Decomposition:
        """Full record: also K's eigenvectors, G's left singular vectors and
        the kept mask, the pseudo-inverse cutoff policy (see the module
        docstring).  A wide M x N factor has M modes."""
        rec = self._decompose(full=True)
        w = rec.w
        if w.size == 0 or w[0] <= 0.0:
            keep = np.zeros_like(w, dtype=bool)
        elif rec.path == "jacobi":
            keep = w > 0.0
        else:
            keep = w > PINV_RELATIVE_CUTOFF * w[0]
        return rec._replace(keep=keep)

    def _decompose(self, full: bool) -> _Decomposition:
        """The route rule (see the module docstring): ``eigh`` of an explicit
        matrix, which raises InvariantViolationError when it is not PSD;
        Jacobi for steep spectra; else certified ``eigvalsh``/``eigh`` of K
        for a tall factor with finite trace(K) that has not already failed the
        certificate; else gesdd.

        Before ``eigvalsh``/``eigh``, a pair bound skips a certificate that
        cannot hold.  ``ub`` (``_pair_lambda_min_bound``) bounds lambda_min
        of the computed K from above, and the backward-stable eigensolver
        returns w[-1] <= ub + N eps lambda_max <= ub + N eps trace(K).  The
        certificate is at least gamma_M trace(K) / w[-1], so when
        gamma_M trace(K) / (ub + N eps trace(K)) exceeds the tolerance the
        eigensolver's result would be thrown away: go straight to gesdd.
        """
        if not self.is_mercer:
            if not np.all(np.isfinite(self.entries)):
                raise NumericError("kernel matrix has non-finite entries")
            w, q = _eigh_descending(self.entries)
            if w[-1] < -PINV_RELATIVE_CUTOFF * np.abs(w).max():
                raise InvariantViolationError(
                    f"kernel matrix is not positive semi-definite (eigenvalue {w[-1]:.3g})"
                )
            return _Decomposition(None, w, "eigh", q=q)
        g = self._factor
        m, n = g.shape
        if self._steep:
            u, s, v = _jacobi_svd(g, want_vectors=full)
            return _Decomposition(s, s * s, "jacobi", None, v, u)
        values = self.__dict__.get("_values")
        if m >= n and (values is None or values.path != "gesdd"):
            k = self.entries
            trace = float(np.trace(k))
            eps = np.finfo(np.float64).eps
            gamma = m * eps / (1.0 - m * eps)
            if np.isfinite(trace) and gamma * trace <= GRAM_CERTIFIED_TOLERANCE * (
                    _pair_lambda_min_bound(k) + n * eps * trace):
                if full:
                    w, q = _eigh_descending(k)
                else:
                    w, q = np.linalg.eigvalsh(k)[::-1], None
                if w[-1] > 0.0:
                    bound = (gamma * trace + n * eps * w[0]) / w[-1]
                    if bound <= GRAM_CERTIFIED_TOLERANCE:
                        return _Decomposition(np.sqrt(w), w, "gram_eigh",
                                              float(bound), q)
        if full:
            u, s, vh = np.linalg.svd(g, full_matrices=False)
            return _Decomposition(s, s * s, "gesdd", None, vh.T, u)
        s = _values_only_svd(g)
        return _Decomposition(s, s * s, "gesdd")

    def dual(self, y) -> np.ndarray:
        """Dual vector G K^+ y of a Mercer kernel over its kept modes.

        For any test factor G_x, G_x^T dual = K_x^T K^+ y.  On the ``gram_eigh``
        route it is formed as G (K^+ y); on the SVD routes as
        U_k S_k^-1 V_k^T y, which stays at the scale of the labels on steep
        spectra, where G (K^+ y) cancels.
        """
        g = self._require_factor()
        y = np.asarray(y, dtype=np.float64).reshape(-1)
        if y.size != self.size:
            raise ShapeError(
                f"labels have length {y.size}, kernel is {self.size} x {self.size}"
            )
        full = self._full
        keep = full.keep
        qk = full.q[:, keep]
        if full.path == "gram_eigh":
            def solve(r):
                return qk @ ((qk.T @ r) / full.w[keep])

            alpha = solve(y)
            # one refinement step on the residual formed through G, which
            # removes the roundoff of forming K (see the module docstring)
            alpha += solve(y - g.T @ (g @ alpha))
            return g @ alpha
        return full.u[:, keep] @ ((qk.T @ y) / full.s[keep])

    def _kept_left_vectors(self) -> np.ndarray:
        """U_k = G V_k S_k^-1, the factor's left singular vectors over the kept
        modes; on the ``gram_eigh`` route formed from K's eigenvectors and not
        cached, so no M x N matrix stays on the kernel."""
        g = self._require_factor()
        full = self._full
        if full.path == "gram_eigh":
            gq = g @ full.q[:, full.keep]
            gq /= np.sqrt(full.w[full.keep])
            return gq
        return full.u[:, full.keep]


def mercer_factor(s: Spectrum, entries, out=None) -> np.ndarray:
    """G = Lambda^{1/2} Psi: the Mercer factor of feature columns ``entries``
    (one row per eigenvalue of ``s``), written into ``out`` when given
    (``entries`` itself scales in place)."""
    if np.ndim(entries) != 2 or np.shape(entries)[0] != s.size:
        raise ShapeError(
            f"feature columns have shape {np.shape(entries)}, expected {s.size} rows"
        )
    return np.multiply(np.sqrt(s.eigenvalues)[:, None], entries, out=out)


def assemble_kernel(s: Spectrum, psi) -> KernelMatrix:
    """Build K = Psi^T Lambda Psi as G^T G with G = Lambda^{1/2} Psi from the
    M x N design ``psi``; the kernel keeps G, not ``psi``."""
    return KernelMatrix(mercer_factor(s, psi), s)


def singular_extremes(K: KernelMatrix) -> SpectrumSummary:
    """Largest and smallest singular values of K plus their ratio.

    Mercer matrices are measured through the factor, explicit ones by the
    magnitudes of their eigenvalues; on the fast path an s_min below
    1e-13 * s_max is reported as exactly 0 (it is numerically
    indistinguishable from it there) and the condition number becomes +inf.
    """
    values = K._values
    if values.path == "eigh":
        vals = np.sort(np.abs(values.w))[::-1]
    else:
        if not np.all(np.isfinite(values.s)):
            raise NumericError("kernel factor has non-finite singular values")
        vals = values.s * values.s
        if vals.size < K.size:
            vals = np.concatenate([vals, np.zeros(K.size - vals.size)])
    if not np.all(np.isfinite(vals)):
        raise NumericError("kernel matrix has non-finite singular values")
    s_max = float(vals[0])
    s_min = float(vals[-1])
    if values.path != "jacobi" and s_min < SMIN_ZERO_CUTOFF * s_max:
        s_min = 0.0
    cond = math.inf if s_min == 0.0 else s_max / s_min
    return SpectrumSummary(
        s_max=s_max,
        s_min=s_min,
        condition_number=cond,
        full_singular_values=vals,
        path=values.path,
        rel_error_bound=values.bound,
    )


def row_norm_diagnostics(psi, N: int) -> RowNormDiagnostics:
    """P_i = sqrt(mean of squared tail entries) per column of the M x N design
    ``psi``, tail = rows > N."""
    if np.ndim(psi) != 2:
        raise ShapeError(f"design must be 2-d, got shape {np.shape(psi)}")
    if N < 0:
        raise InvalidParameterError(f"tail offset N must be >= 0, got {N}")
    m = len(psi)
    if m <= N:
        raise InsufficientTailError(f"need M > N for a tail block, got M={m}, N={N}")
    tail = psi[N:, :]
    p = np.sqrt(np.einsum("ki,ki->i", tail, tail) / (m - N))
    p.setflags(write=False)
    return RowNormDiagnostics(p_values=p, min_p_squared=float(np.min(p) ** 2))


def min_norm_solve(K: KernelMatrix, y) -> MinNormSolution:
    """Minimum-norm solution alpha = K^+ y.

    Only K's kept modes are inverted (the cutoff policy in the module
    docstring); ``rank`` counts them.  If y has a component outside the
    numerical range of K larger than 1e-8 * ||y||, the solution is flagged
    inconsistent.
    """
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if y.size != K.size:
        raise ShapeError(f"y has length {y.size}, kernel is {K.size} x {K.size}")
    if not np.all(np.isfinite(y)):
        raise NumericError("right-hand side has non-finite entries")
    full = K._full
    qk = full.q[:, full.keep]
    proj = qk.T @ y
    alpha = qk @ (proj / full.w[full.keep])
    norm_y = float(np.linalg.norm(y))
    residual = float(np.linalg.norm(y - qk @ proj))
    inconsistent = norm_y > 0 and residual > 1e-8 * norm_y
    return MinNormSolution(alpha=alpha, inconsistent=inconsistent, rank=int(full.keep.sum()))


def _pair_lambda_min_bound(k: np.ndarray) -> float:
    """min over i != j of (k_ii + k_jj - 2|k_ij|)/2 + 4 eps max k_ii: an upper
    bound on lambda_min of symmetric k (+inf for 1 x 1).

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


def _eigh_descending(k: np.ndarray):
    """Eigenvalues descending and matching eigenvectors of symmetric k."""
    w, q = np.linalg.eigh(k)
    return w[::-1].copy(), q[:, ::-1].copy()


def _jacobi_svd(g: np.ndarray, want_vectors: bool):
    """High-relative-accuracy SVD of a tall row-graded factor via dgejsv.

    joba='F' targets matrices of the form D1*C*D2 with ill-conditioned
    diagonal scalings; singular values come back scaled by work[0]/work[1].

    The routine is ``LAPACKE_dgejsv_work`` of a bundled OpenBLAS, numpy's
    for values only and scipy's with vectors (see the module docstring),
    called through ``ctypes`` inside ``single_threaded_blas`` on a Fortran
    copy of G with what scipy's f2py wrapper ``scipy.linalg.lapack.dgejsv``
    passes: jobr='R', jobt='N', jobp='P', the wrapper's default LWORK and an
    IWORK of max(3, M + 3N).  LWORK picks dgejsv's blocked or unblocked inner
    paths, so any other value moves the last bits.  The wrapper itself, and
    with it ``scipy.linalg``, is imported only where that library or its
    symbol is missing.
    """
    m, n = g.shape
    package = "scipy" if want_vectors else "numpy"
    lapack = _openblas(package)
    if lapack is None:
        from scipy.linalg.lapack import dgejsv

        jobu, jobv = (0, 0) if want_vectors else (3, 3)
        sva, u, v, work, _, info = dgejsv(
            np.asfortranarray(g), joba=2, jobu=jobu, jobv=jobv
        )
    else:
        a = np.array(g, dtype=np.float64, order="F")  # dgejsv overwrites it
        sva = np.empty(n)
        u = np.empty((m, n) if want_vectors else (0, 0), order="F")
        v = np.empty((n, n) if want_vectors else (0, 0), order="F")
        lwork = max(6 * n + 2 * n * n, 2 * m + n, 4 * n + n * n, 2 * n + n * n + 6, 7)
        work = np.empty(lwork)
        iwork = np.empty(max(3, m + 3 * n), dtype=_BUNDLES[package][2])
        jobu, jobv = (b"U", b"V") if want_vectors else (b"N", b"N")
        with single_threaded_blas():
            info = lapack.dgejsv(_COL_MAJOR, b"F", jobu, jobv, b"R", b"N", b"P", m, n,
                                 a.ctypes.data, m, sva.ctypes.data, u.ctypes.data,
                                 max(1, len(u)), v.ctypes.data, max(1, n),
                                 work.ctypes.data, lwork, iwork.ctypes.data)
    if info != 0:
        raise NumericError(f"Jacobi SVD did not converge (info={info})")
    s = sva * (work[0] / work[1])
    return (u, s, v) if want_vectors else (None, s, None)


def _values_only_svd(g: np.ndarray) -> np.ndarray:
    """Singular values of the factor ``g``, descending.

    For a tall M x N factor they are the singular values of R from a
    Householder QR of G, taken by tall-skinny QR (TSQR): LAPACK ``dgeqrt``
    factors the first N rows, then ``dtpqrt`` (with ``l = 0``) folds each
    further block of max(N, 32) rows (the last one may be shorter) into R.
    Each fold rounds R once, so on a narrow factor N-row blocks would round
    it about M/N times: at N = 2, M = 45 TSQR and numpy's gesdd of G then
    differed by 4.1 N eps s_max, and by 0.1 N eps s_max with 32-row blocks.
    The inner block size is min(N, 32) columns.  The workspace is
    O(N max(N, 32)) (R, one block, T and the work array), where numpy's
    gesdd copies all of G; R's strictly lower triangle, which holds
    Householder vectors, is zeroed in place before the SVD of R.  Wide
    factors, and any BLAS other than numpy's bundled OpenBLAS, take numpy's
    SVD of G itself.
    """
    m, n = g.shape
    blas = _openblas("numpy")
    if blas is None or not 0 < n <= m:
        return np.linalg.svd(g, compute_uv=False)
    nb, h = min(n, 32), max(n, 32)
    r = np.empty((n, n), order="F")
    block = np.empty((h, n), order="F")
    t = np.empty((nb, n), order="F")
    work = np.empty(nb * n)
    r[...] = g[:n]
    with single_threaded_blas():
        failed = blas.dgeqrt(_COL_MAJOR, n, n, nb, r.ctypes.data, n,
                             t.ctypes.data, nb, work.ctypes.data)
        for i in range(n, m, h):
            rows = min(h, m - i)
            block[:rows] = g[i:i + rows]
            failed = blas.dtpqrt(_COL_MAJOR, rows, n, 0, nb, r.ctypes.data, n,
                                 block.ctypes.data, h, t.ctypes.data, nb,
                                 work.ctypes.data) or failed
        if failed:
            raise NumericError(f"TSQR of the factor failed (info={failed})")
        for j in range(n - 1):
            r[j + 1:, j] = 0.0
        return np.linalg.svd(r, compute_uv=False)


_COL_MAJOR = 102  # LAPACKE's matrix_layout code for Fortran order


class _OpenBLAS(NamedTuple):
    """Entry points of one bundled scipy-openblas library (``_openblas``)."""

    get_threads: Callable[[], int]
    set_threads: Callable[[int], None]
    dgeqrt: Callable[..., int]  # LAPACKE_dgeqrt_work
    dtpqrt: Callable[..., int]  # LAPACKE_dtpqrt_work
    dgejsv: Callable[..., int]  # LAPACKE_dgejsv_work


# package: (library in <package>.libs/, symbol suffix, LAPACK integer);
# numpy's bundle is ILP64, scipy's LP64
_BUNDLES = {
    "numpy": ("libscipy_openblas64_*", "64_", ctypes.c_int64),
    "scipy": ("libscipy_openblas-*", "", ctypes.c_int32),
}


@cache
def _openblas(package: str) -> _OpenBLAS | None:
    """The thread-count functions and LAPACKE work routines of the
    scipy-openblas library that ``package`` ("numpy" or "scipy") bundles in
    ``<package>.libs/``, or None where the package, the library or a symbol
    is missing.  Resolved on first use; ``find_spec`` locates the package
    without importing it."""
    pattern, suffix, i = _BUNDLES[package]
    try:
        root = os.path.dirname(importlib.util.find_spec(package).origin)
        # the copy the package's extensions load: same file, same handle
        lib = ctypes.CDLL(glob.glob(os.path.join(
            os.path.dirname(root), f"{package}.libs", pattern))[0])
        blas = _OpenBLAS(*(getattr(lib, f"scipy_{name}{suffix}") for name in (
            "openblas_get_num_threads", "openblas_set_num_threads",
            "LAPACKE_dgeqrt_work", "LAPACKE_dtpqrt_work", "LAPACKE_dgejsv_work")))
    except (AttributeError, IndexError, OSError, TypeError):
        return None
    ptr, char = ctypes.c_void_p, ctypes.c_char
    blas.get_threads.argtypes, blas.get_threads.restype = [], ctypes.c_int
    blas.set_threads.argtypes, blas.set_threads.restype = [ctypes.c_int], None
    # (layout, m, n, nb, a, lda, t, ldt, work)
    blas.dgeqrt.argtypes = [ctypes.c_int, i, i, i, ptr, i, ptr, i, ptr]
    # (layout, m, n, l, nb, a, lda, b, ldb, t, ldt, work)
    blas.dtpqrt.argtypes = [ctypes.c_int, i, i, i, i, ptr, i, ptr, i, ptr, i, ptr]
    # (layout, joba, jobu, jobv, jobr, jobt, jobp, m, n, a, lda, sva, u, ldu,
    #  v, ldv, work, lwork, iwork)
    blas.dgejsv.argtypes = [ctypes.c_int, *[char] * 6, i, i, ptr, i, ptr, ptr, i,
                            ptr, i, ptr, i, ptr]
    blas.dgeqrt.restype = blas.dtpqrt.restype = blas.dgejsv.restype = i
    return blas


_blas_lock = threading.Lock()
_blas_users = 0
_blas_saved = 0


@contextmanager
def single_threaded_blas():
    """Run the block with numpy's bundled OpenBLAS on one thread, then restore
    the count, also when the block raises.  A no-op on any other BLAS.

    The count is process-wide, so nested and concurrent blocks share one
    depth count: the outermost entry saves it, the outermost exit restores
    it.  Sweeps, TSQR and the Jacobi SVD's ``dgejsv`` call run inside it, so
    values-only factorizations take one thread.  scipy's bundled OpenBLAS,
    which runs only the Jacobi SVD with vectors, keeps its own count.
    """
    global _blas_users, _blas_saved
    blas = _openblas("numpy")
    if blas is None:
        yield
        return
    with _blas_lock:
        if _blas_users == 0:
            _blas_saved = blas.get_threads()
            blas.set_threads(1)
        _blas_users += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_users -= 1
            if _blas_users == 0:
                blas.set_threads(_blas_saved)
