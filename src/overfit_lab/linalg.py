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
  eigendecomposition of the formed Gram matrix K = G^T G (``dsyevd`` in
  place for values only, ``eigh`` with vectors) costs a fraction of an SVD
  of G, but forming K squares the condition number, so the result is kept
  only under an a-posteriori certificate.  Forming K perturbs it by at most
  gamma_M * trace(K) in the 2-norm, with gamma_M = M eps / (1 - M eps), and
  the symmetric eigensolver is backward stable to about N eps lambda_max,
  so the computed eigenpairs are exact for some K + dK with
  ||dK|| <= gamma_M trace(K) + N eps lambda_max.  By Weyl's inequality
  every computed eigenvalue lies within ||dK|| of the exact one; divided by
  the smallest computed eigenvalue, ||dK|| ||K^-1|| is the relative error
  bound reported as ``rel_error_bound``.  The result is accepted when it is
  at most GRAM_CERTIFIED_TOLERANCE (2e-6 on K's singular values, 1e-6 on
  G's).  Where s_min collapses (dependent features) the bound fails and the
  computation escalates to the next route; a screen of near-duplicate
  column pairs of G (``_PairScreen``) proves most such failures before K
  is formed, and the route then skips both K and the eigensolver.
* ``"gesdd"`` -- everything else: NumPy's divide-and-conquer SVD of G, whose
  absolute error is about eps * s_max.  Values only of a tall factor take R
  of a Householder QR of G first, by tall-skinny QR (``_tsqr``), and then the
  divide-and-conquer SVD of R, in place (``_values_only_svd``); both steps
  are backward stable, so the absolute error stays about eps * s_max.

Values only of a tall factor read G once, as a stream of row blocks
(``KernelMatrix._tall_values``): the screen's pair sums, K = sum of
G_b^T G_b and TSQR's R each fold one block at a time, so a factor that
arrives in blocks (``KernelMatrix.from_blocks``) is never held whole.  The
first block fixes the route, and one case takes a second pass over the
blocks (see ``_tall_values``).  A pass holds its block and K or R: each
block's G_b^T G_b is summed into K by ``dsyrk`` with no temporary, and
the eigensolver takes K's values in place (``_syrk``, ``_eigvalsh``), while
TSQR adds one fold of FOLD_ROWS rows, the height of the sweeps' blocks.
Each entry of K is still a sum of M products, so it errs by at most
gamma_M whatever the blocks, and the certificate keeps gamma_M; TSQR folds
at fixed row boundaries, so its bits do not depend on the blocks.  A
factor held in memory is one block and keeps the bits of the rule on G
itself.

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
bit: values-only ``dsyevd`` and ``eigh`` on ``"gram_eigh"``, TSQR and the
full gesdd on ``"gesdd"``, and dgejsv with and without vectors on
``"jacobi"`` differ in their last bits.

Pseudo-inverse solves, duals and variances all read the full record, whose
``keep`` mask is the pseudo-inverse cutoff policy, computed once there:
eigenvalues below 1e-12 * s_max are dropped, except on the Jacobi path,
which keeps every positive eigenvalue.

Two OpenBLAS libraries can be loaded, each the scipy-openblas build its
package bundles, and ``_openblas`` resolves both the same way, through
``ctypes`` and without importing scipy.  numpy's (ILP64) runs every call
here but one, on one thread in sweeps, in TSQR and in values-only Jacobi
SVDs (``single_threaded_blas``).  scipy's (LP64) runs only the Jacobi SVD
with vectors, at scipy's own thread count, since the steep bias carries its
bits, until the benchmark's bias check has a roundoff floor (ROADMAP item
1).  ``_openblas`` loads it with OpenBLAS's shortest idle-wait timeout,
so its idle worker sleeps instead of spinning a core through and after
each call; the count and the bits stay.  Where ``scipy.linalg`` was
imported first, its library is already mapped and keeps the default
timeout, with the same bits.  ``scipy.linalg`` is imported only where the
bundle a call takes, or its ``dgejsv``, is missing.  Values on the other
routes move with numpy's thread count by roundoff only, within their
bounds.
"""

from __future__ import annotations

import ctypes
import glob
import importlib.util
import itertools
import math
import os
import threading
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache
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


class _once:
    """``functools.cached_property`` without a lock: the first read stores
    the value in the instance's ``__dict__``, where later reads find it
    before this descriptor.  Before Python 3.12 ``cached_property`` takes
    one RLock per decorated method, shared by every instance, so kernels
    decomposed on two threads would run one at a time; here two first reads
    of one kernel on two threads may both compute the value."""

    def __init__(self, fn):
        self.fn = fn
        self.__doc__ = fn.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


class KernelMatrix:
    """Symmetric PSD Gram matrix and the one pseudo-inverse it defines.

    Three constructors.  ``KernelMatrix(factor, spectrum)`` is a Mercer kernel:
    it keeps the M x N factor G = Lambda^{1/2} Psi and the ``spectrum`` it
    came from (G has one row per eigenvalue) and builds its entries lazily
    as G^T G.  It does not keep Psi: G is the only M x N array a kernel
    pins, and whatever needs Psi itself (clean labels, row norms) takes it
    from the design before the caller drops it.  ``from_entries(entries)``
    wraps an explicit matrix, which holds only its entries; its ``spectrum``
    is None.  ``from_blocks(blocks, spectrum, size)`` is a Mercer kernel that
    gives values only and holds no factor: G streams in row blocks on each
    pass.  Every downstream solve, prediction, and variance evaluation
    reuses the one cached full record (``_full``).  Instances are immutable
    and may be shared across threads, and kernels on different threads
    decompose at the same time.  Two first reads of one kernel's record on
    two threads may both decompose it, with the same bits; a ``from_blocks``
    kernel then takes two passes at once, so its source must give each pass
    its own buffer.  Whether its values or its fit comes first is then up
    to the threads, as it is up to the caller on one thread.

    The Mercer constructor freezes a float64 array ``factor`` in place, so
    the caller's array becomes read-only: a copy would cost a second M x N
    buffer, and the sweeps hand over a buffer they no longer write.
    ``from_entries`` keeps a frozen copy of its N x N entries and leaves the
    caller's array writable.
    """

    spectrum: Spectrum | None = None
    _factor: np.ndarray | None = None
    _source: Callable[[], Iterable[np.ndarray]] | None = None  # from_blocks
    _entries: np.ndarray | None = None  # a Mercer kernel builds them on first use

    def __init__(self, factor, spectrum: Spectrum):
        _check_spectrum(spectrum)
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
    def from_blocks(cls, blocks: Callable[[], Iterable[np.ndarray]],
                    spectrum: Spectrum, size: int) -> KernelMatrix:
        """A values-only Mercer kernel whose factor G streams in row blocks.

        Each call ``blocks()`` starts a new pass over G: an iterable of
        float64 blocks of ``size`` columns that together hold G's
        ``spectrum.size`` rows in order.  A block may be overwritten once
        the next one is asked for, so one buffer can carry the whole pass.
        ``singular_extremes`` takes one pass, or two where the route must
        see G again (``_tall_values``); no M x N array is held, except on
        steep spectra and wide factors, whose SVD needs G whole and collects
        the blocks into it.  Solves, duals and fits need G in memory and
        raise InvalidParameterError.
        """
        _check_spectrum(spectrum)
        if size < 1:
            raise ShapeError(f"a Mercer factor needs columns, got size {size}")
        kernel = cls.__new__(cls)
        kernel.spectrum = spectrum
        kernel._source = blocks
        kernel.size = int(size)
        return kernel

    @classmethod
    def from_entries(cls, entries) -> KernelMatrix:
        """Wrap a copy of a raw symmetric PSD matrix (no factor or spectrum)."""
        entries = np.array(entries, dtype=np.float64)
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
            self._entries = _gram(self._blocks())
        return self._entries

    @property
    def is_mercer(self) -> bool:
        return self.spectrum is not None

    @property
    def factor(self) -> np.ndarray | None:
        """G of a Mercer kernel that holds it; None for an explicit matrix or
        a ``from_blocks`` stream."""
        return self._factor

    def _blocks(self) -> Iterator[np.ndarray]:
        """A pass over G's rows (``_row_blocks``): the held factor as one
        block, or a new pass over a ``from_blocks`` stream."""
        if self._factor is not None:
            return iter((self._factor,))
        return _row_blocks(self._source(), self.spectrum.size, self.size)

    # -- memoized spectral data ------------------------------------------------

    @_once
    def _steep(self) -> bool:
        if self.spectrum.size < self.size:
            return False  # wide factors are rank deficient; fast path + cutoff
        lam = self.spectrum.eigenvalues
        visible = min(len(lam), self.size) - 1
        return bool(lam[0] / lam[visible] > STEEP_SPECTRUM_RATIO)

    def _require_factor(self) -> np.ndarray:
        """The Mercer factor G; a kernel that holds none (an explicit matrix or
        a ``from_blocks`` stream) raises InvalidParameterError."""
        if self._factor is None:
            raise InvalidParameterError(
                "kernel holds no Mercer factor: duals, fits and risk terms need a "
                "kernel from assemble_kernel, a from_blocks kernel gives values "
                "only, and explicit matrices are solved through min_norm_solve"
            )
        return self._factor

    @_once
    def _values(self) -> _Decomposition:
        """Values-only record; a full record measured earlier serves as is,
        and an explicit matrix's is its full record."""
        if self.is_mercer and "_full" not in self.__dict__:
            return self._decompose(full=False)
        return self._full

    @_once
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
        Jacobi for steep spectra; else certified values/``eigh`` of K
        for a tall factor with finite trace(K) that has not already failed the
        certificate; else TSQR (values only) or gesdd.

        Before K is formed, the pair screen (``_PairScreen``) may prove from G
        that the certificate cannot hold; the route then goes straight to
        TSQR or gesdd without forming K.  A skipped eigensolver is one whose
        result would have been thrown away, so the route and every output
        bit are those of the unscreened rule; a screen that does not fire
        costs time only.  Values only of a tall factor take one pass over its
        row blocks (``_tall_values``).
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
        g = self._require_factor() if full else None
        m, n = self.spectrum.size, self.size
        if self._steep:
            u, s, v = _jacobi_svd(self._blocks(), m, n, want_vectors=full)
            return _Decomposition(s, s * s, "jacobi", None, v, u)
        if not full:
            if m >= n:
                return self._tall_values()
            s = _values_only_svd(self._blocks(), m, n)
            return _Decomposition(s, s * s, "gesdd")
        values = self.__dict__.get("_values")
        if m >= n and (values is None or values.path != "gesdd") and not _pair_screen(g):
            rec = _certified(self.entries, m, full=True)
            if rec is not None:
                return rec
        u, s, vh = np.linalg.svd(g, full_matrices=False)
        return _Decomposition(s, s * s, "gesdd", None, vh.T, u)

    def _tall_values(self) -> _Decomposition:
        """Values only of a tall factor (M >= N) that is not steep, in one
        pass over its row blocks.

        The route is fixed by the first block (``_row_blocks`` gives it the
        screen's leading rows).  The pair screen's candidates and
        ``trace_lb`` come from those rows, and its ``ub`` only grows as rows
        are added, so a first-block screen that does not fire proves that
        the screen of all of G will not fire either: the pass forms
        K = sum of G_b^T G_b (``_gram``) for the certificate.  A first-block
        screen that fires starts TSQR (``_values_only_svd``) and sums the
        screen over the rest of the pass.  One case takes a second pass and
        runs the other route, as the unscreened rule would: the certificate
        fails (TSQR then), or the screen of all of G does not fire (K then,
        and TSQR's values stand if its certificate fails).  Forming K from
        blocks errs by at most gamma_{b + ceil(M/b) - 1} <= gamma_M per
        entry, so the certificate and the screen keep gamma_M.  K is one
        triangle (``_syrk``) that its eigensolver overwrites, so it is not
        kept as ``entries``.  A factor held in memory is one block: the
        first-block screen is the whole screen, and every bit is that of the
        rule on G itself.
        """
        m = self.spectrum.size
        blocks = self._blocks()
        first = next(blocks)
        screen = _PairScreen(first, m)
        if not screen.fires():
            rec = _certified(_syrk(itertools.chain([first], blocks)), m, full=False)
            if rec is not None:
                return rec
            s = _values_only_svd(self._blocks(), m, self.size)
        else:
            s = _values_only_svd(itertools.chain([first], _tap(blocks, screen.add)),
                                 m, self.size)
            if not screen.fires():
                rec = _certified(_syrk(self._blocks()), m, full=False)
                if rec is not None:
                    return rec
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


def row_norm_diagnostics(psi, N: int, M: int | None = None) -> RowNormDiagnostics:
    """P_i = sqrt(mean of squared tail entries) per column of the M x N design
    ``psi``, tail = rows > N.

    A design streamed in row blocks is never whole: it passes, in place of
    ``psi``, its tail's column sums of squares (a vector, summed block by
    block) and its row count ``M``.
    """
    want = 1 if M is not None else 2
    if np.ndim(psi) != want or np.shape(psi)[-1] == 0:
        raise ShapeError(f"design must be {want}-d with columns, got shape {np.shape(psi)}")
    if N < 0:
        raise InvalidParameterError(f"tail offset N must be >= 0, got {N}")
    m = len(psi) if M is None else M
    if m <= N:
        raise InsufficientTailError(f"need M > N for a tail block, got M={m}, N={N}")
    if M is None:
        tail = psi[N:, :]
        psi = np.einsum("ki,ki->i", tail, tail)
    p = np.sqrt(np.asarray(psi, dtype=np.float64) / (m - N))
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


# leading rows a pair screen sketches, and the candidate pairs it evaluates
# over all rows (``_PairScreen``)
SCREEN_ROWS = 32
SCREEN_PAIRS = 4

# rows of one TSQR fold (``_tsqr``), and of the sweeps' stream blocks; at
# least SCREEN_ROWS, so a sweep's first block holds the screen's rows.  On
# the smin-study bench grid (N = 64-512, two lanes) 64 rows ran about 18%
# fewer trials/s and 256 rows peaked about 6% higher in RSS
FOLD_ROWS = 128


class _PairScreen:
    """Whether the Gram certificate provably fails for a tall factor G,
    decided before K = G^T G is formed, from G's row blocks: built from the
    first block, which holds the leading min(M, SCREEN_ROWS) rows, and
    ``add``-ed every later one; ``fires()`` False means no proof.

    (a_ii + a_jj - 2|a_ij|)/2, with a_ij = g_i . g_j, is the Rayleigh
    quotient of (e_i -+ e_j)/sqrt 2, so a near-duplicate column pair (up to
    sign) bounds lambda_min(K) from above.  Candidates come from the leading
    SCREEN_ROWS rows (the largest eigenvalues): the columns are sorted by
    |sum of those rows|, each adjacent pair is scored there, and the
    SCREEN_PAIRS best are summed over the rows added so far.  Adding
    4 gamma_M (a_ii + a_jj) covers the roundoff of the computed K's entries
    and of the screen's own, which gives ``ub``; the leading rows' sum of
    squares, shrunk by its rounding, is ``trace_lb`` <= the computed
    trace(K).  The eigensolver returns w[-1] <= ub + N eps trace(K), so the
    certificate's gamma_M trace(K) <= tol w[-1] fails when
    trace_lb (gamma_M - tol N eps) > tol ub.  Candidates, ``trace_lb`` and
    gamma_M are fixed by the first block, and each pair's
    min(|g_i - g_j|^2, |g_i + g_j|^2) only grows with rows, so ``ub`` does:
    a screen that does not fire on the first block would not fire on all of
    G in exact arithmetic (``KernelMatrix._tall_values``).  Non-finite
    values prove nothing and warn nothing.
    """

    def __init__(self, first: np.ndarray, m: int):
        n = first.shape[1]
        eps = np.finfo(np.float64).eps
        self.gamma = m * eps / (1.0 - m * eps)
        self.margin = self.gamma - GRAM_CERTIFIED_TOLERANCE * n * eps
        self.pairs = None  # a single column has no pair: the screen never fires
        if n < 2:
            return
        lead = first[:SCREEN_ROWS]
        with np.errstate(all="ignore"):
            order = np.argsort(np.abs(lead.sum(axis=0)), kind="stable")
            sketch = lead[:, order]
            norms = np.einsum("ki,ki->i", sketch, sketch)
            dots = np.einsum("ki,ki->i", sketch[:, :-1], sketch[:, 1:])
            score = norms[:-1] + norms[1:] - 2.0 * np.abs(dots)
            best = np.argsort(score, kind="stable")[:SCREEN_PAIRS]
            self.trace_lb = float(np.einsum("ki,ki->", lead, lead)) * (
                1.0 - 2.0 * (m + n + lead.size) * eps)
        self.pairs = order[best], order[best + 1]
        self.diag, self.a_ij = np.zeros(best.size), np.zeros(best.size)
        self.add(first)

    def add(self, block: np.ndarray) -> None:
        """Sum the candidate pairs over the rows of ``block``."""
        if self.pairs is None:
            return
        with np.errstate(all="ignore"):
            gi, gj = block[:, self.pairs[0]], block[:, self.pairs[1]]
            self.diag += np.einsum("ki,ki->i", gi, gi) + np.einsum("ki,ki->i", gj, gj)
            self.a_ij += np.einsum("ki,ki->i", gi, gj)

    def fires(self) -> bool:
        """Whether the rows added so far prove that the certificate fails."""
        if self.pairs is None or not np.isfinite(self.trace_lb):
            return False
        with np.errstate(all="ignore"):
            ub = float(np.min((self.diag - 2.0 * np.abs(self.a_ij)) / 2.0
                              + 4.0 * self.gamma * self.diag))
            return bool(self.trace_lb * self.margin > GRAM_CERTIFIED_TOLERANCE * ub)


def _pair_screen(g: np.ndarray) -> bool:
    """``_PairScreen`` of the tall factor ``g`` held whole, as one block."""
    return _PairScreen(g, len(g)).fires()


def _row_blocks(blocks: Iterable[np.ndarray], m: int, n: int) -> Iterator[np.ndarray]:
    """The blocks of a ``KernelMatrix.from_blocks`` pass, checked to be
    float64 2-d arrays of n columns holding m rows in all (ShapeError
    otherwise).  Blocks are copied and joined, before anything is yielded,
    until the first holds the pair screen's min(m, SCREEN_ROWS) leading
    rows; every later block passes through as it came."""
    lead, rows, held = min(m, SCREEN_ROWS), 0, []
    for block in blocks:
        if not (isinstance(block, np.ndarray) and block.dtype == np.float64
                and block.ndim == 2 and block.shape[1] == n):
            raise ShapeError(f"factor blocks must be float64 arrays of {n} columns, "
                             f"got {getattr(block, 'dtype', type(block).__name__)} "
                             f"of shape {np.shape(block)}")
        rows += len(block)
        if rows > m:
            raise ShapeError(f"factor blocks hold more than the spectrum's {m} rows")
        if held is None:
            yield block
        elif not held and len(block) >= lead:  # the usual first block
            held = None
            yield block
        else:
            held.append(block.copy())
            if rows >= lead:
                yield np.concatenate(held)
                held = None
    if rows != m:
        raise ShapeError(f"factor blocks hold {rows} rows, the spectrum {m}")


def _tap(blocks: Iterable[np.ndarray], fn: Callable[[np.ndarray], None]):
    """``blocks``, each passed to ``fn`` before it is yielded."""
    for block in blocks:
        fn(block)
        yield block


def _collect(blocks: Iterable[np.ndarray], m: int, n: int) -> np.ndarray:
    """The M x N factor whole, its blocks copied into a new Fortran-ordered
    array, which the caller may overwrite."""
    g, rows = np.empty((m, n), order="F"), 0
    for block in blocks:
        g[rows:rows + len(block)] = block
        rows += len(block)
    return g


def _syrk(blocks: Iterable[np.ndarray]) -> np.ndarray:
    """K = G^T G summed over G's row blocks into one new N x N array, which
    the caller owns; K's entries are its row-major upper triangle, and the
    lower one is zero (K's too without numpy's bundled OpenBLAS).

    Each block is one ``cblas_dsyrk`` of numpy's bundle (beta = 1) into that
    triangle, so no block makes a temporary.  It is the call numpy's
    ``g.T @ g`` makes, so a factor held in memory, one block, keeps those
    bits.  A one-column block, whose product numpy takes as a dot, and any
    other BLAS add numpy's product of each block."""
    blas, k = _openblas("numpy"), None
    for block in blocks:
        n = block.shape[1]
        if k is None:
            k = np.zeros((n, n))
        if blas is None or n < 2:
            with np.errstate(all="ignore"):  # non-finite entries fail the trace check
                k += block.T @ block
            continue
        if not (block.flags.c_contiguous or block.flags.f_contiguous):
            block = np.ascontiguousarray(block)
        # a C-ordered block is A^T of A = G_b^T, an F-ordered one is A itself
        trans, lda = (_TRANS, n) if block.flags.c_contiguous else (_NO_TRANS, len(block))
        blas.dsyrk(_ROW_MAJOR, _UPPER, trans, n, len(block), 1.0, block.ctypes.data,
                   lda, 1.0, k.ctypes.data, n)
    return k


def _gram(blocks: Iterable[np.ndarray]) -> np.ndarray:
    """K = G^T G as the sum of G_b^T G_b over G's row blocks (``_syrk``),
    read-only; one block gives the bits of G^T G itself.

    The upper triangle is copied into the lower one, as numpy's
    ``g.T @ g`` does after its syrk, so K is exactly symmetric.  (numpy's
    loop without BLAS forms entries (i, j) and (j, i) from the same products
    in the same order, and floating-point addition is commutative, so a sum
    of those is exactly symmetric too.)"""
    k = _syrk(blocks)
    for i in range(1, len(k)):
        k[i, :i] = k[:i, i]
    k.setflags(write=False)
    return k


def _certified(k: np.ndarray, m: int, full: bool) -> _Decomposition | None:
    """The ``"gram_eigh"`` record of K formed from an M-row factor:
    ``eigh`` of ``k`` (``full``, K's ``entries``) or ``_eigvalsh`` of a
    ``_syrk`` triangle ``k``, which it overwrites, under the certificate of
    the module docstring, or None where trace(K) is not finite or the
    certificate fails."""
    trace = float(np.trace(k))
    if not np.isfinite(trace):
        return None
    if full:
        w, q = _eigh_descending(k)
    else:
        w, q = _eigvalsh(k)[::-1], None
    if w[-1] > 0.0:
        eps = np.finfo(np.float64).eps
        gamma = m * eps / (1.0 - m * eps)
        bound = (gamma * trace + len(k) * eps * w[0]) / w[-1]
        if bound <= GRAM_CERTIFIED_TOLERANCE:
            return _Decomposition(np.sqrt(w), w, "gram_eigh", float(bound), q)
    return None


def _eigvalsh(k: np.ndarray) -> np.ndarray:
    """Eigenvalues, ascending, of the K whose ``_syrk`` triangle is ``k``,
    taken in place: LAPACKE ``dsyevd`` (jobz='N') of numpy's bundled
    OpenBLAS with the workspace its query returns and uplo='L', which on
    K's row-major buffer reads that triangle.  ``np.linalg.eigvalsh(K)``
    makes the same call on its copy of K, so the values are numpy's bit for
    bit; ``k`` is overwritten.  Without the bundle, numpy's ``eigvalsh``.  A
    nonzero ``info`` raises NumericError."""
    blas = _openblas("numpy")
    if blas is None:
        return np.linalg.eigvalsh(k)
    n, lapack_int = len(k), _BUNDLES["numpy"][2]
    w, query, iquery = np.empty(n), np.empty(1), np.empty(1, dtype=lapack_int)

    def dsyevd(work, lwork, iwork, liwork):
        return blas.dsyevd(_COL_MAJOR, b"N", b"L", n, k.ctypes.data, n, w.ctypes.data,
                           work.ctypes.data, lwork, iwork.ctypes.data, liwork)

    info = dsyevd(query, -1, iquery, -1)
    if info == 0:
        lwork, liwork = max(int(query[0]), 1), max(int(iquery[0]), 1)
        info = dsyevd(np.empty(lwork), lwork, np.empty(liwork, dtype=lapack_int), liwork)
    if info != 0:
        raise NumericError(f"eigenvalues of the factor's Gram failed (info={info})")
    return w


def _check_spectrum(spectrum) -> None:
    if not isinstance(spectrum, Spectrum):
        raise InvalidParameterError(f"a Mercer kernel needs a Spectrum, got {spectrum!r}")


def _eigh_descending(k: np.ndarray):
    """Eigenvalues descending and matching eigenvectors of symmetric k."""
    w, q = np.linalg.eigh(k)
    return w[::-1].copy(), q[:, ::-1].copy()


def _jacobi_svd(blocks: Iterable[np.ndarray], m: int, n: int, want_vectors: bool):
    """High-relative-accuracy SVD via dgejsv of the tall row-graded M x N
    factor whose row blocks ``blocks`` yields in order.

    joba='F' targets matrices of the form D1*C*D2 with ill-conditioned
    diagonal scalings; singular values come back scaled by work[0]/work[1].

    The routine is ``LAPACKE_dgejsv_work`` of a bundled OpenBLAS, numpy's
    for values only and scipy's with vectors (see the module docstring),
    called through ``ctypes`` inside ``single_threaded_blas`` with what
    scipy's f2py wrapper ``scipy.linalg.lapack.dgejsv`` passes: jobr='R',
    jobt='N', jobp='P', the wrapper's default LWORK and an IWORK of
    max(3, M + 3N).  LWORK picks dgejsv's blocked or unblocked inner paths,
    so any other value moves the last bits.  dgejsv overwrites G, so it
    factors the one Fortran copy ``_collect`` makes of the blocks, and the
    caller's arrays are left as they were.  The wrapper itself, and with it
    ``scipy.linalg``, is imported only where that library or its symbol is
    missing.
    """
    a = _collect(blocks, m, n)
    package = "scipy" if want_vectors else "numpy"
    lapack = _openblas(package)
    if lapack is None:
        from scipy.linalg.lapack import dgejsv

        jobu, jobv = (0, 0) if want_vectors else (3, 3)
        sva, u, v, work, _, info = dgejsv(a, joba=2, jobu=jobu, jobv=jobv)
    else:
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


def _values_only_svd(blocks: Iterable[np.ndarray], m: int, n: int) -> np.ndarray:
    """Singular values, descending, of the M x N factor whose row blocks
    ``blocks`` yields in order (the factor itself may be its one block).

    For a tall factor they are the singular values of R from a Householder
    QR of G, taken by tall-skinny QR (``_tsqr``) in one pass over the
    blocks.  R's strictly lower triangle, which holds Householder vectors,
    is zeroed, and R's values are then taken in place by LAPACKE ``dgesdd``
    (jobz='N') of numpy's bundled OpenBLAS with the workspace its query
    returns, which is what ``np.linalg.svd(R, compute_uv=False)`` runs on
    its copy of R, so the values are numpy's bit for bit.  TSQR's fold and
    workspace are freed first, so the SVD meets R and its own workspace
    only.  A nonzero ``info`` (a NaN in R among them) raises NumericError.
    Wide factors, and any BLAS other than numpy's bundled OpenBLAS, take
    numpy's SVD of G whole: a pass of one block hands numpy that block, as
    numpy's SVD copies its input anyway, and a longer one is collected.
    """
    blas = _openblas("numpy")
    if blas is None or not 0 < n <= m:
        blocks = iter(blocks)
        first = next(blocks)
        g = first if len(first) == m else _collect(itertools.chain([first], blocks), m, n)
        return np.linalg.svd(g, compute_uv=False)
    s, iwork, query = np.empty(n), np.empty(8 * n, dtype=_BUNDLES["numpy"][2]), np.empty(1)
    with single_threaded_blas():
        r = _tsqr(blas, blocks, n)
        for j in range(n - 1):
            r[j + 1:, j] = 0.0

        def gesdd(work, lwork):
            return blas.dgesdd(_COL_MAJOR, b"N", n, n, r.ctypes.data, n, s.ctypes.data,
                               None, 1, None, 1, work.ctypes.data, lwork,
                               iwork.ctypes.data)

        info = gesdd(query, -1)
        if info == 0:
            lwork = max(int(query[0]), 1)
            info = gesdd(np.empty(lwork), lwork)
    if info != 0:
        raise NumericError(f"SVD of the factor's R failed (info={info})")
    return s


def _tsqr(blas: _OpenBLAS, blocks: Iterable[np.ndarray], n: int) -> np.ndarray:
    """R (N x N, Fortran order, Householder vectors below the diagonal) of a
    Householder QR of the tall factor of N columns whose row blocks
    ``blocks`` yields in order, by TSQR: LAPACK ``dgeqrt`` factors the first
    N rows, then ``dtpqrt`` (with ``l = 0``) folds each further fold of
    FOLD_ROWS rows (the last one may be shorter) into R.  Rows are copied
    into the fold as they arrive, so the folds, and every bit of R, are the
    same whatever the blocks' heights.  Each fold rounds R once, so short
    folds on a narrow factor would round it often: at N = 2, M = 45 TSQR
    and numpy's gesdd of G differed by 4.1 N eps s_max with N-row folds and
    by 0.1 N eps s_max with 32-row folds.  The fold height is fixed, not
    N, so the fold stays small at any N: at N = 512, M = 5120 on one
    thread, 128-row folds took 71-73 ms against 62-64 ms for 512-row
    folds and 88-90 ms for 64-row folds, and were 0.0017 N eps s_max from
    numpy's gesdd of G.  The inner block size is min(N, 32) columns.  The
    workspace (one fold, T and the work array) is O(N FOLD_ROWS), where
    numpy's gesdd copies all of G, and is freed on return.  Raises
    NumericError where a factorization reports an error.
    """
    nb, h = min(n, 32), FOLD_ROWS
    r = np.empty((n, n), order="F")
    fold = np.empty((h, n), order="F")
    t = np.empty((nb, n), order="F")
    work = np.empty(nb * n)

    def qr(rows):
        if dest is r:
            return blas.dgeqrt(_COL_MAJOR, n, n, nb, r.ctypes.data, n,
                               t.ctypes.data, nb, work.ctypes.data)
        return blas.dtpqrt(_COL_MAJOR, rows, n, 0, nb, r.ctypes.data, n,
                           fold.ctypes.data, h, t.ctypes.data, nb, work.ctypes.data)

    failed, dest, held = 0, r, 0  # R's first N rows, then one fold at a time
    for g in blocks:
        i = 0
        while i < len(g):
            take = min(len(dest) - held, len(g) - i)
            dest[held:held + take] = g[i:i + take]
            held, i = held + take, i + take
            if held == len(dest):
                failed = qr(held) or failed
                dest, held = fold, 0
    if held:
        failed = qr(held) or failed
    if failed:
        raise NumericError(f"TSQR of the factor failed (info={failed})")
    return r


_COL_MAJOR = 102  # LAPACKE's matrix_layout code for Fortran order
# CBLAS's codes for row-major order, the upper triangle and (no) transpose
_ROW_MAJOR, _UPPER, _NO_TRANS, _TRANS = 101, 121, 111, 112


class _OpenBLAS(NamedTuple):
    """Entry points of one bundled scipy-openblas library (``_openblas``)."""

    get_threads: Callable[[], int]
    set_threads: Callable[[int], None]
    dgeqrt: Callable[..., int]  # LAPACKE_dgeqrt_work
    dtpqrt: Callable[..., int]  # LAPACKE_dtpqrt_work
    dgejsv: Callable[..., int]  # LAPACKE_dgejsv_work
    dgesdd: Callable[..., int]  # LAPACKE_dgesdd_work
    dsyevd: Callable[..., int]  # LAPACKE_dsyevd_work
    dsyrk: Callable[..., None]  # cblas_dsyrk


# package: (library in <package>.libs/, symbol suffix, LAPACK integer);
# numpy's bundle is ILP64, scipy's LP64
_BUNDLES = {
    "numpy": ("libscipy_openblas64_*", "64_", ctypes.c_int64),
    "scipy": ("libscipy_openblas-*", "", ctypes.c_int32),
}


@cache
def _openblas(package: str) -> _OpenBLAS | None:
    """The thread-count functions, LAPACKE work routines and ``dsyrk`` of
    the scipy-openblas library that ``package`` ("numpy" or "scipy")
    bundles in ``<package>.libs/``, or None where the package, the library
    or a symbol is missing.  Resolved on first use; ``find_spec`` locates
    the package without importing it.

    The library is loaded with ``OPENBLAS_THREAD_TIMEOUT=4`` in the
    environment, unless the caller set the variable, whose value is then
    left as it is; the environment is restored right after the load.  That
    is OpenBLAS's floor: an idle worker sleeps after 2^4 cycles, where the
    default 2^28 (about 0.13 s at 2 GHz) has it spin a core between the
    parallel regions of a call and after it.  Only idle waiting changes,
    not the thread count or the work split, so results keep their bits.
    numpy's library is mapped by ``import numpy`` and scipy's by an import
    of ``scipy.linalg``; where it already was, the load returns that copy
    and its pool keeps the default timeout, with the same bits.  In a sweep
    scipy's library is first loaded here, by the first steep fit."""
    pattern, suffix, i = _BUNDLES[package]
    try:
        root = os.path.dirname(importlib.util.find_spec(package).origin)
        # the copy the package's extensions load: same file, same handle
        path = glob.glob(os.path.join(os.path.dirname(root), f"{package}.libs",
                                      pattern))[0]
        # OpenBLAS reads the variable once, as the library loads; the lock
        # keeps concurrent first loads from undoing each other's setting
        with _blas_lock:
            caller_timeout = "OPENBLAS_THREAD_TIMEOUT" in os.environ
            os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")
            try:
                lib = ctypes.CDLL(path)
            finally:
                if not caller_timeout:
                    del os.environ["OPENBLAS_THREAD_TIMEOUT"]
        blas = _OpenBLAS(*(getattr(lib, f"scipy_{name}{suffix}") for name in (
            "openblas_get_num_threads", "openblas_set_num_threads",
            "LAPACKE_dgeqrt_work", "LAPACKE_dtpqrt_work", "LAPACKE_dgejsv_work",
            "LAPACKE_dgesdd_work", "LAPACKE_dsyevd_work", "cblas_dsyrk")))
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
    # (layout, jobz, m, n, a, lda, s, u, ldu, vt, ldvt, work, lwork, iwork)
    blas.dgesdd.argtypes = [ctypes.c_int, char, i, i, ptr, i, ptr, ptr, i, ptr, i, ptr,
                            i, ptr]
    # (layout, jobz, uplo, n, a, lda, w, work, lwork, iwork, liwork)
    blas.dsyevd.argtypes = [ctypes.c_int, char, char, i, ptr, i, ptr, ptr, i, ptr, i]
    for routine in (blas.dgeqrt, blas.dtpqrt, blas.dgejsv, blas.dgesdd, blas.dsyevd):
        routine.restype = i
    # (order, uplo, trans, n, k, alpha, a, lda, beta, c, ldc)
    blas.dsyrk.argtypes = [*[ctypes.c_int] * 3, i, i, ctypes.c_double, ptr, i,
                           ctypes.c_double, ptr, i]
    blas.dsyrk.restype = None
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
    TSQR and values-only Jacobi SVDs take one thread.  scipy's bundled
    OpenBLAS, which runs only the Jacobi SVD with vectors, keeps its own
    count.
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
