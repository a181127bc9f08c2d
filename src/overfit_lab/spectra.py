"""Eigenvalue spectra with controlled decay.

A spectrum is the ordered diagonal of the population second-moment matrix of
the feature map: lambda_1 >= lambda_2 >= ... > 0.  Three parametric families
are provided,

    polynomial      lambda_k = k**(-1-a)
    exponential     lambda_k = exp(-a*k)
    linear_polylog  lambda_k = (k+1)**-1 * log(k+1)**-a

plus ``custom`` for explicitly supplied eigenvalues.  The linear-polylog
family is index-shifted by one so log(k+1) is positive from k = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidParameterError,
    InvariantViolationError,
    SpectrumTruncationError,
)

DECAY_KINDS = ("polynomial", "exponential", "linear_polylog", "custom")

# Smallest eigenvalue the generators will emit.  exp(-a*k) falls below this
# at k = floor(300*ln(10)/a); beyond that double precision holds nothing.
UNDERFLOW_FLOOR = 1e-300


@dataclass(frozen=True)
class Spectrum:
    """Non-increasing positive eigenvalues and the name of their family."""

    eigenvalues: np.ndarray
    kind: str

    def __post_init__(self):
        lam = np.asarray(self.eigenvalues, dtype=np.float64)
        lam.setflags(write=False)
        object.__setattr__(self, "eigenvalues", lam)
        if lam.ndim != 1 or lam.size < 1:
            raise InvariantViolationError("spectrum needs at least one eigenvalue")
        if not np.all(np.isfinite(lam)):
            raise InvariantViolationError("eigenvalues must be finite")
        if lam[-1] <= 0.0:
            raise InvariantViolationError("eigenvalues must be strictly positive")
        if np.any(np.diff(lam) > 0.0):
            raise InvariantViolationError("eigenvalues must be non-increasing")
        if self.kind not in DECAY_KINDS:
            raise InvalidParameterError(f"unknown spectrum kind {self.kind!r}")

    @property
    def size(self) -> int:
        return int(self.eigenvalues.size)

    def __len__(self) -> int:
        return self.size


def max_exponential_length(a: float) -> int:
    """Largest M for which exp(-a*M) stays at or above the underflow floor."""
    if a <= 0:
        raise InvalidParameterError("decay parameter must be positive")
    cap = -math.log(UNDERFLOW_FLOOR) / a
    if not math.isfinite(cap):  # a so small that the quotient overflows
        raise InvalidParameterError(f"decay parameter a={a} is too small to cap M")
    return int(math.floor(cap))


def make_spectrum(kind, a=1.0, M=None, eigenvalues=None) -> Spectrum:
    """Generate a spectrum of length ``M`` from one decay family.

    ``custom`` takes the eigenvalue list directly and validates ordering.
    Exponential spectra refuse lengths whose tail would underflow; see
    :func:`max_exponential_length` for the cap.
    """
    if kind == "custom":
        if eigenvalues is None:
            raise InvalidParameterError("custom spectrum needs explicit eigenvalues")
        return Spectrum(np.asarray(eigenvalues, dtype=np.float64), "custom")
    if M is None or M < 1:
        raise InvalidParameterError("M must be a positive integer")
    if a <= 0:
        raise InvalidParameterError("decay parameter must be positive")
    k = np.arange(1, M + 1, dtype=np.float64)
    if kind == "polynomial":
        lam = k ** (-1.0 - a)
    elif kind == "exponential":
        cap = max_exponential_length(a)
        if M > cap:
            raise SpectrumTruncationError(
                f"exponential spectrum with a={a} underflows past M={cap}; "
                f"requested M={M}"
            )
        lam = np.exp(-a * k)
    elif kind == "linear_polylog":
        lam = 1.0 / ((k + 1.0) * np.log(k + 1.0) ** a)
    else:
        raise InvalidParameterError(f"unknown spectrum kind {kind!r}")
    return Spectrum(lam, kind)


def theoretical_condition_ratio(s: Spectrum, N: int, regime: str) -> float:
    """Predicted condition-number scale: lambda_1/lambda_N (poly regime) or
    N*lambda_1/lambda_N (exp regime)."""
    if N < 1:
        raise InvalidParameterError("N must be at least 1")
    if N > s.size:
        raise IndexError(f"N={N} exceeds spectrum length {s.size}")
    base = float(s.eigenvalues[0] / s.eigenvalues[N - 1])
    if regime == "poly":
        return base
    if regime == "exp":
        return base * N
    raise InvalidParameterError(f"unknown regime {regime!r}, expected 'poly' or 'exp'")
