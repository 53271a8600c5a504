"""Dense complex matrix arithmetic: adjoints, entrywise differences, exponentials.

All routines are pure functions over plain numpy arrays; nothing here calls an
eigensolver. The exponential is scaling-and-squaring on a truncated series,
which is plenty for the operator norms this toolkit produces (at most a few
times 2*pi).
"""

from __future__ import annotations

import numpy as np

DEFAULT_EQ_TOL = 1e-10
DEFAULT_UNITARITY_TOL = 1e-12

_SCALE_TARGET = 0.5    # halve until the inf-norm drops below this
_TAYLOR_CUTOFF = 1e-18
_MAX_TAYLOR_TERMS = 120


class DimensionMismatch(ValueError):
    """Operands are not square matrices of one common dimension."""


class InvolutionViolation(ValueError):
    """A matrix expected to square to the identity does not."""


class NonUnitaryError(ValueError):
    """A matrix expected to be unitary is not, within tolerance."""


def as_matrix(a) -> np.ndarray:
    """Coerce to a square complex matrix with finite entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex)


def dagger(a) -> np.ndarray:
    """Conjugate transpose."""
    return as_matrix(a).conj().T


def max_abs_diff(a, b) -> float:
    """Largest entrywise absolute difference."""
    a, b = as_matrix(a), as_matrix(b)
    if a.shape != b.shape:
        raise DimensionMismatch(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    return float(np.abs(a - b).max())


def expm(a) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring with a truncated Taylor series.

    The argument is halved until its inf-norm is below 0.5, the series is summed
    until the next term falls under 1e-18 entrywise, and the result is squared
    back. Relative accuracy is well below 1e-12 for norms up to a few times 2*pi.
    """
    a = as_matrix(a)
    dim = a.shape[0]
    norm = float(np.abs(a).sum(axis=1).max())
    squarings = 0
    if norm > _SCALE_TARGET:
        squarings = int(np.ceil(np.log2(norm / _SCALE_TARGET)))
    scaled = a / (2.0 ** squarings)
    result = identity(dim)
    term = identity(dim)
    for k in range(1, _MAX_TAYLOR_TERMS + 1):
        term = (term @ scaled) / k
        result += term
        if float(np.abs(term).max()) < _TAYLOR_CUTOFF:
            break
    else:  # pragma: no cover - unreachable with norm <= 0.5
        raise RuntimeError("series failed to converge")
    for _ in range(squarings):
        result = result @ result
    return result


def is_permutation_matrix(a, tol: float = DEFAULT_EQ_TOL) -> bool:
    """True iff every row and column holds exactly one unit-magnitude entry (within tol).

    Phased permutations count: the single large entry per line may carry any phase.
    """
    a = as_matrix(a)
    mag = np.abs(a)
    big = mag > tol
    if not np.all(big.sum(axis=0) == 1) or not np.all(big.sum(axis=1) == 1):
        return False
    return bool(np.all(np.abs(mag[big] - 1.0) <= tol))
