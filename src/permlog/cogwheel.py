"""Cyclic update operators in standard band-plus-corner form and their exact logarithms.

A cogwheel is a system that hops deterministically through N states, one step
per tick of length T. Its update operator in the standard basis is the cyclic
shift with one phased entry per column: column m carries e^{i*phi_m} at row
(m+1) mod N. Everything here is 0-based: energy labels run n = 0..N-1 with

    E_n = (2*pi*n - sum(phases)) / (N*T),

so for zero phases the eigenvalue of the shift on eigenvector n is e^{-i*E_n*T}
and the energies fill [0, 2*pi/T) on a uniform grid. The Hamiltonian returned
by :func:`cogwheel_hamiltonian` is the unique self-adjoint logarithm on that
branch: expm(-i*H*T) reproduces the zero-phase shift exactly. It is a polynomial
sum_k h_k U^k in the shift, so the circulant H[n, m] = h[(n - m) mod N] of the
inverse DFT of the energies, which has the closed form (every h_k finite)

    h_0 = pi*(N-1)/(N*T),   h_k = (pi/(N*T)) * (-1 - i*cot(pi*k/N))   for 0 < k < N.
"""

from __future__ import annotations

import numpy as np

from .linalg import DEFAULT_EQ_TOL, max_abs_diff
from .permutation import Permutation


def _phase_vector(n: int, phases) -> np.ndarray:
    if phases is None:
        return np.zeros(n)
    ph = np.asarray(phases, dtype=float)
    if ph.shape != (n,):
        raise ValueError(f"expected {n} phases, got shape {ph.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # refused here, not warned about
        if not np.isfinite(ph.sum()):  # so is every sum with a phase that is not finite
            raise ValueError("phases and their sum must be finite")
    return ph


def _check_size(n: int, name: str = "size") -> None:
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise ValueError(f"{name} must be a positive integer")


def _check_positive(value: float, name: str = "timestep") -> None:
    if not value > 0:  # NaN and -inf too
        raise ValueError(f"{name} must be positive")
    if value == np.inf:
        raise ValueError(f"{name} must be finite")


def shift_permutation(n: int) -> Permutation:
    """The abstract cogwheel step m -> (m+1) mod n."""
    _check_size(n)
    return Permutation((np.arange(n) + 1) % n)


def build_standard_form(n: int, phases=None) -> np.ndarray:
    """Standard-form unitary: column m holds e^{i*phases[m]} at row (m+1) mod n.

    For zero phases this is the plain cyclic shift (subdiagonal ones plus a one
    in the top-right corner).
    """
    _check_size(n)
    ph = _phase_vector(n, phases)
    u = np.zeros((n, n), dtype=complex)
    cols = np.arange(n)
    u[(cols + 1) % n, cols] = np.exp(1j * ph)
    return u


def verify_power_identity(n: int, phases=None, tol: float = DEFAULT_EQ_TOL) -> bool:
    """Check U^n = e^{i*sum(phases)} * I for the standard form."""
    ph = _phase_vector(n, phases)
    u = build_standard_form(n, ph)
    target = np.exp(1j * ph.sum()) * np.eye(n)
    return max_abs_diff(np.linalg.matrix_power(u, n), target) <= tol


def cogwheel_energies(n: int, timestep: float = 1.0, phases=None) -> np.ndarray:
    """E_n = (2*pi*n - sum(phases)) / (N*T) for n = 0..N-1; ascending for zero phases.

    Raises ValueError if N*T or an energy is not a finite float: a tiny T makes the
    energies overflow, and an N*T past the float range would flush every one to 0.
    """
    _check_size(n)
    _check_positive(timestep)
    ph = _phase_vector(n, phases)
    with np.errstate(over="ignore"):  # refused here, not warned about
        energies = (2.0 * np.pi * np.arange(n) - ph.sum()) / (n * timestep)
        if not (np.isfinite(n * timestep) and np.isfinite(energies).all()):
            raise ValueError(f"timestep {float(timestep):g} is out of range: the energies cannot be represented")
    return energies


def diagonalizer(n: int) -> np.ndarray:
    """Symmetric unitary D with D[n, m] = e^{i*a_nm} / sqrt(N), a_nm = (2*pi/N) * ((n*m) mod N) in [0, 2*pi).

    Row n's phase vanishes at column 0 and advances by E_n*T mod 2*pi per column: row n is
    the n-th eigenvector of the zero-phase standard form U, so dagger(D) @ U @ D = diag(e^{-i*E_n*T}).
    """
    _check_size(n)
    k = np.arange(n)
    return np.exp(1j * ((2.0 * np.pi / n) * (np.outer(k, k) % n))) / np.sqrt(n)


def cogwheel_hamiltonian(n: int, timestep: float = 1.0) -> np.ndarray:
    """Self-adjoint H with expm(-i*H*T) equal to the zero-phase standard form.

    The circulant H[n, m] = h[(n - m) mod N] of the polynomial coefficients; h[N-k] = conj(h[k]) exactly.
    """
    k = np.arange(n)
    return polynomial_coefficients(n, timestep)[(k[:, None] - k) % n]


def polynomial_coefficients(n: int, timestep: float = 1.0) -> np.ndarray:
    """Coefficients h_0..h_{N-1} with cogwheel_hamiltonian = sum_k h_k U^k; they sum to zero.

    h_k for k < N/2 follow the closed form above, h_{N-k} = conj(h_k) exactly, and h_{N/2} = -pi/(N*T). For
    N >= 2, |h_k| <= pi/(2*T) is below the largest energy, so every accepted timestep gives finite values.
    """
    cogwheel_energies(n, timestep)  # refuses what cannot be represented
    if n == 1:  # h_0 = 0; pi/T alone can overflow
        return np.zeros(1, dtype=complex)
    scale = np.pi / (n * timestep)
    k = np.arange(1, (n + 1) // 2)
    h = np.full(n, -scale, dtype=complex)  # the entry left at -scale is h_{N/2}, for even N
    h[0] = np.pi * (n - 1) / (n * timestep)
    h[k] = -scale * (1 + 1j / np.tan(np.pi * k / n))
    h[n - k] = h[k].conj()
    return h
