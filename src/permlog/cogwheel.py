"""Cyclic update operators in standard band-plus-corner form and their exact logarithms.

A cogwheel is a system that hops deterministically through N states, one step
per tick of length T. Its update operator in the standard basis is the cyclic
shift with one phased entry per column: column m carries e^{i*phi_m} at row
(m+1) mod N. Everything here is 0-based: energy labels run n = 0..N-1 with

    E_n = (2*pi*n - sum(phases)) / (N*T),

so for zero phases the eigenvalue of the shift on eigenvector n is e^{-i*E_n*T}
and the energies fill [0, 2*pi/T) on a uniform grid. The Hamiltonian returned
by :func:`cogwheel_hamiltonian` is the unique self-adjoint logarithm on that
branch: expm(-i*H*T) reproduces the zero-phase shift exactly.
"""

from __future__ import annotations

import numpy as np

from .linalg import DEFAULT_EQ_TOL, dagger, max_abs_diff
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


def _check_size(n: int) -> None:
    if n < 1:
        raise ValueError("size must be a positive integer")


def _check_timestep(t: float) -> None:
    if not t > 0:
        raise ValueError("timestep must be positive")
    if t == np.inf:
        raise ValueError("timestep must be finite")


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
    _check_timestep(timestep)
    ph = _phase_vector(n, phases)
    with np.errstate(over="ignore"):  # refused here, not warned about
        energies = (2.0 * np.pi * np.arange(n) - ph.sum()) / (n * timestep)
        if not (np.isfinite(n * timestep) and np.isfinite(energies).all()):
            raise ValueError(f"timestep {float(timestep):g} is out of range: the energies cannot be represented")
    return energies


def eigenphases(n: int) -> np.ndarray:
    """Phase table a[n, m] = (2*pi/N) * ((n*m) mod N), reduced to [0, 2*pi).

    Row 0 and column 0 vanish, the table is symmetric, and each row advances by
    E_n*T mod 2*pi from one column to the next; row n collects the phases of
    eigenvector n of the zero-phase standard form.
    """
    _check_size(n)
    k = np.arange(n)
    return (2.0 * np.pi / n) * (np.outer(k, k) % n)


def diagonalizer(n: int) -> np.ndarray:
    """Symmetric unitary D with D[n, m] = e^{i*a_nm} / sqrt(N).

    Column n (equivalently row n) is the n-th eigenvector of the zero-phase
    standard form U, so dagger(D) @ U @ D = diag(e^{-i*E_n*T}) and the
    Hamiltonian below is D @ diag(E_n) @ dagger(D).
    """
    return np.exp(1j * eigenphases(n)) / np.sqrt(n)


def cogwheel_hamiltonian(n: int, timestep: float = 1.0) -> np.ndarray:
    """Self-adjoint H with expm(-i*H*T) equal to the zero-phase standard form.

    H = D @ diag(E_n) @ dagger(D). In closed form the entries are circulant,
    constant along lines parallel to the diagonal:

        H[n, n] = pi*(N-1)/(N*T)
        H[n, m] = (pi/(N*T)) * (-1 - i*cot(pi*(n-m)/N))   for n != m

    (the cot argument is never a multiple of pi, so the off-diagonal form is
    always finite).
    """
    _check_timestep(timestep)
    d = diagonalizer(n)
    h = (d * cogwheel_energies(n, timestep)) @ dagger(d)
    return 0.5 * (h + dagger(h))  # exact self-adjointness; removes rounding asymmetry


def polynomial_coefficients(n: int, timestep: float = 1.0) -> np.ndarray:
    """Coefficients h_0..h_{N-1} with cogwheel_hamiltonian = sum_k h_k U^k.

    They are the inverse discrete Fourier transform of the energy vector,
    h_k = (1/N) * sum_n E_n e^{i*E_n*T*k}, and they sum to zero. Raises ValueError if
    a coefficient is not a finite float: finite energies near the top of the float
    range can sum past it.
    """
    energies = cogwheel_energies(n, timestep)
    with np.errstate(over="ignore", invalid="ignore"):  # refused here, not warned about
        coeffs = np.fft.ifft(energies)
    if not np.isfinite(coeffs).all():
        raise ValueError(
            f"timestep {float(timestep):g} is out of range: the polynomial coefficients cannot be represented"
        )
    return coeffs
