import warnings

import numpy as np
import pytest

from permlog.cogwheel import (
    build_standard_form,
    cogwheel_energies,
    cogwheel_hamiltonian,
    diagonalizer,
    polynomial_coefficients,
    shift_permutation,
    verify_power_identity,
)
from permlog.linalg import DEFAULT_UNITARITY_TOL, dagger, expm, is_permutation_matrix, max_abs_diff
from oracles import dense_cogwheel_hamiltonian, ifft_polynomial_coefficients

C4 = (-1 + 1j) / 3
D4 = -1.0 / 3.0
PREFACTOR4 = 3 * np.pi / 4


def closed_form_hamiltonian(n, t=1.0):
    """Independent oracle: the circulant cotangent closed form, entry by entry."""
    h = np.empty((n, n), dtype=complex)
    for r in range(n):
        for c in range(n):
            if r == c:
                h[r, c] = np.pi * (n - 1) / (n * t)
            else:
                h[r, c] = (np.pi / (n * t)) * (-1 - 1j / np.tan(np.pi * (r - c) / n))
    return h


def dft_coefficients(n, t=1.0):
    """Independent oracle: the coefficient sum written out longhand."""
    energies = 2.0 * np.pi * np.arange(n) / (n * t)
    return np.array(
        [np.sum(energies * np.exp(1j * energies * t * k)) / n for k in range(n)]
    )


# --- standard form ----------------------------------------------------------


def test_standard_form_one_state():
    assert max_abs_diff(build_standard_form(1), [[1.0]]) == 0.0


def test_standard_form_four_states():
    u = build_standard_form(4)
    expected = np.zeros((4, 4))
    expected[0, 3] = 1.0  # corner
    for m in range(3):
        expected[m + 1, m] = 1.0  # subdiagonal
    assert max_abs_diff(u, expected) == 0.0


def test_standard_form_two_states_is_swap():
    assert max_abs_diff(build_standard_form(2), [[0, 1], [1, 0]]) == 0.0


def test_standard_form_places_phases_by_column():
    phases = [0.3, -1.2, 2.0]
    u = build_standard_form(3, phases)
    for col, phi in enumerate(phases):
        assert u[(col + 1) % 3, col] == pytest.approx(np.exp(1j * phi))
    assert max_abs_diff(u @ dagger(u), np.eye(3)) <= DEFAULT_UNITARITY_TOL
    assert is_permutation_matrix(u, 1e-10)


def test_standard_form_validates_input():
    with pytest.raises(ValueError):
        build_standard_form(0)
    with pytest.raises(ValueError, match="^size must be a positive integer$"):
        shift_permutation(2.5)
    with pytest.raises(ValueError):
        build_standard_form(3, [0.0, 0.0])


@pytest.mark.parametrize(
    "use", [build_standard_form, verify_power_identity, lambda n, phases: cogwheel_energies(n, 1.0, phases)]
)
@pytest.mark.parametrize("phases", [[1e308, 1e308], [np.inf, -np.inf], [np.nan, 0.0]])
def test_phases_whose_sum_is_not_finite_are_refused_without_a_warning(use, phases):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^phases and their sum must be finite$"):
            use(2, phases)


def test_standard_form_matches_shift_permutation():
    for n in (1, 2, 5):
        assert max_abs_diff(build_standard_form(n), shift_permutation(n).matrix()) == 0.0


# --- power identity ---------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 13))
def test_power_identity_zero_phases(n):
    assert verify_power_identity(n)
    u = build_standard_form(n)
    assert max_abs_diff(u @ dagger(u), np.eye(n)) <= DEFAULT_UNITARITY_TOL


def test_power_identity_equal_phases():
    phases = [np.pi / 3] * 3
    u = build_standard_form(3, phases)
    cube = np.linalg.matrix_power(u, 3)
    assert max_abs_diff(cube, -np.eye(3)) <= 1e-14  # e^{i*pi} = -1
    assert verify_power_identity(3, phases)


def test_power_identity_random_phases():
    rng = np.random.default_rng(3)
    phases = rng.uniform(-np.pi, np.pi, size=6)
    assert verify_power_identity(6, phases)


def test_power_identity_trivial_case():
    assert verify_power_identity(1)


# --- energies ---------------------------------------------------------------


def test_energies_four_states():
    spec = cogwheel_energies(4, 1.0)
    assert np.allclose(spec, [0.0, np.pi / 2, np.pi, 3 * np.pi / 2], atol=1e-15)


def test_energies_two_states():
    assert np.allclose(cogwheel_energies(2, 1.0), [0.0, np.pi], atol=1e-15)


def test_energies_one_state():
    assert cogwheel_energies(1, 1.0) == pytest.approx([0.0])


def test_energies_scale_with_timestep_and_phases():
    spec = cogwheel_energies(4, 2.0, [0.1, 0.2, 0.3, 0.4])
    expected = (2 * np.pi * np.arange(4) - 1.0) / 8.0
    assert np.allclose(spec, expected, atol=1e-15)


def test_energies_reject_bad_timestep():
    with pytest.raises(ValueError):
        cogwheel_energies(4, 0.0)
    with pytest.raises(ValueError):
        cogwheel_energies(4, -1.0)


@pytest.mark.parametrize("n", range(2, 13))
def test_energy_spacing_is_uniform(n):
    t = 0.7
    e = cogwheel_energies(n, t)
    assert np.allclose(np.diff(e), 2 * np.pi / (n * t), atol=1e-12)


# --- diagonalizer -----------------------------------------------------------


def test_diagonalizer_one_state():
    assert max_abs_diff(diagonalizer(1), [[1.0]]) == 0.0


def test_diagonalizer_two_states():
    expected = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert max_abs_diff(diagonalizer(2), expected) <= 1e-15


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8])
def test_diagonalizer_phase_border_is_zero(n):
    a = np.angle(diagonalizer(n))
    assert np.all(a[0, :] == 0.0)
    assert np.all(a[:, 0] == 0.0)


def test_diagonalizer_values_four_states():
    d = 2 * diagonalizer(4)
    assert d[1, 1] == pytest.approx(1j)  # phase pi/2
    assert d[1, 2] == pytest.approx(-1.0)  # phase pi
    assert d[2, 2] == 1.0  # phase 2*pi, reduced to 0


@pytest.mark.parametrize("n", range(1, 9))
def test_diagonalizer_symmetry(n):
    d = diagonalizer(n)
    assert np.array_equal(d, d.T)


@pytest.mark.parametrize("n", [2, 3, 5, 7])
def test_diagonalizer_phase_recursion(n):
    # each row advances by its energy per column, modulo a full turn
    d = diagonalizer(n)
    e = cogwheel_energies(n, 1.0)
    for row in range(n):
        for col in range(n - 1):
            assert d[row, col] * np.exp(1j * e[row]) == pytest.approx(d[row, col + 1], abs=1e-12)


@pytest.mark.parametrize("n", range(1, 13))
def test_diagonalizer_unitary(n):
    d = diagonalizer(n)
    assert max_abs_diff(d @ dagger(d), np.eye(n)) <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 6, 8])
def test_diagonalizer_diagonalizes_standard_form(n):
    # brute-force conjugation against the eigenvalue grid e^{-i E_n}
    d = diagonalizer(n)
    u = build_standard_form(n)
    lam = np.diag(np.exp(-1j * cogwheel_energies(n, 1.0)))
    assert max_abs_diff(dagger(d) @ u @ d, lam) <= 1e-12


def test_diagonalizer_columns_are_eigenvectors():
    n = 5
    d = diagonalizer(n)
    u = build_standard_form(n)
    e = cogwheel_energies(n, 1.0)
    for k in range(n):
        assert np.allclose(u @ d[:, k], np.exp(-1j * e[k]) * d[:, k], atol=1e-12)


# --- hamiltonian ------------------------------------------------------------


def test_hamiltonian_one_state():
    assert max_abs_diff(cogwheel_hamiltonian(1), [[0.0]]) == 0.0


def test_hamiltonian_two_states():
    expected = (np.pi / 2) * np.array([[1, -1], [-1, 1]])
    assert max_abs_diff(cogwheel_hamiltonian(2), expected) <= 1e-12


def test_hamiltonian_four_states_exact_constants():
    h = cogwheel_hamiltonian(4, 1.0)
    first_column = [1.0, np.conj(C4), D4, C4]
    expected = PREFACTOR4 * np.array(
        [[first_column[(r - c) % 4] for c in range(4)] for r in range(4)]
    )
    assert max_abs_diff(h, expected) <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 10])
@pytest.mark.parametrize("t", [1.0, 0.5])
def test_hamiltonian_matches_cotangent_closed_form(n, t):
    assert max_abs_diff(cogwheel_hamiltonian(n, t), closed_form_hamiltonian(n, t)) <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8])
def test_hamiltonian_self_adjoint_and_circulant(n):
    h = cogwheel_hamiltonian(n)
    assert max_abs_diff(h, dagger(h)) <= 1e-12
    assert np.allclose(np.diag(h), np.pi * (n - 1) / n, atol=1e-12)
    for r in range(n):
        for c in range(n):
            assert h[r, c] == pytest.approx(h[(r + 1) % n, (c + 1) % n], abs=1e-12)


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("t", [1.0, 0.5])
def test_logarithm_round_trip(n, t):
    h = cogwheel_hamiltonian(n, t)
    u = build_standard_form(n)
    assert max_abs_diff(expm(-1j * h * t), u) <= 1e-10


def test_hamiltonian_rejects_bad_timestep():
    with pytest.raises(ValueError):
        cogwheel_hamiltonian(4, 0.0)


# --- polynomial coefficients -------------------------------------------------


def test_coefficients_one_state():
    assert polynomial_coefficients(1) == pytest.approx([0.0])


def test_coefficients_two_states():
    assert np.allclose(polynomial_coefficients(2), (np.pi / 2) * np.array([1, -1]), atol=1e-14)


def test_coefficients_four_states_exact_constants():
    coeffs = polynomial_coefficients(4)
    expected = PREFACTOR4 * np.array([1.0, np.conj(C4), D4, C4])
    assert np.allclose(coeffs, expected, atol=1e-14)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 12])
def test_coefficients_match_longhand_sum(n):
    assert np.allclose(polynomial_coefficients(n, 0.7), dft_coefficients(n, 0.7), atol=1e-12)


@pytest.mark.parametrize("n", range(1, 9))
def test_coefficients_sum_to_zero(n):
    assert abs(polynomial_coefficients(n).sum()) <= 1e-12


@pytest.mark.parametrize("n", range(1, 9))
def test_coefficients_reconstruct_hamiltonian(n):
    u = build_standard_form(n)
    coeffs = polynomial_coefficients(n)
    rebuilt = sum(coeffs[k] * np.linalg.matrix_power(u, k) for k in range(n))
    assert max_abs_diff(rebuilt, cogwheel_hamiltonian(n)) <= 1e-10


ORACLE_SIZES = [*range(1, 65), 100, 256, 1024]
ORACLE_TIMESTEPS = [1.0, 0.37, 2.5]


@pytest.mark.parametrize("n", ORACLE_SIZES)
def test_closed_forms_match_the_dense_and_ifft_oracles(n):
    for t in ORACLE_TIMESTEPS:
        h, coeffs = cogwheel_hamiltonian(n, t), polynomial_coefficients(n, t)
        assert np.abs(h - dense_cogwheel_hamiltonian(n, t)).max() * t <= 1e-14
        assert np.abs(coeffs - ifft_polynomial_coefficients(n, t)).max() * t <= 1e-14
        assert np.array_equal(h, h.conj().T)  # exactly self-adjoint, with no symmetrisation
        assert abs(coeffs.sum()) * t <= 1e-14


def test_zero_sum_identity_for_four_state_constants():
    assert abs(1.0 + C4 + np.conj(C4) + D4) <= 1e-15
