import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from permlog.linalg import (
    DimensionMismatch,
    dagger,
    expm,
    identity,
    is_permutation_matrix,
    max_abs_diff,
)
from permlog.cogwheel import build_standard_form
from permlog.spins import exchange_permutation

from oracles import commutator

EQ_TOL = 1e-10
CLOSED_FORM_TOL = 1e-12


@st.composite
def square_matrices(draw, max_dim=5, max_magnitude=1.0):
    n = draw(st.integers(1, max_dim))
    return draw(
        arrays(
            np.complex128,
            (n, n),
            elements=st.complex_numbers(
                max_magnitude=max_magnitude, allow_nan=False, allow_infinity=False
            ),
        )
    )


@st.composite
def matrix_pairs(draw, max_dim=4):
    n = draw(st.integers(1, max_dim))
    elems = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)
    a = draw(arrays(np.complex128, (n, n), elements=elems))
    b = draw(arrays(np.complex128, (n, n), elements=elems))
    return a, b


def test_multiply_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        commutator(identity(2), identity(3))
    with pytest.raises(DimensionMismatch):
        max_abs_diff(identity(2), identity(3))


def test_rejects_nonsquare_and_nonfinite():
    with pytest.raises(DimensionMismatch):
        dagger(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        expm(np.array([[np.nan, 0], [0, 0]]))


# --- dagger -----------------------------------------------------------------


def test_dagger_identity():
    assert max_abs_diff(dagger(identity(3)), identity(3)) == 0.0


def test_dagger_inverts_standard_form():
    u = build_standard_form(4)
    # brute-force check that the adjoint is the inverse, and equals U^3
    assert max_abs_diff(u @ dagger(u), identity(4)) == 0.0
    assert max_abs_diff(dagger(u), np.linalg.matrix_power(u, 3)) == 0.0


def test_dagger_conjugates():
    assert max_abs_diff(dagger(1j * identity(2)), -1j * identity(2)) == 0.0


@given(square_matrices())
@settings(max_examples=60, deadline=None)
def test_dagger_is_an_involution(a):
    assert np.array_equal(dagger(dagger(a)), a)


# --- commutator -------------------------------------------------------------


def test_commutator_with_identity_vanishes():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert max_abs_diff(commutator(identity(4), a), np.zeros((4, 4))) == 0.0


def test_disjoint_exchanges_commute():
    p12 = exchange_permutation(4, 1, 2).matrix()
    p34 = exchange_permutation(4, 3, 4).matrix()
    assert max_abs_diff(commutator(p12, p34), np.zeros((16, 16))) == 0.0


def test_overlapping_exchanges_do_not_commute():
    p12 = exchange_permutation(3, 1, 2).matrix()
    p23 = exchange_permutation(3, 2, 3).matrix()
    assert max_abs_diff(commutator(p12, p23), np.zeros((8, 8))) > 0.5


@given(matrix_pairs())
@settings(max_examples=60, deadline=None)
def test_commutator_antisymmetry(pair):
    a, b = pair
    assert np.array_equal(commutator(a, b), -commutator(b, a))


# --- expm -------------------------------------------------------------------


def test_expm_zero_is_identity():
    assert max_abs_diff(expm(np.zeros((3, 3))), identity(3)) == 0.0


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_expm_matches_scipy_oracle(seed):
    rng = np.random.default_rng(seed)
    n = rng.integers(2, 9)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a *= 2.0 * np.pi / np.abs(a).sum(axis=1).max()
    ours = expm(a)
    reference = scipy.linalg.expm(a)
    assert max_abs_diff(ours, reference) <= 1e-12 * max(1.0, np.abs(reference).max())


@pytest.mark.parametrize("seed", [10, 11, 12])
def test_expm_inverse_pairs(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    a *= 2.0 * np.pi / np.abs(a).sum(axis=1).max()
    assert max_abs_diff(expm(a) @ expm(-a), identity(5)) <= 1e-10


def test_expm_closed_form_for_involutions():
    p = exchange_permutation(2, 1, 2).matrix()
    expected = np.cos(0.7) * identity(4) - 1j * np.sin(0.7) * p
    assert max_abs_diff(expm(-0.7j * p), expected) <= CLOSED_FORM_TOL


# --- is_permutation_matrix ---------------------------------------------------


def test_permutation_matrix_detection():
    assert is_permutation_matrix(identity(4), EQ_TOL)
    assert is_permutation_matrix(build_standard_form(4), EQ_TOL)
    phases = [0.3, -1.2, 2.0, 0.0]
    assert is_permutation_matrix(build_standard_form(4, phases), EQ_TOL)
    hadamard = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert not is_permutation_matrix(hadamard, EQ_TOL)
    assert not is_permutation_matrix(0.5 * identity(2), EQ_TOL)
    assert not is_permutation_matrix(np.zeros((2, 2)), EQ_TOL)
