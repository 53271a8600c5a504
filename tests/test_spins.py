import itertools

import numpy as np
import pytest

from permlog.linalg import max_abs_diff
from permlog.permutation import Permutation
from permlog.spins import (
    FOUR_SPIN_LABEL_STRINGS,
    PAULI_I,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    SpinConfiguration,
    exchange_pauli,
    exchange_permutation,
    four_spin_configuration,
    four_spin_state_label,
    number_down,
    number_up,
    spinflip,
)


def kron_chain(ops):
    out = ops[0]
    for op in ops[1:]:
        out = np.kron(out, op)
    return out


# --- configurations ----------------------------------------------------------


def test_configuration_string_round_trip():
    for text in ("uudu", "dddd", "uu", "ududud"):
        cfg = SpinConfiguration.from_string(text)
        assert str(cfg) == text
        assert cfg.n_spins == len(text)


def test_configuration_indices():
    assert SpinConfiguration.from_string("uuuu").index == 0
    assert SpinConfiguration.from_string("dddd").index == 15
    assert SpinConfiguration.from_string("uudu").index == 2  # spin 3 down -> bit 1
    assert SpinConfiguration.from_string("duuu").index == 8  # spin 1 is the MSB


def test_configuration_validation():
    with pytest.raises(ValueError):
        SpinConfiguration.from_string("uuxd")
    with pytest.raises(ValueError):
        SpinConfiguration(n_spins=1, bits=0)
    with pytest.raises(ValueError):
        SpinConfiguration(n_spins=13, bits=0)
    with pytest.raises(ValueError):
        SpinConfiguration(n_spins=2, bits=4)


# --- exchange operators -------------------------------------------------------


def test_exchange_swaps_two_spins():
    p = exchange_permutation(2, 1, 2)
    ud = SpinConfiguration.from_string("ud").index
    du = SpinConfiguration.from_string("du").index
    uu = SpinConfiguration.from_string("uu").index
    dd = SpinConfiguration.from_string("dd").index
    assert p(ud) == du and p(du) == ud
    assert p(uu) == uu and p(dd) == dd


def test_exchange_is_symmetric_in_labels():
    assert exchange_permutation(5, 2, 4) == exchange_permutation(5, 4, 2)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_exchange_involution_and_permutation_matrix(n):
    for i, j in itertools.combinations(range(1, n + 1), 2):
        p = exchange_permutation(n, i, j)
        assert (p * p).is_identity()
        m = p.matrix()
        assert np.array_equal(m @ m, np.eye(1 << n, dtype=int))
        assert np.all(m.sum(axis=0) == 1) and np.all(m.sum(axis=1) == 1)


def test_exchange_validates_labels():
    with pytest.raises(ValueError):
        exchange_permutation(4, 0, 2)
    with pytest.raises(ValueError):
        exchange_permutation(4, 1, 5)
    with pytest.raises(ValueError):
        exchange_permutation(4, 2, 2)


def test_three_spin_cyclic_shift():
    # applying P23 first and then P12 sends |abc> to |cab>
    p = exchange_permutation(3, 1, 2) * exchange_permutation(3, 2, 3)
    for text in ("".join(bits) for bits in itertools.product("ud", repeat=3)):
        a, b, c = text
        src = SpinConfiguration.from_string(text).index
        dst = SpinConfiguration.from_string(c + a + b).index
        assert p(src) == dst


# --- Pauli-built exchange ------------------------------------------------------


def test_exchange_pauli_two_spins_explicit():
    expected = 0.5 * (
        kron_chain([PAULI_X, PAULI_X])
        + kron_chain([PAULI_Y, PAULI_Y])
        + kron_chain([PAULI_Z, PAULI_Z])
        + np.eye(4)
    )
    swap = np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    )
    assert max_abs_diff(expected, swap) == 0.0
    assert max_abs_diff(exchange_pauli(2, 1, 2), swap) == 0.0
    assert np.trace(exchange_pauli(2, 1, 2)) == pytest.approx(2.0)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_exchange_pauli_equals_permutation(n):
    for i, j in itertools.combinations(range(1, n + 1), 2):
        dense = exchange_pauli(n, i, j)
        exact = exchange_permutation(n, i, j).matrix()
        assert max_abs_diff(dense, exact) <= 1e-14


# --- number operators -----------------------------------------------------------


def test_number_up_counts_up_spins():
    nu = number_up(4)
    assert nu[0] == 4  # all up
    idx = SpinConfiguration.from_string("uduu").index
    assert nu[idx] == 3


def test_number_down_complements():
    for n in (2, 3, 5):
        assert np.array_equal(number_down(n), n - number_up(n))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_number_up_matches_pauli_formula(n):
    z_sum = sum(
        kron_chain([PAULI_Z if site == k else PAULI_I for site in range(1, n + 1)])
        for k in range(1, n + 1)
    )
    formula = (n / 2) * np.eye(1 << n) + z_sum / 2
    assert max_abs_diff(np.diag(number_up(n)).astype(complex), formula) == 0.0


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_conservation_laws_exact(n):
    nu = np.diag(number_up(n))
    nd = np.diag(number_down(n))
    for i, j in itertools.combinations(range(1, n + 1), 2):
        p = exchange_permutation(n, i, j).matrix()
        assert np.array_equal(nu @ p, p @ nu)
        assert np.array_equal(nd @ p, p @ nd)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_spinflip_commutes_with_exchanges(n):
    c = spinflip(n)
    for i, j in itertools.combinations(range(1, n + 1), 2):
        p = exchange_permutation(n, i, j)
        assert c * p == p * c


@pytest.mark.parametrize("n", [3, 4, 5])
def test_overlapping_exchanges_never_commute(n):
    for i, j, k in itertools.permutations(range(1, n + 1), 3):
        p, q = exchange_permutation(n, i, j), exchange_permutation(n, j, k)
        assert p * q != q * p


# --- spinflip --------------------------------------------------------------------


def test_spinflip_examples():
    c = spinflip(4)
    assert c(SpinConfiguration.from_string("uuuu").index) == SpinConfiguration.from_string("dddd").index
    assert c(SpinConfiguration.from_string("uuud").index) == SpinConfiguration.from_string("dddu").index


@pytest.mark.parametrize("n", [1, 2, 5, 12])
def test_spinflip_involution(n):
    c = spinflip(n)
    assert (c * c).is_identity()


# --- four-spin labels --------------------------------------------------------------


def test_label_examples():
    assert four_spin_state_label(SpinConfiguration.from_string("uuuu")) == 1
    assert four_spin_state_label(SpinConfiguration.from_string("duud")) == 10
    assert four_spin_state_label(SpinConfiguration.from_string("dddd")) == 16
    assert four_spin_state_label(SpinConfiguration.from_string("uudu")) == 5


def test_labels_cover_all_sixteen_states():
    seen = {four_spin_state_label(SpinConfiguration(4, x)) for x in range(16)}
    assert seen == set(range(1, 17))


def test_label_round_trip():
    for label in range(1, 17):
        assert four_spin_state_label(four_spin_configuration(label)) == label


def test_spinflip_pairs_up_labels():
    # labels 12..15 are the flips of 2..5; 16 flips 1; 10 flips 11; 6..9 close among themselves
    pairs = {1: 16, 2: 12, 3: 13, 4: 14, 5: 15, 10: 11, 6: 8, 7: 9}
    flip = spinflip(4)
    for a, b in pairs.items():
        flipped = SpinConfiguration(4, flip(four_spin_configuration(a).index))
        assert four_spin_state_label(flipped) == b


def test_labels_need_four_spins():
    with pytest.raises(ValueError):
        four_spin_state_label(SpinConfiguration.from_string("uud"))
    with pytest.raises(ValueError):
        four_spin_configuration(17)


def test_label_table_is_consistent():
    assert len(FOUR_SPIN_LABEL_STRINGS) == 16
    assert len({s for s in FOUR_SPIN_LABEL_STRINGS.values()}) == 16


# --- permutation class basics -------------------------------------------------------


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))
    with pytest.raises(ValueError):
        Permutation(())


def test_permutation_cycles_and_order():
    p = Permutation((1, 2, 0, 4, 3, 5))
    assert p.cycles() == ((0, 1, 2), (3, 4), (5,))
    assert p.cycle_lengths() == (1, 2, 3)
    assert p.order() == 6
    assert (p**6).is_identity()
    assert p**-1 == p.inverse()


def test_permutation_matrix_convention():
    p = Permutation((1, 2, 0))
    m = p.matrix()
    # column j carries the image of j
    for src, dst in enumerate(p.map):
        assert m[dst, src] == 1
    q = Permutation((0, 2, 1))
    assert np.array_equal((p * q).matrix(), m @ q.matrix())
