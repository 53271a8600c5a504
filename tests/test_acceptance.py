"""Acceptance suite: one test per release criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import itertools
import random

import numpy as np

from permlog.bch import bch_chain, coupling_variant_check, perturbation_leakage
from permlog.cogwheel import build_standard_form, cogwheel_hamiltonian, polynomial_coefficients
from permlog.dynamics import (
    ExchangeWord,
    evolution_permutation,
    hamiltonian_from_permutation,
    orbit_decomposition,
    parse_word,
    polynomial_matrix,
    spectrum,
    uniform_polynomial_form,
)
from permlog.linalg import dagger, expm, max_abs_diff
from permlog.spins import (
    SpinConfiguration,
    exchange_pauli,
    exchange_permutation,
    four_spin_state_label,
    number_up,
    spinflip,
)

from oracles import commutator

C4 = (-1 + 1j) / 3
D4 = -1.0 / 3.0

REFERENCE_WORD = parse_word("P23 P12 P34", 4)


def _report(number: int, description: str, passed: bool):
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {number:02d}: {description}")
    assert passed, f"criterion {number:02d} failed: {description}"


def test_criterion_01_cogwheel_closed_form():
    # N=4, T=1: prefactor 3*pi/4 with constants c, c*, d on the circulant offsets,
    # oriented so that expm(-iH) reproduces the standard-form shift.
    h = cogwheel_hamiltonian(4, 1.0)
    first_column = [1.0, np.conj(C4), D4, C4]
    expected = (3 * np.pi / 4) * np.array(
        [[first_column[(r - c) % 4] for c in range(4)] for r in range(4)]
    )
    _report(1, "four-state Hamiltonian matches the exact closed form", max_abs_diff(h, expected) <= 1e-12)


def test_criterion_02_logarithm_round_trip():
    worst = max(
        max_abs_diff(expm(-1j * cogwheel_hamiltonian(n, 1.0)), build_standard_form(n))
        for n in range(2, 9)
    )
    _report(2, f"expm(-iHT) equals the standard form for N=2..8 (worst {worst:.2e})", worst <= 1e-10)


def test_criterion_03_four_spin_orbit_structure():
    perm = evolution_permutation(REFERENCE_WORD)
    orbits = orbit_decomposition(perm)

    def index(text):
        return SpinConfiguration.from_string(text).index

    structure_ok = (
        orbits.lengths == (1, 1, 2, 4, 4, 4)
        and set(orbits.fixed_points) == {index("uuuu"), index("dddd")}
        and {frozenset(c) for c in orbits.cycles if len(c) == 2}
        == {frozenset({index("duud"), index("uddu")})}
    )
    # successor relations, state by state, in label space
    successor = {1: 1, 2: 3, 3: 4, 4: 5, 5: 2, 6: 7, 7: 8, 8: 9, 9: 6,
                 10: 11, 11: 10, 12: 13, 13: 14, 14: 15, 15: 12, 16: 16}
    labels_ok = all(
        four_spin_state_label(SpinConfiguration(4, perm(x)))
        == successor[four_spin_state_label(SpinConfiguration(4, x))]
        for x in range(16)
    )
    _report(3, "reference word yields 2 fixed points, one 2-cycle, three 4-cycles with tabulated successors",
            structure_ok and labels_ok)


def test_criterion_04_square_of_word():
    perm = evolution_permutation(REFERENCE_WORD)
    square_word = evolution_permutation(parse_word("P23 P14", 4))
    _report(4, "U^2 equals the permutation of 'P23 P14' exactly", perm * perm == square_word)


def test_criterion_05_full_round_trip_and_conservation():
    perm = evolution_permutation(REFERENCE_WORD)
    h = hamiltonian_from_permutation(perm, 1.0).matrix
    round_trip = max_abs_diff(expm(-1j * h), perm.matrix())
    dev_nu = float(np.abs(commutator(h, np.diag(number_up(4)).astype(complex))).max())
    dev_c = float(np.abs(commutator(h, spinflip(4).matrix())).max())
    _report(5, f"16x16 round trip ({round_trip:.2e}) and H commutes with N_up/C ({max(dev_nu, dev_c):.2e})",
            round_trip <= 1e-10 and dev_nu <= 1e-12 and dev_c <= 1e-12)


def test_criterion_06_spectrum_degeneracy():
    perm = evolution_permutation(REFERENCE_WORD)
    spec = spectrum(perm, 1.0)
    analytic_ok = (
        np.allclose(spec.distinct_energies, [0.0, np.pi / 2, np.pi, 3 * np.pi / 2], atol=1e-12)
        and spec.multiplicities == (6, 3, 4, 3)
    )
    # independent numerical diagonalization oracle
    h = hamiltonian_from_permutation(perm, 1.0).matrix
    eigenvalues = np.linalg.eigvalsh(h)
    oracle_counts = [
        int(np.sum(np.abs(eigenvalues - target) < 1e-8))
        for target in (0.0, np.pi / 2, np.pi, 3 * np.pi / 2)
    ]
    _report(6, "spectrum multiplicities are {0:6, pi/2:3, pi:4, 3pi/2:3} (analytic = numerical oracle)",
            analytic_ok and oracle_counts == [6, 3, 4, 3])


def test_criterion_07_terminating_chain_and_coupling_variants():
    result = bch_chain(REFERENCE_WORD, 1.0)
    # each form lies within its deviation of the product, so any two within twice the largest
    pairwise = 2 * max(result.values())
    variants = all(
        coupling_variant_check(REFERENCE_WORD, k, family)
        for k in range(-2, 3)
        for family in ("plus_half", "plus_three_half")
    )
    _report(7, f"all closed forms agree pairwise (within {pairwise:.2e}) and coupling variants pass for |k|<=2",
            pairwise <= 1e-10 and variants)


def test_criterion_08_zero_sum_coefficients():
    coeffs = polynomial_coefficients(4, 1.0)
    direct = abs(1.0 + C4 + np.conj(C4) + D4)
    _report(8, "four-state coefficients sum to zero to machine precision",
            abs(coeffs.sum()) <= 1e-14 and direct <= 1e-15)


def test_criterion_09_instability_probe():
    leaks = {
        eps: perturbation_leakage(REFERENCE_WORD, eps)
        for eps in (0.0, 0.005, 0.01, 0.02)
    }
    ordered = [leaks[e] for e in (0.0, 0.005, 0.01, 0.02)]
    _report(9, f"leakage 0 at eps=0, {leaks[0.01]:.2e} at eps=0.01, nondecreasing over the sweep",
            leaks[0.0] <= 1e-12 and leaks[0.01] > 1e-6
            and all(a <= b for a, b in zip(ordered, ordered[1:])))


def test_criterion_10_exchange_algebra_laws():
    ok = True
    for n in (3, 4, 5):
        for i, j in itertools.combinations(range(1, n + 1), 2):
            p = exchange_permutation(n, i, j)
            ok = ok and (p * p).is_identity()
            ok = ok and max_abs_diff(exchange_pauli(n, i, j), p.matrix()) <= 1e-14
        for i, j, k in itertools.permutations(range(1, n + 1), 3):
            a, b = exchange_permutation(n, i, j), exchange_permutation(n, j, k)
            ok = ok and (a * b != b * a)
    _report(10, "involutions, noncommutation of overlapping pairs, Pauli = permutation build (N=3..5)", ok)


def _random_covering_words(n_spins, count, max_len, seed):
    rng = random.Random(seed)
    pairs = list(itertools.combinations(range(1, n_spins + 1), 2))
    words = []
    while len(words) < count:
        length = rng.randint(3, max_len)
        factors = tuple(pairs[rng.randrange(len(pairs))] for _ in range(length))
        if set(l for f in factors for l in f) == set(range(1, n_spins + 1)):
            words.append(ExchangeWord(n_spins=n_spins, factors=factors))
    return words


def test_criterion_11_random_word_generalization():
    worst_round = 0.0
    worst_poly = 0.0
    for word in _random_covering_words(5, count=20, max_len=6, seed=20260809):
        perm = evolution_permutation(word)
        h = hamiltonian_from_permutation(perm, 1.0).matrix
        worst_round = max(worst_round, max_abs_diff(expm(-1j * h), perm.matrix()))
        coeffs = uniform_polynomial_form(perm, 1.0)
        worst_poly = max(worst_poly, max_abs_diff(polynomial_matrix(perm, coeffs), h))
    _report(11, f"20 random 5-spin words: round trip {worst_round:.2e}, polynomial match {worst_poly:.2e}",
            worst_round <= 1e-9 and worst_poly <= 1e-9)
