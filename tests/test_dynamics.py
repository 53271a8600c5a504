import itertools
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from permlog.bch import bch_chain
from permlog.cogwheel import cogwheel_energies, cogwheel_hamiltonian, polynomial_coefficients
from permlog.dynamics import (
    ExchangeWord,
    UntouchedSpinWarning,
    WordParseError,
    _cycle_blocks,
    evolution_permutation,
    hamiltonian_from_permutation,
    orbit_decomposition,
    parse_word,
    polynomial_matrix,
    SpectrumReport,
    spectrum,
    uniform_polynomial_form,
)
from permlog.linalg import dagger, expm, max_abs_diff
from permlog.permutation import Permutation
from permlog.spins import SpinConfiguration, number_down, number_up, spinflip

from oracles import commutator, composed_exchange_maps, cycle_block_expm, random_words, repeating_words

ROUND_TRIP_TOL = 1e-10


def word(text, n=4):
    return parse_word(text, n)


def idx(text):
    return SpinConfiguration.from_string(text).index


@pytest.fixture()
def reference_perm():
    return evolution_permutation(word("P23 P12 P34"))


# --- parsing -----------------------------------------------------------------


def test_parse_reference_word():
    w = word("P23 P12 P34")
    assert w.factors == ((2, 3), (1, 2), (3, 4))
    assert str(w) == "P23 P12 P34"


def test_parse_single_factor():
    assert parse_word("P12", 2).factors == ((1, 2),)


def test_parse_pair_notation():
    w = parse_word("(2 3)(1 2) (3, 4)", 4)
    assert w.factors == ((2, 3), (1, 2), (3, 4))
    big = parse_word("(10 12)", 12)
    assert big.factors == ((10, 12),)
    assert str(big) == "(10 12)"


def test_parse_rejects_out_of_range_label():
    with pytest.raises(WordParseError) as err:
        parse_word("P15", 4)
    assert "out of range" in str(err.value)
    assert err.value.position == 0


def test_parse_rejects_repeated_label():
    with pytest.raises(WordParseError) as err:
        parse_word("P23 P11", 4)
    assert err.value.position == 4


def test_parse_reports_syntax_position():
    with pytest.raises(WordParseError) as err:
        parse_word("P23 Q12", 4)
    assert err.value.position == 4


def test_parse_rejects_empty():
    with pytest.raises(WordParseError):
        parse_word("   ", 4)


def test_word_validation():
    with pytest.raises(ValueError):
        ExchangeWord(n_spins=4, factors=())
    with pytest.raises(ValueError):
        ExchangeWord(n_spins=4, factors=((1, 5),))
    with pytest.raises(ValueError, match=r"^spin count must be in 2\.\.12, got 2\.5$"):
        ExchangeWord(n_spins=2.5, factors=((1, 2),))
    with pytest.raises(ValueError):
        ExchangeWord(n_spins=4, factors=((2, 2),))
    with pytest.raises(ValueError, match=r"^spin label out of range 1\.\.4 or not an integer, got \(1\.5, 2\)$"):
        ExchangeWord(n_spins=4, factors=((1.5, 2),))  # refused, not truncated to (1, 2)


# --- evolution permutation -----------------------------------------------------


def test_reference_word_moves_states_as_tabulated(reference_perm):
    u = reference_perm
    assert u(idx("uudu")) == idx("uuud")  # label 5 -> label 2
    assert u(idx("duud")) == idx("uddu")  # label 10 -> label 11
    assert u(idx("uddu")) == idx("duud")  # and back
    assert u(idx("uuuu")) == idx("uuuu")
    assert u(idx("dddd")) == idx("dddd")


def test_rightmost_factor_acts_first():
    # P34 first: uudu -> uuud; then P12 fixes it; then P23 fixes it
    w = word("P23 P12 P34")
    u = evolution_permutation(w)
    assert u(idx("uudu")) == idx("uuud")
    # reversing the word gives the inverse permutation (each factor is an involution)
    back = evolution_permutation(word("P34 P12 P23"))
    assert back == u.inverse()


def test_single_factor_word():
    u = evolution_permutation(parse_word("P12", 2))
    assert u(idx("ud")) == idx("du")
    assert (u * u).is_identity()


def test_untouched_spin_warns():
    with pytest.warns(UntouchedSpinWarning):
        evolution_permutation(parse_word("P12", 3))


@given(repeating_words())
@settings(max_examples=60, deadline=None)
def test_evolution_permutation_equals_the_composed_exchange_maps(w):
    # the bit rule applied right to left, against the product of each factor's validated permutation
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UntouchedSpinWarning)
        perm = evolution_permutation(w)
    assert np.array_equal(perm.map, composed_exchange_maps(w))


# --- orbit decomposition --------------------------------------------------------


def test_reference_orbit_lengths(reference_perm):
    orbits = orbit_decomposition(reference_perm)
    assert orbits.lengths == (1, 1, 2, 4, 4, 4)
    assert orbits.size == 16


def test_reference_fixed_points(reference_perm):
    orbits = orbit_decomposition(reference_perm)
    assert set(orbits.fixed_points) == {idx("uuuu"), idx("dddd")}


def test_identity_orbits():
    orbits = orbit_decomposition(Permutation.identity(16))
    assert orbits.lengths == (1,) * 16


def test_cycles_are_deterministic_and_advance_by_one(reference_perm):
    orbits = orbit_decomposition(reference_perm)
    starts = [c[0] for c in orbits.cycles]
    assert starts == sorted(starts)
    for cycle in orbits.cycles:
        assert cycle[0] == min(cycle)
        for pos, state in enumerate(cycle):
            assert reference_perm(state) == cycle[(pos + 1) % len(cycle)]


def test_square_of_reference_word_is_two_disjoint_exchanges(reference_perm):
    square = reference_perm * reference_perm
    assert square == evolution_permutation(word("P23 P14"))


# --- hamiltonian assembly --------------------------------------------------------


def test_blocks_match_cogwheel_hamiltonians(reference_perm):
    report = hamiltonian_from_permutation(reference_perm, 1.0)
    by_length = report.per_length
    assert sorted(by_length) == [1, 2, 4]
    assert max_abs_diff(by_length[4], cogwheel_hamiltonian(4, 1.0)) == 0.0
    assert max_abs_diff(by_length[2], (np.pi / 2) * np.array([[1, -1], [-1, 1]])) <= 1e-12
    assert max_abs_diff(by_length[1], [[0.0]]) == 0.0
    # blocks sit exactly on their cycles in the big matrix
    for cycle in reference_perm.cycles():
        assert max_abs_diff(report.matrix[np.ix_(cycle, cycle)], by_length[len(cycle)]) == 0.0


def test_identity_permutation_has_zero_hamiltonian():
    report = hamiltonian_from_permutation(Permutation.identity(8), 1.0)
    assert max_abs_diff(report.matrix, np.zeros((8, 8))) == 0.0


def test_hamiltonian_round_trip_and_conservation(reference_perm):
    report = hamiltonian_from_permutation(reference_perm, 1.0)
    h = report.matrix
    assert max_abs_diff(h, dagger(h)) <= 1e-12
    assert max_abs_diff(expm(-1j * h), reference_perm.matrix()) <= ROUND_TRIP_TOL
    for symmetry in (np.diag(number_up(4)).astype(complex), np.diag(number_down(4)).astype(complex), spinflip(4).matrix()):
        assert np.abs(commutator(h, symmetry)).max() <= 1e-12


def test_hamiltonian_rejects_bad_timestep(reference_perm):
    with pytest.raises(ValueError):
        hamiltonian_from_permutation(reference_perm, 0.0)
    with pytest.raises(ValueError, match="timestep must be positive"):
        uniform_polynomial_form(reference_perm, 0.0)


@pytest.mark.parametrize("t", [1.0, 0.5, 2.5])
def test_round_trip_other_timesteps(reference_perm, t):
    h = hamiltonian_from_permutation(reference_perm, t).matrix
    assert max_abs_diff(expm(-1j * h * t), reference_perm.matrix()) <= ROUND_TRIP_TOL


# --- uniform polynomial form -------------------------------------------------------


def test_uniform_polynomial_reference_word(reference_perm):
    coeffs = uniform_polynomial_form(reference_perm, 1.0)
    assert len(coeffs) == 4  # lcm of 1, 2, 4
    assert np.allclose(coeffs, polynomial_coefficients(4, 1.0), atol=1e-15)
    h_poly = polynomial_matrix(reference_perm, coeffs)
    h_blocks = hamiltonian_from_permutation(reference_perm, 1.0).matrix
    assert max_abs_diff(h_poly, h_blocks) <= ROUND_TRIP_TOL


def test_uniform_polynomial_expands_in_word_products(reference_perm):
    # H = (3pi/4) (1 + c* U + c U^dagger + d U^2) rendered through exchange words
    c = (-1 + 1j) / 3
    d = -1.0 / 3.0
    u = reference_perm.matrix()
    u_dag = evolution_permutation(word("P34 P12 P23")).matrix()
    u_sq = evolution_permutation(word("P23 P14")).matrix()
    h = (3 * np.pi / 4) * (np.eye(16) + np.conj(c) * u + c * u_dag + d * u_sq)
    assert max_abs_diff(h, hamiltonian_from_permutation(reference_perm).matrix) <= 1e-12


def test_uniform_polynomial_identity_permutation():
    coeffs = uniform_polynomial_form(Permutation.identity(4), 1.0)
    assert len(coeffs) == 1
    assert coeffs[0] == pytest.approx(0.0)


def test_polynomial_terms_commute(reference_perm):
    u = reference_perm.matrix()
    powers = [np.linalg.matrix_power(u, k) for k in range(4)]
    for a, b in itertools.combinations(powers, 2):
        assert np.abs(commutator(a, b)).max() == 0.0


def test_polynomial_matrix_horner_matches_direct():
    rng = np.random.default_rng(5)
    perm = Permutation(tuple(rng.permutation(6)))
    coeffs = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    direct = sum(
        coeffs[k] * np.linalg.matrix_power(perm.matrix(), k) for k in range(5)
    )
    assert max_abs_diff(polynomial_matrix(perm, coeffs), direct) <= 1e-13


def dense_polynomial_matrix(perm, coeffs):
    """Dense reference: M^k by repeated matrix products, c_k * M^k summed in k order."""
    m = perm.matrix()
    power = np.eye(perm.size, dtype=complex)
    total = np.zeros((perm.size, perm.size), dtype=complex)
    for k, c in enumerate(coeffs):
        if k:
            power = m @ power
        total += c * power
    return total


def random_covering_word(rng, n_spins):
    spins = [int(s) for s in rng.permutation(np.arange(1, n_spins + 1))]
    pairs = [(spins[k], spins[k + 1]) for k in range(n_spins - 1)]
    pairs += [tuple(int(s) for s in rng.choice(np.arange(1, n_spins + 1), 2, replace=False))]
    rng.shuffle(pairs)
    return ExchangeWord(n_spins=n_spins, factors=tuple(pairs))


@pytest.mark.parametrize("seed", range(8))
def test_polynomial_matrix_scatter_equals_dense_products(seed):
    rng = np.random.default_rng(seed)
    perm = evolution_permutation(random_covering_word(rng, int(rng.integers(2, 8))))
    uniform = uniform_polynomial_form(perm, 1.0)
    arbitrary = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    for coeffs in (uniform, arbitrary):
        assert np.array_equal(polynomial_matrix(perm, coeffs), dense_polynomial_matrix(perm, coeffs))


def test_power_lcm_is_identity(reference_perm):
    assert (reference_perm ** reference_perm.order()).is_identity()
    assert reference_perm.order() == 4


# --- block exponential ---------------------------------------------------------------


@pytest.mark.parametrize("seed", range(6))
def test_cycle_block_expm_matches_scipy(seed):
    rng = np.random.default_rng(seed)
    perm = evolution_permutation(random_covering_word(rng, int(rng.integers(2, 9))))
    t = (1.0, 0.5, 2.5)[seed % 3]
    h = hamiltonian_from_permutation(perm, t).matrix
    blocks = cycle_block_expm(perm, h, -1j * t)
    assert max_abs_diff(blocks, scipy.linalg.expm(-1j * t * h)) <= 1e-12
    assert max_abs_diff(blocks, perm.matrix()) <= ROUND_TRIP_TOL


def test_cycle_block_expm_on_arbitrary_blocks():
    rng = np.random.default_rng(3)
    perm = Permutation(tuple(int(x) for x in rng.permutation(12)))
    h = np.zeros((12, 12), dtype=complex)
    for cycle in perm.cycles():
        shape = (len(cycle), len(cycle))
        h[np.ix_(cycle, cycle)] = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    scale = 0.3 - 0.2j
    assert max_abs_diff(cycle_block_expm(perm, h, scale), scipy.linalg.expm(scale * h)) <= 1e-12


def test_cycle_block_expm_rejects_one_off_block_entry(reference_perm):
    h = hamiltonian_from_permutation(reference_perm, 1.0).matrix
    first, second = reference_perm.cycles()[:2]
    h[first[0], second[0]] = 1e-300
    with pytest.raises(ValueError, match="outside the cycle blocks"):
        cycle_block_expm(reference_perm, h, -1j)


def test_cycle_blocks_gather_every_cycle_block(reference_perm):
    h = hamiltonian_from_permutation(reference_perm, 1.0).matrix
    tables = reference_perm.cycles_by_length
    stacks = _cycle_blocks(h, tables)
    assert [stack.shape for stack in stacks] == [(len(rows), length, length) for length, rows in tables.items()]
    for rows, stack in zip(tables.values(), stacks):
        for cycle, block in zip(rows, stack):
            assert np.array_equal(block, h[np.ix_(cycle, cycle)])


def test_cycle_block_expm_rejects_a_size_mismatch(reference_perm):
    with pytest.raises(ValueError):
        cycle_block_expm(reference_perm, np.zeros((8, 8)), -1j)


# --- spectrum -----------------------------------------------------------------------


def test_reference_spectrum_multiplicities(reference_perm):
    spec = spectrum(reference_perm, 1.0)
    assert np.allclose(spec.distinct_energies, [0.0, np.pi / 2, np.pi, 3 * np.pi / 2])
    assert spec.multiplicities == (6, 3, 4, 3)
    assert spec.total_multiplicity == 16


def test_reference_spectrum_against_diagonalization_oracle(reference_perm):
    h = hamiltonian_from_permutation(reference_perm, 1.0).matrix
    eigenvalues = np.sort(np.linalg.eigvalsh(h))
    spec = spectrum(reference_perm, 1.0)
    rebuilt = np.sort(np.repeat(spec.distinct_energies, spec.multiplicities))
    assert np.allclose(eigenvalues, rebuilt, atol=1e-9)


def test_identity_spectrum():
    spec = spectrum(Permutation.identity(16), 1.0)
    assert spec.distinct_energies == (0.0,)
    assert spec.multiplicities == (16,)


def test_single_transposition_spectrum():
    perm = evolution_permutation(parse_word("P12", 2))
    spec = spectrum(perm, 1.0)
    assert np.allclose(spec.distinct_energies, [0.0, np.pi])
    assert spec.multiplicities == (3, 1)
    h = hamiltonian_from_permutation(perm, 1.0).matrix
    eigenvalues = np.sort(np.linalg.eigvalsh(h))
    assert np.allclose(eigenvalues, [0.0, 0.0, 0.0, np.pi], atol=1e-12)


def test_spectrum_provenance_points_at_cycles(reference_perm):
    spec = spectrum(reference_perm, 1.0)
    orbits = orbit_decomposition(reference_perm)
    zero_sources = spec.block_provenance[spec.distinct_energies.index(0.0)]
    assert set(zero_sources) == set(range(len(orbits.cycles)))  # every cycle has a zero level
    pi_half_sources = spec.block_provenance[1]
    assert all(len(orbits.cycles[i]) == 4 for i in pi_half_sources)


def test_spectrum_merges_energies_exactly():
    # one 2-cycle and one 4-cycle share the level at pi
    perm = Permutation((1, 0, 3, 4, 5, 2))
    spec = spectrum(perm, 1.0)
    assert np.allclose(spec.distinct_energies, [0.0, np.pi / 2, np.pi, 3 * np.pi / 2])
    assert spec.multiplicities == (2, 1, 2, 1)


# --- exhaustive small-word round trips ------------------------------------------------


def all_covering_words(n_spins, n_factors):
    pairs = list(itertools.combinations(range(1, n_spins + 1), 2))
    for combo in itertools.product(pairs, repeat=n_factors):
        if set(label for pair in combo for label in pair) == set(range(1, n_spins + 1)):
            yield ExchangeWord(n_spins=n_spins, factors=combo)


@pytest.mark.parametrize("n_spins", [3, 4])
def test_all_three_factor_words_round_trip(n_spins):
    checked = 0
    for w in all_covering_words(n_spins, 3):
        perm = evolution_permutation(w)
        h = hamiltonian_from_permutation(perm, 1.0).matrix
        u = perm.matrix()
        assert max_abs_diff(expm(-1j * h), u) <= ROUND_TRIP_TOL, str(w)
        coeffs = uniform_polynomial_form(perm, 1.0)
        assert max_abs_diff(polynomial_matrix(perm, coeffs), h) <= ROUND_TRIP_TOL, str(w)
        checked += 1
    assert checked > 0


# --- one block per cycle length against the per-cycle reference ---------------------
# The loops below are the per-cycle assembly that one scatter per cycle length
# replaced; the grouped code must reproduce them bit for bit.


def per_cycle_hamiltonian(perm, t):
    h = np.zeros((perm.size, perm.size), dtype=complex)
    for cycle in perm.cycles():
        h[np.ix_(cycle, cycle)] = cogwheel_hamiltonian(len(cycle), t)
    return h


def per_cycle_block_expm(perm, h, scale):
    out = np.zeros_like(h)
    for cycle in perm.cycles():
        out[np.ix_(cycle, cycle)] = expm(scale * h[np.ix_(cycle, cycle)])
    return out


def per_cycle_spectrum(perm, t):
    groups = {}
    for cycle_index, cycle in enumerate(perm.cycles()):
        for n in range(len(cycle)):
            groups.setdefault(Fraction(n, len(cycle)), []).append(cycle_index)
    fractions = sorted(groups)
    return SpectrumReport(
        distinct_energies=tuple(2.0 * np.pi * f.numerator / (f.denominator * t) for f in fractions),
        multiplicities=tuple(len(groups[f]) for f in fractions),
        block_provenance=tuple(tuple(groups[f]) for f in fractions),
    )


def assert_matches_per_cycle_reference(perm, t):
    report = hamiltonian_from_permutation(perm, t)
    h = per_cycle_hamiltonian(perm, t)
    assert np.array_equal(report.matrix, h)
    assert np.array_equal(cycle_block_expm(perm, h, -1j * t), per_cycle_block_expm(perm, h, -1j * t))
    assert spectrum(perm, t) == per_cycle_spectrum(perm, t)
    assert sorted(report.per_length) == sorted({len(cycle) for cycle in perm.cycles()})
    for cycle in perm.cycles():
        block = report.per_length[len(cycle)]
        assert np.array_equal(block, cogwheel_hamiltonian(len(cycle), t))
        assert np.array_equal(report.matrix[np.ix_(cycle, cycle)], block)


@given(random_words(), st.sampled_from([1.0, 0.37, 2.5, 1e-300, 1e300]))
@settings(max_examples=40, deadline=None)
def test_grouped_blocks_equal_per_cycle_reference_on_random_words(w, t):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UntouchedSpinWarning)  # a random word may skip a spin
        perm = evolution_permutation(w)
    assert_matches_per_cycle_reference(perm, t)


@pytest.mark.parametrize("t", [1.0, 0.37, 2.5, 1e-300, 1e300])
@pytest.mark.parametrize(
    "perm",
    [Permutation.identity(8), evolution_permutation(word("P12", 2)), Permutation((1, 0, 3, 4, 5, 2))],
    ids=["identity", "P12", "mixed-lengths"],
)
def test_grouped_blocks_equal_per_cycle_reference(perm, t):
    assert_matches_per_cycle_reference(perm, t)


@pytest.mark.parametrize("t", [1e-310, 1e308])
def test_every_timestep_entry_point_refuses_unrepresentable_energies(reference_perm, t):
    # N*T past the float range would flush every energy to 0; a tiny T would make them overflow
    calls = [
        lambda: cogwheel_energies(4, t),
        lambda: cogwheel_hamiltonian(4, t),
        lambda: polynomial_coefficients(4, t),
        lambda: hamiltonian_from_permutation(reference_perm, t),
        lambda: uniform_polynomial_form(reference_perm, t),
        lambda: spectrum(reference_perm, t),
        lambda: bch_chain(word("P23 P12 P34"), t),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(ValueError, match=re.escape(f"timestep {t:g} is out of range")):
                call()


SPIN_CAP_WORDS = {  # the shift word and the covering word that CI runs at n = 12, with their cycle lengths
    "(1 2)(2 3)(3 4)(4 5)(5 6)(6 7)(7 8)(8 9)(9 10)(10 11)(11 12)": {1, 2, 3, 4, 6, 12},
    "(1 2)(2 3)(3 4)(4 5)(5 6)(6 7)(7 8)(8 9)(9 10)(10 11)(11 12)(1 2)(3 4)": {1, 2, 5, 10},
}


@pytest.mark.parametrize("t", [1e-300, 1e300])
def test_energies_near_the_float_range_keep_their_arithmetic(reference_perm, t):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(cogwheel_energies(4, t), (2.0 * np.pi * np.arange(4) - 0.0) / (4 * t))
        levels = spectrum(reference_perm, t).distinct_energies
        for text, lengths in SPIN_CAP_WORDS.items():  # spectrum only: the per-cycle H would be dense 4096 x 4096
            perm = evolution_permutation(parse_word(text, 12))
            assert set(perm.cycles_by_length) == lengths
            assert spectrum(perm, t) == per_cycle_spectrum(perm, t)
    assert levels == tuple(2.0 * np.pi * f.numerator / (f.denominator * t) for f in
                           (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)))


NEAR_FLOAT_LIMITS = np.concatenate([[2.4256401888576345e-308], np.geomspace(1e-308, 1e-305, 299),
                                     np.geomspace(1e305, 1.7e308, 300)])


@pytest.mark.parametrize("n", range(1, 13))
def test_coefficients_near_the_float_range_are_finite_wherever_the_energies_are(n):
    # the closed form never sums energies: every |h_k| <= pi/(2T) stays below the largest energy,
    # so each timestep cogwheel_energies accepts has finite coefficients, with no numpy warning,
    # and they stay within 1e-14/T of the inverse DFT wherever that one does not overflow
    compared = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in NEAR_FLOAT_LIMITS:
            try:
                energies = cogwheel_energies(n, t)
            except ValueError:
                continue
            coeffs = polynomial_coefficients(n, t)
            assert np.isfinite(coeffs).all()
            with np.errstate(over="ignore", invalid="ignore"):
                ifft = np.fft.ifft(energies)
            if np.isfinite(ifft).all():
                assert np.abs(coeffs - ifft).max() * t <= 1e-14
                compared += 1
    assert compared > 0


@pytest.mark.parametrize("bad", [np.inf, 0.0, -1.0, np.nan])
def test_every_timestep_entry_point_rejects_non_finite_and_non_positive(reference_perm, bad):
    message = "timestep must be finite" if bad == np.inf else "timestep must be positive"
    calls = [
        lambda: cogwheel_energies(4, bad),
        lambda: cogwheel_hamiltonian(4, bad),
        lambda: polynomial_coefficients(4, bad),
        lambda: hamiltonian_from_permutation(reference_perm, bad),
        lambda: uniform_polynomial_form(reference_perm, bad),
        lambda: spectrum(reference_perm, bad),
        lambda: bch_chain(word("P23 P12 P34"), bad),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call()
