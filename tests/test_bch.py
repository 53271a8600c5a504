import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import permlog.bch
from permlog.bch import (
    COUPLING_FAMILIES,
    FORM_FACTORED,
    FORM_HAMILTONIAN,
    FORM_TAIL_PRODUCT,
    FORM_TAIL_SUM,
    PreconditionViolation,
    bch_chain,
    coupling_variant_check,
    perturbation_leakage,
    superposition_leakage,
)
from permlog.bch import (
    _SectorMaps,
    _mirror,
    _mirror_pairs,
    _perturbed_blocks,
    _require_commuting_tail,
    _sector_chain_forms,
    _sectors,
    _tail_sum_gate,
    _times_exp_tail_sum,
    _times_exps,
    _unitarity_residual,
)
from permlog.dynamics import (
    ExchangeWord,
    evolution_permutation,
    parse_word,
    polynomial_matrix,
    uniform_polynomial_form,
)
from permlog.linalg import (
    InvolutionViolation,
    NonUnitaryError,
    expm,
    identity,
    max_abs_diff,
)
from permlog.permutation import Permutation
from permlog.spins import exchange_configurations, exchange_permutation

from oracles import (
    assemble,
    bch_series_truncated,
    complex_unitarity_residual,
    cycle_block_expm,
    dense_perturbed_product,
    dense_times_exp_tail_sum,
    every_sector_chain,
    every_sector_chain_forms,
    every_sector_form_deviations,
    every_sector_heads,
    every_sector_leakage,
    every_sector_perturbed_blocks,
    exp_involution,
    loop_times_exp_tail_sum,
    position_table_factors,
    repeating_words,
)

CHAIN_TOL = 1e-10
CLOSED_FORM_TOL = 1e-12
DENSE_ORACLE_TOL = 1e-13  # structured vs dense evaluation of the same exact forms


@pytest.fixture()
def reference_word():
    return parse_word("P23 P12 P34", 4)


# --- the closed exponential chain -----------------------------------------------


def test_chain_all_forms_match_reference_word(reference_word):
    result = bch_chain(reference_word, 1.0)
    assert type(result) is dict
    assert list(result) == [FORM_FACTORED, FORM_TAIL_SUM, FORM_TAIL_PRODUCT, FORM_HAMILTONIAN]
    for label, dev in result.items():
        assert type(dev) is float and dev < CHAIN_TOL, label


def test_chain_forms_agree_pairwise(reference_word):
    # each form lies within its deviation of the product, so any two within twice the largest
    result = bch_chain(reference_word, 1.0)
    assert 2 * max(result.values()) < CHAIN_TOL


INVOLUTIONS = [
    exchange_permutation(2, 1, 2),
    exchange_permutation(3, 2, 3),
    exchange_permutation(4, 1, 4),
    exchange_permutation(4, 1, 2) * exchange_permutation(4, 3, 4),
    Permutation((1, 0)),
    Permutation((2, 1, 0)),
]


@pytest.mark.parametrize("p", INVOLUTIONS)
@pytest.mark.parametrize(
    "theta, phase, expected, tol",
    [
        (0.0, 1, lambda p: identity(p.size), 0.0),
        (np.pi, 1, lambda p: -identity(p.size), 1e-15),
        (np.pi / 2, 1j, Permutation.matrix, 1e-15),  # i * exp(-i*(pi/2)*P) = P
    ],
    ids=["zero", "pi", "quarter_turn"],
)
def test_exp_involution_closed_form_angles(p, theta, phase, expected, tol):
    assert max_abs_diff(phase * _times_exps(identity(p.size), [p.map], [theta]), expected(p)) <= tol


@pytest.mark.parametrize("p", INVOLUTIONS)
@pytest.mark.parametrize("theta", [0.1, np.pi / 4, np.pi / 2, 1.3])
def test_exp_involution_agrees_with_series(p, theta):
    series = expm(-1j * theta * p.matrix())
    assert max_abs_diff(_times_exps(identity(p.size), [p.map], [theta]), series) <= CLOSED_FORM_TOL


def test_merged_sum_equals_merged_product(reference_word):
    forms = assembled_chain_forms(reference_word, np.pi / 2)
    assert max_abs_diff(forms[FORM_TAIL_SUM], forms[FORM_TAIL_PRODUCT]) < 1e-12


def test_chain_requires_commuting_tail():
    with pytest.raises(PreconditionViolation):
        bch_chain(parse_word("P12 P23", 3), 1.0)


def test_chain_requires_two_factors():
    with pytest.raises(PreconditionViolation):
        bch_chain(parse_word("P12", 2), 1.0)


def test_chain_works_on_other_commuting_tails():
    result = bch_chain(parse_word("P23 P45 P12 P45 P12", 5), 1.0)
    assert max(result.values()) < CHAIN_TOL


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_tail_pair_rule_matches_permutation_commutation(n):
    pairs = list(itertools.permutations(range(1, n + 1), 2))
    for (a, b), (c, d) in itertools.product(pairs, repeat=2):
        p, q = exchange_permutation(n, a, b), exchange_permutation(n, c, d)
        word = ExchangeWord(n_spins=n, factors=((a, b), (c, d)))
        if p * q == q * p:
            _require_commuting_tail(word)
        else:
            with pytest.raises(PreconditionViolation) as caught:
                _require_commuting_tail(word)
            assert str(caught.value) == f"the last two factors P{a}{b} and P{c}{d} do not commute"


# --- coupling variants ------------------------------------------------------------


@pytest.mark.parametrize("family", ["plus_half", "plus_three_half"])
@pytest.mark.parametrize("k", [-2, -1, 0, 1, 2])
def test_coupling_variants(reference_word, family, k):
    assert coupling_variant_check(reference_word, k, family)


def test_three_half_family_flips_the_product_sign(reference_word):
    # at coupling 3*pi/2 the three-exponential product lands on minus the word
    from permlog.dynamics import evolution_permutation

    u = evolution_permutation(reference_word).matrix()
    theta = 1.5 * np.pi
    mats = [exchange_permutation(4, i, j).matrix() for i, j in reference_word.factors]
    product = (1j ** 3) * (
        exp_involution(mats[0], theta)
        @ exp_involution(mats[1], theta)
        @ exp_involution(mats[2], theta)
    )
    assert max_abs_diff(product, -u) <= 1e-12
    assert max_abs_diff(product, u) > 1.0


def test_coupling_variant_rejects_unknown_family(reference_word):
    with pytest.raises(ValueError):
        coupling_variant_check(reference_word, 0, "plus_two")
    with pytest.raises(ValueError, match="^k must be an integer, got 0.5$"):
        coupling_variant_check(reference_word, 0.5, "plus_half")
    with pytest.raises(ValueError, match="^k must be an integer, got True$"):
        coupling_variant_check(reference_word, True, "plus_half")
    with pytest.raises(ValueError, match="^tolerance must be finite$"):
        coupling_variant_check(reference_word, 0, "plus_half", math.inf)


# --- generic commutator series ------------------------------------------------------


def test_series_commuting_inputs_collapse():
    x = np.diag([0.1, -0.2, 0.3]).astype(complex)
    y = np.diag([0.4, 0.5, -0.1]).astype(complex)
    for order in (1, 2, 3, 4):
        assert max_abs_diff(bch_series_truncated(x, y, order), x + y) == 0.0


def test_series_zero_inputs():
    z = np.zeros((4, 4))
    assert max_abs_diff(bch_series_truncated(z, z, 4), z) == 0.0


def test_series_rejects_unsupported_order():
    z = np.zeros((2, 2))
    for order in (0, 5, -1):
        with pytest.raises(ValueError):
            bch_series_truncated(z, z, order)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_series_matches_logarithm_in_small_norm_regime(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    y = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    x *= 0.05 / np.abs(x).sum(axis=1).max()
    y *= 0.05 / np.abs(y).sum(axis=1).max()
    z4 = bch_series_truncated(x, y, 4)
    reference = scipy.linalg.logm(scipy.linalg.expm(x) @ scipy.linalg.expm(y))
    assert max_abs_diff(z4, reference) <= 1e-8


def test_series_orders_refine():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((3, 3)) * 0.02
    y = rng.standard_normal((3, 3)) * 0.02
    reference = scipy.linalg.logm(scipy.linalg.expm(x) @ scipy.linalg.expm(y))
    errors = [
        max_abs_diff(bch_series_truncated(x, y, order), reference) for order in (1, 2, 3)
    ]
    assert errors[0] > errors[1] > errors[2]


def test_series_does_not_terminate_for_overlapping_exchanges():
    # where the closed forms succeed exactly, the order-4 series is still far off
    x = -1j * (np.pi / 2) * exchange_permutation(3, 2, 3).matrix()
    y = -1j * (np.pi / 2) * exchange_permutation(3, 1, 2).matrix()
    z4 = bch_series_truncated(x, y, 4)
    product = expm(x) @ expm(y)
    assert max_abs_diff(expm(z4), product) > 1e-3


# --- superposition leakage -----------------------------------------------------------


def test_leakage_zero_on_permutations():
    for n, i, j in [(2, 1, 2), (4, 2, 3)]:
        assert superposition_leakage(exchange_permutation(n, i, j).matrix()) == 0.0


def test_leakage_half_on_equal_mixer():
    hadamard = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert superposition_leakage(hadamard) == pytest.approx(0.5, abs=1e-12)


def test_leakage_rejects_non_unitary():
    with pytest.raises(NonUnitaryError):
        superposition_leakage(np.array([[1.0, 0.0], [0.0, 0.5]]))


def test_leakage_rejects_a_departure_in_the_imaginary_part_only():
    # M M^dagger = I + i*[[0, 1], [-1, 0]]: its real part is exactly the identity
    with pytest.raises(NonUnitaryError):
        superposition_leakage(np.array([[1, 1j], [-1j, 1]]) / np.sqrt(2))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "m",
    [
        [[1e200, 1e200], [1e200, -1e200]],  # finite, but M M^dagger overflows
        [[1e200 + 1e200j, 0], [0, 1]],  # inf - inf in the imaginary part: a nan residual
        (1 + 1j) * np.diag([3e153, 1.0]),  # a finite residual whose square overflows
    ],
    ids=["overflowing-product", "nan-residual", "overflowing-square"],
)
def test_leakage_refuses_residuals_that_are_not_finite(m):
    with pytest.raises(NonUnitaryError, match="unitary only within (inf|nan)"):
        superposition_leakage(m)


@pytest.mark.parametrize("n", range(2, 10))
def test_real_unitarity_residual_matches_the_complex_product(n):
    # the three real products against the one complex product they replace, on sector blocks
    word = mirror_test_word(np.random.default_rng([n, 3]), n)
    blocks = [block for _, block in every_sector_perturbed_blocks(word, 0.013)]
    blocks += [form for _, _, forms in every_sector_chain_forms(word, 0.37) for form in forms.values()]
    for block in blocks:
        assert abs(_unitarity_residual(block) - complex_unitarity_residual(block)) <= 1e-15


def test_leakage_zero_on_phased_permutations():
    phased = np.diag([1.0, np.exp(0.4j), np.exp(-2.1j)])
    assert superposition_leakage(phased) <= 1e-15


@given(
    st.integers(0, 23),
    st.integers(0, 23),
    st.floats(-np.pi, np.pi, allow_nan=False),
)
@settings(max_examples=40, deadline=None)
def test_leakage_invariances(left_index, right_index, phase):
    import itertools as it

    perms = [np.eye(4)[list(p)] for p in it.permutations(range(4))]
    base = perturbed_product(parse_word("P12", 2), 0.17)
    reference = superposition_leakage(base)
    transported = np.exp(1j * phase) * (perms[left_index] @ base @ perms[right_index])
    assert superposition_leakage(transported) == pytest.approx(reference, abs=1e-12)


# --- coupling perturbation -------------------------------------------------------------


def library_perturbed_blocks(word, epsilon):
    """Every sector's block of the perturbed product: the library's sector k of each pair, and its mirror."""
    blocks = dict(_perturbed_blocks(_SectorMaps(word), epsilon))
    return [blocks[k] if k in blocks else _mirror(blocks[word.n_spins - k]) for k in range(word.n_spins + 1)]


def perturbed_product(word, epsilon=0.0):
    """The perturbed product perturbation_leakage checks, assembled dense from its sector blocks."""
    return assemble(zip(_sectors(word.n_spins), library_perturbed_blocks(word, epsilon)), word.n_spins)


def test_zero_perturbation_reproduces_word(reference_word):
    from permlog.dynamics import evolution_permutation

    u = evolution_permutation(reference_word).matrix()
    perturbed = perturbed_product(reference_word, 0.0)
    assert max_abs_diff(perturbed, u) <= 1e-12
    assert superposition_leakage(perturbed) <= 1e-12


@pytest.mark.parametrize(
    "text,n", [("P12", 2), ("P12 P23", 3), ("P23 P12 P34", 4), ("P15 P23 P45 P12", 5)]
)
def test_zero_perturbation_leakage_vanishes_for_many_words(text, n):
    word = parse_word(text, n)
    assert perturbation_leakage(word) <= 1e-12


def test_small_perturbation_leaks(reference_word):
    leak = perturbation_leakage(reference_word, 0.01)
    assert leak > 1e-6


def test_leakage_grows_with_perturbation(reference_word):
    leaks = [
        perturbation_leakage(reference_word, e)
        for e in (0.0, 0.005, 0.01, 0.02)
    ]
    assert all(a <= b for a, b in zip(leaks, leaks[1:]))


def test_half_turn_offset_gives_phased_identity():
    word = parse_word("P12", 2)
    out = perturbed_product(word, np.pi / 2)
    assert max_abs_diff(out, -1j * np.eye(4)) <= 1e-12
    assert superposition_leakage(out) <= 1e-12


def test_per_factor_offsets(reference_word):
    from permlog.dynamics import evolution_permutation

    u = evolution_permutation(reference_word).matrix()
    assert max_abs_diff(perturbed_product(reference_word, (0.0, 0.0, 0.0)), u) <= 1e-12
    with pytest.raises(ValueError, match=r"need one offset or 3 of them, got shape \(2,\)"):
        perturbation_leakage(reference_word, (0.1, 0.2))
    for bad in (np.inf, (0.1, np.nan, 0.2)):
        with pytest.raises(ValueError, match="offsets must be finite"):
            perturbation_leakage(reference_word, bad)


def test_shifted_coupling_family_still_exact(reference_word):
    # exp(-i(theta + 2*pi*k)P) = exp(-i*theta*P): the k = 1 family gives the word's permutation too
    from permlog.dynamics import evolution_permutation

    u = evolution_permutation(reference_word).matrix()
    out = dense_perturbed_product(reference_word, 0.0, k=1)
    assert max_abs_diff(out, u) <= 1e-12


# --- dense oracles for the structure-aware evaluation ------------------------------------
#
# The library evaluates each form from the structure of its factors (column gathers
# within each down-count sector, a local tail gate, one exponential per cycle length).
# These tests rebuild the dense 2^N x 2^N products the forms are defined by and require
# agreement on random words, n <= 9.


def random_commuting_tail_word(seed, tail, n=None):
    """A covering word on n spins (4..8 if not given) whose last two factors are disjoint or the same pair."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 9)) if n is None else n
    spins = [int(s) for s in rng.permutation(np.arange(1, n + 1))]
    head = [(spins[k], spins[k + 1]) for k in range(n - 1)]
    rng.shuffle(head)
    a, b, c, d = spins[:4]
    last_two = [(a, b), (c, d)] if tail == "disjoint" else [(a, b), (a, b)]
    return ExchangeWord(n_spins=n, factors=tuple(head + last_two))


CHAIN_FORMS = (FORM_FACTORED, FORM_TAIL_SUM, FORM_TAIL_PRODUCT)


def library_chain_forms(word, theta):
    """Every sector's three factored-form blocks: the library's, and sector k's mirrored where N - k forms none."""
    forms = dict(_sector_chain_forms(_SectorMaps(word), theta))
    n = word.n_spins
    return [{label: forms[k][label] if label in forms[k] else _mirror(forms[n - k][label]) for label in CHAIN_FORMS}
            for k in range(n + 1)]


def assembled_chain_forms(word, theta):
    """The library's three factored forms at coupling theta, assembled dense from their sector blocks."""
    sectors = list(zip(_sectors(word.n_spins), library_chain_forms(word, theta)))
    return {label: assemble([(idx, forms[label]) for idx, forms in sectors], word.n_spins) for label in CHAIN_FORMS}


def dense_hamiltonian_form(perm, timestep):
    """exp(-i*T*H) of the uniform polynomial Hamiltonian, taken cycle block by cycle block."""
    h = polynomial_matrix(perm, uniform_polynomial_form(perm, timestep))
    return cycle_block_expm(perm, h, -1j * timestep)


def dense_chain_forms(word, theta):
    """The three factored forms as dense products of dense exponentials."""
    mats = [exchange_permutation(word.n_spins, i, j).matrix() for i, j in word.factors]
    m = len(mats)
    head = identity(mats[0].shape[0])
    for p in mats[:-2]:
        head = head @ exp_involution(p, theta)
    return {
        FORM_FACTORED: (1j**m) * head @ exp_involution(mats[-2], theta) @ exp_involution(mats[-1], theta),
        FORM_TAIL_SUM: (1j**m) * head @ expm(-1j * theta * (mats[-2] + mats[-1])),
        FORM_TAIL_PRODUCT: (1j ** (m - 1)) * head @ exp_involution(mats[-2] @ mats[-1], theta),
    }


def off_sector_max(m):
    """The largest magnitude among entries joining configurations of different down counts."""
    n = int(m.shape[0]).bit_length() - 1
    downs = np.array([bin(x).count("1") for x in range(1 << n)])
    return float(np.abs(m[downs[:, None] != downs[None, :]]).max())


@pytest.mark.parametrize("n", range(2, 10))
def test_sectors_partition_the_configurations_by_down_count(n):
    members = _sectors(n)
    assert [idx.size for idx in members] == [math.comb(n, k) for k in range(n + 1)]
    assert np.array_equal(np.sort(np.concatenate(members)), np.arange(1 << n))
    for k, idx in enumerate(members):
        assert all(bin(int(x)).count("1") == k for x in idx)
        assert np.all(np.diff(idx) > 0)
        # the factor maps and the tail sum locate a configuration in its sector by np.searchsorted
        assert np.array_equal(np.searchsorted(idx, idx), np.arange(idx.size))


def test_random_words_have_the_requested_tails():
    repeated = random_commuting_tail_word(0, "repeated").factors
    assert repeated[-1] == repeated[-2]
    (a, b), (c, d) = random_commuting_tail_word(0, "disjoint").factors[-2:]
    assert not {a, b} & {c, d}


@pytest.mark.parametrize("tail", ["disjoint", "repeated"])
@pytest.mark.parametrize("seed", range(5))
def test_chain_matches_dense_oracle(seed, tail):
    word = random_commuting_tail_word(seed, tail)
    timestep = (1.0, 0.5, 2.5)[seed % 3]
    perm = evolution_permutation(word)
    baseline = perm.matrix()
    dense = dense_chain_forms(word, np.pi / 2)
    h = polynomial_matrix(perm, uniform_polynomial_form(perm, timestep))
    dense[FORM_HAMILTONIAN] = expm(-1j * timestep * h)
    forms = assembled_chain_forms(word, np.pi / 2)
    forms[FORM_HAMILTONIAN] = dense_hamiltonian_form(perm, timestep)
    result = bch_chain(word, timestep)
    assert list(result) == [FORM_FACTORED, FORM_TAIL_SUM, FORM_TAIL_PRODUCT, FORM_HAMILTONIAN]
    for label, mat in forms.items():
        assert off_sector_max(dense[label]) == 0.0, label
        assert max_abs_diff(mat, dense[label]) <= DENSE_ORACLE_TOL, label
        # the deviations are taken sector by sector or cycle length by cycle length,
        # and equal the dense ones bit for bit
        assert result[label] == max_abs_diff(mat, baseline), label
    assert max(result.values()) < CHAIN_TOL


HAMILTONIAN_WORDS = [
    parse_word("P12 P12", 2),  # the identity: fixed points only
    parse_word("P12 P23 P12 P12", 3),
    *(random_commuting_tail_word(500 + n, tail, n) for n in range(4, 10) for tail in ("disjoint", "repeated")),
]


def test_hamiltonian_words_cover_fixed_points_and_mixed_cycle_lengths():
    lengths = [set(evolution_permutation(word).cycles_by_length) for word in HAMILTONIAN_WORDS]
    assert lengths[0] == {1}
    assert all(1 in ls for ls in lengths)  # all-up and all-down are always fixed
    assert max(len(ls) for ls in lengths) >= 4
    assert set().union(*lengths) >= set(range(1, 10))


@pytest.mark.parametrize("timestep", [1.0, 0.5, 2.5, 0.37])
@pytest.mark.parametrize("word", HAMILTONIAN_WORDS, ids=lambda w: f"n{w.n_spins}-{w}")
def test_hamiltonian_deviation_per_cycle_length_equals_dense(word, timestep):
    # H restricted to any cycle of length L is the same polynomial in the L-point shift
    perm = evolution_permutation(word)
    dense = max_abs_diff(dense_hamiltonian_form(perm, timestep), perm.matrix())
    assert bch_chain(word, timestep)[FORM_HAMILTONIAN] == dense


@pytest.mark.parametrize("tail", ["disjoint", "repeated"])
@pytest.mark.parametrize("family", COUPLING_FAMILIES)
@pytest.mark.parametrize("k", [-2, -1, 0, 1, 2])
def test_coupling_variants_match_dense_oracle(k, family, tail):
    word = random_commuting_tail_word(100 + k, tail)
    theta = (2 * k + (0.5 if family == "plus_half" else 1.5)) * np.pi
    dense = dense_chain_forms(word, theta)
    forms = assembled_chain_forms(word, theta)
    assert forms.keys() == dense.keys()
    for label, mat in forms.items():
        assert off_sector_max(dense[label]) == 0.0, label
        assert max_abs_diff(mat, dense[label]) <= DENSE_ORACLE_TOL, label
    m = len(word.factors)
    sign = 1.0 if family == "plus_half" else -1.0
    signs = {FORM_FACTORED: sign**m, FORM_TAIL_SUM: sign**m, FORM_TAIL_PRODUCT: sign ** (m - 1)}
    baseline = evolution_permutation(word).matrix()
    dense_verdict = all(
        max_abs_diff(mat, signs[label] * baseline) <= CHAIN_TOL for label, mat in dense.items()
    )
    assert coupling_variant_check(word, k, family, CHAIN_TOL) == dense_verdict


def dense_head(word, theta):
    """The word's head exponentials as a dense matrix, by the column gathers the sector blocks use."""
    head = identity(1 << word.n_spins)
    for i, j in word.factors[:-2]:
        head = _times_exps(head, [exchange_permutation(word.n_spins, i, j).map], [theta])
    return head


@pytest.mark.parametrize("theta", [np.pi / 2, 3 * np.pi / 2, 4.5 * np.pi, 0.3, -2.7])
@pytest.mark.parametrize("tail", ["disjoint", "repeated"])
@pytest.mark.parametrize("n", range(4, 10))
def test_tail_sum_blocks_match_dense_contraction(n, tail, theta):
    # the per-sector gate against the full-matrix contraction it replaces
    word = random_commuting_tail_word(600 + n, tail, n)
    dense = (1j ** len(word.factors)) * dense_times_exp_tail_sum(dense_head(word, theta), word, theta)
    assert off_sector_max(dense) == 0.0
    for k, forms in _sector_chain_forms(_SectorMaps(word), theta):
        idx = _sectors(n)[k]
        assert max_abs_diff(forms[FORM_TAIL_SUM], dense[np.ix_(idx, idx)]) <= 1e-15


@pytest.mark.parametrize("theta", [np.pi / 2, 3 * np.pi / 2, 0.37])
@pytest.mark.parametrize("tail", ["disjoint", "repeated"])
@pytest.mark.parametrize("n", range(4, 12))
def test_tail_sum_table_equals_the_per_state_loop(n, tail, theta):
    # each column's terms, tabled and summed row by row, against the loop over the local states
    word = random_commuting_tail_word(900 + n, tail, n)
    states, gate = _tail_sum_gate(word, theta)
    for idx, _, head in every_sector_heads(word, theta):
        table = _times_exp_tail_sum(head, idx, states, gate)
        assert table.tobytes() == loop_times_exp_tail_sum(head, idx, states, gate).tobytes()


def test_times_exps_in_place_equals_fresh_temporaries():
    # _times_exps scales its argument in place, so the chain hands each of the two products it
    # forms from one head a copy; the in-place update is bit for bit the sum of two fresh temporaries
    word = random_commuting_tail_word(0, "disjoint", 6)
    _, factors, head = every_sector_heads(word, 0.37)[3]
    thetas = np.linspace(0.1, 0.9, len(factors))
    out = _times_exps(head.copy(), factors, thetas)
    expected = head
    for q, theta in zip(factors, thetas):
        expected = np.take(expected, q, axis=1) * (-1j * np.sin(theta)) + np.cos(theta) * expected
    assert out.tobytes() == expected.tobytes()


def test_chain_and_coupling_check_build_no_dense_matrix():
    # a dense 2^10 x 2^10 complex matrix takes 16.5 of the largest sector's blocks; each sector
    # is compared or checked as it is formed, so the peak stays within a few such blocks
    word = ExchangeWord(n_spins=10, factors=tuple((i, i + 1) for i in range(1, 10)) + ((1, 2), (3, 4)))
    largest_block = 16 * math.comb(10, 5) ** 2
    checks = (
        (lambda: max(bch_chain(word).values()) < CHAIN_TOL, 10),
        (lambda: coupling_variant_check(word, 1, "plus_three_half"), 10),
        (lambda: 0.0 < perturbation_leakage(word, 0.01) < 1.0, 5.5),
    )
    for check, blocks in checks:
        tracemalloc.start()
        try:
            assert check()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < blocks * largest_block


@pytest.mark.parametrize("tail", ["disjoint", "repeated"])
@pytest.mark.parametrize("k", [-2, 0, 1])
@pytest.mark.parametrize("seed", range(3))
def test_perturbed_blocks_match_dense_oracle(seed, k, tail):
    # the library's product stands for every coupling family (2k + 1/2)*pi
    word = random_commuting_tail_word(200 + seed, tail)
    rng = np.random.default_rng(seed)
    per_factor = tuple(rng.uniform(-0.1, 0.1, len(word.factors)))
    for epsilon in (0.0, 0.013, per_factor):
        dense = dense_perturbed_product(word, epsilon, k)
        assert off_sector_max(dense) == 0.0
        assert max_abs_diff(perturbed_product(word, epsilon), dense) <= DENSE_ORACLE_TOL, epsilon


@pytest.mark.parametrize("tail", ["disjoint", "repeated"])
@pytest.mark.parametrize("k", [-2, 0, 1])
@pytest.mark.parametrize("n", [4, 6, 9])
def test_perturbation_leakage_equals_dense_leakage(n, k, tail):
    word = random_commuting_tail_word(300 + n, tail, n)
    rng = np.random.default_rng(n)
    per_factor = tuple(rng.uniform(-0.1, 0.1, len(word.factors)))
    for epsilon in (0.0, 0.013, -0.3, per_factor):
        leak = perturbation_leakage(word, epsilon)
        assert leak == superposition_leakage(perturbed_product(word, epsilon))
        # the coupling family k is an offset of 2*pi*k: it leaks the same, up to the rounding of its angles
        shifted = perturbation_leakage(word, np.asarray(epsilon) + 2 * np.pi * k)
        assert abs(leak - shifted) <= 1e-13, epsilon


def test_one_spoiled_sector_shows_in_every_result(monkeypatch):
    # scale the gathers of sector 2 of n = 6 only, which sector 4 mirrors: every public result must notice
    word = random_commuting_tail_word(400, "disjoint", 6)
    assert perturbation_leakage(word, 0.02) > 0.0
    assert coupling_variant_check(word, 0, "plus_half")

    def spoil_one_sector(m, factors, thetas):
        out = _times_exps(m, factors, thetas)
        return out * 1.001 if m.shape[0] == math.comb(6, 2) else out

    monkeypatch.setattr(permlog.bch, "_times_exps", spoil_one_sector)
    with pytest.raises(NonUnitaryError):
        perturbation_leakage(word, 0.02)
    assert not coupling_variant_check(word, 0, "plus_half")
    result = bch_chain(word)
    baseline = evolution_permutation(word).matrix()
    for label, mat in assembled_chain_forms(word, np.pi / 2).items():
        assert result[label] == max_abs_diff(mat, baseline), label
    assert result[FORM_FACTORED] > 1e-3


@pytest.mark.parametrize("k", range(4))
def test_a_spoiled_sector_product_fails_the_leakage_of_its_pair(monkeypatch, k):
    # only sector k of each pair (k, 7 - k) is formed and checked for unitarity: a spoil there must be refused
    word = random_commuting_tail_word(400, "disjoint", 7)
    assert perturbation_leakage(word, 0.02) > 0.0

    def spoil_one_sector(m, factors, thetas):
        out = _times_exps(m, factors, thetas)
        return out * 1.001 if m.shape[0] == math.comb(7, k) else out

    monkeypatch.setattr(permlog.bch, "_times_exps", spoil_one_sector)
    with pytest.raises(NonUnitaryError):
        perturbation_leakage(word, 0.02)


def test_one_spoiled_mirror_copy_shows_in_the_tail_sum(monkeypatch):
    # the only mirror copy left is the head that sector 4 of n = 6 takes from sector 2 for its merged
    # tail sum: the tail-sum deviation and the coupling check must notice, the leakage never reads it
    word = random_commuting_tail_word(400, "disjoint", 6)
    mirror = permlog.bch._mirror
    leak, chain = perturbation_leakage(word, 0.02), bch_chain(word)

    def spoil_one_copy(block):
        out = mirror(block)
        return out * 1.001 if block.shape[0] == math.comb(6, 2) else out

    monkeypatch.setattr(permlog.bch, "_mirror", spoil_one_copy)
    assert perturbation_leakage(word, 0.02) == leak
    assert not coupling_variant_check(word, 0, "plus_half")
    result = bch_chain(word)
    baseline = evolution_permutation(word).matrix()
    for label, mat in assembled_chain_forms(word, np.pi / 2).items():
        assert result[label] == max_abs_diff(mat, baseline), label
    assert result[FORM_TAIL_SUM] > 5e-4  # the head is off by a factor 1.001
    assert result[FORM_FACTORED] == chain[FORM_FACTORED] and result[FORM_TAIL_PRODUCT] == chain[FORM_TAIL_PRODUCT]


def for_every_factor(images):
    """A spoiled exchange rule: images(x, n) in place of the images of x under each factor, whatever its spins."""
    def rule(x, n, i, j):
        return np.broadcast_to(images(x, n), np.broadcast_shapes(x.shape, np.shape(i)))
    return rule


# spins 1 -> 2 -> 3 -> 1 on every configuration: it stays in each sector but squares to its inverse
spin_three_cycle = for_every_factor(
    lambda x, n: exchange_configurations(exchange_configurations(x, n, 2, 3), n, 1, 2)
)


def swapping(a, b):
    """Swaps configurations a and b and fixes the rest: an involution, not of a sector if their down counts differ."""
    return for_every_factor(lambda x, n: np.where(x == a, b, np.where(x == b, a, x)))


SMALL_WORDS = (ExchangeWord(3, ((1, 2), (2, 3))), ExchangeWord(2, ((1, 2),)))


@pytest.mark.parametrize(
    "exchange, words",
    [
        pytest.param(spin_three_cycle, SMALL_WORDS[:1], id="spin_three_cycle"),
        pytest.param(swapping(0, 2), SMALL_WORDS, id="leaves_its_sector"),
        # all up and the first configuration of sector 1 hold position 0 in their sectors alike
        pytest.param(swapping(0, 1), SMALL_WORDS, id="swaps_all_up_with_one_down"),
        # all down sent to one spin down, which np.searchsorted places at the all-down sector's only position
        pytest.param(for_every_factor(lambda x, n: np.where(x == (1 << n) - 1, 1, x)), SMALL_WORDS,
                     id="lands_on_a_position_of_its_sector"),
    ],
)
def test_exponential_of_a_non_involution_is_refused(monkeypatch, reference_word, exchange, words):
    # every factor map is checked where it is made; an image outside its sector is refused, not located
    monkeypatch.setattr(permlog.bch, "exchange_configurations", exchange)
    for word in (reference_word, *words):
        with pytest.raises(InvolutionViolation):
            perturbation_leakage(word, 0.01)
    with pytest.raises(InvolutionViolation):
        bch_chain(reference_word)


def test_tail_product_of_a_non_commuting_pair_is_refused(monkeypatch, reference_word):
    # each factor stays an involution, but P12 P23 is a three-cycle: the tail map fails its own check
    def tail_pair_overlaps(x, n, i, j):
        p34 = (i == 3) & (j == 4)
        return exchange_configurations(x, n, np.where(p34, 2, i), np.where(p34, 3, j))

    monkeypatch.setattr(permlog.bch, "exchange_configurations", tail_pair_overlaps)
    assert perturbation_leakage(reference_word) < 1e-12
    with pytest.raises(InvolutionViolation):
        bch_chain(reference_word)
    with pytest.raises(InvolutionViolation):
        coupling_variant_check(reference_word, 0, "plus_half")


@given(repeating_words())
@settings(max_examples=60, deadline=None)
def test_sector_factors_equal_the_position_table_maps(word):
    # each image located by np.searchsorted in its sector, against a 2^N table of sector positions
    factors = _SectorMaps(word).factors
    expected = position_table_factors(word)
    assert len(factors) == word.n_spins + 1
    for k, (maps, reference) in enumerate(zip(factors, expected)):
        assert maps.dtype == np.intp and not maps.flags.writeable
        assert np.array_equal(maps, np.array(reference)), k


def test_sector_factors_build_few_permutations(monkeypatch):
    # the sector factors are plain index maps and the word's permutation is validated once: building
    # the maps constructs no Permutation, evolution_permutation exactly one, and a call well under one
    # per factor and sector, m * (N + 1) = 90 for a 9-factor word at n = 9
    word = ExchangeWord(n_spins=9, factors=tuple((i, i + 1) for i in range(1, 9)) + ((1, 2),))
    counts = []
    post_init = Permutation.__post_init__

    def counting(self):
        counts[-1] += 1
        post_init(self)

    monkeypatch.setattr(Permutation, "__post_init__", counting)
    for call, expected in ((lambda: _SectorMaps(word).factors, 0), (lambda: evolution_permutation(word), 1)):
        counts.append(0)
        call()
        assert counts[-1] == expected
    calls = (
        lambda: bch_chain(word),
        lambda: coupling_variant_check(word, 1, "plus_three_half"),
        lambda: perturbation_leakage(word, 0.01),
    )
    for call in calls:
        counts.append(0)
        call()
    assert max(counts) < len(word.factors) * (word.n_spins + 1), counts


def test_leakage_forms_one_product_per_mirror_pair(monkeypatch):
    # sector N - k takes sector k's leakage: at n = 9 that is 5 sector products and 5 unitarity
    # checks, not 10, and no mirrored copy
    word = ExchangeWord(n_spins=9, factors=tuple((i, i + 1) for i in range(1, 9)) + ((1, 2),))
    sizes, residuals, mirrors = [], [], []
    times_exps, unitarity_residual = permlog.bch._times_exps, permlog.bch._unitarity_residual

    def counting(m, factors, thetas):
        sizes.append(m.shape[0])
        return times_exps(m, factors, thetas)

    def counting_residual(m):
        residuals.append(m.shape[0])
        return unitarity_residual(m)

    monkeypatch.setattr(permlog.bch, "_times_exps", counting)
    monkeypatch.setattr(permlog.bch, "_unitarity_residual", counting_residual)
    monkeypatch.setattr(permlog.bch, "_mirror", mirrors.append)
    perturbation_leakage(word, 0.01)
    assert sorted(sizes) == sorted(residuals) == [math.comb(9, k) for k in range(9 // 2 + 1)]
    assert mirrors == []


# --- spin-flip mirror pairs and the shared sector maps --------------------------------------
#
# The library forms one sector of each pair (k, N - k) and reverses it into the other, and one
# command shares one set of sector maps. The oracles form every sector from its own factor maps.


def mirror_test_word(rng, n):
    """Up to 2n random exchanges on n spins, then a commuting tail pair; spins may be left untouched."""
    def pair(spins):
        return tuple(int(s) for s in rng.choice(spins, 2, replace=False))

    pairs = [pair(range(1, n + 1)) for _ in range(rng.integers(1, 2 * n))]
    rest = [s for s in range(1, n + 1) if s not in pairs[-1]]
    last = pair(rest) if len(rest) >= 2 and rng.random() < 0.5 else pairs[-1]  # disjoint or repeated
    return ExchangeWord(n_spins=n, factors=(*pairs, last))


def assert_mirrored(blocks, n):
    """Sector N - k's block is sector k's with rows and columns reversed, byte for byte."""
    for k in range(n + 1):
        assert _mirror(blocks[k]).tobytes() == blocks[n - k].tobytes(), k


@pytest.mark.parametrize("theta", [np.pi / 2, 3 * np.pi / 2, 4.5 * np.pi])
@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("n", range(2, 11))
def test_chain_blocks_of_mirror_sectors_are_reversed_bit_for_bit(n, seed, theta):
    word = mirror_test_word(np.random.default_rng([n, seed]), n)
    assert_mirrored([head for _, _, head in every_sector_heads(word, theta)], n)
    forms = [forms for _, _, forms in every_sector_chain_forms(word, theta)]
    for label in (FORM_FACTORED, FORM_TAIL_PRODUCT):
        assert_mirrored([f[label] for f in forms], n)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("n", range(2, 11))
def test_perturbed_blocks_of_mirror_sectors_are_reversed_bit_for_bit(n, seed):
    rng = np.random.default_rng([n, seed, 1])
    word = mirror_test_word(rng, n)
    for epsilon in (0.013, -0.3, tuple(rng.uniform(-0.1, 0.1, len(word.factors)))):
        assert_mirrored([block for _, block in every_sector_perturbed_blocks(word, epsilon)], n)


@pytest.mark.parametrize("theta", [np.pi / 2, 3 * np.pi / 2, 4.5 * np.pi])
@pytest.mark.parametrize("n", range(2, 11))
def test_library_blocks_equal_the_every_sector_blocks(n, theta):
    # every block the library forms, the tail-sum blocks formed on mirrored heads included, and
    # every block mirrored from one, is byte for byte the block of the sector's own product
    rng = np.random.default_rng([n, 2])
    word = mirror_test_word(rng, n)
    maps = _SectorMaps(word)
    pairs = list(_mirror_pairs(n))
    formed = [(k, list(forms)) for k, forms in _sector_chain_forms(maps, theta)]
    # sector k of each pair yields every form, then sector N - k != k its tail sum only
    assert formed == [(s, list(CHAIN_FORMS) if s == k else [FORM_TAIL_SUM]) for k, mirror in pairs
                      for s in dict.fromkeys((k, mirror))]
    expected = [forms for _, _, forms in every_sector_chain_forms(word, theta)]
    for k, forms in enumerate(library_chain_forms(word, theta)):
        assert list(forms) == list(expected[k])
        for label, block in forms.items():
            assert block.flags.c_contiguous and block.tobytes() == expected[k][label].tobytes(), (k, label)
    per_factor = tuple(rng.uniform(-0.1, 0.1, len(word.factors)))
    for epsilon in (0.013, per_factor):
        assert [k for k, _ in _perturbed_blocks(maps, epsilon)] == [k for k, _ in pairs]
        expected = every_sector_perturbed_blocks(word, epsilon)
        for k, block in enumerate(library_perturbed_blocks(word, epsilon)):
            assert block.flags.c_contiguous and block.tobytes() == expected[k][1].tobytes(), k


PAIR_THETAS = {np.pi / 2: 1.0, 3 * np.pi / 2: -1.0, 4.5 * np.pi: 1.0}  # each coupling and its family's sign


@pytest.mark.parametrize("n", range(2, 11))
def test_pair_leakage_equals_the_every_sector_leakage(n):
    # a leakage taken from one sector of each mirror pair, against every sector's own block
    rng = np.random.default_rng([n, 4])
    word = mirror_test_word(rng, n)
    for epsilon in (0.013, -0.3, tuple(rng.uniform(-0.1, 0.1, len(word.factors)))):
        blocks = every_sector_perturbed_blocks(word, epsilon)
        assert perturbation_leakage(word, epsilon) == max(superposition_leakage(block) for _, block in blocks)


@pytest.mark.parametrize("theta", PAIR_THETAS)
@pytest.mark.parametrize("n", range(2, 11))
def test_pair_deviations_equal_the_every_sector_deviations(n, theta):
    # the factored and tail-product deviations of sector N - k read from sector k's, against every sector's own
    word = mirror_test_word(np.random.default_rng([n, 5]), n)
    sign = PAIR_THETAS[theta]
    deviations = _SectorMaps(word)._form_deviations(theta, sign)
    assert list(deviations.items()) == list(every_sector_form_deviations(word, theta, sign).items())


@pytest.mark.parametrize("n", range(2, 11))
def test_mirrored_blocks_have_their_partners_unitarity_residual(n):
    # J M J is unitary exactly when M is; the residuals of the unformed mirrored blocks, against their partners'
    rng = np.random.default_rng([n, 6])
    word = mirror_test_word(rng, n)
    sectors = [[block for _, block in every_sector_perturbed_blocks(word, epsilon)]
               for epsilon in (0.013, tuple(rng.uniform(-0.1, 0.1, len(word.factors))))]
    for theta in PAIR_THETAS:
        forms = [forms for _, _, forms in every_sector_chain_forms(word, theta)]
        sectors += [[f[label] for f in forms] for label in (FORM_FACTORED, FORM_TAIL_PRODUCT)]
    for blocks in sectors:
        for k, mirror in _mirror_pairs(n):
            assert abs(_unitarity_residual(blocks[mirror]) - _unitarity_residual(blocks[k])) <= 1e-14, k


@pytest.mark.parametrize("tail", ["disjoint", "repeated"])
@pytest.mark.parametrize("n", range(4, 10))
def test_shared_sector_maps_match_the_every_sector_path(n, tail):
    # one set of maps serves the chain, both coupling families and the leakages, as in the bch
    # command; each result equals the every-sector evaluation bit for bit
    word = random_commuting_tail_word(700 + n, tail, n)
    per_factor = tuple(np.random.default_rng(n).uniform(-0.1, 0.1, len(word.factors)))
    maps = _SectorMaps(word)
    assert list(maps.chain(0.37).items()) == list(every_sector_chain(word, 0.37).items())
    for family, sign in zip(COUPLING_FAMILIES, (1.0, -1.0)):
        for k in (-1, 0, 1):
            theta = (2 * k + (0.5 if family == "plus_half" else 1.5)) * np.pi
            deviations = every_sector_form_deviations(word, theta, sign)
            assert list(maps._form_deviations(theta, sign).items()) == list(deviations.items())
            for tol in (CHAIN_TOL, min(deviations.values())):  # a tolerance that some form fails, if any differs
                verdict = all(dev <= tol for dev in deviations.values())
                assert maps.coupling_check(k, family, tol) == verdict
                assert coupling_variant_check(word, k, family, tol) == verdict
    for epsilon in (0.0, 0.013, -0.3, per_factor):
        leak = every_sector_leakage(word, epsilon)
        assert maps.leakage(epsilon) == leak
        assert perturbation_leakage(word, epsilon) == leak


def test_zero_plus_half_check_reads_the_chain(monkeypatch):
    # theta = (2*0 + 1/2)*pi is pi/2 exactly and every sign is +1: the check forms no block again
    word = random_commuting_tail_word(800, "disjoint", 7)
    maps = _SectorMaps(word)
    assert (2 * 0 + 0.5) * np.pi == np.pi / 2
    chain = maps.chain(1.0)

    def refuse(*args):
        raise AssertionError("formed the chain's blocks again")

    monkeypatch.setattr(permlog.bch, "_sector_chain_forms", refuse)
    assert maps.coupling_check(0, "plus_half", CHAIN_TOL) == (max(list(chain.values())[:3]) <= CHAIN_TOL)
    with pytest.raises(AssertionError, match="formed the chain's blocks again"):
        maps.coupling_check(1, "plus_half", CHAIN_TOL)
