"""The array format of Permutation and the vectorised constructors built on it.

The per-configuration definitions below are the oracles: each constructor is
one array expression, compared here with the loop it replaced.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permlog.cogwheel import shift_permutation
from permlog.permutation import Permutation
from permlog.spins import SPIN_CAP, exchange_permutation, spinflip


def swap_bits_oracle(n_spins, i, j):
    """Swap the bits of spins i and j, one configuration at a time."""
    pos_a, pos_b = n_spins - i, n_spins - j
    images = []
    for x in range(1 << n_spins):
        if ((x >> pos_a) & 1) != ((x >> pos_b) & 1):
            x ^= (1 << pos_a) | (1 << pos_b)
        images.append(x)
    return tuple(images)


def ref_mul(p, q):
    return tuple(p[x] for x in q)


def ref_inverse(p):
    inv = [0] * len(p)
    for src, dst in enumerate(p):
        inv[dst] = src
    return tuple(inv)


def ref_pow(p, k):
    base = p if k >= 0 else ref_inverse(p)
    out = tuple(range(len(p)))
    for _ in range(abs(k)):
        out = ref_mul(out, base)
    return out


def ref_cycles(p):
    seen, out = set(), []
    for start in range(len(p)):
        if start in seen:
            continue
        cyc, x = [start], p[start]
        seen.add(start)
        while x != start:
            cyc.append(x)
            seen.add(x)
            x = p[x]
        out.append(tuple(cyc))
    return tuple(out)


# --- the stored array -----------------------------------------------------------


def test_map_is_a_read_only_intp_vector():
    p = Permutation((2, 0, 1))
    assert p.map.dtype == np.intp
    assert p.map.shape == (3,)
    with pytest.raises(ValueError):
        p.map[0] = 1


def test_constructor_copies_its_input():
    source = np.array([1, 2, 0])
    p = Permutation(source)
    source[:] = [0, 1, 2]
    assert p.map.tolist() == [1, 2, 0]
    assert source.flags.writeable  # the caller's array is left as it was given


def test_equal_permutations_compare_and_hash_equal():
    a = Permutation((1, 0, 2))
    b = Permutation(np.array([1, 0, 2], dtype=np.int32))
    c = Permutation([1, 0, 2])
    assert a == b == c
    assert hash(a) == hash(b) == hash(c)
    assert len({a, b, c}) == 1
    assert a != Permutation((0, 2, 1))
    assert a != (1, 0, 2)


EMPTY, FLAT, BIJECTION, INTEGERS = (
    "a permutation needs at least one point", "map must be one-dimensional", "map is not a bijection on 0..n-1",
    "map entries must be integers",
)


@pytest.mark.parametrize(
    "bad, message",
    [
        ((), EMPTY), (np.array([], dtype=int), EMPTY), (((0, 1), (1, 0)), FLAT), (np.eye(2, dtype=int), FLAT),
        ((0, 0, 1), BIJECTION), ((0, 1, 3), BIJECTION), ((-1, 0), BIJECTION), ((2**70, 0), BIJECTION),
        ((0.5, 1.5), INTEGERS), ((True, False), INTEGERS),
    ],
    ids=["empty", "empty-array", "2d-tuple", "2d-array", "duplicate", "out-of-range", "negative", "beyond-intp",
         "floats", "bools"],
)
def test_bad_input_is_refused(bad, message):
    # an empty sequence reads as floats, so its refusal shows that the size is checked before the dtype
    with pytest.raises(ValueError) as err:
        Permutation(bad)
    assert str(err.value).startswith(message)


def test_public_results_are_python_ints():
    p = Permutation(np.array([1, 2, 0, 3]))
    assert type(p(0)) is int and p(0) == 1
    assert all(type(x) is int for cyc in p.cycles() for x in cyc)
    assert type(p.size) is int and type(p.order()) is int


@pytest.mark.parametrize("point", [-1, 4, 1.0, True])
def test_call_refuses_a_point_outside_0_to_n_minus_1(point):
    # numpy would read -1 as the last point and True as a mask
    with pytest.raises(ValueError, match=r"^point must be an integer in 0\.\.3, got "):
        shift_permutation(4)(point)


# --- vectorised constructors against their per-configuration definitions --------


@pytest.mark.parametrize("n", range(2, SPIN_CAP + 1))
def test_exchange_permutation_matches_bit_swap_loop(n):
    for i, j in itertools.combinations(range(1, n + 1), 2):
        assert exchange_permutation(n, i, j).map.tolist() == list(swap_bits_oracle(n, i, j))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, SPIN_CAP])
def test_spinflip_matches_xor_loop(n):
    mask = (1 << n) - 1
    assert spinflip(n).map.tolist() == [x ^ mask for x in range(1 << n)]


@pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 1 << SPIN_CAP])
def test_shift_permutation_matches_modular_loop(n):
    assert shift_permutation(n).map.tolist() == [(m + 1) % n for m in range(n)]


# --- operations against tuple-based reference code ------------------------------


@st.composite
def permutation_pairs(draw):
    n = draw(st.integers(1, 12))
    p = tuple(draw(st.permutations(range(n))))
    q = tuple(draw(st.permutations(range(n))))
    return p, q


@given(permutation_pairs(), st.integers(-7, 7))
@settings(max_examples=150, deadline=None)
def test_operations_match_tuple_reference(pair, k):
    p, q = pair
    pp, qq = Permutation(p), Permutation(q)
    assert (pp * qq).map.tolist() == list(ref_mul(p, q))
    assert pp.inverse().map.tolist() == list(ref_inverse(p))
    assert (pp**k).map.tolist() == list(ref_pow(p, k))
    assert pp.cycles() == ref_cycles(p)
    assert pp.is_identity() == (p == tuple(range(len(p))))
    assert np.array_equal(pp.matrix() @ qq.matrix(), (pp * qq).matrix())


def test_cycles_are_computed_once_per_instance():
    p = Permutation((1, 0, 3, 4, 5, 2))
    assert p.cycles() is p.cycles()
    assert p.cycles() == ((0, 1), (2, 3, 4, 5))
    assert all(type(x) is int for cycle in p.cycles() for x in cycle)
