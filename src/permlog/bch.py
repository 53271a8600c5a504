"""Terminating exponential-product identities for exchange words.

Every exchange P is an involution, so P = i * exp(-i*(pi/2)*P) exactly, and a
word of m factors equals i^m times a product of exponentials. When the last
two factors commute they can be merged into a single exponential of their sum
or of their product, and the whole word equals the single exponential of the
assembled Hamiltonian: four closed forms, no infinite commutator series.

Each form is evaluated from the structure of its factors rather than as a
dense 2^N x 2^N product. An exchange never changes how many spins are down, so
every product of exchange exponentials is block diagonal over the N + 1
sectors of fixed down count, of sizes C(N, k). The products are formed one
square block per sector, and each sector is used before the next is formed:
multiplying by exp(-i*theta*P) for an exchange P is one column gather within
the block, the merged tail sum is a local gate on the at most four spins it
touches, and exp(-i*T*H) is taken once per distinct cycle length. Only the
functions given a dense matrix form one; the dense products remain in the tests
as independent oracles.

Perturbing the pi/2 couplings breaks the closed forms: the product stops being
a phased permutation, quantified by :func:`superposition_leakage`.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import repeat
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

from .cogwheel import shift_permutation
from .dynamics import (
    ExchangeWord,
    evolution_permutation,
    polynomial_matrix,
    uniform_polynomial_form,
)
from .linalg import (
    DEFAULT_EQ_TOL,
    DEFAULT_UNITARITY_TOL,
    InvolutionViolation,
    NonUnitaryError,
    as_matrix,
    dagger,
    expm,
    identity,
    max_abs_diff,
)
from .permutation import Permutation
from .spins import exchange_permutation, number_down

FORM_FACTORED = "exp_each_factor"
FORM_TAIL_SUM = "exp_tail_sum"
FORM_TAIL_PRODUCT = "exp_tail_product"
FORM_HAMILTONIAN = "exp_hamiltonian"

COUPLING_FAMILIES = ("plus_half", "plus_three_half")


class PreconditionViolation(ValueError):
    """The word does not meet the structural requirements of a requested form."""


@lru_cache(maxsize=None)
def _sectors(n_spins: int) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """The configurations with k down spins for k = 0..N, ascending, and each one's sector position.

    Built on first use and cached, one entry per spin count (at most SPIN_CAP - 1 of
    them); the arrays are read-only.
    """
    counts = number_down(n_spins)
    order = np.argsort(counts, kind="stable")
    members = tuple(np.split(order, np.cumsum(np.bincount(counts))[:-1]))
    position = np.empty(order.size, dtype=np.intp)
    for idx in members:
        position[idx] = np.arange(idx.size)
    for a in (*members, position):
        a.flags.writeable = False
    return members, position


def _involution(q: np.ndarray) -> np.ndarray:
    """q made read-only, once checked to be an involution of 0..q.size-1 (and so a bijection of it)."""
    if q.min() < 0 or q.max() >= q.size or not np.array_equal(q[q], np.arange(q.size)):
        raise InvolutionViolation("the sector map is not an involution of its sector")
    q.flags.writeable = False
    return q


def _local_factors(word: ExchangeWord) -> Iterator[tuple[np.ndarray, list[np.ndarray]]]:
    """Each down-count sector's configurations and the word's factors restricted to it, one sector at a time.

    Each factor is an index map of sector positions, checked once where it is made:
    a factor that left its sector or did not square to the identity yields no block.
    """
    members, position = _sectors(word.n_spins)
    maps = [exchange_permutation(word.n_spins, i, j).map for i, j in word.factors]
    return ((idx, [_involution(position[q[idx]]) for q in maps]) for idx in members)


def _times_exps(m: np.ndarray, factors: Sequence[np.ndarray], thetas: Iterable[float]) -> np.ndarray:
    """m @ exp(-i*theta_1*P_1) @ exp(-i*theta_2*P_2) @ ..., one column gather per involution map P_f.

    exp(-i*theta*P) = cos(theta)*I - i*sin(theta)*P, and (m @ P)[:, x] = m[:, P(x)],
    so each factor costs O(dim^2) instead of a dense O(dim^3) matrix product.
    """
    for q, theta in zip(factors, thetas):
        out = np.take(m, q, axis=1)
        out *= -1j * np.sin(theta)
        out += np.cos(theta) * m
        m = out
    return m


def _tail_sum_gate(word: ExchangeWord, theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Each local state's configuration, and the gate exp(-i*theta*(P_last2 + P_last)) on the tail spins.

    The sum acts on the k <= 4 spins the tail touches, so its 2^N x 2^N exponential
    is this 2^k x 2^k gate times the identity on the rest. states[y] puts down the
    tail spins that local state y does; spin 1 is the most significant bit in both.
    """
    spins = sorted(set(word.factors[-2]) | set(word.factors[-1]))
    k = len(spins)
    local = {s: r for r, s in enumerate(spins, start=1)}
    tail_sum = sum(exchange_permutation(k, local[i], local[j]).matrix() for i, j in word.factors[-2:])
    states = sum((np.arange(1 << k) >> (k - r) & 1) << (word.n_spins - s) for s, r in local.items())
    return states, expm(-1j * theta * tail_sum)


def _times_exp_tail_sum(m: np.ndarray, idx: np.ndarray, states: np.ndarray, gate: np.ndarray) -> np.ndarray:
    """m @ exp(-i*theta*(P_last2 + P_last)) for m the block of the sector with configurations idx.

    Column x of the product sums m[:, rest(x) | states[y]] * gate[y, local(x)] over the
    y with a nonzero weight, rest(x) being x with the tail spins up. The gate keeps the
    tail spins' down count, so every y that would leave the sector has weight exactly 0.
    """
    tail = idx & states[-1]
    rest, local = idx ^ tail, np.searchsorted(states, tail)
    out = np.zeros_like(m)
    for y, state in enumerate(states):
        weights = gate[y, local]
        cols = np.flatnonzero(weights)
        out[:, cols] += m[:, np.searchsorted(idx, rest[cols] | state)] * weights[cols]
    return out


def _require_commuting_tail(word: ExchangeWord) -> None:
    """Two exchanges commute exactly when their spin pairs are equal or disjoint."""
    if len(word.factors) < 2:
        raise PreconditionViolation("merged-tail forms need at least two factors")
    (i1, j1), (i2, j2) = word.factors[-2], word.factors[-1]
    pair, other = {i1, j1}, {i2, j2}
    if pair != other and pair & other:
        raise PreconditionViolation(
            f"the last two factors P{i1}{j1} and P{i2}{j2} do not commute"
        )


def _sector_chain_forms(word: ExchangeWord, theta: float) -> Iterator[tuple[list[np.ndarray], dict]]:
    """Each sector's local factors and its blocks of the three factored forms at coupling theta (tail checked)."""
    m = len(word.factors)
    states, gate = _tail_sum_gate(word, theta)
    for idx, factors in _local_factors(word):
        head = _times_exps(identity(idx.size), factors[:-2], repeat(theta))
        yield factors, {
            FORM_FACTORED: (1j**m) * _times_exps(head, factors[-2:], repeat(theta)),
            FORM_TAIL_SUM: (1j**m) * _times_exp_tail_sum(head, idx, states, gate),
            FORM_TAIL_PRODUCT: (1j ** (m - 1)) * _times_exps(head, [_involution(factors[-2][factors[-1]])], [theta]),
        }


def _form_deviations(word: ExchangeWord, theta: float, signs: dict[str, float]) -> dict[str, float]:
    """Each factored form's largest departure from signs[label] times the product, sector by sector."""
    deviations: dict[str, float] = {}
    for factors, forms in _sector_chain_forms(word, theta):
        # the sector's block of the evolution permutation, as the product of its local
        # factors; evolution_permutation would warn about untouched spins again
        base = Permutation(reduce(np.take, factors)).matrix()
        for label, block in forms.items():
            dev = max_abs_diff(block, signs[label] * base)
            deviations[label] = max(deviations.get(label, dev), dev)
    return deviations


def bch_chain(word: ExchangeWord, timestep: float = 1.0) -> dict[str, float]:
    """Evaluate the closed exponential forms of a word and compare to the plain product.

    Forms, for a word of m factors whose last two commute:
      * exp_each_factor:  i^m * prod_f exp(-i*(pi/2)*P_f)
      * exp_tail_sum:     i^m * (head exponentials) * exp(-i*(pi/2)*(P_last2 + P_last))
      * exp_tail_product: i^(m-1) * (head exponentials) * exp(-i*(pi/2)*P_last2 @ P_last)
      * exp_hamiltonian:  exp(-i*T*H) with H the uniform polynomial Hamiltonian
    All four equal the permutation product exactly. The result maps each form, in
    this order, to its worst entrywise departure from the product actually observed.
    The first three forms are compared with the product sector by sector,
    exp_hamiltonian once per cycle length L: on every such cycle H is sum_k c_k S^k
    for the L-point shift S.
    """
    _require_commuting_tail(word)
    perm = evolution_permutation(word)
    coeffs = uniform_polynomial_form(perm, timestep)
    signs = dict.fromkeys((FORM_FACTORED, FORM_TAIL_SUM, FORM_TAIL_PRODUCT), 1.0)
    deviations = _form_deviations(word, np.pi / 2, signs)
    shifts = [shift_permutation(length) for length in sorted(set(perm.cycle_lengths()))]
    deviations[FORM_HAMILTONIAN] = max(
        max_abs_diff(expm(-1j * timestep * polynomial_matrix(s, coeffs)), s.matrix()) for s in shifts
    )
    return deviations


def coupling_variant_check(word: ExchangeWord, k: int, family: str, tol: float = DEFAULT_EQ_TOL) -> bool:
    """Check the factored forms at coupling (2k + 1/2)*pi or (2k + 3/2)*pi.

    The first family reproduces the permutation product as-is. The second
    flips the sign of every single-factor exponential, so the expected result
    is (-1)^m times the product for the factored and tail-sum forms and
    (-1)^(m-1) times it for the tail-product form (one fewer exponential).
    The check applies those signs and confirms equality within tol.
    """
    if family not in COUPLING_FAMILIES:
        raise ValueError(f"family must be one of {COUPLING_FAMILIES}, got {family!r}")
    _require_commuting_tail(word)
    theta = (2 * k + (0.5 if family == "plus_half" else 1.5)) * np.pi
    m, sign = len(word.factors), (1.0 if family == "plus_half" else -1.0)
    signs = {FORM_FACTORED: sign**m, FORM_TAIL_SUM: sign**m, FORM_TAIL_PRODUCT: sign ** (m - 1)}
    return all(dev <= tol for dev in _form_deviations(word, theta, signs).values())


def superposition_leakage(m) -> float:
    """How far a unitary is from a phased permutation, in [0, 1].

    The worst column's missing weight: max over columns j of
    1 - max over rows i of |M_ij|^2. Zero exactly on phased permutation
    matrices; 1/2 on an equal-weight two-state mixer. Raises NonUnitaryError
    unless M is unitary within DEFAULT_UNITARITY_TOL.
    """
    m = as_matrix(m)
    dev = max_abs_diff(m @ dagger(m), identity(m.shape[0]))
    if dev > DEFAULT_UNITARITY_TOL:
        raise NonUnitaryError(f"matrix is unitary only within {dev:.3e}")
    column_peaks = (np.abs(m) ** 2).max(axis=0)
    return float(min(1.0, max(0.0, (1.0 - column_peaks).max())))


def _perturbed_blocks(word: ExchangeWord, epsilon: Union[float, Sequence[float]]) -> Iterator[np.ndarray]:
    """The sector blocks of :func:`perturbation_leakage`'s product, one at a time; the offsets are checked at once."""
    m = len(word.factors)
    offsets = np.asarray(epsilon, dtype=float)
    if offsets.ndim == 0:
        offsets = np.full(m, offsets)
    if offsets.shape != (m,):
        raise ValueError(f"need one offset or {m} of them, got shape {offsets.shape}")
    if not np.all(np.isfinite(offsets)):
        raise ValueError("offsets must be finite")
    thetas = 0.5 * np.pi + offsets
    phase = 1j**m  # a power of i multiplies exactly, so it is applied once
    return (phase * _times_exps(identity(idx.size), factors, thetas) for idx, factors in _local_factors(word))


def perturbation_leakage(word: ExchangeWord, epsilon: Union[float, Sequence[float]] = 0.0) -> float:
    """:func:`superposition_leakage` of the product, in word order, of i * exp(-i*(pi/2 + epsilon_f) * P_f).

    epsilon is one offset for every factor or one per factor. The product is the exact
    permutation product at zero offsets, and any nonzero offset generically leaks weight
    off it. It is block diagonal over the down-count sectors, so each block is checked
    for unitarity with the same tolerance and no column's peak lies outside its block:
    the leakage is the largest of the blocks' leakages.
    """
    return max(superposition_leakage(block) for block in _perturbed_blocks(word, epsilon))
