"""Terminating exponential-product identities for exchange words.

Every exchange P is an involution, so P = i * exp(-i*(pi/2)*P) exactly, and a
word of m factors equals i^m times a product of exponentials. When the last
two factors commute they can be merged into a single exponential of their sum
or of their product, and the whole word equals the single exponential of the
assembled Hamiltonian: four closed forms, no infinite commutator series.

An exchange never changes how many spins are down, so each factor acts on each
of the N + 1 sectors of fixed down count, of sizes C(N, k), as an index map of
the sector's positions: the exchange rule applied to the sector's ascending
configurations, every image located among them by np.searchsorted. A word's maps
are built and checked once per command: each factor's map, and each sector's map
of the merged tail product, must be an involution of its sector. That integer
check is what makes the factored forms exact at a coupling (2k + 1/2)*pi or
(2k + 3/2)*pi, where each factor i*exp(-i*theta*P) is +-P up to the rounding of
cos(theta) and sin(theta). So each form's deviation is a closed function of those
two floats and of the 2^j x 2^j gate (j <= 4) of the merged tail sum, and neither
the chain nor a coupling check forms a sector product. exp(-i*T*H) is taken once
per distinct cycle length.

Perturbing the pi/2 couplings breaks the closed forms: the product stops being
a phased permutation, quantified by :func:`superposition_leakage`. The leakage is
the one result that needs a matrix, and every leakage of a sweep comes from one
pass over the sectors. The spin flip commutes with every exchange and maps sector
k's configurations onto sector N - k's in reverse order, so sector N - k's block
is J M J, bit for bit, for sector k's block M and the reversal J: its leakage is
the same entries permuted, and J M J is unitary exactly when M is. Hence only
sector k of each mirror pair (k, N - k) is formed and checked. Its blocks for
several sweep steps are stacked, as many as fit in one block of the largest
sector, and held transposed, so that multiplying by exp(-i*theta*P) is one row
gather per factor into the second of two work blocks allocated once per call.
The phase i^m changes neither |M| nor M M^dagger, so it is not applied. The dense
products, the one-step products and the measured sector products the closed forms
replace remain in the tests as independent oracles.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from typing import Iterator, Sequence, Union

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
    _check_positive,
    as_matrix,
    expm,
    max_abs_diff,
)
from .permutation import _is_integer
from .spins import exchange_configurations, exchange_permutation, number_down

FORM_FACTORED = "exp_each_factor"
FORM_TAIL_SUM = "exp_tail_sum"
FORM_TAIL_PRODUCT = "exp_tail_product"
FORM_HAMILTONIAN = "exp_hamiltonian"

COUPLING_FAMILIES = ("plus_half", "plus_three_half")


class PreconditionViolation(ValueError):
    """The word does not meet the structural requirements of a requested form."""


@lru_cache(maxsize=None)
def _sectors(n_spins: int) -> tuple[np.ndarray, ...]:
    """The configurations with k down spins for k = 0..N, ascending.

    Cached per spin count (at most SPIN_CAP - 1 entries); the arrays are read-only."""
    counts = number_down(n_spins)
    order = np.argsort(counts, kind="stable")
    members = tuple(np.split(order, np.cumsum(np.bincount(counts))[:-1]))
    for idx in members:
        idx.flags.writeable = False
    return members


def _involution(q: np.ndarray) -> np.ndarray:
    """q made read-only, once checked along its last axis to be an involution of 0..n-1 (so a bijection of it)."""
    n = q.shape[-1]
    if q.min() < 0 or q.max() >= n or not (np.take_along_axis(q, q, axis=-1) == np.arange(n)).all():
        raise InvolutionViolation("the sector map is not an involution of its sector")
    q.flags.writeable = False
    return q


def _tail_sum_gate(word: ExchangeWord, theta: float) -> tuple[np.ndarray, np.ndarray]:
    """The gate exp(-i*theta*(P_a + P_b)) of the last two factors on the j <= 4 spins they touch, and P_a P_b there.

    The sum acts on those spins only, so its 2^N x 2^N exponential is this 2^j x 2^j gate
    times the identity on the rest; spin 1 is the most significant bit of a local state.
    """
    spins = sorted(set(word.factors[-2]) | set(word.factors[-1]))
    local = {s: r for r, s in enumerate(spins, start=1)}
    p_a, p_b = (exchange_permutation(len(spins), local[i], local[j]).matrix() for i, j in word.factors[-2:])
    return expm(-1j * theta * (p_a + p_b)), p_a @ p_b


def _require_commuting_tail(word: ExchangeWord) -> None:
    """Two exchanges commute exactly when their spin pairs are equal or disjoint."""
    if len(word.factors) < 2:
        raise PreconditionViolation("merged-tail forms need at least two factors")
    (i1, j1), (i2, j2) = word.factors[-2], word.factors[-1]
    pair, other = {i1, j1}, {i2, j2}
    if pair != other and pair & other:
        raise PreconditionViolation(f"the last two factors P{i1}{j1} and P{i2}{j2} do not commute")


def _mirror_pairs(n_spins: int) -> Iterator[tuple[int, int]]:
    """The sector pairs (k, N - k) for k = 0..N//2; for an even N the middle sector pairs with itself."""
    return ((k, n_spins - k) for k in range(n_spins // 2 + 1))


def _check_offsets(epsilon: Union[float, Sequence[float]], n_factors: int) -> np.ndarray:
    """The coupling offsets, one per factor: epsilon is one finite offset for every factor or n_factors of them."""
    offsets = np.asarray(epsilon, dtype=float)
    if offsets.ndim == 0:
        offsets = np.full(n_factors, offsets)
    if offsets.shape != (n_factors,):
        raise ValueError(f"need one offset or {n_factors} of them, got shape {offsets.shape}")
    if not np.all(np.isfinite(offsets)):
        raise ValueError("offsets must be finite")
    return offsets


class _SectorMaps:
    """A word's index maps in every down-count sector, built on first use and shared by one command.

    factors[k] holds, in row f, factor f restricted to sector k as an index map of the
    sector's positions: the exchange rule applied to the sector's configurations, each image
    located among them by np.searchsorted. Each map is checked once where it is made: a
    factor that leaves its sector or does not square to the identity yields no map.
    tail_products[k] holds the sector's map of the merged tail product, checked the same way.
    Only index maps are kept, never a block.
    """

    def __init__(self, word: ExchangeWord):
        self.word = word
        self.members = _sectors(word.n_spins)

    @cached_property
    def factors(self) -> list[np.ndarray]:
        n = self.word.n_spins
        i, j = np.array(self.word.factors).T[:, :, None]  # one label row per factor: one row of images each
        maps = []
        for idx in self.members:
            images = exchange_configurations(idx, n, i, j)
            q = np.searchsorted(idx, images)
            q[idx[np.minimum(q, idx.size - 1)] != images] = -1  # an image outside the sector: refused below
            maps.append(_involution(q))
        return maps

    @cached_property
    def tail_products(self) -> list[np.ndarray]:
        return [_involution(f[-2][f[-1]]) for f in self.factors]

    def chain(self, timestep: float) -> dict[str, float]:
        """:func:`bch_chain` of the word."""
        word = self.word
        perm = evolution_permutation(word)  # first, so a word refused below still warns of untouched spins
        _require_commuting_tail(word)
        coeffs = uniform_polynomial_form(perm, timestep)
        deviations = self._form_deviations(np.pi / 2, 1.0)
        shifts = [shift_permutation(length) for length in perm.cycles_by_length]
        deviations[FORM_HAMILTONIAN] = max(
            max_abs_diff(expm(-1j * timestep * polynomial_matrix(s, coeffs)), s.matrix()) for s in shifts
        )
        return deviations

    def coupling_check(self, k: int, family: str, tol: float) -> bool:
        """:func:`coupling_variant_check` of the word."""
        if family not in COUPLING_FAMILIES:
            raise ValueError(f"family must be one of {COUPLING_FAMILIES}, got {family!r}")
        if not _is_integer(k):  # exp(-i*(theta + 2*pi*k)*P) = exp(-i*theta*P) needs an integer k
            raise ValueError(f"k must be an integer, got {k!r}")
        if abs(k) >= 2**51:  # beyond it 2k + 1/2 is not exact in a float, and the tail gate's expm overflows
            raise ValueError(f"k must be below 2**51 in magnitude, got {k!r}")
        _check_positive(tol, "tolerance")
        _require_commuting_tail(self.word)
        theta = (2 * k + (0.5 if family == "plus_half" else 1.5)) * np.pi
        sign = 1.0 if family == "plus_half" else -1.0
        return all(dev <= tol for dev in self._form_deviations(theta, sign).values())

    def leakage(self, epsilon: Union[float, Sequence[float]]) -> float:
        """:func:`perturbation_leakage` of the word."""
        return self.leakages([epsilon])[0]

    def leakages(self, offsets: Sequence[Union[float, Sequence[float]]]) -> list[float]:
        """:func:`perturbation_leakage` of the word at each offset, from one pass over the mirror sectors.

        Every offset is checked before the first block is formed.
        """
        m = len(self.word.factors)
        thetas = 0.5 * np.pi + np.array([_check_offsets(eps, m) for eps in offsets])
        leaks = np.zeros(len(thetas))
        for steps, product, free in self._stacked_products(thetas):
            np.maximum(leaks[steps], _leakages(product, free), out=leaks[steps])
        return leaks.tolist()

    def _stacked_products(self, thetas: np.ndarray) -> Iterator[tuple[slice, np.ndarray, np.ndarray]]:
        """The steps, the product and the free work block of each chunk of sector k of each mirror pair.

        thetas holds one row of couplings per step. The product is the (steps, d, d) stack of the
        transposes M^T of sector k's blocks M = exp(-i*theta_1*P_1) @ exp(-i*theta_2*P_2) @ ... of
        those steps, d = C(N, k). A chunk holds as many steps as fit in one block of the largest
        sector, and every chunk is a view of the same two work blocks, so the caller reads it
        before the next one. exp(-i*theta*P) = cos(theta)*I - i*sin(theta)*P, and
        (M @ P)^T = P @ M^T is the row gather M^T[q] for P's index map q: each factor costs the
        gather into the free block, its scaling by -i*sin(theta), and the old block scaled by
        cos(theta) and added, and allocates nothing. The maps are checked to lie in range, so
        mode="wrap" never wraps (mode="raise" would buffer the gather).
        """
        # np.cos and np.sin of each angle alone, as a vectorised loop may round differently; complex, so that
        # scaling a block casts nothing
        cosines = np.array([[np.cos(t) for t in row] for row in thetas], dtype=complex)
        sines = np.array([[-1j * np.sin(t) for t in row] for row in thetas], dtype=complex)
        largest = max(idx.size for idx in self.members) ** 2
        work = np.empty((2, largest), dtype=complex)
        for k, _ in _mirror_pairs(self.word.n_spins):
            d = self.members[k].size
            count = largest // (d * d)
            for start in range(0, len(thetas), count):
                steps = slice(start, min(start + count, len(thetas)))
                a, b = (w[: (steps.stop - start) * d * d].reshape(-1, d, d) for w in work)
                a.fill(0)
                a.reshape(-1, d * d)[:, :: d + 1] = 1
                for f, q in enumerate(self.factors[k]):
                    np.take(a, q, axis=1, out=b, mode="wrap")
                    b *= sines[steps, f, None, None]
                    a *= cosines[steps, f, None, None]
                    b += a
                    a, b = b, a
                yield steps, a, b

    def _form_deviations(self, theta: float, sign: float) -> dict[str, float]:
        """Each factored form's largest entrywise departure from its sign times the product.

        The factored and tail-sum forms carry sign^m, the tail-product form sign^(m-1). Every
        factor map and tail-product map is read first, and so checked in integers to be an
        involution of its sector: that is what makes each form exact. Each factor
        i*exp(-i*theta*P) is then i*c + s*P for the floats c = cos(theta) and s = sin(theta):
        sign*P plus a departure i*c + (s - sign)*P, at most delta = |c| + |s - sign| in any row's
        l1 norm. To first order in delta, and with no sector product formed:
          * exp_each_factor departs by m*delta and exp_tail_product by (m - 1)*delta. A first-order
            term is the product with one factor's sign*P replaced by its departure, so it holds at
            most delta in any entry. Every exchange fixes the all-up configuration, where all m
            (or m - 1) terms add up alike, and no entry collects more.
          * exp_tail_sum is head @ G, for the m - 2 head factors and the 2^j x 2^j gate
            G = exp(-i*theta*(P_a + P_b)) of the tail, whose ideal is (-i*sign)^2 * P_a P_b = -P_a P_b.
            Every term of the head's departure is a phased permutation, so each of its rows has
            l1 norm at most (1 + delta)^(m-2) - 1, and G's entries are at most 1 + g for
            g = max |G + P_a P_b|. G's departure, tensored with the identity on the other spins,
            keeps g as its largest entry, and the head's ideal only permutes its rows. So
            ((1 + delta)^(m-2) - 1) * (1 + g) + g bounds the form's departure.
        (1 + delta)^(m-2) - 1 is taken as expm1((m - 2) * log1p(delta)): at theta = pi/2,
        delta = 6.1e-17 and 1 + delta rounds to 1. s rounds to sign exactly for every |k| < 1.2e7.
        """
        self.tail_products  # builds and checks every factor map and tail-product map
        m = len(self.word.factors)
        delta = float(abs(np.cos(theta)) + abs(np.sin(theta) - sign))
        gate, tail = _tail_sum_gate(self.word, theta)
        g = max_abs_diff(gate, -tail)
        return {
            FORM_FACTORED: m * delta,
            FORM_TAIL_SUM: math.expm1((m - 2) * math.log1p(delta)) * (1 + g) + g,
            FORM_TAIL_PRODUCT: (m - 1) * delta,
        }


def bch_chain(word: ExchangeWord, timestep: float = 1.0) -> dict[str, float]:
    """Each closed exponential form of a word, mapped to its worst entrywise departure from the product.

    Forms, in this order, for a word of m factors whose last two commute:
      * exp_each_factor:  i^m * prod_f exp(-i*(pi/2)*P_f)
      * exp_tail_sum:     i^m * (head exponentials) * exp(-i*(pi/2)*(P_last2 + P_last))
      * exp_tail_product: i^(m-1) * (head exponentials) * exp(-i*(pi/2)*P_last2 @ P_last)
      * exp_hamiltonian:  exp(-i*T*H) with H the uniform polynomial Hamiltonian
    All four equal the permutation product exactly. The first three departures are closed
    forms of the rounding of cos(pi/2) and sin(pi/2), that of exp_tail_sum an upper bound which
    also reads the tail gate (see _SectorMaps._form_deviations). exp_hamiltonian is compared
    with the product once per cycle length L: on every such cycle H is
    sum_k c_k S^k for the L-point shift S.
    """
    return _SectorMaps(word).chain(timestep)


def coupling_variant_check(word: ExchangeWord, k: int, family: str, tol: float = DEFAULT_EQ_TOL) -> bool:
    """Check the factored forms at coupling (2k + 1/2)*pi or (2k + 3/2)*pi, within tol.

    The first family reproduces the permutation product as-is. The second flips the sign
    of every single-factor exponential, so the expected result is (-1)^m times the product
    for the factored and tail-sum forms and (-1)^(m-1) times it for the tail-product form.
    """
    return _SectorMaps(word).coupling_check(k, family, tol)


def _unitarity_residuals(t: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """The largest entry of |M M^dagger - I| for each M of the stack t of transposes M^T, or inf or nan where one overflows.

    scratch, a real array of shape (2, *t.shape), is overwritten with the real and imaginary
    parts A^T and B^T of t, for M = A + iB. Then M M^dagger = (A A^T + B B^T) + i(B A^T - (B A^T)^T):
    three real products instead of one complex one.
    """
    at, bt = scratch
    np.copyto(at, t.real)
    np.copyto(bt, t.imag)
    with np.errstate(over="ignore", invalid="ignore"):
        re = np.matmul(at.swapaxes(1, 2), at)
        re += np.matmul(bt.swapaxes(1, 2), bt)
        re.reshape(len(t), -1)[:, :: t.shape[1] + 1] -= 1.0
        im = np.matmul(bt.swapaxes(1, 2), at)
        im -= im.swapaxes(1, 2)  # numpy buffers the overlapping operand
        re *= re
        im *= im
        re += im
        return np.sqrt(re.max(axis=(1, 2)))


def _leakages(t: np.ndarray, free: np.ndarray) -> np.ndarray:
    """:func:`superposition_leakage` of each M of the stack t of transposes M^T; free, as large as t, is overwritten.

    M's columns are the rows of M^T, so a column's peak is the largest |entry|^2 of a row of t.
    """
    if not np.isfinite(t).all():
        raise ValueError("matrix entries must be finite")
    scratch = free.view(float).reshape(2, *t.shape)
    dev = _unitarity_residuals(t, scratch)
    failed = ~(dev <= DEFAULT_UNITARITY_TOL)
    if failed.any():
        raise NonUnitaryError(f"matrix is unitary only within {dev[failed.argmax()]:.3e}")
    peaks = np.abs(t, out=scratch[0])
    peaks *= peaks
    return np.minimum(1.0, np.maximum(0.0, (1.0 - peaks.max(axis=2)).max(axis=1)))


def superposition_leakage(m) -> float:
    """How far a unitary is from a phased permutation, in [0, 1].

    The worst column's missing weight: max over columns j of
    1 - max over rows i of |M_ij|^2. Zero exactly on phased permutation
    matrices; 1/2 on an equal-weight two-state mixer. Raises NonUnitaryError
    unless M is unitary within DEFAULT_UNITARITY_TOL.
    """
    t = as_matrix(m).T.copy()[None]
    return float(_leakages(t, np.empty_like(t))[0])


def perturbation_leakage(word: ExchangeWord, epsilon: Union[float, Sequence[float]] = 0.0) -> float:
    """:func:`superposition_leakage` of the product, in word order, of i * exp(-i*(pi/2 + epsilon_f) * P_f).

    epsilon is one offset for every factor or one per factor. The product is the exact
    permutation product at zero offsets, and any nonzero offset generically leaks weight
    off it. One down-count sector of each spin-flip mirror pair is checked for unitarity, and the
    leakage is the largest of the blocks' leakages: no column's peak lies outside its block.
    """
    return _SectorMaps(word).leakage(epsilon)
