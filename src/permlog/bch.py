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

The spin flip commutes with every exchange and maps sector k's configurations
onto sector N - k's in reverse order, so each factor's map there is its map in
sector k with the positions reversed, and every entry of a product there comes
from the same operations on the same operands: sector N - k's block is J M J,
bit for bit, for sector k's block M and the reversal J. Hence the sectors are
visited as mirror pairs (k, N - k), and each result J keeps is taken once per pair,
in sector k: a deviation or a leakage (the same entries, permuted) and unitarity
(J M J is unitary exactly when M is; its residual differs only in rounding). Only
the merged tail sum is formed on the mirrored head, as its gate and sum order are
not flip-symmetric to the last bit. A word's sector index maps are built and
checked once per command: each is the exchange rule applied to a sector's
ascending configurations, every image located among them by np.searchsorted.

Perturbing the pi/2 couplings breaks the closed forms: the product stops being
a phased permutation, quantified by :func:`superposition_leakage`.
"""

from __future__ import annotations

from functools import cached_property, lru_cache, reduce
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
    _check_positive,
    as_matrix,
    expm,
    identity,
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


def _times_exps(m: np.ndarray, factors: Sequence[np.ndarray], thetas: Iterable[float]) -> np.ndarray:
    """m @ exp(-i*theta_1*P_1) @ exp(-i*theta_2*P_2) @ ..., one column gather per involution map P_f.

    exp(-i*theta*P) = cos(theta)*I - i*sin(theta)*P, and (m @ P)[:, x] = m[:, P(x)],
    so each factor costs O(dim^2) instead of a dense O(dim^3) matrix product. m is scaled
    in place, so a caller that reuses it passes a copy; each factor allocates only its gather.
    """
    for q, theta in zip(factors, thetas):
        out = np.take(m, q, axis=1)
        out *= -1j * np.sin(theta)
        m *= np.cos(theta)
        out += m
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
    y with a nonzero weight, in ascending y, rest(x) being x with the tail spins up. The
    gate keeps the tail spins' down count, so every y that would leave the sector has
    weight exactly 0. Row r of the term table holds each column's r-th term (at most four)
    or, past its last, weight 0 on the column itself, whose signed zero changes no bit of the sum.
    """
    tail = idx & states[-1]
    rest, local = idx ^ tail, np.searchsorted(states, tail)
    weights = gate[:, local]
    nonzero = weights != 0
    ys = np.argsort(~nonzero, axis=0, kind="stable")[: nonzero.sum(axis=0).max()]
    weights = np.take_along_axis(weights, ys, axis=0)
    cols = np.where(weights != 0, np.searchsorted(idx, rest | states[ys]), np.arange(idx.size))
    out = np.zeros_like(m)
    for w, c in zip(weights, cols):
        term = np.take(m, c, axis=1)
        term *= w
        out += term
    return out


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


def _mirror(block: np.ndarray) -> np.ndarray:
    """Sector N - k's block of a product from sector k's: a contiguous copy, which products round as usual."""
    return np.ascontiguousarray(block[::-1, ::-1])


def _phased(block: np.ndarray, phase: complex) -> np.ndarray:
    """block scaled in place by phase, a power of i, which multiplies exactly."""
    block *= phase
    return block


def _sector_chain_forms(maps: _SectorMaps, theta: float) -> Iterator[tuple[int, dict]]:
    """Each sector's down count and its blocks of the factored forms at coupling theta, by mirror pairs.

    Sector k yields all three forms, sector N - k != k only the tail sum: its other two are sector k's mirrored.
    """
    word = maps.word
    m = len(word.factors)
    states, gate = _tail_sum_gate(word, theta)
    for k, mirror in _mirror_pairs(word.n_spins):
        idx, factors = maps.members[k], maps.factors[k]
        head = _times_exps(identity(idx.size), factors[:-2], repeat(theta))
        yield k, {
            FORM_FACTORED: _phased(_times_exps(head.copy(), factors[-2:], repeat(theta)), 1j**m),
            FORM_TAIL_SUM: _phased(_times_exp_tail_sum(head, idx, states, gate), 1j**m),
            FORM_TAIL_PRODUCT: _phased(_times_exps(head.copy(), [maps.products[k][1]], [theta]), 1j ** (m - 1)),
        }
        if mirror != k:
            head, idx = _mirror(head), maps.members[mirror]  # sector k's head is freed before the tail sum
            yield mirror, {FORM_TAIL_SUM: _phased(_times_exp_tail_sum(head, idx, states, gate), 1j**m)}


def _deviation(block: np.ndarray, product: np.ndarray, sign: float) -> float:
    """The largest entry of |block - sign * P|, for P the permutation matrix of the index map product.

    P holds a 1 at (product[x], x) in each column x and 0 elsewhere, so the difference is the
    block off those entries and block - sign on them: bit for bit the dense comparison.
    """
    cols = np.arange(product.size)
    mags = np.abs(block)
    mags[product, cols] = np.abs(block[product, cols] - sign)
    dev = float(mags.max())
    if not np.isfinite(dev):
        raise ValueError("matrix entries must be finite")
    return dev


def _perturbed_blocks(
    maps: _SectorMaps, epsilon: Union[float, Sequence[float]]
) -> Iterator[tuple[int, np.ndarray]]:
    """Sector k's down count and its block of :func:`perturbation_leakage`'s product, per mirror pair (k, N - k).

    Sector N - k's block, sector k's mirrored, is not formed. The offsets are checked before the first block is.
    """
    m = len(maps.word.factors)
    offsets = np.asarray(epsilon, dtype=float)
    if offsets.ndim == 0:
        offsets = np.full(m, offsets)
    if offsets.shape != (m,):
        raise ValueError(f"need one offset or {m} of them, got shape {offsets.shape}")
    if not np.all(np.isfinite(offsets)):
        raise ValueError("offsets must be finite")
    thetas = 0.5 * np.pi + offsets
    for k, _ in _mirror_pairs(maps.word.n_spins):
        yield k, _phased(_times_exps(identity(maps.members[k].size), maps.factors[k], thetas), 1j**m)


class _SectorMaps:
    """A word's index maps in every down-count sector, built on first use and shared by one command.

    factors[k] holds, in row f, factor f restricted to sector k as an index map of the
    sector's positions: the exchange rule applied to the sector's configurations, each image
    located among them by np.searchsorted. Each map is checked once where it is made: a
    factor that leaves its sector or does not square to the identity yields no map.
    products[k] holds the sector's map of the whole product and that of the merged tail
    product, the latter checked the same way. Only index maps and the form deviations found
    so far are kept, never a block.
    """

    def __init__(self, word: ExchangeWord):
        self.word = word
        self.members = _sectors(word.n_spins)
        self._deviations: dict[tuple[float, float], dict[str, float]] = {}

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
    def products(self) -> list[tuple[np.ndarray, np.ndarray]]:
        return [(reduce(np.take, f), _involution(f[-2][f[-1]])) for f in self.factors]

    def chain(self, timestep: float) -> dict[str, float]:
        """:func:`bch_chain` of the word."""
        word = self.word
        perm = evolution_permutation(word)  # first, so a word refused below still warns of untouched spins
        _require_commuting_tail(word)
        coeffs = uniform_polynomial_form(perm, timestep)
        deviations = dict(self._form_deviations(np.pi / 2, 1.0))  # a copy: the kept ones stay three forms
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
        _check_positive(tol, "tolerance")
        _require_commuting_tail(self.word)
        theta = (2 * k + (0.5 if family == "plus_half" else 1.5)) * np.pi
        sign = 1.0 if family == "plus_half" else -1.0
        return all(dev <= tol for dev in self._form_deviations(theta, sign).values())

    def leakage(self, epsilon: Union[float, Sequence[float]]) -> float:
        """:func:`perturbation_leakage` of the word."""
        return max(superposition_leakage(block) for _, block in _perturbed_blocks(self, epsilon))

    def _form_deviations(self, theta: float, sign: float) -> dict[str, float]:
        """Each factored form's largest departure from its sign times the product, by mirror pairs.

        Every single-factor exponential carries the sign, so the factored and tail-sum forms
        carry sign^m and the tail-product form sign^(m-1). Kept per (theta, sign): the check at
        k = 0, plus_half has theta = pi/2 exactly and sign +1, and reads the chain's deviations.
        """
        key = (theta, sign)
        if key not in self._deviations:
            m = len(self.word.factors)
            signs = {FORM_FACTORED: sign**m, FORM_TAIL_SUM: sign**m, FORM_TAIL_PRODUCT: sign ** (m - 1)}
            deviations: dict[str, float] = {}
            for k, forms in _sector_chain_forms(self, theta):
                for label, block in forms.items():
                    dev = _deviation(block, self.products[k][0], signs[label])
                    deviations[label] = max(deviations.get(label, dev), dev)
            self._deviations[key] = deviations
        return self._deviations[key]


def bch_chain(word: ExchangeWord, timestep: float = 1.0) -> dict[str, float]:
    """Each closed exponential form of a word, mapped to its worst entrywise departure from the product.

    Forms, in this order, for a word of m factors whose last two commute:
      * exp_each_factor:  i^m * prod_f exp(-i*(pi/2)*P_f)
      * exp_tail_sum:     i^m * (head exponentials) * exp(-i*(pi/2)*(P_last2 + P_last))
      * exp_tail_product: i^(m-1) * (head exponentials) * exp(-i*(pi/2)*P_last2 @ P_last)
      * exp_hamiltonian:  exp(-i*T*H) with H the uniform polynomial Hamiltonian
    All four equal the permutation product exactly. The first three are compared with it
    sector by sector, exp_hamiltonian once per cycle length L: on every such cycle H is
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


def _unitarity_residual(m: np.ndarray) -> float:
    """The largest entry of |M M^dagger - I|, or inf or nan where one overflows.

    With M = A + iB, M M^dagger = (A A^T + B B^T) + i(B A^T - (B A^T)^T): three real
    products instead of one complex one.
    """
    a, b = m.real.copy(), m.imag.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        re = a @ a.T
        re += b @ b.T
        re[np.diag_indices_from(re)] -= 1.0
        im = b @ a.T
        im -= im.T  # numpy buffers the overlapping operand
        return float(np.sqrt((re * re + im * im).max()))


def superposition_leakage(m) -> float:
    """How far a unitary is from a phased permutation, in [0, 1].

    The worst column's missing weight: max over columns j of
    1 - max over rows i of |M_ij|^2. Zero exactly on phased permutation
    matrices; 1/2 on an equal-weight two-state mixer. Raises NonUnitaryError
    unless M is unitary within DEFAULT_UNITARITY_TOL.
    """
    m = as_matrix(m)
    dev = _unitarity_residual(m)
    if not dev <= DEFAULT_UNITARITY_TOL:
        raise NonUnitaryError(f"matrix is unitary only within {dev:.3e}")
    column_peaks = (np.abs(m) ** 2).max(axis=0)
    return float(min(1.0, max(0.0, (1.0 - column_peaks).max())))


def perturbation_leakage(word: ExchangeWord, epsilon: Union[float, Sequence[float]] = 0.0) -> float:
    """:func:`superposition_leakage` of the product, in word order, of i * exp(-i*(pi/2 + epsilon_f) * P_f).

    epsilon is one offset for every factor or one per factor. The product is the exact
    permutation product at zero offsets, and any nonzero offset generically leaks weight
    off it. One down-count sector of each spin-flip mirror pair is checked for unitarity, and the
    leakage is the largest of the blocks' leakages: no column's peak lies outside its block.
    """
    return _SectorMaps(word).leakage(epsilon)
