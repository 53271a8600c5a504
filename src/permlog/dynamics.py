"""Evolution words over spin exchanges: induced permutations, orbit structure,
block Hamiltonians, the uniform polynomial form, and exact spectra.

An exchange word is an ordered product of two-spin exchanges; the rightmost
factor acts first on states, so "P23 P12 P34" exchanges spins 3,4 first.
One application of the word permutes the 2^N configurations; each cycle of
that permutation is a cogwheel, and the Hamiltonian is assembled one block per
cycle length, since equal-length cycles share one closed-form cogwheel logarithm.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cogwheel import cogwheel_energies, cogwheel_hamiltonian, polynomial_coefficients
from .linalg import as_matrix
from .permutation import Permutation
from .spins import _check_pair, _check_spin_count, exchange_configurations


class WordParseError(ValueError):
    """Syntax or validation error in an exchange-word string, with position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UntouchedSpinWarning(UserWarning):
    """The word never addresses some spin; its blocks are pure bystanders."""


@dataclass(frozen=True)
class ExchangeWord:
    """An ordered sequence of spin pairs; the last listed pair acts first."""

    n_spins: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        _check_spin_count(self.n_spins, minimum=2)
        factors = tuple(_check_pair(self.n_spins, i, j) for i, j in self.factors)
        object.__setattr__(self, "factors", factors)
        if not factors:
            raise ValueError("a word must have at least one factor")

    @property
    def touched(self) -> frozenset[int]:
        return frozenset(label for pair in self.factors for label in pair)

    def __str__(self) -> str:
        if self.n_spins <= 9:
            return " ".join(f"P{i}{j}" for i, j in self.factors)
        return " ".join(f"({i} {j})" for i, j in self.factors)


_P_FACTOR = re.compile(r"P([1-9])([1-9])")
_PAIR_FACTOR = re.compile(r"\(\s*(\d+)[\s,]+(\d+)\s*\)")


def parse_word(text: str, n_spins: int) -> ExchangeWord:
    """Parse "P23 P12 P34" or "(2 3)(1 2)(3 4)" into an ExchangeWord.

    Factors appear in textual order (leftmost in the text acts last on states).
    P-notation carries one digit per spin and covers labels 1..9; the pair
    notation covers all labels up to the spin cap.
    """
    factors: list[tuple[int, int]] = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        for pattern in (_P_FACTOR, _PAIR_FACTOR):
            match = pattern.match(text, pos)
            if match:
                i, j = int(match.group(1)), int(match.group(2))
                try:
                    _check_pair(n_spins, i, j)
                except ValueError as exc:
                    raise WordParseError(str(exc), pos) from None
                factors.append((i, j))
                pos = match.end()
                break
        else:
            raise WordParseError(f"expected a factor like 'P23' or '(2 3)', found {text[pos]!r}", pos)
    if not factors:
        raise WordParseError("empty word", 0)
    return ExchangeWord(n_spins=n_spins, factors=tuple(factors))


def evolution_permutation(word: ExchangeWord) -> Permutation:
    """The permutation of the 2^N configurations effected by one application of the word."""
    untouched = set(range(1, word.n_spins + 1)) - word.touched
    if untouched:
        warnings.warn(
            f"word {word} never touches spin(s) {sorted(untouched)}",
            UntouchedSpinWarning,
            stacklevel=2,
        )
    # the rightmost factor acts first; on a finite set the composite is a bijection only if every factor is
    x = np.arange(1 << word.n_spins)
    for i, j in reversed(word.factors):
        x = exchange_configurations(x, word.n_spins, i, j)
    return Permutation(x)


@dataclass(frozen=True)
class OrbitDecomposition:
    """Disjoint cycles of an evolution permutation, in evolution order."""

    cycles: tuple[tuple[int, ...], ...]

    @property
    def lengths(self) -> tuple[int, ...]:
        return tuple(sorted(len(c) for c in self.cycles))

    @property
    def fixed_points(self) -> tuple[int, ...]:
        return tuple(c[0] for c in self.cycles if len(c) == 1)

    @property
    def size(self) -> int:
        return sum(len(c) for c in self.cycles)


def orbit_decomposition(perm: Permutation) -> OrbitDecomposition:
    """Cycles sorted by smallest member, each starting at its smallest member."""
    return OrbitDecomposition(cycles=perm.cycles())


def _cycle_blocks(h: np.ndarray, tables) -> list[np.ndarray]:
    """The (count, L, L) stack of h's blocks for each table of Permutation.cycles_by_length, in its order.

    Raises ValueError if any entry of h outside the blocks is nonzero.
    """
    stacks = [h[rows[:, :, None], rows[:, None, :]] for rows in tables.values()]
    if sum(np.count_nonzero(stack) for stack in stacks) != np.count_nonzero(h):
        raise ValueError("h has nonzero entries outside the cycle blocks of the permutation")
    return stacks


@dataclass(frozen=True, eq=False)
class BlockHamiltonianReport:
    """The assembled Hamiltonian plus the cogwheel block of each cycle length it came from."""

    matrix: np.ndarray
    per_length: dict[int, np.ndarray]


def hamiltonian_from_permutation(perm: Permutation, timestep: float = 1.0) -> BlockHamiltonianReport:
    """Assemble the self-adjoint H with expm(-i*H*T) equal to the permutation matrix.

    Each cycle (x_0 -> x_1 -> ...) of length L is identified position-by-position
    with the L-state cogwheel, and the closed-form cogwheel Hamiltonian is
    embedded on its span; fixed points carry energy zero. Cycles start at their
    smallest member, which fixes the (gauge) choice of cogwheel origin.
    """
    tables = perm.cycles_by_length
    per_length = {length: cogwheel_hamiltonian(length, timestep) for length in tables}  # refuses a bad T before H
    h = np.zeros((perm.size, perm.size), dtype=complex)
    for length, rows in tables.items():
        h[rows[:, :, None], rows[:, None, :]] = per_length[length]
    return BlockHamiltonianReport(matrix=h, per_length=per_length)


def polynomial_matrix(perm: Permutation, coefficients) -> np.ndarray:
    """Evaluate sum_k c_k * M^k at the permutation matrix M.

    M^k holds a one at (p^k(x), x) and zeros elsewhere, so each term is a
    scatter of c_k along the k-th power's image: O(L * 2^N), no matrix products.
    """
    coeffs = np.asarray(coefficients, dtype=complex)
    columns = np.arange(perm.size)
    image = columns.copy()
    total = np.zeros((perm.size, perm.size), dtype=complex)
    for k, c in enumerate(coeffs):
        if k:
            image = perm.map[image]
        total[image, columns] += c
    return as_matrix(total)  # refuses a coefficient, or a sum of them, that is not finite


def uniform_polynomial_form(perm: Permutation, timestep: float = 1.0) -> np.ndarray:
    """Coefficients h_0..h_{L-1}, L = lcm of cycle lengths, with H = sum_k h_k U^k.

    The same coefficients work on every cycle because a length-L' cycle with
    L' | L samples the length-L energy grid at every (L/L')-th point, and the
    inverse-DFT coefficients reproduce the energy at every grid point.
    """
    return polynomial_coefficients(perm.order(), timestep)


@dataclass(frozen=True)
class SpectrumReport:
    """Distinct energies, multiplicities, and the cycles contributing each energy."""

    distinct_energies: tuple[float, ...]
    multiplicities: tuple[int, ...]
    block_provenance: tuple[tuple[int, ...], ...]

    @property
    def total_multiplicity(self) -> int:
        return sum(self.multiplicities)


def spectrum(perm: Permutation, timestep: float = 1.0) -> SpectrumReport:
    """Exact spectrum of the assembled Hamiltonian, by analytic bookkeeping from the cycle lengths.

    A cycle of length L contributes the cogwheel energies 2*pi*n/(L*T), n = 0..L-1, so the
    levels are the fractions n/L. A level a/b in lowest terms lies on exactly the cycles whose
    length b divides, once each: n/L = a/b needs b | L, and then n = a*L/b is the one solution.
    Its provenance is those cycles' indices in cycles(), and its multiplicity is their count.
    Levels are exact rationals, so no float comparison and no diagonalization is involved.
    """
    lengths = np.array([len(cycle) for cycle in perm.cycles()])
    fractions = sorted({Fraction(n, length) for length in perm.cycles_by_length for n in range(length)})
    grids = {q: cogwheel_energies(q, timestep) for q in {f.denominator for f in fractions}}
    energies = tuple(float(grids[f.denominator][f.numerator]) for f in fractions)
    provenance = tuple(tuple(np.flatnonzero(lengths % f.denominator == 0).tolist()) for f in fractions)
    return SpectrumReport(energies, tuple(map(len, provenance)), provenance)
