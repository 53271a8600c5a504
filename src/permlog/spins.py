"""Classical Ising spin configurations and their exchange algebra on 2^N states.

Conventions: spin labels are 1-based and spin 1 occupies the most significant
bit; up = 0, down = 1, so the all-up configuration is basis index 0 and the
all-down configuration is index 2^N - 1. Configuration strings use ``u``/``d``
read left to right as spins 1..N (``"uudu"`` means spin 3 down, the rest up).
Operators that permute configurations are returned as exact
:class:`~permlog.permutation.Permutation` objects and the diagonal number
operators as their diagonals; Pauli-built operators are dense complex matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .permutation import Permutation

SPIN_CAP = 12  # dense 2^N x 2^N matrices stop being sensible past this

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_BIT_TO_SPIN = str.maketrans("01", "ud")  # up = 0, down = 1

def _check_spin_count(n_spins: int, minimum: int = 1, name: str = "spin count") -> None:
    if not (isinstance(n_spins, (int, np.integer)) and minimum <= n_spins <= SPIN_CAP):
        raise ValueError(f"{name} must be in {minimum}..{SPIN_CAP}, got {n_spins}")


def _check_pair(n_spins: int, i: int, j: int) -> None:
    if not (1 <= i <= n_spins and 1 <= j <= n_spins):
        raise ValueError(f"spin labels must be in 1..{n_spins}, got ({i}, {j})")
    if i == j:
        raise ValueError("exchange needs two distinct spins")


@dataclass(frozen=True)
class SpinConfiguration:
    """One assignment of up/down to N spins, stored as a bitmask (spin 1 = MSB)."""

    n_spins: int
    bits: int

    def __post_init__(self):
        _check_spin_count(self.n_spins, minimum=2)
        if not 0 <= self.bits < (1 << self.n_spins):
            raise ValueError(f"bits out of range for {self.n_spins} spins")

    @classmethod
    def from_string(cls, text: str) -> "SpinConfiguration":
        bits = 0
        for ch in text:
            if ch not in "ud":
                raise ValueError(f"configuration strings use only 'u'/'d', got {text!r}")
            bits = (bits << 1) | (1 if ch == "d" else 0)
        return cls(n_spins=len(text), bits=bits)

    def __str__(self) -> str:
        return format(self.bits, f"0{self.n_spins}b").translate(_BIT_TO_SPIN)

    @property
    def index(self) -> int:
        """Position of this configuration in the lexicographic basis."""
        return self.bits


def exchange_permutation(n_spins: int, i: int, j: int) -> Permutation:
    """The involution swapping the states of spins i and j in every configuration."""
    _check_spin_count(n_spins, minimum=2)
    _check_pair(n_spins, i, j)
    a, b = n_spins - i, n_spins - j
    x = np.arange(1 << n_spins)
    # flip both bits exactly where they differ
    return Permutation(x ^ ((((x >> a) ^ (x >> b)) & 1) * ((1 << a) | (1 << b))))


def _one_site(n_spins: int, k: int, op: np.ndarray) -> np.ndarray:
    return reduce(np.kron, [op if site == k else PAULI_I for site in range(1, n_spins + 1)])


def exchange_pauli(n_spins: int, i: int, j: int) -> np.ndarray:
    """The same exchange as a dense matrix, (sigma_i . sigma_j + 1) / 2."""
    _check_spin_count(n_spins, minimum=2)
    _check_pair(n_spins, i, j)
    dim = 1 << n_spins
    total = np.eye(dim, dtype=complex)
    for pauli in (PAULI_X, PAULI_Y, PAULI_Z):
        total += _one_site(n_spins, i, pauli) @ _one_site(n_spins, j, pauli)
    return total / 2.0


def number_down(n_spins: int) -> np.ndarray:
    """The number of down spins in each configuration: the diagonal of the down-count operator."""
    _check_spin_count(n_spins)
    x = np.arange(1 << n_spins)
    return sum((x >> s) & 1 for s in range(n_spins))


def number_up(n_spins: int) -> np.ndarray:
    """The number of up spins in each configuration: the diagonal of (N/2)*I + sum_i sigma_i^z / 2."""
    return n_spins - number_down(n_spins)


def spinflip(n_spins: int) -> Permutation:
    """Total spinflip (every up becomes down and vice versa); an involution."""
    _check_spin_count(n_spins)
    mask = (1 << n_spins) - 1
    return Permutation(np.arange(1 << n_spins) ^ mask)


# Bookkeeping labels 1..16 for four spins, grouped by how the reference update
# word P23 P12 P34 moves them: 1/16 are the fixed all-up/all-down states, 2-5
# one four-step orbit, 12-15 its spinflip partner, 6-9 a third four-step orbit
# closed under spinflip, 10-11 the flip-flop pair.
FOUR_SPIN_LABEL_STRINGS: dict[int, str] = {
    1: "uuuu",
    2: "uuud",
    3: "uduu",
    4: "duuu",
    5: "uudu",
    6: "uudd",
    7: "udud",
    8: "dduu",
    9: "dudu",
    10: "duud",
    11: "uddu",
    12: "dddu",
    13: "dudd",
    14: "uddd",
    15: "ddud",
    16: "dddd",
}

_LABEL_BY_INDEX = {
    SpinConfiguration.from_string(s).index: lab for lab, s in FOUR_SPIN_LABEL_STRINGS.items()
}


def four_spin_configuration(label: int) -> SpinConfiguration:
    """The four-spin configuration carrying a given bookkeeping label (1..16)."""
    if label not in FOUR_SPIN_LABEL_STRINGS:
        raise ValueError(f"label must be in 1..16, got {label}")
    return SpinConfiguration.from_string(FOUR_SPIN_LABEL_STRINGS[label])


def four_spin_state_label(config: SpinConfiguration) -> int:
    """The bookkeeping label 1..16 of a four-spin configuration."""
    if config.n_spins != 4:
        raise ValueError("labels are defined for exactly four spins")
    return _LABEL_BY_INDEX[config.index]
