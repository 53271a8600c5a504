"""permlog: exact unitary permutation dynamics for classical spin chains.

Construct standard-form cogwheel operators and their closed-form self-adjoint
logarithms, build evolution operators from spin-exchange words, decompose the
induced permutation of configurations into orbits, assemble block Hamiltonians
with exact spectra, and verify the terminating exponential-product identities
together with the coupling-perturbation instability probe.
"""

from .bch import (
    PreconditionViolation,
    bch_chain,
    coupling_variant_check,
    perturbation_leakage,
    superposition_leakage,
)
from .cogwheel import (
    build_standard_form,
    cogwheel_energies,
    cogwheel_hamiltonian,
    diagonalizer,
    polynomial_coefficients,
    shift_permutation,
    verify_power_identity,
)
from .dynamics import (
    BlockHamiltonianReport,
    ExchangeWord,
    OrbitDecomposition,
    SpectrumReport,
    UntouchedSpinWarning,
    WordParseError,
    evolution_permutation,
    hamiltonian_from_permutation,
    orbit_decomposition,
    parse_word,
    polynomial_matrix,
    spectrum,
    uniform_polynomial_form,
)
from .linalg import (
    DEFAULT_EQ_TOL,
    DEFAULT_UNITARITY_TOL,
    DimensionMismatch,
    InvolutionViolation,
    NonUnitaryError,
    dagger,
    expm,
    is_permutation_matrix,
    max_abs_diff,
)
from .permutation import Permutation
from .spins import (
    SPIN_CAP,
    FOUR_SPIN_LABEL_STRINGS,
    SpinConfiguration,
    exchange_pauli,
    exchange_permutation,
    four_spin_configuration,
    four_spin_state_label,
    number_down,
    number_up,
    spinflip,
)

__version__ = "0.1.0"

__all__ = [
    "BlockHamiltonianReport",
    "DEFAULT_EQ_TOL",
    "DEFAULT_UNITARITY_TOL",
    "DimensionMismatch",
    "ExchangeWord",
    "FOUR_SPIN_LABEL_STRINGS",
    "InvolutionViolation",
    "NonUnitaryError",
    "OrbitDecomposition",
    "Permutation",
    "PreconditionViolation",
    "SPIN_CAP",
    "SpectrumReport",
    "SpinConfiguration",
    "UntouchedSpinWarning",
    "WordParseError",
    "bch_chain",
    "build_standard_form",
    "cogwheel_energies",
    "cogwheel_hamiltonian",
    "coupling_variant_check",
    "dagger",
    "diagonalizer",
    "evolution_permutation",
    "exchange_pauli",
    "exchange_permutation",
    "expm",
    "four_spin_configuration",
    "four_spin_state_label",
    "hamiltonian_from_permutation",
    "is_permutation_matrix",
    "max_abs_diff",
    "number_down",
    "number_up",
    "orbit_decomposition",
    "parse_word",
    "perturbation_leakage",
    "polynomial_coefficients",
    "polynomial_matrix",
    "shift_permutation",
    "spectrum",
    "spinflip",
    "superposition_leakage",
    "uniform_polynomial_form",
    "verify_power_identity",
]
