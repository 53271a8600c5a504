"""Terminating exponential-product identities for exchange words.

Every exchange P is an involution, so P = i * exp(-i*(pi/2)*P) exactly, and a
word of m factors equals i^m times a product of exponentials. When the last
two factors commute they can be merged into a single exponential of their sum
or of their product, and the whole word equals the single exponential of the
assembled Hamiltonian: four closed forms, no infinite commutator series. For
contrast, :func:`bch_series_truncated` evaluates the generic commutator series
through fourth order, which does not terminate for noncommuting exchanges.

Each form is evaluated from the structure of its factors rather than as a
dense 2^N x 2^N product: multiplying by exp(-i*theta*P) for an exchange P is
one column gather, the merged tail sum is a local gate on the at most four
spins it touches, and exp(-i*T*H) is taken cycle block by cycle block. The
dense products remain in the tests as independent oracles.

Perturbing the pi/2 couplings breaks the closed forms: the product stops being
a phased permutation, quantified by :func:`superposition_leakage`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Sequence, Union

import numpy as np

from .dynamics import (
    ExchangeWord,
    cycle_block_expm,
    evolution_permutation,
    polynomial_matrix,
    uniform_polynomial_form,
)
from .linalg import (
    DEFAULT_UNITARITY_TOL,
    InvolutionViolation,
    NonUnitaryError,
    as_matrix,
    commutator,
    dagger,
    expm,
    identity,
    max_abs_diff,
)
from .permutation import Permutation
from .spins import exchange_permutation

FORM_FACTORED = "exp_each_factor"
FORM_TAIL_SUM = "exp_tail_sum"
FORM_TAIL_PRODUCT = "exp_tail_product"
FORM_HAMILTONIAN = "exp_hamiltonian"

COUPLING_FAMILIES = ("plus_half", "plus_three_half")


class PreconditionViolation(ValueError):
    """The word does not meet the structural requirements of a requested form."""


@dataclass(frozen=True)
class PerturbationConfig:
    """Coupling offsets: theta = (2k + 1/2)*pi + epsilon, uniform or per factor."""

    epsilon: Union[float, Sequence[float]] = 0.0
    k: int = 0

    def offsets(self, n_factors: int) -> np.ndarray:
        eps = np.asarray(self.epsilon, dtype=float)
        if eps.ndim == 0:
            eps = np.full(n_factors, float(eps))
        if eps.shape != (n_factors,):
            raise ValueError(f"need one offset or {n_factors} of them, got shape {eps.shape}")
        if not np.all(np.isfinite(eps)):
            raise ValueError("offsets must be finite")
        return eps


@dataclass(frozen=True, eq=False)
class BchChainResult:
    """Plain permutation product alongside the closed exponential forms."""

    baseline: np.ndarray
    forms: tuple[tuple[str, np.ndarray], ...]
    max_deviation: float

    def deviations(self) -> dict[str, float]:
        return {label: max_abs_diff(m, self.baseline) for label, m in self.forms}


def _factor_permutations(word: ExchangeWord) -> list[Permutation]:
    return [exchange_permutation(word.n_spins, i, j) for i, j in word.factors]


def _times_exp_involution(m: np.ndarray, p: Permutation, theta: float) -> np.ndarray:
    """m @ exp(-i*theta*P) for a permutation involution P, as one column gather.

    exp(-i*theta*P) = cos(theta)*I - i*sin(theta)*P, and (m @ P)[:, x] = m[:, P(x)],
    so the product costs O(dim^2) instead of a dense O(dim^3) matrix product.
    """
    if not (p * p).is_identity():
        raise InvolutionViolation("the permutation does not square to the identity")
    out = np.take(m, p.map, axis=1)
    out *= -1j * np.sin(theta)
    out += np.cos(theta) * m
    return out


def _times_exp_tail_sum(m: np.ndarray, word: ExchangeWord, theta: float) -> np.ndarray:
    """m @ exp(-i*theta*(P_last2 + P_last)), exponentiated on the spins the tail touches.

    The sum acts on at most four spins, so its exponential is a 2^k x 2^k gate
    (k <= 4) times the identity on the rest. The column axis of m is split into
    N binary axes, spin 1 the most significant, and the gate is contracted onto
    the tail's k axes; the 2^N x 2^N exponential is never formed.
    """
    spins = sorted(set(word.factors[-2]) | set(word.factors[-1]))
    k = len(spins)
    local = {s: r for r, s in enumerate(spins, start=1)}
    tail_sum = sum(exchange_permutation(k, local[i], local[j]).matrix() for i, j in word.factors[-2:])
    gate = expm(-1j * theta * tail_sum).reshape((2,) * (2 * k))
    columns = m.reshape((m.shape[0],) + (2,) * word.n_spins)  # axis s carries spin s
    out = np.tensordot(columns, gate, axes=(spins, list(range(k))))
    out = np.moveaxis(out, range(out.ndim - k, out.ndim), spins)  # tensordot appends the gate's axes
    return out.reshape(m.shape)


def _require_commuting_tail(word: ExchangeWord) -> None:
    if len(word.factors) < 2:
        raise PreconditionViolation("merged-tail forms need at least two factors")
    (i1, j1), (i2, j2) = word.factors[-2], word.factors[-1]
    p = exchange_permutation(word.n_spins, i1, j1)
    q = exchange_permutation(word.n_spins, i2, j2)
    if p * q != q * p:
        raise PreconditionViolation(
            f"the last two factors P{i1}{j1} and P{i2}{j2} do not commute"
        )


def _chain_forms(word: ExchangeWord, theta: float) -> dict[str, np.ndarray]:
    """The three factored forms at coupling theta (tail must already be checked)."""
    perms = _factor_permutations(word)
    m = len(perms)
    head = identity(perms[0].size)
    for p in perms[:-2]:
        head = _times_exp_involution(head, p, theta)
    factored = _times_exp_involution(_times_exp_involution(head, perms[-2], theta), perms[-1], theta)
    tail_sum = _times_exp_tail_sum(head, word, theta)
    tail_product = _times_exp_involution(head, perms[-2] * perms[-1], theta)
    return {
        FORM_FACTORED: (1j**m) * factored,
        FORM_TAIL_SUM: (1j**m) * tail_sum,
        FORM_TAIL_PRODUCT: (1j ** (m - 1)) * tail_product,
    }


def bch_chain(word: ExchangeWord, timestep: float = 1.0) -> BchChainResult:
    """Evaluate the closed exponential forms of a word and compare to the plain product.

    Forms, for a word of m factors whose last two commute:
      * exp_each_factor:  i^m * prod_f exp(-i*(pi/2)*P_f)
      * exp_tail_sum:     i^m * (head exponentials) * exp(-i*(pi/2)*(P_last2 + P_last))
      * exp_tail_product: i^(m-1) * (head exponentials) * exp(-i*(pi/2)*P_last2 @ P_last)
      * exp_hamiltonian:  exp(-i*T*H) with H the uniform polynomial Hamiltonian
    All four equal the permutation product exactly; max_deviation reports the
    worst entrywise departure actually observed.
    """
    _require_commuting_tail(word)
    perm = evolution_permutation(word)
    baseline = perm.matrix()
    forms = _chain_forms(word, np.pi / 2)
    coeffs = uniform_polynomial_form(perm, timestep)
    forms[FORM_HAMILTONIAN] = cycle_block_expm(perm, polynomial_matrix(perm, coeffs), -1j * timestep)
    ordered = tuple(
        (label, forms[label])
        for label in (FORM_FACTORED, FORM_TAIL_SUM, FORM_TAIL_PRODUCT, FORM_HAMILTONIAN)
    )
    max_dev = max(max_abs_diff(mat, baseline) for _, mat in ordered)
    return BchChainResult(baseline=baseline, forms=ordered, max_deviation=max_dev)


def coupling_variant_check(
    word: ExchangeWord, k: int, family: str, tol: float = 1e-10
) -> bool:
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
    m = len(word.factors)
    if family == "plus_half":
        signs = {FORM_FACTORED: 1.0, FORM_TAIL_SUM: 1.0, FORM_TAIL_PRODUCT: 1.0}
    else:
        signs = {
            FORM_FACTORED: (-1.0) ** m,
            FORM_TAIL_SUM: (-1.0) ** m,
            FORM_TAIL_PRODUCT: (-1.0) ** (m - 1),
        }
    # the evolution permutation as the product of its factors, which does not warn again
    baseline = reduce(Permutation.__mul__, _factor_permutations(word)).matrix()
    forms = _chain_forms(word, theta)
    return all(
        max_abs_diff(mat, signs[label] * baseline) <= tol for label, mat in forms.items()
    )


def bch_series_truncated(x, y, order: int) -> np.ndarray:
    """Generic combination-of-commutators series for log(exp(X)exp(Y)), truncated.

    Orders: 1 gives X+Y; 2 adds [X,Y]/2; 3 adds ([X,[X,Y]] + [Y,[Y,X]])/12;
    4 adds -[Y,[X,[X,Y]]]/24. Only orders 1..4 are supported.
    """
    if order not in (1, 2, 3, 4):
        raise ValueError(f"order must be in 1..4, got {order}")
    x, y = as_matrix(x), as_matrix(y)
    z = x + y
    if order >= 2:
        xy = commutator(x, y)
        z = z + 0.5 * xy
    if order >= 3:
        z = z + (commutator(x, xy) + commutator(y, commutator(y, x))) / 12.0
    if order >= 4:
        z = z - commutator(y, commutator(x, xy)) / 24.0
    return z


def superposition_leakage(m, unitarity_tol: float = DEFAULT_UNITARITY_TOL) -> float:
    """How far a unitary is from a phased permutation, in [0, 1].

    The worst column's missing weight: max over columns j of
    1 - max over rows i of |M_ij|^2. Zero exactly on phased permutation
    matrices; 1/2 on an equal-weight two-state mixer.
    """
    m = as_matrix(m)
    dev = max_abs_diff(m @ dagger(m), identity(m.shape[0]))
    if dev > unitarity_tol:
        raise NonUnitaryError(f"matrix is unitary only within {dev:.3e}")
    column_peaks = (np.abs(m) ** 2).max(axis=0)
    return float(min(1.0, max(0.0, (1.0 - column_peaks).max())))


def perturb_coupling(word: ExchangeWord, config: PerturbationConfig = PerturbationConfig()) -> np.ndarray:
    """Product over factors of i * exp(-i*((2k + 1/2)*pi + epsilon_f) * P_f), in word order.

    At zero offsets this reproduces the exact permutation product; any nonzero
    offset generically leaks weight off the permutation pattern.
    """
    perms = _factor_permutations(word)
    offsets = config.offsets(len(perms))
    base = (2 * config.k + 0.5) * np.pi
    out = identity(perms[0].size)
    for p, eps in zip(perms, offsets):
        out = _times_exp_involution(out, p, base + eps)
    return (1j ** len(perms)) * out  # a power of i multiplies exactly, so it is applied once
