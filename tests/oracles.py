"""Dense reference evaluations and random words shared by the test modules.

The references assemble full 2^N x 2^N matrices on purpose: the library works
on cycle blocks and down-count sector blocks, and the tests compare it with the
dense expressions it stands for. The generic commutator series lives here too:
that it does not terminate for noncommuting exchanges is the contrast with the
library's closed forms.
"""

from functools import reduce
from itertools import repeat

import numpy as np
from hypothesis import strategies as st

from permlog.bch import (FORM_FACTORED, FORM_HAMILTONIAN, FORM_TAIL_PRODUCT, FORM_TAIL_SUM, _involution,
                         _require_commuting_tail, _sectors, _tail_sum_gate, _times_exps, superposition_leakage)
from permlog.cogwheel import cogwheel_energies, diagonalizer, shift_permutation
from permlog.dynamics import (ExchangeWord, _cycle_blocks, _cycles_by_length, evolution_permutation,
                              polynomial_matrix, uniform_polynomial_form)
from permlog.linalg import (DEFAULT_UNITARITY_TOL, DimensionMismatch, InvolutionViolation, as_matrix, dagger,
                            expm, identity, max_abs_diff)
from permlog.permutation import Permutation
from permlog.spins import exchange_permutation, number_down, spinflip


def commutator(a, b) -> np.ndarray:
    """AB - BA, for square matrices of one dimension."""
    a, b = as_matrix(a), as_matrix(b)
    if a.shape != b.shape:
        raise DimensionMismatch(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    return a @ b - b @ a


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


def dense_cogwheel_hamiltonian(n, timestep=1.0):
    """D @ diag(E_n) @ dagger(D), symmetrised: the cogwheel logarithm from its eigendecomposition, O(N^3)."""
    d = diagonalizer(n)
    h = (d * cogwheel_energies(n, timestep)) @ dagger(d)
    return 0.5 * (h + dagger(h))


def ifft_polynomial_coefficients(n, timestep=1.0):
    """The polynomial coefficients as the inverse DFT of the energies, h_k = (1/N) sum_n E_n e^{i*E_n*T*k}."""
    return np.fft.ifft(cogwheel_energies(n, timestep))


def exp_involution(p, theta: float, *, unitarity_tol: float = DEFAULT_UNITARITY_TOL) -> np.ndarray:
    """Closed form exp(-i*theta*P) = cos(theta)*I - i*sin(theta)*P for an involution P.

    Raises InvolutionViolation unless P squares to the identity within unitarity_tol.
    """
    p = as_matrix(p)
    dev = max_abs_diff(p @ p, identity(p.shape[0]))
    if dev > unitarity_tol:
        raise InvolutionViolation(f"matrix squares to identity only within {dev:.3e}")
    return np.cos(theta) * identity(p.shape[0]) - 1j * np.sin(theta) * p


def assemble(blocks, n_spins):
    """The dense 2^N x 2^N matrix with the given (sector configurations, block) pairs and zeros elsewhere."""
    out = np.zeros((1 << n_spins, 1 << n_spins), dtype=complex)
    for idx, block in blocks:
        out[np.ix_(idx, idx)] = block
    return out


def loop_times_exp_tail_sum(m, idx, states, gate):
    """m @ exp(-i*theta*(P_last2 + P_last)) on a sector block, one pass per local state of the tail spins.

    For each local state y, every column x whose gate weight gate[y, local(x)] is nonzero
    adds m[:, rest(x) | states[y]] times that weight, rest(x) being x with the tail spins
    up: the per-state loop that the library's table of each column's terms replaces.
    """
    tail = idx & states[-1]
    rest, local = idx ^ tail, np.searchsorted(states, tail)
    out = np.zeros_like(m)
    for y, state in enumerate(states):
        weights = gate[y, local]
        cols = np.flatnonzero(weights)
        out[:, cols] += m[:, np.searchsorted(idx, rest[cols] | state)] * weights[cols]
    return out


def complex_unitarity_residual(m):
    """The largest entry of |M M^dagger - I|, from one complex matrix product."""
    m = as_matrix(m)
    return max_abs_diff(m @ dagger(m), identity(m.shape[0]))


def every_sector_factors(word):
    """Each sector's configurations and the word's factors restricted to it, every sector from its own maps."""
    members, position = _sectors(word.n_spins)
    maps = [exchange_permutation(word.n_spins, i, j).map for i, j in word.factors]
    return [(idx, [_involution(position[q[idx]]) for q in maps]) for idx in members]


def every_sector_heads(word, theta):
    """Each sector's configurations, factors and head product at coupling theta, every sector formed in full."""
    return [(idx, factors, _times_exps(identity(idx.size), factors[:-2], repeat(theta)))
            for idx, factors in every_sector_factors(word)]


def every_sector_chain_forms(word, theta):
    """Each sector's configurations, factors and three factored-form blocks, every sector formed in full.

    The sector-by-sector evaluation without the spin-flip mirror and with the per-state
    tail-sum loop: the library forms one sector of each pair (k, N - k), mirrors it and
    tables each column's tail-sum terms, and must agree with this bit for bit.
    """
    m = len(word.factors)
    states, gate = _tail_sum_gate(word, theta)
    for idx, factors, head in every_sector_heads(word, theta):
        yield idx, factors, {
            FORM_FACTORED: (1j**m) * _times_exps(head, factors[-2:], repeat(theta)),
            FORM_TAIL_SUM: (1j**m) * loop_times_exp_tail_sum(head, idx, states, gate),
            FORM_TAIL_PRODUCT: (1j ** (m - 1)) * _times_exps(head, [_involution(factors[-2][factors[-1]])], [theta]),
        }


def every_sector_form_deviations(word, theta, sign):
    """Each factored form's largest departure from its sign times the product, against a dense sector block."""
    m = len(word.factors)
    signs = {FORM_FACTORED: sign**m, FORM_TAIL_SUM: sign**m, FORM_TAIL_PRODUCT: sign ** (m - 1)}
    deviations = {}
    for _, factors, forms in every_sector_chain_forms(word, theta):
        base = Permutation(reduce(np.take, factors)).matrix()
        for label, block in forms.items():
            dev = max_abs_diff(block, signs[label] * base)
            deviations[label] = max(deviations.get(label, dev), dev)
    return deviations


def every_sector_chain(word, timestep=1.0):
    """bch_chain's deviations, every sector formed in full and compared with its dense permutation block."""
    _require_commuting_tail(word)
    perm = evolution_permutation(word)
    coeffs = uniform_polynomial_form(perm, timestep)
    deviations = every_sector_form_deviations(word, np.pi / 2, 1.0)
    shifts = [shift_permutation(length) for length in sorted(set(perm.cycle_lengths()))]
    deviations[FORM_HAMILTONIAN] = max(
        max_abs_diff(expm(-1j * timestep * polynomial_matrix(s, coeffs)), s.matrix()) for s in shifts
    )
    return deviations


def every_sector_perturbed_blocks(word, epsilon):
    """Each sector's configurations and its block of the perturbed product, every sector formed in full."""
    offsets = np.broadcast_to(np.asarray(epsilon, dtype=float), len(word.factors))
    return [(idx, (1j ** len(word.factors)) * _times_exps(identity(idx.size), factors, 0.5 * np.pi + offsets))
            for idx, factors in every_sector_factors(word)]


def every_sector_leakage(word, epsilon):
    """perturbation_leakage, every sector formed in full."""
    return max(superposition_leakage(block) for _, block in every_sector_perturbed_blocks(word, epsilon))


def dense_perturbed_product(word, epsilon, k=0):
    """Product over factors of i * exp(-i*((2k + 1/2)*pi + epsilon_f) * P_f), of dense matrices in word order.

    epsilon is one offset for every factor or one per factor. The coupling family
    k shifts every angle by 2*pi*k, which leaves each exponential unchanged.
    """
    mats = [exchange_permutation(word.n_spins, i, j).matrix() for i, j in word.factors]
    offsets = np.broadcast_to(np.asarray(epsilon, dtype=float), len(mats))
    base = (2 * k + 0.5) * np.pi
    return reduce(np.matmul, [1j * exp_involution(p, base + eps) for p, eps in zip(mats, offsets)])


def cycle_block_expm(perm, h, scale):
    """expm(scale * h), dense, for an h that is block diagonal on the cycles of perm.

    Each cycle block is exponentiated on its own and scattered back; raises
    ValueError if h has a nonzero entry outside the blocks or the wrong size.
    """
    h = as_matrix(h)
    if h.shape[0] != perm.size:
        raise ValueError(f"h is {h.shape[0]}x{h.shape[0]}, the permutation acts on {perm.size} points")
    tables = _cycles_by_length(perm)
    out = np.zeros_like(h)
    for rows, stack in zip(tables.values(), _cycle_blocks(h, tables)):
        out[rows[:, :, None], rows[:, None, :]] = [expm(scale * block) for block in stack]
    return out


def dense_spin_errors(perm, h, coeffs, t):
    """The five matrix checks of the spin command, each as one dense 2^N x 2^N difference of T*H."""
    n = perm.size.bit_length() - 1
    down = number_down(n)
    up = n - down
    flip = spinflip(n).map
    th = t * h
    return {
        "round_trip": max_abs_diff(cycle_block_expm(perm, th, -1j), perm.matrix()),
        "commutes_number_up": max_abs_diff(th * up, up[:, None] * th),
        "commutes_number_down": max_abs_diff(th * down, down[:, None] * th),
        "commutes_spinflip": max_abs_diff(th[:, flip], th[flip, :]),
        "polynomial_matches_blocks": max_abs_diff(polynomial_matrix(perm, t * coeffs), th),
    }


def dense_times_exp_tail_sum(m: np.ndarray, word: ExchangeWord, theta: float) -> np.ndarray:
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


@st.composite
def random_words(draw):
    """Words of 1..6 exchanges on 2..9 spins; they may leave spins untouched."""
    n = draw(st.integers(2, 9))
    pairs = st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda pair: pair[0] != pair[1])
    return ExchangeWord(n_spins=n, factors=tuple(draw(st.lists(pairs, min_size=1, max_size=6))))
