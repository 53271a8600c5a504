"""Dense reference evaluations and random words shared by the test modules.

The references assemble full 2^N x 2^N matrices on purpose: the library works
on cycle blocks and down-count sector blocks, and the tests compare it with the
dense expressions it stands for. The generic commutator series lives here too:
that it does not terminate for noncommuting exchanges is the contrast with the
library's closed forms.
"""

from functools import reduce

import numpy as np
from hypothesis import strategies as st

from permlog.bch import _sectors
from permlog.dynamics import ExchangeWord, _cycle_blocks, _cycles_by_length, polynomial_matrix
from permlog.linalg import (DEFAULT_UNITARITY_TOL, DimensionMismatch, InvolutionViolation, as_matrix, expm,
                            identity, max_abs_diff)
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
    """The dense 2^N x 2^N matrix with the given down-count sector blocks and zeros elsewhere."""
    out = np.zeros((1 << n_spins, 1 << n_spins), dtype=complex)
    for idx, block in zip(_sectors(n_spins)[0], blocks):
        out[np.ix_(idx, idx)] = block
    return out


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
    """The five matrix checks of the spin command, each as one dense 2^N x 2^N difference."""
    n = perm.size.bit_length() - 1
    down = number_down(n)
    up = n - down
    flip = spinflip(n).map
    return {
        "round_trip": max_abs_diff(cycle_block_expm(perm, h, -1j * t), perm.matrix()),
        "commutes_number_up": max_abs_diff(h * up, up[:, None] * h),
        "commutes_number_down": max_abs_diff(h * down, down[:, None] * h),
        "commutes_spinflip": max_abs_diff(h[:, flip], h[flip, :]),
        "polynomial_matches_blocks": max_abs_diff(polynomial_matrix(perm, coeffs), h),
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
