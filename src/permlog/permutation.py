"""Permutations on {0..n-1} in one-line form, with cycle structure."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True, eq=False)
class Permutation:
    """A bijection on {0..n-1}; ``map[m]`` is the image of m.

    ``map`` is a read-only 1-D ``np.intp`` copy of the input sequence. Composition follows
    matrix convention: ``(p * q)(x) = p(q(x))``, i.e. the right factor acts first, and
    ``(p * q).matrix() == p.matrix() @ q.matrix()``.
    """

    map: np.ndarray

    def __post_init__(self):
        given = np.asarray(self.map)
        try:
            entries = given.astype(np.intp)
        except OverflowError:  # an entry beyond the index range cannot be a point
            raise ValueError("map is not a bijection on 0..n-1") from None
        if entries.ndim != 1:
            raise ValueError(f"map must be one-dimensional, got shape {entries.shape}")
        if entries.size == 0:  # before the dtype: an empty sequence reads as floats
            raise ValueError("a permutation needs at least one point")
        if given.dtype.kind in "bfc":
            raise ValueError("map entries must be integers")
        if not np.array_equal(np.sort(entries), np.arange(entries.size)):
            raise ValueError("map is not a bijection on 0..n-1")
        entries.flags.writeable = False
        object.__setattr__(self, "map", entries)

    @property
    def size(self) -> int:
        return self.map.size

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(np.arange(n))

    def __call__(self, index: int) -> int:
        return int(self.map[index])

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and np.array_equal(self.map, other.map)

    def __hash__(self) -> int:
        return hash(self.map.tobytes())

    def __mul__(self, other: "Permutation") -> "Permutation":
        if self.size != other.size:
            raise ValueError(f"size mismatch: {self.size} vs {other.size}")
        return Permutation(self.map[other.map])

    def inverse(self) -> "Permutation":
        return Permutation(np.argsort(self.map))

    def __pow__(self, exponent: int) -> "Permutation":
        base = self if exponent >= 0 else self.inverse()
        k = abs(exponent)
        out = Permutation.identity(self.size)
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def is_identity(self) -> bool:
        return np.array_equal(self.map, np.arange(self.size))

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Disjoint cycles, each starting at its smallest member, sorted by that member."""
        return self._cycles

    @cached_property
    def _cycles(self) -> tuple[tuple[int, ...], ...]:  # computed once: map is read-only
        image = self.map.tolist()  # Python ints: list indexing beats numpy scalar indexing in a loop
        seen: set[int] = set()
        out: list[tuple[int, ...]] = []
        for start in range(self.size):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            x = image[start]
            while x != start:
                cyc.append(x)
                seen.add(x)
                x = image[x]
            out.append(tuple(cyc))
        return tuple(out)

    def cycle_lengths(self) -> tuple[int, ...]:
        return tuple(sorted(len(c) for c in self.cycles()))

    def order(self) -> int:
        """Smallest k >= 1 with self**k equal to the identity (lcm of cycle lengths)."""
        return math.lcm(*self.cycle_lengths())

    def matrix(self) -> np.ndarray:
        """The complex matrix sending basis vector m to basis vector map[m] (one 1 per column)."""
        m = np.zeros((self.size, self.size), dtype=complex)
        m[self.map, np.arange(self.size)] = 1
        return m
