"""Prime fields, additive characters, and Fourier transforms.

Conventions fixed here and shared by the whole package:

- A field element is a plain integer residue in [0, q); a vector is a numpy
  int64 array whose entries all live in one field (the field object is passed
  alongside, there is no per-element wrapper type). Sums and products are
  integer arithmetic mod q; the field caches inverses and transform matrices.
- Dense functions on F_q^n are 1-D complex arrays of length q^n indexed in
  mixed radix with coordinate 0 most significant:
  index(v) = v[0]*q^(n-1) + ... + v[n-1]. `index_of_vector` computes every
  such index in the package, of one vector or of a whole grid of words.
- The forward transform is fhat(x) = q^(-n/2) * sum_y chi_x(y) f(y) with
  chi_x(y) = exp(2*pi*i*<x,y>/q); the inverse conjugates the character.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from functools import cached_property

import numpy as np

__all__ = [
    "PrimeField",
    "fourier_transform",
    "inverse_fourier_transform",
    "index_of_vector",
    "vector_of_index",
    "all_vectors",
]


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    if q < 4:
        return True
    if q % 2 == 0:
        return False
    d = 3
    while d * d <= q:
        if q % d == 0:
            return False
        d += 2
    return True


class PrimeField:
    """Arithmetic context for F_q with q prime.

    Construction rejects composites and prime powers; all experiments use
    prime q and trace characters are deliberately out of scope. q must lie
    below 2^31, checked first: trial division up to sqrt(q) then takes
    milliseconds, where a q near 10^18 would take hours.
    """

    def __init__(self, q: int):
        if q >= 2**31:
            raise ValueError(f"modulus must be a prime below 2^31, got {q}")
        if not _is_prime(q):
            raise ValueError(f"modulus must be prime, got {q}")
        self.q = int(q)

    def __repr__(self) -> str:
        return f"PrimeField({self.q})"

    # ---- inverses and subsets -----------------------------------------

    @cached_property
    def _inverse_table(self) -> np.ndarray:
        # 0 maps to 0: inv(0) is rejected before lookup, and the elimination
        # kernel scales its all-zero row by it
        table = np.zeros(self.q, dtype=np.int64)
        for a in range(1, self.q):
            table[a] = pow(a, self.q - 2, self.q)
        return table

    def inv(self, a):
        arr = np.asarray(a, dtype=np.int64) % self.q
        if np.any(arr == 0):
            raise ZeroDivisionError("division by zero in F_q")
        out = self._inverse_table[arr]
        return int(out) if np.isscalar(a) or np.asarray(a).ndim == 0 else out

    def centered_interval(self, z: int) -> tuple[int, ...]:
        """Residues whose signed representatives lie in [-z, z], sorted."""
        if z < 0 or 2 * z + 1 > self.q:
            raise ValueError(f"interval radius {z} invalid for q={self.q}")
        return tuple(sorted({j % self.q for j in range(-z, z + 1)}))

    # ---- characters ---------------------------------------------------

    @cached_property
    def roots_of_unity(self) -> np.ndarray:
        """exp(2*pi*i*j/q) for j in [0, q)."""
        return np.exp(2j * np.pi * np.arange(self.q) / self.q)

    @cached_property
    def fourier_matrix(self) -> np.ndarray:
        """Unitary q x q matrix F[x, y] = q^(-1/2) exp(2*pi*i*x*y/q)."""
        powers = np.outer(np.arange(self.q), np.arange(self.q)) % self.q
        return self.roots_of_unity[powers] / math.sqrt(self.q)

    @cached_property
    def _inverse_fourier_matrix(self) -> np.ndarray:
        return self.fourier_matrix.conj()


# ---- mixed-radix indexing ----------------------------------------------


def index_of_vector(coords: np.ndarray | Iterable[np.ndarray], q: int) -> int | np.ndarray:
    """Mixed-radix index, coordinate 0 most significant, by Horner's rule
    idx = idx * q + c mod q over the coordinates c = coords[0], coords[1], ...

    `coords` is a vector (the index is an int) or an iterable of broadcastable
    integer arrays, one per coordinate (the index is their broadcast array).
    On the axes `np.ogrid[(slice(q),) * m]` it indexes every word of F_q^m,
    in index order; on a (m, ...) stack of words it indexes each of them.
    Once the index has its full shape it is updated in place, and each
    coordinate's array is freed before the next is built, so a grid's
    index holds three grid-sized arrays at most: itself, c and c mod q.
    """
    idx = 0
    for c in coords:
        c = np.asarray(c, dtype=np.int64) % q
        if np.ndim(idx) and np.shape(idx) == np.broadcast_shapes(np.shape(idx), c.shape):
            idx *= q
            idx += c
        else:
            idx = idx * q + c
        del c
    return int(idx) if np.ndim(idx) == 0 else idx


def vector_of_index(idx: int, q: int, n: int) -> np.ndarray:
    out = np.zeros(n, dtype=np.int64)
    for i in range(n - 1, -1, -1):
        out[i] = idx % q
        idx //= q
    return out


def all_vectors(q: int, n: int) -> np.ndarray:
    """All of F_q^n as a (q^n, n) array in index order."""
    grids = np.meshgrid(*([np.arange(q, dtype=np.int64)] * n), indexing="ij")
    return np.stack(grids, axis=-1).reshape(-1, n)


# ---- Fourier transforms --------------------------------------------------


def _axiswise_transform(field: PrimeField, f: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Apply the q x q `matrix` along each of the n coordinates of the
    leading axis of f, of length q^n; trailing axes are carried along. f is
    never written to.

    Each coordinate takes one `np.matmul(matrix, a.reshape(q^i, q, -1),
    out=b)` pass, O(q * q^n) per trailing entry. Coordinate 0 goes from f
    into the result. The rest act within each of the q slices of the result
    at a fixed coordinate 0, one slice at a time, so a slice and a scratch
    buffer of one slice's size swap roles: besides f and the result, the
    transform holds 1/q of the result."""
    q = field.q
    f = np.asarray(f, dtype=np.complex128)
    size = f.shape[0] if f.ndim else 0
    n = 0
    total = 1
    while total < size:
        total *= q
        n += 1
    if total != size:
        raise ValueError(f"function length {size} is not a power of q={q}")
    if n == 0:
        return f.copy()
    out = np.empty(f.shape, dtype=np.complex128)  # C order: its reshapes are views
    np.matmul(matrix, f.reshape(1, q, -1), out=out.reshape(1, q, -1))
    slices = out.reshape(q, -1)
    scratch = np.empty(slices.shape[1], dtype=np.complex128)
    for coord0 in slices:
        a, b = coord0, scratch
        for i in range(n - 1):
            np.matmul(matrix, a.reshape(q**i, q, -1), out=b.reshape(q**i, q, -1))
            a, b = b, a
        if a is scratch:
            coord0[...] = scratch
    return out


def fourier_transform(field: PrimeField, f: np.ndarray) -> np.ndarray:
    """fhat(x) = q^(-n/2) sum_y chi_x(y) f(y), computed coordinate-wise on
    the leading axis of f, of length q^n; trailing axes are carried along."""
    return _axiswise_transform(field, f, field.fourier_matrix)


def inverse_fourier_transform(field: PrimeField, f: np.ndarray) -> np.ndarray:
    """Inverse of `fourier_transform` (conjugated characters)."""
    return _axiswise_transform(field, f, field._inverse_fourier_matrix)
