"""Prime-field arithmetic, additive characters, and Fourier transforms.

Conventions fixed here and shared by the whole package:

- A field element is a plain integer residue in [0, q); a vector is a numpy
  int64 array whose entries all live in one field (the field object is passed
  alongside, there is no per-element wrapper type).
- Dense functions on F_q^n are 1-D complex arrays of length q^n indexed in
  mixed radix with coordinate 0 most significant:
  index(v) = v[0]*q^(n-1) + ... + v[n-1].
- The forward transform is fhat(x) = q^(-n/2) * sum_y chi_x(y) f(y) with
  chi_x(y) = exp(2*pi*i*<x,y>/q); the inverse conjugates the character.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .config import require_budget

__all__ = [
    "PrimeField",
    "character",
    "fourier_transform",
    "inverse_fourier_transform",
    "code_character_sum",
    "index_of_vector",
    "radix_weights",
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
    prime q and trace characters are deliberately out of scope.
    """

    def __init__(self, q: int):
        if not _is_prime(q):
            raise ValueError(f"modulus must be prime, got {q}")
        self.q = int(q)

    def __repr__(self) -> str:
        return f"PrimeField({self.q})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeField) and other.q == self.q

    def __hash__(self) -> int:
        return hash(("PrimeField", self.q))

    # ---- scalar/array arithmetic -------------------------------------

    def add(self, a, b):
        return (np.asarray(a, dtype=np.int64) + np.asarray(b, dtype=np.int64)) % self.q

    def sub(self, a, b):
        return (np.asarray(a, dtype=np.int64) - np.asarray(b, dtype=np.int64)) % self.q

    def mul(self, a, b):
        return (np.asarray(a, dtype=np.int64) * np.asarray(b, dtype=np.int64)) % self.q

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

    # ---- representatives and subsets ---------------------------------

    def signed(self, a: int) -> int:
        """Signed representative in [-(q-1)//2, ceil((q-1)/2)]."""
        a = int(a) % self.q
        return a if a <= (self.q - 1 + 1) // 2 else a - self.q

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


# ---- mixed-radix indexing ----------------------------------------------


def index_of_vector(vec: np.ndarray, q: int) -> int:
    """Mixed-radix index of a vector, coordinate 0 most significant."""
    idx = 0
    for v in np.asarray(vec, dtype=np.int64):
        idx = idx * q + int(v) % q
    return idx


def radix_weights(q: int, n: int) -> np.ndarray:
    """Place values (q^(n-1), ..., q, 1): `vectors @ radix_weights(q, n)`
    gives the index of every row of a (..., n) array of residues."""
    return q ** np.arange(n - 1, -1, -1, dtype=np.int64)


def vector_of_index(idx: int, q: int, n: int) -> np.ndarray:
    out = np.zeros(n, dtype=np.int64)
    for i in range(n - 1, -1, -1):
        out[i] = idx % q
        idx //= q
    return out


def all_vectors(q: int, n: int, budget: int | None = None) -> np.ndarray:
    """All of F_q^n as a (q^n, n) array in index order."""
    require_budget(q**n, budget)
    grids = np.meshgrid(*([np.arange(q, dtype=np.int64)] * n), indexing="ij")
    return np.stack(grids, axis=-1).reshape(-1, n)


# ---- characters on vectors ----------------------------------------------


def character(field: PrimeField, y: np.ndarray, x: np.ndarray) -> complex:
    """chi_y(x) = exp(2*pi*i*<x,y>/q). Symmetric in x and y."""
    y = np.asarray(y, dtype=np.int64)
    x = np.asarray(x, dtype=np.int64)
    if x.shape != y.shape:
        raise ValueError(f"length mismatch: {x.shape} vs {y.shape}")
    return complex(field.roots_of_unity[int(np.dot(x % field.q, y % field.q)) % field.q])


def character_profile(field: PrimeField, y: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """chi_y(x) for every row x of xs (vectorized)."""
    phases = (np.asarray(xs, dtype=np.int64) @ (np.asarray(y, dtype=np.int64) % field.q)) % field.q
    return field.roots_of_unity[phases]


# ---- Fourier transforms --------------------------------------------------


def _axiswise_transform(field: PrimeField, f: np.ndarray, matrix: np.ndarray,
                        budget: int | None) -> np.ndarray:
    q = field.q
    size = f.shape[0]
    n = 0
    total = 1
    while total < size:
        total *= q
        n += 1
    if total != size or f.ndim != 1:
        raise ValueError(f"function length {size} is not a power of q={q}")
    require_budget(size, budget)
    arr = np.asarray(f, dtype=np.complex128).reshape((q,) * max(n, 1))
    # one size-q pass per coordinate: O(n * q * q^n) total
    for axis in range(n):
        arr = np.moveaxis(np.tensordot(matrix, arr, axes=([1], [axis])), 0, axis)
    return arr.reshape(size)


def fourier_transform(field: PrimeField, f: np.ndarray,
                      budget: int | None = None) -> np.ndarray:
    """fhat(x) = q^(-n/2) sum_y chi_x(y) f(y), computed coordinate-wise."""
    return _axiswise_transform(field, f, field.fourier_matrix, budget)


def inverse_fourier_transform(field: PrimeField, f: np.ndarray,
                              budget: int | None = None) -> np.ndarray:
    """Inverse of `fourier_transform` (conjugated characters)."""
    return _axiswise_transform(field, f, field.fourier_matrix.conj(), budget)


def code_character_sum(code, y: np.ndarray) -> complex:
    """sum over codewords c of chi_y(c): |C| on the dual, ~0 elsewhere."""
    y = np.asarray(y, dtype=np.int64)
    if y.shape != (code.n,):
        raise ValueError(f"y must have length {code.n}")
    field = PrimeField(code.q)
    return complex(character_profile(field, y, code.codewords()).sum())
