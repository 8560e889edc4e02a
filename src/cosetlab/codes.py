"""Linear codes over prime fields: generators, parity checks, cosets, Reed-Solomon.

A code is stored by a full-rank k x n generator G and a full-rank
(n-k) x n parity-check H with G H^T = 0. Messages enumerate in
lexicographic (mixed-radix index) order; codeword i is message i times G.
"""

from __future__ import annotations

import numpy as np

from .galois import PrimeField, all_vectors

__all__ = [
    "LinearCode",
    "rs_code",
    "random_code",
    "syndrome",
    "coset_members",
    "rref",
    "rref_batch",
    "null_space",
    "solve_batch",
    "solve_particular",
]


# ---- dense Gaussian elimination over F_q ---------------------------------


def _eliminate(field: PrimeField, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The one F_q elimination kernel: the RREF rows of every matrix in a
    (batch, rows, cols) stack, in the order one shared column sweep of
    whole-stack numpy operations found them (pivots are scaled by
    `_inverse_table` lookups). Returns (rows, pivots): row r of matrix b is
    the pivot row of column pivots[b, r], or a zero row if that is cols.
    """
    q = field.q
    m = np.asarray(m, dtype=np.int64)
    if m.ndim != 3:
        raise ValueError("expected a (batch, rows, cols) stack of matrices")
    batch, rows, cols = m.shape
    # an extra zero row 0 is the pivot row of a column without one (its
    # score is 0, so argmax lands on it); scaling and clearing with it is a no-op
    a = np.zeros((batch, rows + 1, cols), dtype=np.int64)
    np.remainder(m, q, out=a[:, 1:])
    flat_rows = a.reshape(-1, cols)
    first_row = np.arange(0, batch * (rows + 1), rows + 1)
    free = np.ones((batch, rows + 1), dtype=np.int64)
    pivot_of_row = np.full((batch, rows + 1), cols, dtype=np.int64)
    for c in range(cols):
        if c >= rows and not free[:, 1:].any():
            break
        column = a[:, :, c]
        p = first_row + (column * free).argmax(axis=1)
        top = flat_rows[p]
        top *= field._inverse_table[top[:, c]][:, None]
        # clear column c everywhere, then restore row p as the scaled pivot row
        a -= column[:, :, None] * top[:, None, :]
        flat_rows[p] = top
        a %= q
        free.reshape(-1)[p] = 0
        pivot_of_row.reshape(-1)[p] = c
    return a[:, 1:], pivot_of_row[:, 1:]


def rref_batch(field: PrimeField, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduced row echelon form of every matrix in a (batch, rows, cols)
    stack: `_eliminate`'s rows sorted by pivot column, zero rows last.
    Returns (reduced stack, pivots), pivots[b, r] being the pivot column of
    row r of matrix b or -1 for a zero row. The RREF is canonical, so the
    pivot search order cannot change it."""
    rows, pivot_of_row = _eliminate(field, m)
    cols = rows.shape[2]
    at = np.arange(len(rows))[:, None]
    order = np.argsort(pivot_of_row, axis=1, kind="stable")
    pivots = pivot_of_row[at, order]
    return rows[at, order], np.where(pivots < cols, pivots, -1)


def solve_batch(field: PrimeField, m: np.ndarray,
                b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One solution x[i] of m[i] x[i]^T = b[i]^T for each system of a stack.

    m is (batch, rows, cols), b is (batch, rows). Returns (x, ok): free
    unknowns are 0, and x[i] is meaningless where system i is inconsistent.
    Each pivot row of the augmented RREF gives its pivot column's unknown,
    so `_eliminate`'s rows are read unsorted.
    """
    m = np.asarray(m, dtype=np.int64)
    batch, _, cols = m.shape
    rows, pivots = _eliminate(field, np.concatenate([m, np.asarray(b)[..., None]], axis=2))
    # zero rows (pivot cols + 1) and an inconsistent row (pivot cols) write to spare slots
    x = np.zeros((batch, cols + 2), dtype=np.int64)
    x[np.arange(batch)[:, None], pivots] = rows[:, :, cols]
    return x[:, :cols], ~np.any(pivots == cols, axis=1)


def rref(field: PrimeField, m: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over F_q; returns (rref matrix, pivot columns)."""
    red, pivots = rref_batch(field, np.asarray(m)[None])
    return red[0], [int(c) for c in pivots[0] if c >= 0]


def null_space(field: PrimeField, m: np.ndarray) -> np.ndarray:
    """Basis of {x : m x^T = 0} as rows; shape (dim, cols)."""
    a, pivots = rref(field, m)
    free = [c for c in range(a.shape[1]) if c not in pivots]
    basis = np.zeros((len(free), a.shape[1]), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = (-a[:len(pivots), free].T) % field.q
    return basis


def solve_particular(field: PrimeField, m: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """One solution x of m x^T = b^T, or None if inconsistent."""
    x, ok = solve_batch(field, np.asarray(m)[None], np.asarray(b)[None])
    return x[0] if ok[0] else None


# ---- code objects ----------------------------------------------------------


class LinearCode:
    """[n, k] linear code over F_q given by generator G (H derived or given)."""

    def __init__(self, q: int, g: np.ndarray, h: np.ndarray | None = None):
        self.field = PrimeField(q)
        self.q = self.field.q
        g = np.array(g, dtype=np.int64) % q
        if g.ndim != 2:
            raise ValueError("generator must be a matrix")
        self.k, self.n = g.shape
        if not 1 <= self.k < self.n:
            raise ValueError(f"need 1 <= k < n, got k={self.k}, n={self.n}")
        # G has rank k exactly when its null space has n - k rows, and
        # null_space's identity block on G's free columns gives that H rank n - k
        derived = null_space(self.field, g)
        if len(derived) != self.n - self.k:
            raise ValueError("generator matrix is not full rank")
        self.G = g
        h = derived if h is None else np.array(h, dtype=np.int64) % q
        rank_ok = h is derived or len(rref(self.field, h)[1]) == self.n - self.k
        if h.shape != (self.n - self.k, self.n) or not rank_ok:
            raise ValueError("parity-check matrix has wrong shape or rank")
        if np.any((self.G @ h.T) % q):
            raise ValueError("G H^T != 0")
        self.H = h
        for matrix in (g, h):  # read-only, so a check made on a code holds for its life
            matrix.flags.writeable = False

    def __repr__(self) -> str:
        return f"LinearCode(q={self.q}, n={self.n}, k={self.k})"

    def messages(self) -> np.ndarray:
        """All q^k messages in index order, shape (q^k, k)."""
        return all_vectors(self.q, self.k)

    def codewords(self) -> np.ndarray:
        """All q^k codewords in message-index order, shape (q^k, n)."""
        return (self.messages() @ self.G) % self.q

    def encode(self, message: np.ndarray) -> np.ndarray:
        message = np.asarray(message, dtype=np.int64)
        if message.shape[-1] != self.k:
            raise ValueError(f"message length must be {self.k}")
        return (message @ self.G) % self.q


def rs_code(q: int, k: int) -> LinearCode:
    """Full-support Reed-Solomon code: degree-<k evaluations at all of F_q.

    Evaluation points are the residues 0..q-1 in ascending order, so
    coordinate i of a codeword is P(i). Row i of G is the i-th power row
    (0^i, 1^i, ..., (q-1)^i); messages are coefficient vectors,
    low-degree-first. H is computed as the null space of G (its row space
    equals the degree-<(q-k) evaluation code).
    """
    field = PrimeField(q)
    if not 1 <= k < q:
        raise ValueError(f"need 1 <= k < q, got k={k}, q={q}")
    points = np.arange(q, dtype=np.int64)
    g = np.ones((k, q), dtype=np.int64)
    for i in range(1, k):
        g[i] = (g[i - 1] * points) % q
    return LinearCode(field.q, g)


def random_code(q: int, n: int, k: int, seed: int) -> LinearCode:
    """Reproducible random [n, k] code with full-rank G (systematic left part)."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    # identity block guarantees rank k; the rest is uniform
    g = np.hstack([
        np.eye(k, dtype=np.int64),
        rng.integers(0, q, size=(k, n - k), dtype=np.int64),
    ])
    return LinearCode(q, g)


def syndrome(code: LinearCode, y: np.ndarray) -> np.ndarray:
    """H y^T, zero exactly on the code; the dual code's syndrome is G y^T."""
    y = np.asarray(y, dtype=np.int64)
    if y.shape[-1] != code.n:
        raise ValueError(f"vector length must be {code.n}")
    return (y @ code.H.T) % code.q


def _particular(code: LinearCode, u: np.ndarray) -> np.ndarray:
    """One y with H y^T = u; the coset {y : H y^T = u} is y + the code."""
    u = np.asarray(u, dtype=np.int64) % code.q
    if u.shape != (code.n - code.k,):
        raise ValueError(f"syndrome length must be {code.n - code.k}")
    particular = solve_particular(code.field, code.H, u)
    assert particular is not None, "full-rank system cannot be inconsistent"
    return particular


def coset_members(code: LinearCode, u: np.ndarray) -> np.ndarray:
    """All coset elements in message-index order (desk scale only)."""
    return (_particular(code, u) + code.codewords()) % code.q
