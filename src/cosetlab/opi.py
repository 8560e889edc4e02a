"""Offset polynomial satisfaction and its coset-decoding equivalence.

The problem: given per-point subsets S_i of F_q (one for each residue i),
a target fraction tau, and a fixed offset string x indexed by F_q, find a
polynomial P of degree < k such that P(i) + x_i lands in S_i for at least
tau*q of the points.

An instance is the coset x + RS_k of the full-support Reed-Solomon code
`rs_code(q, k)`: codeword i is the evaluation table of the i-th
coefficient vector, so P(i) + x_i is coordinate i of a coset member.
Solving the instance is finding a member y of the syndrome-(H x^T) coset
with #{i : y_i in S_i} >= tau*q, and y - x interpolates back to P.
`opi_to_icc` and `icc_to_opi` map each way, and the satisfied counts agree
point for point. Evaluation, interpolation and enumeration all read the
code's generator; the syndrome H x^T and coset members read its parity check.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
import numpy as np

from .codes import LinearCode, coset_members, rs_code, solve_particular, syndrome
from .config import count_threshold, require_budget
from .galois import PrimeField, vector_of_index
from .noise import ConstraintSet, ErrorProfile, build_profile, indicator_table

__all__ = [
    "OPIInstance",
    "OPISolution",
    "generate_instance",
    "interpolate",
    "opi_to_icc",
    "icc_to_opi",
    "brute_force_opi",
    "brute_force_icc",
    "verify",
]


# ---- polynomials over F_q ---------------------------------------------------


def interpolate(q: int, values: np.ndarray, k: int) -> np.ndarray | None:
    """Coefficients of the unique P with deg < k through (i, values[i]).

    `values` must cover all residues 0..q-1; returns None when no
    polynomial of degree < k fits every point. The evaluation system
    G^T P^T = values of `rs_code(q, k)` has full column rank, so it is
    consistent exactly when P exists and then has one solution.
    """
    values = np.asarray(values, dtype=np.int64) % q
    if values.shape != (q,):
        raise ValueError(f"need one value per residue, got shape {values.shape}")
    code = rs_code(q, k)
    return solve_particular(code.field, code.G.T, values)


# ---- instances ---------------------------------------------------------------


def _json_int(value) -> int:
    """value if JSON parsed it as an integer (a bool is not one), else TypeError."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {json.dumps(value)}")
    return value


@dataclass(frozen=True)
class OPIInstance:
    """One problem instance: per-point sets, target fraction, offset string."""

    q: int
    k: int
    sets: tuple[tuple[int, ...], ...]
    tau: float
    x: tuple[int, ...]
    seed: int | None = None

    def __post_init__(self):
        PrimeField(self.q)
        if not 1 <= self.k < self.q:
            raise ValueError(f"need 1 <= k < q, got k={self.k}, q={self.q}")
        if len(self.x) != self.q:
            raise ValueError(f"offset string must have length q={self.q}")
        if any(not 0 <= v < self.q for v in self.x):
            raise ValueError("offset entries must be residues mod q")
        if len(self.sets) != self.q:
            raise ValueError(f"need one set per residue, got {len(self.sets)}")
        if not 0.0 < self.tau <= 1.0:
            raise ValueError(f"tau must be in (0, 1], got {self.tau}")
        sizes = {len(set(s)) for s in self.sets}
        if any(len(set(s)) != len(s) for s in self.sets):
            raise ValueError("sets must not repeat residues")
        # a full set is met by every polynomial, so the instance is trivial
        if sizes != {len(self.sets[0])} or not 1 <= len(self.sets[0]) < self.q:
            raise ValueError(f"sets must have one size in [1, {self.q - 1}]")
        for s in self.sets:
            if any(not 0 <= v < self.q for v in s):
                raise ValueError("set entries must be residues mod q")

    @cached_property
    def set_indicator(self) -> np.ndarray:
        """0/1 table ind[i, alpha] = 1 iff alpha in S_i, shape (q, q)."""
        return indicator_table(self.q, self.sets)

    @cached_property
    def code(self) -> LinearCode:
        """RS_k over all of F_q; the instance is the coset x + RS_k."""
        return rs_code(self.q, self.k)

    @cached_property
    def profile(self) -> ErrorProfile:
        """Error profile over the sets."""
        return build_profile(self.q, self.q, self.sets, self.tau)

    @cached_property
    def min_count(self) -> int:
        return count_threshold(self.tau, self.q)

    def x_array(self) -> np.ndarray:
        return np.array(self.x, dtype=np.int64)

    def to_dict(self) -> dict:
        return {
            "q": self.q,
            "k": self.k,
            "tau": self.tau,
            "sets": [list(s) for s in self.sets],
            "x": list(self.x),
            "seed": self.seed,
        }

    @staticmethod
    def from_dict(d: dict) -> "OPIInstance":
        if type(d["tau"]) not in (int, float):
            raise TypeError(f"expected a number, got {json.dumps(d['tau'])}")
        return OPIInstance(
            q=_json_int(d["q"]), k=_json_int(d["k"]),
            sets=tuple(tuple(map(_json_int, s)) for s in d["sets"]),
            tau=float(d["tau"]), x=tuple(map(_json_int, d["x"])),
            seed=None if d.get("seed") is None else _json_int(d["seed"]))

    @staticmethod
    def from_json(text: str) -> "OPIInstance":
        return OPIInstance.from_dict(json.loads(text))


@dataclass(frozen=True)
class OPISolution:
    """Low-degree-first coefficient vector and its satisfied-point count."""

    coeffs: tuple[int, ...]
    count: int

    def to_dict(self) -> dict:
        return {"coeffs": list(self.coeffs), "count": self.count}

    @staticmethod
    def from_dict(d: dict) -> "OPISolution":
        return OPISolution(tuple(map(_json_int, d["coeffs"])), _json_int(d["count"]))


def generate_instance(q: int, k: int, set_size: int, tau: float,
                      seed: int) -> OPIInstance:
    """Random instance: uniform sets of the given size, uniform offset string."""
    if not 1 <= set_size <= q - 1:
        raise ValueError(f"sets must have one size in [1, {q - 1}]")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    sets = tuple(
        tuple(int(v) for v in sorted(rng.choice(q, size=set_size, replace=False)))
        for _ in range(q))
    x = tuple(int(v) for v in rng.integers(0, q, size=q))
    return OPIInstance(q=q, k=k, sets=sets, tau=tau, x=x, seed=seed)


def satisfied_count(instance: OPIInstance, coeffs: np.ndarray) -> int:
    """#{i : P(i) + x_i in S_i} for the given coefficient vector."""
    coeffs = np.asarray(coeffs, dtype=np.int64)
    if coeffs.shape != (instance.k,):
        raise ValueError(f"coefficient vector must have length {instance.k}")
    values = (instance.code.encode(coeffs) + instance.x_array()) % instance.q
    return int(instance.set_indicator[np.arange(instance.q), values].sum())


def verify(instance: OPIInstance, solution: OPISolution) -> tuple[int, bool]:
    """Exact satisfied count and whether it clears the tau*q bar."""
    if any(not 0 <= c < instance.q for c in solution.coeffs):
        raise ValueError("coefficients must be residues mod q")
    count = satisfied_count(instance, np.array(solution.coeffs))
    return count, count >= instance.min_count


# ---- the equivalence, both directions ----------------------------------------


def opi_to_icc(instance: OPIInstance) -> tuple[LinearCode, np.ndarray, ConstraintSet]:
    """Instance -> (Reed-Solomon code, parity syndrome of x, constraint set).

    Solving the instance is exactly finding a member of the syndrome-u
    coset of RS_k inside the constraint set.
    """
    code = instance.code
    u = syndrome(code, instance.x_array())
    constraint = ConstraintSet(instance.profile, instance.tau)
    return code, u, constraint


def icc_to_opi(instance: OPIInstance, y: np.ndarray) -> OPISolution:
    """Coset member -> polynomial, by interpolating y - x.

    The satisfied count of the returned polynomial equals
    #{i : y_i in S_i}: the two sides count the same points.
    """
    y = np.asarray(y, dtype=np.int64) % instance.q
    if y.shape != (instance.q,):
        raise ValueError(f"vector length must be {instance.q}")
    diff = (y - instance.x_array()) % instance.q
    coeffs = interpolate(instance.q, diff, instance.k)
    if coeffs is None:
        raise ValueError("not a coset solution: y - x is not a codeword")
    return OPISolution(coeffs=tuple(int(c) for c in coeffs),
                       count=satisfied_count(instance, coeffs))


# ---- brute-force oracles ------------------------------------------------------


def brute_force_opi(instance: OPIInstance,
                    budget: int | None = None) -> OPISolution:
    """Best polynomial by scoring every member of the coset x + RS_k.

    Coefficient vectors enumerate in message-index order and ties break
    to the lowest index, so the result is deterministic. The budget counts
    q^k members of q points, checked before the code is built.
    """
    require_budget(instance.q ** (instance.k + 1), budget)
    q, code = instance.q, instance.code
    words = (code.codewords() + instance.x_array()) % q
    counts = instance.set_indicator[np.arange(q), words].sum(axis=1)
    best = int(np.argmax(counts))
    return OPISolution(coeffs=tuple(int(c) for c in vector_of_index(best, q, code.k)),
                       count=int(counts[best]))


def brute_force_icc(code: LinearCode, u: np.ndarray, constraint: ConstraintSet,
                    budget: int | None = None) -> tuple[np.ndarray, int]:
    """Best coset member by exhausting the syndrome-u coset of the code."""
    require_budget(code.q**code.k * code.n, budget)
    members = coset_members(code, u)
    ind = constraint.profile.set_indicator
    counts = ind[np.arange(code.n)[None, :], members].sum(axis=1)
    best = int(np.argmax(counts))
    return members[best], int(counts[best])
