"""Product error profiles and their Fourier-side machinery.

A profile assigns each coordinate i a set S_i of the same size and a weight
tau. On the Fourier side the per-coordinate amplitude is flat on S_i (total
mass tau) and flat off it (mass 1-tau):

    uhat_i = sqrt(tau/|S_i|) on S_i,  sqrt((1-tau)/(q-|S_i|)) off S_i.

The position-side amplitudes u_i are the inverse transform; the joint error
amplitude is the tensor product f = u_1 x ... x u_n, so |fhat(y)|^2 factors
into independent per-coordinate events y_i in S_i of probability tau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .config import TOL, count_threshold
from .galois import PrimeField, inverse_fourier_transform

__all__ = [
    "ErrorProfile",
    "ConstraintSet",
    "build_profile",
    "interval_profile",
    "random_sets_profile",
    "center_probability",
    "center_probability_form",
    "tail_mass",
    "fourth_power_sum",
    "fourth_power_bound",
    "FourthPowerReport",
    "indicator_table",
]


def indicator_table(q: int, sets) -> np.ndarray:
    """0/1 table ind[i, alpha] = 1 iff alpha in sets[i], shape (len(sets), q)."""
    out = np.zeros((len(sets), q), dtype=np.int64)
    for i, s in enumerate(sets):
        out[i, list(s)] = 1
    return out


class ErrorProfile:
    """Immutable product error profile; use `build_profile` to construct."""

    def __init__(self, q: int, n: int, sets: tuple[tuple[int, ...], ...], tau: float):
        self.field = PrimeField(q)
        self.q = self.field.q
        self.n = int(n)
        self.sets = sets
        self.tau = float(tau)
        size = len(sets[0])
        self.set_size = size
        self.rho = size / self.q
        self.on_amplitude = math.sqrt(self.tau / size)
        self.off_amplitude = math.sqrt((1.0 - self.tau) / (self.q - size))

    @cached_property
    def uhat(self) -> np.ndarray:
        """Per-coordinate Fourier-side amplitudes, shape (n, q), real."""
        return np.where(self.set_indicator, self.on_amplitude, self.off_amplitude)

    @cached_property
    def u(self) -> np.ndarray:
        """Per-coordinate position-side amplitudes, shape (n, q), complex."""
        return np.stack([
            inverse_fourier_transform(self.field, row) for row in self.uhat
        ])

    @cached_property
    def set_indicator(self) -> np.ndarray:
        """0/1 table ind[i, alpha] = 1 iff alpha in S_i, shape (n, q)."""
        return indicator_table(self.q, self.sets)

    def error_probabilities(self) -> np.ndarray:
        """|u_i(e)|^2 per coordinate, shape (n, q): the classical channel."""
        return np.abs(self.u) ** 2

    def amplitudes(self) -> np.ndarray:
        """Dense joint amplitude f = tensor product of the u_i, length q^n."""
        return reduce(np.multiply.outer, self.u, np.ones(())).reshape(-1)

    def fourier_amplitudes(self) -> np.ndarray:
        """Dense fhat = tensor product of the uhat_i, length q^n, real."""
        return reduce(np.multiply.outer, self.uhat, np.ones(())).reshape(-1)

    def to_dict(self) -> dict:
        return {
            "q": self.q,
            "n": self.n,
            "tau": self.tau,
            "sets": [list(s) for s in self.sets],
        }

    def __repr__(self) -> str:
        return (f"ErrorProfile(q={self.q}, n={self.n}, tau={self.tau}, "
                f"set_size={self.set_size})")


def build_profile(q: int, n: int, sets, tau: float) -> ErrorProfile:
    """Validated profile from explicit per-coordinate sets.

    All sets must have one common size in [1, q-1]; tau in (0, 1]. Unequal
    set sizes are rejected (a possible generalization, deliberately out of
    scope).
    """
    field = PrimeField(q)
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"tau must be in (0, 1], got {tau}")
    if n < 1 or len(sets) != n:
        raise ValueError(f"need exactly n={n} sets")
    normalized = []
    for s in sets:
        t = tuple(sorted(int(a) % field.q for a in s))
        if len(set(t)) != len(t):
            raise ValueError("set contains repeated residues")
        normalized.append(t)
    sizes = {len(s) for s in normalized}
    if len(sizes) != 1:
        raise ValueError("sets must have equal size")
    size = sizes.pop()
    if not 1 <= size <= q - 1:
        raise ValueError(f"set size must be in [1, {q - 1}], got {size}")
    profile = ErrorProfile(q, n, tuple(normalized), tau)
    # construction invariants: unit mass on both sides of the transform
    assert abs(float(np.sum(profile.uhat[0] ** 2)) - 1.0) < TOL.norm
    assert abs(float(np.sum(np.abs(profile.u[0]) ** 2)) - 1.0) < TOL.norm
    return profile


def interval_profile(q: int, n: int, z: int, tau: float) -> ErrorProfile:
    """Profile whose every set is the centered interval [-z, z]."""
    field = PrimeField(q)
    if 2 * z + 1 >= q:
        raise ValueError(f"interval 2z+1={2 * z + 1} must be smaller than q={q}")
    s = field.centered_interval(z)
    return build_profile(q, n, [s] * n, tau)


def random_sets_profile(q: int, n: int, set_size: int, tau: float,
                        seed: int) -> ErrorProfile:
    """Profile with independent uniform size-`set_size` sets, reproducible."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    sets = [tuple(np.sort(rng.choice(q, size=set_size, replace=False)))
            for _ in range(n)]
    return build_profile(q, n, sets, tau)


# ---- center probability ---------------------------------------------------


# The closed forms below take floats or arrays (entrywise, broadcast), and an
# array's entries equal the float calls bit for bit. Floats keep the math
# module's speed: a scalar bisection calls them about 30 times.


def _sqrt(x):
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


def _power(x, exponent: int):
    """x ** exponent rounded as Python's float power rounds it. numpy's
    vector power can differ from it in the last bit (with numpy 2.4 on an
    AVX-512 host, on about 0.1% of entries for exponent 2 and 5% for
    exponent 3), so array entries go through Python floats."""
    if isinstance(x, np.ndarray):
        return np.asarray(np.power(x.astype(object), exponent), dtype=np.float64)
    return x**exponent


def _require_fractions(tau, rho) -> None:
    """tau in (0, 1] and rho in (0, 1) at every entry, or the float call's
    error for the first entry that is not."""
    for name, value, ok, interval in (
            ("tau", tau, (0.0 < tau) & (tau <= 1.0), "(0, 1]"),
            ("rho", rho, (0.0 < rho) & (rho < 1.0), "(0, 1)")):
        if not np.all(ok):
            if isinstance(ok, np.ndarray):
                value = float(np.broadcast_to(value, ok.shape)[~ok][0])
            raise ValueError(f"{name} must be in {interval}, got {value}")


def center_probability_form(tau, rho):
    """(sqrt(tau*rho) + sqrt((1-tau)(1-rho)))^2, expanded.

    The expanded form is exact at boundary points: at tau=1 it returns rho
    bit-for-bit, which downstream saturation checks rely on.
    """
    return tau * rho + (1.0 - tau) * (1.0 - rho) + 2.0 * _sqrt(
        tau * rho * (1.0 - tau) * (1.0 - rho))


def center_probability(profile: ErrorProfile) -> float:
    """|u_i(0)|^2 via the closed form (identical for every coordinate)."""
    return center_probability_form(profile.tau, profile.rho)


# ---- constraint sets and tail masses --------------------------------------


class ConstraintSet:
    """T = {y : #{i : y_i in S_i} >= tau_tilde * n} for a profile."""

    def __init__(self, profile: ErrorProfile, tau_tilde: float):
        if not 0.0 <= tau_tilde <= 1.0:
            raise ValueError(f"tau_tilde must be in [0, 1], got {tau_tilde}")
        if tau_tilde > profile.tau:
            raise ValueError(
                f"tau_tilde={tau_tilde} exceeds profile tau={profile.tau}")
        self.profile = profile
        self.tau_tilde = float(tau_tilde)
        self.min_count = count_threshold(self.tau_tilde, profile.n)

    def count(self, y: np.ndarray) -> int:
        y = np.asarray(y, dtype=np.int64)
        if y.shape != (self.profile.n,):
            raise ValueError(f"vector length must be {self.profile.n}")
        ind = self.profile.set_indicator
        return int(ind[np.arange(self.profile.n), y % self.profile.q].sum())

    def contains(self, y: np.ndarray) -> bool:
        return self.count(y) >= self.min_count

    def membership_mask(self) -> np.ndarray:
        """Boolean mask over all of F_q^n in index order; the hit counts are
        the outer sum of the indicator rows, ordered as in `amplitudes`."""
        counts = reduce(np.add.outer, self.profile.set_indicator.astype(np.uint8))
        return counts.reshape(-1) >= self.min_count

    def fourier_mass(self) -> float:
        """sum_{y in T} |fhat(y)|^2 by exhaustive enumeration."""
        fhat2 = self.profile.fourier_amplitudes() ** 2
        return float(fhat2[self.membership_mask()].sum())

    def to_dict(self) -> dict:
        return {"tau_tilde": self.tau_tilde, "min_count": self.min_count}


def _binomial_lower_tail(n: int, p: float, m: int) -> float:
    """P[Bin(n, p) < m] summed term by term (exact integer binomials)."""
    if m <= 0:
        return 0.0
    if p >= 1.0:
        return 0.0 if m <= n else 1.0
    total = 0.0
    for j in range(min(m, n + 1)):
        total += math.comb(n, j) * p**j * (1.0 - p) ** (n - j)
    return min(total, 1.0)


def tail_mass(profile: ErrorProfile, tau_tilde: float) -> tuple[float, float]:
    """(eta_exact, eta_hoeffding): mass of |fhat|^2 outside the constraint set.

    |fhat(y)|^2 factors into i.i.d. Bernoulli(tau) events y_i in S_i, so the
    exact tail is a binomial lower tail below the guarded count threshold.
    The Hoeffding value 2*exp(-2n(tau - tau_tilde)^2) is returned alongside
    as the analytic upper bound it is.
    """
    if tau_tilde > profile.tau:
        raise ValueError(
            f"tau_tilde={tau_tilde} exceeds profile tau={profile.tau}")
    m = count_threshold(tau_tilde, profile.n)
    eta_exact = _binomial_lower_tail(profile.n, profile.tau, m)
    eta_hoeffding = 2.0 * math.exp(-2.0 * profile.n * (profile.tau - tau_tilde) ** 2)
    return eta_exact, eta_hoeffding


# ---- fourth-power sums -----------------------------------------------------


@dataclass(frozen=True)
class FourthPowerReport:
    exact: float
    bound: float

    @property
    def gap(self) -> float:
        return self.exact - self.bound


def fourth_power_bound(tau, rho):
    """Closed-form lower bound on sum_alpha |u(alpha)|^4 for interval sets.

    Scale-free in q: with a = sqrt(tau/rho), b = sqrt((1-tau)/(1-rho)),
    A = a - b and Gamma = 2*rho*A*b + b^2,

        rho <= 1/2:  A^4 * 2 rho^3/3                + 2 A^2 Gamma rho^2 + Gamma^2
        rho >= 1/2:  A^4 * (10 rho^3/3 - 4 rho^2 + 2 rho - 1/3)
                                                    + 2 A^2 Gamma rho^2 + Gamma^2

    A^2 is evaluated in expanded form so tau=1 gives exactly 1/rho (and the
    bound exactly 2*rho/3 for rho <= 1/2). The lead term is chosen per
    entry of rho.
    """
    return _fourth_power_bound(tau, rho)


def _fourth_power_bound(tau, rho, rho_terms=None):
    """`fourth_power_bound`, given `_rho_terms(rho)` by a solver that
    evaluates many tau at one rho, or computing them."""
    arrays = isinstance(tau, np.ndarray) or isinstance(rho, np.ndarray)
    if arrays or not (0.0 < tau <= 1.0 and 0.0 < rho < 1.0):
        _require_fractions(tau, rho)
    sqrt = np.sqrt if arrays else math.sqrt
    b = sqrt((1.0 - tau) / (1.0 - rho))
    a_sq = tau / rho + (1.0 - tau) / (1.0 - rho) - 2.0 * sqrt(
        tau * (1.0 - tau) / (rho * (1.0 - rho)))
    a_minus_b = sqrt(tau / rho) - b
    gamma = 2.0 * rho * a_minus_b * b + b * b
    quartic = a_sq * a_sq
    rho_sq, lead = rho_terms or _rho_terms(rho)
    return quartic * lead + 2.0 * a_sq * gamma * rho_sq + gamma * gamma


def _rho_terms(rho):
    """The terms of `fourth_power_bound` in rho alone: rho^2 and the lead."""
    rho_sq, rho_cube = _power(rho, 2), _power(rho, 3)
    low = 2.0 * rho_cube / 3.0
    high = 10.0 * rho_cube / 3.0 - 4.0 * rho_sq + 2.0 * rho - 1.0 / 3.0
    return rho_sq, (np.where(rho <= 0.5, low, high) if isinstance(rho, np.ndarray)
                    else low if rho <= 0.5 else high)


def fourth_power_sum(q: int, z: int, tau: float) -> FourthPowerReport:
    """Exact sum_alpha |u(alpha)|^4 for the centered-interval set [-z, z],
    together with its closed-form lower bound (never asserted equal: the
    report carries the measured gap)."""
    if 2 * z + 1 >= q:
        raise ValueError(f"interval 2z+1={2 * z + 1} must be smaller than q={q}")
    profile = interval_profile(q, 1, z, tau)
    u = profile.u[0]
    exact = float(np.sum(np.abs(u) ** 4))
    return FourthPowerReport(exact=exact, bound=fourth_power_bound(tau, (2 * z + 1) / q))
