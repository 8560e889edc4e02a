"""Maximal noise fractions tolerated by each decoding strategy.

For a rate R = k/n code over sets of density rho, each strategy tolerates
error fractions tau up to the point where its feasibility condition fails:

- half-distance decoding:   1 - R/2 <= c(tau, rho)
- Johnson-radius decoding:  1 - R   <= c(tau, rho)^2
- soft-information decoding: 1 - R  <= U(tau, rho)
- classical baseline:       tau = rho + R(1 - rho)

where c is the center probability (sqrt(tau rho) + sqrt((1-tau)(1-rho)))^2
and U is the fourth-power lower bound from `noise`. The right-hand sides
are decreasing in tau on [rho, 1], so the maximal tau is found by one
bisection; a value of 1 means the condition holds even at tau = 1
("saturated"). With tau = sin^2 theta and rho = sin^2 phi, c is
cos^2(theta - phi), which falls as theta grows past phi; a property test
checks the decrease for all three conditions.

Each bisection builds its condition once, as a function of tau alone
(`_condition` over `noise`'s closed forms, with the terms in rho alone
computed then), so a step is one call with no dispatch on the kind.
`tau_max` and the ternary refinement of `optimize_over_rho` share one
scalar bisection. Independent points (the rate grid of `figure1_curves`,
the rho grid of `optimize_over_rho`) are bisected as arrays in one call per
kind: the same loop on every entry, each entry stopping where its own loop
would. Squares and cubes are products and both square roots round
correctly, so floats and arrays round alike and every value equals its
`tau_max` bit for bit by construction.

The classical baseline formula is a reconstructed fit: it reproduces every
reference table entry, but is not derived here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import TOL
from .galois import PrimeField
from .noise import _center_at, _fourth_power_at

__all__ = [
    "ThresholdQuery",
    "ThresholdRow",
    "DECODER_KINDS",
    "tau_max",
    "table1",
    "figure1_curves",
    "optimize_over_rho",
    "curves_csv",
]

DECODER_KINDS = ("bw", "gs", "kv", "classical")
# the classical baseline that table1's optimized rows match, and the rho
# grid step of the search along it
CLASSICAL_TARGET = 0.55
RHO_STEP = 1e-3


@dataclass(frozen=True)
class ThresholdQuery:
    kind: str
    r: float
    rho: float

    def __post_init__(self):
        if self.kind not in DECODER_KINDS:
            raise ValueError(f"kind must be one of {DECODER_KINDS}, got {self.kind!r}")
        if not 0.0 < self.r < 1.0:
            raise ValueError(f"rate must be in (0, 1), got {self.r}")
        if not 0.0 < self.rho < 1.0:
            raise ValueError(f"rho must be in (0, 1), got {self.rho}")


def _lhs(kind: str, r: float) -> float:
    return 1.0 - r / 2.0 if kind == "bw" else 1.0 - r


def _condition(kind: str, rho, sqrt):
    """bw's, gs's or kv's right-hand side at rho, as a function of tau."""
    if kind == "kv":
        return _fourth_power_at(rho, sqrt)
    center = _center_at(rho, sqrt)
    if kind == "bw":
        return center

    def center_sq(tau):
        c = center(tau)
        return c * c
    return center_sq


def _bisect(kind: str, r: float, rho: float) -> float:
    """`tau_max` for bw, gs or kv without the query's checks: the largest
    tau in [rho, 1] that meets the condition, by one scalar bisection."""
    step = TOL.bisection
    threshold = _lhs(kind, r) - step
    rhs = _condition(kind, rho, math.sqrt)
    lo, hi = rho, 1.0
    if not rhs(lo) >= threshold:
        raise ValueError(f"condition infeasible for {kind} at R={r}, rho={rho}")
    if rhs(hi) >= threshold:
        return 1.0
    while hi - lo > step:
        mid = 0.5 * (lo + hi)
        if rhs(mid) >= threshold:
            lo = mid
        else:
            hi = mid
    return lo


def tau_max(query: ThresholdQuery) -> float:
    """Largest tau in [rho, 1] satisfying the query's condition (1 if all do)."""
    if query.kind == "classical":
        return query.rho + query.r * (1.0 - query.rho)
    return _bisect(query.kind, query.r, query.rho)


def _tau_max_grid(kind: str, r: np.ndarray, rho) -> np.ndarray:
    """`tau_max` at every entry of the rate array r, with rho a float or an
    array of r's shape: the bisection of `tau_max` on every entry at once.
    Every step evaluates every entry, and only the entries still wider than
    the bisection step move, so each stops where its scalar loop stops."""
    if kind == "classical":
        return rho + r * (1.0 - rho)
    threshold = _lhs(kind, r) - TOL.bisection
    rhs = _condition(kind, rho, np.sqrt)
    lo = np.broadcast_to(rho, r.shape).astype(np.float64)
    infeasible = ~(rhs(lo) >= threshold)
    if infeasible.any():
        i = int(np.argmax(infeasible))
        raise ValueError(
            f"condition infeasible for {kind} at R={r[i]}, rho={lo[i]}")
    hi = np.ones_like(lo)
    lo[rhs(hi) >= threshold] = 1.0
    live = hi - lo > TOL.bisection
    while live.any():
        mid = 0.5 * (lo + hi)
        ok = rhs(mid) >= threshold
        np.copyto(lo, mid, where=live & ok)
        np.copyto(hi, mid, where=live & ~ok)
        live = hi - lo > TOL.bisection
    return lo


@dataclass(frozen=True)
class ThresholdRow:
    label: str
    r: float
    rho: float
    tau_classical: float
    tau_bw: float
    tau_gs: float
    tau_kv: float

    @property
    def saturated(self) -> tuple[str, ...]:
        return tuple(name for name, value in
                     (("bw", self.tau_bw), ("gs", self.tau_gs), ("kv", self.tau_kv))
                     if value == 1.0)

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "R": self.r,
            "rho": self.rho,
            "tau_classical": self.tau_classical,
            "tau_bw": self.tau_bw,
            "tau_gs": self.tau_gs,
            "tau_kv": self.tau_kv,
            "saturated": list(self.saturated),
        }


def _make_row(label: str, r: float, rho: float,
              kv_q: int | None = None) -> ThresholdRow:
    kv_query = _kv_query(r, rho, kv_q)
    return ThresholdRow(
        label=label, r=float(r), rho=float(rho),
        tau_classical=float(tau_max(ThresholdQuery("classical", r, rho))),
        tau_bw=float(tau_max(ThresholdQuery("bw", r, rho))),
        tau_gs=float(tau_max(ThresholdQuery("gs", r, rho))),
        tau_kv=float(tau_max(kv_query)))


def _kv_query(r: float, rho: float, kv_q: int | None) -> ThresholdQuery:
    """Scale-free by default; with kv_q, snap rho to the nearest odd
    (2z+1)/q. kv_q must be prime (ValueError otherwise)."""
    if kv_q is None:
        return ThresholdQuery("kv", r, rho)
    q = PrimeField(kv_q).q
    z = max(0, round((rho * q - 1) / 2))
    z = min(z, (q - 2) // 2)  # keep 2z+1 < q
    return ThresholdQuery("kv", r, (2 * z + 1) / q)


def optimize_over_rho(kind: str) -> tuple[float, float, float]:
    """Best (R, rho, tau) for a kind along rho + R(1-rho) = CLASSICAL_TARGET.

    Grid search in rho at step RHO_STEP, one array bisection over the whole
    grid, then ternary refinement of the bracketing interval. The
    refinement stays scalar: each step picks its next two points from the
    last comparison, and near the optimum tau is flat to the bisection
    step over about 3e-5 in rho, so the rho it returns is set by that exact
    sequence of points. Those points lie on the target curve, inside the
    query's bounds, so each is bisected without a `ThresholdQuery`.
    """
    if kind not in ("bw", "gs", "kv"):
        raise ValueError(f"kind must be bw, gs or kv, got {kind!r}")

    def tau_at(rho: float) -> float:
        return _bisect(kind, (CLASSICAL_TARGET - rho) / (1.0 - rho), rho)

    grid = np.arange(RHO_STEP, CLASSICAL_TARGET, RHO_STEP)
    taus = _tau_max_grid(kind, (CLASSICAL_TARGET - grid) / (1.0 - grid), grid)
    best = int(np.argmax(taus))
    # Python floats: the same values as numpy's scalars, at a lower cost per step
    lo = float(grid[max(best - 1, 0)])
    hi = min(float(grid[min(best + 1, len(grid) - 1)]), CLASSICAL_TARGET - 1e-9)
    while hi - lo > 1e-9:
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if tau_at(m1) < tau_at(m2):
            lo = m1
        else:
            hi = m2
    rho = float(0.5 * (lo + hi))
    r = (CLASSICAL_TARGET - rho) / (1.0 - rho)
    return r, rho, float(tau_at(rho))


def table1(kv_q: int | None = None) -> list[ThresholdRow]:
    """The six reference rows: three fixed (R, rho) points at rho = 1/2 and
    three optimized operating points matching the classical baseline
    CLASSICAL_TARGET.

    Optimized rows report the optimizer's own (R, rho), with every column
    evaluated there; round for display as needed.
    """
    rows = [
        _make_row("R=0.1", 0.1, 0.5, kv_q),
        _make_row("R=0.75", 0.75, 0.5, kv_q),
        _make_row("R=2/3", 2.0 / 3.0, 0.5, kv_q),
    ]
    for kind in ("bw", "gs", "kv"):
        r_opt, rho_opt, _ = optimize_over_rho(kind)
        rows.append(_make_row(f"opt-{kind}", r_opt, rho_opt, kv_q))
    return rows


def figure1_curves(rho: float, r_grid: list[float],
                   kv_q: int | None = None) -> list[ThresholdRow]:
    """Threshold columns along a rate grid at fixed rho (CSV-ready rows),
    each column one array bisection over the grid."""
    kv_rho = None
    for r in list(r_grid) or [0.5]:  # in row order; no rows: kv_q and rho at a stand-in
        if not 0.0 < r < 1.0:
            raise ValueError(f"grid rates must be in (0, 1), got {r}")
        if kv_rho is None:  # kv_q and rho pass or fail alike at every rate
            kv_rho = _kv_query(r, rho, kv_q).rho
            ThresholdQuery("classical", r, rho)
    rates = np.array(r_grid, dtype=np.float64)
    if not rates.size:
        return []
    columns = [_tau_max_grid(kind, rates, kv_rho if kind == "kv" else rho)
               for kind in ("classical", "bw", "gs", "kv")]
    return [ThresholdRow(f"R={r:g}", float(r), float(rho),
                         *(float(column[i]) for column in columns))
            for i, r in enumerate(r_grid)]


def curves_csv(rows: list[ThresholdRow]) -> str:
    """Fixed 6-decimal CSV, LF line endings, header always present."""
    lines = ["R,rho,tau_classical,tau_bw,tau_gs,tau_kv"]
    for row in rows:
        lines.append(
            f"{row.r:.6f},{row.rho:.6f},{row.tau_classical:.6f},"
            f"{row.tau_bw:.6f},{row.tau_gs:.6f},{row.tau_kv:.6f}")
    return "\n".join(lines) + "\n"
