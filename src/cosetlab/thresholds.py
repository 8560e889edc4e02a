"""Maximal noise fractions tolerated by each decoding strategy.

For a rate R = k/n code over sets of density rho, each strategy tolerates
error fractions tau up to the point where its feasibility condition fails:

- half-distance decoding:   1 - R/2 <= c(tau, rho)
- Johnson-radius decoding:  1 - R   <= c(tau, rho)^2
- soft-information decoding: 1 - R  <= U(tau, rho)
- classical baseline:       tau = rho + R(1 - rho)

where c is the center probability (sqrt(tau rho) + sqrt((1-tau)(1-rho)))^2
and U is the fourth-power lower bound from `noise`. The right-hand sides
are decreasing in tau on [rho, 1] (verified before solving), so the
maximal tau is found by bisection; a value of 1 means the condition holds
even at tau = 1 ("saturated").

The classical baseline formula is a reconstructed fit: it reproduces every
reference table entry, but is not derived here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import TOL
from .noise import (_fourth_power_bound_discrete, center_probability_form,
                    fourth_power_bound)

__all__ = [
    "ThresholdQuery",
    "ThresholdRow",
    "DECODER_KINDS",
    "binary_threshold",
    "tau_max",
    "table1",
    "figure1_curves",
    "optimize_over_rho",
    "curves_csv",
    "rows_json",
]

DECODER_KINDS = ("bw", "gs", "kv", "classical")


@dataclass(frozen=True)
class ThresholdQuery:
    kind: str
    r: float
    rho: float
    q: int | None = None
    z: int | None = None

    def __post_init__(self):
        if self.kind not in DECODER_KINDS:
            raise ValueError(f"kind must be one of {DECODER_KINDS}, got {self.kind!r}")
        if not 0.0 < self.r < 1.0:
            raise ValueError(f"rate must be in (0, 1), got {self.r}")
        if not 0.0 < self.rho < 1.0:
            raise ValueError(f"rho must be in (0, 1), got {self.rho}")
        if self.q is not None:
            if self.kind != "kv":
                raise ValueError("q and z apply to the kv kind only")
            if self.z is None or abs(self.rho * self.q - (2 * self.z + 1)) > 1e-9:
                raise ValueError("kv with explicit q needs 2z+1 = rho*q")


def binary_threshold(tau: float) -> float:
    """Center probability at rho = 1/2 in closed form: 1/2 + sqrt(tau(1-tau))."""
    return 0.5 + math.sqrt(tau * (1.0 - tau))


def _lhs(kind: str, r: float) -> float:
    return 1.0 - r / 2.0 if kind == "bw" else 1.0 - r


def _rhs(query: ThresholdQuery, tau: float) -> float:
    if query.kind == "bw":
        return center_probability_form(tau, query.rho)
    if query.kind == "gs":
        return center_probability_form(tau, query.rho) ** 2
    if query.q is not None:
        return _fourth_power_bound_discrete(query.q, query.z, tau)
    return fourth_power_bound(tau, query.rho)


def tau_max(query: ThresholdQuery) -> float:
    """Largest tau in [rho, 1] satisfying the query's condition (1 if all do)."""
    if query.kind == "classical":
        return query.rho + query.r * (1.0 - query.rho)
    lhs = _lhs(query.kind, query.r)

    def feasible(tau: float) -> bool:
        return _rhs(query, tau) >= lhs - TOL.bisection

    lo, hi = query.rho, 1.0
    if not feasible(lo):
        raise ValueError(
            f"condition infeasible for {query.kind} at R={query.r}, rho={query.rho}")
    if feasible(hi):
        return 1.0
    # the bisection relies on a decreasing right-hand side; if it is not,
    # first bracket the last feasible point on a fine grid
    grid = np.linspace(lo, hi, 9)
    values = [_rhs(query, t) for t in grid]
    if not all(b <= a + 1e-12 for a, b in zip(values, values[1:])):
        fine = np.linspace(lo, hi, 4097)
        last = max(i for i, t in enumerate(fine) if feasible(t))
        lo, hi = fine[last], fine[min(last + 1, len(fine) - 1)]
    while hi - lo > TOL.bisection:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
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
    """Scale-free by default; with kv_q, snap rho to the nearest odd 2z+1."""
    if kv_q is None:
        return ThresholdQuery("kv", r, rho)
    z = max(0, round((rho * kv_q - 1) / 2))
    z = min(z, (kv_q - 3) // 2)  # keep 2z+1 < q
    return ThresholdQuery("kv", r, (2 * z + 1) / kv_q, q=kv_q, z=z)


def optimize_over_rho(kind: str, classical_target: float,
                      step: float = 1e-3) -> tuple[float, float, float]:
    """Best (R, rho, tau) for a kind along rho + R(1-rho) = classical_target.

    Grid search in rho at the given step, then ternary refinement of the
    bracketing interval.
    """
    if not 0.0 < classical_target < 1.0:
        raise ValueError(f"target must be in (0, 1), got {classical_target}")

    def tau_at(rho: float) -> float:
        r = (classical_target - rho) / (1.0 - rho)
        return tau_max(ThresholdQuery(kind, r, rho))

    grid = np.arange(step, classical_target, step)
    taus = [tau_at(rho) for rho in grid]
    best = int(np.argmax(taus))
    lo = grid[max(best - 1, 0)]
    hi = min(grid[min(best + 1, len(grid) - 1)], classical_target - 1e-9)
    while hi - lo > 1e-9:
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if tau_at(m1) < tau_at(m2):
            lo = m1
        else:
            hi = m2
    rho = float(0.5 * (lo + hi))
    r = (classical_target - rho) / (1.0 - rho)
    return r, rho, float(tau_at(rho))


def table1(kv_q: int | None = None,
           classical_target: float = 0.55) -> list[ThresholdRow]:
    """The six reference rows: three fixed (R, rho) points at rho = 1/2 and
    three optimized operating points matching a fixed classical baseline.

    Optimized rows report the optimizer's own (R, rho), with every column
    evaluated there; round for display as needed.
    """
    rows = [
        _make_row("R=0.1", 0.1, 0.5, kv_q),
        _make_row("R=0.75", 0.75, 0.5, kv_q),
        _make_row("R=2/3", 2.0 / 3.0, 0.5, kv_q),
    ]
    for kind in ("bw", "gs", "kv"):
        r_opt, rho_opt, _ = optimize_over_rho(kind, classical_target)
        rows.append(_make_row(f"opt-{kind}", r_opt, rho_opt, kv_q))
    return rows


def figure1_curves(rho: float, r_grid: list[float],
                   kv_q: int | None = None) -> list[ThresholdRow]:
    """Threshold columns along a rate grid at fixed rho (CSV-ready rows)."""
    rows = []
    for r in r_grid:
        if not 0.0 < r < 1.0:
            raise ValueError(f"grid rates must be in (0, 1), got {r}")
        rows.append(_make_row(f"R={r:g}", float(r), rho, kv_q))
    return rows


def curves_csv(rows: list[ThresholdRow]) -> str:
    """Fixed 6-decimal CSV, LF line endings, header always present."""
    lines = ["R,rho,tau_classical,tau_bw,tau_gs,tau_kv"]
    for row in rows:
        lines.append(
            f"{row.r:.6f},{row.rho:.6f},{row.tau_classical:.6f},"
            f"{row.tau_bw:.6f},{row.tau_gs:.6f},{row.tau_kv:.6f}")
    return "\n".join(lines) + "\n"


def rows_json(rows: list[ThresholdRow]) -> str:
    import json

    return json.dumps([row.to_dict() for row in rows], indent=2) + "\n"
