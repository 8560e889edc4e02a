"""Centralized numeric tolerances, the memory budget, and shared guards.

Every tolerance used by the library lives in one frozen record so tests and
the self-check command compare against a single source of truth. Only code
that states a run's peak checks the budget, before it builds anything: the
engines (`qsim.require_peak`), a decoder's table build and the OPI searches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Default cap on dense amplitude arrays (number of complex entries).
DEFAULT_AMPLITUDE_BUDGET = 2**26


@dataclass(frozen=True)
class Tolerances:
    """Numeric tolerances shared across modules."""

    # l2 normalization of constructed functions/states.
    norm: float = 1e-12
    # unitarity / per-step norm preservation in the simulator.
    unitarity: float = 1e-9
    # generic algebraic identities (characters, transforms, closed forms).
    identity: float = 1e-9
    # round-trip forward+inverse transform.
    round_trip: float = 1e-10
    # diagonal-amplitude uniformity; also the symmetrization trigger.
    gamma_spread: float = 1e-10
    # success-probability bound slack.
    bound_slack: float = 1e-9
    # fourth-power sum vs closed-form lower bound.
    fourth_power: float = 1e-10
    # threshold bisection convergence.
    bisection: float = 1e-9
    # tabulated threshold values vs 3-decimal references.
    table_cells: float = 5e-4
    # guard subtracted before ceil() of count thresholds (see count_threshold).
    count_guard: float = 1e-9


TOL = Tolerances()


class BudgetError(MemoryError):
    """Raised when an operation would allocate more amplitudes than allowed."""


def require_budget(amplitudes: int, budget: int | None = None) -> None:
    """Fail fast if a dense array of `amplitudes` entries exceeds the budget.
    A count of 2^64 or more is written by its bit length: Python writes no
    int of over 4300 digits (q^n has 6,614 at q = n = 2003)."""
    cap = DEFAULT_AMPLITUDE_BUDGET if budget is None else budget
    if amplitudes > cap:
        size = (amplitudes if amplitudes < 2**64
                else f"at least 2^{amplitudes.bit_length() - 1}")
        raise BudgetError(f"requested {size} amplitudes exceeds budget {cap}")


def count_threshold(fraction: float, n: int) -> int:
    """Smallest integer count m with m >= fraction*n, robust to float noise.

    0.4 * 5 is 2.0000000000000004 in binary floats; a naive ceil would demand
    3 coordinates instead of 2. The guard keeps exact products exact.
    """
    return max(0, math.ceil(fraction * n - TOL.count_guard))
