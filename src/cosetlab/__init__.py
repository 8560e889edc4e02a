"""Exactly verifiable coset-state reduction over prime fields.

Subpackages:

- `galois`: prime fields, additive characters, coordinate-wise Fourier
  transforms, mixed-radix vector indexing.
- `codes`: dense F_q linear algebra, linear codes given by a generator
  and a parity check, syndromes, cosets, full-support Reed-Solomon codes.
- `noise`: product error profiles built on the Fourier side, constraint
  sets, exact tail masses, fourth-power sums and their lower bound.
- `decode`: Berlekamp-Welch half-distance decoding plus brute-force
  oracles, decode tables, exact per-message success probabilities.
- `qsim`: dense simulation of the decoder-driven reduction under the
  plain decoder map, and the success-probability lower bound.
- `thresholds`: maximal tolerable error fractions per decoding strategy,
  reference table and curve emitters.
- `opi`: offset polynomial satisfaction instances and the equivalence
  with coset search.
- `cli`: `cosetlab` command-line entry point.
"""

from . import codes, decode, galois, noise, opi, qsim, thresholds
from .codes import LinearCode, random_code, rs_code, syndrome
from .config import TOL, BudgetError, Tolerances
from .decode import (BerlekampWelchDecoder, BruteForceNearestDecoder,
                     TableDecoder, berlekamp_welch, brute_force_nearest,
                     per_message_success)
from .galois import PrimeField, fourier_transform, inverse_fourier_transform
from .noise import (ConstraintSet, ErrorProfile, build_profile,
                    center_probability, fourth_power_bound, fourth_power_sum,
                    interval_profile, tail_mass)
from .opi import OPIInstance, OPISolution, icc_to_opi, opi_to_icc
from .qsim import (ReductionOutcome, SweepResult, run_reduction,
                   run_reduction_sweep, success_lower_bound, verify_bound)
from .thresholds import ThresholdQuery, figure1_curves, table1, tau_max

__version__ = "0.1.0"

__all__ = [
    "galois", "codes", "noise", "decode", "qsim", "thresholds", "opi",
    "LinearCode", "rs_code", "random_code", "syndrome",
    "TOL", "Tolerances", "BudgetError",
    "BerlekampWelchDecoder", "BruteForceNearestDecoder", "TableDecoder",
    "berlekamp_welch", "brute_force_nearest", "per_message_success",
    "PrimeField", "fourier_transform", "inverse_fourier_transform",
    "ConstraintSet", "ErrorProfile", "build_profile", "center_probability",
    "fourth_power_bound", "fourth_power_sum", "interval_profile", "tail_mass",
    "OPIInstance", "OPISolution", "icc_to_opi", "opi_to_icc",
    "ReductionOutcome", "SweepResult", "run_reduction", "run_reduction_sweep",
    "success_lower_bound", "verify_bound",
    "ThresholdQuery", "tau_max", "table1", "figure1_curves",
    "__version__",
]
