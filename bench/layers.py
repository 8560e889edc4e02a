"""The traced layers: which public cosetlab function each span wraps.

A layer is named module.function after the cosetlab module that defines it.
Methods are wrapped on their class. The hooks count work at the same
boundary: received words tabulated, BW calls that return a codeword, dense
amplitude bytes (computed from array shapes, not measured) and sweeps that
needed symmetrization.
"""

from __future__ import annotations

import cosetlab
from cosetlab import cli, codes, decode, galois, noise, opi, qsim, thresholds

COMPLEX_BYTES = 16
# modules whose globals may hold a traced function, as `from .x import f` puts it
MODULES = [cosetlab, galois, codes, noise, decode, qsim, thresholds, opi, cli]


def _table_words(recorder, args):
    decoder = args[0]
    # the table is built on the first call and cached on the decoder
    if getattr(decoder, "_table", None) is None:
        return lambda table: recorder.add("table_words", len(table))
    return None


def _bw_hits(recorder, args):
    def finish(message):
        recorder.add("bw_calls", 1)
        recorder.add("bw_hits", message is not None)
    return finish


def _sweep_bytes(recorder, args):
    def finish(outcomes):
        first = outcomes[0][0]
        dim_a, dim_b = first.q**first.n, first.q**first.k
        # (branch, A) plus the shift register T when symmetrized
        shape = dim_b * dim_a * (dim_b if first.symmetrized else 1)
        recorder.add("sweep_amp_bytes", COMPLEX_BYTES * shape)
        recorder.add("sweeps", 1)
        recorder.add("sweeps_symmetrized", first.symmetrized)
    return finish


def _reduction_bytes(recorder, args):
    def finish(outcome):
        dim_a, dim_b = outcome.q**outcome.n, outcome.q**outcome.k
        # registers (A, B, C) plus T when symmetrized
        shape = dim_a * dim_b * dim_b * (dim_b if outcome.symmetrized else 1)
        recorder.add("reduction_amp_bytes", COMPLEX_BYTES * shape)
    return finish


# layer name -> (owner, attribute, hook)
TARGETS = {
    "galois.all_vectors": (galois, "all_vectors", None),
    "galois.fourier_transform": (galois, "fourier_transform", None),
    "galois.inverse_fourier_transform": (galois, "inverse_fourier_transform", None),
    "codes.null_space": (codes, "null_space", None),
    "codes.solve_particular": (codes, "solve_particular", None),
    "noise.amplitudes": (noise.ErrorProfile, "amplitudes", None),
    "noise.membership_mask": (noise.ConstraintSet, "membership_mask", None),
    "noise.tail_mass": (noise, "tail_mass", None),
    "decode.table": (decode._BaseDecoder, "table", _table_words),
    "decode.berlekamp_welch": (decode, "berlekamp_welch", _bw_hits),
    "decode.per_message_success": (decode, "per_message_success", None),
    "qsim.run_reduction_sweep": (qsim, "run_reduction_sweep", _sweep_bytes),
    "qsim.run_reduction": (qsim, "run_reduction", _reduction_bytes),
    "qsim.verify_bound": (qsim, "verify_bound", None),
    "thresholds.tau_max": (thresholds, "tau_max", None),
    "thresholds.optimize_over_rho": (thresholds, "optimize_over_rho", None),
    "thresholds.table1": (thresholds, "table1", None),
    "thresholds.figure1_curves": (thresholds, "figure1_curves", None),
    "opi.brute_force_opi": (opi, "brute_force_opi", None),
    "opi.opi_to_icc": (opi, "opi_to_icc", None),
    "opi.icc_to_opi": (opi, "icc_to_opi", None),
    "cli.main": (cli, "main", None),
}

