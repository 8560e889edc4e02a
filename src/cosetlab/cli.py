"""Command-line front end: threshold tables, reduction runs, instance tools.

Exit codes: 0 on success, 1 when a numeric check fails (the mean over all
syndromes below the bound, the two engines disagreeing on one syndrome's
outcome under `simulate --u random`, verification below target,
self-check failure), 2 on usage or input errors (including budget
rejections; nothing is allocated first).

All commands are deterministic functions of their arguments: a single
64-bit seed is expanded with numpy's SeedSequence spawning, so repeated
invocations produce byte-identical output.

`main` parses with one parser per process, built on its first call and
kept: building the argparse tree costs more than a small `simulate` run.
Each call still gets a fresh namespace. `build_parser` returns a new parser
on every call, so a caller may change it without affecting `main`.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys

import numpy as np

from . import codes, decode, galois, noise, opi, qsim, thresholds
from .config import TOL, BudgetError

__all__ = ["main", "build_parser"]


def _emit(content: str | dict | list, out: str | None) -> None:
    """Write text as it is, or anything else as indented JSON and a
    newline, to the file `out` or to stdout. JSON is streamed by
    `json.dump`, never held as one string."""
    with open(out, "w") if out is not None else contextlib.nullcontext(sys.stdout) as fh:
        if isinstance(content, str):
            fh.write(content)
        else:
            json.dump(content, fh, indent=2)
            fh.write("\n")


# ---- thresholds ---------------------------------------------------------------


# the most rates one curve may hold; each costs one row of output
MAX_GRID_POINTS = 100_000


def _parse_grid(spec: str) -> list[float]:
    """start:stop:step, endpoints inclusive up to float fuzz. Non-finite
    parts, an empty range and more than MAX_GRID_POINTS rates are rejected
    from (stop - start) / step, before any list is built."""
    try:
        start, stop, step = (float(p) for p in spec.split(":"))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"grid must be start:stop:step, got {spec!r}") from exc
    if not all(map(math.isfinite, (start, stop, step))):
        raise argparse.ArgumentTypeError(f"grid parts must be finite, got {spec!r}")
    if step <= 0 or stop < start:
        raise argparse.ArgumentTypeError(f"bad grid range {spec!r}")
    if (stop - start) / step > MAX_GRID_POINTS - 1:
        raise argparse.ArgumentTypeError(
            f"grid {spec!r} has more than {MAX_GRID_POINTS} rates")
    n = int(round((stop - start) / step))
    return [start + i * step for i in range(n + 1) if start + i * step <= stop + 1e-12]


def cmd_thresholds(args: argparse.Namespace) -> int:
    if args.what == "table1":
        rows = thresholds.table1(kv_q=args.kv_q)
    else:
        rows = thresholds.figure1_curves(args.rho, args.grid, kv_q=args.kv_q)
    if args.format == "json":
        _emit([row.to_dict() for row in rows], args.out)
    elif args.format == "csv":
        _emit(thresholds.curves_csv(rows), args.out)
    else:
        lines = [f"{'label':>10}  {'R':>8}  {'rho':>8}  {'classical':>9}  "
                 f"{'bw':>8}  {'gs':>8}  {'kv':>8}"]
        for row in rows:
            lines.append(
                f"{row.label:>10}  {row.r:8.4f}  {row.rho:8.4f}  "
                f"{row.tau_classical:9.6f}  {row.tau_bw:8.6f}  "
                f"{row.tau_gs:8.6f}  {row.tau_kv:8.6f}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


# ---- simulate -----------------------------------------------------------------


def _parse_sets(spec: str) -> tuple[str, int]:
    """interval:z or random:size."""
    kind, _, value = spec.partition(":")
    if kind in ("interval", "random") and value.isdigit():
        return kind, int(value)
    raise ValueError(f"sets must be interval:z or random:size, got {spec!r}")


def cmd_simulate(args: argparse.Namespace) -> int:
    # check (q, n, k), then the stated peak of each engine to run, before any build
    if args.code == "rs" and args.n != args.q:
        raise ValueError("the rs code here is full support: need n = q")
    galois.PrimeField(args.q)
    if not 1 <= args.k < args.n:
        raise ValueError(f"need 1 <= k < n, got k={args.k}, n={args.n}")
    if args.u == "random":
        qsim.require_peak(args.q, args.n, args.k, args.budget, reference=True)
    qsim.require_peak(args.q, args.n, args.k, args.budget)

    seed_root = np.random.SeedSequence(args.seed)
    code_seed, sets_seed, u_seed = (
        int(s.generate_state(1)[0]) for s in seed_root.spawn(3))

    if args.code == "rs":
        code = codes.rs_code(args.q, args.k)
    else:
        code = codes.random_code(args.q, args.n, args.k, seed=code_seed)

    kind, value = _parse_sets(args.sets)
    if kind == "interval":
        profile = noise.interval_profile(args.q, args.n, value, args.tau)
    else:
        profile = noise.random_sets_profile(args.q, args.n, value, args.tau,
                                            seed=sets_seed)
    constraint = noise.ConstraintSet(profile, args.ttilde)

    if args.decoder == "bw":
        decoder = decode.BerlekampWelchDecoder(code)
    else:
        decoder = decode.BruteForceNearestDecoder(code)

    if args.u == "all":
        outcomes = qsim.run_reduction_sweep(decoder, [constraint], budget=args.budget)[0]
        report = qsim.verify_bound(outcomes)
    else:
        # the bound holds for the mean over all syndromes, not for one: the
        # check is that both engines give this syndrome the same outcome
        rng = np.random.default_rng(np.random.SeedSequence(u_seed))
        u = rng.integers(0, args.q, size=args.k)
        evolved = qsim.run_reduction(decoder, u, constraint, budget=args.budget)
        outcomes = [evolved]
        swept = qsim.run_reduction_sweep(decoder, [constraint], budget=args.budget)[0][
            galois.index_of_vector(u, args.q)]
        drift = max(abs(swept.p_u - evolved.p_u),
                    abs(swept.post_select_prob - evolved.post_select_prob))
        report = qsim.BoundReport(
            n_outcomes=1, mean_p=evolved.p_u, p_dec=evolved.p_dec,
            eta=evolved.eta, bound=evolved.bound, slack=evolved.slack,
            ok=drift <= TOL.bound_slack)

    if args.format == "json":
        payload = {
            "params": {
                "q": args.q, "n": args.n, "k": args.k, "code": args.code,
                "decoder": args.decoder, "tau": args.tau,
                "tau_tilde": args.ttilde, "sets": args.sets,
                "u": args.u, "seed": args.seed,
            },
            "outcomes": [o.to_dict() for o in outcomes],
            "report": report.to_dict(),
        }
        _emit(payload, args.out)
    else:
        lines = [
            f"q={args.q} n={args.n} k={args.k} code={args.code} "
            f"decoder={args.decoder} tau={args.tau} ttilde={args.ttilde} "
            f"sets={args.sets} seed={args.seed}",
            f"symmetrized={outcomes[0].symmetrized} "
            f"post_select_prob={outcomes[0].post_select_prob:.12f}",
        ]
        for o in outcomes:
            lines.append(f"u={','.join(str(v) for v in o.u)} p_u={o.p_u:.12f}")
        lines += [
            f"mean_p={report.mean_p:.12f}",
            f"p_dec={report.p_dec:.12f}",
            f"eta={report.eta:.12f}",
            f"bound={report.bound:.12f}",
            f"slack={report.slack:.12f}",
            f"ok={report.ok}",
        ]
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if report.ok else 1


# ---- opi ----------------------------------------------------------------------


def _load_json(path: str, what: str, build):
    """build(parsed JSON); malformed content is an input error (exit 2)."""
    with open(path) as fh:
        text = fh.read()
    try:
        return build(json.loads(text))
    except KeyError as exc:
        raise ValueError(f"{what} JSON in {path} lacks key {exc}") from exc
    except (ValueError, TypeError) as exc:
        raise ValueError(f"malformed {what} JSON in {path}: {exc}") from exc


def _solution_from_dict(raw: dict) -> opi.OPISolution:
    return opi.OPISolution(coeffs=tuple(int(c) for c in raw["coeffs"]),
                           count=int(raw["count"]))


def cmd_opi(args: argparse.Namespace) -> int:
    if args.what == "gen":
        instance = opi.generate_instance(args.q, args.k, args.set_size,
                                         args.tau, seed=args.seed)
        _emit(instance.to_dict(), args.out)
        return 0
    instance = _load_json(args.instance, "instance", opi.OPIInstance.from_dict)
    if args.what == "solve-bruteforce":
        solution = opi.brute_force_opi(instance, budget=args.budget)
        _emit(solution.to_dict(), args.out)
        return 0
    if args.what == "verify":
        solution = _load_json(args.solution, "solution", _solution_from_dict)
        count, meets = opi.verify(instance, solution)
        _emit(f"count={count} needed={instance.min_count} meets={meets}\n",
              args.out)
        return 0 if meets else 1
    # convert: emit the coset-search form
    code, u, constraint = opi.opi_to_icc(instance)
    payload = {
        "q": instance.q,
        "k": instance.k,
        "syndrome": [int(v) for v in u],
        "constraint": constraint.to_dict(),
        "sets": [list(s) for s in instance.sets],
    }
    _emit(payload, args.out)
    return 0


# ---- selfcheck ----------------------------------------------------------------


def _suite_field() -> tuple[bool, str]:
    field = galois.PrimeField(5)
    ok = abs(field.roots_of_unity.sum()) < 1e-12
    f = field.fourier_matrix
    ok &= np.allclose(f @ f.conj().T, np.eye(5), atol=TOL.unitarity)
    for a in range(1, 5):
        ok &= field.mul(a, field.inv(a)) == 1
    return bool(ok), "roots, unitarity, inverses at q=5"


def _suite_parseval(seed: int, tol: float) -> tuple[bool, str]:
    field = galois.PrimeField(3)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    v = rng.normal(size=27) + 1j * rng.normal(size=27)
    w = galois.fourier_transform(field, v)
    drift = abs(np.linalg.norm(w) - np.linalg.norm(v))
    return drift <= tol, f"norm drift {drift:.3e} vs tol {tol:.3e}"


def _suite_round_trip(seed: int) -> tuple[bool, str]:
    field = galois.PrimeField(3)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    v = rng.normal(size=27) + 1j * rng.normal(size=27)
    w = galois.inverse_fourier_transform(field, galois.fourier_transform(field, v))
    drift = float(np.max(np.abs(w - v)))
    return drift <= TOL.round_trip, f"max drift {drift:.3e}"


def _suite_profile() -> tuple[bool, str]:
    profile = noise.interval_profile(5, 3, 1, 0.8)
    closed = noise.center_probability(profile)
    numeric = float(np.abs(profile.u[0, 0]) ** 2)
    ok = abs(closed - numeric) < 1e-10
    ok &= all(abs(np.linalg.norm(row) - 1.0) < 1e-12 for row in profile.u)
    return bool(ok), "center probability and norms at q=5, z=1"

def _suite_tail() -> tuple[bool, str]:
    profile = noise.interval_profile(5, 4, 1, 0.8)
    exact, hoeffding = noise.tail_mass(profile, 0.6)
    constraint = noise.ConstraintSet(profile, 0.6)
    ok = exact <= hoeffding + 1e-15
    ok &= abs(constraint.fourier_mass() - (1.0 - exact)) < 1e-10
    return bool(ok), "exact tail vs bound and set mass at q=5, n=4"


def _suite_fourth_power() -> tuple[bool, str]:
    report = noise.fourth_power_sum(11, 2, 0.9)
    return report.exact >= report.bound - TOL.fourth_power, (
        f"exact {report.exact:.6f} >= bound {report.bound:.6f}")


def _suite_decode() -> tuple[bool, str]:
    code = codes.rs_code(5, 1)
    bw = decode.BerlekampWelchDecoder(code).table()
    oracle = decode.BruteForceNearestDecoder(code).table()
    radius = (code.n - code.k) // 2
    vecs = galois.all_vectors(5, 5)
    codewords = code.codewords()
    nearest_dist = np.min(
        np.sum(vecs[:, None, :] != codewords[None, :, :], axis=2), axis=1)
    want = np.where(nearest_dist <= radius, oracle, 0)
    ok = bool(np.array_equal(bw, want))
    return ok, "half-distance table vs nearest-codeword oracle at q=5, k=1"


def _suite_reduction(seed: int) -> tuple[bool, str]:
    decoder = decode.BruteForceNearestDecoder(codes.rs_code(3, 1))
    constraint = noise.ConstraintSet(noise.interval_profile(3, 3, 0, 0.7), 0.5)
    result = qsim.run_reduction_sweep(decoder, [constraint])[0]
    report = qsim.verify_bound(result)
    # the sweep's acceptance against the literally evolved state's
    evolved = qsim.run_reduction(decoder, np.zeros(1), constraint)
    drift = result.post_select_prob - evolved.post_select_prob
    return report.ok and abs(drift) < TOL.bound_slack, (
        f"slack {report.slack:.3e}, acceptance drift {drift:.3e}")


def cmd_selfcheck(args: argparse.Namespace) -> int:
    suites = [
        ("field", lambda: _suite_field()),
        ("parseval", lambda: _suite_parseval(args.seed, args.parseval_tol)),
        ("round-trip", lambda: _suite_round_trip(args.seed)),
        ("profile", lambda: _suite_profile()),
        ("tail", lambda: _suite_tail()),
        ("fourth-power", lambda: _suite_fourth_power()),
        ("decode", lambda: _suite_decode()),
        ("reduction", lambda: _suite_reduction(args.seed)),
    ]
    failures = 0
    lines = []
    for name, fn in suites:
        ok, detail = fn()
        lines.append(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failures += 0 if ok else 1
    lines.append(f"{len(suites) - failures}/{len(suites)} suites passed")
    _emit("\n".join(lines) + "\n", getattr(args, "out", None))
    return 0 if failures == 0 else 1


# ---- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cosetlab",
        description="Decoder thresholds, exact reduction simulation, and "
                    "offset-polynomial instance tools over prime fields.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_thr = sub.add_parser("thresholds", help="threshold tables and curves")
    thr_sub = p_thr.add_subparsers(dest="what", required=True)
    for name in ("table1", "curves"):
        p = thr_sub.add_parser(name)
        p.add_argument("--format", choices=("json", "csv", "text"),
                       default="csv" if name == "curves" else "json")
        p.add_argument("--out", default=None)
        p.add_argument("--kv-q", type=int, default=None,
                       help="snap the soft-decoder column to a concrete prime")
        if name == "curves":
            p.add_argument("--rho", type=float, required=True)
            p.add_argument("--grid", type=_parse_grid, required=True,
                           help="rate grid start:stop:step")
        p.set_defaults(fn=cmd_thresholds)

    p_sim = sub.add_parser("simulate", help="run the reduction exactly")
    p_sim.add_argument("--q", type=int, required=True)
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--k", type=int, required=True)
    p_sim.add_argument("--code", choices=("rs", "random"), default="rs")
    p_sim.add_argument("--decoder", choices=("bw", "nearest"), default="nearest")
    p_sim.add_argument("--tau", type=float, required=True)
    p_sim.add_argument("--ttilde", type=float, required=True)
    p_sim.add_argument("--sets", default="interval:0",
                       help="interval:z or random:size")
    p_sim.add_argument("--u", choices=("all", "random"), default="all")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--budget", type=int, default=None)
    p_sim.add_argument("--format", choices=("json", "text"), default="text")
    p_sim.add_argument("--out", default=None)
    p_sim.set_defaults(fn=cmd_simulate)

    p_opi = sub.add_parser("opi", help="offset-polynomial instances")
    opi_sub = p_opi.add_subparsers(dest="what", required=True)
    p = opi_sub.add_parser("gen")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--set-size", type=int, required=True)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_opi)
    for name in ("solve-bruteforce", "verify", "convert"):
        p = opi_sub.add_parser(name)
        p.add_argument("--instance", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--budget", type=int, default=None)
        if name == "verify":
            p.add_argument("--solution", required=True)
        p.set_defaults(fn=cmd_opi)

    p_check = sub.add_parser("selfcheck", help="run built-in invariant suites")
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--parseval-tol", type=float, default=TOL.unitarity)
    p_check.add_argument("--out", default=None)
    p_check.set_defaults(fn=cmd_selfcheck)

    return parser


@functools.cache
def _main_parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _main_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
