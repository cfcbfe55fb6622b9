"""Command-line front end.

Subcommands: certify, simulate, surface, verify, bounds.
Exit codes: 0 success, 2 validation error, 3 qubit-assumption violation,
4 verification gap exceeded.  PURITY_WITNESS_SEED overrides the default
seed for simulate/verify.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .certificate import certify
from .counts import MAX_COUNT, OUTCOME_KEYS, SETTING_PAIRS, CountsRecord, ingest_counts
from .errors import DomainError, PurityWitnessError, QubitAssumptionError
from .witness import (
    b1_max_constrained,
    b1_max_initial,
    b1_threshold,
    concurrence_upper_from_b1,
    postmeasurement_purity_bound,
    purity_lower_bound,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_QUBIT_ASSUMPTION = 3
EXIT_GAP = 4
# simulate quditmm validates d x d matrices: O(d^3) time, O(d^2) memory
MAX_SIMULATED_DIM = 256
MAX_SURFACE_STEPS = 1001  # surface writes p_steps * w_steps CSV lines
MAX_GRID_STEPS = 101  # verify theorem2 --grid runs grid**2 searches


def __getattr__(name):
    # Only for the benchmark's tracer (perfbench/tracing.py), which wraps these
    # two names on ``cli``; the handlers look them up on ``sequence`` instead.
    if name in ("theorem2_protocol", "correlations"):
        from . import sequence

        return getattr(sequence, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _seed(args) -> int:
    """--seed, else PURITY_WITNESS_SEED, else 0; never negative."""
    seed = args.seed
    if seed is None:
        env = os.environ.get("PURITY_WITNESS_SEED", "0")
        try:
            seed = int(env)
        except ValueError as exc:
            raise DomainError(
                f"PURITY_WITNESS_SEED must be an integer, got {env!r}"
            ) from exc
    if seed < 0:
        raise DomainError(f"seed must be non-negative, got {seed}")
    return seed


def _write_or_print(text: str, path: str | None) -> None:
    if path is None:
        print(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _cmd_certify(args) -> int:
    rec = ingest_counts(args.counts)
    cert = certify(rec, delta=args.delta)
    _write_or_print(cert.to_json(), args.output)
    return EXIT_OK


def _simulated_record(args) -> CountsRecord:
    import numpy as np

    from . import quantum, sequence

    seed = _seed(args)
    if args.protocol == "theorem2":
        rho, protocol = sequence.theorem2_protocol(args.p, args.w)
        label = f"theorem2 p={args.p} w={args.w}"
    elif args.protocol == "qutrit4":
        rho, protocol = sequence.qutrit_value4_protocol()
        label = "qutrit4"
    else:
        if args.d > MAX_SIMULATED_DIM:
            raise DomainError(f"simulate quditmm requires d <= {MAX_SIMULATED_DIM}")
        rho, protocol = sequence.qudit_maxmixed_protocol(args.d)
        label = f"quditmm d={args.d}"
    if not 1 <= args.shots <= MAX_COUNT:
        raise DomainError(f"shots must lie in [1, {MAX_COUNT}] (2**63 - 1)")
    table = sequence.correlations(rho, protocol)
    rng = np.random.default_rng(seed)
    counts = {}
    for x, y in SETTING_PAIRS:
        probs = np.clip(table.probs[:, :, x, y].ravel(), 0.0, None)
        draw = rng.multinomial(args.shots, probs / probs.sum())
        counts[(x, y)] = dict(zip(OUTCOME_KEYS, map(int, draw)))
    claimed = float(quantum.purity(rho)) if args.claim_purity else None
    return CountsRecord(label=label, claimed_initial_purity=claimed, counts=counts)


def _cmd_simulate(args) -> int:
    text = json.dumps(_simulated_record(args).to_json_dict(), indent=2, sort_keys=True)
    _write_or_print(text + "\n", args.output)
    return EXIT_OK


def _cmd_surface(args) -> int:
    import numpy as np

    if not all(2 <= n <= MAX_SURFACE_STEPS for n in (args.p_steps, args.w_steps)):
        raise DomainError(f"surface steps per axis must lie in [2, {MAX_SURFACE_STEPS}]")
    lines = ["p,w,b1_max"]
    for p in np.linspace(0.0, 1.0, args.p_steps):
        for w in np.linspace(0.0, 1.0, args.w_steps):
            lines.append(f"{p:.10g},{w:.10g},{b1_max_constrained(p, w):.12g}")
    _write_or_print("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def _report_line(report, extra=None) -> str:
    d = report.to_dict()
    if extra:
        d.update(extra)
    return json.dumps(d, sort_keys=True)


def _cmd_verify(args) -> int:
    import numpy as np

    from . import optimizer, sequence

    seed = _seed(args)
    tol = optimizer.QUDIT_GAP_TOL
    if args.subject in ("eq5", "theorem2"):
        tol = optimizer.QUBIT_GAP_TOL
        if args.subject == "eq5":
            points = [(float(p), 1.0) for p in np.linspace(0.0, 1.0, 11)]
        elif args.grid is None:
            points = [(args.p, args.w)]
        else:
            if not 2 <= args.grid <= MAX_GRID_STEPS:
                raise DomainError(f"theorem2 --grid must lie in [2, {MAX_GRID_STEPS}]")
            axis = np.linspace(0.0, 1.0, args.grid)
            points = [(float(p), float(w)) for p in axis for w in axis]
        # a generator, so each line prints as soon as its search ends
        runs = (
            ({"p": p, "w": w,
              "strategy": "deterministic" if w <= b1_threshold(p) else "projective-pair"},
             optimizer.maximize_b1_qubit(p, w, restarts=args.restarts, seed=seed))
            for p, w in points
        )
    elif args.subject == "qudit":
        rep = optimizer.maximize_b1_qudit_maxmixed(args.d, restarts=args.restarts, seed=seed)
        runs = [({"d": args.d}, rep)]
    else:  # monotonicity
        purities = [0.5 + 0.5 * i / 7 for i in range(8)]
        sweep = optimizer.monotonicity_sweep(
            sequence.b1_weights(), 2, purities, restarts=args.restarts, seed=seed
        )
        runs = [({"purity": pur}, rep) for pur, rep in sweep]
    # the distance to the attainable maximum, and for monotonicity any drop
    # from the previous purity's value
    worst_gap, prev = 0.0, -np.inf
    for extra, rep in runs:
        print(_report_line(rep, extra))
        worst_gap = max(worst_gap, abs(rep.attainable - rep.best_value))
        if args.subject == "monotonicity":
            worst_gap, prev = max(worst_gap, prev - rep.best_value), rep.best_value
    if worst_gap > tol:
        print(f"verification gap {worst_gap:.3e} exceeds tolerance {tol:.0e}", file=sys.stderr)
        return EXIT_GAP
    return EXIT_OK


def _cmd_bounds(args) -> int:
    out = {}
    if args.b1 is not None and args.purity is not None:
        bound = postmeasurement_purity_bound(args.b1, args.purity)
        out["postmeasurement_purity_bound"] = bound.to_dict()
    elif args.b1 is not None:
        out["purity_lower_bound"] = purity_lower_bound(args.b1).to_dict()
        cb = concurrence_upper_from_b1(args.b1)
        out["concurrence_upper"] = {"upper": cb.upper, "trivial": cb.trivial}
    elif args.p is not None and args.w is not None:
        out["b1_max_constrained"] = b1_max_constrained(args.p, args.w)
        out["b1_max_initial"] = b1_max_initial(args.p)
        out["threshold_w"] = b1_threshold(args.p)
    else:
        raise DomainError(
            "bounds requires either --b1, --b1 with --purity, or --p with --w"
        )
    print(json.dumps(out, indent=2, sort_keys=True))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="purity-witness",
        description="Purity and concurrence certification from two-step "
        "temporal correlations",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_cert = sub.add_parser("certify", help="evaluate witness bounds on counts")
    p_cert.add_argument("counts", help="path to a counts JSON file")
    p_cert.add_argument("--delta", type=float, default=0.05)
    p_cert.add_argument("-o", "--output", default=None)
    p_cert.set_defaults(func=_cmd_certify)

    p_sim = sub.add_parser("simulate", help="sample counts from a canonical protocol")
    p_sim.add_argument("protocol", choices=["theorem2", "qutrit4", "quditmm"])
    p_sim.add_argument("--p", type=float, default=1.0)
    p_sim.add_argument("--w", type=float, default=1.0)
    p_sim.add_argument("--d", type=int, default=4)
    p_sim.add_argument("--shots", type=int, default=10000)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument(
        "--claim-purity",
        action="store_true",
        help="record the true initial purity in the counts file",
    )
    p_sim.add_argument("-o", "--output", required=True)
    p_sim.set_defaults(func=_cmd_simulate)

    p_surf = sub.add_parser("surface", help="export the constrained-maximum surface")
    p_surf.add_argument("--p-steps", type=int, default=51)
    p_surf.add_argument("--w-steps", type=int, default=51)
    p_surf.add_argument("-o", "--output", required=True)
    p_surf.set_defaults(func=_cmd_surface)

    p_ver = sub.add_parser("verify", help="numeric verification sweeps")
    p_ver.add_argument(
        "subject", choices=["eq5", "theorem2", "qudit", "monotonicity"]
    )
    p_ver.add_argument("--p", type=float, default=1.0)
    p_ver.add_argument("--w", type=float, default=1.0)
    p_ver.add_argument("--d", type=int, default=4)
    p_ver.add_argument("--grid", type=int, default=None)
    p_ver.add_argument("--restarts", type=int, default=50)
    p_ver.add_argument("--seed", type=int, default=None)
    p_ver.set_defaults(func=_cmd_verify)

    p_bounds = sub.add_parser("bounds", help="evaluate closed-form bounds")
    p_bounds.add_argument("--b1", type=float, default=None)
    p_bounds.add_argument("--p", type=float, default=None)
    p_bounds.add_argument("--w", type=float, default=None)
    p_bounds.add_argument("--purity", type=float, default=None)
    p_bounds.set_defaults(func=_cmd_bounds)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except QubitAssumptionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_QUBIT_ASSUMPTION
    except (PurityWitnessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
