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

import numpy as np

from . import __version__
from .certificate import certify
from .counts import MAX_COUNT, CountsRecord, ingest_counts
from .errors import (
    ConsistencyError,
    CountsFormatError,
    DimensionError,
    DomainError,
    QubitAssumptionError,
)
from .optimizer import (
    QUBIT_GAP_TOL,
    QUDIT_GAP_TOL,
    maximize_b1_qubit,
    maximize_b1_qudit_maxmixed,
    monotonicity_sweep,
)
from .sequence import (
    b1_weights,
    correlations,
    qudit_maxmixed_protocol,
    qutrit_value4_protocol,
    theorem2_protocol,
)
from .witness import (
    b1_max_constrained,
    b1_max_initial,
    b1_threshold,
    concurrence_upper_from_b1,
    postmeasurement_purity_bound,
    purity_lower_bound,
)
from .quantum import purity

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_QUBIT_ASSUMPTION = 3
EXIT_GAP = 4


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
    seed = _seed(args)
    if args.protocol == "theorem2":
        rho, protocol = theorem2_protocol(args.p, args.w)
        label = f"theorem2 p={args.p} w={args.w}"
    elif args.protocol == "qutrit4":
        rho, protocol = qutrit_value4_protocol()
        label = "qutrit4"
    else:
        rho, protocol = qudit_maxmixed_protocol(args.d)
        label = f"quditmm d={args.d}"
    if not 1 <= args.shots <= MAX_COUNT:
        raise DomainError(f"shots must lie in [1, {MAX_COUNT}] (2**63 - 1)")
    table = correlations(rho, protocol)
    rng = np.random.default_rng(seed)
    counts = {}
    for x in (0, 1):
        for y in (0, 1):
            probs = table.probs[:, :, x, y].ravel()
            probs = np.clip(probs, 0.0, None)
            probs = probs / probs.sum()
            draw = rng.multinomial(args.shots, probs)
            counts[(x, y)] = {
                "++": int(draw[0]),
                "+-": int(draw[1]),
                "-+": int(draw[2]),
                "--": int(draw[3]),
            }
    claimed = float(purity(rho)) if args.claim_purity else None
    return CountsRecord(label=label, claimed_initial_purity=claimed, counts=counts)


def _cmd_simulate(args) -> int:
    rec = _simulated_record(args)
    text = json.dumps(rec.to_json_dict(), indent=2, sort_keys=True) + "\n"
    with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return EXIT_OK


def _cmd_surface(args) -> int:
    if args.p_steps < 2 or args.w_steps < 2:
        raise DomainError("surface requires at least 2 steps per axis")
    lines = ["p,w,b1_max"]
    for p in np.linspace(0.0, 1.0, args.p_steps):
        for w in np.linspace(0.0, 1.0, args.w_steps):
            lines.append(f"{p:.10g},{w:.10g},{b1_max_constrained(p, w):.12g}")
    with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return EXIT_OK


def _report_line(report, extra=None) -> str:
    d = report.to_dict()
    if extra:
        d.update(extra)
    return json.dumps(d, sort_keys=True)


def _cmd_verify(args) -> int:
    seed = _seed(args)
    worst_gap = 0.0
    tol = QUBIT_GAP_TOL
    if args.subject in ("eq5", "theorem2"):
        if args.subject == "eq5":
            points = [(float(p), 1.0) for p in np.linspace(0.0, 1.0, 11)]
        elif args.grid is None:
            points = [(args.p, args.w)]
        else:
            if args.grid < 2:
                raise DomainError("theorem2 --grid requires at least 2 steps per axis")
            axis = np.linspace(0.0, 1.0, args.grid)
            points = [(float(p), float(w)) for p in axis for w in axis]
        for p, w in points:
            rep = maximize_b1_qubit(p, w, restarts=args.restarts, seed=seed)
            branch = "deterministic" if w <= b1_threshold(p) else "projective-pair"
            print(_report_line(rep, {"p": p, "w": w, "strategy": branch}))
            worst_gap = max(worst_gap, abs(rep.gap))
    elif args.subject == "qudit":
        tol = QUDIT_GAP_TOL
        rep = maximize_b1_qudit_maxmixed(args.d, restarts=args.restarts, seed=seed)
        print(_report_line(rep, {"d": args.d}))
        worst_gap = abs(rep.gap)
    else:  # monotonicity
        purities = [0.5 + 0.5 * i / 7 for i in range(8)]
        results = monotonicity_sweep(
            b1_weights(), 2, purities, restarts=args.restarts, seed=seed
        )
        tol = QUDIT_GAP_TOL
        prev = -np.inf
        for pur, val in results:
            expected = b1_max_initial((2.0 * pur - 1.0) ** 0.5)
            print(
                json.dumps(
                    {"purity": pur, "best_value": val, "closed_form": expected},
                    sort_keys=True,
                )
            )
            worst_gap = max(worst_gap, abs(expected - val), max(0.0, prev - val))
            prev = val
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
    except (CountsFormatError, ConsistencyError, DomainError, DimensionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
