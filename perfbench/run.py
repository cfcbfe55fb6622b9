"""Benchmark of purity_witness: one workload per invocation.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: kernel_search, certify_stream, cli_roundtrip
(see perfbench/README.md).  With ``--trace 0`` the run is untraced and
reports the end-to-end metrics; with ``--trace 1`` it runs every round
twice, untraced and then traced, and reports the per-layer metrics plus
the tracing overhead.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
NAMES = ("kernel_search", "certify_stream", "cli_roundtrip")
SETUP_SAMPLES = {"full": 3, "tiny": 1}
TAIL_BEYOND = 10
MAX_LISTED_FAILURES = 20


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload for the self-tests")
    parser.add_argument("--setup-only", action="store_true",
                        help="import, generate inputs, warm up and exit; "
                             "used to time set-up in a fresh process")
    return parser.parse_args(argv)


def import_package():
    """Import purity_witness from this checkout's src/, and nowhere else."""
    pkg = SRC / "purity_witness"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"error: {pkg} not found; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import purity_witness

    if Path(purity_witness.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"error: imported purity_witness from {purity_witness.__file__}, not {pkg}")
    return purity_witness


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args, wl) -> dict:
    import numpy
    import scipy
    from purity_witness import kernels

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": "present" if importlib.util.find_spec("numba") else "absent",
        "kernels_backend": kernels.BACKEND,
        "git_sha": git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "workload_sizes": wl.sizes(),
    }


def time_setup(args) -> list[float]:
    """Wall time of fresh processes that only set the workload up."""
    samples = []
    for _ in range(SETUP_SAMPLES[args.size]):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--trace", "0",
               "--size", args.size, "--setup-only"]
        t0 = perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        samples.append(perf_counter() - t0)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up process failed:\n{proc.stderr}")
    return samples


def run_round(wl, r: int, latencies: list) -> None:
    """Run round r of a workload, timing each operation and checking it.

    A traced workload's tracer is installed for its rounds only, so an
    untraced round runs the package's own functions, not idle wrappers.
    """
    if wl.tracer is None:
        _run_ops(wl, r, latencies)
        return
    wl.tracer.install()
    try:
        _run_ops(wl, r, latencies)
    finally:
        wl.tracer.uninstall()


def _run_ops(wl, r: int, latencies: list) -> None:
    tracer = wl.tracer
    for i in range(r * wl.round_size, (r + 1) * wl.round_size):
        x = wl.op_input(i)
        if tracer is not None:
            tracer.current_op = i
            tracer.enabled = True
            span = tracer.open("bench.op")
        t0 = perf_counter()
        try:
            out, error = wl.run(x), None
        except Exception as exc:  # the run continues; the op counts as failed
            out, error = None, f"{type(exc).__name__}: {exc}"
        t1 = perf_counter()
        if tracer is not None:
            tracer.close(span)
            tracer.enabled = False
        latencies.append(t1 - t0)
        if error is None:
            try:
                wl.check(i, x, out)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is not None:
            wl.fail(i, error)


def measure(lanes, seconds: float) -> list[list[float]]:
    """Closed loop of whole rounds until `seconds` have passed.

    Each round runs on every lane in turn (an untraced and a traced copy of
    the workload in a traced run), so the lanes see the same operations at
    nearly the same time and drifting machine load cancels between them.
    """
    latencies = [[] for _ in lanes]
    r = 0
    t_begin = perf_counter()
    while True:
        for wl, lat in zip(lanes, latencies):
            run_round(wl, r, lat)
        r += 1
        if perf_counter() - t_begin >= seconds:
            return latencies


def tail(latencies):
    """Highest percentile with at least TAIL_BEYOND samples beyond it.

    Never below the median; with fewer than 2 * TAIL_BEYOND + 1 samples it
    is the median, and the printed sample counts say so.
    """
    xs = sorted(latencies)
    n = len(xs)
    k = max(n - TAIL_BEYOND - 1, n // 2)
    return xs[k], 100.0 * (k + 1) / n, n - k - 1


def throughput(latencies) -> float:
    """Operations per second of operation time, over the whole run.

    The run holds whole rounds, so the mix of operations is fixed.  A total,
    not a median over rounds or operations: the host's speed drifts between
    a fast and a slow state over tens of seconds, and a median jumps
    between the two states' figures where a total moves with the share of
    time spent in each.
    """
    return len(latencies) / sum(latencies)


def peak_rss_mb() -> tuple[float, float, float]:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return max(own, children), own, children


def report_failures(passes) -> tuple[int, int]:
    attempted = failed = 0
    listed = 0
    for label, wl, lat in passes:
        attempted += len(lat)
        failed += len(wl.failures)
        for i, reason in sorted(wl.failures.items()):
            if listed < MAX_LISTED_FAILURES:
                print(f"FAILED {label} op {i}: {reason}")
            listed += 1
    if listed > MAX_LISTED_FAILURES:
        print(f"... and {listed - MAX_LISTED_FAILURES} more failed operations")
    return attempted, failed


def emit(metrics: dict, attempted: int, failed: int) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    import workloads

    make = workloads.WORKLOADS[args.workload]
    make(args.seed, args.size).warm_up()
    if args.setup_only:
        return 0

    print("environment: " + json.dumps(environment(args, make(args.seed, args.size)), sort_keys=True))
    if args.trace:
        return traced_run(make, args)

    setup = time_setup(args)
    wl = make(args.seed, args.size)
    (lat,) = measure([wl], args.seconds)
    for line in wl.finish():
        print(line)
    attempted, failed = report_failures([("untraced", wl, lat)])
    value, pct, beyond = tail(lat)
    peak, own, children = peak_rss_mb()
    print(f"set-up samples (s): {[round(s, 4) for s in setup]}")
    print(f"op latency: n = {len(lat)}, tail = p{pct:.1f} with {beyond} samples beyond")
    print(f"error_rate = {failed / attempted!r} ({failed} failed of {attempted} attempted)")
    print(f"peak RSS (MB): self {own:.1f}, largest child {children:.1f}")
    emit({
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (throughput(lat), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "op_tail_ms": (1e3 * value, "ms"),
        "success_rate": (1.0 - failed / attempted, "ratio"),
        "peak_rss_mb": (peak, "MB"),
    }, attempted, failed)
    return 0


def traced_run(make, args) -> int:
    """Untraced and traced copies of the workload, round by round."""
    from tracing import Tracer, layer_metrics

    plain, traced = make(args.seed, args.size), make(args.seed, args.size)
    traced.tracer = tracer = Tracer()
    plain_lat, traced_lat = measure([plain, traced], args.seconds)
    for line in plain.finish() + traced.finish():
        print(line)
    attempted, failed = report_failures([("untraced", plain, plain_lat), ("traced", traced, traced_lat)])
    overhead = 100.0 * (sum(traced_lat) / sum(plain_lat) - 1.0)
    path = OUT / f"spans-{args.workload}.npz"
    tracer.write(path)
    print(f"spans written to {path.relative_to(ROOT)}; overhead over {len(plain_lat)} ops run both ways")
    emit(layer_metrics(tracer, len(traced_lat), overhead), attempted, failed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
