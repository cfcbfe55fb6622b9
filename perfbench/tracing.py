"""Outside-in tracing of the purity_witness layers.

The tracer replaces public functions with timing wrappers at the module
attribute their caller looks up (``kernels.multistart_maximize`` as seen by
``optimizer``, ``estimate_b1`` as seen by ``certificate``, ...), so no source
file of the package is edited.  Spans (name, start, end, parent, op id) are
kept in memory as flat arrays and written out when the run ends; a span's
self time is its duration minus the durations of its direct children, which
never overlap because the program is single-threaded.
"""

from __future__ import annotations

import functools
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

MODULES = (
    "quantum",
    "sequence",
    "witness",
    "kernels",
    "optimizer",
    "counts",
    "certificate",
    "cli",
)

HIT_TOL = 1e-6


class Tracer:
    """Span recorder plus the counters measured at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self._stack: list[int] = []
        self.current_op = -1
        self.enabled = False
        self.counters = {
            "kernels.objective.evals": 0,
            "kernels.starts": 0,
            "kernels.hits": 0,
        }
        self.worst_gap = 0.0
        self._patches: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def open(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.innermost())
        self.op.append(self.current_op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def innermost(self) -> int:
        """Index of the innermost open span, or -1."""
        return self._stack[-1] if self._stack else -1

    def add_span(self, name: str, start: float, end: float, parent: int) -> int:
        """Append a finished span recorded elsewhere (a traced child process)."""
        idx = self.open(name)
        self._stack.pop()
        self.parent[idx] = parent
        self.start[idx] = start
        self.end[idx] = end
        return idx

    def _span_wrapper(self, name: str, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    # -- patching -----------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        self._patch(owner, attr, self._span_wrapper(name, getattr(owner, attr), after))

    def install(self) -> None:
        """Wrap every layer boundary the workloads cross; spans are recorded
        only while ``enabled`` is set."""
        from purity_witness import (
            certificate,
            cli,
            counts,
            kernels,
            optimizer,
            quantum,
            sequence,
        )

        # quantum: validation on construction of effects and states
        for cls in (quantum.Effect, quantum.DensityMatrix):
            self.wrap(cls, "__post_init__", "quantum.validate")
        for owner in (quantum, sequence):
            self.wrap(owner, "bloch_to_density", "quantum.bloch_to_density")

        # sequence: protocol construction and simulation, as seen by the
        # benchmark (module attribute) and by the command line
        for owner in (sequence, cli):
            self.wrap(owner, "theorem2_protocol", "sequence.theorem2_protocol")
            self.wrap(owner, "correlations", "sequence.correlations")

        # kernels, as seen by optimizer; the objective is counted, not spanned
        self.wrap(kernels, "multistart_maximize", "kernels.multistart_maximize",
                  self._after_multistart)
        objective = kernels._objective
        tracer = self

        def counted_objective(*args):
            if tracer.enabled:
                tracer.counters["kernels.objective.evals"] += 1
            return objective(*args)

        self._patch(kernels, "_objective", counted_objective)

        # optimizer: the public searches
        self.wrap(optimizer, "maximize_b1_qubit", "optimizer.maximize_b1_qubit",
                  self._after_qubit)
        self.wrap(optimizer, "maximize_b1_qudit_maxmixed",
                  "optimizer.maximize_b1_qudit_maxmixed")

        # witness: closed-form bounds, as seen by optimizer and certificate
        for attr in ("b1_max_constrained", "b1_max_initial"):
            self.wrap(optimizer, attr, f"witness.{attr}")
        for attr in ("purity_lower_bound", "concurrence_upper_from_b1",
                     "postmeasurement_purity_bound"):
            self.wrap(certificate, attr, f"witness.{attr}")

        # counts: parsing (also reached from ingest_counts) and estimation
        self.wrap(counts, "counts_record_from_dict", "counts.counts_record_from_dict")
        self.wrap(certificate, "estimate_b1", "counts.estimate_b1")
        self.wrap(cli, "ingest_counts", "counts.ingest_counts")

        # certificate, as seen by the benchmark and by the command line
        for owner in (certificate, cli):
            self.wrap(owner, "certify", "certificate.certify")
        self.wrap(certificate.WitnessCertificate, "to_json", "certificate.to_json")

        self.wrap(cli, "main", "cli.main")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- counters read from results ------------------------------------------

    def _after_multistart(self, result, args, kwargs):
        best, _, per_start = result
        per_start = np.asarray(per_start)
        self.counters["kernels.starts"] += per_start.size
        self.counters["kernels.hits"] += int(np.sum(per_start >= best - HIT_TOL))

    def _after_qubit(self, report, args, kwargs):
        # only the qubit search has an attainable closed form; the qudit
        # report's gap is to the paper's ceiling, 1/3 short at d = 3 by design
        self.worst_gap = max(self.worst_gap, abs(report.gap))

    # -- output -------------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names, dtype=str),
            "name": np.array(self.name, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "parent": np.array(self.parent, dtype=np.int32),
            "op": np.array(self.op, dtype=np.int32),
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, **self.arrays())

    def span_stats(self) -> dict:
        """Per span name: durations and self times of every call."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(
            a["parent"][has_parent], weights=dur[has_parent], minlength=dur.size
        )
        self_time = dur - child
        stats = {}
        for nid, name in enumerate(self.names):
            sel = a["name"] == nid
            stats[name] = (dur[sel], self_time[sel])
        return stats


def _p50(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def layer_metrics(tracer: Tracer, ops: int, overhead_pct: float) -> dict:
    """The per-layer metrics of BENCHMARK.json, as name -> (value, unit)."""
    st = tracer.span_stats()
    empty = (np.zeros(0), np.zeros(0))

    def dur(name):
        return st.get(name, empty)[0]

    def self_t(name):
        return st.get(name, empty)[1]

    def prefixed(prefix):
        return [n for n in st if n.startswith(prefix)]

    c = tracer.counters
    validations = dur("quantum.validate").size
    bounds = np.concatenate([dur(n) for n in prefixed("witness.")] or [np.zeros(0)])
    m = {
        "kernels.multistart_maximize.calls": (dur("kernels.multistart_maximize").size, "count"),
        "kernels.multistart_maximize.busy_s": (float(dur("kernels.multistart_maximize").sum()), "s"),
        "kernels.multistart_maximize.p50_ms": (1e3 * _p50(dur("kernels.multistart_maximize")), "ms"),
        "kernels.objective.evals": (c["kernels.objective.evals"], "count"),
        "kernels.hit_rate": (c["kernels.hits"] / c["kernels.starts"] if c["kernels.starts"] else 0.0, "ratio"),
        "optimizer.maximize_b1_qubit.self_ms": (1e3 * _p50(self_t("optimizer.maximize_b1_qubit")), "ms"),
        "optimizer.maximize_b1_qudit_maxmixed.self_ms": (1e3 * _p50(self_t("optimizer.maximize_b1_qudit_maxmixed")), "ms"),
        "optimizer.worst_gap": (tracer.worst_gap, "B1"),
        "quantum.validations": (validations, "count"),
        "quantum.validate.busy_s": (float(dur("quantum.validate").sum()), "s"),
        "quantum.validations_per_op": (validations / ops if ops else 0.0, "count/op"),
        "sequence.theorem2_protocol.p50_us": (1e6 * _p50(dur("sequence.theorem2_protocol")), "us"),
        "sequence.correlations.p50_us": (1e6 * _p50(dur("sequence.correlations")), "us"),
        "sequence.correlations.busy_s": (float(dur("sequence.correlations").sum()), "s"),
        "counts.counts_record_from_dict.p50_us": (1e6 * _p50(dur("counts.counts_record_from_dict")), "us"),
        "counts.estimate_b1.p50_us": (1e6 * _p50(dur("counts.estimate_b1")), "us"),
        "counts.ingest_counts.p50_us": (1e6 * _p50(dur("counts.ingest_counts")), "us"),
        "witness.bounds.calls": (bounds.size, "count"),
        "witness.bounds.busy_s": (float(bounds.sum()), "s"),
        "certificate.certify.p50_us": (1e6 * _p50(dur("certificate.certify")), "us"),
        "certificate.certify.self_us": (1e6 * _p50(self_t("certificate.certify")), "us"),
        "certificate.to_json.p50_us": (1e6 * _p50(dur("certificate.to_json")), "us"),
        "cli.startup_ms": (1e3 * _p50(dur("cli.startup")), "ms"),
        "cli.main_ms": (1e3 * _p50(dur("cli.main")), "ms"),
    }
    for module in MODULES:
        total = float(sum(self_t(n).sum() for n in prefixed(module + ".")))
        m[f"{module}.self_s"] = (total, "s")
    m["trace.spans"] = (len(tracer.start), "count")
    m["trace.overhead_pct"] = (overhead_pct, "%")
    return m
