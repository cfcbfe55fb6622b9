"""The three benchmark workloads.

Each workload is a closed loop with one caller.  Operation ``i`` gets its
input from ``(seed, i)`` alone, generated outside the timed region; the timed
region is one call into the package (or one command-line process); the
output is checked against a reference outside the timed region.  Operations
come in rounds, and a run always ends on a round boundary, so every run sees
the same mix of operation kinds.

The references are the paper's closed forms and the counts estimator,
written out here independently of ``purity_witness``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from purity_witness import certificate, counts, optimizer, quantum, sequence

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

QUBIT_GAP_TOL = 1e-6
QUDIT_GAP_TOL = 1e-5
SOUND_TOL = 1e-7
ESTIMATE_TOL = 1e-12
DELTA = 0.05
SHOTS = 2000
# a claimed purity is kept only when B1 sits this many shot-noise standard
# deviations (at most 1/sqrt(shots)) below the ceiling the claim implies, so
# the post-measurement bound never rejects sampled counts as inconsistent
CLAIM_MARGIN_SIGMAS = 6.0


# -- references ---------------------------------------------------------------


def ref_b1_max_constrained(p: float, w: float) -> float:
    """Maximal qubit B1 at initial Bloch length p and post-state length w."""
    if w <= (1.0 - p) / (3.0 + p):
        return 2.0
    return 1.0 + 0.5 * (1.0 + w) + 0.25 * (1.0 + p) * (1.0 + w)


def ref_b1_max_initial(p: float) -> float:
    """Maximal qubit B1 at initial Bloch length p."""
    return 0.5 * (5.0 + p)


def ref_qudit_attainable(d: int) -> float:
    """Value the block search attains on the maximally mixed qudit."""
    return 4.0 * (1.0 - 1.0 / d)


def ref_estimate(data: dict, delta: float) -> tuple[float, float]:
    """B1 point estimate and Hoeffding lower value from a counts dict."""
    by_pair = {(s["x"], s["y"]): s["counts"] for s in data["settings"]}
    total = {xy: sum(c.values()) for xy, c in by_pair.items()}
    b1_hat = (
        by_pair[(0, 0)]["++"] / total[(0, 0)]
        + by_pair[(1, 1)]["++"] / total[(1, 1)]
        + by_pair[(0, 1)]["+-"] / total[(0, 1)]
        + by_pair[(1, 0)]["+-"] / total[(1, 0)]
    )
    width = sum(math.sqrt(math.log(8.0 / delta) / (2.0 * n)) for n in total.values())
    return b1_hat, b1_hat - width


def _bloch_b1(t_in, meas) -> float:
    """Exact B1 of a qubit protocol in Bloch form.

    meas[x] = (r, q, v, t_plus): effect r 1 + q v.sigma and the Bloch vector
    of the state re-prepared after outcome "+".
    """
    def p_plus(x, t):
        r, q, v, _ = meas[x]
        return r + q * float(v @ t)

    first = [p_plus(0, t_in), p_plus(1, t_in)]
    t0, t1 = meas[0][3], meas[1][3]
    return (
        first[0] * p_plus(0, t0)
        + first[1] * p_plus(1, t1)
        + first[0] * (1.0 - p_plus(1, t0))
        + first[1] * (1.0 - p_plus(0, t1))
    )


def _claim_consistent(b1: float, bloch_length: float) -> bool:
    margin = CLAIM_MARGIN_SIGMAS / math.sqrt(SHOTS)
    return b1 <= ref_b1_max_initial(bloch_length) - margin


def _unit_vector(rng: np.random.Generator) -> np.ndarray:
    while True:
        v = rng.normal(size=3)
        n = float(np.linalg.norm(v))
        if n > 1e-6:
            return v / n


def _op_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31))


# -- workloads ------------------------------------------------------------------


class Workload:
    """One workload; a fresh instance per run, and per copy in a traced run."""

    name = ""
    round_size = 1

    def __init__(self, seed: int, size: str):
        self.seed = seed
        self.tiny = size == "tiny"
        self.failures: dict[int, str] = {}
        self.tracer = None

    def rng(self, *key: int) -> np.random.Generator:
        return np.random.default_rng([self.seed % 2**64, *key])

    def fail(self, i: int, reason: str) -> None:
        self.failures.setdefault(i, reason)

    def sizes(self) -> dict:
        raise NotImplementedError

    def warm_up(self) -> None:
        """Fill lazy library state so the first timed operation is warm."""

    def op_input(self, i: int):
        raise NotImplementedError

    def run(self, x):
        raise NotImplementedError

    def check(self, i: int, x, out) -> None:
        raise NotImplementedError

    def finish(self) -> list[str]:
        """Checks across operations, after the loop; returns report lines."""
        return []


class KernelSearch(Workload):
    """Qubit (p, w) grid searches plus maximally mixed qudit searches.

    Almost all time is in ``kernels`` (pure-Python Nelder-Mead on scalar
    objectives); no ``quantum`` validation and no scipy run.  Every search
    uses the package's default of 100 restarts, as criterion 2 does: with
    20, the grid point (0.25, 0.25), just above the branch point of
    ``b1_max_constrained``, has a per-start hit rate of about 0.17 and
    misses its closed form in about 3% of calls.

    The grid spans both branches of ``b1_max_constrained`` like the
    criterion 2 grid.  Round r is the wrapped diagonal
    {(p_i, w_(i+r) mod n)}, one search per point, and one operation of four
    qudit searches, d = 3..6.  Each round holds every p and every w once;
    search cost depends mostly on w (a w = 0 point costs about a third of a
    w >= 0.5 one), so rounds cost nearly the same, and n rounds cover the
    grid.  The qudit searches share one operation so that the median
    operation is a w >= 0.5 qubit search: as single operations, the cheap
    ones (the qudit searches and the w = 0 points) would be half of all
    operations and put the median on the step between cheap and dear
    searches.  The seed draws every search's starts.
    """

    name = "kernel_search"
    QUDIT_DIMS = (3, 4, 5, 6)

    def __init__(self, seed, size):
        super().__init__(seed, size)
        self.restarts = 2 if self.tiny else 100
        self.grid = 2 if self.tiny else 5
        self.axis = [float(v) for v in np.linspace(0.0, 1.0, self.grid)]
        self.round_size = self.grid + 1

    def sizes(self):
        return {
            "grid": f"{self.grid}x{self.grid} (p, w) in [0, 1]^2",
            "restarts": self.restarts,
            "qudit_dims": list(self.QUDIT_DIMS),
            "round": f"{self.grid} qubit grid points (a wrapped diagonal), one search each, "
                     f"+ one operation of {len(self.QUDIT_DIMS)} qudit searches",
        }

    def warm_up(self):
        optimizer.maximize_b1_qubit(0.5, 0.5, restarts=1, seed=0)
        optimizer.maximize_b1_qudit_maxmixed(4, restarts=1, seed=0)

    def op_input(self, i):
        r, k = divmod(i, self.round_size)
        if k == self.grid:
            return "qudit", self.QUDIT_DIMS, _op_seed(self.rng(i))
        point = (self.axis[k], self.axis[(k + r) % self.grid])
        return "qubit", point, _op_seed(self.rng(i))

    def run(self, x):
        kind, arg, seed = x
        if kind == "qubit":
            p, w = arg
            return optimizer.maximize_b1_qubit(p, w, restarts=self.restarts, seed=seed)
        return [optimizer.maximize_b1_qudit_maxmixed(d, restarts=self.restarts, seed=seed)
                for d in arg]

    def check(self, i, x, out):
        kind, arg, seed = x
        if kind == "qubit":
            ref = ref_b1_max_constrained(*arg)
            if not ref - QUBIT_GAP_TOL <= out.best_value <= ref + SOUND_TOL:
                self.fail(i, f"qubit (p, w) = {arg} seed {seed}: "
                             f"{out.best_value!r} vs closed form {ref!r}")
            return
        for d, report in zip(arg, out):
            ref = ref_qudit_attainable(d)
            if abs(report.best_value - ref) > QUDIT_GAP_TOL:
                self.fail(i, f"qudit d = {d} seed {seed}: "
                             f"{report.best_value!r} vs attainable {ref!r}")


class CertifyStream(Workload):
    """Simulate -> sample counts -> parse -> certify -> JSON, in process.

    Half the trials use ``theorem2_protocol``, half random qubit protocols;
    half of each carry a claimed initial purity.  Time is in ``quantum``
    validation, ``sequence``, ``counts``, ``witness`` and ``certificate``;
    no search runs.  One operation is a batch of 64 trials, 16 of each
    kind: a single trial takes about 1.5 ms, the size of the pauses other
    tenants of a shared host inflict, so a tail percentile of single trials
    measures the host rather than the program.
    """

    name = "certify_stream"

    def __init__(self, seed, size):
        super().__init__(seed, size)
        self.batch = 4 if self.tiny else 64
        self.digest_trials = 8 if self.tiny else 256
        self.hashes: dict[int, str] = {}

    def sizes(self):
        return {
            "trials_per_op": self.batch,
            "shots_per_setting": SHOTS,
            "delta": DELTA,
            "kinds": "theorem2 / random qubit protocol x claimed purity / none",
            "digest_trials": self.digest_trials,
        }

    def warm_up(self):
        self.run([self.trial_input(t) for t in range(4)])

    def op_input(self, i):
        return [self.trial_input(t) for t in range(i * self.batch, (i + 1) * self.batch)]

    def trial_input(self, t):
        rng = self.rng(t)
        kind = "theorem2" if t % 2 == 0 else "random"
        claim = (t // 2) % 2 == 1
        while True:
            if kind == "theorem2":
                p, w = rng.uniform(0.0, 1.0, 2)
                x = {"p": float(p), "w": float(w)}
                length, b1 = float(p), ref_b1_max_constrained(p, w)
            else:
                length = float(rng.uniform(0.0, 1.0))
                x = {"length": length, "direction": _unit_vector(rng), "meas": []}
                for _ in range(2):
                    q = float(rng.uniform(0.0, 0.5))
                    r = float(rng.uniform(q, 1.0 - q))
                    posts = [(float(rng.uniform(0.0, 1.0)), _unit_vector(rng)) for _ in range(2)]
                    x["meas"].append((r, q, _unit_vector(rng), posts))
                b1 = _bloch_b1(
                    length * x["direction"],
                    [(r, q, v, posts[0][0] * posts[0][1]) for r, q, v, posts in x["meas"]],
                )
            if not claim or _claim_consistent(b1, length):
                break
        x["trial"] = t
        x["claimed"] = 0.5 * (1.0 + length * length) if claim else None
        x["label"] = f"{kind} trial {t}"
        x["count_seed"] = _op_seed(rng)
        return x

    def _protocol(self, x):
        if "p" in x:
            return sequence.theorem2_protocol(x["p"], x["w"])
        rho = quantum.bloch_to_density(quantum.BlochState(x["length"], x["direction"]))
        meas = []
        for r, q, v, posts in x["meas"]:
            effect = quantum.Effect(r * np.eye(2) + q * np.tensordot(v, quantum.PAULI, axes=1))
            plus, minus = (quantum.bloch_to_density(quantum.BlochState(*s)) for s in posts)
            meas.append(quantum.BinaryMeasurement(effect, plus, minus))
        return rho, sequence.ProtocolPair(*meas)

    def _trial(self, x):
        rho, protocol = self._protocol(x)
        table = sequence.correlations(rho, protocol)
        rng = np.random.default_rng(x["count_seed"])
        settings = []
        for xs, ys in counts.SETTING_PAIRS:
            probs = np.clip(table.probs[:, :, xs, ys].ravel(), 0.0, None)
            draw = rng.multinomial(SHOTS, probs / probs.sum())
            settings.append({"x": xs, "y": ys, "counts": dict(zip(counts.OUTCOME_KEYS, map(int, draw)))})
        data = {"label": x["label"], "claimed_initial_purity": x["claimed"], "settings": settings}
        rec = counts.counts_record_from_dict(json.loads(json.dumps(data)))
        return data, certificate.certify(rec, DELTA).to_json()

    def run(self, batch):
        return [self._trial(x) for x in batch]

    def check(self, i, batch, outs):
        for x, (data, text) in zip(batch, outs):
            cert = json.loads(text)
            b1_hat, b1_low = ref_estimate(data, DELTA)
            if (abs(cert["b1_hat"] - b1_hat) > ESTIMATE_TOL
                    or abs(cert["b1_lower_conf"] - b1_low) > ESTIMATE_TOL):
                self.fail(i, f"{x['label']}: certificate B1 ({cert['b1_hat']!r}, "
                             f"{cert['b1_lower_conf']!r}) vs recomputed ({b1_hat!r}, {b1_low!r})")
            if x["trial"] < self.digest_trials:
                self.hashes[x["trial"]] = hashlib.sha256(text.encode()).hexdigest()

    def finish(self):
        """Re-run the first trials and digest their certificates."""
        digest = hashlib.sha256()
        for t in range(self.digest_trials):
            try:
                text = self._trial(self.trial_input(t))[1]
            except Exception as exc:
                self.fail(t // self.batch, f"trial {t} on the second run: {type(exc).__name__}: {exc}")
                continue
            h = hashlib.sha256(text.encode()).hexdigest()
            if t in self.hashes and self.hashes[t] != h:
                self.fail(t // self.batch, f"trial {t}: certificate differs between two runs of one input")
            digest.update(text.encode())
        return [f"certificate digest (first {self.digest_trials} trials): {digest.hexdigest()}"]


class CliRoundtrip(Workload):
    """``purity-witness simulate`` then ``certify``, as separate processes.

    The only workload that pays interpreter start, the import graph,
    argparse and file I/O.  One command-line process runs at a time.
    """

    name = "cli_roundtrip"
    round_size = 2

    def __init__(self, seed, size):
        super().__init__(seed, size)
        OUT.mkdir(parents=True, exist_ok=True)
        self.counts_path = OUT / "cli-counts.json"
        self.cert_path = OUT / "cli-cert.json"
        self.spans_path = OUT / "cli-spans.json"
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

    def sizes(self):
        return {
            "protocol": "theorem2, (p, w) uniform in [0, 1]^2",
            "shots_per_setting": SHOTS,
            "delta": DELTA,
            "round": "simulate + certify",
        }

    def warm_up(self):
        self._cli(["--version"])

    def op_input(self, i):
        r, k = divmod(i, self.round_size)
        rng = self.rng(r)
        claim = r % 2 == 1
        while True:
            p, w = (float(v) for v in rng.uniform(0.0, 1.0, 2))
            if not claim or _claim_consistent(ref_b1_max_constrained(p, w), p):
                break
        if k == 0:
            argv = ["simulate", "theorem2", "--p", repr(p), "--w", repr(w),
                    "--shots", str(SHOTS), "--seed", str(_op_seed(rng)),
                    "-o", str(self.counts_path)]
            if claim:
                argv.append("--claim-purity")
        else:
            argv = ["certify", str(self.counts_path), "--delta", repr(DELTA),
                    "-o", str(self.cert_path)]
        return argv

    def _cli(self, argv):
        if self.tracer is None:
            cmd = [sys.executable, "-m", "purity_witness.cli", *argv]
        else:
            t_spawn = perf_counter()
            cmd = [sys.executable, str(ROOT / "perfbench" / "cli_child.py"),
                   str(self.spans_path), *argv]
        proc = subprocess.run(cmd, cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        if self.tracer is not None and proc.returncode == 0:
            self._merge_child_spans(t_spawn)
        return proc

    def _merge_child_spans(self, t_spawn):
        child = json.loads(self.spans_path.read_text())
        tracer = self.tracer
        op_span = tracer.innermost()
        tracer.add_span("cli.startup", t_spawn, child["t_imported"], op_span)
        index = {}
        for k, (name, start, end, parent) in enumerate(child["spans"]):
            index[k] = tracer.add_span(name, start, end, index.get(parent, op_span))

    def run(self, argv):
        return self._cli(argv)

    def check(self, i, argv, proc):
        if proc.returncode != 0:
            self.fail(i, f"{argv[0]} exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
            return
        if argv[0] == "certify":
            expected = certificate.certify(counts.ingest_counts(str(self.counts_path)), DELTA).to_json()
            if self.cert_path.read_text() != expected:
                self.fail(i, "command-line certificate differs from in-process certify()")


WORKLOADS = {
    w.name: w for w in (KernelSearch, CertifyStream, CliRoundtrip)
}
