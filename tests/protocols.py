"""Random states and qubit protocols, counts records, and a strict-JSON
hook, for the tests.

Effects satisfy 0 <= q <= r <= 1 - q; post states are random density
matrices of rank 1 or 2.  The draws are fixed by the generator or the seed,
so a seed gives the same states and protocols on every run; they are built
from real and imaginary parts without BLAS, so their bits do not depend on
the CPU either.
``reject_non_finite`` is a ``json.loads`` ``parse_constant`` that rejects
NaN and the infinities, which strict JSON has no numbers for.
``run_fresh`` calls a test module's function in a fresh interpreter, for the
pinned digests that must hold under another numpy dispatch level or
OpenBLAS kernel.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import purity_witness
from purity_witness.counts import SETTING_PAIRS, CountsRecord
from purity_witness.errors import DomainError
from purity_witness.quantum import (
    BinaryMeasurement,
    DensityMatrix,
    Effect,
    pauli_dot,
    vector_length,
)
from purity_witness.sequence import (
    CorrelationTable,
    ProtocolPair,
    correlations,
    theorem2_protocol,
)


def random_density(dim: int, rank: int, seed: int) -> DensityMatrix:
    """Seeded Hilbert-Schmidt-style random state: normalized G G^dagger."""
    if not 1 <= rank <= dim:
        raise DomainError("rank must satisfy 1 <= rank <= dim")
    rng = np.random.default_rng(seed)
    re, im = rng.normal(size=(dim, rank)), rng.normal(size=(dim, rank))

    def gram(u, v):  # u v^T, summed over the rank axis entry by entry
        return (u[:, None, :] * v[None, :, :]).sum(axis=-1)

    # G G^dagger for G = re + i im, exactly Hermitian
    m_re = gram(re, re) + gram(im, im)
    m_im = gram(im, re) - gram(re, im)
    tr = np.trace(m_re)
    m = (m_re / tr).astype(complex)
    m.imag = m_im / tr
    return DensityMatrix(m)


def random_unit_vector(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=3)
    n = vector_length(v)
    while n < 1e-12:
        v = rng.normal(size=3)
        n = vector_length(v)
    return v / n


def random_qubit_measurement(rng: np.random.Generator) -> BinaryMeasurement:
    q = rng.uniform(0.0, 0.5)
    r = rng.uniform(q, 1.0 - q)
    v = random_unit_vector(rng)
    eff = Effect(r * np.eye(2, dtype=complex) + q * pauli_dot(v))
    seed_a, seed_b = rng.integers(0, 2**31, size=2)
    return BinaryMeasurement(
        eff,
        random_density(2, int(rng.integers(1, 3)), int(seed_a)),
        random_density(2, int(rng.integers(1, 3)), int(seed_b)),
    )


def random_qubit_protocol(rng: np.random.Generator) -> ProtocolPair:
    return ProtocolPair(random_qubit_measurement(rng), random_qubit_measurement(rng))


def exact_counts(p: float, w: float, shots: int, claimed=None) -> CountsRecord:
    """Exact counts of theorem2_protocol(p, w): each setting's probabilities
    times shots, which are integers at dyadic (p, w)."""
    rho, protocol = theorem2_protocol(p, w)
    table = correlations(rho, protocol)
    counts = {}
    for x in (0, 1):
        for y in (0, 1):
            block = {}
            for i, a in enumerate("+-"):
                for j, b_ in enumerate("+-"):
                    raw = table.probs[i, j, x, y] * shots
                    assert abs(raw - round(raw)) < 1e-9, "non-integer exact counts"
                    block[a + b_] = int(round(raw))
            counts[(x, y)] = block
    return CountsRecord(
        label=f"exact p={p} w={w}", claimed_initial_purity=claimed, counts=counts
    )


def table_from_counts(rec: CountsRecord) -> CorrelationTable:
    """The empirical correlation table: each count over its setting's total."""
    t = np.empty((2, 2, 2, 2))
    for x, y in SETTING_PAIRS:
        tot = rec.total(x, y)
        for i, a in enumerate("+-"):
            for j, b in enumerate("+-"):
                t[i, j, x, y] = rec.counts[(x, y)][a + b] / tot
    return CorrelationTable(t)


def reject_non_finite(name):
    raise ValueError(f"non-finite JSON number {name}")


# calls argv[4](*argv[5]) of the test module argv[3], with the package source
# argv[1] and the tests directory argv[2] first on the path; it reports the
# numpy dispatch targets left on, so a test cannot pass without switching them
# off, and the OpenBLAS kernel's name where numpy's bundled OpenBLAS gives it
_FRESH_CHILD = r"""
import ctypes, glob, importlib, json, os, sys
sys.path[:0] = sys.argv[1:3]
import numpy as np
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
libs = glob.glob(os.path.join(os.path.dirname(np.__path__[0]), "numpy.libs", "libscipy_openblas*"))
corename = getattr(ctypes.CDLL(libs[0]), "scipy_openblas_get_corename64_", None) if libs else None
if corename is not None:
    corename.restype = ctypes.c_char_p
result = getattr(importlib.import_module(sys.argv[3]), sys.argv[4])(*json.loads(sys.argv[5]))
print(json.dumps({
    "dispatch": [name for name in __cpu_dispatch__ if __cpu_features__[name]],
    "core": corename and corename().decode(),
    "result": result,
}))
"""


def run_fresh(module: str, function: str, args: list, env: dict) -> dict:
    """``function(*args)`` of the test module ``module``, called in a fresh
    interpreter whose environment is this one's updated with ``env``, on the
    package this process imported.  Returns a dict of the JSON ``result``,
    the numpy ``dispatch`` targets left on and the OpenBLAS ``core`` name (or
    None)."""
    src = Path(purity_witness.__file__).resolve().parents[1]
    tests = Path(__file__).resolve().parent
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH_CHILD, str(src), str(tests), module, function,
         json.dumps(args)],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, **env},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])
