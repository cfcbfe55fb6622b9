"""Random states and qubit protocols for the tests.

Effects satisfy 0 <= q <= r <= 1 - q; post states are random density
matrices of rank 1 or 2.  The draws are fixed by the generator or the seed,
so a seed gives the same states and protocols on every run.
"""

import numpy as np

from purity_witness.errors import DomainError
from purity_witness.optimizer import QubitEffectParams
from purity_witness.quantum import BinaryMeasurement, DensityMatrix
from purity_witness.sequence import ProtocolPair


def random_density(dim: int, rank: int, seed: int) -> DensityMatrix:
    """Seeded Hilbert-Schmidt-style random state: normalized G G^dagger."""
    if not 1 <= rank <= dim:
        raise DomainError("rank must satisfy 1 <= rank <= dim")
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    m = g @ g.conj().T
    m /= np.trace(m).real
    m = 0.5 * (m + m.conj().T)
    return DensityMatrix(m)


def random_unit_vector(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=3)
    n = np.linalg.norm(v)
    while n < 1e-12:
        v = rng.normal(size=3)
        n = np.linalg.norm(v)
    return v / n


def random_qubit_effect_params(rng: np.random.Generator) -> QubitEffectParams:
    q = rng.uniform(0.0, 0.5)
    r = rng.uniform(q, 1.0 - q)
    return QubitEffectParams(r, q, random_unit_vector(rng))


def random_qubit_measurement(rng: np.random.Generator) -> BinaryMeasurement:
    eff = random_qubit_effect_params(rng).to_effect()
    seed_a, seed_b = rng.integers(0, 2**31, size=2)
    return BinaryMeasurement(
        eff,
        random_density(2, int(rng.integers(1, 3)), int(seed_a)),
        random_density(2, int(rng.integers(1, 3)), int(seed_b)),
    )


def random_qubit_protocol(rng: np.random.Generator) -> ProtocolPair:
    return ProtocolPair(random_qubit_measurement(rng), random_qubit_measurement(rng))
