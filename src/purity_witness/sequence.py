"""Two-time-step sequential measurement simulation and the B1 functional.

Correlations follow the measure-and-prepare rule
p(ab|xy) = tr(E_{a|x} rho_in) * tr(E_{b|y} rho_{a|x}),
where rho_{a|x} is the state re-prepared by measurement x after outcome a.
A protocol stores its effects E_{a|x} and post states rho_{a|x} as stacked,
read-only (2, 2, d, d) arrays indexed [setting, outcome], built once from
measurements that were validated on construction, so a simulation validates
nothing but the resulting table and computes all 16 probabilities with two
stacked matrix products.  Probability-zero first-step branches simply
contribute 0; no conditional probability is ever formed by division.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field

import numpy as np

from .counts import B1_TERMS
from .errors import DimensionError, DomainError
from .quantum import (
    BinaryMeasurement,
    BlochState,
    DensityMatrix,
    Effect,
    bloch_to_density,
)

OUTCOMES = ("+", "-")
_IDX = {"+": 0, "-": 1}


@dataclass(frozen=True)
class ProtocolPair:
    """The two binary measurements, reused at both time steps.

    ``effects[x, a]`` and ``posts[x, a]`` hold E_{a|x} and rho_{a|x} as
    read-only (2, 2, d, d) arrays, with "+" = 0 and "-" = 1.
    """

    meas0: BinaryMeasurement
    meas1: BinaryMeasurement
    effects: np.ndarray = field(init=False, repr=False, compare=False)
    posts: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.meas0.dim != self.meas1.dim:
            raise DimensionError("both measurements must share the same dimension")
        pairs = (self.meas0, self.meas1)
        effects = np.array([[m.effect(a).matrix for a in OUTCOMES] for m in pairs])
        posts = np.array([[m.post_state(a).matrix for a in OUTCOMES] for m in pairs])
        for name, arr in (("effects", effects), ("posts", posts)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def dim(self) -> int:
        return self.meas0.dim

    def measurement(self, setting: int) -> BinaryMeasurement:
        if setting == 0:
            return self.meas0
        if setting == 1:
            return self.meas1
        raise DomainError("measurement setting must be 0 or 1")

    def swapped(self) -> "ProtocolPair":
        return ProtocolPair(self.meas1, self.meas0)


@dataclass(frozen=True)
class CorrelationTable:
    """The 16 probabilities p(ab|xy), indexed [a, b, x, y] with +=0, -=1."""

    probs: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.probs, dtype=float)
        if t.shape != (2, 2, 2, 2):
            raise DomainError("correlation table must have shape (2, 2, 2, 2)")
        if t.min() < -1e-12 or t.max() > 1.0 + 1e-12:
            raise DomainError("correlation-table entries must lie in [0, 1]")
        sums = t.sum(axis=(0, 1))
        if np.max(np.abs(sums - 1.0)) > 1e-10:
            raise DomainError("each (x, y) slice must sum to 1 within 1e-10")
        t.setflags(write=False)
        object.__setattr__(self, "probs", t)

    def prob(self, a: str, b: str, x: int, y: int) -> float:
        return float(self.probs[_IDX[a], _IDX[b], x, y])


@dataclass(frozen=True)
class LinearFunctional:
    """A linear functional R = sum of weights[a, b, x, y] * p(ab|xy)."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (2, 2, 2, 2):
            raise DomainError("functional weights must have shape (2, 2, 2, 2)")
        if not np.all(np.isfinite(w)):
            raise DomainError("functional weights must be finite")
        if np.all(w == 0.0):
            raise DomainError("functional must have at least one nonzero weight")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)


def b1_weights() -> LinearFunctional:
    """Unit weights on the B1 terms p(++|00), p(++|11), p(+-|01), p(+-|10)."""
    w = np.zeros((2, 2, 2, 2))
    for (a, b), x, y in B1_TERMS:
        w[_IDX[a], _IDX[b], x, y] = 1.0
    return LinearFunctional(w)


def correlations(rho_in: DensityMatrix, protocol: ProtocolPair) -> CorrelationTable:
    """Simulate all 16 two-step probabilities for a state and protocol."""
    if rho_in.dim != protocol.dim:
        raise DimensionError("state and protocol dimensions differ")
    effects = protocol.effects
    # first[x, a] = tr(E_{a|x} rho_in); second[x, a, y, b] = tr(E_{b|y} rho_{a|x})
    first = _traces(effects @ rho_in.matrix)
    second = _traces(effects @ protocol.posts[:, :, None, None])
    t = first[:, :, None, None] * second
    return CorrelationTable(np.ascontiguousarray(t.transpose(1, 3, 0, 2)))


def _traces(stack: np.ndarray) -> np.ndarray:
    """Real parts of the traces of a stack of matrices, clipped to [0, 1]."""
    return np.clip(np.trace(stack, axis1=-2, axis2=-1).real, 0.0, 1.0)


def b1(table: CorrelationTable) -> float:
    """p(++|00) + p(++|11) + p(+-|01) + p(+-|10), added left to right (as
    estimate_b1 adds them; sum() compensates floats from Python 3.12)."""
    return functools.reduce(operator.add, (table.prob(*ab, x, y) for ab, x, y in B1_TERMS))


def evaluate_functional(f: LinearFunctional, table: CorrelationTable) -> float:
    return float(np.sum(f.weights * table.probs))


def _maximally_mixed(dim: int) -> DensityMatrix:
    return DensityMatrix(np.eye(dim, dtype=complex) / dim)


def _basis_projector(dim: int, k: int) -> np.ndarray:
    m = np.zeros((dim, dim), dtype=complex)
    m[k, k] = 1.0
    return m


_UP = np.array([0.0, 0.0, 1.0])
_DOWN = np.array([0.0, 0.0, -1.0])


@functools.cache
def _theorem2_parts() -> tuple[Effect, Effect, DensityMatrix]:
    """The parts of the theorem 2 protocol that depend on neither p nor w,
    validated on the first call (not at import, so that processes which
    never simulate never run an eigensolver)."""
    return Effect(np.eye(2, dtype=complex)), Effect(_basis_projector(2, 0)), _maximally_mixed(2)


def theorem2_protocol(p: float, w: float) -> tuple[DensityMatrix, ProtocolPair]:
    """Canonical qubit protocol attaining the constrained-purity maximum.

    Initial state: Bloch length p along +z.  Measurement 0 announces "+"
    deterministically and re-prepares Bloch length w along -z.  Measurement 1
    projects onto the computational basis and re-prepares Bloch length w
    along +z for either outcome.
    """
    if not (0.0 <= p <= 1.0 and 0.0 <= w <= 1.0):
        raise DomainError("p and w must lie in [0, 1]")
    effect_one, effect_up, half = _theorem2_parts()
    rho_in = bloch_to_density(BlochState(p, _UP))
    meas0 = BinaryMeasurement(
        effect_plus=effect_one,
        post_plus=bloch_to_density(BlochState(w, _DOWN)),
        post_minus=half,
    )
    post1 = bloch_to_density(BlochState(w, _UP))
    meas1 = BinaryMeasurement(effect_plus=effect_up, post_plus=post1, post_minus=post1)
    return rho_in, ProtocolPair(meas0, meas1)


def qutrit_value4_protocol() -> tuple[DensityMatrix, ProtocolPair]:
    """A d=3 protocol with pure initial state reaching B1 = 4."""
    d = 3
    rho_in = DensityMatrix(_basis_projector(d, 0))
    meas0 = BinaryMeasurement(
        effect_plus=Effect(_basis_projector(d, 0) + _basis_projector(d, 1)),
        post_plus=DensityMatrix(_basis_projector(d, 1)),
        post_minus=_maximally_mixed(d),
    )
    meas1 = BinaryMeasurement(
        effect_plus=Effect(_basis_projector(d, 0) + _basis_projector(d, 2)),
        post_plus=DensityMatrix(_basis_projector(d, 2)),
        post_minus=_maximally_mixed(d),
    )
    return rho_in, ProtocolPair(meas0, meas1)


def qudit_maxmixed_protocol(d: int) -> tuple[DensityMatrix, ProtocolPair]:
    """Maximally mixed input protocol reaching B1 = 4(1 - 1/d) for d >= 4."""
    if d < 4:
        raise DomainError("qudit_maxmixed_protocol requires d >= 4")
    rho_in = _maximally_mixed(d)
    meas0 = BinaryMeasurement(
        effect_plus=Effect(np.eye(d, dtype=complex) - _basis_projector(d, 1)),
        post_plus=DensityMatrix(_basis_projector(d, 0)),
        post_minus=_maximally_mixed(d),
    )
    meas1 = BinaryMeasurement(
        effect_plus=Effect(np.eye(d, dtype=complex) - _basis_projector(d, 0)),
        post_plus=DensityMatrix(_basis_projector(d, 1)),
        post_minus=_maximally_mixed(d),
    )
    return rho_in, ProtocolPair(meas0, meas1)
