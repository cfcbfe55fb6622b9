"""Two-time-step sequential measurement simulation and the B1 functional.

Correlations follow the measure-and-prepare rule
p(ab|xy) = tr(E_{a|x} rho_in) * tr(E_{b|y} rho_{a|x}),
where rho_{a|x} is the state re-prepared by measurement x after outcome a.
A protocol stores its effects E_{a|x} and post states rho_{a|x} as stacked,
read-only (2, 2, d, d) arrays indexed [setting, outcome], built once from
measurements that were validated on construction, so a simulation validates
nothing but the resulting table and computes all 16 probabilities from two
stacked ``quantum.trace_product`` calls.  Probability-zero first-step
branches simply contribute 0; no conditional probability is ever formed by
division.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .counts import B1_TERMS
from .errors import DimensionError, DomainError
from .quantum import (
    BinaryMeasurement,
    DensityMatrix,
    Effect,
    _bloch_rows,
    bloch_to_density,  # not called here: perfbench's tracer wraps this name
    check_finite,
    pauli_dot,
    trace_product,
)
from .witness import _check_unit

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
        effects = np.array([[m.effect_plus.matrix, m.effect_minus.matrix] for m in pairs])
        posts = np.array([[m.post_plus.matrix, m.post_minus.matrix] for m in pairs])
        for name, arr in (("effects", effects), ("posts", posts)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def dim(self) -> int:
        return self.meas0.dim


@dataclass(frozen=True)
class CorrelationTable:
    """The 16 probabilities p(ab|xy), indexed [a, b, x, y] with +=0, -=1."""

    probs: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.probs, dtype=float)
        if t.shape != (2, 2, 2, 2):
            raise DomainError("correlation table must have shape (2, 2, 2, 2)")
        # rows [a, b], columns [x, y], as Python floats
        rows = t.reshape(4, 4).tolist()
        sums = [p0 + p1 + p2 + p3 for p0, p1, p2, p3 in zip(*rows)]
        if not math.isfinite(sums[0] + sums[1] + sums[2] + sums[3]):
            check_finite("correlation table", t)  # finite entries can still overflow
        if not (min(map(min, rows)) >= -1e-12 and max(map(max, rows)) <= 1.0 + 1e-12):
            raise DomainError("correlation-table entries must lie in [0, 1]")
        if max(abs(s - 1.0) for s in sums) > 1e-10:
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
    # first[x, a] = tr(E_{a|x} rho_in); second[x, a, y, b] = tr(E_{b|y} rho_{a|x}),
    # clipped to [0, 1] bit for bit as np.clip clips: np.clip keeps tr on a tie
    # with 0 (-0.0 stays -0.0), and np.maximum and np.minimum take their 2nd operand
    first, second = (
        np.minimum(np.maximum(0.0, trace_product(protocol.effects, m)), 1.0)
        for m in (rho_in.matrix, protocol.posts[:, :, None, None])
    )
    t = first[:, :, None, None] * second
    return CorrelationTable(np.ascontiguousarray(t.transpose(1, 3, 0, 2)))


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


# (a0, b0, a1, b1, theta) with E_(+|0) = 1 and E_(+|1) = |0><0|
_THEOREM2_POINT = (1.0, 0.0, 0.5, 1.0, 0.0)


def _block_state(length: float, vec, d: int, rank: int = 2) -> DensityMatrix:
    """(1_rank + length u.sigma)/rank (+) 0_(d-rank), with u.sigma on the
    first two basis states, for u the unit vector along the real 3-vector
    vec, or +z where vec vanishes.  At rank 2 it is a post state
    (1 + length u.sigma)/2 (+) 0_(d-2), whose qubit block is
    ``bloch_to_density``'s; at rank d it is the input
    (2/d)(1 + length u.sigma)/2 (+) 1_(d-2)/d.  u is found on Python floats."""
    x, y, z = vec
    n = math.hypot(x, y, z)
    ux, uy, uz = (0.0, 0.0, 1.0) if n < 1e-12 else (x / n, y / n, z / n)
    m = np.zeros((d, d), dtype=complex)
    m.flat[2 * (d + 1) : rank * (d + 1) : d + 1] = 1.0 / rank  # diagonal entries 2..rank-1
    m[:2, :2] = _bloch_rows(length * ux, length * uy, length * uz, 1.0 / rank)
    return DensityMatrix(m)


@functools.lru_cache(maxsize=1)
def _search_effects(point: bytes, d: int) -> tuple[Effect, Effect]:
    """The validated "+" effects a_x(1 + b_x c_x.sigma) (+) 1_(d-2) at a
    search point, given as its bytes, kept for the next build at the same
    point and d.  The key is bytes because 0.0 == -0.0, yet a0 = -0.0 gives
    effects with other bytes than a0 = 0.0."""
    a0, b0, a1, b1, theta = np.frombuffer(point).tolist()
    effects = []
    for a, b, c in ((a0, b0, (0.0, 0.0, 1.0)), (a1, b1, (math.sin(theta), 0.0, math.cos(theta)))):
        m = np.eye(d, dtype=complex)
        m[:2, :2] = a * np.eye(2) + a * b * pauli_dot(c)
        effects.append(Effect(m))
    return effects[0], effects[1]


def params_to_protocol(params, p: float, w: float, d: int) -> tuple[DensityMatrix, ProtocolPair]:
    """Build the explicit protocol behind a B1 search point (a0, b0, a1, b1,
    theta): the input and measure-and-prepare pair whose B1 is
    ``kernels._objective(params, p, w, d)``.

    The point must lie on ``kernels.project``'s constraint set,
    0 <= b_x <= 1 and 0 <= a_x <= 1/(1 + b_x), as the constant points here
    and a search report's ``best_params`` do; it is checked, not projected.
    The "+" effects are E_(+|x) = a_x(1 + b_x c_x.sigma) (+) 1_(d-2), with
    c0 = z and c1 at angle theta from it in the x-z plane.  With
    q_x = a_x b_x, both outcomes of measurement 0 (1) re-prepare Bloch
    length w along +(-)(q0 c0 - q1 c1) (+) 0, and the input is
    (2/d)(1 + p n.sigma)/2 (+) 1_(d-2)/d with n along q0 X0 c0 + q1 X1 c1,
    X_x = 1 + a_x - a_(1-x) + w |q0 c0 - q1 c1|; a vanishing direction
    falls back to +z.
    """
    _check_unit("p", p)
    _check_unit("w", w)
    if not isinstance(d, int) or d < 2:
        raise DimensionError(f"d must be an int of at least 2, got {d!r}")
    x = np.asarray(params, dtype=float)
    if x.shape != (5,) or not math.isfinite(x[4]):
        raise DomainError(f"search point must be a 5-vector with finite theta, got {x}")
    a0, b0, a1, b1, theta = x.tolist()
    if not all(0.0 <= b <= 1.0 and 0.0 <= a <= 1.0 / (1.0 + b) for a, b in ((a0, b0), (a1, b1))):
        raise DomainError(f"search point must have 0 <= b <= 1, 0 <= a <= 1/(1 + b), got {x}")
    q0, q1 = a0 * b0, a1 * b1
    s, c = math.sin(theta), math.cos(theta)
    dx, dz = -q1 * s, q0 - q1 * c  # q0 c0 - q1 c1
    posts = [_block_state(w, (sign * dx, 0.0, sign * dz), d) for sign in (1.0, -1.0)]
    effects = _search_effects(x.tobytes(), d)
    meas = [BinaryMeasurement(e, post, post) for e, post in zip(effects, posts)]
    wm = w * math.hypot(dx, 0.0, dz)
    x0, x1 = 1.0 + a0 - a1 + wm, 1.0 + a1 - a0 + wm
    rho = _block_state(p, (q1 * x1 * s, 0.0, q0 * x0 + q1 * x1 * c), d, d)
    return rho, ProtocolPair(*meas)


def theorem2_protocol(p: float, w: float) -> tuple[DensityMatrix, ProtocolPair]:
    """Canonical qubit protocol attaining the constrained-purity maximum.

    The search builder at one point.  Initial state: Bloch length p along
    +z.  Measurement 0 announces "+" deterministically and re-prepares Bloch
    length w along -z for either outcome.  Measurement 1 projects onto the
    computational basis and re-prepares Bloch length w along +z for either
    outcome.
    """
    return params_to_protocol(_THEOREM2_POINT, p, w, 2)


def _basis_measurement(effect, k: int, minus: DensityMatrix) -> BinaryMeasurement:
    """Measure ``effect`` for "+", re-preparing |k> after "+" and minus after "-"."""
    post = DensityMatrix(_basis_projector(effect.shape[0], k))
    return BinaryMeasurement(Effect(effect), post, minus)


def qutrit_value4_protocol() -> tuple[DensityMatrix, ProtocolPair]:
    """A d=3 protocol with pure initial state reaching B1 = 4."""
    d = 3
    rho_in = DensityMatrix(_basis_projector(d, 0))
    mixed = _maximally_mixed(d)
    meas0 = _basis_measurement(_basis_projector(d, 0) + _basis_projector(d, 1), 1, mixed)
    meas1 = _basis_measurement(_basis_projector(d, 0) + _basis_projector(d, 2), 2, mixed)
    return rho_in, ProtocolPair(meas0, meas1)


def qudit_maxmixed_protocol(d: int) -> tuple[DensityMatrix, ProtocolPair]:
    """Maximally mixed input protocol reaching B1 = 4(1 - 1/d) for d >= 4.

    d must be a Python ``int``, as for ``params_to_protocol``."""
    if not isinstance(d, int):
        raise DimensionError(f"d must be an int, got {d!r}")
    if d < 4:
        raise DomainError("qudit_maxmixed_protocol requires d >= 4")
    mixed = _maximally_mixed(d)
    meas0 = _basis_measurement(np.eye(d, dtype=complex) - _basis_projector(d, 1), 0, mixed)
    meas1 = _basis_measurement(np.eye(d, dtype=complex) - _basis_projector(d, 0), 1, mixed)
    return mixed, ProtocolPair(meas0, meas1)
