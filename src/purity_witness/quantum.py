"""Finite-dimensional states, effects and a two-qubit concurrence oracle.

All matrix-valued types validate their defining constraints on construction
(finite entries, Hermiticity to 1e-12, unit trace to 1e-12, positivity with
1e-10 slack) and are treated as immutable afterwards, so a validated object
is never checked again: an effect validates its complement 1 - E once, and a
binary measurement holds both of its validated effects.  A qubit (2 x 2)
matrix is checked in closed form on Python floats, since numpy call overhead
would dominate four complex numbers; larger ones (qutrits and qudits, up to
the command line's d = 256) use the dense Hermitian eigensolver.  For the
same reason a Bloch direction's unit norm is checked, and the Bloch codec
builds its 2 x 2 matrix, on Python floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, DomainError

HERM_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_SLACK = 1e-10


def pauli_dot(v) -> np.ndarray:
    """v.sigma = [[z, x - iy], [x + iy, -z]] for the real 3-vectors (x, y, z)
    on v's last axis, set from its real and imaginary entries (no BLAS)."""
    x, y, z = np.moveaxis(np.asarray(v, dtype=float), -1, 0)
    m = np.zeros(x.shape + (2, 2), dtype=complex)
    m.real[..., 0, 0], m.real[..., 1, 1] = z, -z
    m.real[..., 0, 1] = m.real[..., 1, 0] = x
    m.imag[..., 0, 1], m.imag[..., 1, 0] = -y, y
    return m


PAULI = pauli_dot(np.eye(3))  # sigma_x, sigma_y, sigma_z

# spin-flip operator sigma_y (x) sigma_y used by the concurrence formula
_SIGYY = np.kron(PAULI[1], PAULI[1])


def _as_square(matrix) -> np.ndarray:
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise DimensionError(f"expected a non-empty square matrix, got shape {m.shape}")
    return m


def check_finite(what: str, arr: np.ndarray) -> None:
    """Raise DomainError naming the indices of arr's NaN or infinite entries,
    if it has any."""
    bad = np.argwhere(~np.isfinite(arr))
    if bad.size:
        where = ", ".join(str(idx.tolist()) for idx in bad)
        raise DomainError(f"{what} has non-finite entries at {where}")


def _summary(m: np.ndarray, what: str) -> tuple[float, complex, float, float]:
    """The largest |m - m^dagger| entry, the trace, and the smallest and largest
    eigenvalue of the square matrix m, after checking that its entries are
    finite.

    The eigenvalues are those of the Hermitian matrix with m's lower triangle,
    the triangle np.linalg.eigvalsh reads.  For 2 x 2 they are
    mid -+ hypot((a - d)/2, |c|) with mid = (a + d)/2 on the real diagonal
    a, d and the lower entry c; larger matrices call eigvalsh.
    """
    if m.shape[0] == 2:
        (a, b), (c, d) = m.tolist()
        s = a + b + c + d
        if not math.isfinite(s.real + s.imag):
            check_finite(what, m)  # finite entries can still overflow the sum
        herm = max(
            2.0 * abs(a.imag),
            math.hypot(b.real - c.real, b.imag + c.imag),
            2.0 * abs(d.imag),
        )
        mid = 0.5 * (a.real + d.real)
        r = math.hypot(0.5 * (a.real - d.real), c.real, c.imag)
        return herm, a + d, mid - r, mid + r
    check_finite(what, m)
    ev = np.linalg.eigvalsh(m)
    herm = float(np.max(np.abs(m - m.conj().T)))
    return herm, complex(np.trace(m)), float(ev[0]), float(ev[-1])


@dataclass(frozen=True)
class DensityMatrix:
    """A d-dimensional density operator: Hermitian, unit trace, PSD."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _as_square(self.matrix)
        herm, tr, lo, _ = _summary(m, "density matrix")
        if herm > HERM_TOL:
            raise DomainError("density matrix is not Hermitian within 1e-12")
        if abs(tr.real - 1.0) > TRACE_TOL or abs(tr.imag) > TRACE_TOL:
            raise DomainError("density matrix does not have unit trace within 1e-12")
        if lo < -PSD_SLACK:
            raise DomainError("density matrix has an eigenvalue below -1e-10")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class BlochState:
    """A qubit state given by Bloch-vector length and unit direction."""

    length: float
    direction: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.direction, dtype=float)
        if d.shape != (3,):
            raise DomainError("Bloch direction must be a real 3-vector")
        x, y, z = d.tolist()
        if not abs(x * x + y * y + z * z - 1.0) <= 1e-12:
            check_finite("Bloch direction", d)
            raise DomainError("Bloch direction must have unit norm within 1e-12")
        if not 0.0 <= self.length <= 1.0:
            raise DomainError("Bloch-vector length must lie in [0, 1]")
        d.setflags(write=False)
        object.__setattr__(self, "direction", d)
        object.__setattr__(self, "length", float(self.length))


@dataclass(frozen=True)
class Effect:
    """A measurement effect E with 0 <= E <= 1 (eigenvalue slack 1e-10)."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _as_square(self.matrix)
        herm, _, lo, hi = _summary(m, "effect")
        if herm > HERM_TOL:
            raise DomainError("effect is not Hermitian within 1e-12")
        if lo < -PSD_SLACK or hi > 1.0 + PSD_SLACK:
            raise DomainError("effect eigenvalues must lie in [0, 1] within 1e-10")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def complement(self) -> "Effect":
        """The effect of the opposite outcome, 1 - E (built and validated on
        the first call, then reused)."""
        comp = self.__dict__.get("_complement")
        if comp is None:
            comp = Effect(np.eye(self.dim) - self.matrix)
            object.__setattr__(self, "_complement", comp)
        return comp


@dataclass(frozen=True)
class BinaryMeasurement:
    """Measure-and-prepare instrument for a binary (+/-) measurement.

    Holds the "+" effect, the "-" effect (its complement, validated once on
    construction) and the states re-prepared after each outcome.
    """

    effect_plus: Effect
    post_plus: DensityMatrix
    post_minus: DensityMatrix
    effect_minus: Effect = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        d = self.effect_plus.dim
        if self.post_plus.dim != d or self.post_minus.dim != d:
            raise DimensionError("effect and post-measurement states must share dim")
        # raises if 1 - E_+ fails the effect constraints
        object.__setattr__(self, "effect_minus", self.effect_plus.complement())

    @property
    def dim(self) -> int:
        return self.effect_plus.dim


def trace_product(a, b) -> np.ndarray:
    """Re tr(A B) over the last two axes of a and b (leading axes broadcast),
    as the sum of Re A_ij Re B_ji - Im A_ij Im B_ji: no matrix product, so no
    BLAS kernel sets its bits, and only the diagonal of A B is formed."""
    bt = np.swapaxes(b, -1, -2)
    return (a.real * bt.real - a.imag * bt.imag).sum(axis=(-2, -1))


def vector_length(vec) -> float:
    """A real vector's Euclidean length, by math.hypot (no BLAS dot product)."""
    return math.hypot(*np.ravel(vec).tolist())


def purity(rho: DensityMatrix) -> float:
    """tr(rho^2), clamped to [1/d, 1]."""
    p = float(trace_product(rho.matrix, rho.matrix))
    d = rho.dim
    if p < 1.0 / d - PSD_SLACK or p > 1.0 + PSD_SLACK:
        raise DomainError(f"computed purity {p} outside [1/{d}, 1] beyond slack")
    return min(max(p, 1.0 / d), 1.0)


def _bloch_rows(x: float, y: float, z: float, scale: float = 0.5) -> list[list[complex]]:
    """The rows of scale (1 + r.sigma), by default (1 + r.sigma) / 2, for
    the Bloch vector r = (x, y, z).

    The real and imaginary parts of 1 + r.sigma are formed with every zero
    +0.0 and then scaled apart, with no complex product, so the entries,
    signed zeros and underflow included, are the same on every CPU.
    """
    return [
        [complex(scale * (1.0 + z)), complex(scale * (0.0 + x), scale * (0.0 - y))],
        [complex(scale * (0.0 + x), scale * (0.0 + y)), complex(scale * (1.0 - z))],
    ]


def bloch_to_density(state: BlochState) -> DensityMatrix:
    """rho = (1 + p alpha.sigma) / 2, entry by entry on Python floats."""
    return DensityMatrix(np.array(_bloch_rows(*(state.length * state.direction).tolist())))


def density_to_bloch(rho: DensityMatrix) -> BlochState:
    """Inverse Bloch decomposition; zero vectors map to direction +z."""
    if rho.dim != 2:
        raise DimensionError("Bloch decomposition requires a qubit state")
    vec = trace_product(rho.matrix, PAULI)
    p = vector_length(vec)
    if p < 1e-12:
        return BlochState(0.0, np.array([0.0, 0.0, 1.0]))
    return BlochState(min(p, 1.0), vec / p)


def partial_trace(rho: DensityMatrix, keep: str) -> DensityMatrix:
    """Reduce a two-qubit state to subsystem 'A' or 'B'."""
    if rho.dim != 4:
        raise DimensionError("partial trace implemented for two-qubit states only")
    if keep not in ("A", "B"):
        raise DomainError("subsystem must be 'A' or 'B'")
    t = rho.matrix.reshape(2, 2, 2, 2)
    if keep == "A":
        red = np.einsum("ikjk->ij", t)
    else:
        red = np.einsum("kikj->ij", t)
    return DensityMatrix(red)


def wootters_concurrence(rho: DensityMatrix) -> float:
    """Exact two-qubit concurrence via the spin-flip eigenvalue formula.

    C = max(0, l1 - l2 - l3 - l4) where l_i are the decreasingly sorted
    square roots of the eigenvalues of rho (sy x sy) rho* (sy x sy).
    """
    if rho.dim != 4:
        raise DimensionError("concurrence is defined for two-qubit states")
    m = rho.matrix
    r = m @ _SIGYY @ m.conj() @ _SIGYY
    ev = np.linalg.eigvals(r).real
    lam = np.sqrt(np.clip(ev, 0.0, None))
    lam.sort()
    c = lam[3] - lam[2] - lam[1] - lam[0]
    return float(min(max(c, 0.0), 1.0))
