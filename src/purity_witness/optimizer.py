"""Numerical verification of the closed-form maxima by constrained search.

Every closed form has an independent numeric route here: multistart
Nelder-Mead over the effect parametrizations, with states supplied by the
analytically optimal construction (qubit case) or by exact inner
maximization (general linear functionals).  All three searches (qubit,
maximally mixed qudit, general functional) go through one driver,
``_search``, which runs the lockstep engine ``kernels.multistart_maximize``
with objectives that broadcast over the population.  Search values must
never exceed the closed forms; attaining them within tolerance is the
verification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import kernels
from .errors import DimensionError, DomainError
from .quantum import (
    PAULI,
    BinaryMeasurement,
    BlochState,
    DensityMatrix,
    Effect,
    bloch_to_density,
)
from .sequence import LinearFunctional, ProtocolPair, b1_weights
from .witness import b1_max_constrained, b1_max_initial

QUBIT_GAP_TOL = 1e-6
QUDIT_GAP_TOL = 1e-5
SOUNDNESS_TOL = 1e-7
MAX_RESTARTS = 100_000  # each restart is a row of the lockstep engine's arrays

_Z = np.array([0.0, 0.0, 1.0])


@dataclass(frozen=True)
class QubitEffectParams:
    """E_+ = r 1 + q v.sigma with 0 <= q <= r <= 1 - q."""

    r: float
    q: float
    v: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.v, dtype=float)
        if v.shape != (3,) or abs(v @ v - 1.0) > 1e-12:
            raise DomainError("v must be a unit 3-vector")
        if not (0.0 <= self.q <= self.r <= 1.0 - self.q):
            raise DomainError("parameters must satisfy 0 <= q <= r <= 1 - q")
        v.setflags(write=False)
        object.__setattr__(self, "v", v)

    def to_effect(self) -> Effect:
        m = self.r * np.eye(2, dtype=complex) + self.q * np.tensordot(
            self.v, PAULI, axes=1
        )
        return Effect(m)


@dataclass(frozen=True)
class OptimizationReport:
    """Best value found by a multistart search, against its closed form (the
    analytic bound, ``gap`` away) and the largest value attainable in its
    setting, which verification judges it by; it may exceed neither."""

    best_value: float
    best_params: np.ndarray
    closed_form: Optional[float]
    gap: Optional[float]
    restarts: int
    seed: int
    attainable: Optional[float] = None

    def __post_init__(self):
        for bound in (self.closed_form, self.attainable):
            if bound is not None and self.best_value > bound + SOUNDNESS_TOL:
                raise DomainError(
                    f"search value {self.best_value} exceeds the analytic "
                    f"maximum {bound}: soundness violated"
                )

    def to_dict(self) -> dict:
        return {
            "best_value": self.best_value,
            "best_params": [float(v) for v in np.ravel(self.best_params)],
            "closed_form": self.closed_form,
            "gap": self.gap,
            "restarts": self.restarts,
            "seed": self.seed,
            "attainable": self.attainable,
        }


def _normalize_or_z(vec: np.ndarray) -> np.ndarray:
    n = float(np.linalg.norm(vec))
    if n < 1e-12:
        return _Z.copy()
    return vec / n


def optimal_states_for_effects(
    e0: QubitEffectParams,
    e1: QubitEffectParams,
    p: float,
    w0: float,
    w1: float,
) -> tuple[BlochState, BlochState, BlochState]:
    """Optimal (initial, post0, post1) Bloch states for a pair of effects.

    The post states point along +/-(q0 v0 - q1 v1); the initial state along
    q0 X0 v0 + q1 X1 v1 with X_i = 1 + r_i - r_(1-i) + w_i |q0 v0 - q1 v1|.
    Degenerate zero vectors fall back to +z.
    """
    for name, val in (("p", p), ("w0", w0), ("w1", w1)):
        if not 0.0 <= val <= 1.0:
            raise DomainError(f"{name} must lie in [0, 1]")
    diff = e0.q * e0.v - e1.q * e1.v
    n = float(np.linalg.norm(diff))
    x0 = 1.0 + e0.r - e1.r + w0 * n
    x1 = 1.0 + e1.r - e0.r + w1 * n
    init_dir = _normalize_or_z(e0.q * x0 * e0.v + e1.q * x1 * e1.v)
    post0_dir = _normalize_or_z(diff)
    post1_dir = _normalize_or_z(-diff)
    return (
        BlochState(p, init_dir),
        BlochState(w0, post0_dir),
        BlochState(w1, post1_dir),
    )


def params_to_protocol(
    params: np.ndarray, p: float, w: float
) -> tuple[DensityMatrix, ProtocolPair]:
    """Build the concrete state and measure-and-prepare pair for a kernel
    parameter vector (r0, q0, r1, q1, theta), for cross-checking the
    closed-form objective against the full matrix simulation."""
    r0, q0, r1, q1, theta = kernels.project(0, params)
    v0 = np.array([0.0, 0.0, 1.0])
    v1 = np.array([math.sin(theta), 0.0, math.cos(theta)])
    e0 = QubitEffectParams(r0, q0, v0)
    e1 = QubitEffectParams(r1, q1, v1)
    init, post0, post1 = optimal_states_for_effects(e0, e1, p, w, w)
    meas0 = BinaryMeasurement(
        e0.to_effect(), bloch_to_density(post0), bloch_to_density(post0)
    )
    meas1 = BinaryMeasurement(
        e1.to_effect(), bloch_to_density(post1), bloch_to_density(post1)
    )
    return bloch_to_density(init), ProtocolPair(meas0, meas1)


def _search(objective, box, maxiter, restarts, seed, closed, project, attainable=None):
    """Run the lockstep multistart search from ``restarts`` uniform starts in
    the (lo, hi) ``box`` drawn with ``seed``; report ``project`` of the best
    point against the closed form (if any) and attainable (if lower)."""
    if not 1 <= restarts <= MAX_RESTARTS:
        raise DomainError(f"restarts must lie in [1, {MAX_RESTARTS}], got {restarts}")
    lo, hi = box
    starts = np.random.default_rng(seed).uniform(lo, hi, size=(restarts, lo.shape[0]))
    best, params, _ = kernels.multistart_maximize(objective, starts, lo, hi, maxiter)
    return OptimizationReport(
        best_value=float(best),
        best_params=project(params),
        closed_form=closed,
        gap=None if closed is None else closed - float(best),
        restarts=restarts,
        seed=seed,
        attainable=closed if attainable is None else attainable,
    )


def maximize_b1_qubit(
    p: float, w: float, restarts: int = 100, seed: int = 0
) -> OptimizationReport:
    """Multistart search for the qubit maximum of B1 at fixed (p, w)."""
    return _search(
        lambda x: kernels._objective(0, x, p, w),
        kernels.QUBIT_BOX, 4000, restarts, seed,
        b1_max_constrained(p, w), lambda x: kernels.project(0, x),
    )


def maximize_b1_qudit_maxmixed(
    d: int, restarts: int = 100, seed: int = 0
) -> OptimizationReport:
    """Multistart search for B1 on the maximally mixed d-dimensional input.

    Search space: block effects with pure post states in the optimizing
    two-dimensional subspace.  closed_form is the analytic upper bound
    max(3, 4(1 - 1/d)); it is attained for d >= 4.  For d = 3 no qutrit
    protocol on I/3, inside this search space or not, exceeds the
    attainable max(3 - 1/d, 4(1 - 1/d)) = 8/3, and the search attains 8/3.
    """
    if d not in (3, 4, 5, 6):
        raise DomainError("d must be one of 3, 4, 5, 6")
    return _search(
        lambda x: kernels._objective(1, x, float(d), 0.0),
        kernels.QUDIT_BOX, 4000, restarts, seed,
        max(3.0, 4.0 * (1.0 - 1.0 / d)), lambda x: kernels.project(1, x),
        attainable=max(3.0 - 1.0 / d, 4.0 * (1.0 - 1.0 / d)),
    )


# ---------------------------------------------------------------------------
# General linear functionals: search over effects with exact inner states
# ---------------------------------------------------------------------------


def optimal_spectrum(g: np.ndarray, target_purity: float) -> tuple[float, np.ndarray]:
    """Maximize sum(q_i g_i) over the simplex with sum(q_i^2) fixed.

    g is sorted descending along its last axis; leading axes broadcast.  The
    optimum puts support on a top segment and is linear in the deviation of
    g from its segment mean.  Returns the maximal values (a float for 1-D g)
    and the optimal eigenvalue vectors (same shape as g).
    """
    g = np.asarray(g, dtype=float)
    d = g.shape[-1]
    if not 1.0 / d - 1e-12 <= target_purity <= 1.0 + 1e-12:
        raise DomainError("target purity must lie in [1/d, 1]")
    pur = min(max(target_purity, 1.0 / d), 1.0)
    best_val = np.full(g.shape[:-1], -np.inf)
    best_q = np.zeros(g.shape)
    for k in range(1, d + 1):
        if pur < 1.0 / k - 1e-12:
            continue
        gs = g[..., :k]
        mean = gs.mean(axis=-1)
        dev = gs - mean[..., None]
        nd = (dev * dev).sum(axis=-1)
        # constant segment: any feasible q gives the same value; mix the
        # uniform point with a vertex to meet the purity
        flat = nd < 1e-28
        lam = math.sqrt(max(pur - 1.0 / k, 0.0) / (1.0 - 1.0 / k)) if k > 1 else 0.0
        t = np.sqrt(max(pur - 1.0 / k, 0.0) / np.where(flat, 1.0, nd))
        qk = np.where(flat[..., None], (1.0 - lam) / k, 1.0 / k + t[..., None] * dev)
        qk[..., 0] += np.where(flat, lam, 0.0)
        feasible = flat | (qk.min(axis=-1) >= -1e-12)
        qk = np.clip(qk, 0.0, None)
        val = np.where(flat, mean, (qk * gs).sum(axis=-1))
        better = feasible & (val > best_val)
        best_val = np.where(better, val, best_val)
        q = np.zeros(g.shape)
        q[..., :k] = qk
        best_q = np.where(better[..., None], q, best_q)
    if np.isneginf(best_val).any():
        raise DomainError("no feasible spectrum found")
    return best_val[()], best_q


def _hermitian_from_params(v: np.ndarray, d: int) -> np.ndarray:
    """(..., d, d) Hermitian matrices from (..., d^2) parameters: the
    diagonal, then the real and imaginary part of each upper entry."""
    h = np.zeros(v.shape[:-1] + (d, d), dtype=complex)
    diag = np.arange(d)
    h[..., diag, diag] = v[..., :d]
    rows, cols = np.triu_indices(d, 1)
    upper = v[..., d::2] + 1j * v[..., d + 1 :: 2]
    h[..., rows, cols] = upper
    h[..., cols, rows] = upper.conj()
    return h


def _effect_from_params(v: np.ndarray, d: int) -> np.ndarray:
    """(..., d, d) effects from (..., npar) parameters: d eigenvalues
    (clipped to [0, 1]), then the eigenbasis (Bloch angles for d = 2, the
    generator of a unitary exp(iH) otherwise)."""
    eigs = np.clip(v[..., :d], 0.0, 1.0)
    if d == 2:
        theta, phi = v[..., 2], v[..., 3]
        direction = np.stack(
            [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)],
            axis=-1,
        )
        proj = 0.5 * (np.eye(2) + np.tensordot(direction, PAULI, axes=1))
        return eigs[..., :1, None] * proj + eigs[..., 1:, None] * (np.eye(2) - proj)
    # exp(iH) = V e^(i lambda) V^dagger from the eigendecomposition of H
    lam, vec = np.linalg.eigh(_hermitian_from_params(v[..., d:], d))
    u = (vec * np.exp(1j * lam)[..., None, :]) @ vec.conj().swapaxes(-1, -2)
    return (u * eigs[..., None, :]) @ u.conj().swapaxes(-1, -2)


def _n_effect_params(d: int) -> int:
    if d == 2:
        return 4
    return d + d * d


def _functional_value(
    weights: np.ndarray, params: np.ndarray, dim: int, pur: float
) -> np.ndarray:
    """Exact maximum of the functional over states, for fixed effects.

    params (..., 2 npar) holds the parameters of E_(+|0), then E_(+|1).
    Post states are top eigenvectors of F_(a|x) = sum_by w[a,b,x,y] E_(b|y);
    the initial state aligns an optimal fixed-purity spectrum with the
    eigenbasis of G = sum_ax s_(a|x) E_(a|x).  The sums run over explicit
    terms, so every row gets the same arithmetic whatever the batch shape.
    """
    plus = _effect_from_params(params.reshape(params.shape[:-1] + (2, -1)), dim)
    eff = np.stack([plus, np.eye(dim) - plus], axis=-3)  # (..., x, a, d, d)
    f = sum(
        weights[:, b, :, y, None, None] * eff[..., y, b, None, None, :, :]
        for b in range(2)
        for y in range(2)
    )
    s = np.linalg.eigvalsh(f)[..., -1]  # (..., a, x)
    g = sum(
        s[..., a, x, None, None] * eff[..., x, a, :, :]
        for a in range(2)
        for x in range(2)
    )
    return optimal_spectrum(np.linalg.eigvalsh(g)[..., ::-1], pur)[0]


def maximize_linear_functional(
    f: LinearFunctional,
    dim: int,
    purity: float,
    restarts: int = 40,
    seed: int = 0,
) -> OptimizationReport:
    """Maximize a linear functional of the correlations at fixed purity.

    Searches over both effects (eigenvalues plus eigenbasis); post states
    and the initial state are resolved exactly inside the objective, so the
    reported value is attainable by an explicit protocol.  The reported
    eigenvalue entries are clipped to [0, 1], as the objective sees them.
    """
    if dim not in (2, 3):
        raise DimensionError("dim must be 2 or 3")
    if not 1.0 / dim - 1e-12 <= purity <= 1.0 + 1e-12:
        raise DomainError("purity must lie in [1/dim, 1]")
    pur = min(max(purity, 1.0 / dim), 1.0)
    npar = _n_effect_params(dim)
    weights = f.weights
    # eigenvalue entries start in [0, 1], angles in [-pi, pi]
    eig = np.arange(2 * npar) % npar < dim
    closed = None
    if dim == 2 and np.array_equal(weights, b1_weights().weights):
        closed = b1_max_initial(math.sqrt(2.0 * pur - 1.0))
    return _search(
        lambda v: _functional_value(weights, v, dim, pur),
        (np.where(eig, 0.0, -math.pi), np.where(eig, 1.0, math.pi)), 8000,
        restarts, seed, closed,
        lambda v: np.where(eig, np.clip(v, 0.0, 1.0), v),
    )


def monotonicity_sweep(
    f: LinearFunctional,
    dim: int,
    purities: Sequence[float],
    restarts: int = 40,
    seed: int = 0,
) -> list[tuple[float, OptimizationReport]]:
    """Per-purity search reports for a functional, with common random
    restarts."""
    purs = list(purities)
    if any(b < a for a, b in zip(purs, purs[1:])):
        raise DomainError("purities must be sorted ascending")
    return [(pur, maximize_linear_functional(f, dim, pur, restarts, seed)) for pur in purs]
