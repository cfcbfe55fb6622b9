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

import itertools
import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from . import kernels
from .errors import DimensionError, DomainError
from .sequence import LinearFunctional, b1_weights
from .witness import b1_max_constrained, b1_max_initial, bloch_length_from_purity

QUBIT_GAP_TOL = 1e-6
QUDIT_GAP_TOL = 1e-5
SOUNDNESS_TOL = 1e-7
HIT_TOL = 1e-6  # a start hits when its value is within HIT_TOL of the best
MAX_RESTARTS = 100_000  # each restart is a row of the lockstep engine's arrays


@dataclass(frozen=True)
class OptimizationReport:
    """Best value found by a multistart search, against its closed form (the
    analytic bound, ``gap`` away) and the largest value attainable in its
    setting, which verification judges it by; it may exceed neither.
    ``hit_rate`` is the share of starts that came within HIT_TOL of the
    best value."""

    best_value: float
    best_params: np.ndarray
    closed_form: Optional[float]
    gap: Optional[float]
    restarts: int
    seed: int
    attainable: Optional[float] = None
    hit_rate: Optional[float] = None

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
            "hit_rate": self.hit_rate,
        }


def _search(objective, box, maxiter, runs, restarts, seed, closed, project, attainable=None):
    """Run the lockstep multistart search, up to ``runs`` runs per start,
    from ``restarts`` uniform starts in the (lo, hi) ``box`` drawn with
    ``seed``; report ``project`` of the best point against the closed form
    (if any) and attainable (if lower)."""
    for name, value in (("seed", seed), ("restarts", restarts)):
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise DomainError(f"{name} must be a non-negative int, got {value!r}")
    if not 1 <= restarts <= MAX_RESTARTS:
        raise DomainError(f"restarts must lie in [1, {MAX_RESTARTS}], got {restarts}")
    lo, hi = box
    starts = np.random.default_rng(seed).uniform(lo, hi, size=(restarts, lo.shape[0]))
    best, params, per_start = kernels.multistart_maximize(objective, starts, lo, hi, maxiter, runs)
    return OptimizationReport(
        best_value=float(best),
        best_params=project(params),
        closed_form=closed,
        gap=None if closed is None else closed - float(best),
        restarts=restarts,
        seed=seed,
        attainable=closed if attainable is None else attainable,
        hit_rate=int(np.count_nonzero(per_start >= best - HIT_TOL)) / restarts,
    )


def maximize_b1_qubit(
    p: float, w: float, restarts: int = 100, seed: int = 0
) -> OptimizationReport:
    """Multistart search for the qubit maximum of B1 at fixed (p, w).

    Each start runs once.  Running a start again from its optimum moved no
    B1 search's best value by more than 4.4e-16, over the benchmark's grid
    and qudit searches and criterion 2's grid, and it took about a third of
    the objective calls.
    """
    return _search(
        lambda x: kernels._objective(x, p, w, 2.0),
        kernels.BOX, 4000, 1, restarts, seed, b1_max_constrained(p, w), kernels.project,
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

    Why no protocol on rho = 1/d exceeds ``attainable``: with E0 = E_{+|0},
    E1 = E_{+|1} and D = E0 - E1, the best post states give

        d*B1 = tr E0 (1 + lmax(D)) + tr E1 (1 + lmax(-D)).

    Projecting onto the positive part of D gives tr E1 <= d - tr D+ (and
    tr E0 <= d - tr D-); with tr D+- >= ||D+-|| =: a, b in [0, 1],

        d*B1 <= 2d + (d - 1)(a + b) - 2ab,

    which is bilinear, so its maximum sits at a corner of [0, 1]^2:
    B1 <= max(3 - 1/d, 4(1 - 1/d)), attained by projective protocols.  This
    is 5/2 at d = 2, 8/3 at d = 3, and the ceiling max(3, 4(1 - 1/d)) for
    d >= 4.

    Each start runs once, as in the qubit search, for the same reason.
    """
    if not isinstance(d, int) or d not in (3, 4, 5, 6):
        raise DomainError("d must be one of 3, 4, 5, 6")
    return _search(
        lambda x: kernels._objective(x, 0.0, 1.0, float(d)),
        kernels.BOX, 4000, 1, restarts, seed,
        max(3.0, 4.0 * (1.0 - 1.0 / d)), kernels.project,
        attainable=max(3.0 - 1.0 / d, 4.0 * (1.0 - 1.0 / d)),
    )


# ---------------------------------------------------------------------------
# General linear functionals: search over effects with exact inner states
# ---------------------------------------------------------------------------


def _optimal_spectrum(g: np.ndarray, pur: float) -> tuple[float, np.ndarray]:
    """Maximize sum(q_i g_i) over the simplex with sum(q_i^2) = pur, which
    the search has checked and clamped to [1/d, 1].

    g is sorted descending along its last axis; leading axes broadcast.  The
    optimum puts support on a top segment and is linear in the deviation of
    g from its segment mean.  Returns the maximal values (a float for 1-D g)
    and the optimal eigenvalue vectors (same shape as g).  Each row is first
    divided by the power of two of its largest |entry|, which is exact, so
    the value scales with g at any finite scale.
    """
    d = g.shape[-1]
    exp = np.frexp(np.abs(g).max(axis=-1))[1]  # 0 for a zero row
    g = np.ldexp(g, -exp[..., None])
    best_val = np.full(g.shape[:-1], -np.inf)
    best_q = np.zeros(g.shape)
    for k in range(1, d + 1):
        if pur < 1.0 / k - 1e-12:
            continue
        gs = g[..., :k]
        mean = gs.mean(axis=-1)
        dev = gs - mean[..., None]
        nd = (dev * dev).sum(axis=-1)
        # constant segment (relative to its largest g^2, so at any scale): any
        # feasible q gives the same value; mix the uniform point and a vertex to meet pur
        flat = nd <= 1e-28 * np.maximum(gs[..., 0] ** 2, gs[..., -1] ** 2)
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
    return np.ldexp(best_val, exp)[()], best_q


def _effects_from_params(v: np.ndarray, d: int) -> np.ndarray:
    """The effects E = U diag(clip(lambda, 0, 1)) U^dagger and 1 - E, as real
    and imaginary parts (2, d, d, ..., 2), from (..., d^2) parameters: d
    eigenvalues, then (theta, phi) for each of the d(d - 1)/2 complex Givens
    rotations of U = G_01 G_02 G_12, which mixes columns p and q by
    cos(theta/2) and e^(i phi) sin(theta/2).  At d = 2 the first column is the
    Bloch direction (theta, phi).  Only +, -, *, cos and sin are used, so the
    bits do not depend on the CPU."""
    lam = np.clip(v[..., :d], 0.0, 1.0)
    lam = np.stack([lam, 1.0 - lam], axis=-1)  # the eigenvalues of E and 1 - E
    batch = (1,) * (v.ndim - 1)
    conj = np.array([1.0, -1.0]).reshape((2, 1) + batch)
    cols = [np.stack([np.eye(d)[j], np.zeros(d)]).reshape((2, d) + batch) for j in range(d)]
    for n, (p, q) in enumerate(itertools.combinations(range(d), 2)):
        half, phi = 0.5 * v[..., d + 2 * n], v[..., d + 2 * n + 1]
        c, s = np.cos(half), np.sin(half)
        er, ei = s * np.cos(phi), s * np.sin(phi)
        x, y, flip = cols[p], cols[q], ei * conj
        # column p <- c x + e y, column q <- c y - conj(e) x, e = e^(i phi) sin
        cols[p] = c * x + (er * y - flip * y[::-1])
        cols[q] = c * y - (er * x + flip * x[::-1])
    eff = 0.0
    for k, (ur, ui) in enumerate(cols):  # sum_k lambda_k u_k u_k^dagger
        part = np.stack([ur[:, None] * ur + ui[:, None] * ui, ui[:, None] * ur - ur[:, None] * ui])
        eff = eff + part[..., None] * lam[..., k, :]
    return eff


def _eigvalsh(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues (..., d) of the Hermitian matrices whose real
    and imaginary parts m (2, d, d, ...) holds, d = 2 or 3, by cyclic complex
    Jacobi: one exact rotation at d = 2, four sweeps of three at d = 3.  Each
    rotation zeroes a_pq with the phase of a_pq folded in and never divides
    by |a_pq|; it uses only +, -, *, /, sqrt, hypot and copysign, so the bits
    do not depend on the CPU."""
    d, tiny = m.shape[1], np.finfo(float).tiny
    conj = np.array([1.0, -1.0]).reshape((2,) + (1,) * (m.ndim - 3))
    diag = [m[0, i, i] for i in range(d)]
    off = {(i, j): m[:, i, j] for i in range(d) for j in range(d) if i != j}
    for p, q in list(itertools.combinations(range(d), 2)) * (1 if d == 2 else 4):
        a = off[p, q]
        r = np.hypot(a[0], a[1])  # |a_pq|, never squared, so it does not underflow
        r2, diff = 2.0 * r, diag[q] - diag[p]
        # den >= 2 |a_pq|, and it is 0 only where a_pq = 0 and diff = 0;
        # raised to the smallest normal float it keeps u = tan(angle) / |a_pq|
        # finite, and tan = u |a_pq| and sigma = u a_pq at most 1 in size
        den = np.maximum(np.abs(diff) + np.hypot(diff, r2), tiny)
        u = np.copysign(2.0, diff) / den
        shift = u * r * r
        diag[p], diag[q] = diag[p] - shift, diag[q] + shift
        for k in [k for k in range(d) if k not in (p, q)]:  # none at d = 2
            sigma, c = u * a, den / np.hypot(den, r2)  # c = 1 / sqrt(1 + tan^2)
            flip = sigma[1] * conj
            x, y = off[k, p], off[k, q]
            # A_kp <- c (A_kp - conj(sigma) A_kq), A_kq <- c (sigma A_kp + A_kq)
            kp = c * (x - (sigma[0] * y + flip * y[::-1]))
            kq = c * ((sigma[0] * x - flip * x[::-1]) + y)
            off[k, p], off[p, k], off[k, q], off[q, k] = kp, kp * conj, kq, kq * conj
        off[p, q] = off[q, p] = 0.0 * conj
    return np.sort(np.stack(diag, axis=-1), axis=-1, kind="stable")


def _functional_value(
    weights: np.ndarray, params: np.ndarray, dim: int, pur: float
) -> np.ndarray:
    """Exact maximum of the functional over states, for fixed effects.

    params (..., 2 dim^2) holds the parameters of E_(+|0), then E_(+|1).
    Post states are top eigenvectors of F_(a|x) = sum_by w[a,b,x,y] E_(b|y);
    the initial state aligns an optimal fixed-purity spectrum with the
    eigenbasis of G = sum_ax s_(a|x) E_(a|x).  The sums run over explicit
    terms, so every row gets the same arithmetic whatever the batch shape.
    Matrices are carried as real and imaginary parts (2, d, d, ...).
    """
    eff = _effects_from_params(params.reshape(params.shape[:-1] + (2, -1)), dim)
    # eff (2, d, d, ..., x, a) holds E_(a|x)
    f = sum(weights[:, b, :, y] * eff[..., y, b, None, None] for b in range(2) for y in range(2))
    s = _eigvalsh(f)[..., -1]  # (..., a, x)
    g = sum(s[..., a, x] * eff[..., x, a] for a in range(2) for x in range(2))
    return _optimal_spectrum(_eigvalsh(g)[..., ::-1], pur)[0]


def maximize_linear_functional(
    f: LinearFunctional,
    dim: int,
    purity: float,
    restarts: int = 40,
    seed: int = 0,
) -> OptimizationReport:
    """Maximize a linear functional of the correlations at fixed purity.

    Searches over both effects, dim^2 parameters each: dim eigenvalues,
    then an angle and a phase for each Givens rotation of the eigenbasis
    (``_effects_from_params``); post states and the initial state are
    resolved exactly inside the objective, so the reported value is
    attainable by an explicit protocol.  The reported eigenvalue entries are
    clipped to [0, 1], as the objective sees them.  dim is a Python int.

    A start runs up to four times, each run from the last one's optimum:
    on random weights at d = 3 a first simplex can collapse well short of
    the maximum.  The search runs on the weights divided by the power of
    two that puts their largest |entry| in [1, 2), and the value is scaled
    back exactly, so the engine's absolute tolerances, ``HIT_TOL`` and thus
    ``hit_rate`` and ``best_params`` do not depend on the scale of the
    weights.
    """
    if not isinstance(dim, int) or dim not in (2, 3):
        raise DimensionError("dim must be 2 or 3")
    if not 1.0 / dim - 1e-12 <= purity <= 1.0 + 1e-12:
        raise DomainError("purity must lie in [1/dim, 1]")
    pur = min(max(purity, 1.0 / dim), 1.0)
    npar = dim * dim
    shift = int(np.frexp(np.abs(f.weights).max())[1]) - 1
    weights = np.ldexp(f.weights, -shift)
    # eigenvalue entries start in [0, 1], angles in [-pi, pi]
    eig = np.arange(2 * npar) % npar < dim
    closed = None
    if dim == 2 and np.array_equal(f.weights, b1_weights().weights):
        closed = b1_max_initial(bloch_length_from_purity(pur))
    rep = _search(
        lambda v: _functional_value(weights, v, dim, pur),
        (np.where(eig, 0.0, -math.pi), np.where(eig, 1.0, math.pi)), 8000, 4,
        restarts, seed, closed,
        lambda v: np.where(eig, np.clip(v, 0.0, 1.0), v),
    )
    # closed is None unless shift is 0, so the gap needs no rescaling
    return replace(rep, best_value=math.ldexp(rep.best_value, shift))


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
