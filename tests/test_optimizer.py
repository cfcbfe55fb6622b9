import hashlib
import math
import platform

import numpy as np
import pytest

from purity_witness import kernels
from purity_witness.errors import DimensionError, DomainError
from purity_witness.optimizer import (
    _effects_from_params,
    _functional_value,
    _optimal_spectrum,
    QUBIT_GAP_TOL,
    QUDIT_GAP_TOL,
    MAX_RESTARTS,
    SOUNDNESS_TOL,
    OptimizationReport,
    maximize_b1_qubit,
    maximize_b1_qudit_maxmixed,
    maximize_linear_functional,
    monotonicity_sweep,
)
from purity_witness.quantum import (
    BinaryMeasurement,
    BlochState,
    DensityMatrix,
    Effect,
    bloch_to_density,
    density_to_bloch,
    pauli_dot,
    vector_length,
)
from purity_witness.sequence import (
    LinearFunctional,
    ProtocolPair,
    _block_state,
    b1,
    b1_weights,
    correlations,
    evaluate_functional,
    params_to_protocol,
)
from purity_witness.witness import b1_max_constrained, b1_max_initial

from protocols import run_fresh


def test_report_rejects_unsound_value():
    with pytest.raises(DomainError):
        OptimizationReport(
            best_value=3.0 + 10 * SOUNDNESS_TOL,
            best_params=np.zeros(5),
            closed_form=3.0,
            gap=-10 * SOUNDNESS_TOL,
            restarts=1,
            seed=0,
        )


@pytest.mark.parametrize(
    "p,w",
    [(1.0, 1.0), (0.5, 1.0), (0.0, 1.0), (0.5, 0.5), (0.0, 0.2), (1.0, 0.0)],
)
def test_qubit_search_attains_closed_form(p, w):
    rep = maximize_b1_qubit(p, w, restarts=60, seed=1)
    assert abs(rep.gap) <= QUBIT_GAP_TOL
    assert rep.best_value <= rep.closed_form + SOUNDNESS_TOL


def test_qubit_search_grid_attains_closed_form():
    worst = 0.0
    for p in np.linspace(0.0, 1.0, 6):
        for w in np.linspace(0.0, 1.0, 6):
            rep = maximize_b1_qubit(float(p), float(w), restarts=40, seed=7)
            worst = max(worst, abs(rep.gap))
    assert worst <= QUBIT_GAP_TOL


# the (p, w) points per dimension: the qubit search's at d = 2, the maximally
# mixed qudit search's (0, 1) at d = 3..6, and two general points that no
# search runs at
_PROTOCOL_POINTS = {
    2: [(1.0, 1.0), (0.6, 0.8), (0.3, 0.5)],
    3: [(0.0, 1.0), (0.7, 0.4)],
    4: [(0.0, 1.0)],
    5: [(0.0, 1.0), (1.0, 0.2)],
    6: [(0.0, 1.0)],
}


@pytest.mark.parametrize("d", list(_PROTOCOL_POINTS))
def test_qudit_best_params_reproduce_value_in_matrix_simulation(d):
    # the closed-form objective and the full density-matrix pipeline agree
    # at a search's solution, d = 2 being the qubit search; d >= 3 also runs
    # the eigvalsh validation path ...
    for p, w in _PROTOCOL_POINTS[d]:
        rep = None
        if d == 2:
            rep = maximize_b1_qubit(p, w, restarts=40, seed=3)
        elif (p, w) == (0.0, 1.0):
            rep = maximize_b1_qudit_maxmixed(d, 20, seed=0)
        if rep is not None:
            rho, protocol = params_to_protocol(rep.best_params, p, w, d)
            if d > 2:
                assert np.array_equal(rho.matrix, np.eye(d) / d)
            assert b1(correlations(rho, protocol)) == pytest.approx(rep.best_value, abs=1e-9)
        # ... and away from the optimum, past the box's faces, where the
        # objective projects and the builder takes the projected point
        lo, hi = kernels.BOX
        rng = np.random.default_rng(3 if d == 2 else d)
        for x in rng.uniform(lo - 0.2, hi + 0.2, size=(20, 5)):
            rho, protocol = params_to_protocol(kernels.project(x), p, w, d)
            assert b1(correlations(rho, protocol)) == pytest.approx(
                kernels._objective(x, p, w, float(d)), abs=1e-12
            )


def test_optimal_states_for_effects_projective_pair():
    # projective effects along +z and -z: the posts lie along +-z and the
    # input is pure along +z
    rho, protocol = params_to_protocol(np.array([0.5, 1.0, 0.5, 1.0, math.pi]), 1.0, 1.0, 2)
    for meas, z in ((protocol.meas0, 1.0), (protocol.meas1, -1.0)):
        assert meas.post_plus is meas.post_minus
        post = density_to_bloch(meas.post_plus)
        np.testing.assert_allclose(post.direction, [0.0, 0.0, z], atol=1e-12)
    init = density_to_bloch(rho)
    np.testing.assert_allclose(init.direction, [0.0, 0.0, 1.0], atol=1e-12)
    assert init.length == 1.0


def test_optimal_states_degenerate_effects_fall_back():
    # b0 = b1 = 0: the post and input directions vanish and fall back to +z
    rho, protocol = params_to_protocol(np.array([0.5, 0.0, 0.5, 0.0, 1.0]), 0.5, 0.5, 2)
    for state in (protocol.meas0.post_plus, protocol.meas1.post_plus, rho):
        np.testing.assert_allclose(density_to_bloch(state).direction, [0.0, 0.0, 1.0])


_POINT = [0.5, 0.2, 0.5, 0.2, 1.0]
_MALFORMED_POINTS = [
    _POINT[:4] + [math.inf],
    _POINT[:4] + [-math.inf],
    _POINT[:4],
    [_POINT],
    [_POINT, _POINT],
    _POINT + [0.0],
    [math.nan] + _POINT[1:],
]
# points off kernels.project's constraint set, which the builder checks
# instead of projecting: a > 1/(1 + b), b < 0 and b > 1
_OFF_CONSTRAINT_POINTS = [
    [0.9, 0.2, 0.5, 0.2, 1.0],
    [0.5, 0.2, 0.5, -0.1, 1.0],
    [0.5, 1.1, 0.5, 0.2, 1.0],
]
_SEARCH_BUILDERS = {
    "qubit": lambda x, d: params_to_protocol(x, 0.5, 0.5, 2),
    "qudit": lambda x, d: params_to_protocol(x, 0.0, 1.0, d),
}


@pytest.mark.parametrize(
    "builder,params,d,error",
    [(b, x, 3, DomainError) for b in _SEARCH_BUILDERS for x in _MALFORMED_POINTS]
    + [("qudit", _POINT, d, DimensionError) for d in (3.5, 1, True)]
    + [(b, x, 3, DomainError) for b in _SEARCH_BUILDERS for x in _OFF_CONSTRAINT_POINTS],
)
def test_search_builders_reject_malformed_input_with_typed_errors(builder, params, d, error):
    # an infinite theta, a point of the wrong shape and a d that is no
    # dimension used to end in math, index, unpacking or numpy errors; a
    # point off the constraint set is refused, not projected
    with pytest.raises(error):
        _SEARCH_BUILDERS[builder](params, d)


@pytest.mark.parametrize("p,w", [(-0.1, 0.5), (0.5, 1.5), (math.nan, 0.5), (0.5, math.nan)])
def test_params_to_protocol_rejects_p_and_w_outside_the_unit_interval(p, w):
    for d in (2, 3):
        with pytest.raises(DomainError):
            params_to_protocol(_POINT, p, w, d)


def test_block_state_qubit_block_is_bloch_to_density_bytewise():
    # the block of a search's post and input states is laid out as the Bloch
    # codec lays it out, signed zeros and the +z fallback included
    vecs = list(np.random.default_rng(16).normal(size=(20, 3)))
    vecs += [np.array(v) for v in ([0.0, -0.0, 1.0], [-0.0, 0.0, -1.0], [1.0, -0.0, -0.0],
                                   [-0.0, -1.0, 0.0], [0.0, 0.0, 0.0])]
    for length in (0.0, 0.3, 1.0):
        for vec in vecs:
            n = vector_length(vec)
            u = np.array([0.0, 0.0, 1.0]) if n < 1e-12 else vec / n
            ref = bloch_to_density(BlochState(length, u)).matrix
            for d in (2, 4):
                m = _block_state(length, vec, d).matrix
                assert m[:2, :2].tobytes() == ref.tobytes()
                assert not m[2:].any() and not m[:, 2:].any()


@pytest.mark.parametrize("d,expected", [(4, 3.0), (5, 3.2), (6, 10.0 / 3.0)])
def test_qudit_search_attains_closed_form(d, expected):
    rep = maximize_b1_qudit_maxmixed(d, restarts=60, seed=1)
    assert rep.closed_form == pytest.approx(expected, abs=1e-12)
    assert abs(rep.gap) <= QUDIT_GAP_TOL


def test_qudit_search_d3_tops_out_below_bound():
    # the analytic ceiling max(3, 8/3) = 3 is not attained in dimension 3;
    # no qutrit protocol on I/3 exceeds 8/3, and the search attains it
    rep = maximize_b1_qudit_maxmixed(3, restarts=80, seed=1)
    assert rep.best_value == pytest.approx(8.0 / 3.0, abs=QUDIT_GAP_TOL)
    assert rep.gap == pytest.approx(1.0 / 3.0, abs=1e-4)


def test_qudit_search_domain():
    with pytest.raises(DomainError):
        maximize_b1_qudit_maxmixed(7)
    with pytest.raises(DomainError):
        maximize_b1_qudit_maxmixed(4, restarts=0)


@pytest.mark.parametrize("d", [3.0, np.int64(4), 3.5, True, 1])
def test_qudit_search_and_builder_share_one_d_rule(d):
    # a d that the search refuses, the builder refuses too, so a report's d
    # can always be passed on to the builder; each raises its own type
    with pytest.raises(DomainError, match="d must be one of 3, 4, 5, 6"):
        maximize_b1_qudit_maxmixed(d, restarts=1)
    with pytest.raises(DimensionError):
        params_to_protocol(_POINT, 0.0, 1.0, d)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"seed": -1},
        {"seed": 1.5},
        {"seed": True},
        {"seed": "0"},
        {"restarts": True},
        {"restarts": 2.0},
        {"restarts": -3},
        {"restarts": None},
    ],
)
def test_search_rejects_seed_and_restarts_that_are_not_counts(kwargs):
    for search in (
        lambda: maximize_b1_qubit(0.5, 0.5, **kwargs),
        lambda: maximize_b1_qudit_maxmixed(4, **kwargs),
        lambda: maximize_linear_functional(b1_weights(), 2, 0.7, **kwargs),
    ):
        with pytest.raises(DomainError, match="must be a non-negative int"):
            search()


def test_search_rejects_restarts_above_cap():
    # rejected before the starts are drawn; a search at the cap is never run
    with pytest.raises(DomainError, match=str(MAX_RESTARTS)):
        maximize_b1_qubit(0.5, 0.5, restarts=MAX_RESTARTS + 1)


def test_search_reports_deterministic_in_seed():
    a = maximize_b1_qubit(0.7, 0.7, restarts=20, seed=11)
    b = maximize_b1_qubit(0.7, 0.7, restarts=20, seed=11)
    assert a.best_value == b.best_value
    np.testing.assert_array_equal(a.best_params, b.best_params)


def test_optimal_spectrum_pure_and_mixed():
    g = np.array([3.0, 2.0, 1.0])
    val, q = _optimal_spectrum(g, 1.0)
    assert val == pytest.approx(3.0, abs=1e-12)
    np.testing.assert_allclose(q, [1.0, 0.0, 0.0], atol=1e-12)
    val, q = _optimal_spectrum(g, 1.0 / 3.0)
    assert val == pytest.approx(2.0, abs=1e-12)
    np.testing.assert_allclose(q, [1 / 3, 1 / 3, 1 / 3], atol=1e-12)


def test_optimal_spectrum_beats_grid_search():
    # exact solver vs a dense random-feasible-point sample
    rng = np.random.default_rng(13)
    for _ in range(20):
        g = np.sort(rng.normal(size=4))[::-1]
        pur = rng.uniform(0.25, 1.0)
        val, q = _optimal_spectrum(g, pur)
        assert q.min() >= -1e-12
        assert q.sum() == pytest.approx(1.0, abs=1e-9)
        assert float(q @ q) == pytest.approx(pur, abs=1e-9)
        for _ in range(300):
            cand = rng.dirichlet(np.ones(4))
            # rescale toward the uniform point to hit the target purity
            lo, hi = 0.0, 1.0
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                mixed = (1 - mid) * np.full(4, 0.25) + mid * cand
                if float(mixed @ mixed) < pur:
                    lo = mid
                else:
                    hi = mid
            mixed = (1 - hi) * np.full(4, 0.25) + hi * cand
            if abs(float(mixed @ mixed) - pur) < 1e-6:
                assert float(mixed @ g) <= val + 1e-6


def test_optimal_spectrum_domain():
    with pytest.raises(DomainError):
        _optimal_spectrum(np.array([1.0, 0.0]), 0.3)


def test_optimal_spectrum_is_scale_free():
    # a power of two scales every step exactly, so the value must scale bit
    # for bit; a flatness test on the absolute spread would take the sloped
    # segments of tiny g as flat and value them at their mean
    for g, pur in (([1.0, 0.0], 0.78125), ([3.0, 2.0, 0.5], 0.6), ([2.0, 2.0, -1.0], 0.45),
                   ([1.0, 1.0, 1.0], 0.6)):
        g = np.array(g)
        for j in (-600, -60, -30, 30, 60, 600):
            assert _optimal_spectrum(g * 2.0**j, pur)[0] == 2.0**j * _optimal_spectrum(g, pur)[0]


def test_functional_search_value_is_scale_free():
    # 2^-600 squares below the smallest float unless the spectrum step
    # rescales; at 2^-50 every start came within the absolute HIT_TOL of the
    # best, and at 2^520 no run met the absolute FTOL before maxiter, unless
    # the search runs on the weights scaled into [1, 2)
    unit = maximize_linear_functional(b1_weights(), 2, 0.78125, restarts=10, seed=0)
    for scale in (2.0**-50, 2.0**-600, 2.0**520):
        rep = maximize_linear_functional(
            LinearFunctional(b1_weights().weights * scale), 2, 0.78125, restarts=10, seed=0
        )
        # abs=0: approx's default absolute tolerance of 1e-12 would hide any error here
        assert rep.best_value == pytest.approx(2.875 * scale, rel=1e-9, abs=0.0)
        assert rep.best_value == unit.best_value * scale
        assert rep.hit_rate == unit.hit_rate
        np.testing.assert_array_equal(rep.best_params, unit.best_params)


@pytest.mark.parametrize(
    "pur,expected",
    [(0.5, 2.5), (0.625, 2.75), (0.78125, 2.875), (1.0, 3.0)],
)
def test_functional_search_dim2_b1(pur, expected):
    rep = maximize_linear_functional(b1_weights(), 2, pur, restarts=20, seed=5)
    assert rep.closed_form == pytest.approx(expected, abs=1e-12)
    assert abs(rep.gap) <= QUDIT_GAP_TOL


def test_functional_search_dim3_values():
    rep = maximize_linear_functional(b1_weights(), 3, 1.0, restarts=12, seed=5)
    assert rep.best_value == pytest.approx(4.0, abs=1e-4)
    rep = maximize_linear_functional(b1_weights(), 3, 1.0 / 3.0, restarts=12, seed=5)
    assert rep.best_value == pytest.approx(8.0 / 3.0, abs=1e-4)
    assert rep.closed_form is None


def test_functional_search_validation():
    # dim is a Python int, 2 or 3: a float used to end in a bare TypeError,
    # and a numpy integer was searched
    for dim in (4, 1, 2.0, 3.0, np.int64(3), True):
        with pytest.raises(DimensionError):
            maximize_linear_functional(b1_weights(), dim, 1.0)
    with pytest.raises(DomainError):
        maximize_linear_functional(b1_weights(), 2, 0.3)


def test_functional_search_respects_general_weights():
    # weight pattern rewarding only p(++|00): optimum is a deterministic
    # "+" first effect and the best aligned second-step effect, value 1
    w = np.zeros((2, 2, 2, 2))
    w[0, 0, 0, 0] = 1.0
    rep = maximize_linear_functional(LinearFunctional(w), 2, 1.0, restarts=10, seed=2)
    assert rep.best_value == pytest.approx(1.0, abs=1e-6)


def test_functional_search_runs_a_start_again_from_its_optimum():
    # random weights at d = 3, one start: its first simplex collapses at
    # 2.1308, and the runs from its own optimum reach 2.9659.  On other
    # draws, 4 x the starts or 4 x maxiter of single runs did not recover
    # the value these runs reach
    rng = np.random.default_rng(2025)
    weights = [rng.normal(size=(2, 2, 2, 2)) for _ in range(29)][-1]
    rep = maximize_linear_functional(LinearFunctional(weights), 3, 0.6, restarts=1, seed=28)
    assert rep.best_value >= 2.96592417324


def _p00_weights():
    """The general weights above: only p(++|00) counts."""
    w = np.zeros((2, 2, 2, 2))
    w[0, 0, 0, 0] = 1.0
    return LinearFunctional(w)


def test_givens_effect_at_d2_is_the_bloch_angle_effect():
    # with the half angle, the d = 2 effect is lambda_0 P + lambda_1 (1 - P)
    # for P the projector on the Bloch direction (theta, phi)
    v = np.random.default_rng(8).uniform(-math.pi, math.pi, size=(50, 4))
    v[:, :2] = np.random.default_rng(9).uniform(-0.5, 1.5, size=(50, 2))
    re, im = _effects_from_params(v, 2)
    for i, x in enumerate(v):
        theta, phi = x[2], x[3]
        n = [math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)]
        proj = 0.5 * (np.eye(2) + pauli_dot(n))
        lam0, lam1 = np.clip(x[:2], 0.0, 1.0)
        plus = lam0 * proj + lam1 * (np.eye(2) - proj)
        for a, expected in enumerate((plus, np.eye(2) - plus)):
            np.testing.assert_allclose(
                re[:, :, i, a] + 1j * im[:, :, i, a], expected, rtol=0, atol=1e-15
            )


def test_functional_search_reports_feasible_params():
    rep = maximize_linear_functional(b1_weights(), 2, 1.0, restarts=5, seed=1)
    eigs = rep.best_params.reshape(2, 4)[:, :2]
    assert eigs.min() >= 0.0 and eigs.max() <= 1.0
    value = _functional_value(b1_weights().weights, rep.best_params, 2, 1.0)
    assert value == rep.best_value


def _functional_protocol(f, params, dim, pur):
    """The state and protocol that attain the functional-search value: the
    searched effects, "+"/"-" post states on the top eigenvectors of
    F_(a|x) = sum_by w[a,b,x,y] E_(b|y), and the optimal spectrum in the
    eigenbasis of G = sum_ax s_(a|x) E_(a|x)."""
    re, im = _effects_from_params(params.reshape(2, -1), dim)  # each (d, d, x, a)
    plus = [re[:, :, x, 0] + 1j * im[:, :, x, 0] for x in range(2)]
    eff = [[e, np.eye(dim) - e] for e in plus]  # eff[x][a] = E_(a|x)
    posts = [[None, None], [None, None]]
    g = np.zeros((dim, dim), dtype=complex)
    for x in range(2):
        for a in range(2):
            f_ax = sum(
                f.weights[a, b, x, y] * eff[y][b] for b in range(2) for y in range(2)
            )
            lam, vec = np.linalg.eigh(f_ax)
            posts[x][a] = DensityMatrix(np.outer(vec[:, -1], vec[:, -1].conj()))
            g += lam[-1] * eff[x][a]
    lam, vec = np.linalg.eigh(g)
    _, q = _optimal_spectrum(lam[::-1], pur)
    basis = vec[:, ::-1]
    rho = DensityMatrix((basis * q) @ basis.conj().T)
    meas = [BinaryMeasurement(Effect(plus[x]), *posts[x]) for x in range(2)]
    return rho, ProtocolPair(*meas)


@pytest.mark.parametrize(
    "f,dim,pur",
    [(b1_weights(), 2, 0.78125), (_p00_weights(), 2, 1.0), (b1_weights(), 3, 0.6)],
    ids=["b1-d2", "p00-d2", "b1-d3"],
)
def test_functional_search_value_attained_by_explicit_protocol(f, dim, pur):
    rep = maximize_linear_functional(f, dim, pur, restarts=3, seed=4)
    rho, protocol = _functional_protocol(f, rep.best_params, dim, pur)
    assert float(np.trace(rho.matrix @ rho.matrix).real) == pytest.approx(
        pur, abs=1e-9
    )
    value = evaluate_functional(f, correlations(rho, protocol))
    assert value == pytest.approx(rep.best_value, abs=1e-9)


def test_monotonicity_sweep_nondecreasing():
    purities = [0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
    results = monotonicity_sweep(b1_weights(), 2, purities, restarts=15, seed=9)
    vals = [rep.best_value for _, rep in results]
    assert all(b >= a - QUDIT_GAP_TOL for a, b in zip(vals, vals[1:]))
    for pur, rep in results:
        expected = b1_max_initial(math.sqrt(2.0 * pur - 1.0))
        assert rep.best_value == pytest.approx(expected, abs=QUDIT_GAP_TOL)


def test_monotonicity_sweep_requires_sorted_input():
    with pytest.raises(DomainError):
        monotonicity_sweep(b1_weights(), 2, [0.9, 0.5])


def test_kernel_backend_flag_is_exposed():
    assert kernels.BACKEND == "numpy"


# (p, w, d) of the objective as two searches call it: 0 the qubit search at
# (p, w) = (0.6, 0.8), 1 the maximally mixed qutrit search
_SEARCH_ARGS = [(0.6, 0.8, 2.0), (0.0, 1.0, 3.0)]
_MAXITER = 4000  # as optimizer.py uses


def _reference_nelder_mead(args, x0, lo, hi, maxiter, ftol, xtol):
    """One simplex at a time, one scalar objective call per point."""

    def f(x):
        return -kernels._objective(x, *args)

    n = x0.shape[0]
    pts = np.tile(x0, (n + 1, 1))
    for j in range(n):
        step = 0.1 * (hi[j] - lo[j])
        pts[j + 1, j] += -step if x0[j] + step > hi[j] else step
    vals = np.array([f(x) for x in pts])
    for _ in range(maxiter):
        # Python's sort is stable, as the engine's is; the values are finite
        order = sorted(range(n + 1), key=vals.__getitem__)
        pts, vals = pts[order], vals[order]
        if vals[n] - vals[0] < ftol and np.abs(pts[1:] - pts[0]).max() < xtol:
            break
        centroid = pts[:n].sum(axis=0) / n
        refl = 2.0 * centroid - pts[n]
        f_refl = f(refl)
        if f_refl < vals[0]:
            expd = centroid + 2.0 * (refl - centroid)
            f_expd = f(expd)
            pts[n], vals[n] = (expd, f_expd) if f_expd < f_refl else (refl, f_refl)
        elif f_refl < vals[n - 1]:
            pts[n], vals[n] = refl, f_refl
        else:
            far = refl if f_refl < vals[n] else pts[n]
            contr = centroid + 0.5 * (far - centroid)
            f_contr = f(contr)
            if f_contr < min(f_refl, vals[n]):
                pts[n], vals[n] = contr, f_contr
            else:
                pts[1:] = pts[0] + 0.5 * (pts[1:] - pts[0])
                vals[1:] = [f(x) for x in pts[1:]]
    best = np.argmin(vals)
    return -vals[best], pts[best].copy()


def _reference_multistart(args, starts, max_runs, maxiter=_MAXITER, runs=None):
    """Per-start loop with up to ``max_runs`` chained runs and the
    earliest-start tie rule; ``runs``, if given, collects the number of runs
    of each start."""
    lo, hi = kernels.BOX
    search = (maxiter, kernels.FTOL, kernels.XTOL)
    per_start = []
    best_val, best_x = -np.inf, None
    for x0 in starts:
        val, x = _reference_nelder_mead(args, x0, lo, hi, *search)
        n = 1  # n counts the runs of this start
        for n in range(2, max_runs + 1):
            val2, x2 = _reference_nelder_mead(args, x, lo, hi, *search)
            gained = val2 > val + 1e-13
            if val2 > val:
                val, x = val2, x2
            if not gained:
                break
        if runs is not None:
            runs.append(n)
        per_start.append(val)
        if val > best_val:
            best_val, best_x = val, x
    return best_val, best_x, np.array(per_start)


# per search, a seed whose 6 starts end after their second run, and one with
# a start whose second run gains more than 1e-13, so that a third run follows
_ORACLE_SEEDS = [(21, 15), (21, 29)]
# the run limits of the B1 searches and of the functional search
_RUN_LIMITS = (1, 4)


@pytest.mark.parametrize("search", [0, 1])
def test_lockstep_search_matches_scalar_reference_bitwise(search):
    args = _SEARCH_ARGS[search]
    lo, hi = kernels.BOX
    for max_runs in _RUN_LIMITS:
        for seed in _ORACLE_SEEDS[search]:
            starts = np.random.default_rng(seed).uniform(lo, hi, size=(6, 5))
            best, x, per_start = kernels.multistart_maximize(
                lambda x: kernels._objective(x, *args), starts, lo, hi, _MAXITER, max_runs
            )
            runs = []
            ref_best, ref_x, ref_per_start = _reference_multistart(
                args, starts, max_runs, runs=runs
            )
            assert best == ref_best
            np.testing.assert_array_equal(x, ref_x)
            np.testing.assert_array_equal(per_start, ref_per_start)
    assert max(runs) >= 3  # the last seed at four runs covers the chain of re-runs


@pytest.mark.parametrize("search", [0, 1])
@pytest.mark.parametrize("maxiter", [0, 1, 2, 5, 40])
def test_lockstep_maxiter_exit_matches_scalar_reference_bitwise(search, maxiter):
    # no simplex converges within 40 steps from these starts, so every run
    # ends at maxiter and reports the best of its vertices as they stand
    args = _SEARCH_ARGS[search]
    lo, hi = kernels.BOX
    for max_runs in _RUN_LIMITS:
        for seed in range(4):
            starts = np.random.default_rng(seed).uniform(lo, hi, size=(6, 5))
            best, x, per_start = kernels.multistart_maximize(
                lambda x: kernels._objective(x, *args), starts, lo, hi, maxiter, max_runs
            )
            ref_best, ref_x, ref_per_start = _reference_multistart(
                args, starts, max_runs, maxiter
            )
            assert best == ref_best
            np.testing.assert_array_equal(x, ref_x)
            np.testing.assert_array_equal(per_start, ref_per_start)


# objective calls of two fixed searches, by the middle axis of the array each
# call receives: 6 the initial simplex, 4 a step's candidates, 5 a shrink's
# new vertices; a step that calls the objective more than once shows here.
# Both counts hold at every x86-64 dispatch level of numpy 2.4, since the
# engine's stable sort fixes the order of tied vertices.  The qubit count was
# taken again when the qubit search moved to the qudit search's (a, b)
# coordinates, which changed every simplex it runs.  Both were taken again
# when the B1 searches went to one run per start, which drops the second
# initial-simplex call and the steps of the re-runs; they were counted on the
# method of ``_reference_nelder_mead``, run once per start, as one
# initial-simplex call, one candidate call per step that any start takes and
# one shrink call per step at which any start shrinks.
_OBJECTIVE_CALLS = {
    "qubit": {6: 1, 4: 79, 5: 65},
    "qudit": {6: 1, 4: 197, 5: 87},
}


def test_search_objective_calls_are_pinned(monkeypatch):
    objective = kernels._objective
    shapes = []

    def counted(*args):
        shapes.append(np.shape(args[0]))
        return objective(*args)

    monkeypatch.setattr(kernels, "_objective", counted)
    calls = {}
    for name, search in (
        ("qubit", lambda: maximize_b1_qubit(0.6, 0.8, restarts=10, seed=3)),
        ("qudit", lambda: maximize_b1_qudit_maxmixed(3, restarts=10, seed=3)),
    ):
        shapes.clear()
        search()
        # every call is a (B, k, 5) stack of B <= 10 active simplices
        assert all(len(s) == 3 and s[0] <= 10 and s[2] == 5 for s in shapes)
        calls[name] = {k: sum(s[1] == k for s in shapes) for k in (6, 4, 5)}
        assert sum(calls[name].values()) == len(shapes)
    assert calls == _OBJECTIVE_CALLS


def test_report_hit_rate_counts_starts_near_the_best(monkeypatch):
    per_start = []
    engine = kernels.multistart_maximize

    def recording(*args):
        out = engine(*args)
        per_start.append(out[2])
        return out

    monkeypatch.setattr(kernels, "multistart_maximize", recording)
    # some starts of both searches miss the best value: at (0.25, 0.25), just
    # above the branch point, 15 of the qubit search's 40 do, and 1 of the
    # qutrit search's 20
    for search in (
        lambda: maximize_b1_qubit(0.25, 0.25, restarts=40, seed=0),
        lambda: maximize_b1_qudit_maxmixed(3, restarts=20, seed=0),
    ):
        rep = search()
        hits = np.count_nonzero(per_start[-1] >= rep.best_value - 1e-6)
        assert 0 < hits < rep.restarts
        assert rep.hit_rate == hits / rep.restarts
        assert rep.to_dict()["hit_rate"] == rep.hit_rate


# sha256 of per_start.tobytes() + best_params.tobytes() for each search, as
# computed with the engine's plain np.clip/take_along_axis forms; any change to
# the arithmetic of the engine or of an objective shows here, so a digest is
# never regenerated to let a change pass.  They hold for numpy 2.4 on x86-64.
# The qubit entries were taken again when the qubit search moved from the
# coordinates (r, q) to the qudit search's (a, b): its starts, simplices and
# reported points are now in other coordinates, while the qudit entries held.
# The functional entry was taken again when that search moved to Givens
# effects and Jacobi eigenvalues in real arithmetic, which changed its
# parameters and every value it computes.  The B1 entries were taken again
# when the B1 searches went to one run per start, from
# ``_reference_multistart`` with one run per start.  The qubit (1, 1) and qudit d = 4 entries moved:
# there re-runs had lifted 8 of 100 and 1 of 20 per-start values, by 0.25 at
# most, while no search's best value moved by a bit.  No search calls BLAS or
# LAPACK or a ufunc whose bits follow numpy's dispatch level, so every entry
# holds at every dispatch level, baseline x86-64 included, and under any
# OpenBLAS kernel (see the tests below).
_SEARCH_DIGESTS = {
    ("qubit", 0.25, 0.25): "c60c5ca194c790c5bd1e7ae6eb105e9bdb3fef02d2c27aabc6f6942344f201b7",
    ("qubit", 0.5, 0.75): "72bea857a1f2f961afd0e8c00340c71f25d16fb4f6a81ec78c152c3fe88440c2",
    ("qubit", 1.0, 1.0): "dbfbe9199981203fb0859d3b7611793a42fb97d654223070c6062ebdca74e7e9",
    ("qudit", 3): "90a261defe799cc0805e18b1b49a035ae266b46471d44e180957bccfbba42d4c",
    ("qudit", 4): "5576495f826b763480046f06acedddbec8f2cb389f6af735a69f9454e3fdb04d",
    ("qudit", 5): "6e7f6506a1053803b74f9ddeabce923484da087a4425ee4f38fa7c6368eacac5",
    ("qudit", 6): "32611f5447d3d7440059e0ed7a60b3d7c2a104df71433ad72ca597382801aeb3",
    ("functional", 3): "60678959f9b9958a5fb3fff3f6d102208bff3f59091bdcaf8ca85461f156a653",
}

_SEARCHES = {
    **{
        ("qubit", p, w): lambda p=p, w=w: maximize_b1_qubit(p, w, 100, seed=0)
        for p, w in ((0.25, 0.25), (0.5, 0.75), (1.0, 1.0))
    },
    **{
        ("qudit", d): lambda d=d: maximize_b1_qudit_maxmixed(d, 20, seed=0)
        for d in (3, 4, 5, 6)
    },
    ("functional", 3): lambda: maximize_linear_functional(
        b1_weights(), 3, 0.6, restarts=2, seed=0
    ),
}


def _search_digests(keys):
    """The digest of each search named in keys, in order; a key may come as
    a JSON list."""
    per_start = []
    engine = kernels.multistart_maximize

    def recording(*args):
        out = engine(*args)
        per_start.append(out[2])
        return out

    digests = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "multistart_maximize", recording)
        for key in keys:
            rep = _SEARCHES[tuple(key)]()
            raw = per_start[-1].tobytes() + rep.best_params.tobytes()
            digests.append(hashlib.sha256(raw).hexdigest())
    return digests


def test_search_outputs_match_pinned_digests():
    assert dict(zip(_SEARCHES, _search_digests(list(_SEARCHES)))) == _SEARCH_DIGESTS


def _run_searches(env):
    """The numpy dispatch targets left on, the OpenBLAS core name (or None)
    and the digest of every search, run in a fresh interpreter under env."""
    keys = list(_SEARCHES)
    out = run_fresh("test_optimizer", "_search_digests", [keys], env)
    return out["dispatch"], out["core"], dict(zip(keys, out["result"]))


_ON_X86_64 = platform.machine().lower() in ("x86_64", "amd64")


@pytest.mark.skipif(not _ON_X86_64, reason="the switched-off targets are x86-64 ones")
def test_b1_search_digests_hold_at_baseline_dispatch():
    # numpy's AVX2 and AVX-512 kernels switched off: the sort and every
    # objective run on baseline x86-64 code, and no digest may move
    dispatch, _, digests = _run_searches(
        {"NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"}
    )
    assert dispatch == []
    assert digests == _SEARCH_DIGESTS


@pytest.mark.skipif(not _ON_X86_64, reason="the forced OpenBLAS kernel is an x86-64 one")
def test_search_digests_hold_under_the_prescott_kernel():
    # OpenBLAS's Prescott kernel, which every x86-64 CPU runs, forced at
    # numpy's default dispatch: no search calls BLAS, so no digest moves.
    # The bundled OpenBLAS 0.3.31 names the kernel it then runs Katmai
    _, core, digests = _run_searches({"OPENBLAS_CORETYPE": "Prescott"})
    assert core in (None, "Prescott", "Katmai")
    assert digests == _SEARCH_DIGESTS


@pytest.mark.parametrize("search", [0, 1])
def test_lockstep_rows_share_no_state(search):
    # one call over B starts gives what B single-start calls give
    args = _SEARCH_ARGS[search]
    lo, hi = kernels.BOX
    starts = np.random.default_rng(4).uniform(lo, hi, size=(12, 5))
    _, _, batch = kernels.multistart_maximize(
        lambda x: kernels._objective(x, *args), starts, lo, hi, _MAXITER, 4
    )
    single = [
        kernels.multistart_maximize(
            lambda x: kernels._objective(x, *args), s[None], lo, hi, _MAXITER, 4
        )[2][0]
        for s in starts
    ]
    np.testing.assert_array_equal(batch, single)


def test_objectives_broadcast_like_scalar_calls():
    # points outside the constraint set exercise the projection too
    pts = np.random.default_rng(5).uniform(-0.2, 1.2, size=(7, 3, 5))
    flat = [[float(v) for v in x] for x in pts.reshape(-1, 5)]
    for args in _SEARCH_ARGS:
        batch = kernels._objective(pts, *args)
        assert batch.shape == (7, 3)
        np.testing.assert_array_equal(
            batch.ravel(), [kernels._objective(x, *args) for x in flat]
        )
    # p per row, zero included, as a batched grid search would pass it
    ps = np.linspace(0.0, 1.0, 7)
    batch = kernels._objective(pts, ps[:, None], 0.8, 2.0)
    assert batch.shape == (7, 3)
    np.testing.assert_array_equal(
        batch, [[kernels._objective(x, p, 0.8, 2.0) for x in row] for p, row in zip(ps, pts)]
    )
    # the general-functional objective: eigenvalue entries outside [0, 1]
    # exercise its clipping
    weights = np.random.default_rng(6).normal(size=(2, 2, 2, 2))
    for dim, npar in ((2, 4), (3, 9)):
        pts = np.random.default_rng(dim).uniform(-0.5, 1.5, size=(7, 3, 2 * npar))
        batch = _functional_value(weights, pts, dim, 0.7)
        assert batch.shape == (7, 3)
        np.testing.assert_array_equal(
            batch.ravel(),
            [_functional_value(weights, x, dim, 0.7) for x in pts.reshape(-1, 2 * npar)],
        )


def test_reported_params_are_feasible_and_reproduce_value():
    for rep, args in (
        (maximize_b1_qubit(0.6, 0.8, restarts=5, seed=0), _SEARCH_ARGS[0]),
        (maximize_b1_qudit_maxmixed(3, restarts=5, seed=0), _SEARCH_ARGS[1]),
    ):
        a0, b0, a1, b1_, _ = rep.best_params
        for a, b in ((a0, b0), (a1, b1_)):
            assert 0.0 <= b <= 1.0 and 0.0 <= a <= 1.0 / (1.0 + b)
        assert kernels._objective(rep.best_params, *args) == rep.best_value


def test_kernel_objective_matches_closed_form_at_known_optimum():
    # deterministic "+" first effect plus a projective second effect is the
    # known maximizer whenever the post length clears the threshold
    point = [1.0, 0.0, 0.5, 1.0, 0.0]
    val = kernels._objective(point, 1.0, 1.0, 2.0)
    assert val == pytest.approx(3.0, abs=1e-12)
    val = kernels._objective(point, 0.4, 0.9, 2.0)
    assert val == pytest.approx(b1_max_constrained(0.4, 0.9), abs=1e-12)


def test_kernel_qudit_objective_known_optimum():
    for d in (4, 5, 6):
        val = kernels._objective([0.5, 1.0, 0.5, 1.0, math.pi], 0.0, 1.0, float(d))
        assert val == pytest.approx(4.0 * (1.0 - 1.0 / d), abs=1e-12)
