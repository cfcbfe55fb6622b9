import hashlib
import math

import numpy as np
import pytest

from purity_witness import kernels
from purity_witness.errors import DimensionError, DomainError
from purity_witness.optimizer import (
    _effect_from_params,
    _functional_value,
    QUBIT_GAP_TOL,
    QUDIT_GAP_TOL,
    MAX_RESTARTS,
    SOUNDNESS_TOL,
    OptimizationReport,
    QubitEffectParams,
    maximize_b1_qubit,
    maximize_b1_qudit_maxmixed,
    maximize_linear_functional,
    monotonicity_sweep,
    optimal_spectrum,
    optimal_states_for_effects,
    params_to_protocol,
)
from purity_witness.quantum import BinaryMeasurement, DensityMatrix, Effect
from purity_witness.sequence import (
    LinearFunctional,
    ProtocolPair,
    b1,
    b1_weights,
    correlations,
    evaluate_functional,
)
from purity_witness.witness import b1_max_constrained, b1_max_initial


def test_qubit_effect_params_validation():
    QubitEffectParams(0.5, 0.5, np.array([0.0, 0.0, 1.0]))
    with pytest.raises(DomainError):
        QubitEffectParams(0.2, 0.5, np.array([0.0, 0.0, 1.0]))
    with pytest.raises(DomainError):
        QubitEffectParams(0.9, 0.2, np.array([0.0, 0.0, 1.0]))
    with pytest.raises(DomainError):
        QubitEffectParams(0.5, 0.1, np.array([0.0, 0.0, 2.0]))


def test_qubit_effect_params_effect_eigenvalues():
    eff = QubitEffectParams(0.6, 0.3, np.array([1.0, 0.0, 0.0])).to_effect()
    eigs = np.linalg.eigvalsh(eff.matrix)
    np.testing.assert_allclose(eigs, [0.3, 0.9], atol=1e-12)


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


def test_qubit_best_params_reproduce_value_in_matrix_simulation():
    # closed-form objective and the full density-matrix pipeline agree at
    # the optimizer's solution
    for p, w in ((1.0, 1.0), (0.6, 0.8), (0.3, 0.5)):
        rep = maximize_b1_qubit(p, w, restarts=40, seed=3)
        rho, protocol = params_to_protocol(rep.best_params, p, w)
        assert b1(correlations(rho, protocol)) == pytest.approx(
            rep.best_value, abs=1e-9
        )


def test_optimal_states_for_effects_projective_pair():
    e0 = QubitEffectParams(0.5, 0.5, np.array([0.0, 0.0, 1.0]))
    e1 = QubitEffectParams(0.5, 0.5, np.array([0.0, 0.0, -1.0]))
    init, post0, post1 = optimal_states_for_effects(e0, e1, 1.0, 1.0, 1.0)
    np.testing.assert_allclose(post0.direction, [0.0, 0.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(post1.direction, [0.0, 0.0, -1.0], atol=1e-12)
    assert init.length == 1.0


def test_optimal_states_degenerate_effects_fall_back():
    e = QubitEffectParams(0.5, 0.0, np.array([0.0, 0.0, 1.0]))
    init, post0, post1 = optimal_states_for_effects(e, e, 0.5, 0.5, 0.5)
    np.testing.assert_allclose(post0.direction, [0.0, 0.0, 1.0])
    np.testing.assert_allclose(init.direction, [0.0, 0.0, 1.0])


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
    val, q = optimal_spectrum(g, 1.0)
    assert val == pytest.approx(3.0, abs=1e-12)
    np.testing.assert_allclose(q, [1.0, 0.0, 0.0], atol=1e-12)
    val, q = optimal_spectrum(g, 1.0 / 3.0)
    assert val == pytest.approx(2.0, abs=1e-12)
    np.testing.assert_allclose(q, [1 / 3, 1 / 3, 1 / 3], atol=1e-12)


def test_optimal_spectrum_beats_grid_search():
    # exact solver vs a dense random-feasible-point sample
    rng = np.random.default_rng(13)
    for _ in range(20):
        g = np.sort(rng.normal(size=4))[::-1]
        pur = rng.uniform(0.25, 1.0)
        val, q = optimal_spectrum(g, pur)
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
        optimal_spectrum(np.array([1.0, 0.0]), 0.3)


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
    with pytest.raises(DimensionError):
        maximize_linear_functional(b1_weights(), 4, 1.0)
    with pytest.raises(DomainError):
        maximize_linear_functional(b1_weights(), 2, 0.3)


def test_functional_search_respects_general_weights():
    # weight pattern rewarding only p(++|00): optimum is a deterministic
    # "+" first effect and the best aligned second-step effect, value 1
    w = np.zeros((2, 2, 2, 2))
    w[0, 0, 0, 0] = 1.0
    rep = maximize_linear_functional(LinearFunctional(w), 2, 1.0, restarts=10, seed=2)
    assert rep.best_value == pytest.approx(1.0, abs=1e-6)


def _p00_weights():
    """The general weights above: only p(++|00) counts."""
    w = np.zeros((2, 2, 2, 2))
    w[0, 0, 0, 0] = 1.0
    return LinearFunctional(w)


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
    plus = [_effect_from_params(v, dim) for v in params.reshape(2, -1)]
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
    _, q = optimal_spectrum(lam[::-1], pur)
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


_BOXES = {0: kernels.QUBIT_BOX, 1: kernels.QUDIT_BOX}
_KIND_ARGS = {0: (0.6, 0.8), 1: (3.0, 0.0)}
_MAXITER = 4000  # as optimizer.py uses
_SEARCH = (_MAXITER, kernels.FTOL, kernels.XTOL)  # maxiter, ftol, xtol


def _reference_nelder_mead(kind, arg0, arg1, x0, lo, hi, maxiter, ftol, xtol):
    """One simplex at a time, one scalar objective call per point."""

    def f(x):
        return -kernels._objective(kind, x, arg0, arg1)

    n = x0.shape[0]
    pts = np.tile(x0, (n + 1, 1))
    for j in range(n):
        step = 0.1 * (hi[j] - lo[j]) or 0.05
        pts[j + 1, j] += -step if x0[j] + step > hi[j] else step
    vals = np.array([f(x) for x in pts])
    for _ in range(maxiter):
        order = np.argsort(vals)
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


def _reference_multistart(kind, starts):
    """Per-start loop with chained re-runs and the earliest-start tie rule."""
    lo, hi = _BOXES[kind]
    per_start = []
    best_val, best_x = -np.inf, None
    for x0 in starts:
        val, x = _reference_nelder_mead(kind, *_KIND_ARGS[kind], x0, lo, hi, *_SEARCH)
        for _ in range(3):
            val2, x2 = _reference_nelder_mead(
                kind, *_KIND_ARGS[kind], x, lo, hi, *_SEARCH
            )
            gained = val2 > val + 1e-13
            if val2 > val:
                val, x = val2, x2
            if not gained:
                break
        per_start.append(val)
        if val > best_val:
            best_val, best_x = val, x
    return best_val, best_x, np.array(per_start)


@pytest.mark.parametrize("kind", [0, 1])
def test_lockstep_search_matches_scalar_reference_bitwise(kind):
    lo, hi = _BOXES[kind]
    starts = np.random.default_rng(21).uniform(lo, hi, size=(6, 5))
    best, x, per_start = kernels.multistart_maximize(
        lambda x: kernels._objective(kind, x, *_KIND_ARGS[kind]),
        starts, lo, hi, _MAXITER,
    )
    ref_best, ref_x, ref_per_start = _reference_multistart(kind, starts)
    assert best == ref_best
    np.testing.assert_array_equal(x, ref_x)
    np.testing.assert_array_equal(per_start, ref_per_start)


# sha256 of per_start.tobytes() + best_params.tobytes() for each search, as
# computed with the engine's plain np.clip/take_along_axis forms; any change to
# the arithmetic of the engine or of the objectives shows here, so a digest is
# never regenerated to let a change pass.  They hold for numpy 2.4 on x86-64
# (the functional search goes through LAPACK).
_SEARCH_DIGESTS = {
    ("qubit", 0.25, 0.25): "d93abb7db86d2c0b7ab84bc3bb03f6c5679d474d00b3e85580f42875b0e5e6f8",
    ("qubit", 0.5, 0.75): "9e9cbaf10c7fb6b886df1d6c89cb2b87433ce94d31b608eb0ee17125880de6e6",
    ("qubit", 1.0, 1.0): "01b59bf4e257c02582cd37cc6d97163e07e612b826ef815f3bfab803fa38378a",
    ("qudit", 3): "bc9e20adf21be5ce2cd4ad1341678b33f3f3b94a66ca5d0f5077ff5927596baf",
    ("qudit", 4): "a7bea11f840f5257e47672f3d5ebf5a28787885fa54348d35275cf035db209cc",
    ("qudit", 5): "97f299918dd122440ad0b4029f912e6270af94442ef6b04b29a5bac8d5498a14",
    ("qudit", 6): "83beda390685134f26202016b199f3eb6a95d0d0fe9a3dee06c6d3ca7b2dfaf8",
    ("functional", 3): "bb24ba9bb906917100056decb44c98ad6efdf93902c61617893707a9f1c10008",
}


def test_search_outputs_match_pinned_digests(monkeypatch):
    per_start = []
    engine = kernels.multistart_maximize

    def recording(*args):
        out = engine(*args)
        per_start.append(out[2])
        return out

    monkeypatch.setattr(kernels, "multistart_maximize", recording)
    searches = {
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
    digests = {}
    for key, search in searches.items():
        rep = search()
        raw = per_start[-1].tobytes() + rep.best_params.tobytes()
        digests[key] = hashlib.sha256(raw).hexdigest()
    assert digests == _SEARCH_DIGESTS


@pytest.mark.parametrize("kind", [0, 1])
def test_lockstep_rows_share_no_state(kind):
    # one call over B starts gives what B single-start calls give
    lo, hi = _BOXES[kind]
    starts = np.random.default_rng(4).uniform(lo, hi, size=(12, 5))
    _, _, batch = kernels.multistart_maximize(
        lambda x: kernels._objective(kind, x, *_KIND_ARGS[kind]),
        starts, lo, hi, _MAXITER,
    )
    single = [
        kernels.multistart_maximize(
            lambda x: kernels._objective(kind, x, *_KIND_ARGS[kind]),
            s[None], lo, hi, _MAXITER,
        )[2][0]
        for s in starts
    ]
    np.testing.assert_array_equal(batch, single)


def test_objectives_broadcast_like_scalar_calls():
    # points outside the constraint set exercise the projection too
    pts = np.random.default_rng(5).uniform(-0.2, 1.2, size=(7, 3, 5))
    flat = [[float(v) for v in x] for x in pts.reshape(-1, 5)]
    qubit = kernels.b1_qubit_objective(*np.moveaxis(pts, -1, 0), 0.6, 0.8)
    qudit = kernels.b1_qudit_maxmixed_objective(*np.moveaxis(pts, -1, 0), 3.0)
    assert qubit.shape == qudit.shape == (7, 3)
    np.testing.assert_array_equal(
        qubit.ravel(), [kernels.b1_qubit_objective(*x, 0.6, 0.8) for x in flat]
    )
    np.testing.assert_array_equal(
        qudit.ravel(), [kernels.b1_qudit_maxmixed_objective(*x, 3.0) for x in flat]
    )
    np.testing.assert_array_equal(qubit, kernels._objective(0, pts, 0.6, 0.8))
    np.testing.assert_array_equal(qudit, kernels._objective(1, pts, 3.0, 0.0))
    # the general-functional objective: eigenvalue entries outside [0, 1]
    # exercise its clipping
    weights = np.random.default_rng(6).normal(size=(2, 2, 2, 2))
    for dim, npar in ((2, 4), (3, 12)):
        pts = np.random.default_rng(dim).uniform(-0.5, 1.5, size=(7, 3, 2 * npar))
        batch = _functional_value(weights, pts, dim, 0.7)
        assert batch.shape == (7, 3)
        np.testing.assert_array_equal(
            batch.ravel(),
            [_functional_value(weights, x, dim, 0.7) for x in pts.reshape(-1, 2 * npar)],
        )


def test_reported_params_are_feasible_and_reproduce_value():
    rep = maximize_b1_qubit(0.6, 0.8, restarts=5, seed=0)
    r0, q0, r1, q1, _ = rep.best_params
    for r, q in ((r0, q0), (r1, q1)):
        assert 0.0 <= r <= 1.0 and 0.0 <= q <= min(r, 1.0 - r)
    assert kernels._objective(0, rep.best_params, 0.6, 0.8) == rep.best_value
    rep = maximize_b1_qudit_maxmixed(3, restarts=5, seed=0)
    a0, b0, a1, b1_, _ = rep.best_params
    for a, b in ((a0, b0), (a1, b1_)):
        assert 0.0 <= b <= 1.0 and 0.0 <= a <= 1.0 / (1.0 + b)
    assert kernels._objective(1, rep.best_params, 3.0, 0.0) == rep.best_value


def test_kernel_objective_matches_closed_form_at_known_optimum():
    # deterministic "+" first effect plus a projective second effect is the
    # known maximizer whenever the post length clears the threshold
    val = kernels.b1_qubit_objective(1.0, 0.0, 0.5, 0.5, 0.0, 1.0, 1.0)
    assert val == pytest.approx(3.0, abs=1e-12)
    val = kernels.b1_qubit_objective(1.0, 0.0, 0.5, 0.5, 0.0, 0.4, 0.9)
    assert val == pytest.approx(b1_max_constrained(0.4, 0.9), abs=1e-12)


def test_kernel_qudit_objective_known_optimum():
    for d in (4, 5, 6):
        val = kernels.b1_qudit_maxmixed_objective(
            0.5, 1.0, 0.5, 1.0, math.pi, float(d)
        )
        assert val == pytest.approx(4.0 * (1.0 - 1.0 / d), abs=1e-12)
