"""Hot numeric kernels: closed-form B1 objectives and a multistart simplex.

Everything here is plain numpy.  The objectives broadcast over any leading
axes (scalar calls work too).  The simplex search maximizes any objective
callable that broadcasts over a ``(..., n)`` population; it advances every
restart of a multistart search together as one ``(B, n + 1, n)`` array, so a
search costs a few array operations per iteration instead of a Python loop
per restart.  Each iteration builds the four points a simplex may move to
(reflection, expansion, outside and inside contraction) as one
``(B, 4, n)`` array and evaluates them with one objective call; only a
shrink calls the objective again.

Objective kinds:
  0 -- qubit B1 for effect parameters (r0, q0, r1, q1, theta) with the
       analytically optimal initial/post states at Bloch lengths (p, w);
  1 -- qudit B1 for the block parametrization (a0, b0, a1, b1, theta) on the
       maximally mixed input of dimension d, pure post states in the
       two-dimensional subspace.

Parameters are projected onto their constraint set (``project``) inside the
objective, so the simplex search runs over a plain box.  Numpy calls, not
arithmetic, bound a search: column views, a one-gather sort and one
objective call per step keep them few.  An objective that is bound by its
arithmetic instead (the general functional search, which calls LAPACK) pays
for the points the step evaluates and does not use.
"""

from __future__ import annotations

import math

import numpy as np

BACKEND = "numpy"

# convergence: a simplex's values within FTOL and its vertices within XTOL of its best
FTOL = 1e-12
XTOL = 1e-10

# (lo, hi) search boxes over the constraint sets that ``project`` enforces
QUBIT_BOX = (np.zeros(5), np.array([1.0, 0.5, 1.0, 0.5, math.pi]))
QUDIT_BOX = (np.zeros(5), np.array([1.0, 1.0, 1.0, 1.0, math.pi]))

# expansion goes twice, a contraction half the way from the centroid to the
# reflection (expansion, outside contraction) or to the worst vertex (inside)
_TRIAL_STEPS = np.array([[2.0], [0.5], [0.5]])


def project(kind, params):
    """Project kernel parameters (last axis of size 5) onto their constraints.

    Kind 0 clips each (r, q) pair to 0 <= q <= r <= 1 - q, kind 1 each
    (a, b) pair to 0 <= b <= 1 and 0 <= a <= 1/(1 + b); theta is kept.  The
    projection is idempotent, so a projected point has the same objective
    value as the point it came from.  Entries match a batched np.clip bitwise.
    """
    return np.stack(_projected_columns(kind, params), axis=-1)


def _projected_columns(kind, params):
    # np.clip(r, 0, 1) keeps r on a tie with 0, and np.clip(q, 0, hi) over a
    # batch takes the bound; np.maximum and np.minimum take their 2nd operand
    x = np.asarray(params, dtype=float)
    cols = [x[..., 0], x[..., 1], x[..., 2], x[..., 3], x[..., 4]]
    for i in (0, 2):
        if kind == 0:
            r = cols[i] = np.minimum(np.maximum(0.0, cols[i]), 1.0)
            cols[i + 1] = np.minimum(np.maximum(cols[i + 1], 0.0), np.minimum(r, 1.0 - r))
        else:
            b = cols[i + 1] = np.minimum(np.maximum(0.0, cols[i + 1]), 1.0)
            cols[i] = np.minimum(np.maximum(cols[i], 0.0), 1.0 / (1.0 + b))
    return cols


def b1_qubit_objective(r0, q0, r1, q1, theta, p, w):
    """B1 for qubit effects E_+|x = r_x 1 + q_x v_x.sigma and optimal states.

    v0, v1 lie in the x-z plane with angle theta between them.  The initial
    and post-measurement Bloch vectors are the analytically optimal ones for
    lengths p and w.  Parameters are projected onto 0 <= q <= r <= 1 - q.
    All arguments broadcast.
    """
    return _objective(0, _stack(r0, q0, r1, q1, theta), p, w)


def b1_qudit_maxmixed_objective(a0, b0, a1, b1, theta, d):
    """B1 for block effects a_i(1 + b_i c_i.sigma) (+) 1_(d-2), mixed input.

    Post states are the optimal pure states of the qubit subspace; theta is
    the angle between c0 and c1.  Projection enforces 0 <= b <= 1 and
    0 <= a <= 1/(1 + b).  All arguments broadcast.
    """
    return _objective(1, _stack(a0, b0, a1, b1, theta), d, 0.0)


def _stack(*params):
    return np.stack(np.broadcast_arrays(*params), axis=-1)


def _objective(kind, params, arg0, arg1):
    """B1 of the given kind at params (..., 5); arg0, arg1 are (p, w) for
    kind 0 and (d, unused) for kind 1."""
    u0, v0, u1, v1, theta = _projected_columns(kind, params)
    x = np.cos(theta)
    if kind == 0:
        r0, q0, r1, q1, p, w = u0, v0, u1, v1, arg0, arg1
        qq0, qq1, qq01 = q0 * q0, q1 * q1, 2.0 * q0 * q1
        # |q0 v0 - q1 v1| and the post-state alignment terms
        wn = w * np.sqrt(np.maximum(qq0 + qq1 - qq01 * x, 0.0))
        x0 = 1.0 + r0 - r1 + wn
        x1 = 1.0 + r1 - r0 + wn
        # |q0 X0 v0 + q1 X1 v1| for the initial-state alignment
        m_sq = qq0 * x0 * x0 + qq1 * x1 * x1 + qq01 * x0 * x1 * x
        return r0 * x0 + r1 * x1 + p * np.sqrt(np.maximum(m_sq, 0.0))
    a0, b0, a1, b1, d = u0, v0, u1, v1, arg0
    g0, g1 = a0 * b0, a1 * b1
    m = np.sqrt(np.maximum(g0 * g0 + g1 * g1 - 2.0 * g0 * g1 * x, 0.0))
    p_plus0 = (2.0 * a0 + d - 2.0) / d
    p_plus1 = (2.0 * a1 + d - 2.0) / d
    return p_plus0 * (1.0 + a0 - a1 + m) + p_plus1 * (1.0 + a1 - a0 + m)


def _nelder_mead_batch(objective, x0, lo, hi, maxiter):
    """Maximize objective from every row of x0; [lo, hi] sizes the simplex.

    Standard Nelder-Mead (reflection 1, expansion 2, contraction 1/2,
    shrink 1/2) on the negated objective, one simplex per row, all advanced
    in lockstep; a simplex leaves the active set once it converges (FTOL,
    XTOL).  Each step evaluates all four candidates of every active simplex
    in one ``(B, 4, n)`` objective call and keeps the one that the standard
    acceptance tests pick, so every row follows the one-simplex-at-a-time
    method bit for bit; a shrink evaluates its n new vertices in a second
    call.  Each step sorts the vertices stably, so tied vertices keep their
    order on every CPU.  At ``maxiter`` a row reports its best vertex as it
    stands, which the step leaves unsorted.  Returns (best_values,
    best_points), one per row.
    """
    n_rows, n = x0.shape
    step = 0.1 * (hi - lo)
    step = np.where(step == 0.0, 0.05, step)
    pts = np.repeat(x0[:, None, :], n + 1, axis=1)
    up = x0 + step
    diag = np.arange(n)
    pts[:, diag + 1, diag] = np.where(up > hi, x0 - step, up)
    vals = -objective(pts)
    rows = np.arange(n_rows)
    line = np.arange(n_rows)  # index of each active row into the active arrays
    gather = line[:, None]
    best_val = np.empty(n_rows)
    best_x = np.empty((n_rows, n))

    for _ in range(maxiter):
        order = np.argsort(vals, axis=1, kind="stable")
        pts, vals = pts[gather, order], vals[gather, order]
        done = vals[:, n] - vals[:, 0] < FTOL
        if done.any():  # the vertex spread only matters where FTOL holds
            near = pts[done]
            done[done] = np.abs(near[:, 1:] - near[:, :1]).reshape(len(near), -1).max(1) < XTOL
            if done.any():
                best_val[rows[done]] = -vals[done, 0]
                best_x[rows[done]] = pts[done, 0]
                pts, vals, rows = pts[~done], vals[~done], rows[~done]
                if rows.size == 0:
                    return best_val, best_x
                line, gather = line[: rows.size], gather[: rows.size]

        # the four candidates in one objective call: reflection, expansion
        # and the outside and inside contractions, each with the arithmetic
        # of the one-simplex method
        f_worst = vals[:, n]
        centroid = pts[:, :n].sum(axis=1, keepdims=True) / n
        refl = 2.0 * centroid - pts[:, n:]
        far = np.concatenate((refl, refl, pts[:, n:]), axis=1)
        cand = np.concatenate((refl, centroid + _TRIAL_STEPS * (far - centroid)), axis=1)
        f = -objective(cand)
        f_refl = f[:, 0]
        expand = f_refl < vals[:, 0]
        contract = ~expand & ~(f_refl < vals[:, n - 1])
        # an expanding row has f_refl < f_worst, so the acceptance test
        # min(f_refl, f_worst) is f_refl for it, as for an outside contraction
        trial = np.where(expand, 1, np.where(f_refl < f_worst, 2, 3))
        use_trial = (expand | contract) & (f[line, trial] < np.minimum(f_refl, f_worst))
        shrink = contract & ~use_trial
        pick = np.where(use_trial, trial, 0)
        new_pt, new_val = cand[line, pick], f[line, pick]
        if shrink.any():
            # a shrink reads the worst vertex before the step overwrites it
            base = pts[shrink, :1]
            shrunk = base + 0.5 * (pts[shrink, 1:] - base)
            pts[:, n], vals[:, n] = new_pt, new_val
            pts[shrink, 1:] = shrunk
            vals[shrink, 1:] = -objective(shrunk)
        else:
            pts[:, n], vals[:, n] = new_pt, new_val

    last = np.argmin(vals, axis=1)
    best_val[rows] = -vals[line, last]
    best_x[rows] = pts[line, last]
    return best_val, best_x


def multistart_maximize(objective, starts, lo, hi, maxiter):
    """Run a restarted simplex search from every start; keep the best.

    objective maps a ``(..., n)`` array of points to ``(...)`` values, and
    [lo, hi] sizes the initial simplex around each row of starts ``(B, n)``.
    Each start gets up to three simplex re-runs from its own optimum to
    escape collapsed simplices; a start stops re-running once a re-run gains
    no more than 1e-13.  Ties go to the earlier restart.  Returns
    (best_value, best_params, per_start_values).
    """
    val, x = _nelder_mead_batch(objective, starts, lo, hi, maxiter)
    active = np.arange(starts.shape[0])
    for _ in range(3):
        if active.size == 0:
            break
        val2, x2 = _nelder_mead_batch(objective, x[active], lo, hi, maxiter)
        old = val[active]
        gained = val2 > old
        val[active[gained]] = val2[gained]
        x[active[gained]] = x2[gained]
        active = active[val2 > old + 1e-13]
    best = int(np.argmax(val))
    return val[best], x[best].copy(), val
