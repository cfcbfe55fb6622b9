"""Hot numeric kernels: the closed-form B1 objective and a multistart simplex.

Everything here is plain numpy.  The objective broadcasts over any leading
axes (scalar calls work too).  The simplex search maximizes any objective
callable that broadcasts over a ``(..., n)`` population; it advances every
restart of a multistart search together as one ``(B, n + 1, n)`` array, so a
search costs a few array operations per iteration instead of a Python loop
per restart.  Each iteration builds the four points a simplex may move to
(reflection, expansion, outside and inside contraction) as one
``(B, 4, n)`` array and evaluates them with one objective call; only a
shrink calls the objective again.  The caller sets how often a start may run
again from its own optimum: the B1 searches run each start once, since a
second run moved no B1 best value by more than 4.4e-16, while the general
functional search allows up to four runs, which free d = 3 simplices that
collapse short of a maximum.

Both B1 searches share one objective, over the block effects
E_(+|x) = a_x(1 + b_x c_x.sigma) (+) 1_(d-2) with parameters
(a0, b0, a1, b1, theta) and the analytically optimal states in the qubit
block.  The qubit search calls it at d = 2, the maximally mixed qudit search
at p = 0 and w = 1.

Parameters are projected onto their constraint set (``project``) inside the
objective, so the simplex search runs over a plain box.  Numpy calls, not
arithmetic, bound a search: column views, a one-gather sort and one
objective call per step keep them few.  The d = 3 functional search is no
exception: on the few rows a search keeps active, each Jacobi rotation of
its objective is about 30 ufunc calls, so a step's four points cost about
what one would.
"""

from __future__ import annotations

import math

import numpy as np

BACKEND = "numpy"

# convergence: a simplex's values within FTOL and its vertices within XTOL of its best
FTOL = 1e-12
XTOL = 1e-10

# (lo, hi) search box over the constraint set that ``project`` enforces
BOX = (np.zeros(5), np.array([1.0, 1.0, 1.0, 1.0, math.pi]))

# expansion goes twice, a contraction half the way from the centroid to the
# reflection (expansion, outside contraction) or to the worst vertex (inside)
_TRIAL_STEPS = np.array([[2.0], [0.5], [0.5]])


def project(params):
    """Project B1 search parameters (last axis of size 5) onto their constraints.

    Each (a, b) pair is clipped to 0 <= b <= 1 and 0 <= a <= 1/(1 + b);
    theta is kept.  The projection is idempotent, so a projected point has
    the same objective value as the point it came from.  Entries match a
    batched np.clip bitwise.
    """
    return np.stack(_projected_columns(params), axis=-1)


def _projected_columns(params):
    # np.clip(b, 0, 1) keeps b on a tie with 0, and np.clip(a, 0, hi) over a
    # batch takes the bound; np.maximum and np.minimum take their 2nd operand
    x = np.asarray(params, dtype=float)
    cols = [x[..., 0], x[..., 1], x[..., 2], x[..., 3], x[..., 4]]
    for i in (0, 2):
        b = cols[i + 1] = np.minimum(np.maximum(0.0, cols[i + 1]), 1.0)
        cols[i] = np.minimum(np.maximum(cols[i], 0.0), 1.0 / (1.0 + b))
    return cols


def _objective(params, p, w, d):
    """B1 at params (..., 5), projected, for the input
    (2/d)(1 + p n.sigma)/2 (+) 1_(d-2)/d with n optimal and post states of
    Bloch length w in the qubit block; c0 = z and c1 at angle theta.

    With q_x = a_x b_x and X_x = 1 + a_x - a_(1-x) + w |q0 c0 - q1 c1|,
    B1 = sum_x (2 a_x + d - 2)/d X_x + (2/d) p |q0 X0 c0 + q1 X1 c1|.
    p, w and d broadcast against the leading axes of params.  The weight
    (2 a_x + d - 2)/d keeps the qudit search's bits; at d = 2 it rounds a_x
    through [2, 4] first, so it is a_x only to within about 2e-16.
    """
    a0, b0, a1, b1, theta = _projected_columns(params)
    x = np.cos(theta)
    q0, q1 = a0 * b0, a1 * b1
    qq0, qq1, qq01 = q0 * q0, q1 * q1, 2.0 * q0 * q1
    # |q0 c0 - q1 c1| and the post-state alignment terms
    wm = w * np.sqrt(np.maximum(qq0 + qq1 - qq01 * x, 0.0))
    x0 = 1.0 + a0 - a1 + wm
    x1 = 1.0 + a1 - a0 + wm
    value = (2.0 * a0 + d - 2.0) / d * x0 + (2.0 * a1 + d - 2.0) / d * x1
    # |q0 X0 c0 + q1 X1 c1| for the input-state alignment; at p = 0 the term
    # is +0.0 and leaves value's bits as they are
    m_sq = qq0 * x0 * x0 + qq1 * x1 * x1 + qq01 * x0 * x1 * x
    return value + 2.0 / d * p * np.sqrt(np.maximum(m_sq, 0.0))


def multistart_maximize(objective, starts, lo, hi, maxiter, runs):
    """Run a restarted simplex search from every start; keep the best.

    objective maps a ``(..., n)`` array of points to ``(...)`` values, and
    [lo, hi] sizes the initial simplex around each row of starts ``(B, n)``.
    Standard Nelder-Mead (reflection 1, expansion 2, contraction 1/2,
    shrink 1/2) on the negated objective, one simplex per start, all
    advanced in lockstep.  Each step evaluates all four candidates of every
    active simplex in one ``(B, 4, n)`` objective call and keeps the one
    that the standard acceptance tests pick, so every row follows the
    one-simplex-at-a-time method bit for bit; a shrink evaluates its n new
    vertices in a second call.  Each step first sorts the vertices stably,
    so tied vertices keep their order on every CPU.

    A run ends once its simplex converges (FTOL, XTOL) or after ``maxiter``
    steps, with its best vertex.  Once every run has ended, the starts
    whose run gained more than 1e-13 on the one before run again from a
    fresh simplex around that vertex, up to ``runs`` runs in all (1: no
    start runs again); this frees simplices that collapse short of a
    maximum.  Ties go to the earlier start.  Returns (best_value,
    best_params, per_start_values).
    """
    n_rows, n = starts.shape
    size = 0.1 * (hi - lo)
    diag = np.arange(n)
    best_val = np.full(n_rows, -np.inf)
    best_x = starts.astype(float)  # each start's best vertex; a run begins there
    again = np.ones(n_rows, dtype=bool)  # the starts of the next run
    rows = np.empty(0, dtype=int)  # the starts of the current run still active
    run = 0

    while True:
        if rows.size == 0:  # every run has ended: the next one begins
            rows = np.flatnonzero(again)
            if rows.size == 0 or run == runs:
                break
            again[:] = False
            run, step = run + 1, 0
            x = best_x[rows]
            pts = np.repeat(x[:, None, :], n + 1, axis=1)
            up = x + size
            pts[:, diag + 1, diag] = np.where(up > hi, x - size, up)
            vals = -objective(pts)
            line = np.arange(rows.size)  # index of each active row into the active arrays
            gather = line[:, None]

        order = np.argsort(vals, axis=1, kind="stable")
        pts, vals = pts[gather, order], vals[gather, order]
        done = vals[:, n] - vals[:, 0] < FTOL
        if done.any():  # the vertex spread only matters where FTOL holds
            near = pts[done]
            done[done] = np.abs(near[:, 1:] - near[:, :1]).reshape(len(near), -1).max(1) < XTOL
        if step == maxiter:
            done[:] = True
        if done.any():
            r, val = rows[done], -vals[done, 0]
            again[r] = val > best_val[r] + 1e-13
            gained = val > best_val[r]
            best_val[r[gained]] = val[gained]
            best_x[r[gained]] = pts[done, 0][gained]
            pts, vals, rows = pts[~done], vals[~done], rows[~done]
            if rows.size == 0:
                continue
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
        step += 1

    best = int(np.argmax(best_val))
    return best_val[best], best_x[best].copy(), best_val
