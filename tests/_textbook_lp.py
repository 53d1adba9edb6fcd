"""An independent LP reference for the tests: the textbook two-phase tableau simplex.

The package solves every LP with its scaled bounded dual simplex.  This is a
second, unscaled engine written loop by loop, with explicit artificial
columns and absolute tolerances; it shares no code with the package.
"""

import numpy as np

PIVOT_TOL = 1e-9   # smallest acceptable pivot element / reduced cost
FEAS_TOL = 1e-7    # largest phase-1 residual of a feasible LP
DEGENERATE_LIMIT = 500

_RELATION = {1: "<=", -1: ">=", 0: "="}


def textbook_standard_lp(c, A, relations, b):
    """min c.x  s.t.  A x <relations> b,  x >= 0, by the full-tableau two-phase simplex.

    Dantzig's entering rule, falling back to Bland's rule after
    DEGENERATE_LIMIT consecutive degenerate pivots.  Returns (status, x,
    pivots); x is None unless the status is "optimal".
    """
    tol = PIVOT_TOL
    pivots = 0

    def pivot(T, basis, r, j):
        nonlocal pivots
        pivots += 1
        T[r, :] /= T[r, j]
        col = T[:, j].copy()
        col[r] = 0.0
        T -= np.outer(col, T[r, :])
        basis[r] = j

    def run(T, basis, n_enterable):
        m = len(basis)
        bland, degenerate_run = False, 0
        while True:
            costs = T[-1, :n_enterable]
            candidates = np.flatnonzero(costs < -tol)
            if candidates.size == 0:
                return "optimal"
            j = int(candidates[0]) if bland else int(candidates[np.argmin(costs[candidates])])
            col = T[:m, j]
            eligible = col > tol
            if not eligible.any():
                return "unbounded"
            ratios = np.full(m, np.inf)
            ratios[eligible] = T[:m, -1][eligible] / col[eligible]
            r = int(np.argmin(ratios))
            if bland:
                tied = np.flatnonzero(ratios <= ratios[r] + 1e-12)
                r = int(tied[np.argmin(basis[tied])])
            if T[r, -1] <= tol:
                degenerate_run += 1
                bland = bland or degenerate_run > DEGENERATE_LIMIT
            else:
                degenerate_run = 0
            pivot(T, basis, r, j)

    m, n = A.shape
    A, b, relations = A.copy(), b.copy(), list(relations)
    for i in range(m):
        if b[i] < 0:
            A[i], b[i] = -A[i], -b[i]
            relations[i] = {"<=": ">=", ">=": "<=", "=": "="}[relations[i]]
    slacks = [(i, 1.0 if rel == "<=" else -1.0) for i, rel in enumerate(relations) if rel != "="]
    arts = [i for i, rel in enumerate(relations) if rel != "<="]
    n_real = n + len(slacks)
    T = np.zeros((m + 1, n_real + len(arts) + 1))
    T[:m, :n], T[:m, -1] = A, b
    basis = np.full(m, -1)
    for k, (i, sign) in enumerate(slacks):
        T[i, n + k] = sign
        if sign > 0:
            basis[i] = n + k
    for k, i in enumerate(arts):
        T[i, n_real + k] = 1.0
        basis[i] = n_real + k
    if arts:
        T[-1, n_real:n_real + len(arts)] = 1.0
        for r in range(m):
            if basis[r] >= n_real:
                T[-1, :] -= T[r, :]
        run(T, basis, n_real)
        if -T[-1, -1] > FEAS_TOL:
            return "infeasible", None, pivots
        keep = np.ones(m, dtype=bool)
        for r in range(m):
            if basis[r] >= n_real:
                options = np.flatnonzero(np.abs(T[r, :n_real]) > tol)
                if options.size:
                    pivot(T, basis, r, int(options[0]))
                else:
                    keep[r] = False
        T = np.vstack([T[:m][keep], T[m:]])
        basis = basis[keep]
        m = len(basis)
        T = np.delete(T, np.s_[n_real:n_real + len(arts)], axis=1)
    T[-1, :] = 0.0
    T[-1, :n] = c
    for r in range(m):
        cj = T[-1, basis[r]]
        if cj != 0.0:
            T[-1, :] -= cj * T[r, :]
    if run(T, basis, n_real) == "unbounded":
        return "unbounded", None, pivots
    x = np.zeros(n)
    for r in range(m):
        if basis[r] < n:
            x[basis[r]] = T[r, -1]
    return "optimal", x, pivots


def textbook_relaxation(model, fixes):
    """(status, value, x) of a MilpModel's LP relaxation with the variables in fixes pinned.

    Fixed variables are substituted out, rows left without a free variable
    are checked as plain comparisons, and upper bounds (finite in every
    MilpModel) become rows.
    """
    lo, hi = model.lo.copy(), model.hi.copy()
    for j, value in fixes.items():
        lo[j] = hi[j] = value
    if (lo > hi + 1e-12).any():
        return "infeasible", None, None
    free = np.flatnonzero(hi - lo > 0)
    b = model.b - model.A @ lo
    live = np.abs(model.A[:, free]).max(axis=1, initial=0.0) > 1e-12
    slack = np.where(model.senses[~live] > 0, b[~live], -b[~live])
    tol = FEAS_TOL * np.maximum(1.0, np.abs(model.b[~live]))
    if ((slack < -tol) | ((model.senses[~live] == 0) & (np.abs(b[~live]) > tol))).any():
        return "infeasible", None, None
    A = np.vstack((model.A[live][:, free], np.eye(free.size)))
    b = np.concatenate((b[live], (hi - lo)[free]))
    relations = [_RELATION[s] for s in model.senses[live]] + ["<="] * free.size
    status, u, _ = textbook_standard_lp(model.c[free], A, relations, b)
    if status != "optimal":
        return status, None, None
    x = lo.copy()
    x[free] += u
    return "optimal", model.value_at(x), x
