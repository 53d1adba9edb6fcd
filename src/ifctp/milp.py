"""Exact solver for small dense mixed-integer linear programs.

The programs produced by this package are tiny (tens of variables, a handful
of binaries), so the engine favours transparency over scale: best-bound
branch and bound over the binary variables, with dense numpy tableaus.  One
LP kernel, a bounded dual simplex, solves every LP: each node, the root from
the slack basis and every other node from its parent's basis, and each
answer's pattern LP from the slack basis.  An exhaustive enumeration oracle
solves every pattern the same way; it shares the kernel but not the search.

A model is one set of read-only numpy arrays (MilpModel): objective c,
constraint matrix A with row senses and right-hand sides b, variable bounds
lo and hi, and the binary indices.

Determinism: pivot, branching and node-selection rules are all fixed with
index-order tie breaking, so two runs on identical input produce identical
assignments.  A node is warm-started from its own parent's final basis,
never from the node solved just before it, so its LP depends only on its
ancestors.  The answer is not the search's incumbent point but the LP at the
incumbent's activation pattern, solved from the slack basis exactly as
oracle_solve solves that pattern; when the optimal pattern is unique, the
answer's bits depend only on the model, not on the path the search took to
the pattern.

Kernel cost: a tableau has tens of rows and columns, so numpy's per-call
overhead costs about as much as the arithmetic, and each pivot is written
with as few calls as it allows.  The update is one broadcast,
T -= col * pivot_row, with the pivot row's own entry of col zeroed.  The
model is scaled by powers of two and gets one slack per row; bounds stay
implicit, so there are no upper-bound rows.  The scaling depends on A
alone, so models derived from one another (MilpModel.derive) share it.  A
root or pattern LP starts from the slack basis, which is dual feasible
because every bound is finite (_dual_simplex).  A child differs from its
parent by one fixed binary, so the parent's optimal basis stays dual
feasible: the child factorises it and takes a few dual pivots.  The
factorisation inverts the m x m basis and multiplies; at 41 rows, on a
shared 2-core x86 VM, that took 100 us against 165 us for np.linalg.solve
with the tableau's columns as right-hand sides.  Each start basis is
inverted once (_Start): the two children of a node share their parent's
start, and the first one solved keeps the inverse for the second; the root
and the answer's pattern LP, or every pattern of the oracle, share the
slack start.  A heap entry holds that start, the parent's basis and at-upper
flags and at most the inverse, not its tableau: up to a few hundred nodes
are open at once.  A child whose key cannot beat the incumbent is not
pushed at all.

Rounding: each solved node rounds its binaries up once, ceil(x - INT_TOL),
and checks the point against every row and bound within ROUNDED_FEAS_TOL.
A point that passes, or an LP point whose binaries are all exact, is an
incumbent candidate: it is integral and feasible, whether or not its node
goes on to branch.  A node stops branching when its binaries are within
INT_TOL of integers and its point is a candidate.  Otherwise it branches on
its most fractional binary: if the check failed, a near-integral one whose
rounding breaks a row, such as an activation below INT_TOL still carrying
flow through its big-M row.

Keys: a child enters the heap keyed by its Driebeck (1966) penalty bound.
The branching binary's row and the reduced costs of the parent's final
bounded tableau bound how much the child's fix must raise the parent's LP
value (_penalties), so the key is a valid lower bound on the child's LP and
on every integral point below it.  A popped node whose key is within
IMPROVEMENT_EPS of the incumbent is pruned without an LP solve; the same
test after its LP prunes a node whose own value cannot beat the incumbent.
The penalties are clipped at zero, so round-off in a reduced cost can only
weaken a key, never prune a subtree that holds a better point.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"

PIVOT_TOL = 1e-9          # smallest acceptable pivot element / reduced cost
INT_TOL = 1e-6            # binary integrality tolerance
DEGENERATE_LIMIT = 500    # consecutive degenerate pivots before Bland's rule
ITERATION_CAP = 100_000   # hard stop against pathological cycling
DEFAULT_NODE_LIMIT = 10 ** 6
ORACLE_MAX_BINARIES = 20
# An incumbent must beat the previous one by more than this (avoids tie-flapping).
IMPROVEMENT_EPS = 1e-9
# Row and bound slack a node's rounded point may use to count as feasible.
ROUNDED_FEAS_TOL = 1e-9
# How far a basic variable may pass a bound when the dual simplex stops (scaled units).
BOUND_TOL = 1e-9


class DegeneratePivotError(RuntimeError):
    """Numerical breakdown: no acceptable pivot even under Bland's rule."""


class NodeLimitError(RuntimeError):
    """Branch and bound exhausted its node budget."""


class OracleScopeError(ValueError):
    """Problem has too many binaries for exhaustive enumeration."""


def _frozen(values, dtype) -> np.ndarray:
    array = np.array(values, dtype=dtype)
    array.flags.writeable = False
    return array


@dataclass(frozen=True, eq=False)
class MilpModel:
    """Minimization model: min c.v  s.t.  A v <senses> b,  lo <= v <= hi.

    senses holds 1 for "<=", -1 for ">=" and 0 for "=" per row of A; every
    bound is finite, so no LP is unbounded and the slack basis is dual
    feasible.  binaries lists the variables restricted to {0, 1}; each must
    be bounded within [0, 1].  Every array is a read-only copy, so solves
    can share a model and its arrays.  Models made by derive share A's
    scaling too (_bounded_form).
    """

    c: np.ndarray
    A: np.ndarray
    senses: np.ndarray
    b: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    binaries: np.ndarray

    def __init__(self, c, A, senses, b, lo, hi, binaries):
        senses = np.asarray(senses, dtype=float)
        if not np.isin(senses, (1, -1, 0)).all():
            raise ValueError("unknown relation sense; use 1 (<=), -1 (>=) or 0 (=)")
        for name, values, dtype in (("c", c, float), ("A", A, float), ("senses", senses, int),
                                    ("b", b, float), ("lo", lo, float), ("hi", hi, float),
                                    ("binaries", sorted(set(map(int, binaries))), int)):
            object.__setattr__(self, name, _frozen(values, dtype))
        self._check()
        # A's scaled bounded form, computed on the first solve; see _bounded_form.
        object.__setattr__(self, "_scaling", [])

    def derive(self, **arrays) -> MilpModel:
        """This model with some arrays other than A replaced, sharing A's scaling."""
        if "A" in arrays:
            raise TypeError("a derived model keeps its constraint matrix")
        model = dataclasses.replace(self, **arrays)
        object.__setattr__(model, "_scaling", self._scaling)
        return model

    def _check(self) -> None:
        nv = self.c.size
        if self.A.ndim != 2 or not self.A.shape[0]:
            raise ValueError("constraint matrix must be non-empty")
        m = self.A.shape[0]
        if self.c.ndim != 1 or self.A.shape[1] != nv:
            raise ValueError(f"rows have {self.A.shape[1]} coefficients, expected {nv}")
        if self.b.shape != (m,) or self.senses.shape != (m,):
            raise ValueError(f"{self.b.size} right-hand sides and {self.senses.size} "
                             f"senses for {m} rows")
        if self.lo.shape != (nv,) or self.hi.shape != (nv,):
            raise ValueError(f"{self.lo.size} lower and {self.hi.size} upper bounds "
                             f"for {nv} variables")
        if not (np.isfinite(self.A).all() and np.isfinite(self.b).all()):
            raise ValueError("constraint coefficients must be finite")
        if not np.isfinite(self.c).all():
            raise ValueError("objective coefficients must be finite")
        if not (np.isfinite(self.lo).all() and np.isfinite(self.hi).all()):
            raise ValueError("variable bounds must be finite")
        if not (self.lo <= self.hi).all():
            raise ValueError("every variable needs lo <= hi")
        if self.binaries.size:
            if self.binaries[0] < 0 or self.binaries[-1] >= nv:
                raise ValueError("binary index out of range")
            if (self.lo[self.binaries] < 0).any() or (self.hi[self.binaries] > 1).any():
                raise ValueError("binary variables must be bounded within [0, 1]")

    def value_at(self, assignment: Sequence[float]) -> float:
        return float(np.dot(self.c, assignment))


@dataclass(frozen=True)
class MilpSolution:
    """Solver outcome; assignment and objective_value are None unless optimal.

    nodes counts LP solves performed (branch-and-bound nodes, or enumerated
    patterns for the oracle); pivots counts dual simplex pivots over all of
    them, plus those of branch and bound's final pattern solve.
    """

    status: str
    objective_value: Optional[float]
    assignment: Optional[tuple[float, ...]]
    nodes: int = 0
    pivots: int = 0


# --------------------------------------------------------------------------
# bounded dual simplex, the one LP kernel
# --------------------------------------------------------------------------

def _pivot(T: np.ndarray, basis: np.ndarray, r: int, j: int) -> None:
    pivot_row = T[r]
    pivot_row /= pivot_row[j]
    col = T[:, j].copy()
    col[r] = 0.0
    T -= col[:, None] * pivot_row
    basis[r] = j


class _Start:
    """A start for _dual_simplex: a basis, its nonbasics' at-upper flags and the basis inverse.

    at_upper None puts each nonbasic at the bound its cost prefers, as the
    slack basis starts.  The inverse of M at basis is computed by the first
    LP solved from the start and reused by the others: a node's two
    children share one start, and the root and every pattern LP of one
    solve share the slack start (_bounded_form).
    """

    __slots__ = ("basis", "at_upper", "inverse")

    def __init__(self, basis: np.ndarray, at_upper: Optional[np.ndarray] = None):
        self.basis, self.at_upper, self.inverse = basis, at_upper, None

    def factor(self, M: np.ndarray) -> np.ndarray:
        if self.inverse is None:
            try:
                self.inverse = np.linalg.inv(M[:, self.basis])
            except np.linalg.LinAlgError:
                raise DegeneratePivotError("singular starting basis") from None
        return self.inverse


def _bounded_form(model: MilpModel) -> tuple:
    """(M, b, c, lo, hi, cols, slack): the model scaled, as min c.v  s.t.  M v = b,  lo <= v <= hi.

    M = [R A C | I] with diagonal R and C, powers of two, so scaling is
    exact.  Structural v_j = x_j / C_jj; column nv + i is row i's slack
    R_ii (b_i - A_i x), bounded to [0, inf) for "<=", (-inf, 0] for ">="
    and [0, 0] for "=".  Upper bounds stay implicit.  Four passes of
    geometric-mean scaling bring every row and column near magnitude one,
    so the absolute tolerances mean the same in a big-M row or at any cost
    scale.  cols holds C's diagonal.  M, R and C depend on A alone, so they
    are computed once for a model and every model derived from it.  slack
    is a fresh slack-basis _Start, shared by the LPs of one solve that start
    from it.
    """
    if not model._scaling:
        model._scaling.append(_scaled_matrix(model.A))
    M, rows, cols = model._scaling[0]
    m, nv = model.A.shape
    c = np.concatenate((model.c * cols, np.zeros(m)))
    lo = np.concatenate((model.lo / cols, np.where(model.senses < 0, -np.inf, 0.0)))
    hi = np.concatenate((model.hi / cols, np.where(model.senses > 0, np.inf, 0.0)))
    return M, model.b * rows, c, lo, hi, cols, _Start(np.arange(nv, nv + m))


def _scaled_matrix(A: np.ndarray) -> tuple[np.ndarray, ...]:
    """(M, rows, cols) of _bounded_form: [R A C | I] and the diagonals of R and C."""
    m, nv = A.shape
    magnitude = np.abs(A)
    nonzero = magnitude > 0.0
    rows = np.ones(m)
    cols = np.ones(nv)
    for axis, scale in ((1, rows), (0, cols)) * 4:
        scaled = magnitude * rows[:, None] * cols
        big = scaled.max(axis=axis)
        small = np.where(nonzero, scaled, np.inf).min(axis=axis)
        scale /= np.where(big > 0.0, np.sqrt(big) * np.sqrt(np.minimum(small, big)), 1.0)
    rows = np.exp2(np.round(np.log2(rows)))
    cols = np.exp2(np.round(np.log2(cols)))
    M = np.hstack((A * rows[:, None] * cols, np.eye(m)))
    for array in (M, rows, cols):
        array.flags.writeable = False
    return M, rows, cols


@np.errstate(over="ignore")  # an overflowing ratio is inf, never the minimum
def _dual_simplex(form, lo: np.ndarray, hi: np.ndarray, start=None):
    """Optimise from a dual feasible basis under bounds lo, hi: (status, v, pivots, state).

    form is _bounded_form's, or its (M, b, c) with another b or c, and lo, hi
    are bounds on its columns, with a node's fixes.  start is a dual feasible
    _Start, such as a parent's basis.  The slack basis (start None, or
    _bounded_form's slack) puts each structural at the bound its cost
    prefers, the upper one where the cost is negative; with every
    structural bound finite (MilpModel), that basis is dual feasible.

    Factorises M at the basis, unless an LP solved from the same start
    already did, puts every nonbasic at its lower or (by at_upper) upper
    bound, and runs the bounded dual simplex.  The leaving row has the
    largest bound violation beyond BOUND_TOL.  The entering column comes
    from the free nonbasics that move the leaving variable toward its
    bound, a reduced cost of the wrong sign (round-off) counting as zero,
    by Harris's (1973) ratio test: pass 1 finds the smallest ratio
    |d_k / a_rk| with PIVOT_TOL of slack on each d_k, pass 2 takes the
    largest |a_rk| within it, so a tiny pivot cannot win a near tie.  After
    DEGENERATE_LIMIT consecutive zero-step pivots the leaving row is the
    violated one with the lowest variable index instead, and the entering
    column the exact minimum ratio with the lowest index (Bland's rule for
    the dual).  No entering column means the bounds admit no point.  At the
    end every value within BOUND_TOL of a bound is put on it, so a fixed
    variable takes exactly its value.  state is (basis, at_upper, T,
    movable): the final basis, the final tableau B^-1 M with the
    reduced-cost row below it, and the mask of nonbasics free to move.
    """
    M, b, c = form[:3]
    m = b.size
    if start is None:
        start = _Start(np.arange(M.shape[1] - m, M.shape[1]))
    basis = start.basis.copy()
    at_upper = c < 0.0 if start.at_upper is None else start.at_upper.copy()
    v = np.where(at_upper, hi, lo)
    v[basis] = 0.0
    T = np.empty((m + 1, M.shape[1]))
    inverse = start.factor(M)
    np.matmul(inverse, M, out=T[:m])
    T[:m, basis] = np.eye(m)
    x_basic = inverse @ (b - M @ v)
    T[m] = c - c[basis] @ T[:m]
    T[m, basis] = 0.0
    costs = T[m]
    movable = lo < hi
    movable[basis] = False
    flip = np.where(at_upper, -1.0, 1.0)
    bland = False
    degenerate_run = 0
    for pivots in range(ITERATION_CAP):
        below = lo[basis] - x_basic
        above = x_basic - hi[basis]
        violation = np.maximum(below, above) - BOUND_TOL
        r = violation.argmax()
        if violation[r] <= 0.0:
            v[basis] = x_basic
            v = np.where(v - lo <= BOUND_TOL, lo, np.where(hi - v <= BOUND_TOL, hi, v))
            return OPTIMAL, v, pivots, (basis, at_upper, T, movable)
        if bland:
            r = np.where(violation > 0.0, basis, basis.size + M.shape[1]).argmin()
        leaving = basis[r]
        too_high = above[r] > below[r]
        row = T[r]
        toward = row * flip if too_high else -row * flip
        cols = (movable & (toward > PIVOT_TOL)).nonzero()[0]
        if not cols.size:
            if (movable & (toward > 1e-12)).any():
                raise DegeneratePivotError("leaving row has only sub-tolerance pivots")
            return INFEASIBLE, None, pivots, None
        alpha = toward[cols]
        dual = np.maximum(costs[cols] * flip[cols], 0.0)
        if bland:
            q = cols[(dual / alpha).argmin()]
        else:
            within = dual / alpha <= ((dual + PIVOT_TOL) / alpha).min()
            q = cols[np.where(within, alpha, 0.0).argmax()]

        if abs(costs[q]) <= PIVOT_TOL:
            degenerate_run += 1
            if degenerate_run > DEGENERATE_LIMIT:
                bland = True
        else:
            degenerate_run = 0
        target = hi[leaving] if too_high else lo[leaving]
        step = (x_basic[r] - target) / row[q]
        x_basic -= step * T[:m, q]
        x_basic[r] = v[q] + step
        v[leaving] = target
        at_upper[leaving] = too_high
        flip[leaving] = -1.0 if too_high else 1.0
        movable[leaving] = lo[leaving] < hi[leaving]
        movable[q] = False
        _pivot(T, basis, r, q)
    raise DegeneratePivotError("simplex iteration cap exceeded")


# --------------------------------------------------------------------------
# branch and bound
# --------------------------------------------------------------------------

def _node_lp(model: MilpModel, form, fixes: Mapping[int, float], start):
    """One LP by _dual_simplex, a node's or a pattern's: (status, value, x, pivots, state).

    A child starts from its parent's _Start, the root and a pattern LP
    (start None) from the form's slack start; the fixes become bounds.
    state is _dual_simplex's, None unless optimal.
    """
    lo, hi, cols = form[3].copy(), form[4].copy(), form[5]
    if fixes:
        fixed = np.fromiter(fixes.keys(), dtype=int, count=len(fixes))
        lo[fixed] = hi[fixed] = (np.fromiter(fixes.values(), dtype=float, count=len(fixes))
                                 / cols[fixed])
    status, v, pivots, state = _dual_simplex(form, lo, hi, start or form[6])
    if status != OPTIMAL:
        return status, None, None, pivots, None
    x = v[:cols.size] * cols
    return OPTIMAL, model.value_at(x), x, pivots, state


def solve_lp(model: MilpModel) -> MilpSolution:
    """Solve the continuous relaxation the way branch and bound solves its root."""
    status, value, x, pivots, _ = _node_lp(model, _bounded_form(model), {}, None)
    if status != OPTIMAL:
        return MilpSolution(status, None, None, nodes=1, pivots=pivots)
    return MilpSolution(OPTIMAL, value, tuple(map(float, x)), nodes=1, pivots=pivots)


def _penalties(form, state, j: int) -> tuple[float, float]:
    """Driebeck penalties: least objective increases for forcing binary j down, up.

    x_j is basic (a fractional variable sits at neither bound) in some row
    r of the node's final bounded tableau, x_j + sum a_rk v_k = f over the
    nonbasic v_k.  A nonbasic at its lower bound can only rise and one at
    its upper bound can only fall, so the latter enters with the opposite
    sign; fixed nonbasics cannot move at all.  Pushing x_j to 0 costs at
    least f * min d_k / a_rk over the columns that lower x_j, pushing it
    to 1 at least (1 - f) * min -d_k / a_rk over those that raise it.  No
    such column means that child is infeasible (inf).  The minima are
    clipped at zero, so round-off in a reduced cost can only weaken a
    bound.  Returns the two minima; the caller scales them by f and 1 - f.
    """
    basis, at_upper, T, movable = state
    a = T[(basis == j).argmax()]
    toward = np.where(at_upper, -a, a)
    with np.errstate(over="ignore"):
        q = np.divide(T[-1], a, out=np.full(a.size, np.inf), where=movable & (a != 0.0))
    down = np.minimum.reduce(q, where=movable & (toward > 0.0), initial=np.inf)
    up = -np.maximum.reduce(q, where=movable & (toward < 0.0), initial=-np.inf)
    per_unit = 1.0 / form[5][j]  # the tableau's x_j is scaled: x_j / C_jj
    return max(float(down) * per_unit, 0.0), max(float(up) * per_unit, 0.0)


def solve_milp(model: MilpModel, node_limit: int = DEFAULT_NODE_LIMIT) -> MilpSolution:
    """Globally optimal solution via best-bound branch and bound on the binaries.

    Node selection is best bound first: each child is keyed by its penalty
    bound, ties broken deeper-first then by creation order.  Each solved
    node's rounded point is checked once and, if it passes, is an incumbent
    candidate; a node that must branch picks the most fractional binary and
    explores the rounded-toward value first (see the module docstring).  The
    solution returned is the LP at the incumbent's activation pattern, solved
    from the slack basis.
    """
    binaries = model.binaries
    incumbent_val = math.inf
    incumbent_x: Optional[np.ndarray] = None
    # Row and bound ranges, widened by ROUNDED_FEAS_TOL, that a rounded point must meet.
    tol = ROUNDED_FEAS_TOL * np.maximum(1.0, np.abs(model.b))
    row_hi = np.where(model.senses >= 0, model.b + tol, np.inf)
    row_lo = np.where(model.senses <= 0, model.b - tol, -np.inf)
    var_hi = model.hi + ROUNDED_FEAS_TOL
    var_lo = model.lo - ROUNDED_FEAS_TOL
    form = _bounded_form(model)
    nodes = pivots = 0
    seq = itertools.count()
    # heap entries: (penalty bound, -depth, sequence, fixes,
    # the parent's final basis as a _Start, or None at the root)
    heap: list[tuple] = [(-math.inf, 0, next(seq), {}, None)]

    while heap:
        key, neg_depth, _, fixes, start = heapq.heappop(heap)
        if key >= incumbent_val - IMPROVEMENT_EPS:
            continue  # cannot beat the incumbent
        if nodes >= node_limit:
            raise NodeLimitError(f"node limit {node_limit} exceeded")
        nodes += 1
        status, value, x, lp_pivots, state = _node_lp(model, form, fixes, start)
        pivots += lp_pivots
        if status == INFEASIBLE:
            continue
        if value >= incumbent_val - IMPROVEMENT_EPS:
            continue

        point = x.copy()
        point[binaries] = np.ceil(x[binaries] - INT_TOL) + 0.0  # no -0.0 in the assignment
        rows = model.A @ point
        feasible = ((rows <= row_hi).all() and (rows >= row_lo).all()
                    and (point <= var_hi).all() and (point >= var_lo).all())
        frac = np.abs(x[binaries] - np.round(x[binaries]))  # fixed binaries give 0
        worst = frac.max(initial=0.0)
        if feasible or worst == 0.0:
            candidate = model.value_at(point)
            if candidate < incumbent_val - IMPROVEMENT_EPS:
                incumbent_val = candidate
                incumbent_x = point
            if worst <= INT_TOL:
                continue

        j = int(binaries[frac.argmax()])
        down, up = _penalties(form, state, j)
        f = x[j]
        keys = {0.0: value + f * down, 1.0: value + (1.0 - f) * up}
        depth = -neg_depth + 1
        first = 1.0 if x[j] >= 0.5 else 0.0
        shared = _Start(*state[:2])
        for branch_value in (first, 1.0 - first):
            if keys[branch_value] >= incumbent_val - IMPROVEMENT_EPS:
                continue  # pruned when popped too: the incumbent only falls
            child = dict(fixes)
            child[j] = branch_value
            heapq.heappush(heap, (keys[branch_value], -depth, next(seq), child, shared))

    if incumbent_x is None:
        return MilpSolution(INFEASIBLE, None, None, nodes, pivots)
    if not binaries.size:
        return MilpSolution(OPTIMAL, incumbent_val, tuple(map(float, incumbent_x)), nodes, pivots)
    # The answer is the LP at the incumbent's activation pattern, as oracle_solve solves it.
    status, value, x, lp_pivots, _ = _node_lp(
        model, form, {j: incumbent_x[j] for j in binaries.tolist()}, None)
    if status != OPTIMAL:
        raise DegeneratePivotError(f"the incumbent's activation pattern solved {status}")
    return MilpSolution(OPTIMAL, value, tuple(map(float, x)), nodes, pivots + lp_pivots)


def oracle_solve(model: MilpModel) -> MilpSolution:
    """Reference answer by brute force: try every 0/1 pattern of the binaries.

    Each pattern's LP is solved from the slack basis, as solve_milp solves
    its answer's pattern, so the oracle shares the LP kernel.  It is a check
    on the search, not on the kernel: it knows no bounds, pruning or warm
    starts.  The kernel itself is checked against a textbook simplex and
    HiGHS in the tests.  Refuses more than ORACLE_MAX_BINARIES binaries.
    """
    binaries = model.binaries.tolist()
    if len(binaries) > ORACLE_MAX_BINARIES:
        raise OracleScopeError(
            f"{len(binaries)} binaries exceed the oracle's scope of {ORACLE_MAX_BINARIES}")
    form = _bounded_form(model)
    best_val = math.inf
    best_x: Optional[np.ndarray] = None
    solves = pivots = 0
    for pattern in itertools.product((0.0, 1.0), repeat=len(binaries)):
        solves += 1
        status, value, x, lp_pivots, _ = _node_lp(model, form, dict(zip(binaries, pattern)), None)
        pivots += lp_pivots
        if status == OPTIMAL and value < best_val:
            best_val = value
            best_x = x
    if best_x is None:
        return MilpSolution(INFEASIBLE, None, None, solves, pivots)
    return MilpSolution(OPTIMAL, best_val, tuple(map(float, best_x)), solves, pivots)
