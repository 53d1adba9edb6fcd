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
incumbent's activation pattern, solved in the search's own form from its
slack basis; in the bounded form that is exactly how oracle_solve solves the
pattern.  When the optimal pattern is unique, the answer's bits depend only
on the model and the form, not on the path the search took to the pattern.
No basis is inverted by LAPACK and no product is taken by BLAS: each product
is an np.einsum, summed in numpy's own loops, so the bits do not depend on
the BLAS library, its CPU kernel or its thread count.  They may depend on the
numpy version and on numpy's own SIMD dispatch.  A slack start takes no
product but gives the same bytes (_Start.tableau).

Kernel cost: a tableau has tens of rows and columns, so numpy's per-call
overhead costs about as much as the arithmetic, and each pivot is written
with as few calls as it allows.  The update is one broadcast,
T -= col * pivot_row, with the pivot row's own entry of col zeroed.  The
model is scaled by powers of two and gets one slack per row; bounds stay
implicit, so there are no upper-bound rows.  The objective gets one power
of two of its own.  Every LP start is a basis with its nonbasics'
at-upper flags and its basis inverse (_Start).  A root or pattern LP
starts from the slack basis, each column at the bound its cost prefers,
which is dual feasible because every bound is finite (_dual_simplex); its
inverse is the identity.  A child differs from its parent by one fixed
binary, so the parent's optimal basis stays dual feasible: the child starts
from it and takes a few dual pivots.  A child that ends there infeasible or
in a breakdown is solved again from the slack start.  A branched node's
start takes its inverse from the slack block of the node's final tableau,
which holds B^-1 because M ends in I.  The first child solved refines it by
one Newton-Schulz step and keeps it for the second; the root, the answer's
pattern LP and every child solved again, or every pattern of the oracle,
share the slack start.  A branched start's tableau takes one product, the
inverse times M's structural columns, with the inverse copied into the slack
block; a slack start's takes none (_Start).  A heap entry holds a branched
start, the parent's basis, at-upper flags and m x m inverse, not its
tableau: up to a few hundred nodes are open at once.  A child whose key
cannot beat the incumbent is not pushed at all.  solve_milp, oracle_solve
and solve_lp ignore overflow, setting the error state once per solve, not
per LP: an overflowing ratio is inf, never the minimum, and _form rejects an
overflowed cost.  solve_milp takes a form's constraint part (scaled rows,
slacks; constraint_part) and redoes only its costs and structural bounds,
so pipeline.Stages builds each constraint set's part once per run.

Rounding: each solved node rounds its binaries up, ceil(x).  If that
point's value is strictly below the incumbent's, it is checked against
every bound within ROUNDED_FEAS_TOL and every row within ROUNDED_FEAS_TOL
times |b_i| (absolute where b_i is 0): a max-min level row at costs times
2^-36 has b_i near 3e-9, so an absolute 1e-9 let a point at level 1.0
pass it.  A point that passes, or an LP point whose binaries are all
exact, replaces the incumbent, whether or not its node goes on to branch;
a point that cannot beat the incumbent is not checked at all.  A
node stops branching only when its binaries are exactly 0 or 1 (the kernel
puts a value within BOUND_TOL of a bound on it); otherwise it branches on
its most fractional binary.

Keys: a child enters the heap keyed by its Driebeck (1966) penalty bound
(_child_keys).  The branched variable's row and the reduced costs of the
parent's final tableau bound how much the child's fix must raise the
parent's LP value, so the key is a valid lower bound on the child's LP and
on every integral point below it.  A popped node whose key is at or above
the incumbent is pruned without an LP solve; the same test after its LP
prunes a node whose own value cannot beat the incumbent.
Every comparison with the incumbent is exact: a margin in the objective's
unit would grow with the costs, and at unit costs times 1e9 one hid an
optimum 4 below the incumbent.
The penalties are clipped at zero, so round-off in a reduced cost can only
weaken a key, never prune a subtree that holds a better point.

Shipment-only node LPs: given a shipment part, over the rows that link
each binary x_j to the shipment y_k it switches on, y_k - M x_j <= 0,
solve_milp solves each node as a transportation LP over the shipments
alone (_shipment_part; Balinski 1961), about a third of the full
tableau's rows.  One constructor, _form, builds either kind of form from
its part.  The search is the same; only its LP form differs (_Form's
links), and with it what a fix does (_node_lp) and how a child is keyed
(_child_keys).  An opened route changes a cost, so its child's warm start
may flip nonbasics (_dual_simplex).  The answer's pattern LP is a
shipment-only LP too, lifted to the full model, so such a solve never
builds the bounded form; the rounding check and the leaves stay the full
model's.

Leaves: a search covers the subtrees its within argument names, each a
dict of binary fixes entered from the slack basis; the default ({},) is the
whole space.  Each subtree it closes with a finite bound is a leaf, a
(bound, fixes) pair in MilpSolution.leaves: popped with a key that cannot
beat the incumbent (the key), pruned by its LP value or stopped as
integral (the LP value), or not pushed because of its key (the key).  A
node's fixes are its branching path, so each leaf is a popped node or a
child not pushed, and a search closes at most nodes + len(within) leaves.
The leaves and the LP-infeasible subtrees, an infinite key among them,
partition within, and no point of a leaf has a value below its bound.  A
second search over the same constraints can then be handed only the
leaves that may hold its points (pipeline.Stages.compromise).
"""

from __future__ import annotations

import contextlib
import dataclasses
import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Optional, Sequence

import numpy as np

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"

PIVOT_TOL = 1e-9          # smallest acceptable pivot element / reduced cost
DEGENERATE_LIMIT = 500    # consecutive degenerate pivots before Bland's rule
ITERATION_CAP = 100_000   # hard stop against pathological cycling
DEFAULT_NODE_LIMIT = 10 ** 6
ORACLE_MAX_BINARIES = 20
# Slack a node's rounded point may use to count as feasible: times |b_i| for a row
# with b_i != 0, absolute for the other rows and the bounds.
ROUNDED_FEAS_TOL = 1e-9
# How far a basic variable may pass a bound when the dual simplex stops: in
# scaled units, and relative to the variable's magnitude above 1.
BOUND_TOL = 1e-9
# A matrix entry below this share of its row's (column's) largest does not set
# that row's (column's) scale: a fixed charge of 1e-16 in a level row of costs
# near 10, scaled to one, would push the row's other entries toward 1e8.
SCALE_FLOOR = 2.0 ** -40


class DegeneratePivotError(RuntimeError):
    """Numerical breakdown: no acceptable pivot even under Bland's rule."""


class NodeLimitError(RuntimeError):
    """Branch and bound exhausted its node budget."""


class OracleScopeError(ValueError):
    """Problem has too many binaries for exhaustive enumeration."""


def _frozen(name: str, values) -> np.ndarray:
    """A read-only copy of the values of MilpModel field name, with its dtype."""
    if name == "senses":
        values = np.asarray(values, dtype=float)
        if not ((values == 0.0) | (np.abs(values) == 1.0)).all():
            raise ValueError("unknown relation sense; use 1 (<=), -1 (>=) or 0 (=)")
    elif name == "binaries":
        values = sorted(set(map(int, values)))
    array = np.array(values, dtype=int if name in ("senses", "binaries") else float)
    array.flags.writeable = False
    return array


@dataclass(frozen=True, eq=False)
class MilpModel:
    """Minimization model: min c.v  s.t.  A v <senses> b,  lo <= v <= hi.

    senses holds 1 for "<=", -1 for ">=" and 0 for "=" per row of A; every
    bound is finite, so no LP is unbounded and the slack basis is dual
    feasible.  binaries lists the variables restricted to {0, 1}; each must
    be bounded within [0, 1].  Every array is a read-only copy, so solves
    can share a model, and dataclasses.replace makes a checked copy with
    some arrays replaced.
    """

    c: np.ndarray
    A: np.ndarray
    senses: np.ndarray
    b: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    binaries: np.ndarray

    def __init__(self, c, A, senses, b, lo, hi, binaries):
        for name, values in zip(_FIELDS, (c, A, senses, b, lo, hi, binaries)):
            object.__setattr__(self, name, _frozen(name, values))
        self._check()

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
        return float(np.einsum("i,i->", self.c, assignment))


_FIELDS = tuple(field.name for field in dataclasses.fields(MilpModel))


@dataclass(frozen=True)
class MilpSolution:
    """Solver outcome; assignment and objective_value are None unless optimal.

    nodes counts LP solves performed (branch-and-bound nodes, or enumerated
    patterns for the oracle), pivots their dual simplex pivots and those of
    branch and bound's final pattern solve, but none of a run that raised
    (_node_lp).  leaves holds a (bound, fixes) pair for each subtree branch
    and bound closed with a finite bound (solve_milp); the oracle has none.
    """

    status: str
    objective_value: Optional[float]
    assignment: Optional[tuple[float, ...]]
    nodes: int = 0
    pivots: int = 0
    leaves: tuple[tuple[float, dict[int, float]], ...] = ()


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

    Every start of a form shares the form's one identity.  A form's slack
    start puts each nonbasic at the bound its own cost prefers, the upper
    one where the cost is negative (_form); its inverse is that identity
    array itself, so its tableau and basic values take no product.  A
    branched node's start takes the inverse from the slack block of the
    node's final tableau, where B^-1 M holds B^-1 because M ends in I.  That
    block carries the round-off of every pivot, so the first LP solved from
    the start refines it by one Newton-Schulz step, X + X (I - B X) with B
    the basis columns of M, which squares its residual I - B X.  Unrefined,
    the blocks reached a residual of 3e-5 on the shipped instance at costs
    times 1e40 and quantities times 1e-10, and two test inputs got wrong
    answers.  A node's two children share one start, and the second reuses
    the refined inverse.
    """

    __slots__ = ("basis", "at_upper", "inverse", "identity", "refined")

    def __init__(self, basis: np.ndarray, at_upper: np.ndarray, inverse: np.ndarray,
                 identity: np.ndarray, refined: bool = False):
        self.basis, self.at_upper, self.inverse = basis, at_upper, inverse
        self.identity, self.refined = identity, refined

    def tableau(self, M: np.ndarray, c: np.ndarray) -> np.ndarray:
        """B^-1 M over the reduced costs c - c_B B^-1 M, the inverse refined first if due.

        The slack start's is M + 0.0, the bytes np.einsum gives for I M: it sums
        from +0, which also turns -0.0 into +0.0.
        """
        m = self.basis.size
        T = np.empty((m + 1, M.shape[1]))
        if self.inverse is self.identity:
            np.add(M, 0.0, out=T[:m])
        else:
            if not self.refined:
                X = self.inverse
                residual = self.identity - np.einsum("ij,jk->ik", M[:, self.basis], X)
                self.inverse = X + np.einsum("ij,jk->ik", X, residual)
                self.refined = True
            n = M.shape[1] - m
            T[:m, :n] = np.einsum("ij,jk->ik", self.inverse, M[:, :n])
            T[:m, n:] = self.inverse  # M ends in I
            T[:m, self.basis] = self.identity
        T[m] = c - np.einsum("i,ij->j", c[self.basis], T[:m])
        T[m, self.basis] = 0.0
        return T

    def solve(self, r: np.ndarray) -> np.ndarray:
        """B^-1 r, for a fresh array r: the slack start's is r + 0.0, in r itself."""
        if self.inverse is self.identity:
            r += 0.0
            return r
        return np.einsum("ij,j->i", self.inverse, r)


class _Form(NamedTuple):
    """An LP form: min c.v  s.t.  M v = b,  lo <= v <= hi, in scaled units.

    Structural v_j = x_j / cols_j.  c is the scaled objective divided by
    unit, so reduced costs times unit are in the model's objective units.
    slack is the form's slack-basis _Start, shared by the LPs of one solve
    that start from it.  links is None for a bounded part's form, and the
    route data of a shipment part's otherwise (_form).
    """

    M: np.ndarray
    b: np.ndarray
    c: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    cols: np.ndarray
    slack: _Start
    unit: float
    links: Optional[tuple] = None


class _Part(NamedTuple):
    """A constraint part (constraint_part): scaled M and b, the structural columns'
    scales, the slacks' bounds and np.eye(b.size), which every start of its forms
    shares.  A shipment part keeps its routes (cont, column, big_m)."""

    M: np.ndarray
    b: np.ndarray
    cols: np.ndarray
    slack_lo: np.ndarray
    slack_hi: np.ndarray
    identity: np.ndarray
    routes: Optional[tuple] = None


def constraint_part(model: MilpModel, link_rows: Optional[Sequence[int]] = None) -> _Part:
    """What every form over model's constraints shares, whatever its objective: the
    bounded part of model's A, senses and b, or the shipment-only part (_shipment_part)
    over link_rows of its A, senses, b, lo, hi and binaries.

    The bounded part has a slack per row: M = [R A C | I].  R and C are
    diagonal, powers of two, so scaling is exact; cols holds C's diagonal.
    Column nv + i is row i's slack R_ii (b_i - A_i x), bounded to [0, inf)
    for "<=", (-inf, 0] for ">=" and [0, 0] for "=".  Upper bounds stay
    implicit.  Four passes of geometric-mean scaling bring every row and
    column near magnitude one, so the absolute pivot tolerance means the
    same in a big-M row; an entry below SCALE_FLOOR of its row's or
    column's largest is left out of the geometric mean.
    """
    if link_rows is not None:
        return _shipment_part(model, link_rows)
    M, rows, cols = _scaled_matrix(model.A)
    return _Part(M, model.b * rows, cols, np.where(model.senses < 0, -np.inf, 0.0),
                 np.where(model.senses > 0, np.inf, 0.0), np.eye(rows.size))


def _form(model: MilpModel, part: _Part) -> _Form:
    """model's objective and bounds over part (constraint_part) as a _Form.

    A bounded part's form is the whole model.  A shipment part's is a
    fixed-charge model's shipment-only node LP, with links.  Link row t
    reads y_k - M_t x_j <= 0 for binary j = binaries[t] and the continuous
    column y_k it switches on, which is boxed at [0, M_t]; x_j is in no
    other row and costs f_t >= 0.  Some optimum of every LP relaxation then
    has x_j = y_k / M_t, so a node's LP is an LP over the continuous columns
    and the other rows alone (Balinski 1961): a free route costs c_k + f_t /
    M_t per unit, an open one c_k plus the constant f_t, and a closed one is
    boxed at [0, 0] (_node_lp).  c holds the free routes' costs.  links is
    (cont, column, big_m, charge, c_open): the continuous columns, the
    position of each binary's y_k among them, M_t, f_t, and c with every
    route open.

    unit is the power of two nearest the scaled costs' largest magnitude (1
    if they are all zeros), so the reduced-cost tolerances mean the same at
    any cost scale: c and 2^k c pivot alike, bit for bit.  The slacks cost
    0, and the slack start puts each column at its upper bound where its
    cost is negative.  A cost that overflowed to inf while being scaled is a
    numerical breakdown.
    """
    cols = part.cols
    if part.routes is None:
        c, lo, hi = model.c * cols, model.lo, model.hi
    else:
        cont, column, big_m = part.routes
        charge = model.c[model.binaries]
        if (charge < 0.0).any():
            raise ValueError("every link row's binary x must cost >= 0")
        per_unit = np.zeros(cont.size)
        per_unit[column] = charge / np.where(big_m > 0.0, big_m, np.inf)
        c, lo, hi = (model.c[cont] + per_unit) * cols, model.lo[cont], model.hi[cont]
    if not np.isfinite(c).all():
        raise DegeneratePivotError("the scaled objective overflows a float")
    top = np.abs(c).max(initial=0.0)
    unit = float(np.exp2(np.round(np.log2(top)))) if top > 0.0 else 1.0
    m, nv = part.b.size, c.size
    c = np.concatenate((c / unit, np.zeros(m)))
    slack = _Start(np.arange(nv, nv + m), c < 0.0, part.identity, part.identity, refined=True)
    links = None if part.routes is None else (  # c_open: every route open
        cont, column, big_m, charge, np.concatenate((model.c[cont] * cols / unit, np.zeros(m))))
    return _Form(part.M, part.b, c, np.concatenate((lo / cols, part.slack_lo)),
                 np.concatenate((hi / cols, part.slack_hi)), cols, slack, unit, links)


def _scaled_matrix(A: np.ndarray) -> tuple[np.ndarray, ...]:
    """(M, rows, cols) of a bounded part: [R A C | I] and the diagonals of R and C."""
    m, nv = A.shape
    magnitude = np.abs(A)
    rows = np.ones(m)
    cols = np.ones(nv)
    for axis, scale in ((1, rows), (0, cols)) * 4:
        scale /= _geometric_mean(magnitude * rows[:, None] * cols, axis)
    rows = np.exp2(np.round(np.log2(rows)))
    cols = np.exp2(np.round(np.log2(cols)))
    M = np.hstack((A * rows[:, None] * cols, np.eye(m)))
    return M, rows, cols


def _geometric_mean(scaled: np.ndarray, axis: int) -> np.ndarray:
    """Per line of scaled along axis: the geometric mean of its largest entry and its
    smallest entry not below SCALE_FLOOR of that, or 1 for a line of zeros."""
    big = scaled.max(axis=axis, keepdims=True)
    small = np.where(scaled >= SCALE_FLOOR * big, scaled, np.inf).min(axis=axis, keepdims=True)
    return np.where(big > 0.0, np.sqrt(big) * np.sqrt(small), 1.0).ravel()


def _shipment_part(model: MilpModel, link_rows: Sequence[int]) -> _Part:
    """The shipment-only constraint part over link_rows (_form): the other rows over
    the continuous columns.

    Column k is scaled by the power of two nearest M_t (1 where M_t is 0),
    and each row by the one nearest the geometric mean of its largest and
    smallest entry over the columns that can move, so that BOUND_TOL is
    relative to the quantities in every unit.  Each slack is boxed at the
    range its row implies, so every column has two finite bounds:
    _dual_simplex can flip any nonbasic after a cost change, and _child_keys
    can weigh each nonbasic's box.
    """
    binaries = model.binaries
    links = np.array(link_rows, dtype=int)
    # np.delete and np.bincount, not np.setdiff1d or np.unique: those import
    # numpy.ma on first use, which grew each process's heap by about 0.5 MB.
    cont = np.delete(np.arange(model.lo.size), binaries)
    rows = np.delete(np.arange(model.b.size), links)
    column = model.A[links][:, cont].argmax(axis=1)
    big_m = model.hi[cont[column]]
    expected = np.zeros((links.size, model.lo.size))
    expected[np.arange(links.size), cont[column]] = 1.0
    if links.size == binaries.size:
        expected[np.arange(links.size), binaries] = -big_m
    if (links.size != binaries.size or np.bincount(column).max(initial=0) > 1
            or not np.array_equal(model.A[links], expected) or model.A[rows][:, binaries].any()
            or (model.senses[links] != 1).any() or model.b[links].any()
            or model.lo[cont[column]].any()):
        raise ValueError("every link row must read y - M x <= 0 with y boxed at [0, M], for a "
                         "binary x in no other row")
    A, senses, b = model.A[rows][:, cont], model.senses[rows], model.b[rows]
    lo, hi = model.lo[cont], model.hi[cont]
    cols = np.ones(cont.size)
    cols[column] = np.exp2(np.round(np.log2(np.where(big_m > 0.0, big_m, 1.0))))
    scale = np.exp2(-np.round(np.log2(_geometric_mean(np.abs(A) * cols * (lo < hi), 1))))
    low, high = A * lo, A * hi
    slack_lo = np.maximum(np.where(senses < 0, -np.inf, 0.0),
                          scale * (b - np.maximum(low, high).sum(axis=1)))
    slack_hi = np.minimum(np.where(senses > 0, np.inf, 0.0),
                          scale * (b - np.minimum(low, high).sum(axis=1)))
    return _Part(np.hstack((A * scale[:, None] * cols, np.eye(b.size))), b * scale, cols,
                 np.minimum(slack_lo, slack_hi), slack_hi, np.eye(b.size), (cont, column, big_m))


def _dual_simplex(form, lo: np.ndarray, hi: np.ndarray, start: _Start):
    """Optimise from a dual feasible basis under bounds lo, hi: (status, v, pivots, state).

    form is a _Form, or its (M, b, c) with another c, and lo, hi are bounds
    on its columns, with a node's fixes.  start is a _Start: the form's
    slack start, which puts each structural at the bound its cost prefers,
    or a parent's basis.  With every structural bound finite (MilpModel),
    the slack start is dual feasible.  A parent's basis is dual feasible for
    a child that changes only bounds.  An LP whose costs are not its start's
    (an opened route, _node_lp) can leave a nonbasic's reduced cost of the
    wrong sign: each such nonbasic, wrong by more than PIVOT_TOL, starts at
    its other bound instead when that bound is finite (always, in a shipment
    form).  In a bounded form only round-off makes a reduced cost wrong, and
    an inequality row's slack, with one finite bound, stays put.

    Takes the tableau from the start (_Start), with no product for the
    slack start, puts every nonbasic at its lower or (by at_upper) upper
    bound, takes the basic values from the start too, and runs the bounded
    dual simplex.  The solve that calls it ignores overflow, once per solve.  A basic
    value is violated when it passes a bound by more than BOUND_TOL times
    max(1, |value|): round-off grows with the value, so a fixed absolute
    slack would call a basic value of 1e6 that one update left a few ulps
    past its bound infeasible.  The leaving row has the largest violation.  The entering
    column comes from the free nonbasics that move the leaving variable
    toward its bound, a reduced cost of the wrong sign (round-off) counting
    as zero, by Harris's (1973) ratio test: pass 1 finds the smallest ratio
    |d_k / a_rk| with PIVOT_TOL of slack on each d_k, pass 2 takes the
    largest |a_rk| within it, so a tiny pivot cannot win a near tie.  After
    DEGENERATE_LIMIT consecutive zero-step pivots the leaving row is the
    violated one with the lowest variable index instead, and the entering
    column the exact minimum ratio with the lowest index (Bland's rule for
    the dual).  No entering column means the bounds admit no point.  At
    the end every value within BOUND_TOL of a bound is put on it, so a
    fixed variable takes exactly its value.  state is None unless OPTIMAL,
    and then (basis, at_upper, T, movable): the final basis, the final
    tableau B^-1 M with the reduced-cost row below it, and the mask of
    nonbasics free to move.
    """
    M, b, c = form[:3]
    basis = start.basis.copy()
    T = start.tableau(M, c)
    m = basis.size
    costs = T[m]
    movable = lo < hi
    movable[basis] = False
    at_upper = start.at_upper.copy()
    wrong = movable & (np.where(at_upper, costs, -costs) > PIVOT_TOL)  # after a cost change
    if wrong.any():
        at_upper ^= wrong & np.isfinite(np.where(at_upper, lo, hi))
    v = np.where(at_upper, hi, lo)
    v[basis] = 0.0
    x_basic = start.solve(b - np.einsum("ij,j->i", M, v))
    flip = np.where(at_upper, -1.0, 1.0)
    bland = False
    degenerate_run = 0
    for pivots in range(ITERATION_CAP):
        below = lo[basis] - x_basic
        above = x_basic - hi[basis]
        violation = np.maximum(below, above)
        violated = violation > BOUND_TOL * np.maximum(1.0, np.abs(x_basic))
        r = np.where(violated, violation, -np.inf).argmax()
        if not violated[r]:
            v[basis] = x_basic
            v = np.where(v - lo <= BOUND_TOL, lo, np.where(hi - v <= BOUND_TOL, hi, v))
            return OPTIMAL, v, pivots, (basis, at_upper, T, movable)
        if bland:
            r = np.where(violated, basis, basis.size + M.shape[1]).argmin()
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

def _node_lp(model: MilpModel, form: _Form, fixes: Mapping[int, float], start):
    """One LP by _dual_simplex, a node's or a pattern's: (status, value, x, pivots, state).

    A child starts from its parent's _Start, the root and a pattern LP
    (start None) from the form's slack start.  In a bounded form the fixes
    become bounds.  In a shipment form (links) a fix of binary j at 0
    closes its route, boxing y_k at [0, 0], and a fix at 1 opens it, at the
    cost c_k per unit, the charge f_t entering the value through x_j = 1;
    x is lifted to the full model, each fixed binary at its fix and each
    free one at y_k / M_t (0 where M_t is 0).  Either way value is the
    model's objective at x.  A child that ends INFEASIBLE or raises
    DegeneratePivotError from its parent's basis is solved once more from
    the slack start, and only that verdict stands; pivots counts both runs,
    but not those of a run that raised.  state is _dual_simplex's.
    """
    lo, hi, c, cols = form.lo, form.hi, form.c, form.cols
    if fixes:
        fixed = np.fromiter(fixes.keys(), dtype=int, count=len(fixes))
        values = np.fromiter(fixes.values(), dtype=float, count=len(fixes))
        if form.links is None:
            lo, hi = lo.copy(), hi.copy()
            lo[fixed] = hi[fixed] = values / cols[fixed]
        else:
            _, column, _, _, c_open = form.links
            routes = column[np.searchsorted(model.binaries, fixed)]
            hi, c = hi.copy(), c.copy()
            hi[routes[values == 0.0]] = 0.0
            opened = routes[values == 1.0]
            c[opened] = c_open[opened]
    lp = (form.M, form.b, c)
    status, pivots = INFEASIBLE, 0
    if start is not None:
        with contextlib.suppress(DegeneratePivotError):
            status, v, pivots, state = _dual_simplex(lp, lo, hi, start)
    if status == INFEASIBLE:
        status, v, slack_pivots, state = _dual_simplex(lp, lo, hi, form.slack)
        pivots += slack_pivots
    if status != OPTIMAL:
        return status, None, None, pivots, None
    x = v[:cols.size] * cols
    if form.links is not None:
        cont, column, big_m, _, _ = form.links
        y, x = x, np.empty(model.c.size)
        x[cont] = y
        x[model.binaries] = y[column] / np.where(big_m > 0.0, big_m, np.inf)
        if fixes:
            x[fixed] = values
    return OPTIMAL, model.value_at(x), x, pivots, state


@np.errstate(over="ignore")  # module docstring, Kernel cost
def solve_lp(model: MilpModel) -> MilpSolution:
    """Solve the continuous relaxation the way branch and bound solves its root."""
    form = _form(model, constraint_part(model))
    status, value, x, pivots, _ = _node_lp(model, form, {}, None)
    if status != OPTIMAL:
        return MilpSolution(status, None, None, nodes=1, pivots=pivots)
    return MilpSolution(OPTIMAL, value, tuple(map(float, x)), nodes=1, pivots=pivots)


def _child_keys(form: _Form, state, t: int, j: int, value: float, x) -> tuple[float, float]:
    """Keys of the children that fix binary j = binaries[t] at 0 and 1: bounds on their subtrees.

    Driebeck's penalties: a branched variable, x_j in a bounded form and the
    y_k of route t in a shipment form, is basic (a fractional variable sits
    at neither bound) in some row r of the node's final tableau, x_j + sum
    a_rk v_k = f over the nonbasic v_k.  A nonbasic at its lower bound can
    only rise and one at its upper bound can only fall, so the latter enters
    with the opposite sign; fixed nonbasics cannot move at all.  Pushing the
    variable to 0 costs at least f * min d_k / a_rk over the columns that
    lower it, pushing x_j to 1 at least (1 - f) * min -d_k / a_rk over those
    that raise it.  No such column means that child is infeasible (inf).
    The minima are clipped at zero, so round-off in a reduced cost can only
    weaken a bound.

    In a shipment form the children close and open free route t.  Closing
    pushes y_k from its value to 0: the penalty on y_k's row.  Opening
    changes the objective by f_t - (f_t / M_t) y_k, which is >= 0 since y_k
    <= M_t, so the node's value V bounds it.  Every point of the child is
    the node's point with each nonbasic q moved within its box, of width
    r_q, which changes the objective by delta_q and y_k by alpha_q per unit,
    so the child's value is at least V + f_t (1 - x_j) + sum_q min(0,
    delta_q - (f_t / M_t) alpha_q) r_q.
    """
    basis, at_upper, T, movable = state
    k = j if form.links is None else form.links[1][t]
    a = T[(basis == k).argmax()]
    toward = np.where(at_upper, -a, a)
    q = np.divide(T[-1], a, out=np.full(a.size, np.inf), where=movable & (a != 0.0))
    per_unit = form.unit / form.cols[k]  # the tableau's v_k is x / C_kk, its costs c / unit
    down = max(float(np.minimum.reduce(q, where=movable & (toward > 0.0), initial=np.inf))
               * per_unit, 0.0)
    if form.links is None:
        up = -np.maximum.reduce(q, where=movable & (toward < 0.0), initial=-np.inf)
        return value + x[j] * down, value + (1.0 - x[j]) * max(float(up) * per_unit, 0.0)
    cont, _, big_m, charge, _ = form.links
    per_y = charge[t] / big_m[t] * form.cols[k] / form.unit  # in the tableau's units
    moves = np.where(at_upper, -1.0, 1.0) * (T[-1] + per_y * a)
    box = np.where(movable, form.hi - form.lo, 0.0)
    gain = np.einsum("i,i->", np.minimum(moves, 0.0), box)
    y = x[cont[k]]
    opened = value + charge[t] * (1.0 - y / big_m[t]) + form.unit * gain
    return value + y * down, max(value, opened)


@np.errstate(over="ignore")  # module docstring, Kernel cost
def solve_milp(model: MilpModel, node_limit: int = DEFAULT_NODE_LIMIT,
               within: Sequence[Mapping[int, float]] = ({},),
               part: Optional[_Part] = None) -> MilpSolution:
    """Globally optimal solution via best-bound branch and bound on the binaries.

    The search covers the subtrees named by within, each a dict of binary
    fixes entered from the slack basis; the default is the whole space.
    Node selection is best bound first: each child is keyed by its penalty
    bound, ties broken deeper-first then by creation order.  Each solved
    node's rounded point that would beat the incumbent is checked once and,
    if it passes, replaces it; a node that must branch picks the most
    fractional binary and explores the rounded-toward value first (see the
    module docstring).  The solution returned is the LP at the incumbent's activation pattern, solved
    in the search's one form from its slack basis.  Its leaves and the
    LP-infeasible subtrees partition within, and no point of a leaf beats
    its bound (module docstring, Leaves).

    part, constraint_part of model or of a model with its constraints, is
    built from model if not given.  A shipment part (_shipment_part) makes
    every LP, the answer's pattern LP too, shipment-only (_node_lp) and
    children keyed by _child_keys; the rounding check and the leaves stay
    the full model's.  pipeline.Stages hands one to the center and lower
    anchors.  The width anchor builds its own bounded part: over
    shipment-only LPs it meets another of its tied optima first, and that
    plan's lower endpoint is a reported payoff level.
    """
    binaries = model.binaries
    incumbent_val = math.inf
    incumbent_x: Optional[np.ndarray] = None
    # Row and bound ranges, widened by ROUNDED_FEAS_TOL, that a rounded point must meet.
    tol = ROUNDED_FEAS_TOL * np.where(model.b != 0.0, np.abs(model.b), 1.0)
    row_hi = np.where(model.senses >= 0, model.b + tol, np.inf)
    row_lo = np.where(model.senses <= 0, model.b - tol, -np.inf)
    var_hi = model.hi + ROUNDED_FEAS_TOL
    var_lo = model.lo - ROUNDED_FEAS_TOL

    def feasible(point):
        rows = np.einsum("ij,j->i", model.A, point)
        return ((rows <= row_hi).all() and (rows >= row_lo).all()
                and (point <= var_hi).all() and (point >= var_lo).all())

    if part is None:
        part = constraint_part(model)
    form = _form(model, part)
    nodes = pivots = 0
    leaves: list[tuple[float, dict[int, float]]] = []
    seq = itertools.count()
    # heap entries: (penalty bound, -depth, sequence, fixes,
    # the parent's final basis as a _Start, or None for a subtree of within)
    heap: list[tuple] = [(-math.inf, 0, next(seq), dict(fixes), None) for fixes in within]

    while heap:
        key, neg_depth, _, fixes, start = heapq.heappop(heap)
        if key >= incumbent_val:
            leaves.append((key, fixes))
            continue  # cannot beat the incumbent
        if nodes >= node_limit:
            raise NodeLimitError(f"node limit {node_limit} exceeded")
        nodes += 1
        status, value, x, lp_pivots, state = _node_lp(model, form, fixes, start)
        pivots += lp_pivots
        if status == INFEASIBLE:
            continue
        if value >= incumbent_val:
            leaves.append((value, fixes))
            continue

        point = x.copy()
        x_bin = x[binaries]
        point[binaries] = np.ceil(x_bin) + 0.0  # no -0.0 in the assignment
        frac = np.abs(x_bin - np.round(x_bin))  # fixed binaries give 0
        worst = frac.max(initial=0.0)
        candidate = model.value_at(point)
        if candidate < incumbent_val and (worst == 0.0 or feasible(point)):
            incumbent_val = candidate
            incumbent_x = point
        if worst == 0.0:
            leaves.append((value, fixes))
            continue

        t = int(frac.argmax())
        j = int(binaries[t])
        keys = _child_keys(form, state, t, j, value, x)
        depth = -neg_depth + 1
        first = 1 if x[j] >= 0.5 else 0
        basis, at_upper, T, _ = state
        inverse = T[:basis.size, -basis.size:].copy()
        shared = _Start(basis, at_upper, inverse, form.slack.identity)
        for branch in (first, 1 - first):
            child = dict(fixes)
            child[j] = float(branch)
            if keys[branch] >= incumbent_val:
                if keys[branch] < math.inf:  # an infinite key: no LP point
                    leaves.append((keys[branch], child))
                continue  # pruned when popped too: the incumbent only falls
            heapq.heappush(heap, (keys[branch], -depth, next(seq), child, shared))

    if incumbent_x is None:
        return MilpSolution(INFEASIBLE, None, None, nodes, pivots, tuple(leaves))
    # The answer is the LP at the incumbent's activation pattern, as oracle_solve solves it.
    status, value, x, lp_pivots, _ = _node_lp(
        model, form, {j: incumbent_x[j] for j in binaries.tolist()}, None)
    if status != OPTIMAL:
        raise DegeneratePivotError(f"the incumbent's activation pattern solved {status}")
    return MilpSolution(OPTIMAL, value, tuple(map(float, x)), nodes, pivots + lp_pivots,
                        tuple(leaves))


@np.errstate(over="ignore")  # module docstring, Kernel cost
def oracle_solve(model: MilpModel) -> MilpSolution:
    """Reference answer by brute force: try every 0/1 pattern of the binaries.

    Each pattern's LP is solved from the slack basis, as solve_milp in a
    bounded form solves its answer's pattern, so the oracle shares the LP
    kernel.  It is a check on the search, not on the kernel: it knows no
    bounds, pruning or warm starts.  The kernel itself is checked against a
    textbook simplex and HiGHS in the tests.  Refuses more than
    ORACLE_MAX_BINARIES binaries.
    """
    binaries = model.binaries.tolist()
    if len(binaries) > ORACLE_MAX_BINARIES:
        raise OracleScopeError(
            f"{len(binaries)} binaries exceed the oracle's scope of {ORACLE_MAX_BINARIES}")
    form = _form(model, constraint_part(model))
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
