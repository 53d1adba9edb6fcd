"""Crisp equivalents of an interval instance.

The interval objective sum([t_ij] y_ij + [l_ij] x_ij) splits into two crisp
objectives: its lower endpoint (center minus width coefficients) and its
width; the ideal point also minimizes the center (expected cost).
Constraints relax supplies to their upper limits and demands to their lower
limits.  The conditional activation rule "x_ij = 1 iff y_ij > 0" is
linearized as y_ij <= M_ij x_ij with Balinski's (1961) M_ij = min(s_i.hi,
d_j.lo), and the same M_ij is y_ij's upper bound.  The supply row alone
implies only y_ij <= s_i.hi, so this box cuts off plans that ship more
than a column's floor on one route.  It is valid when every unit cost has
a lower endpoint >= 0: then every y-coefficient of every objective and
level row built from these objectives is >= 0, so cutting a column's
inflow back to its floor worsens nothing, and some optimum of every model
has y_ij <= d_j.lo.  Otherwise M_ij stays s_i.hi, the bound the supply row
implies.  A smaller M_ij tightens every LP relaxation: x_ij >= y_ij / M_ij
charges more of the fixed cost.

All models built here share one variable layout: y(i,j) at index i*n + j,
x(i,j) at m*n + i*n + j, a model's own columns appended after that, and one
row layout: supply rows, demand rows, then the linking rows (link_rows).  An
objective is a flat coefficient vector over the y and x entries of that
layout, and to_milp alone builds the constraint set, as a MilpModel.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .intervals import Interval
from .milp import MilpModel
from .model import IfctpInstance, ShipmentPlan


@dataclass(frozen=True, eq=False)
class BiObjectiveMilp:
    """The crisp bi-objective program: minimize the lower endpoint and the width.

    obj_center (the expected cost, which the ideal point minimizes), obj_lower
    and obj_width are length-2mn coefficient vectors over (y, x); big_m is the
    m x n array of linking constants M_ij, min(s_i.hi, d_j.lo) when every unit
    cost is >= 0 and s_i.hi otherwise (see the module docstring).
    """

    obj_center: np.ndarray
    obj_lower: np.ndarray
    obj_width: np.ndarray
    supply_caps: tuple[float, ...]
    demand_floors: tuple[float, ...]
    big_m: np.ndarray

    @property
    def m(self) -> int:
        return len(self.supply_caps)

    @property
    def n(self) -> int:
        return len(self.demand_floors)


def _centers_widths(instance: IfctpInstance) -> tuple[np.ndarray, np.ndarray]:
    """Center and width coefficient vectors over (y, x): unit costs, then charges."""
    cells = [iv for matrix in (instance.unit_cost, instance.fixed_charge)
             for row in matrix for iv in row]
    return (np.array([iv.center for iv in cells], dtype=float),
            np.array([iv.width for iv in cells], dtype=float))


def build_bi_objective(instance: IfctpInstance) -> BiObjectiveMilp:
    """Derive the crisp objectives and the relaxed constraint data."""
    center, width = _centers_widths(instance)
    caps = tuple(iv.hi for iv in instance.supply)
    floors = tuple(iv.lo for iv in instance.demand)
    big_m = np.repeat(np.array(caps, dtype=float)[:, None], instance.n, axis=1)
    if all(iv.lo >= 0 for row in instance.unit_cost for iv in row):
        big_m = np.minimum(big_m, np.array(floors, dtype=float))
    # Lower endpoint = center - width, exact as floats since both derive from
    # the same division by two.
    return BiObjectiveMilp(center, center - width, width, caps, floors, big_m)


def plan_value(coeffs: np.ndarray, plan: ShipmentPlan) -> float:
    """Value of a (y, x) objective vector at a plan.

    The sum runs cell by cell, left to right, adding c_y*y + c_x*x each time.
    Payoff levels and memberships are printed at full precision, so this
    order is part of the output: a vectorised dot product, or builtin sum
    (compensated on Python 3.12), would round differently.
    """
    mn = plan.m * plan.n
    total = 0.0
    for cy, cx, y, x in zip(coeffs[:mn].tolist(), coeffs[mn:2 * mn].tolist(),
                            itertools.chain.from_iterable(plan.y),
                            itertools.chain.from_iterable(plan.x)):
        total += cy * y + cx * x
    return total


def link_rows(bi: BiObjectiveMilp) -> range:
    """The linking rows y_ij - M_ij x_ij <= 0 of to_milp, cell by cell."""
    return range(bi.m + bi.n, bi.m + bi.n + bi.m * bi.n)


def to_milp(bi: BiObjectiveMilp, objective: np.ndarray) -> MilpModel:
    """Single-objective model over the shared constraint set; every stage model grows from it.

    Rows: supply caps, demand floors, then the big-M linking rows cell by
    cell (link_rows), over the (y, x) layout.  Each y_ij is boxed at
    [0, M_ij], so every variable has a finite box.  With M_ij below s_i.hi
    that box is not implied by the rows; it holds an optimum because every
    unit cost is >= 0 (see the module docstring).
    """
    m, n = bi.m, bi.n
    mn = m * n
    cells = np.arange(mn)
    link = np.array(link_rows(bi))
    A = np.zeros((m + n + mn, 2 * mn))
    A[cells // n, cells] = 1.0
    A[m + cells % n, cells] = 1.0
    A[link, cells] = 1.0
    # Only the cells are negated: -np.diag(M) would put -0.0 off the diagonal,
    # where the row-by-row build has 0.0.
    A[link, mn + cells] = -bi.big_m.ravel()
    senses = np.concatenate((np.ones(m, dtype=int), np.full(n, -1), np.ones(mn, dtype=int)))
    b = np.concatenate((bi.supply_caps, bi.demand_floors, np.zeros(mn)))
    hi = np.concatenate((bi.big_m.ravel(), np.ones(mn)))
    return MilpModel(objective, A, senses, b, np.zeros(2 * mn), hi, np.arange(mn, 2 * mn))


def extract_plan(bi: BiObjectiveMilp, assignment) -> ShipmentPlan:
    """Shipment plan from a solver assignment.

    The plan derives its activations from the quantities: with nonnegative fixed
    charges, opening a route that ships nothing never changes an optimal
    objective, so snapping such x to zero is free and keeps plans canonical.
    """
    m, n = bi.m, bi.n
    y = [[max(float(assignment[i * n + j]), 0.0) for j in range(n)] for i in range(m)]
    return ShipmentPlan(y)


def evaluate_interval_objective(instance: IfctpInstance, plan: ShipmentPlan) -> Interval:
    """Total interval cost of a plan, accumulated with interval arithmetic."""
    if plan.m != instance.m or plan.n != instance.n:
        raise ValueError(f"plan shape {plan.m}x{plan.n} does not match "
                         f"instance {instance.m}x{instance.n}")
    total = Interval(0.0, 0.0)
    for i in range(instance.m):
        for j in range(instance.n):
            total = total + instance.unit_cost[i][j].scale(plan.y[i][j])
            total = total + instance.fixed_charge[i][j].scale(plan.x[i][j])
    return total
