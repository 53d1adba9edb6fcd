"""Crisp equivalents of an interval instance.

The interval objective sum([t_ij] y_ij + [l_ij] x_ij) splits into two crisp
objectives: its lower endpoint (center minus width coefficients) and its
width; the ideal point also minimizes the center (expected cost).
Constraints relax supplies to their upper limits and demands to their lower
limits.  The conditional activation rule "x_ij = 1 iff y_ij > 0" is
linearized exactly as y_ij <= M_ij x_ij with M_ij equal to the row's supply
cap, which the row constraint already implies for any feasible y.  The
same M_ij is y_ij's upper bound.

All models built here share one variable layout: y(i,j) at index i*n + j,
x(i,j) at m*n + i*n + j, optional extra columns appended after that.  An
objective is a flat coefficient vector over the y and x entries of that
layout, and the constraint set is built as numpy arrays for MilpModel.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .intervals import Interval
from .milp import MilpModel
from .model import IfctpInstance, ShipmentPlan, validate


class InvalidInstanceError(ValueError):
    """Raised when a model is requested for an instance that fails validation."""


@dataclass(frozen=True, eq=False)
class BiObjectiveMilp:
    """The crisp bi-objective program: minimize the lower endpoint and the width.

    obj_center (the expected cost, which the ideal point minimizes), obj_lower
    and obj_width are length-2mn coefficient vectors over (y, x); big_m is the
    m x n array of linking constants M_ij.
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


def _require_valid(instance: IfctpInstance) -> None:
    violations = validate(instance)
    if violations:
        raise InvalidInstanceError(violations[0])


def build_bi_objective(instance: IfctpInstance) -> BiObjectiveMilp:
    """Derive the crisp objectives and the relaxed constraint data."""
    _require_valid(instance)
    center, width = _centers_widths(instance)
    caps = tuple(iv.hi for iv in instance.supply)
    floors = tuple(iv.lo for iv in instance.demand)
    big_m = np.repeat(np.array(caps, dtype=float)[:, None], instance.n, axis=1)
    # Lower endpoint = center - width, exact as floats since both derive from
    # the same division by two.
    return BiObjectiveMilp(center, center - width, width, caps, floors, big_m)


def plan_value(coeffs: np.ndarray, plan: ShipmentPlan) -> float:
    """Value of a (y, x) objective vector at a plan.

    The sum runs cell by cell, left to right, adding c_y*y + c_x*x each time.
    Payoff levels and memberships are printed at full precision, so this
    order is part of the output: np.dot, or builtin sum (compensated on
    Python 3.12), would round differently.
    """
    mn = plan.m * plan.n
    total = 0.0
    for cy, cx, y, x in zip(coeffs[:mn].tolist(), coeffs[mn:2 * mn].tolist(),
                            itertools.chain.from_iterable(plan.y),
                            itertools.chain.from_iterable(plan.x)):
        total += cy * y + cx * x
    return total


def constraint_rows(bi: BiObjectiveMilp, extra_vars: int = 0) -> tuple[np.ndarray, ...]:
    """Shared constraint set: supply caps, demand floors, big-M linking.

    Returns (A, senses, b, lo, hi, binaries) over the (y, x, extras) layout,
    rows in that order, linking rows cell by cell.  Each y_ij is boxed at
    [0, M_ij], the bound its linking row implies, so every variable has a
    finite box.  Extra columns get zero coefficients; lo and hi cover y and
    x only, so the caller appends the extras' bounds.
    """
    m, n = bi.m, bi.n
    mn = m * n
    cells = np.arange(mn)
    link = m + n + cells
    A = np.zeros((m + n + mn, 2 * mn + extra_vars))
    A[cells // n, cells] = 1.0
    A[m + cells % n, cells] = 1.0
    A[link, cells] = 1.0
    # Only the cells are negated: -np.diag(M) would put -0.0 off the diagonal,
    # where the row-by-row build has 0.0.
    A[link, mn + cells] = -bi.big_m.ravel()
    senses = np.concatenate((np.ones(m, dtype=int), np.full(n, -1), np.ones(mn, dtype=int)))
    b = np.concatenate((bi.supply_caps, bi.demand_floors, np.zeros(mn)))
    lo = np.zeros(2 * mn)
    hi = np.concatenate((bi.big_m.ravel(), np.ones(mn)))
    return A, senses, b, lo, hi, np.arange(mn, 2 * mn)


def to_milp(bi: BiObjectiveMilp, objective: np.ndarray) -> MilpModel:
    """Single-objective model over the shared constraint set."""
    return MilpModel(objective, *constraint_rows(bi))


def extract_plan(bi: BiObjectiveMilp, assignment) -> ShipmentPlan:
    """Shipment plan from a solver assignment.

    Activations are re-derived from the quantities: with nonnegative fixed
    charges, opening a route that ships nothing never changes an optimal
    objective, so snapping such x to zero is free and keeps plans canonical.
    """
    m, n = bi.m, bi.n
    y = [[max(float(assignment[i * n + j]), 0.0) for j in range(n)] for i in range(m)]
    return ShipmentPlan.from_quantities(y)


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
