"""Data model for interval-valued fixed-charge transportation instances.

An instance ships a homogeneous product from ``m`` sources to ``n``
destinations.  Every route (i, j) carries a per-unit cost and a fixed charge
paid once if the route is used at all.  Every cost, charge, supply and demand
is an :class:`~ifctp.intervals.Interval`; a crisp instance has degenerate
intervals only.

An instance is well formed by construction: IfctpInstance raises
InvalidInstanceError naming the first structural rule it breaks, in a stable
order: scalar checks, then matrix entries row-major, then vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from .intervals import Interval

# Slack of the plan check's row rules, relative to each row's own bound.
FEASIBILITY_TOL = 1e-6


def _as_matrix(rows: Sequence[Sequence], what: str) -> tuple[tuple, ...]:
    out = tuple(tuple(row) for row in rows)
    if not out or any(len(row) != len(out[0]) for row in out):
        raise ValueError(f"{what} must be a non-empty rectangular matrix")
    return out


class InvalidInstanceError(ValueError):
    """An instance breaks a structural rule; the message names the first one."""


@dataclass(frozen=True)
class IfctpInstance:
    """Interval-valued fixed-charge transportation instance.

    unit_cost and fixed_charge are m x n matrices of Interval; supply has
    length m and demand length n.  Fixed charges, supplies and demands have
    nonnegative lower endpoints, and no objective overflows a float.
    Aggregate supply is not compared with demand: a well-formed but
    undersupplied instance is an infeasible problem, not a malformed one, and
    pipeline.Stages rejects it from the totals before any solve.
    """

    unit_cost: tuple[tuple[Interval, ...], ...]
    fixed_charge: tuple[tuple[Interval, ...], ...]
    supply: tuple[Interval, ...]
    demand: tuple[Interval, ...]

    def __init__(self, unit_cost, fixed_charge, supply, demand):
        object.__setattr__(self, "unit_cost", tuple(map(tuple, unit_cost)))
        object.__setattr__(self, "fixed_charge", tuple(map(tuple, fixed_charge)))
        object.__setattr__(self, "supply", tuple(supply))
        object.__setattr__(self, "demand", tuple(demand))
        _check_structure(self)

    @property
    def m(self) -> int:
        return len(self.supply)

    @property
    def n(self) -> int:
        return len(self.demand)


@dataclass(frozen=True)
class ShipmentPlan:
    """Shipped quantities y; route (i, j) is open, x[i][j] = 1, iff it ships a positive amount.

    Every shipment must be a finite number; check_plan judges the rest.
    """

    y: tuple[tuple[float, ...], ...]
    x: tuple[tuple[int, ...], ...] = field(init=False)

    def __init__(self, y):
        object.__setattr__(self, "y", _as_matrix([map(float, row) for row in y], "y"))
        if not all(math.isfinite(v) for row in self.y for v in row):
            raise ValueError("every shipment must be a finite number")
        object.__setattr__(self, "x", tuple(tuple(1 if v > 0 else 0 for v in row)
                                            for row in self.y))

    @property
    def m(self) -> int:
        return len(self.y)

    @property
    def n(self) -> int:
        return len(self.y[0])


def _check_interval(where: str, iv: Interval, require_nonneg_lo: bool) -> None:
    # Defensive re-check: Interval construction already rejects lo > hi, but a
    # matrix assembled by other means must not slip through.
    if iv.lo > iv.hi:
        raise InvalidInstanceError(f"{where}: interval lo {iv.lo:g} > hi {iv.hi:g}")
    if require_nonneg_lo and iv.lo < 0:
        raise InvalidInstanceError(f"{where}: negative lower endpoint {iv.lo:g}")


def _check_structure(instance: IfctpInstance) -> None:
    """Raise InvalidInstanceError at the first broken structural rule, in the module's order."""
    m, n = instance.m, instance.n
    if m < 1:
        raise InvalidInstanceError("need at least one source")
    if n < 1:
        raise InvalidInstanceError("need at least one destination")
    for name, matrix in (("unit_cost", instance.unit_cost),
                         ("fixed_charge", instance.fixed_charge)):
        if len(matrix) != m:
            raise InvalidInstanceError(f"{name} has {len(matrix)} rows, expected m={m}")
        if any(len(row) != n for row in matrix):
            raise InvalidInstanceError(f"{name} rows must all have n={n} entries")
        for i, row in enumerate(matrix):
            for j, iv in enumerate(row):
                _check_interval(f"{name}({i + 1},{j + 1})", iv,
                                require_nonneg_lo=(name == "fixed_charge"))

    for i, iv in enumerate(instance.supply):
        _check_interval(f"supply({i + 1})", iv, require_nonneg_lo=True)
    for j, iv in enumerate(instance.demand):
        _check_interval(f"demand({j + 1})", iv, require_nonneg_lo=True)
    # A route ships at most its row's cap.  The factor 4 leaves room to add
    # two objective values (an interval's center and width, a payoff span).
    bound = sum(max(abs(t.lo), abs(t.hi)) * cap.hi + f.hi
                for t_row, f_row, cap in zip(instance.unit_cost, instance.fixed_charge,
                                             instance.supply) for t, f in zip(t_row, f_row))
    if not math.isfinite(4.0 * bound):
        raise InvalidInstanceError("unit costs times supply caps overflow a float")
    # math.fsum of the caps or the floors raises on overflow; 2 covers this sum's rounding.
    totals = sum(s.hi for s in instance.supply) + sum(d.lo for d in instance.demand)
    if not math.isfinite(2.0 * totals):
        raise InvalidInstanceError("supply caps plus demand floors overflow a float")


def _total(values) -> float:
    """Correctly rounded sum; inf when it passes the float range.

    math.fsum raises when a partial sum overflows, even if the total would
    not; summing the values times 2^-64 cannot overflow, and only the scale
    of a total that large matters here.
    """
    values = list(values)
    try:
        return math.fsum(values)
    except OverflowError:
        return math.fsum(math.ldexp(v, -64) for v in values) * 2.0 ** 64


def check_plan(instance: IfctpInstance, plan: ShipmentPlan) -> list[str]:
    """Check a plan against the crisp constraint set.

    Returns one violation string per broken rule: negative shipments
    row-major, then row supply caps, then column demand floors.  A row sum may
    pass its cap or floor by FEASIBILITY_TOL of that bound, so no rule depends
    on the unit of the quantities.  Row sums too large for a float count as
    inf.  Dimension mismatches are malformed input and raise; nothing else does.
    """
    m, n = instance.m, instance.n
    if plan.m != m or plan.n != n:
        raise ValueError(f"plan shape {plan.m}x{plan.n} does not match instance {m}x{n}")

    v: list[str] = []
    for i in range(m):
        for j in range(n):
            if plan.y[i][j] < 0:
                v.append(f"y({i + 1},{j + 1}) = {plan.y[i][j]:.12g} is negative")

    for i in range(m):
        shipped = _total(plan.y[i])
        cap = instance.supply[i].hi
        if shipped > cap * (1 + FEASIBILITY_TOL):
            v.append(f"row {i + 1} ships {shipped:.12g} > supply cap {cap:.12g}")
    for j in range(n):
        received = _total(plan.y[i][j] for i in range(m))
        floor = instance.demand[j].lo
        if received < floor * (1 - FEASIBILITY_TOL):
            v.append(f"column {j + 1} receives {received:.12g} < demand floor {floor:.12g}")
    return v
