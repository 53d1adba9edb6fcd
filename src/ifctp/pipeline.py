"""End-to-end runs: validate, crispify, the named stage solves, distance report.

The report keeps raw solution objects; derived quantities (center/width form,
distances) are recomputed on access so a rendered report can never disagree
with its own inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .compromise import (CompromiseResult, InfeasibleProblemError, PayoffTable,
                         solve_compromise)
from .crisp import (build_bi_objective, constraint_rows, evaluate_interval_objective,
                    extract_plan, plan_value, to_milp)
from .intervals import CenterWidth, Interval, distance_to_ideal
from .milp import (OPTIMAL, ORACLE_MAX_BINARIES, DegeneratePivotError, MilpModel, MilpSolution,
                   OracleScopeError, oracle_solve, solve_milp)
from .model import IfctpInstance, ShipmentPlan, check_plan

# How far, relative to the compromise's value, a probe must beat it to dominate it.
DOMINANCE_TOL = 1e-6


class UnattainableLevelsError(ValueError):
    """No plan meets both worst payoff levels, so no satisfaction level exists."""


class Stages:
    """The method's named solves for one instance, each built and solved once, on first use.

    The anchors center, width and lower minimize one objective each; the width
    anchor serves both the ideal point and the payoff table.  They differ only
    in their objective, so each anchor model derives from the one built before
    it and the three share one scaling of the constraint matrix.  models and
    solutions hold each solved stage's model and solution under its name,
    max-min and refine included.
    """

    def __init__(self, instance: IfctpInstance):
        self.bi = build_bi_objective(instance)  # validates the instance once
        self.models: dict[str, MilpModel] = {}
        self.solutions: dict[str, MilpSolution] = {}
        self._anchor_model: Optional[MilpModel] = None  # the last anchor model built

    def anchor(self, name: str, what: str) -> MilpSolution:
        """Anchor name's optimal solution; any other outcome raises, naming the solve what."""
        if name not in self.solutions:
            objective = getattr(self.bi, f"obj_{name}")
            self._anchor_model = (to_milp(self.bi, objective) if self._anchor_model is None
                                  else self._anchor_model.derive(c=objective))
            self.models[name] = self._anchor_model
            self.solutions[name] = solve_milp(self.models[name])
        if self.solutions[name].status != OPTIMAL:
            raise InfeasibleProblemError(f"{what} ended {self.solutions[name].status}")
        return self.solutions[name]

    def ideal(self) -> CenterWidth:
        """Componentwise minima of expected cost and uncertainty (generally unattainable)."""
        center, width = (self.anchor(name, f"ideal-point solve ({name})").objective_value
                         for name in ("center", "width"))
        return CenterWidth(center, max(0.0, width))

    def payoff(self) -> PayoffTable:
        """Cross-evaluate the lower and width anchor plans."""
        anchors = [extract_plan(self.bi, self.anchor(name, "single-objective solve").assignment)
                   for name in ("lower", "width")]
        lower_at = [plan_value(self.bi.obj_lower, p) for p in anchors]
        width_at = [plan_value(self.bi.obj_width, p) for p in anchors]
        return PayoffTable((lower_at[0], width_at[1]), (max(lower_at), max(width_at)))

    def compromise(self, override: Optional[tuple[float, float, float, float]] = None
                   ) -> tuple[PayoffTable, CompromiseResult]:
        """Max-min and refine at the computed payoff levels, or at override as in run_pipeline.

        An infeasible instance raises InfeasibleProblemError first.  Then only
        the worst levels can leave the max-min model without a point: computed
        ones are met by the anchor plans, so round-off must have lost them.
        """
        if override is None:
            payoff = self.payoff()
        else:
            self.ideal()  # proves the instance feasible, leaving only the levels to blame
            l1, u1, l2, u2 = override
            payoff = PayoffTable((l1, l2), (u1, u2))
        try:
            result = solve_compromise(self.bi, payoff)
        except InfeasibleProblemError:
            if override is None:
                raise DegeneratePivotError(
                    "the max-min model is infeasible at the computed payoff levels") from None
            raise UnattainableLevelsError(
                f"no plan has lower endpoint <= {float(payoff.worst[0])} and width <= "
                f"{float(payoff.worst[1])}") from None
        self.models.update(result.models)
        self.solutions.update(result.solutions)
        return payoff, result


@dataclass(frozen=True)
class CompetitorEntry:
    """An externally obtained solution to compare against, by objective interval."""

    name: str
    objective: Interval

    def center_width(self) -> CenterWidth:
        return self.objective.as_center_width()


@dataclass(frozen=True)
class CompromiseReport:
    status: str  # "optimal" or "infeasible"
    sources: int
    destinations: int
    supply_cap_total: float
    demand_floor_total: float
    payoff: Optional[PayoffTable] = None
    lambda_star: Optional[float] = None
    plan: Optional[ShipmentPlan] = None
    objective: Optional[Interval] = None
    memberships: Optional[tuple[float, float]] = None
    ideal: Optional[CenterWidth] = None
    competitor: Optional[CompetitorEntry] = None
    plan_violations: tuple[str, ...] = ()

    @property
    def center_width(self) -> Optional[CenterWidth]:
        return None if self.objective is None else self.objective.as_center_width()

    @property
    def distance(self) -> Optional[float]:
        if self.objective is None or self.ideal is None:
            return None
        return distance_to_ideal(self.center_width, self.ideal)

    @property
    def competitor_distance(self) -> Optional[float]:
        if self.competitor is None or self.ideal is None:
            return None
        return distance_to_ideal(self.competitor.center_width(), self.ideal)


def run_pipeline(instance: IfctpInstance, *,
                 payoff_override: Optional[tuple[float, float, float, float]] = None,
                 competitor: Optional[CompetitorEntry] = None) -> CompromiseReport:
    """Validate, solve and assemble the full report for one instance.

    payoff_override is (L1, U1, L2, U2): aspired and worst levels for the
    lower-endpoint and width objectives, replacing the computed payoff table.
    Structural defects raise InvalidInstanceError; an undersupplied instance
    comes back with status "infeasible" and no plan.  Override levels that no
    plan of a feasible instance meets raise UnattainableLevelsError; computed
    levels that round-off leaves unmet raise DegeneratePivotError.
    """
    stages = Stages(instance)
    summary = dict(
        sources=instance.m,
        destinations=instance.n,
        supply_cap_total=sum(iv.hi for iv in instance.supply),
        demand_floor_total=sum(iv.lo for iv in instance.demand),
    )
    try:
        ideal = stages.ideal()
        payoff, result = stages.compromise(payoff_override)
    except InfeasibleProblemError:
        return CompromiseReport(status="infeasible", competitor=competitor, **summary)

    objective = evaluate_interval_objective(instance, result.plan)
    violations = tuple(check_plan(instance, result.plan))
    return CompromiseReport(
        status="optimal",
        payoff=payoff,
        lambda_star=result.lambda_star,
        plan=result.plan,
        objective=objective,
        memberships=result.memberships,
        ideal=ideal,
        competitor=competitor,
        plan_violations=violations,
        **summary,
    )


# --------------------------------------------------------------------------
# oracle cross-check
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckLine:
    name: str
    solver_value: float
    oracle_value: float
    passed: bool

    @property
    def delta(self) -> float:
        return abs(self.solver_value - self.oracle_value)


@dataclass(frozen=True)
class OracleCheck:
    lines: tuple[CheckLine, ...]
    dominated: bool  # True means enumeration found a plan beating the compromise

    @property
    def passed(self) -> bool:
        return not self.dominated and all(line.passed for line in self.lines)


def _values_agree(a: float, b: float) -> bool:
    """Equal within 1e-6, relative to the larger magnitude or to one."""
    return abs(a - b) <= 1e-6 * max(1.0, abs(a), abs(b))


def _bounded_objective_model(bi, minimize, cap_objective, cap_value) -> MilpModel:
    """Minimize one objective subject to the other staying at or below a cap."""
    A, senses, b, lo, hi, binaries = constraint_rows(bi)
    return MilpModel(minimize, np.vstack((A, cap_objective)), np.append(senses, 1),
                     np.append(b, cap_value), lo, hi, binaries)


def _check_line(label: str, stages: Stages, name: str, sign: float = 1.0) -> CheckLine:
    """Enumeration against the solver on stage name; sign flips a maximized value.

    An oracle that finds no optimum reads NaN, which agrees with nothing.
    """
    solver = stages.solutions[name].objective_value
    oracle = oracle_solve(stages.models[name])
    value = oracle.objective_value if oracle.status == OPTIMAL else float("nan")
    return CheckLine(label, sign * solver, sign * value, _values_agree(solver, value))


def run_oracle_check(instance: IfctpInstance) -> OracleCheck:
    """Compare branch-and-bound answers against exhaustive enumeration.

    Solves the pipeline's five stage models once each, checks the two
    ideal-point solves and the max-min solve against enumeration, then searches
    every activation pattern for a plan that Pareto-dominates the compromise
    solution.  Each probe caps one objective at the compromise's value plus
    1e-9 of it and must beat the other by DOMINANCE_TOL of it, so the check
    means the same at every cost scale.  Refuses instances with more routes
    than the oracle can enumerate.
    """
    if instance.m * instance.n > ORACLE_MAX_BINARIES:
        raise OracleScopeError(
            f"{instance.m * instance.n} routes exceed the oracle's scope of "
            f"{ORACLE_MAX_BINARIES}")

    stages = Stages(instance)
    _, result = stages.compromise()
    stages.ideal()  # solves the center anchor; every checked solution is now optimal
    lines = (_check_line("ideal-center", stages, "center"),
             _check_line("ideal-width", stages, "width"),
             _check_line("max-min level", stages, "max-min", sign=-1.0))

    z_lower, z_width = result.objective_values
    dominated = False
    bi = stages.bi
    probes = (
        (bi.obj_width, bi.obj_lower, z_lower, z_width),   # shave width at equal lower bound
        (bi.obj_lower, bi.obj_width, z_width, z_lower),   # shave lower at equal width
    )
    for minimize, cap_obj, cap_val, incumbent in probes:
        probe = oracle_solve(_bounded_objective_model(bi, minimize, cap_obj,
                                                      cap_val + 1e-9 * abs(cap_val)))
        if (probe.status == OPTIMAL
                and probe.objective_value < incumbent - DOMINANCE_TOL * abs(incumbent)):
            dominated = True
    return OracleCheck(lines, dominated)
