"""End-to-end runs: crispify, the named stage solves, distance report.

The report keeps raw solution objects; derived quantities (center/width form,
distances) are recomputed on access so a rendered report can never disagree
with its own inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

from .compromise import (LEVEL_SLACK, CompromiseResult, PayoffTable, build_max_min_model,
                         build_refine_model, membership, refine_weights)
from .crisp import (build_bi_objective, evaluate_interval_objective, extract_plan, link_rows,
                    plan_value, to_milp)
from .intervals import CenterWidth, Interval, distance_to_ideal
from .milp import (OPTIMAL, ORACLE_MAX_BINARIES, DegeneratePivotError, MilpModel, MilpSolution,
                   OracleScopeError, constraint_part, oracle_solve, solve_milp)
from .model import IfctpInstance, ShipmentPlan, check_plan


class InfeasibleProblemError(Exception):
    """The supply caps add up to less than the demand floors, so no plan exists."""


class UnattainableLevelsError(ValueError):
    """No plan meets both worst payoff levels, so no satisfaction level exists."""


class Stages:
    """The method's five named solves for one instance, each built and solved once, on first use.

    An instance whose supply caps add up to less than its demand floors has no
    plan, so it raises InfeasibleProblemError here, before any solve.  The
    anchors center, width and lower minimize one objective each over one model;
    the width anchor serves the ideal point and the payoff table.  Only the
    width anchor is solved in the model's bounded form; the center and lower
    anchors solve shipment-only LPs, search and answer alike, over the one
    shipment part built here (solve_milp's part).  A shipment-only width
    search would meet another tied optimum first on some instances, and the
    payoff table reports that plan's lower endpoint.  compromise solves
    max-min and refine at the payoff levels, over one bounded part.  models
    and solutions hold each solved stage by name.
    """

    def __init__(self, instance: IfctpInstance):
        self.bi = build_bi_objective(instance)
        s, d = math.fsum(self.bi.supply_caps), math.fsum(self.bi.demand_floors)
        if s < d:
            raise InfeasibleProblemError(f"supply cap total {s!r} < demand floor total {d!r}")
        self._anchors = to_milp(self.bi, self.bi.obj_center)  # each anchor swaps in its objective
        self._shipment_part = constraint_part(self._anchors, link_rows(self.bi))
        self.models: dict[str, MilpModel] = {}
        self.solutions: dict[str, MilpSolution] = {}

    def anchor(self, name: str) -> MilpSolution:
        """Anchor name's optimal solution; any other outcome is a numerical breakdown."""
        if name not in self.solutions:
            self.models[name] = replace(self._anchors, c=getattr(self.bi, f"obj_{name}"))
            self.solutions[name] = solve_milp(
                self.models[name], part=None if name == "width" else self._shipment_part)
        if self.solutions[name].status != OPTIMAL:
            raise DegeneratePivotError(f"the {name} anchor ended {self.solutions[name].status}")
        return self.solutions[name]

    def ideal(self) -> CenterWidth:
        """Componentwise minima of expected cost and uncertainty (generally unattainable)."""
        center, width = (self.anchor(name).objective_value for name in ("center", "width"))
        return CenterWidth(center, max(0.0, width))

    def payoff(self) -> PayoffTable:
        """Cross-evaluate the lower and width anchor plans."""
        anchors = [extract_plan(self.bi, self.anchor(name).assignment)
                   for name in ("lower", "width")]
        lower_at = [plan_value(self.bi.obj_lower, p) for p in anchors]
        width_at = [plan_value(self.bi.obj_width, p) for p in anchors]
        return PayoffTable((lower_at[0], width_at[1]), (max(lower_at), max(width_at)))

    def compromise(self, override: Optional[PayoffTable] = None
                   ) -> tuple[PayoffTable, CompromiseResult]:
        """Max-min and refine at the computed payoff levels, or at override as in run_pipeline.

        The instance is feasible, so only the worst levels can leave the max-min
        model without a point: override ones are then unattainable, and computed
        ones are met by the anchor plans, so round-off must have lost them.  The
        refine model holds the level at one the max-min solve attained, so a
        refine solve without an optimum is a numerical breakdown.

        The refine searches only the band of max-min leaves (MilpSolution.leaves)
        that can reach its level floor l.  The refine model is the max-min model
        with another objective and the level held at l or above, so a refine
        plan has max-min value -level <= -l, and the max-min leaf holding it has
        a bound no higher; the LP-infeasible subtrees hold no plan of either
        model.  The band takes every leaf with bound <= -l + LEVEL_SLACK: the
        kernel lets a basic value pass its bound by BOUND_TOL and a key carries
        round-off (1e-16 above a floor of 0 was seen), so a bound may sit a
        little above the plans it holds.  Two cases search from the root
        instead.  At l = 0 every plan qualifies, yet as several leaves, each
        searched from the slack basis, which can end at another of several tied
        refine optima than the root search.  A band of every leaf narrows
        nothing and would only start each leaf cold.
        """
        payoff = self.payoff() if override is None else override
        max_min = self.models["max-min"] = build_max_min_model(self.bi, payoff, self._anchors)
        part = constraint_part(max_min)  # refine changes only the objective and a bound
        sol = self.solutions["max-min"] = solve_milp(max_min, part=part)
        if sol.status != OPTIMAL:
            if override is None:
                raise DegeneratePivotError(
                    "the max-min model is infeasible at the computed payoff levels")
            raise UnattainableLevelsError(
                f"no plan has lower endpoint <= {float(payoff.worst[0])} and width <= "
                f"{float(payoff.worst[1])}")
        lambda_star = min(1.0, max(0.0, -sol.objective_value))

        refine = self.models["refine"] = build_refine_model(self.bi, payoff, max_min, lambda_star)
        floor = refine.lo[-1]
        band = [fixes for bound, fixes in sol.leaves if bound <= LEVEL_SLACK - floor]
        if floor > 0.0 and len(band) < len(sol.leaves):
            refined = solve_milp(refine, within=band, part=part)
        else:
            refined = solve_milp(refine, part=part)
        self.solutions["refine"] = refined
        if refined.status != OPTIMAL:
            raise DegeneratePivotError(
                f"the refine model ended {refined.status} at the max-min level")
        plan = extract_plan(self.bi, refined.assignment)
        values = (plan_value(self.bi.obj_lower, plan), plan_value(self.bi.obj_width, plan))
        memberships = (membership(values[0], payoff.best[0], payoff.worst[0]),
                       membership(values[1], payoff.best[1], payoff.worst[1]))
        return payoff, CompromiseResult(lambda_star, plan, values, memberships)


@dataclass(frozen=True)
class CompetitorEntry:
    """An externally obtained solution to compare against, by objective interval."""

    name: str
    objective: Interval

    def __post_init__(self) -> None:
        if not self.name.isprintable():  # a line break would split the machine report's line
            raise ValueError(f"name {self.name!r} is not printable")


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
        return distance_to_ideal(self.competitor.objective.as_center_width(), self.ideal)


def run_pipeline(instance: IfctpInstance, *,
                 payoff_override: Optional[PayoffTable] = None,
                 competitor: Optional[CompetitorEntry] = None) -> CompromiseReport:
    """Solve and assemble the full report for one instance.

    payoff_override replaces the computed payoff table.
    An undersupplied instance comes back, unsolved, with status "infeasible"
    and no plan.  Override levels that no plan meets raise
    UnattainableLevelsError; computed levels that round-off leaves unmet raise
    DegeneratePivotError.
    """
    summary = dict(sources=instance.m, destinations=instance.n,
                   supply_cap_total=math.fsum(iv.hi for iv in instance.supply),
                   demand_floor_total=math.fsum(iv.lo for iv in instance.demand))
    try:
        stages = Stages(instance)
    except InfeasibleProblemError:
        return CompromiseReport(status="infeasible", competitor=competitor, **summary)
    ideal = stages.ideal()
    payoff, result = stages.compromise(payoff_override)

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

    @property
    def passed(self) -> bool:
        return all(line.passed for line in self.lines)


def _check_line(label: str, solver: float, model: MilpModel, sign: float = 1.0,
                least: float = 0.0) -> CheckLine:
    """Enumeration's optimum of model against the solver's value; sign flips a maximized value.

    Values agree within 1e-6 of the larger magnitude, or of least if that is
    larger: costs at every unit, the level (least 1.0) as the ratio in [0, 1]
    it is, and a sum whose terms can cancel (least the sum of their
    magnitudes) to the round-off of those terms.  An oracle that finds no
    optimum reads NaN, which agrees with nothing.
    """
    oracle = oracle_solve(model)
    value = oracle.objective_value if oracle.status == OPTIMAL else float("nan")
    agree = abs(solver - value) <= 1e-6 * max(least, abs(solver), abs(value))
    return CheckLine(label, sign * solver, sign * value, agree)


def run_oracle_check(instance: IfctpInstance) -> OracleCheck:
    """Compare branch-and-bound answers against exhaustive enumeration.

    Solves the pipeline's five stage models once each and checks each of them
    against enumeration: the center and width anchors, the lower anchor by
    the payoff.lower.best that solve prints (plan_value of its plan, which
    can differ from the solve's objective in the last bits), the max-min
    level, and the refine weighted sum of the reported compromise values.
    The refine line also proves the compromise C Pareto optimal.  A plan P
    that beat C in one objective and lost to it in neither would meet the
    refine model's level rows at C's level and, both refine_weights being
    positive, have a smaller weighted sum: the refine optimum would lie below
    C's sum and the line would fail.  Refuses instances with more routes than
    the oracle can enumerate.
    """
    if instance.m * instance.n > ORACLE_MAX_BINARIES:
        raise OracleScopeError(
            f"{instance.m * instance.n} routes exceed the oracle's scope of "
            f"{ORACLE_MAX_BINARIES}")

    stages = Stages(instance)
    payoff, result = stages.compromise()
    stages.ideal()  # solves the center anchor; every checked solution is now optimal
    terms = [w * z for w, z in zip(refine_weights(payoff), result.objective_values)]
    models, solutions = stages.models, stages.solutions
    return OracleCheck((
        _check_line("ideal-center", solutions["center"].objective_value, models["center"]),
        _check_line("ideal-width", solutions["width"].objective_value, models["width"]),
        _check_line("anchor-lower", payoff.best[0], models["lower"]),
        _check_line("max-min level", solutions["max-min"].objective_value, models["max-min"],
                    sign=-1.0, least=1.0),
        _check_line("refine", sum(terms), models["refine"], least=sum(map(abs, terms)))))
