"""Max-min compromise between the two crisp objectives: the method's models and math.

The payoff table records, for each objective, its solo optimum (best level)
and its value at the other objective's optimum (worst acceptable level).
Those levels define linear satisfaction memberships; the compromise model
maximizes the smallest membership.  A second lexicographic pass then cleans
up weakly-efficient answers: holding the achieved level fixed, it minimizes
the range-normalized sum of both objectives, so the returned plan is Pareto
optimal rather than merely max-min optimal.

pipeline.Stages solves these models: the anchors give the payoff levels,
then the max-min model, which extends the anchors' model (crisp.to_milp),
and the refine model, derived from the max-min model at its level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .crisp import BiObjectiveMilp
from .milp import MilpModel
from .model import ShipmentPlan

# A payoff range this small relative to its levels is degenerate (both anchors
# agree on the objective); see _degenerate.
RANGE_TOL = 1e-9
# Numerical slack when pinning the achieved level in the refinement pass.
LEVEL_SLACK = 1e-9


@dataclass(frozen=True)
class PayoffTable:
    """Best (aspired) and worst (highest acceptable) level per objective.

    Index 0 is the lower-endpoint objective, index 1 the width objective.  A
    level row holds worst - best, so that span must be a finite float.
    """

    best: tuple[float, float]
    worst: tuple[float, float]

    def __post_init__(self) -> None:
        for k in range(2):
            if self.best[k] > self.worst[k]:
                raise ValueError(
                    f"objective {k}: best level {self.best[k]} exceeds worst {self.worst[k]}")
            if not math.isfinite(self.worst[k] - self.best[k]):
                raise ValueError(f"objective {k}: the span from best level {self.best[k]} "
                                 f"to worst {self.worst[k]} overflows a float")


@dataclass(frozen=True)
class CompromiseResult:
    """The refined compromise plan, its objective values and memberships, and the level."""

    lambda_star: float
    plan: ShipmentPlan
    objective_values: tuple[float, float]
    memberships: tuple[float, float]


def _degenerate(best: float, worst: float) -> bool:
    """Whether the range from best to worst is round-off: at most RANGE_TOL of the larger level.

    Relative, so a real range stays one at any cost unit; equal levels,
    zero included, are degenerate.
    """
    return worst - best <= RANGE_TOL * max(abs(best), abs(worst))


def membership(value: float, best: float, worst: float) -> float:
    """Linear satisfaction degree in [0, 1]; 1 when the levels coincide."""
    if _degenerate(best, worst):
        return 1.0
    return min(1.0, max(0.0, (worst - value) / (worst - best)))


def build_max_min_model(bi: BiObjectiveMilp, payoff: PayoffTable, anchors: MilpModel) -> MilpModel:
    """Max-min model: anchors' constraint set plus a level column and two level rows.

    anchors is crisp.to_milp's model; its objective is dropped.  The model
    maximizes the level, a column in none of anchors' rows.  For each
    objective with a positive payoff range the row
    z_k + level * range_k <= worst_k keeps the level below that objective's
    membership.  A degenerate range pins the objective to its optimum
    instead and leaves the level unconstrained by it.
    """
    level_var = anchors.c.size
    spans = [0.0 if _degenerate(best, worst) else worst - best
             for best, worst in zip(payoff.best, payoff.worst)]
    level_rows = np.column_stack((np.vstack((bi.obj_lower, bi.obj_width)), spans))
    c = np.zeros(level_var + 1)
    c[level_var] = -1.0  # maximize the level
    shared = np.column_stack((anchors.A, np.zeros(anchors.b.size)))
    return MilpModel(c, np.vstack((shared, level_rows)), np.append(anchors.senses, (1, 1)),
                     np.append(anchors.b, payoff.worst), np.append(anchors.lo, 0.0),
                     np.append(anchors.hi, 1.0), anchors.binaries)


def refine_weights(payoff: PayoffTable) -> tuple[float, float]:
    """The refine pass's positive weights on the lower-endpoint and width objectives.

    Weights are reciprocals of the payoff ranges so neither objective's scale
    dominates; degenerate ranges get weight one (the level row already pins them).
    """
    return tuple(1.0 if _degenerate(best, worst) else 1.0 / (worst - best)
                 for best, worst in zip(payoff.best, payoff.worst))


def build_refine_model(bi: BiObjectiveMilp, payoff: PayoffTable, max_min: MilpModel,
                       lambda_star: float) -> MilpModel:
    """Second-stage model: keep the level at lambda_star, minimize the refine_weights sum."""
    level_var = 2 * bi.m * bi.n
    combined = np.zeros(level_var + 1)
    for weight, objective in zip(refine_weights(payoff), (bi.obj_lower, bi.obj_width)):
        combined[:level_var] += weight * objective
    lo = max_min.lo.copy()
    lo[level_var] = max(0.0, lambda_star - LEVEL_SLACK)
    return replace(max_min, c=combined, lo=lo)

