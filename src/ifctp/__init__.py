"""Interval fixed-charge transportation: crispification, compromise, ideal point.

Typical use::

    from ifctp import parse_instance, run_pipeline
    report = run_pipeline(parse_instance(open("problem.txt").read()))
    print(report.distance)
"""

from .compromise import CompromiseResult, PayoffTable
from .intervals import CenterWidth, Interval, distance_to_ideal
from .milp import DegeneratePivotError, MilpModel, MilpSolution, NodeLimitError, OracleScopeError
from .model import IfctpInstance, InvalidInstanceError, ShipmentPlan, check_plan
from .pipeline import (CompetitorEntry, CompromiseReport, InfeasibleProblemError, OracleCheck,
                       Stages, UnattainableLevelsError, run_oracle_check, run_pipeline)
from .problemfile import ProblemFileError, parse_instance, render_instance
from .reporting import (render_ideal, render_machine, render_oracle_check, render_payoff,
                        render_text)

__all__ = [
    "CenterWidth", "CompetitorEntry", "CompromiseReport", "CompromiseResult",
    "DegeneratePivotError", "IfctpInstance", "InfeasibleProblemError", "Interval",
    "InvalidInstanceError", "MilpModel", "MilpSolution", "NodeLimitError", "OracleCheck",
    "OracleScopeError", "PayoffTable", "ProblemFileError", "ShipmentPlan", "Stages",
    "UnattainableLevelsError", "check_plan", "distance_to_ideal", "parse_instance",
    "render_ideal", "render_instance", "render_machine", "render_oracle_check",
    "render_payoff", "render_text", "run_oracle_check", "run_pipeline",
]
