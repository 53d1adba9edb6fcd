"""Interval fixed-charge transportation: crispification, compromise, ideal point.

Typical use::

    from ifctp import parse_instance, run_pipeline
    report = run_pipeline(parse_instance(open("problem.txt").read()))
    print(report.distance)
"""

from .compromise import CompromiseResult, PayoffTable, build_max_min_model, membership
from .crisp import (BiObjectiveMilp, build_bi_objective, evaluate_interval_objective,
                    extract_plan, plan_value, to_milp)
from .intervals import CenterWidth, Interval, distance_to_ideal
from .milp import (DegeneratePivotError, MilpModel, MilpSolution, NodeLimitError,
                   OracleScopeError, oracle_solve, solve_milp)
from .model import IfctpInstance, InvalidInstanceError, ShipmentPlan, check_plan
from .pipeline import (CompetitorEntry, CompromiseReport, InfeasibleProblemError, OracleCheck,
                       Stages, UnattainableLevelsError, run_oracle_check, run_pipeline)
from .problemfile import ProblemFileError, parse_instance, render_instance
from .reporting import (render_ideal, render_machine, render_oracle_check, render_payoff,
                        render_text)

__all__ = [
    "BiObjectiveMilp", "CenterWidth", "CompetitorEntry", "CompromiseReport",
    "CompromiseResult", "DegeneratePivotError", "IfctpInstance",
    "InfeasibleProblemError", "Interval", "InvalidInstanceError",
    "MilpModel", "MilpSolution", "NodeLimitError", "OracleCheck", "OracleScopeError",
    "PayoffTable", "ProblemFileError", "ShipmentPlan", "Stages",
    "UnattainableLevelsError",
    "build_bi_objective", "build_max_min_model", "check_plan",
    "distance_to_ideal", "evaluate_interval_objective",
    "extract_plan", "membership", "oracle_solve", "parse_instance", "plan_value",
    "render_ideal", "render_instance", "render_machine", "render_oracle_check",
    "render_payoff", "render_text", "run_oracle_check", "run_pipeline",
    "solve_milp", "to_milp",
]

__version__ = "0.1.0"
