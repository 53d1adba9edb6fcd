"""Instances that mix magnitudes from 1e-9 to 1e6 break down where HiGHS does not.

A seeded sweep of small instances with such magnitudes inside one instance
found draws that exit 5, though HiGHS (tests/_highs.py) solves every max-min
model among them.  Three are kept as data files, each a strict xfail that
asks for HiGHS's λ* (ROADMAP items 9 and 15).
"""

import pathlib

import pytest

from _highs import highs_solve

from ifctp import DegeneratePivotError, Stages, parse_instance, run_oracle_check, run_pipeline
from ifctp.compromise import build_max_min_model
from ifctp.crisp import to_milp

DATA = pathlib.Path(__file__).resolve().parent / "data"


def _instance(name):
    return parse_instance((DATA / f"mixed_magnitudes_{name}.txt").read_text())


def _highs_level(instance):
    """HiGHS's λ* on the max-min model at the payoff levels the anchors give."""
    stages = Stages(instance)
    bi = stages.bi
    status, value = highs_solve(build_max_min_model(bi, stages.payoff(),
                                                    to_milp(bi, bi.obj_center)))
    assert status == "optimal"
    return min(1.0, max(0.0, -value))


@pytest.mark.parametrize("name", [
    pytest.param("max_min_breakdown", id="max-min", marks=pytest.mark.xfail(
        strict=True, raises=DegeneratePivotError,
        reason="the max-min search ends on sub-tolerance pivots")),
    pytest.param("refine_breakdown", id="refine", marks=pytest.mark.xfail(
        strict=True, raises=DegeneratePivotError,
        reason="the refine model ends infeasible at the max-min level")),
])
def test_pipeline_gives_the_highs_level(name):
    # HiGHS gives λ* 0 on max-min and 0.4834093828903028 on refine.
    instance = _instance(name)
    assert abs(run_pipeline(instance).lambda_star - _highs_level(instance)) <= 1e-9


@pytest.mark.xfail(strict=True, raises=DegeneratePivotError,
                   reason="enumeration ends on sub-tolerance pivots in the max-min model")
def test_oracle_check_confirms_a_right_level():
    # solve gives λ* 0.9020722822049482 and HiGHS 0.9020722822049484, but
    # oracle_solve breaks down on the max-min model, so the reference cannot
    # check a right answer.
    instance = _instance("oracle_breakdown")
    assert abs(run_pipeline(instance).lambda_star - _highs_level(instance)) <= 1e-9
    assert run_oracle_check(instance).passed
