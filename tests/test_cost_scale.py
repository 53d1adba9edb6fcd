"""Pipeline answers scale with the costs.

Multiplying every unit cost and fixed charge by k > 0 multiplies both
objectives by k, so the payoff levels, the ideal point and the objective
interval scale by k while λ* and the plan stay put.  The LP engine's pivot
and feasibility tolerances are absolute, so these cases guard them at either
end of the cost scale.
"""

import pytest

from conftest import bench1_instance, scaled_costs

from ifctp import IfctpInstance, Interval, run_pipeline

REL = 1e-9

# A 2x2 instance (the 10th draw of random_instance(random.Random(5))) whose
# width anchor has tied optima: at cost scale 1e6 branch and bound finds
# another one, so payoff.worst[0] / k moves from 2476 to 2692 and λ* from
# 0.4681 to 0.5297.
TIED_WIDTH_ANCHOR = IfctpInstance(
    [[Interval(36, 36), Interval(27, 41)], [Interval(23, 35), Interval(43, 44)]],
    [[Interval(38, 41), Interval(16, 39)], [Interval(1, 23), Interval(26, 34)]],
    [Interval(27, 30), Interval(45, 49)],
    [Interval(24, 25), Interval(36, 45)],
)


def _scale_free(report, factor):
    """The report's numbers with every cost-valued one divided by factor."""
    per_k = lambda *values: [v / factor for v in values]
    return {
        "lambda_star": [report.lambda_star],
        "payoff": per_k(*report.payoff.best, *report.payoff.worst),
        "ideal": per_k(report.ideal.center, report.ideal.width),
        "objective": per_k(report.objective.lo, report.objective.hi),
        "plan": [v for row in report.plan.y for v in row],
    }


@pytest.mark.parametrize("instance, factor", [
    pytest.param(bench1_instance(), 1e6, id="paper-1e6"),
    pytest.param(bench1_instance(), 1e-7, id="paper-1e-7"),
    pytest.param(TIED_WIDTH_ANCHOR, 1e6, id="tied-2x2-1e6", marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="tied width-anchor optima: the payoff depends on the search path")),
    pytest.param(TIED_WIDTH_ANCHOR, 1e-7, id="tied-2x2-1e-7"),
])
def test_pipeline_scales_with_costs(instance, factor):
    base = run_pipeline(instance)
    scaled = run_pipeline(scaled_costs(instance, factor))
    assert scaled.status == base.status == "optimal"
    assert scaled.plan.x == base.plan.x
    want, got = _scale_free(base, 1.0), _scale_free(scaled, factor)
    for key, values in want.items():
        assert len(got[key]) == len(values)
        for a, b in zip(got[key], values):
            assert abs(a - b) <= REL * max(1.0, abs(a), abs(b)), (key, a, b)
