"""Pipeline answers do not depend on the unit of the quantities.

Writing supplies and demands in a unit 2^-p times as large multiplies them by
2^p and every unit cost by 2^-p.  Every plan's cost stays the same, so λ*,
the memberships, the payoff levels, the ideal point and the objective
interval stay put, and the shipments scale by 2^p.  Which routes are open
and which plans warn must follow: a route is open iff it ships a positive
amount, and the plan check compares each row sum with its own bound.
"""

import functools

import pytest

from _highs import highs_solve
from _random_instances import draws
from conftest import bench1_instance, rescaled

from ifctp import (DegeneratePivotError, IfctpInstance, Interval, Stages, run_oracle_check,
                   run_pipeline)

REL = 1e-9
POWERS = (-30, -24, -20, -10, -3, 10, 20, 30)


DRAWS = draws(4242, 48)
INSTANCES = {"paper": bench1_instance(),
             **{f"draw-{k}": inst for k, inst in enumerate(DRAWS[:15])}}
# Past 2^-30 the pipeline answers some draws wrongly, and HiGHS agrees with the
# unscaled answers: draw 25 at 2^-34 gives λ* 0.6664670658682637 against
# 0.6663636363636365.  Draw 47 at 2^-38 gave payoff.lower.best 489.0 against
# 485.0 and λ* 0.6042 against 0.0426 while branch and bound pruned within a
# margin of the objective's unit: that case multiplies unit costs by 2^38, and
# the margin grew with them until it hid the optimum.  Branch and bound
# compares exactly now, and draw 47 stays here as a passing case.  Of the 300
# draws of random.Random(4242), this test's checks fail 3 at 2^-34, 4 at
# 2^-38 and 199 at 2^-42 (3, 14 and 207 with the margin).
#
# The 1x1 below is right at 2^-40 and wrong at 2^-42: its plan ships 0 and
# warns "column 1 receives 0 < demand floor 2.27373675443e-13".  Its link
# row reads y - 2^-42 x <= 0, and the entry 2^-42 is below SCALE_FLOOR
# (2^-40) of the row's largest, so it sets no scale, and every transport row
# keeps scale 1.
# The demand floor's scaled b, 2.3e-13, then passes under BOUND_TOL (1e-9) at
# y = 0.  Whether draw 25 fails for the same cause is not checked.
ONE_BY_ONE = IfctpInstance([[Interval(1, 2)]], [[Interval(3, 4)]], [Interval(1, 1)],
                           [Interval(1, 1)])
WRONG = pytest.mark.xfail(strict=True, raises=AssertionError, reason="wrong answers below 2^-30")
BELOW_2_TO_THE_30 = {"draw-25": (DRAWS[25], -34, WRONG), "draw-47": (DRAWS[47], -38, ()),
                     "1x1": (ONE_BY_ONE, -42, WRONG)}
# Above 2^30 the shipped instance is right at 2^31, 2^32 and 2^33.  At 2^34
# the anchors are right and the max-min solve breaks down: "the incumbent's
# activation pattern solved infeasible".
ABOVE_2_TO_THE_30 = [
    pytest.param("paper", 32, id="paper-p32"),
    pytest.param("paper", 34, id="paper-p34", marks=pytest.mark.xfail(
        strict=True, raises=DegeneratePivotError, reason="max-min breakdown at 2^34"))]


@functools.lru_cache(maxsize=None)
def _base_report(name):
    return run_pipeline(INSTANCES[name] if name in INSTANCES else BELOW_2_TO_THE_30[name][0])


def _unit_free(report, factor):
    """The report's numbers, shipments divided by factor."""
    return {
        "lambda_star": [report.lambda_star],
        "memberships": list(report.memberships),
        "payoff": [*report.payoff.best, *report.payoff.worst],
        "ideal": [report.ideal.center, report.ideal.width],
        "objective": [report.objective.lo, report.objective.hi],
        "plan": [v / factor for row in report.plan.y for v in row],
    }


@pytest.mark.parametrize("name, p", [pytest.param(name, p, id=f"{name}-p{p}")
                                     for name in INSTANCES for p in POWERS] + [
    pytest.param(name, p, id=f"{name}-p{p}", marks=marks)
    for name, (_, p, marks) in BELOW_2_TO_THE_30.items()] + ABOVE_2_TO_THE_30)
def test_answers_do_not_depend_on_the_quantity_unit(name, p):
    factor = 2.0 ** p
    base = _base_report(name)
    instance = INSTANCES[name] if name in INSTANCES else BELOW_2_TO_THE_30[name][0]
    scaled = run_pipeline(rescaled(instance, factor, 1 / factor))
    assert scaled.status == base.status == "optimal"
    assert scaled.plan.x == base.plan.x
    want, got = _unit_free(base, 1.0), _unit_free(scaled, factor)
    for key, values in want.items():
        assert len(got[key]) == len(values)
        for a, b in zip(got[key], values):
            assert abs(a - b) <= REL * max(1.0, abs(a), abs(b)), (key, a, b)
    assert scaled.plan_violations == base.plan_violations


@pytest.mark.parametrize("index", [4, 47])
def test_large_quantities_raise_no_false_warning(index):
    # Under an absolute slack of 1e-6, round-off in a column sum read as an
    # unmet floor: "column 2 receives 2.6e+10 < demand floor 2.6e+10".
    report = run_pipeline(rescaled(draws(5, index + 1)[index], 1e9, 1.0))
    assert report.status == "optimal"
    assert report.plan_violations == ()


def test_shipped_instance_at_quantities_times_1e9_matches_highs():
    # A warm child of the width anchor, {x(3,2) = 0}, came back infeasible from
    # its parent's basis although it holds the optimum, so the width anchor
    # ended at 133000000033 and λ* at 0.5833.  A warm child's infeasible
    # verdict now stands only once a solve from the slack start gives it too.
    stages = Stages(rescaled(bench1_instance(), 1e9, 1.0))
    for name in ("center", "width", "lower"):
        ours = stages.anchor(name).objective_value
        status, value = highs_solve(stages.models[name])
        assert status == "optimal" and abs(ours - value) <= 1e-12 * value, name
    assert stages.anchor("width").objective_value == 133000000030.0
    _, result = stages.compromise()
    assert abs(result.lambda_star - 0.8901) < 1e-4


def test_shipped_instance_at_quantities_times_1e_minus_8():
    # A warm max-min child used to break down here ("leaving row has only
    # sub-tolerance pivots").  HiGHS's tolerances give 0 for every stage model
    # at this unit, so the oracle, which shares the kernel, is the check.
    instance = rescaled(bench1_instance(), 1e-8, 1.0)
    report = run_pipeline(instance)
    assert report.status == "optimal"
    assert report.plan_violations == ()
    assert abs(report.lambda_star - 0.583333325208333) <= 1e-6
    assert run_oracle_check(instance).passed


def test_draw_30_at_quantities_times_1e6():
    # Unscaled, this 2x2 draw solves at λ* 1.0.  At supplies and demands ×1e6
    # a warm max-min child came back infeasible from its parent's basis,
    # and so did its re-run from the basis where it stopped, so the search
    # ended with no incumbent and the run broke down.  Solved again from the
    # slack start, the child is optimal.
    report = run_pipeline(rescaled(draws(5, 31)[30], 1e6, 1.0))
    assert report.status == "optimal"
    assert report.lambda_star == 1.0


@pytest.mark.xfail(strict=True, raises=DegeneratePivotError,
                   reason="the max-min's incumbent pattern solves infeasible")
def test_draw_96_at_quantities_times_2_to_the_30():
    # Unscaled, this 2x3 draw solves at λ* 0.4726141078838175.  At supplies
    # and demands ×2^30 the three anchors are optimal and the payoff table is
    # the unscaled one (889/1292, 107/245), yet the max-min solve breaks down:
    # "the incumbent's activation pattern solved infeasible".  ×2^29 passes;
    # ×2^30, 2^31, 2^32 and 2^34 break down.  Of the first 100 draws of
    # random.Random(4242), only this one breaks down at ×2^30.
    report = run_pipeline(rescaled(draws(4242, 97)[96], 2**30, 2**-30))
    assert report.status == "optimal"
    assert abs(report.lambda_star - 0.4726141078838175) <= 1e-9
