"""Pipeline answers scale with the costs.

Multiplying every unit cost and fixed charge by k > 0 multiplies both
objectives by k, so the payoff levels, the ideal point and the objective
interval scale by k while λ* and the plan stay put.  The LP kernel scales
each model by powers of two before its absolute pivot and feasibility
tolerances apply, so these cases guard that scaling at either end of the
cost scale: in the max-min and refine models at costs x 1e6, the level rows
carry coefficients near 1e8.  For k a power of two every product and sum
scales exactly, so the property test asks for bit-identical answers; the
shipped instance gives them for p in [-31, 120] but not just below that.
oracle-check's dominance probe must mean the same at every scale too.
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _random_instances import random_instance
from conftest import bench1_instance, scaled_costs

from ifctp import (IfctpInstance, Interval, Stages, render_instance, run_oracle_check,
                   run_pipeline)
from ifctp.cli import main

REL = 1e-9

# A 2x3 instance (the 4th draw of random_instance(random.Random(185))) whose
# refine model has tied optima: λ* is 0, so the level row binds nothing, and
# the two anchor plans have the same weighted sum.  At cost scale 1e6 branch
# and bound finds the other one, so objective.lo / k moves from 263 to 274
# and objective.hi / k from 533 to 396.
TIED_AT_LEVEL_ZERO = IfctpInstance(
    [[Interval(25, 34), Interval(11, 21), Interval(37, 48)],
     [Interval(27, 37), Interval(14, 45), Interval(45, 45)]],
    [[Interval(33, 46), Interval(50, 50), Interval(31, 40)],
     [Interval(4, 10), Interval(18, 19), Interval(17, 33)]],
    [Interval(12, 23), Interval(17, 32)],
    [Interval(3, 16), Interval(7, 13), Interval(1, 28)],
)


def _draw(seed, count):
    """The count-th draw (from 1) of random_instance(random.Random(seed))."""
    rng = random.Random(seed)
    for _ in range(count):
        instance = random_instance(rng)
    return instance


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
    pytest.param(TIED_AT_LEVEL_ZERO, 1e6, id="tied-1e6", marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="tied refine optima: the plan depends on the search path")),
    pytest.param(TIED_AT_LEVEL_ZERO, 1e-7, id="tied-1e-7"),
    # An unscaled LP engine with absolute tolerances got these wrong at 1e6:
    # λ* 0.8010 against 0.8062; memberships (0.933, 0.746) at λ* 0.776; and
    # a refine pattern that "solved infeasible" (exit 5).
    pytest.param(_draw(33, 40), 1e6, id="draw-33-40-1e6"),
    pytest.param(_draw(27, 36), 1e6, id="draw-27-36-1e6"),
    pytest.param(_draw(2592, 21), 1e6, id="draw-2592-21-1e6"),
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


def _assert_scales_exactly(instance, p):
    k = 2.0 ** p
    base = run_pipeline(instance)
    scaled = run_pipeline(scaled_costs(instance, k))
    assert scaled.status == base.status == "optimal"
    # repr tells every bit apart, the sign of a zero included.
    assert repr((scaled.lambda_star, scaled.memberships, scaled.plan)) == \
        repr((base.lambda_star, base.memberships, base.plan))
    for got, want in [(scaled.payoff.best, base.payoff.best),
                      (scaled.payoff.worst, base.payoff.worst),
                      ((scaled.ideal.center, scaled.ideal.width),
                       (base.ideal.center, base.ideal.width)),
                      ((scaled.objective.lo, scaled.objective.hi),
                       (base.objective.lo, base.objective.hi))]:
        assert got == tuple(k * v for v in want)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), p=st.integers(-20, 20))
def test_power_of_two_scale_is_exact(seed, p):
    _assert_scales_exactly(random_instance(random.Random(seed)), p)


_SMALL_UNIT_BREAKS = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="λ* comes out 0.551, 1.0, 0.947 and 0.951 instead of 52/67; not diagnosed yet")


@pytest.mark.parametrize("p", [
    -31, 120,
    *(pytest.param(p, marks=_SMALL_UNIT_BREAKS) for p in (-32, -33, -34, -35)),
])
def test_shipped_instance_power_of_two_scale_is_exact(p):
    _assert_scales_exactly(bench1_instance(), p)


def test_oracle_check_passes_at_costs_times_1e9(tmp_path, capsys):
    # The width probe finds the compromise's own width one ulp lower,
    # 169044776045.90295 against 169044776045.90298; an absolute tolerance
    # of 1e-6 called that a domination.
    path = tmp_path / "scaled.txt"
    path.write_text(render_instance(scaled_costs(bench1_instance(), 1e9)))
    assert main(["oracle-check", str(path)]) == 0
    assert "pareto dominance: none found" in capsys.readouterr().out


@pytest.mark.parametrize("factor", [1e-9, 1.0, 1e9])
def test_oracle_check_finds_a_slightly_worse_compromise_dominated(monkeypatch, factor):
    # The compromise's width is reported 1e-4 (relative) above its plan's,
    # so its own plan dominates it.  At costs x 1e-9 the width is near 1e-7,
    # below an absolute tolerance of 1e-6.
    compromise = Stages.compromise

    def worse_width(self, override=None):
        payoff, result = compromise(self, override)
        lower, width = result.objective_values
        return payoff, dataclasses.replace(result, objective_values=(lower, width * (1 + 1e-4)))

    monkeypatch.setattr(Stages, "compromise", worse_width)
    check = run_oracle_check(scaled_costs(TIED_AT_LEVEL_ZERO, factor))
    assert check.dominated and not check.passed
