"""Pipeline answers scale with the costs.

Multiplying every unit cost and fixed charge by k > 0 multiplies both
objectives by k, so the payoff levels, the ideal point and the objective
interval scale by k while λ* and the plan stay put.  The LP kernel scales
each model's rows, columns and objective by powers of two before its
absolute pivot, reduced-cost and feasibility tolerances apply, so these
cases guard that scaling at either end of the cost scale: in the max-min
and refine models at costs x 1e6, the level rows carry coefficients near
1e8.  For k a power of two every product and sum scales exactly, so the
property test asks for bit-identical answers; the shipped instance gives
them for p in [-49, 120].  That takes a degenerate payoff range relative to
its levels (compromise._degenerate) and rounded-point row tolerances
relative to each row's right-hand side (solve_milp): with absolute ones,
the width range 27 * 2^-35 counted as degenerate and λ* was 1.0, and from
p = -36 a rounded max-min point at level 1.0 that broke a level row by
7.5% of its right-hand side passed as the incumbent, pruned the optimum
and left λ* at 0.6766.
oracle-check's dominance probe and ideal-point lines must mean the same at every
scale too, and every anchor must be its exact optimum at unit costs up to 1e12.
"""

import dataclasses
import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _random_instances import draws, random_instance
from conftest import bench1_instance, record_solves, rescaled, scaled_costs

from ifctp import (DegeneratePivotError, IfctpInstance, Interval, Stages, parse_instance,
                   render_instance, run_oracle_check, run_pipeline)
from ifctp.cli import main
from ifctp.milp import oracle_solve, solve_milp

REL = 1e-9

# A 2x3 instance (the 4th draw of random_instance(random.Random(185))) whose
# refine model has tied optima: λ* is 0, so the level row binds nothing, and
# the two anchor plans have the same weighted sum.  With every big-M at its
# row's supply cap, the refine root LP was fractional, and at cost scale 1e6
# branch and bound reached the other tied plan, so objective.lo / k moved
# from 263 to 274 and objective.hi / k from 533 to 396.  With M_ij =
# min(s_i.hi, d_j.lo) the root LP is integral at both scales.
TIED_AT_LEVEL_ZERO = IfctpInstance(
    [[Interval(25, 34), Interval(11, 21), Interval(37, 48)],
     [Interval(27, 37), Interval(14, 45), Interval(45, 45)]],
    [[Interval(33, 46), Interval(50, 50), Interval(31, 40)],
     [Interval(4, 10), Interval(18, 19), Interval(17, 33)]],
    [Interval(12, 23), Interval(17, 32)],
    [Interval(3, 16), Interval(7, 13), Interval(1, 28)],
)


def test_level_zero_data_file_holds_the_tied_instance():
    # test_pipeline_cli.py's TestCliExactOutcomes runs oracle-check on the file.
    path = pathlib.Path(__file__).resolve().parent / "data" / "tied_at_level_zero.txt"
    assert parse_instance(path.read_text()) == TIED_AT_LEVEL_ZERO


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
    pytest.param(TIED_AT_LEVEL_ZERO, 1e6, id="tied-1e6"),
    pytest.param(TIED_AT_LEVEL_ZERO, 1e-7, id="tied-1e-7"),
    # An unscaled LP engine with absolute tolerances got these wrong at 1e6:
    # λ* 0.8010 against 0.8062; memberships (0.933, 0.746) at λ* 0.776; and
    # a refine pattern that "solved infeasible" (exit 5).
    pytest.param(draws(33, 40)[-1], 1e6, id="draw-33-40-1e6"),
    pytest.param(draws(27, 36)[-1], 1e6, id="draw-27-36-1e6"),
    pytest.param(draws(2592, 21)[-1], 1e6, id="draw-2592-21-1e6"),
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


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), p=st.integers(-20, 20))
def test_power_of_two_scale_is_exact(seed, p):
    _assert_scales_exactly(random_instance(random.Random(seed)), p)


@pytest.mark.parametrize("p", [-49, -45, -40, -36, -35, -34, -33, -32, -31, 120])
def test_shipped_instance_power_of_two_scale_is_exact(p):
    _assert_scales_exactly(bench1_instance(), p)


def _with_route_1_1_charged(charge: str) -> IfctpInstance:
    """The shipped instance with route (1,1)'s fixed charge replaced by charge, "[lo,hi]"."""
    text = (pathlib.Path(__file__).resolve().parent.parent / "problems"
            / "safi_razmjoo_1.txt").read_text()
    line = "cost 1 1 = [4,8] fixed [10,30]"
    assert line in text
    return parse_instance(text.replace(line, f"cost 1 1 = [4,8] fixed {charge}"))


def test_tiny_charge_data_file_holds_the_shipped_instance_with_route_1_1_charged_1e_16():
    # test_pipeline_cli.py's TestCliExactOutcomes runs oracle-check on the file.
    path = pathlib.Path(__file__).resolve().parent / "data" / "safi_razmjoo_1_tiny_charge.txt"
    assert parse_instance(path.read_text()) == _with_route_1_1_charged("[1e-16,1e-15]")


@pytest.mark.parametrize("charge", ["[1e-320,1e-310]", "[1e-200,1e-190]", "[1e-30,1e-20]",
                                    "[1e-16,1e-15]"])
def test_tiny_fixed_charge_answers_as_no_charge(charge):
    # The charge sits in the level rows of the max-min and refine models and in
    # its route's activation column, far below their other entries.  It used
    # to set those rows' and that column's scale, and the run exited 5: "the
    # incumbent's activation pattern solved infeasible" at 1e-16, "the max-min
    # model is infeasible at the computed payoff levels" at 1e-200.
    free = run_pipeline(_with_route_1_1_charged("[0,0]"))
    tiny = run_pipeline(_with_route_1_1_charged(charge))
    assert free.lambda_star == tiny.lambda_star == 0.7761194029850746
    assert tiny.payoff == free.payoff


def test_anchors_are_exact_at_unit_costs_up_to_1e12():
    # Branch and bound once pruned within 1e-9 times the objective's unit, the
    # power of two nearest its largest cost, so the margin grew with the unit
    # costs.  The width anchor ended 4 above its optimum at k = 1e9, 2^30 and
    # 1e12, after one to three nodes.
    nodes = set()
    for k in (1e6, 1e9, 2.0 ** 30, 1e12):
        stages = Stages(rescaled(bench1_instance(), 1.0, k))
        exact = {"center": 674 * k + 167, "width": 133 * k + 30, "lower": 524 * k + 134}
        assert {name: stages.anchor(name).objective_value for name in exact} == exact, k
        nodes.add(tuple(stages.anchor(name).nodes for name in exact))
    assert len(nodes) == 1, nodes


def test_unit_costs_1e9_data_file_holds_the_shipped_instance_at_unit_costs_times_1e9():
    # test_pipeline_cli.py's TestCliExactOutcomes runs ideal on the file.
    path = pathlib.Path(__file__).resolve().parent / "data" / "safi_razmjoo_1_unit_costs_1e9.txt"
    assert parse_instance(path.read_text()) == rescaled(bench1_instance(), 1.0, 1e9)


def test_costs_1e40_data_file_holds_the_shipped_instance_at_costs_1e40_quantities_1e_minus_10():
    # test_pipeline_cli.py's TestCliExactOutcomes runs solve and oracle-check on the file and
    # expects exit 0 from both.
    path = (pathlib.Path(__file__).resolve().parent / "data"
            / "safi_razmjoo_1_costs_1e40_quantities_1e-10.txt")
    assert parse_instance(path.read_text()) == rescaled(scaled_costs(bench1_instance(), 1e40),
                                                        1e-10, 1.0)


def test_costs_1e300_data_file_holds_the_shipped_instance_at_costs_1e300_quantities_1e_minus_20():
    # test_pipeline_cli.py's TestCliExactOutcomes runs solve on the file and expects exit 5
    # with one error line.
    path = (pathlib.Path(__file__).resolve().parent / "data"
            / "safi_razmjoo_1_costs_1e300_quantities_1e-20.txt")
    assert parse_instance(path.read_text()) == rescaled(scaled_costs(bench1_instance(), 1e300),
                                                        1e-20, 1.0)


@pytest.mark.parametrize("quantity", [1e-10, 1e-20, 1e-40])
def test_an_overflowing_scaled_objective_is_a_numerical_breakdown(quantity):
    # A fixed charge near 1e301 over a big-M of 2e-9 or less overflows a
    # float in the shipment-only form's per-unit cost, and scaling by the
    # columns overflows the bounded form's.  The inf costs turned to NaN with six
    # RuntimeWarnings, and at quantities x 1e-20 the run printed a zero plan.
    with pytest.raises(DegeneratePivotError, match="the scaled objective overflows a float"):
        run_pipeline(rescaled(scaled_costs(bench1_instance(), 1e300), quantity, 1.0))


@pytest.mark.parametrize("factor", [1e-300])
def test_warm_start_never_moves_a_nonbasic_to_an_infinite_bound(factor):
    # In the bounded form a warm start's reduced costs differ from its
    # parent's only by round-off, yet one of the wrong sign flipped an
    # inequality row's slack to its other bound, -inf or inf, and the LP
    # turned to NaN: here, at costs x 1e-300, a search that ran for minutes
    # into the node limit.  The slack now stays.  The warm child then broke
    # down on sub-tolerance pivots and ended the run (exit 5); solved again
    # from the slack start, it is optimal, and the run solves at the
    # oracle's max-min level.  At costs x 1e40 the flip raised a
    # RuntimeWarning; test_pipeline_cli.py's TestCliExactOutcomes pins that
    # copy's solve and oracle-check output (the costs-1e40-quantities-1e-10 rows).
    instance = rescaled(scaled_costs(bench1_instance(), factor), 1e-10, 1.0)
    report = run_pipeline(instance)
    assert report.status == "optimal" and report.plan_violations == ()
    stages = Stages(instance)
    stages.compromise()
    assert report.lambda_star == -oracle_solve(stages.models["max-min"]).objective_value


def test_oracle_check_passes_at_costs_times_1e9(tmp_path, capsys):
    # The compromise's width is 169044776045.90298, and enumeration can land
    # an ulp away from it, far more than an absolute 1e-6.  The refine line
    # weighs both objectives by their reciprocal payoff ranges, so it compares
    # sums near 10.84 whatever the cost unit, within 1e-6 of their magnitude.
    path = tmp_path / "scaled.txt"
    path.write_text(render_instance(scaled_costs(bench1_instance(), 1e9)))
    assert main(["oracle-check", str(path)]) == 0
    refine, = [line for line in capsys.readouterr().out.splitlines()
               if line.startswith("refine: ")]
    assert refine.endswith(" ok")


@pytest.mark.parametrize("factor", [1e-9, 1.0, 1e9])
@pytest.mark.parametrize("inflated", [0, 1], ids=["lower", "width"])
def test_oracle_check_finds_a_slightly_worse_compromise_dominated(monkeypatch, inflated,
                                                                  factor):
    # One compromise objective is reported 1e-4 (relative) above its plan's,
    # so its own plan dominates it.  Of the refine weighted sum 25.7, the
    # width term is 1.8 and the lower term 23.9, so either inflation moves the
    # sum by more than 1e-6 of it.  At costs x 1e-9 the width is near 1e-7,
    # below an absolute tolerance of 1e-6.
    compromise = Stages.compromise

    def worse(self, override=None):
        payoff, result = compromise(self, override)
        values = list(result.objective_values)
        values[inflated] *= 1 + 1e-4
        return payoff, dataclasses.replace(result, objective_values=tuple(values))

    monkeypatch.setattr(Stages, "compromise", worse)
    check = run_oracle_check(scaled_costs(TIED_AT_LEVEL_ZERO, factor))
    assert [line.name for line in check.lines if not line.passed] == ["refine"]
    assert not check.passed


@pytest.mark.parametrize("factor", [1e-9, 1.0, 1e9])
def test_oracle_check_fails_ideal_lines_half_again_too_high(monkeypatch, factor):
    # Every anchor reports 1.5 times its optimum.  At costs x 1e-9 the ideal
    # point is near 1e-7, so a tolerance of 1e-6 times at least one passed it.
    # anchor-lower checks payoff.lower.best, the value of the lower anchor's
    # plan, so it passes.
    def half_again(name, model, kwargs):
        if name == "solve_milp":
            solution = solve_milp(model, **kwargs)
            return dataclasses.replace(solution, objective_value=1.5 * solution.objective_value)

    check, _ = record_solves(
        monkeypatch, lambda: run_oracle_check(scaled_costs(TIED_AT_LEVEL_ZERO, factor)), half_again)
    assert [(line.name, line.passed) for line in check.lines] == [
        ("ideal-center", False), ("ideal-width", False), ("anchor-lower", True),
        ("max-min level", True), ("refine", True)]
    assert not check.passed


@pytest.mark.parametrize("factor", [1e-9, 1.0, 1e9])
def test_oracle_check_fails_a_lower_best_slightly_too_high(monkeypatch, factor):
    # payoff.lower.best is reported 1e-4 (relative) above the lower anchor's
    # optimum; the max-min and refine models are built at that payoff table,
    # so only anchor-lower fails.
    payoff = Stages.payoff

    def worse(self):
        table = payoff(self)
        return dataclasses.replace(table, best=(table.best[0] * (1 + 1e-4), table.best[1]))

    monkeypatch.setattr(Stages, "payoff", worse)
    check = run_oracle_check(scaled_costs(TIED_AT_LEVEL_ZERO, factor))
    assert [line.name for line in check.lines if not line.passed] == ["anchor-lower"]
