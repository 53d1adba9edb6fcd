import pathlib
import random

import pytest

from _random_instances import random_instance
from _reference import (BEST_LOWER, BEST_WIDTH, IDEAL_CENTER, IDEAL_WIDTH,
                        LEVEL_STAR, PAYOFF_OVERRIDE, WORST_LOWER, WORST_WIDTH,
                        Z_LOWER_STAR, Z_WIDTH_STAR)
from conftest import record_solves, zero_width_bench1

from ifctp import (IfctpInstance, InfeasibleProblemError, Interval, PayoffTable, Stages,
                   check_plan, parse_instance)
from ifctp.compromise import build_max_min_model, membership
from ifctp.crisp import build_bi_objective, extract_plan, to_milp
from ifctp.milp import solve_milp

DATA_DIR = pathlib.Path(__file__).resolve().parent / "data"

def _anchor_plans(stages):
    """The plans of the lower-endpoint and width anchor solutions."""
    return tuple(extract_plan(stages.bi, stages.anchor(name).assignment)
                 for name in ("lower", "width"))


def _compromise(instance, override=None):
    """The compromise under the computed payoff table, or at override levels."""
    return Stages(instance).compromise(override)[1]


class TestPayoff:
    def test_best_levels_exact(self, bench1):
        payoff = Stages(bench1).payoff()
        assert payoff.best[0] == pytest.approx(BEST_LOWER, rel=1e-9)
        assert payoff.best[1] == pytest.approx(BEST_WIDTH, rel=1e-9)

    def test_worst_levels_near_reference(self, bench1):
        # alternate optima may move the anchors a little
        payoff = Stages(bench1).payoff()
        assert payoff.worst[0] == pytest.approx(WORST_LOWER, abs=2.0)
        assert payoff.worst[1] == pytest.approx(WORST_WIDTH, abs=2.0)

    def test_anchor_plans_are_feasible(self, bench1):
        for plan in _anchor_plans(Stages(bench1)):
            assert check_plan(bench1, plan) == []

    def test_zero_width_instance_collapses_width_levels(self):
        payoff = Stages(zero_width_bench1()).payoff()
        assert payoff.best[1] == payoff.worst[1] == 0.0

    def test_inverted_levels_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            PayoffTable((10.0, 0.0), (5.0, 1.0))

    def test_infeasible_instance_propagates(self):
        starved = IfctpInstance([[Interval(1, 2)]], [[Interval(1, 1)]],
                                [Interval(3, 3)], [Interval(9, 9)])
        with pytest.raises(InfeasibleProblemError):
            Stages(starved).payoff()


class TestMaxMinModel:
    def test_membership_rows(self, bench1):
        bi = build_bi_objective(bench1)
        model = build_max_min_model(bi, PAYOFF_OVERRIDE, to_milp(bi, bi.obj_center))
        m, n = bi.m, bi.n
        assert model.c.size == 2 * m * n + 1
        assert model.A.shape[0] == m + n + m * n + 2
        level = 2 * m * n
        lower_row, width_row = model.A[-2], model.A[-1]
        assert lower_row[level] == pytest.approx(WORST_LOWER - BEST_LOWER)  # 147
        assert model.b[-2] == pytest.approx(WORST_LOWER)
        assert width_row[level] == pytest.approx(WORST_WIDTH - BEST_WIDTH)  # 27
        assert model.b[-1] == pytest.approx(WORST_WIDTH)
        assert (model.lo[level], model.hi[level]) == (0.0, 1.0)

    def test_degenerate_range_pins_objective(self, bench1):
        bi = build_bi_objective(bench1)
        payoff = PayoffTable((BEST_LOWER, BEST_WIDTH), (BEST_LOWER, WORST_WIDTH))
        model = build_max_min_model(bi, payoff, to_milp(bi, bi.obj_center))
        level = 2 * bi.m * bi.n
        assert model.A[-2, level] == 0.0  # no level term, just z <= U
        assert model.b[-2] == pytest.approx(BEST_LOWER)

    def test_fully_degenerate_payoff_leaves_level_free(self):
        # a 1x1 instance has a single anchor plan, so best == worst for both
        inst = IfctpInstance([[Interval(2, 4)]], [[Interval(1, 3)]],
                             [Interval(10, 10)], [Interval(5, 5)])
        bi = build_bi_objective(inst)
        payoff = Stages(inst).payoff()
        assert payoff.best == payoff.worst
        sol = solve_milp(build_max_min_model(bi, payoff, to_milp(bi, bi.obj_center)))
        assert -sol.objective_value == pytest.approx(1.0)


class TestSolveCompromise:
    def test_reference_payoff_reproduces_known_solution(self, bench1):
        result = _compromise(bench1, PAYOFF_OVERRIDE)
        assert result.lambda_star == pytest.approx(LEVEL_STAR, abs=1e-9)
        assert result.objective_values[0] == pytest.approx(Z_LOWER_STAR, abs=1e-5)
        assert result.objective_values[1] == pytest.approx(Z_WIDTH_STAR, abs=1e-5)

    def test_level_equals_smallest_membership(self, bench1):
        result = _compromise(bench1, PAYOFF_OVERRIDE)
        assert 0.0 <= result.lambda_star <= 1.0
        assert result.lambda_star == pytest.approx(min(result.memberships), abs=1e-6)

    def test_plan_is_feasible(self, bench1):
        result = _compromise(bench1, PAYOFF_OVERRIDE)
        assert check_plan(bench1, result.plan) == []

    def test_default_payoff_close_to_reference(self, bench1):
        result = _compromise(bench1)
        assert result.lambda_star == pytest.approx(LEVEL_STAR, abs=0.01)

    def test_zero_width_instance_degenerates_to_crisp(self):
        inst = zero_width_bench1()
        result = _compromise(inst)
        assert result.objective_values[1] == pytest.approx(0.0, abs=1e-9)
        assert result.memberships[1] == 1.0  # width constraint satisfied outright
        bi = build_bi_objective(inst)
        direct = solve_milp(to_milp(bi, bi.obj_center))
        assert result.objective_values[0] == pytest.approx(direct.objective_value, rel=1e-6)
        assert result.lambda_star == pytest.approx(1.0, abs=1e-9)

    def test_coincident_anchors_give_full_satisfaction(self):
        inst = IfctpInstance([[Interval(2, 4)]], [[Interval(1, 3)]],
                             [Interval(10, 10)], [Interval(5, 5)])
        result = _compromise(inst)
        assert result.lambda_star == pytest.approx(1.0)
        assert result.memberships == (1.0, 1.0)

    def test_infeasible_instance_raises(self):
        starved = IfctpInstance([[Interval(1, 2)]], [[Interval(1, 1)]],
                                [Interval(3, 3)], [Interval(9, 9)])
        with pytest.raises(InfeasibleProblemError):
            _compromise(starved)

    def test_level_and_memberships_on_random_instances(self):
        rng = random.Random(909)
        for _ in range(12):
            inst = random_instance(rng)
            result = _compromise(inst)
            assert 0.0 <= result.lambda_star <= 1.0
            assert result.lambda_star <= min(result.memberships) + 1e-6
            assert result.lambda_star == pytest.approx(min(result.memberships), abs=1e-6)
            assert check_plan(inst, result.plan) == []


def _refine_searches(monkeypatch, instance):
    """The refine solve's within (None for the whole space), the compromise and its stages."""
    stages = Stages(instance)
    stages.payoff()  # the anchors, solved before the recording starts
    (_, result), (max_min, refine) = record_solves(monkeypatch, stages.compromise)
    assert "within" not in max_min.kwargs  # max-min searches the whole space
    return refine.kwargs.get("within"), result, stages


class TestRefineBand:
    """The refine searches only the max-min leaves that can reach its level floor."""

    def test_shipped_instance_refines_one_leaf_in_one_node(self, bench1, monkeypatch):
        within, result, stages = _refine_searches(monkeypatch, bench1)
        assert len(within) == 1
        assert len(stages.solutions["max-min"].leaves) > 1
        assert stages.solutions["refine"].nodes == 1
        assert result.lambda_star == pytest.approx(LEVEL_STAR, abs=1e-9)

    def test_level_zero_refines_from_the_root(self, monkeypatch):
        # Every leaf reaches a floor of 0; searched one by one, each from the
        # slack basis, they can end at another of several tied refine optima.
        instance = parse_instance((DATA_DIR / "tied_at_level_zero.txt").read_text())
        within, result, stages = _refine_searches(monkeypatch, instance)
        assert result.lambda_star == 0.0
        assert len(stages.solutions["max-min"].leaves) > 1
        assert within is None


class TestMembership:
    def test_clipping(self):
        assert membership(5.0, 10.0, 20.0) == 1.0     # better than aspired
        assert membership(25.0, 10.0, 20.0) == 0.0    # beyond acceptable
        assert membership(15.0, 10.0, 20.0) == pytest.approx(0.5)

    def test_degenerate_range(self):
        assert membership(10.0, 10.0, 10.0) == 1.0

    def test_degenerate_range_is_relative_to_the_levels(self):
        # A range of 2^-35 is real between levels of that size; one of 1e-4 is
        # round-off between levels of 1e12.
        assert membership(1.5 * 2.0 ** -35, 2.0 ** -35, 2.0 ** -34) == 0.5
        assert membership(1e12 + 1e-4, 1e12, 1e12 + 1e-4) == 1.0


class TestComputeIdeal:
    def test_reference_ideal(self, bench1):
        ideal = Stages(bench1).ideal()
        assert ideal.center == pytest.approx(IDEAL_CENTER, rel=1e-9)
        assert ideal.width == pytest.approx(IDEAL_WIDTH, rel=1e-9)

    def test_zero_width_ideal(self):
        inst = zero_width_bench1()
        ideal = Stages(inst).ideal()
        bi = build_bi_objective(inst)
        direct = solve_milp(to_milp(bi, bi.obj_center))
        assert ideal.center == pytest.approx(direct.objective_value, rel=1e-9)
        assert ideal.width == 0.0

    def test_ideal_is_componentwise_lower_bound(self, bench1):
        from ifctp.crisp import plan_value
        stages = Stages(bench1)
        ideal = stages.ideal()
        _, result = stages.compromise()
        for plan in _anchor_plans(stages) + (result.plan,):
            assert plan_value(stages.bi.obj_center, plan) >= ideal.center - 1e-9
            assert plan_value(stages.bi.obj_width, plan) >= ideal.width - 1e-9
