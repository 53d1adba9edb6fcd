"""Node LPs and child keys against the textbook simplex, and stage optima against HiGHS.

The bounded dual simplex solves every LP: each branch-and-bound node, the
root from the slack basis and every other node from its parent's basis; and
each answer's LP at the incumbent's activation pattern, from the slack basis.
These tests check each node LP of a run's searches, in the form the run
solves it, and of the bounded searches a run does not make, against the
textbook simplex on the same fixes (tests/_textbook_lp.py), and each child's
key against the textbook LP it bounds; negative unit costs against the
enumeration oracle, the paper's answers against the oracle bit for bit and
against the textbook optimum, and stage optima beyond the oracle's reach
against scipy's HiGHS.
"""

import random
import time

import numpy as np
import pytest

from _highs import highs_solve
from _random_instances import draws, random_instance
from _textbook_lp import textbook_relaxation
from conftest import check_searches, rescaled, shipped_variant, stage_run

import ifctp.milp
import workloads
from ifctp import IfctpInstance, Interval, run_oracle_check
from ifctp.milp import INFEASIBLE, OPTIMAL


class TestWarmNodesMatchCold:
    """Every node LP of a run's searches and of the bounded searches it does not
    make, and every child key, against the textbook simplex (conftest.check_searches)."""

    def test_bench1_stage_searches(self, bench1, monkeypatch):
        # The copies with a zero demand floor (M_ij = 0 into one column) and a
        # negative unit cost (M_ij = s_i.hi) join the shipped instance.
        counts = check_searches(monkeypatch, [
            bench1, shipped_variant("zero_floor"), shipped_variant("negative_cost")])
        assert counts[True, OPTIMAL] >= 3 and counts[False, OPTIMAL] > 100, counts
        assert counts[False, INFEASIBLE] > 0, counts

    def test_bench1_stage_searches_at_quantities_times_1e9(self, bench1, monkeypatch):
        # At this unit a warm width-anchor child once came back infeasible
        # from its parent's basis although it holds the optimum
        # (test_quantity_unit.py); quantities 2^30 and 2^-30 join it.
        counts = check_searches(monkeypatch, [rescaled(bench1, 1e9, 1.0), *(
            rescaled(bench1, 2.0 ** p, 2.0 ** -p) for p in (30, -30))])
        assert counts[True, OPTIMAL] >= 3 and counts[False, OPTIMAL] > 20, counts

    def test_random_stage_searches(self, monkeypatch):
        counts = check_searches(monkeypatch, draws(77031, 200))
        assert counts[True, OPTIMAL] >= 200 and counts[False, OPTIMAL] > 100, counts
        assert counts[False, INFEASIBLE] > 0 and counts[False, "key"] > 1000, counts


class TestNegativeUnitCosts:
    def test_negative_unit_costs_match_the_oracle(self):
        # Shifted by -30, most unit costs are negative, so the slack basis
        # starts those shipments at their upper bound, the big-M.
        rng = random.Random(7)
        negative = 0
        for k in range(25):
            base = random_instance(rng)
            unit = [[Interval(iv.lo - 30, iv.hi - 30) for iv in row] for row in base.unit_cost]
            negative += any(iv.lo < 0 for row in unit for iv in row)
            instance = IfctpInstance(unit, base.fixed_charge, base.supply, base.demand)
            assert run_oracle_check(instance).passed, k
        assert negative > 20


class TestAnswerIsThePatternLp:
    def test_paper_stage_answers_are_the_oracle_lp_bit_for_bit(self, oracle_check_job):
        """Each of the five stage answers the oracle-check job checks is its oracle's,
        the LP at its binaries' pattern, bit for bit and the textbook optimum there;
        so is the plain whole-tree search of each model the job solves with an
        option: the anchors it solves shipment-only, and max-min and refine, which
        share a bounded part, the refine within a band."""
        calls = oracle_check_job.calls
        oracles = [call for call in calls if call.name == "oracle_solve"]
        assert len(oracles) == len(calls) - len(oracles) == 5
        for k, (_, model, _, oracle) in enumerate(oracles):
            solved, = [call for call in calls if call.name == "solve_milp" and call.model is model]
            plain = [ifctp.milp.solve_milp(model)] if solved.kwargs else []
            for solution in [solved.solution, *plain]:
                pattern = {j: solution.assignment[j] for j in model.binaries.tolist()}
                status, value, _ = textbook_relaxation(model, pattern)
                assert status == oracle.status == OPTIMAL, k
                assert oracle.nodes == 2 ** model.binaries.size, k
                assert np.array(solution.assignment).tobytes() == \
                    np.array(oracle.assignment).tobytes(), k
                assert solution.objective_value == oracle.objective_value, k
                assert abs(solution.objective_value - value) <= 1e-9 * max(1.0, abs(value)), k


class TestHighsSweep:
    """Stage optima beyond the oracle's 20 binaries agree with HiGHS: each is the
    optimum a Stages run found, in the LP form the run searched it in."""

    @pytest.mark.parametrize("m, n, count", [(5, 6, 3), (6, 8, 1), (7, 9, 1)])
    def test_stage_optima_match_highs(self, m, n, count):
        rng = random.Random(f"highs-sweep-{m}x{n}")
        started = time.perf_counter()
        for k in range(count):
            stages = stage_run(workloads.generate(rng, m, n))
            for name, model in stages.models.items():
                ours = stages.solutions[name]
                status, value = highs_solve(model)
                assert ours.status == status == OPTIMAL, (k, name)
                assert abs(ours.objective_value - value) <= 1e-6 * max(1.0, abs(value)), (k, name)
        print(f"{count} {m}x{n} instances, 5 stage models each: "
              f"{time.perf_counter() - started:.1f} s")
