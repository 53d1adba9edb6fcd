"""Node LPs against the textbook simplex, and stage optima against HiGHS.

The bounded dual simplex solves every LP: each branch-and-bound node, the
root from the slack basis and every other node from its parent's basis; and
each answer's LP at the incumbent's activation pattern, from the slack basis.
These tests check each node, root included, against the textbook simplex on
the same fixes (tests/_textbook_lp.py), negative unit costs against the
enumeration oracle, the paper's answers against the oracle bit for bit and
against the textbook optimum, and stage optima beyond the oracle's reach
against scipy's HiGHS.
"""

import random
import time

import numpy as np
import pytest

from _highs import highs_solve
from _random_instances import random_instance
from _reference import PAYOFF_OVERRIDE
from _textbook_lp import textbook_relaxation

import ifctp.milp
from ifctp import (IfctpInstance, Interval, PayoffTable, Stages, build_bi_objective,
                   build_max_min_model, oracle_solve, run_oracle_check, solve_milp, to_milp)
from ifctp.compromise import _refine
from ifctp.milp import OPTIMAL


def _stage_models(instance, override=None):
    """The five stage models of a pipeline run, by name, under the computed or given levels."""
    bi = build_bi_objective(instance)
    models = {
        "ideal-center": to_milp(bi, bi.obj_center),
        "ideal-width": to_milp(bi, bi.obj_width),
        "anchor-lower": to_milp(bi, bi.obj_lower),
    }
    payoff = (Stages(instance).payoff() if override is None
              else PayoffTable(override[::2], override[1::2]))
    max_min = build_max_min_model(bi, payoff)
    lambda_star = min(1.0, max(0.0, -solve_milp(max_min).objective_value))
    models["max-min"] = max_min
    models["refine"] = _refine(bi, payoff, max_min, lambda_star)
    return models


def _paper_models(bench1):
    models = _stage_models(bench1)
    models.update({f"{name} (override)": model for name, model in
                   _stage_models(bench1, PAYOFF_OVERRIDE).items()
                   if name in ("max-min", "refine")})
    return models


class TestWarmNodesMatchCold:
    @staticmethod
    def _check_every_node(models, monkeypatch):
        """Solve each model; every LP, root and pattern solve included, must match the textbook."""
        statuses = []
        node_lp = ifctp.milp._node_lp

        def checking_node_lp(model, form, fixes, start):
            result = node_lp(model, form, fixes, start)
            textbook = textbook_relaxation(model, fixes)
            assert result[0] == textbook[0], sorted(fixes.items())
            if textbook[0] == OPTIMAL:
                assert abs(result[1] - textbook[1]) <= 1e-9 * max(1.0, abs(textbook[1]))
            statuses.append(result[0])
            return result

        monkeypatch.setattr(ifctp.milp, "_node_lp", checking_node_lp)
        for model in models:
            solve_milp(model)
        return statuses

    def test_bench1_stage_searches(self, bench1, monkeypatch):
        statuses = self._check_every_node(_paper_models(bench1).values(), monkeypatch)
        assert len(statuses) > 100 and {"optimal", "infeasible"} <= set(statuses)

    def test_random_stage_searches(self, monkeypatch):
        rng = random.Random(77031)
        models = [model for _ in range(40)
                  for model in _stage_models(random_instance(rng)).values()]
        statuses = self._check_every_node(models, monkeypatch)
        assert len(statuses) > 100 and {"optimal", "infeasible"} <= set(statuses)


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
    def test_paper_stage_answers_are_the_oracle_lp_bit_for_bit(self, bench1):
        for name, model in _paper_models(bench1).items():
            solution = solve_milp(model)
            pattern = {j: solution.assignment[j] for j in model.binaries.tolist()}
            status, value, _ = textbook_relaxation(model, pattern)
            oracle = oracle_solve(model)
            assert status == oracle.status == OPTIMAL, name
            assert np.array(solution.assignment).tobytes() == \
                np.array(oracle.assignment).tobytes(), name
            assert solution.objective_value == oracle.objective_value, name
            assert abs(solution.objective_value - value) <= 1e-9 * max(1.0, abs(value)), name


def _ladder_instance(rng, m, n):
    """Random m x n instance with heavy fixed charges and demand floors near 85% of the caps."""
    def interval(lo, hi, max_width):
        start = rng.randint(lo, hi)
        return Interval(start, start + rng.randint(0, max_width))

    unit = [[interval(1, 20, 6) for _ in range(n)] for _ in range(m)]
    fixed = [[interval(10, 60, 20) for _ in range(n)] for _ in range(m)]
    supply = [interval(20, 40, 3) for _ in range(m)]
    cap = sum(iv.hi for iv in supply)
    floors = [max(1, int(0.85 * cap / n * rng.uniform(0.8, 1.2))) for _ in range(n)]
    while sum(floors) > cap:
        floors = [max(1, f - 1) for f in floors]
    return IfctpInstance(unit, fixed, supply, [Interval(f, f + rng.randint(0, 3)) for f in floors])


class TestHighsSweep:
    """Stage optima beyond the oracle's 20 binaries agree with HiGHS."""

    @pytest.mark.parametrize("m, n, count", [(5, 6, 3), (6, 8, 1), (7, 9, 1)])
    def test_stage_optima_match_highs(self, m, n, count):
        rng = random.Random(f"highs-sweep-{m}x{n}")
        started = time.perf_counter()
        for k in range(count):
            for name, model in _stage_models(_ladder_instance(rng, m, n)).items():
                ours = solve_milp(model, node_limit=20_000)
                status, value = highs_solve(model)
                assert ours.status == status == OPTIMAL, (k, name)
                assert abs(ours.objective_value - value) <= 1e-6 * max(1.0, abs(value)), (k, name)
        print(f"{count} {m}x{n} instances, 5 stage models each: "
              f"{time.perf_counter() - started:.1f} s")
