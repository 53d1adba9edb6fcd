import random

import numpy as np
import pytest

from conftest import BENCH1_CELLS, zero_width_bench1

from ifctp import (InvalidInstanceError, IfctpInstance, Interval, ShipmentPlan,
                   build_bi_objective, evaluate_interval_objective, extract_plan, solve_milp)
from ifctp.crisp import constraint_rows, plan_value, to_milp

# Reference coefficient matrices for the 3x4 benchmark.
T_LOWER = [[4, 8, 9, 8], [10, 10, 11, 5], [7, 8, 8, 13]]
L_LOWER = [[10, 19, 19, 20], [16, 15, 25, 38], [10, 22, 30, 20]]
T_WIDTH = [[2, 2, 1, 1], [4, 1, 2, 1], [6, 2, 3, 2]]
L_WIDTH = [[10, 3, 3, 5], [2, 5, 15, 1], [5, 4, 10, 1]]


def naive_interval_value(instance, plan):
    """Brute-force evaluation oracle: accumulate endpoints with plain sums."""
    lo = hi = 0.0
    for i in range(instance.m):
        for j in range(instance.n):
            lo += instance.unit_cost[i][j].lo * plan.y[i][j] \
                + instance.fixed_charge[i][j].lo * plan.x[i][j]
            hi += instance.unit_cost[i][j].hi * plan.y[i][j] \
                + instance.fixed_charge[i][j].hi * plan.x[i][j]
    return lo, hi


class TestBuildBiObjective:
    def test_lower_objective_coefficients(self, bench1):
        bi = build_bi_objective(bench1)
        assert bi.obj_lower[:12].reshape(3, 4).tolist() == T_LOWER
        assert bi.obj_lower[12:].reshape(3, 4).tolist() == L_LOWER

    def test_width_objective_coefficients(self, bench1):
        bi = build_bi_objective(bench1)
        assert bi.obj_width[:12].reshape(3, 4).tolist() == T_WIDTH
        assert bi.obj_width[12:].reshape(3, 4).tolist() == L_WIDTH

    def test_lower_equals_center_minus_width_exactly(self, bench1):
        bi = build_bi_objective(bench1)
        center = bi.obj_center
        assert len(center) == 2 * bench1.m * bench1.n
        for k in range(len(center)):
            assert bi.obj_lower[k] == center[k] - bi.obj_width[k]

    def test_constraint_data(self, bench1):
        bi = build_bi_objective(bench1)
        assert bi.supply_caps == (33, 28, 25)
        assert bi.demand_floors == (20, 19, 23, 20)
        assert all(bi.big_m[i][j] == bi.supply_caps[i]
                   for i in range(3) for j in range(4))

    def test_zero_width_instance_has_zero_width_objective(self):
        bi = build_bi_objective(zero_width_bench1())
        assert len(bi.obj_width) == 2 * bi.m * bi.n
        assert all(c == 0 for c in bi.obj_width)

    def test_invalid_instance_names_first_violation(self):
        bad = IfctpInstance([[Interval(1, 2)]], [[Interval(-1, 3)]],
                            [Interval(5, 5)], [Interval(4, 4)])
        with pytest.raises(InvalidInstanceError, match=r"fixed_charge\(1,1\)"):
            build_bi_objective(bad)


def _loop_constraint_rows(bi, extra_vars):
    """Reference: (A, senses, b) built row by row from plain floats."""
    m, n = bi.m, bi.n
    mn = m * n
    nv = 2 * mn + extra_vars
    rows = []
    for i in range(m):
        coeffs = [0.0] * nv
        for j in range(n):
            coeffs[i * n + j] = 1.0
        rows.append((coeffs, 1, bi.supply_caps[i]))
    for j in range(n):
        coeffs = [0.0] * nv
        for i in range(m):
            coeffs[i * n + j] = 1.0
        rows.append((coeffs, -1, bi.demand_floors[j]))
    for i in range(m):
        for j in range(n):
            coeffs = [0.0] * nv
            coeffs[i * n + j] = 1.0
            coeffs[mn + i * n + j] = -float(bi.big_m[i][j])
            rows.append((coeffs, 1, 0.0))
    return (np.array([r[0] for r in rows]), np.array([r[1] for r in rows]),
            np.array([r[2] for r in rows], dtype=float))


class TestConstraintRows:
    @pytest.mark.parametrize("extra_vars", [0, 1])
    def test_matches_row_by_row_build_bit_for_bit(self, bench1, extra_vars):
        bi = build_bi_objective(bench1)
        A, senses, b, lo, hi, binaries = constraint_rows(bi, extra_vars)
        ref_A, ref_senses, ref_b = _loop_constraint_rows(bi, extra_vars)
        assert A.tobytes() == ref_A.tobytes()  # also rules out -0.0 entries
        assert senses.tolist() == ref_senses.tolist()
        assert b.tobytes() == ref_b.tobytes()
        mn = bi.m * bi.n
        assert lo.tolist() == [0.0] * (2 * mn)
        caps = [float(bi.big_m[i][j]) for i in range(bi.m) for j in range(bi.n)]
        assert hi.tolist() == caps + [1.0] * mn
        assert binaries.tolist() == list(range(mn, 2 * mn))


class TestSingleObjective:
    def test_center_coefficients_match_midpoints(self, bench1):
        bi = build_bi_objective(bench1)
        model = to_milp(bi, bi.obj_center)
        mn = bench1.m * bench1.n
        expected = [(c[0] + c[1]) / 2 for row in BENCH1_CELLS for c in row]
        assert list(model.c[:mn]) == expected
        expected_fixed = [(c[2] + c[3]) / 2 for row in BENCH1_CELLS for c in row]
        assert list(model.c[mn:2 * mn]) == expected_fixed

    def test_width_matches_bi_objective(self, bench1):
        bi = build_bi_objective(bench1)
        model = to_milp(bi, bi.obj_width)
        assert model.c.tolist() == bi.obj_width.tolist()

    def test_zero_width_instance_width_optimum_is_zero(self):
        bi = build_bi_objective(zero_width_bench1())
        sol = solve_milp(to_milp(bi, bi.obj_width))
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(0.0, abs=1e-9)


class TestEvaluateIntervalObjective:
    def test_reference_plan_value(self, bench1, reference_plan):
        got = evaluate_interval_objective(bench1, reference_plan)
        assert got.lo == pytest.approx(672.82, abs=1.0)
        assert got.hi == pytest.approx(1010.88, abs=1.0)
        assert (got.lo, got.hi) == pytest.approx(naive_interval_value(bench1, reference_plan))

    def test_all_zero_plan(self, bench1):
        plan = ShipmentPlan.from_quantities([[0] * 4 for _ in range(3)])
        assert evaluate_interval_objective(bench1, plan) == Interval(0, 0)

    def test_single_route_hand_value(self, bench1):
        plan = ShipmentPlan.from_quantities([[20, 0, 0, 0], [0] * 4, [0] * 4])
        got = evaluate_interval_objective(bench1, plan)
        assert got == Interval(90, 190)  # 4*20+10 and 8*20+30
        assert (got.lo, got.hi) == naive_interval_value(bench1, plan)

    def test_dimension_mismatch(self, bench1):
        with pytest.raises(ValueError, match="shape"):
            evaluate_interval_objective(bench1, ShipmentPlan.from_quantities([[1]]))

    def test_upper_endpoint_identity_random_plans(self, bench1):
        # z_upper == z_lower + 2 * z_width at arbitrary plans
        bi = build_bi_objective(bench1)
        rng = random.Random(7)
        for _ in range(200):
            y = [[rng.uniform(0, 30) if rng.random() < 0.5 else 0.0
                  for _ in range(4)] for _ in range(3)]
            plan = ShipmentPlan.from_quantities(y)
            z = evaluate_interval_objective(bench1, plan)
            reconstructed = plan_value(bi.obj_lower, plan) + 2 * plan_value(bi.obj_width, plan)
            assert reconstructed == pytest.approx(z.hi, rel=1e-9)


class TestBigMExactness:
    def test_rederiving_activations_preserves_objectives(self, bench1):
        bi = build_bi_objective(bench1)
        for objective in (bi.obj_lower, bi.obj_width, bi.obj_center):
            sol = solve_milp(to_milp(bi, objective))
            plan = extract_plan(bi, sol.assignment)
            assert plan_value(objective, plan) == pytest.approx(sol.objective_value, rel=1e-9)

    def test_solution_plans_satisfy_linking(self, bench1):
        bi = build_bi_objective(bench1)
        sol = solve_milp(to_milp(bi, bi.obj_lower))
        plan = extract_plan(bi, sol.assignment)
        for i in range(3):
            for j in range(4):
                assert (plan.y[i][j] > 1e-6) == (plan.x[i][j] == 1)
