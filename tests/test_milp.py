import random

import numpy as np
import pytest

from _random_instances import random_instance
from _reference import BEST_LOWER, BEST_WIDTH, IDEAL_CENTER

from ifctp import (MilpModel, NodeLimitError, OracleScopeError, Stages,
                   build_bi_objective, build_max_min_model, oracle_solve,
                   solve_milp, to_milp)
from ifctp.milp import solve_lp


INF = np.inf
LE, GE, EQ = 1, -1, 0


def _one_var_model(A, senses, b, c=(1.0,), lo=(0.0,), hi=(10.0,), binaries=()):
    return MilpModel(c, A, senses, b, lo, hi, binaries)


class TestLinearProgram:
    def test_single_variable_floor(self):
        sol = solve_lp(_one_var_model([[1.0]], [GE], [3.0]))
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(3.0)

    def test_empty_region(self):
        sol = solve_lp(_one_var_model([[1.0], [1.0]], [LE, GE], [1.0, 2.0]))
        assert sol.status == "infeasible"

    def test_empty_region_with_a_negative_cost(self):
        # The slack basis starts the variable at the upper bound its cost
        # prefers; no point meets both rows.
        sol = solve_lp(_one_var_model([[1.0], [1.0]], [LE, GE], [1.0, 2.0], c=(-1.0,)))
        assert sol.status == "infeasible"

    def test_equality_row(self):
        sol = solve_lp(_one_var_model([[2.0]], [EQ], [5.0]))
        assert sol.objective_value == pytest.approx(2.5)

    def test_relaxation_bounds_ideal_center(self, bench1):
        bi = build_bi_objective(bench1)
        sol = solve_lp(to_milp(bi, bi.obj_center))
        assert sol.status == "optimal"
        assert sol.objective_value <= IDEAL_CENTER + 1e-9

    def test_negative_lower_bound_shift(self):
        model = _one_var_model([[1.0]], [GE], [-4.0], lo=(-10.0,))
        assert solve_lp(model).objective_value == pytest.approx(-4.0)

    def test_solve_lp_is_not_exported(self):
        import ifctp
        assert "solve_lp" not in ifctp.__all__ and not hasattr(ifctp, "solve_lp")


class TestModelValidation:
    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            _one_var_model(np.zeros((0, 1)), [], [])

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError, match="coefficients"):
            _one_var_model([[1.0, 2.0]], [LE], [1.0])

    def test_bad_relation(self):
        with pytest.raises(ValueError, match="relation"):
            _one_var_model([[1.0]], [2], [1.0])

    def test_binary_bounds_enforced(self):
        with pytest.raises(ValueError, match="binary"):
            _one_var_model([[1.0]], [LE], [5.0], hi=(2.0,), binaries=[0])

    @pytest.mark.parametrize("bad, match", [
        (dict(A=[[np.nan]]), "constraint coefficients must be finite"),
        (dict(A=[[INF]]), "constraint coefficients must be finite"),
        (dict(b=[np.nan]), "constraint coefficients must be finite"),
        (dict(b=[-INF]), "constraint coefficients must be finite"),
        (dict(c=[np.nan]), "objective coefficients must be finite"),
        (dict(c=[INF]), "objective coefficients must be finite"),
        (dict(senses=[0.5]), "relation"),
        (dict(senses=[LE, LE]), "senses for 1 rows"),
        (dict(b=[1.0, 2.0]), "right-hand sides"),
        (dict(lo=[2.0], hi=[1.0]), "lo <= hi"),
        (dict(hi=[1.0, 1.0]), "upper bounds"),
        (dict(lo=[-INF]), "bounds must be finite"),
        (dict(lo=[np.nan]), "bounds must be finite"),
        (dict(hi=[INF]), "bounds must be finite"),
        (dict(hi=[np.nan]), "bounds must be finite"),
        (dict(hi=[1.0], binaries=[1]), "binary index out of range"),
        (dict(hi=[1.0], binaries=[-1]), "binary index out of range"),
    ], ids=["A-nan", "A-inf", "b-nan", "b-inf", "c-nan", "c-inf", "sense-fraction",
            "senses-length", "b-length", "lo-above-hi", "hi-length", "lo-inf", "lo-nan",
            "hi-inf", "hi-nan", "binary-past-end", "binary-negative"])
    def test_bad_input_rejected(self, bad, match):
        args = dict(c=[1.0], A=[[1.0]], senses=[LE], b=[1.0], lo=[0.0], hi=[10.0], binaries=[])
        args.update(bad)
        with pytest.raises(ValueError, match=match):
            MilpModel(**args)

    def test_arrays_are_read_only(self):
        A = np.array([[1.0]])
        model = _one_var_model(A, [LE], [1.0], hi=(1.0,), binaries=[0])
        for name in ("c", "A", "senses", "b", "lo", "hi", "binaries"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(model, name)[0] = 0
        A[0, 0] = 2.0  # the model keeps its own copy
        assert model.A[0, 0] == 1.0


class TestBenchmarkValues:
    def test_ideal_center_milp(self, bench1):
        bi = build_bi_objective(bench1)
        sol = solve_milp(to_milp(bi, bi.obj_center))
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(IDEAL_CENTER, rel=1e-9)

    def test_ideal_width_milp(self, bench1):
        bi = build_bi_objective(bench1)
        sol = solve_milp(to_milp(bi, bi.obj_width))
        assert sol.objective_value == pytest.approx(BEST_WIDTH, rel=1e-9)

    def test_lower_endpoint_milp(self, bench1):
        bi = build_bi_objective(bench1)
        sol = solve_milp(to_milp(bi, bi.obj_lower))
        assert sol.objective_value == pytest.approx(BEST_LOWER, rel=1e-9)

    def test_oracle_agrees_on_ideal_problems(self, bench1):
        bi = build_bi_objective(bench1)
        for objective, expected in ((bi.obj_center, IDEAL_CENTER), (bi.obj_width, BEST_WIDTH)):
            model = to_milp(bi, objective)
            oracle = oracle_solve(model)
            assert oracle.status == "optimal"
            assert oracle.objective_value == pytest.approx(expected, rel=1e-9)
            assert oracle.nodes == 2 ** 12

    def test_branch_and_bound_prunes_against_enumeration(self, bench1):
        bi = build_bi_objective(bench1)
        model = to_milp(bi, bi.obj_center)
        sol = solve_milp(model)
        assert sol.nodes < 2 ** 12  # strictly fewer LPs than the oracle's sweep

    def test_weak_duality(self, bench1):
        bi = build_bi_objective(bench1)
        for objective in (bi.obj_center, bi.obj_width):
            model = to_milp(bi, objective)
            assert solve_lp(model).objective_value <= \
                solve_milp(model).objective_value + 1e-9


class TestDeterminism:
    def test_identical_runs_identical_assignments(self, bench1):
        bi = build_bi_objective(bench1)
        model = to_milp(bi, bi.obj_center)
        first, second = solve_milp(model), solve_milp(model)
        assert first.objective_value == second.objective_value
        assert first.assignment == second.assignment
        assert first.nodes == second.nodes


class TestResourceLimits:
    def test_node_limit(self, bench1):
        bi = build_bi_objective(bench1)
        model = to_milp(bi, bi.obj_center)
        with pytest.raises(NodeLimitError):
            solve_milp(model, node_limit=1)

    def test_oracle_scope(self):
        nv = 25
        model = MilpModel(np.zeros(nv), np.ones((1, nv)), [LE], [5.0],
                          np.zeros(nv), np.ones(nv), range(nv))
        with pytest.raises(OracleScopeError):
            oracle_solve(model)

    def test_forced_infeasible_binaries(self, bench1):
        # every route shut: demand floors cannot be met
        bi = build_bi_objective(bench1)
        model = to_milp(bi, bi.obj_lower)
        mn = 12
        shut = [0.0] * mn + [1.0] * mn
        closed = MilpModel(model.c, np.vstack((model.A, shut)), np.append(model.senses, LE),
                           np.append(model.b, 0.0), model.lo, model.hi, model.binaries)
        assert solve_milp(closed).status == "infeasible"
        assert oracle_solve(closed).status == "infeasible"


class TestOracleEquivalenceSweep:
    """Primary correctness property: branch and bound equals brute force."""

    def test_randomized_instances(self):
        rng = random.Random(424242)
        for _ in range(40):
            instance = random_instance(rng)
            bi = build_bi_objective(instance)
            k = instance.m * instance.n
            models = [
                to_milp(bi, bi.obj_center),
                to_milp(bi, bi.obj_width),
                build_max_min_model(bi, Stages(instance).payoff()),
            ]
            for model in models:
                sol = solve_milp(model)
                ref = oracle_solve(model)
                assert sol.status == ref.status
                if sol.status == "optimal":
                    scale = max(1.0, abs(ref.objective_value))
                    assert abs(sol.objective_value - ref.objective_value) <= 1e-6 * scale
                assert sol.nodes <= 2 ** (k + 1)
