"""The simplex kernel's rare paths, its pivot counts, and one solve per model."""

import random

import numpy as np
import pytest

from _random_instances import random_instance
from _reference import PAYOFF_OVERRIDE
from _textbook_lp import textbook_standard_lp

import ifctp.cli
import ifctp.compromise
import ifctp.milp
import ifctp.pipeline
from ifctp import (DegeneratePivotError, MilpModel, PayoffTable,
                   build_bi_objective, build_max_min_model, oracle_solve, run_pipeline,
                   solve_milp, to_milp)
from ifctp.milp import solve_lp


def _random_lp(rng):
    """Small LP with mixed senses, negative right-hand sides and ties."""
    m, n = rng.randint(1, 9), rng.randint(1, 8)
    A = np.array([[rng.choice((0.0, 0.0, 1.0, -1.0, 2.0, rng.uniform(-3, 3)))
                   for _ in range(n)] for _ in range(m)])
    b = np.array([rng.choice((0.0, 1.0, rng.uniform(-5, 10))) for _ in range(m)])
    relations = [rng.choice(("<=", "<=", ">=", "=")) for _ in range(m)]
    c = np.array([rng.choice((0.0, 1.0, -1.0, rng.uniform(-2, 2))) for _ in range(n)])
    return c, A, relations, b


def _bench1_models(bench1):
    """The ideal, anchor and max-min models of the benchmark, by name."""
    bi = build_bi_objective(bench1)
    l1, u1, l2, u2 = PAYOFF_OVERRIDE
    return {
        "ideal-center": to_milp(bi, bi.obj_center),
        "ideal-width": to_milp(bi, bi.obj_width),
        "anchor-lower": to_milp(bi, bi.obj_lower),
        "max-min": build_max_min_model(bi, PayoffTable((l1, l2), (u1, u2))),
    }


class TestBlandFallback:
    def test_bland_rule_reaches_the_same_optima(self, bench1, monkeypatch):
        models = _bench1_models(bench1)
        default = {name: solve_milp(model) for name, model in models.items()}
        oracle = {name: oracle_solve(model) for name, model in models.items()}
        # Bland's rule takes over at the first degenerate pivot.
        monkeypatch.setattr(ifctp.milp, "DEGENERATE_LIMIT", 0)
        bland = {name: solve_milp(model) for name, model in models.items()}
        for name in models:
            assert bland[name].status == "optimal", name
            assert bland[name].objective_value == pytest.approx(
                default[name].objective_value, rel=1e-9), name
            assert bland[name].objective_value == pytest.approx(
                oracle[name].objective_value, rel=1e-9), name
        # The fallback really ran: it pivots differently from Dantzig's rule.
        assert any(bland[name].pivots != default[name].pivots for name in models)


class TestRandomLpsAgainstTextbook:
    @pytest.mark.parametrize("degenerate_limit", [ifctp.milp.DEGENERATE_LIMIT, 0])
    def test_status_and_optimum_match(self, monkeypatch, degenerate_limit):
        # The bounded dual simplex against the textbook primal simplex: same
        # status, and the same optimum within 1e-9 relative.
        monkeypatch.setattr(ifctp.milp, "DEGENERATE_LIMIT", degenerate_limit)
        rng = random.Random(20240917)
        statuses = set()
        for _ in range(400):
            c, A, relations, b = _random_lp(rng)
            senses = [{"<=": 1, ">=": -1, "=": 0}[rel] for rel in relations]
            ours = solve_lp(MilpModel(c, A, senses, b, [0.0] * c.size, [np.inf] * c.size, []))
            status, x, _ = textbook_standard_lp(c, A, relations, b, degenerate_limit)
            assert ours.status == status
            if status == "optimal":
                assert abs(ours.objective_value - c @ x) <= 1e-9 * max(1.0, abs(c @ x))
            statuses.add(status)
        assert statuses == {"optimal", "infeasible", "unbounded"}


class TestBreakdowns:
    def test_singular_starting_basis(self):
        # The second row is twice the first, so the basis of both structurals is singular.
        model = MilpModel([1.0, 1.0], [[1.0, 1.0], [2.0, 2.0]], [1, 1], [1.0, 2.0],
                          [0.0] * 2, [np.inf] * 2, [])
        form = ifctp.milp._bounded_form(model)
        start = np.array([0, 1]), np.zeros(4, dtype=bool)
        with pytest.raises(DegeneratePivotError, match="singular"):
            ifctp.milp._dual_simplex(form, form[3], form[4], start)

    def test_sub_tolerance_leaving_row(self):
        # The "=" row's slack starts at 1 and must leave, but the row's only
        # movable entry, 1e-10, lies between the zero threshold and PIVOT_TOL.
        form = np.array([[1e-10, 1.0]]), np.array([1.0]), np.zeros(2)
        with pytest.raises(DegeneratePivotError, match="sub-tolerance"):
            ifctp.milp._dual_simplex(form, np.zeros(2), np.array([np.inf, 0.0]))

    def test_iteration_cap(self, bench1, monkeypatch):
        monkeypatch.setattr(ifctp.milp, "ITERATION_CAP", 1)
        with pytest.raises(DegeneratePivotError, match="iteration cap"):
            bi = build_bi_objective(bench1)
            solve_lp(to_milp(bi, bi.obj_center))


class TestValuesOnBounds:
    def test_closed_routes_ship_exactly_zero(self):
        # The 28th draw of random_instance(random.Random(1000)): its
        # compromise plan closes route 1 -> 4, whose shipment ends basic
        # at a round-off residue; within BOUND_TOL of its bound, it is put on it.
        rng = random.Random(1000)
        for _ in range(28):
            instance = random_instance(rng)
        plan = run_pipeline(instance).plan
        closed = [y for xs, ys in zip(plan.x, plan.y) for x, y in zip(xs, ys) if x == 0]
        assert closed and all(y == 0.0 for y in closed)


class TestPivotCounts:
    def test_counts_repeat_exactly(self, bench1):
        for name, model in _bench1_models(bench1).items():
            first, second = solve_milp(model), solve_milp(model)
            assert first.pivots > 0, name
            assert (first.nodes, first.pivots) == (second.nodes, second.pivots), name
            assert solve_lp(model).pivots == solve_lp(model).pivots > 0, name

    def test_oracle_counts_pivots(self, bench1):
        bi = build_bi_objective(bench1)
        model = to_milp(bi, bi.obj_width)
        first, second = oracle_solve(model), oracle_solve(model)
        assert first.pivots == second.pivots > 0

    def test_root_node_pivots_match_solve_lp(self):
        model = MilpModel([1.0, 1.0], [[1.0, 1.0]], [-1], [3.0], [0.0] * 2, [np.inf] * 2, [])
        assert solve_milp(model).pivots == solve_lp(model).pivots > 0


class TestOneSolvePerModel:
    def test_pipeline_solves_each_distinct_model_once(self, bench1, monkeypatch):
        solved = []

        def recording_solve(model, *args, **kwargs):
            solved.append(tuple(getattr(model, name).tobytes()
                                for name in ("c", "A", "senses", "b", "lo", "hi", "binaries")))
            return solve_milp(model, *args, **kwargs)

        monkeypatch.setattr(ifctp.pipeline, "solve_milp", recording_solve)
        monkeypatch.setattr(ifctp.compromise, "solve_milp", recording_solve)
        report = run_pipeline(bench1)
        assert report.status == "optimal"
        # ideal center, shared width, lower anchor, max-min, refinement
        assert len(solved) == 5
        assert len(set(solved)) == len(solved)

    @pytest.mark.parametrize("args, solves", [
        (["solve", "--report", "machine"], 5),
        (["compare", "--override-payoff", "640,787,163,190",
          "--competitor", "safi-razmjoo=[640,1020]"], 4),
        (["payoff"], 2),
        (["ideal"], 2),
        (["oracle-check"], 5),
    ], ids=["solve", "compare", "payoff", "ideal", "oracle-check"])
    def test_each_job_solves_each_distinct_model_once(self, bench1_path, capsys, monkeypatch,
                                                      args, solves):
        solved = []

        def recording_solve(model, *a, **kw):
            solved.append(tuple(getattr(model, name).tobytes()
                                for name in ("c", "A", "senses", "b", "lo", "hi", "binaries")))
            return solve_milp(model, *a, **kw)

        for module in (ifctp.cli, ifctp.pipeline, ifctp.compromise):
            if hasattr(module, "solve_milp"):
                monkeypatch.setattr(module, "solve_milp", recording_solve)
        assert ifctp.cli.main([args[0], str(bench1_path), *args[1:]]) == 0
        assert len(solved) == solves
        assert len(set(solved)) == solves
