"""The simplex kernel's rare paths, its pivot counts, shared factorisations, one solve per model."""

import random

import numpy as np
import pytest

from _random_instances import random_instance
from _reference import PAYOFF_OVERRIDE
from _textbook_lp import textbook_relaxation

import ifctp.cli
import ifctp.compromise
import ifctp.milp
import ifctp.pipeline
from ifctp import (DegeneratePivotError, MilpModel, PayoffTable, Stages,
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
        # The bounded dual simplex against the textbook primal simplex, with
        # every variable boxed in [0, 10] (upper bounds as rows there): same
        # status, and the same optimum within 1e-9 relative.
        monkeypatch.setattr(ifctp.milp, "DEGENERATE_LIMIT", degenerate_limit)
        rng = random.Random(20240917)
        statuses = set()
        negative_cost_at_upper = False
        for _ in range(400):
            c, A, relations, b = _random_lp(rng)
            senses = [{"<=": 1, ">=": -1, "=": 0}[rel] for rel in relations]
            model = MilpModel(c, A, senses, b, [0.0] * c.size, [10.0] * c.size, [])
            ours = solve_lp(model)
            status, value, _ = textbook_relaxation(model, {})
            assert ours.status == status
            if status == "optimal":
                assert abs(ours.objective_value - value) <= 1e-9 * max(1.0, abs(value))
                x = np.array(ours.assignment)
                negative_cost_at_upper |= bool(((c < 0) & (x == 10.0)).any())
            statuses.add(status)
        assert statuses == {"optimal", "infeasible"}
        assert negative_cost_at_upper


class TestBreakdowns:
    def test_singular_starting_basis(self):
        # The second row is twice the first, so the basis of both structurals is singular.
        model = MilpModel([1.0, 1.0], [[1.0, 1.0], [2.0, 2.0]], [1, 1], [1.0, 2.0],
                          [0.0] * 2, [10.0] * 2, [])
        form = ifctp.milp._bounded_form(model)
        start = ifctp.milp._Start(np.array([0, 1]), np.zeros(4, dtype=bool))
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
        model = MilpModel([1.0, 1.0], [[1.0, 1.0]], [-1], [3.0], [0.0] * 2, [10.0] * 2, [])
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


def _draws_of_at_least_2x3(seed, count=3):
    """The first count random_instance draws of random.Random(seed) with 2+ rows, 3+ columns."""
    rng = random.Random(seed)
    draws = []
    while len(draws) < count:
        instance = random_instance(rng)
        if instance.m >= 2 and instance.n >= 3:
            draws.append(instance)
    return draws


def _solve_every_stage(instance):
    """Run the five stage solves of a pipeline on instance."""
    stages = Stages(instance)
    stages.ideal()
    stages.compromise()
    return stages


class TestSharedFactorisation:
    """Two children of a node, and the LPs of one solve that start from the slack
    basis, factorise their start once between them; a fresh factorisation gives the
    same bits."""

    @staticmethod
    def _recorded_lps(monkeypatch, run):
        """Every _dual_simplex call that run() makes, with its outcome and whether it
        found its start already factorised."""
        calls = []
        dual_simplex = ifctp.milp._dual_simplex

        def recording(form, lo, hi, start=None):
            reused = start is not None and start.inverse is not None
            status, v, pivots, state = dual_simplex(form, lo, hi, start)
            calls.append(((form, lo, hi, start), reused,
                          (status, None if v is None else v.tobytes(), pivots,
                           None if state is None else state[0].tobytes())))
            return status, v, pivots, state

        with monkeypatch.context() as patch:
            patch.setattr(ifctp.milp, "_dual_simplex", recording)
            run()
        return calls

    @staticmethod
    def _assert_fresh_factorisation_agrees(calls):
        """Status, the bits of v, pivots and the final basis from a start factorised anew."""
        for (form, lo, hi, start), _, outcome in calls:
            fresh = None if start is None else ifctp.milp._Start(start.basis, start.at_upper)
            status, v, pivots, state = ifctp.milp._dual_simplex(form, lo, hi, fresh)
            assert (status, None if v is None else v.tobytes(), pivots,
                    None if state is None else state[0].tobytes()) == outcome

    def test_search_lps_match_a_fresh_factorisation(self, bench1, monkeypatch):
        calls = [call for instance in [bench1, *_draws_of_at_least_2x3(3141)]
                 for call in self._recorded_lps(monkeypatch,
                                                lambda: _solve_every_stage(instance))]
        self._assert_fresh_factorisation_agrees(calls)
        # Both kinds of sharing happened: a sibling's start and the slack start.
        reused = [start for (_, _, _, start), was_reused, _ in calls if was_reused]
        assert any(start.at_upper is None for start in reused)
        assert any(start.at_upper is not None for start in reused)

    def test_oracle_patterns_match_a_fresh_factorisation(self, monkeypatch):
        bi = build_bi_objective(_draws_of_at_least_2x3(3141, count=1)[0])  # 2x3: 64 patterns
        model = to_milp(bi, bi.obj_width)
        calls = self._recorded_lps(monkeypatch, lambda: oracle_solve(model))
        assert len(calls) >= 2 ** model.binaries.size
        self._assert_fresh_factorisation_agrees(calls)
        assert sum(reused for _, reused, _ in calls) == len(calls) - 1

    @pytest.mark.parametrize("draw", [None, 0, 1, 2], ids=["shipped", "draw0", "draw1", "draw2"])
    def test_one_inverse_per_start_basis(self, bench1, monkeypatch, draw):
        instance = bench1 if draw is None else _draws_of_at_least_2x3(3141)[draw]
        inv = np.linalg.inv
        for model in _solve_every_stage(instance).models.values():
            inverses = 0
            fixes_solved = []

            def counting_inv(matrix):
                nonlocal inverses
                inverses += 1
                return inv(matrix)

            def recording_node_lp(model, form, fixes, start, node_lp=ifctp.milp._node_lp):
                fixes_solved.append(list(fixes.items()))
                return node_lp(model, form, fixes, start)

            with monkeypatch.context() as patch:
                patch.setattr(np.linalg, "inv", counting_inv)
                patch.setattr(ifctp.milp, "_node_lp", recording_node_lp)
                solution = solve_milp(model)
            assert solution.status == "optimal"
            # The root first, the answer's pattern LP last; a child adds one fix to
            # its parent's, so the parents of the children solved are told by their fixes.
            children = fixes_solved[1:-1]
            branched = {tuple(fixes[:-1]) for fixes in children}
            assert inverses == 1 + len(branched)

    def test_one_scaling_per_constraint_matrix(self, bench1, monkeypatch):
        scalings = []
        scaled_matrix = ifctp.milp._scaled_matrix

        def recording(A):
            scalings.append(A.tobytes())
            return scaled_matrix(A)

        monkeypatch.setattr(ifctp.milp, "_scaled_matrix", recording)
        stages = _solve_every_stage(bench1)
        # The three anchors share one matrix, max-min and refine another.
        assert len(scalings) == len(set(scalings)) == 2
        for name, model in stages.models.items():
            copy = MilpModel(model.c, model.A, model.senses, model.b, model.lo, model.hi,
                             model.binaries)
            shared, fresh = ifctp.milp._bounded_form(model), ifctp.milp._bounded_form(copy)
            for a, b in zip(shared[:6], fresh[:6]):
                assert a.tobytes() == b.tobytes(), name
