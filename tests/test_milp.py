import copy
import dataclasses
import itertools
import random

import numpy as np
import pytest

from _random_instances import draws, random_instance
from _reference import IDEAL_CENTER
from conftest import record_solves, stage_run

from ifctp import MilpModel, NodeLimitError, OracleScopeError, Stages
from ifctp.compromise import LEVEL_SLACK, build_max_min_model
from ifctp.crisp import build_bi_objective, link_rows, to_milp
from ifctp.milp import constraint_part, oracle_solve, solve_lp, solve_milp


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
        # Nor are the model builders and the MILP engine: their modules export them.
        import ifctp
        for name in ("solve_lp", "BiObjectiveMilp", "build_bi_objective", "to_milp",
                     "plan_value", "extract_plan", "evaluate_interval_objective",
                     "build_max_min_model", "membership", "solve_milp", "oracle_solve",
                     "__version__"):
            assert name not in ifctp.__all__ and not hasattr(ifctp, name), name

    def test_root_exports_the_entry_points_their_types_and_errors(self):
        import ifctp
        assert sorted(ifctp.__all__) == [
            "CenterWidth", "CompetitorEntry", "CompromiseReport", "CompromiseResult",
            "DegeneratePivotError", "IfctpInstance", "InfeasibleProblemError", "Interval",
            "InvalidInstanceError", "MilpModel", "MilpSolution", "NodeLimitError",
            "OracleCheck", "OracleScopeError", "PayoffTable", "ProblemFileError",
            "ShipmentPlan", "Stages", "UnattainableLevelsError", "check_plan",
            "distance_to_ideal", "parse_instance", "render_ideal", "render_instance",
            "render_machine", "render_oracle_check", "render_payoff", "render_text",
            "run_oracle_check", "run_pipeline"]
        assert all(hasattr(ifctp, name) for name in ifctp.__all__)


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

    def test_other_inputs_are_copied_and_checked(self):
        read_only = np.array([[1.0, 2.0], [3.0, 4.0]])
        read_only.flags.writeable = False
        writable = np.array([1.0, 1.0])
        binaries = np.array([1, 0, 1])
        binaries.flags.writeable = False
        view = read_only[:1]
        assert not view.flags.writeable
        model = MilpModel([1.0, 1.0], view, [LE], writable[:1], [0.0, 0.0], writable, binaries)
        for given, kept in ((view, model.A), (writable, model.hi), (binaries, model.binaries)):
            assert kept is not given and kept.base is None and not kept.flags.writeable
        writable[0] = 5.0
        assert model.hi[0] == 1.0 and model.binaries.tolist() == [0, 1]
        senses = np.array([2])
        senses.flags.writeable = False
        with pytest.raises(ValueError, match="relation"):
            dataclasses.replace(model, senses=senses)
        with pytest.raises(ValueError, match="constraint coefficients must be finite"):
            dataclasses.replace(model, A=np.where(read_only[:1] > 1.0, np.nan, read_only[:1]))


class TestFormReuse:
    """A run builds one constraint part per constraint set and hands it to each solve
    over that set: each solve must give the bits of a deep copy's solve with a part
    built fresh from that copy."""

    @staticmethod
    def _outcome(solution):
        values = (solution.objective_value, *(solution.assignment or ()))
        return (solution.status, np.array(values, dtype=float).tobytes(), solution.nodes,
                solution.pivots, [(float(bound).hex(), fixes) for bound, fixes in solution.leaves])

    @pytest.mark.parametrize("draw", [None, 0, 1, 2, 3], ids=["shipped", *map(str, range(4))])
    def test_shared_forms_give_the_answers_of_fresh_ones(self, bench1, monkeypatch, draw):
        instance = bench1 if draw is None else draws(8, 4)[draw]
        stages, solves = record_solves(monkeypatch, lambda: stage_run(instance))
        assert [model for _, model, _, _ in solves] == list(stages.models.values())
        parts = dict(zip(stages.models, (kwargs.get("part") for _, _, kwargs, _ in solves)))
        assert parts["center"] is parts["lower"] and parts["max-min"] is parts["refine"]
        assert parts["width"] is None
        rows = link_rows(build_bi_objective(instance))
        for _, model, kwargs, solution in solves:
            fresh = copy.deepcopy(model)
            if kwargs.get("part") is not None:  # rebuilt from the copy; a shipment part has routes
                shipment = kwargs["part"].routes is not None
                kwargs = dict(kwargs, part=constraint_part(fresh, rows if shipment else None))
            assert self._outcome(solve_milp(fresh, **kwargs)) == self._outcome(solution)


class TestBenchmarkValues:
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
        """Each of a Stages run's five solutions is the oracle's optimum of its model."""
        rng = random.Random(424242)
        narrowed = 0
        for _ in range(40):
            instance = random_instance(rng)
            k = instance.m * instance.n
            stages = stage_run(instance)
            for name, model in stages.models.items():
                sol, ref = stages.solutions[name], oracle_solve(model)
                assert sol.status == ref.status == "optimal", name
                scale = max(1.0, abs(ref.objective_value))
                assert abs(sol.objective_value - ref.objective_value) <= 1e-6 * scale, name
                assert sol.nodes <= 2 ** (k + 1), name
            # The refine searches only the max-min leaves that can reach its
            # level floor (Stages.compromise); the oracle enumerates them all.
            leaves = stages.solutions["max-min"].leaves
            floor = stages.models["refine"].lo[-1]
            band = [bound for bound, _ in leaves if bound <= LEVEL_SLACK - floor]
            narrowed += floor > 0.0 and len(band) < len(leaves)
        assert narrowed >= 20  # 27 of the 40 draws


class TestSearchLeaves:
    """The leaves of a search and its LP-infeasible subtrees partition the space it searched."""

    @staticmethod
    def _pattern_value(model, pattern):
        """The LP value with the binaries fixed at pattern; inf when it has no point."""
        lo, hi = model.lo.copy(), model.hi.copy()
        lo[model.binaries] = hi[model.binaries] = pattern
        sol = solve_lp(dataclasses.replace(model, lo=lo, hi=hi))
        return sol.objective_value if sol.status == "optimal" else INF

    @staticmethod
    def _searches(count):
        """(model, link_rows) of each search over the first count 3x3 draws of
        random_instance(Random(5150)): the max-min model in the bounded form, and the
        center and lower anchors over shipment-only LPs, as Stages solves them.

        Draws 4 and 6 each have a max-min child that was not pushed for its key, 3 in all.
        """
        rng = random.Random(5150)
        searches = []
        while len(searches) < 3 * count:
            instance = random_instance(rng)
            if (instance.m, instance.n) == (3, 3):
                bi = build_bi_objective(instance)
                max_min = build_max_min_model(bi, Stages(instance).payoff(),
                                              to_milp(bi, bi.obj_center))
                searches += [(max_min, None), (to_milp(bi, bi.obj_center), link_rows(bi)),
                             (to_milp(bi, bi.obj_lower), link_rows(bi))]
        return searches

    @pytest.mark.parametrize("split", [False, True], ids=["root", "within-two-subtrees"])
    def test_leaves_partition_the_max_min_patterns(self, split):
        """Each leaf is a popped node or a child not pushed, so there are at most
        nodes + len(within) of them."""
        for model, links in self._searches(6):
            binaries = model.binaries.tolist()
            within = [{binaries[0]: 0.0}, {binaries[0]: 1.0}] if split else [{}]
            part = None if links is None else constraint_part(model, links)
            sol = solve_milp(model, within=within, part=part)
            assert sol.status == "optimal"
            assert len(sol.leaves) <= sol.nodes + len(within)
            for pattern in itertools.product((0.0, 1.0), repeat=len(binaries)):
                fixed = dict(zip(binaries, pattern))
                holding = [bound for bound, fixes in sol.leaves
                           if all(fixed[j] == v for j, v in fixes.items())]
                value = self._pattern_value(model, pattern)
                assert len(holding) <= 1, (pattern, holding)
                if not holding:
                    assert value == INF, pattern  # in an LP-infeasible subtree
                elif value < INF:
                    assert holding[0] <= value + 1e-9, (pattern, holding[0], value)

    def test_within_restricts_the_search(self):
        for model in [model for model, links in self._searches(3) if links is None]:
            binaries = model.binaries.tolist()
            values = {pattern: self._pattern_value(model, pattern)
                      for pattern in itertools.product((0.0, 1.0), repeat=len(binaries))}
            for branch in (0.0, 1.0):
                sol = solve_milp(model, within=[{binaries[-1]: branch}])
                best = min(v for pattern, v in values.items() if pattern[-1] == branch)
                if best == INF:
                    assert sol.status == "infeasible"
                    continue
                assert sol.assignment[binaries[-1]] == branch
                assert sol.objective_value == pytest.approx(best, abs=1e-9)
            assert solve_milp(model, within=[]).status == "infeasible"
