"""Penalty keys in branch and bound: valid bounds, same answers, fewer nodes.

solve_milp keys each child by its Driebeck penalty bound.  The reference
search keys it by its parent's LP value instead; both must return the same
answer bit for bit, and the penalty keys must never need more nodes.
"""

import heapq
import itertools
import math
import random
import struct
import types

import numpy as np
import pytest

from _random_instances import random_instance
from _reference import PAYOFF_OVERRIDE
from _textbook_lp import textbook_relaxation
from conftest import scaled_costs

import ifctp.milp
from ifctp import (MilpModel, MilpSolution, PayoffTable, Stages, build_bi_objective,
                   build_max_min_model, solve_milp, to_milp)
from ifctp.compromise import _refine
from ifctp.milp import (IMPROVEMENT_EPS, INFEASIBLE, INT_TOL, OPTIMAL, ROUNDED_FEAS_TOL,
                        _bounded_form, _node_lp, _penalties, _Start)


def _reference_solve_milp(model):
    """Best-bound branch and bound keyed by the parent's LP value, without penalties.

    solve_milp's search with every child keyed by its parent's LP value:
    same node LPs, branching rule, incumbent rule and final pattern solve.
    Each child factorises its start basis itself, shared with no sibling.
    """
    binaries = model.binaries
    incumbent_val = math.inf
    incumbent_x = None
    tol = ROUNDED_FEAS_TOL * np.maximum(1.0, np.abs(model.b))
    row_hi = np.where(model.senses >= 0, model.b + tol, np.inf)
    row_lo = np.where(model.senses <= 0, model.b - tol, -np.inf)
    var_hi = model.hi + ROUNDED_FEAS_TOL
    var_lo = model.lo - ROUNDED_FEAS_TOL
    form = _bounded_form(model)
    nodes = pivots = 0
    seq = itertools.count()
    heap = [(-math.inf, 0, next(seq), {}, None)]
    while heap:
        key, neg_depth, _, fixes, start = heapq.heappop(heap)
        if key >= incumbent_val - IMPROVEMENT_EPS:
            continue
        nodes += 1
        # Looked up on the module, so _compare's recording sees these solves too.
        status, value, x, lp_pivots, state = ifctp.milp._node_lp(model, form, fixes, start)
        pivots += lp_pivots
        if status == INFEASIBLE:
            continue
        if value >= incumbent_val - IMPROVEMENT_EPS:
            continue
        point = x.copy()
        point[binaries] = np.ceil(x[binaries] - INT_TOL) + 0.0
        rows = model.A @ point
        feasible = ((rows <= row_hi).all() and (rows >= row_lo).all()
                    and (point <= var_hi).all() and (point >= var_lo).all())
        frac = np.abs(x[binaries] - np.round(x[binaries]))
        worst = frac.max(initial=0.0)
        if feasible or worst == 0.0:
            candidate = model.value_at(point)
            if candidate < incumbent_val - IMPROVEMENT_EPS:
                incumbent_val = candidate
                incumbent_x = point
            if worst <= INT_TOL:
                continue
        j = int(binaries[frac.argmax()])
        depth = -neg_depth + 1
        first = 1.0 if x[j] >= 0.5 else 0.0
        for branch_value in (first, 1.0 - first):
            child = dict(fixes)
            child[j] = branch_value
            heapq.heappush(heap, (value, -depth, next(seq), child, _Start(*state[:2])))
    if incumbent_x is None:
        return MilpSolution(INFEASIBLE, None, None, nodes, pivots)
    if not binaries.size:
        return MilpSolution(OPTIMAL, incumbent_val, tuple(map(float, incumbent_x)), nodes, pivots)
    status, value, x, lp_pivots, _ = ifctp.milp._node_lp(
        model, form, {j: incumbent_x[j] for j in binaries.tolist()}, None)
    assert status == OPTIMAL
    return MilpSolution(OPTIMAL, value, tuple(map(float, x)), nodes, pivots + lp_pivots)


def _bits(solution):
    """Status, objective bits and assignment bits of a solution."""
    if solution.status != OPTIMAL:
        return solution.status, None, None
    return (solution.status, struct.pack("<d", solution.objective_value),
            np.array(solution.assignment).tobytes())


def _stage_models(instance, override=None):
    """The stage models of one pipeline run, by name.

    ideal-width is also the payoff table's width anchor.  The max-min and
    refine models use the computed payoff table, or the override levels.
    """
    bi = build_bi_objective(instance)
    models = {
        "ideal-center": to_milp(bi, bi.obj_center),
        "ideal-width": to_milp(bi, bi.obj_width),
        "anchor-lower": to_milp(bi, bi.obj_lower),
    }
    payoff = Stages(instance).payoff()
    if override is not None:
        l1, u1, l2, u2 = override
        payoff = PayoffTable((l1, l2), (u1, u2))
    max_min = build_max_min_model(bi, payoff)
    lambda_star = min(1.0, max(0.0, -_reference_solve_milp(max_min).objective_value))
    models["max-min"] = max_min
    models["refine"] = _refine(bi, payoff, max_min, lambda_star)
    return models


def _compare(models, monkeypatch):
    """Assert identical answers model by model; returns (nodes, reference nodes).

    Each search's node count must equal its node LP solves, and the penalty
    keys must never need more of them than the parent-keyed reference.
    """
    solved = []
    node_lp = ifctp.milp._node_lp

    def recording_node_lp(model, form, fixes, start):
        # The answer's pattern solve is the one slack-basis start with fixes.
        if start is not None or not fixes:
            solved.append(tuple(sorted(fixes.items())))
        return node_lp(model, form, fixes, start)

    monkeypatch.setattr(ifctp.milp, "_node_lp", recording_node_lp)
    nodes = ref_nodes = 0
    for name, model in models.items():
        solved.clear()
        solution = solve_milp(model)
        pruned_solves = list(solved)
        solved.clear()
        reference = _reference_solve_milp(model)
        assert _bits(solution) == _bits(reference), name
        assert solution.nodes == len(pruned_solves) <= reference.nodes == len(solved), name
        nodes += solution.nodes
        ref_nodes += reference.nodes
    return nodes, ref_nodes


class TestSameAnswerAsUnprunedSearch:
    def test_bench1_stage_models(self, bench1, monkeypatch):
        models = _stage_models(bench1)
        models.update({f"{name} (override)": model for name, model in
                       _stage_models(bench1, PAYOFF_OVERRIDE).items()
                       if name in ("max-min", "refine")})
        nodes, ref_nodes = _compare(models, monkeypatch)
        assert nodes < ref_nodes

    @pytest.mark.parametrize("factor", [1e6, 1e-7])
    def test_bench1_scaled_costs(self, bench1, monkeypatch, factor):
        # The penalties are read off a scaled tableau and unscaled per
        # binary, so the keys must stay valid at either end of the cost scale.
        nodes, ref_nodes = _compare(_stage_models(scaled_costs(bench1, factor)), monkeypatch)
        assert nodes < ref_nodes

    def test_random_max_min_and_refine_models(self, monkeypatch):
        rng = random.Random(77031)
        nodes = ref_nodes = 0
        for k in range(40):
            models = _stage_models(random_instance(rng))
            counts = _compare({f"{k} {name}": models[name] for name in ("max-min", "refine")},
                              monkeypatch)
            nodes += counts[0]
            ref_nodes += counts[1]
        assert nodes < ref_nodes


class TestPenaltyBounds:
    """Each child's penalty bound, its heap key, is a lower bound on that child's LP value."""

    @pytest.mark.parametrize("factor", [1.0, 1e6, 1e-7])
    def test_root_penalties_bound_child_lps(self, bench1, factor):
        checked = positive = 0
        for name, model in _stage_models(scaled_costs(bench1, factor)).items():
            form = _bounded_form(model)
            status, value, x, _, state = _node_lp(model, form, {}, None)
            assert status == OPTIMAL, name
            fractional = [j for j in model.binaries.tolist()
                          if abs(x[j] - round(x[j])) > ifctp.milp.INT_TOL]
            for j in fractional:
                down, up = _penalties(form, state, j)
                scale = 1e-9 * max(1.0, abs(value))
                for fixed, bound in ((0.0, value + x[j] * down),
                                     (1.0, value + (1.0 - x[j]) * up)):
                    child = textbook_relaxation(model, {j: fixed})
                    if child[0] == INFEASIBLE:
                        continue
                    assert bound <= child[1] + scale, (name, j, fixed)
                    checked += 1
                    positive += bound > value + scale
        assert checked > 20
        assert positive > 0  # the bounds are not all the parent's value

    def test_every_child_key_bounds_its_lp(self, bench1, monkeypatch):
        """At every branching node, each child's key is at most its textbook LP value."""
        models = [model for factor in (1.0, 1e6, 1e-7)
                  for model in _stage_models(scaled_costs(bench1, factor)).values()]
        models += [model for name, model in _stage_models(bench1, PAYOFF_OVERRIDE).items()
                   if name in ("max-min", "refine")]
        rng = random.Random(77031)
        models += [model for _ in range(40)
                   for model in _stage_models(random_instance(rng)).values()]
        pushed = []

        def recording_push(heap, entry):  # entry: (key, -depth, sequence, fixes, start)
            pushed.append((entry[0], entry[3]))
            heapq.heappush(heap, entry)

        monkeypatch.setattr(ifctp.milp, "heapq",
                            types.SimpleNamespace(heappush=recording_push, heappop=heapq.heappop))
        checked = 0
        for model in models:
            pushed.clear()
            solve_milp(model)
            for key, fixes in pushed:
                status, value, _ = textbook_relaxation(model, fixes)
                if status == OPTIMAL:
                    assert key <= value + 1e-9 * max(1.0, abs(value)), sorted(fixes.items())
                    checked += 1
        assert checked > 1000

    def test_no_candidate_column_means_infeasible_child(self):
        # max x0 with x0 + x1 = 1 and x0 <= 0.4 puts x1 at 0.6; x1 cannot
        # reach 0, so the child that pushes it down has no column to pay for it.
        model = MilpModel([-1.0, 0.0], [[1.0, 1.0], [1.0, 0.0]], [0, 1], [1.0, 0.4],
                          [0.0, 0.0], [1.0, 1.0], [1])
        form = _bounded_form(model)
        status, value, x, _, state = _node_lp(model, form, {}, None)
        assert status == OPTIMAL and 0 < x[1] < 1
        down, _ = _penalties(form, state, 1)
        assert down == math.inf
        assert textbook_relaxation(model, {1: 0.0})[0] == INFEASIBLE
