"""Penalty keys in branch and bound: valid bounds, same answers, fewer nodes.

solve_milp keys each child by its Driebeck penalty bound and prunes on it.
Its answer must be the bits of a reference search that pops nodes in the same
order but never prunes on a key, so pruning is the only difference between
them.  A second reference keys each child by its parent's LP value instead;
the penalty keys must never need more nodes than it.
"""

import heapq
import itertools
import math
import struct

import numpy as np
import pytest

from _random_instances import draws
from _textbook_lp import textbook_relaxation
from conftest import check_searches, record_searches, scaled_costs, stage_models

import ifctp.milp
from ifctp import MilpModel, MilpSolution
from ifctp.milp import (INFEASIBLE, OPTIMAL, ROUNDED_FEAS_TOL, _child_keys, _form, _node_lp,
                        _Start, constraint_part, solve_milp)


def _reference_solve_milp(model, penalty_keys):
    """solve_milp's best-bound search without its pruning on keys.

    Same node LPs, starts, branching rule, incumbent rule and final pattern
    solve.  With penalty_keys each child is keyed as solve_milp keys it
    (_child_keys), so nodes pop in solve_milp's order, but every child is
    pushed and every popped node solved; only an LP value that cannot beat
    the incumbent prunes.  Otherwise each child is keyed by its parent's LP
    value, and a popped node whose key cannot beat the incumbent is pruned.
    """
    binaries = model.binaries
    incumbent_val = math.inf
    incumbent_x = None
    tol = ROUNDED_FEAS_TOL * np.where(model.b != 0.0, np.abs(model.b), 1.0)
    row_hi = np.where(model.senses >= 0, model.b + tol, np.inf)
    row_lo = np.where(model.senses <= 0, model.b - tol, -np.inf)
    var_hi = model.hi + ROUNDED_FEAS_TOL
    var_lo = model.lo - ROUNDED_FEAS_TOL
    form = _form(model, constraint_part(model))
    nodes = pivots = 0
    seq = itertools.count()
    heap = [(-math.inf, 0, next(seq), {}, None)]
    while heap:
        key, neg_depth, _, fixes, start = heapq.heappop(heap)
        if not penalty_keys and key >= incumbent_val:
            continue
        nodes += 1
        # Looked up on the module, so _compare's recording sees these solves too.
        status, value, x, lp_pivots, state = ifctp.milp._node_lp(model, form, fixes, start)
        pivots += lp_pivots
        if status == INFEASIBLE:
            continue
        if value >= incumbent_val:
            continue
        point = x.copy()
        point[binaries] = np.ceil(x[binaries]) + 0.0
        rows = np.einsum("ij,j->i", model.A, point)
        feasible = ((rows <= row_hi).all() and (rows >= row_lo).all()
                    and (point <= var_hi).all() and (point >= var_lo).all())
        frac = np.abs(x[binaries] - np.round(x[binaries]))
        worst = frac.max(initial=0.0)
        if feasible or worst == 0.0:
            candidate = model.value_at(point)
            if candidate < incumbent_val:
                incumbent_val = candidate
                incumbent_x = point
            if worst == 0.0:
                continue
        t = int(frac.argmax())
        j = int(binaries[t])
        keys = _child_keys(form, state, t, j, value, x) if penalty_keys else (value, value)
        depth = -neg_depth + 1
        first = 1 if x[j] >= 0.5 else 0
        basis, at_upper, T, _ = state
        inverse = T[:basis.size, -basis.size:].copy()
        shared = _Start(basis, at_upper, inverse, form.slack.identity)
        for branch in (first, 1 - first):
            child = dict(fixes)
            child[j] = float(branch)
            heapq.heappush(heap, (keys[branch], -depth, next(seq), child, shared))
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


def _compare(models, monkeypatch):
    """Assert identical answers model by model; returns (nodes, parent-keyed nodes).

    solve_milp's answer must be the unpruned reference's, bit for bit.  Each
    search's node count must equal its node LP solves, and the penalty keys
    must never need more of them than the parent-keyed reference.
    """
    def searched(lps):  # the answer's pattern solve is the one slack-basis start with fixes
        return sum(not lp.cold or not lp.fixes for lp in lps)

    nodes = ref_nodes = 0
    for name, model in models.items():
        solution, lps, _ = record_searches(monkeypatch, lambda: solve_milp(model))
        unpruned = _reference_solve_milp(model, penalty_keys=True)
        reference, ref_lps, _ = record_searches(
            monkeypatch, lambda: _reference_solve_milp(model, penalty_keys=False))
        assert _bits(solution) == _bits(unpruned), name
        assert solution.nodes <= unpruned.nodes, name
        assert solution.nodes == searched(lps) <= reference.nodes == searched(ref_lps), name
        nodes += solution.nodes
        ref_nodes += reference.nodes
    return nodes, ref_nodes


class TestSameAnswerAsUnprunedSearch:
    def test_bench1_stage_models(self, bench1, monkeypatch):
        nodes, ref_nodes = _compare(stage_models(bench1), monkeypatch)
        assert nodes < ref_nodes

    @pytest.mark.parametrize("factor", [1e6, 1e-7, 2.0 ** -36])
    def test_bench1_scaled_costs(self, bench1, monkeypatch, factor):
        # The penalties are read off a scaled tableau and unscaled per
        # binary, so the keys must stay valid at either end of the cost scale.
        models = stage_models(scaled_costs(bench1, factor))
        nodes, ref_nodes = _compare(models, monkeypatch)
        assert nodes < ref_nodes

    def test_random_max_min_and_refine_models(self, monkeypatch):
        nodes = ref_nodes = 0
        for k, instance in enumerate(draws(77031, 40)):
            models = stage_models(instance)
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
        models = stage_models(scaled_costs(bench1, factor))
        for name, model in models.items():
            form = _form(model, constraint_part(model))
            status, value, x, _, state = _node_lp(model, form, {}, None)
            assert status == OPTIMAL, name
            for t, j in enumerate(model.binaries.tolist()):
                if x[j] == round(x[j]):
                    continue
                keys = _child_keys(form, state, t, j, value, x)
                scale = 1e-9 * max(1.0, abs(value))
                for fixed, bound in zip((0.0, 1.0), keys):
                    child = textbook_relaxation(model, {j: fixed})
                    if child[0] == INFEASIBLE:
                        continue
                    assert bound <= child[1] + scale, (name, j, fixed)
                    checked += 1
                    positive += bound > value + scale
        assert checked > 20
        assert positive > 0  # the bounds are not all the parent's value

    def test_every_child_key_bounds_its_lp(self, bench1, monkeypatch):
        """At every branching node, each child's key is at most its textbook LP value
        (conftest.check_searches); test_warm_start.py checks the unscaled costs."""
        counts = check_searches(monkeypatch,
                                [scaled_costs(bench1, factor) for factor in (1e6, 1e-7)])
        assert counts[True, "key"] > 20 and counts[False, "key"] > 100, counts

    def test_no_candidate_column_means_infeasible_child(self):
        # max x0 with x0 + x1 = 1 and x0 <= 0.4 puts x1 at 0.6; x1 cannot
        # reach 0, so the child that pushes it down has no column to pay for it.
        model = MilpModel([-1.0, 0.0], [[1.0, 1.0], [1.0, 0.0]], [0, 1], [1.0, 0.4],
                          [0.0, 0.0], [1.0, 1.0], [1])
        form = _form(model, constraint_part(model))
        status, value, x, _, state = _node_lp(model, form, {}, None)
        assert status == OPTIMAL and 0 < x[1] < 1
        assert _child_keys(form, state, 0, 1, value, x)[0] == math.inf
        assert textbook_relaxation(model, {1: 0.0})[0] == INFEASIBLE
