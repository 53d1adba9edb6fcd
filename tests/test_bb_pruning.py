"""Penalty keys in branch and bound: valid bounds, same answers, fewer nodes.

solve_milp keys each child by its Driebeck penalty bound and prunes on it.
Its answer must be the bits of solve_milp run with the same keys made unable
to prune, which pops nodes in the same order, so pruning is the only
difference between them.  A second reference is solve_milp with each child
keyed by its parent's LP value; the penalty keys must never need more nodes
than it.  Both references are solve_milp with other keys
(conftest.search_with_keys), so they follow its node LPs, starts, branching,
rounding and incumbent rules by construction.
"""

import math
import struct

import numpy as np
import pytest

from _random_instances import draws
from _textbook_lp import textbook_relaxation
from conftest import (check_searches, record_searches, scaled_costs, search_with_keys,
                      stage_models)

from ifctp import MilpModel
from ifctp.milp import (INFEASIBLE, OPTIMAL, _child_keys, _form, _node_lp, constraint_part,
                        solve_milp)


def _bits(solution):
    """Status, objective bits and assignment bits of a solution."""
    if solution.status != OPTIMAL:
        return solution.status, None, None
    return (solution.status, struct.pack("<d", solution.objective_value),
            np.array(solution.assignment).tobytes())


def _compare(models, monkeypatch):
    """Assert identical answers model by model; returns (nodes, parent-keyed nodes).

    solve_milp's answer must be the unpruned search's, bit for bit.  That
    search must push both children of every node that branches, the one that
    fixes the branched binary at 1 first exactly when its LP value is >= 0.5,
    and solve every child it pushes.  Each search's node count must equal its
    node LP solves, and the penalty keys must never need more of them than
    the parent-keyed search.
    """
    def searched(lps):  # the answer's pattern solve is the one slack-basis start with fixes
        return sum(not lp.cold or not lp.fixes for lp in lps)

    nodes = ref_nodes = 0
    for name, model in models.items():
        solution, lps, _ = record_searches(monkeypatch, lambda: solve_milp(model))
        unpruned, unpruned_lps, pushes, branchings = search_with_keys(monkeypatch, model, True)
        reference, ref_lps, _, _ = search_with_keys(monkeypatch, model, False)
        assert _bits(solution) == _bits(unpruned), name
        assert solution.nodes <= unpruned.nodes == searched(unpruned_lps) == 1 + len(pushes), name
        assert len(pushes) == 2 * len(branchings), name
        for (j, value), first, second in zip(branchings, pushes[::2], pushes[1::2]):
            parent = first[1]
            up = float(value >= 0.5)
            assert second[1] is parent, name
            children = {**parent.fixes, j: up}, {**parent.fixes, j: 1.0 - up}
            assert (first[2], second[2]) == children, (name, j, value)
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
