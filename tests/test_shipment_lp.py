"""The center and lower anchors' searches over shipment-only transportation LPs.

Stages.anchor hands solve_milp a shipment part, over the linking rows, for the
center and lower anchors, so each node of their searches is a transportation
LP over the shipments alone (milp._shipment_part): a free route at c_ij +
f_ij / M_ij per unit, an open one at c_ij plus f_ij, a closed one boxed at
[0, 0].  Each of their node LPs must be the full model's LP relaxation at the
node's fixes, and every child key must bound the subtree it closes
(conftest.check_searches).
test_warm_start.py's TestWarmNodesMatchCold checks both inside whole stage
runs: the shipped instance, its zero-floor, negative-cost and quantity-unit
copies, and random draws.  The key test here checks the ladder's anchors
alone, whose trees are the deepest.  The answer, the shipment-only LP at the
incumbent's activation pattern lifted to the full model, must have the value
of the full-form search's answer, bit for bit, and for the lower anchor its
assignment too.  Neither solve builds the full model's bounded form
(test_pipeline_cli.py's TestOneBuildPerJob counts a job's forms).
"""

import dataclasses

import pytest

from _random_instances import draws
from conftest import bench1_instance, check_searches, rescaled, shipped_variant

import workloads
from ifctp import Stages
from ifctp.crisp import build_bi_objective, to_milp
from ifctp.milp import OPTIMAL, _form, constraint_part, solve_milp

LADDER_SEED_1 = list(workloads.instances("ladder-bb", 1).values())


def test_every_key_bounds_the_subtree_it_closes(monkeypatch):
    """Each pushed child's key is at most its textbook LP; the ladder's trees are
    the deepest (conftest.check_searches)."""
    counts = check_searches(monkeypatch, LADDER_SEED_1, anchors_only=True)
    assert counts[True, OPTIMAL] > 18 and counts[True, "key"] > 400, counts


SOURCES = {
    "ladder-seed-1": LADDER_SEED_1,
    "random-200": draws(1000, 200),
    "paper": [bench1_instance()],
    "zero-floor": [shipped_variant("zero_floor")],          # M_ij = 0 into one column
    "negative-cost": [shipped_variant("negative_cost")],    # M_ij = s_i.hi
    "random-40": draws(77031, 40),
    **{f"quantities-2^{p}": [rescaled(bench1_instance(), 2.0 ** p, 2.0 ** -p)] for p in (30, -30)},
    "quantity-units": [rescaled(bench1_instance(), 2.0 ** p, 2.0 ** -p)
                       for p in (-30, -24, -20, -10, -3, 10, 20, 30)],
}


@pytest.mark.parametrize("anchor, source", [
    *(pytest.param("center", source, id=source) for source in SOURCES),
    *(pytest.param("lower", source, id=f"lower-{source}") for source in SOURCES)])
def test_center_value_is_the_full_form_searchs_bit_for_bit(anchor, source):
    """A zero big-M, M_ij = s_i.hi and extreme quantity units are where the shipment-only
    answer could drift from the full form's; the ladder and random draws also need fewer
    nodes in all.  The payoff table reports the lower anchor's plan, so its assignment
    must be the full form's too."""
    nodes = full_nodes = 0
    for k, instance in enumerate(SOURCES[source]):
        shipment = Stages(instance).anchor(anchor)
        bi = build_bi_objective(instance)
        full = solve_milp(to_milp(bi, getattr(bi, f"obj_{anchor}")))
        assert shipment.objective_value.hex() == full.objective_value.hex(), k
        if anchor == "lower":
            assert shipment.assignment == full.assignment, k
        nodes += shipment.nodes
        full_nodes += full.nodes
    if source in ("ladder-seed-1", "random-200"):
        assert nodes < full_nodes


def test_link_rows_must_link_one_binary_to_one_boxed_shipment():
    bi = build_bi_objective(bench1_instance())
    model = to_milp(bi, bi.obj_center)
    part = constraint_part(model, range(7, 19))  # the linking rows
    for rows in (range(0, 12), range(6, 18), range(7, 18)):
        with pytest.raises(ValueError, match="link row"):
            constraint_part(model, rows)
    with pytest.raises(ValueError, match="link row"):  # a charge below zero
        _form(dataclasses.replace(model, c=-bi.obj_center), part)
    lo = model.lo.copy()
    lo[0] = 1.0  # a shipment that must ship
    with pytest.raises(ValueError, match="link row"):
        constraint_part(dataclasses.replace(model, lo=lo), range(7, 19))
