"""The center and lower anchors' searches over shipment-only transportation LPs.

Stages.anchor hands solve_milp the linking rows for the center and lower
anchors, so each node of their searches is a transportation LP over the
shipments alone (milp._shipment_form): a free route at c_ij + f_ij / M_ij per
unit, an open one at c_ij plus f_ij, a closed one boxed at [0, 0].  Each
center node's value must be the full model's LP relaxation at the node's
fixes; every child key must bound the subtree it closes; and the answer, the
shipment-only LP at the incumbent's activation pattern lifted to the full
model, must have the value of the full-form search's answer, bit for bit,
and for the lower anchor its assignment too.  Neither solve builds the full
model's bounded form.
"""

import dataclasses
import heapq
import pathlib
import types

import pytest

from _random_instances import draws
from _textbook_lp import textbook_relaxation
from conftest import bench1_instance, rescaled

import ifctp.milp
import workloads
from ifctp import Stages, parse_instance
from ifctp.crisp import build_bi_objective, to_milp
from ifctp.milp import OPTIMAL, _shipment_form, solve_milp

DATA = pathlib.Path(__file__).resolve().parent / "data"
LADDER_SEED_1 = list(workloads.instances("ladder-bb", 1).values())


def _data_file(variant):
    return parse_instance((DATA / f"safi_razmjoo_1_{variant}.txt").read_text())


def _cases():
    """Lists of (instance, reference) pairs by name; the reference is the instance itself."""
    return {
        "paper": [(bench1_instance(), bench1_instance())],
        "zero-floor": [(_data_file("zero_floor"),) * 2],          # M_ij = 0 into one column
        "negative-cost": [(_data_file("negative_cost"),) * 2],    # M_ij = s_i.hi
        "random-40": [(draw, draw) for draw in draws(77031, 40)],
        **{f"quantities-2^{p}": [(rescaled(bench1_instance(), 2.0 ** p, 2.0 ** -p),) * 2]
           for p in (30, -30)},
    }


CASES = _cases()


def _relative(a, b):
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


def _center_model(instance):
    bi = build_bi_objective(instance)
    return to_milp(bi, bi.obj_center)


@pytest.mark.parametrize("case", list(CASES))
def test_every_center_node_is_the_full_models_relaxation(case, monkeypatch):
    nodes = []
    node_lp = ifctp.milp._node_lp

    def recording(model, form, fixes, start):
        result = node_lp(model, form, fixes, start)
        if form.links is not None:
            nodes.append((dict(fixes), result[0], result[1]))
        return result

    monkeypatch.setattr(ifctp.milp, "_node_lp", recording)
    checked = 0
    for instance, reference in CASES[case]:
        nodes.clear()
        Stages(instance).anchor("center")
        model = _center_model(reference)
        for fixes, status, value in nodes:
            textbook = textbook_relaxation(model, fixes)
            assert status == textbook[0], sorted(fixes.items())
            if status == OPTIMAL:
                assert _relative(value, textbook[1]), (sorted(fixes.items()), value, textbook[1])
        checked += len(nodes)
    assert checked >= len(CASES[case])


def test_every_key_bounds_the_subtree_it_closes(monkeypatch):
    """Each pushed child's key is at most its textbook LP."""
    bounded = []  # (bound, fixes, model)
    current = []

    def recording_push(heap, entry):  # entry: (key, -depth, sequence, fixes, start)
        bounded.append((entry[0], entry[3], current[0]))
        heapq.heappush(heap, entry)

    monkeypatch.setattr(ifctp.milp, "heapq",
                        types.SimpleNamespace(heappush=recording_push, heappop=heapq.heappop))
    pairs = [pair for pairs in CASES.values() for pair in pairs]
    for instance, reference in pairs + [(ladder, ladder) for ladder in LADDER_SEED_1]:
        current[:] = [_center_model(reference)]
        Stages(instance).anchor("center")
    checked = 0
    for bound, fixes, model in bounded:
        status, value, _ = textbook_relaxation(model, fixes)
        if status == OPTIMAL:
            assert bound <= value + 1e-9 * max(1.0, abs(value)), sorted(fixes.items())
            checked += 1
    assert checked > 400, checked


SOURCES = {
    "ladder-seed-1": LADDER_SEED_1,
    "random-200": draws(1000, 200),
    **{case: [instance for instance, _ in pairs] for case, pairs in CASES.items()},
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


def test_center_solve_never_builds_the_bounded_form(monkeypatch):
    """Nor does the lower anchor's solve."""
    def refused(model):
        raise AssertionError("a shipment-only solve built the bounded form")

    monkeypatch.setattr(ifctp.milp, "_bounded_form", refused)
    stages = Stages(bench1_instance())
    for anchor in ("center", "lower"):
        solution = stages.anchor(anchor)
        assert solution.status == OPTIMAL and solution.nodes > 0, anchor


def test_link_rows_must_link_one_binary_to_one_boxed_shipment():
    bi = build_bi_objective(bench1_instance())
    model = to_milp(bi, bi.obj_center)
    _shipment_form(model, range(7, 19))  # the linking rows
    for rows in (range(0, 12), range(6, 18), range(7, 18)):
        with pytest.raises(ValueError, match="link row"):
            _shipment_form(model, rows)
    with pytest.raises(ValueError, match="link row"):  # a charge below zero
        _shipment_form(dataclasses.replace(model, c=-bi.obj_center), range(7, 19))
    lo = model.lo.copy()
    lo[0] = 1.0  # a shipment that must ship
    with pytest.raises(ValueError, match="link row"):
        _shipment_form(dataclasses.replace(model, lo=lo), range(7, 19))
