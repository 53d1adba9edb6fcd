import pathlib
import sys

import pytest

from ifctp import IfctpInstance, Interval, ShipmentPlan, Stages

ROOT = pathlib.Path(__file__).resolve().parent.parent
PROBLEMS_DIR = ROOT / "problems"
# The tests draw the benchmark's ladder-bb instances from its own workloads module.
sys.path.append(str(ROOT / "bench"))

# 3x4 benchmark data: (unit lo, unit hi, charge lo, charge hi) per route.
BENCH1_CELLS = [
    [(4, 8, 10, 30), (8, 12, 19, 25), (9, 11, 19, 25), (8, 10, 20, 30)],
    [(10, 18, 16, 20), (10, 12, 15, 25), (11, 15, 25, 55), (5, 7, 38, 40)],
    [(7, 19, 10, 20), (8, 12, 22, 30), (8, 14, 30, 50), (13, 17, 20, 22)],
]
BENCH1_SUPPLY = [(30, 33), (27, 28), (22, 25)]
BENCH1_DEMAND = [(20, 21), (19, 24), (23, 24), (20, 22)]


def bench1_instance() -> IfctpInstance:
    return IfctpInstance(
        [[Interval(c[0], c[1]) for c in row] for row in BENCH1_CELLS],
        [[Interval(c[2], c[3]) for c in row] for row in BENCH1_CELLS],
        [Interval(*s) for s in BENCH1_SUPPLY],
        [Interval(*d) for d in BENCH1_DEMAND],
    )


def zero_width_bench1() -> IfctpInstance:
    """Crisp copy: costs collapse to centers, supplies to caps, demands to floors.

    Collapsing supplies upward and demands downward keeps the constraint set
    of the relaxed problem unchanged, so the copy stays feasible.
    """
    inst = bench1_instance()
    point = lambda v: Interval(v, v)
    return IfctpInstance(
        [[point(c.center) for c in row] for row in inst.unit_cost],
        [[point(c.center) for c in row] for row in inst.fixed_charge],
        [point(s.hi) for s in inst.supply],
        [point(d.lo) for d in inst.demand],
    )


def scaled_costs(instance: IfctpInstance, factor: float) -> IfctpInstance:
    """Copy with every unit cost and fixed charge multiplied by factor > 0."""
    scale = lambda iv: Interval(iv.lo * factor, iv.hi * factor)
    return IfctpInstance([[scale(iv) for iv in row] for row in instance.unit_cost],
                         [[scale(iv) for iv in row] for row in instance.fixed_charge],
                         instance.supply, instance.demand)


def rescaled(instance: IfctpInstance, quantity: float, unit_cost: float) -> IfctpInstance:
    """Copy with supplies and demands times quantity and unit costs times unit_cost."""
    scale = lambda iv, f: Interval(iv.lo * f, iv.hi * f)
    return IfctpInstance([[scale(iv, unit_cost) for iv in row] for row in instance.unit_cost],
                         instance.fixed_charge,
                         [scale(iv, quantity) for iv in instance.supply],
                         [scale(iv, quantity) for iv in instance.demand])


def stage_run(instance: IfctpInstance) -> Stages:
    """A Stages run of all five stage solves, holding their models and solutions."""
    stages = Stages(instance)
    stages.anchor("lower")
    stages.ideal()
    stages.compromise()
    return stages


def stage_models(instance: IfctpInstance) -> dict:
    """The five stage models of a Stages run, by name, so a test checks the very
    models a run solves."""
    return dict(stage_run(instance).models)


@pytest.fixture(scope="session")
def bench1() -> IfctpInstance:
    return bench1_instance()


@pytest.fixture(scope="session")
def bench1_path() -> pathlib.Path:
    return PROBLEMS_DIR / "safi_razmjoo_1.txt"


@pytest.fixture(scope="session")
def reference_plan() -> ShipmentPlan:
    """The benchmark's published compromise plan (quantities rounded to 2 decimals)."""
    return ShipmentPlan([[20, 0, 13, 0], [0, 4.95, 0, 20], [0, 14.04, 10, 0]])
