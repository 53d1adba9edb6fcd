"""Big-M rows with huge supply caps: no route ships without paying its charge.

With y_ij <= M_ij x_ij and M_ij a supply cap of 1e6 or more, an LP point can
carry a whole shipment on an activation x_ij = y_ij / M_ij below the
integrality tolerance.  Branch and bound must not accept that point as
integral: its rounded activations would ship on a closed route for free.
With every unit cost >= 0, M_ij is min(s_i.hi, d_j.lo), so huge caps reach
the model only through the supply rows; the big-M of a cap is still built
where a unit cost is negative, and one test builds it directly.
"""

import dataclasses
import pathlib
import random

import numpy as np

from _random_instances import random_instance

from ifctp import IfctpInstance, Interval, check_plan, run_oracle_check
from ifctp.cli import main
from ifctp.crisp import build_bi_objective, extract_plan, to_milp
from ifctp.milp import solve_milp

WIDE_CAPS = pathlib.Path(__file__).resolve().parent / "data" / "safi_razmjoo_1_wide_caps.txt"


CHEAP, DEAR = Interval(1, 2), Interval(2, 3)
TWO_BY_TWO = IfctpInstance([[CHEAP, DEAR], [DEAR, CHEAP]], [[Interval(30, 40)] * 2] * 2,
                           [Interval(1e7, 1e7)] * 2, [Interval(5, 5)] * 2)


def _assert_center_optimum_pays_its_charges(bi):
    # The cheap diagonal routes ship 5 units each; paying both charges (35
    # each at the center) gives 1.5*5 + 1.5*5 + 70 = 85.
    model = to_milp(bi, bi.obj_center)
    solution = solve_milp(model)
    assert solution.objective_value == 85.0
    rows = model.A @ solution.assignment
    assert (rows[model.senses > 0] <= model.b[model.senses > 0]).all()
    assert (rows[model.senses < 0] >= model.b[model.senses < 0]).all()
    assert check_plan(TWO_BY_TWO, extract_plan(bi, solution.assignment)) == []


def test_two_by_two_center_optimum_pays_its_charges():
    _assert_center_optimum_pays_its_charges(build_bi_objective(TWO_BY_TWO))


def test_two_by_two_with_big_m_at_the_caps_pays_its_charges():
    bi = build_bi_objective(TWO_BY_TWO)
    assert bi.big_m.tolist() == [[5.0, 5.0], [5.0, 5.0]]
    _assert_center_optimum_pays_its_charges(dataclasses.replace(bi, big_m=np.full((2, 2), 1e7)))


def test_wide_caps_ideal_point(capsys):
    assert main(["ideal", str(WIDE_CAPS)]) == 0
    assert capsys.readouterr().out == "ideal point: center 763.00, width 121.00\n"


def test_wide_caps_oracle_check(capsys):
    assert main(["oracle-check", str(WIDE_CAPS)]) == 0
    assert capsys.readouterr().out.endswith("oracle check: PASS\n")


def test_oracle_equivalence_with_caps_times_1e6():
    rng = random.Random(20261018)
    for k in range(30):
        base = random_instance(rng)
        instance = IfctpInstance(base.unit_cost, base.fixed_charge,
                                 [Interval(iv.lo, iv.hi * 1e6) for iv in base.supply],
                                 base.demand)
        assert run_oracle_check(instance).passed, k
