import dataclasses
import math
import re

import pytest

from conftest import BENCH1_DEMAND, BENCH1_SUPPLY

from ifctp import IfctpInstance, Interval, InvalidInstanceError, ShipmentPlan, check_plan


def _raw_interval(lo, hi):
    """Bypass constructor validation to simulate a corrupted interval."""
    iv = object.__new__(Interval)
    object.__setattr__(iv, "lo", lo)
    object.__setattr__(iv, "hi", hi)
    return iv


def _tiny(unit=None, fixed=None, supply=None, demand=None):
    return IfctpInstance(
        unit or [[Interval(1, 2)]],
        fixed or [[Interval(1, 3)]],
        supply or [Interval(5, 5)],
        demand or [Interval(4, 4)],
    )


def _invalid(message):
    """Construction must raise InvalidInstanceError with exactly this message."""
    return pytest.raises(InvalidInstanceError, match=f"^{re.escape(message)}$")


class TestValidate:
    def test_bench1_is_valid(self, bench1):
        assert dataclasses.replace(bench1) == bench1
        # aggregate check backing the instance: upper supplies cover lower demands
        assert sum(hi for _, hi in BENCH1_SUPPLY) == 86
        assert sum(lo for lo, _ in BENCH1_DEMAND) == 82

    def test_aggregate_shortfall(self):
        # well formed, so not a violation: the instance solves to infeasible
        assert _tiny(demand=[Interval(10, 10)]).demand == (Interval(10, 10),)

    def test_corrupted_interval_reported(self):
        with _invalid("unit_cost(1,1): interval lo 8 > hi 4"):
            _tiny(unit=[[_raw_interval(8, 4)]])

    def test_negative_fixed_charge(self):
        with _invalid("fixed_charge(1,1): negative lower endpoint -1"):
            _tiny(fixed=[[Interval(-1, 3)]])

    def test_negative_supply_and_demand(self):
        # the first violation is named; the demand's follows it
        with _invalid("supply(1): negative lower endpoint -2"):
            _tiny(supply=[Interval(-2, 5)], demand=[Interval(-3, 4)])
        with _invalid("demand(1): negative lower endpoint -3"):
            _tiny(demand=[Interval(-3, 4)])

    def test_violation_order_is_row_major(self):
        unit = [[Interval(1, 2), _raw_interval(9, 3)],
                [_raw_interval(7, 1), Interval(1, 2)]]
        fixed = [[Interval(0, 1), Interval(0, 1)], [Interval(0, 1), _raw_interval(5, 2)]]
        with _invalid("unit_cost(1,2): interval lo 9 > hi 3"):
            IfctpInstance(unit, fixed, [Interval(9, 9), Interval(9, 9)],
                          [Interval(1, 1), Interval(1, 1)])

    def test_dimension_mismatch(self):
        with _invalid("unit_cost has 1 rows, expected m=2"):
            _tiny(supply=[Interval(5, 5), Interval(2, 2)])

    def test_non_rectangular_matrix_raises(self):
        with _invalid("unit_cost has 2 rows, expected m=1"):
            _tiny(unit=[[Interval(1, 2), Interval(1, 2)], [Interval(1, 2)]])
        with _invalid("unit_cost rows must all have n=2 entries"):
            IfctpInstance([[Interval(1, 2), Interval(1, 2)], [Interval(1, 2)]],
                          [[Interval(1, 3)] * 2] * 2, [Interval(5, 5)] * 2, [Interval(4, 4)] * 2)
        with _invalid("unit_cost has 0 rows, expected m=1"):
            IfctpInstance([], [[Interval(1, 3)]], [Interval(5, 5)], [Interval(4, 4)])

    def test_no_source_or_no_destination(self):
        with _invalid("need at least one source"):
            IfctpInstance([[Interval(1, 2)]], [[Interval(1, 3)]], [], [Interval(4, 4)])
        with _invalid("need at least one source"):
            IfctpInstance([[Interval(1, 2)]], [[Interval(1, 3)]], [], [])
        with _invalid("need at least one destination"):
            IfctpInstance([[Interval(1, 2)]], [[Interval(1, 3)]], [Interval(5, 5)], [])

    def test_cost_rows_of_the_wrong_length(self):
        with _invalid("unit_cost rows must all have n=1 entries"):
            _tiny(unit=[[Interval(1, 2), Interval(1, 2)]])


class TestCheckPlan:
    def test_reference_plan_has_one_rounding_violation(self, bench1, reference_plan):
        # published quantities sum to 18.99 in column 2, short of the floor by
        # far more than 1e-6 of it
        got = check_plan(bench1, reference_plan)
        assert got == ["column 2 receives 18.99 < demand floor 19"]

    def test_all_zero_plan_misses_every_demand(self, bench1):
        plan = ShipmentPlan([[0] * 4 for _ in range(3)])
        got = check_plan(bench1, plan)
        assert len(got) == 4
        assert all("demand floor" in v for v in got)

    def test_supply_cap_violation(self, bench1):
        plan = ShipmentPlan([[82, 0, 23, 0], [0, 8, 0, 20], [0, 11, 0, 0]])
        got = check_plan(bench1, plan)
        assert len(got) == 1
        assert "row 1" in got[0] and "33" in got[0]

    @pytest.mark.parametrize("route, amount, expected", [
        ((0, 2), 13.00004, "row 1 ships 33.00004 > supply cap 33"),
        ((2, 1), 14.049966, "column 2 receives 18.999966 < demand floor 19"),
    ], ids=["supply-cap", "demand-floor"])
    def test_a_sum_just_past_its_bound_prints_apart_from_it(self, bench1, reference_plan,
                                                            route, amount, expected):
        # Past its bound by about 1.2e-6 and 1.8e-6 of it: 6 significant digits
        # printed the sum as the bound itself.
        y = [list(row) for row in reference_plan.y]
        y[route[0]][route[1]] = amount
        assert expected in check_plan(bench1, ShipmentPlan(y))

    def test_dimension_mismatch_raises(self, bench1):
        plan = ShipmentPlan([[1, 2], [3, 4]])
        with pytest.raises(ValueError, match="shape"):
            check_plan(bench1, plan)

    def test_huge_finite_shipments_read_as_an_infinite_row_sum(self, bench1):
        # math.fsum raises OverflowError on these; the row ships more than a float holds.
        plan = ShipmentPlan([[1e308, 1e308, 0, 0], [0] * 4, [0] * 4])
        got = check_plan(bench1, plan)
        assert got[0] == "row 1 ships inf > supply cap 33"
        assert "column 3 receives 0 < demand floor 23" in got

    def test_partial_sum_overflow_keeps_the_exact_total(self, bench1):
        y = [[1e308, 0, 0, 0], [1e308, 0, 0, 0], [-1e308, 0, 0, 0]]
        got = check_plan(bench1, ShipmentPlan(y))
        assert "y(3,1) = -1e+308 is negative" in got
        assert not any("column 1" in v for v in got)  # it receives exactly 1e308

    @pytest.mark.parametrize("y", [[[math.inf, -math.inf]], [[math.nan, 1.0]]],
                             ids=["inf", "nan"])
    def test_non_finite_shipments_are_rejected(self, y):
        with pytest.raises(ValueError, match="finite"):
            ShipmentPlan(y)

    @pytest.mark.parametrize("y", [[[1.0, 2.0], [3.0]], []], ids=["ragged", "empty"])
    def test_shipments_must_form_a_non_empty_rectangular_matrix(self, y):
        with pytest.raises(ValueError, match="^y must be a non-empty rectangular matrix$"):
            ShipmentPlan(y)

    def test_from_quantities_derives_activations(self):
        # Any positive shipment opens its route, however small the unit.
        plan = ShipmentPlan([[0.0, 3.5], [1e-9, 2.0]])
        assert plan.x == ((0, 1), (1, 1))


class TestFctpInstance:
    def test_lifted_instance_solves_like_plain_fctp(self):
        from ifctp.crisp import build_bi_objective, to_milp
        from ifctp.milp import solve_milp
        point = lambda v: Interval(v, v)
        crisp = IfctpInstance([[point(2.0), point(3.0)]], [[point(1.0), point(4.0)]],
                              [point(7.0)], [point(3.0), point(4.0)])
        bi = build_bi_objective(crisp)
        sol = solve_milp(to_milp(bi, bi.obj_center))
        # cheapest: 3 units at 2 (+1 fixed), 4 at 3 (+4 fixed)
        assert sol.objective_value == pytest.approx(2 * 3 + 1 + 3 * 4 + 4)
