import sys
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifctp import (IfctpInstance, Interval, InvalidInstanceError, ProblemFileError, parse_instance,
                   render_instance)

MINIMAL = """\
dims 1 1
cost 1 1 = [1,2] fixed [0,1]
supply 1 = [5,6]
demand 1 = [3,4]
"""


class TestParseShippedBenchmark:
    def test_shipped_file(self, bench1_path, bench1):
        inst = parse_instance(bench1_path.read_text())
        assert inst == bench1
        assert (inst.m, inst.n) == (3, 4)
        assert inst.unit_cost[0][0] == Interval(4, 8)
        assert inst.fixed_charge[1][3] == Interval(38, 40)
        assert inst.supply[2] == Interval(22, 25)
        assert inst.demand[1] == Interval(19, 24)


class TestParseErrors:
    def _expect(self, text, fragment, line=None):
        with pytest.raises(ProblemFileError) as err:
            parse_instance(text)
        assert fragment in str(err.value)
        if line is not None:
            assert err.value.line == line

    def test_reversed_interval(self):
        bad = MINIMAL.replace("[1,2]", "[8,4]")
        self._expect(bad, "lo > hi", line=2)

    def test_missing_demand(self):
        text = """\
dims 1 2
cost 1 1 = [1,2] fixed [0,1]
cost 1 2 = [1,2] fixed [0,1]
supply 1 = [9,9]
demand 1 = [3,4]
"""
        self._expect(text, "expected 2 demand entries, found 1")

    def test_missing_cost_cell(self):
        text = MINIMAL.replace("cost 1 1 = [1,2] fixed [0,1]\n", "")
        self._expect(text, "expected 1 cost entries, found 0")

    def test_duplicate_entry(self):
        self._expect(MINIMAL + "supply 1 = [5,6]\n", "duplicate supply", line=5)

    def test_unknown_line(self):
        self._expect(MINIMAL + "ship it\n", "unrecognized", line=5)

    def test_missing_dims(self):
        self._expect("cost 1 1 = [1,2] fixed [0,1]\n", "dims line")

    def test_duplicate_dims(self):
        self._expect(MINIMAL + "dims 1 1\n", "duplicate dims", line=5)

    def test_index_out_of_range(self):
        self._expect(MINIMAL + "cost 2 1 = [1,2] fixed [0,1]\n", "outside dims", line=5)

    def test_non_numeric_endpoint(self):
        self._expect(MINIMAL.replace("[1,2]", "[one,2]"), "non-numeric", line=2)

    def test_malformed_interval(self):
        self._expect(MINIMAL.replace("[1,2]", "(1,2)"), "unrecognized", line=2)

    def test_structural_validation_failure(self):
        self._expect(MINIMAL.replace("fixed [0,1]", "fixed [-1,1]"),
                     "negative lower endpoint")

    def test_zero_dims(self):
        self._expect("dims 0 2\n", "at least 1x1", line=1)

    @pytest.mark.parametrize("text, message, line", [
        (MINIMAL.replace("[1,2]", "[1]"), "line 2: malformed interval '[1]', expected [lo,hi]", 2),
        (MINIMAL + "cost 1 1 = [1,2] fixed [0,1]\n", "line 5: duplicate cost entry (1,1)", 5),
        (MINIMAL + "supply 2 = [5,6]\n", "line 5: supply index 2 outside dims 1x1", 5),
        (MINIMAL + "demand 2 = [3,4]\n", "line 5: demand index 2 outside dims 1x1", 5),
        (MINIMAL + "demand 1 = [3,4]\n", "line 5: duplicate demand entry 1", 5),
        ("# nothing but a comment\n", "missing dims line", None),
        (MINIMAL.replace("dims 1 1", "dims 2 1").replace(
            "supply 1", "cost 2 1 = [1,2] fixed [0,1]\nsupply 1"),
         "expected 2 supply entries, found 1", None),
        (MINIMAL + "supply 1 2 = [1,2]\n", "line 5: unrecognized line 'supply 1 2 = [1,2]'", 5),
        (MINIMAL + "cost 1 = [1,2] fixed [0,1]\n",
         "line 5: unrecognized line 'cost 1 = [1,2] fixed [0,1]'", 5),
        (MINIMAL.replace(" fixed [0,1]", ""), "line 2: unrecognized line 'cost 1 1 = [1,2]'", 2),
        (MINIMAL + "cost 1 2 = [1,2] fixed [0,1]\n",
         "line 5: cost index (1,2) outside dims 1x1", 5),
    ], ids=["malformed-interval", "duplicate-cost", "supply-index", "demand-index",
            "duplicate-demand", "missing-dims", "supply-count", "supply-index-count",
            "cost-index-count", "cost-without-fixed", "cost-column-index"])
    def test_error_message(self, text, message, line):
        with pytest.raises(ProblemFileError) as err:
            parse_instance(text)
        assert (str(err.value), err.value.line) == (message, line)

    def test_undersupplied_file_still_parses(self):
        text = MINIMAL.replace("supply 1 = [5,6]", "supply 1 = [1,2]")
        inst = parse_instance(text)  # infeasibility is the solver's business
        assert inst.supply[0] == Interval(1, 2)


class TestRoundTrip:
    def test_parse_render_identity(self, bench1):
        assert parse_instance(render_instance(bench1)) == bench1

    def test_render_is_idempotent(self, bench1):
        once = render_instance(bench1)
        assert render_instance(parse_instance(once)) == once

    def test_comments_and_whitespace_normalize_away(self, bench1_path, bench1):
        # the shipped file carries comments; its canonical form does not
        rendered = render_instance(parse_instance(bench1_path.read_text()))
        assert "#" not in rendered
        assert parse_instance(rendered) == bench1

    def test_byte_order_mark_is_not_text(self, bench1_path):
        text = bench1_path.read_text()
        assert parse_instance("\ufeff" + text) == parse_instance(text)

    def test_fractional_values_round_trip(self):
        text = MINIMAL.replace("[1,2]", "[1.25,2.75]").replace("[3,4]", "[3.5,3.5]")
        inst = parse_instance(text)
        assert parse_instance(render_instance(inst)) == inst
        assert "[1.25,2.75]" in render_instance(inst)


# Interval rejects a center or width beyond the float range; endpoints up to
# half the largest float never reach it.
ENDPOINT_LIMIT = sys.float_info.max / 2
MAGNITUDES = (1e-7, 0.1, 1.0, 1e3, 1e100, 1e300, ENDPOINT_LIMIT)


@st.composite
def _intervals(draw, signed):
    top = draw(st.sampled_from(MAGNITUDES))
    lo, hi = sorted(draw(st.floats(-top if signed else 0.0, top)) for _ in range(2))
    return Interval(lo, hi)


@st.composite
def _instances(draw):
    """Instance data that render_instance reads; it may overflow, so it is no IfctpInstance."""
    m, n = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    return types.SimpleNamespace(
        m=m, n=n,
        unit_cost=[[draw(_intervals(True)) for _ in range(n)] for _ in range(m)],
        fixed_charge=[[draw(_intervals(False)) for _ in range(n)] for _ in range(m)],
        supply=[draw(_intervals(False)) for _ in range(m)],
        demand=[draw(_intervals(False)) for _ in range(n)])


class TestRoundTripProperty:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_instances())
    def test_parse_inverts_render(self, data):
        text = render_instance(data)
        try:
            instance = IfctpInstance(data.unit_cost, data.fixed_charge, data.supply, data.demand)
        except InvalidInstanceError:
            # Every interval is well formed, so only the objective bound fails.
            with pytest.raises(ProblemFileError, match="overflow a float"):
                parse_instance(text)
        else:
            assert parse_instance(text) == instance
