import dataclasses
import pathlib
import random

import pytest

from _random_instances import random_instance
from _reference import COMPETITOR_1, COMPETITOR_1_DISTANCE, PAYOFF_OVERRIDE
from conftest import PROBLEMS_DIR, count_builds, record_solves

import ifctp.milp
import ifctp.pipeline
from ifctp import (CompetitorEntry, IfctpInstance, Interval, OracleScopeError, PayoffTable,
                   Stages, UnattainableLevelsError, check_plan, parse_instance, render_instance,
                   run_oracle_check, run_pipeline)
from ifctp.cli import main
from ifctp.reporting import render_machine, render_text

DATA_DIR = pathlib.Path(__file__).resolve().parent / "data"

TINY_2X2 = """\
dims 2 2
cost 1 1 = [2,4] fixed [1,3]
cost 1 2 = [3,5] fixed [2,2]
cost 2 1 = [1,2] fixed [4,6]
cost 2 2 = [2,6] fixed [1,5]
supply 1 = [5,6]
supply 2 = [4,5]
demand 1 = [3,4]
demand 2 = [4,5]
"""

# TINY_2X2 with supply caps totalling 4 against demand floors totalling 7.
UNDERSUPPLIED_2X2 = (DATA_DIR / "undersupplied_2x2.txt").read_text()

STARVED = """\
dims 1 1
cost 1 1 = [1,2] fixed [0,1]
supply 1 = [1,2]
demand 1 = [9,9]
"""


def _machine_dict(text):
    return dict(line.split("=", 1) for line in text.strip().splitlines())


def _reference_report(bench1, competitor=True):
    entry = CompetitorEntry("safi-razmjoo", Interval(*COMPETITOR_1)) if competitor else None
    return run_pipeline(bench1, payoff_override=PAYOFF_OVERRIDE, competitor=entry)


class TestRunPipeline:
    def test_full_report_fields(self, bench1):
        report = _reference_report(bench1)
        assert report.status == "optimal"
        assert (report.sources, report.destinations) == (3, 4)
        assert report.payoff.worst == (787.0, 190.0)
        assert report.plan is not None and check_plan(bench1, report.plan) == []
        assert report.plan_violations == ()

    def test_distance_recomputed_consistently(self, bench1):
        report = _reference_report(bench1)
        cw = report.center_width
        expected = ((cw.center - report.ideal.center) ** 2
                    + (cw.width - report.ideal.width) ** 2) ** 0.5
        assert report.distance == pytest.approx(expected, rel=1e-12)
        assert report.objective.hi == pytest.approx(
            report.objective.lo + 2 * cw.width, rel=1e-9)

    def test_competitor_distance(self, bench1):
        report = _reference_report(bench1)
        assert report.competitor_distance == pytest.approx(COMPETITOR_1_DISTANCE, abs=1e-9)
        assert report.distance < report.competitor_distance

    def test_infeasible_instance_reports_status(self):
        report = run_pipeline(parse_instance(STARVED))
        assert report.status == "infeasible"
        assert report.plan is None and report.distance is None

    def test_totals_do_not_depend_on_the_python_version(self):
        # A plain left-to-right sum of 0.1, 0.2 and 0.3 is 0.6000000000000001;
        # builtin sum compensates it on Python 3.12 but not on 3.10 or 3.11.
        tenths = IfctpInstance([[Interval(1, 2)]] * 3, [[Interval(0, 1)]] * 3,
                               [Interval(0, cap) for cap in (0.1, 0.2, 0.3)],
                               [Interval(0.5, 0.5)])
        report = run_pipeline(tenths)
        assert report.status == "optimal"
        assert (report.supply_cap_total, report.demand_floor_total) == (0.6, 0.5)
        assert "supply_cap_total=0.6\n" in render_machine(report)

    def test_competitor_name_must_be_printable(self):
        # a line break would split the machine report's competitor.name line
        with pytest.raises(ValueError, match=r"^name 'x\\ny' is not printable$"):
            CompetitorEntry("x\ny", Interval(640, 1020))

    @pytest.mark.parametrize("override, k", [(((-1e308, 163), (1e308, 190)), 0),
                                             (((640, -1e308), (787, 1e308)), 1)])
    def test_override_span_that_overflows_is_named(self, override, k):
        # a level row holds worst - best, so the span must be a float; the
        # override table is checked as it is built, before any solve
        with pytest.raises(ValueError, match=rf"^objective {k}: the span from best level "
                                             r"-1e\+308 to worst 1e\+308 overflows a float$"):
            PayoffTable(*override)


class TestRendering:
    def test_text_golden(self, bench1):
        expected = (DATA_DIR / "golden_solve_text.txt").read_text()
        assert render_text(_reference_report(bench1)) == expected

    def test_machine_golden(self, bench1):
        expected = (DATA_DIR / "golden_compare_machine.txt").read_text()
        assert render_machine(_reference_report(bench1)) == expected

    def test_rendering_is_deterministic(self, bench1):
        report = _reference_report(bench1)
        assert render_text(report) == render_text(_reference_report(bench1))
        assert render_machine(report) == render_machine(_reference_report(bench1))

    def test_machine_format_is_flat_key_value(self, bench1):
        record = _machine_dict(render_machine(_reference_report(bench1)))
        assert record["status"] == "optimal"
        assert float(record["payoff.lower.worst"]) == 787.0
        assert float(record["competitor.distance"]) == pytest.approx(27.0)
        assert float(record["plan.y.1.1"]) == pytest.approx(20.0, abs=1e-6)

    def test_infeasible_text_render(self):
        text = render_text(run_pipeline(parse_instance(STARVED)))
        assert "status: infeasible" in text

    def test_plan_violations_follow_the_report(self, bench1):
        violations = ("row 1 ships 34 > supply cap 33", "column 2 receives 18 < demand floor 19")
        report = dataclasses.replace(_reference_report(bench1), plan_violations=violations)
        assert render_text(report) == (DATA_DIR / "golden_solve_text.txt").read_text() + (
            "warning: plan check: row 1 ships 34 > supply cap 33\n"
            "warning: plan check: column 2 receives 18 < demand floor 19\n")
        assert render_machine(report) == (DATA_DIR / "golden_compare_machine.txt").read_text() + (
            "plan_violation.1=row 1 ships 34 > supply cap 33\n"
            "plan_violation.2=column 2 receives 18 < demand floor 19\n")

    def test_infeasible_report_with_a_competitor(self):
        report = run_pipeline(parse_instance(UNDERSUPPLIED_2X2),
                              competitor=CompetitorEntry("c", Interval(1, 2)))
        assert render_text(report) == _INFEASIBLE_TEXT
        assert render_machine(report) == _INFEASIBLE_MACHINE + (
            "competitor.name=c\ncompetitor.lo=1.0\ncompetitor.hi=2.0\n"
            "competitor.center=1.5\ncompetitor.width=0.5\n")

    def test_integer_competitor_endpoints_print_as_floats(self, bench1):
        report = run_pipeline(bench1, payoff_override=PAYOFF_OVERRIDE,
                              competitor=CompetitorEntry("safi-razmjoo", Interval(640, 1020)))
        assert render_text(report) == (DATA_DIR / "golden_solve_text.txt").read_text()
        assert render_machine(report) == (DATA_DIR / "golden_compare_machine.txt").read_text()


class TestOracleCheckApi:
    def test_small_instance_passes(self):
        check = run_oracle_check(parse_instance(TINY_2X2))
        assert check.passed
        assert [line.name for line in check.lines] == \
            ["ideal-center", "ideal-width", "anchor-lower", "max-min level", "refine"]

    def test_scope_guard(self):
        iv = Interval(1, 2)
        big = IfctpInstance([[iv] * 6] * 5, [[iv] * 6] * 5,
                            [Interval(50, 50)] * 5, [Interval(1, 1)] * 6)
        with pytest.raises(OracleScopeError):
            run_oracle_check(big)


class TestCli:
    """A file that cannot be read exits 3 with one error line that names it."""

    def test_non_utf8_file_exit_code(self, tmp_path, capsys):
        path = tmp_path / "binary.txt"
        path.write_bytes(b"dims 1 1\n\xff\xfe\n")
        assert main(["solve", str(path)]) == 3
        assert capsys.readouterr() == ("", f"error: cannot read {path}: 'utf-8' codec can't "
                                           "decode byte 0xff in position 9: invalid start byte\n")

    def test_missing_file_exit_code(self, tmp_path, capsys):
        path = tmp_path / "nope.txt"
        assert main(["solve", str(path)]) == 3
        assert capsys.readouterr() == (
            "", f"error: cannot read {path}: [Errno 2] No such file or directory: {str(path)!r}\n")


class TestCliOutputBytes:
    """Exact stdout and empty stderr of the CLI's own rendering paths on the shipped instance."""

    def test_compare_machine_golden(self, bench1_path, capsys):
        expected = (DATA_DIR / "golden_compare_machine.txt").read_text()
        assert main(["compare", str(bench1_path), "--override-payoff", "640,787,163,190",
                     "--competitor", "safi-razmjoo=[640,1020]", "--report", "machine"]) == 0
        assert capsys.readouterr() == (expected, "")

    def test_compare_text_golden(self, bench1_path, capsys):
        expected = (DATA_DIR / "golden_solve_text.txt").read_text()
        assert main(["compare", str(bench1_path), "--override-payoff", "640,787,163,190",
                     "--competitor", "safi-razmjoo=[640,1020]"]) == 0
        assert capsys.readouterr() == (expected, "")

    def test_solve_machine_golden(self, bench1_path, capsys):
        # No override: the payoff table comes from the anchor solves.
        expected = (DATA_DIR / "golden_solve_payoff_machine.txt").read_text()
        assert main(["solve", str(bench1_path), "--report", "machine"]) == 0
        assert capsys.readouterr() == (expected, "")

    def test_oracle_check_golden(self, oracle_check_job):
        # test_warm_start.py checks this run's stage answers against the oracle.
        expected = (DATA_DIR / "golden_oracle_check.txt").read_text()
        assert oracle_check_job[:3] == (0, expected, "")

    @pytest.mark.parametrize("command, report, expected", [
        ("payoff", "text", "payoff levels (best / worst):\n"
                           "  lower endpoint: 640.00 / 787.00\n"
                           "  width:          163.00 / 190.00\n"),
        ("payoff", "machine", "payoff.lower.best=640.0\npayoff.lower.worst=787.0\n"
                              "payoff.width.best=163.0\npayoff.width.worst=190.0\n"),
        ("ideal", "text", "ideal point: center 830.00, width 163.00\n"),
        ("ideal", "machine", "ideal.center=830.0\nideal.width=163.0\n"),
    ])
    def test_payoff_and_ideal_stdout(self, bench1_path, capsys, command, report, expected):
        assert main([command, str(bench1_path), "--report", report]) == 0
        assert capsys.readouterr() == (expected, "")
        if report == "machine":  # the lines of the solve golden that start with command
            golden = (DATA_DIR / "golden_solve_payoff_machine.txt").read_text()
            assert expected == "".join(line for line in golden.splitlines(keepends=True)
                                       if line.startswith(f"{command}."))


class TestCliArgumentErrors:
    """Every rejected option value exits 3 with one error line, no traceback."""

    @pytest.mark.parametrize("value, message", [
        ("1,2", "expected L1,U1,L2,U2, got '1,2'"),
        ("640,787,163,x", "non-numeric value 'x'"),
        ("640,787,163,nan", "value 'nan' is not finite"),
        ("800,640,163,190", "objective 0: best level 800.0 exceeds worst 640.0 "
                            "in '800,640,163,190'"),
        ("640,787,190,163", "objective 1: best level 190.0 exceeds worst 163.0 "
                            "in '640,787,190,163'"),
        ("-1e308,1e308,163,190", "objective 0: the span from best level -1e+308 to worst "
                                 "1e+308 overflows a float in '-1e308,1e308,163,190'"),
    ], ids=["payoff-arity", "payoff-non-numeric", "payoff-nan", "payoff-reversed-lower",
            "payoff-reversed-width", "payoff-span-overflow"])
    def test_bad_value_exit_code(self, bench1_path, capsys, value, message):
        # The = form, as a value that starts with "-" would otherwise read as an option.
        assert main(["solve", str(bench1_path), f"--override-payoff={value}"]) == 3
        assert capsys.readouterr() == ("", f"error: argument --override-payoff: {message}\n")

    @pytest.mark.parametrize("name, message", [
        ("x\ny", r"name 'x\ny' is not printable"),
        ("x\ry", r"name 'x\ry' is not printable"),
        ("x\x1by", r"name 'x\x1by' is not printable"),
        (" \t", "expected name=[lo,hi]"),
    ], ids=["line-feed", "carriage-return", "escape", "blank"])
    def test_competitor_name_is_printable_and_not_blank(self, bench1_path, capsys, name,
                                                        message):
        # A line break in the name would split the machine report's competitor.name line.
        assert main(["compare", str(bench1_path), "--override-payoff", "640,787,163,190",
                     "--competitor", f"{name}=[640,1020]", "--report", "machine"]) == 3
        assert capsys.readouterr() == ("", f"error: argument --competitor: {message}\n")

    @pytest.mark.parametrize("args, message", [
        (["solve", "{path}", "--bogus"], "error: unrecognized arguments: --bogus"),
        (["solve"], "error: the following arguments are required: file"),
        (["oracle-check", "{path}", "--report", "machine"],
         "error: unrecognized arguments: --report machine"),
        (["solve", "{path}", "--tolerance", "1e-4"],
         "error: unrecognized arguments: --tolerance 1e-4"),
    ], ids=["unknown-option", "missing-file", "oracle-check-report", "tolerance-removed"])
    def test_usage_error_exit_code(self, bench1_path, capsys, args, message):
        assert main([a.format(path=bench1_path) for a in args]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [message]

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--help"])
        assert err.value.code == 0
        assert capsys.readouterr().out.startswith("usage: ifctp")


_INFEASIBLE = ifctp.milp.MilpSolution(ifctp.milp.INFEASIBLE, None, None)


def _infeasible_if_built_by(monkeypatch, builder):
    """A record_solves answer: every model ifctp.pipeline's builder returns from here on
    solves infeasible."""
    built, build = [], getattr(ifctp.pipeline, builder)
    monkeypatch.setattr(ifctp.pipeline, builder,
                        lambda *args: built.append(build(*args)) or built[-1])
    return lambda name, model, kwargs: _INFEASIBLE if any(model is b for b in built) else None


class TestCliNumericalBreakdown:
    def test_degenerate_pivot_exit_code(self, bench1_path, capsys, monkeypatch):
        # No pivot is allowed at all, so the first simplex run breaks down.
        monkeypatch.setattr(ifctp.milp, "ITERATION_CAP", 0)
        assert main(["solve", str(bench1_path)]) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: numerical breakdown: simplex iteration cap exceeded"]

    @pytest.mark.parametrize("args", [[], ["--override-payoff", "640,787,163,190"]],
                             ids=["computed-levels", "override-levels"])
    def test_refine_failure_is_named(self, bench1_path, capsys, monkeypatch, args):
        # The refine model holds the level at an attained one, so neither the
        # instance nor the override levels are to blame when it fails.
        fail = _infeasible_if_built_by(monkeypatch, "build_refine_model")
        assert record_solves(monkeypatch, lambda: main(["solve", str(bench1_path), *args]),
                             fail)[0] == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: numerical breakdown: the refine model ended infeasible at the max-min level"]


class TestUnattainableOverride:
    """Worst levels that no plan meets are a usage error, not an infeasible instance."""

    def test_feasible_instance_exits_3(self, bench1_path, capsys):
        assert main(["solve", str(bench1_path), "--override-payoff", "500,510,100,101"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: override levels are unattainable: no plan has lower endpoint <= 510.0 "
            "and width <= 101.0"]

    def test_undersupplied_instance_still_exits_2(self, tmp_path, capsys):
        path = tmp_path / "starved.txt"
        path.write_text(STARVED)
        assert main(["solve", str(path), "--override-payoff", "500,510,100,101"]) == 2
        assert "status: infeasible" in capsys.readouterr().out

    def test_run_pipeline_raises(self, bench1):
        with pytest.raises(UnattainableLevelsError, match="width <= 101.0"):
            run_pipeline(bench1, payoff_override=PayoffTable((500, 100), (510, 101)))


class TestOneBuildPerJob:
    """Each job builds the bi-objective model once and solves each stage model once."""

    @pytest.mark.parametrize("args, solves, oracle_solves", [
        (["solve", "{path}", "--report", "machine"], 5, 0),
        (["solve", "{path}", "--override-payoff", "640,787,163,190"], 4, 0),
        (["compare", "{path}", "--override-payoff", "640,787,163,190",
          "--competitor", "safi-razmjoo=[640,1020]"], 4, 0),
        (["payoff", "{path}"], 2, 0),
        (["ideal", "{path}"], 2, 0),
        (["oracle-check", "{path}"], 5, 5),
    ], ids=["solve", "solve-override", "compare", "payoff", "ideal", "oracle-check"])
    def test_bi_objective_built_once(self, bench1_path, capsys, monkeypatch, args, solves,
                                     oracle_solves):
        # solve_milp answers oracle_solve instead of enumeration; conftest.py's
        # oracle_check_job enumerates the same models.
        builds = count_builds(monkeypatch)
        code, calls = record_solves(
            monkeypatch, lambda: main([a.format(path=bench1_path) for a in args]),
            lambda name, model, kwargs: ifctp.milp.solve_milp(model) if name == "oracle_solve"
            else None)
        assert code == 0 and builds["build_bi_objective"] == 1
        # The bytes of every array tell two solved models apart.
        solved = [tuple(getattr(call.model, field.name).tobytes()
                        for field in dataclasses.fields(call.model))
                  for call in calls if call.name == "solve_milp"]
        assert len(solved) == len(set(solved)) == solves
        assert len(calls) - len(solved) == oracle_solves

    @pytest.mark.parametrize("args, per_job", [
        (["solve", "{path}", "--report", "machine"],
         dict(bounded_form=3, scaled_matrix=2, shipment_form=2, shipment_part=1)),
        (["compare", "{path}", "--override-payoff", "640,787,163,190",
          "--competitor", "safi-razmjoo=[640,1020]"],
         dict(bounded_form=3, scaled_matrix=2, shipment_form=1, shipment_part=1)),
    ], ids=["solve", "compare"])
    def test_each_constraint_set_built_once(self, bench1_path, capsys, monkeypatch, args,
                                            per_job):
        """A bounded form for width, max-min and refine from two scalings, the width
        anchor's and the one max-min shares with refine; a shipment-only form for each
        anchor searched so (center, and lower unless overridden) from the one constraint
        part they share.  So the center and lower searches build no bounded form.  A
        second job on the same file builds them all again: no form outlives its job."""
        builds = count_builds(monkeypatch)
        for job in (1, 2):
            assert main([a.format(path=bench1_path) for a in args]) == 0
            assert {name: builds[name] for name in per_job} == \
                {name: job * count for name, count in per_job.items()}

    def test_instance_checked_once(self, bench1_path, capsys, monkeypatch):
        builds = count_builds(monkeypatch)
        assert main(["solve", str(bench1_path)]) == 0
        assert builds["check_structure"] == 1


class TestSubcommandsAgreeWithSolve:
    def test_payoff_and_ideal_print_the_lines_solve_prints(self, tmp_path, capsys):
        rng = random.Random(2718)
        path = tmp_path / "instance.txt"
        for _ in range(20):
            path.write_text(render_instance(random_instance(rng)))
            out = {}
            for command in ("solve", "payoff", "ideal"):
                assert main([command, str(path), "--report", "machine"]) == 0
                out[command] = capsys.readouterr().out.splitlines(keepends=True)
            for command in ("payoff", "ideal"):
                assert out[command] == [line for line in out["solve"]
                                        if line.startswith(f"{command}.")]


_INFEASIBLE_TEXT = ("interval fixed-charge transportation: 2 sources, 2 destinations\n"
                    "supply cap total 4.00, demand floor total 7.00\nstatus: infeasible\n")
_INFEASIBLE_MACHINE = ("status=infeasible\nsources=2\ndestinations=2\nsupply_cap_total=4.0\n"
                       "demand_floor_total=7.0\n")
_INFEASIBLE_LINE = "infeasible: supply cap total 4.0 < demand floor total 7.0\n"

NEGATIVE_CHARGE_1X1 = "dims 1 1\ncost 1 1 = [1,2] fixed [-1,1]\nsupply 1 = [5,5]\ndemand 1 = [4,4]\n"
_NEGATIVE_CHARGE_LINE = "error: fixed_charge(1,1): negative lower endpoint -1\n"

# The two refine terms w_k z_k are about -0.5 and +0.5 (weights 1/135 and
# about 1/0.75), so the weighted sum is round-off around 0.
CANCELLING_REFINE_1X1 = ("dims 1 1\ncost 1 1 = [-9,-8.9] fixed [0,0]\nsupply 1 = [15,15]\n"
                         "demand 1 = [0,1]\n")

BENCH1_TEXT = (PROBLEMS_DIR / "safi_razmjoo_1.txt").read_text()

# The shipped instance at costs x1e40 and quantities x1e-10: a warm max-min
# child that breaks down is solved again from the slack start (exit 5 before).
_COSTS_1E40_MACHINE = ("status=optimal\nsources=3\ndestinations=4\nsupply_cap_total=8.600000000000001e-09\n"
                       "demand_floor_total=8.2e-09\npayoff.lower.best=9.000000007939999e+41\n"
                       "payoff.lower.worst=1.3400000007549999e+42\npayoff.width.best=1.40000000173e+41\n"
                       "payoff.width.worst=2.60000000144e+41\nlevel=0.5833333332243056\n"
                       "membership.lower=0.7954545453455061\nmembership.width=0.5833333332243055\n"
                       "objective.lo=9.900000008340001e+41\nobjective.hi=1.3700000011820001e+42\n"
                       "objective.center=1.1800000010080001e+42\nobjective.width=1.90000000174e+41\n"
                       "ideal.center=1.160000000938e+42\nideal.width=1.40000000173e+41\n"
                       "distance=5.38516480982709e+40\nplan.y.1.1=0.0\n"
                       "plan.y.1.2=1.0000000000000003e-09\nplan.y.1.3=2.3e-09\nplan.y.1.4=0.0\n"
                       "plan.y.2.1=1.9000000000000005e-09\nplan.y.2.2=8.999999999999998e-10\n"
                       "plan.y.2.3=0.0\nplan.y.2.4=0.0\nplan.y.3.1=9.999999999999965e-11\n"
                       "plan.y.3.2=0.0\nplan.y.3.3=0.0\nplan.y.3.4=2e-09\n"
                       "plan.x.1.1=0\nplan.x.1.2=1\nplan.x.1.3=1\nplan.x.1.4=0\nplan.x.2.1=1\n"
                       "plan.x.2.2=1\nplan.x.2.3=0\nplan.x.2.4=0\nplan.x.3.1=1\nplan.x.3.2=0\n"
                       "plan.x.3.3=0\nplan.x.3.4=1\n")


def _data_text(name):
    return (DATA_DIR / name).read_text()


def _less_competitor_line(text):
    """text less its last line, which must be the competitor's."""
    head, last = text[:-1].rsplit("\n", 1)
    assert last.startswith("competitor "), last
    return head + "\n"


# 30 routes, beyond the oracle's scope of 20 binaries.
WIDE_5X6 = "".join(["dims 5 6\n",
                    *(f"cost {i} {j} = [1,2] fixed [0,1]\n"
                      for i in range(1, 6) for j in range(1, 7)),
                    *(f"supply {i} = [50,50]\n" for i in range(1, 6)),
                    *(f"demand {j} = [1,1]\n" for j in range(1, 7))])


class TestCliExactOutcomes:
    """Exact stdout, stderr and exit code of jobs that have no golden file."""

    @pytest.mark.parametrize("instance, args, code, out, err", [
        (UNDERSUPPLIED_2X2, ["solve"], 2, _INFEASIBLE_TEXT, ""),
        (UNDERSUPPLIED_2X2, ["solve", "--report", "machine"], 2, _INFEASIBLE_MACHINE, ""),
        (UNDERSUPPLIED_2X2, ["compare", "--competitor", "x=[1,2]", "--report", "machine"], 2,
         _INFEASIBLE_MACHINE + "competitor.name=x\ncompetitor.lo=1.0\ncompetitor.hi=2.0\n"
                               "competitor.center=1.5\ncompetitor.width=0.5\n", ""),
        (UNDERSUPPLIED_2X2, ["compare", "--competitor", "x=[1,2]"], 2, _INFEASIBLE_TEXT, ""),
        (UNDERSUPPLIED_2X2, ["payoff"], 2, "", _INFEASIBLE_LINE),
        (UNDERSUPPLIED_2X2, ["payoff", "--report", "machine"], 2, "", _INFEASIBLE_LINE),
        (UNDERSUPPLIED_2X2, ["ideal"], 2, "", _INFEASIBLE_LINE),
        (UNDERSUPPLIED_2X2, ["ideal", "--report", "machine"], 2, "", _INFEASIBLE_LINE),
        (UNDERSUPPLIED_2X2, ["oracle-check"], 2, "", _INFEASIBLE_LINE),
        (TINY_2X2, ["oracle-check"], 0,
         "ideal-center: solver=27.5 oracle=27.5 delta=0 ok\n"
         "ideal-width: solver=6.5 oracle=6.5 delta=0 ok\n"
         "anchor-lower: solver=16.0 oracle=16.0 delta=0 ok\n"
         "max-min level: solver=0.2400000000000001 oracle=0.2400000000000001 delta=0 ok\n"
         "refine: solver=5.586666666166667 oracle=5.586666666166668 delta=8.88e-16 ok\n"
         "oracle check: PASS\n", ""),
        (NEGATIVE_CHARGE_1X1, ["solve"], 3, "", _NEGATIVE_CHARGE_LINE),
        (NEGATIVE_CHARGE_1X1, ["compare", "--competitor", "x=[1,2]"], 3, "",
         _NEGATIVE_CHARGE_LINE),
        (NEGATIVE_CHARGE_1X1, ["payoff"], 3, "", _NEGATIVE_CHARGE_LINE),
        (NEGATIVE_CHARGE_1X1, ["ideal"], 3, "", _NEGATIVE_CHARGE_LINE),
        (NEGATIVE_CHARGE_1X1, ["oracle-check"], 3, "", _NEGATIVE_CHARGE_LINE),
        (NEGATIVE_CHARGE_1X1.replace("fixed [-1,1]", "fixed [0,1]").replace("[4,4]", "[-2,4]"),
         ["solve", "--report", "machine"], 3, "",
         "error: demand(1): negative lower endpoint -2\n"),
        ("\ufeff" + BENCH1_TEXT, ["ideal", "--report", "machine"], 0,
         "ideal.center=830.0\nideal.width=163.0\n", ""),
        (_data_text("safi_razmjoo_1_unit_costs_1e9.txt"), ["ideal", "--report", "machine"], 0,
         "ideal.center=674000000167.0\nideal.width=133000000030.0\n", ""),
        (_data_text("safi_razmjoo_1_costs_1e40_quantities_1e-10.txt"),
         ["solve", "--report", "machine"], 0, _COSTS_1E40_MACHINE, ""),
        (_data_text("safi_razmjoo_1_costs_1e40_quantities_1e-10.txt"), ["oracle-check"], 0,
         "ideal-center: solver=1.160000000938e+42 oracle=1.160000000938e+42 delta=0 ok\n"
         "ideal-width: solver=1.40000000173e+41 oracle=1.40000000173e+41 delta=0 ok\n"
         "anchor-lower: solver=9.000000007939999e+41 oracle=9.00000000794e+41 delta=1.55e+26 ok\n"
         "max-min level: solver=0.5833333332243056 oracle=0.5833333332243056 delta=0 ok\n"
         "refine: solver=3.833333337260858 oracle=3.833333337260858 delta=0 ok\n"
         "oracle check: PASS\n", ""),
        (_data_text("safi_razmjoo_1_costs_1e300_quantities_1e-20.txt"), ["solve"], 5, "",
         "error: numerical breakdown: the scaled objective overflows a float\n"),
        (BENCH1_TEXT, ["solve", "--override-payoff", "640,787,163,190"], 0,
         _less_competitor_line(_data_text("golden_solve_text.txt")), ""),
        (BENCH1_TEXT, ["compare", "--competitor", "nope"], 3, "",
         "error: argument --competitor: expected name=[lo,hi]\n"),
        ("dims 1 1\ncost 1 1 = [8,4] fixed [0,1]\n", ["solve"], 3, "",
         "error: line 2: interval lo > hi: [8.0, 4.0]\n"),
        (WIDE_5X6, ["oracle-check"], 4, "",
         "error: resource limit: 30 routes exceed the oracle's scope of 20\n"),
        (CANCELLING_REFINE_1X1, ["oracle-check"], 0,
         "ideal-center: solver=-134.25 oracle=-134.25 delta=0 ok\n"
         "ideal-width: solver=0.0 oracle=0.0 delta=0 ok\n"
         "anchor-lower: solver=-135.0 oracle=-135.0 delta=0 ok\n"
         "max-min level: solver=0.5 oracle=0.5 delta=0 ok\n"
         "refine: solver=-5.551115123125783e-17 oracle=0.0 delta=5.55e-17 ok\n"
         "oracle check: PASS\n", ""),
    ], ids=["undersupplied-solve-text", "undersupplied-solve-machine",
            "undersupplied-compare-machine", "undersupplied-compare-text",
            "undersupplied-payoff-text",
            "undersupplied-payoff-machine", "undersupplied-ideal-text",
            "undersupplied-ideal-machine", "undersupplied-oracle-check", "tiny-oracle-check",
            "negative-charge-solve", "negative-charge-compare", "negative-charge-payoff",
            "negative-charge-ideal", "negative-charge-oracle-check", "negative-demand-solve",
            "byte-order-mark-ideal-machine", "unit-costs-1e9-ideal-machine",
            "costs-1e40-quantities-1e-10-solve", "costs-1e40-quantities-1e-10-oracle-check",
            "costs-1e300-quantities-1e-20-solve", "solve-override-text",
            "bad-competitor-compare", "lo-above-hi-solve", "wide-5x6-oracle-check",
            "cancelling-refine-oracle-check"])
    def test_outcome(self, tmp_path, capsys, instance, args, code, out, err):
        path = tmp_path / "instance.txt"
        path.write_text(instance, encoding="utf-8")
        assert main([args[0], str(path), *args[1:]]) == code
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (out, err)

    @pytest.mark.parametrize("name", [
        "safi_razmjoo_1_wide_caps.txt",      # supply caps in the tens of millions
        "safi_razmjoo_1_zero_floor.txt",     # big-M 0 into one column
        "safi_razmjoo_1_negative_cost.txt",  # every big-M back at its supply cap
        "safi_razmjoo_1_tiny_charge.txt",    # a fixed charge of 1e-16 on one route
        "tied_at_level_zero.txt",            # level 0, so the refine searches from the root
    ])
    def test_oracle_check_passes(self, capsys, name):
        assert main(["oracle-check", str(DATA_DIR / name)]) == 0
        captured = capsys.readouterr()
        assert captured.out.endswith("\noracle check: PASS\n") and captured.err == ""


class TestFeasibilityRule:
    """An instance has a plan iff its supply caps add up to its demand floors.

    The rule decides before any solve, so a stage solve without an optimum can
    only be a numerical breakdown.
    """

    @pytest.mark.parametrize("args", [
        ["solve"], ["compare", "--competitor", "x=[1,2]"], ["payoff"], ["ideal"],
        ["oracle-check"]], ids=lambda args: args[0])
    def test_undersupplied_instance_makes_no_solve(self, capsys, monkeypatch, args):
        path = DATA_DIR / "undersupplied_2x2.txt"
        assert record_solves(monkeypatch, lambda: main([args[0], str(path), *args[1:]])) == (2, [])

    def test_caps_equal_to_floors_solve_and_one_unit_short_do_not(self, tmp_path, capsys,
                                                                  monkeypatch):
        path = tmp_path / "instance.txt"
        # Caps 3 + 4 meet floors 3 + 4 exactly.
        path.write_text(UNDERSUPPLIED_2X2.replace("supply 1 = [1,2]", "supply 1 = [1,3]")
                        .replace("supply 2 = [1,2]", "supply 2 = [1,4]"))
        assert main(["solve", str(path), "--report", "machine"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("status=optimal\n")
        assert "plan_violation" not in out
        path.write_text(path.read_text().replace("supply 2 = [1,4]", "supply 2 = [1,3]"))
        assert record_solves(monkeypatch, lambda: main(["payoff", str(path)])) == (2, [])
        assert capsys.readouterr().err == (
            "infeasible: supply cap total 6.0 < demand floor total 7.0\n")

    @pytest.mark.parametrize("command, first_anchor", [
        ("solve", "center"), ("ideal", "center"), ("payoff", "lower"), ("oracle-check", "lower")])
    def test_anchor_without_an_optimum_is_a_breakdown(self, bench1_path, capsys, monkeypatch,
                                                      command, first_anchor):
        assert record_solves(monkeypatch, lambda: main([command, str(bench1_path)]),
                             lambda name, model, kwargs: _INFEASIBLE)[0] == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: numerical breakdown: the {first_anchor} anchor ended infeasible"]

    def test_override_levels_solve_only_max_min_and_refine(self, bench1, monkeypatch):
        _, calls = record_solves(monkeypatch, lambda: Stages(bench1).compromise(PAYOFF_OVERRIDE))
        assert len(calls) == 2


class TestCliOverflow:
    """Inputs that overflow a float exit 3 with one error line, no traceback."""

    @staticmethod
    def _one_error_line(capsys):
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        return lines[0]

    def test_cost_interval_center_overflows(self, tmp_path, capsys):
        path = tmp_path / "huge.txt"
        path.write_text("dims 1 1\ncost 1 1 = [1e308,1.7e308] fixed [3,4]\n"
                        "supply 1 = [500,600]\ndemand 1 = [200,300]\n")
        assert main(["solve", str(path)]) == 3
        line = self._one_error_line(capsys)
        assert line.startswith("error: line 2: interval [1e+308, 1.7e+308] overflows")

    def test_competitor_interval_center_overflows(self, bench1_path, capsys):
        assert main(["compare", str(bench1_path), "--competitor", "x=[1e308,1.7e308]"]) == 3
        line = self._one_error_line(capsys)
        assert line.startswith("error: argument --competitor: interval [1e+308, 1.7e+308] "
                               "overflows")

    def test_objective_can_overflow(self, tmp_path, capsys):
        # Feasible, but 600 units at 1e307 each overflow the objective.
        path = tmp_path / "costly.txt"
        path.write_text("dims 1 1\ncost 1 1 = [1e307,1e307] fixed [3,4]\n"
                        "supply 1 = [500,600]\ndemand 1 = [200,300]\n")
        assert main(["solve", str(path)]) == 3
        assert self._one_error_line(capsys) == (
            "error: unit costs times supply caps overflow a float")

    def test_supply_caps_can_overflow(self, tmp_path, capsys):
        # Each cap fits in a float, but their total does not; the costs are zero.
        path = tmp_path / "roomy.txt"
        path.write_text("dims 3 1\n" + "".join(f"cost {i} 1 = [0,0] fixed [0,0]\n"
                                                for i in (1, 2, 3))
                        + "".join(f"supply {i} = [8e307,8e307]\n" for i in (1, 2, 3))
                        + "demand 1 = [1,1]\n")
        assert main(["solve", str(path)]) == 3
        assert self._one_error_line(capsys) == (
            "error: supply caps plus demand floors overflow a float")


def _huge_unit_costs(scale):
    """2x2 whose unit costs dwarf its charges: column 1 at [-scale, scale], column 2 at scale."""
    routes = "".join(f"cost {i} 1 = [-{scale},{scale}] fixed [3,4]\n"
                     f"cost {i} 2 = [{scale},{scale}] fixed [3,4]\n" for i in (1, 2))
    return (f"dims 2 2\n{routes}supply 1 = [100,300]\nsupply 2 = [100,300]\n"
            "demand 1 = [200,300]\ndemand 2 = [200,300]\n")


class TestHugeUnitCosts:
    """Huge unit costs answer exactly, or end in a numerical breakdown with one stderr line."""

    def test_overflowing_ratio_prints_no_warning(self, tmp_path, capsys):
        # The charges, 1e-304 of the unit costs in the level rows, used to set
        # those rows' scale and end the run in a numerical breakdown (exit 5).
        # They are now left out of it, so the level is the one the 1e20 case
        # derives; from 1e305 the objective could overflow, which exits 3.
        path = tmp_path / "huge.txt"
        for scale in ("3.5e304", "1e300"):
            path.write_text(_huge_unit_costs(scale))
            assert main(["solve", str(path), "--report", "machine"]) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            assert "level=0.5" in captured.out.splitlines()
        path.write_text(_huge_unit_costs("1e305"))
        assert main(["solve", str(path)]) == 3
        assert capsys.readouterr().err == "error: unit costs times supply caps overflow a float\n"

    def test_computed_levels_give_the_exact_level(self, tmp_path, capsys):
        # t units on route 1 -> 1 give memberships (t - 200) / 200 and
        # (400 - t) / 200, so λ* = 0.5 at t = 300.
        path = tmp_path / "huge.txt"
        path.write_text(_huge_unit_costs("1e20"))
        assert main(["solve", str(path), "--report", "machine"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        lines = captured.out.splitlines()
        for line in ("level=0.5", "payoff.lower.best=-2e+22", "payoff.width.best=2e+22",
                     "payoff.width.worst=4e+22"):
            assert line in lines

    def test_unattainable_override_still_exits_3(self, tmp_path, capsys):
        path = tmp_path / "huge.txt"
        path.write_text(_huge_unit_costs("1e20"))
        assert main(["solve", str(path), "--override-payoff", "0,1,0,1"]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "error: override levels are unattainable: no plan has lower endpoint <= 1.0 "
            "and width <= 1.0"]

    def test_infeasible_max_min_blames_the_levels_only_when_supplied(self, bench1, bench1_path,
                                                                     capsys, monkeypatch):
        fail = _infeasible_if_built_by(monkeypatch, "build_max_min_model")
        with pytest.raises(ifctp.milp.DegeneratePivotError, match="computed payoff levels"):
            record_solves(monkeypatch, lambda: run_pipeline(bench1), fail)
        with pytest.raises(UnattainableLevelsError):
            record_solves(monkeypatch,
                          lambda: run_pipeline(bench1, payoff_override=PAYOFF_OVERRIDE), fail)
        for command in ("solve", "oracle-check"):
            assert record_solves(monkeypatch, lambda: main([command, str(bench1_path)]),
                                 fail)[0] == 5
            assert capsys.readouterr().err.splitlines() == [
                "error: numerical breakdown: the max-min model is infeasible at the computed "
                "payoff levels"]
