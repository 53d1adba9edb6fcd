import collections
import contextlib
import heapq
import io
import pathlib
import sys
import types

import pytest

from _textbook_lp import textbook_relaxation

import ifctp.cli
import ifctp.compromise
import ifctp.crisp
import ifctp.milp
import ifctp.model
import ifctp.pipeline
from ifctp import IfctpInstance, Interval, ShipmentPlan, Stages, parse_instance
from ifctp.milp import OPTIMAL, solve_milp

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


def shipped_variant(name: str) -> IfctpInstance:
    """The shipped instance's copy in tests/data/safi_razmjoo_1_{name}.txt."""
    return parse_instance((ROOT / "tests" / "data" / f"safi_razmjoo_1_{name}.txt").read_text())


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


NodeLp = collections.namedtuple("NodeLp", "model shipment_only fixes cold status value")


def record_searches(monkeypatch, run):
    """run()'s result, every node LP it solved and every child key it pushed.

    Each node LP, pattern LPs included, is a NodeLp: the model, whether its
    form is shipment-only, the fixes, whether it started from the slack basis
    (cold), the status and the value.  Each pushed child is (key, parent,
    fixes), parent being the NodeLp of the latest node LP.
    """
    lps, keys = [], []
    node_lp = ifctp.milp._node_lp

    def recording_node_lp(model, form, fixes, start):
        result = node_lp(model, form, fixes, start)
        lps.append(NodeLp(model, form.links is not None, fixes, start is None, *result[:2]))
        return result

    def recording_push(heap, entry):  # entry: (key, -depth, sequence, fixes, start)
        keys.append((entry[0], lps[-1], entry[3]))
        heapq.heappush(heap, entry)

    with monkeypatch.context() as patch:
        patch.setattr(ifctp.milp, "_node_lp", recording_node_lp)
        patch.setattr(ifctp.milp, "heapq",
                      types.SimpleNamespace(heappush=recording_push, heappop=heapq.heappop))
        return run(), lps, keys


Solve = collections.namedtuple("Solve", "name model kwargs solution")


def record_solves(monkeypatch, run, answer=None):
    """run()'s result and every solve_milp and oracle_solve call ifctp.pipeline made in it.

    Each call is a Solve: "solve_milp" or "oracle_solve", the model, the keyword
    arguments and the solution handed back.  answer(name, model, kwargs), if
    given, returns the solution to hand back in place of the call's own, or
    None to make the call.
    """
    calls = []

    def recording(name, solve):
        def recorded(model, **kwargs):
            solution = answer and answer(name, model, kwargs)
            if solution is None:
                solution = solve(model, **kwargs)
            calls.append(Solve(name, model, kwargs, solution))
            return solution
        return recorded

    with monkeypatch.context() as patch:
        for name in ("solve_milp", "oracle_solve"):
            patch.setattr(ifctp.pipeline, name, recording(name, getattr(ifctp.pipeline, name)))
        return run(), calls


def _patch_everywhere(patch, home, name, wrap):
    """Replace home.name by wrap(home.name) in every ifctp module that binds it."""
    original = getattr(home, name)
    wrapped = wrap(original)
    for module in (ifctp.cli, ifctp.compromise, ifctp.crisp, ifctp.milp, ifctp.model,
                   ifctp.pipeline):
        if getattr(module, name, None) is original:
            patch.setattr(module, name, wrapped)


def record_lps(monkeypatch, run, slacks=None):
    """run()'s result and every milp._dual_simplex call it makes: the call's arguments
    (form, lo, hi, start), the inverse and refined flag its start had before it, and its
    outcome (status, the bytes of v, pivots and the bytes of the final basis); slacks,
    if given, collects the slack start of each form run() builds."""
    calls = []

    def recording(dual_simplex):
        def recorded(form, lo, hi, start):
            before = start.inverse, start.refined
            status, v, pivots, state = dual_simplex(form, lo, hi, start)
            calls.append(((form, lo, hi, start), before,
                          (status, None if v is None else v.tobytes(), pivots,
                           None if state is None else state[0].tobytes())))
            return status, v, pivots, state
        return recorded

    def collecting(make):
        def made(*args):
            form = make(*args)
            if slacks is not None:
                slacks.append(form.slack)
            return form
        return made

    with monkeypatch.context() as patch:
        _patch_everywhere(patch, ifctp.milp, "_dual_simplex", recording)
        _patch_everywhere(patch, ifctp.milp, "_form", collecting)
        return run(), calls


def count_builds(monkeypatch):
    """A Counter of the builds made from here on, until monkeypatch undoes it.

    It counts the calls of build_bi_objective, of model._check_structure (the
    instance check) and of milp's constraint parts and forms: _scaled_matrix,
    which a bounded part scales, _shipment_part and _form.  Each is keyed by its
    name without the leading underscore, except _form's calls: bounded_form or
    shipment_form by their part's routes.  Each is counted in every ifctp module
    that binds it.
    """
    counts = collections.Counter()

    def counting(build):
        def counted(*args):
            name = build.__name__.lstrip("_")
            if name == "form":
                name = ("bounded" if args[1].routes is None else "shipment") + "_form"
            counts[name] += 1
            return build(*args)
        return counted

    for home, name in ((ifctp.crisp, "build_bi_objective"), (ifctp.model, "_check_structure"),
                       (ifctp.milp, "_form"), (ifctp.milp, "_scaled_matrix"),
                       (ifctp.milp, "_shipment_part")):
        _patch_everywhere(monkeypatch, home, name, counting)
    return counts


def _searches(monkeypatch, instance, anchors_only):
    """(node LPs, pushed keys) of a run's searches, then of those it does not make.

    A run searches the center and lower anchors over shipment-only LPs and the
    rest in the bounded form; with anchors_only it takes its anchors alone.
    Otherwise the bounded center and lower searches follow, and the refine
    model's from the root, where most warm children end INFEASIBLE.
    """
    def anchors():
        stages = Stages(instance)
        for name in ("center", "lower"):
            stages.anchor(name)
        return stages

    stages, lps, keys = record_searches(
        monkeypatch, anchors if anchors_only else lambda: stage_run(instance))
    shipment = [stages.models[name] for name in ("center", "lower")]
    assert all(lp.shipment_only == any(lp.model is model for model in shipment) for lp in lps)
    if not anchors_only:
        _, more_lps, more_keys = record_searches(monkeypatch, lambda: [
            solve_milp(stages.models[name]) for name in ("center", "lower", "refine")])
        assert not any(lp.shipment_only for lp in more_lps)
        lps += more_lps
        keys += more_keys
    return lps, keys


def check_searches(monkeypatch, instances, anchors_only=False):
    """Check each instance's node LPs and child keys against the textbook simplex.

    Each node LP, root, warm and pattern LPs alike, must have the textbook's
    status and value at its fixes (tests/_textbook_lp.py); each pushed child's
    key must be at most its textbook LP value.  Returns the counts of checks by
    (shipment-only form, LP status or "key").

    The shipment-only center and lower searches are checked inside whole runs
    by test_warm_start.py's TestWarmNodesMatchCold, and with anchors_only on
    the ladder's deepest trees by test_shipment_lp.py's key test.
    """
    counts = collections.Counter()
    # Textbook LPs by (model, fixes): a popped child repeats its key's LP, and a
    # bounded anchor search repeats many of its shipment-only search's.
    textbook = {}

    def relaxation(model, fixes):
        at = model, tuple(sorted(fixes.items()))
        if at not in textbook:
            textbook[at] = textbook_relaxation(model, fixes)[:2]
        return textbook[at]

    for instance in instances:
        lps, keys = _searches(monkeypatch, instance, anchors_only)
        for lp in lps:
            status, value = relaxation(lp.model, lp.fixes)
            assert lp.status == status, sorted(lp.fixes.items())
            if status == OPTIMAL:
                assert abs(lp.value - value) <= 1e-9 * max(1.0, abs(value)), \
                    (sorted(lp.fixes.items()), lp.value, value)
            counts[lp.shipment_only, status] += 1
        for key, parent, fixes in keys:
            status, value = relaxation(parent.model, fixes)
            if status == OPTIMAL:
                assert key <= value + 1e-9 * max(1.0, abs(value)), sorted(fixes.items())
                counts[parent.shipment_only, "key"] += 1
    return counts


@pytest.fixture(scope="session")
def bench1() -> IfctpInstance:
    return bench1_instance()


@pytest.fixture(scope="session")
def bench1_path() -> pathlib.Path:
    return PROBLEMS_DIR / "safi_razmjoo_1.txt"


OracleCheckJob = collections.namedtuple("OracleCheckJob", "code out err calls")


@pytest.fixture(scope="session")
def oracle_check_job(bench1_path) -> OracleCheckJob:
    """The oracle-check job on the shipped instance, run once per session under
    record_solves: exit code, stdout, stderr and its stage solves.  The tests of
    its bytes and of its answers share this run, so tier-1 enumerates the
    shipped instance's five stage models once."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code, calls = record_solves(pytest.MonkeyPatch(),
                                    lambda: ifctp.cli.main(["oracle-check", str(bench1_path)]))
    return OracleCheckJob(code, out.getvalue(), err.getvalue(), calls)


@pytest.fixture(scope="session")
def reference_plan() -> ShipmentPlan:
    """The benchmark's published compromise plan (quantities rounded to 2 decimals)."""
    return ShipmentPlan([[20, 0, 13, 0], [0, 4.95, 0, 20], [0, 14.04, 10, 0]])
