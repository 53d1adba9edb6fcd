"""The simplex kernel's rare paths, its pivot counts and its shared factorisations."""

import os
import random
import subprocess
import sys

import numpy as np
import pytest

from _random_instances import draws, random_instance
from _textbook_lp import textbook_relaxation
from conftest import record_lps, record_searches, stage_models

import ifctp.milp
import workloads
from ifctp import DegeneratePivotError, MilpModel, run_pipeline
from ifctp.crisp import build_bi_objective, link_rows, to_milp
from ifctp.milp import constraint_part, oracle_solve, solve_lp, solve_milp


def _random_lp(rng):
    """Small LP with mixed senses, negative right-hand sides and ties."""
    m, n = rng.randint(1, 9), rng.randint(1, 8)
    A = np.array([[rng.choice((0.0, 0.0, 1.0, -1.0, 2.0, rng.uniform(-3, 3)))
                   for _ in range(n)] for _ in range(m)])
    b = np.array([rng.choice((0.0, 1.0, rng.uniform(-5, 10))) for _ in range(m)])
    relations = [rng.choice(("<=", "<=", ">=", "=")) for _ in range(m)]
    c = np.array([rng.choice((0.0, 1.0, -1.0, rng.uniform(-2, 2))) for _ in range(n)])
    return c, A, relations, b


class TestBlandFallback:
    def test_bland_rule_reaches_the_same_optima(self, bench1, monkeypatch):
        # A run's answers meet the oracle bit for bit (test_warm_start.py's
        # test_paper_stage_answers_are_the_oracle_lp_bit_for_bit).
        models = stage_models(bench1)
        default = {name: solve_milp(model) for name, model in models.items()}
        # Bland's rule takes over at the first degenerate pivot.
        monkeypatch.setattr(ifctp.milp, "DEGENERATE_LIMIT", 0)
        bland = {name: solve_milp(model) for name, model in models.items()}
        for name in models:
            assert bland[name].status == "optimal", name
            assert bland[name].objective_value == pytest.approx(
                default[name].objective_value, rel=1e-9), name
        # The fallback really ran: it pivots differently from Dantzig's rule.
        assert any(bland[name].pivots != default[name].pivots for name in models)


class TestRandomLpsAgainstTextbook:
    @pytest.mark.parametrize("degenerate_limit", [ifctp.milp.DEGENERATE_LIMIT, 0])
    def test_status_and_optimum_match(self, monkeypatch, degenerate_limit):
        # The bounded dual simplex against the textbook primal simplex, with
        # every variable boxed in [0, 10] (upper bounds as rows there): same
        # status, and the same optimum within 1e-9 relative.
        monkeypatch.setattr(ifctp.milp, "DEGENERATE_LIMIT", degenerate_limit)
        rng = random.Random(20240917)
        statuses = set()
        negative_cost_at_upper = False
        for _ in range(400):
            c, A, relations, b = _random_lp(rng)
            senses = [{"<=": 1, ">=": -1, "=": 0}[rel] for rel in relations]
            model = MilpModel(c, A, senses, b, [0.0] * c.size, [10.0] * c.size, [])
            ours = solve_lp(model)
            status, value, _ = textbook_relaxation(model, {})
            assert ours.status == status
            if status == "optimal":
                assert abs(ours.objective_value - value) <= 1e-9 * max(1.0, abs(value))
                x = np.array(ours.assignment)
                negative_cost_at_upper |= bool(((c < 0) & (x == 10.0)).any())
            statuses.add(status)
        assert statuses == {"optimal", "infeasible"}
        assert negative_cost_at_upper


class TestBreakdowns:
    def test_sub_tolerance_leaving_row(self):
        # The "=" row's slack starts at 1 and must leave, but the row's only
        # movable entry, 1e-10, lies between the zero threshold and PIVOT_TOL.
        form = np.array([[1e-10, 1.0]]), np.array([1.0]), np.zeros(2)
        # The slack start as _form builds it: one structural, one row.
        identity = np.eye(1)
        slack = ifctp.milp._Start(np.arange(1, 2), np.zeros(2) < 0.0, identity, identity,
                                  refined=True)
        with pytest.raises(DegeneratePivotError, match="sub-tolerance"):
            ifctp.milp._dual_simplex(form, np.zeros(2), np.array([np.inf, 0.0]), slack)

    def test_iteration_cap(self, bench1, monkeypatch):
        monkeypatch.setattr(ifctp.milp, "ITERATION_CAP", 1)
        with pytest.raises(DegeneratePivotError, match="iteration cap"):
            bi = build_bi_objective(bench1)
            solve_lp(to_milp(bi, bi.obj_center))


class TestValuesOnBounds:
    def test_closed_routes_ship_exactly_zero(self):
        # The 28th draw of random_instance(random.Random(1000)): its
        # compromise plan closes route 1 -> 4, whose shipment ends basic
        # at a round-off residue; within BOUND_TOL of its bound, it is put on it.
        plan = run_pipeline(draws(1000, 28)[-1]).plan
        closed = [y for xs, ys in zip(plan.x, plan.y) for x, y in zip(xs, ys) if x == 0]
        assert closed and all(y == 0.0 for y in closed)


def _openblas_on_two_cpus():
    """Whether OPENBLAS_NUM_THREADS=2 gives numpy's BLAS two threads: it is OpenBLAS,
    which honours that variable, and this process may run on two CPUs or more, since
    OpenBLAS uses no more threads than that."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
        cpus = len(os.sched_getaffinity(0))
    except (AttributeError, KeyError, TypeError):  # numpy before 1.26, or no affinity call
        return False
    return "openblas" in blas.lower() and cpus >= 2


def _openblas_kernels_forcible():
    """Whether OPENBLAS_CORETYPE can put numpy's BLAS on its Haswell and Sandybridge
    kernels: it is an OpenBLAS DYNAMIC_ARCH build, and this CPU has the AVX2 and FMA
    instructions that the Haswell kernel uses."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        features = np._core._multiarray_umath.__cpu_features__
    except (AttributeError, KeyError, TypeError):  # numpy before 2.0
        return False
    return ("DYNAMIC_ARCH" in blas.get("openblas configuration", "")
            and features.get("AVX2", False) and features.get("FMA3", False))


class TestPivotCounts:
    def test_counts_repeat_exactly(self, bench1):
        for name, model in stage_models(bench1).items():
            first, second = solve_milp(model), solve_milp(model)
            assert first.pivots > 0, name
            assert (first.nodes, first.pivots) == (second.nodes, second.pivots), name
            assert solve_lp(model).pivots == solve_lp(model).pivots > 0, name

    def test_oracle_counts_pivots(self):
        model = _oracle_width_model()
        first, second = oracle_solve(model), oracle_solve(model)
        assert first.pivots == second.pivots > 0

    def test_root_node_pivots_match_solve_lp(self):
        model = MilpModel([1.0, 1.0], [[1.0, 1.0]], [-1], [3.0], [0.0] * 2, [10.0] * 2, [])
        assert solve_milp(model).pivots == solve_lp(model).pivots > 0

    @pytest.mark.skipif(not _openblas_on_two_cpus(),
                        reason="needs numpy on OpenBLAS and two CPUs this process may use")
    def test_counts_do_not_depend_on_the_blas_thread_count(self):
        # 1353 nodes and 9303 pivots at one thread and at two.  The runs take
        # turns, so the two-thread one has both CPUs.
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        outputs = [subprocess.run([sys.executable, "-c", _MAX_MIN_8X10], stdout=subprocess.PIPE,
                                  text=True, check=True, timeout=300,
                                  env=dict(env, OPENBLAS_NUM_THREADS=threads)).stdout
                   for threads in ("1", "2")]
        assert outputs[0] == outputs[1]

    @pytest.mark.skipif(not _openblas_kernels_forcible(),
                        reason="needs numpy on an OpenBLAS DYNAMIC_ARCH build and an AVX2 CPU")
    def test_answers_do_not_depend_on_the_blas_kernel(self):
        # The seed-1 ladder golden text, reports, nodes and pivots, and a sample
        # of the 676 report digests (_LADDER_AND_DIGESTS), under OpenBLAS's own
        # choice of kernel at one thread and under two forced kernels at two.
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        env.pop("OPENBLAS_CORETYPE", None)
        outputs = [subprocess.run([sys.executable, "-c", _LADDER_AND_DIGESTS],
                                  stdout=subprocess.PIPE, text=True, check=True, timeout=300,
                                  env=dict(env, **forced)).stdout
                   for forced in (dict(OPENBLAS_NUM_THREADS="1"),
                                  dict(OPENBLAS_CORETYPE="Haswell", OPENBLAS_NUM_THREADS="2"),
                                  dict(OPENBLAS_CORETYPE="Sandybridge", OPENBLAS_NUM_THREADS="2"))]
        assert outputs[1] == outputs[0]
        assert outputs[2] == outputs[0]


# Prints the nodes, pivots and answer bits of 8x10-0's max-min solve, at its
# computed payoff table, so that no anchor is solved.
_MAX_MIN_8X10 = """
import random
import numpy as np
import workloads
from ifctp import PayoffTable
from ifctp.compromise import build_max_min_model
from ifctp.crisp import build_bi_objective, to_milp
from ifctp.milp import solve_milp
bi = build_bi_objective(workloads.generate(random.Random("ladder-bb:8x10:0"), 8, 10))
payoff = PayoffTable((1162.0, 100.0), (2857.0, 311.0))
s = solve_milp(build_max_min_model(bi, payoff, to_milp(bi, bi.obj_center)))
print(s.nodes, s.pivots, s.objective_value.hex(), np.array(s.assignment).tobytes().hex())
"""


# Prints the seed-1 ladder golden text, then the digests of the ladder's
# reports at relabel seed 4, of every eighth draw and of r406.  While the
# kernel's products ran in BLAS, s4:4x6-0, s4:4x6-1 and r406 changed with
# the BLAS kernel.
_LADDER_AND_DIGESTS = """
import hashlib
from ifctp import run_pipeline
from ifctp.reporting import render_machine
from test_ladder_golden import ladder_golden
from test_report_digests import _instances
print(ladder_golden(), end="")
for key, instance in _instances():
    if key.startswith("s4:") or key == "r406" or key[0] == "r" and int(key[1:]) % 8 == 0:
        print(key, hashlib.sha256(render_machine(run_pipeline(instance)).encode()).hexdigest())
"""


def _draws_of_at_least_2x3(seed, count=3):
    """The first count random_instance draws of random.Random(seed) with 2+ rows, 3+ columns."""
    rng = random.Random(seed)
    draws = []
    while len(draws) < count:
        instance = random_instance(rng)
        if instance.m >= 2 and instance.n >= 3:
            draws.append(instance)
    return draws


def _oracle_width_model():
    """The width model of the first 2x3 draw of _draws_of_at_least_2x3(3141): 64 patterns."""
    bi = build_bi_objective(_draws_of_at_least_2x3(3141, count=1)[0])
    return to_milp(bi, bi.obj_width)


class TestSlackStartShortcut:
    """A slack start's inverse is the identity, so _Start.tableau and _Start.solve take no
    product: its tableau is M + 0.0 and its basic values (b - M v) + 0.0.  These are the
    bytes that np.einsum with I gives, since einsum sums from +0 and so turns -0.0 into
    +0.0 too."""

    def test_slack_start_matches_the_identity_products(self, bench1):
        forms = []
        for instance in [bench1, *workloads.instances("ladder-bb", 1).values()]:
            models, rows = stage_models(instance), link_rows(build_bi_objective(instance))
            forms += [ifctp.milp._form(model, constraint_part(model))
                      for model in models.values()]
            forms += [ifctp.milp._form(models[name], constraint_part(models[name], rows))
                      for name in ("lower", "center", "width")]
        # Signed zeros in A and b, which the stage models do not have.
        signed = MilpModel([1.0, 1.0], [[-0.0, 1.0], [1.0, 1.0]], [1, -1], [-0.0, 1.0],
                           [0.0] * 2, [1.0] * 2, [])
        forms.append(ifctp.milp._form(signed, constraint_part(signed)))
        negative_zeros = 0
        for form in forms:
            M, b, slack = form.M, form.b, form.slack
            identity = np.eye(b.size)
            T = slack.tableau(M, form.c)
            assert T[:b.size].tobytes() == np.einsum("ij,jk->ik", identity, M).tobytes()
            v = np.where(slack.at_upper, form.hi, form.lo)
            v[slack.basis] = 0.0
            r = b - np.einsum("ij,j->i", M, v)
            assert slack.solve(r.copy()).tobytes() == np.einsum("ij,j->i", identity, r).tobytes()
            negative_zeros += np.signbit(M[M == 0.0]).sum() + np.signbit(r[r == 0.0]).sum()
        assert len(forms) == 20 * 8 + 1 and negative_zeros > 0


class TestSharedFactorisation:
    """Each start's basis inverse is refined at most once, by the first LP solved from
    it, and shared: by a node's two children, and by the LPs of one solve that start
    from the slack basis, whose inverse is the identity and never refined.  Every
    refined inverse X of a basis B meets max |I - B X| <= RESIDUAL, and a start built
    anew from the same inverse gives the same bits (the LPs from conftest.record_lps)."""

    # 16 ulps of 1.  On these models the refined inverses reach 1.8e-15, the
    # tableau blocks they are refined from 1.1e-14.
    RESIDUAL = 16 * np.finfo(float).eps

    @classmethod
    def _assert_refined_once(cls, calls):
        """Each start is refined by its first LP, if at all, never again, and then meets
        RESIDUAL; the LPs from a start built anew from that first inverse give the same
        bits.  Returns the number of starts refined."""
        first = {}  # id of each start: the inverse and refined flag its first LP found
        for (form, lo, hi, start), (inverse, refined), outcome in calls:
            if id(start) not in first:
                first[id(start)] = inverse, refined
                assert refined or inverse is not start.inverse  # refined here, into a new array
            else:
                assert refined and inverse is start.inverse  # and only here
            fresh = ifctp.milp._Start(start.basis, start.at_upper, first[id(start)][0],
                                      start.identity, first[id(start)][1])
            status, v, pivots, state = ifctp.milp._dual_simplex(form, lo, hi, fresh)
            assert (status, None if v is None else v.tobytes(), pivots,
                    None if state is None else state[0].tobytes()) == outcome
        refined = {id(start): (form[0], start)
                   for (form, _, _, start), _, _ in calls if not first[id(start)][1]}
        for M, start in refined.values():
            residual = np.eye(start.basis.size) - np.einsum("ij,jk->ik", M[:, start.basis],
                                                             start.inverse)
            assert np.abs(residual).max() <= cls.RESIDUAL
        return len(refined)

    def test_search_lps_match_a_fresh_factorisation(self, bench1, monkeypatch):
        slacks = []
        calls = [call for instance in [bench1, *_draws_of_at_least_2x3(3141)]
                 for call in record_lps(monkeypatch, lambda: stage_models(instance), slacks)[1]]
        assert self._assert_refined_once(calls) > 0
        # The slack start's inverse is the identity, refined from the start.
        assert all(slack.refined and (slack.inverse == np.eye(slack.basis.size)).all()
                   for slack in slacks)
        # Both kinds of sharing happened: a sibling's start and the slack start.
        reused = [start for (_, _, _, start), (_, refined), _ in calls if refined]
        assert any(any(start is slack for slack in slacks) for start in reused)
        assert any(all(start is not slack for slack in slacks) for start in reused)

    def test_oracle_patterns_match_a_fresh_factorisation(self, monkeypatch):
        model = _oracle_width_model()
        slacks = []
        _, calls = record_lps(monkeypatch, lambda: oracle_solve(model), slacks)
        assert len(calls) >= 2 ** model.binaries.size
        assert self._assert_refined_once(calls) == 0
        assert all(start is slacks[0] for (_, _, _, start), _, _ in calls)

    @pytest.mark.parametrize("draw", [None, 0, 1, 2], ids=["shipped", "draw0", "draw1", "draw2"])
    def test_one_inverse_per_start_basis(self, bench1, monkeypatch, draw):
        instance = bench1 if draw is None else _draws_of_at_least_2x3(3141)[draw]
        for model in stage_models(instance).values():
            (solution, lps, _), calls = record_lps(
                monkeypatch, lambda: record_searches(monkeypatch, lambda: solve_milp(model)))
            assert solution.status == "optimal"
            # The root first, the answer's pattern LP last; a child adds one fix to
            # its parent's, so the parents of the children solved are told by their fixes.
            children = [list(lp.fixes.items()) for lp in lps[1:-1]]
            branched = {tuple(fixes[:-1]) for fixes in children}
            # A child that fails warm runs once more from the slack start, never refined.
            assert self._assert_refined_once(calls) == len(branched)
