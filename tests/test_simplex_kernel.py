"""The simplex kernel's rare paths, its pivot counts, and one solve per model."""

import random

import numpy as np
import pytest

from _reference import PAYOFF_OVERRIDE

import ifctp.cli
import ifctp.compromise
import ifctp.milp
import ifctp.pipeline
from ifctp import (DegeneratePivotError, MilpModel, PayoffTable,
                   build_bi_objective, build_max_min_model, oracle_solve, run_pipeline,
                   solve_lp, solve_milp, to_milp)

# Row senses as MilpModel and the kernel number them.
_SENSE = {"<=": 1, ">=": -1, "=": 0}


def _textbook_standard_lp(c, A, relations, b, degenerate_limit):
    """Full-tableau two-phase simplex, loop by loop, with artificial columns.

    The reference the kernel must match bit for bit: same pivot choices, same
    floating-point operations on every entry the kernel keeps.  Returns
    (status, x, pivots).
    """
    tol = ifctp.milp.PIVOT_TOL
    pivots = 0

    def pivot(T, basis, r, j):
        nonlocal pivots
        pivots += 1
        T[r, :] /= T[r, j]
        col = T[:, j].copy()
        col[r] = 0.0
        T -= np.outer(col, T[r, :])
        basis[r] = j

    def run(T, basis, n_enterable):
        m = len(basis)
        bland, degenerate_run = False, 0
        while True:
            costs = T[-1, :n_enterable]
            candidates = np.flatnonzero(costs < -tol)
            if candidates.size == 0:
                return "optimal"
            j = int(candidates[0]) if bland else int(candidates[np.argmin(costs[candidates])])
            col = T[:m, j]
            eligible = col > tol
            if not eligible.any():
                return "unbounded"
            ratios = np.full(m, np.inf)
            ratios[eligible] = T[:m, -1][eligible] / col[eligible]
            r = int(np.argmin(ratios))
            if bland:
                tied = np.flatnonzero(ratios <= ratios[r] + 1e-12)
                r = int(tied[np.argmin(basis[tied])])
            if T[r, -1] <= tol:
                degenerate_run += 1
                bland = bland or degenerate_run > degenerate_limit
            else:
                degenerate_run = 0
            pivot(T, basis, r, j)

    m, n = A.shape
    A, b, relations = A.copy(), b.copy(), list(relations)
    for i in range(m):
        if b[i] < 0:
            A[i], b[i] = -A[i], -b[i]
            relations[i] = {"<=": ">=", ">=": "<=", "=": "="}[relations[i]]
    slacks = [(i, 1.0 if rel == "<=" else -1.0) for i, rel in enumerate(relations) if rel != "="]
    arts = [i for i, rel in enumerate(relations) if rel != "<="]
    n_real = n + len(slacks)
    T = np.zeros((m + 1, n_real + len(arts) + 1))
    T[:m, :n], T[:m, -1] = A, b
    basis = np.full(m, -1)
    for k, (i, sign) in enumerate(slacks):
        T[i, n + k] = sign
        if sign > 0:
            basis[i] = n + k
    for k, i in enumerate(arts):
        T[i, n_real + k] = 1.0
        basis[i] = n_real + k
    if arts:
        T[-1, n_real:n_real + len(arts)] = 1.0
        for r in range(m):
            if basis[r] >= n_real:
                T[-1, :] -= T[r, :]
        run(T, basis, n_real)
        if -T[-1, -1] > ifctp.milp.LP_FEAS_TOL:
            return "infeasible", None, pivots
        keep = np.ones(m, dtype=bool)
        for r in range(m):
            if basis[r] >= n_real:
                options = np.flatnonzero(np.abs(T[r, :n_real]) > tol)
                if options.size:
                    pivot(T, basis, r, int(options[0]))
                else:
                    keep[r] = False
        T = np.vstack([T[:m][keep], T[m:]])
        basis = basis[keep]
        m = len(basis)
        T = np.delete(T, np.s_[n_real:n_real + len(arts)], axis=1)
    T[-1, :] = 0.0
    T[-1, :n] = c
    for r in range(m):
        cj = T[-1, basis[r]]
        if cj != 0.0:
            T[-1, :] -= cj * T[r, :]
    if run(T, basis, n_real) == "unbounded":
        return "unbounded", None, pivots
    x = np.zeros(n)
    for r in range(m):
        if basis[r] < n:
            x[basis[r]] = T[r, -1]
    return "optimal", x, pivots


def _random_lp(rng):
    """Small LP with mixed senses, negative right-hand sides and ties."""
    m, n = rng.randint(1, 9), rng.randint(1, 8)
    A = np.array([[rng.choice((0.0, 0.0, 1.0, -1.0, 2.0, rng.uniform(-3, 3)))
                   for _ in range(n)] for _ in range(m)])
    b = np.array([rng.choice((0.0, 1.0, rng.uniform(-5, 10))) for _ in range(m)])
    relations = [rng.choice(("<=", "<=", ">=", "=")) for _ in range(m)]
    c = np.array([rng.choice((0.0, 1.0, -1.0, rng.uniform(-2, 2))) for _ in range(n)])
    return c, A, relations, b


def _bench1_models(bench1):
    """The ideal, anchor and max-min models of the benchmark, by name."""
    bi = build_bi_objective(bench1)
    l1, u1, l2, u2 = PAYOFF_OVERRIDE
    return {
        "ideal-center": to_milp(bi, bi.obj_center),
        "ideal-width": to_milp(bi, bi.obj_width),
        "anchor-lower": to_milp(bi, bi.obj_lower),
        "max-min": build_max_min_model(bi, PayoffTable((l1, l2), (u1, u2))),
    }


class TestBlandFallback:
    def test_bland_rule_reaches_the_same_optima(self, bench1, monkeypatch):
        models = _bench1_models(bench1)
        default = {name: solve_milp(model) for name, model in models.items()}
        oracle = {name: oracle_solve(model) for name, model in models.items()}
        # Bland's rule takes over at the first degenerate pivot.
        monkeypatch.setattr(ifctp.milp, "DEGENERATE_LIMIT", 0)
        bland = {name: solve_milp(model) for name, model in models.items()}
        for name in models:
            assert bland[name].status == "optimal", name
            assert bland[name].objective_value == pytest.approx(
                default[name].objective_value, rel=1e-9), name
            assert bland[name].objective_value == pytest.approx(
                oracle[name].objective_value, rel=1e-9), name
        # The fallback really ran: it pivots differently from Dantzig's rule.
        assert any(bland[name].pivots != default[name].pivots for name in models)


class TestTextbookReference:
    @pytest.mark.parametrize("degenerate_limit", [ifctp.milp.DEGENERATE_LIMIT, 0])
    def test_kernel_matches_full_tableau_bit_for_bit(self, monkeypatch, degenerate_limit):
        monkeypatch.setattr(ifctp.milp, "DEGENERATE_LIMIT", degenerate_limit)
        rng = random.Random(20240917)
        statuses = set()
        for _ in range(400):
            c, A, relations, b = _random_lp(rng)
            senses = np.array([_SENSE[rel] for rel in relations])
            status, x, pivots = ifctp.milp._simplex(c, A, senses, b)
            ref_status, ref_x, ref_pivots = _textbook_standard_lp(c, A, relations, b,
                                                                  degenerate_limit)
            assert (status, pivots) == (ref_status, ref_pivots)
            if status == "optimal":
                assert x.tobytes() == ref_x.tobytes()
            statuses.add(status)
        assert statuses == {"optimal", "infeasible", "unbounded"}


class TestBreakdowns:
    def test_sub_tolerance_entering_column(self):
        # x must enter (reduced cost -1) but its only entry, 1e-10, lies
        # between the zero threshold and PIVOT_TOL.  The cold kernel sees the
        # model unscaled; the warm one would scale the entry to 1.
        assert 1e-12 < 1e-10 <= ifctp.milp.PIVOT_TOL
        with pytest.raises(DegeneratePivotError, match="sub-tolerance"):
            ifctp.milp._simplex(np.array([-1.0]), np.array([[1e-10]]), np.array([1]),
                                np.array([1.0]))

    def test_singular_starting_basis(self):
        # The second row is twice the first, so the basis of both structurals is singular.
        model = MilpModel([1.0, 1.0], [[1.0, 1.0], [2.0, 2.0]], [1, 1], [1.0, 2.0],
                          [0.0] * 2, [np.inf] * 2, [])
        form = ifctp.milp._bounded_form(model)
        start = np.array([0, 1]), np.zeros(4, dtype=bool)
        with pytest.raises(DegeneratePivotError, match="singular"):
            ifctp.milp._dual_simplex(form, form[3], form[4], start)

    def test_sub_tolerance_leaving_row(self):
        # The "=" row's slack starts at 1 and must leave, but the row's only
        # movable entry, 1e-10, lies between the zero threshold and PIVOT_TOL.
        form = np.array([[1e-10, 1.0]]), np.array([1.0]), np.zeros(2)
        with pytest.raises(DegeneratePivotError, match="sub-tolerance"):
            ifctp.milp._dual_simplex(form, np.zeros(2), np.array([np.inf, 0.0]))

    def test_iteration_cap(self, bench1, monkeypatch):
        monkeypatch.setattr(ifctp.milp, "ITERATION_CAP", 1)
        with pytest.raises(DegeneratePivotError, match="iteration cap"):
            bi = build_bi_objective(bench1)
            solve_lp(to_milp(bi, bi.obj_center))


class TestPivotCounts:
    def test_counts_repeat_exactly(self, bench1):
        for name, model in _bench1_models(bench1).items():
            first, second = solve_milp(model), solve_milp(model)
            assert first.pivots > 0, name
            assert (first.nodes, first.pivots) == (second.nodes, second.pivots), name
            assert solve_lp(model).pivots == solve_lp(model).pivots > 0, name

    def test_oracle_counts_pivots(self, bench1):
        bi = build_bi_objective(bench1)
        model = to_milp(bi, bi.obj_width)
        first, second = oracle_solve(model), oracle_solve(model)
        assert first.pivots == second.pivots > 0

    def test_root_node_pivots_match_solve_lp(self):
        model = MilpModel([1.0, 1.0], [[1.0, 1.0]], [-1], [3.0], [0.0] * 2, [np.inf] * 2, [])
        assert solve_milp(model).pivots == solve_lp(model).pivots > 0


class TestOneSolvePerModel:
    def test_pipeline_solves_each_distinct_model_once(self, bench1, monkeypatch):
        solved = []

        def recording_solve(model, *args, **kwargs):
            solved.append(tuple(getattr(model, name).tobytes()
                                for name in ("c", "A", "senses", "b", "lo", "hi", "binaries")))
            return solve_milp(model, *args, **kwargs)

        monkeypatch.setattr(ifctp.pipeline, "solve_milp", recording_solve)
        monkeypatch.setattr(ifctp.compromise, "solve_milp", recording_solve)
        report = run_pipeline(bench1)
        assert report.status == "optimal"
        # ideal center, shared width, lower anchor, max-min, refinement
        assert len(solved) == 5
        assert len(set(solved)) == len(solved)

    @pytest.mark.parametrize("args, solves", [
        (["solve", "--report", "machine"], 5),
        (["compare", "--override-payoff", "640,787,163,190",
          "--competitor", "safi-razmjoo=[640,1020]"], 4),
        (["payoff"], 2),
        (["ideal"], 2),
        (["oracle-check"], 5),
    ], ids=["solve", "compare", "payoff", "ideal", "oracle-check"])
    def test_each_job_solves_each_distinct_model_once(self, bench1_path, capsys, monkeypatch,
                                                      args, solves):
        solved = []

        def recording_solve(model, *a, **kw):
            solved.append(tuple(getattr(model, name).tobytes()
                                for name in ("c", "A", "senses", "b", "lo", "hi", "binaries")))
            return solve_milp(model, *a, **kw)

        for module in (ifctp.cli, ifctp.pipeline, ifctp.compromise):
            if hasattr(module, "solve_milp"):
                monkeypatch.setattr(module, "solve_milp", recording_solve)
        assert ifctp.cli.main([args[0], str(bench1_path), *args[1:]]) == 0
        assert len(solved) == solves
        assert len(set(solved)) == solves
