"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the measured runtimes.
"""

import random
import time

from _random_instances import random_instance
from _reference import (BEST_LOWER, BEST_WIDTH, COMPETITOR_1,
                        COMPETITOR_1_DISTANCE, COMPETITOR_2_DISTANCE,
                        COMPETITOR_2_POINT, IDEAL_2, IDEAL_CENTER, IDEAL_WIDTH,
                        PAYOFF_OVERRIDE, PROPOSED_2, PROPOSED_2_DISTANCE,
                        PUBLISHED_CENTER, PUBLISHED_DISTANCE, PUBLISHED_WIDTH,
                        PUBLISHED_Z_LOWER, PUBLISHED_Z_UPPER, WORST_LOWER,
                        WORST_WIDTH)
from conftest import zero_width_bench1

from ifctp import (CenterWidth, CompetitorEntry, Interval, ShipmentPlan, Stages,
                   distance_to_ideal, run_oracle_check, run_pipeline)
from ifctp.cli import main as cli_main
from ifctp.compromise import membership
from ifctp.crisp import build_bi_objective, evaluate_interval_objective, plan_value, to_milp
from ifctp.milp import solve_milp


def _criterion(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num} ({label}): {detail}")
    assert ok, f"criterion {num} ({label}): {detail}"


def _near(value, target, abs_tol):
    return abs(value - target) <= abs_tol


def test_criterion_1_ideal_point(bench1):
    start = time.perf_counter()
    ideal = Stages(bench1).ideal()
    elapsed = time.perf_counter() - start
    ok = (_near(ideal.center, IDEAL_CENTER, 1e-6 * IDEAL_CENTER)
          and _near(ideal.width, IDEAL_WIDTH, 1e-6 * IDEAL_WIDTH)
          and elapsed < 1.0)
    _criterion(1, "ideal point", ok,
               f"<{ideal.center:.6f}, {ideal.width:.6f}> in {elapsed:.3f}s")


def test_criterion_2_payoff_reproduction(bench1, bench1_path, capsys):
    start = time.perf_counter()
    payoff = Stages(bench1).payoff()
    elapsed = time.perf_counter() - start
    ok = (_near(payoff.best[0], BEST_LOWER, 1e-6 * BEST_LOWER)
          and _near(payoff.best[1], BEST_WIDTH, 1e-6 * BEST_WIDTH)
          and _near(payoff.worst[0], WORST_LOWER, 2.0)
          and _near(payoff.worst[1], WORST_WIDTH, 2.0)
          and elapsed < 1.0)

    code = cli_main(["solve", str(bench1_path), "--report", "machine",
                     "--override-payoff",
                     f"{BEST_LOWER},{WORST_LOWER},{BEST_WIDTH},{WORST_WIDTH}"])
    record = dict(line.split("=", 1)
                  for line in capsys.readouterr().out.strip().splitlines())
    ok = (ok and code == 0
          and float(record["payoff.lower.best"]) == BEST_LOWER
          and float(record["payoff.lower.worst"]) == WORST_LOWER
          and float(record["payoff.width.best"]) == BEST_WIDTH
          and float(record["payoff.width.worst"]) == WORST_WIDTH)
    with capsys.disabled():
        _criterion(2, "payoff reproduction", ok,
                   f"L=({payoff.best[0]:.2f}, {payoff.best[1]:.2f}) "
                   f"U=({payoff.worst[0]:.2f}, {payoff.worst[1]:.2f}) "
                   f"override honored, computed in {elapsed:.3f}s")


def test_criterion_3_compromise_solution(bench1):
    start = time.perf_counter()
    _, result = Stages(bench1).compromise(PAYOFF_OVERRIDE)
    elapsed = time.perf_counter() - start
    z_lower, z_width = result.objective_values
    z_upper = z_lower + 2 * z_width
    ok = (_near(z_lower, PUBLISHED_Z_LOWER, 1.0)
          and _near(z_width, PUBLISHED_WIDTH, 0.5)
          and _near(z_upper, PUBLISHED_Z_UPPER, 2.0)
          and _near(result.lambda_star, 0.776, 0.005)
          and elapsed < 5.0)
    _criterion(3, "compromise solution", ok,
               f"level={result.lambda_star:.4f} z=[{z_lower:.2f}, {z_upper:.2f}] "
               f"width={z_width:.2f} in {elapsed:.3f}s")


def test_criterion_4_distance_metric():
    checks = [
        (CenterWidth(PUBLISHED_CENTER, PUBLISHED_WIDTH),
         CenterWidth(IDEAL_CENTER, IDEAL_WIDTH), PUBLISHED_DISTANCE),
        (CenterWidth(*PROPOSED_2), CenterWidth(*IDEAL_2), PROPOSED_2_DISTANCE),
        (Interval(*COMPETITOR_1).as_center_width(),
         CenterWidth(IDEAL_CENTER, IDEAL_WIDTH), COMPETITOR_1_DISTANCE),
        (CenterWidth(*COMPETITOR_2_POINT), CenterWidth(*IDEAL_2),
         COMPETITOR_2_DISTANCE),
    ]
    values = [distance_to_ideal(point, ideal) for point, ideal, _ in checks]
    ok = all(_near(value, expected, 0.01)
             for value, (_, _, expected) in zip(values, checks))
    _criterion(4, "distance metric", ok,
               "distances " + ", ".join(f"{v:.4f}" for v in values))


def test_criterion_5_end_to_end_distance(bench1):
    start = time.perf_counter()
    report = run_pipeline(
        bench1,
        payoff_override=PAYOFF_OVERRIDE,
        competitor=CompetitorEntry("safi-razmjoo", Interval(*COMPETITOR_1)))
    elapsed = time.perf_counter() - start
    ok = (report.status == "optimal"
          and _near(report.distance, PUBLISHED_DISTANCE, 0.25)
          and report.distance < report.competitor_distance
          and _near(report.competitor_distance, COMPETITOR_1_DISTANCE, 0.01)
          and elapsed < 5.0)
    _criterion(5, "end-to-end distance", ok,
               f"d={report.distance:.4f} vs competitor {report.competitor_distance:.2f} "
               f"in {elapsed:.3f}s")


def test_criterion_6_oracle_equivalence():
    rng = random.Random(20260809)
    start = time.perf_counter()
    failures = []
    for index in range(100):
        instance = random_instance(rng)
        check = run_oracle_check(instance)
        if not check.passed:
            failures.append(index)
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 120.0
    _criterion(6, "oracle equivalence", ok,
               f"100 instances, failures={failures or 'none'}, {elapsed:.1f}s")


def test_criterion_7_algebraic_invariants(bench1):
    start = time.perf_counter()
    rng = random.Random(77)
    bad = []

    def rint():
        a, b = sorted((rng.uniform(-1000, 1000), rng.uniform(-1000, 1000)))
        return Interval(a, b)

    def close(a, b, rel=1e-12):
        return abs(a - b) <= rel * max(1.0, abs(a), abs(b))

    for _ in range(1000):  # interval arithmetic laws
        a, b, c = rint(), rint(), rint()
        gamma = rng.uniform(-9, 9)
        if a + b != b + a:
            bad.append("commutativity")
        assoc_l, assoc_r = (a + b) + c, a + (b + c)
        if not (close(assoc_l.lo, assoc_r.lo) and close(assoc_l.hi, assoc_r.hi)):
            bad.append("associativity")
        scaled = a.scale(gamma).scale(0.5)
        direct = a.scale(0.5 * gamma)
        if not (close(scaled.lo, direct.lo) and close(scaled.hi, direct.hi)):
            bad.append("scale composition")

    for _ in range(1000):  # center/width round-trips
        iv = rint()
        back = iv.as_center_width().as_interval()
        if not (close(back.lo, iv.lo) and close(back.hi, iv.hi)):
            bad.append("round trip")

    instances = [random_instance(rng) for _ in range(20)]
    bis = [build_bi_objective(inst) for inst in instances]
    for _ in range(1000):  # z_upper identity at arbitrary plans
        pick = rng.randrange(len(instances))
        inst, bi = instances[pick], bis[pick]
        y = [[rng.uniform(0, 20) if rng.random() < 0.6 else 0.0
              for _ in range(inst.n)] for _ in range(inst.m)]
        plan = ShipmentPlan(y)
        z = evaluate_interval_objective(inst, plan)
        if not close(plan_value(bi.obj_lower, plan) + 2 * plan_value(bi.obj_width, plan),
                     z.hi, rel=1e-9):
            bad.append("upper endpoint identity")

    for _ in range(1000):  # membership clipping
        best = rng.uniform(-100, 100)
        worst = best + rng.uniform(0, 200)
        mu = membership(rng.uniform(-300, 300), best, worst)
        if not 0.0 <= mu <= 1.0:
            bad.append("membership range")

    for _ in range(15):  # max-min level equals the smallest membership
        _, result = Stages(random_instance(rng)).compromise()
        if not (0.0 <= result.lambda_star <= 1.0
                and abs(result.lambda_star - min(result.memberships)) <= 1e-6):
            bad.append("level vs membership")
    _, result = Stages(bench1).compromise()
    if abs(result.lambda_star - min(result.memberships)) > 1e-6:
        bad.append("level vs membership (benchmark)")

    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 10.0
    _criterion(7, "algebraic invariants", ok,
               f"violations={sorted(set(bad)) or 'none'}, {elapsed:.1f}s")


def test_criterion_8_crisp_degeneration():
    instance = zero_width_bench1()
    _, result = Stages(instance).compromise()
    z_lower, z_width = result.objective_values
    bi = build_bi_objective(instance)
    direct = solve_milp(to_milp(bi, bi.obj_center))
    ok = (abs(z_width) <= 1e-9
          and result.memberships[1] == 1.0
          and abs(result.lambda_star - result.memberships[0]) <= 1e-6
          and abs(z_lower - direct.objective_value)
          <= 1e-6 * max(1.0, abs(direct.objective_value)))
    _criterion(8, "crisp degeneration", ok,
               f"width={z_width:.2e}, compromise {z_lower:.2f} "
               f"vs direct crisp optimum {direct.objective_value:.2f}")
