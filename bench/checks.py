"""Answer checks for benchmark jobs, run after the timed loop.

The shipped instance is checked against its published values.  Generated
instances are checked against ``scipy.optimize.milp`` (HiGHS) on a model
built here from the instance itself, so the check shares no model code with
the program.  Payoff worst levels are not compared: they depend on which of
several tied optima a solver returns.
"""

from __future__ import annotations

import re

import numpy as np

from ifctp import IfctpInstance

PAPER_IDEAL = (830.0, 163.0)
PAPER_PAYOFF = (640.0, 787.0, 163.0, 190.0)  # lower best/worst, width best/worst
PAPER_LEVEL = 52.0 / 67.0
PAPER_COMPETITOR_DISTANCE = 27.0
REL_TOL = 1e-6
LEVEL_TOL = 1e-6
TEXT_TOL = 0.005 + 1e-9  # the text report rounds to two decimals
RANGE_TOL = 1e-9         # a payoff range below this pins the objective instead


def parse_machine(text: str) -> dict[str, str]:
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


# --------------------------------------------------------------------------
# independent reference solves
# --------------------------------------------------------------------------

def _coefficients(instance: IfctpInstance, which: str) -> np.ndarray:
    pick = {"lower": lambda iv: iv.lo,
            "center": lambda iv: (iv.lo + iv.hi) / 2.0,
            "width": lambda iv: (iv.hi - iv.lo) / 2.0}[which]
    unit = [pick(iv) for row in instance.unit_cost for iv in row]
    fixed = [pick(iv) for row in instance.fixed_charge for iv in row]
    return np.array(unit + fixed, dtype=float)


def _solve(instance: IfctpInstance, objective: np.ndarray, extra_rows=()) -> float:
    """Minimum of objective over the crisp constraint set, plus extra rows.

    Variables are y (shipments), x (route activations) and, when the
    objective is longer than 2mn, one continuous level in [0, 1].
    extra_rows holds (coefficients, upper bound) pairs.
    """
    from scipy.optimize import Bounds, LinearConstraint, milp

    m, n = instance.m, instance.n
    mn = m * n
    nv = len(objective)
    rows, lo, hi = [], [], []

    def add(row, lower, upper):
        rows.append(row)
        lo.append(lower)
        hi.append(upper)

    for i in range(m):
        row = np.zeros(nv)
        row[i * n:(i + 1) * n] = 1.0
        add(row, -np.inf, instance.supply[i].hi)
    for j in range(n):
        row = np.zeros(nv)
        row[j:mn:n] = 1.0
        add(row, instance.demand[j].lo, np.inf)
    for i in range(m):
        for j in range(n):
            row = np.zeros(nv)
            row[i * n + j] = 1.0
            row[mn + i * n + j] = -instance.supply[i].hi
            add(row, -np.inf, 0.0)
    for coeffs, upper in extra_rows:
        add(coeffs, -np.inf, upper)
    upper_bounds = np.full(nv, np.inf)
    upper_bounds[mn:] = 1.0
    integrality = np.zeros(nv)
    integrality[mn:2 * mn] = 1
    result = milp(objective, integrality=integrality, bounds=Bounds(0.0, upper_bounds),
                  constraints=LinearConstraint(np.array(rows), lo, hi),
                  options={"mip_rel_gap": 1e-12})
    if result.status != 0:
        raise RuntimeError(f"reference solve failed: {result.message}")
    return float(result.fun)


def reference_values(instance: IfctpInstance) -> dict[str, float]:
    """Ideal point and best payoff levels, by the machine-report key they check."""
    width = _solve(instance, _coefficients(instance, "width"))
    return {
        "ideal.center": _solve(instance, _coefficients(instance, "center")),
        "ideal.width": max(0.0, width),
        "payoff.lower.best": _solve(instance, _coefficients(instance, "lower")),
        "payoff.width.best": width,
    }


def reference_level(instance: IfctpInstance, best: tuple[float, float],
                    worst: tuple[float, float]) -> float:
    """Max-min satisfaction level for the given payoff levels."""
    extra = []
    for k, which in enumerate(("lower", "width")):
        coeffs = np.append(_coefficients(instance, which), 0.0)
        span = worst[k] - best[k]
        if span > RANGE_TOL:
            coeffs[-1] = span
        extra.append((coeffs, worst[k]))
    objective = np.zeros(2 * instance.m * instance.n + 1)
    objective[-1] = -1.0
    return -_solve(instance, objective, extra)


# --------------------------------------------------------------------------
# per-output checks: each returns None when the answer is right
# --------------------------------------------------------------------------

def _check_paper_solve(out: str) -> str | None:
    values = parse_machine(out)
    expected = {"ideal.center": PAPER_IDEAL[0], "ideal.width": PAPER_IDEAL[1],
                "payoff.lower.best": PAPER_PAYOFF[0], "payoff.lower.worst": PAPER_PAYOFF[1],
                "payoff.width.best": PAPER_PAYOFF[2], "payoff.width.worst": PAPER_PAYOFF[3]}
    if values.get("status") != "optimal":
        return f"status {values.get('status')!r}"
    for key, want in expected.items():
        if key not in values or not _close(float(values[key]), want):
            return f"{key}={values.get(key)} expected {want!r}"
    if abs(float(values["level"]) - PAPER_LEVEL) > LEVEL_TOL:
        return f"level={values['level']} expected 52/67"
    if any(key.startswith("plan_violation") for key in values):
        return "plan violations reported"
    return None


_TEXT_FIELDS = (
    ("ideal center", r"ideal point: center ([-\d.]+),", PAPER_IDEAL[0]),
    ("ideal width", r"ideal point: center [-\d.]+, width ([-\d.]+)", PAPER_IDEAL[1]),
    ("lower best", r"lower endpoint: ([-\d.]+) /", PAPER_PAYOFF[0]),
    ("lower worst", r"lower endpoint: [-\d.]+ / ([-\d.]+)", PAPER_PAYOFF[1]),
    ("width best", r"width: +([-\d.]+) /", PAPER_PAYOFF[2]),
    ("width worst", r"width: +[-\d.]+ / ([-\d.]+)", PAPER_PAYOFF[3]),
    ("level", r"max-min level: ([-\d.]+)", PAPER_LEVEL),
    ("competitor distance", r"competitor safi-razmjoo: .*, distance ([-\d.]+)",
     PAPER_COMPETITOR_DISTANCE),
)


def _check_paper_compare(out: str) -> str | None:
    if "status: optimal" not in out:
        return "status is not optimal"
    for name, pattern, want in _TEXT_FIELDS:
        match = re.search(pattern, out)
        if match is None:
            return f"{name} missing from the report"
        if abs(float(match.group(1)) - want) > TEXT_TOL:
            return f"{name} {match.group(1)} expected {want:.2f}"
    if "warning: plan check" in out:
        return "plan violations reported"
    return None


class Checker:
    """Checks job outputs; reference solves are cached per instance."""

    def __init__(self, instances: dict[str, IfctpInstance]):
        self.instances = instances
        self._values: dict[str, dict[str, float]] = {}

    def check(self, job, rc, out: str) -> str | None:
        if rc != 0:
            return f"exit code {rc!r}"
        try:
            if job.check == "paper-solve":
                return _check_paper_solve(out)
            if job.check == "paper-compare":
                return _check_paper_compare(out)
            return self._check_reference(job.instance, out)
        except (KeyError, ValueError) as exc:
            return f"malformed report: {exc!r}"
        except RuntimeError as exc:
            return str(exc)

    def _check_reference(self, name: str, out: str) -> str | None:
        values = parse_machine(out)
        if values.get("status") != "optimal":
            return f"status {values.get('status')!r}"
        instance = self.instances[name]
        if name not in self._values:
            self._values[name] = reference_values(instance)
        for key, want in self._values[name].items():
            if key not in values or not _close(float(values[key]), want):
                return f"{key}={values.get(key)} reference {want!r}"
        best = (float(values["payoff.lower.best"]), float(values["payoff.width.best"]))
        worst = (float(values["payoff.lower.worst"]), float(values["payoff.width.worst"]))
        want = reference_level(instance, best, worst)
        if abs(float(values["level"]) - want) > LEVEL_TOL:
            return f"level={values['level']} reference {want!r}"
        if any(key.startswith("plan_violation") for key in values):
            return "plan violations reported"
        return None


def _shift(out: str, pattern: str, delta: float) -> str:
    """Output with the number captured by pattern's second group moved by delta."""
    def bump(match):
        return f"{match.group(1)}{float(match.group(2)) + delta!r}"
    shifted, count = re.subn(pattern, bump, out, count=1, flags=re.MULTILINE)
    if count != 1:
        raise ValueError(f"self-check found no {pattern!r} in the output")
    return shifted


def self_check(checker: Checker, job, rc, out: str) -> list[str]:
    """Perturb a correct answer and list the perturbations the checks missed.

    An empty list means every wrong answer was caught, so a passing check is
    not vacuous.
    """
    if job.check == "paper-compare":
        variants = {"ideal width + 1": (rc, _shift(out, r"(ideal point: center [-\d.]+, width )"
                                                      r"([-\d.]+)", 1.0))}
    else:
        variants = {"level + 1e-3": (rc, _shift(out, r"^(level=)(.*)$", 1e-3)),
                    "ideal width + 1": (rc, _shift(out, r"^(ideal\.width=)(.*)$", 1.0))}
    return [name for name, (bad_rc, bad_out) in variants.items()
            if checker.check(job, bad_rc, bad_out) is None]
