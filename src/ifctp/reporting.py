"""Deterministic report rendering: human-readable text and flat key=value output.

Text reports round to two decimals; machine output keeps full float precision
(repr) with one datum per line and stable key names, so downstream tooling can
diff runs byte for byte.
"""

from __future__ import annotations

from .compromise import PayoffTable
from .intervals import CenterWidth
from .pipeline import CompromiseReport, OracleCheck


def _f(value: float) -> str:
    return f"{value:.2f}"


def _lines(lines: list[str]) -> str:
    return "\n".join(lines) + "\n"


def _pairs(pairs: list[tuple[str, object]]) -> str:
    return _lines([f"{key}={value}" for key, value in pairs])


def _payoff_lines(payoff: PayoffTable) -> list[str]:
    return [
        "payoff levels (best / worst):",
        f"  lower endpoint: {_f(payoff.best[0])} / {_f(payoff.worst[0])}",
        f"  width:          {_f(payoff.best[1])} / {_f(payoff.worst[1])}",
    ]


def _payoff_pairs(payoff: PayoffTable) -> list[tuple[str, object]]:
    return [
        ("payoff.lower.best", repr(float(payoff.best[0]))),
        ("payoff.lower.worst", repr(float(payoff.worst[0]))),
        ("payoff.width.best", repr(float(payoff.best[1]))),
        ("payoff.width.worst", repr(float(payoff.worst[1]))),
    ]


def _ideal_line(ideal: CenterWidth) -> str:
    return f"ideal point: center {_f(ideal.center)}, width {_f(ideal.width)}"


def _ideal_pairs(ideal: CenterWidth) -> list[tuple[str, object]]:
    return [("ideal.center", repr(float(ideal.center))),
            ("ideal.width", repr(float(ideal.width)))]


def render_payoff(payoff: PayoffTable, report: str) -> str:
    """The payoff table alone, as a "text" or "machine" report."""
    return _pairs(_payoff_pairs(payoff)) if report == "machine" else _lines(_payoff_lines(payoff))


def render_ideal(ideal: CenterWidth, report: str) -> str:
    """The ideal point alone, as a "text" or "machine" report."""
    return _pairs(_ideal_pairs(ideal)) if report == "machine" else _lines([_ideal_line(ideal)])


def render_text(report: CompromiseReport) -> str:
    lines = [
        f"interval fixed-charge transportation: {report.sources} sources, "
        f"{report.destinations} destinations",
        f"supply cap total {_f(report.supply_cap_total)}, "
        f"demand floor total {_f(report.demand_floor_total)}",
        f"status: {report.status}",
    ]
    if report.status != "optimal":
        return _lines(lines)

    lines += _payoff_lines(report.payoff)
    lines += [
        f"max-min level: {_f(report.lambda_star)}",
        f"memberships: lower {_f(report.memberships[0])}, width {_f(report.memberships[1])}",
        "shipments (source -> destination: quantity):",
    ]
    for i, row in enumerate(report.plan.y):
        for j, quantity in enumerate(row):
            if report.plan.x[i][j]:
                lines.append(f"  {i + 1} -> {j + 1}: {_f(quantity)}")
    cw = report.center_width
    lines += [
        f"objective: [{_f(report.objective.lo)}, {_f(report.objective.hi)}]"
        f" = center {_f(cw.center)}, width {_f(cw.width)}",
        _ideal_line(report.ideal),
        f"distance to ideal: {_f(report.distance)}",
    ]
    if report.competitor is not None:
        comp = report.competitor
        ccw = comp.objective.as_center_width()
        lines.append(
            f"competitor {comp.name}: [{_f(comp.objective.lo)}, {_f(comp.objective.hi)}]"
            f" = center {_f(ccw.center)}, width {_f(ccw.width)}"
            f", distance {_f(report.competitor_distance)}")
    for violation in report.plan_violations:
        lines.append(f"warning: plan check: {violation}")
    return _lines(lines)


def render_machine(report: CompromiseReport) -> str:
    pairs: list[tuple[str, object]] = [
        ("status", report.status),
        ("sources", report.sources),
        ("destinations", report.destinations),
        ("supply_cap_total", repr(float(report.supply_cap_total))),
        ("demand_floor_total", repr(float(report.demand_floor_total))),
    ]
    if report.status == "optimal":
        cw = report.center_width
        pairs += _payoff_pairs(report.payoff)
        pairs += [
            ("level", repr(float(report.lambda_star))),
            ("membership.lower", repr(float(report.memberships[0]))),
            ("membership.width", repr(float(report.memberships[1]))),
            ("objective.lo", repr(float(report.objective.lo))),
            ("objective.hi", repr(float(report.objective.hi))),
            ("objective.center", repr(float(cw.center))),
            ("objective.width", repr(float(cw.width))),
        ]
        pairs += _ideal_pairs(report.ideal)
        pairs += [("distance", repr(float(report.distance)))]
        for i, row in enumerate(report.plan.y):
            for j, quantity in enumerate(row):
                pairs.append((f"plan.y.{i + 1}.{j + 1}", repr(float(quantity))))
        for i, row in enumerate(report.plan.x):
            for j, active in enumerate(row):
                pairs.append((f"plan.x.{i + 1}.{j + 1}", active))
    if report.competitor is not None:
        comp = report.competitor
        ccw = comp.objective.as_center_width()
        pairs.append(("competitor.name", comp.name))
        pairs += [
            ("competitor.lo", repr(float(comp.objective.lo))),
            ("competitor.hi", repr(float(comp.objective.hi))),
            ("competitor.center", repr(float(ccw.center))),
            ("competitor.width", repr(float(ccw.width))),
        ]
        if report.competitor_distance is not None:
            pairs.append(("competitor.distance", repr(float(report.competitor_distance))))
    for k, violation in enumerate(report.plan_violations, start=1):
        pairs.append((f"plan_violation.{k}", violation))
    return _pairs(pairs)


def render_oracle_check(check: OracleCheck) -> str:
    lines = []
    for line in check.lines:
        verdict = "ok" if line.passed else "FAIL"
        lines.append(f"{line.name}: solver={line.solver_value!r} "
                     f"oracle={line.oracle_value!r} delta={line.delta:.3g} {verdict}")
    lines.append("oracle check: " + ("PASS" if check.passed else "FAIL"))
    return _lines(lines)
