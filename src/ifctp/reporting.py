"""Deterministic report rendering: human-readable text and flat key=value output.

Both formats print one field list.  Text reports round its numbers to two
decimals; machine output keeps full float precision (repr) with one datum per
line and stable key names, so downstream tooling can diff runs byte for byte.
"""

from __future__ import annotations

from .compromise import PayoffTable
from .intervals import CenterWidth, Interval
from .pipeline import CompromiseReport, OracleCheck


def _lines(lines: list[str]) -> str:
    return "\n".join(lines) + "\n"


def _render(fields: dict[str, object], report: str) -> str:
    """fields as a "machine" report (a float's str is its repr) or a "text" one (two decimals)."""
    if report == "machine":
        return _lines([f"{key}={value}" for key, value in fields.items()])
    return _lines(_text_lines(fields, lambda key: f"{fields[key]:.2f}"))


def _payoff_fields(payoff: PayoffTable) -> dict[str, object]:
    return {
        "payoff.lower.best": float(payoff.best[0]),
        "payoff.lower.worst": float(payoff.worst[0]),
        "payoff.width.best": float(payoff.best[1]),
        "payoff.width.worst": float(payoff.worst[1]),
    }


def _center_width_fields(name: str, cw: CenterWidth) -> dict[str, object]:
    return {f"{name}.center": float(cw.center), f"{name}.width": float(cw.width)}


def _interval_fields(name: str, interval: Interval) -> dict[str, object]:
    return ({f"{name}.lo": float(interval.lo), f"{name}.hi": float(interval.hi)}
            | _center_width_fields(name, interval.as_center_width()))


def _report_fields(report: CompromiseReport) -> dict[str, object]:
    """Every fact a report prints, in machine order under its machine key; numbers as floats."""
    fields: dict[str, object] = {
        "status": report.status,
        "sources": report.sources,
        "destinations": report.destinations,
        "supply_cap_total": float(report.supply_cap_total),
        "demand_floor_total": float(report.demand_floor_total),
    }
    if report.status == "optimal":
        fields |= _payoff_fields(report.payoff)
        fields["level"] = float(report.lambda_star)
        fields["membership.lower"] = float(report.memberships[0])
        fields["membership.width"] = float(report.memberships[1])
        fields |= _interval_fields("objective", report.objective)
        fields |= _center_width_fields("ideal", report.ideal)
        fields["distance"] = float(report.distance)
        for i, row in enumerate(report.plan.y, start=1):
            for j, quantity in enumerate(row, start=1):
                fields[f"plan.y.{i}.{j}"] = float(quantity)
        for i, row in enumerate(report.plan.x, start=1):
            for j, active in enumerate(row, start=1):
                fields[f"plan.x.{i}.{j}"] = active
    if report.competitor is not None:
        fields["competitor.name"] = report.competitor.name
        fields |= _interval_fields("competitor", report.competitor.objective)
        if report.competitor_distance is not None:
            fields["competitor.distance"] = float(report.competitor_distance)
    for k, violation in enumerate(report.plan_violations, start=1):
        fields[f"plan_violation.{k}"] = violation
    return fields


def _interval_text(n, name: str) -> str:
    return (f"[{n(name + '.lo')}, {n(name + '.hi')}]"
            f" = center {n(name + '.center')}, width {n(name + '.width')}")


def _text_lines(t: dict[str, object], n) -> list[str]:
    """Text lines of each section whose fields t lists, each number under key printed as n(key).

    A report that is not optimal stops at its header.
    """
    lines = []
    if "status" in t:
        lines += [
            f"interval fixed-charge transportation: {t['sources']} sources, "
            f"{t['destinations']} destinations",
            f"supply cap total {n('supply_cap_total')}, "
            f"demand floor total {n('demand_floor_total')}",
            f"status: {t['status']}",
        ]
        if t["status"] != "optimal":
            return lines
    if "payoff.lower.best" in t:
        lines += [
            "payoff levels (best / worst):",
            f"  lower endpoint: {n('payoff.lower.best')} / {n('payoff.lower.worst')}",
            f"  width:          {n('payoff.width.best')} / {n('payoff.width.worst')}",
        ]
    if "level" in t:
        lines += [
            f"max-min level: {n('level')}",
            f"memberships: lower {n('membership.lower')}, width {n('membership.width')}",
            "shipments (source -> destination: quantity):",
        ]
        for i in range(1, t["sources"] + 1):
            for j in range(1, t["destinations"] + 1):
                if t[f"plan.x.{i}.{j}"]:
                    lines.append(f"  {i} -> {j}: {n(f'plan.y.{i}.{j}')}")
        lines.append(f"objective: {_interval_text(n, 'objective')}")
    if "ideal.center" in t:
        lines.append(f"ideal point: center {n('ideal.center')}, width {n('ideal.width')}")
    if "distance" in t:
        lines.append(f"distance to ideal: {n('distance')}")
    if "competitor.name" in t:
        lines.append(f"competitor {t['competitor.name']}: {_interval_text(n, 'competitor')}"
                     f", distance {n('competitor.distance')}")
    for key, violation in t.items():
        if key.startswith("plan_violation."):
            lines.append(f"warning: plan check: {violation}")
    return lines


def render_payoff(payoff: PayoffTable, report: str) -> str:
    """The payoff table alone, as a "text" or "machine" report."""
    return _render(_payoff_fields(payoff), report)


def render_ideal(ideal: CenterWidth, report: str) -> str:
    """The ideal point alone, as a "text" or "machine" report."""
    return _render(_center_width_fields("ideal", ideal), report)


def render_text(report: CompromiseReport) -> str:
    return _render(_report_fields(report), "text")


def render_machine(report: CompromiseReport) -> str:
    return _render(_report_fields(report), "machine")


def render_oracle_check(check: OracleCheck) -> str:
    lines = []
    for line in check.lines:
        verdict = "ok" if line.passed else "FAIL"
        lines.append(f"{line.name}: solver={line.solver_value!r} "
                     f"oracle={line.oracle_value!r} delta={line.delta:.3g} {verdict}")
    lines.append("oracle check: " + ("PASS" if check.passed else "FAIL"))
    return _lines(lines)
