"""Line-oriented problem files: hand-writable, diff-friendly.

Format (indices are 1-based, `#` starts a comment anywhere):

    dims 3 4
    cost 1 1 = [4,8] fixed [10,30]
    ...
    supply 1 = [30,33]
    demand 1 = [20,21]

Every cost cell, supply and demand entry must appear exactly once.
"""

from __future__ import annotations

import re

from .intervals import Interval
from .model import IfctpInstance, validate


class ProblemFileError(ValueError):
    """Unreadable, unparsable or malformed problem file, with the offending line when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


_DIMS = re.compile(r"^dims\s+(\d+)\s+(\d+)$")
_COST = re.compile(r"^cost\s+(\d+)\s+(\d+)\s*=\s*(\[[^\]]*\])\s+fixed\s+(\[[^\]]*\])$")
_SUPPLY = re.compile(r"^supply\s+(\d+)\s*=\s*(\[[^\]]*\])$")
_DEMAND = re.compile(r"^demand\s+(\d+)\s*=\s*(\[[^\]]*\])$")
_INTERVAL = re.compile(r"^\[\s*([^,\s\]]+)\s*,\s*([^,\s\]]+)\s*\]$")


def _parse_interval(token: str, line: int) -> Interval:
    match = _INTERVAL.match(token)
    if not match:
        raise ProblemFileError(f"malformed interval {token!r}, expected [lo,hi]", line)
    try:
        lo, hi = float(match.group(1)), float(match.group(2))
    except ValueError:
        raise ProblemFileError(f"non-numeric interval endpoint in {token!r}", line) from None
    try:
        return Interval(lo, hi)
    except ValueError as exc:
        raise ProblemFileError(str(exc), line) from None


def parse_instance(text: str) -> IfctpInstance:
    """Parse and structurally validate a problem file.

    Raises ProblemFileError on malformed lines, duplicate or missing entries,
    out-of-range indices, reversed intervals and structural validation
    failures.  Aggregate supply/demand feasibility is not checked here: an
    undersupplied file parses fine, and pipeline.Stages rejects it unsolved.
    """
    dims: tuple[int, int] | None = None
    cost: dict[tuple[int, int], tuple[Interval, Interval]] = {}
    supply: dict[int, Interval] = {}
    demand: dict[int, Interval] = {}

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if match := _DIMS.match(line):
            if dims is not None:
                raise ProblemFileError("duplicate dims line", line_no)
            m, n = int(match.group(1)), int(match.group(2))
            if m < 1 or n < 1:
                raise ProblemFileError(f"dims must be at least 1x1, got {m}x{n}", line_no)
            dims = (m, n)
            continue
        if dims is None:
            raise ProblemFileError("dims line must come before data lines", line_no)
        m, n = dims

        if match := _COST.match(line):
            i, j = int(match.group(1)), int(match.group(2))
            if not (1 <= i <= m and 1 <= j <= n):
                raise ProblemFileError(f"cost index ({i},{j}) outside dims {m}x{n}", line_no)
            if (i, j) in cost:
                raise ProblemFileError(f"duplicate cost entry ({i},{j})", line_no)
            cost[(i, j)] = (_parse_interval(match.group(3), line_no),
                            _parse_interval(match.group(4), line_no))
        elif match := _SUPPLY.match(line):
            i = int(match.group(1))
            if not 1 <= i <= m:
                raise ProblemFileError(f"supply index {i} outside dims {m}x{n}", line_no)
            if i in supply:
                raise ProblemFileError(f"duplicate supply entry {i}", line_no)
            supply[i] = _parse_interval(match.group(2), line_no)
        elif match := _DEMAND.match(line):
            j = int(match.group(1))
            if not 1 <= j <= n:
                raise ProblemFileError(f"demand index {j} outside dims {m}x{n}", line_no)
            if j in demand:
                raise ProblemFileError(f"duplicate demand entry {j}", line_no)
            demand[j] = _parse_interval(match.group(2), line_no)
        else:
            raise ProblemFileError(f"unrecognized line {line!r}", line_no)

    if dims is None:
        raise ProblemFileError("missing dims line")
    m, n = dims
    if len(cost) != m * n:
        raise ProblemFileError(f"expected {m * n} cost entries, found {len(cost)}")
    if len(supply) != m:
        raise ProblemFileError(f"expected {m} supply entries, found {len(supply)}")
    if len(demand) != n:
        raise ProblemFileError(f"expected {n} demand entries, found {len(demand)}")

    instance = IfctpInstance(
        [[cost[(i, j)][0] for j in range(1, n + 1)] for i in range(1, m + 1)],
        [[cost[(i, j)][1] for j in range(1, n + 1)] for i in range(1, m + 1)],
        [supply[i] for i in range(1, m + 1)],
        [demand[j] for j in range(1, n + 1)],
    )
    violations = validate(instance)
    if violations:
        raise ProblemFileError(violations[0])
    return instance


def _fmt(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else repr(float(value))


def _fmt_interval(iv: Interval) -> str:
    return f"[{_fmt(iv.lo)},{_fmt(iv.hi)}]"


def render_instance(instance: IfctpInstance) -> str:
    """Canonical text form; parse_instance(render_instance(x)) == x."""
    lines = [f"dims {instance.m} {instance.n}"]
    for i in range(instance.m):
        for j in range(instance.n):
            lines.append(f"cost {i + 1} {j + 1} = {_fmt_interval(instance.unit_cost[i][j])}"
                         f" fixed {_fmt_interval(instance.fixed_charge[i][j])}")
    for i, iv in enumerate(instance.supply):
        lines.append(f"supply {i + 1} = {_fmt_interval(iv)}")
    for j, iv in enumerate(instance.demand):
        lines.append(f"demand {j + 1} = {_fmt_interval(iv)}")
    return "\n".join(lines) + "\n"
