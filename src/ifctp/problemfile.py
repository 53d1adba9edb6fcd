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

import math
import re

from .intervals import Interval
from .model import IfctpInstance, InvalidInstanceError


class ProblemFileError(ValueError):
    """Unreadable, unparsable or malformed problem file, with the offending line when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


_DIMS = re.compile(r"^dims\s+(\d+)\s+(\d+)$")
_IV = r"(\[[^\]]*\])"
# Each entry kind: its pattern (indices, then intervals) and the dims axis of each index.
_ENTRIES = {
    "cost": (re.compile(rf"^cost\s+(\d+)\s+(\d+)\s*=\s*{_IV}\s+fixed\s+{_IV}$"), (0, 1)),
    "supply": (re.compile(rf"^supply\s+(\d+)\s*=\s*{_IV}$"), (0,)),
    "demand": (re.compile(rf"^demand\s+(\d+)\s*=\s*{_IV}$"), (1,)),
}
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
    """Parse a problem file into an instance, which checks its own structure.

    Raises ProblemFileError on malformed lines, duplicate or missing entries,
    out-of-range indices, reversed intervals and the instance's structural
    errors.  Aggregate supply/demand feasibility is not checked here: an
    undersupplied file parses fine, and pipeline.Stages rejects it unsolved.
    """
    dims: tuple[int, int] | None = None
    entries: dict[str, dict[tuple[int, ...], list[Interval]]] = {kind: {} for kind in _ENTRIES}

    # An editor's byte-order mark is not text, and str.strip keeps it.
    for line_no, raw in enumerate(text.removeprefix("\ufeff").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if match := _DIMS.match(line):
            if dims is not None:
                raise ProblemFileError("duplicate dims line", line_no)
            m, n = int(match.group(1)), int(match.group(2))
            if m < 1 or n < 1:
                raise ProblemFileError(f"dims must be at least 1x1, got {m}x{n}", line_no)
            dims = (m, n)  # m and n keep these values for the rest of the parse
            continue
        if dims is None:
            raise ProblemFileError("dims line must come before data lines", line_no)

        for kind, (pattern, axes) in _ENTRIES.items():
            if match := pattern.match(line):
                break
        else:
            raise ProblemFileError(f"unrecognized line {line!r}", line_no)
        key = tuple(int(group) for group in match.groups()[:len(axes)])
        label = f"({','.join(map(str, key))})" if len(key) > 1 else str(key[0])
        if not all(1 <= index <= dims[axis] for index, axis in zip(key, axes)):
            raise ProblemFileError(f"{kind} index {label} outside dims {m}x{n}", line_no)
        if key in entries[kind]:
            raise ProblemFileError(f"duplicate {kind} entry {label}", line_no)
        entries[kind][key] = [_parse_interval(token, line_no)
                              for token in match.groups()[len(axes):]]

    if dims is None:
        raise ProblemFileError("missing dims line")
    for kind, (_, axes) in _ENTRIES.items():
        expected = math.prod(dims[axis] for axis in axes)
        if len(entries[kind]) != expected:
            raise ProblemFileError(f"expected {expected} {kind} entries, "
                                   f"found {len(entries[kind])}")

    cost, supply, demand = entries.values()
    try:
        return IfctpInstance(
            [[cost[(i, j)][0] for j in range(1, n + 1)] for i in range(1, m + 1)],
            [[cost[(i, j)][1] for j in range(1, n + 1)] for i in range(1, m + 1)],
            [supply[(i,)][0] for i in range(1, m + 1)],
            [demand[(j,)][0] for j in range(1, n + 1)],
        )
    except InvalidInstanceError as exc:
        raise ProblemFileError(str(exc)) from None


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
