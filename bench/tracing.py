"""Span tracing for traced benchmark runs, applied from outside the package.

Every function that one ifctp module imports from another is wrapped at that
import binding, for example ``ifctp.compromise.solve_milp`` or
``ifctp.cli.render_machine``.  A call through the binding records a span: its
layer (the callee's module), start, end, the enclosing span and, for solver
calls, the node count of the result.  Spans stay in memory until the run
writes them out.  Calls inside one module are not bindings and are not seen.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import statistics
import time
from dataclasses import asdict, dataclass

# Modules whose import bindings are wrapped; the layers are the callees' modules.
CALLER_MODULES = ("cli", "pipeline", "compromise", "crisp", "problemfile")
# Functions a solver call is attributed to, nearest enclosing one first.
STAGE_CALLERS = ("compute_ideal", "build_payoff", "solve_compromise")
SELF_TIME_LAYERS = ("crisp", "model", "problemfile", "reporting", "compromise", "pipeline",
                    "cli")
SOLVE = "milp.solve_milp"


@dataclass
class Span:
    id: int
    parent: int | None
    job: int
    name: str
    start_ns: int
    end_ns: int
    nodes: int | None
    error: str | None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Records spans while installed; captures solver models when asked.

    root is the traced ``ifctp.cli.main``: each job's span tree hangs from it.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.job = -1
        self.capture_models = False
        self.models = []
        self._ids = itertools.count()
        self._stack: list[int] = []
        self._bindings = []
        for module_name in CALLER_MODULES:
            module = importlib.import_module(f"ifctp.{module_name}")
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and value.__module__.startswith("ifctp.")
                        and value.__module__ != module.__name__):
                    self._bindings.append((module, attr, value, self.wrap(value)))
        self.root = self.wrap(importlib.import_module("ifctp.cli").main)

    def wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"

        def traced(*args, **kwargs):
            span_id = next(self._ids)
            parent = self._stack[-1] if self._stack else None
            if self.capture_models and name == SOLVE:
                self.models.append(args[0])
            self._stack.append(span_id)
            error = None
            result = None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans.append(Span(span_id, parent, self.job, name, start, end,
                                       getattr(result, "nodes", None), error))

        return traced

    def install(self) -> None:
        for module, attr, _, traced in self._bindings:
            setattr(module, attr, traced)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._bindings:
            setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")


def stage_of(span: Span, by_id: dict[int, Span]) -> str | None:
    parent = span.parent
    while parent is not None:
        ancestor = by_id[parent]
        function = ancestor.name.split(".", 1)[1]
        if function in STAGE_CALLERS:
            return function
        parent = ancestor.parent
    return None


def round_totals(spans: list[Span], span_ms) -> dict[str, float]:
    """Counts and times of one round's spans, before any aggregation.

    span_ms gives the milliseconds a span counts for.
    """
    by_id = {span.id: span for span in spans}
    child_ms: dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            child_ms[span.parent] = child_ms.get(span.parent, 0.0) + span_ms(span)
    totals = {"milp.nodes": 0, "milp.solve_calls": 0, "milp.solve_ms": 0.0,
              "milp.node_limit_errors": 0, "milp.degenerate_pivot_errors": 0,
              "compromise.infeasible": 0, "job_ms": 0.0}
    for stage in STAGE_CALLERS:
        totals[f"milp.nodes.{stage}"] = 0
        totals[f"milp.solve_ms.{stage}"] = 0.0
    for layer in SELF_TIME_LAYERS:
        totals[f"{layer}.self_ms"] = 0.0
    for span in spans:
        ms = span_ms(span)
        if span.layer in SELF_TIME_LAYERS:
            totals[f"{span.layer}.self_ms"] += ms - child_ms.get(span.id, 0.0)
        if span.parent is None:
            totals["job_ms"] += ms
        if span.name == SOLVE:
            totals["milp.solve_calls"] += 1
            totals["milp.nodes"] += span.nodes or 0
            totals["milp.solve_ms"] += ms
            stage = stage_of(span, by_id)
            if stage is not None:
                totals[f"milp.nodes.{stage}"] += span.nodes or 0
                totals[f"milp.solve_ms.{stage}"] += ms
        if span.layer == "milp" and span.error == "NodeLimitError":
            totals["milp.node_limit_errors"] += 1
        if span.layer == "milp" and span.error == "DegeneratePivotError":
            totals["milp.degenerate_pivot_errors"] += 1
        if span.layer == "compromise" and span.error == "InfeasibleProblemError":
            totals["compromise.infeasible"] += 1
    return totals


COUNTS = ("milp.nodes", "milp.solve_calls", *(f"milp.nodes.{stage}" for stage in STAGE_CALLERS))
ERRORS = ("milp.node_limit_errors", "milp.degenerate_pivot_errors", "compromise.infeasible")
# Self times reported under the names a reader looks for.
RENAMED = {"crisp.self_ms": "crisp.build_ms", "model.self_ms": "model.check_ms",
           "problemfile.self_ms": "problemfile.parse_ms",
           "reporting.self_ms": "reporting.render_ms"}


def layer_metrics(rounds: list[dict[str, float]]) -> dict[str, float]:
    """Per-round layer metrics from the totals of each traced round.

    Counts come from the first round (every round repeats them exactly);
    times are medians over rounds; errors are summed over all rounds; ratios
    divide sums over all rounds.
    """
    out: dict[str, float] = {}
    for key in COUNTS:
        out[key] = rounds[0][key]
    for key in ERRORS:
        out[key] = sum(r[key] for r in rounds)
    for key in rounds[0]:
        if key not in COUNTS and key not in ERRORS and key != "job_ms":
            out[RENAMED.get(key, key)] = statistics.median(r[key] for r in rounds)
    total = {key: sum(r[key] for r in rounds) for key in rounds[0]}
    out["milp.ms_per_node"] = total["milp.solve_ms"] / max(1, total["milp.nodes"])
    out["milp.share"] = total["milp.solve_ms"] / total["job_ms"]
    return out
