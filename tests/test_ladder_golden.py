"""The ladder-bb instances at relabel seed 1, pinned bit for bit.

For each of the benchmark's 19 ladder instances, tests/data/golden_ladder_seed1.txt
holds a "# <name>" line, the machine report, and one line per stage solve
with its status, nodes and pivots.  A change that moves any report bit, or
the search's path through any stage, shows here; the reports are compared
first, so a failure tells a moved answer from a moved search.
golden_ladder_seed1_text.txt holds a "# <name>" line and the text report of
each instance compared with the competitor COMPETITOR.  After an intended
change, regenerate both files with

    PYTHONPATH=src python tests/test_ladder_golden.py
"""

import pathlib
import sys

sys.path.append(str(pathlib.Path(__file__).resolve().parent.parent / "bench"))

import workloads  # noqa: E402
import ifctp.pipeline  # noqa: E402
from ifctp import CompetitorEntry, Interval, run_pipeline  # noqa: E402
from ifctp.reporting import render_machine, render_text  # noqa: E402

GOLDEN = pathlib.Path(__file__).resolve().parent / "data" / "golden_ladder_seed1.txt"
TEXT_GOLDEN = GOLDEN.with_name("golden_ladder_seed1_text.txt")
COMPETITOR = CompetitorEntry("ladder", Interval(900, 1300))


def ladder_golden() -> str:
    """The golden file's text, computed now."""
    made = []

    class RecordingStages(ifctp.pipeline.Stages):
        def __init__(self, instance):
            super().__init__(instance)
            made.append(self)

    stages_class = ifctp.pipeline.Stages
    ifctp.pipeline.Stages = RecordingStages
    try:
        parts = []
        for name, instance in workloads.instances("ladder-bb", 1).items():
            made.clear()
            parts.append(f"# {name}\n" + render_machine(run_pipeline(instance)))
            parts += [f"solve.{stage}={sol.status} nodes={sol.nodes} pivots={sol.pivots}\n"
                      for stage, sol in made[0].solutions.items()]
    finally:
        ifctp.pipeline.Stages = stages_class
    return "".join(parts)


def ladder_text_golden() -> str:
    """The text golden file's text, computed now."""
    return "".join(f"# {name}\n" + render_text(run_pipeline(instance, competitor=COMPETITOR))
                   for name, instance in workloads.instances("ladder-bb", 1).items())


def _reports_and_solves(text):
    """The golden text's lines split in two: the reports, and the solve.* lines.

    Both keep the "# <name>" lines, so a difference names its instance.
    """
    lines = text.splitlines(keepends=True)
    return ([line for line in lines if not line.startswith("solve.")],
            [line for line in lines if line.startswith(("#", "solve."))])


def test_ladder_reports_and_solves_match_the_golden_file():
    reports, solves = _reports_and_solves(ladder_golden())
    golden_reports, golden_solves = _reports_and_solves(GOLDEN.read_text())
    assert reports == golden_reports, "an answer moved"
    assert solves == golden_solves, "the answers stand; only a search's nodes or pivots moved"


def test_ladder_text_reports_match_the_text_golden_file():
    assert ladder_text_golden() == TEXT_GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.write_text(ladder_golden())
    TEXT_GOLDEN.write_text(ladder_text_golden())
