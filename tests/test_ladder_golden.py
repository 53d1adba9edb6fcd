"""The ladder-bb instances at relabel seed 1, pinned bit for bit.

For each of the benchmark's 19 ladder instances, tests/data/golden_ladder_seed1.txt
holds a "# <name>" line, the machine report, and one line per stage solve
with its status, nodes and pivots.  A change that moves any report bit, or
the search's path through any stage, shows here.  After an intended change,
regenerate the file with

    PYTHONPATH=src python tests/test_ladder_golden.py
"""

import pathlib
import sys

sys.path.append(str(pathlib.Path(__file__).resolve().parent.parent / "bench"))

import workloads  # noqa: E402
import ifctp.pipeline  # noqa: E402
from ifctp import run_pipeline  # noqa: E402
from ifctp.reporting import render_machine  # noqa: E402

GOLDEN = pathlib.Path(__file__).resolve().parent / "data" / "golden_ladder_seed1.txt"


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


def test_ladder_reports_and_solves_match_the_golden_file():
    assert ladder_golden() == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.write_text(ladder_golden())
