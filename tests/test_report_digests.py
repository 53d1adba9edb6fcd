"""The 676 comparison reports, pinned by digest.

The machine report of each ladder-bb instance at relabel seeds 1-4
(``s<seed>:<name>``) and of the first 600 draws of
random_instance(random.Random(1000)) (``r<k>``, k from 0) is hashed with
sha256.  tests/data/golden_report_digests.txt holds one "<id> <digest>" line
per report.  A search change that moves which tied optimum any report prints
shows here, by name.  After an intended change, regenerate the file with

    PYTHONPATH=src python tests/test_report_digests.py
"""

import hashlib
import pathlib
import sys

sys.path.append(str(pathlib.Path(__file__).resolve().parent.parent / "bench"))

import workloads  # noqa: E402
from _random_instances import draws  # noqa: E402
from ifctp import run_pipeline  # noqa: E402
from ifctp.reporting import render_machine  # noqa: E402

GOLDEN = pathlib.Path(__file__).resolve().parent / "data" / "golden_report_digests.txt"
SEEDS = (1, 2, 3, 4)
DRAWS = 600


def _instances():
    for seed in SEEDS:
        for name, instance in workloads.instances("ladder-bb", seed).items():
            yield f"s{seed}:{name}", instance
    for k, instance in enumerate(draws(1000, DRAWS)):
        yield f"r{k}", instance


def report_digests() -> str:
    """The golden file's text, computed now."""
    return "".join(
        f"{key} {hashlib.sha256(render_machine(run_pipeline(inst)).encode()).hexdigest()}\n"
        for key, inst in _instances())


def test_every_report_matches_its_golden_digest():
    want = dict(line.split() for line in GOLDEN.read_text().splitlines())
    got = dict(line.split() for line in report_digests().splitlines())
    assert len(got) == len(want) == 4 * 19 + DRAWS
    changed = [key for key in want if got.get(key) != want[key]]
    assert not changed, f"{len(changed)} reports changed: {' '.join(changed)}"


if __name__ == "__main__":
    GOLDEN.write_text(report_digests())
