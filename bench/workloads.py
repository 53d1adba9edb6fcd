"""Benchmark workloads: the instances each one solves and the CLI jobs it runs.

A workload is a *round*: a fixed list of jobs, each one call of the ``ifctp``
command line.  A run repeats whole rounds, reshuffled by the seed each time.
Every round holds an odd number of jobs whose times form separate clusters,
so the job-time median falls inside one cluster rather than on the gap
between two.

Where the instances come from:

- ``paper-3x4`` solves the shipped instance, which is fixed.
- ``ladder-bb`` solves a fixed ladder of generated instances.  The run
  seed relabels the sources and destinations of every instance.  The
  program sees a different input, and branch and bound, which breaks ties
  by index, walks a different tree.  The problem and its difficulty stay
  the same.  Freshly drawn instances would move a run's job-time median by
  which ones it happened to draw: the ladder's instances take from 0.2 to
  3 s.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ifctp import IfctpInstance, Interval

PAPER_OVERRIDE = "640,787,163,190"
PAPER_COMPETITOR = "safi-razmjoo=[640,1020]"

# (m, n, instance seed) for the fixed ladder.  Unit costs about [1,20],
# fixed charges [10,60] and supplies [20,40] make branch and bound do the
# work: 100 to 1300 nodes and 0.2 to 3 s per instance.  Relabelling moves an
# instance's time by up to 15% (nodes and pivots per node both change), so a
# round holds many instances and each one's share of the job-time median and
# of the total stays small.  The 5x6 seed 0 (about 1900 nodes, 4 s) is left
# out so that no single instance dominates a round; an odd count puts the
# median on one instance.
LADDER = (tuple((4, 5, k) for k in range(7)) + tuple((4, 6, k) for k in range(7))
          + tuple((5, 6, k) for k in range(1, 6)))
# Wall seconds one round takes on a 2-core shared x86 host, with the host's
# usual load; they turn --seconds into a fixed number of rounds.
NOMINAL_ROUND_S = {"paper-3x4": 0.45, "ladder-bb": 17.0}


@dataclass(frozen=True)
class Job:
    """One command-line call and how its output is checked.

    check is "paper-solve", "paper-compare" or "reference" (compared against
    an independent MILP solver).
    """

    key: str
    argv: tuple[str, ...]
    check: str
    instance: str | None = None


def _interval(rng: random.Random, lo: int, hi: int, max_width: int) -> Interval:
    start = rng.randint(lo, hi)
    return Interval(start, start + rng.randint(0, max_width))


def generate(rng: random.Random, m: int, n: int) -> IfctpInstance:
    """Random instance whose demand floors total about 85% of the supply caps."""
    unit = [[_interval(rng, 1, 20, 6) for _ in range(n)] for _ in range(m)]
    fixed = [[_interval(rng, 10, 60, 20) for _ in range(n)] for _ in range(m)]
    supply = [_interval(rng, 20, 40, 3) for _ in range(m)]
    cap = sum(iv.hi for iv in supply)
    floors = [max(1, int(0.85 * cap / n * rng.uniform(0.8, 1.2))) for _ in range(n)]
    while sum(floors) > cap:
        floors = [max(1, f - 1) for f in floors]
    demand = [Interval(f, f + rng.randint(0, 3)) for f in floors]
    return IfctpInstance(unit, fixed, supply, demand)


def relabel(instance: IfctpInstance, rng: random.Random) -> IfctpInstance:
    """Same problem with sources and destinations listed in a random order."""
    rows = list(range(instance.m))
    cols = list(range(instance.n))
    rng.shuffle(rows)
    rng.shuffle(cols)
    return IfctpInstance(
        [[instance.unit_cost[i][j] for j in cols] for i in rows],
        [[instance.fixed_charge[i][j] for j in cols] for i in rows],
        [instance.supply[i] for i in rows],
        [instance.demand[j] for j in cols],
    )


def instances(workload: str, seed: int) -> dict[str, IfctpInstance]:
    """Generated instances of a workload, by name; the same seed gives the same ones."""
    out = {}
    for m, n, k in LADDER if workload == "ladder-bb" else ():
        base = generate(random.Random(f"{workload}:{m}x{n}:{k}"), m, n)
        out[f"{m}x{n}-{k}"] = relabel(base, random.Random(f"{workload}:{seed}:{m}x{n}:{k}"))
    return out


def round_jobs(workload: str, paths: dict[str, str], paper_path: str) -> list[Job]:
    """The jobs of one round; paths maps each generated instance name to its file."""
    if workload == "paper-3x4":
        solve = ("solve", paper_path, "--report", "machine")
        compare = ("compare", paper_path, "--override-payoff", PAPER_OVERRIDE,
                   "--competitor", PAPER_COMPETITOR)
        # Two solves per compare: 192-node and 128-node jobs would otherwise
        # put the median between the two clusters.
        return [Job("solve-a", solve, "paper-solve"), Job("compare", compare, "paper-compare"),
                Job("solve-b", solve, "paper-solve")]
    if workload == "ladder-bb":
        return [Job(f"solve:{name}", ("solve", path, "--report", "machine"), "reference", name)
                for name, path in paths.items()]
    raise ValueError(f"unknown workload {workload!r}")


def rounds_for(workload: str, seconds: float, traced: bool) -> int:
    """Whole rounds in a run; a traced run calls each job twice, so half as many."""
    rounds = max(1, round(seconds / NOMINAL_ROUND_S[workload]))
    return max(1, rounds // 2) if traced else rounds


def warmup_job(paper_path: str) -> Job:
    """The job run once during set-up, before anything is timed."""
    return Job("warmup", ("solve", paper_path, "--report", "machine"), "paper-solve")
