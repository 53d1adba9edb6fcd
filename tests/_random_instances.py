"""Random instances: small ones for solver-vs-oracle sweeps, and ladder ones.

random_instance stays within 3x4 so exhaustive pattern enumeration stays
cheap; integer endpoints in [1, 50]; aggregate feasibility holds by
construction (supply upper totals are forced to cover n so demand floors of
at most cap // n can always be met).  ladder_instance, relabel and ladder
draw the instances of the benchmark's ladder-bb workload (bench/workloads.py).
"""

import math
import random

from ifctp import IfctpInstance, Interval


def _interval_between(rng: random.Random, lo_min: int, hi_cap: int = 50) -> Interval:
    lo = rng.randint(lo_min, hi_cap)
    return Interval(lo, rng.randint(lo, hi_cap))


def random_instance(rng: random.Random) -> IfctpInstance:
    m = rng.randint(1, 3)
    n = rng.randint(1, 4)
    unit = [[_interval_between(rng, 1) for _ in range(n)] for _ in range(m)]
    fixed = [[_interval_between(rng, 1) for _ in range(n)] for _ in range(m)]

    hi_min = math.ceil(n / m)  # keeps total supply cap >= n
    supply = []
    for _ in range(m):
        lo = rng.randint(1, 50)
        supply.append(Interval(lo, rng.randint(max(lo, hi_min), 50)))
    cap = sum(iv.hi for iv in supply)

    demand = []
    for _ in range(n):
        lo = rng.randint(1, max(1, min(50, cap // n)))
        demand.append(Interval(lo, rng.randint(lo, 50)))
    return IfctpInstance(unit, fixed, supply, demand)


def ladder_instance(rng: random.Random, m: int, n: int) -> IfctpInstance:
    """Random m x n instance with heavy fixed charges and demand floors near 85% of the caps."""
    def interval(lo, hi, max_width):
        start = rng.randint(lo, hi)
        return Interval(start, start + rng.randint(0, max_width))

    unit = [[interval(1, 20, 6) for _ in range(n)] for _ in range(m)]
    fixed = [[interval(10, 60, 20) for _ in range(n)] for _ in range(m)]
    supply = [interval(20, 40, 3) for _ in range(m)]
    cap = sum(iv.hi for iv in supply)
    floors = [max(1, int(0.85 * cap / n * rng.uniform(0.8, 1.2))) for _ in range(n)]
    while sum(floors) > cap:
        floors = [max(1, f - 1) for f in floors]
    return IfctpInstance(unit, fixed, supply, [Interval(f, f + rng.randint(0, 3)) for f in floors])


def relabel(instance: IfctpInstance, rng: random.Random) -> IfctpInstance:
    """Same problem with sources and destinations listed in a random order."""
    rows, cols = list(range(instance.m)), list(range(instance.n))
    rng.shuffle(rows)
    rng.shuffle(cols)
    return IfctpInstance([[instance.unit_cost[i][j] for j in cols] for i in rows],
                         [[instance.fixed_charge[i][j] for j in cols] for i in rows],
                         [instance.supply[i] for i in rows], [instance.demand[j] for j in cols])


LADDER = (tuple((4, 5, k) for k in range(7)) + tuple((4, 6, k) for k in range(7))
          + tuple((5, 6, k) for k in range(1, 6)))


def ladder(seed: int) -> list[IfctpInstance]:
    """The 19 ladder-bb instances at relabel seed seed."""
    return [relabel(ladder_instance(random.Random(f"ladder-bb:{m}x{n}:{k}"), m, n),
                    random.Random(f"ladder-bb:{seed}:{m}x{n}:{k}")) for m, n, k in LADDER]
