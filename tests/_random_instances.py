"""Random instances for solver-vs-oracle sweeps.

random_instance stays within 3x4 so exhaustive pattern enumeration stays
cheap; integer endpoints in [1, 50]; aggregate feasibility holds by
construction (supply upper totals are forced to cover n so demand floors of
at most cap // n can always be met).  Larger instances come from the
benchmark's workloads module (bench/workloads.py, on the path by conftest).
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


def draws(seed: int, count: int) -> list[IfctpInstance]:
    """The first count draws of random_instance(random.Random(seed)), in order."""
    rng = random.Random(seed)
    return [random_instance(rng) for _ in range(count)]
