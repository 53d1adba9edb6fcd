"""Frozen expected values for the 3x4 benchmark instance.

Solver-independent provenance:
  - payoff levels and the ideal point are the instance's published reference
    values (integer optima, confirmed here by exhaustive enumeration);
  - the compromise level and objective values are the exact solution of the
    two binding membership equalities on the reference activation pattern
    {(1,1),(1,3),(2,2),(2,4),(3,2),(3,3)}: with q = shipment on route (2,2),
    (124 - 2q)/147 = (16 + q)/27 gives q = 996/201, level 52/67.
"""

from ifctp import PayoffTable

IDEAL_CENTER = 830.0
IDEAL_WIDTH = 163.0

BEST_LOWER = 640.0     # lower-endpoint objective solo optimum
WORST_LOWER = 787.0    # its value at the width anchor
BEST_WIDTH = 163.0
WORST_WIDTH = 190.0
PAYOFF_OVERRIDE = PayoffTable((BEST_LOWER, BEST_WIDTH), (WORST_LOWER, WORST_WIDTH))

LEVEL_STAR = 52.0 / 67.0            # 0.77611940...
Z_LOWER_STAR = 45085.0 / 67.0       # 672.91044...
Z_WIDTH_STAR = 11326.0 / 67.0       # 169.04477...

# Values as published (quantities rounded to 2 decimals before evaluating).
PUBLISHED_Z_LOWER = 672.82
PUBLISHED_Z_UPPER = 1010.88
PUBLISHED_CENTER = 841.85
PUBLISHED_WIDTH = 169.03
PUBLISHED_DISTANCE = 13.29

# Competitor (prior method) results for both benchmark problems.
COMPETITOR_1 = (640.0, 1020.0)          # interval; center/width <830, 190>
COMPETITOR_1_DISTANCE = 27.0
IDEAL_2 = (734.5, 26.75)                # second benchmark's ideal point
PROPOSED_2 = (740.0, 27.5)              # center/width of [712.5, 767.5]
PROPOSED_2_DISTANCE = 5.55
# The published competitor distance 8.76 corresponds to the point <734, 18>
# (interval [716, 752]); the interval printed alongside it, [734, 770] =
# <752, 18>, would give 19.57 and contradicts the published figure.
COMPETITOR_2_POINT = (734.0, 18.0)
COMPETITOR_2_DISTANCE = 8.76
