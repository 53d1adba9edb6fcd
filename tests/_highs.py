"""A second MILP solver for the tests: MilpModel to scipy.optimize.milp (HiGHS).

scipy is a test dependency only; the package never imports it.
"""

import numpy as np

from ifctp import MilpModel


def highs_solve(model: MilpModel) -> tuple[str, float | None]:
    """(status, optimum) of model by HiGHS; status is "optimal" or "infeasible"."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    row_lo = np.where(model.senses <= 0, model.b, -np.inf)
    row_hi = np.where(model.senses >= 0, model.b, np.inf)
    integrality = np.zeros(model.c.size)
    integrality[model.binaries] = 1
    result = milp(model.c, integrality=integrality, bounds=Bounds(model.lo, model.hi),
                  constraints=LinearConstraint(model.A, row_lo, row_hi),
                  options={"mip_rel_gap": 1e-12})
    if result.status == 2:
        return "infeasible", None
    if result.status != 0:
        raise RuntimeError(f"HiGHS: {result.message}")
    return "optimal", float(result.fun)
