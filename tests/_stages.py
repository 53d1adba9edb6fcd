"""Stage answers in one call each, solved the way run_pipeline solves them."""

from ifctp import (build_bi_objective, build_payoff, compute_ideal, extract_plan,
                   solve_compromise, solve_milp, to_milp)


def solve(bi, objective):
    """The MILP optimum of one objective over the shared constraint set."""
    return solve_milp(to_milp(bi, objective))


def ideal_of(instance):
    bi = build_bi_objective(instance)
    return compute_ideal(solve(bi, bi.obj_center), solve(bi, bi.obj_width))


def payoff_of(bi):
    return build_payoff(bi, solve(bi, bi.obj_lower), solve(bi, bi.obj_width))


def anchor_plans(bi):
    """The plans of the lower-endpoint and width anchor solutions."""
    return tuple(extract_plan(bi, solve(bi, objective).assignment)
                 for objective in (bi.obj_lower, bi.obj_width))


def compromise_of(instance):
    """The compromise under the computed payoff table."""
    bi = build_bi_objective(instance)
    return solve_compromise(bi, payoff_of(bi))
