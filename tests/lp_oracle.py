"""Exact unregularized transport for small instances, as a test oracle.

The transportation linear program on the bipartite graph (supplies a,
demands b, arc costs C) is solved with HiGHS and cleaned up to exact flows
on the optimal support. It shares padding and validation with ``sinkhorn``
through ``otreward.solver._solve_on_support``.
"""

import numpy as np
from scipy.optimize import linprog

from otreward.errors import NumericError
from otreward.solver import Coupling, _solve_on_support

MAX_LP_POINTS = 64
# LP flows at or below this are solver noise, not part of the optimal support.
_SUPPORT_TOL = 1e-11


def _refine_support_flows(plan: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Recompute flows exactly from the optimal support by leaf elimination.

    A basic optimal solution's support is a forest on the bipartite graph,
    so the flows are uniquely determined by the marginals. Re-deriving them
    removes solver rounding noise; in particular a permutation-structured
    optimum gets flows exactly equal to the marginal weights. Falls back to
    the raw plan if the support contains a cycle (non-vertex solution).
    """
    support = plan > _SUPPORT_TOL
    out = np.zeros_like(plan)
    ra = a.astype(np.float64).copy()
    rb = b.astype(np.float64).copy()
    sup = support.copy()
    for _ in range(sup.size + len(a) + len(b)):
        progressed = False
        row_deg = sup.sum(axis=1)
        for i in np.flatnonzero(row_deg == 1):
            j = int(np.argmax(sup[i]))
            out[i, j] = ra[i]
            rb[j] -= ra[i]
            ra[i] = 0.0
            sup[i, j] = False
            progressed = True
        col_deg = sup.sum(axis=0)
        for j in np.flatnonzero(col_deg == 1):
            i = int(np.argmax(sup[:, j]))
            out[i, j] = rb[j]
            ra[i] -= rb[j]
            rb[j] = 0.0
            sup[i, j] = False
            progressed = True
        if not progressed:
            break
    if sup.any():
        return plan
    return np.maximum(out, 0.0)


def lp_oracle(cost: np.ndarray, a: np.ndarray, b: np.ndarray) -> Coupling:
    """Exact optimum of the unregularized transport problem.

    Formulates the bipartite flow LP (row sums = a, column sums = b, one
    redundant constraint dropped) and solves it with HiGHS, then snaps the
    flows exactly onto the optimal support. Restricted to instances with
    at most MAX_LP_POINTS points of positive weight, the size of the LP.
    """
    return _solve_on_support(cost, a, b, _transport_lp)


def _transport_lp(C: np.ndarray, a: np.ndarray, b: np.ndarray):
    """The transportation LP on strictly positive marginals, flows made exact."""
    n, m = C.shape
    if n + m > MAX_LP_POINTS:
        raise NumericError(f"lp_oracle limited to {MAX_LP_POINTS} weighted points, got {n + m}")
    # Row-sum then column-sum constraints on the row-major flattened plan.
    A_eq = np.vstack([np.kron(np.eye(n), np.ones(m)), np.kron(np.ones(n), np.eye(m))])[:-1]
    b_eq = np.concatenate([a, b])[:-1]
    res = linprog(C.ravel(), A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if not res.success:  # pragma: no cover - feasible by construction
        raise RuntimeError(f"transportation LP failed: {res.message}")
    plan = _refine_support_flows(res.x.reshape(n, m), a, b)
    return plan, int(getattr(res, "nit", 0)), True
