"""Discrete optimal transport solvers.

Two routes to a coupling between weighted measures:

- ``sinkhorn``: Sinkhorn iterations for the entropy-regularized problem
  min <C, P> - eps * H(P)  over couplings with prescribed marginals, as
  matrix-vector scalings (Cuturi 2013) on a stabilized kernel (Schmitzer
  2019): the dual potentials are absorbed into the kernel, and a
  half-step whose kernel sums would underflow runs in the log domain
  instead, so small eps and large costs stay stable. The kernel holds no
  subnormals: entries below the smallest normal float are stored as 0,
  since x86 takes a slow path on subnormal operands and such an entry lies
  far below the last bit of any kernel sum of at least _KERNEL_SUM_MIN.
  The iterates are the textbook ones. Every guard is still decided on
  every iteration, once per block of iterations: the underflow test
  exactly, and the stop rule after an L-infinity screen that passes every
  iteration whose plan could meet the tolerance.

- ``lp_oracle``: the exact unregularized optimum for small instances,
  solved as the transportation linear program on the bipartite graph
  (supplies a, demands b, arc costs C) and cleaned up to exact flows on
  the optimal support. Intended for verification, not production solves.

Zero-weight rows and columns (padding) are removed before either solve and
re-inserted as exactly-zero rows/columns of the plan, so padded and
unpadded problems produce identical couplings on the shared support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import (
    DimensionMismatch,
    MarginalMismatch,
    NegativeWeight,
    NonFiniteCost,
    TooLarge,
)

MARGINAL_SUM_TOL = 1e-9
MAX_LP_POINTS = 64
# LP flows at or below this are solver noise, not part of the optimal support.
_SUPPORT_TOL = 1e-11
# A kernel sum below this sends a Sinkhorn half-step to the log domain.
_KERNEL_SUM_MIN = 1e-100
# Kernel entries below this, the smallest normal float64, are stored as 0.
# Not larger: su takes short binary values, so su[i] * G[i, j] can fall on a
# rounding tie that the FMA-based matvec breaks differently once any nonzero
# addend precedes it. With a threshold of 1e-280 (or 1e-250, 1e-220), a
# reward of a squared-Euclidean solve at eps = 0.01 moved by 1 ulp.
_KERNEL_ENTRY_MIN = np.finfo(np.float64).tiny
# Sinkhorn iterations run between two evaluations of the guards.
_BLOCK = 32


@dataclass(frozen=True)
class SinkhornParams:
    """Entropic regularization strength and iteration limits."""

    epsilon: float = 0.01
    max_iterations: int = 1000
    marginal_tolerance: float = 1e-6

    def __post_init__(self):
        if not 0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be finite and > 0, got {self.epsilon}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if not 0 < self.marginal_tolerance < math.inf:
            raise ValueError(
                f"marginal_tolerance must be finite and > 0, got {self.marginal_tolerance}"
            )


@dataclass(frozen=True, eq=False)
class Coupling:
    """A transport plan with its marginals and bookkeeping.

    plan is (T, T') nonnegative with row sums ~ row_marginal and column
    sums ~ col_marginal; transport_cost is <C, plan>. Rows/columns whose
    marginal weight is zero carry exactly zero mass.
    """

    plan: np.ndarray
    row_marginal: np.ndarray
    col_marginal: np.ndarray
    transport_cost: float
    converged: bool
    iterations: int


def _validate_instance(cost: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    if cost.ndim != 2:
        raise DimensionMismatch(f"cost must be a matrix, got shape {cost.shape}")
    if a.shape != (cost.shape[0],) or b.shape != (cost.shape[1],):
        raise DimensionMismatch(
            f"marginals ({a.shape}, {b.shape}) do not match cost shape {cost.shape}"
        )
    if not np.isfinite(cost).all():
        raise NonFiniteCost("cost matrix contains NaN or infinite entries")
    if np.any(a < 0) or np.any(b < 0):
        raise NegativeWeight("marginal weights must be nonnegative")
    sa, sb = float(a.sum()), float(b.sum())
    if abs(sa - 1.0) > MARGINAL_SUM_TOL or abs(sb - 1.0) > MARGINAL_SUM_TOL:
        raise MarginalMismatch(f"marginals must each sum to 1, got {sa!r} and {sb!r}")


def _solve_on_support(cost, a, b, solve) -> Coupling:
    """Validate, solve on the positive-weight block, re-embed as a Coupling.

    solve(sub_cost, sub_a, sub_b) runs on strictly positive marginals and
    returns (plan, iterations, converged). Zero-weight rows and columns of
    the full plan are exactly zero.
    """
    cost = np.asarray(cost, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    _validate_instance(cost, a, b)

    rows = a > 0
    cols = b > 0
    sub = cost[np.ix_(rows, cols)]
    plan_sub, iterations, converged = solve(sub, a[rows], b[cols])

    plan = np.zeros_like(cost)
    plan[np.ix_(rows, cols)] = plan_sub
    # Summed over the active block only, so padding a problem with
    # zero-weight rows/columns leaves the reported cost bit-identical.
    transport_cost = float((plan_sub * sub).sum())
    return Coupling(
        plan=plan,
        row_marginal=a,
        col_marginal=b,
        transport_cost=transport_cost,
        converged=converged,
        iterations=iterations,
    )


def _half_step(K, G, sums, target, pot, other_pot, other_scale):
    """One Sinkhorn half-step along the rows of (K, G), given sums = G @ other_scale.

    The update is scale = target / sums unless a kernel sum is below
    _KERNEL_SUM_MIN (none can overflow: G's entries stay <= 1 and a scaling
    stays <= 1 / _KERNEL_SUM_MIN). Then other_scale is absorbed into
    other_pot, pot = log(target) - logsumexp(K + other_pot) is computed in
    the log domain, its exp pass rebuilds G = exp(K + pot + other_pot), and
    both scalings become ones. The rebuilt G holds no subnormals: entries
    below _KERNEL_ENTRY_MIN become 0, as a subnormal operand sends the next
    matvecs down x86's slow path, and such an entry lies far below the last
    bit of a kernel sum >= _KERNEL_SUM_MIN. Used on (K, G) for rows and
    (K.T, G.T) for columns; returns (pot, scale, other_pot, other_scale).
    """
    if sums.min() >= _KERNEL_SUM_MIN:
        return pot, target / sums, other_pot, other_scale
    other_pot = other_pot + np.log(other_scale)
    np.add(K, other_pot, out=G)
    top = G.max(axis=1)
    G -= top[:, None]
    np.exp(G, out=G)
    sums = G.sum(axis=1)
    G *= (target / sums)[:, None]
    G[G < _KERNEL_ENTRY_MIN] = 0
    pot = np.log(target) - top - np.log(sums)
    return pot, np.ones_like(target), other_pot, np.ones_like(other_scale)


def _sinkhorn_active(
    C: np.ndarray, a: np.ndarray, b: np.ndarray, params: SinkhornParams
) -> tuple[np.ndarray, int, bool]:
    """Stabilized kernel-space Sinkhorn on strictly positive marginals.

    The potentials u = f + log(su), v = g + log(sv) are split into
    log-potentials (f, g) absorbed into the kernel G = exp(K + f + g) and
    scalings (su, sv); the plan is diag(su) G diag(sv). Each iteration is
    the textbook pair u = log a - logsumexp(K + v), v = log b - logsumexp(K + u).

    Blocks of _BLOCK plain updates keep their iterates in rows of SU, RS, CS,
    SV; every guard is then decided for every iteration, in order. The
    underflow test is exact, as a minimum ignores summation order; the
    L-infinity plan check runs where the matvec row residual is within tol
    plus slack. Rows after the first underflow are dropped; its half-steps rerun.
    """
    tol = params.marginal_tolerance
    K = -C / params.epsilon
    f, su = -K.max(axis=1), np.ones(len(a))
    g, sv = np.zeros(len(b)), np.ones(len(b))
    G = np.exp(K + f[:, None])  # every row holds a 1, so no first-step underflow
    G[G < _KERNEL_ENTRY_MIN] = 0
    SU, RS = np.empty((_BLOCK + 1, len(a))), np.empty((_BLOCK, len(a)))
    SV, CS = np.empty((_BLOCK + 1, len(b))), np.empty((_BLOCK, len(b)))
    steps = list(zip(SV, RS, SU[1:], CS, SV[1:]))
    # The matvec and plan row sums reach the row mass su_i * sum_j G_ij sv_j
    # through len(b) + 1 roundings each, so in any summation order they differ
    # by at most 2 * len(b) * eps times it (Higham's gamma bound), and a row
    # that passes the plan check has mass <= a.max() + tol. The factor 2 on top
    # covers rounding the residuals and tol + slack: no passing plan is skipped.
    slack = 4 * len(b) * np.finfo(np.float64).eps * (a.max() + tol)
    it = 0
    while it < params.max_iterations:
        k = min(_BLOCK, params.max_iterations - it)
        SU[0], SV[0] = su, sv
        with np.errstate(all="ignore"):  # past an underflow the rows are discarded
            for sv0, rs, su1, cs, sv1 in steps[:k]:
                np.dot(G, sv0, out=rs)
                np.divide(a, rs, out=su1)
                np.dot(su1, G, out=cs)
                np.divide(b, cs, out=sv1)
            low = np.flatnonzero((RS[:k].min(axis=1) < _KERNEL_SUM_MIN)
                                 | (CS[:k].min(axis=1) < _KERNEL_SUM_MIN))
        done = int(low[0]) + 1 if len(low) else k
        R = np.abs(SU[:done] * RS[:done] - a).max(axis=1)
        for j in np.flatnonzero(R <= tol + slack):
            if it + j > 0:
                plan = SU[j][:, None] * G * SV[j]
                if (np.abs(plan.sum(axis=1) - a).max() <= tol
                        and np.abs(plan.sum(axis=0) - b).max() <= tol):
                    return plan, it + int(j) + 1, True
        su, sv = SU[done], SV[done]
        if len(low):
            f, su, g, sv = _half_step(K, G, RS[done - 1], a, f, g, SV[done - 1])
            g, sv, f, su = _half_step(K.T, G.T, np.dot(su, G), b, g, f, su)
        it += done
    return su[:, None] * G * sv, it, False


def sinkhorn(
    cost: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    params: SinkhornParams = SinkhornParams(),
) -> Coupling:
    """Solve entropy-regularized transport between weight vectors a and b.

    Returns a Coupling whose marginals match (a, b) within
    params.marginal_tolerance in the L-infinity sense, or one flagged
    converged=False if the iteration budget runs out. Identical inputs
    always produce bit-identical couplings.
    """
    return _solve_on_support(cost, a, b, partial(_sinkhorn_active, params=params))


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
        raise TooLarge(
            f"lp_oracle limited to {MAX_LP_POINTS} weighted points, got {n + m}"
        )
    from scipy.optimize import linprog  # slow to import; only this oracle needs it

    # Row-sum then column-sum constraints on the row-major flattened plan.
    A_eq = np.vstack([np.kron(np.eye(n), np.ones(m)), np.kron(np.ones(n), np.eye(m))])[:-1]
    b_eq = np.concatenate([a, b])[:-1]
    res = linprog(C.ravel(), A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if not res.success:  # pragma: no cover - feasible by construction
        raise RuntimeError(f"transportation LP failed: {res.message}")
    plan = _refine_support_flows(res.x.reshape(n, m), a, b)
    return plan, int(getattr(res, "nit", 0)), True
