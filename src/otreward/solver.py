"""Entropic optimal transport between weighted measures.

``sinkhorn`` runs Sinkhorn iterations for the entropy-regularized problem
min <C, P> - eps * H(P)  over couplings with prescribed marginals, as
matrix-vector scalings (Cuturi 2013) on a stabilized kernel (Schmitzer
2019): the dual potentials are absorbed into the kernel, and a half-step
whose kernel sums would underflow runs in the log domain instead, so small
eps and large costs stay stable. The kernel is truncated (Schmitzer 2019):
entries below _KERNEL_ENTRY_MIN = 1e-220 are stored as 0, which keeps
subnormal operands, and x86's slow path on them, out of the matvecs. exp
arguments are raised to _EXP_FLOOR = log(_KERNEL_ENTRY_MIN) - 1, which keeps
exp off its slow path for results that underflow and moves no result. A plain
half-step only uses kernel sums of at least _KERNEL_SUM_MIN with scalings of
at most 1 / _KERNEL_SUM_MIN, so while T and T' are at most 10,000 all dropped
entries of a row or column together lie below the last bit of any such sum.
The iterates are the textbook ones. Every guard is still decided on every
iteration, once per block of iterations: the underflow test exactly, by one
minimum over the block, and the stop rule after an L-infinity screen that
passes every iteration whose plan could meet the tolerance. The first block is
a single iteration when the first kernel has a column that must underflow. The
loop calls ndarray.dot: np.dot's C routine without its __array_function__
dispatch, so the same bits.

Zero-weight rows and columns (padding) are removed before the solve and
re-inserted as exactly-zero rows/columns of the plan, so padded and
unpadded problems produce identical couplings on the shared support; with
no padding the solve runs on the cost itself, uncopied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DimensionMismatch, NumericError
from .measures import check_weights

# A kernel sum below this sends a Sinkhorn half-step to the log domain.
_KERNEL_SUM_MIN = 1e-100
# Kernel entries below this are stored as 0. A plain half-step only uses
# kernel sums >= _KERNEL_SUM_MIN = 1e-100, with scalings <= 1e100. A row sum
# runs over T' terms and a column sum over T, so the dropped entries of a sum
# add at most n * 1e-220 * 1e100 to it, a share of at most n * 1e-20, where
# n = max(T, T'). For n <= 10,000 that share is below 2**-53: the last bit of
# the sum (at the paper's T = T' = 1000, a tenth of it). Longer episodes are
# not refused, but there the share grows past the last bit: at n = 100,000
# it is 1e-15 of a sum, several ulps. An addend under half an ulp can still
# move a sum through a rounding tie; in a sweep of 1,320 solves (cosine and
# squared-Euclidean, eps 0.1 to 0.001) one reward vector moved by 1 ulp, and
# no iteration count, flag or cost.
_KERNEL_ENTRY_MIN = 1e-220
# exp arguments are raised to at least this, as numpy's exp is slow where it
# underflows (118 us against 9.6 us on an 80 x 80 kernel). No result moves: a
# lower argument gives an entry below _KERNEL_ENTRY_MIN / e, stored as 0 either
# way, and 1e200 times below the last bit of the rebuilt row sum (>= 1) it is in.
_EXP_FLOOR = math.log(_KERNEL_ENTRY_MIN) - 1
# Sinkhorn iterations run between two evaluations of the guards.
_BLOCK = 32
_FLOAT64_EPS = np.finfo(np.float64).eps


@dataclass(frozen=True)
class SinkhornParams:
    """Entropic regularization strength and iteration limits."""

    epsilon: float = 0.01
    max_iterations: int = 1000
    marginal_tolerance: float = 1e-6

    def __post_init__(self):
        if not 0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be finite and > 0, got {self.epsilon}")
        # bool is a subclass of int, so isinstance alone would let True through.
        if (isinstance(self.max_iterations, bool)
                or not isinstance(self.max_iterations, (int, np.integer))):
            raise ValueError(f"max_iterations must be an integer, got {self.max_iterations!r}")
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


def _solve_on_support(cost, a, b, solve) -> Coupling:
    """Validate, solve on the positive-weight block, re-embed as a Coupling.

    solve(sub_cost, sub_a, sub_b) runs on strictly positive marginals and
    returns (plan, iterations, converged). Zero-weight rows and columns of
    the full plan are exactly zero.
    """
    cost = np.ascontiguousarray(cost, dtype=np.float64)  # row-major, as a support copy is
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if cost.ndim != 2:
        raise DimensionMismatch(f"cost must be a matrix, got shape {cost.shape}")
    if a.shape != (cost.shape[0],) or b.shape != (cost.shape[1],):
        raise DimensionMismatch(
            f"marginals ({a.shape}, {b.shape}) do not match cost shape {cost.shape}"
        )
    if not np.isfinite(cost).all():
        raise NumericError("cost matrix contains NaN or infinite entries")
    check_weights(a, "marginal weights", NumericError)
    check_weights(b, "marginal weights", NumericError)

    full = a.min() > 0 and b.min() > 0  # as always when labeling: no copy, no scatter back
    rows, cols = (slice(None), slice(None)) if full else (a > 0, b > 0)
    sub = cost if full else cost[np.ix_(rows, cols)]
    plan_sub, iterations, converged = solve(sub, a[rows], b[cols])

    plan = plan_sub
    if not full:
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


def _half_step(C, eps, G, sums, target, pot, other_pot, other_scale):
    """One Sinkhorn half-step along the rows of (C, G), given sums = G @ other_scale.

    The update is scale = target / sums unless a kernel sum is below
    _KERNEL_SUM_MIN (none can overflow: G's entries stay <= 1 and a scaling
    stays <= 1 / _KERNEL_SUM_MIN). Then other_scale is absorbed into
    other_pot, pot = log(target) - logsumexp(other_pot - C/eps) is computed
    in the log domain, its exp pass rebuilds G = exp(pot + other_pot - C/eps),
    and both scalings become ones. The rebuilt G is truncated as the first
    kernel is: entries below _KERNEL_ENTRY_MIN become 0. Used on (C, G) for
    rows and (C.T, G.T) for columns; returns (pot, scale, other_pot, other_scale).
    """
    if sums.min() >= _KERNEL_SUM_MIN:
        return pot, target / sums, other_pot, other_scale
    other_pot = other_pot + np.log(other_scale)
    np.subtract(other_pot, C / eps, out=G)
    top = G.max(axis=1)
    G -= top[:, None]
    np.exp(np.maximum(G, _EXP_FLOOR, out=G), out=G)
    sums = G.sum(axis=1)
    G *= (target / sums)[:, None]
    np.multiply(G, G >= _KERNEL_ENTRY_MIN, out=G)
    pot = np.log(target) - top - np.log(sums)
    return pot, np.ones_like(target), other_pot, np.ones_like(other_scale)


def _sinkhorn_active(
    C: np.ndarray, a: np.ndarray, b: np.ndarray, params: SinkhornParams
) -> tuple[np.ndarray, int, bool]:
    """Stabilized kernel-space Sinkhorn on strictly positive marginals.

    The potentials u = f + log(su), v = g + log(sv) are split into
    log-potentials (f, g) absorbed into the kernel G = exp(f + g - C/eps) and
    scalings (su, sv); the plan is diag(su) G diag(sv). Each iteration is the
    textbook pair u = log a - logsumexp(v - C/eps), v = log b - logsumexp(u - C/eps).

    Setup builds the first kernel in place and each row view once; an SV row
    ends one step and starts the next.

    Blocks of at most _BLOCK plain updates keep their iterates in rows of SU,
    RS, CS, SV; every guard is then decided for every iteration, in order. The
    underflow test is exact, as a minimum ignores summation order: one minimum
    over the block's RS | CS buffer, then a row search only if it fires. The
    L-infinity plan check runs where the matvec row residual, screened in the
    preallocated RES buffer, is within tol plus slack. A candidate that fails
    it with an identical next iterate is a fixpoint: every later iteration
    repeats it, so it is the capped result.
    Rows after the first underflow are dropped; its half-steps rerun. Blocks
    are cut where the last one's residual decay predicts tol; no iterate moves.
    The first block is one iteration when a column of the first kernel has no
    entry >= _KERNEL_SUM_MIN: as su <= a, that column's first sum is then
    below _KERNEL_SUM_MIN, and the block would end there anyway.
    """
    tol, eps = params.marginal_tolerance, params.epsilon
    f, su = C.min(axis=1) / eps, np.ones(len(a))
    g, sv = np.zeros(len(b)), np.ones(len(b))
    G = C / eps  # then exp(f - C/eps) in place: every row holds a 1, so no first-step underflow
    np.exp(np.maximum(np.subtract(f[:, None], G, out=G), _EXP_FLOOR, out=G), out=G)
    np.multiply(G, G >= _KERNEL_ENTRY_MIN, out=G)
    SU, SV = np.empty((_BLOCK + 1, len(a))), np.empty((_BLOCK + 1, len(b)))
    SUMS = np.empty((_BLOCK, len(a) + len(b)))  # row i holds [RS[i] | CS[i]]
    RS, CS = SUMS[:, :len(a)], SUMS[:, len(a):]
    RES, ROWS = np.empty((_BLOCK, len(a))), np.arange(_BLOCK)  # row residuals, row numbers
    sv_rows = list(SV)  # row i + 1 ends step i and starts step i + 1
    steps = list(zip(sv_rows, RS, SU[1:], CS, sv_rows[1:]))
    # The matvec and plan row sums reach the row mass su_i * sum_j G_ij sv_j
    # through len(b) + 1 roundings each, so in any summation order they differ
    # by at most 2 * len(b) * eps times it (Higham's gamma bound), and a row
    # that passes the plan check has mass <= a.max() + tol. The factor 2 on top
    # covers rounding the residuals and tol + slack: no passing plan is skipped.
    slack = 4 * len(b) * _FLOAT64_EPS * (a.max() + tol)
    # A column all below _KERNEL_SUM_MIN puts G.min() below it: the cheap test goes first.
    must_underflow = G.min() < _KERNEL_SUM_MIN and G.max(axis=0).min() < _KERNEL_SUM_MIN
    it, k = 0, 1 if must_underflow else _BLOCK
    cap, bound, dot, divide = params.max_iterations, tol + slack, G.dot, np.divide
    # Only discarded rows, past an underflow, divide by 0 or hold NaN; elsewhere
    # every operand is finite and every divisor and log argument positive.
    with np.errstate(all="ignore"):
        while it < cap:
            k = min(k, cap - it)
            SU[0], SV[0] = su, sv
            for sv0, rs, su1, cs, sv1 in steps[:k]:
                dot(sv0, rs)
                divide(a, rs, su1)
                su1.dot(G, cs)
                divide(b, cs, sv1)
            # Rows past an underflow may hold NaN, which fails every comparison. x[x.argmin()]
            # is x.min(), NaN included, without a reduction's fixed cost; likewise argmax.
            low = not SUMS[:k].ravel()[SUMS[:k].argmin()] >= _KERNEL_SUM_MIN
            done = int(np.argmin(SUMS[:k].min(axis=1) >= _KERNEL_SUM_MIN)) + 1 if low else k
            R = np.multiply(SU[:done], RS[:done], out=RES[:done])
            np.abs(np.subtract(R, a, out=R), out=R)
            R = R[ROWS[:done], R.argmax(axis=1)]  # each row's largest residual
            if R[R.argmin()] <= bound:
                for j in np.flatnonzero(R <= bound):
                    if it + j > 0:
                        plan = SU[j][:, None] * G * SV[j]
                        if (np.abs(plan.sum(axis=1) - a).max() <= tol
                                and np.abs(plan.sum(axis=0) - b).max() <= tol):
                            return plan, it + int(j) + 1, True
                        if (j + 1 < done and np.array_equal(SU[j + 1], SU[j])
                                and np.array_equal(SV[j + 1], SV[j])):
                            return plan, cap, False
            su, sv = SU[done], SV[done]
            if low:
                f, su, g, sv = _half_step(C, eps, G, RS[done - 1], a, f, g, SV[done - 1])
                g, sv, f, su = _half_step(C.T, eps, G.T, np.dot(su, G), b, g, f, su)
            it += done
            k = _BLOCK  # unless R, falling geometrically from r0 to r1, should meet tol sooner
            r0, r1 = float(R[0]), float(R[-1])
            if not low and done > 1 and tol < r1 and r1 * r1 < tol * r0:
                rate = (math.log(r1) - math.log(r0)) / (done - 1)
                k = min(_BLOCK, 1 + math.ceil((math.log(tol) - math.log(r1)) / rate))
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

    Kernel entries below 1e-220 are dropped. That keeps plans bit-exact
    (bar a rare 1-ulp rounding tie) only while max(T, T') <= 10,000, where
    the dropped entries lie below the last bit of every kernel sum. Longer
    episodes are not refused; their plans may move by a few ulps.
    """
    return _solve_on_support(cost, a, b, partial(_sinkhorn_active, params=params))
