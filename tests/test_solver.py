import itertools
import tracemalloc

import numpy as np
import pytest
from scipy.special import logsumexp

from otreward import CostKind, SinkhornParams, sinkhorn
from otreward.solver import (
    _BLOCK,
    _EXP_FLOOR,
    _KERNEL_ENTRY_MIN,
    _KERNEL_SUM_MIN,
    _half_step,
    _sinkhorn_active,
)
from otreward.errors import DimensionMismatch, NumericError

from conftest import random_cost_instance
from lp_oracle import lp_oracle


def uniform(n):
    return np.full(n, 1.0 / n)


def brute_force_permutation_cost(C):
    """Exact optimum over permutation plans for equal-size uniform marginals."""
    n = C.shape[0]
    best = np.inf
    for perm in itertools.permutations(range(n)):
        plan = np.zeros((n, n))
        for i, j in enumerate(perm):
            plan[i, j] = 1.0 / n
        best = min(best, float((plan * C).sum()))
    return best


def test_sinkhorn_one_by_one():
    C = np.array([[0.7]])
    coupling = sinkhorn(C, np.array([1.0]), np.array([1.0]))
    assert np.allclose(coupling.plan, [[1.0]])
    assert coupling.transport_cost == pytest.approx(0.7)
    assert coupling.converged


def test_sinkhorn_two_by_two_permutation():
    C = np.array([[0.0, 1.0], [1.0, 0.0]])
    coupling = sinkhorn(C, uniform(2), uniform(2), SinkhornParams(epsilon=0.01))
    assert np.abs(coupling.plan - np.array([[0.5, 0.0], [0.0, 0.5]])).max() <= 1e-3
    assert coupling.transport_cost < 1e-2


def test_sinkhorn_cost_approaches_lp_as_epsilon_shrinks(rng):
    C, a, b = random_cost_instance(rng, 4, 6)
    exact = lp_oracle(C, a, b).transport_cost
    costs = []
    for eps in (1.0, 0.1, 0.01):
        costs.append(sinkhorn(C, a, b, SinkhornParams(epsilon=eps)).transport_cost)
    assert costs[0] >= costs[1] - 1e-9
    assert costs[1] >= costs[2] - 1e-9
    assert costs[2] - exact < 0.05 * C.max()


def test_lp_oracle_zero_cost_matching():
    C = np.array([[0.0, 1.0], [1.0, 0.0]])
    coupling = lp_oracle(C, uniform(2), uniform(2))
    assert np.array_equal(coupling.plan, np.array([[0.5, 0.0], [0.0, 0.5]]))
    assert coupling.transport_cost == 0.0


@pytest.mark.parametrize("seed", range(10))
def test_lp_oracle_matches_permutation_enumeration(seed):
    rng = np.random.default_rng(seed)
    C = rng.uniform(0.0, 2.0, size=(3, 3))
    coupling = lp_oracle(C, uniform(3), uniform(3))
    assert coupling.transport_cost == brute_force_permutation_cost(C)


def test_lp_oracle_splits_single_supply():
    C = np.array([[0.3, 0.9]])
    coupling = lp_oracle(C, np.array([1.0]), np.array([0.5, 0.5]))
    assert np.allclose(coupling.plan, [[0.5, 0.5]])
    assert coupling.transport_cost == pytest.approx(0.5 * (0.3 + 0.9))


def test_validation_errors(rng):
    C = rng.uniform(size=(3, 4))
    with pytest.raises(NumericError, match="marginal weights must sum to 1, got 1.5$"):
        sinkhorn(C, np.full(3, 0.5), uniform(4))
    with pytest.raises(NumericError, match="marginal weights must be nonnegative"):
        sinkhorn(C, np.array([1.5, -0.25, -0.25]), uniform(4))
    for bad, message in ((np.nan, "must be nonnegative and not NaN"),
                         (np.inf, "marginal weights must sum to 1, got inf$")):
        with pytest.raises(NumericError, match=message):
            sinkhorn(C, np.array([bad, 0.5, 0.5]), uniform(4))
        with pytest.raises(NumericError, match=message):
            sinkhorn(C, uniform(3), np.array([bad, 0.5, 0.25, 0.25]))
    with pytest.raises(NumericError, match="cost matrix contains NaN"):
        bad = C.copy()
        bad[0, 0] = np.nan
        sinkhorn(bad, uniform(3), uniform(4))
    with pytest.raises(DimensionMismatch):
        sinkhorn(C, uniform(4), uniform(4))
    with pytest.raises(DimensionMismatch, match="cost must be a matrix"):
        sinkhorn(C[0], uniform(4), uniform(4))
    with pytest.raises(NumericError, match="lp_oracle limited to 64 weighted points"):
        lp_oracle(rng.uniform(size=(40, 40)), uniform(40), uniform(40))


@pytest.mark.parametrize("seed", range(8))
def test_marginal_feasibility_when_converged(seed):
    rng = np.random.default_rng(seed)
    rows, cols = int(rng.integers(2, 30)), int(rng.integers(2, 30))
    C, a, b = random_cost_instance(rng, rows, cols)
    params = SinkhornParams()
    coupling = sinkhorn(C, a, b, params)
    if coupling.converged:
        assert np.abs(coupling.plan.sum(axis=1) - a).max() <= params.marginal_tolerance
        assert np.abs(coupling.plan.sum(axis=0) - b).max() <= params.marginal_tolerance
    assert np.all(coupling.plan >= 0.0)


@pytest.mark.parametrize("seed", range(8))
def test_regularized_cost_never_beats_exact_optimum(seed):
    # Needs near-exact feasibility: a plan with marginal residual r can
    # undercut the true optimum by about r * max(C), so the solve runs at
    # a tolerance far below the 1e-9 slack being asserted.
    rng = np.random.default_rng(100 + seed)
    rows, cols = int(rng.integers(2, 8)), int(rng.integers(2, 8))
    C, a, b = random_cost_instance(rng, rows, cols)
    exact = lp_oracle(C, a, b).transport_cost
    for eps in (0.5, 0.05):
        params = SinkhornParams(
            epsilon=eps, max_iterations=100000, marginal_tolerance=1e-11
        )
        coupling = sinkhorn(C, a, b, params)
        assert coupling.converged
        assert coupling.transport_cost >= exact - 1e-9


@pytest.mark.parametrize("seed", range(6))
def test_cost_monotone_in_epsilon(seed):
    rng = np.random.default_rng(200 + seed)
    C, a, b = random_cost_instance(rng, 5, 7)
    for eps in (1.0, 0.1):
        coarse = sinkhorn(C, a, b, SinkhornParams(epsilon=eps)).transport_cost
        fine = sinkhorn(C, a, b, SinkhornParams(epsilon=eps / 10)).transport_cost
        assert fine <= coarse + 1e-9


def textbook_sinkhorn_plan(C, a, b, eps, iterations):
    """Reference log-domain Sinkhorn: full log-sum-exp row, then column, updates."""
    K = -C / eps
    u = np.zeros(len(a))
    v = np.zeros(len(b))
    for _ in range(iterations):
        u = np.log(a) - logsumexp(K + v[None, :], axis=1)
        v = np.log(b) - logsumexp(K + u[:, None], axis=0)
    return np.exp(u[:, None] + K + v[None, :])


# Cosine cases keep C/eps <= 200, where the kernel sums stay in range. The
# squared-Euclidean (d = 14, eps = 0.01) and cosine eps = 0.001 cases put
# C/eps in the thousands, so the kernel underflows and half-steps run in
# the log domain.
TEXTBOOK_CASES = [
    pytest.param(CostKind.COSINE, eps, seed, id=f"{eps}-{seed}")
    for eps in (0.01, 0.05, 0.5)
    for seed in range(3)
] + [
    pytest.param(kind, eps, seed, id=f"{kind.value}-{eps}-{seed}")
    for kind, eps in ((CostKind.SQUARED_EUCLIDEAN, 0.01), (CostKind.COSINE, 0.001))
    for seed in range(3)
]


@pytest.mark.parametrize("kind, eps, seed", TEXTBOOK_CASES)
def test_iterates_match_textbook_updates(kind, eps, seed):
    rng = np.random.default_rng(300 + seed)
    rows, cols = int(rng.integers(3, 20)), int(rng.integers(3, 20))
    dim = 4 if kind is CostKind.COSINE else 14
    C, a, b = random_cost_instance(rng, rows, cols, dim=dim, cost=kind)
    if kind is CostKind.SQUARED_EUCLIDEAN or eps == 0.001:
        assert (C / eps).max() > 1000
    for k in (1, 2, 5, 50):
        # A tolerance no plan reaches, so the solver runs exactly k updates.
        params = SinkhornParams(
            epsilon=eps, max_iterations=k, marginal_tolerance=np.finfo(float).tiny
        )
        coupling = sinkhorn(C, a, b, params)
        assert not coupling.converged
        assert coupling.iterations == k
        expected = textbook_sinkhorn_plan(C, a, b, eps, k)
        assert np.abs(coupling.plan - expected).max() <= 1e-12


def unfloored_first_kernel(C, eps):
    """The solver's first log-potentials f and kernel, with no floor on exp's arguments."""
    f = C.min(axis=1) / eps
    G = np.exp(f[:, None] - C / eps)
    G[G < _KERNEL_ENTRY_MIN] = 0  # the solver's truncation of the first kernel
    return f, G


def unfloored_half_step(C, eps, G, sums, target, pot, other_pot, other_scale):
    """The solver's _half_step with no floor on exp's arguments: the reference for its rebuilds."""
    if sums.min() >= _KERNEL_SUM_MIN:
        return pot, target / sums, other_pot, other_scale
    other_pot = other_pot + np.log(other_scale)
    np.subtract(other_pot, C / eps, out=G)
    top = G.max(axis=1)
    G -= top[:, None]
    np.exp(G, out=G)
    sums = G.sum(axis=1)
    G *= (target / sums)[:, None]
    G[G < _KERNEL_ENTRY_MIN] = 0
    pot = np.log(target) - top - np.log(sums)
    return pot, np.ones_like(target), other_pot, np.ones_like(other_scale)


def per_iteration_sinkhorn(C, a, b, params):
    """Reference: the solver loop with the plan check made on every iteration."""
    tol = params.marginal_tolerance
    eps = params.epsilon
    f, G = unfloored_first_kernel(C, eps)
    su, g, sv = np.ones(len(a)), np.zeros(len(b)), np.ones(len(b))
    converged = False
    for it in range(params.max_iterations):
        row_sums = np.dot(G, sv)
        if it > 0:
            plan = su[:, None] * G * sv
            if (np.abs(plan.sum(axis=1) - a).max() <= tol
                    and np.abs(plan.sum(axis=0) - b).max() <= tol):
                converged = True
                break
        f, su, g, sv = unfloored_half_step(C, eps, G, row_sums, a, f, g, sv)
        g, sv, f, su = unfloored_half_step(C.T, eps, G.T, np.dot(su, G), b, g, f, su)
    else:
        plan = su[:, None] * G * sv
    return plan, it + 1, converged


def _oracle_instance(seed, kind, dim, max_rows=65):
    rng = np.random.default_rng(seed)
    rows, cols = int(rng.integers(3, max_rows + 1)), int(rng.integers(3, max_rows + 1))
    return random_cost_instance(rng, rows, cols, dim=dim, cost=kind)


def _far_column_instance():
    """Uniform weights, costs drawn from U(0, 1), and one column that costs 10 from every row.

    At eps = 0.01 that column's kernel entries are all 0, so the first column
    sum is exactly 0: its scaling is inf, and every later row of the first
    block holds NaN sums, which fail every comparison.
    """
    rng = np.random.default_rng(404)
    C = np.hstack([rng.uniform(size=(9, 6)), np.full((9, 1), 10.0)])
    return C, np.full(9, 1 / 9), np.full(7, 1 / 7)


# (instance, params, reference converges?). The squared-Euclidean and
# eps = 0.001 instances send half-steps to the log domain mid-block; the
# 1x1 instance passes the screen at iteration 0, which never decides; the
# tolerance-1e-20 instances reach a bitwise fixpoint that passes the screen
# on every later iteration without passing the explicit check; at 300x300 the
# row RMS falls below tol long before the largest row residual does.
BLOCK_ORACLE_CASES = [
    pytest.param(_oracle_instance(seed, CostKind.COSINE, 3),
                 SinkhornParams(epsilon=eps), True, id=f"demo-{eps}-{seed}")
    for eps in (0.05, 0.01)
    for seed in (401, 402, 403)
] + [
    pytest.param(_oracle_instance(seed, kind, dim), SinkhornParams(epsilon=eps,
                 max_iterations=300), False, id=f"log-domain-{kind.value}-{seed}")
    for kind, dim, eps in ((CostKind.SQUARED_EUCLIDEAN, 14, 0.01), (CostKind.COSINE, 3, 0.001))
    for seed in (500, 501, 502)
] + [
    pytest.param(random_cost_instance(np.random.default_rng(7), 100, 100, dim=8),
                 SinkhornParams(), False, id="capped-100x100"),
    pytest.param(random_cost_instance(np.random.default_rng(7), 300, 300, dim=17),
                 SinkhornParams(), False, id="capped-300x300"),
    pytest.param((np.array([[0.7]]), np.ones(1), np.ones(1)), SinkhornParams(), True,
                 id="one-by-one"),
    pytest.param(_oracle_instance(300, CostKind.COSINE, 4, max_rows=19),
                 SinkhornParams(epsilon=0.5, max_iterations=100, marginal_tolerance=1e-20),
                 False, id="fixpoint-1e-20"),
    pytest.param(_oracle_instance(300, CostKind.COSINE, 4, max_rows=19),
                 SinkhornParams(epsilon=0.5, max_iterations=1000, marginal_tolerance=1e-20),
                 False, id="fixpoint-1e-20-capped-1000"),
] + [
    pytest.param(_oracle_instance(seed, kind, 14), SinkhornParams(epsilon=0.01,
                 max_iterations=k), False, id=f"cap-{k}-{kind.value}-{seed}")
    for k in (1, _BLOCK - 1, _BLOCK, _BLOCK + 1)
    for kind in (CostKind.COSINE, CostKind.SQUARED_EUCLIDEAN)
    for seed in (500, 502)
] + [
    pytest.param(_far_column_instance(), SinkhornParams(epsilon=0.01), True,
                 id="underflow-then-nan"),
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("instance, params, converges", BLOCK_ORACLE_CASES)
def test_block_screen_matches_per_iteration_loop(instance, params, converges):
    C, a, b = instance
    expected, iterations, converged = per_iteration_sinkhorn(C, a, b, params)
    assert converged == converges
    plan, got_iterations, got_converged = _sinkhorn_active(C, a, b, params)
    assert np.array_equal(plan, expected)
    assert (got_iterations, got_converged) == (iterations, converged)


class _CountingNumpy:
    """numpy, counting the solver's plan marginal checks and computed iterations.

    plan_checks counts calls of abs on 1-D arrays. divides counts np.divide
    calls, two per computed iteration; first_guard is that count when abs is
    first called, as the first block's guards are evaluated.
    """

    def __init__(self):
        self.plan_checks = 0
        self.divides = 0
        self.first_guard = None

    def __getattr__(self, name):
        return getattr(np, name)

    def abs(self, x, *args, **kwargs):
        if self.first_guard is None:
            self.first_guard = self.divides
        self.plan_checks += np.ndim(x) == 1
        return np.abs(x, *args, **kwargs)

    def divide(self, *args, **kwargs):
        self.divides += 1
        return np.divide(*args, **kwargs)


def test_screen_builds_no_plan_that_cannot_pass(monkeypatch):
    # At 300x300 the row RMS sits below tol for about 400 iterations before
    # the largest row residual does; a screen on it would build a plan on each.
    C, a, b = random_cost_instance(np.random.default_rng(7), 300, 300, dim=17)
    counting = _CountingNumpy()
    monkeypatch.setattr("otreward.solver.np", counting)
    _, iterations, converged = _sinkhorn_active(C, a, b, SinkhornParams(epsilon=0.01))
    assert (iterations, converged) == (1000, False)
    assert counting.plan_checks == 0


def test_fixpoint_ends_the_plan_checks(monkeypatch):
    # After 27 iterations the iterates repeat bit for bit and pass the screen;
    # the plan that fails the check there fails it on every later iteration.
    C, a, b = _oracle_instance(300, CostKind.COSINE, 4, max_rows=19)
    params = SinkhornParams(epsilon=0.5, max_iterations=1000, marginal_tolerance=1e-20)
    counting = _CountingNumpy()
    monkeypatch.setattr("otreward.solver.np", counting)
    _, iterations, converged = _sinkhorn_active(C, a, b, params)
    assert (iterations, converged) == (1000, False)
    assert counting.plan_checks <= _BLOCK


@pytest.mark.parametrize("kind, iterations", [
    (CostKind.COSINE, 50), (CostKind.SQUARED_EUCLIDEAN, 200)])
def test_solve_holds_three_cost_sized_arrays_at_most(kind, iterations):
    # At the paper's T = 1000 a solve holds the kernel G beside the caller's
    # cost; building the plan adds the plan and one product: three T x T'
    # arrays at the peak. A stored log-kernel -C/eps would make it four.
    C, a, b = random_cost_instance(np.random.default_rng(23), 1000, 1000, dim=17, cost=kind)
    tracemalloc.start()
    try:
        sinkhorn(C, a, b, SinkhornParams(max_iterations=iterations))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * C.nbytes


def _holds_nonzero_below(G, bound):
    return bool(((G > 0) & (G < bound)).any())


def test_kernel_holds_no_subnormals(monkeypatch):
    # Squared-Euclidean costs at d = 14 and eps = 0.01 put C/eps in the
    # thousands: exp(K + f) underflows to subnormals, and half-steps run in
    # the log domain, where the kernel is rebuilt.
    C, a, b = _oracle_instance(500, CostKind.SQUARED_EUCLIDEAN, 14)
    params = SinkhornParams(epsilon=0.01, max_iterations=300)
    K = -C / params.epsilon
    assert _holds_nonzero_below(np.exp(K - K.max(axis=1)[:, None]), np.finfo(float).tiny)
    kernels, rebuilt = [], []

    def recording_half_step(C, eps, G, sums, *rest):
        kernels.append(G.copy())  # the first holds the first kernel as built
        out = _half_step(C, eps, G, sums, *rest)
        if sums.min() < _KERNEL_SUM_MIN:
            rebuilt.append(G.copy())
        return out

    monkeypatch.setattr("otreward.solver._half_step", recording_half_step)
    _sinkhorn_active(C, a, b, params)
    assert kernels and rebuilt
    assert not any(_holds_nonzero_below(G, _KERNEL_ENTRY_MIN) for G in kernels + rebuilt)


def _layout_copies(args):
    """Copies of a half-step's arguments, each array in its own memory order."""
    return [np.copy(x, order="K") if isinstance(x, np.ndarray) else x for x in args]


def _lowest_exp_argument(C, eps, G, sums, target, pot, other_pot, other_scale):
    X = other_pot + np.log(other_scale) - C / eps
    return (X - X.max(axis=1)[:, None]).min()


# Squared-Euclidean state-action costs as the CLI benchmark labels them (d = 14,
# eps = 0.01, T and T' in [20, 80], run to the cap), and cosine costs at
# eps = 0.001, give exp arguments far below _EXP_FLOOR in both kernel builds.
@pytest.mark.parametrize("rows, cols, kind, dim, eps", [
    (80, 80, CostKind.SQUARED_EUCLIDEAN, 14, 0.01),
    (80, 20, CostKind.SQUARED_EUCLIDEAN, 14, 0.01),
    (20, 80, CostKind.SQUARED_EUCLIDEAN, 14, 0.01),
    (100, 100, CostKind.COSINE, 8, 0.001),
    (20, 80, CostKind.COSINE, 3, 0.001),
])
def test_exp_floor_moves_no_kernel_bit(monkeypatch, rows, cols, kind, dim, eps):
    C, a, b = random_cost_instance(np.random.default_rng(0), rows, cols, dim=dim, cost=kind)
    first_kernel, rebuilds = [], []

    def recording_half_step(*args):
        G, sums = args[2], args[3]
        if not first_kernel:
            first_kernel.append(G.copy())  # no rebuild has run yet
        if sums.min() < _KERNEL_SUM_MIN:
            rebuilds.append(_layout_copies(args))
        return _half_step(*args)

    monkeypatch.setattr("otreward.solver._half_step", recording_half_step)
    _, iterations, _ = _sinkhorn_active(C, a, b, SinkhornParams(epsilon=eps))
    assert iterations == 1000 and rebuilds
    f, expected = unfloored_first_kernel(C, eps)
    assert (f[:, None] - C / eps).min() < _EXP_FLOOR
    assert np.array_equal(first_kernel[0], expected)
    assert min(_lowest_exp_argument(*args) for args in rebuilds) < _EXP_FLOOR
    for args in rebuilds:
        floored = _layout_copies(args)
        got, want = _half_step(*floored), unfloored_half_step(*args)
        assert np.array_equal(floored[2], args[2])  # the rebuilt kernel
        assert all(np.array_equal(x, y) for x, y in zip(got, want))


# Squared-Euclidean costs at d = 14 and eps = 0.01 leave a column of the first
# kernel with no entry >= _KERNEL_SUM_MIN, so its first column sum underflows;
# cosine costs at eps = 0.01 keep every kernel entry above exp(-200).
@pytest.mark.parametrize("instance, first_block, first_fallback", [
    pytest.param(_oracle_instance(500, CostKind.SQUARED_EUCLIDEAN, 14), 1, [1],
                 id="squared-euclidean-underflows"),
    pytest.param(random_cost_instance(np.random.default_rng(7), 100, 100, dim=8), _BLOCK, [],
                 id="capped-100x100"),
])
def test_first_block_is_cut_only_where_it_must_underflow(
        monkeypatch, instance, first_block, first_fallback):
    C, a, b = instance
    counting = _CountingNumpy()
    fallbacks = []  # iterations computed before each log-domain fallback

    def recording_half_step(*args):
        fallbacks.append(counting.divides // 2)
        return _half_step(*args)

    monkeypatch.setattr("otreward.solver.np", counting)
    monkeypatch.setattr("otreward.solver._half_step", recording_half_step)
    _sinkhorn_active(C, a, b, SinkhornParams(epsilon=0.01))
    assert counting.first_guard == 2 * first_block
    assert fallbacks[:1] == first_fallback


def test_deterministic_replay(rng):
    C, a, b = random_cost_instance(rng, 9, 11)
    first = sinkhorn(C, a, b)
    second = sinkhorn(C, a, b)
    assert np.array_equal(first.plan, second.plan)
    assert first.transport_cost == second.transport_cost
    assert first.iterations == second.iterations


@pytest.mark.parametrize("eps", [0.1, 0.01])
def test_zero_diagonal_cost_bound(rng, eps):
    n = 5
    C = rng.uniform(0.5, 2.0, size=(n, n))
    np.fill_diagonal(C, 0.0)
    params = SinkhornParams(epsilon=eps, max_iterations=50000, marginal_tolerance=1e-10)
    coupling = sinkhorn(C, uniform(n), uniform(n), params)
    assert coupling.converged
    assert coupling.transport_cost <= eps * np.log(n) + 1e-6


@pytest.mark.parametrize("solve", [sinkhorn, lp_oracle], ids=["sinkhorn", "lp_oracle"])
def test_zero_weight_rows_masked(rng, solve):
    # Padded (zero-weight) rows must come back with exactly zero mass and
    # must not perturb the solve on the active support.
    C, a, b = random_cost_instance(rng, 6, 5)
    padded_C = np.vstack([C, rng.uniform(size=(2, 5))])
    padded_a = np.concatenate([a, [0.0, 0.0]])
    base = solve(C, a, b)
    wide = solve(padded_C, padded_a, b)
    assert np.all(wide.plan[6:] == 0.0)
    assert np.array_equal(wide.plan[:6], base.plan)
    assert wide.transport_cost == base.transport_cost


# The squared-Euclidean solve runs log-domain half-steps; the 100x100 one is capped.
@pytest.mark.parametrize("instance, params", [
    pytest.param(_oracle_instance(500, CostKind.SQUARED_EUCLIDEAN, 14),
                 SinkhornParams(epsilon=0.01), id="squared-euclidean-log-domain"),
    pytest.param(random_cost_instance(np.random.default_rng(7), 100, 100, dim=8),
                 SinkhornParams(), id="capped-100x100"),
])
def test_full_support_matches_padded_support(instance, params):
    # Full support skips the support copy; padding takes it. A column-major
    # cost must solve as its row-major copy does, or sums change their bits.
    C, a, b = instance
    full = sinkhorn(C, a, b, params)
    padded = sinkhorn(np.pad(C, ((0, 2), (0, 1)), constant_values=0.5),
                      np.append(a, [0.0, 0.0]), np.append(b, 0.0), params)
    fortran = sinkhorn(np.asfortranarray(C), a, b, params)
    assert not padded.plan[len(a):].any() and not padded.plan[:, len(b):].any()
    for other in (padded, fortran):
        assert np.array_equal(other.plan[:len(a), :len(b)], full.plan)
        assert ((other.iterations, other.converged, other.transport_cost)
                == (full.iterations, full.converged, full.transport_cost))


def test_nonconvergence_is_reported_not_fatal(rng):
    C, a, b = random_cost_instance(rng, 12, 14)
    coupling = sinkhorn(C, a, b, SinkhornParams(epsilon=0.001, max_iterations=2))
    assert not coupling.converged
    assert coupling.iterations == 2
    assert np.isfinite(coupling.transport_cost)


def test_params_validation():
    with pytest.raises(ValueError):
        SinkhornParams(epsilon=0.0)
    with pytest.raises(ValueError):
        SinkhornParams(max_iterations=0)
    with pytest.raises(ValueError, match="max_iterations must be an integer, got 1.5"):
        SinkhornParams(max_iterations=1.5)
    assert SinkhornParams(max_iterations=np.int64(7)).max_iterations == 7
    for bad in (True, False):
        with pytest.raises(ValueError, match=f"max_iterations must be an integer, got {bad}"):
            SinkhornParams(max_iterations=bad)
    with pytest.raises(ValueError):
        SinkhornParams(marginal_tolerance=0.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="epsilon"):
            SinkhornParams(epsilon=bad)
        with pytest.raises(ValueError, match="marginal_tolerance"):
            SinkhornParams(marginal_tolerance=bad)
