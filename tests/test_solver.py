import itertools

import numpy as np
import pytest
from scipy.special import logsumexp

from otreward import CostKind, SinkhornParams, lp_oracle, sinkhorn
from otreward.errors import (
    DimensionMismatch,
    MarginalMismatch,
    NegativeWeight,
    NonFiniteCost,
    TooLarge,
)

from conftest import random_cost_instance


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
    with pytest.raises(MarginalMismatch):
        sinkhorn(C, np.full(3, 0.5), uniform(4))
    with pytest.raises(NegativeWeight):
        sinkhorn(C, np.array([1.5, -0.25, -0.25]), uniform(4))
    with pytest.raises(NonFiniteCost):
        bad = C.copy()
        bad[0, 0] = np.nan
        sinkhorn(bad, uniform(3), uniform(4))
    with pytest.raises(DimensionMismatch):
        sinkhorn(C, uniform(4), uniform(4))
    with pytest.raises(TooLarge):
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
    with pytest.raises(ValueError):
        SinkhornParams(marginal_tolerance=0.0)
