import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from otreward import (
    CostKind,
    cosine_cost,
    pairwise_costs,
    squared_euclidean_cost,
    trajectory_to_measure,
)
from otreward.errors import DimensionMismatch
from otreward.measures import FeatureMode, WeightedMeasure, pad_measure

from conftest import make_episode

finite_vectors = hnp.arrays(
    np.float64,
    st.integers(1, 6),
    elements=st.floats(-1e6, 1e6, allow_nan=False),
)


def test_cosine_identical_direction():
    assert cosine_cost(np.array([3.0, 4.0]), np.array([3.0, 4.0])) == 0.0


def test_cosine_orthogonal():
    assert cosine_cost(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0


def test_cosine_antipodal():
    assert cosine_cost(np.array([1.0, 0.0]), np.array([-1.0, 0.0])) == 2.0


def test_cosine_zero_norm_is_neutral():
    assert cosine_cost(np.zeros(3), np.array([1.0, 2.0, 3.0])) == 1.0
    assert cosine_cost(np.array([1.0, 2.0, 3.0]), np.zeros(3)) == 1.0


def test_cost_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        cosine_cost(np.ones(2), np.ones(3))
    with pytest.raises(DimensionMismatch):
        squared_euclidean_cost(np.ones(2), np.ones(3))


def test_squared_euclidean_trivials():
    x = np.array([1.5, -2.0])
    assert squared_euclidean_cost(x, x) == 0.0
    assert squared_euclidean_cost(np.zeros(2), np.array([3.0, 4.0])) == 25.0


def test_squared_euclidean_matches_direct_arithmetic(rng):
    x = rng.normal(size=7)
    y = rng.normal(size=7)
    oracle = sum((float(xi) - float(yi)) ** 2 for xi, yi in zip(x, y))
    assert squared_euclidean_cost(x, y) == pytest.approx(oracle, abs=1e-12)


def test_pairwise_zero_diagonal_for_self(rng):
    m = trajectory_to_measure(make_episode(rng, 3, 4), FeatureMode.STATE)
    C = pairwise_costs(m, m, CostKind.COSINE)
    assert np.abs(np.diag(C)).max() <= 1e-15


def test_pairwise_single_entry(rng):
    a = WeightedMeasure(points=rng.normal(size=(1, 3)), weights=[1.0])
    b = WeightedMeasure(points=rng.normal(size=(1, 3)), weights=[1.0])
    C = pairwise_costs(a, b, CostKind.COSINE)
    assert C.shape == (1, 1)
    assert C[0, 0] == cosine_cost(a.points[0], b.points[0])


@pytest.mark.parametrize("kind", [CostKind.COSINE, CostKind.SQUARED_EUCLIDEAN])
def test_pairwise_equals_scalar_calls(rng, kind):
    # Bit-exact agreement with the loop-of-scalars oracle, on a small and a
    # larger T != T' shape, with zero-norm padded rows and columns, and on a
    # shape whose squared-Euclidean rows span 31 chunks (2 rows each, 1 last).
    def measure(length, dim):
        return trajectory_to_measure(make_episode(rng, length, dim), FeatureMode.STATE)

    small_a, small_b = measure(4, 5), measure(5, 5)
    large_a, large_b = measure(37, 14), measure(23, 14)
    pairs = [
        (small_a, small_b),
        (large_a, large_b),
        (pad_measure(large_a, 41), pad_measure(large_b, 30)),
        (measure(61, 23), measure(1000, 23)),
    ]
    scalar = cosine_cost if kind is CostKind.COSINE else squared_euclidean_cost
    for a, b in pairs:
        C = pairwise_costs(a, b, kind)
        assert C.shape == (len(a), len(b))
        for i in range(len(a)):
            for j in range(len(b)):
                assert C[i, j] == scalar(a.points[i], b.points[j])


@pytest.mark.parametrize("kind", [CostKind.COSINE, CostKind.SQUARED_EUCLIDEAN])
def test_pairwise_symmetry(rng, kind):
    a = trajectory_to_measure(make_episode(rng, 6, 3), FeatureMode.STATE)
    b = trajectory_to_measure(make_episode(rng, 4, 3), FeatureMode.STATE)
    assert np.array_equal(pairwise_costs(a, b, kind).T, pairwise_costs(b, a, kind))


def test_pairwise_dimension_mismatch(rng):
    a = trajectory_to_measure(make_episode(rng, 3, 2), FeatureMode.STATE)
    b = trajectory_to_measure(make_episode(rng, 3, 4), FeatureMode.STATE)
    with pytest.raises(DimensionMismatch):
        pairwise_costs(a, b, CostKind.COSINE)


@settings(max_examples=100, deadline=None)
@given(x=finite_vectors, y=finite_vectors)
def test_cosine_bounds(x, y):
    if x.shape != y.shape:
        return
    c = cosine_cost(x, y)
    assert 0.0 <= c <= 2.0


@settings(max_examples=100, deadline=None)
@given(x=finite_vectors, y=finite_vectors)
def test_squared_euclidean_nonnegative(x, y):
    if x.shape != y.shape:
        return
    assert squared_euclidean_cost(x, y) >= 0.0
