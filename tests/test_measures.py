import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otreward import (
    FeatureMode,
    SinkhornParams,
    Trajectory,
    WeightedMeasure,
    pad_measure,
    pairwise_costs,
    sinkhorn,
    trajectory_to_measure,
)
from otreward.costs import CostKind
from otreward.errors import DataError, DimensionMismatch, NumericError

from conftest import make_episode


def test_uniform_weights_length_four(rng):
    traj = make_episode(rng, 4, 3)
    m = trajectory_to_measure(traj, FeatureMode.STATE)
    assert len(m) == 4
    assert np.array_equal(m.weights, np.full(4, 0.25))
    assert np.array_equal(m.points, traj.observations)


def test_single_step_episode(rng):
    traj = make_episode(rng, 1, 2)
    m = trajectory_to_measure(traj, FeatureMode.STATE)
    assert len(m) == 1
    assert m.weights[0] == 1.0


def test_state_action_concatenation_hand_built():
    traj = Trajectory(
        observations=[[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]],
        actions=[[7.0], [8.0]],
    )
    m = trajectory_to_measure(traj, FeatureMode.STATE_ACTION)
    expected = np.array([[0.0, 1.0, 7.0], [2.0, 3.0, 8.0], [4.0, 5.0, 0.0]])
    assert np.array_equal(m.points, expected)
    assert np.allclose(m.weights, 1.0 / 3.0)


def test_state_action_uses_full_length_actions():
    traj = Trajectory(observations=[[1.0], [2.0]], actions=[[5.0], [6.0]])
    m = trajectory_to_measure(traj, FeatureMode.STATE_ACTION)
    assert np.array_equal(m.points, [[1.0, 5.0], [2.0, 6.0]])


def test_state_action_requires_actions(rng):
    traj = make_episode(rng, 3, 2)
    with pytest.raises(DataError, match="state-action features requested"):
        trajectory_to_measure(traj, FeatureMode.STATE_ACTION)


@settings(max_examples=50, deadline=None)
@given(length=st.integers(1, 40), dim=st.integers(1, 8))
def test_weights_sum_to_one(length, dim):
    rng = np.random.default_rng(length * 100 + dim)
    m = trajectory_to_measure(make_episode(rng, length, dim), FeatureMode.STATE)
    assert abs(m.weights.sum() - 1.0) <= 1e-9
    assert np.all(m.weights >= 0)


def test_pad_same_length_is_noop(rng):
    m = trajectory_to_measure(make_episode(rng, 3, 2), FeatureMode.STATE)
    padded = pad_measure(m, 3)
    assert np.array_equal(padded.points, m.points)
    assert np.array_equal(padded.weights, m.weights)


def test_pad_appends_zero_weights():
    m = WeightedMeasure(points=[[1.0], [2.0]], weights=[0.5, 0.5])
    padded = pad_measure(m, 5)
    assert np.array_equal(padded.weights, [0.5, 0.5, 0.0, 0.0, 0.0])
    assert np.array_equal(padded.points[2:], np.zeros((3, 1)))
    assert padded.weights.sum() == m.weights.sum()


def test_pad_target_too_small(rng):
    m = trajectory_to_measure(make_episode(rng, 4, 2), FeatureMode.STATE)
    with pytest.raises(NumericError, match="target length 3 < measure length 4"):
        pad_measure(m, 3)


def test_pad_idempotent(rng):
    m = trajectory_to_measure(make_episode(rng, 3, 2), FeatureMode.STATE)
    once = pad_measure(m, 7)
    twice = pad_measure(once, 7)
    assert np.array_equal(once.points, twice.points)
    assert np.array_equal(once.weights, twice.weights)


@pytest.mark.parametrize("seed", range(5))
def test_padding_leaves_coupling_unchanged(seed):
    # Zero-weight padding must not change the solved coupling on the
    # original support, and padded rows must carry no mass at all.
    rng = np.random.default_rng(seed)
    na, nb = int(rng.integers(2, 9)), int(rng.integers(2, 9))
    a = trajectory_to_measure(make_episode(rng, na, 3), FeatureMode.STATE)
    b = trajectory_to_measure(make_episode(rng, nb, 3), FeatureMode.STATE)
    target = na + int(rng.integers(1, 6))
    padded = pad_measure(a, target)

    params = SinkhornParams()
    base = sinkhorn(pairwise_costs(a, b, CostKind.COSINE), a.weights, b.weights, params)
    wide = sinkhorn(
        pairwise_costs(padded, b, CostKind.COSINE), padded.weights, b.weights, params
    )
    assert np.all(wide.plan[na:] == 0.0)
    tol = 10 * params.marginal_tolerance
    assert np.abs(wide.plan[:na] - base.plan).max() <= tol


def test_trajectory_rejects_ragged_observations():
    with pytest.raises(DimensionMismatch):
        Trajectory(observations=np.array([[1.0, 2.0, 3.0]]).reshape(3))
    with pytest.raises(DimensionMismatch):
        Trajectory(observations=[[1.0, 2.0]], rewards=[1.0, 2.0])
    with pytest.raises(DimensionMismatch):
        Trajectory(observations=[[1.0], [2.0], [3.0]], actions=[[0.0]])


def test_trajectory_spells_no_actions_only_as_none():
    # Zero rows would be written as "actions": [], which reading rejects.
    with pytest.raises(DimensionMismatch, match="no actions is None"):
        Trajectory(observations=np.ones((1, 3)), actions=np.zeros((0, 2)))


def test_return_without_rewards_is_a_data_error():
    with pytest.raises(DataError, match="episode 'bare' has no rewards$"):
        Trajectory(observations=np.ones((2, 3)), id="bare").episodic_return()


@pytest.mark.parametrize("rewards", [[1e308, 1e308], [1.0, np.inf]], ids=["overflow", "inf"])
def test_return_that_is_not_finite_is_a_data_error(rewards):
    ep = Trajectory(observations=np.ones((2, 3)), rewards=rewards, id="big")
    with pytest.raises(DataError, match="episode 'big' has a return that is not finite"):
        ep.episodic_return()


def test_measure_invariants_enforced():
    with pytest.raises(ValueError):
        WeightedMeasure(points=[[1.0]], weights=[-1.0])
    with pytest.raises(ValueError):
        WeightedMeasure(points=[[1.0], [2.0]], weights=[0.4, 0.4])
    with pytest.raises(ValueError):
        WeightedMeasure(points=[[1.0]], weights=[0.0])
    with pytest.raises(DimensionMismatch, match="points must be \\(n, d\\)"):
        WeightedMeasure(points=[1.0, 2.0], weights=[0.5, 0.5])
    for bad, message in ((np.nan, "must be nonnegative and not NaN"),
                         (-np.inf, "must be nonnegative and not NaN"),
                         (np.inf, "must sum to 1, got inf$")):
        with pytest.raises(ValueError, match=message):
            WeightedMeasure(points=[[1.0], [2.0], [3.0]], weights=[bad, 0.5, 0.5])


@pytest.mark.parametrize("weights, accepted", [
    ([0.25, 0.25, 0.25, 0.25], True),
    ([0.5, 0.75, -0.25, 0.0], False),
    ([np.nan, 0.5, 0.25, 0.25], False),
    ([np.inf, 0.5, 0.25, 0.25], False),
    ([-np.inf, 0.5, 0.25, 0.25], False),
    ([0.0, 0.0, 0.0, 0.0], False),
    ([0.25, 0.25, 0.25, 0.25 + 5e-10], True),
    ([0.25, 0.25, 0.25, 0.25 + 2e-9], False),
    ([0.25, 0.25, 0.25, 0.25 - 2e-9], False),
], ids=["uniform", "negative", "nan", "inf", "-inf", "zeros", "sum+5e-10", "sum+2e-9",
        "sum-2e-9"])
def test_measure_and_solver_share_one_weight_rule(rng, weights, accepted):
    # A measure and a solver marginal are the same kind of vector: each
    # weight vector is accepted by both or rejected by both.
    w, other = np.array(weights), np.full(3, 1.0 / 3.0)
    C = rng.uniform(size=(4, 3))
    points = rng.normal(size=(4, 2))
    if accepted:
        WeightedMeasure(points=points, weights=w)
        sinkhorn(C, w, other)
        sinkhorn(C.T, other, w)
        return
    with pytest.raises(ValueError):
        WeightedMeasure(points=points, weights=w)
    for args in ((C, w, other), (C.T, other, w)):
        with pytest.raises(NumericError):
            sinkhorn(*args)
