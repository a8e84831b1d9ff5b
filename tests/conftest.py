"""Shared helpers for building random episodes and instances."""

import multiprocessing

import numpy as np
import pytest

from otreward import Trajectory


def make_episode(rng, length, dim, with_actions=False, action_dim=1, with_rewards=False,
                 ep_id=""):
    actions = rng.normal(size=(length - 1, action_dim)) if with_actions else None
    rewards = rng.normal(size=length) if with_rewards else None
    return Trajectory(
        observations=rng.normal(size=(length, dim)),
        actions=actions,
        rewards=rewards,
        id=ep_id,
    )


def random_cost_instance(rng, rows, cols, dim=4, cost=None):
    """Cost matrix (cosine by default) plus uniform marginals for random point clouds."""
    from otreward import CostKind, WeightedMeasure, pairwise_costs

    a = WeightedMeasure(rng.normal(size=(rows, dim)), np.full(rows, 1.0 / rows))
    b = WeightedMeasure(rng.normal(size=(cols, dim)), np.full(cols, 1.0 / cols))
    return pairwise_costs(a, b, cost or CostKind.COSINE), a.weights, b.weights


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(autouse=True)
def no_worker_left_running():
    """Fail a test that leaves a multiprocessing child (a pool worker) running."""
    yield
    left = multiprocessing.active_children()
    assert not left, f"processes left running: {left}"
