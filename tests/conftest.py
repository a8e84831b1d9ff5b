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


def make_gait_episode(rng, length, dim, ep_id=""):
    """Trajectory-shaped features, a stand-in for a locomotion gait.

    Each dimension is sin(omega * t + phi) plus N(0, 0.1^2) noise, with
    omega ~ U(0.5, 2) and phi ~ U(0, 2 pi), over t in [0, 40 * length / 1000].
    """
    t = np.linspace(0.0, 40.0 * length / 1000, length)[:, None]
    omega = rng.uniform(0.5, 2.0, size=dim)
    phi = rng.uniform(0.0, 2 * np.pi, size=dim)
    obs = np.sin(omega * t + phi) + rng.normal(0.0, 0.1, size=(length, dim))
    return Trajectory(observations=obs, id=ep_id)


def make_circle_episode(rng, length, radius=1.0, noise=0.0, ep_id=""):
    """One lap around a circle from a random angle; features are position and velocity.

    Both get N(0, noise^2) noise. The unit circle without noise is the expert.
    """
    theta = rng.uniform(0.0, 2 * np.pi) + np.linspace(0.0, 2 * np.pi, length, endpoint=False)
    position = radius * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    velocity = radius * np.stack([-np.sin(theta), np.cos(theta)], axis=1)
    obs = np.hstack([position, velocity]) + rng.normal(0.0, noise, size=(length, 4))
    return Trajectory(observations=obs, id=ep_id)


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
