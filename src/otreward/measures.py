"""Episodic trajectories and their discrete-measure representations.

An episode is compared against a demonstration by viewing both as weighted
empirical measures over feature vectors: one point per step, uniform
weights. Zero-weight padding extends a measure to a common length without
changing the transport problem it defines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DataError, DimensionMismatch, NumericError

WEIGHT_SUM_TOL = 1e-9


class FeatureMode(Enum):
    """Which parts of a step make up its feature vector."""

    STATE = "state"
    STATE_ACTION = "state-action"


def store_step_vector(obj: object, name: str, length: int, dtype: type = np.float64) -> None:
    """Set frozen obj.name to a dtype array of shape (length,), else DimensionMismatch."""
    vec = np.asarray(getattr(obj, name), dtype=dtype)
    if vec.shape != (length,):
        raise DimensionMismatch(f"{name} must have length {length}, got shape {vec.shape}")
    object.__setattr__(obj, name, vec)


def finite_return(rewards: np.ndarray, ep_id: str, error: type[Exception]) -> float:
    """Sum of an episode's rewards; raises error if the sum is not finite."""
    with np.errstate(over="ignore"):
        total = float(rewards.sum())
    if not math.isfinite(total):
        raise error(f"episode {ep_id!r} has a return that is not finite: {total}")
    return total


def check_weights(w: np.ndarray, name: str, error: type[Exception]) -> None:
    """Raise error, naming w as name, unless w >= 0 and sums to 1 within WEIGHT_SUM_TOL."""
    # NaN fails every comparison, so this also rejects it; inf fails the sum.
    if not (w >= 0).all():
        raise error(f"{name} must be nonnegative and not NaN")
    total = float(w.sum())
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise error(f"{name} must sum to 1, got {total}")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """One episode: observations plus optional actions, rewards, terminals.

    observations has shape (T, d) with T >= 1. actions, when present, has
    shape (T, d_a) or (T - 1, d_a), never (0, d_a): no actions is None.
    rewards and terminals, when present, have length T (one entry per
    step). source_expert is the index of the demonstration the rewards were
    labeled against, None when unknown.
    """

    observations: np.ndarray
    actions: np.ndarray | None = None
    rewards: np.ndarray | None = None
    terminals: np.ndarray | None = None
    id: str = ""
    source_expert: int | None = None

    def __post_init__(self):
        obs = np.asarray(self.observations, dtype=np.float64)
        if obs.ndim != 2 or obs.shape[0] < 1 or obs.shape[1] < 1:
            raise DimensionMismatch(
                f"observations must be a (T, d) array with T >= 1, got shape {obs.shape}"
            )
        object.__setattr__(self, "observations", obs)
        T = obs.shape[0]
        if self.actions is not None:
            acts = np.asarray(self.actions, dtype=np.float64)
            if acts.ndim != 2 or acts.shape[0] not in (T, T - 1) or acts.shape[0] == 0:
                raise DimensionMismatch(
                    f"actions must have shape (T, d_a) or (T-1, d_a) with T={T}, "
                    f"never (0, d_a): no actions is None; got {acts.shape}"
                )
            object.__setattr__(self, "actions", acts)
        if self.rewards is not None:
            store_step_vector(self, "rewards", T)
        if self.terminals is not None:
            store_step_vector(self, "terminals", T, dtype=bool)

    @property
    def length(self) -> int:
        return self.observations.shape[0]

    @property
    def obs_dim(self) -> int:
        return self.observations.shape[1]

    @property
    def action_dim(self) -> int | None:
        return None if self.actions is None else self.actions.shape[1]

    def episodic_return(self) -> float:
        """Sum of stored rewards; raises DataError if there are none or the sum is not finite."""
        if self.rewards is None:
            raise DataError(f"episode {self.id!r} has no rewards")
        return finite_return(self.rewards, self.id, DataError)


@dataclass(frozen=True, eq=False)
class WeightedMeasure:
    """Discrete measure: points (n, d) with nonnegative weights summing to 1.

    Weights are stored explicitly so padded entries can carry exactly zero
    mass.
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2:
            raise DimensionMismatch(f"points must be (n, d), got shape {pts.shape}")
        object.__setattr__(self, "points", pts)
        store_step_vector(self, "weights", pts.shape[0])
        check_weights(self.weights, "weights", ValueError)

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def trajectory_to_measure(traj: Trajectory, features: FeatureMode) -> WeightedMeasure:
    """Convert an episode into a uniformly weighted empirical measure.

    STATE uses the raw observations. STATE_ACTION concatenates each
    observation with the action taken at the same step; the final state,
    which has no action when the episode stores T - 1 of them, is paired
    with a zero action vector.
    """
    T = traj.length
    if features is FeatureMode.STATE:
        points = traj.observations
    elif features is FeatureMode.STATE_ACTION:
        if traj.actions is None:
            raise DataError(
                f"state-action features requested but episode {traj.id!r} has no actions"
            )
        acts = traj.actions
        if acts.shape[0] == T - 1:
            acts = np.vstack([acts, np.zeros((1, acts.shape[1]))])
        points = np.hstack([traj.observations, acts])
    else:  # pragma: no cover - exhaustive enum
        raise ValueError(f"unknown feature mode {features!r}")
    return WeightedMeasure(points=points, weights=np.full(T, 1.0 / T))


def pad_measure(m: WeightedMeasure, target_len: int) -> WeightedMeasure:
    """Extend a measure to target_len with zero points of exactly zero weight.

    Padding never changes the transport problem: padded entries carry no
    mass, so any coupling assigns them none.
    """
    n = len(m)
    if target_len < n:
        raise NumericError(f"target length {target_len} < measure length {n}")
    extra = target_len - n
    points = np.vstack([m.points, np.zeros((extra, m.dim))])
    weights = np.concatenate([m.weights, np.zeros(extra)])
    return WeightedMeasure(points=points, weights=weights)
