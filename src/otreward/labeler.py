"""Per-step reward labeling by optimal alignment against demonstrations.

The pipeline for one episode: build measures, compute the pairwise cost
matrix, solve for the optimal coupling, and read off per-step rewards

    r[t] = -sum_t' C[t, t'] * plan[t, t'],

so the rewards of an episode always sum to minus its transport cost. With
several demonstrations the episode is aligned against each independently
and the one yielding the best episodic return wins. Raw rewards are
nonpositive; an exponential squash maps them into (0, alpha], and an
optional dataset-level rescale or shift runs last. PRESETS holds the
paper's squash settings by name.

Baselines: a uniform transport plan (every step spread equally over the
demonstration; label_dataset with plan_rewards=uniform_plan_rewards) and
UDS (constant minimum reward on unlabeled episodes).
"""

from __future__ import annotations

import math
import os
from collections.abc import Callable, Mapping
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import partial
from operator import attrgetter

import numpy as np

from .costs import CostKind, pairwise_costs
from .errors import (
    EmptyDataset,
    EmptyExpertSet,
    DegenerateReturnRange,
    ExpertRewardsMissing,
    NonFiniteInput,
)
from .measures import FeatureMode, Trajectory, trajectory_to_measure
from .solver import Coupling, SinkhornParams, sinkhorn


class ScaleMode(Enum):
    """How the squashing exponent is built from beta and episode length."""

    LOCOMOTION = "locomotion"  # exponent beta * T / action_dim
    ANTMAZE = "antmaze"  # exponent T
    PLAIN = "plain"  # exponent beta


class PostScaleKind(Enum):
    """Which dataset-level adjustment PostScale applies."""

    NONE = "none"
    RETURN_RANGE = "return-range"
    SHIFT = "shift"


@dataclass(frozen=True)
class PostScale:
    """Dataset-level reward post-processing applied after squashing.

    Spelled as text ``none``, ``return-range[:target]`` or ``shift:<delta>``;
    ``str`` and ``parse`` convert between the two.
    """

    kind: PostScaleKind
    value: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "kind", PostScaleKind(self.kind))
        if not math.isfinite(self.value):
            raise ValueError(f"post-scale value must be finite, got {self.value}")

    @classmethod
    def none(cls) -> "PostScale":
        return cls(kind=PostScaleKind.NONE)

    @classmethod
    def return_range(cls, target: float = 1000.0) -> "PostScale":
        """Multiply all rewards by target / (max return - min return)."""
        return cls(kind=PostScaleKind.RETURN_RANGE, value=target)

    @classmethod
    def shift(cls, delta: float) -> "PostScale":
        """Add delta to every reward."""
        return cls(kind=PostScaleKind.SHIFT, value=delta)

    def __str__(self) -> str:
        if self.kind is PostScaleKind.NONE:
            return self.kind.value
        return f"{self.kind.value}:{self.value!r}"

    @classmethod
    def parse(cls, text: str) -> "PostScale":
        """Read the text form; the return-range target defaults to 1000."""
        name, sep, value = text.strip().partition(":")
        if name == PostScaleKind.RETURN_RANGE.value:
            return cls.return_range(float(value)) if value else cls.return_range()
        if name == PostScaleKind.SHIFT.value and sep:
            return cls.shift(float(value))
        if name == PostScaleKind.NONE.value and not sep:
            return cls.none()
        raise ValueError(
            f"unknown post-scale spec {text!r}; "
            "expected none | return-range[:target] | shift:<delta>"
        )


@dataclass(frozen=True)
class LabelConfig:
    """Everything that determines how an episode gets labeled.

    episode_length is the fixed horizon constant used in the LOCOMOTION
    and ANTMAZE exponents (1000 in the benchmark presets); it is not each
    episode's native length, which keeps rewards comparable across
    episodes of different lengths.
    """

    cost: CostKind = CostKind.COSINE
    features: FeatureMode = FeatureMode.STATE
    sinkhorn: SinkhornParams = field(default_factory=SinkhornParams)
    squash_alpha: float = 5.0
    squash_beta: float = 5.0
    squash_scale: ScaleMode = ScaleMode.PLAIN
    episode_length: int = 1000
    action_dim: int | None = None
    post_scale: PostScale = field(default_factory=PostScale.none)

    def __post_init__(self):
        if not 0 < self.squash_alpha < math.inf:
            raise ValueError(f"squash_alpha must be finite and > 0, got {self.squash_alpha}")
        if not math.isfinite(self.squash_beta):
            raise ValueError(f"squash_beta must be finite, got {self.squash_beta}")
        if self.episode_length < 1:
            raise ValueError(f"episode_length must be >= 1, got {self.episode_length}")
        if self.squash_scale is ScaleMode.LOCOMOTION:
            if self.action_dim is None or self.action_dim < 1:
                raise ValueError("LOCOMOTION scaling requires action_dim >= 1")

    def squash_exponent(self) -> float:
        if self.squash_scale is ScaleMode.LOCOMOTION:
            return self.squash_beta * self.episode_length / self.action_dim
        if self.squash_scale is ScaleMode.ANTMAZE:
            return float(self.episode_length)
        return self.squash_beta

    def to_text(self) -> dict[str, str]:
        """Every setting as LABEL_KEYS spells it; unset action_dim is left out."""
        text = {}
        for key, (path, _) in LABEL_KEYS.items():
            value = attrgetter(path)(self)
            if value is not None:
                text[key] = value.value if isinstance(value, Enum) else str(value)
        return text

    def with_text(self, mapping: Mapping[str, str]) -> "LabelConfig":
        """A copy with the LABEL_KEYS settings in mapping parsed and applied.

        Unknown keys and unparsable values raise ValueError. All settings
        land in one replace, so validation sees only the final config.
        """
        unknown = [key for key in mapping if key not in LABEL_KEYS]
        if unknown:
            raise ValueError(
                f"unknown label setting(s) {', '.join(map(repr, unknown))}; "
                f"expected some of {', '.join(LABEL_KEYS)}"
            )
        groups: dict[str, dict[str, object]] = {}
        for key, text in mapping.items():
            path, parse = LABEL_KEYS[key]
            outer, _, name = path.rpartition(".")
            groups.setdefault(outer, {})[name] = parse_setting(key, text, parse)
        top = groups.pop("", {})
        nested = {outer: replace(getattr(self, outer), **kw) for outer, kw in groups.items()}
        return replace(self, **top, **nested)

    @classmethod
    def locomotion_preset(cls, action_dim: int) -> "LabelConfig":
        """s(r) = 5 * exp(5 * T * r / |A|), T = 1000, range-rescaled."""
        return cls().with_text({**PRESETS["locomotion"], "action_dim": str(action_dim)})

    @classmethod
    def antmaze_preset(cls) -> "LabelConfig":
        """s(r) = 5 * exp(T * r), T = 1000, shifted down by 2."""
        return cls().with_text(PRESETS["antmaze"])

    @classmethod
    def plain_preset(cls) -> "LabelConfig":
        """s(r) = exp(r): alpha = beta = 1, no post-scaling."""
        return cls().with_text(PRESETS["plain"])


# The text spelling of every LabelConfig setting, shared by the CLI flags and
# the gridworld config file: key -> (attribute path, parser from text).
LABEL_KEYS: dict[str, tuple[str, Callable[[str], object]]] = {
    "cost": ("cost", CostKind),
    "features": ("features", FeatureMode),
    "epsilon": ("sinkhorn.epsilon", float),
    "max_iterations": ("sinkhorn.max_iterations", int),
    "marginal_tolerance": ("sinkhorn.marginal_tolerance", float),
    "squash_mode": ("squash_scale", ScaleMode),
    "alpha": ("squash_alpha", float),
    "beta": ("squash_beta", float),
    "episode_length": ("episode_length", int),
    "action_dim": ("action_dim", int),
    "post_scale": ("post_scale", PostScale.parse),
}


# The paper's squash settings by name, spelled as LABEL_KEYS text. The
# locomotion exponent also needs action_dim, which no preset can fix.
PRESETS: dict[str, dict[str, str]] = {
    "locomotion": {"alpha": "5.0", "beta": "5.0", "squash_mode": "locomotion",
                   "episode_length": "1000", "post_scale": "return-range:1000.0"},
    "antmaze": {"alpha": "5.0", "squash_mode": "antmaze", "episode_length": "1000",
                "post_scale": "shift:-2.0"},
    "plain": {"alpha": "1.0", "beta": "1.0", "squash_mode": "plain", "post_scale": "none"},
}


def parse_setting(key: str, text: str, parse: Callable[[str], object]) -> object:
    """parse(text), with a parser's ValueError re-raised naming key and text."""
    try:
        return parse(text)
    except ValueError as exc:
        raise ValueError(f"bad {key} {text!r}: {exc}") from exc


@dataclass(frozen=True, eq=False)
class LabeledTrajectory:
    """An episode together with its reward labels.

    ot_rewards are the final labels (post-squash; post_scale_rewards may
    adjust them further). raw_ot_rewards are the nonpositive pre-squash
    alignment rewards when the labels came from a transport plan (optimal
    or uniform); UDS leaves them None. source_expert is the index of the
    winning demonstration, None for UDS.
    """

    base: Trajectory
    ot_rewards: np.ndarray
    raw_ot_rewards: np.ndarray | None = None
    source_expert: int | None = None

    def __post_init__(self):
        rew = np.asarray(self.ot_rewards, dtype=np.float64)
        if rew.shape != (self.base.length,):
            raise ValueError(
                f"ot_rewards must have length {self.base.length}, got {rew.shape}"
            )
        object.__setattr__(self, "ot_rewards", rew)
        if self.raw_ot_rewards is not None:
            raw = np.asarray(self.raw_ot_rewards, dtype=np.float64)
            if raw.shape != rew.shape:
                raise ValueError("raw_ot_rewards must match ot_rewards in length")
            object.__setattr__(self, "raw_ot_rewards", raw)

    def episodic_return(self) -> float:
        return float(self.ot_rewards.sum())

    def with_rewards(self, rewards: np.ndarray) -> "LabeledTrajectory":
        return LabeledTrajectory(
            base=self.base,
            ot_rewards=rewards,
            raw_ot_rewards=self.raw_ot_rewards,
            source_expert=self.source_expert,
        )


def ot_rewards_single(
    unlabeled: Trajectory, expert: Trajectory, cfg: LabelConfig
) -> tuple[np.ndarray, Coupling]:
    """Raw per-step rewards of one episode against one demonstration."""
    mu = trajectory_to_measure(unlabeled, cfg.features)
    me = trajectory_to_measure(expert, cfg.features)
    C = pairwise_costs(mu, me, cfg.cost)
    coupling = sinkhorn(C, mu.weights, me.weights, cfg.sinkhorn)
    raw = -(C * coupling.plan).sum(axis=1)
    return raw, coupling


# An episode's raw rewards against one demonstration under some transport plan.
# Pool workers receive it by pickling, so it must be a module-level function.
PlanRewards = Callable[[Trajectory, Trajectory, LabelConfig], np.ndarray]


def optimal_plan_rewards(
    unlabeled: Trajectory, expert: Trajectory, cfg: LabelConfig
) -> np.ndarray:
    """Raw rewards under the optimal coupling (ot_rewards_single's first result)."""
    # The module attribute is looked up per call, so rebinding it (as a tracer
    # does) also reaches labeling through the default plan_rewards.
    return ot_rewards_single(unlabeled, expert, cfg)[0]


def aggregate_over_experts(
    unlabeled: Trajectory,
    experts: list[Trajectory],
    cfg: LabelConfig,
    plan_rewards: PlanRewards = optimal_plan_rewards,
) -> tuple[np.ndarray, int]:
    """Align against each demonstration; keep the best episodic return.

    plan_rewards gives the raw rewards against one demonstration.
    Returns the winning raw reward vector and the winning expert's index.
    Ties go to the lowest index.
    """
    if not experts:
        raise EmptyExpertSet("at least one expert demonstration is required")
    rewards = [plan_rewards(unlabeled, e, cfg) for e in experts]
    returns = np.array([r.sum() for r in rewards])
    best = int(np.argmax(returns))
    return rewards[best], best


def squash(raw: np.ndarray, cfg: LabelConfig) -> np.ndarray:
    """Elementwise s(r) = alpha * exp(E * r) with E from the scale mode."""
    raw = np.asarray(raw, dtype=np.float64)
    if not np.isfinite(raw).all():
        raise NonFiniteInput("rewards handed to squash contain NaN or infinities")
    return cfg.squash_alpha * np.exp(cfg.squash_exponent() * raw)


def post_scale_rewards(
    dataset: list[LabeledTrajectory], mode: PostScale
) -> list[LabeledTrajectory]:
    """Apply dataset-level reward rescaling or shifting."""
    if mode.kind is PostScaleKind.NONE:
        return list(dataset)
    if not dataset:
        raise EmptyDataset("post-scaling requires at least one labeled episode")
    if mode.kind is PostScaleKind.RETURN_RANGE:
        returns = [lt.episodic_return() for lt in dataset]
        spread = max(returns) - min(returns)
        if spread <= 0:
            raise DegenerateReturnRange(
                "all episodic returns are equal; range rescaling is undefined"
            )
        factor = mode.value / spread
        return [lt.with_rewards(lt.ot_rewards * factor) for lt in dataset]
    return [lt.with_rewards(lt.ot_rewards + mode.value) for lt in dataset]


def _label_one(
    episode: Trajectory,
    experts: list[Trajectory],
    cfg: LabelConfig,
    plan_rewards: PlanRewards,
) -> LabeledTrajectory:
    raw, best = aggregate_over_experts(episode, experts, cfg, plan_rewards)
    return LabeledTrajectory(
        base=episode,
        ot_rewards=squash(raw, cfg),
        raw_ot_rewards=raw,
        source_expert=best,
    )


def resolve_workers(workers: int) -> int:
    """The process count label_dataset uses: 0 means every core it may run on."""
    if workers < 0:
        raise ValueError(f"workers must be >= 0 (0 = all cores), got {workers}")
    if workers:
        return workers
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def label_dataset(
    unlabeled: list[Trajectory],
    experts: list[Trajectory],
    cfg: LabelConfig,
    workers: int = 1,
    plan_rewards: PlanRewards = optimal_plan_rewards,
) -> list[LabeledTrajectory]:
    """Label every episode, then post-scale over the whole batch.

    plan_rewards gives an episode's raw rewards against one demonstration:
    the optimal plan by default, uniform_plan_rewards for that baseline.
    Episodes are independent, so workers > 1 fans them out to a process
    pool; the result is identical to the sequential run, in input order.
    Post-scaling is a barrier and runs once all episodes are labeled.
    """
    workers = resolve_workers(workers)
    if not experts:
        raise EmptyExpertSet("at least one expert demonstration is required")
    if not unlabeled:
        return []
    label_one = partial(_label_one, experts=experts, cfg=cfg, plan_rewards=plan_rewards)
    if workers > 1 and len(unlabeled) > 1:
        chunk = max(1, len(unlabeled) // (workers * 4))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            labeled = list(pool.map(label_one, unlabeled, chunksize=chunk))
    else:
        labeled = list(map(label_one, unlabeled))
    return post_scale_rewards(labeled, cfg.post_scale)


def uniform_plan_rewards(
    unlabeled: Trajectory, expert: Trajectory, cfg: LabelConfig
) -> np.ndarray:
    """Rewards under the suboptimal uniform coupling 1/(T*T').

    Every step is transported equally to every demonstration step, so the
    reward reduces to minus the average cost row, scaled by the step mass.
    """
    mu = trajectory_to_measure(unlabeled, cfg.features)
    me = trajectory_to_measure(expert, cfg.features)
    C = pairwise_costs(mu, me, cfg.cost)
    T, Tp = C.shape
    return -(C * (1.0 / (T * Tp))).sum(axis=1)


def uds_rewards(
    unlabeled: list[Trajectory],
    experts: list[Trajectory],
    r_min: float,
) -> list[LabeledTrajectory]:
    """UDS baseline: experts keep stored rewards, everything else gets r_min.

    Returns experts first, then the unlabeled episodes, each wrapped as a
    labeled episode.
    """
    out: list[LabeledTrajectory] = []
    for e in experts:
        if e.rewards is None:
            raise ExpertRewardsMissing(
                f"expert episode {e.id!r} has no ground-truth rewards"
            )
        out.append(LabeledTrajectory(base=e, ot_rewards=e.rewards.copy()))
    for ep in unlabeled:
        out.append(
            LabeledTrajectory(base=ep, ot_rewards=np.full(ep.length, float(r_min)))
        )
    return out
