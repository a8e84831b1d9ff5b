"""Per-step reward labeling by optimal alignment against demonstrations.

The pipeline for one episode: build measures, compute the pairwise cost
matrix, solve for the optimal coupling, and read off per-step rewards

    r[t] = -sum_t' C[t, t'] * plan[t, t'],

so the rewards of an episode always sum to minus its transport cost. With
several demonstrations the episode is aligned against each independently
and the one yielding the best episodic return wins. Raw rewards are
nonpositive; an exponential squash maps them into (0, alpha] when its
exponent is nonnegative, and an optional dataset-level rescale or shift
runs last. PRESETS holds the paper's squash settings by name.

Baselines: a uniform transport plan (every step spread equally over the
demonstration; label_dataset with plan_rewards=uniform_plan_rewards) and
UDS (constant minimum reward on unlabeled episodes).
"""

from __future__ import annotations

import math
import multiprocessing
import os
import signal
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import partial

import numpy as np

from .costs import CostKind, pairwise_costs
from .errors import DataError, NumericError
from .measures import (FeatureMode, Trajectory, finite_return, store_step_vector,
                       trajectory_to_measure)
from .solver import Coupling, SinkhornParams, sinkhorn

EPISODE_LENGTH = 1000  # T in the paper's squash exponents: D4RL's episode length


class ScaleMode(Enum):
    """How the squashing exponent is built from beta (AntMaze's T is PLAIN, beta = T)."""

    LOCOMOTION = "locomotion"  # exponent beta * EPISODE_LENGTH / action_dim
    PLAIN = "plain"  # exponent beta


class PostScaleKind(Enum):
    """Which dataset-level adjustment PostScale applies."""

    NONE = "none"
    RETURN_RANGE = "return-range"
    SHIFT = "shift"


@dataclass(frozen=True)
class PostScale:
    """Dataset-level reward post-processing applied after squashing.

    The kind may be given as its text, as in PostScale("shift", -2.0).
    ``parse`` reads ``none``, ``return-range[:target]`` or ``shift:<delta>``.
    """

    kind: PostScaleKind = PostScaleKind.NONE
    value: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "kind", PostScaleKind(self.kind))
        if not math.isfinite(self.value):
            raise ValueError(f"post-scale value must be finite, got {self.value}")
        if self.kind is PostScaleKind.RETURN_RANGE and self.value <= 0:
            raise ValueError(f"return-range target must be > 0, got {self.value}")

    @classmethod
    def parse(cls, text: str) -> "PostScale":
        """Read the text form; ``return-range`` alone means the target 1000."""
        name, sep, value = text.strip().partition(":")
        if name == PostScaleKind.RETURN_RANGE.value:
            return cls(name, float(value) if sep else 1000.0)
        if name == PostScaleKind.SHIFT.value and sep:
            return cls(name, float(value))
        if name == PostScaleKind.NONE.value and not sep:
            return cls()
        raise ValueError(
            f"unknown post-scale spec {text!r}; "
            "expected none | return-range[:target] | shift:<delta>"
        )


@dataclass(frozen=True)
class LabelConfig:
    """Everything that determines how an episode gets labeled.

    Labels are squash_alpha * exp(E * r) with a finite E = squash_exponent().
    LOCOMOTION's E uses EPISODE_LENGTH for every episode, so all share one scale.
    """

    cost: CostKind = CostKind.COSINE
    features: FeatureMode = FeatureMode.STATE
    sinkhorn: SinkhornParams = field(default_factory=SinkhornParams)
    squash_alpha: float = 5.0
    squash_beta: float = 5.0
    squash_scale: ScaleMode = ScaleMode.PLAIN
    action_dim: int | None = None
    post_scale: PostScale = field(default_factory=PostScale)

    def __post_init__(self):
        if not 0 < self.squash_alpha < math.inf:
            raise ValueError(f"squash_alpha must be finite and > 0, got {self.squash_alpha}")
        if self.squash_scale is ScaleMode.LOCOMOTION:
            if self.action_dim is None or self.action_dim < 1:
                raise ValueError("LOCOMOTION scaling requires action_dim >= 1")
        if not math.isfinite(self.squash_exponent()):
            raise ValueError(f"squash_beta {self.squash_beta} makes the exponent not finite")

    def squash_exponent(self) -> float:
        if self.squash_scale is ScaleMode.LOCOMOTION:
            return self.squash_beta * EPISODE_LENGTH / self.action_dim
        return self.squash_beta

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
        """s(r) = 5 * exp(T * r), T = 1000, shifted down by 2: PLAIN with beta = T."""
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
    "action_dim": ("action_dim", int),
    "post_scale": ("post_scale", PostScale.parse),
}


# The paper's squash settings by name, spelled as LABEL_KEYS text. The
# locomotion exponent also needs action_dim, which no preset can fix.
PRESETS: dict[str, dict[str, str]] = {
    "locomotion": {"alpha": "5.0", "beta": "5.0", "squash_mode": "locomotion",
                   "post_scale": "return-range:1000.0"},
    "antmaze": {"alpha": "5.0", "beta": "1000.0", "squash_mode": "plain",
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
    winning demonstration, None for UDS. Labels that are not finite raise
    NumericError, so every label written can be read back.
    """

    base: Trajectory
    ot_rewards: np.ndarray
    raw_ot_rewards: np.ndarray | None = None
    source_expert: int | None = None

    def __post_init__(self):
        store_step_vector(self, "ot_rewards", self.base.length)
        if not np.isfinite(self.ot_rewards).all():
            raise NumericError(f"episode {self.base.id!r} has labels that are not finite")
        if self.raw_ot_rewards is not None:
            store_step_vector(self, "raw_ot_rewards", self.base.length)

    def episodic_return(self) -> float:
        """Sum of the labels; raises NumericError if the sum is not finite."""
        return finite_return(self.ot_rewards, self.base.id, NumericError)


def _pair_costs(unlabeled: Trajectory, expert: Trajectory, cfg: LabelConfig) -> tuple:
    """Both episodes' measures and the pairwise cost matrix between them."""
    mu = trajectory_to_measure(unlabeled, cfg.features)
    me = trajectory_to_measure(expert, cfg.features)
    return mu, me, pairwise_costs(mu, me, cfg.cost)


def ot_rewards_single(
    unlabeled: Trajectory, expert: Trajectory, cfg: LabelConfig
) -> tuple[np.ndarray, Coupling]:
    """Raw per-step rewards of one episode against one demonstration."""
    mu, me, C = _pair_costs(unlabeled, expert, cfg)
    coupling = sinkhorn(C, mu.weights, me.weights, cfg.sinkhorn)
    raw = -(C * coupling.plan).sum(axis=1)
    return raw, coupling


# An episode's raw rewards against one demonstration under some transport plan.
# Spawned children receive it by pickling, so it must be a module-level function.
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
        raise DataError("at least one expert demonstration is required")
    rewards = [plan_rewards(unlabeled, e, cfg) for e in experts]
    returns = np.array([r.sum() for r in rewards])
    best = int(np.argmax(returns))
    return rewards[best], best


def squash(raw: np.ndarray, cfg: LabelConfig) -> np.ndarray:
    """Elementwise s(r) = alpha * exp(E * r) with E from the scale mode."""
    raw = np.asarray(raw, dtype=np.float64)
    if not np.isfinite(raw).all():
        raise NumericError("rewards handed to squash contain NaN or infinities")
    with np.errstate(over="ignore"):  # LabeledTrajectory rejects infinite labels
        return cfg.squash_alpha * np.exp(cfg.squash_exponent() * raw)


def post_scale_rewards(
    dataset: list[LabeledTrajectory], mode: PostScale
) -> list[LabeledTrajectory]:
    """One multiply-add, labels * scale + shift: (1, delta) for a shift, (target /
    spread of episodic returns, 0) for return-range, the one kind needing an episode."""
    if mode.kind is PostScaleKind.NONE:
        return list(dataset)
    scale, shift = 1.0, mode.value
    if mode.kind is PostScaleKind.RETURN_RANGE:
        if not dataset:
            raise DataError("post-scaling requires at least one labeled episode")
        returns = [lt.episodic_return() for lt in dataset]
        spread = max(returns) - min(returns)
        if not 0 < spread < math.inf:
            raise NumericError("all episodic returns are equal; range rescaling is undefined"
                               if spread <= 0 else "the span of episodic returns overflows")
        scale, shift = mode.value / spread, 0.0
    with np.errstate(over="ignore"):  # LabeledTrajectory rejects infinite labels
        return [replace(lt, ot_rewards=lt.ot_rewards * scale + shift) for lt in dataset]


def _label_one(
    episode: Trajectory,
    experts: list[Trajectory],
    cfg: LabelConfig,
    plan_rewards: PlanRewards,
) -> LabeledTrajectory:
    raw, best = aggregate_over_experts(episode, experts, cfg, plan_rewards)
    return LabeledTrajectory(base=episode, ot_rewards=squash(raw, cfg), raw_ot_rewards=raw,
                             source_expert=best)


def resolve_workers(workers: int) -> int:
    """The process count label_dataset uses: 0 means every core it may run on."""
    if isinstance(workers, bool) or not isinstance(workers, (int, np.integer)) or workers < 0:
        raise ValueError(f"workers must be an integer >= 0 (0 = all cores), got {workers!r}")
    if workers:
        return workers
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _label_claimed(label, episodes, counter, conn=None):
    """(index, label(episode)) per index claimed from counter, up to a failure's exception."""
    if conn is not None:  # a child: SIGTERM must end it, whatever handler it inherited
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    done = []
    while not (done and isinstance(done[-1][1], Exception)):
        with counter.get_lock():
            i, counter.value = counter.value, counter.value + 1
        if i >= len(episodes):
            break
        try:
            done.append((i, label(episodes[i])))
        except Exception as exc:
            done.append((i, exc))
    return done if conn is None else conn.send(done)


def _fork_join(label, episodes: list[Trajectory], n: int) -> list[LabeledTrajectory]:
    ctx = multiprocessing.get_context()
    counter, children = ctx.Value("i", 0), []
    try:
        for _ in range(n - 1):
            reader, writer = ctx.Pipe(duplex=False)
            child = ctx.Process(target=_label_claimed, args=(label, episodes, counter, writer))
            child.start()
            children.append((child, reader))
            writer.close()
        done = _label_claimed(label, episodes, counter)
        for child, reader in children:
            done += reader.recv()
            child.join()
    except EOFError:  # the child ended without sending
        child.join()
        raise RuntimeError(f"a labeling process ended with code {child.exitcode}") from None
    finally:
        for child, _ in children:
            child.terminate()  # only acts on a child not joined above
            child.join()
    done.sort(key=lambda pair: pair[0])
    if failed := [result for _, result in done if isinstance(result, Exception)]:
        raise failed[0]
    return [result for _, result in done]


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
    Episodes are independent, so workers > 1 labels them here and in up to
    workers - 1 children (one process per episode at most), each claiming the
    next index from one shared counter. Under spawn or forkserver each child
    also imports the package and is sent a pickled copy of the episodes.
    Labels, order and failures match the sequential run.
    Post-scaling is a barrier and runs once all episodes are labeled.
    """
    workers = resolve_workers(workers)
    if not experts:
        raise DataError("at least one expert demonstration is required")
    if not unlabeled:
        return []
    label_one = partial(_label_one, experts=experts, cfg=cfg, plan_rewards=plan_rewards)
    n = min(workers, len(unlabeled))
    labeled = _fork_join(label_one, unlabeled, n) if n > 1 else list(map(label_one, unlabeled))
    return post_scale_rewards(labeled, cfg.post_scale)


def uniform_plan_rewards(
    unlabeled: Trajectory, expert: Trajectory, cfg: LabelConfig
) -> np.ndarray:
    """Rewards under the suboptimal uniform coupling 1/(T*T').

    Every step is transported equally to every demonstration step, so the
    reward reduces to minus the average cost row, scaled by the step mass.
    """
    C = _pair_costs(unlabeled, expert, cfg)[2]
    return -(C * (1.0 / C.size)).sum(axis=1)


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
            raise DataError(f"expert episode {e.id!r} has no ground-truth rewards")
        out.append(LabeledTrajectory(base=e, ot_rewards=e.rewards.copy()))
    for ep in unlabeled:
        out.append(
            LabeledTrajectory(base=ep, ot_rewards=np.full(ep.length, float(r_min)))
        )
    return out
