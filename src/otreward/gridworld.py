"""Desk-scale offline RL harness on a deterministic gridworld.

Stands in for a full offline RL stack at a size where ground truth is
computable: generate a mixed-quality episodic dataset, label it, run
tabular Q-iteration restricted to dataset support, and roll out the greedy
policy. The goal transition pays 1, everything else 0, so an episode's
true return is simply whether it reached the goal.

Rewards are attached per state: rewards[t] belongs to the transition
(s_t, a_t, s_{t+1}); the final entry has no outgoing transition and is 0.
"""

from __future__ import annotations

import json
import time
from collections.abc import Callable
from dataclasses import MISSING, dataclass, field, fields, replace

import numpy as np

from .costs import CostKind
from .dataset_io import EpisodicDataset, return_correlations
from .errors import EmptyDataset, InvalidCounts
from .labeler import (
    LabelConfig,
    LabeledTrajectory,
    PostScale,
    ScaleMode,
    label_dataset,
    parse_setting,
    uds_rewards,
    uniform_plan_rewards,
)
from .measures import FeatureMode, Trajectory
from .solver import SinkhornParams

# Fixed action order; greedy ties resolve to the first maximizer.
ACTIONS = ((1, 0), (-1, 0), (0, 1), (0, -1))  # right, left, up, down
N_ACTIONS = 4
MEDIUM_EPSILON = 0.3
Q_CONVERGENCE_TOL = 1e-8


@dataclass(frozen=True)
class Gridworld:
    """Deterministic grid MDP with a single absorbing goal."""

    width: int
    height: int
    start: tuple[int, int]
    goal: tuple[int, int]
    step_reward: float = 0.0
    goal_reward: float = 1.0
    horizon: int = 0  # 0 means the default 4 * (width + height)
    discount: float = 0.99

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("grid must have at least one cell per axis")
        for cell in (self.start, self.goal):
            x, y = cell
            if not (0 <= x < self.width and 0 <= y < self.height):
                raise ValueError(f"cell {cell} outside {self.width}x{self.height} grid")
        if self.start == self.goal:
            raise ValueError("start and goal must differ")
        if self.horizon == 0:
            object.__setattr__(self, "horizon", 4 * (self.width + self.height))
        if self.horizon < self.manhattan_distance():
            raise ValueError(
                f"horizon {self.horizon} shorter than start-goal distance "
                f"{self.manhattan_distance()}"
            )
        if not 0 < self.discount < 1:
            raise ValueError(f"discount must be in (0, 1), got {self.discount}")

    def manhattan_distance(self) -> int:
        return abs(self.start[0] - self.goal[0]) + abs(self.start[1] - self.goal[1])

    def step(self, cell: tuple[int, int], action: int) -> tuple[int, int]:
        """Deterministic move; walking into a wall stays put."""
        dx, dy = ACTIONS[action]
        nx, ny = cell[0] + dx, cell[1] + dy
        if 0 <= nx < self.width and 0 <= ny < self.height:
            return (nx, ny)
        return cell

    def observation(self, cell: tuple[int, int]) -> np.ndarray:
        """Feature vector (x, y scaled to [0, 1], constant 1).

        The trailing 1 keeps every feature vector away from the zero
        vector, where the cosine distance would be degenerate.
        """
        x = cell[0] / (self.width - 1) if self.width > 1 else 0.0
        y = cell[1] / (self.height - 1) if self.height > 1 else 0.0
        return np.array([x, y, 1.0])

    def decode_cell(self, obs: np.ndarray) -> tuple[int, int]:
        x = int(round(float(obs[0]) * (self.width - 1))) if self.width > 1 else 0
        y = int(round(float(obs[1]) * (self.height - 1))) if self.height > 1 else 0
        return (x, y)

    def shortest_path_action(self, cell: tuple[int, int]) -> int:
        """Move toward the goal, horizontal before vertical."""
        if cell[0] != self.goal[0]:
            return 0 if self.goal[0] > cell[0] else 1
        return 2 if self.goal[1] > cell[1] else 3


def _cell_rewards(env: Gridworld, cells: list[tuple[int, int]]) -> np.ndarray:
    """rewards[t] pays for the move into cells[t + 1]; the last entry is 0."""
    rewards = np.zeros(len(cells))
    for t in range(len(cells) - 1):
        rewards[t] = env.goal_reward if cells[t + 1] == env.goal else env.step_reward
    return rewards


Policy = Callable[[tuple[int, int]], int | None]


def _eps_greedy(env: Gridworld, rng: np.random.Generator, eps: float) -> Policy:
    """With probability eps a uniform action, else the shortest-path one."""

    def policy(cell: tuple[int, int]) -> int:
        if eps > 0 and rng.random() < eps:
            return int(rng.integers(N_ACTIONS))
        return env.shortest_path_action(cell)

    return policy


def _rollout(env: Gridworld, policy: Policy, ep_id: str) -> Trajectory:
    """Walk from the start until the goal, the horizon, or a None action."""
    cells = [env.start]
    actions: list[int] = []
    cell = env.start
    for _ in range(env.horizon):
        if cell == env.goal:
            break
        action = policy(cell)
        if action is None:
            break
        actions.append(action)
        cell = env.step(cell, action)
        cells.append(cell)
    return Trajectory(
        observations=np.array([env.observation(c) for c in cells]),
        actions=np.array([[float(a)] for a in actions]) if actions else np.zeros((0, 1)),
        rewards=_cell_rewards(env, cells),
        terminals=np.array([c == env.goal for c in cells]),
        id=ep_id,
    )


def ground_truth_rewards(env: Gridworld, traj: Trajectory) -> np.ndarray:
    """Recompute the environment rewards of an episode from its states."""
    return _cell_rewards(env, [env.decode_cell(o) for o in traj.observations])


def generate_dataset(
    env: Gridworld, n_expert: int, n_medium: int, n_random: int, seed: int
) -> tuple[EpisodicDataset, EpisodicDataset]:
    """Roll out expert, noisy-expert and uniform-random episodes.

    Returns (experts, unlabeled). Expert episodes keep their ground-truth
    rewards; the unlabeled set has rewards stripped, with each episode's
    true return stashed in the metadata under ``true_returns`` for
    diagnostics. Identical seeds produce identical datasets.
    """
    if n_expert < 1:
        raise InvalidCounts(f"need at least one expert episode, got {n_expert}")
    if n_medium < 0 or n_random < 0:
        raise InvalidCounts("episode counts must be nonnegative")
    rng = np.random.default_rng(seed)
    experts = [_rollout(env, env.shortest_path_action, f"expert-{i:03d}")
               for i in range(n_expert)]
    medium, random_walk = _eps_greedy(env, rng, MEDIUM_EPSILON), _eps_greedy(env, rng, 1.0)
    mixed = [_rollout(env, medium, f"medium-{i:03d}") for i in range(n_medium)]
    mixed += [_rollout(env, random_walk, f"random-{i:03d}") for i in range(n_random)]

    true_returns = {ep.id: ep.episodic_return() for ep in mixed}
    stripped = [replace(ep, rewards=None) for ep in mixed]
    expert_ds = EpisodicDataset(episodes=experts, metadata={"split": "expert"})
    unlabeled_ds = EpisodicDataset(
        episodes=stripped,
        metadata={"split": "unlabeled", "true_returns": json.dumps(true_returns)},
    )
    return expert_ds, unlabeled_ds


@dataclass
class TabularQ:
    """State-action values for the (cell, action) pairs the dataset took."""

    values: dict[tuple[tuple[int, int], int], float]
    trained_sweeps: int

    def value(self, cell: tuple[int, int], action: int) -> float:
        return self.values[(cell, action)]

    def greedy_action(self, cell: tuple[int, int]) -> int | None:
        """Best action the dataset took at cell, first on ties; None if none."""
        seen = [a for a in range(N_ACTIONS) if (cell, a) in self.values]
        return max(seen, key=lambda a: self.values[(cell, a)], default=None)


def _decode_transitions(env: Gridworld, dataset: list[LabeledTrajectory]):
    """(S, A, R, SN) over every stored move; cell (x, y) is state x * height + y."""
    S, A, R, SN = [], [], [], []
    for lt in dataset:
        traj = lt.base
        states = [x * env.height + y for x, y in map(env.decode_cell, traj.observations)]
        n_moves = 0 if traj.actions is None else traj.actions.shape[0]
        for t in range(min(n_moves, len(states) - 1)):
            S.append(states[t])
            A.append(int(round(float(traj.actions[t][0]))))
            R.append(float(lt.ot_rewards[t]))
            SN.append(states[t + 1])
    S, A, SN = (np.array(xs, dtype=np.int64) for xs in (S, A, SN))
    return S, A, np.array(R), SN


def fit_offline_q(
    dataset: list[LabeledTrajectory], env: Gridworld, sweeps: int = 4000
) -> TabularQ:
    """Synchronous Q-iteration over dataset transitions only.

    Q(s, a) <- mean over matching transitions of r + gamma * max Q(s', a'),
    where the max runs over actions the dataset actually takes at s'
    (support restriction). A transition into the goal cell is terminal and
    bootstraps to zero, whatever the episode's stored terminals say. Stops
    when the largest update falls below 1e-8 or after sweeps (>= 1) sweeps.
    """
    if sweeps < 1:
        raise ValueError(f"sweeps must be >= 1, got {sweeps}")
    S, A, R, SN = _decode_transitions(env, dataset)
    if len(S) == 0:
        raise EmptyDataset("no transitions to fit on")
    seen = np.zeros((env.width * env.height, N_ACTIONS), dtype=bool)
    seen[S, A] = True
    any_seen = seen.any(axis=1)
    pair = S * N_ACTIONS + A
    upairs, inv = np.unique(pair, return_inverse=True)
    counts = np.bincount(inv).astype(np.float64)
    goal_state = env.goal[0] * env.height + env.goal[1]
    gamma = env.discount

    Q = np.zeros(seen.shape)
    for sweep in range(1, sweeps + 1):
        masked = np.where(seen, Q, -np.inf)
        V = masked.max(axis=1)
        V[~any_seen] = 0.0
        targets = R + gamma * np.where(SN == goal_state, 0.0, V[SN])
        sums = np.bincount(inv, weights=targets, minlength=len(upairs))
        new_values = sums / counts
        delta = float(np.abs(new_values - Q[upairs // N_ACTIONS, upairs % N_ACTIONS]).max())
        Q[upairs // N_ACTIONS, upairs % N_ACTIONS] = new_values
        if delta < Q_CONVERGENCE_TOL:
            break

    values = {(divmod(int(s), env.height), int(a)): float(Q[s, a])
              for s, a in zip(*np.nonzero(seen))}
    return TabularQ(values=values, trained_sweeps=sweep)


def evaluate_policy(q: TabularQ, env: Gridworld) -> float:
    """1.0 if the greedy rollout reaches the goal within the horizon, else 0.0.

    The greedy policy picks among the actions the dataset took at a cell
    (q.greedy_action), so an action with no learned value is never taken;
    a cell with no such action ends the rollout as a failure. Dynamics and
    policy are deterministic, so one rollout decides.
    """
    return float(_rollout(env, q.greedy_action, "greedy").terminals[-1])


# ---------------------------------------------------------------------------
# Demo configuration and end-to-end run
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HarnessConfig:
    """Everything needed to reproduce one end-to-end demo run."""

    env: Gridworld
    n_expert: int = 1
    n_medium: int = 20
    n_random: int = 80
    seed: int = 7
    label: LabelConfig = field(default_factory=LabelConfig)
    sweeps: int = 4000


def reference_config() -> HarnessConfig:
    """The seeded 8x8 configuration used by the acceptance checks.

    The squash exponent and downward shift are sized to this grid's cost
    scale: shifting every squashed reward below zero makes lingering
    strictly unprofitable, so the greedy policy heads for the terminal
    goal along the least-costly (most expert-like) corridor.
    """
    return HarnessConfig(
        env=Gridworld(width=8, height=8, start=(0, 0), goal=(7, 7)),
        n_expert=1,
        n_medium=20,
        n_random=80,
        seed=7,
        label=LabelConfig(
            cost=CostKind.COSINE,
            features=FeatureMode.STATE,
            sinkhorn=SinkhornParams(epsilon=0.01, max_iterations=1000),
            squash_alpha=5.0,
            squash_beta=512.0,
            squash_scale=ScaleMode.PLAIN,
            post_scale=PostScale.shift(-16.0),
        ),
        sweeps=4000,
    )


def _parse_cell(text: str) -> tuple[int, int]:
    x, y = text.split(",")
    return (int(x), int(y))


# Config-file keys outside LabelConfig: key -> parser from text.
_ENV_KEYS = {
    "width": int,
    "height": int,
    "start": _parse_cell,
    "goal": _parse_cell,
    "horizon": int,
    "discount": float,
    "step_reward": float,
    "goal_reward": float,
}
_RUN_KEYS = {"n_expert": int, "n_medium": int, "n_random": int, "seed": int, "sweeps": int}


def _parse_keys(raw: dict[str, str], parsers: dict) -> dict[str, object]:
    """Pop and parse the keys of parsers that raw holds."""
    return {key: parse_setting(key, raw.pop(key), parse)
            for key, parse in parsers.items() if key in raw}


def save_harness_config(path, config: HarnessConfig) -> None:
    """Serialize a demo configuration as plain key = value lines."""
    values = {key: getattr(config.env, key) for key in _ENV_KEYS}
    values.update((key, getattr(config, key)) for key in _RUN_KEYS)
    text = {
        key: ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
        for key, value in values.items()
    }
    text.update(config.label.to_text())
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{key} = {value}\n" for key, value in text.items())


def load_harness_config(path) -> HarnessConfig:
    """Parse a key = value demo configuration file.

    The accepted keys are those of ``_ENV_KEYS`` (the Gridworld), the run
    keys of ``_RUN_KEYS`` and the label settings of ``labeler.LABEL_KEYS``.
    A missing required Gridworld key, an unknown key or an unparsable value
    raises ValueError; every other missing key keeps its default.
    """
    raw: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line {line!r}; expected key = value")
            key, _, value = line.partition("=")
            raw[key.strip()] = value.strip()

    missing = [f.name for f in fields(Gridworld) if f.default is MISSING and f.name not in raw]
    if missing:
        raise ValueError(f"{path}: missing required key(s) {', '.join(missing)}")
    env = Gridworld(**_parse_keys(raw, _ENV_KEYS))
    run = _parse_keys(raw, _RUN_KEYS)
    return HarnessConfig(env=env, label=LabelConfig().with_text(raw), **run)


@dataclass
class DemoResult:
    labeler: str
    success_rate: float
    pearson: float
    spearman: float
    degenerate_correlation: bool
    label_seconds: float
    fit_seconds: float
    episodes_labeled: int
    trained_sweeps: int


def run_demo(config: HarnessConfig, labeler: str) -> DemoResult:
    """Generate data, label it with the chosen method, fit Q, evaluate.

    labeler is one of "otr", "uds", "uniform", "truth". Each labels the
    experts and the unlabeled episodes together, experts first, so a
    post-scale such as return-range spans the whole dataset the Q-fit
    sees. The correlations compare the unlabeled episodes only.
    Seed-deterministic end to end.
    """
    env = config.env
    experts_ds, unlabeled_ds = generate_dataset(
        env, config.n_expert, config.n_medium, config.n_random, config.seed
    )
    experts = experts_ds.episodes
    unlabeled = unlabeled_ds.episodes
    cfg = config.label
    episodes = experts + unlabeled  # experts first, the order uds_rewards returns

    t0 = time.perf_counter()
    if labeler == "otr":
        labeled = label_dataset(episodes, experts, cfg)
    elif labeler == "uniform":
        labeled = label_dataset(episodes, experts, cfg, plan_rewards=uniform_plan_rewards)
    elif labeler == "uds":
        labeled = uds_rewards(unlabeled, experts, r_min=env.step_reward)
    elif labeler == "truth":
        labeled = [LabeledTrajectory(base=ep, ot_rewards=ground_truth_rewards(env, ep))
                   for ep in episodes]
    else:
        raise ValueError(f"unknown labeler {labeler!r}")
    label_seconds = time.perf_counter() - t0
    unlabeled_part = labeled[len(experts) :]

    true_returns = [float(ground_truth_rewards(env, ep).sum()) for ep in unlabeled]
    labeled_returns = [lt.episodic_return() for lt in unlabeled_part]
    pearson, spearman, degenerate = return_correlations(labeled_returns, true_returns)

    t0 = time.perf_counter()
    q = fit_offline_q(labeled, env, sweeps=config.sweeps)
    fit_seconds = time.perf_counter() - t0
    success = evaluate_policy(q, env)

    return DemoResult(
        labeler=labeler,
        success_rate=success,
        pearson=pearson,
        spearman=spearman,
        degenerate_correlation=degenerate,
        label_seconds=label_seconds,
        fit_seconds=fit_seconds,
        episodes_labeled=len(unlabeled_part),
        trained_sweeps=q.trained_sweeps,
    )
