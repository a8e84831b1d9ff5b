"""Desk-scale offline RL harness on a deterministic gridworld.

Stands in for a full offline RL stack at a size where ground truth is
computable: generate a mixed-quality episodic dataset, label it, run
tabular Q-iteration restricted to dataset support, and roll out the greedy
policy. A move into the goal pays Gridworld.goal_reward (default 1) and
every other move pays Gridworld.step_reward (default 0); with the defaults,
an episode's true return is whether it reached the goal.

Rewards are attached per state: rewards[t] belongs to the transition
(s_t, a_t, s_{t+1}); the final entry has no outgoing transition and is 0.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable
from dataclasses import MISSING, dataclass, field, fields, replace

import numpy as np

from .dataset_io import EpisodicDataset, return_correlations
from .errors import DataError
from .labeler import (
    LABEL_KEYS,
    LabelConfig,
    LabeledTrajectory,
    PostScale,
    label_dataset,
    parse_setting,
    uds_rewards,
    uniform_plan_rewards,
)
from .measures import Trajectory

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
        for name in ("step_reward", "goal_reward"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")

    def manhattan_distance(self) -> int:
        return abs(self.start[0] - self.goal[0]) + abs(self.start[1] - self.goal[1])

    def step(self, cell: tuple[int, int], action: int) -> tuple[int, int]:
        """Deterministic move; walking into a wall stays put."""
        dx, dy = ACTIONS[action]
        nx, ny = cell[0] + dx, cell[1] + dy
        if 0 <= nx < self.width and 0 <= ny < self.height:
            return (nx, ny)
        return cell

    def observation(self, cell) -> np.ndarray:
        """Feature vector (x, y scaled to [0, 1], constant 1); rows of them for arrays of x and y.

        The trailing 1 keeps every feature vector away from the zero
        vector, where the cosine distance would be degenerate. On a grid one
        cell wide (or high), x (or y) is 0, and so is its feature.
        """
        x = np.divide(cell[0], max(self.width - 1, 1))
        y = np.divide(cell[1], max(self.height - 1, 1))
        return np.stack([x, y, np.ones_like(x)], axis=-1)

    def state(self, cell):
        """Index x * height + y of cell (x, y); elementwise for arrays of x and y."""
        return cell[0] * self.height + cell[1]

    def decode_states(self, observations: np.ndarray) -> np.ndarray:
        """State of the cell behind each observation row; inverts observation."""
        scale = (self.width - 1, self.height - 1)
        return self.state(np.rint(observations[:, :2] * scale).astype(np.int64).T)

    def shortest_path_action(self, cell: tuple[int, int]) -> int:
        """Move toward the goal, horizontal before vertical."""
        if cell[0] != self.goal[0]:
            return 0 if self.goal[0] > cell[0] else 1
        return 2 if self.goal[1] > cell[1] else 3


def _move_rewards(env: Gridworld, at_goal: np.ndarray) -> np.ndarray:
    """rewards[t] is goal_reward if step t + 1 is at the goal, else step_reward; the last is 0."""
    return np.append(np.where(at_goal[1:], env.goal_reward, env.step_reward), 0.0)


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
    at_goal = np.array([c == env.goal for c in cells])
    return Trajectory(
        observations=env.observation(np.array(cells).T),
        actions=np.array([[float(a)] for a in actions]) if actions else None,
        rewards=_move_rewards(env, at_goal),
        terminals=at_goal,
        id=ep_id,
    )


def ground_truth_rewards(env: Gridworld, traj: Trajectory) -> np.ndarray:
    """Recompute the environment rewards of an episode from its states."""
    return _move_rewards(env, env.decode_states(traj.observations) == env.state(env.goal))


def generate_dataset(
    env: Gridworld, n_expert: int, n_medium: int, n_random: int, seed: int
) -> tuple[EpisodicDataset, EpisodicDataset]:
    """Roll out expert, noisy-expert and uniform-random episodes.

    Returns (experts, unlabeled). Expert episodes keep their ground-truth
    rewards; the unlabeled set has rewards stripped (ground_truth_rewards
    recomputes them). Identical seeds produce identical datasets.
    """
    if n_expert < 1:
        raise ValueError(f"need at least one expert episode, got {n_expert}")
    if n_medium < 0 or n_random < 0:
        raise ValueError("episode counts must be nonnegative")
    rng = np.random.default_rng(seed)
    experts = [_rollout(env, env.shortest_path_action, f"expert-{i:03d}")
               for i in range(n_expert)]
    medium, random_walk = _eps_greedy(env, rng, MEDIUM_EPSILON), _eps_greedy(env, rng, 1.0)
    mixed = [_rollout(env, medium, f"medium-{i:03d}") for i in range(n_medium)]
    mixed += [_rollout(env, random_walk, f"random-{i:03d}") for i in range(n_random)]
    return (EpisodicDataset(episodes=experts),
            EpisodicDataset(episodes=[replace(ep, rewards=None) for ep in mixed]))


@dataclass
class TabularQ:
    """Q-values indexed [x, y, action], NaN where the dataset never took the action."""

    values: np.ndarray
    trained_sweeps: int

    def value(self, cell: tuple[int, int], action: int) -> float:
        return float(self.values[cell][action])

    def greedy_action(self, cell: tuple[int, int]) -> int | None:
        """Best action the dataset took at cell, first on ties; None if none."""
        q = self.values[cell]
        return None if np.isnan(q).all() else int(np.nanargmax(q))


def _decode_transitions(env: Gridworld, dataset: list[LabeledTrajectory]):
    """(S, A, R, SN) over every stored move, states numbered by Gridworld.state."""
    moves = []
    for lt in dataset:
        obs, actions = lt.base.observations, lt.base.actions
        n = 0 if actions is None else min(len(actions), len(obs) - 1)
        if n:
            states = env.decode_states(obs[: n + 1])
            moves.append((states[:-1], np.rint(actions[:n, 0]).astype(np.int64),
                          lt.ot_rewards[:n], states[1:]))
    if not moves:
        raise DataError("no transitions to fit on")
    S, A, R, SN = (np.concatenate(xs) for xs in zip(*moves))
    if A.min() < 0 or A.max() >= N_ACTIONS:  # S * N_ACTIONS + A would alias another pair
        raise ValueError(f"actions must round to 0..{N_ACTIONS - 1}")
    return S, A, R, SN


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
    shape = (env.width * env.height, N_ACTIONS)
    pair = S * N_ACTIONS + A
    counts = np.bincount(pair, minlength=shape[0] * N_ACTIONS).reshape(shape)
    seen = counts > 0
    any_seen = seen.any(axis=1)
    bootstraps = SN != env.state(env.goal)

    Q = np.zeros(shape)
    for sweep in range(1, sweeps + 1):
        V = np.where(seen, Q, -np.inf).max(axis=1)
        V[~any_seen] = 0.0
        targets = R + env.discount * np.where(bootstraps, V[SN], 0.0)
        sums = np.bincount(pair, weights=targets, minlength=counts.size).reshape(shape)
        new_Q = np.divide(sums, counts, out=np.zeros(shape), where=seen)
        delta = float(np.abs(new_Q - Q).max())
        Q = new_Q
        if delta < Q_CONVERGENCE_TOL:
            break

    values = np.where(seen, Q, np.nan).reshape(env.width, env.height, N_ACTIONS)
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

    def __post_init__(self):
        if self.sweeps < 1:  # checked before any episode is generated or labeled
            raise ValueError(f"sweeps must be >= 1, got {self.sweeps}")


def reference_config() -> HarnessConfig:
    """The seeded 8x8 configuration used by the acceptance checks.

    The squash exponent and downward shift are sized to this grid's cost
    scale: shifting every squashed reward below zero makes lingering
    strictly unprofitable, so the greedy policy heads for the terminal
    goal along the least-costly (most expert-like) corridor. Every other
    setting is its dataclass default; configs/reference.gridworld spells
    them all out but marginal_tolerance and action_dim.
    """
    return HarnessConfig(
        env=Gridworld(width=8, height=8, start=(0, 0), goal=(7, 7)),
        label=LabelConfig(squash_beta=512.0, post_scale=PostScale.shift(-16.0)),
    )


def _parse_cell(text: str) -> tuple[int, int]:
    x, y = text.split(",")
    return (int(x), int(y))


# Config-file keys outside LabelConfig: key -> parser from text, one for each
# field of Gridworld and HarnessConfig whose annotation _PARSERS names.
_PARSERS = {"int": int, "float": float, "tuple[int, int]": _parse_cell}
_ENV_KEYS, _RUN_KEYS = ({f.name: _PARSERS[f.type] for f in fields(cls) if f.type in _PARSERS}
                        for cls in (Gridworld, HarnessConfig))


def _parse_keys(raw: dict[str, str], parsers: dict) -> dict[str, object]:
    """Pop and parse the keys of parsers that raw holds."""
    return {key: parse_setting(key, raw.pop(key), parse)
            for key, parse in parsers.items() if key in raw}


def load_harness_config(path) -> HarnessConfig:
    """Read a demo configuration file; configs/reference.gridworld is a complete example.

    Each line holds one ``key = value``; text after ``#`` and blank lines
    are ignored. Cells are written ``x,y``. The keys are those of three
    tables: ``_ENV_KEYS`` (the Gridworld), ``_RUN_KEYS`` (episode counts,
    seed, sweeps) and ``LABEL_KEYS`` (the label settings). width, height,
    start and goal are required; every other key keeps its default when
    absent. A missing required key, an unknown or repeated key or an
    unparsable value raises ValueError; an unknown key's message lists
    every accepted key.
    """
    raw: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line {line!r}; expected key = value")
            key, _, value = (part.strip() for part in line.partition("="))
            if key in raw:
                raise ValueError(f"{path}: key {key!r} set more than once")
            raw[key] = value

    known = [*_ENV_KEYS, *_RUN_KEYS, *LABEL_KEYS]
    unknown = [key for key in raw if key not in known]
    if unknown:
        raise ValueError(f"{path}: unknown key(s) {', '.join(map(repr, unknown))}; "
                         f"expected some of {', '.join(known)}")
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


# Demo labelers: name -> f(config, experts, unlabeled), which labels the experts
# and the unlabeled episodes together, experts first (the order uds_rewards
# returns), so a post-scale such as return-range spans the whole dataset the
# Q-fit sees. label_dataset is looked up per call, so rebinding it (as a
# tracer does) reaches these too.
LABELERS: dict[str, Callable[..., list[LabeledTrajectory]]] = {
    "otr": lambda config, experts, unlabeled: label_dataset(
        experts + unlabeled, experts, config.label),
    "uds": lambda config, experts, unlabeled: uds_rewards(
        unlabeled, experts, r_min=config.env.step_reward),
    "uniform": lambda config, experts, unlabeled: label_dataset(
        experts + unlabeled, experts, config.label, plan_rewards=uniform_plan_rewards),
    "truth": lambda config, experts, unlabeled: [
        LabeledTrajectory(base=ep, ot_rewards=ground_truth_rewards(config.env, ep))
        for ep in experts + unlabeled],
}


def run_demo(config: HarnessConfig, labeler: str) -> DemoResult:
    """Generate data, label it with LABELERS[labeler], fit Q, evaluate.

    The correlations compare the unlabeled episodes only.
    Seed-deterministic end to end.
    """
    if labeler not in LABELERS:
        raise ValueError(f"unknown labeler {labeler!r}; expected one of {', '.join(LABELERS)}")
    env = config.env
    experts_ds, unlabeled_ds = generate_dataset(
        env, config.n_expert, config.n_medium, config.n_random, config.seed
    )
    experts = experts_ds.episodes
    unlabeled = unlabeled_ds.episodes

    t0 = time.perf_counter()
    labeled = LABELERS[labeler](config, experts, unlabeled)
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
