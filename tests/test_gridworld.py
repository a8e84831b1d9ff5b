from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from otreward import (
    Gridworld,
    LabeledTrajectory,
    PostScale,
    TabularQ,
    evaluate_policy,
    fit_offline_q,
    generate_dataset,
    ground_truth_rewards,
    load_harness_config,
    reference_config,
    run_demo,
)
from otreward.errors import DataError
from otreward.gridworld import ACTIONS, N_ACTIONS

REFERENCE_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "reference.gridworld"


def small_env(**kwargs):
    defaults = dict(width=5, height=5, start=(0, 0), goal=(4, 4))
    defaults.update(kwargs)
    return Gridworld(**defaults)


def as_labeled(episodes):
    return [
        LabeledTrajectory(base=ep, ot_rewards=ep.rewards.copy()) for ep in episodes
    ]


def zero_q(env, pairs):
    """A TabularQ valued 0 at each (cell, action) of pairs, NaN elsewhere."""
    values = np.full((env.width, env.height, N_ACTIONS), np.nan)
    for (x, y), action in pairs:
        values[x, y, action] = 0.0
    return TabularQ(values=values, trained_sweeps=0)


def test_expert_episode_is_shortest_path():
    env = small_env()
    experts, _ = generate_dataset(env, 1, 0, 0, seed=0)
    ep = experts.episodes[0]
    # Manhattan distance 8 means 8 moves and 9 states.
    assert ep.length == env.manhattan_distance() + 1
    assert ep.episodic_return() == 1.0
    assert ep.terminals[-1]
    # Horizontal moves come first under the tie rule.
    assert [int(a[0]) for a in ep.actions[:4]] == [0, 0, 0, 0]


def test_random_episode_bounded_by_horizon():
    env = small_env(horizon=20)
    _, unlabeled = generate_dataset(env, 1, 0, 1, seed=3)
    ep = unlabeled.episodes[0]
    assert ep.length <= 21
    truth = ground_truth_rewards(env, ep)
    assert float(truth.sum()) in (0.0, 1.0)


def test_same_seed_reproduces_dataset():
    env = small_env()
    first = generate_dataset(env, 2, 3, 4, seed=11)
    second = generate_dataset(env, 2, 3, 4, seed=11)
    for ds1, ds2 in zip(first, second):
        assert len(ds1) == len(ds2)
        for a, b in zip(ds1.episodes, ds2.episodes):
            assert a.id == b.id
            assert np.array_equal(a.observations, b.observations)
            assert np.array_equal(a.actions, b.actions)


def test_invalid_counts():
    env = small_env()
    with pytest.raises(ValueError, match="need at least one expert episode, got 0"):
        generate_dataset(env, 0, 1, 1, seed=0)
    with pytest.raises(ValueError, match="episode counts must be nonnegative"):
        generate_dataset(env, 1, -1, 0, seed=0)


def test_unlabeled_has_no_rewards():
    env = small_env()
    _, unlabeled = generate_dataset(env, 1, 2, 2, seed=5)
    assert all(ep.rewards is None for ep in unlabeled.episodes)


def test_env_validation():
    with pytest.raises(ValueError):
        Gridworld(width=3, height=3, start=(1, 1), goal=(1, 1))
    with pytest.raises(ValueError):
        Gridworld(width=3, height=3, start=(0, 0), goal=(5, 5))
    with pytest.raises(ValueError):
        Gridworld(width=8, height=8, start=(0, 0), goal=(7, 7), horizon=3)
    with pytest.raises(ValueError, match="at least one cell per axis"):
        Gridworld(width=0, height=3, start=(0, 0), goal=(0, 2))
    for discount in (0.0, 1.0):
        with pytest.raises(ValueError, match="discount must be in"):
            Gridworld(width=3, height=3, start=(0, 0), goal=(2, 2), discount=discount)
    for key in ("step_reward", "goal_reward"):
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match=key):
                Gridworld(width=3, height=3, start=(0, 0), goal=(2, 2), **{key: bad})


def test_observation_round_trip():
    for width, height in [(5, 5), (4, 7), (1, 3)]:
        env = Gridworld(width=width, height=height, start=(0, 0), goal=(0, height - 1))
        cells = [(x, y) for x in range(env.width) for y in range(env.height)]
        states = env.decode_states(np.array([env.observation(c) for c in cells]))
        assert states.tolist() == [env.state(c) for c in cells] == list(range(len(cells)))
    # The constant feature keeps the origin away from the zero vector.
    assert np.linalg.norm(env.observation((0, 0))) == 1.0


def test_fit_on_single_expert_reaches_goal():
    env = small_env()
    experts, _ = generate_dataset(env, 1, 0, 0, seed=0)
    q = fit_offline_q(as_labeled(experts.episodes), env)
    assert evaluate_policy(q, env) == 1.0


def test_all_zero_rewards_give_zero_q():
    env = small_env()
    experts, _ = generate_dataset(env, 1, 0, 0, seed=0)
    zeroed = [
        LabeledTrajectory(base=ep, ot_rewards=np.zeros(ep.length))
        for ep in experts.episodes
    ]
    q = fit_offline_q(zeroed, env)
    assert q.trained_sweeps >= 1
    seen = ~np.isnan(q.values)
    assert seen.any() and (q.values[seen] == 0.0).all()


def _full_coverage_episodes(env):
    """One two-state episode per (cell, action) pair."""
    from otreward import Trajectory

    episodes = []
    for x in range(env.width):
        for y in range(env.height):
            cell = (x, y)
            if cell == env.goal:
                continue
            for action in range(N_ACTIONS):
                nxt = env.step(cell, action)
                reward = env.goal_reward if nxt == env.goal else env.step_reward
                episodes.append(
                    Trajectory(
                        observations=[env.observation(cell), env.observation(nxt)],
                        actions=[[float(action)]],
                        rewards=[reward, 0.0],
                        terminals=[cell == env.goal, nxt == env.goal],
                    )
                )
    return episodes


def _value_iteration(env, tol=1e-12):
    """Independent oracle: exact Q on the full MDP with absorbing goal."""
    cells = [
        (x, y)
        for x in range(env.width)
        for y in range(env.height)
    ]
    Q = {(c, a): 0.0 for c in cells for a in range(N_ACTIONS)}
    while True:
        delta = 0.0
        new = {}
        for c in cells:
            for a in range(N_ACTIONS):
                if c == env.goal:
                    new[(c, a)] = 0.0
                    continue
                nxt = env.step(c, a)
                r = env.goal_reward if nxt == env.goal else env.step_reward
                v = 0.0 if nxt == env.goal else max(
                    Q[(nxt, b)] for b in range(N_ACTIONS)
                )
                new[(c, a)] = r + env.discount * v
                delta = max(delta, abs(new[(c, a)] - Q[(c, a)]))
        Q = new
        if delta < tol:
            return Q


def test_full_coverage_fit_matches_value_iteration():
    env = Gridworld(width=3, height=3, start=(0, 0), goal=(2, 2))
    episodes = _full_coverage_episodes(env)
    labeled = as_labeled(episodes)
    q = fit_offline_q(labeled, env, sweeps=20000)
    oracle = _value_iteration(env)
    for (cell, action), expected in oracle.items():
        if cell == env.goal:
            continue
        assert q.value(cell, action) == pytest.approx(expected, abs=1e-6)
    assert evaluate_policy(q, env) == 1.0


def test_zero_q_corridor_pointing_away_fails():
    # Goal to the left, and the only action seen at (1, 0) is 0 (right):
    # greedy bumps into the wall until the horizon runs out.
    env = Gridworld(width=2, height=1, start=(1, 0), goal=(0, 0), horizon=5)
    assert evaluate_policy(zero_q(env, [((1, 0), 0)]), env) == 0.0


def test_zero_q_adjacent_goal_succeeds():
    env = Gridworld(width=2, height=1, start=(0, 0), goal=(1, 0), horizon=5)
    # No seen action at the start: the rollout ends there, a failure.
    assert evaluate_policy(zero_q(env, []), env) == 0.0
    assert evaluate_policy(zero_q(env, [((0, 0), 0)]), env) == 1.0


def test_greedy_action_takes_first_best_seen_action():
    env = Gridworld(width=2, height=1, start=(0, 0), goal=(1, 0))
    values = np.full((2, 1, N_ACTIONS), np.nan)
    values[0, 0] = [np.nan, -1.0, -0.5, -0.5]
    q = TabularQ(values=values, trained_sweeps=0)
    # The unseen action 0 never wins, whatever the seen values are.
    assert q.greedy_action((0, 0)) == 2
    assert q.greedy_action((1, 0)) is None


def test_fit_requires_transitions():
    env = small_env()
    with pytest.raises(DataError, match="no transitions to fit on"):
        fit_offline_q([], env)


def test_q_fit_on_reference_config_is_pinned():
    config = reference_config()
    env = config.env
    experts, unlabeled = generate_dataset(
        env, config.n_expert, config.n_medium, config.n_random, config.seed
    )
    labeled = [LabeledTrajectory(base=ep, ot_rewards=ground_truth_rewards(env, ep))
               for ep in experts.episodes + unlabeled.episodes]
    q = fit_offline_q(labeled, env, sweeps=config.sweeps)
    assert q.trained_sweeps == 16
    assert np.count_nonzero(~np.isnan(q.values)) == 251
    # 14 moves from the start to the goal: the last pays 1, discounted 13 times.
    assert q.value((0, 0), 0) == pytest.approx(0.99**13, abs=1e-12)


def _loop_q(env, dataset, sweeps):
    """Reference Q-iteration over a dict, one transition at a time, in dataset order."""
    moves = []
    for lt in dataset:
        cells = [divmod(int(s), env.height) for s in env.decode_states(lt.base.observations)]
        for t in range(min(len(lt.base.actions), len(cells) - 1)):
            moves.append((cells[t], int(lt.base.actions[t][0]), lt.ot_rewards[t], cells[t + 1]))
    Q = {(cell, action): 0.0 for cell, action, _, _ in moves}
    for sweep in range(1, sweeps + 1):
        V = {}
        for (cell, _), q in Q.items():
            V[cell] = max(V.get(cell, -np.inf), q)
        sums, counts = dict.fromkeys(Q, 0.0), dict.fromkeys(Q, 0)
        for cell, action, r, nxt in moves:
            sums[(cell, action)] += r + env.discount * (0.0 if nxt == env.goal else V.get(nxt, 0.0))
            counts[(cell, action)] += 1
        new = {pair: sums[pair] / counts[pair] for pair in Q}
        delta = max(abs(new[pair] - Q[pair]) for pair in Q)
        Q = new
        if delta < 1e-8:
            return Q, sweep
    return Q, sweeps


@pytest.mark.parametrize("sweeps", [3, 4000])
def test_fit_matches_per_transition_loop_bit_for_bit(sweeps):
    env = Gridworld(width=6, height=5, start=(0, 0), goal=(5, 4))
    experts, unlabeled = generate_dataset(env, 2, 5, 10, seed=3)
    rng = np.random.default_rng(0)
    labeled = [LabeledTrajectory(base=ep, ot_rewards=rng.normal(-1.0, 1.0, size=ep.length))
               for ep in experts.episodes + unlabeled.episodes]
    q = fit_offline_q(labeled, env, sweeps=sweeps)
    expected, expected_sweeps = _loop_q(env, labeled, sweeps)
    assert q.trained_sweeps == expected_sweeps
    assert np.count_nonzero(~np.isnan(q.values)) == len(expected)
    for (cell, action), value in expected.items():
        assert q.value(cell, action) == value


def test_config_rejects_repeated_key(tmp_path):
    path = tmp_path / "twice.gridworld"
    path.write_text(REFERENCE_CONFIG.read_text() + "seed = 2\n")
    with pytest.raises(ValueError, match="'seed'"):
        load_harness_config(path)


@pytest.mark.parametrize("action", [-1.0, 4.0])
def test_fit_rejects_actions_outside_the_action_set(action):
    from otreward import Trajectory

    env = small_env()
    ep = Trajectory(observations=[env.observation((1, 1)), env.observation((2, 1))],
                    actions=[[action]], rewards=[0.0, 0.0])
    with pytest.raises(ValueError, match="actions"):
        fit_offline_q(as_labeled([ep]), env)


def test_fit_rejects_zero_sweeps():
    env = small_env()
    experts, _ = generate_dataset(env, 1, 0, 0, seed=0)
    with pytest.raises(ValueError, match="sweeps"):
        fit_offline_q(as_labeled(experts.episodes), env, sweeps=0)


def test_ground_truth_rewards_match_generated():
    env = small_env()
    experts, unlabeled = generate_dataset(env, 1, 3, 3, seed=9)
    for ep in experts.episodes:
        assert np.array_equal(ground_truth_rewards(env, ep), ep.rewards)


def test_action_vectors_are_unit_moves():
    assert ACTIONS == ((1, 0), (-1, 0), (0, 1), (0, -1))


@pytest.mark.parametrize(
    "text, post_scale",
    [("none", PostScale.none()), ("return-range:250.0", PostScale.return_range(250.0)),
     ("shift:-0.5", PostScale.shift(-0.5))],
    ids=["none", "return-range", "shift"],
)
def test_harness_config_round_trip_is_lossless(tmp_path, text, post_scale):
    """The text spelling of each label setting loads as the setting it names."""
    base = reference_config()
    label = replace(
        base.label,
        sinkhorn=replace(base.label.sinkhorn, marginal_tolerance=1e-4),
        action_dim=3,
        post_scale=post_scale,
    )
    config = replace(base, label=label)
    lines = [line for line in REFERENCE_CONFIG.read_text().splitlines(True)
             if not line.startswith("post_scale")]
    path = tmp_path / "demo.gridworld"
    # Blank and comment-only lines are skipped.
    path.write_text("".join(lines) + "marginal_tolerance = 0.0001\n\n   # a note\n"
                    f"action_dim = 3\npost_scale = {text}\n")
    assert load_harness_config(path) == config


def test_reference_config_file_in_repo_matches_builtin():
    import pathlib

    repo = pathlib.Path(__file__).resolve().parents[1]
    assert load_harness_config(repo / "configs" / "reference.gridworld") == (
        reference_config()
    )


def test_run_demo_truth_on_small_config():
    from dataclasses import replace

    config = replace(
        reference_config(),
        env=small_env(),
        n_medium=4,
        n_random=6,
        seed=1,
        sweeps=500,
    )
    result = run_demo(config, "truth")
    assert result.success_rate == 1.0
    assert result.episodes_labeled == 10


def test_run_demo_rejects_unknown_labeler():
    with pytest.raises(ValueError):
        run_demo(reference_config(), "nonsense")


def test_run_demo_uniform_on_reference_config():
    result = run_demo(reference_config(), "uniform")
    assert result.success_rate == 1.0
    assert result.episodes_labeled == 100
    assert result.pearson == pytest.approx(0.9005408178891111, abs=1e-12)
    assert result.spearman == pytest.approx(0.7689987879792732, abs=1e-12)


@pytest.mark.parametrize("labeler", ["otr", "uniform"])
@pytest.mark.parametrize("n_expert", [1, 3])
def test_run_demo_return_range_spans_experts_and_unlabeled(n_expert, labeler):
    # Deterministic expert rollouts all share one return, so a return range
    # taken over the experts alone is zero.
    base = reference_config()
    config = replace(base, n_expert=n_expert,
                     label=replace(base.label, post_scale=PostScale.return_range(1000.0)))
    result = run_demo(config, labeler)
    assert result.episodes_labeled == 100


@pytest.mark.parametrize("labeler", ["otr", "uniform"])
def test_run_demo_succeeds_on_12x12(labeler):
    # Every learned Q is negative under the reference shift, so a greedy
    # policy that also weighed actions the dataset never took would prefer
    # them, e.g. a wall bump, and stall short of the goal.
    env = Gridworld(width=12, height=12, start=(0, 0), goal=(11, 11))
    result = run_demo(replace(reference_config(), env=env, seed=1), labeler)
    assert result.success_rate == 1.0
