import json

import numpy as np
import pytest

from otreward import (
    EpisodicDataset,
    LabeledTrajectory,
    Trajectory,
    read_dataset,
    select_top_k_experts,
    write_dataset,
    write_diagnostics,
    write_labeled,
)
from otreward.errors import (
    DimensionMismatch,
    NonFiniteValue,
    ParseError,
    RewardsMissing,
)

from conftest import make_episode


def full_episode(rng, length, ep_id):
    return make_episode(
        rng, length, 3, with_actions=True, action_dim=2, with_rewards=True, ep_id=ep_id
    )


def test_round_trip_preserves_everything(rng, tmp_path):
    episodes = [full_episode(rng, 4, "a"), full_episode(rng, 7, "b")]
    episodes[0] = Trajectory(
        observations=episodes[0].observations,
        actions=episodes[0].actions,
        rewards=episodes[0].rewards,
        terminals=np.array([False, False, False, True]),
        id="a",
    )
    path = tmp_path / "data.jsonl"
    write_dataset(path, EpisodicDataset(episodes=episodes))
    loaded = read_dataset(path)
    assert len(loaded) == 2
    for orig, back in zip(episodes, loaded.episodes):
        assert back.id == orig.id
        assert np.array_equal(back.observations, orig.observations)
        assert np.array_equal(back.actions, orig.actions)
        assert np.array_equal(back.rewards, orig.rewards)
        if orig.terminals is not None:
            assert np.array_equal(back.terminals, orig.terminals)


def test_empty_file_is_empty_dataset(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert len(read_dataset(path)) == 0


def test_write_empty_dataset(tmp_path):
    path = tmp_path / "empty.jsonl"
    write_dataset(path, EpisodicDataset(episodes=[]))
    assert path.read_text() == ""


def test_two_records_parse(tmp_path):
    path = tmp_path / "two.jsonl"
    path.write_text(
        '{"observations": [[1, 2], [3, 4]]}\n'
        '{"observations": [[5, 6]], "rewards": [0.5], "id": "x"}\n'
    )
    ds = read_dataset(path)
    assert len(ds) == 2
    assert ds.episodes[0].id == "ep-00000"
    assert ds.episodes[1].id == "x"
    assert ds.episodes[1].rewards[0] == 0.5


def test_ragged_observations_name_the_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    for observations in ("[[1, 2], [3]]", "[1, 2]", "[]"):  # ragged, 1-D, empty
        path.write_text(
            '{"observations": [[1, 2]]}\n{"observations": %s}\n' % observations
        )
        with pytest.raises(ParseError) as exc:
            read_dataset(path)
        assert exc.value.line_number == 2
        assert "line 2" in str(exc.value)


def test_terminals_accept_booleans_and_zero_one_numbers(tmp_path):
    path = tmp_path / "terminals.jsonl"
    for terminals in ("[false, true]", "[0, 1]", "[0.0, 1.0]", "[false, 1]"):
        path.write_text('{"observations": [[1], [2]], "terminals": %s}\n' % terminals)
        (episode,) = read_dataset(path).episodes
        assert episode.terminals.dtype == bool
        assert episode.terminals.tolist() == [False, True]


def test_non_boolean_terminals_name_the_line(tmp_path):
    path = tmp_path / "terminals.jsonl"
    for terminals in ('["false", "no"]', "[2, 0]", "[0.5, 0.0]", '["0", "1"]', "[null, true]",
                      "[NaN, 1]", "[-1, 1]", "[[0], [1]]", "[[0, 1], [1]]"):
        path.write_text('{"observations": [[0]]}\n'
                        '{"observations": [[1], [2]], "terminals": %s}\n' % terminals)
        with pytest.raises(ParseError) as exc:
            read_dataset(path)
        assert exc.value.line_number == 2


NUMBER_FIELDS = {"observations": [[1, 2], [3, 4]], "actions": [[0.5], [1.5]], "rewards": [1, 2]}


@pytest.mark.parametrize("key", NUMBER_FIELDS)
@pytest.mark.parametrize("value", ["1", True, 2**70, None],
                         ids=["string", "boolean", "beyond-64-bits", "null"])
def test_non_number_values_name_the_line(tmp_path, key, value):
    path = tmp_path / "values.jsonl"
    bad = {**NUMBER_FIELDS, key: np.full(np.shape(NUMBER_FIELDS[key]), value).tolist()}
    path.write_text(f"{json.dumps(NUMBER_FIELDS)}\n{json.dumps(bad)}\n")
    with pytest.raises(ParseError) as exc:
        read_dataset(path)
    assert exc.value.line_number == 2


def test_null_or_missing_observations_name_the_line(tmp_path):
    path = tmp_path / "null.jsonl"
    for record in ('{"observations": null}', '{"rewards": [1.0]}'):
        path.write_text('{"observations": [[0]]}\n%s\n' % record)
        with pytest.raises(ParseError) as exc:
            read_dataset(path)
        assert exc.value.line_number == 2


def test_invalid_json_names_the_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"observations": [[1]]}\nnot json\n')
    with pytest.raises(ParseError) as exc:
        read_dataset(path)
    assert exc.value.line_number == 2


def test_non_finite_values_rejected(tmp_path):
    path = tmp_path / "nan.jsonl"
    path.write_text('{"observations": [[1.0], [null]]}\n')
    with pytest.raises((NonFiniteValue, ParseError)):
        read_dataset(path)
    path.write_text('{"observations": [[1.0], [NaN]]}\n')
    with pytest.raises(NonFiniteValue):
        read_dataset(path)


def test_inconsistent_dims_across_episodes(tmp_path):
    path = tmp_path / "dims.jsonl"
    path.write_text(
        '{"observations": [[1, 2]]}\n{"observations": [[1, 2, 3]]}\n'
    )
    with pytest.raises(DimensionMismatch):
        read_dataset(path)


def test_labeled_round_trip_bit_exact(rng, tmp_path):
    base = make_episode(rng, 5, 2, with_actions=True, ep_id="ep")
    rewards = rng.normal(size=5) * 1e-7 + np.pi
    labeled = LabeledTrajectory(
        base=base, ot_rewards=rewards, raw_ot_rewards=-np.abs(rewards), source_expert=3
    )
    path = tmp_path / "labeled.jsonl"
    write_labeled(path, [labeled])
    loaded = read_dataset(path)
    assert np.array_equal(loaded.episodes[0].rewards, rewards)
    rec = json.loads(path.read_text().splitlines()[0])
    assert rec["source_expert"] == 3


def test_write_labeled_order_and_count(rng, tmp_path):
    labeled = [
        LabeledTrajectory(base=make_episode(rng, 3, 2, ep_id=f"e{i}"),
                          ot_rewards=np.zeros(3))
        for i in range(3)
    ]
    path = tmp_path / "out.jsonl"
    write_labeled(path, labeled)
    lines = path.read_text().splitlines()
    assert len(lines) == 3
    assert [json.loads(l)["id"] for l in lines] == ["e0", "e1", "e2"]
    write_labeled(tmp_path / "none.jsonl", [])
    assert (tmp_path / "none.jsonl").read_text() == ""


def _with_returns(returns, rng):
    episodes = []
    for i, ret in enumerate(returns):
        rewards = np.zeros(3)
        rewards[0] = ret
        episodes.append(
            Trajectory(
                observations=rng.normal(size=(3, 2)), rewards=rewards, id=f"ep{i}"
            )
        )
    return EpisodicDataset(episodes=episodes)


def test_select_top_1(rng):
    ds = _with_returns([5.0, 9.0, 1.0], rng)
    picked = select_top_k_experts(ds, 1)
    assert [ep.id for ep in picked.episodes] == ["ep1"]


def test_select_all_sorted(rng):
    ds = _with_returns([5.0, 9.0, 1.0], rng)
    picked = select_top_k_experts(ds, 3)
    assert [ep.id for ep in picked.episodes] == ["ep1", "ep0", "ep2"]


def test_select_tie_prefers_earlier(rng):
    ds = _with_returns([7.0, 7.0], rng)
    picked = select_top_k_experts(ds, 1)
    assert picked.episodes[0].id == "ep0"


def test_select_k_larger_than_dataset_returns_all(rng):
    ds = _with_returns([1.0, 2.0], rng)
    picked = select_top_k_experts(ds, 5)
    assert [ep.id for ep in picked.episodes] == ["ep1", "ep0"]


def test_select_requires_rewards(rng):
    ds = EpisodicDataset(episodes=[make_episode(rng, 3, 2)])
    with pytest.raises(RewardsMissing):
        select_top_k_experts(ds, 1)


def test_selected_returns_permutation_invariant(rng):
    returns = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0]
    ds = _with_returns(returns, rng)
    perm = [5, 2, 0, 6, 1, 4, 3]
    shuffled = EpisodicDataset(episodes=[ds.episodes[i] for i in perm])
    for k in (1, 3, 7):
        a = sorted(ep.episodic_return() for ep in select_top_k_experts(ds, k).episodes)
        b = sorted(
            ep.episodic_return() for ep in select_top_k_experts(shuffled, k).episodes
        )
        assert a == b


def test_diagnostics_csv_format(tmp_path):
    path = tmp_path / "diag.csv"
    write_diagnostics(path, [("ep0", 1.0, -3.5, 0), ("ep1", 0.0, -9.25, 1)])
    lines = path.read_text().splitlines()
    assert lines[0] == "episode_id,ground_truth_return,otr_return,source_expert"
    assert lines[1] == "ep0,1.0,-3.5,0"
    assert len(lines) == 3
    assert path.read_bytes() == (
        b"episode_id,ground_truth_return,otr_return,source_expert\r\n"
        b"ep0,1.0,-3.5,0\r\nep1,0.0,-9.25,1\r\n"
    )


def test_jsonl_lines_end_in_a_bare_newline(rng, tmp_path):
    episodes = [full_episode(rng, 3, "a"), full_episode(rng, 2, "b")]
    plain, labeled = tmp_path / "plain.jsonl", tmp_path / "labeled.jsonl"
    write_dataset(plain, EpisodicDataset(episodes=episodes))
    write_labeled(labeled, [LabeledTrajectory(base=ep, ot_rewards=ep.rewards)
                            for ep in episodes])
    for path in (plain, labeled):
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n") and raw.count(b"\n") == 2
        assert [json.loads(line)["id"] for line in raw.splitlines()] == ["a", "b"]
