import json
import os

import numpy as np
import pytest
from scipy import stats

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
from otreward import dataset_io
from otreward.errors import DataError, DimensionMismatch, ParseError

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
    # A blank line between records is skipped.
    path.write_text(
        '{"observations": [[1, 2], [3, 4]]}\n'
        '  \n'
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
@pytest.mark.parametrize("value", ["1", True, 2**70, None, [True], [False]],
                         ids=["string", "boolean", "beyond-64-bits", "null",
                              "true-among-numbers", "false-among-numbers"])
def test_non_number_values_name_the_line(tmp_path, key, value):
    # A scalar fills the whole field; a one-item list replaces only its last
    # entry, where numpy would read the boolean as the number 0 or 1.
    values = np.array(NUMBER_FIELDS[key], dtype=object)
    if isinstance(value, list):
        values.flat[-1] = value[0]
    else:
        values.fill(value)
    path = tmp_path / "values.jsonl"
    bad = {**NUMBER_FIELDS, key: values.tolist()}
    path.write_text(f"{json.dumps(NUMBER_FIELDS)}\n{json.dumps(bad)}\n")
    with pytest.raises(ParseError) as exc:
        read_dataset(path)
    assert exc.value.line_number == 2
    assert repr(key) in str(exc.value)


@pytest.mark.parametrize("value", ["true", "false", "1.0", "0.5", '"x"', '"1"', "-3", "[1]"],
                         ids=["true", "false", "float", "fraction", "string", "digit-string",
                              "negative", "list"])
def test_bad_source_expert_names_the_line(tmp_path, value):
    path = tmp_path / "sources.jsonl"
    path.write_text('{"observations": [[0]], "source_expert": 0}\n'
                    '{"observations": [[1]], "source_expert": %s}\n' % value)
    with pytest.raises(ParseError) as exc:
        read_dataset(path)
    assert exc.value.line_number == 2
    assert "source_expert" in str(exc.value)


@pytest.mark.parametrize("value", ["true", "[1, 2]", "7"], ids=["boolean", "list", "number"])
def test_non_string_id_names_the_line(tmp_path, value):
    path = tmp_path / "ids.jsonl"
    path.write_text('{"observations": [[0]], "id": "a"}\n'
                    '{"observations": [[1]], "id": %s}\n' % value)
    with pytest.raises(ParseError) as exc:
        read_dataset(path)
    assert exc.value.line_number == 2
    assert "'id' must be a string" in str(exc.value)


def test_null_or_missing_observations_name_the_line(tmp_path):
    path = tmp_path / "null.jsonl"
    for record in ('{"observations": null}', '{"rewards": [1.0]}'):
        path.write_text('{"observations": [[0]]}\n%s\n' % record)
        with pytest.raises(ParseError) as exc:
            read_dataset(path)
        assert exc.value.line_number == 2


def test_invalid_json_names_the_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    for record, message in (("not json", "invalid JSON"), ("[1, 2]", "record is not an object")):
        path.write_text('{"observations": [[1]]}\n%s\n' % record)
        with pytest.raises(ParseError, match=f"line 2: {message}") as exc:
            read_dataset(path)
        assert exc.value.line_number == 2


def test_non_finite_values_rejected(tmp_path):
    path = tmp_path / "nan.jsonl"
    path.write_text('{"observations": [[1.0], [null]]}\n')
    with pytest.raises(ParseError, match="'observations' must hold numbers"):
        read_dataset(path)
    path.write_text('{"observations": [[1.0], [NaN]]}\n')
    with pytest.raises(DataError, match="line 1: observations contain NaN or infinity"):
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
    assert loaded.episodes[0].source_expert == 3
    write_dataset(path, loaded)
    assert read_dataset(path).episodes[0].source_expert == 3
    assert json.loads(path.read_text())["source_expert"] == 3


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
    with pytest.raises(DataError, match="has no rewards$"):
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


def test_failed_write_leaves_no_temp_file_and_keeps_the_old_output(tmp_path):
    path = tmp_path / "out.jsonl"
    path.write_text("old\n")

    def write(fh):
        fh.write("partial\n")
        raise RuntimeError("writer failed")

    with pytest.raises(RuntimeError, match="writer failed"):
        dataset_io._atomic_write(path, write)
    assert path.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["out.jsonl"]


def test_return_correlations_match_scipy():
    rng = np.random.default_rng(2024)
    compared = 0
    for ties in (False, True):
        for n in (2, 3, 4, 7, 20, 100, 300):
            for _ in range(10):
                if ties:
                    x = rng.integers(0, 5, size=n).astype(float)
                    y = x + rng.integers(-2, 3, size=n)
                else:
                    x = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3)
                    y = 0.5 * x + rng.normal(size=n)
                pearson, spearman, degenerate = dataset_io.return_correlations(x, y)
                if x.min() == x.max() or y.min() == y.max():
                    assert (pearson, spearman, degenerate) == (0.0, 0.0, True)
                    continue
                assert not degenerate
                assert abs(pearson - stats.pearsonr(x, y).statistic) <= 1e-12
                assert abs(spearman - stats.spearmanr(x, y).statistic) <= 1e-12
                compared += 1
    assert compared >= 130


def test_return_correlations_of_returns_near_the_float_limit():
    # The mean of these finite values overflows unless each side is scaled first.
    huge = dataset_io.return_correlations([1e308, 1e308, -1e308], [1.0, 2.0, 3.0])
    unit = dataset_io.return_correlations([1.0, 1.0, -1.0], [1.0, 2.0, 3.0])
    assert huge[:2] == pytest.approx(unit[:2], abs=1e-15)
    assert huge[2] is unit[2] is False


@pytest.mark.parametrize("x, y", [
    ([1.0], [2.0]),
    ([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]),
    ([1.0, 2.0, 3.0], [0.1, 0.1, 0.1]),
    ([1.0, np.inf, 3.0], [1.0, 2.0, 3.0]),
    ([1.0, 2.0, 3.0], [-np.inf, 2.0, 3.0]),
    ([1.0, 2.0, np.nan], [1.0, 2.0, 3.0]),
], ids=["length-1", "constant-x", "constant-y", "inf-x", "minus-inf-y", "nan"])
def test_return_correlations_degenerate(x, y):
    assert dataset_io.return_correlations(x, y) == (0.0, 0.0, True)
