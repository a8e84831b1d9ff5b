import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import otreward
from otreward import (EpisodicDataset, LabelConfig, Trajectory, cli, errors, read_dataset,
                      write_dataset)
from otreward.cli import main

from conftest import make_episode


def write_episodes(path, episodes):
    write_dataset(path, EpisodicDataset(episodes=episodes))


@pytest.fixture
def small_files(tmp_path, rng):
    unlabeled = [make_episode(rng, int(rng.integers(3, 8)), 3, ep_id=f"u{i}")
                 for i in range(10)]
    expert = [make_episode(rng, 6, 3, ep_id="expert")]
    upath = tmp_path / "unlabeled.jsonl"
    epath = tmp_path / "experts.jsonl"
    write_episodes(upath, unlabeled)
    write_episodes(epath, expert)
    return upath, epath


def test_label_defaults(small_files, tmp_path, capsys):
    upath, epath = small_files
    out = tmp_path / "labeled.jsonl"
    code = main(["label", str(upath), str(epath), str(out)])
    assert code == 0
    assert len(out.read_text().splitlines()) == 10
    stdout = capsys.readouterr().out
    assert "episodes labeled = 10" in stdout
    assert "wall time" in stdout


def test_label_missing_experts_file(small_files, tmp_path, capsys):
    upath, _ = small_files
    missing = tmp_path / "nope.jsonl"
    code = main(["label", str(upath), str(missing), str(tmp_path / "out.jsonl")])
    assert code == 5
    assert "nope.jsonl" in capsys.readouterr().err


def test_label_self_expert_plain_unit(tmp_path, rng, capsys):
    expert = [make_episode(rng, 8, 3, ep_id="e")]
    epath = tmp_path / "expert.jsonl"
    write_episodes(epath, expert)
    out = tmp_path / "self.jsonl"
    code = main([
        "label", str(epath), str(epath), str(out),
        "--squash-mode", "plain", "--alpha", "1", "--beta", "1",
    ])
    assert code == 0
    rec = json.loads(out.read_text().splitlines()[0])
    assert np.abs(np.array(rec["rewards"]) - 1.0).max() <= 1e-3


def test_label_unknown_flag_is_usage_error(small_files, tmp_path):
    upath, epath = small_files
    with pytest.raises(SystemExit) as exc:
        main(["label", str(upath), str(epath), str(tmp_path / "o"), "--bogus"])
    assert exc.value.code == 2


def test_label_numeric_failure_exit_code(tmp_path, rng, capsys):
    # A single episode makes the return-range rescale degenerate.
    ep = [make_episode(rng, 4, 2, ep_id="only")]
    path = tmp_path / "one.jsonl"
    write_episodes(path, ep)
    out = tmp_path / "out.jsonl"
    code = main([
        "label", str(path), str(path), str(out), "--post-scale", "return-range",
    ])
    assert code == 4
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--alpha", "1e308", "--post-scale", "return-range"],
    ["--beta", "-100000"],
    ["--alpha", "1e308"],
], ids=["alpha-return-range", "beta-overflow", "alpha"])
def test_label_that_is_not_finite_exits_numeric_and_writes_nothing(small_files, tmp_path,
                                                                   capsys, flags):
    # Each run's labels or returns overflow; reading such a file back would fail.
    upath, epath = small_files
    out = tmp_path / "out.jsonl"
    assert main(["label", str(upath), str(epath), str(out), "--preset", "plain", *flags]) == 4
    assert not out.exists()
    err = capsys.readouterr().err
    assert "episode 'u" in err and "not finite" in err


def test_label_epsilon_too_small_for_the_costs_exits_numeric(small_files, tmp_path, capsys):
    upath, epath = small_files
    out = tmp_path / "out.jsonl"
    assert main(["label", str(upath), str(epath), str(out), "--epsilon", "1e-320"]) == 4
    assert not out.exists()
    assert "epsilon" in capsys.readouterr().err


def test_label_non_utf8_file_is_a_parse_error(small_files, tmp_path, capsys):
    upath, epath = small_files
    lines = upath.read_bytes().split(b"\n")
    lines[1] = lines[1].replace(b'"id": "u1"', b'"id": "u\xff"')
    assert b"\xff" in lines[1]
    upath.write_bytes(b"\n".join(lines))
    assert main(["label", str(upath), str(epath), str(tmp_path / "out.jsonl")]) == 3
    assert "line 2" in capsys.readouterr().err


def test_label_never_leaves_partial_output(small_files, tmp_path):
    upath, epath = small_files
    out = tmp_path / "no_such_dir" / "out.jsonl"
    code = main(["label", str(upath), str(epath), str(out)])
    assert code == 5
    assert not out.exists()


def test_label_parallel_determinism(small_files, tmp_path):
    upath, epath = small_files
    out1 = tmp_path / "p1.jsonl"
    out2 = tmp_path / "p2.jsonl"
    assert main(["label", str(upath), str(epath), str(out1),
                 "--parallelism", "1"]) == 0
    assert main(["label", str(upath), str(epath), str(out2),
                 "--parallelism", "2"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_label_preset_antmaze(small_files, tmp_path):
    upath, epath = small_files
    out = tmp_path / "antmaze.jsonl"
    code = main(["label", str(upath), str(epath), str(out), "--preset", "antmaze",
                 "--beta", "10"])
    assert code == 0
    recs = [json.loads(l) for l in out.read_text().splitlines()]
    # Squash lands in (0, 5]; the antmaze preset then shifts by -2.
    for rec in recs:
        assert all(-2.0 < r <= 3.0 for r in rec["rewards"])


def test_label_post_scale_is_one_multiply_add_on_the_unscaled_labels(tmp_path, rng):
    upath, epath = tmp_path / "u.jsonl", tmp_path / "e.jsonl"
    write_episodes(upath, [make_episode(rng, int(rng.integers(5, 31)), 3, ep_id=f"u{i}")
                           for i in range(6)])
    write_episodes(epath, [make_episode(rng, 12, 3, ep_id="expert")])
    labels = {}
    for spec in ("none", "shift:-0.25", "return-range:7"):
        out = tmp_path / f"{spec.replace(':', '_')}.jsonl"
        assert main(["label", str(upath), str(epath), str(out), "--preset", "plain",
                     "--max-iters", "50", "--parallelism", "1", "--post-scale", spec]) == 0
        labels[spec] = [ep.rewards for ep in read_dataset(out).episodes]
    returns = [float(np.asarray(rewards).sum()) for rewards in labels["none"]]
    factor = 7.0 / (max(returns) - min(returns))
    for none, shifted, ranged in zip(labels["none"], labels["shift:-0.25"],
                                     labels["return-range:7"]):
        assert shifted.tobytes() == (none + -0.25).tobytes()
        assert ranged.tobytes() == (none * factor).tobytes()


def test_select_experts_top_one(tmp_path, rng, capsys):
    eps = []
    for i, ret in enumerate([1.0, 5.0, 3.0]):
        ep = make_episode(rng, 3, 2, ep_id=f"ep{i}")
        eps.append(Trajectory(observations=ep.observations,
                              rewards=np.array([ret, 0.0, 0.0]), id=ep.id))
    path = tmp_path / "ds.jsonl"
    write_episodes(path, eps)
    out = tmp_path / "picked.jsonl"
    assert main(["select-experts", str(path), str(out), "--k", "1"]) == 0
    recs = out.read_text().splitlines()
    assert len(recs) == 1
    assert json.loads(recs[0])["id"] == "ep1"


def test_select_experts_k_too_large_warns(tmp_path, rng, capsys):
    eps = [Trajectory(observations=rng.normal(size=(3, 2)),
                      rewards=np.zeros(3) + i, id=f"e{i}") for i in range(2)]
    path = tmp_path / "ds.jsonl"
    write_episodes(path, eps)
    out = tmp_path / "picked.jsonl"
    assert main(["select-experts", str(path), str(out), "--k", "9"]) == 0
    captured = capsys.readouterr()
    assert "warning" in captured.err
    assert len(out.read_text().splitlines()) == 2


def test_select_experts_k_zero_is_usage_error(tmp_path, rng, capsys):
    path = tmp_path / "ds.jsonl"
    write_episodes(path, [Trajectory(observations=rng.normal(size=(3, 2)), rewards=np.ones(3))])
    out = tmp_path / "picked.jsonl"
    assert main(["select-experts", str(path), str(out), "--k", "0"]) == 2
    assert "k must be >= 1, got 0" in capsys.readouterr().err
    assert not out.exists()


def test_select_experts_without_rewards_fails(tmp_path, rng, capsys):
    path = tmp_path / "ds.jsonl"
    write_episodes(path, [make_episode(rng, 3, 2)])
    code = main(["select-experts", str(path), str(tmp_path / "o.jsonl"), "--k", "1"])
    assert code == 3
    assert "rewards" in capsys.readouterr().err.lower()


def _reward_file(tmp_path, rng, name, rewards_by_id):
    episodes = []
    for ep_id, rewards in rewards_by_id.items():
        episodes.append(
            Trajectory(observations=rng.normal(size=(len(rewards), 2)),
                       rewards=np.asarray(rewards), id=ep_id)
        )
    path = tmp_path / name
    write_episodes(path, episodes)
    return path


def test_diagnose_identical_returns(tmp_path, rng, capsys):
    labeled = _reward_file(tmp_path, rng, "l.jsonl",
                           {"a": [1.0, 2.0], "b": [0.0, 3.0], "c": [4.0]})
    truth = _reward_file(tmp_path, rng, "t.jsonl",
                         {"a": [3.0], "b": [3.0], "c": [4.0]})
    out = tmp_path / "diag.csv"
    assert main(["diagnose", str(labeled), str(truth), str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "pearson = 1.000000" in stdout
    lines = out.read_text().splitlines()
    assert lines[0] == "episode_id,ground_truth_return,otr_return,source_expert"
    assert len(lines) == 4


def test_diagnose_constant_labels_degenerate(tmp_path, rng, capsys):
    labeled = _reward_file(tmp_path, rng, "l.jsonl", {"a": [1.0], "b": [1.0]})
    truth = _reward_file(tmp_path, rng, "t.jsonl", {"a": [0.0], "b": [5.0]})
    assert main(["diagnose", str(labeled), str(truth),
                 str(tmp_path / "d.csv")]) == 0
    captured = capsys.readouterr()
    assert "degenerate" in captured.err
    assert "pearson = 0.000000" in captured.out


def test_diagnose_id_mismatch(tmp_path, rng, capsys):
    labeled = _reward_file(tmp_path, rng, "l.jsonl", {"a": [1.0]})
    truth = _reward_file(tmp_path, rng, "t.jsonl", {"z": [1.0]})
    code = main(["diagnose", str(labeled), str(truth), str(tmp_path / "d.csv")])
    assert code == 3


@pytest.mark.parametrize("labeled_ids, truth_ids, message", [
    (["a", "b"], ["a"], "'b' not present"),
    (["a", "a"], ["a"], "'a' appears more than once in .*l.jsonl"),
    (["a"], ["a", "a"], "'a' appears more than once in .*t.jsonl"),
], ids=["missing", "repeated-labeled", "repeated-truth"])
def test_diagnose_unpaired_ids_are_id_mismatch(tmp_path, capsys, labeled_ids, truth_ids,
                                                message):
    for name, ids in (("l.jsonl", labeled_ids), ("t.jsonl", truth_ids)):
        (tmp_path / name).write_text("".join(
            json.dumps({"id": ep_id, "observations": [[float(i)]], "rewards": [float(i)]}) + "\n"
            for i, ep_id in enumerate(ids)))
    out = tmp_path / "d.csv"
    assert main(["diagnose", str(tmp_path / "l.jsonl"), str(tmp_path / "t.jsonl"),
                 str(out)]) == 3
    err = capsys.readouterr().err
    assert re.search(message, err), err
    assert not out.exists()


@pytest.mark.parametrize("missing_in", ["truth", "labeled"])
def test_diagnose_episode_without_rewards_names_its_file(tmp_path, capsys, missing_in):
    for name in ("labeled", "truth"):
        rec = {"id": "a", "observations": [[0.0]]}
        if name != missing_in:
            rec["rewards"] = [1.0]
        (tmp_path / f"{name}.jsonl").write_text(json.dumps(rec) + "\n")
    out = tmp_path / "d.csv"
    assert main(["diagnose", str(tmp_path / "labeled.jsonl"), str(tmp_path / "truth.jsonl"),
                 str(out)]) == 3
    assert f"episode 'a' has no rewards in {missing_in} file" in capsys.readouterr().err
    assert not out.exists()


def test_diagnose_overflowing_return_is_a_data_error(tmp_path, rng, capsys):
    labeled = _reward_file(tmp_path, rng, "l.jsonl", {"a": [1.0], "big": [1e308, 1e308]})
    truth = _reward_file(tmp_path, rng, "t.jsonl", {"a": [1.0], "big": [2.0]})
    out = tmp_path / "d.csv"
    assert main(["diagnose", str(labeled), str(truth), str(out)]) == 3
    assert "episode 'big' has a return that is not finite" in capsys.readouterr().err
    assert not out.exists()


def test_select_experts_overflowing_return_is_a_data_error(tmp_path, rng, capsys):
    path = _reward_file(tmp_path, rng, "ds.jsonl", {"a": [1.0], "big": [1e308, 1e308]})
    out = tmp_path / "o.jsonl"
    assert main(["select-experts", str(path), str(out), "--k", "1"]) == 3
    assert "episode 'big' has a return that is not finite" in capsys.readouterr().err
    assert not out.exists()


def test_demo_gridworld_truth_small(tmp_path, capsys):
    path = tmp_path / "small.gridworld"
    path.write_text("width = 4\nheight = 4\nstart = 0,0\ngoal = 3,3\n"
                    "n_medium = 3\nn_random = 5\n")
    code = main(["demo-gridworld", "--config", str(path), "--labeler", "truth"])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "success_rate = 1.0" in stdout
    assert "labeler = truth" in stdout
    # UDS gives every unlabeled step the step reward 0, so all their returns are equal.
    assert main(["demo-gridworld", "--config", str(path), "--labeler", "uds"]) == 0
    assert "reward correlation: degenerate (reported as 0)" in capsys.readouterr().out


def test_demo_gridworld_bad_config(tmp_path, capsys):
    path = tmp_path / "broken.gridworld"
    path.write_text("width 8\n")
    code = main(["demo-gridworld", "--config", str(path)])
    assert code == 2


REFERENCE_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "reference.gridworld"


def reference_config_with(tmp_path, key, value):
    """The reference config file with the line of key set to value."""
    path = tmp_path / "demo.gridworld"
    path.write_text("".join(f"{key} = {value}\n" if line.split("=")[0].strip() == key else line
                            for line in REFERENCE_CONFIG.read_text().splitlines(True)))
    return path


def test_demo_gridworld_config_missing_key(tmp_path, capsys):
    path = tmp_path / "no-width.gridworld"
    path.write_text("".join(line for line in REFERENCE_CONFIG.read_text().splitlines(True)
                            if not line.startswith("width")))
    assert main(["demo-gridworld", "--config", str(path)]) == 2
    assert "width" in capsys.readouterr().err


def test_demo_gridworld_config_unknown_key(tmp_path, capsys):
    path = tmp_path / "typo.gridworld"
    # A typo of a label key and of a run key; the message lists every accepted key.
    for line in ("epsilom = 0.1", "sed = 7"):
        path.write_text(REFERENCE_CONFIG.read_text() + line + "\n")
        assert main(["demo-gridworld", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert repr(line.split()[0]) in err
        assert all(key in err for key in ("width", "horizon", "seed", "n_random", "epsilon"))


def test_demo_gridworld_config_zero_experts_is_usage_error(tmp_path, capsys):
    path = reference_config_with(tmp_path, "n_expert", "0")
    assert main(["demo-gridworld", "--config", str(path)]) == 2
    assert "need at least one expert episode, got 0" in capsys.readouterr().err


def test_demo_gridworld_default_config_is_the_reference_file(capsys):
    def summary():
        return re.sub(r"time = [\d.]+ s", "time", capsys.readouterr().out)

    assert main(["demo-gridworld"]) == 0
    default = summary()
    assert "labeler = otr" in default and "success_rate" in default
    assert main(["demo-gridworld", "--config", str(REFERENCE_CONFIG)]) == 0
    assert summary() == default


def test_demo_gridworld_config_repeated_key(tmp_path, capsys):
    path = tmp_path / "twice.gridworld"
    path.write_text("seed = 1\n" + REFERENCE_CONFIG.read_text())
    assert main(["demo-gridworld", "--config", str(path)]) == 2
    assert "'seed' set more than once" in capsys.readouterr().err


def test_demo_gridworld_config_zero_sweeps_is_usage_error(tmp_path, capsys, monkeypatch):
    def no_episodes(*args, **kwargs):
        raise AssertionError("episodes generated before the config was validated")

    monkeypatch.setattr(otreward.gridworld, "generate_dataset", no_episodes)
    path = tmp_path / "no-sweeps.gridworld"
    path.write_text(REFERENCE_CONFIG.read_text() + "sweeps = 0\n")
    with pytest.raises(ValueError, match="sweeps"):
        otreward.load_harness_config(path)
    assert main(["demo-gridworld", "--config", str(path), "--labeler", "otr"]) == 2
    assert "sweeps" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("beta", "nan"), ("epsilon", "inf")])
def test_demo_gridworld_config_non_finite_value_is_usage_error(tmp_path, capsys, monkeypatch,
                                                               key, value):
    def no_episodes(*args, **kwargs):
        raise AssertionError("episodes generated before the config was validated")

    monkeypatch.setattr(otreward.gridworld, "generate_dataset", no_episodes)
    path = reference_config_with(tmp_path, key, value)
    assert main(["demo-gridworld", "--config", str(path)]) == 2
    assert "finite" in capsys.readouterr().err


def test_demo_gridworld_config_zero_return_range_is_usage_error(tmp_path, capsys,
                                                              monkeypatch):
    def no_episodes(*args, **kwargs):
        raise AssertionError("episodes generated before the config was validated")

    monkeypatch.setattr(otreward.gridworld, "generate_dataset", no_episodes)
    path = reference_config_with(tmp_path, "post_scale", "return-range:0")
    assert main(["demo-gridworld", "--config", str(path)]) == 2
    assert "return-range" in capsys.readouterr().err


def test_label_bad_post_scale_is_usage_error(small_files, tmp_path, capsys):
    upath, epath = small_files
    out = tmp_path / "out.jsonl"
    code = main(["label", str(upath), str(epath), str(out),
                 "--post-scale", "return-rangeXYZ"])
    assert code == 2
    assert "return-rangeXYZ" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("epsilon", "abc"), ("width", "x")])
def test_demo_gridworld_config_unparsable_value_names_its_key(tmp_path, capsys, key, value):
    path = reference_config_with(tmp_path, key, value)
    assert main(["demo-gridworld", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert key in err and repr(value) in err


def test_label_unparsable_flag_value_names_its_key(small_files, tmp_path, capsys):
    upath, epath = small_files
    for flag, key, value in [("--post-scale", "post_scale", "shift:x"),
                             ("--epsilon", "epsilon", "abc"),
                             ("--max-iters", "max_iterations", "1.5")]:
        code = main(["label", str(upath), str(epath), str(tmp_path / "out.jsonl"), flag, value])
        assert code == 2
        err = capsys.readouterr().err
        assert key in err and repr(value) in err


@pytest.mark.parametrize("flags", [["--post-scale", "return-rangeXYZ"],
                                   ["--preset", "locomotion"],
                                   ["--parallelism", "-1"],
                                   ["--beta", "nan"],
                                   ["--alpha", "inf"],
                                   ["--post-scale", "shift:nan"],
                                   ["--post-scale", "return-range:inf"],
                                   ["--post-scale", "return-range:0"],
                                   ["--post-scale", "return-range:-5"],
                                   ["--preset", "locomotion", "--action-dim", "1",
                                    "--beta", "1e306"]],
                         ids=["bad-post-scale", "locomotion-without-action-dim",
                              "negative-parallelism", "nan-beta", "infinite-alpha",
                              "nan-shift", "infinite-return-range", "zero-return-range",
                              "negative-return-range", "infinite-exponent"])
def test_label_checks_flags_before_reading_files(tmp_path, flags):
    missing = [str(tmp_path / name) for name in ("u.jsonl", "e.jsonl", "out.jsonl")]
    assert main(["label", *missing, *flags]) == 2


@pytest.mark.parametrize("preset", ["locomotion", "antmaze", "plain"])
def test_cli_preset_matches_library_preset(preset):
    flags = ["--action-dim", "6"] if preset == "locomotion" else []
    args = cli.build_parser().parse_args(["label", "u", "e", "out", "--preset", preset, *flags])
    expected = getattr(LabelConfig, f"{preset}_preset")(*([6] if flags else []))
    assert cli._build_label_config(args) == expected


def test_cli_flag_overrides_the_preset_beta():
    # The antmaze exponent is beta, 1000 by the preset; --beta replaces it.
    args = cli.build_parser().parse_args(["label", "u", "e", "out", "--preset", "antmaze",
                                          "--beta", "10"])
    cfg = cli._build_label_config(args)
    assert cfg == replace(LabelConfig.antmaze_preset(), squash_beta=10.0)
    assert cfg.squash_exponent() == 10.0


@pytest.mark.parametrize("flags", [["--episode-length", "1000"], ["--squash-mode", "antmaze"]],
                         ids=["episode-length", "antmaze-mode"])
def test_removed_label_flags_are_usage_errors(tmp_path, flags):
    missing = [str(tmp_path / name) for name in ("u.jsonl", "e.jsonl", "out.jsonl")]
    with pytest.raises(SystemExit) as exc:
        main(["label", *missing, *flags])
    assert exc.value.code == 2


@pytest.mark.parametrize("line, named", [("episode_length = 1000", "'episode_length'"),
                                         ("squash_mode = antmaze", "'antmaze'")])
def test_removed_config_settings_are_usage_errors(tmp_path, capsys, line, named):
    path = tmp_path / "demo.gridworld"
    path.write_text(REFERENCE_CONFIG.read_text().replace("squash_mode = plain\n", "")
                    + line + "\n")
    assert main(["demo-gridworld", "--config", str(path)]) == 2
    assert named in capsys.readouterr().err


def test_diagnose_source_expert_column(tmp_path, rng, capsys):
    truth = _reward_file(tmp_path, rng, "t.jsonl", {"a": [1.0], "b": [2.0]})
    records = [{"id": "a", "observations": [[0.0, 1.0]], "rewards": [0.5],
                "source_expert": 2},
               {"id": "b", "observations": [[1.0, 0.0]], "rewards": [1.5]}]
    labeled = tmp_path / "l.jsonl"
    labeled.write_text("".join(json.dumps(r) + "\n" for r in records))
    out = tmp_path / "diag.csv"
    assert main(["diagnose", str(labeled), str(truth), str(out)]) == 0
    assert out.read_text().splitlines()[1:] == ["a,1.0,0.5,2", "b,2.0,1.5,"]


def test_select_experts_keeps_source_expert(tmp_path):
    records = [{"id": f"e{i}", "observations": [[float(i)]], "rewards": [ret],
                "source_expert": source}
               for i, (ret, source) in enumerate([(1.0, 1), (5.0, 0), (3.0, 2), (4.0, None)])]
    labeled, selected, out = tmp_path / "l.jsonl", tmp_path / "s.jsonl", tmp_path / "diag.csv"
    labeled.write_text("".join(json.dumps(r) + "\n" for r in records))
    assert main(["select-experts", str(labeled), str(selected), "--k", "3"]) == 0
    picked = [json.loads(line) for line in selected.read_text().splitlines()]
    assert [(r["id"], r.get("source_expert")) for r in picked] == [
        ("e1", 0), ("e3", None), ("e2", 2)]
    assert "source_expert" not in picked[1]
    assert main(["diagnose", str(selected), str(labeled), str(out)]) == 0
    assert out.read_text().splitlines()[1:] == ["e1,5.0,5.0,0", "e3,4.0,4.0,", "e2,3.0,3.0,2"]


def _error_classes(cls=errors.OtRewardError):
    for sub in cls.__subclasses__():
        yield sub
        yield from _error_classes(sub)


def test_every_error_exits_with_its_documented_code(monkeypatch, capsys):
    documented = {name: int(code) for code, name
                  in re.findall(r"(\d) ([\w/]+)", cli.__doc__.split("Exit codes:")[1])}
    code_of_base = {errors.DataError: documented["parse/data"],
                    errors.NumericError: documented["numeric"],
                    errors.DataIoError: documented["I/O"]}
    classes = list(_error_classes())
    # A class exists only where code catches it (DimensionMismatch) or reads its
    # data (ParseError.line_number); every other fault raises its category.
    assert sorted(cls.__name__ for cls in classes) == [
        "DataError", "DataIoError", "DimensionMismatch", "NumericError", "ParseError"]
    for cls in classes:
        codes = [code for base, code in code_of_base.items() if issubclass(cls, base)]
        assert len(codes) == 1, f"{cls.__name__} needs exactly one exit-code base"
        exc = cls(1, "boom") if issubclass(cls, errors.ParseError) else cls("boom")

        def fail(path, exc=exc):
            raise exc

        monkeypatch.setattr(cli, "read_dataset", fail)
        assert main(["select-experts", "in.jsonl", "out.jsonl", "--k", "1"]) == codes[0], (
            cls.__name__)
        assert "boom" in capsys.readouterr().err


def test_commands_run_without_scipy(tmp_path, rng):
    # scipy is a test dependency only: importing the package and running
    # diagnose and demo-gridworld (both compute correlations) load none of it.
    path = _reward_file(tmp_path, rng, "r.jsonl", {"a": [1.0], "b": [3.0], "c": [2.0]})
    src = str(Path(otreward.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = (
        "import sys, otreward, otreward.cli\n"
        f"assert otreward.cli.main(['diagnose', {str(path)!r}, {str(path)!r}, "
        f"{str(tmp_path / 'd.csv')!r}]) == 0\n"
        "assert otreward.cli.main(['demo-gridworld']) == 0\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.splitlines()[-1] == "[]"
