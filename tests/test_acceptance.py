"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with pytest -s) carrying
the measured numbers, then asserts them at the stated tolerances.
"""

import itertools
import os
import time

import numpy as np
import pytest

from otreward import (
    CostKind,
    FeatureMode,
    LabelConfig,
    SinkhornParams,
    Trajectory,
    label_dataset,
    ot_rewards_single,
    pad_measure,
    pairwise_costs,
    reference_config,
    run_demo,
    sinkhorn,
    squash,
    trajectory_to_measure,
    uniform_plan_rewards,
    write_dataset,
)
from otreward.cli import main
from otreward.dataset_io import EpisodicDataset, return_correlations
from otreward.labeler import ScaleMode, optimal_plan_rewards

from conftest import make_circle_episode, make_episode, make_gait_episode, random_cost_instance
from lp_oracle import lp_oracle

PLAIN = LabelConfig.plain_preset()


def report(num, ok, detail):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_01_sinkhorn_feasibility():
    rng = np.random.default_rng(1001)
    params = SinkhornParams(epsilon=0.01)
    converged = 0
    worst = 0.0
    t0 = time.perf_counter()
    for _ in range(200):
        rows = int(rng.integers(2, 51))
        cols = int(rng.integers(2, 61))
        C, a, b = random_cost_instance(rng, rows, cols, dim=int(rng.integers(2, 17)))
        coupling = sinkhorn(C, a, b, params)
        if coupling.converged:
            converged += 1
            res = max(
                float(np.abs(coupling.plan.sum(axis=1) - a).max()),
                float(np.abs(coupling.plan.sum(axis=0) - b).max()),
            )
            worst = max(worst, res)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 10.0
    report(1, ok, f"{converged}/200 converged, worst residual {worst:.2e}, "
                  f"{elapsed:.2f} s")
    assert worst <= 1e-6
    assert elapsed < 10.0


def test_criterion_02_lp_oracle_equivalence():
    rng = np.random.default_rng(1002)
    t0 = time.perf_counter()
    exact_matches = 0
    within_gap = 0
    params = SinkhornParams(epsilon=0.001, max_iterations=5000)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        C = rng.uniform(0.0, 2.0, size=(n, n))
        marginals = np.full(n, 1.0 / n)
        oracle = lp_oracle(C, marginals, marginals)

        best = np.inf
        for perm in itertools.permutations(range(n)):
            plan = np.zeros((n, n))
            for i, j in enumerate(perm):
                plan[i, j] = 1.0 / n
            best = min(best, float((plan * C).sum()))
        exact_matches += oracle.transport_cost == best

        approx = sinkhorn(C, marginals, marginals, params)
        gap = (approx.transport_cost - oracle.transport_cost) / max(
            oracle.transport_cost, 1e-12
        )
        within_gap += gap <= 0.02
    elapsed = time.perf_counter() - t0
    ok = exact_matches == 100 and within_gap >= 95 and elapsed < 30.0
    report(2, ok, f"exact {exact_matches}/100, within 2% {within_gap}/100, "
                  f"{elapsed:.2f} s")
    assert exact_matches == 100
    assert within_gap >= 95
    assert elapsed < 30.0


def test_criterion_03_reward_bookkeeping():
    rng = np.random.default_rng(1003)
    worst = 0.0
    for _ in range(100):
        ep = make_episode(rng, int(rng.integers(1, 40)), int(rng.integers(1, 9)))
        ex = make_episode(rng, int(rng.integers(1, 40)), ep.obs_dim)
        raw, coupling = ot_rewards_single(ep, ex, PLAIN)
        worst = max(worst, abs(-float(raw.sum()) - coupling.transport_cost))
    ok = worst <= 1e-9
    report(3, ok, f"worst |sum(raw) + transport_cost| = {worst:.2e}")
    assert worst <= 1e-9


def test_criterion_04_padding_invariance():
    rng = np.random.default_rng(1004)
    params = SinkhornParams()
    worst_plan = 0.0
    worst_total = 0.0
    for _ in range(50):
        na, nb = int(rng.integers(2, 13)), int(rng.integers(2, 13))
        dim = int(rng.integers(2, 6))
        a = trajectory_to_measure(make_episode(rng, na, dim), FeatureMode.STATE)
        b = trajectory_to_measure(make_episode(rng, nb, dim), FeatureMode.STATE)
        padded = pad_measure(a, na + int(rng.integers(1, 9)))

        C = pairwise_costs(a, b, CostKind.COSINE)
        Cp = pairwise_costs(padded, b, CostKind.COSINE)
        base = sinkhorn(C, a.weights, b.weights, params)
        wide = sinkhorn(Cp, padded.weights, b.weights, params)

        assert np.all(wide.plan[na:] == 0.0)
        worst_plan = max(worst_plan, float(np.abs(wide.plan[:na] - base.plan).max()))
        rewards = -(C * base.plan).sum(axis=1)
        rewards_p = -(Cp * wide.plan).sum(axis=1)[:na]
        worst_total = max(worst_total, abs(float(rewards.sum() - rewards_p.sum())))
    ok = worst_plan <= 1e-5 and worst_total <= 1e-6
    report(4, ok, f"worst coupling diff {worst_plan:.2e}, "
                  f"worst total-reward diff {worst_total:.2e}")
    assert worst_plan <= 1e-5
    assert worst_total <= 1e-6


def test_criterion_05_squashing_presets():
    locomotion = LabelConfig.locomotion_preset(action_dim=6)
    antmaze = LabelConfig.antmaze_preset()
    plain = LabelConfig.plain_preset()
    at_zero = (
        float(squash(np.zeros(1), locomotion)[0]),
        float(squash(np.zeros(1), antmaze)[0]),
    )
    rng = np.random.default_rng(1005)
    rs = -rng.uniform(0.0, 0.5, size=8)
    plain_matches = bool(np.array_equal(squash(rs, plain), np.exp(rs)))

    monotone = True
    for cfg in (locomotion, antmaze, plain):
        pairs = -rng.uniform(0.0, 0.5, size=(1000, 2))
        for r1, r2 in pairs:
            if abs(r1 - r2) < 1e-9:
                continue
            lo, hi = sorted([r1, r2])
            s = squash(np.array([lo, hi]), cfg)
            monotone = monotone and s[0] < s[1]
    ok = at_zero == (5.0, 5.0) and plain_matches and monotone
    report(5, ok, f"s(0) = {at_zero}, plain == exp(r): {plain_matches}, "
                  f"monotone over 1000 pairs x 3 modes: {monotone}")
    assert at_zero == (5.0, 5.0)
    assert plain_matches
    assert monotone


def test_criterion_06_optimal_vs_uniform_plan():
    rng = np.random.default_rng(1006)
    strict = 0
    for _ in range(100):
        ep = make_episode(rng, int(rng.integers(2, 15)), 4)
        ex = make_episode(rng, int(rng.integers(2, 15)), 4)
        opt, _ = ot_rewards_single(ep, ex, PLAIN)
        uni = uniform_plan_rewards(ep, ex, PLAIN)
        assert float(opt.sum()) >= float(uni.sum()) - 1e-9
        C = pairwise_costs(
            trajectory_to_measure(ep, FeatureMode.STATE),
            trajectory_to_measure(ex, FeatureMode.STATE),
            CostKind.COSINE,
        )
        if C.max() - C.min() > 1e-9:
            strict += float(opt.sum()) > float(uni.sum())
    ok = strict == 100
    report(6, ok, f"optimal plan strictly better on {strict}/100 "
                  f"non-constant instances")
    assert strict == 100


@pytest.fixture(scope="module")
def reference_demo():
    config = reference_config()
    t0 = time.perf_counter()
    otr = run_demo(config, "otr")
    truth = run_demo(config, "truth")
    elapsed = time.perf_counter() - t0
    uds = run_demo(config, "uds")
    return otr, truth, uds, elapsed


def test_criterion_07_end_to_end_imitation(reference_demo):
    otr, truth, uds, elapsed = reference_demo
    ok = otr.success_rate == 1.0 and truth.success_rate == 1.0 and elapsed < 60.0
    report(7, ok, f"otr success {otr.success_rate}, ground-truth success "
                  f"{truth.success_rate}, uds success {uds.success_rate} "
                  f"(side by side), {elapsed:.2f} s")
    assert otr.success_rate == 1.0
    assert truth.success_rate == 1.0
    assert elapsed < 60.0


def test_criterion_08_reward_correlation(reference_demo):
    otr, _, _, _ = reference_demo
    ok = otr.pearson >= 0.7 and otr.spearman >= 0.7
    report(8, ok, f"pearson {otr.pearson:.3f}, spearman {otr.spearman:.3f}")
    assert otr.pearson >= 0.7
    assert otr.spearman >= 0.7


@pytest.fixture(scope="module")
def throughput_instance():
    rng = np.random.default_rng(1009)
    episodes = [make_episode(rng, 100, 8, ep_id=f"u{i}") for i in range(1000)]
    expert = [make_episode(rng, 100, 8, ep_id="expert")]
    return episodes, expert


def usable_cpus():
    """CPUs this process may run on, or the machine's count where that is unknown."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def test_criterion_09_throughput(throughput_instance):
    episodes, expert = throughput_instance
    t0 = time.perf_counter()
    sequential = label_dataset(episodes, expert, PLAIN, workers=1)
    seq_seconds = time.perf_counter() - t0
    t0 = time.perf_counter()
    parallel = label_dataset(episodes, expert, PLAIN, workers=4)
    par_seconds = time.perf_counter() - t0
    for a, b in zip(sequential, parallel):
        assert np.array_equal(a.ot_rewards, b.ot_rewards)
    speedup = seq_seconds / par_seconds
    cpus = usable_cpus()
    detail = (f"sequential {seq_seconds:.1f} s for 1000 episodes, "
              f"4-worker speedup {speedup:.2f}x on {cpus} usable CPUs")
    if cpus >= 4:
        report(9, seq_seconds < 120.0 and speedup >= 2.5, detail)
    else:
        verdict = "SKIP" if seq_seconds < 120.0 else "FAIL"
        print(f"ACCEPTANCE 09 {verdict} - {detail}; "
              f"speedup gate not checked, it needs 4 usable CPUs")
    assert seq_seconds < 120.0
    if cpus < 4:
        pytest.skip(f"4-worker speedup gate needs 4 usable CPUs, found {cpus}")
    assert speedup >= 2.5


def test_criterion_10_cli_determinism(tmp_path):
    rng = np.random.default_rng(1010)
    episodes = [make_episode(rng, int(rng.integers(4, 14)), 4, ep_id=f"u{i}")
                for i in range(40)]
    expert = [make_episode(rng, 9, 4, ep_id="e")]
    upath, epath = tmp_path / "u.jsonl", tmp_path / "e.jsonl"
    write_dataset(upath, EpisodicDataset(episodes=episodes))
    write_dataset(epath, EpisodicDataset(episodes=expert))

    outputs = []
    for name, workers in (("a", 1), ("b", 8), ("c", 8)):
        out = tmp_path / f"{name}.jsonl"
        code = main(["label", str(upath), str(epath), str(out),
                     "--parallelism", str(workers)])
        assert code == 0
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    report(10, ok, f"byte-identical outputs across parallelism 1 and 8: {ok}")
    assert ok


@pytest.mark.parametrize("length, dim", [(100, 8), (1000, 17)])
def test_criterion_11_default_solver_converges_on_gait_shaped_episodes(length, dim):
    # I.i.d. features (make_episode) can run past the iteration cap; smooth
    # periodic ones, like the paper's locomotion data, must converge.
    tol, iterations = SinkhornParams().marginal_tolerance, []
    for seed in range(3):
        rng = np.random.default_rng(seed)
        episode, expert = make_gait_episode(rng, length, dim), make_gait_episode(rng, length, dim)
        _, coupling = ot_rewards_single(episode, expert, LabelConfig())
        ok = (coupling.converged
              and np.abs(coupling.plan.sum(axis=1) - coupling.row_marginal).max() <= tol
              and np.abs(coupling.plan.sum(axis=0) - coupling.col_marginal).max() <= tol)
        iterations.append(coupling.iterations if ok else None)
    ok = None not in iterations
    report(11, ok, f"T = {length}, d = {dim}: iterations to tolerance {iterations} "
                   f"(None: not converged) over 3 seeds")
    assert ok


def test_criterion_12_optimal_plan_tracks_the_expert_where_uniform_does_not():
    # The uniform plan rewards a step by its mean cost to the expert, which
    # favours states near the circle's centre; the optimal plan rewards
    # matching the circle itself.
    cfg = LabelConfig.plain_preset().with_text({"cost": "squared-euclidean"})
    results = []
    for seed in range(3):
        rng = np.random.default_rng(seed)
        expert = [make_circle_episode(rng, 200)]
        episodes = [make_circle_episode(rng, 200, rng.uniform(0.0, 1.6), rng.uniform(0.0, 0.3))
                    for _ in range(40)]
        true = [float(-np.abs(np.linalg.norm(ep.observations[:, :2], axis=1) - 1.0).sum())
                for ep in episodes]
        spearman = []
        for plan_rewards in (optimal_plan_rewards, uniform_plan_rewards):
            labeled = label_dataset(episodes, expert, cfg, plan_rewards=plan_rewards)
            raw = [float(lt.raw_ot_rewards.sum()) for lt in labeled]
            spearman.append(return_correlations(raw, true)[1])
        results.append(spearman)
    ok = all(opt >= 0.7 and uni <= 0.0 for opt, uni in results)
    report(12, ok, "raw-return Spearman (optimal, uniform) over 3 seeds: "
                   + ", ".join(f"({opt:.2f}, {uni:.2f})" for opt, uni in results))
    assert ok
