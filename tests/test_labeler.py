import multiprocessing
import os
import signal
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otreward import (
    CostKind,
    LabelConfig,
    LabeledTrajectory,
    PostScale,
    ScaleMode,
    SinkhornParams,
    Trajectory,
    aggregate_over_experts,
    label_dataset,
    ot_rewards_single,
    post_scale_rewards,
    squash,
    uds_rewards,
    uniform_plan_rewards,
)
from otreward.errors import DataError, DimensionMismatch, NumericError
from otreward.labeler import LABEL_KEYS, _fork_join, resolve_workers

from conftest import make_episode

PLAIN = LabelConfig.plain_preset()


def plain_cfg(**kwargs):
    defaults = dict(
        cost=CostKind.COSINE,
        squash_alpha=1.0,
        squash_beta=1.0,
        squash_scale=ScaleMode.PLAIN,
    )
    defaults.update(kwargs)
    return LabelConfig(**defaults)


def test_self_alignment_rewards_near_zero(rng):
    ep = make_episode(rng, 8, 4)
    raw, coupling = ot_rewards_single(ep, ep, PLAIN)
    assert coupling.converged
    assert np.all(raw >= -1e-3)
    assert np.all(raw <= 0.0)


def test_single_step_pair_reward_is_negative_cost(rng):
    from otreward import cosine_cost

    a = make_episode(rng, 1, 3)
    e = make_episode(rng, 1, 3)
    raw, coupling = ot_rewards_single(a, e, PLAIN)
    assert raw[0] == pytest.approx(-cosine_cost(a.observations[0], e.observations[0]))
    assert coupling.plan[0, 0] == pytest.approx(1.0)


def test_orthogonal_pair_matches_permutation_plan():
    # Cosine costs form [[0, 1], [1, 0]]; the optimal plan is the diagonal
    # permutation, so each step's reward is ~0 at small epsilon.
    ep = Trajectory(observations=[[1.0, 0.0], [0.0, 1.0]])
    raw, _ = ot_rewards_single(ep, ep, plain_cfg(sinkhorn=SinkhornParams(epsilon=0.01)))
    assert np.abs(raw).max() <= 1e-3


def test_rewards_sum_to_negative_transport_cost(rng):
    for _ in range(20):
        ep = make_episode(rng, int(rng.integers(1, 30)), 5)
        ex = make_episode(rng, int(rng.integers(1, 30)), 5)
        raw, coupling = ot_rewards_single(ep, ex, PLAIN)
        assert abs(-raw.sum() - coupling.transport_cost) <= 1e-9


def test_aggregate_single_expert_matches_single(rng):
    ep = make_episode(rng, 6, 3)
    ex = make_episode(rng, 7, 3)
    raw, best = aggregate_over_experts(ep, [ex], PLAIN)
    single, _ = ot_rewards_single(ep, ex, PLAIN)
    assert np.array_equal(raw, single)
    assert best == 0


def test_aggregate_prefers_identical_expert(rng):
    ep = make_episode(rng, 6, 3)
    distant = Trajectory(observations=-5.0 * ep.observations + 40.0)
    raw, best = aggregate_over_experts(ep, [ep, distant], PLAIN)
    assert best == 0


def test_aggregate_argmax_verified_by_resummation(rng):
    ep = make_episode(rng, 9, 4)
    experts = [make_episode(rng, int(rng.integers(3, 12)), 4) for _ in range(3)]
    raw, best = aggregate_over_experts(ep, experts, PLAIN)
    totals = []
    for ex in experts:
        r, _ = ot_rewards_single(ep, ex, PLAIN)
        totals.append(sum(float(v) for v in r))
    assert best == max(range(3), key=lambda k: (totals[k], -k))
    assert raw.sum() == pytest.approx(totals[best])


def test_aggregate_requires_experts(rng):
    with pytest.raises(DataError, match="at least one expert demonstration is required"):
        aggregate_over_experts(make_episode(rng, 3, 2), [], PLAIN)
    with pytest.raises(DataError, match="at least one expert demonstration is required"):
        label_dataset([make_episode(rng, 3, 2)], [], PLAIN)


def test_squash_at_zero_is_alpha():
    cfg = LabelConfig.locomotion_preset(action_dim=6)
    assert squash(np.zeros(3), cfg).tolist() == [5.0, 5.0, 5.0]
    assert squash(np.zeros(1), LabelConfig.antmaze_preset())[0] == 5.0


def test_squash_plain_unit_parameters():
    assert squash(np.array([-1.0]), PLAIN)[0] == pytest.approx(np.exp(-1.0))


def test_squash_locomotion_preset_value():
    # alpha = beta = 5, T = 1000, |A| = 6: s(-0.006) = 5 * exp(-5).
    cfg = LabelConfig.locomotion_preset(action_dim=6)
    assert squash(np.array([-0.006]), cfg)[0] == pytest.approx(
        5.0 * np.exp(-5.0), rel=1e-9
    )


def test_squash_rejects_non_finite():
    with pytest.raises(NumericError, match="rewards handed to squash contain NaN"):
        squash(np.array([np.nan]), PLAIN)
    with pytest.raises(NumericError, match="rewards handed to squash contain NaN"):
        squash(np.array([-np.inf]), PLAIN)


@settings(max_examples=200, deadline=None)
@given(
    r1=st.floats(-10.0, 0.0),
    r2=st.floats(-10.0, 0.0),
    mode=st.sampled_from(list(ScaleMode)),
)
def test_squash_strictly_monotone(r1, r2, mode):
    # Domain kept clear of exp underflow and of gaps below float
    # resolution, where strictness is unrepresentable.
    if abs(r1 - r2) < 1e-9:
        return
    lo, hi = sorted([r1, r2])
    cfg = LabelConfig(
        squash_alpha=2.0,
        squash_beta=0.15,
        squash_scale=mode,
        action_dim=4,
    )
    s = squash(np.array([lo, hi]), cfg)
    assert s[0] < s[1]


def _labeled(rewards, ep_id=""):
    rewards = np.asarray(rewards, dtype=np.float64)
    base = Trajectory(observations=np.zeros((len(rewards), 1)) + 1.0, id=ep_id)
    return LabeledTrajectory(base=base, ot_rewards=rewards)


def test_post_scale_none_is_identity():
    data = [_labeled([1.0, 2.0]), _labeled([3.0])]
    out = post_scale_rewards(data, PostScale())
    assert [lt.ot_rewards.tolist() for lt in out] == [[1.0, 2.0], [3.0]]


def test_post_scale_return_range_factor():
    # Returns 0 and 500 give factor 1000 / 500 = 2.
    data = [_labeled([0.0, 0.0]), _labeled([200.0, 300.0])]
    out = post_scale_rewards(data, PostScale("return-range", 1000.0))
    assert out[0].ot_rewards.tolist() == [0.0, 0.0]
    assert out[1].ot_rewards.tolist() == [400.0, 600.0]


def test_post_scale_shift():
    data = [_labeled([1.0, 2.5])]
    out = post_scale_rewards(data, PostScale("shift", -2.0))
    assert out[0].ot_rewards.tolist() == [-1.0, 0.5]


@pytest.mark.parametrize("field", ["ot_rewards", "raw_ot_rewards"])
def test_labeled_length_mismatch_names_the_field(field):
    base = Trajectory(observations=np.ones((3, 1)), id="short")
    labels = {"ot_rewards": np.zeros(3), "raw_ot_rewards": np.zeros(3), field: np.zeros(2)}
    with pytest.raises(DimensionMismatch, match=f"^{field} must have length 3, got shape"):
        LabeledTrajectory(base=base, **labels)


@pytest.mark.parametrize("labels", [[1.0, np.inf], [np.nan, 1.0]], ids=["inf", "nan"])
def test_labels_that_are_not_finite_are_numeric_errors(labels):
    with pytest.raises(NumericError, match="episode 'bad' has labels that are not finite"):
        _labeled(labels, ep_id="bad")


def test_labeled_return_that_overflows_is_a_numeric_error():
    with pytest.raises(NumericError, match="episode 'big' has a return that is not finite"):
        _labeled([1e308, 1e308], ep_id="big").episodic_return()


def test_squash_overflow_is_a_numeric_error_not_a_warning(rng):
    # exp(1e5 * 0.5) overflows; pytest turns a RuntimeWarning into a failure.
    assert np.isinf(squash(np.array([-0.5]), plain_cfg(squash_beta=-1e5))).all()
    with pytest.raises(NumericError, match="has labels that are not finite"):
        label_dataset([make_episode(rng, 4, 2)], [make_episode(rng, 5, 2)],
                      plain_cfg(squash_beta=-1e5))


def test_post_scale_degenerate_range():
    data = [_labeled([1.0]), _labeled([0.5, 0.5])]
    with pytest.raises(NumericError, match="all episodic returns are equal"):
        post_scale_rewards(data, PostScale("return-range", 1000.0))
    with pytest.raises(DataError, match="at least one labeled episode"):
        post_scale_rewards([], PostScale("return-range", 1000.0))
    # Only the return range needs an episode; a shift of nothing is nothing.
    assert post_scale_rewards([], PostScale("shift", -2.0)) == []


def test_post_scale_return_range_that_overflows_is_a_numeric_error():
    # Each return is finite, but max - min is not; the factor would be 0.0.
    data = [_labeled([1e308], ep_id="hi"), _labeled([-1e308], ep_id="lo")]
    with pytest.raises(NumericError, match="span of episodic returns overflows"):
        post_scale_rewards(data, PostScale("return-range", 1000.0))


def test_label_dataset_self_labeling(rng):
    expert = make_episode(rng, 10, 4)
    labeled = label_dataset([expert], [expert], PLAIN)
    assert len(labeled) == 1
    assert np.abs(labeled[0].ot_rewards - 1.0).max() <= 1e-3
    assert labeled[0].source_expert == 0


def test_label_dataset_empty_input(rng):
    assert label_dataset([], [make_episode(rng, 3, 2)], PLAIN) == []


def test_label_dataset_ranks_expert_like_above_distant(rng):
    expert = make_episode(rng, 8, 4)
    near = Trajectory(observations=expert.observations + 0.01 * rng.normal(size=(8, 4)))
    far = Trajectory(observations=rng.normal(size=(8, 4)) * 3.0 + 10.0)
    labeled = label_dataset([far, near], [expert], PLAIN)
    assert labeled[1].episodic_return() > labeled[0].episodic_return()


def test_label_dataset_order_insensitive(rng):
    experts = [make_episode(rng, 6, 3)]
    eps = [make_episode(rng, int(rng.integers(2, 9)), 3, ep_id=str(i)) for i in range(4)]
    forward = label_dataset(eps, experts, PLAIN)
    shuffled = [eps[2], eps[0], eps[3], eps[1]]
    backward = label_dataset(shuffled, experts, PLAIN)
    by_id = {lt.base.id: lt for lt in backward}
    for lt in forward:
        assert np.array_equal(lt.ot_rewards, by_id[lt.base.id].ot_rewards)


@pytest.mark.parametrize("paper_length", [False, True], ids=["short", "T1000"])
def test_label_dataset_parallel_matches_sequential(rng, paper_length):
    if paper_length:
        # The paper's T = 1000, where OpenBLAS may split the solver's
        # matvecs over threads; the iteration cap keeps the test near a second.
        experts = [make_episode(rng, 1000, 17)]
        eps = [make_episode(rng, 1000, 17) for _ in range(3)]
        cfg = PLAIN.with_text({"max_iterations": "40"})
    else:
        experts = [make_episode(rng, 5, 3)]
        eps = [make_episode(rng, int(rng.integers(2, 10)), 3) for _ in range(6)]
        cfg = PLAIN
    seq = label_dataset(eps, experts, cfg, workers=1)
    par = label_dataset(eps, experts, cfg, workers=2)
    for a, b in zip(seq, par):
        assert np.array_equal(a.ot_rewards, b.ot_rewards)
        assert np.array_equal(a.raw_ot_rewards, b.raw_ot_rewards)
        assert a.source_expert == b.source_expert


def _assert_same_labels(expected, got):
    assert len(expected) == len(got)
    for a, b in zip(expected, got):
        assert np.array_equal(a.ot_rewards, b.ot_rewards)
        assert np.array_equal(a.raw_ot_rewards, b.raw_ot_rewards)
        assert a.source_expert == b.source_expert


def test_parallel_labeling_starts_at_most_one_process_per_episode(rng, monkeypatch):
    # An in-process context: a child's start() runs its target inline, with a
    # real Pipe and Value, so the count is checked without starting a process.
    started = []
    real = multiprocessing.get_context()

    class InlineProcess:
        exitcode = 0

        def __init__(self, target, args):
            self.target, self.args = target, args

        def start(self):
            started.append(self)
            self.target(*self.args)

        def terminate(self):
            pass

        def join(self):
            pass

    class InlineContext:
        Pipe, Value, Process = real.Pipe, real.Value, InlineProcess

    monkeypatch.setattr(multiprocessing, "get_context", lambda method=None: InlineContext)
    experts = [make_episode(rng, 5, 3), make_episode(rng, 7, 3)]
    eps = [make_episode(rng, int(rng.integers(2, 10)), 3) for _ in range(3)]
    sequential = label_dataset(eps, experts, PLAIN, workers=1)
    assert started == []
    _assert_same_labels(sequential, label_dataset(eps, experts, PLAIN, workers=8))
    assert len(started) == 2

    class DeadProcess(InlineProcess):  # ends without sending anything
        exitcode = -9

        def start(self):
            pass

    InlineContext.Process = DeadProcess
    with pytest.raises(RuntimeError, match="code -9"):
        label_dataset(eps, experts, PLAIN, workers=2)


def _fork_context(monkeypatch):
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("fork is not available here")
    context = multiprocessing.get_context("fork")
    monkeypatch.setattr(multiprocessing, "get_context", lambda method=None: context)


def _wait_for_children(timeout=30.0):
    """Return once every child of this process has ended, so they claim the other episodes."""
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.01)


def _host_sigterm_handler(signum, frame):
    """A host handler that does not exit, as a benchmark's clean-up handler may be."""


def test_label_children_restore_the_default_sigterm_action(monkeypatch):
    # A forked child inherits its parent's handlers. _fork_join's clean-up
    # terminates a child it has not joined, which must end it.
    _fork_context(monkeypatch)
    host = os.getpid()

    def label(episode):
        if os.getpid() == host:
            _wait_for_children()
        return os.getpid(), signal.getsignal(signal.SIGTERM)

    previous = signal.signal(signal.SIGTERM, _host_sigterm_handler)
    try:
        results = _fork_join(label, list(range(6)), 3)
    finally:
        signal.signal(signal.SIGTERM, previous)
    reported = [handler for pid, handler in results if pid != host]
    assert reported and all(handler == signal.SIG_DFL for handler in reported)


def test_a_child_that_ends_without_sending_is_reported(rng, monkeypatch):
    _fork_context(monkeypatch)
    host = os.getpid()

    def plan_rewards(episode, expert, cfg):
        if os.getpid() != host:
            os._exit(7)
        _wait_for_children()
        return uniform_plan_rewards(episode, expert, cfg)

    experts = [make_episode(rng, 5, 3)]
    eps = [make_episode(rng, 4, 3) for _ in range(2)]
    with pytest.raises(RuntimeError, match="ended with code 7"):
        label_dataset(eps, experts, PLAIN, workers=2, plan_rewards=plan_rewards)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("missing", [{2, 3}, {0, 5}, {1, 2, 6}], ids=str)
def test_parallel_failure_is_the_first_failing_episode(rng, missing):
    # Episode 0 is long, so whichever process claims it is still busy while
    # the others reach the planted episodes without actions.
    cfg = PLAIN.with_text({"features": "state-action"})
    experts = [make_episode(rng, 6, 3, with_actions=True)]
    eps = [make_episode(rng, 200 if i == 0 else 6, 3, with_actions=i not in missing,
                        ep_id=f"ep{i}") for i in range(8)]
    with pytest.raises(Exception) as sequential:
        label_dataset(eps, experts, cfg, workers=1)
    with pytest.raises(type(sequential.value)) as parallel:
        label_dataset(eps, experts, cfg, workers=3)
    assert str(parallel.value) == str(sequential.value)
    assert f"ep{min(missing)}" in str(parallel.value)


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_parallel_labeling_under_other_start_methods(rng, monkeypatch, method):
    # Children that start from a fresh interpreter get the episodes pickled.
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"{method} is not available here")
    context = multiprocessing.get_context(method)
    experts = [make_episode(rng, 5, 3), make_episode(rng, 7, 3)]
    eps = [make_episode(rng, int(rng.integers(2, 10)), 3) for _ in range(4)]
    sequential = label_dataset(eps, experts, PLAIN, workers=1)
    monkeypatch.setattr(multiprocessing, "get_context", lambda method=None: context)
    _assert_same_labels(sequential, label_dataset(eps, experts, PLAIN, workers=2))


def test_label_dataset_rejects_negative_workers(rng):
    experts = [make_episode(rng, 5, 3)]
    for workers in (-1, 2.5, "2", True, None):
        with pytest.raises(ValueError, match="workers"):
            label_dataset([make_episode(rng, 4, 3)], experts, PLAIN, workers=workers)
    assert resolve_workers(np.int64(2)) == 2


def test_zero_workers_counts_usable_cpus(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    assert resolve_workers(0) == 3
    assert resolve_workers(2) == 2
    monkeypatch.delattr(os, "sched_getaffinity")
    assert resolve_workers(0) == 64


def test_raw_rewards_nonpositive_and_squashed_in_range(rng):
    experts = [make_episode(rng, 7, 3)]
    eps = [make_episode(rng, int(rng.integers(2, 12)), 3) for _ in range(5)]
    cfg = plain_cfg(squash_alpha=5.0, squash_beta=2.0)
    for lt in label_dataset(eps, experts, cfg):
        assert np.all(lt.raw_ot_rewards <= 0.0)
        assert np.all(lt.ot_rewards > 0.0)
        assert np.all(lt.ot_rewards <= 5.0)


def test_self_labeling_beats_other_episodes_of_same_length(rng):
    # With a shared episode length, no episode can out-earn the expert
    # against itself: every squashed step reward is capped at alpha.
    expert = make_episode(rng, 8, 4)
    others = [make_episode(rng, 8, 4) for _ in range(5)]
    cfg = plain_cfg(sinkhorn=SinkhornParams(epsilon=0.001))
    labeled = label_dataset([expert] + others, [expert], cfg)
    self_return = labeled[0].episodic_return()
    for lt in labeled[1:]:
        assert self_return >= lt.episodic_return() - 1e-6


def test_source_expert_invariant_under_cost_scaling(rng):
    # Scaling every feature vector scales squared-euclidean costs by a
    # constant; with a clear winner the argmax must not move.
    ep = make_episode(rng, 6, 3)
    near = Trajectory(observations=ep.observations + 0.01)
    far = Trajectory(observations=ep.observations + 30.0)
    cfg = plain_cfg(cost=CostKind.SQUARED_EUCLIDEAN)
    _, best = aggregate_over_experts(ep, [far, near], cfg)
    scaled = Trajectory(observations=3.0 * ep.observations)
    scaled_experts = [
        Trajectory(observations=3.0 * far.observations),
        Trajectory(observations=3.0 * near.observations),
    ]
    _, best_scaled = aggregate_over_experts(scaled, scaled_experts, cfg)
    assert best == best_scaled == 1


def test_uniform_plan_single_step_matches_optimal(rng):
    a = make_episode(rng, 1, 3)
    e = make_episode(rng, 1, 3)
    uni = uniform_plan_rewards(a, e, PLAIN)
    opt, _ = ot_rewards_single(a, e, PLAIN)
    assert uni[0] == pytest.approx(opt[0])


def test_uniform_plan_constant_cost():
    # All-identical points give a constant cosine cost of 0.
    ep = Trajectory(observations=np.ones((4, 2)))
    ex = Trajectory(observations=-np.ones((3, 2)))
    uni = uniform_plan_rewards(ep, ex, PLAIN)
    assert np.allclose(uni, -2.0 / 4.0)  # cost 2 everywhere, T = 4


def test_uniform_plan_matches_scalar_loop(rng):
    from otreward import cosine_cost

    ep = make_episode(rng, 5, 3)
    ex = make_episode(rng, 7, 3)
    uni = uniform_plan_rewards(ep, ex, PLAIN)
    for t in range(5):
        expected = -sum(
            cosine_cost(ep.observations[t], ex.observations[j]) / (5 * 7)
            for j in range(7)
        )
        assert uni[t] == pytest.approx(expected, abs=1e-12)


def test_optimal_plan_total_beats_uniform(rng):
    for _ in range(15):
        ep = make_episode(rng, int(rng.integers(2, 12)), 4)
        ex = make_episode(rng, int(rng.integers(2, 12)), 4)
        opt, _ = ot_rewards_single(ep, ex, PLAIN)
        uni = uniform_plan_rewards(ep, ex, PLAIN)
        assert opt.sum() >= uni.sum() - 1e-9


def test_uds_constant_rewards(rng):
    expert = make_episode(rng, 3, 2, with_rewards=True, ep_id="e0")
    stripped = make_episode(rng, 5, 2, ep_id="u0")
    out = uds_rewards([stripped], [expert], r_min=0.0)
    assert [lt.base.id for lt in out] == ["e0", "u0"]
    assert np.array_equal(out[0].ot_rewards, expert.rewards)
    assert np.array_equal(out[1].ot_rewards, np.zeros(5))


def test_uds_expert_rewards_preserved_elementwise():
    expert = Trajectory(observations=np.ones((3, 1)), rewards=[1.0, 2.0, 3.0])
    out = uds_rewards([], [expert], r_min=-1.0)
    assert out[0].ot_rewards.tolist() == [1.0, 2.0, 3.0]


def test_uds_mixed_set(rng):
    experts = [make_episode(rng, 4, 2, with_rewards=True) for _ in range(2)]
    unlabeled = [make_episode(rng, int(rng.integers(2, 6)), 2) for _ in range(3)]
    out = uds_rewards(unlabeled, experts, r_min=-0.5)
    for lt, ex in zip(out[:2], experts):
        assert np.array_equal(lt.ot_rewards, ex.rewards)
    for lt in out[2:]:
        assert np.all(lt.ot_rewards == -0.5)


def test_uds_requires_expert_rewards(rng):
    with pytest.raises(DataError, match="has no ground-truth rewards"):
        uds_rewards([], [make_episode(rng, 3, 2)], r_min=0.0)


def test_label_config_validation():
    with pytest.raises(ValueError):
        LabelConfig(squash_alpha=0.0)
    with pytest.raises(ValueError):
        LabelConfig(squash_scale=ScaleMode.LOCOMOTION)  # needs action_dim
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="squash_alpha"):
            LabelConfig(squash_alpha=bad)
        with pytest.raises(ValueError, match="squash_beta.*finite"):
            LabelConfig(squash_beta=bad)
        with pytest.raises(ValueError, match="finite"):
            PostScale("shift", bad)
        with pytest.raises(ValueError, match="finite"):
            PostScale("return-range", bad)
    for bad in (0.0, -5.0):
        with pytest.raises(ValueError, match="return-range"):
            PostScale("return-range", bad)
        with pytest.raises(ValueError, match="return-range"):
            PostScale.parse(f"return-range:{bad}")
    # A finite beta whose exponent beta * 1000 / action_dim is not.
    with pytest.raises(ValueError, match="squash_beta.*finite"):
        LabelConfig(squash_scale=ScaleMode.LOCOMOTION, action_dim=1, squash_beta=1e306)
    with pytest.raises(ValueError, match="squash_beta.*finite"):
        LabelConfig().with_text({"squash_mode": "locomotion", "action_dim": "1", "beta": "1e306"})
    assert PostScale("shift", 0.0).value == 0.0
    cfg = LabelConfig(squash_scale=ScaleMode.LOCOMOTION, action_dim=6)
    assert cfg.squash_exponent() == pytest.approx(5.0 * 1000 / 6)
    assert LabelConfig.antmaze_preset().squash_exponent() == 1000.0
    assert LabelConfig.plain_preset().squash_exponent() == 1.0


def test_with_text_validates_the_final_config_once():
    cfg = LabelConfig().with_text({"squash_mode": "locomotion", "action_dim": "6"})
    assert cfg.squash_scale is ScaleMode.LOCOMOTION and cfg.action_dim == 6
    with pytest.raises(ValueError, match="action_dim"):
        LabelConfig().with_text({"squash_mode": "locomotion"})


def test_with_text_unknown_key_names_every_key():
    for key in ("epsilom", "episode_length"):
        with pytest.raises(ValueError, match=f"unknown label setting\\(s\\) '{key}'") as exc:
            LabelConfig().with_text({key: "0.1"})
        assert all(name in str(exc.value) for name in LABEL_KEYS)
    with pytest.raises(ValueError, match="bad squash_mode 'antmaze'"):
        LabelConfig().with_text({"squash_mode": "antmaze"})


@pytest.mark.parametrize("text", ["none:1", "shift", "return-rangeXYZ", "shift:x",
                                  "return-range:"])
def test_post_scale_parse_rejects_bad_specs(text):
    with pytest.raises(ValueError):
        PostScale.parse(text)
