"""Tests of the benchmark itself: span arithmetic, seeded inputs, smoke runs."""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
from tracing import (Span, Tracer, covered_length, group_name,  # noqa: E402
                     otreward_bindings, self_times)
from workloads import SMOKE, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([(1, 3), (2, 5), (9, 12)], 0, 10) == 5
    assert covered_length([(4, 6), (1, 2), (5, 7)], 0, 10) == 4
    assert covered_length([], 0, 10) == 0
    assert covered_length([(11, 12)], 0, 10) == 0


def test_self_time_subtracts_only_direct_children():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("a.inner", 2.0, 3.0, parent=1),
        Span("b", 6.0, 8.0, parent=0),
    ]
    assert self_times(spans) == [5.0, 2.0, 1.0, 2.0]


def test_tracer_links_nested_calls_and_restores_bindings():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    module = types.SimpleNamespace()
    module.inner = lambda x: x + 1
    module.outer = lambda x: module.inner(x) * 2
    original = module.inner
    bindings = [(module, "outer", "layer.outer", None),
                (module, "inner", "layer.inner", lambda attrs, a, k, r: attrs.update(out=r))]
    with tracer.installed(bindings):
        assert module.outer(1) == 4
    assert module.inner is original
    outer, inner = tracer.spans
    assert (outer.name, outer.parent, inner.name, inner.parent) == \
        ("layer.outer", None, "layer.inner", 0)
    assert inner.attrs == {"out": 2}
    assert self_times(tracer.spans) == [2.0, 1.0]


def test_tracer_refuses_a_missing_binding_and_restores_the_rest():
    module = types.SimpleNamespace(__name__="fake")
    module.present = original = lambda: None
    bindings = [(module, "present", "layer.present", None),
                (module, "gone", "layer.gone", None)]
    with pytest.raises(AttributeError, match="layer.gone"):
        with Tracer().installed(bindings):
            pass
    assert module.present is original


def test_every_required_layer_is_a_traced_name():
    traced = {name for _, _, name, _ in otreward_bindings() if name != "cli.main"}
    traced |= {group_name(Span("cli.main", 0.0, attrs={"command": c}))
               for c in ("label", "select-experts", "diagnose", "demo-gridworld")}
    for workload in WORKLOADS.values():
        assert workload.layers and set(workload.layers) <= traced, workload.name


def test_traced_run_fails_when_a_layer_records_no_call(monkeypatch):
    workload = WORKLOADS["label-cosine"]
    monkeypatch.setattr(workload, "layers", workload.layers + ("costs.renamed_away",))
    args = argparse.Namespace(workload="label-cosine", seed=5, seconds=0.1, trace=1,
                              smoke=True)
    correct, tally, _, info = run.run_workload(args)
    assert not correct
    assert "traced steps recorded no call to costs.renamed_away" in info["problems"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_seeded(name, tmp_path):
    def digest(seed):
        return WORKLOADS[name](seed, SMOKE, tmp_path, parallelism=1).inputs_digest()

    assert digest(3) == digest(3)
    assert digest(3) != digest(4)


def _run(args, cwd):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_reports_every_metric(name, trace):
    done = _run(["--smoke", "--workload", name, "--seed", "5", "--seconds", "0.2",
                 "--trace", str(trace)], ROOT)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 2
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    values = [m["value"] for m in result["metrics"].values()]
    assert all(isinstance(v, float) and v == v for v in values)
    if not trace:
        assert all(v > 0 for v in values)
    else:
        info = json.loads(done.stdout.strip().splitlines()[-2].removeprefix("info: "))
        lines = (ROOT / info["spans"]["file"]).read_text().splitlines()
        assert len(lines) == info["spans"]["count"] > 0
        assert {"name", "start", "end", "parent"} <= set(json.loads(lines[0]))


def _session_processes(sid, zombies=True):
    found = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                stat = (entry / "stat").read_text()
            except OSError:
                continue
            state, _, _, session = stat[stat.rindex(")") + 2:].split()[:4]
            if int(session) == sid and (zombies or state != "Z"):
                found.append(entry.name)
    return found


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_run_leaves_no_process_behind(monkeypatch):
    # Spawn pools start a resource tracker that would outlive the run unless
    # it is stopped; label-sqeuclid-cli starts two pools.
    monkeypatch.setenv("PYTHONPATH", str(BENCH))
    child = subprocess.Popen(
        [sys.executable, "-c",
         "import multiprocessing as mp, sys, run; "
         "spawn = mp.get_context('spawn'); "
         "mp.get_context = lambda method=None: spawn; "
         "sys.exit(run.main(sys.argv[1:]))",
         "--smoke", "--workload", "label-sqeuclid-cli", "--seed", "5", "--seconds", "0.2"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True)
    out, _ = child.communicate(timeout=170)
    assert child.returncode == 0
    assert json.loads(out.strip().splitlines()[-1])["correct"] is True
    assert _session_processes(child.pid) == []


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
@pytest.mark.parametrize("sig", [signal.SIGTERM, signal.SIGKILL])
def test_a_stopped_run_takes_its_processes_with_it(sig):
    # Stopped mid-run, while the label pool and the calibration helper are
    # up, a run leaves no process of its own running, even when killed outright.
    child = subprocess.Popen(
        [sys.executable, "bench/run.py", "--smoke", "--workload", "label-sqeuclid-cli",
         "--seed", "5", "--seconds", "120"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        deadline = time.monotonic() + 120
        while len(_session_processes(child.pid)) < 3 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert len(_session_processes(child.pid)) >= 3
        child.send_signal(sig)
        out, _ = child.communicate(timeout=30)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(child.pid, signal.SIGKILL)  # only acts if the test failed
        child.wait()
        shutil.rmtree(ROOT / ".bench_work" / f"label-sqeuclid-cli-{child.pid}",
                      ignore_errors=True)
    assert child.returncode != 0 and out.strip() == ""
    deadline = time.monotonic() + 10
    while _session_processes(child.pid, zombies=False) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert _session_processes(child.pid, zombies=False) == []


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(["--workload", "label-cosine", "--seed", "1", "--seconds", "1"], tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
