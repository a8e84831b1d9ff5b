"""Benchmark for otreward: runs one workload and prints its metrics as JSON.

    python3 bench/run.py --workload label-cosine --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10

One run makes the workload's inputs from --seed, times whole workload steps
back to back for --seconds (a closed loop with one client, in this process),
checks every step's outputs, and prints, as its last line, one JSON object
with the keys correct, attempted, failed and metrics. --trace 0 reports the
end-to-end metrics named in BENCHMARK.json, --trace 1 the per-layer ones from
a run that alternates untraced and traced steps; that run also writes its
spans as JSON lines under .bench_work/spans/. The line before the result,
prefixed "info: ", records the environment, the input sizes and sample counts.
--workload all runs every workload both ways in child processes and prints
each metric by name with its unit and sample count.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import children

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
WORKLOAD_NAMES = ("label-cosine", "label-sqeuclid-cli", "io-select-diagnose",
                  "demo-gridworld")
SETUP_SAMPLES = 5
MIN_STEPS = 3
EXIT_MISSING = 2


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs and one set-up sample, for the benchmark's tests")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def environment() -> dict:
    import numpy
    import scipy

    sha = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        sha = done.stdout.strip() or sha
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "git_sha": sha,
            "machine": platform.machine()}


def measure_setup(samples: int) -> list[float]:
    """Wall times of fresh interpreters importing otreward.cli, after one warm-up."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, "-c", "import otreward.cli"]
    times = []
    for i in range(samples + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        if i:
            times.append(time.perf_counter() - t0)
    return times


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest peak among its child processes."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + reaped) / 1024.0


class Tally:
    """Steps attempted and failed, with the first problems seen."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_digest = None
        self.last_good = None

    def step(self) -> float:
        """Run and time one step, then check its outputs outside the timed region."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = self.workload.step()
        except Exception as exc:  # a failing step is counted and measuring goes on
            elapsed = time.perf_counter() - t0
            self._fail([f"step raised {type(exc).__name__}: {exc}"])
            return elapsed
        elapsed = time.perf_counter() - t0
        problems = self.workload.check(result)
        if not problems:
            digest = self.workload.digest(result)
            if self.first_digest is None:
                self.first_digest = digest
            elif digest != self.first_digest:
                problems = ["outputs differ from the first step's"]
        if problems:
            self._fail(problems)
        else:
            self.last_good = result
        return elapsed

    def _fail(self, problems):
        self.failed += 1
        self.problems = (self.problems + problems)[:5]


def run_workload(args) -> tuple[bool, Tally, dict, dict]:
    from calibration import Clock
    from tracing import Tracer, group_name, layer_metrics, otreward_bindings, write_spans
    from workloads import FULL, SMOKE, WORKLOADS

    size = SMOKE if args.smoke else FULL
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        # Traced steps must stay in this process, so the pool is not used then.
        workload = WORKLOADS[args.workload](args.seed, size, workdir,
                                            parallelism=1 if args.trace else 2)
        workload.write_inputs()
        tally = Tally(workload)
        tally.step()  # warm-up: lazy imports and first-touch allocations, untimed
        tracer = Tracer()
        plain, traced = [], []
        with Clock(processes=workload.processes) as clock:
            clock.burst(0.0)
            start = time.perf_counter()
            min_steps = 1 if args.smoke else MIN_STEPS
            while time.perf_counter() - start < args.seconds or len(plain) < min_steps:
                plain.append(tally.step())
                clock.burst(plain[-1])
                if args.trace:
                    with tracer.installed(otreward_bindings()):
                        traced.append(tally.step())
                    clock.burst(traced[-1])
            rss = peak_rss_mb()  # before the calibration workers are reaped

        if tally.last_good is None:
            problems, quality = ["no step produced correct outputs"], {}
        else:
            problems, quality = workload.verify(tally.last_good)
        if args.trace:
            seen = {group_name(s) for s in tracer.spans}
            problems += [f"traced steps recorded no call to {layer}"
                         for layer in workload.layers if layer not in seen]
        tally.problems.extend(problems)
        correct = tally.failed == 0 and not problems

        samples = {"wall_s": len(plain)}
        timing = {"steps_s": plain, "traced_steps_s": traced,
                  "calibration_s": clock.calibration}
        spans_file = None
        if args.trace:
            layers = layer_metrics(tracer.spans, len(traced))
            spans_dir = ROOT / ".bench_work" / "spans"
            spans_dir.mkdir(parents=True, exist_ok=True)
            spans_file = spans_dir / f"{args.workload}-seed{args.seed}.jsonl"
            write_spans(tracer.spans, spans_file)
            values = {k: v for k, (v, _) in layers.items()}
            samples.update({k: n for k, (_, n) in layers.items()})
            values["trace.overhead_frac"] = statistics.mean(traced) / statistics.mean(plain) - 1
            values["failed_frac"] = tally.failed / tally.attempted
            for key in ("converged_frac", "success_rate", "pearson", "spearman"):
                values[key] = quality.get(key, 0.0)
            samples["converged_frac"] = quality.get("plans", 0)
        else:
            wall = clock.normalized(plain)
            setup = measure_setup(1 if args.smoke else SETUP_SAMPLES)
            samples["setup_s"] = len(setup)
            timing["setup_s"] = setup
            values = {
                "setup_s": statistics.median(setup),
                "wall_s": wall,
                "episodes_per_s": workload.episodes_per_step / wall,
                "mb_per_s": workload.input_bytes / 1e6 / wall,
                "peak_rss_mb": rss,
            }
        inputs = dict(workload.shape, jsonl_bytes={k: len(v) for k, v in workload.files.items()},
                      input_bytes_per_step=workload.input_bytes,
                      inputs_sha256=workload.inputs_digest())
        info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                "trace": args.trace, "inputs": inputs, "samples": samples,
                "timing": timing, "problems": tally.problems}
        if spans_file is not None:
            info["spans"] = {"file": str(spans_file.relative_to(ROOT)),
                             "count": len(tracer.spans)}
        return correct, tally, values, info
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            workdir.parent.rmdir()


def report(args) -> int:
    spec = json.loads(SPEC.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    correct, tally, values, info = run_workload(args)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    extra = sorted(set(values) - {m["name"] for m in wanted})
    if missing or extra:
        print(f"error: metrics out of step with BENCHMARK.json: missing {missing}, "
              f"unlisted {extra}", file=sys.stderr)
        return 1
    info["env"] = environment()
    print("info: " + json.dumps(info))
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


def run_all(args) -> int:
    """Run every workload untraced and traced; print each metric by name."""
    ok = True
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or len(lines) < 2:
                print(f"{name} --trace {trace}: exit {done.returncode}\n{done.stderr}",
                      file=sys.stderr)
                ok = False
                continue
            info = json.loads(lines[-2].removeprefix("info: "))
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            print(f"== {name} (trace {trace}): correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for metric, m in result["metrics"].items():
                n = info["samples"].get(metric, info["samples"]["wall_s"])
                print(f"  {metric:<52} {m['value']:>16.6g} {m['unit']:<8} n={n}")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "otreward" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"error: {ROOT} holds no otreward sources under src/ or no BENCHMARK.json",
              file=sys.stderr)
        return EXIT_MISSING
    children.install(deadline=args.workload != "all")
    try:
        if args.workload == "all":
            return run_all(args)
        sys.path.insert(0, str(SRC))
        import otreward

        if Path(otreward.__file__).resolve().parent != SRC / "otreward":
            print(f"error: imported otreward from {otreward.__file__}, not {SRC}",
                  file=sys.stderr)
            return EXIT_MISSING
        return report(args)
    finally:
        children.stop_all()


if __name__ == "__main__":
    sys.exit(main())
