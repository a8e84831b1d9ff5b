"""The benchmark's workloads: seeded inputs, one timed step, output checks.

Each workload makes its inputs from the run's seed, hands otreward only those
inputs (JSONL or config files on disk, or in-memory episodes for
label-cosine), and checks what comes back against values the benchmark works
out itself. Why each workload exists is written up in NOTES.md.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import re
from pathlib import Path

import numpy as np

import otreward.cli
import otreward.labeler
from otreward.costs import CostKind
from otreward.labeler import LabelConfig
from otreward.measures import FeatureMode, Trajectory

from tracing import MARGINAL_TOL, plan_errors

# The plain preset's squash s(r) = alpha * exp(beta * r) with alpha = beta = 1.
PLAIN_ALPHA = 1.0
PLAIN_BETA = 1.0
# CLI lines that report elapsed time and so differ between identical runs.
_TIME_LINE = re.compile(r"^(wall|label|fit) time = ")
# Spans every labeling path records (see tracing.otreward_bindings).
LABEL_LAYERS = ("measures.trajectory_to_measure", "costs.pairwise_costs", "solver.sinkhorn",
                "labeler.ot_rewards_single", "labeler.aggregate_over_experts",
                "labeler.squash", "labeler.post_scale_rewards", "labeler.label_dataset")


@dataclasses.dataclass(frozen=True)
class Size:
    """Input sizes; FULL is what the benchmark measures, SMOKE is for its tests."""

    cosine_episodes: int = 4
    cosine_T: int = 100
    sq_episodes: int = 6
    sq_T: tuple[int, int] = (20, 80)
    io_episodes: int = 8
    io_T: int = 1000
    io_k: int = 3
    demo_counts: tuple[int, int] | None = None  # (n_medium, n_random) override
    verify_episodes: int = 4


FULL = Size()
SMOKE = Size(cosine_episodes=2, cosine_T=12, sq_episodes=3, sq_T=(5, 12),
             io_episodes=4, io_T=20, io_k=2, demo_counts=(2, 3), verify_episodes=2)


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag])


def _jsonl(records: list[dict]) -> bytes:
    return "".join(json.dumps(r) + "\n" for r in records).encode()


def _digest(*parts: bytes | str) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode() if isinstance(part, str) else part)
        h.update(b"\0")
    return h.hexdigest()


def _spread_indices(n: int, k: int) -> list[int]:
    """k indices spread evenly over range(n), always including the first."""
    return sorted({int(i) for i in np.linspace(0, n - 1, min(n, k)).round()})


def _is_converged(coupling) -> bool:
    row_err, col_err = plan_errors(coupling)
    return row_err <= MARGINAL_TOL and col_err <= MARGINAL_TOL


def _convergence(converged: list[bool]) -> dict[str, float]:
    return {"converged_frac": sum(converged) / len(converged), "plans": len(converged)}


def _plain_squash(raw: np.ndarray) -> np.ndarray:
    return PLAIN_ALPHA * np.exp(PLAIN_BETA * raw)


def _strip_times(text: str) -> str:
    return "\n".join(l for l in text.splitlines() if not _TIME_LINE.match(l))


def _best_alignment(episode: Trajectory, experts: list[Trajectory], cfg: LabelConfig):
    """Re-solve one episode against every expert; keep the best return, first on ties."""
    solved = [otreward.labeler.ot_rewards_single(episode, e, cfg) for e in experts]
    returns = [float(raw.sum()) for raw, _ in solved]
    best = returns.index(max(returns))
    return solved[best][0], solved[best][1], best


@dataclasses.dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str


def run_cli(argv: list[str]) -> CliResult:
    """Run one otreward command in this process, capturing what it prints."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = otreward.cli.main(argv)
    return CliResult(code, out.getvalue(), err.getvalue())


class Workload:
    """One workload. Subclasses set the inputs in __init__ and define step()."""

    name = ""
    # Span names a traced step must record at least once: the layers NOTES.md
    # maps to this workload. A layer that stops being called fails the run.
    layers: tuple[str, ...] = ()

    def __init__(self, seed: int, size: Size, workdir: Path, parallelism: int):
        self.seed = seed
        self.size = size
        self.workdir = workdir
        self.parallelism = parallelism
        self.processes = 1  # processes a step keeps busy
        self.files: dict[str, bytes] = {}  # generated inputs, by file name
        self.shape: dict = {}  # episode counts, T and d, recorded with results
        self.episodes_per_step = 0
        self.input_bytes = 0  # input handed to otreward in one step

    def inputs_digest(self) -> str:
        return _digest(*(part for name in sorted(self.files)
                         for part in (name, self.files[name])))

    def write_inputs(self) -> None:
        for name, data in self.files.items():
            (self.workdir / name).write_bytes(data)

    def path(self, name: str) -> str:
        return str(self.workdir / name)

    def step(self):
        raise NotImplementedError

    def check(self, result) -> list[str]:
        """Problems with one step's outputs; empty when they are correct."""
        raise NotImplementedError

    def digest(self, result) -> str:
        """Hash of the outputs that must repeat exactly from step to step."""
        raise NotImplementedError

    def verify(self, result) -> tuple[list[str], dict[str, float]]:
        """Untimed re-check of a sample of labels; returns problems and quality."""
        raise NotImplementedError


class LabelCosine(Workload):
    """In-process label_dataset at the criterion-09 shape: costs and solver only."""

    name = "label-cosine"
    layers = LABEL_LAYERS
    DIM = 8

    def __init__(self, seed, size, workdir, parallelism):
        super().__init__(seed, size, workdir, parallelism)
        rng = _rng(seed, 1)
        n, T = size.cosine_episodes, size.cosine_T
        obs = [rng.normal(size=(T, self.DIM)) for _ in range(n)]
        expert_obs = rng.normal(size=(T, self.DIM))
        self.unlabeled = [Trajectory(observations=o, id=f"ep-{i:05d}")
                          for i, o in enumerate(obs)]
        self.experts = [Trajectory(observations=expert_obs, id="expert-0")]
        self.cfg = LabelConfig.plain_preset()
        self.files = {
            "unlabeled.jsonl": _jsonl([{"id": ep.id, "observations": ep.observations.tolist()}
                                       for ep in self.unlabeled]),
            "experts.jsonl": _jsonl([{"id": "expert-0", "observations": expert_obs.tolist()}]),
        }
        self.shape = {"episodes": n, "experts": 1, "T": T, "expert_T": T, "d": self.DIM}
        self.episodes_per_step = n
        self.input_bytes = sum(len(b) for b in self.files.values())

    def step(self):
        return otreward.labeler.label_dataset(self.unlabeled, self.experts, self.cfg,
                                              workers=1)

    def check(self, labeled):
        problems = []
        if len(labeled) != len(self.unlabeled):
            return [f"{len(labeled)} labeled episodes for {len(self.unlabeled)} inputs"]
        for ep, lt in zip(self.unlabeled, labeled):
            rew = lt.ot_rewards
            if lt.base.id != ep.id or rew.shape != (ep.length,):
                problems.append(f"{ep.id}: wrong id or label length")
            elif not np.isfinite(rew).all():
                problems.append(f"{ep.id}: non-finite label")
            elif lt.raw_ot_rewards is None or not np.array_equal(
                    _plain_squash(lt.raw_ot_rewards), rew):
                problems.append(f"{ep.id}: labels are not squash(raw)")
            elif lt.source_expert != 0:
                problems.append(f"{ep.id}: source_expert {lt.source_expert} != 0")
        return problems

    def digest(self, labeled):
        return _digest(*(lt.ot_rewards.tobytes() for lt in labeled),
                       *(lt.raw_ot_rewards.tobytes() for lt in labeled))

    def verify(self, labeled):
        problems, converged = [], []
        picks = _spread_indices(len(self.unlabeled), self.size.verify_episodes)
        for i in picks:
            raw, coupling, _ = _best_alignment(self.unlabeled[i], self.experts, self.cfg)
            if not (np.array_equal(raw, labeled[i].raw_ot_rewards)
                    and np.array_equal(_plain_squash(raw), labeled[i].ot_rewards)):
                problems.append(f"{self.unlabeled[i].id}: re-solved labels differ")
            converged.append(_is_converged(coupling))
        return problems, _convergence(converged)


class LabelSqeuclidCli(Workload):
    """`otreward label` on JSONL: squared-Euclidean state-action costs, 3 experts."""

    name = "label-sqeuclid-cli"
    layers = LABEL_LAYERS + ("dataset_io.read_dataset", "dataset_io.write_labeled",
                             "cli.main.label")
    OBS_DIM = 11
    ACT_DIM = 3
    EXPERTS = 3

    def __init__(self, seed, size, workdir, parallelism):
        super().__init__(seed, size, workdir, parallelism)
        rng = _rng(seed, 2)
        lo, hi = size.sq_T

        def lengths(n):
            # The same lengths in the same (descending) order for every seed, so
            # the work per step, and how the two workers split it, does not
            # depend on the seed.
            return np.linspace(hi, lo, n).round().astype(int).tolist()

        def episodes(prefix, n):
            return [Trajectory(observations=rng.normal(size=(T, self.OBS_DIM)),
                               actions=rng.normal(size=(T, self.ACT_DIM)),
                               id=f"{prefix}-{i:05d}")
                    for i, T in enumerate(lengths(n))]

        self.unlabeled = episodes("ep", size.sq_episodes)
        self.experts = episodes("expert", self.EXPERTS)
        # What `--preset plain --cost squared-euclidean --features state-action` selects.
        self.cfg = dataclasses.replace(LabelConfig.plain_preset(),
                                       cost=CostKind.SQUARED_EUCLIDEAN,
                                       features=FeatureMode.STATE_ACTION)

        def records(eps):
            return _jsonl([{"id": ep.id, "observations": ep.observations.tolist(),
                            "actions": ep.actions.tolist()} for ep in eps])

        self.files = {"unlabeled.jsonl": records(self.unlabeled),
                      "experts.jsonl": records(self.experts)}
        self.shape = {"episodes": size.sq_episodes, "experts": self.EXPERTS,
                      "T": [ep.length for ep in self.unlabeled],
                      "expert_T": [ep.length for ep in self.experts],
                      "d": self.OBS_DIM + self.ACT_DIM}
        self.episodes_per_step = size.sq_episodes
        self.processes = parallelism
        self.input_bytes = sum(len(b) for b in self.files.values())

    def step(self):
        run = run_cli([
            "label", self.path("unlabeled.jsonl"), self.path("experts.jsonl"),
            self.path("labeled.jsonl"), "--features", "state-action",
            "--cost", "squared-euclidean", "--preset", "plain",
            "--parallelism", str(self.parallelism),
        ])
        out = Path(self.path("labeled.jsonl"))
        return run, out.read_bytes() if out.exists() else b""

    def check(self, result):
        run, data = result
        if run.code != 0:
            return [f"label exited {run.code}: {run.stderr.strip()}"]
        records = [json.loads(line) for line in data.decode().splitlines()]
        if [r.get("id") for r in records] != [ep.id for ep in self.unlabeled]:
            return ["labeled ids differ from the input ids"]
        problems = []
        for ep, rec in zip(self.unlabeled, records):
            rew = np.asarray(rec.get("rewards"), dtype=np.float64)
            if rew.shape != (ep.length,) or len(rec.get("observations", [])) != ep.length:
                problems.append(f"{ep.id}: wrong length")
            elif not np.isfinite(rew).all():
                problems.append(f"{ep.id}: non-finite label")
            if rec.get("source_expert") not in range(self.EXPERTS):
                problems.append(f"{ep.id}: source_expert {rec.get('source_expert')!r}")
        return problems

    def digest(self, result):
        run, data = result
        return _digest(data, _strip_times(run.stdout))

    def verify(self, result):
        _, data = result
        records = [json.loads(line) for line in data.decode().splitlines()]
        problems, converged = [], []
        for i in _spread_indices(len(self.unlabeled), self.size.verify_episodes // 2):
            raw, coupling, best = _best_alignment(self.unlabeled[i], self.experts, self.cfg)
            rec = records[i]
            if not np.array_equal(_plain_squash(raw), np.asarray(rec["rewards"])):
                problems.append(f"{rec['id']}: re-solved labels differ")
            if rec["source_expert"] != best:
                problems.append(f"{rec['id']}: source_expert {rec['source_expert']} != {best}")
            converged.append(_is_converged(coupling))
        return problems, _convergence(converged)


def _parse_correlations(stdout: str) -> tuple[float, float] | None:
    values = dict(re.findall(r"(pearson|spearman) = (-?[0-9.]+)", stdout))
    if set(values) != {"pearson", "spearman"}:
        return None
    return float(values["pearson"]), float(values["spearman"])


def _ranks(x: np.ndarray) -> np.ndarray:
    return np.argsort(np.argsort(x)).astype(np.float64)


class IoSelectDiagnose(Workload):
    """`select-experts` then `diagnose` on D4RL-shaped JSONL: I/O and CLI, no solver."""

    name = "io-select-diagnose"
    layers = ("dataset_io.read_dataset", "dataset_io.write_dataset",
              "dataset_io.select_top_k_experts", "dataset_io.write_diagnostics",
              "dataset_io.return_correlations", "cli.main.select-experts", "cli.main.diagnose")
    OBS_DIM = 17
    ACT_DIM = 6

    def __init__(self, seed, size, workdir, parallelism):
        super().__init__(seed, size, workdir, parallelism)
        rng = _rng(seed, 3)
        n, T = size.io_episodes, size.io_T
        truth, labeled = [], []
        self.sources = []
        for i in range(n):
            obs = rng.normal(size=(T, self.OBS_DIM)).tolist()
            acts = rng.uniform(-1.0, 1.0, size=(T, self.ACT_DIM)).tolist()
            rewards = rng.normal(1.0, 0.5, size=T)
            labels = 0.8 * rewards + rng.normal(0.0, 0.5, size=T)
            terminals = [False] * (T - 1) + [True]
            source = int(rng.integers(0, 3))
            ep_id = f"ep-{i:05d}"
            truth.append({"id": ep_id, "observations": obs, "actions": acts,
                          "rewards": rewards.tolist(), "terminals": terminals})
            labeled.append({"id": ep_id, "observations": obs, "actions": acts,
                            "rewards": labels.tolist(), "terminals": terminals,
                            "source_expert": source})
            self.sources.append(source)
        self.ids = [r["id"] for r in truth]
        self.truth_returns = [math.fsum(r["rewards"]) for r in truth]
        self.label_returns = [math.fsum(r["rewards"]) for r in labeled]
        order = sorted(range(n), key=lambda i: (-self.truth_returns[i], i))
        self.top_ids = [self.ids[i] for i in order[: size.io_k]]
        self.files = {"dataset.jsonl": _jsonl(truth), "labeled.jsonl": _jsonl(labeled)}
        self.shape = {"episodes": n, "T": T, "d": self.OBS_DIM + self.ACT_DIM,
                      "k": size.io_k}
        self.episodes_per_step = n
        # select-experts reads the dataset; diagnose reads labels and truth.
        self.input_bytes = 2 * len(self.files["dataset.jsonl"]) + len(self.files["labeled.jsonl"])

    def step(self):
        select = run_cli(["select-experts", self.path("dataset.jsonl"),
                          self.path("selected.jsonl"), "--k", str(self.size.io_k)])
        diagnose = run_cli(["diagnose", self.path("labeled.jsonl"),
                            self.path("dataset.jsonl"), self.path("diagnose.csv")])
        outputs = [Path(self.path(n)) for n in ("selected.jsonl", "diagnose.csv")]
        return select, diagnose, *(p.read_bytes() if p.exists() else b"" for p in outputs)

    def _expected_correlations(self) -> tuple[float, float]:
        x, y = np.array(self.label_returns), np.array(self.truth_returns)
        return (float(np.corrcoef(x, y)[0, 1]),
                float(np.corrcoef(_ranks(x), _ranks(y))[0, 1]))

    def check(self, result):
        select, diagnose, selected, table = result
        problems = [f"{name} exited {run.code}: {run.stderr.strip()}"
                    for name, run in (("select-experts", select), ("diagnose", diagnose))
                    if run.code != 0]
        if problems:
            return problems
        records = [json.loads(line) for line in selected.decode().splitlines()]
        if [r.get("id") for r in records] != self.top_ids:
            problems.append("selected episodes are not the top-k by return")
        returns = [math.fsum(r["rewards"]) for r in records]
        if returns != sorted(returns, reverse=True):
            problems.append("selected returns are not in descending order")

        rows = list(csv.reader(io.StringIO(table.decode())))
        if [r[0] for r in rows[1:]] != self.ids:
            problems.append("diagnose rows do not list every episode in order")
        else:
            for row, t_ret, l_ret, src in zip(rows[1:], self.truth_returns,
                                              self.label_returns, self.sources):
                if not (math.isclose(float(row[1]), t_ret, rel_tol=1e-9)
                        and math.isclose(float(row[2]), l_ret, rel_tol=1e-9)
                        and row[3] == str(src)):
                    problems.append(f"{row[0]}: diagnose row {row[1:]} is wrong")
        reported = _parse_correlations(diagnose.stdout)
        expected = self._expected_correlations()
        if reported is None or any(abs(a - b) > 1e-6 for a, b in zip(reported, expected)):
            problems.append(f"correlations {reported} differ from {expected}")
        return problems

    def digest(self, result):
        select, diagnose, selected, table = result
        return _digest(selected, table, select.stdout, diagnose.stdout)

    def verify(self, result):
        pearson, spearman = _parse_correlations(result[1].stdout) or (0.0, 0.0)
        # No transport plan is made here, so there is no convergence to report.
        return [], {"converged_frac": 0.0, "pearson": pearson, "spearman": spearman}


def _config_values(text: str) -> dict[str, str]:
    pairs = (line.split("#", 1)[0].split("=", 1) for line in text.splitlines())
    return {p[0].strip(): p[1].strip() for p in pairs if len(p) == 2}


class DemoGridworld(Workload):
    """`otreward demo-gridworld --labeler otr` on the reference config, reseeded."""

    name = "demo-gridworld"
    layers = LABEL_LAYERS + ("gridworld.load_harness_config", "gridworld.generate_dataset",
                             "gridworld.fit_offline_q", "gridworld.evaluate_policy",
                             "gridworld.run_demo", "dataset_io.return_correlations",
                             "cli.main.demo-gridworld")
    REFERENCE = Path(__file__).resolve().parent.parent / "configs" / "reference.gridworld"

    def __init__(self, seed, size, workdir, parallelism):
        super().__init__(seed, size, workdir, parallelism)
        overrides = {"seed": str(seed)}
        if size.demo_counts is not None:
            overrides["n_medium"], overrides["n_random"] = map(str, size.demo_counts)
        lines = []
        for line in self.REFERENCE.read_text().splitlines():
            key = line.split("=", 1)[0].strip()
            lines.append(f"{key} = {overrides[key]}" if key in overrides else line)
        text = "\n".join(lines) + "\n"
        self.config = _config_values(text)
        self.files = {"demo.gridworld": text.encode()}
        n_labeled = int(self.config["n_medium"]) + int(self.config["n_random"])
        self.shape = {"episodes": n_labeled, "experts": int(self.config["n_expert"]),
                      "T_max": int(self.config["horizon"]) + 1, "d": 3}
        self.episodes_per_step = n_labeled
        self.input_bytes = len(self.files["demo.gridworld"])

    def step(self):
        return run_cli(["demo-gridworld", "--config", self.path("demo.gridworld"),
                        "--labeler", "otr"])

    @staticmethod
    def _summary(stdout: str) -> dict[str, str]:
        return dict(re.findall(r"^(labeler|episodes labeled|success_rate) = (\S+)$",
                               stdout, re.M))

    def check(self, run):
        if run.code != 0:
            return [f"demo-gridworld exited {run.code}: {run.stderr.strip()}"]
        summary = self._summary(run.stdout)
        problems = []
        if summary.get("labeler") != "otr":
            problems.append("labeler line missing")
        if summary.get("episodes labeled") != str(self.episodes_per_step):
            problems.append(f"episodes labeled {summary.get('episodes labeled')!r}")
        try:
            if not 0.0 <= float(summary["success_rate"]) <= 1.0:
                problems.append("success_rate outside [0, 1]")
        except (KeyError, ValueError):
            problems.append("success_rate missing")
        if "degenerate" not in run.stdout:
            corr = _parse_correlations(run.stdout)
            if corr is None or not all(-1.0 <= c <= 1.0 for c in corr):
                problems.append("correlations missing or outside [-1, 1]")
        return problems

    def digest(self, run):
        return _digest(_strip_times(run.stdout))

    def verify(self, run):
        # The demo keeps its labels in memory, so the sample is re-solved from
        # the same seeded dataset and only the plans' marginals are checked.
        from otreward.gridworld import generate_dataset, load_harness_config

        config = load_harness_config(self.path("demo.gridworld"))
        experts, unlabeled = generate_dataset(config.env, config.n_expert, config.n_medium,
                                              config.n_random, config.seed)
        converged = []
        for i in _spread_indices(len(unlabeled), 2 * self.size.verify_episodes):
            _, coupling, _ = _best_alignment(unlabeled.episodes[i], experts.episodes,
                                             config.label)
            converged.append(_is_converged(coupling))
        pearson, spearman = _parse_correlations(run.stdout) or (0.0, 0.0)
        return [], {**_convergence(converged),
                    "success_rate": float(self._summary(run.stdout)["success_rate"]),
                    "pearson": pearson, "spearman": spearman}


WORKLOADS = {w.name: w for w in (LabelCosine, LabelSqeuclidCli, IoSelectDiagnose,
                                 DemoGridworld)}
