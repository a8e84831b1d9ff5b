"""Reading and writing episodic datasets and the diagnose table.

Files are newline-delimited records, one JSON object per episode, with
keys ``observations`` (list of lists of numbers), optional ``actions``,
``rewards``, ``terminals`` (booleans, or numbers equal to 0 or 1) and
``id`` (``ep-00000``, ``ep-00001``, ... in record order when absent).
Numbers are serialized with full round-trip precision. Labeled outputs
populate ``rewards`` with the computed labels and add a ``source_expert``
field.

All writes go to a temporary file that is renamed into place on success,
so a failed run never leaves a partial output behind.
"""

from __future__ import annotations

import csv
import json
import math
import os
import tempfile
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TextIO

import numpy as np

from .errors import (
    DataIoError,
    DimensionMismatch,
    NonFiniteValue,
    ParseError,
    RewardsMissing,
)
from .labeler import LabeledTrajectory
from .measures import Trajectory

DIAGNOSTICS_HEADER = ["episode_id", "ground_truth_return", "otr_return", "source_expert"]


@dataclass
class EpisodicDataset:
    """A list of episodes that agree on observation and action dims.

    source_experts holds each record's ``source_expert`` value by episode
    id, None where a record has none, as read_dataset found them.
    """

    episodes: list[Trajectory]
    source_experts: dict[str, object] = field(default_factory=dict)

    def __post_init__(self):
        _check_consistent_dims(self.episodes)

    def __len__(self) -> int:
        return len(self.episodes)


def _check_consistent_dims(episodes: list[Trajectory]) -> None:
    expected: dict[str, int] = {}
    for ep in episodes:
        for dim, name in ((ep.obs_dim, "observation"), (ep.action_dim, "action")):
            if dim is not None and expected.setdefault(name, dim) != dim:
                raise DimensionMismatch(
                    f"episode {ep.id!r} has {name} dim {dim}, expected {expected[name]}"
                )


def _parse_record(rec: dict, line_no: int, index: int) -> Trajectory:
    if not isinstance(rec, dict):
        raise ParseError(line_no, "record is not an object")
    if "observations" not in rec:
        raise ParseError(line_no, "record has no 'observations' key")

    def to_array(key, kinds):
        # No dtype: a float64 dtype would read "1" as 1.0 and true as 1.0.
        # Strings, null and integers beyond 64 bits leave a dtype outside kinds.
        try:
            arr = np.asarray(rec[key])
        except ValueError as exc:
            raise ParseError(line_no, f"malformed {key!r}: {exc}") from None
        if arr.dtype.kind not in kinds:
            raise ParseError(line_no, f"{key!r} must hold numbers, got {arr.dtype} values")
        return arr

    numbers = {key: to_array(key, "iuf").astype(np.float64, copy=False)
               for key in ("observations", "actions", "rewards")
               if key == "observations" or rec.get(key) is not None}
    for key, arr in numbers.items():
        if not np.isfinite(arr).all():
            raise NonFiniteValue(f"line {line_no}: {key} contain NaN or infinity")

    terminals = None
    if rec.get("terminals") is not None:
        terminals = to_array("terminals", "biuf")
        # dtype=bool would read every string and nonzero number as True.
        if not np.all((terminals == 0) | (terminals == 1)):
            raise ParseError(line_no, "'terminals' must be booleans or numbers equal to 0 or 1")
        terminals = terminals.astype(bool)

    ep_id = rec.get("id")
    if ep_id is None:
        ep_id = f"ep-{index:05d}"
    try:
        return Trajectory(
            observations=numbers["observations"],
            actions=numbers.get("actions"),
            rewards=numbers.get("rewards"),
            terminals=terminals,
            id=str(ep_id),
        )
    except DimensionMismatch as exc:
        raise ParseError(line_no, str(exc)) from None


def read_dataset(path: str | os.PathLike) -> EpisodicDataset:
    """Load a newline-delimited episode file, validating every record.

    Raises ParseError (with the line number) for malformed records,
    NonFiniteValue for NaN/Inf numbers, and DimensionMismatch when episodes
    disagree on feature dimensions.
    """
    episodes: list[Trajectory] = []
    sources: dict[str, object] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(line_no, f"invalid JSON: {exc.msg}") from None
            episode = _parse_record(rec, line_no, len(episodes))
            episodes.append(episode)
            sources[episode.id] = rec.get("source_expert")
    return EpisodicDataset(episodes=episodes, source_experts=sources)


def _atomic_write(path: str | os.PathLike, write: Callable[[TextIO], object]) -> None:
    """Run write on a temporary file, then rename it into place at path.

    The file is opened with newline="", so what write emits is stored as is.
    """
    directory = os.path.dirname(os.fspath(path)) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
                write(fh)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise DataIoError(f"cannot write {path}: {exc}") from exc


def _write_lines(path: str | os.PathLike, lines: list[str]) -> None:
    _atomic_write(path, lambda fh: fh.writelines(f"{line}\n" for line in lines))


def _traj_record(ep: Trajectory) -> dict:
    rec: dict = {"id": ep.id, "observations": ep.observations.tolist()}
    if ep.actions is not None:
        rec["actions"] = ep.actions.tolist()
    if ep.rewards is not None:
        rec["rewards"] = ep.rewards.tolist()
    if ep.terminals is not None:
        rec["terminals"] = ep.terminals.tolist()
    return rec


def write_dataset(path: str | os.PathLike, dataset: EpisodicDataset) -> None:
    """Write episodes in order, one JSON record per line."""
    _write_lines(path, [json.dumps(_traj_record(ep)) for ep in dataset.episodes])


def write_labeled(path: str | os.PathLike, dataset: list[LabeledTrajectory]) -> None:
    """Write labeled episodes: rewards hold the labels, source_expert added."""
    lines = []
    for lt in dataset:
        rec = _traj_record(lt.base)
        rec["rewards"] = lt.ot_rewards.tolist()
        rec["source_expert"] = lt.source_expert
        lines.append(json.dumps(rec))
    _write_lines(path, lines)


def select_top_k_experts(dataset: EpisodicDataset, k: int) -> EpisodicDataset:
    """Pick the k episodes with the largest episodic return, descending.

    Ties keep the earlier-indexed episode first. Asking for more episodes
    than exist returns them all.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    for ep in dataset.episodes:
        if ep.rewards is None:
            raise RewardsMissing(f"episode {ep.id!r} has no rewards")
    returns = [ep.episodic_return() for ep in dataset.episodes]
    order = sorted(range(len(returns)), key=lambda i: (-returns[i], i))
    return EpisodicDataset(episodes=[dataset.episodes[i] for i in order[:k]])


def write_diagnostics(path: str | os.PathLike, rows: list[tuple]) -> None:
    """Write the diagnose table: episode id, true return, labeled return, expert."""

    def write(fh: TextIO) -> None:
        writer = csv.writer(fh)
        writer.writerow(DIAGNOSTICS_HEADER)
        writer.writerows(rows)

    _atomic_write(path, write)


def return_correlations(x: list[float], y: list[float]) -> tuple[float, float, bool]:
    """Pearson and Spearman correlation between two return sequences.

    Degenerate inputs (either side constant) report 0.0 for the undefined
    coefficient and flag it, instead of propagating NaN.
    """
    from scipy import stats

    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    degenerate = (
        len(x) < 2 or float(np.var(x)) == 0.0 or float(np.var(y)) == 0.0
    )
    if degenerate:
        return 0.0, 0.0, True
    pearson = float(stats.pearsonr(x, y).statistic)
    spearman = float(stats.spearmanr(x, y).statistic)
    if math.isnan(pearson) or math.isnan(spearman):
        return 0.0, 0.0, True
    return pearson, spearman, False
