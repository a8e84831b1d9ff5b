"""Reading and writing episodic datasets and the diagnose table.

Files are newline-delimited records, one JSON object per episode, with
keys ``observations`` (list of lists of numbers), optional ``actions``,
``rewards``, ``terminals`` (booleans, or numbers equal to 0 or 1), ``id``
(a string; ``ep-00000``, ``ep-00001``, ... in record order when absent or
null) and ``source_expert`` (null or a non-negative integer: the
demonstration the rewards were labeled against). Every reader and writer
keeps ``source_expert``; keys outside this schema are ignored on read and
not written back. Numbers are serialized with full round-trip precision.
Labeled outputs hold the computed labels in ``rewards`` and this run's
match in ``source_expert``.

A file is decoded once, in the loop that parses it, and written record by
record. All writes go to a temporary file that is renamed into place on
success, so a failed run never leaves a partial output behind.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
import re
from collections.abc import Callable
from dataclasses import dataclass, replace
from typing import TextIO

import numpy as np

from .errors import DataError, DataIoError, DimensionMismatch, ParseError
from .labeler import LabeledTrajectory
from .measures import Trajectory

DIAGNOSTICS_HEADER = ["episode_id", "ground_truth_return", "otr_return", "source_expert"]


@dataclass
class EpisodicDataset:
    """A list of episodes that agree on observation and action dims."""

    episodes: list[Trajectory]

    def __post_init__(self):
        expected: dict[str, int] = {}
        for ep in self.episodes:
            for dim, name in ((ep.obs_dim, "observation"), (ep.action_dim, "action")):
                if dim is not None and expected.setdefault(name, dim) != dim:
                    raise DimensionMismatch(
                        f"episode {ep.id!r} has {name} dim {dim}, expected {expected[name]}"
                    )

    def __len__(self) -> int:
        return len(self.episodes)


def _holds_boolean(value: object, depth: int) -> bool:
    """Whether a JSON value nested depth lists deep holds a boolean at the bottom."""
    values = [value]
    for _ in range(depth):
        values = itertools.chain.from_iterable(values)
    return bool in map(type, values)


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
            raise DataError(f"line {line_no}: {key} contain NaN or infinity")
        # A list mixing numbers and booleans reads true as 1 and false as 0, so
        # only an array holding an exact 0 or 1 has its JSON values walked.
        if ((arr == 0) | (arr == 1)).any() and _holds_boolean(rec[key], arr.ndim):
            raise ParseError(line_no, f"{key!r} must hold numbers, got a boolean")

    terminals = None
    if rec.get("terminals") is not None:
        terminals = to_array("terminals", "biuf")
        # dtype=bool would read every string and nonzero number as True.
        if not np.all((terminals == 0) | (terminals == 1)):
            raise ParseError(line_no, "'terminals' must be booleans or numbers equal to 0 or 1")
        terminals = terminals.astype(bool)

    source = rec.get("source_expert")
    # bool is a subclass of int, so isinstance would let true through.
    if source is not None and (type(source) is not int or source < 0):
        raise ParseError(line_no, "'source_expert' must be null or a non-negative integer")

    ep_id = rec.get("id")
    if ep_id is None:
        ep_id = f"ep-{index:05d}"
    elif type(ep_id) is not str:
        raise ParseError(line_no, "'id' must be a string")
    try:
        return Trajectory(
            observations=numbers["observations"],
            actions=numbers.get("actions"),
            rewards=numbers.get("rewards"),
            terminals=terminals,
            id=ep_id,
            source_expert=source,
        )
    except DimensionMismatch as exc:
        raise ParseError(line_no, str(exc)) from None


def read_dataset(path: str | os.PathLike) -> EpisodicDataset:
    """Load a newline-delimited episode file, validating every record.

    Raises ParseError (with the line number) for malformed records,
    DataError for NaN/Inf numbers, and DimensionMismatch when episodes
    disagree on feature dimensions. A line that is not UTF-8 is a ParseError.
    """
    # surrogateescape stores an undecoded byte b as U+DC00 + b, so decoding
    # never fails a chunk ahead of the lines: _parse_lines finds the byte's line.
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        return _parse_lines(fh)


def _parse_lines(lines) -> EpisodicDataset:
    episodes: list[Trajectory] = []
    for line_no, line in enumerate(lines, start=1):
        if line.isspace():
            continue
        if not line.isascii() and (undecoded := re.search("[\udc80-\udcff]", line)):
            byte = ord(undecoded.group()) - 0xDC00
            raise ParseError(line_no, f"not UTF-8 text: byte 0x{byte:02x}")
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(line_no, f"invalid JSON: {exc.msg}") from None
        episodes.append(_parse_record(rec, line_no, len(episodes)))
    return EpisodicDataset(episodes=episodes)


def _atomic_write(path: str | os.PathLike, write: Callable[[TextIO], object]) -> None:
    """Run write on a temporary file, then rename it into place at path.

    The file is opened with newline="", so what write emits is stored as is.
    A new output gets the mode open() would give it, 0o666 less the umask (a
    mkstemp file would keep its 0o600); a replaced output keeps its own mode.
    """
    try:
        tmp = os.path.join(os.path.dirname(os.fspath(path)), f"tmp{os.urandom(8).hex()}.tmp")
        flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
        fd = os.open(tmp, flags, 0o666)
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
                write(fh)
            if os.path.exists(path):
                os.chmod(tmp, os.stat(path).st_mode & 0o7777)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise DataIoError(f"cannot write {path}: {exc}") from exc


def _traj_record(ep: Trajectory) -> dict:
    rec: dict = {"id": ep.id, "observations": ep.observations.tolist()}
    for key in ("actions", "rewards", "terminals"):
        if getattr(ep, key) is not None:
            rec[key] = getattr(ep, key).tolist()
    if ep.source_expert is not None:
        rec["source_expert"] = ep.source_expert
    return rec


def write_dataset(path: str | os.PathLike, dataset: EpisodicDataset) -> None:
    """Write episodes in order, one JSON record per line, one record at a time."""
    _atomic_write(path, lambda fh: fh.writelines(
        f"{json.dumps(_traj_record(ep))}\n" for ep in dataset.episodes))


def write_labeled(path: str | os.PathLike, dataset: list[LabeledTrajectory]) -> None:
    """Write labeled episodes: rewards hold the labels, source_expert this run's match."""
    write_dataset(path, EpisodicDataset(episodes=[
        replace(lt.base, rewards=lt.ot_rewards, source_expert=lt.source_expert)
        for lt in dataset]))


def select_top_k_experts(dataset: EpisodicDataset, k: int) -> EpisodicDataset:
    """Pick the k episodes with the largest episodic return, descending.

    Ties keep the earlier-indexed episode first. Asking for more episodes
    than exist returns them all. Missing rewards raise DataError.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
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


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    """Centred, normalised dot product of two finite, non-constant sides.

    Each side is first scaled by a power of two, which is exact, to a
    largest magnitude below 1, so no sum or product can overflow.
    """
    x, y = (np.ldexp(v, -np.frexp(np.abs(v).max())[1]) for v in (x, y))
    x, y = x - x.mean(), y - y.mean()
    r = float(np.dot(x, y)) / math.sqrt(float(np.dot(x, x)) * float(np.dot(y, y)))
    return min(1.0, max(-1.0, r))


def _average_ranks(v: np.ndarray) -> np.ndarray:
    """1-based ranks of v; tied values share the mean of the ranks they span."""
    _, inverse, counts = np.unique(v, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2)[inverse]


def return_correlations(x: list[float], y: list[float]) -> tuple[float, float, bool]:
    """Pearson and Spearman correlation between two return sequences.

    Spearman is the Pearson correlation of the ranks, where tied values
    share the average of the ranks they span. Degenerate inputs (fewer
    than two values, either side constant, or any value NaN or infinite)
    report 0.0 for both coefficients and flag it, instead of propagating
    NaN.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if (len(x) < 2 or not (np.isfinite(x).all() and np.isfinite(y).all())
            or x.min() == x.max() or y.min() == y.max()):
        return 0.0, 0.0, True
    return _pearson(x, y), _pearson(_average_ranks(x), _average_ranks(y)), False
