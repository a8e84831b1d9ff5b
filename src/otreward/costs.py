"""Pairwise transport costs between weighted measures.

Both the scalar functions and ``pairwise_costs`` go through one matrix
kernel per cost. A scalar call is the kernel on a 1x1 problem, and the
kernel reduces each entry over the feature axis in the same order whatever
the matrix shape, so a matrix entry is bit-identical to the corresponding
scalar call regardless of how callers batch or parallelize.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import DimensionMismatch
from .measures import WeightedMeasure

ZERO_NORM_EPS = 1e-12
# Differences a squared-Euclidean cost holds at once: 2**16 floats, 512 KB.
# Timed on a 2-core x86-64 (AVX-512, 2 MB L2 per core; BENCH_21.json):
# at T = T' = 1000, d = 23 this chunk matches one row at a time, and 2**19
# (4 MB, out of L2) is 1.3x slower; at T <= 80, d = 14 (one or two chunks)
# it is 2.5x faster than one row at a time.
_CHUNK_DIFFERENCES = 2**16


class CostKind(Enum):
    COSINE = "cosine"
    SQUARED_EUCLIDEAN = "squared-euclidean"


def _cosine_matrix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Cosine distances between the rows of x (n, d) and of y (m, d)."""
    # einsum's reduction order follows the memory layout: make it the same.
    x = np.ascontiguousarray(x)
    y = np.ascontiguousarray(y)
    nx = np.sqrt(np.einsum("id,id->i", x, x))
    ny = np.sqrt(np.einsum("jd,jd->j", y, y))
    zero_x = nx < ZERO_NORM_EPS
    zero_y = ny < ZERO_NORM_EPS
    degenerate = zero_x.any() or zero_y.any()
    if degenerate:  # unit norms keep the division finite; those entries are set to 1 below
        nx[zero_x], ny[zero_y] = 1.0, 1.0
    out = 1.0 - np.einsum("id,jd->ij", x, y) / (nx[:, None] * ny)
    np.minimum(np.maximum(out, 0.0, out=out), 2.0, out=out)  # np.clip, without its overhead
    if degenerate:
        out[zero_x, :], out[:, zero_y] = 1.0, 1.0
    return out


def _squared_euclidean_matrix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Squared distances between the rows of x and y, in chunks of rows.

    Each chunk's (rows, m, d) differences hold at most _CHUNK_DIFFERENCES
    floats (at least one row), so a chunk stays in cache.
    """
    out = np.empty((len(x), len(y)))
    rows = max(1, _CHUNK_DIFFERENCES // max(1, y.size))
    for start in range(0, len(x), rows):
        diff = y - x[start:start + rows, None, :]
        np.einsum("ijd,ijd->ij", diff, diff, out=out[start:start + rows])
    return out


def _vectors(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise DimensionMismatch(f"vector shapes differ: {x.shape} vs {y.shape}")
    return x[None, :], y[None, :]


def cosine_cost(x: np.ndarray, y: np.ndarray) -> float:
    """Cosine distance 1 - <x,y>/(|x||y|), clamped to [0, 2].

    Vectors with norm below 1e-12 get the neutral distance 1: padded zero
    vectors may appear in cost matrices and must not produce NaN.
    """
    return float(_cosine_matrix(*_vectors(x, y))[0, 0])


def squared_euclidean_cost(x: np.ndarray, y: np.ndarray) -> float:
    """Sum of squared coordinate differences."""
    return float(_squared_euclidean_matrix(*_vectors(x, y))[0, 0])


def pairwise_costs(a: WeightedMeasure, b: WeightedMeasure, cost: CostKind) -> np.ndarray:
    """Cost matrix C with C[t, t'] = cost(a.points[t], b.points[t'])."""
    if a.dim != b.dim:
        raise DimensionMismatch(f"point dimensions differ: {a.dim} vs {b.dim}")
    if cost is CostKind.COSINE:
        return _cosine_matrix(a.points, b.points)
    if cost is CostKind.SQUARED_EUCLIDEAN:
        return _squared_euclidean_matrix(a.points, b.points)
    raise ValueError(f"unknown cost kind {cost!r}")  # pragma: no cover
