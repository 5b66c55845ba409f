"""Cross-frame vertex correspondence from constant-velocity prediction.

Matching moves every tracked vertex one frame ahead by its last frame step
(its position in the latest accepted frame minus that in the one before)
and pairs it with the target mesh's vertices by mutual nearest neighbor
within a residual bound: positions and motion are the whole descriptor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import InvalidMeshError
from .mesh import Mesh

DEFAULT_MAX_RESIDUAL_FRACTION = 0.02  # of the target bbox diagonal


def check_max_residual(max_residual: float | None) -> None:
    """Refuse a residual bound that no match can meet: a negative one or
    NaN. None (the default bound) and inf are allowed."""
    if max_residual is not None and not max_residual >= 0:
        raise ValueError(
            f"max_residual must be nonnegative and not NaN, got {max_residual!r}"
        )


@dataclass(frozen=True)
class CorrespondenceSet:
    """Injective partial matching between two vertex sets."""

    source_indices: np.ndarray
    target_indices: np.ndarray
    residuals: np.ndarray

    def __post_init__(self):
        si = np.array(self.source_indices, dtype=np.int64, copy=True)
        ti = np.array(self.target_indices, dtype=np.int64, copy=True)
        res = np.array(self.residuals, dtype=np.float64, copy=True)
        if not (len(si) == len(ti) == len(res)):
            raise InvalidMeshError("correspondence arrays must have equal length")
        if len(np.unique(si)) != len(si) or len(np.unique(ti)) != len(ti):
            raise InvalidMeshError("correspondence must be injective both ways")
        if np.any(res < 0):
            raise InvalidMeshError("residuals must be nonnegative")
        for name, arr in (("source_indices", si), ("target_indices", ti),
                          ("residuals", res)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self):
        return len(self.source_indices)

    @classmethod
    def identity(cls, n: int):
        idx = np.arange(n)
        return cls(idx, idx, np.zeros(n))


def match_frames(
    positions,
    target: Mesh,
    max_residual: float | None = None,
    *,
    previous=None,
) -> CorrespondenceSet:
    """Mutual-nearest-neighbor matching on one-frame-ahead predictions.

    positions (n, 3) are the tracked vertices in the latest accepted frame
    and previous, if given, the same vertices one frame earlier: each is
    predicted at positions + (positions - previous), or at positions when
    previous is None (a segment's key). A pair (i, j) is kept iff j is i's
    nearest target vertex, i is j's nearest prediction, and the distance is
    within max_residual (default 2% of the target bbox diagonal). Normals
    are not compared: gating on them changed no keyframe on any sequence
    measured (ROADMAP item 6). max_residual must pass `check_max_residual`.
    """
    check_max_residual(max_residual)
    pos = np.asarray(positions, dtype=np.float64)
    if pos.ndim != 2 or pos.shape[1] != 3 or (
        previous is not None and np.shape(previous) != pos.shape
    ):
        raise InvalidMeshError("positions and previous must be (n, 3)")
    if len(pos) == 0 or target.vertex_count == 0:
        raise InvalidMeshError("source and target must be nonempty")
    predicted = pos if previous is None else pos + (pos - previous)
    if not np.all(np.isfinite(predicted)):
        raise InvalidMeshError("predicted positions must be finite")
    if max_residual is None:
        max_residual = DEFAULT_MAX_RESIDUAL_FRACTION * target.bounds().diagonal
    dist, nearest_tgt = cKDTree(target.vertices).query(predicted)
    _, nearest_src = cKDTree(predicted).query(target.vertices)
    src = np.arange(len(predicted))
    keep = (nearest_src[nearest_tgt] == src) & (dist <= max_residual)
    return CorrespondenceSet(src[keep], nearest_tgt[keep], dist[keep])
