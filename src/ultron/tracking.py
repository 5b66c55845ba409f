"""Cross-frame vertex correspondence from constant-velocity prediction.

Vertices carry a position and a velocity, the displacement of the last
frame step. Matching moves every tracked vertex one frame ahead at that
velocity and pairs it with the target mesh's vertices by mutual nearest
neighbor within a residual bound: positions and motion are the whole
descriptor.
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
class MotionState:
    """Tracked state for a set of vertices (struct-of-arrays).

    positions and velocities are (n, 3); velocities are in model units per
    frame.
    """

    positions: np.ndarray
    velocities: np.ndarray

    def __post_init__(self):
        for name in ("positions", "velocities"):
            arr = np.array(getattr(self, name), dtype=np.float64, copy=True)
            if arr.ndim != 2 or arr.shape[1] != 3:
                raise InvalidMeshError(f"{name} must be (n, 3)")
            if not np.all(np.isfinite(arr)):
                raise InvalidMeshError(f"{name} contains non-finite values")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if len(self.positions) != len(self.velocities):
            raise InvalidMeshError("motion state arrays must have equal length")

    def __len__(self):
        return len(self.positions)

    @classmethod
    def rest(cls, positions) -> "MotionState":
        """State with zero velocity (start of a sequence)."""
        pos = np.asarray(positions, dtype=np.float64)
        return cls(positions=pos, velocities=np.zeros_like(pos))

    def advance(self, positions) -> "MotionState":
        """State one frame later at the observed positions, with velocity
        their displacement from this state's positions."""
        pos = np.asarray(positions, dtype=np.float64)
        return MotionState(positions=pos, velocities=pos - self.positions)


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
    source: MotionState,
    target: Mesh,
    max_residual: float | None = None,
) -> CorrespondenceSet:
    """Mutual-nearest-neighbor matching on one-frame-ahead predictions.

    A pair (i, j) is kept iff j is i's nearest target vertex, i is j's
    nearest predicted source, and the distance is within max_residual
    (default 2% of the target bbox diagonal). Normals are not compared:
    gating on them changed no keyframe on any sequence measured (ROADMAP
    item 6). max_residual must pass `check_max_residual`.
    """
    check_max_residual(max_residual)
    if len(source) == 0 or target.vertex_count == 0:
        raise InvalidMeshError("source and target must be nonempty")
    predicted = source.positions + source.velocities
    if max_residual is None:
        max_residual = DEFAULT_MAX_RESIDUAL_FRACTION * target.bounds().diagonal
    dist, nearest_tgt = cKDTree(target.vertices).query(predicted)
    _, nearest_src = cKDTree(predicted).query(target.vertices)
    src = np.arange(len(predicted))
    keep = (nearest_src[nearest_tgt] == src) & (dist <= max_residual)
    return CorrespondenceSet(src[keep], nearest_tgt[keep], dist[keep])
