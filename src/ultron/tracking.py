"""Cross-frame vertex correspondence from motion prediction.

Vertices carry a position, a velocity and an acceleration; a frame step
advances the position with the current velocity and the velocity with the
current acceleration. Matching projects every tracked vertex one frame
ahead and pairs it with the target mesh's vertices by mutual nearest
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


@dataclass(frozen=True)
class MotionState:
    """Tracked state for a set of vertices (struct-of-arrays).

    positions, velocities and accelerations are (n, 3); velocities are in
    model units per frame, accelerations per frame squared.
    """

    positions: np.ndarray
    velocities: np.ndarray
    accelerations: np.ndarray

    def __post_init__(self):
        for name in ("positions", "velocities", "accelerations"):
            arr = np.array(getattr(self, name), dtype=np.float64, copy=True)
            if arr.ndim != 2 or arr.shape[1] != 3:
                raise InvalidMeshError(f"{name} must be (n, 3)")
            if not np.all(np.isfinite(arr)):
                raise InvalidMeshError(f"{name} contains non-finite values")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if not (len(self.positions) == len(self.velocities) == len(self.accelerations)):
            raise InvalidMeshError("motion state arrays must have equal length")

    def __len__(self):
        return len(self.positions)

    @classmethod
    def rest(cls, positions) -> "MotionState":
        """State with zero velocity and acceleration (start of a sequence)."""
        pos = np.asarray(positions, dtype=np.float64)
        zero = np.zeros_like(pos)
        return cls(positions=pos, velocities=zero, accelerations=zero)


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


def predict(state: MotionState, dt: float) -> MotionState:
    """Advance positions by the current velocity and velocities by the
    current acceleration over dt frames; acceleration is held constant."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    return MotionState(
        positions=state.positions + state.velocities * dt,
        velocities=state.velocities + state.accelerations * dt,
        accelerations=state.accelerations,
    )


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
    item 6).
    """
    if len(source) == 0 or target.vertex_count == 0:
        raise InvalidMeshError("source and target must be nonempty")
    predicted = predict(source, 1.0).positions
    if max_residual is None:
        max_residual = DEFAULT_MAX_RESIDUAL_FRACTION * target.bounds().diagonal
    dist, nearest_tgt = cKDTree(target.vertices).query(predicted)
    _, nearest_src = cKDTree(predicted).query(target.vertices)
    src = np.arange(len(predicted))
    keep = (nearest_src[nearest_tgt] == src) & (dist <= max_residual)
    return CorrespondenceSet(src[keep], nearest_tgt[keep], dist[keep])


def update_motion_state(
    prev: MotionState,
    matches: CorrespondenceSet,
    target: Mesh,
    dt: float = 1.0,
) -> MotionState:
    """Finite-difference state update from observed correspondences.

    Matched vertices snap to their target positions with velocity and
    acceleration re-estimated by first differences. Unmatched vertices
    coast: the prediction advances them, velocity is halved, acceleration
    is cleared.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    coast = predict(prev, dt)
    pos = coast.positions.copy()
    vel = coast.velocities * 0.5
    acc = np.zeros_like(pos)

    si = matches.source_indices
    ti = matches.target_indices
    new_pos = target.vertices[ti]
    new_vel = (new_pos - prev.positions[si]) / dt
    pos[si] = new_pos
    vel[si] = new_vel
    acc[si] = (new_vel - prev.velocities[si]) / dt
    return MotionState(positions=pos, velocities=vel, accelerations=acc)
