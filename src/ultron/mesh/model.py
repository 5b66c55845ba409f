"""Core mesh data model: indexed triangle meshes and axis-aligned boxes.

Meshes are immutable after construction (arrays are copied and marked
read-only) so they can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import EmptyMeshError, InvalidMeshError

# containers store quantization grids as float32, so a frame with a larger
# coordinate could never be encoded; refusing it keeps the bounding-box
# diagonal and every squared distance finite
_COORDINATE_LIMIT = float(np.finfo(np.float32).max)


def _frozen(data, dtype, shape, name):
    arr = np.array(data, dtype=dtype, copy=True)
    if arr.ndim != 2 or arr.shape[1] != shape:
        raise InvalidMeshError(f"{name} must have shape (n, {shape}), got {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Aabb:
    """Axis-aligned bounding box, used as the quantization grid support."""

    min: np.ndarray
    max: np.ndarray

    def __post_init__(self):
        mn = np.array(self.min, dtype=np.float64, copy=True)
        mx = np.array(self.max, dtype=np.float64, copy=True)
        if mn.shape != (3,) or mx.shape != (3,):
            raise InvalidMeshError("Aabb corners must be 3-vectors")
        if not (np.all(np.isfinite(mn)) and np.all(np.isfinite(mx))):
            raise InvalidMeshError("Aabb corners must be finite")
        if np.any(mn > mx):
            raise InvalidMeshError("Aabb min must be <= max componentwise")
        mn.setflags(write=False)
        mx.setflags(write=False)
        object.__setattr__(self, "min", mn)
        object.__setattr__(self, "max", mx)

    @classmethod
    def of_points(cls, points) -> "Aabb":
        pts = np.asarray(points, dtype=np.float64)
        if pts.size == 0:
            raise EmptyMeshError("cannot bound an empty point set")
        return cls(pts.min(axis=0), pts.max(axis=0))

    def union(self, other: "Aabb") -> "Aabb":
        return Aabb(np.minimum(self.min, other.min), np.maximum(self.max, other.max))

    @property
    def extent(self) -> np.ndarray:
        return self.max - self.min

    @property
    def diagonal(self) -> float:
        return float(np.linalg.norm(self.max - self.min))


@dataclass(frozen=True)
class Mesh:
    """Indexed triangle mesh with optional per-vertex attributes.

    vertices   (n, 3) float64, model units
    triangles  (m, 3) int32 vertex indices
    normals    optional (n, 3) unit vectors
    uvs        optional (n, 2) in [0, 1]^2
    colors     optional (n, 3) RGB in [0, 1]^3
    """

    vertices: np.ndarray
    triangles: np.ndarray
    normals: np.ndarray | None = None
    uvs: np.ndarray | None = None
    colors: np.ndarray | None = None
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        verts = _frozen(self.vertices, np.float64, 3, "vertices")
        tris = _frozen(self.triangles, np.int32, 3, "triangles")
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "triangles", tris)
        n = len(verts)
        # a NaN makes both extremes NaN, which fails both comparisons
        if not (-_COORDINATE_LIMIT <= verts.min(initial=0.0)
                and verts.max(initial=0.0) <= _COORDINATE_LIMIT):
            if not np.all(np.isfinite(verts)):
                raise InvalidMeshError("vertices contain non-finite values")
            raise InvalidMeshError(
                f"vertex coordinate beyond the float32 range ({_COORDINATE_LIMIT:.6g})"
            )
        if tris.size:
            if tris.min() < 0 or tris.max() >= n:
                raise InvalidMeshError(
                    f"triangle index out of range (vertex count {n})"
                )
            degen = (
                (tris[:, 0] == tris[:, 1])
                | (tris[:, 1] == tris[:, 2])
                | (tris[:, 0] == tris[:, 2])
            )
            if degen.any():
                raise InvalidMeshError(
                    f"degenerate index triple at triangle {int(np.flatnonzero(degen)[0])}"
                )
        for name, width in (("normals", 3), ("uvs", 2), ("colors", 3)):
            attr = getattr(self, name)
            if attr is None:
                continue
            arr = _frozen(attr, np.float64, width, name)
            if len(arr) != n:
                raise InvalidMeshError(
                    f"{name} length {len(arr)} != vertex count {n}"
                )
            object.__setattr__(self, name, arr)

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def triangle_count(self) -> int:
        return len(self.triangles)

    def bounds(self) -> Aabb:
        return Aabb.of_points(self.vertices)

    def with_vertices(self, vertices) -> "Mesh":
        """Same connectivity, UVs and colors, new vertex positions.

        Stored normals are stale for moved geometry, so they are dropped.
        """
        return Mesh(
            vertices=vertices,
            triangles=self.triangles,
            uvs=self.uvs,
            colors=self.colors,
        )

    def edges(self) -> np.ndarray:
        """Unique undirected edges as a sorted (e, 2) int array."""
        tris = self.triangles.astype(np.int64)
        ends = tris[:, [1, 2, 0]]
        # one key per edge, ordered as its (lower, higher) pair
        n = self.vertex_count
        keys = np.unique(np.minimum(tris, ends) * n + np.maximum(tris, ends))
        return np.stack([keys // n, keys % n], axis=1).astype(self.triangles.dtype)


def vertex_normals(mesh: Mesh) -> np.ndarray:
    """Area-weighted per-vertex normals recomputed from the geometry."""
    v = mesh.vertices
    t = mesh.triangles
    face_n = np.cross(v[t[:, 1]] - v[t[:, 0]], v[t[:, 2]] - v[t[:, 0]])
    normals = np.zeros_like(v)
    for k in range(3):
        np.add.at(normals, t[:, k], face_n)
    lengths = np.linalg.norm(normals, axis=1)
    nonzero = lengths > 0
    normals[nonzero] /= lengths[nonzero, None]
    # isolated or flat-degenerate vertices get an arbitrary unit normal
    normals[~nonzero] = (0.0, 0.0, 1.0)
    return normals
