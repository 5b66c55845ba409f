"""Corner-table connectivity and manifold validation.

Corner c belongs to triangle c // 3; V[c] is its vertex; O[c] is the corner
opposite the same edge in the adjacent triangle, or BOUNDARY for edges with
a single incident triangle. Construction fails softly: meshes that are not
orientable 2-manifolds (with boundary) yield a NonManifoldReport instead of
a table, so callers can fall back to raw connectivity coding.

The table and the report are built with array operations, no loop over
corners or vertices. The directed edge a -> b opposite each corner is keyed
a * n + b and the keys are sorted once: equal neighbours are edges two
triangles traverse the same way, and O[c] is found by binary search for the
reversed key. A vertex is pinched when its corners fall in more than one
fan; the fans are the connected components of the links that join each
corner to the corner at the same vertex across an interior edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .model import Mesh

BOUNDARY = -1


@dataclass(frozen=True)
class CornerTable:
    V: np.ndarray  # (3m,) corner -> vertex
    O: np.ndarray  # (3m,) corner -> opposite corner or BOUNDARY
    vertex_count: int

    @property
    def corner_count(self) -> int:
        return len(self.V)

    @property
    def triangle_count(self) -> int:
        return len(self.V) // 3

    def triangles(self) -> np.ndarray:
        return self.V.reshape(-1, 3)

    def boundary_corner_count(self) -> int:
        return int(np.count_nonzero(self.O == BOUNDARY))


@dataclass(frozen=True)
class NonManifoldReport:
    """Why a mesh cannot be represented as an oriented corner table."""

    edges: list = field(default_factory=list)  # [((u, v), reason), ...]
    vertices: list = field(default_factory=list)  # pinched vertex ids

    def __str__(self):
        parts = [f"edge ({u},{v}): {why}" for (u, v), why in self.edges[:8]]
        parts += [f"pinched vertex {v}" for v in self.vertices[:8]]
        more = len(self.edges) + len(self.vertices) - len(parts)
        if more > 0:
            parts.append(f"... and {more} more")
        return "non-manifold mesh: " + "; ".join(parts)


def build_corner_table(mesh: Mesh) -> CornerTable | NonManifoldReport:
    return corner_table_from_triangles(mesh.triangles, mesh.vertex_count)


def corner_table_from_triangles(
    triangles, vertex_count: int
) -> CornerTable | NonManifoldReport:
    flat = np.asarray(triangles, dtype=np.int64).reshape(-1)
    V = flat.astype(np.int32)
    nc = len(V)
    n = int(flat.max()) + 1 if nc else 1  # key base: (a, b) -> a * n + b

    corners = np.arange(nc)
    nxt = corners + 1 - 3 * (corners % 3 == 2)
    prv = corners - 1 + 3 * (corners % 3 == 0)
    # directed edge opposite corner c, as traversed by its triangle: a -> b
    a, b = flat[nxt], flat[prv]
    key = a * n + b
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]

    # a directed edge twice means two triangles traverse it the same way
    und_key = np.minimum(a, b) * n + np.maximum(a, b)
    twice = order[1:][sorted_key[1:] == sorted_key[:-1]]
    bad_edges = dict.fromkeys(
        np.unique(und_key[twice]).tolist(), "inconsistent-orientation"
    )
    und, counts = np.unique(und_key, return_counts=True)
    shared = counts > 2
    bad_edges.update(
        (int(k), f"{cnt} incident triangles")
        for k, cnt in zip(und[shared], counts[shared])
    )
    if bad_edges:
        return NonManifoldReport(edges=[
            ((k // n, k % n), why) for k, why in sorted(bad_edges.items())
        ])

    # every directed edge is unique: the opposite corner holds the reverse
    reverse = b * n + a
    pos = np.minimum(np.searchsorted(sorted_key, reverse), max(nc - 1, 0))
    O = np.where(sorted_key[pos] == reverse, order[pos], BOUNDARY).astype(np.int32)

    pinched = _pinched_vertices(V, O, nxt, vertex_count)
    if len(pinched):
        return NonManifoldReport(vertices=pinched.tolist())

    V.setflags(write=False)
    O.setflags(write=False)
    return CornerTable(V=V, O=O, vertex_count=vertex_count)


def _pinched_vertices(V, O, nxt, vertex_count):
    """Vertices whose corners fall in more than one fan.

    Corner c and corner nxt[O[nxt[c]]] sit at the same vertex on either side
    of an interior edge through it; the connected components of these links
    are the fans.
    """
    nc = len(V)
    inner = np.flatnonzero(O[nxt] != BOUNDARY)
    links = coo_matrix(
        (np.ones(len(inner), dtype=np.int8), (inner, nxt[O[nxt[inner]]])),
        shape=(nc, nc),
    )
    _, fan = connected_components(links, directed=False)
    fans = np.unique(V.astype(np.int64) * nc + fan)
    per_vertex = np.bincount(fans // nc, minlength=vertex_count)
    return np.flatnonzero(per_vertex > 1)
