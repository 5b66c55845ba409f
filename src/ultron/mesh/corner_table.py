"""Corner-table connectivity and manifold validation.

Corner c belongs to triangle c // 3; V[c] is its vertex; O[c] is the corner
opposite the same edge in the adjacent triangle, or BOUNDARY for edges with
a single incident triangle. Construction fails softly: meshes that are not
orientable 2-manifolds (with boundary) yield a NonManifoldReport instead of
a table, so callers can fall back to raw connectivity coding.

The table and the report are built with array operations, no loop over
corners or vertices. The edge opposite each corner is keyed min * n + max
and the keys are sorted once; each run of equal keys holds the corners
facing one edge. A run of two in opposite directions is a pair of opposite
corners, a run of one a boundary edge, a run of two in the same direction
an orientation flip, and a longer run is reported by its count. A vertex is
pinched when its corners fall in more than one fan; the fans are the
connected components of the links that join each corner to the corner at
the same vertex across an interior edge.
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
    # corner c's successor in its triangle (c // 3); its predecessor is nxt[nxt]
    nxt = (np.arange(0, len(flat), 3)[:, None] + (1, 2, 0)).reshape(-1)
    O = _opposite_corners(flat, nxt)
    if isinstance(O, NonManifoldReport):
        return O
    V = flat.astype(np.int32)
    pinched = _pinched_vertices(V, O, nxt, vertex_count)
    if len(pinched):
        return NonManifoldReport(vertices=pinched.tolist())

    V.setflags(write=False)
    O.setflags(write=False)
    return CornerTable(V=V, O=O, vertex_count=vertex_count)


def _opposite_corners(flat, nxt):
    """O from one sort of the undirected edge keys, or the edges that
    forbid it.

    Each run of equal keys holds the corners facing one edge: a run of two
    that traverse it in opposite directions is a pair of opposite corners,
    a run of one is a boundary edge, a run of two in the same direction is
    an orientation flip, and a longer run is reported by its count.
    """
    nc = len(flat)
    n = int(flat.max()) + 1 if nc else 1  # key base: (u, v) -> u * n + v
    # edge opposite corner c, as traversed by its triangle: a -> b
    a, b = flat[nxt], flat[nxt[nxt]]
    key = np.minimum(a, b) * n + np.maximum(a, b)
    # nothing below depends on the order within a run: no stable sort needed
    order = np.argsort(key)
    sorted_key = key[order]
    starts = np.flatnonzero(np.diff(sorted_key, prepend=-1))
    counts = np.diff(starts, append=nc)
    pair_runs = np.flatnonzero(counts == 2)
    first, second = order[starts[pair_runs]], order[starts[pair_runs] + 1]

    bad = counts > 2
    bad[pair_runs[a[first] == a[second]]] = True
    if bad.any():
        return NonManifoldReport(edges=[
            ((k // n, k % n),
             f"{cnt} incident triangles" if cnt > 2 else "inconsistent-orientation")
            for k, cnt in zip(sorted_key[starts[bad]].tolist(),
                              counts[bad].tolist())
        ])
    O = np.full(nc, BOUNDARY, dtype=np.int32)
    O[first] = second
    O[second] = first
    return O


def _pinched_vertices(V, O, nxt, vertex_count):
    """Vertices whose corners fall in more than one fan.

    Corner c and corner nxt[O[nxt[c]]] sit at the same vertex on either side
    of an interior edge through it; the connected components of these links
    are the fans. Every corner of a fan sits at one vertex, so any corner
    can stand for its fan.
    """
    nc = len(V)
    inner = np.flatnonzero(O[nxt] != BOUNDARY)
    links = coo_matrix(
        (np.ones(len(inner), dtype=np.int8), (inner, nxt[O[nxt[inner]]])),
        shape=(nc, nc),
    )
    n_fans, fan = connected_components(links, directed=False)
    representative = np.empty(n_fans, dtype=np.intp)
    representative[fan] = np.arange(nc)
    per_vertex = np.bincount(V[representative], minlength=vertex_count)
    return np.flatnonzero(per_vertex > 1)
