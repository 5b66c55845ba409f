"""Exact closest-point-on-mesh queries.

Each mesh lazily builds and caches one index: k-d trees over its triangle
centroids. Every point of a triangle lies within the triangle's reach (its
largest centroid-to-corner distance) of its centroid. So once a query has an
achieved distance d, from the triangle with the nearest centroid, any closer
triangle has its centroid within d + reach; a ball query of that radius
finds every candidate, and scoring them all with closest_point_on_triangles
is exact. Ties go to the lowest triangle id.

Triangles are grouped by reach within a factor of two, one tree per group,
so each ball is sized by its own group's reach. One tree searched with the
largest reach of all would turn a big floor quad beside a fine surface into
a candidate list holding every fine triangle for every query.
"""

from __future__ import annotations

from itertools import chain

import numpy as np
from scipy.spatial import cKDTree

from ..errors import EmptyMeshError
from .model import Mesh

# relative widening of each candidate ball against floating-point rounding
_SLACK = 1e-9


def closest_point_on_triangles(p, a, b, c):
    """Closest points on triangles (a, b, c) to points p; all (k, 3)."""
    ab = b - a
    ac = c - a
    ap = p - a

    d1 = np.einsum("ij,ij->i", ab, ap)
    d2 = np.einsum("ij,ij->i", ac, ap)
    bp = p - b
    d3 = np.einsum("ij,ij->i", ab, bp)
    d4 = np.einsum("ij,ij->i", ac, bp)
    cp = p - c
    d5 = np.einsum("ij,ij->i", ab, cp)
    d6 = np.einsum("ij,ij->i", ac, cp)

    vc = d1 * d4 - d3 * d2
    vb = d5 * d2 - d1 * d6
    va = d3 * d6 - d5 * d4

    def safe_div(num, den):
        return num / np.where(den == 0.0, 1.0, den)

    v_ab = safe_div(d1, d1 - d3)
    w_ac = safe_div(d2, d2 - d6)
    w_bc = safe_div(d4 - d3, (d4 - d3) + (d5 - d6))
    denom = va + vb + vc
    v_in = safe_div(vb, denom)
    w_in = safe_div(vc, denom)

    cond_a = (d1 <= 0) & (d2 <= 0)
    cond_b = (d3 >= 0) & (d4 <= d3)
    cond_ab = (vc <= 0) & (d1 >= 0) & (d3 <= 0)
    cond_c = (d6 >= 0) & (d5 <= d6)
    cond_ac = (vb <= 0) & (d2 >= 0) & (d6 <= 0)
    cond_bc = (va <= 0) & (d4 - d3 >= 0) & (d5 - d6 >= 0)

    out = a + ab * v_in[:, None] + ac * w_in[:, None]
    out = np.where(cond_bc[:, None], b + (c - b) * w_bc[:, None], out)
    out = np.where(cond_ac[:, None], a + ac * w_ac[:, None], out)
    out = np.where(cond_c[:, None], c, out)
    out = np.where(cond_ab[:, None], a + ab * v_ab[:, None], out)
    out = np.where(cond_b[:, None], b, out)
    out = np.where(cond_a[:, None], a, out)

    # geometrically degenerate (collinear) triangles: best of the three edges
    degenerate = ~(cond_a | cond_b | cond_ab | cond_c | cond_ac | cond_bc) & (
        denom <= 0
    )
    if degenerate.any():
        idx = np.flatnonzero(degenerate)
        best = None
        best_d = None
        for s, e in ((a, b), (a, c), (b, c)):
            seg = e[idx] - s[idx]
            t = safe_div(
                np.einsum("ij,ij->i", p[idx] - s[idx], seg),
                np.einsum("ij,ij->i", seg, seg),
            )
            cand = s[idx] + seg * np.clip(t, 0.0, 1.0)[:, None]
            d = np.einsum("ij,ij->i", p[idx] - cand, p[idx] - cand)
            if best is None:
                best, best_d = cand, d
            else:
                closer = d < best_d
                best = np.where(closer[:, None], cand, best)
                best_d = np.where(closer, d, best_d)
        out[idx] = best
    return out


class TriangleBvh:
    """Centroid k-d trees over a triangle soup, one per reach class.

    A triangle's reach is the largest distance from its centroid to a corner.
    Triangles whose reaches lie within a factor of two share a tree; triangles
    of zero reach join the smallest class. (The class keeps its old name:
    perfbench/tracing.py counts index builds through it.)
    """

    def __init__(self, vertices: np.ndarray, triangles: np.ndarray):
        if len(triangles) == 0:
            raise EmptyMeshError("mesh has no triangles")
        self.tri_a = np.ascontiguousarray(vertices[triangles[:, 0]])
        self.tri_b = np.ascontiguousarray(vertices[triangles[:, 1]])
        self.tri_c = np.ascontiguousarray(vertices[triangles[:, 2]])
        centroids = (self.tri_a + self.tri_b + self.tri_c) / 3.0
        reach = np.sqrt(np.max([
            np.einsum("ij,ij->i", corner - centroids, corner - centroids)
            for corner in (self.tri_a, self.tri_b, self.tri_c)
        ], axis=0))
        positive = reach[reach > 0]
        base = positive.min() if len(positive) else 1.0
        level = np.floor(np.log2(np.maximum(reach, base) / base))
        self.groups = []  # (triangle ids, centroid tree, largest reach)
        for lv in np.unique(level):
            ids = np.flatnonzero(level == lv)
            self.groups.append((ids, cKDTree(centroids[ids]), reach[ids].max()))

    def query(self, points: np.ndarray):
        """Exact closest surface points. Returns (points, distances, tri ids).

        Ties go to the lowest triangle id.
        """
        q = np.atleast_2d(np.asarray(points, dtype=np.float64))
        nq = len(q)
        rows = np.arange(nq)

        # achieved upper bound: exact distance to each group's triangle with
        # the nearest centroid, taken over all groups
        seed_q = np.tile(rows, len(self.groups))
        seeds = np.concatenate([ids[tree.query(q)[1]] for ids, tree, _ in self.groups])
        seed_pt, seed_d2 = self._score(q, seed_q, seeds)
        bound = np.sqrt(seed_d2.reshape(-1, nq).min(axis=0))

        # a triangle at most `bound` away has its centroid within
        # bound + reach; the slack covers rounding in both distances
        ball_q, ball_t = [], []
        for ids, tree, reach in self.groups:
            hits = tree.query_ball_point(
                q, (bound + reach) * (1.0 + _SLACK), return_sorted=False
            )
            counts = np.fromiter(map(len, hits), np.int64, nq)
            flat = np.fromiter(chain.from_iterable(hits), np.int64, counts.sum())
            ball_q.append(np.repeat(rows, counts))
            ball_t.append(ids[flat])
        ball_q = np.concatenate(ball_q)
        ball_t = np.concatenate(ball_t)
        ball_pt, ball_d2 = self._score(q, ball_q, ball_t)

        # the seeds stay candidates, so no query is left without one
        qidx = np.concatenate([seed_q, ball_q])
        tris = np.concatenate([seeds, ball_t])
        d2 = np.concatenate([seed_d2, ball_d2])
        sel = np.lexsort((tris, d2, qidx))
        first = sel[np.flatnonzero(np.diff(qidx[sel], prepend=-1))]
        pts = np.concatenate([seed_pt, ball_pt])[first]
        return pts, np.sqrt(d2[first]), tris[first]

    def _score(self, q, qidx, tris):
        """Closest points of triangles tris to queries q[qidx], and their
        squared distances."""
        pts = closest_point_on_triangles(
            q[qidx], self.tri_a[tris], self.tri_b[tris], self.tri_c[tris]
        )
        diff = q[qidx] - pts
        return pts, np.einsum("ij,ij->i", diff, diff)


def _bvh(mesh: Mesh) -> TriangleBvh:
    bvh = mesh._cache.get("bvh")
    if bvh is None:
        bvh = TriangleBvh(mesh.vertices, mesh.triangles)
        mesh._cache["bvh"] = bvh
    return bvh


def closest_points(mesh: Mesh, queries) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched exact closest points on a mesh's surface."""
    if mesh.triangle_count == 0:
        raise EmptyMeshError("mesh has no triangles")
    return _bvh(mesh).query(queries)


def closest_point_on_mesh(mesh: Mesh, query) -> tuple[np.ndarray, float, int]:
    """Closest surface point, Euclidean distance, and triangle id."""
    pts, dists, tris = closest_points(mesh, np.asarray(query, dtype=np.float64))
    return pts[0], float(dists[0]), int(tris[0])
