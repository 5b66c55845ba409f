"""Exact closest-point-on-mesh queries.

A median-split AABB BVH (leaf size 8) is built lazily per mesh and cached;
queries run as a vectorized wavefront over (query, node) pairs with an
initial upper bound from the nearest triangle centroid, so results are
exact while the hot path stays in numpy.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from ..errors import EmptyMeshError
from .model import Mesh

LEAF_SIZE = 8


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
    """Static axis-aligned BVH over a triangle soup."""

    def __init__(self, vertices: np.ndarray, triangles: np.ndarray):
        if len(triangles) == 0:
            raise EmptyMeshError("mesh has no triangles")
        self.tri_a = np.ascontiguousarray(vertices[triangles[:, 0]])
        self.tri_b = np.ascontiguousarray(vertices[triangles[:, 1]])
        self.tri_c = np.ascontiguousarray(vertices[triangles[:, 2]])
        m = len(triangles)
        tri_min = np.minimum(np.minimum(self.tri_a, self.tri_b), self.tri_c)
        tri_max = np.maximum(np.maximum(self.tri_a, self.tri_b), self.tri_c)
        centroids = (self.tri_a + self.tri_b + self.tri_c) / 3.0

        order = np.arange(m)
        node_min = [None]
        node_max = [None]
        node_child = [None]  # (left, right) or (-start-1, count) for leaves
        stack = [(0, m, 0)]
        while stack:
            lo, hi, ni = stack.pop()
            idx = order[lo:hi]
            node_min[ni] = tri_min[idx].min(axis=0)
            node_max[ni] = tri_max[idx].max(axis=0)
            cmin = centroids[idx].min(axis=0)
            cmax = centroids[idx].max(axis=0)
            if hi - lo <= LEAF_SIZE or not np.any(cmax > cmin):
                node_child[ni] = (-(lo + 1), hi - lo)
                continue
            axis = int(np.argmax(cmax - cmin))
            half = (hi - lo) // 2
            part = np.argpartition(centroids[idx, axis], half)
            order[lo:hi] = idx[part]
            left = len(node_min)
            right = left + 1
            node_child[ni] = (left, right)
            node_min += [None, None]
            node_max += [None, None]
            node_child += [None, None]
            stack.append((lo, lo + half, left))
            stack.append((lo + half, hi, right))

        self.node_min = np.asarray(node_min)
        self.node_max = np.asarray(node_max)
        child = np.asarray(node_child, dtype=np.int64)
        self.left = child[:, 0]
        self.count = child[:, 1]
        self.order = order
        self._centroid_tree = cKDTree(centroids)

    def query(self, points: np.ndarray):
        """Exact closest surface points. Returns (points, distances, tri ids)."""
        q = np.atleast_2d(np.asarray(points, dtype=np.float64))
        nq = len(q)

        # initial achieved upper bound: exact distance to the triangle with
        # the nearest centroid
        _, seed_tri = self._centroid_tree.query(q)
        best_pt = closest_point_on_triangles(
            q, self.tri_a[seed_tri], self.tri_b[seed_tri], self.tri_c[seed_tri]
        )
        best_d2 = np.einsum("ij,ij->i", q - best_pt, q - best_pt)
        best_tri = seed_tri.astype(np.int64)

        pq = np.arange(nq, dtype=np.int64)
        pn = np.zeros(nq, dtype=np.int64)
        while len(pq):
            is_leaf = self.left[pn] < 0
            if is_leaf.any():
                lq = pq[is_leaf]
                ln = pn[is_leaf]
                starts = -self.left[ln] - 1
                counts = self.count[ln]
                reps = np.repeat(np.arange(len(lq)), counts)
                # each leaf's run starts..starts + counts, laid end to end
                runs = np.cumsum(counts) - counts
                tri_pos = np.repeat(starts - runs, counts) + np.arange(counts.sum())
                tris = self.order[tri_pos]
                qidx = lq[reps]
                cand_pt = closest_point_on_triangles(
                    q[qidx], self.tri_a[tris], self.tri_b[tris], self.tri_c[tris]
                )
                diff = q[qidx] - cand_pt
                cand_d2 = np.einsum("ij,ij->i", diff, diff)
                sel = np.lexsort((tris, cand_d2, qidx))
                uq, first = np.unique(qidx[sel], return_index=True)
                pick = sel[first]
                better = cand_d2[pick] < best_d2[uq]
                upd = uq[better]
                best_d2[upd] = cand_d2[pick[better]]
                best_pt[upd] = cand_pt[pick[better]]
                best_tri[upd] = tris[pick[better]]

            iq = pq[~is_leaf]
            inn = pn[~is_leaf]
            if not len(iq):
                break
            kids = np.concatenate([self.left[inn], self.left[inn] + 1])
            kq = np.concatenate([iq, iq])
            lo = self.node_min[kids] - q[kq]
            hi = q[kq] - self.node_max[kids]
            gap = np.maximum(np.maximum(lo, hi), 0.0)
            lb2 = np.einsum("ij,ij->i", gap, gap)
            keep = lb2 < best_d2[kq]
            pq = kq[keep]
            pn = kids[keep]

        return best_pt, np.sqrt(best_d2), best_tri


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
