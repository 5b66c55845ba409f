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

A caller that queries the same points again and again while they move a
little, as registration does once per iterate, can hand the query a
NeighbourList (a Verlet list: Verlet, Phys. Rev. 159, 1967). A tree query
then widens each ball by a skin s, half the smallest group's reach, lists
the ball's triangles for the point and makes its position the point's
reference r. A later query at p, with |p - r| < s/2, looks only at the
listed triangles; a point that moved further goes back to the trees and
its entries are replaced. The list holds every triangle that can win or
tie at p, because the distance to a triangle is 1-Lipschitz in the point:
with d1 the closest distance at r, such a triangle is at most d1 + |p - r|
from p, so less than d1 + s from r, and the ball held every triangle that
close to r.

Of the listed triangles, a query scores only those that can still win,
with per-candidate lower bounds carried between queries the way Elkan
carries them between k-means iterations ("Using the Triangle Inequality to
Accelerate k-Means", ICML 2003). The list keeps, per point, its position l
at its last query and its closest distance b there, and per listed
triangle a lower bound lb on its distance from l. With step = |p - l|, the
winner at p is at most b + step away and the triangle at least lb - step,
so a triangle with lb > b + 2 step can neither win nor tie. After the
query, a scored triangle's lb is its exact distance from p and an unscored
one's is lb - step, still a lower bound. Scoring the survivors with the
same expression and the same lowest-id rule gives the bits a stateless
query gives. A stateless query is the same path with skin 0 and every
point treated as moved.
"""

from __future__ import annotations

from itertools import chain

import numpy as np
from scipy.spatial import cKDTree

from ..errors import EmptyMeshError
from .model import Mesh

# relative widening of each candidate ball against floating-point rounding
_SLACK = 1e-9
# a neighbour list's skin, as a fraction of the smallest group's reach
_SKIN = 0.5


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

    # zero-area triangles (coincident corners or collinear): the region
    # tests above can pick a wrong corner, so take the best of the three
    # edges. denom is |ab x ac|^2 = |ab|^2 |ac|^2 sin^2(angle at a), which
    # rounding leaves a tiny positive number on a collinear triangle.
    ab2 = np.einsum("ij,ij->i", ab, ab)
    ac2 = np.einsum("ij,ij->i", ac, ac)
    degenerate = denom <= 1e-12 * ab2 * ac2
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


class NeighbourList:
    """Candidate triangles of one point set, carried from one
    TriangleBvh.query to the next (see the module docstring).

    The caller only creates it and passes it on. The first query fills it;
    a query on another index, or with another number of points, starts it
    over.
    """

    bvh = None  # the index whose triangles it lists

    def _start(self, bvh, n: int):
        self.bvh = bvh
        # each point at its last tree query and at its last query, and its
        # closest distance there; NaN, before the first, is near no point
        self.ref = np.full((n, 3), np.nan)
        self.last = np.full((n, 3), np.nan)
        self.last_best = np.full(n, np.nan)
        self.owner = np.empty(0, dtype=np.intp)  # per candidate: its point,
        self.tris = np.empty(0, dtype=np.intp)  # its triangle
        self.lb = np.empty(0)  # and a lower bound on its distance from last


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
        self.skin = _SKIN * self.groups[0][2]

    def query(self, points: np.ndarray, neighbours: NeighbourList | None = None):
        """Exact closest surface points. Returns (points, distances, tri ids).

        Ties go to the lowest triangle id. With a neighbour list, points that
        moved less than half the skin since their last tree query score only
        the listed candidates that can still win, and the list is brought up
        to date.
        """
        q = np.asarray(points, dtype=np.float64)
        q = q.reshape(-1, 3) if q.ndim < 2 else q  # [] and one 3-vector
        nq = len(q)
        if nq == 0:
            return np.empty((0, 3)), np.empty(0), np.empty(0, dtype=np.intp)

        if neighbours is None:
            skin = 0.0
            moved = np.arange(nq)
            kept_q = kept_t = np.empty(0, dtype=np.intp)
        else:
            skin = self.skin
            nb = neighbours
            if nb.bvh is not self or len(nb.ref) != nq:
                nb._start(self, nq)
            near = _norms(q - nb.ref) < 0.5 * skin
            step = _norms(q - nb.last)
            # a listed triangle with lb > last_best + 2 step can neither win
            # nor tie; the slack, relative and in units of the skin, covers
            # rounding in the distances
            o = nb.owner
            kept = np.flatnonzero(near[o] & (
                nb.lb <= (nb.last_best[o] + 2.0 * step[o]) * (1.0 + _SLACK) + _SLACK * skin
            ))
            kept_q, kept_t = o[kept], nb.tris[kept]
            moved = np.flatnonzero(~near)

        # the tree path, for the moved points
        nm = len(moved)
        seed_q = seeds = np.empty(0, dtype=np.intp)
        seed_pt, seed_d2 = np.empty((0, 3)), np.empty(0)
        ball_q, ball_t = [], []
        if nm:
            qm = q[moved]
            # achieved upper bound: exact distance to each group's triangle
            # with the nearest centroid, taken over all groups
            seed_q = np.tile(moved, len(self.groups))
            seeds = np.concatenate([ids[tree.query(qm)[1]] for ids, tree, _ in self.groups])
            seed_pt, seed_d2 = self._score(q, seed_q, seeds)
            bound = np.sqrt(seed_d2.reshape(len(self.groups), nm).min(axis=0))

            # a triangle at most `bound` + skin away has its centroid within
            # bound + skin + reach; the slack covers rounding in both distances
            for ids, tree, reach in self.groups:
                hits = tree.query_ball_point(
                    qm, (bound + skin + reach) * (1.0 + _SLACK), return_sorted=False
                )
                counts = np.fromiter(map(len, hits), np.int64, nm)
                flat = np.fromiter(chain.from_iterable(hits), np.int64, counts.sum())
                ball_q.append(np.repeat(moved, counts))
                ball_t.append(ids[flat])
        # one scoring pass: the balls' candidates, then the listed ones
        cand_q = np.concatenate(ball_q + [kept_q])
        cand_t = np.concatenate(ball_t + [kept_t])
        cand_pt, cand_d2 = self._score(q, cand_q, cand_t)

        # the seeds stay candidates, so no query is left without one
        qidx = np.concatenate([seed_q, cand_q])
        tris = np.concatenate([seeds, cand_t])
        d2 = np.concatenate([seed_d2, cand_d2])
        # each query's nearest candidates; of those, the lowest triangle id
        best = np.full(nq, np.inf)
        np.minimum.at(best, qidx, d2)
        tied = np.flatnonzero(d2 == best[qidx])
        sel = tied[np.lexsort((tris[tied], qidx[tied]))]
        first = sel[np.flatnonzero(np.diff(qidx[sel], prepend=-1))]
        pts = np.concatenate([seed_pt, cand_pt])[first]
        dists = np.sqrt(d2[first])

        if neighbours is not None:
            # scored triangles take their exact distances, the others lose
            # the step; the moved points' balls replace their old entries
            nball = len(cand_q) - len(kept_q)
            lb = nb.lb - step[o]
            lb[kept] = np.sqrt(cand_d2[nball:])
            old = near[o]
            nb.owner = np.concatenate([o[old], cand_q[:nball]])
            nb.tris = np.concatenate([nb.tris[old], cand_t[:nball]])
            nb.lb = np.concatenate([lb[old], np.sqrt(cand_d2[:nball])])
            nb.ref[moved] = q[moved]
            nb.last = q.copy()
            nb.last_best = dists.copy()
        return pts, dists, tris[first]

    def _score(self, q, qidx, tris):
        """Closest points of triangles tris to queries q[qidx], and their
        squared distances."""
        p = q[qidx]
        pts = closest_point_on_triangles(
            p, self.tri_a[tris], self.tri_b[tris], self.tri_c[tris]
        )
        diff = p - pts
        return pts, np.einsum("ij,ij->i", diff, diff)


def _norms(v):
    return np.sqrt(np.einsum("ij,ij->i", v, v))


def _bvh(mesh: Mesh) -> TriangleBvh:
    bvh = mesh._cache.get("bvh")
    if bvh is None:
        bvh = TriangleBvh(mesh.vertices, mesh.triangles)
        mesh._cache["bvh"] = bvh
    return bvh


def closest_points(
    mesh: Mesh, queries, neighbours: NeighbourList | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched exact closest points on a mesh's surface. A neighbour list,
    kept by the caller between queries of the same points on the same mesh,
    lets points that barely moved skip the trees (see the module docstring)."""
    if mesh.triangle_count == 0:
        raise EmptyMeshError("mesh has no triangles")
    return _bvh(mesh).query(queries, neighbours)
