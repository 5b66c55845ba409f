"""Non-rigid registration with one 3x4 affine transform per source vertex.

The cost is a weighted sum of a closest-point data term, a transform
smoothness term over the source mesh's edges, and a correspondence term
seeded by tracking. Given fixed closest points all terms are quadratic in
the transform entries, so each outer iteration solves the sparse normal
equations by preconditioned conjugate gradient and decays the
correspondence weight. One closest-point query per iterate both scores it
(E_d) and gives the next system its targets. The iterates' queries share
one neighbour list, so a vertex that moved less than half the list's skin
since its last tree query scores only the candidates that query found; the
result is exact, the same bits as a fresh query.

The three transform rows decouple, so the system is one matrix H4 of order
4n with three right-hand sides, H4 X = B. X is (4n, 3): row 4i + a, column g
holds entry a of transform row g of vertex i. H4 has two parts. The data and
correspondence terms give vertex i the block c_i u_i u_i^T, with u_i its
homogeneous position and c_i = keep_i + beta [i matched]; no matches is the
empty CorrespondenceSet, which register makes of None. The smoothness term
is alpha L ⊗ diag(1,1,1,gamma^2), with L the edge Laplacian of the source
mesh. H4's sparsity pattern, built once per registration, is the union of
L ⊗ diag(1,1,1,gamma^2) and I_n ⊗ ones(4,4); assembly writes H4 into it. CG
(Hestenes & Stiefel, J. Res. NBS 49, 1952) works on the (4n, 3) block X, one
product H4 X per iteration, and stops at relative residual 1e-5, because its
targets move at the next iterate.

CG is preconditioned on two levels, M^-1 r = D^-1 r + P H_c^-1 P^T r: the
Jacobi diagonal D plus a coarse correction over vertex aggregates (the
coarse space of Vanek, Mandel & Brezina, Computing 1996, without their
prolongator smoothing). Jacobi alone cannot fix the conditioning, which
comes from the alpha-weighted Laplacian. Each vertex joins its nearest seed
by hop count over the source mesh's edges, so the aggregates depend on
connectivity alone. P copies an aggregate's 4 entries to each of its
vertices, so P^T sums its vertices' rows: one sparse product of the
aggregates x n restriction matrix with R viewed as (n, 12). M is built once
per registration from H_ref, H4 with every vertex kept and no matches: D is
its diagonal and H_c = P^T H_ref P, of order 4 x aggregates, factored once
by SuperLU. A preconditioner only has to be SPD, so one frozen M serves
every outer iteration (Knoll & Keyes, J. Comput. Phys. 193, 2004). Neither
it nor CG, whose inner products einsum sums, calls threaded BLAS, so a
solve has the same bits under any BLAS thread count.

Inputs are rescaled internally to a unit bounding-box diagonal so the
default weights are portable; reported energies live in those normalized
coordinates, while the returned field and mesh are in input coordinates.
Closest points are queried on the target frame itself, in input coordinates,
so a frame has one closest-point index, shared with the quality gate.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra
from scipy.sparse.linalg import splu

from .errors import InvalidMeshError, SolverError
from .mesh import Mesh, NeighbourList, closest_points
from .tracking import CorrespondenceSet

logger = logging.getLogger(__name__)

_NO_MATCHES = CorrespondenceSet([], [], [])  # read-only arrays: safe to share

# register stops once the total energy changes by less than _CONVERGENCE_TOL
# (relative); each CG solve stops at relative residual _CG_TOL or after
# _CG_MAX_ITERS iterations. The solve is inexact on purpose: the next iterate
# moves its closest-point targets, so accuracy past 1e-5 is thrown away.
_CONVERGENCE_TOL = 1e-5
_CG_TOL = 1e-5
_CG_MAX_ITERS = 2000
# the coarse level seeds every s-th vertex, s = max(_AGGREGATE,
# ceil(n / _MAX_AGGREGATES)), which bounds the coarse matrix's order to
# 4 * _MAX_AGGREGATES (+4 for vertices no seed reaches); the cap only acts
# above 4,096 vertices and is not tuned on benchmark traffic
_AGGREGATE = 16
_MAX_AGGREGATES = 256


@dataclass(frozen=True)
class AffineField:
    """One 3x4 transform per source vertex; column 3 is the translation."""

    transforms: np.ndarray  # (n, 3, 4)

    def __post_init__(self):
        arr = np.array(self.transforms, dtype=np.float64, copy=True)
        if arr.ndim != 3 or arr.shape[1:] != (3, 4):
            raise InvalidMeshError("transforms must be (n, 3, 4)")
        if not np.all(np.isfinite(arr)):
            raise InvalidMeshError("transforms contain non-finite values")
        arr.setflags(write=False)
        object.__setattr__(self, "transforms", arr)

    def __len__(self):
        return len(self.transforms)

    @classmethod
    def identity(cls, n: int) -> "AffineField":
        t = np.zeros((n, 3, 4))
        t[:, :, :3] = np.eye(3)
        return cls(t)

    def apply(self, vertices) -> np.ndarray:
        v = np.asarray(vertices, dtype=np.float64)
        A = self.transforms
        return np.einsum("nij,nj->ni", A[:, :, :3], v) + A[:, :, 3]


@dataclass(frozen=True)
class RegistrationConfig:
    alpha: float = 10.0          # smoothness weight
    beta: float = 1.0            # correspondence weight (decayed per iteration)
    gamma: float = 1.0           # translation weight inside the smoothness norm
    outer_iterations: int = 30
    beta_decay: float = 0.7

    def __post_init__(self):
        for name in ("alpha", "beta"):
            value = getattr(self, name)
            if not 0 <= value < np.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        if not 0 < self.gamma < np.inf:
            raise ValueError(f"gamma must be finite and > 0, got {self.gamma}")
        if not 0.0 < self.beta_decay <= 1.0:
            raise ValueError("beta_decay must be in (0, 1]")
        if self.outer_iterations < 1:
            raise ValueError("outer_iterations must be >= 1")


@dataclass(frozen=True)
class RegistrationReport:
    E_d: float
    E_s: float
    E_m: float
    total: float
    iterations_used: int
    converged: bool
    diverged: bool = False
    beta_final: float = 0.0  # beta in effect for the reported total


def energy_smooth(field, edges, gamma: float) -> float:
    """Sum over edges of the weighted squared Frobenius difference of the
    endpoint transforms; the translation column is weighted by gamma."""
    A = field.transforms if isinstance(field, AffineField) else np.asarray(field)
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if len(e) == 0:
        return 0.0
    diff = A[e[:, 0]] - A[e[:, 1]]
    rot = diff[:, :, :3]
    tr = diff[:, :, 3]
    return float(np.sum(rot * rot) + gamma * gamma * np.sum(tr * tr))


def energy_match(field, matches: CorrespondenceSet, key_vertices, target_vertices) -> float:
    """Sum of squared distances between transformed matched source vertices
    and their target positions."""
    A = field.transforms if isinstance(field, AffineField) else np.asarray(field)
    si = matches.source_indices
    ti = matches.target_indices
    kv = np.asarray(key_vertices, dtype=np.float64)[si]
    tv = np.asarray(target_vertices, dtype=np.float64)[ti]
    moved = np.einsum("nij,nj->ni", A[si, :, :3], kv) + A[si, :, 3]
    diff = moved - tv
    return float(np.sum(diff * diff))


def _dot(a, b) -> float:
    """<A, B>, by einsum: it calls no BLAS, so no thread count moves a bit."""
    return np.einsum("ij,ij->", a, b)


@dataclass(eq=False)
class Quadratic:
    """<X, H4 X> - 2 <B, X> + c, the fixed-correspondence objective. X and
    B are (4n, 3): row 4i + a, column g holds entry a of transform row g of
    vertex i. h4 is the 4n x 4n matrix the pattern assembled; unconstrained
    counts the parameters only its regularization holds."""

    h4: sp.csr_matrix
    b: np.ndarray
    constant: float
    unconstrained: int = 0

    def value(self, x) -> float:
        return _dot(x, self.h4 @ x) - 2.0 * _dot(self.b, x) + self.constant

    def gradient(self, x) -> np.ndarray:
        return 2.0 * (self.h4 @ x - self.b)


def _adjacency(edges, n: int):
    """The symmetric edge-count matrix of a mesh with n vertices, in
    canonical CSR."""
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    A = sp.coo_matrix((np.ones(len(e)), (e[:, 0], e[:, 1])), shape=(n, n))
    return (A + A.T).tocsr()


def _aggregates(adjacency) -> np.ndarray:
    """Each vertex's aggregate: the nearest seed by hop count, seeds being
    every s-th vertex. Vertices no seed reaches (a component holding no
    seed) share one last aggregate."""
    n = adjacency.shape[0]
    s = max(_AGGREGATE, -(-n // _MAX_AGGREGATES))
    seeds = np.arange(0, n, s)
    _, _, source = dijkstra(
        adjacency, directed=False, indices=seeds, unweighted=True,
        return_predecessors=True, min_only=True,
    )
    return np.where(source >= 0, source // s, len(seeds))


class _SystemPattern:
    """The CSR pattern of H4, built once per registration.

    H4's pattern is the union of the smoothness term's, alpha L ⊗
    diag(1,1,1,gamma^2), and the vertex blocks', I_n ⊗ ones(4,4), in
    canonical CSR. An entry is found in it by binary search of its key,
    row * 4n + column, since the keys of a canonical pattern ascend. Only
    the blocks change between outer iterations, so an assembly copies the
    smoothness values and adds the blocks in place; the values equal those
    of summing the sparse matrices.

    It also holds CG's preconditioner M (see the module docstring), built
    and factored once here; an outer iteration only assembles H4.
    """

    def __init__(self, key_vertices, edges, alpha: float, gamma: float):
        kv = np.asarray(key_vertices, dtype=np.float64)
        n = len(kv)
        self.u4 = np.concatenate([kv, np.ones((n, 1))], axis=1)
        self.uu = np.einsum("ni,nj->nij", self.u4, self.u4)
        adjacency = _adjacency(edges, n)
        L = (sp.diags(np.asarray(adjacency.sum(axis=1)).ravel()) - adjacency
             if alpha != 0 else sp.csr_matrix((n, n)))
        w = np.diag([1.0, 1.0, 1.0, gamma * gamma])
        smooth = alpha * sp.kron(L, w, format="coo")
        # kron lists the blocks' entries in (vertex, a, b) order, as uu does
        blocks = sp.kron(sp.identity(n), np.ones((4, 4)), format="coo")
        m = 4 * n
        # the union of both patterns, from ones so that no entry cancels
        pattern = sp.csr_matrix((
            np.ones(smooth.nnz + blocks.nnz),
            (np.concatenate([smooth.row, blocks.row]),
             np.concatenate([smooth.col, blocks.col])),
        ), shape=(m, m))
        rows = np.repeat(np.arange(m), np.diff(pattern.indptr))
        keys = rows * m + pattern.indices

        def find(r, c):
            return np.searchsorted(keys, r.astype(np.int64) * m + c)

        self.h4_pattern = (pattern.indices, pattern.indptr)
        self.block_pos = find(blocks.row, blocks.col)
        self.diag_pos = find(np.arange(m), np.arange(m))
        self.base = np.zeros(pattern.nnz)
        self.base[find(smooth.row, smooth.col)] = smooth.data

        agg = _aggregates(adjacency)
        self.aggregates = agg
        self.coarse_count = int(agg.max()) + 1
        self.restrict = sp.csr_matrix((np.ones(n), (agg, np.arange(n))),
                                      shape=(self.coarse_count, n))
        # H_ref: every vertex kept, no matches
        h_ref = self.quadratic(kv, np.ones(n, dtype=bool), _NO_MATCHES, kv, beta=0.0).h4
        P = sp.kron(self.restrict.T, sp.identity(4), format="csr")
        self.coarse = (P.T @ h_ref @ P).tocsc()
        self.preconditioner = self._preconditioner(h_ref.diagonal())

    def quadratic(self, data_targets, data_weights, matches, target_vertices,
                  beta: float, regularization: float | None = None) -> Quadratic:
        """The objective for fixed closest points q (data_targets, kept where
        data_weights is 1) and matches (a set, maybe empty), plus
        regularization * I: by default 1e-10 times the largest diagonal entry,
        counting unconstrained parameters and refusing an empty diagonal.
        Rows 4i to 4i + 3 of B are u_i (keep_i q_i + beta t_i)^T."""
        keep = np.asarray(data_weights, dtype=bool)
        c = keep.astype(np.float64)
        q = np.where(keep[:, None], np.asarray(data_targets, dtype=np.float64), 0.0)
        const = float(np.sum(q * q))
        t = np.asarray(target_vertices, dtype=np.float64)[matches.target_indices]
        c[matches.source_indices] += beta
        q[matches.source_indices] += beta * t
        const += beta * float(np.sum(t * t))
        # one 4x4 block c_i u_i u_i^T per vertex
        h4 = self.base.copy()
        h4[self.block_pos] += (c[:, None, None] * self.uu).ravel()
        unconstrained = 0
        if regularization is None:
            diag = h4[self.diag_pos]
            if diag.max() <= 0:
                raise SolverError("registration system has an empty diagonal")
            regularization = 1e-10 * diag.max()
            # a zero on H4's diagonal frees one parameter per transform row
            unconstrained = 3 * int(np.count_nonzero(diag == 0.0))
        h4[self.diag_pos] += regularization
        m = len(self.diag_pos)
        H4 = sp.csr_matrix((h4, *self.h4_pattern), shape=(m, m))
        b = (self.u4[:, :, None] * q[:, None, :]).reshape(-1, 3)
        return Quadratic(H4, b, const, unconstrained)

    def _preconditioner(self, d):
        """M^-1 r = D^-1 r + P H_c^-1 P^T r. Symmetric mode pivots on the
        diagonal, leaving the pivots on U's: all positive iff H_c is SPD."""
        try:
            lu = splu(self.coarse, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0,
                      options={"SymmetricMode": True})
        except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
            raise SolverError(f"coarse registration system: {exc}") from None
        if not (np.array_equal(lu.perm_r, lu.perm_c) and np.all(lu.U.diagonal() > 0)):
            raise SolverError("coarse registration system is not positive definite")
        inv = 1.0 / d[:, None]
        # locals, not self: a closure over self would make a reference cycle
        # that holds the factor until the cyclic garbage collector runs
        restrict, aggregates, nc = self.restrict, self.aggregates, self.coarse_count

        def apply(r):
            # restrict the three columns of R at once: an aggregate's rows
            # sum to its (4, 3) block of the coarse right-hand side
            rc = restrict @ r.reshape(-1, 12)
            y = lu.solve(rc.reshape(4 * nc, 3)).reshape(nc, 12)
            return inv * r + y[aggregates].reshape(-1, 3)

        return apply


def cg(quad: Quadratic, x, precondition, callback=None) -> np.ndarray:
    """Solve H4 X = B from X = x by CG with M^-1 R = precondition(R), with
    scipy's steps and stopping rule: stop before a step once ||R||_F <
    _CG_TOL ||B||_F, or after _CG_MAX_ITERS steps. callback(X) runs after
    each step; B = 0 gives X = 0."""
    b_norm = np.sqrt(_dot(quad.b, quad.b))
    if b_norm == 0:
        return np.zeros_like(quad.b)
    x = np.array(x, dtype=np.float64)
    r = quad.b - quad.h4 @ x
    p = rho_prev = None
    for _ in range(_CG_MAX_ITERS):
        if np.sqrt(_dot(r, r)) < _CG_TOL * b_norm:
            break
        z = precondition(r)
        rho = _dot(r, z)
        p = z if p is None else z + (rho / rho_prev) * p
        hp = quad.h4 @ p
        alpha = rho / _dot(p, hp)
        x += alpha * p
        r -= alpha * hp
        rho_prev = rho
        if callback is not None:
            callback(x)
    if not np.all(np.isfinite(x)):
        raise SolverError("non-finite solution from conjugate gradient")
    return x


def _normalization(key: Mesh, target: Mesh):
    box = key.bounds().union(target.bounds())
    scale = box.diagonal
    if scale <= 0:
        scale = 1.0
    return box.min + 0.5 * box.extent, 1.0 / scale


def register(
    key: Mesh,
    target: Mesh,
    matches: CorrespondenceSet | None = None,
    cfg: RegistrationConfig = RegistrationConfig(),
) -> tuple[Mesh, AffineField, RegistrationReport]:
    """Deform the key mesh onto the target frame; matches may be None.

    Returns the deformed mesh (key connectivity, untouched triangle array),
    the per-vertex affine field in input coordinates, and the final energy
    breakdown (normalized coordinates).
    """
    if key.vertex_count == 0 or target.triangle_count == 0:
        raise InvalidMeshError("key and target must be nonempty")
    n = key.vertex_count
    if matches is None:
        matches = _NO_MATCHES

    # provable fixed point: identical geometry and self-consistent matches
    # make the identity field a global optimum (all three energies zero)
    if (
        np.array_equal(key.vertices, target.vertices)
        and np.array_equal(key.triangles, target.triangles)
        and np.array_equal(key.vertices[matches.source_indices],
                           target.vertices[matches.target_indices])
    ):
        field = AffineField.identity(n)
        report = RegistrationReport(
            E_d=0.0, E_s=0.0, E_m=0.0, total=0.0,
            iterations_used=0, converged=True, beta_final=cfg.beta,
        )
        return key.with_vertices(key.vertices), field, report

    center, scale = _normalization(key, target)
    kv = (key.vertices - center) * scale
    tv_n = (target.vertices - center) * scale
    edges = key.edges()
    pattern = _SystemPattern(kv, edges, cfg.alpha, cfg.gamma)

    def transforms(x):
        return x.reshape(n, 4, 3).transpose(0, 2, 1)

    neighbours = NeighbourList()

    def closest(x):
        field_now = transforms(x)
        p = np.einsum("nij,nj->ni", field_now[:, :, :3], kv) + field_now[:, :, 3]
        cpts, dists, _ = closest_points(target, p / scale + center, neighbours)
        return (cpts - center) * scale, dists * scale

    x = np.tile(np.eye(4, 3), (n, 1))  # every transform the identity
    # one query per iterate: it scores the iterate (E_d) and gives the next
    # system its targets
    cpts, dists = closest(x)
    beta = cfg.beta
    best = None  # (total, x, energies, beta)
    prev_total = None
    rise = 0
    iterations = 0
    unconstrained = 0  # of the first system with any: one warning per call
    converged = False
    diverged = False

    for it in range(1, cfg.outer_iterations + 1):
        iterations = it
        if it > 1:
            beta *= cfg.beta_decay
        # gross-outlier rejection; a mean-based cut keeps the far-but-valid
        # correspondences that carry the alignment signal on clean data
        weights = dists <= 3.0 * float(dists.mean())

        quad = pattern.quadratic(cpts, weights, matches, tv_n, beta)
        if quad.unconstrained and not unconstrained:
            unconstrained = quad.unconstrained
            logger.warning("degenerate registration system: %d unconstrained "
                           "parameters; regularized", unconstrained)
        x = cg(quad, x, pattern.preconditioner)

        field_now = transforms(x)
        cpts, dists = closest(x)
        E_d = float(np.dot(dists, dists))
        E_s = energy_smooth(field_now, edges, cfg.gamma)
        E_m = energy_match(field_now, matches, kv, tv_n)
        total = E_d + cfg.alpha * E_s + beta * E_m
        if not np.isfinite(total):
            raise SolverError("non-finite registration energy")

        if best is None or total < best[0]:
            best = (total, x.copy(), (E_d, E_s, E_m), beta)
        if prev_total is not None:
            rel = abs(total - prev_total) / max(prev_total, 1e-30)
            if rel < _CONVERGENCE_TOL:
                converged = True
                break
            # count only clear increases: sub-0.1% wiggle near the fixed
            # point is correspondence noise, not solver blowup
            rise = rise + 1 if total > prev_total * 1.001 else 0
            if rise >= 2:
                diverged = True
                break
        prev_total = total

    if diverged:
        total, x, (E_d, E_s, E_m), beta = best

    # back to input coordinates: p = B v + (center - B center + t / scale)
    A = transforms(x)
    B, t = A[:, :, :3], A[:, :, 3]
    t_orig = center - np.einsum("nij,j->ni", B, center) + t / scale
    field = AffineField(np.concatenate([B, t_orig[:, :, None]], axis=2))
    deformed = key.with_vertices(field.apply(key.vertices))
    report = RegistrationReport(
        E_d=E_d, E_s=E_s, E_m=E_m, total=total,
        iterations_used=iterations, converged=converged, diverged=diverged,
        beta_final=beta,
    )
    return deformed, field, report
