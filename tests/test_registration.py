import gc
import os
import subprocess
import sys
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

import ultron.registration
from ultron.errors import SolverError
from ultron.mesh import Mesh, closest_points
from ultron.registration import (
    AffineField,
    RegistrationConfig,
    energy_match,
    energy_smooth,
    register,
)
from ultron.registration import (
    _CG_MAX_ITERS,
    _CG_TOL,
    Quadratic,
    _SystemPattern,
    _adjacency,
    _aggregates,
    cg,
)
from ultron.synth import SynthConfig, make_cylinder, make_icosphere, synth_frames
from ultron.tracking import CorrespondenceSet


def energy_data(points, target):
    """E_d as register scores an iterate: the sum of squared distances from
    the points to the target surface."""
    dists = closest_points(target, points)[1]
    return float(np.dot(dists, dists))


class TestEnergyData:
    def test_zero_on_surface(self, sphere_162):
        assert energy_data(sphere_162.vertices, sphere_162) == 0.0

    def test_single_point_squared_distance(self):
        slab = Mesh(
            vertices=[[-5, -5, 0], [5, -5, 0], [5, 5, 0], [-5, 5, 0]],
            triangles=[[0, 1, 2], [0, 2, 3]],
        )
        d = 0.37
        assert energy_data(np.array([[0.3, 0.2, d]]), slab) == pytest.approx(
            d * d, rel=1e-12
        )

    def test_matches_bruteforce_sum(self, rng, sphere_162):
        from conftest import closest_point_oracle

        pts = rng.normal(size=(50, 3)) * 1.3
        expected = sum(
            closest_point_oracle(sphere_162, p)[1] ** 2 for p in pts
        )
        assert energy_data(pts, sphere_162) == pytest.approx(expected, rel=1e-9)


class TestEnergySmooth:
    def test_identical_transforms_zero(self, rng):
        A = np.tile(rng.normal(size=(3, 4)), (6, 1, 1))
        edges = [[0, 1], [1, 2], [3, 4], [0, 5]]
        assert energy_smooth(AffineField(A), edges, gamma=0.7) == 0.0

    def test_single_rotation_entry(self):
        A = np.zeros((2, 3, 4))
        A[0, 1, 2] = 1.0
        assert energy_smooth(A, [[0, 1]], gamma=0.5) == 1.0

    def test_translation_scaled_by_gamma_squared(self):
        A = np.zeros((2, 3, 4))
        A[0, 1, 3] = 1.0  # translation column entry
        assert energy_smooth(A, [[0, 1]], gamma=0.5) == pytest.approx(0.25)

    def test_zero_iff_componentwise_constant(self, rng):
        # two components; constant per component -> zero
        A = np.zeros((4, 3, 4))
        A[0] = A[1] = rng.normal(size=(3, 4))
        A[2] = A[3] = rng.normal(size=(3, 4))
        edges = [[0, 1], [2, 3]]
        assert energy_smooth(A, edges, gamma=1.0) == 0.0
        A2 = A.copy()
        A2[1, 0, 0] += 1e-3
        assert energy_smooth(A2, edges, gamma=1.0) > 0.0


class TestEnergyMatch:
    def test_identity_on_identical_points(self, rng):
        pts = rng.normal(size=(10, 3))
        field = AffineField.identity(10)
        m = CorrespondenceSet.identity(10)
        assert energy_match(field, m, pts, pts) == 0.0

    def test_pure_translation(self):
        t = np.array([0.3, -0.2, 0.9])
        A = np.zeros((1, 3, 4))
        A[0, :, :3] = np.eye(3)
        A[0, :, 3] = t
        p = np.array([[0.5, 0.25, -1.0]])
        m = CorrespondenceSet([0], [0], [0.0])
        assert energy_match(AffineField(A), m, p, p) == pytest.approx(
            float(t @ t), rel=1e-12
        )

    def test_matches_naive_loop(self, rng):
        n = 12
        A = rng.normal(size=(n, 3, 4))
        kv = rng.normal(size=(n, 3))
        tv = rng.normal(size=(n, 3))
        si = rng.permutation(n)[:7]
        ti = rng.permutation(n)[:7]
        m = CorrespondenceSet(si, ti, np.zeros(7))
        expected = 0.0
        for s, t in zip(si, ti):
            moved = A[s, :, :3] @ kv[s] + A[s, :, 3]
            expected += float(np.sum((moved - tv[t]) ** 2))
        got = energy_match(AffineField(A), m, kv, tv)
        assert got == pytest.approx(expected, rel=1e-12)


def random_quadratic(rng, n=10):
    kv = rng.normal(size=(n, 3))
    edges = np.array([[i, (i + 1) % n] for i in range(n)])
    targets = rng.normal(size=(n, 3))
    weights = rng.random(n) > 0.2
    k = 5
    m = CorrespondenceSet(
        rng.permutation(n)[:k], rng.permutation(n)[:k], np.zeros(k)
    )
    tv = rng.normal(size=(n, 3))
    pattern = _SystemPattern(kv, edges, alpha=3.0, gamma=0.8)
    quad = pattern.quadratic(targets, weights, m, tv, beta=0.5, regularization=1e-9)
    return quad, kv, edges, targets, weights, m, tv, pattern


def dense_normal_matrix(kv, edges, keep, matches, alpha, beta, gamma, lam=0.0):
    """The normal matrix from its definition: blocks c_i I3 ⊗ u_i u_i^T,
    plus alpha kron(L, diag(1,1,1,gamma^2) tiled x3), plus lam I."""
    n = len(kv)
    u4 = np.concatenate([kv, np.ones((n, 1))], axis=1)
    matched = np.zeros(n, dtype=bool)
    if matches is not None:
        matched[matches.source_indices] = True
    c = keep + beta * matched
    H = np.zeros((12 * n, 12 * n))
    for i in range(n):
        for row in range(3):
            r = 12 * i + 4 * row
            H[r:r + 4, r:r + 4] = c[i] * np.outer(u4[i], u4[i])
    adjacency = np.zeros((n, n))
    for a, b in edges:
        adjacency[a, b] += 1.0
        adjacency[b, a] += 1.0
    L = np.diag(adjacency.sum(axis=1)) - adjacency
    w = np.tile([1.0, 1.0, 1.0, gamma * gamma], 3)
    H += alpha * np.kron(L, np.diag(w))
    return H + lam * np.eye(12 * n)


def h4_block(H):
    """Rows and columns 12i + a of the 12n normal matrix: H4, the copy that
    acts on transform row 0."""
    row0 = (12 * np.arange(len(H) // 12)[:, None] + np.arange(4)).reshape(-1)
    return H[np.ix_(row0, row0)]


def residual_norm(quad, x):
    """||H4 X - B||, over the three columns of X at once."""
    return np.linalg.norm(quad.h4 @ x - quad.b)


class TestAssembly:
    """The pattern-built matrix equals the definition exactly."""

    @pytest.fixture
    def mesh(self):
        m = make_icosphere(1)
        return m.vertices, m.edges()

    @pytest.mark.parametrize("alpha", [3.0, 0.0])
    def test_rejected_and_matched_vertices(self, mesh, rng, alpha):
        kv, edges = mesh
        n = len(kv)
        keep = rng.random(n) > 0.3
        # some rejected vertices stay unmatched, so their blocks are zero
        matched = rng.permutation(n)[: n // 3]
        matches = CorrespondenceSet(matched, matched, np.zeros(len(matched)))
        assert np.any(~keep & ~np.isin(np.arange(n), matched))
        pattern = _SystemPattern(kv, edges, alpha=alpha, gamma=0.7)
        for m in (CorrespondenceSet([], [], []), matches):
            quad = pattern.quadratic(kv, keep, m, kv, beta=0.4, regularization=1e-9)
            assert quad.h4.shape == (4 * n, 4 * n) and quad.h4.has_canonical_format
            assert np.array_equal(
                quad.h4.toarray(),
                h4_block(dense_normal_matrix(kv, edges, keep, m, alpha, 0.4, 0.7, 1e-9)),
            )

    def test_successive_assemblies_share_nothing(self, mesh, rng):
        kv, edges = mesh
        n = len(kv)
        pattern = _SystemPattern(kv, edges, 2.0, 1.3)
        matched = rng.permutation(n)[:10]
        matches = CorrespondenceSet(matched, matched, np.zeros(10))
        for beta, keep in ((1.0, rng.random(n) > 0.5), (0.3, rng.random(n) > 0.2)):
            quad = pattern.quadratic(kv, keep, matches, kv, beta)
            H4 = h4_block(dense_normal_matrix(kv, edges, keep, matches, 2.0, beta, 1.3))
            lam = 1e-10 * H4.diagonal().max()
            assert np.array_equal(quad.h4.toarray(), H4 + lam * np.eye(len(H4)))

    def test_empty_diagonal_raises(self, mesh):
        # no smoothness, every data term rejected and no matches: H4 is zero
        kv, edges = mesh
        pattern = _SystemPattern(kv, edges, 0.0, 1.0)
        with pytest.raises(SolverError, match="empty diagonal"):
            pattern.quadratic(kv, np.zeros(len(kv)), CorrespondenceSet([], [], []),
                              kv, 1.0)


def coarse_space(pattern, n):
    """P: vertex i's entry a maps to its aggregate's entry a."""
    P = np.zeros((4 * n, 4 * pattern.coarse_count))
    for i, k in enumerate(pattern.aggregates):
        P[4 * i:4 * i + 4, 4 * k:4 * k + 4] = np.eye(4)
    return P


def reference_matrix(kv, edges, alpha, gamma):
    """H_ref from its definition: H4 with every vertex kept, no matches
    (beta = 0) and the default regularization."""
    keep = np.ones(len(kv))
    H4 = h4_block(dense_normal_matrix(kv, edges, keep, None, alpha, 0.0, gamma))
    return H4 + 1e-10 * H4.diagonal().max() * np.eye(len(H4))


def assert_connected_aggregates(agg, adjacency, skip=()):
    for k in np.unique(agg):
        if k in skip:
            continue
        members = np.flatnonzero(agg == k)
        sub = adjacency[members][:, members]
        assert connected_components(sub, directed=False)[0] == 1, k


class TestPreconditioner:
    """M^-1 = D^-1 + P H_c^-1 P^T over edge-connected vertex aggregates,
    taken from the mesh's reference matrix H_ref."""

    def test_coarse_matrix_is_galerkin_product(self):
        sphere = make_icosphere(2)
        kv, edges = sphere.vertices, sphere.edges()
        n = len(kv)
        pattern = _SystemPattern(kv, edges, 3.0, 0.7)
        assert pattern.coarse_count > 1
        H = dense_normal_matrix(kv, edges, np.ones(n), None, 3.0, 0.0, 0.7)
        row0 = (12 * np.arange(n)[:, None] + np.arange(4)).reshape(-1)
        H4 = H[np.ix_(row0, row0)]
        # the three transform rows decouple into copies of H4
        for g in range(3):
            for h in range(3):
                block = H[np.ix_(row0 + 4 * g, row0 + 4 * h)]
                assert np.array_equal(block, H4 if g == h else 0 * H4)
        H_ref = reference_matrix(kv, edges, 3.0, 0.7)
        P = coarse_space(pattern, n)
        assert np.allclose(pattern.coarse.toarray(), P.T @ H_ref @ P,
                           rtol=1e-12, atol=1e-12 * np.abs(H_ref).max())

    def test_preconditioner_is_symmetric_positive_definite(self, rng):
        for _ in range(5):
            quad, *_, pattern = random_quadratic(rng, n=40)
            assert pattern.coarse_count > 1
            M = pattern.preconditioner
            Minv = np.column_stack([M(e.reshape(-1, 3)).ravel()
                                    for e in np.eye(quad.b.size)])
            scale = np.abs(Minv).max()
            assert np.allclose(Minv, Minv.T, rtol=0.0, atol=1e-12 * scale)
            assert np.linalg.eigvalsh(0.5 * (Minv + Minv.T)).min() > 0.0

    def test_preconditioner_applies_both_levels(self, rng):
        """M^-1 R equals D^-1 R + P H_c^-1 P^T R, with D and H_c formed
        densely from H_ref, for the three columns of R at once."""
        for _ in range(5):
            quad, kv, edges, *_, pattern = random_quadratic(rng, n=40)
            assert pattern.coarse_count > 1
            H_ref = reference_matrix(kv, edges, 3.0, 0.8)
            P = coarse_space(pattern, len(kv))
            R = rng.normal(size=(len(H_ref), 3))
            expected = (R / np.diag(H_ref)[:, None]
                        + P @ np.linalg.solve(P.T @ H_ref @ P, P.T @ R))
            got = pattern.preconditioner(R)
            assert np.allclose(got, expected, rtol=1e-9, atol=0.0)

    def test_indefinite_coarse_matrix_raises(self):
        # a negative smoothness weight makes H_c indefinite, while H_ref's
        # diagonal keeps positive entries
        sphere = make_icosphere(2)
        kv, edges = sphere.vertices, sphere.edges()
        H_ref = reference_matrix(kv, edges, -0.05, 1.0)
        assert H_ref.diagonal().max() > 0
        with pytest.raises(SolverError, match="coarse"):
            _SystemPattern(kv, edges, -0.05, 1.0)

    def test_singular_coarse_factor_raises_solver_error(self, sphere_162):
        # gamma is finite but its square overflows, so SuperLU finds the
        # coarse matrix exactly singular
        cfg = RegistrationConfig(gamma=1e200, outer_iterations=2)
        moved = sphere_162.with_vertices(sphere_162.vertices + 0.01)
        with pytest.raises(SolverError, match="singular"):
            register(sphere_162, moved,
                     CorrespondenceSet.identity(sphere_162.vertex_count), cfg)

    def test_one_factorization_per_registration(self, sphere_162, rng,
                                               monkeypatch):
        calls = []
        real = ultron.registration.splu

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(ultron.registration, "splu", counting)
        target = Mesh(
            vertices=sphere_162.vertices + rng.normal(scale=0.005, size=(162, 3)),
            triangles=sphere_162.triangles,
        )
        _d, _f, report = register(sphere_162, target, None,
                                  RegistrationConfig(outer_iterations=4))
        assert report.iterations_used > 1
        assert len(calls) == 1

    def test_pattern_is_freed_without_the_cycle_collector(self):
        # the preconditioner holds the coarse factor; a reference cycle
        # through it would keep one factor alive per registration
        sphere = make_icosphere(2)
        pattern = _SystemPattern(sphere.vertices, sphere.edges(), 3.0, 1.0)
        ref = weakref.ref(pattern)
        gc.disable()
        try:
            del pattern
            assert ref() is None
        finally:
            gc.enable()

    def test_aggregates_cover_and_are_edge_connected(self):
        # two 162-vertex spheres: seeds (every 16th vertex) fall in both
        sphere = make_icosphere(2)
        n = 2 * sphere.vertex_count
        edges = np.concatenate([sphere.edges(), sphere.edges() + sphere.vertex_count])
        adjacency = _adjacency(edges, n)
        agg = _aggregates(adjacency)
        assert agg.shape == (n,)
        assert np.array_equal(np.unique(agg), np.arange(len(range(0, n, 16))))
        assert_connected_aggregates(agg, adjacency)

    def test_unseeded_vertices_share_one_last_aggregate(self):
        # a 12-vertex component and an isolated vertex after the 162 sphere
        # hold no seed
        big, small = make_icosphere(2), make_icosphere(0)
        n = big.vertex_count + small.vertex_count + 1
        edges = np.concatenate([big.edges(), small.edges() + big.vertex_count])
        adjacency = _adjacency(edges, n)
        agg = _aggregates(adjacency)
        seeds = len(range(0, n, 16))
        assert np.array_equal(np.unique(agg), np.arange(seeds + 1))
        assert np.array_equal(np.flatnonzero(agg == seeds),
                              np.arange(big.vertex_count, n))
        assert_connected_aggregates(agg, adjacency, skip=(seeds,))
        # the shared aggregate spans components, yet H_c stays positive
        # definite and the preconditioned solve converges
        kv = np.concatenate([big.vertices, small.vertices + 3.0, [[5.0, 0.0, 0.0]]])
        pattern = _SystemPattern(kv, edges, alpha=3.0, gamma=0.8)
        quad = pattern.quadratic(kv + 0.1, np.ones(n), CorrespondenceSet([], [], []),
                                 kv, beta=0.5, regularization=1e-9)
        x = cg(quad, np.zeros_like(quad.b), pattern.preconditioner)
        assert residual_norm(quad, x) <= 10 * _CG_TOL * np.linalg.norm(quad.b)

    def test_fewer_cg_iterations_than_jacobi(self, sphere_642, rng, monkeypatch):
        """A registration at alpha = 10 needs at least 3x fewer CG iterations
        than with a Jacobi preconditioner alone."""
        v = sphere_642.vertices
        target = Mesh(vertices=v * 1.05 + rng.normal(scale=0.005, size=v.shape),
                      triangles=sphere_642.triangles)
        cfg = RegistrationConfig(alpha=10.0, outer_iterations=10)

        count = [0]

        def counting(*args, **kwargs):
            def step(xk):
                count[0] += 1
            return cg(*args, callback=step, **kwargs)

        def jacobi(pattern, d):
            inv = 1.0 / d[:, None]
            return lambda r: inv * r

        monkeypatch.setattr(ultron.registration, "cg", counting)
        register(sphere_642, target, None, cfg)
        two_level = count[0]
        count[0] = 0
        monkeypatch.setattr(_SystemPattern, "_preconditioner", jacobi)
        register(sphere_642, target, None, cfg)
        assert 3 * two_level <= count[0]


class TestQuadratic:
    def test_value_matches_energy_terms(self, rng):
        quad, kv, edges, targets, weights, m, tv, _ = random_quadratic(rng)
        n = len(kv)
        A = rng.normal(size=(n, 3, 4))
        x = A.transpose(0, 2, 1).reshape(-1, 3)
        deformed = np.einsum("nij,nj->ni", A[:, :, :3], kv) + A[:, :, 3]
        data = float(np.sum(weights[:, None] * (deformed - targets) ** 2))
        smooth = energy_smooth(AffineField(A), edges, 0.8)
        matched = energy_match(AffineField(A), m, kv, tv)
        expected = data + 3.0 * smooth + 0.5 * matched + 1e-9 * float(np.sum(x * x))
        assert quad.value(x) == pytest.approx(expected, rel=1e-9)

    def test_gradient_matches_central_differences(self, rng):
        # acceptance criterion: 20 random instances at 1e-5 relative
        failures = 0
        for trial in range(20):
            quad, kv, *_ = random_quadratic(rng)
            x = rng.normal(size=quad.b.shape)
            g = quad.gradient(x)
            h = 1e-6
            fd = np.zeros_like(x)
            for i in np.ndindex(x.shape):
                xp = x.copy()
                xm = x.copy()
                xp[i] += h
                xm[i] -= h
                fd[i] = (quad.value(xp) - quad.value(xm)) / (2 * h)
            scale = np.maximum(np.abs(g) + np.abs(fd), 1.0)
            if np.max(np.abs(g - fd) / scale) > 1e-5:
                failures += 1
        assert failures == 0

    def test_inner_solve_never_increases_objective(self, rng):
        for _ in range(10):
            quad, *_, pattern = random_quadratic(rng)
            x0 = rng.normal(size=quad.b.shape)
            before = quad.value(x0)
            x1 = cg(quad, x0, pattern.preconditioner)
            after = quad.value(x1)
            assert after <= before + 1e-9 * max(abs(before), 1.0)

    def test_inner_solve_meets_cg_tolerance(self, rng):
        # 10x headroom for drift between CG's recurrence residual and the
        # true residual
        for _ in range(10):
            quad, *_, pattern = random_quadratic(rng)
            x = cg(quad, rng.normal(size=quad.b.shape), pattern.preconditioner)
            assert residual_norm(quad, x) <= 10 * _CG_TOL * np.linalg.norm(quad.b)


class TestCg:
    @pytest.mark.parametrize("n", [10, 40])
    def test_takes_scipy_cg_steps(self, rng, n, monkeypatch):
        """With scipy's dot product in place of einsum, cg is scipy's cg bit
        for bit: the same callbacks and the same X. (einsum rounds the sums
        differently in the last bits, and CG carries that up to its
        tolerance, so the shipped sums are checked by residual elsewhere.)"""
        from scipy.sparse.linalg import LinearOperator
        from scipy.sparse.linalg import cg as scipy_cg

        monkeypatch.setattr(ultron.registration, "_dot",
                            lambda a, b: np.dot(a.ravel(), b.ravel()))
        for _ in range(10):
            quad, *_, pattern = random_quadratic(rng, n=n)
            x0 = rng.normal(size=quad.b.shape)
            M = pattern.preconditioner

            def flat(f):
                return LinearOperator((quad.b.size,) * 2, dtype=np.float64,
                                      matvec=lambda v: f(v.reshape(-1, 3)).ravel())

            ours, theirs = [], []
            expected, info = scipy_cg(
                flat(lambda v: quad.h4 @ v), quad.b.ravel(), x0=x0.ravel(),
                rtol=_CG_TOL, atol=0.0, maxiter=_CG_MAX_ITERS, M=flat(M),
                callback=theirs.append,
            )
            got = cg(quad, x0, M, callback=ours.append)
            assert info == 0 and got.shape == quad.b.shape
            assert len(ours) == len(theirs) > 0
            assert np.array_equal(got.ravel(), expected)

    def test_zero_right_hand_side_gives_zero(self, rng):
        quad, *_, pattern = random_quadratic(rng)
        zero = Quadratic(quad.h4, np.zeros_like(quad.b), 0.0)
        steps = []
        x = cg(zero, rng.normal(size=quad.b.shape), pattern.preconditioner,
               callback=steps.append)
        assert np.array_equal(x, np.zeros_like(quad.b)) and steps == []

    def test_leaves_the_start_unchanged(self, rng):
        quad, *_, pattern = random_quadratic(rng)
        x0 = rng.normal(size=quad.b.shape)
        start = x0.copy()
        cg(quad, x0, pattern.preconditioner)
        assert np.array_equal(x0, start)

    def test_non_finite_solution_raises(self, rng):
        quad, *_, pattern = random_quadratic(rng)
        with pytest.raises(SolverError, match="non-finite"):
            cg(quad, np.full(quad.b.shape, np.nan), pattern.preconditioner)


class TestRegister:
    def test_identical_meshes_fixed_point(self, sphere_162):
        matches = CorrespondenceSet.identity(sphere_162.vertex_count)
        deformed, field, report = register(sphere_162, sphere_162, matches)
        assert np.array_equal(deformed.vertices, sphere_162.vertices)
        assert np.array_equal(deformed.triangles, sphere_162.triangles)
        assert report.converged
        assert report.iterations_used <= 2
        assert report.E_d == 0.0 and report.total == 0.0
        identity = AffineField.identity(sphere_162.vertex_count).transforms
        assert np.allclose(field.transforms, identity)

    def test_translation_recovery(self, sphere_642, rng):
        # module example: 642-vertex unit sphere, 20 exact anchors,
        # alpha=10 beta=1 gamma=1
        shift = np.array([0.1, 0.0, 0.0])
        target = Mesh(
            vertices=sphere_642.vertices + shift, triangles=sphere_642.triangles
        )
        anchors = rng.choice(sphere_642.vertex_count, 20, replace=False)
        matches = CorrespondenceSet(anchors, anchors, np.zeros(20))
        cfg = RegistrationConfig(alpha=10.0, beta=1.0, gamma=1.0)
        deformed, field, report = register(sphere_642, target, matches, cfg)
        diag = target.bounds().diagonal
        vert_err = np.abs(deformed.vertices - target.vertices).max()
        assert vert_err <= 1e-3 * diag
        t_err = np.abs(field.transforms[:, :, 3] - shift).max()
        assert t_err <= 1e-3
        assert report.iterations_used <= 30

    def test_bend_recovery(self):
        # module example: cylinder bent by a sinusoidal field, amplitude 5%
        # of height, dense exact matches
        cyl = make_cylinder(48, 36)
        height = cyl.vertices[:, 2].max()
        amp = 0.05 * height
        bent = cyl.vertices.copy()
        bent[:, 0] += amp * np.sin(np.pi * cyl.vertices[:, 2] / height)
        target = Mesh(vertices=bent, triangles=cyl.triangles)
        matches = CorrespondenceSet.identity(cyl.vertex_count)
        cfg = RegistrationConfig(
            alpha=0.05, beta=1.0, gamma=1.0, beta_decay=0.9,
            outer_iterations=20,
        )
        deformed, _field, report = register(cyl, target, matches, cfg)
        diag = target.bounds().diagonal
        err = np.abs(deformed.vertices - target.vertices).max()
        assert err <= 1e-3 * diag
        assert report.iterations_used <= 20

    def test_connectivity_preserved_bitwise(self, sphere_162, rng):
        target = Mesh(
            vertices=sphere_162.vertices + rng.normal(scale=0.005, size=(162, 3)),
            triangles=sphere_162.triangles,
        )
        cfg = RegistrationConfig(outer_iterations=3)
        deformed, _f, _r = register(sphere_162, target, None, cfg)
        assert np.array_equal(deformed.triangles, sphere_162.triangles)

    @pytest.mark.parametrize("shift, scale", [
        pytest.param((3.0, -7.0, 11.0), 1.0, id="scale1"),
        pytest.param((3.0, -7.0, 11.0), 250.0, id="scale250"),
    ])
    def test_translation_equivariance(self, sphere_162, rng, shift, scale):
        # energies are normalized, so moving and uniformly scaling both
        # inputs changes only the returned mesh, by the same map
        target = Mesh(
            vertices=sphere_162.vertices + rng.normal(scale=0.01, size=(162, 3)),
            triangles=sphere_162.triangles,
        )
        anchors = rng.choice(162, 10, replace=False)
        matches = CorrespondenceSet(anchors, anchors, np.zeros(10))
        cfg = RegistrationConfig(outer_iterations=8)
        shift = np.array(shift)

        d1, f1, r1 = register(sphere_162, target, matches, cfg)
        d2, f2, r2 = register(
            Mesh(vertices=scale * sphere_162.vertices + shift,
                 triangles=sphere_162.triangles),
            Mesh(vertices=scale * target.vertices + shift,
                 triangles=target.triangles),
            matches, cfg,
        )
        assert r1.E_d == pytest.approx(r2.E_d, rel=1e-6, abs=1e-12)
        assert r1.E_s == pytest.approx(r2.E_s, rel=1e-6, abs=1e-12)
        assert r1.E_m == pytest.approx(r2.E_m, rel=1e-6, abs=1e-12)
        assert np.allclose(
            f1.transforms[:, :, :3], f2.transforms[:, :, :3], atol=1e-8
        )
        assert np.allclose(scale * d1.vertices + shift, d2.vertices,
                           atol=1e-7 * scale)

    def test_report_total_identity(self, sphere_162, rng):
        target = Mesh(
            vertices=sphere_162.vertices * 1.02, triangles=sphere_162.triangles
        )
        cfg = RegistrationConfig(outer_iterations=5)
        matches = CorrespondenceSet.identity(162)
        _d, _f, report = register(sphere_162, target, matches, cfg)
        assert report.total == pytest.approx(
            report.E_d + cfg.alpha * report.E_s + report.beta_final * report.E_m,
            rel=1e-9,
        )
        assert report.E_d >= 0 and report.E_s >= 0 and report.E_m >= 0

    def test_unconstrained_vertex_warns_and_is_regularized(self, caplog):
        # an unreferenced vertex far from the target has no smoothness term
        # and is rejected as an outlier, so its 12 parameters are free
        sphere = make_icosphere(2)
        key = Mesh(vertices=np.vstack([sphere.vertices, [[50.0, 0.0, 0.0]]]),
                   triangles=sphere.triangles)
        target = Mesh(vertices=sphere.vertices * 1.01, triangles=sphere.triangles)
        with caplog.at_level("WARNING", logger="ultron.registration"):
            _d, field, _r = register(key, target, None,
                                     RegistrationConfig(outer_iterations=2))
        # one warning per call, about a system register solves (4 vertex
        # parameters x 3 transform rows), none about the preconditioner's
        # H_ref, which keeps every vertex
        messages = [r.getMessage() for r in caplog.records]
        assert len(messages) == 1 and "12 unconstrained parameters" in messages[0]
        assert np.all(np.isfinite(field.transforms))

    def test_one_closest_point_query_per_iterate(self, sphere_162, rng,
                                                 monkeypatch):
        calls = []
        real = ultron.registration.closest_points

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(ultron.registration, "closest_points", counting)
        target = Mesh(
            vertices=sphere_162.vertices + rng.normal(scale=0.005, size=(162, 3)),
            triangles=sphere_162.triangles,
        )
        cfg = RegistrationConfig(outer_iterations=4)
        _d, _f, report = register(sphere_162, target, None, cfg)
        # the query that scores an iterate also targets the next system
        assert report.iterations_used > 1
        assert len(calls) == report.iterations_used + 1
        calls.clear()
        matches = CorrespondenceSet.identity(sphere_162.vertex_count)
        _d, _f, report = register(sphere_162, sphere_162, matches)
        assert report.iterations_used == 0 and calls == []

    def test_no_matches_is_the_empty_set(self):
        """None and an empty CorrespondenceSet give the same bits."""
        key, target = synth_frames(SynthConfig(frames=2, motion="bend",
                                               amplitude=0.4, resolution=2))
        cfg = RegistrationConfig(outer_iterations=5)
        want = register(key, target, None, cfg)
        got = register(key, target, CorrespondenceSet([], [], []), cfg)
        assert want[2].iterations_used == 5
        assert np.array_equal(got[0].vertices, want[0].vertices)
        assert np.array_equal(got[1].transforms, want[1].transforms)
        assert repr(got[2]) == repr(want[2])  # every field, to the last bit

    def test_neighbour_list_changes_no_bit(self, monkeypatch):
        """The iterates' shared neighbour list only skips work: with every
        query stateless, register returns the same bits, on one tessellation
        and across a remesh."""
        cfg = SynthConfig(frames=2, motion="bend", amplitude=0.4, resolution=3)
        key, bent = synth_frames(cfg)
        _, remeshed = synth_frames(replace(cfg, remesh_every=1, seed=5))
        real = ultron.registration.closest_points

        def stateless(mesh, queries, neighbours=None):
            return real(mesh, queries)

        for target, matches in (
            (bent, CorrespondenceSet.identity(key.vertex_count)),
            (remeshed, None),
        ):
            with monkeypatch.context() as m:
                m.setattr(ultron.registration, "closest_points", stateless)
                want = register(key, target, matches)
            got = register(key, target, matches)
            assert np.array_equal(got[0].vertices, want[0].vertices)
            assert np.array_equal(got[1].transforms, want[1].transforms)
            assert got[2] == want[2]


# one register of the synth bend at icosphere resolution {resolution},
# frame 0 onto frame 1, printing the transforms' bytes as hex
_BEND_REGISTRATION = """
from ultron.registration import RegistrationConfig, register
from ultron.synth import SynthConfig, synth_frames
from ultron.tracking import CorrespondenceSet
key, target = synth_frames(SynthConfig(frames=2, motion="bend", amplitude=0.4,
                                       resolution={resolution}))
_d, field, _r = register(key, target, CorrespondenceSet.identity(key.vertex_count),
                         RegistrationConfig(outer_iterations={iterations}))
print(field.transforms.tobytes().hex())
"""


def test_registration_is_identical_under_one_and_two_blas_threads():
    # 642 vertices, and 2,562, where BLAS dot products split their sums by
    # thread count
    src = str(Path(ultron.registration.__file__).parents[1])
    for resolution, iterations in ((3, 30), (4, 5)):
        script = _BEND_REGISTRATION.format(resolution=resolution, iterations=iterations)
        fields = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            proc = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            fields.append(proc.stdout)
        assert fields[0] == fields[1], resolution
