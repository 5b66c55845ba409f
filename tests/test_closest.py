import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import closest_point_oracle
from ultron.errors import EmptyMeshError
from ultron.mesh import Mesh, closest_point_on_mesh, closest_points
from ultron.mesh.closest import closest_point_on_triangles
from ultron.synth import make_icosphere


def test_query_on_vertex_returns_zero(sphere_162):
    target = sphere_162.vertices[17]
    point, dist, _tri = closest_point_on_mesh(sphere_162, target)
    assert dist == 0.0
    assert np.array_equal(point, target)


def test_orthogonal_projection_onto_triangle():
    mesh = Mesh(vertices=[[0, 0, 0], [1, 0, 0], [0, 1, 0]], triangles=[[0, 1, 2]])
    point, dist, tri = closest_point_on_mesh(mesh, [0.25, 0.25, 1.0])
    assert tri == 0
    assert dist == pytest.approx(1.0, abs=1e-15)
    assert np.allclose(point, [0.25, 0.25, 0.0], atol=1e-15)


def test_empty_mesh_raises():
    mesh = Mesh(vertices=np.zeros((3, 3)), triangles=np.zeros((0, 3), dtype=int))
    with pytest.raises(EmptyMeshError):
        closest_points(mesh, [[0.0, 0.0, 0.0]])


def test_matches_bruteforce_on_random_soup(rng):
    verts = rng.normal(size=(200, 3))
    cand = rng.integers(0, 200, (700, 3))
    ok = (
        (cand[:, 0] != cand[:, 1])
        & (cand[:, 1] != cand[:, 2])
        & (cand[:, 0] != cand[:, 2])
    )
    soup = Mesh(vertices=verts, triangles=cand[ok][:500])
    queries = rng.normal(size=(100, 3)) * 1.5
    _pts, dists, _ids = closest_points(soup, queries)
    for i, q in enumerate(queries):
        _op, od = closest_point_oracle(soup, q)
        assert dists[i] == pytest.approx(od, abs=1e-9, rel=1e-9)


def test_matches_bruteforce_on_surface_mesh(sphere_162, rng):
    queries = np.concatenate([
        rng.normal(size=(30, 3)) * 2.0,
        sphere_162.vertices[rng.integers(0, 162, 10)],  # exact hits
        rng.normal(size=(30, 3)) * 0.2,  # deep inside
    ])
    _pts, dists, _ids = closest_points(sphere_162, queries)
    for i, q in enumerate(queries):
        _op, od = closest_point_oracle(sphere_162, q)
        assert dists[i] == pytest.approx(od, abs=1e-9, rel=1e-9)


def test_returned_point_lies_on_reported_triangle(sphere_162, rng):
    queries = rng.normal(size=(50, 3))
    pts, dists, ids = closest_points(sphere_162, queries)
    tri = sphere_162.triangles[ids]
    a = sphere_162.vertices[tri[:, 0]]
    b = sphere_162.vertices[tri[:, 1]]
    c = sphere_162.vertices[tri[:, 2]]
    n = np.cross(b - a, c - a)
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    plane_dist = np.abs(np.einsum("ij,ij->i", pts - a, n))
    assert plane_dist.max() < 1e-12
    direct = np.linalg.norm(queries - pts, axis=1)
    assert np.allclose(direct, dists, atol=1e-12)


def mixed_scale_soup(rng, n_tri):
    """Triangles whose sizes span about 2^10; each one hangs off an earlier
    vertex, so queries at shared vertices tie between triangles."""
    verts = [rng.uniform(-1.0, 1.0, 3)]
    tris = []
    for _ in range(n_tri):
        anchor = int(rng.integers(len(verts)))
        scale = 2.0 ** rng.uniform(-8.0, 2.0)
        tris.append([anchor, len(verts), len(verts) + 1])
        verts += list(verts[anchor] + scale * rng.normal(size=(2, 3)))
    return Mesh(vertices=np.array(verts), triangles=np.array(tris))


@given(seed=st.integers(min_value=0, max_value=2**31),
       n_tri=st.integers(min_value=1, max_value=40))
@settings(max_examples=60, deadline=None)
def test_matches_exhaustive_search_exactly(seed, n_tri):
    """Same points, distances and ids as scoring every triangle with
    closest_point_on_triangles; ties go to the lowest triangle id."""
    rng = np.random.default_rng(seed)
    soup = mixed_scale_soup(rng, n_tri)
    v = soup.vertices
    queries = np.concatenate([
        v[rng.integers(0, len(v), 10)],  # exact vertices
        v[rng.integers(0, len(v), 10)] + 2.0 ** rng.uniform(-10, 0, (10, 1))
        * rng.normal(size=(10, 3)),  # near points
        rng.normal(size=(10, 3)) * 8.0,  # far points
    ])
    pts, dists, ids = closest_points(soup, queries)

    a, b, c = (v[soup.triangles[:, k]] for k in range(3))
    for i, q in enumerate(queries):
        cand = closest_point_on_triangles(np.tile(q, (len(a), 1)), a, b, c)
        d2 = np.einsum("ij,ij->i", q - cand, q - cand)
        best = int(np.argmin(d2))  # first minimum: the lowest id
        assert ids[i] == best
        assert np.array_equal(pts[i], cand[best])
        assert dists[i] == np.sqrt(d2[best])


def test_mixed_sizes_stay_exact_and_small():
    """A fine sphere next to a huge floor quad: one search radius sized for
    the floor would make every sphere triangle a candidate of every query."""
    sphere = make_icosphere(4)
    floor = np.array([[-10, -1.5, -10], [10, -1.5, -10], [10, -1.5, 10],
                      [-10, -1.5, 10]], dtype=np.float64)
    n = sphere.vertex_count
    mesh = Mesh(
        vertices=np.concatenate([sphere.vertices, floor]),
        triangles=np.concatenate([sphere.triangles,
                                  [[n, n + 2, n + 1], [n, n + 3, n + 2]]]),
    )
    tracemalloc.start()
    try:
        _pts, dists, _ids = closest_points(mesh, sphere.vertices)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert np.all(dists == 0.0)  # every query is a vertex of the mesh
    for i in range(0, n, 641):
        _op, od = closest_point_oracle(mesh, sphere.vertices[i])
        assert dists[i] == pytest.approx(od, abs=1e-12)
