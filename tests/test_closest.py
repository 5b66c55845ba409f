import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import closest_point_oracle
from ultron.errors import EmptyMeshError
from ultron.mesh import Mesh, NeighbourList, closest_points
from ultron.mesh.closest import closest_point_on_triangles
from ultron.synth import make_icosphere


def test_query_on_vertex_returns_zero(sphere_162):
    target = sphere_162.vertices[17]
    points, dists, _tris = closest_points(sphere_162, target)  # one 3-vector
    assert dists.shape == (1,) and dists[0] == 0.0
    assert np.array_equal(points[0], target)


def test_vertex_query_ties_go_to_lowest_fan_triangle(rng):
    """Every triangle of a vertex's fan is at distance 0 from it; whatever
    order the triangles come in, the lowest id among them wins."""
    sphere = make_icosphere(2)
    for _ in range(3):
        tris = sphere.triangles[rng.permutation(sphere.triangle_count)]
        mesh = Mesh(vertices=sphere.vertices, triangles=tris)
        pts, dists, ids = closest_points(mesh, sphere.vertices)
        lowest = np.full(sphere.vertex_count, len(tris))
        np.minimum.at(lowest, tris.ravel(), np.repeat(np.arange(len(tris)), 3))
        assert np.array_equal(ids, lowest)
        assert np.array_equal(pts, sphere.vertices)
        assert not dists.any()


def test_copy_with_other_attributes_shares_the_index(monkeypatch):
    """with_attributes keeps the geometry, so the index built for the mesh
    answers the copy's queries, and the copy has its own attributes."""
    import ultron.mesh.closest

    builds = []

    class Counting(ultron.mesh.closest.TriangleBvh):
        def __init__(self, *args):
            builds.append(1)
            super().__init__(*args)

    monkeypatch.setattr(ultron.mesh.closest, "TriangleBvh", Counting)
    mesh = make_icosphere(2)
    queries = mesh.vertices * 1.01
    expected = closest_points(mesh, queries)
    colors = np.full((mesh.vertex_count, 3), 0.5)
    copy = mesh.with_attributes(colors=colors)
    got = closest_points(copy, queries)
    assert len(builds) == 1
    assert all(np.array_equal(e, g) for e, g in zip(expected, got))
    assert np.array_equal(copy.colors, colors) and mesh.colors is None


def test_orthogonal_projection_onto_triangle():
    mesh = Mesh(vertices=[[0, 0, 0], [1, 0, 0], [0, 1, 0]], triangles=[[0, 1, 2]])
    points, dists, tris = closest_points(mesh, [[0.25, 0.25, 1.0], [0.5, 0.125, -2.0]])
    assert np.array_equal(tris, [0, 0])
    assert dists == pytest.approx([1.0, 2.0], abs=1e-15)
    assert np.allclose(points, [[0.25, 0.25, 0.0], [0.5, 0.125, 0.0]], atol=1e-15)


def _segment_reference(p, corners):
    """Closest point to p on the union of a triangle's three edges."""
    best = None
    for s, e in ((0, 1), (0, 2), (1, 2)):
        s, e = corners[s], corners[e]
        seg = e - s
        t = 0.0 if not seg @ seg else np.clip((p - s) @ seg / (seg @ seg), 0.0, 1.0)
        cand = s + t * seg
        if best is None or (p - cand) @ (p - cand) < (p - best) @ (p - best):
            best = cand
    return best


@pytest.mark.parametrize("corners", [
    [[0, 0, 0], [0, 0, 0], [1, 0, 0]],   # a == b
    [[1, 0, 0], [0, 0, 0], [0, 0, 0]],   # b == c
    [[0, 0, 0], [1, 0, 0], [0, 0, 0]],   # a == c
    [[0, 0, 0], [0, 0, 0], [0, 0, 0]],   # a point
    [[0, 0, 0], [2, 0, 0], [1, 0, 0]],   # collinear, c between
    [[1, 0, 0], [0, 0, 0], [2, 0, 0]],   # collinear, a between
    [[0, 2, 0], [0, 1, 0], [0, -3, 0]],  # collinear, b between
], ids=["ab", "bc", "ac", "point", "collinear_c_inside", "collinear_a_inside",
        "collinear_b_inside"])
def test_zero_area_triangles_match_segment_reference(corners, rng):
    # corners on one axis, so the zero area is exact in floating point
    corners = np.asarray(corners, dtype=np.float64)
    queries = np.concatenate([
        [[0.5, 1.0, 0.0], [-1.0, 0.5, 0.0], [3.0, -1.0, 2.0]],
        rng.normal(scale=2.0, size=(200, 3)),
    ])
    k = len(queries)
    out = closest_point_on_triangles(queries, *(np.tile(c, (k, 1)) for c in corners))
    expected = np.array([_segment_reference(q, corners) for q in queries])
    dist = np.linalg.norm(queries - out, axis=1)
    assert dist == pytest.approx(np.linalg.norm(queries - expected, axis=1),
                                 rel=1e-12, abs=1e-12)
    assert np.allclose(out, expected, atol=1e-12)


def test_collinear_triangles_off_axis(rng):
    # corners on random lines: rounding leaves |ab x ac|^2 a tiny positive
    # number, yet the closest point is on the segment the corners span
    k = 10_000
    origin = rng.normal(size=(k, 3))
    direction = rng.normal(size=(k, 3))
    direction /= np.linalg.norm(direction, axis=1)[:, None]
    t = rng.uniform(-2.0, 2.0, size=(k, 3))
    corners = [origin + t[:, i:i + 1] * direction for i in range(3)]
    queries = origin + rng.normal(scale=2.0, size=(k, 3))
    out = closest_point_on_triangles(queries, *corners)
    along = np.einsum("ij,ij->i", queries - origin, direction)
    expected = origin + np.clip(along, t.min(axis=1), t.max(axis=1))[:, None] * direction
    assert np.linalg.norm(queries - out, axis=1) == pytest.approx(
        np.linalg.norm(queries - expected, axis=1), rel=0, abs=1e-9)


def test_coincident_corners_through_closest_points():
    # corner a is not the closest point of a == b, c on the x axis
    mesh = Mesh(vertices=[[0, 0, 0], [0, 0, 0], [1, 0, 0]], triangles=[[0, 1, 2]])
    points, dists, tris = closest_points(mesh, [[0.5, 1.0, 0.0]])
    assert np.array_equal(points, [[0.5, 0.0, 0.0]])
    assert dists == pytest.approx([1.0], abs=1e-15)


def test_empty_mesh_raises():
    mesh = Mesh(vertices=np.zeros((3, 3)), triangles=np.zeros((0, 3), dtype=int))
    with pytest.raises(EmptyMeshError):
        closest_points(mesh, [[0.0, 0.0, 0.0]])


def test_no_queries_give_empty_results(sphere_162):
    for queries in (np.empty((0, 3)), np.empty(0), []):
        pts, dists, tris = closest_points(sphere_162, queries)
        assert pts.shape == (0, 3) and dists.shape == (0,) and tris.shape == (0,)
        assert np.issubdtype(tris.dtype, np.integer)


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


def sphere_on_floor(level):
    """A fine icosphere beside a huge floor quad: two reach groups."""
    sphere = make_icosphere(level)
    floor = np.array([[-10, -1.5, -10], [10, -1.5, -10], [10, -1.5, 10],
                      [-10, -1.5, 10]], dtype=np.float64)
    n = sphere.vertex_count
    return Mesh(
        vertices=np.concatenate([sphere.vertices, floor]),
        triangles=np.concatenate([sphere.triangles,
                                  [[n, n + 2, n + 1], [n, n + 3, n + 2]]]),
    )


def test_mixed_sizes_stay_exact_and_small():
    """A fine sphere next to a huge floor quad: one search radius sized for
    the floor would make every sphere triangle a candidate of every query."""
    sphere = make_icosphere(4)
    n = sphere.vertex_count
    mesh = sphere_on_floor(4)
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


WALK_MESHES = {"icosphere": make_icosphere(2), "sphere on floor": sphere_on_floor(2)}


@given(name=st.sampled_from(sorted(WALK_MESHES)),
       seed=st.integers(min_value=0, max_value=2**31),
       steps=st.lists(st.sampled_from(["still", "rounding", "small", "past", "drift"]),
                      min_size=1, max_size=6))
@settings(max_examples=40, deadline=None)
def test_neighbour_list_matches_stateless_queries(name, seed, steps):
    """Points walked through queries that share one neighbour list get the
    same points, distances and ids as stateless queries, whether they stay,
    move by rounding noise, move less than half the skin, move past it or
    drift: several sub-skin moves toward the sphere's centre, so that the
    distance from the reference grows past any single move. A point near
    the centre drifts across it, the far side closing in as fast as the
    near side recedes. Points that moved less than half the skin keep their
    reference; the others take a new one."""
    mesh = WALK_MESHES[name]
    rng = np.random.default_rng(seed)
    v, t = mesh.vertices, mesh.triangles
    edges = t[rng.integers(0, len(t), 60)][:, :2]
    # vertices and edge midpoints tie between triangles
    p = np.concatenate([
        v,
        0.5 * (v[edges[:, 0]] + v[edges[:, 1]]),
        v[rng.integers(0, len(v), 20)] + 0.05 * rng.normal(size=(20, 3)),
        rng.uniform(-3.0, 3.0, (10, 3)),
        0.01 * rng.normal(size=(10, 3)),  # near the sphere's centre
    ])
    neighbours = NeighbourList()
    got = closest_points(mesh, p, neighbours)
    for g, w in zip(got, closest_points(mesh, p)):
        assert np.array_equal(g, w), "first"
    for step in steps:
        skin = neighbours.bvh.skin
        unit = rng.normal(size=p.shape)
        unit /= np.linalg.norm(unit, axis=1, keepdims=True)
        if step == "still":
            lengths = [np.zeros((len(p), 1))]
        elif step == "rounding":
            lengths = [10.0 ** rng.uniform(-18.0, -15.0, (len(p), 1))]
        elif step == "drift":
            unit = -p / np.linalg.norm(p, axis=1, keepdims=True)
            lengths = [skin * rng.uniform(0.02, 0.12, (len(p), 1)) for _ in range(4)]
        else:  # up to just under half the skin
            length = skin * 10.0 ** rng.uniform(-6.0, np.log10(0.49), (len(p), 1))
            if step == "past":
                far = rng.random(len(p)) < 0.5
                length[far] = skin * rng.uniform(0.5, 3.0, (far.sum(), 1))
            lengths = [length]
        for length in lengths:
            p = p + length * unit
            ref = neighbours.ref.copy()
            near = np.linalg.norm(p - ref, axis=1) < 0.5 * skin
            got = closest_points(mesh, p, neighbours)
            for g, w in zip(got, closest_points(mesh, p)):
                assert np.array_equal(g, w), step
            assert np.array_equal(neighbours.ref[near], ref[near])
            assert np.array_equal(neighbours.ref[~near], p[~near])


def test_pruned_triangle_wins_later():
    """Two equal triangles, B 0.475 above A. A point starts 0.1 above A and
    rises 0.05 per query, well inside half the skin (0.25), so no query
    after the first goes back to the trees. B is listed but cannot win at
    the first two steps, so its bound is carried; at the third step it
    wins by 0.025. Its bound must have dropped by both skipped steps, and
    must be compared with the last closest distance plus twice the step."""
    h = np.sqrt(3.0) / 2.0
    corners = [[1, 0], [-0.5, h], [-0.5, -h]]
    mesh = Mesh(
        vertices=[[x, y, 0.0] for x, y in corners] + [[x, y, 0.475] for x, y in corners],
        triangles=[[0, 1, 2], [3, 4, 5]],
    )
    neighbours = NeighbourList()
    for k, want_tri in enumerate([0, 0, 0, 1, 1]):
        p = [[0.0, 0.0, 0.1 + 0.05 * k]]
        got = closest_points(mesh, p, neighbours)
        assert np.array_equal(neighbours.ref, [[0.0, 0.0, 0.1]])  # no tree query
        assert got[2][0] == want_tri
        for g, w in zip(got, closest_points(mesh, p)):
            assert np.array_equal(g, w)


def test_neighbour_list_holds_what_the_skin_reaches():
    """Point 0.01 above a floor triangle, 0.011 below the corner of an
    upright one of the same size: the upright one's centroid lies just past
    the ball of a stateless query, but inside the skin. Moving the point
    0.0006 up, much less than half the skin, makes the upright one win."""
    h = np.sqrt(3.0) / 2.0
    mesh = Mesh(
        vertices=[[1, 0, 0], [-0.5, h, 0], [-0.5, -h, 0],
                  [0, 0, 0.021], [h, 0, 1.521], [-h, 0, 1.521]],
        triangles=[[0, 1, 2], [3, 4, 5]],
    )
    neighbours = NeighbourList()
    _, _, tris = closest_points(mesh, [[0, 0, 0.01]], neighbours)
    assert tris[0] == 0
    p = [[0, 0, 0.0106]]
    got = closest_points(mesh, p, neighbours)
    assert np.array_equal(neighbours.ref, [[0, 0, 0.01]])  # no tree query
    assert got[2][0] == 1
    for g, w in zip(got, closest_points(mesh, p)):
        assert np.array_equal(g, w)
