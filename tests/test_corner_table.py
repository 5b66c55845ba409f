import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultron.mesh import (
    BOUNDARY,
    CornerTable,
    Mesh,
    NonManifoldReport,
    build_corner_table,
)
from ultron.synth import make_icosphere, make_slab

TET = Mesh(
    vertices=[[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
    triangles=[[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]],
)


def brute_force_opposites(triangles):
    """Independent edge-matching oracle for the O table."""
    tris = np.asarray(triangles)
    m = len(tris)
    opp = {}
    table = {}
    for c in range(3 * m):
        t, k = divmod(c, 3)
        edge = (tris[t][(k + 1) % 3], tris[t][(k + 2) % 3])
        table[edge] = c
    for edge, c in table.items():
        rev = (edge[1], edge[0])
        opp[c] = table.get(rev, BOUNDARY)
    return opp


def brute_force_report(triangles, vertex_count):
    """Independent oracle for the NonManifoldReport: (edges, vertices).

    Edges are counted per undirected and per directed edge; a vertex is
    pinched when its triangles, joined wherever two share an edge through
    the vertex, form more than one group.
    """
    tris = [tuple(int(v) for v in t) for t in triangles]
    directed, undirected = {}, {}
    for t in tris:
        for k in range(3):
            a, b = t[k], t[(k + 1) % 3]
            directed[(a, b)] = directed.get((a, b), 0) + 1
            und = (min(a, b), max(a, b))
            undirected[und] = undirected.get(und, 0) + 1
    bad = {}
    for (a, b), cnt in directed.items():
        if cnt > 1:
            bad[(min(a, b), max(a, b))] = "inconsistent-orientation"
    for und, cnt in undirected.items():
        if cnt > 2:
            bad[und] = f"{cnt} incident triangles"
    if bad:
        return sorted(bad.items()), []
    pinched = []
    for v in range(vertex_count):
        around = [set(t) - {v} for t in tris if v in t]
        group = list(range(len(around)))
        for i in range(len(around)):
            for j in range(i):
                if around[i] & around[j]:
                    gi, gj = group[i], group[j]
                    group = [gj if g == gi else g for g in group]
        if len(set(group)) > 1:
            pinched.append(v)
    return [], pinched


def test_single_triangle_all_boundary():
    mesh = Mesh(vertices=[[0, 0, 0], [1, 0, 0], [0, 1, 0]], triangles=[[0, 1, 2]])
    table = build_corner_table(mesh)
    assert isinstance(table, CornerTable)
    assert len(table.V) == 3
    assert np.all(table.O == BOUNDARY)


def test_tetrahedron_total_involution():
    table = build_corner_table(TET)
    assert isinstance(table, CornerTable)
    assert np.all(table.O >= 0)
    assert np.array_equal(table.O[table.O], np.arange(12))
    oracle = brute_force_opposites(TET.triangles)
    for c in range(12):
        assert table.O[c] == oracle[c]


def test_opposite_corners_share_edge(sphere_162):
    table = build_corner_table(sphere_162)
    V, O = table.V, table.O
    nc = len(V)
    nxt = np.array([c - 2 if c % 3 == 2 else c + 1 for c in range(nc)])
    prv = np.array([c + 2 if c % 3 == 0 else c - 1 for c in range(nc)])
    inner = O >= 0
    # the shared edge's endpoints must match, reversed, across the pair
    assert np.all(V[nxt[inner]] == V[prv[O[inner]]])
    assert np.all(V[prv[inner]] == V[nxt[O[inner]]])
    assert np.array_equal(O[O[inner]], np.flatnonzero(inner))


def test_inconsistent_orientation_reported():
    mesh = Mesh(
        vertices=[[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]],
        triangles=[[0, 1, 2], [0, 1, 3]],  # both traverse edge 0->1
    )
    report = build_corner_table(mesh)
    assert isinstance(report, NonManifoldReport)
    assert ((0, 1), "inconsistent-orientation") in report.edges


def test_over_shared_edge_reported():
    mesh = Mesh(
        vertices=[[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]],
        triangles=[[0, 1, 2], [1, 0, 3], [0, 1, 4]],
    )
    report = build_corner_table(mesh)
    assert isinstance(report, NonManifoldReport)
    assert any(edge == (0, 1) for edge, _why in report.edges)


def test_pinched_vertex_reported():
    # two fans sharing only vertex 0 (a bowtie)
    mesh = Mesh(
        vertices=[
            [0, 0, 0],
            [1, 0, 0], [1, 1, 0], [0, 1, 0],
            [-1, 0, 0], [-1, -1, 0], [0, -1, 0],
        ],
        triangles=[[0, 1, 2], [0, 2, 3], [0, 4, 5], [0, 5, 6]],
    )
    report = build_corner_table(mesh)
    assert isinstance(report, NonManifoldReport)
    assert 0 in report.vertices


def test_pinched_vertex_between_closed_fans():
    # two tetrahedra sharing only vertex 0: every corner has an opposite,
    # so only the fans tell that vertex 0 is pinched
    second = np.where(TET.triangles > 0, TET.triangles + 3, 0)
    tris = np.concatenate([TET.triangles, second])
    verts = np.concatenate([TET.vertices, TET.vertices[1:] - 1.0])
    mesh = Mesh(vertices=verts, triangles=tris)
    report = build_corner_table(mesh)
    assert isinstance(report, NonManifoldReport)
    assert report.edges == []
    assert report.vertices == [0]
    assert brute_force_report(tris, mesh.vertex_count) == ([], [0])


SUBSET_SOURCES = [make_icosphere(1), make_slab(5, 4)]


@given(
    source=st.sampled_from(range(len(SUBSET_SOURCES))),
    drop=st.one_of(st.integers(0, 3), st.integers(0, 60)),
    flip=st.integers(0, 2),
    dup=st.integers(0, 1),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=80, deadline=None)
def test_matches_brute_force(source, drop, flip, dup, seed):
    """Random triangle subsets, some flipped or duplicated: the table, or
    the full report, equals the brute-force oracles."""
    base = SUBSET_SOURCES[source]
    rng = np.random.default_rng(seed)
    tris = base.triangles[rng.permutation(base.triangle_count)[drop:]]
    tris[:flip] = tris[:flip, ::-1]
    tris = np.concatenate([tris, tris[len(tris) - dup:]])
    tris = tris[rng.permutation(len(tris))]
    if len(tris) == 0:
        return
    mesh = Mesh(vertices=base.vertices, triangles=tris)
    result = build_corner_table(mesh)
    edges, vertices = brute_force_report(tris, mesh.vertex_count)
    if edges or vertices:
        assert isinstance(result, NonManifoldReport)
        assert result.edges == edges
        assert result.vertices == vertices
        return
    assert isinstance(result, CornerTable)
    oracle = brute_force_opposites(tris)
    assert result.O.tolist() == [oracle[c] for c in range(3 * len(tris))]


@pytest.mark.parametrize("fixture", ["sphere_162", "cylinder_mesh", "slab_mesh"])
def test_edge_count_identity(fixture, request):
    mesh = request.getfixturevalue(fixture)
    table = build_corner_table(mesh)
    assert isinstance(table, CornerTable)
    boundary = table.boundary_corner_count()
    interior_half_edges = table.corner_count - boundary
    # distinct edges = interior half-edge pairs + boundary edges
    assert len(mesh.edges()) == interior_half_edges // 2 + boundary


def test_closed_sphere_no_boundary(sphere_162):
    table = build_corner_table(sphere_162)
    assert table.boundary_corner_count() == 0
    # Euler characteristic of a sphere
    v = sphere_162.vertex_count
    e = len(sphere_162.edges())
    f = sphere_162.triangle_count
    assert v - e + f == 2


def test_count_outranks_orientation_in_the_report():
    # edge 0-1 is traversed 0 -> 1 twice; edge 4-5 has three triangles, two
    # of them traversing 4 -> 5: its count is the reason given
    tris = [[0, 1, 2], [0, 1, 3], [4, 5, 6], [4, 5, 7], [5, 4, 8]]
    mesh = Mesh(vertices=np.zeros((9, 3)), triangles=tris)
    report = build_corner_table(mesh)
    assert isinstance(report, NonManifoldReport)
    assert report.edges == [
        ((0, 1), "inconsistent-orientation"),
        ((4, 5), "3 incident triangles"),
    ]
    assert report.vertices == []
    assert brute_force_report(tris, 9) == (report.edges, [])


def test_large_shuffled_subset_matches_brute_force():
    """20,480 triangles in shuffled order, cut into two caps with one flipped
    and small holes punched in the other: O equals the oracle's."""
    base = make_icosphere(5)
    tris = base.triangles[np.random.default_rng(7).permutation(base.triangle_count)]
    z = base.vertices[:, 2][tris]
    keep = np.all(np.abs(z) >= 0.1, axis=1)
    # vertex-disjoint single-triangle holes, away from the cut
    used = set()
    for t in np.flatnonzero(np.all(z > 0.3, axis=1))[:400].tolist():
        if used.isdisjoint(tris[t].tolist()):
            used.update(tris[t].tolist())
            keep[t] = False
    lower = np.all(z < 0, axis=1)
    tris = np.where(lower[:, None], tris[:, ::-1], tris)[keep]
    assert np.count_nonzero(lower[keep]) > 5000 and len(used) > 30
    table = build_corner_table(Mesh(vertices=base.vertices, triangles=tris))
    assert isinstance(table, CornerTable)
    assert table.boundary_corner_count() > 0
    oracle = brute_force_opposites(tris)
    assert table.O.tolist() == [oracle[c] for c in range(3 * len(tris))]


def test_zero_triangles_give_an_empty_table():
    table = build_corner_table(
        Mesh(vertices=TET.vertices, triangles=np.zeros((0, 3), dtype=np.int32))
    )
    assert isinstance(table, CornerTable)
    assert table.corner_count == 0 and table.vertex_count == 4
    assert table.V.dtype == np.int32 and table.O.dtype == np.int32
