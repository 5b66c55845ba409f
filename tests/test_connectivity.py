import struct
import tracemalloc

import numpy as np
import pytest

from conftest import canonical_triangles
from ultron.errors import CorruptStreamError, EdgebreakerUnsupported
from ultron.mesh import CornerTable, Mesh, build_corner_table
from ultron.codec import connectivity_stats, decode_connectivity, encode_connectivity
from ultron.codec.rans import PROB_TOTAL, decode_block, write_uvarint
from ultron.synth import make_cylinder, make_icosphere, make_slab

TET = Mesh(
    vertices=[[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
    triangles=[[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]],
)


def eb_roundtrip(mesh):
    table = build_corner_table(mesh)
    assert isinstance(table, CornerTable)
    blob = encode_connectivity(table, "edgebreaker")
    decoded = decode_connectivity(blob, "edgebreaker")
    assert np.array_equal(
        canonical_triangles(decoded), canonical_triangles(mesh.triangles)
    )
    return blob, decoded


def test_single_triangle_seed_only():
    mesh = Mesh(vertices=[[0, 0, 0], [1, 0, 0], [0, 1, 0]], triangles=[[0, 1, 2]])
    blob, decoded = eb_roundtrip(mesh)
    assert len(decoded) == 1


def test_tetrahedron_isomorphic():
    blob, decoded = eb_roundtrip(TET)
    assert len(decoded) == 4
    assert len(np.unique(decoded)) == 4
    # Euler characteristic: V - E + F = 4 - 6 + 4 = 2
    edges = set()
    for tri in decoded:
        for i in range(3):
            e = (min(tri[i], tri[(i + 1) % 3]), max(tri[i], tri[(i + 1) % 3]))
            edges.add(e)
    assert 4 - len(edges) + 4 == 2


def test_sphere_rate_under_guarantee():
    sphere = make_icosphere(4)  # 5120 triangles
    blob, _ = eb_roundtrip(sphere)
    stats = connectivity_stats(blob, "edgebreaker")
    clers_bits = 8 * (stats["clers_bytes"] + stats["offset_bytes"])
    assert clers_bits / sphere.triangle_count < 2.5
    raw = encode_connectivity(sphere.triangles, "raw")
    assert len(raw) > len(blob)


@pytest.mark.parametrize("maker", [
    lambda: make_icosphere(2),
    lambda: make_cylinder(16, 9),
    lambda: make_slab(9, 6),
])
def test_shapes_roundtrip(maker):
    eb_roundtrip(maker())


def test_multi_component():
    tris = np.concatenate([TET.triangles, TET.triangles + 4])
    verts = np.concatenate([TET.vertices, TET.vertices + 10.0])
    eb_roundtrip(Mesh(vertices=verts, triangles=tris))


def test_permuted_fuzz(rng):
    base = make_icosphere(2)
    for _ in range(15):
        pv = rng.permutation(base.vertex_count)
        tris = pv[base.triangles]
        rolls = rng.integers(0, 3, len(tris))
        tris = np.stack(
            [tris[np.arange(len(tris)), (rolls + i) % 3] for i in range(3)],
            axis=1,
        )
        tris = tris[rng.permutation(len(tris))]
        inv = np.empty_like(pv)
        inv[pv] = np.arange(len(pv))
        eb_roundtrip(Mesh(vertices=base.vertices[inv], triangles=tris))


def test_boundary_fuzz(rng):
    # punch vertex-disjoint single-triangle holes: clean boundary loops
    base = make_icosphere(3)
    tested = 0
    for _ in range(10):
        order = rng.permutation(base.triangle_count)
        used = set()
        holes = []
        for t in order:
            vs = set(int(v) for v in base.triangles[t])
            if not vs & used:
                holes.append(t)
                used |= vs
            if len(holes) == 12:
                break
        keep = np.ones(base.triangle_count, dtype=bool)
        keep[holes] = False
        tris = base.triangles[keep]
        mesh = Mesh(vertices=base.vertices, triangles=tris)
        table = build_corner_table(mesh)
        assert isinstance(table, CornerTable)
        blob = encode_connectivity(table, "edgebreaker")
        decoded = decode_connectivity(blob, "edgebreaker")
        assert np.array_equal(
            canonical_triangles(decoded), canonical_triangles(tris)
        )
        tested += 1
    assert tested == 10


def test_torus_rejected():
    nu, nv = 12, 8
    verts = []
    for i in range(nu):
        for j in range(nv):
            u, v = 2 * np.pi * i / nu, 2 * np.pi * j / nv
            verts.append([
                (2 + np.cos(v)) * np.cos(u),
                (2 + np.cos(v)) * np.sin(u),
                np.sin(v),
            ])
    tris = []
    for i in range(nu):
        for j in range(nv):
            a = i * nv + j
            b = ((i + 1) % nu) * nv + j
            c = i * nv + (j + 1) % nv
            d = ((i + 1) % nu) * nv + (j + 1) % nv
            tris += [[a, b, d], [a, d, c]]
    torus = Mesh(vertices=np.asarray(verts), triangles=np.asarray(tris))
    table = build_corner_table(torus)
    assert isinstance(table, CornerTable)
    with pytest.raises(EdgebreakerUnsupported):
        encode_connectivity(table, "edgebreaker")
    # raw fallback is exact
    raw = encode_connectivity(torus.triangles, "raw")
    assert np.array_equal(decode_connectivity(raw, "raw"), torus.triangles)


def test_raw_roundtrip_bit_exact(rng):
    for _ in range(20):
        n = int(rng.integers(4, 5000))
        tris = rng.integers(0, n, (int(rng.integers(1, 400)), 3)).astype(np.int32)
        ok = (
            (tris[:, 0] != tris[:, 1])
            & (tris[:, 1] != tris[:, 2])
            & (tris[:, 0] != tris[:, 2])
        )
        tris = tris[ok]
        if len(tris) == 0:
            continue
        blob = encode_connectivity(tris, "raw")
        assert np.array_equal(decode_connectivity(blob, "raw"), tris)


def test_corrupt_streams_raise(rng):
    blob = bytearray(encode_connectivity(build_corner_table(TET), "edgebreaker"))
    import random

    random.seed(3)
    for _ in range(400):
        b = bytearray(blob)
        b[random.randrange(len(b))] ^= 1 << random.randrange(8)
        try:
            decode_connectivity(bytes(b), "edgebreaker")
        except CorruptStreamError:
            pass
        # decoding to a *different but structurally valid* mesh is possible
        # for symbol-level corruption; crashes are not


def _tet_blob_parts():
    """Split the tetrahedron's Edgebreaker blob into header, CLERS, rest."""
    blob = encode_connectivity(build_corner_table(TET), "edgebreaker")
    _, clers_end = decode_block(blob, 12)
    return blob[:12], blob[12:clers_end], blob[clers_end:]


def _refused_without_large_allocation(blob, mode="edgebreaker"):
    tracemalloc.start()
    try:
        with pytest.raises(CorruptStreamError):
            decode_connectivity(blob, mode)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_huge_triangle_count_refused():
    head, clers, rest = _tet_blob_parts()
    _, n_real, n_closed = struct.unpack("<III", head)
    huge = struct.pack("<III", 0xFFFFFFFF, n_real, n_closed)
    _refused_without_large_allocation(huge + clers + rest)
    # a triangle count the blob could hold but its CLERS stream does not give
    assert struct.unpack_from("<I", head)[0] == 4
    wrong = struct.pack("<III", 5, n_real, n_closed)
    _refused_without_large_allocation(wrong + clers + rest)


def test_huge_clers_count_refused():
    head, _, rest = _tet_blob_parts()
    # one-symbol alphabet: no payload, so any count fits in four bytes
    block = (
        write_uvarint(1 << 40) + write_uvarint(1)
        + write_uvarint(PROB_TOTAL) + write_uvarint(0)
    )
    _refused_without_large_allocation(head + block + rest)


def test_huge_split_offset_count_refused():
    head, clers, _ = _tet_blob_parts()
    offsets = write_uvarint(1 << 40) + bytes(16)
    _refused_without_large_allocation(head + clers + offsets)


def test_huge_raw_plane_count_refused():
    # four triangles, one byte plane: the plane must hold 12 symbols
    head = struct.pack("<IB", 4, 1)
    # one-symbol alphabet: no payload, so any count fits in four bytes
    block = (
        write_uvarint(1 << 40) + write_uvarint(1)
        + write_uvarint(PROB_TOTAL) + write_uvarint(0)
    )
    _refused_without_large_allocation(head + block, mode="raw")


def test_raw_plane_count_out_of_range_refused():
    # a raw header that declares triangles but no byte planes, or more
    # planes than a 64-bit index needs
    for nplanes in (0, 9):
        with pytest.raises(CorruptStreamError, match="plane count"):
            decode_connectivity(struct.pack("<IB", 4, nplanes), "raw")
