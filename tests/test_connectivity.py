import hashlib
import struct
import tracemalloc

import numpy as np
import pytest

from conftest import canonical_triangles
from ultron.errors import CorruptStreamError, EdgebreakerUnsupported
from ultron.mesh import CornerTable, Mesh, build_corner_table
from ultron.codec import decode_connectivity, encode_connectivity
from ultron.codec.connectivity import (MODE_EDGEBREAKER, MODE_RAW, C, S,
                                       pack_bits, unpack_bits)
from ultron.codec.rans import (
    PROB_TOTAL,
    decode_block,
    encode_block,
    read_uvarint,
    write_uvarint,
)
from ultron.synth import make_cylinder, make_icosphere, make_slab

TET = Mesh(
    vertices=[[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
    triangles=[[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]],
)


def decode_whole(blob, mode, vertex_count):
    """Decode a blob that must end where the bytes do."""
    tris, end = decode_connectivity(blob, 0, mode, vertex_count)
    assert end == len(blob)
    return tris


def eb_fields(blob):
    """An Edgebreaker blob's n_closed, seed count, CLERS symbols and split
    offsets, with the offsets where its split offsets and its permutation
    start."""
    m, n_closed = struct.unpack_from("<II", blob)
    seeds, offset = read_uvarint(blob, 8)
    clers, splits_at = decode_block(blob, offset, m - seeds)
    clers = clers.tolist()
    offsets, perm_at = [], splits_at
    for _ in range(clers.count(S)):
        steps, perm_at = read_uvarint(blob, perm_at)
        offsets.append(steps)
    return dict(n_closed=n_closed, seeds=seeds, clers=clers, offsets=offsets,
                splits_at=splits_at, perm_at=perm_at)


def eb_blob(seeds, symbols, offsets, perm, n_closed):
    """The Edgebreaker blob of these fields; m is seeds plus symbols."""
    return b"".join([
        struct.pack("<II", len(symbols) + seeds, n_closed), write_uvarint(seeds),
        encode_block(np.asarray(symbols, dtype=np.int64)),
        *map(write_uvarint, offsets),
        pack_bits(np.asarray(perm, dtype=np.int64), (n_closed - 1).bit_length()),
    ])


def eb_roundtrip(mesh):
    table = build_corner_table(mesh)
    assert isinstance(table, CornerTable)
    blob = encode_connectivity(table, MODE_EDGEBREAKER)
    decoded = decode_whole(blob, MODE_EDGEBREAKER, mesh.vertex_count)
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
    # the seed count and the CLERS block after the 8-byte header, then the
    # split offsets
    clers_bits = 8 * (eb_fields(blob)["perm_at"] - 8)
    assert clers_bits / sphere.triangle_count < 2.5
    raw = encode_connectivity(sphere.triangles, MODE_RAW)
    assert len(raw) > len(blob)


@pytest.mark.parametrize("maker", [
    lambda: make_icosphere(2),
    lambda: make_cylinder(16, 9),
    lambda: make_slab(9, 6),
])
def test_shapes_roundtrip(maker):
    eb_roundtrip(maker())


def _slab_and_sphere():
    a, b = make_slab(5, 4), make_icosphere(1)
    return Mesh(
        vertices=np.concatenate([a.vertices, b.vertices + 3.0]),
        triangles=np.concatenate([a.triangles, b.triangles + a.vertex_count]),
    )


def _icosphere5_permuted():
    """20,480 triangles in shuffled order: 29 S, 21 L and 30 E symbols."""
    base = make_icosphere(5)
    order = np.random.default_rng(7).permutation(base.triangle_count)
    return Mesh(vertices=base.vertices, triangles=base.triangles[order])


# SHA-256 of each Edgebreaker blob; a change here is a change of format
PINNED_BLOBS = [
    (lambda: make_icosphere(3),
     "764d7cda0e1dcac9e6eef6408903f63dd12cb453f9e470cb87247de98b828a81"),
    (lambda: make_icosphere(5),
     "717199bf7265136f62336bc242ec6f31c0aadf3d66810df46eb2077d63e8537d"),
    (_icosphere5_permuted,
     "1ca5609fdd34dd34c83cf935490c008d3ec7f77f3ab888261cb9d5f226e41bf2"),
    (make_cylinder,
     "9efe8f80b258c1f38efd9efbe8aca190798696ee0790071cdbbbdb516f5eb669"),
    (make_slab,
     "15022b73a67b024d45b6564c9b197b1e526072653aa12a36ee90eecb350ee131"),
    (_slab_and_sphere,
     "8898e752d0b25592b966c104108d5a9ed2a695661e5bf81e0cac5976b070e0e2"),
]


@pytest.mark.parametrize("maker,digest", PINNED_BLOBS,
                         ids=["icosphere3", "icosphere5", "icosphere5_permuted",
                              "cylinder", "slab", "two_components"])
def test_edgebreaker_bytes_pinned(maker, digest):
    blob = encode_connectivity(build_corner_table(maker()), MODE_EDGEBREAKER)
    assert hashlib.sha256(blob).hexdigest() == digest


def test_multi_component():
    tris = np.concatenate([TET.triangles, TET.triangles + 4])
    verts = np.concatenate([TET.vertices, TET.vertices + 10.0])
    eb_roundtrip(Mesh(vertices=verts, triangles=tris))


def shuffled(mesh, rng):
    """The same mesh with shuffled vertex ids, corner rotations and
    triangle order."""
    pv = rng.permutation(mesh.vertex_count)
    tris = pv[mesh.triangles]
    rolls = rng.integers(0, 3, len(tris))
    tris = np.stack(
        [tris[np.arange(len(tris)), (rolls + i) % 3] for i in range(3)],
        axis=1,
    )
    tris = tris[rng.permutation(len(tris))]
    inv = np.empty_like(pv)
    inv[pv] = np.arange(len(pv))
    return Mesh(vertices=mesh.vertices[inv], triangles=tris)


def test_permuted_fuzz(rng):
    base = make_icosphere(2)
    for _ in range(15):
        eb_roundtrip(shuffled(base, rng))


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
        blob = encode_connectivity(table, MODE_EDGEBREAKER)
        decoded = decode_whole(blob, MODE_EDGEBREAKER, mesh.vertex_count)
        assert np.array_equal(
            canonical_triangles(decoded), canonical_triangles(tris)
        )
        tested += 1
    assert tested == 10


def make_torus():
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
    return Mesh(vertices=np.asarray(verts), triangles=np.asarray(tris))


def _torus_and_sphere():
    a, b = make_torus(), make_icosphere(1)
    return Mesh(
        vertices=np.concatenate([a.vertices, b.vertices + 5.0]),
        triangles=np.concatenate([a.triangles, b.triangles + a.vertex_count]),
    )


@pytest.mark.parametrize("maker", [
    make_torus,
    lambda: shuffled(make_torus(), np.random.default_rng(7)),
    _torus_and_sphere,
], ids=["grid", "shuffled", "with_sphere"])
def test_torus_rejected(maker):
    torus = maker()
    table = build_corner_table(torus)
    assert isinstance(table, CornerTable)
    with pytest.raises(EdgebreakerUnsupported):
        encode_connectivity(table, MODE_EDGEBREAKER)
    # raw fallback is exact
    raw = encode_connectivity(torus.triangles, MODE_RAW)
    assert np.array_equal(decode_whole(raw, MODE_RAW, torus.vertex_count),
                          torus.triangles)


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
        blob = encode_connectivity(tris, MODE_RAW)
        assert np.array_equal(decode_whole(blob, MODE_RAW, n), tris)


def test_corrupt_streams_raise(rng):
    blob = bytearray(encode_connectivity(build_corner_table(TET), MODE_EDGEBREAKER))
    import random

    random.seed(3)
    for _ in range(400):
        b = bytearray(blob)
        b[random.randrange(len(b))] ^= 1 << random.randrange(8)
        try:
            decode_connectivity(bytes(b), 0, MODE_EDGEBREAKER, 4)
        except CorruptStreamError:
            pass
        # decoding to a *different but structurally valid* mesh is possible
        # for symbol-level corruption; crashes are not


def _symbol_mutations(symbols):
    """Every single-symbol substitution, deletion and duplication."""
    for i, sym in enumerate(symbols):
        for other in range(5):
            if other != sym:
                yield symbols[:i] + [other] + symbols[i + 1:]
        yield symbols[:i] + symbols[i + 1:]
        yield symbols[:i + 1] + symbols[i:]


def _blob_with_symbols(blob, symbols):
    """blob's Edgebreaker stream with its CLERS symbols replaced.

    The triangle count, split offsets and permutation are resized to agree
    with the new symbols (the original offsets and ids, cut or padded), and
    the vertex count grown to hold the permutation, so the count checks
    pass and the conquest itself must judge the symbols.
    """
    f = eb_fields(blob)
    seeds, n_closed = f["seeds"], f["n_closed"]
    n_perm = 3 * seeds + f["clers"].count(C)
    perm = list(unpack_bits(blob[f["perm_at"]:], n_perm,
                            (n_closed - 1).bit_length()))
    n_split = symbols.count(S)
    offsets = (f["offsets"] + [2] * n_split)[:n_split]
    n_perm = 3 * seeds + symbols.count(C)
    perm = (perm + [0] * n_perm)[:n_perm]
    return eb_blob(seeds, symbols, offsets, perm, max(n_closed, n_perm))


def test_mutated_symbols_decode_or_raise():
    slab = make_slab(5, 4)
    blob = encode_connectivity(build_corner_table(slab), MODE_EDGEBREAKER)
    symbols = eb_fields(blob)["clers"]
    # the slab's CLERS string uses every symbol and splits twice
    assert set(symbols) == set(range(5)) and symbols.count(S) == 2
    assert _blob_with_symbols(blob, symbols) == blob
    outcomes = {"decoded": 0, "refused": 0}
    for mutated in _symbol_mutations(symbols):
        try:
            tris, _ = decode_connectivity(
                _blob_with_symbols(blob, mutated), 0, MODE_EDGEBREAKER,
                slab.vertex_count
            )
        except CorruptStreamError:
            outcomes["refused"] += 1
            continue
        outcomes["decoded"] += 1
        assert tris.dtype == np.int32 and tris.ndim == 2
        assert tris.shape[1] == 3
        assert tris.size == 0 or 0 <= tris.min() <= tris.max() < slab.vertex_count
    assert outcomes["decoded"] and outcomes["refused"]


def _tet_blob_parts():
    """Split the tetrahedron's Edgebreaker blob into the 8-byte header, the
    seed count and CLERS block, and the rest."""
    blob = encode_connectivity(build_corner_table(TET), MODE_EDGEBREAKER)
    clers_end = eb_fields(blob)["splits_at"]
    return blob[:8], blob[8:clers_end], blob[clers_end:]


def _refused_without_large_allocation(blob, mode=MODE_EDGEBREAKER, match=None,
                                      vertex_count=4):
    tracemalloc.start()
    try:
        with pytest.raises(CorruptStreamError, match=match):
            decode_connectivity(blob, 0, mode, vertex_count)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_huge_triangle_count_refused():
    head, clers, rest = _tet_blob_parts()
    _, n_closed = struct.unpack("<II", head)
    huge = struct.pack("<II", 0xFFFFFFFF, n_closed)
    _refused_without_large_allocation(huge + clers + rest)
    # a triangle count the blob could hold but its CLERS stream does not give
    assert struct.unpack_from("<I", head)[0] == 4
    wrong = struct.pack("<II", 5, n_closed)
    _refused_without_large_allocation(wrong + clers + rest)


def test_connectivity_stats_refuses_hostile_bytes():
    head, _, rest = _tet_blob_parts()
    # one seed, then a one-symbol alphabet with no payload: three C
    # symbols, which need 3 + 3 permutation entries for 4 vertices
    block = (
        write_uvarint(1) + write_uvarint(1)
        + write_uvarint(PROB_TOTAL) + write_uvarint(0)
    )
    for blob in (head + block, head + block + rest, b"\x04\x00"):
        _refused_without_large_allocation(blob)


def test_huge_split_offset_refused():
    # a split offset past int64: the walk wraps the loop, nothing overflows
    slab = make_slab(5, 4)
    blob = encode_connectivity(build_corner_table(slab), MODE_EDGEBREAKER)
    f = eb_fields(blob)
    assert len(f["offsets"]) == 2
    offset = f["splits_at"]
    _, end = read_uvarint(blob, offset)
    huge = blob[:offset] + write_uvarint((1 << 64) - 1) + blob[end:]
    # the header and the offset parse; the walk refuses the offset
    _refused_without_large_allocation(huge, match="split offset wraps the loop",
                                      vertex_count=slab.vertex_count)


def test_huge_raw_plane_count_refused():
    # 2**32 - 1 triangles, one byte plane: the plane holds 3 * (2**32 - 1)
    # symbols on 12,582,911 lanes, whose final states its four-byte
    # payload cannot hold
    head = struct.pack("<IB", 0xFFFFFFFF, 1)
    block = (
        write_uvarint(2) + 2 * write_uvarint(PROB_TOTAL // 2)
        + write_uvarint(4) + bytes(4)
    )
    _refused_without_large_allocation(head + block, mode=MODE_RAW,
                                      match="invalid length")


def test_raw_plane_count_out_of_range_refused():
    # a raw header that declares triangles but no byte planes, or more
    # planes than a 64-bit index needs
    for nplanes in (0, 9):
        with pytest.raises(CorruptStreamError, match="plane count"):
            decode_connectivity(struct.pack("<IB", 4, nplanes), 0, MODE_RAW, 4)
