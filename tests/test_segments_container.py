import hashlib
import random
import struct
import tracemalloc

import numpy as np
import pytest

from conftest import canonical_triangles
from ultron.errors import ContainerError, CorruptStreamError
from ultron.mesh import Aabb, Mesh, vertex_normals
from ultron.pipeline import Segment
from ultron.codec import (
    FLAG_NORMALS,
    FLAG_STORED_NORMALS,
    VERSION,
    QuantizationParams,
    container_frames,
    decode_container,
    decode_segment,
    encode_container,
    encode_segment,
    half_step,
    quantize_array,
    segment_flags,
    widen_to_f32,
)
from ultron.codec import rans
from ultron.codec.connectivity import (MODE_EDGEBREAKER, MODE_PREVIOUS, MODE_RAW,
                                       C, E, S, decode_connectivity,
                                       encode_connectivity, pack_bits)
from ultron.codec.rans import PROB_TOTAL, encode_block, read_block, write_uvarint
from ultron.codec.segments import _HEADER
from ultron.synth import SynthConfig, make_icosphere, synth_frames


def moving_segment(rng, n_frames=10, subdiv=2, with_attrs=True, step=0.002):
    base = make_icosphere(subdiv)
    n = base.vertex_count
    key = Mesh(
        vertices=base.vertices,
        triangles=base.triangles,
        colors=rng.random((n, 3)) if with_attrs else None,
        uvs=rng.random((n, 2)) if with_attrs else None,
    )
    frames = np.stack([
        base.vertices + np.array([step, 0, 0]) * k for k in range(n_frames)
    ])
    return Segment(key=key, frames=frames, frame_ids=tuple(range(n_frames)))


def test_single_frame_segment_roundtrip(rng):
    seg = moving_segment(rng, n_frames=1)
    qp = QuantizationParams()
    blob = encode_segment(seg, qp)
    dec, end = decode_segment(blob, segment_flags(seg))
    assert end == len(blob)
    grid = widen_to_f32(Aabb.of_points(seg.frames.reshape(-1, 3)))
    bound = half_step(grid, qp.qp)
    assert np.all(np.abs(dec.frames[0] - seg.frames[0]) <= bound + 1e-15)
    assert np.array_equal(
        canonical_triangles(dec.key.triangles),
        canonical_triangles(seg.key.triangles),
    )


def test_quantized_positions_bit_exact(rng):
    seg = moving_segment(rng)
    qp = QuantizationParams()
    dec, _ = decode_segment(encode_segment(seg, qp), segment_flags(seg))
    grid = widen_to_f32(Aabb.of_points(seg.frames.reshape(-1, 3)))
    for k in range(seg.frame_count):
        q_orig = quantize_array(seg.frames[k], grid.min, grid.max, qp.qp)
        q_back = quantize_array(dec.frames[k], grid.min, grid.max, qp.qp)
        assert np.array_equal(q_orig, q_back)


def _connectivity_end(blob):
    """End offset of the connectivity blob of a segment that carries one."""
    head = _HEADER.unpack_from(blob)
    return decode_connectivity(blob, _HEADER.size, head[-1], head[1])[1]


def _blocks(blob):
    """(start, end) of each entropy block after the connectivity of a
    segment whose streams all have three values per vertex (positions,
    colors, normals): every block holds 3 x vertex-count symbols."""
    offset = _connectivity_end(blob)
    count = 3 * _HEADER.unpack_from(blob)[1]
    spans = []
    while offset < len(blob):
        start = offset
        _, offset = read_block(blob, offset, count)
        spans.append((start, offset))
    return spans


def _position_payload(blob, frame_count):
    """Total and per-frame sizes of the position frames of a 10-bit segment
    without prediction: two byte planes per frame."""
    spans = _blocks(blob)
    sizes = [spans[2 * k + 1][1] - spans[2 * k][0] for k in range(frame_count)]
    return sum(sizes), sizes


def test_static_segment_position_payload_near_one_frame(rng):
    # all-zero delta streams compress to (nearly) nothing
    base = moving_segment(rng, n_frames=1, subdiv=4, with_attrs=False)
    static = Segment(
        key=base.key,
        frames=np.repeat(base.frames[:1], 20, axis=0),
        frame_ids=tuple(range(20)),
    )
    b20 = encode_segment(static, QuantizationParams())
    b1 = encode_segment(base, QuantizationParams())
    pos20, deltas = _position_payload(b20, 20)
    pos1, _ = _position_payload(b1, 1)
    assert pos20 < 1.1 * pos1
    # the delta streams themselves are all-zero symbols: table-only blocks
    assert all(size < 32 for size in deltas[1:])


def test_smooth_motion_deltas_are_cheap(rng):
    # motion below one lattice step per frame
    seg = moving_segment(rng, n_frames=20, step=0.0015, with_attrs=False)
    blob = encode_segment(seg, QuantizationParams())
    _, sizes = _position_payload(blob, 20)
    assert np.mean(sizes[1:]) < 0.15 * sizes[0]


def _separate_cost(seg, qp):
    total = 0
    for k in range(seg.frame_count):
        one = Segment(
            key=seg.key.with_vertices(seg.frames[k]),
            frames=seg.frames[k:k + 1],
            frame_ids=(seg.frame_ids[k],),
        )
        total += len(encode_segment(one, qp))
    return total


def test_temporal_beats_per_frame_coding(rng):
    seg = moving_segment(rng, n_frames=10, with_attrs=False)
    qp = QuantizationParams()
    joint = len(encode_segment(seg, qp))
    assert joint < _separate_cost(seg, qp)


def test_segment_dominance_even_under_violent_motion(rng):
    # temporal coding must never lose to per-frame coding for >= 2 frames,
    # even when deltas carry as much entropy as absolute positions
    base = make_icosphere(2)
    qp = QuantizationParams()
    for n_frames in (2, 3, 7):
        frames = np.stack([
            base.vertices + rng.normal(scale=0.5, size=base.vertices.shape)
            for _ in range(n_frames)
        ])
        frames[0] = base.vertices
        seg = Segment(
            key=base, frames=frames, frame_ids=tuple(range(n_frames))
        )
        joint = len(encode_segment(seg, qp))
        assert joint < _separate_cost(seg, qp)


def test_stored_normals_roundtrip(rng):
    base = make_icosphere(2)
    frames = np.stack([
        base.vertices * (1.0 + 0.01 * k) for k in range(5)
    ])
    normals = np.stack([
        vertex_normals(Mesh(vertices=f, triangles=base.triangles))
        for f in frames
    ])
    seg = Segment(
        key=Mesh(vertices=frames[0], triangles=base.triangles,
                 normals=normals[0]),
        frames=frames, frame_ids=tuple(range(5)), normal_frames=normals,
    )
    qp = QuantizationParams()
    dec, _ = decode_segment(encode_segment(seg, qp), segment_flags(seg))
    assert dec.normal_frames is not None
    bound = 2.0 / ((1 << qp.qn) - 1)
    assert np.abs(dec.normal_frames - normals).max() <= bound / 2 + 1e-12


def test_recomputed_normals_container():
    # the key carries normals, the segment no normal_frames: the container
    # flags normals without storing them, and decoding recomputes them
    base = make_icosphere(2)
    frames = np.stack([base.vertices * (1.0 + 0.01 * k) for k in range(3)])
    key = Mesh(vertices=frames[0], triangles=base.triangles,
               normals=vertex_normals(base))
    seg = Segment(key=key, frames=frames, frame_ids=(0, 1, 2))
    (dec,), flags = decode_container(encode_container([seg]))
    assert flags & FLAG_NORMALS and not flags & FLAG_STORED_NORMALS
    assert dec.normal_frames is None
    meshes = list(container_frames([dec], flags))
    assert len(meshes) == 3
    for k, mesh in enumerate(meshes):
        assert np.array_equal(mesh.normals, vertex_normals(dec.frame_mesh(k)))
        assert dec.frame_mesh(k).normals is None


def test_stored_normals_container(rng):
    # stored normals come back frame by frame as decoded, not recomputed
    seg = normals_segment(rng, 3)
    (dec,), flags = decode_container(encode_container([seg]))
    assert flags & FLAG_NORMALS and flags & FLAG_STORED_NORMALS
    meshes = list(container_frames([dec], flags))
    assert len(meshes) == 3
    for k, mesh in enumerate(meshes):
        assert np.array_equal(mesh.normals, dec.normal_frames[k])
        assert not np.array_equal(mesh.normals, vertex_normals(mesh))
        assert np.array_equal(mesh.vertices, dec.frames[k])
        assert np.array_equal(mesh.colors, dec.key.colors)
        assert np.array_equal(mesh.uvs, dec.key.uvs)


def test_color_fidelity(rng):
    seg = moving_segment(rng, n_frames=3)
    dec, _ = decode_segment(
        encode_segment(seg, QuantizationParams()), segment_flags(seg)
    )
    assert np.abs(dec.key.colors - seg.key.colors).max() <= 0.5 / 255 + 1e-12
    assert np.abs(dec.key.uvs - seg.key.uvs).max() <= 0.5 / ((1 << 11) - 1) + 1e-12


def test_container_roundtrip_multiple_segments(rng):
    segs = [moving_segment(rng, n_frames=4)]
    second = moving_segment(rng, n_frames=3)
    segs.append(Segment(
        key=second.key, frames=second.frames, frame_ids=(4, 5, 6),
    ))
    data = encode_container(segs, QuantizationParams())
    back, flags = decode_container(data)
    assert [s.frame_ids for s in back] == [(0, 1, 2, 3), (4, 5, 6)]


def test_empty_container_is_twelve_bytes():
    data = encode_container([], QuantizationParams())
    assert len(data) == 12
    segs, _flags = decode_container(data)
    assert segs == []


def test_trailing_garbage_rejected(rng):
    data = encode_container([moving_segment(rng, 2)], QuantizationParams())
    with pytest.raises(ContainerError):
        decode_container(data + b"\x00")


def test_bad_magic_and_version(rng):
    data = bytearray(encode_container([moving_segment(rng, 2)],
                                      QuantizationParams()))
    bad_magic = bytes(b"XLTR" + data[4:])
    with pytest.raises(ContainerError, match="magic"):
        decode_container(bad_magic)
    for version in (1, 2, 3, 4, 5, 6, VERSION + 1):
        bad_version = bytes(data[:4] + struct.pack("<H", version) + data[6:])
        with pytest.raises(ContainerError, match="version"):
            decode_container(bad_version)


def test_every_header_byte_corruption_detected(rng):
    data = encode_container([moving_segment(rng, 3)], QuantizationParams())
    for i in range(12):
        corrupted = bytearray(data)
        corrupted[i] ^= 0xFF
        with pytest.raises(ContainerError):
            decode_container(bytes(corrupted))


def test_header_bit_flips_never_crash_or_corrupt_geometry(rng):
    data = encode_container([moving_segment(rng, 3)], QuantizationParams())
    reference, _ = decode_container(data)
    for i in range(12):
        for bit in range(8):
            corrupted = bytearray(data)
            corrupted[i] ^= 1 << bit
            try:
                segs, _ = decode_container(bytes(corrupted))
            except ContainerError:
                continue
            # only advisory metadata may survive; geometry must be intact
            assert len(segs) == 1
            assert np.array_equal(segs[0].frames, reference[0].frames)
            assert np.array_equal(
                segs[0].key.triangles, reference[0].key.triangles
            )


def normals_segment(rng, n_frames=3, subdiv=1):
    """Colors, UVs and per-frame stored normals together."""
    base = make_icosphere(subdiv)
    n = base.vertex_count
    frames = np.stack([base.vertices * (1.0 + 0.01 * k) for k in range(n_frames)])
    normals = np.stack([
        vertex_normals(Mesh(vertices=f, triangles=base.triangles)) for f in frames
    ])
    key = Mesh(vertices=frames[0], triangles=base.triangles, normals=normals[0],
               colors=rng.random((n, 3)), uvs=rng.random((n, 2)))
    return Segment(key=key, frames=frames, frame_ids=tuple(range(n_frames)),
                   normal_frames=normals)


@pytest.mark.parametrize("make", [
    lambda rng: [moving_segment(rng, 3)],
    lambda rng: [normals_segment(rng, 3)],
    lambda rng: list(predicted_pair(rng)),
], ids=["colors_uvs", "stored_normals", "predicted_pair"])
def test_body_fuzz_never_crashes(rng, make):
    data = encode_container(make(rng), QuantizationParams())
    random.seed(99)
    for _ in range(400):
        corrupted = bytearray(data)
        corrupted[random.randrange(12, len(data))] ^= 1 << random.randrange(8)
        try:
            decode_container(bytes(corrupted))
        except ContainerError:
            pass
    for end in range(len(data)):
        with pytest.raises(ContainerError):
            decode_container(data[:end])


def test_color_cost_independent_of_frame_count(rng):
    base = make_icosphere(2)
    colors = rng.random((base.vertex_count, 3))
    qp = QuantizationParams()

    def size(n_frames, colored):
        key = Mesh(vertices=base.vertices, triangles=base.triangles,
                   colors=colors if colored else None)
        frames = np.stack([base.vertices * (1.0 + 0.01 * k)
                           for k in range(n_frames)])
        seg = Segment(key=key, frames=frames, frame_ids=tuple(range(n_frames)))
        return len(encode_segment(seg, qp))

    cost = [size(f, True) - size(f, False) for f in (1, 10)]
    assert cost[0] > 0
    assert cost[0] == cost[1]


def test_zero_vertex_segment_refused():
    # a raw-mode segment with no triangles, no vertices and one empty frame
    conn = encode_connectivity(np.zeros((0, 3), dtype=np.int64), MODE_RAW)
    positions = b"".join(encode_block(np.zeros(0, dtype=np.int64))
                         for _ in range(2))
    segment = _HEADER.pack(1, 0, 10, 11, 10, *(0.0,) * 6, MODE_RAW)
    data = (struct.pack("<4sHHI", b"ULTR", VERSION, 0, 1) + segment + conn
            + positions)
    with pytest.raises(ContainerError, match="zero vertices"):
        decode_container(data)


def _one_segment(conn=b"", *, frames=1, mode=MODE_RAW):
    """A container of one three-vertex segment without attributes, its
    header followed by conn."""
    head = _HEADER.pack(frames, 3, 10, 11, 10, *(0.0,) * 3, *(1.0,) * 3, mode)
    return struct.pack("<4sHHI", b"ULTR", VERSION, 0, 1) + head + conn


def _edgebreaker_blob(symbols, seeds, offsets=(), *, m=None, n_closed=None,
                      perm=None):
    """An Edgebreaker blob whose counts agree with its CLERS symbols, so
    that the conquest itself judges them, unless m (default: symbols plus
    seeds), n_closed (default: the permutation's length) or perm (default:
    the identity) say otherwise."""
    if perm is None:
        perm = np.arange(3 * seeds + symbols.count(C))
    n_closed = len(perm) if n_closed is None else n_closed
    return b"".join([
        struct.pack("<II", len(symbols) + seeds if m is None else m, n_closed),
        write_uvarint(seeds), encode_block(np.asarray(symbols, dtype=np.int64)),
        *map(write_uvarint, offsets),
        pack_bits(np.asarray(perm), (n_closed - 1).bit_length()),
    ])


# a two-symbol table that sums to PROB_TOTAL, before a block's payload length
_HALVES = write_uvarint(2) + 2 * write_uvarint(PROB_TOTAL // 2)


@pytest.mark.parametrize("data,match", [
    (_one_segment(frames=0), "segment declares zero frames"),
    (_one_segment(mode=3), "unknown connectivity mode 3"),
    (_one_segment(mode=MODE_PREVIOUS), "does not precede"),
    (_one_segment(struct.pack("<I", 1)), "raw connectivity blob too short"),
    (_one_segment(encode_connectivity(np.full((1, 3), -1), MODE_RAW)),
     "negative vertex index after delta decode"),
    # one raw byte plane of no symbols, with a two-symbol table and a payload
    (_one_segment(struct.pack("<IB", 0, 1) + _HALVES + write_uvarint(2) + b"\0\0"),
     "nonempty payload for a block without one"),
    (_one_segment(struct.pack("<IB", 1, 1) + b"\xff" * 10), "oversized varint"),
    # the first of two components opens a loop that its one symbol leaves open
    (_one_segment(_edgebreaker_blob([C], seeds=2), mode=MODE_EDGEBREAKER),
     "CLERS stream exhausted early"),
    (_one_segment(_edgebreaker_blob([S], seeds=1, offsets=[1]), mode=MODE_EDGEBREAKER),
     "split offset too small"),
    (_one_segment(_edgebreaker_blob([5], seeds=1), mode=MODE_EDGEBREAKER),
     "unknown CLERS symbol 5"),
    # counts a block or an Edgebreaker head no longer stores are derived,
    # and what is left is range-checked before anything is sized
    (_one_segment(_edgebreaker_blob([], seeds=2, m=1), mode=MODE_EDGEBREAKER),
     "2 components for 1 triangles"),
    (_one_segment(_edgebreaker_blob([E], seeds=0, n_closed=3), mode=MODE_EDGEBREAKER),
     "0 components for 1 triangles"),
    # one seed and two C symbols need five permutation entries
    (_one_segment(_edgebreaker_blob([C, C], seeds=1, n_closed=4),
                  mode=MODE_EDGEBREAKER),
     "permutation longer than the vertex count"),
    (_one_segment(struct.pack("<IB", 1, 1) + write_uvarint(2)
                  + 2 * write_uvarint(1000) + write_uvarint(0)),
     "frequency table sums to 2000"),
    # one triangle, one seed: a CLERS stream of no symbols, with a payload
    (_one_segment(struct.pack("<II", 1, 3) + write_uvarint(1) + _HALVES
                  + write_uvarint(2) + b"\0\0", mode=MODE_EDGEBREAKER),
     "nonempty payload for a block without one"),
    # one triangle: a plane of 3 symbols on one lane needs its 4-byte state
    (_one_segment(struct.pack("<IB", 1, 1) + _HALVES + write_uvarint(2) + b"\0\0"),
     "entropy payload has invalid length"),
], ids=["zero_frames", "unknown_mode", "first_segment_mode_2", "raw_too_short",
        "raw_negative_index", "empty_plane_payload", "oversized_varint",
        "clers_exhausted", "split_offset_too_small", "unknown_clers_symbol",
        "seeds_over_m", "no_seed", "permutation_over_n_closed", "table_sum",
        "empty_clers_payload", "short_payload"])
def test_hostile_bytes_refused(data, match):
    tracemalloc.start()
    try:
        with pytest.raises(ContainerError, match=match):
            decode_container(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_inconsistent_segment_attributes_rejected(rng):
    with_colors = moving_segment(rng, 2, with_attrs=True)
    plain = moving_segment(rng, 2, with_attrs=False)
    with pytest.raises(ContainerError):
        encode_container([with_colors, plain], QuantizationParams())


def test_huge_plane_count_refused():
    # a plane holds the header's vertex count x 3 symbols: 2**32 - 1
    # vertices put frame 0's first position plane on 12,582,911 lanes,
    # whose final states its four-byte payload cannot hold
    head = _HEADER.pack(1, 0xFFFFFFFF, 10, 11, 10, *(0.0,) * 6, MODE_RAW)
    conn = encode_connectivity(np.zeros((0, 3), dtype=np.int64), MODE_RAW)
    crafted = head + conn + _HALVES + write_uvarint(4) + bytes(4)
    tracemalloc.start()
    try:
        with pytest.raises(CorruptStreamError, match="invalid length"):
            decode_segment(crafted, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def synth_segment(frames, resolution, normals=False):
    """One segment of a bending sphere with colors, built directly."""
    meshes = synth_frames(SynthConfig(shape="sphere", frames=frames, motion="bend",
                                      amplitude=0.4, resolution=resolution,
                                      colors=True))
    positions = np.stack([m.vertices for m in meshes])
    stored = np.stack([vertex_normals(m) for m in meshes]) if normals else None
    key = Mesh(vertices=positions[0], triangles=meshes[0].triangles,
               normals=None if stored is None else stored[0],
               colors=meshes[0].colors)
    return Segment(key=key, frames=positions, frame_ids=tuple(range(frames)),
                   normal_frames=stored)


def multi_lane_segment():
    # 10,242 vertices x 3 coordinates: every position and normal plane holds
    # 30,726 symbols, so its entropy block runs on 30 interleaved lanes
    return synth_segment(3, 5, normals=True)


def raw_torus_segment():
    """A 128 x 64 grid torus with shuffled vertex ids, two frames: genus 1,
    so raw connectivity, whose two byte planes of 49,152 index deltas code
    together on 96 lanes."""
    i, j = np.meshgrid(np.arange(128), np.arange(64), indexing="ij")
    u, v = 2 * np.pi * i.ravel() / 128, 2 * np.pi * j.ravel() / 64
    verts = np.stack([(2 + np.cos(v)) * np.cos(u), (2 + np.cos(v)) * np.sin(u),
                      np.sin(v)], axis=1)
    a, b = (i * 64 + j).ravel(), ((i + 1) % 128 * 64 + j).ravel()
    c, d = (i * 64 + (j + 1) % 64).ravel(), ((i + 1) % 128 * 64 + (j + 1) % 64).ravel()
    tris = np.concatenate([np.stack([a, b, d], 1), np.stack([a, d, c], 1)])
    ids = np.random.default_rng(3).permutation(len(verts))
    order = np.argsort(ids)
    key = Mesh(vertices=verts[order], triangles=ids[tris])
    return Segment(key=key, frames=np.stack([key.vertices, key.vertices * 1.01]),
                   frame_ids=(0, 1))


@pytest.mark.parametrize("make,digest", [
    (multi_lane_segment,
     "342d016906a661e2c623f8c1628d3ceed00f3079753e8d6fa32f29c2fc903067"),
    # 642 vertices, 60 frames: about 120 single-lane blocks in one batch
    (lambda: synth_segment(60, 3),
     "a4f303747f3bde73d66be906d99aae2dcbc980112e621e66da45620370d3061a"),
    (raw_torus_segment,
     "6730f368ad23ac4a3fc77d433211d79fe1514abc8a5b0138e46913df4fdc4814"),
], ids=["icosphere5_3_frames", "smooth_60_frames", "raw_torus"])
def test_container_bytes_pinned(make, digest):
    # these containers' entropy blocks predate coding a segment's blocks in
    # batches
    data = encode_container([make()], QuantizationParams())
    assert hashlib.sha256(data).hexdigest() == digest


def test_late_huge_plane_refused_before_decoding():
    # a segment's blocks are all checked before any payload is decoded: a
    # color plane declaring a 2**40-byte payload is refused without
    # decoding the 150 position frames in front of it (2.3 MB as int64)
    seg = synth_segment(150, 3)
    blob = encode_segment(seg, QuantizationParams())
    last, _ = _blocks(blob)[-1]
    crafted = blob[:last] + _HALVES + write_uvarint(1 << 40)
    tracemalloc.start()
    try:
        with pytest.raises(CorruptStreamError, match="overruns"):
            decode_segment(crafted, segment_flags(seg))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_multi_lane_container_roundtrip(monkeypatch):
    seg = multi_lane_segment()
    frames, normals = seg.frames, seg.normal_frames
    qp = QuantizationParams()
    data = encode_container([seg], qp)
    assert encode_container([seg], qp) == data

    lane_blocks = []

    def counting(count):
        lanes = lane_count(count)
        lane_blocks.append(lanes)
        return lanes

    lane_count = rans._lane_count
    monkeypatch.setattr(rans, "_lane_count", counting)
    (back,), _ = decode_container(data)
    assert 30 in lane_blocks

    grid = widen_to_f32(Aabb.of_points(frames.reshape(-1, 3)))
    assert np.array_equal(quantize_array(back.frames, grid.min, grid.max, qp.qp),
                          quantize_array(frames, grid.min, grid.max, qp.qp))
    unit = (-1.0,) * 3, (1.0,) * 3
    assert np.array_equal(quantize_array(back.normal_frames, *unit, qp.qn),
                          quantize_array(normals, *unit, qp.qn))
    assert np.array_equal(np.round(back.key.colors * 255),
                          np.round(seg.key.colors * 255))
    assert np.array_equal(canonical_triangles(back.key.triangles),
                          canonical_triangles(seg.key.triangles))
    (again,), _ = decode_container(data)
    assert np.array_equal(again.frames, back.frames)
    assert np.array_equal(again.normal_frames, back.normal_frames)


# offset of the connectivity-mode byte in a segment header
_MODE_AT = _HEADER.size - 1


def predicted_pair(rng):
    """Two segments of one colored sphere moving 0.002 a frame; the second
    key has the first's triangles, UVs and colors."""
    whole = moving_segment(rng, n_frames=6)
    first = Segment(key=whole.key, frames=whole.frames[:3], frame_ids=(0, 1, 2))
    second = Segment(key=whole.key.with_vertices(whole.frames[3]),
                     frames=whole.frames[3:], frame_ids=(3, 4, 5))
    return first, second


def _second_segment(data, flags):
    """Offset of a two-segment container's second segment."""
    return decode_segment(data, flags, 12)[1]


def _patched(data, offset, fmt, value):
    out = bytearray(data)
    struct.pack_into(fmt, out, offset, value)
    return bytes(out)


def test_predicted_segment_decodes_to_its_unpredicted_arrays(rng):
    first, second = predicted_pair(rng)
    qp = QuantizationParams()
    data = encode_container([first, second], qp)
    flags = segment_flags(first)
    at = _second_segment(data, flags)
    assert data[at + _MODE_AT] == 2
    (_, back), _ = decode_container(data)
    (alone,), _ = decode_container(encode_container([second], qp))
    for a, b in ((back.frames, alone.frames), (back.key.triangles, alone.key.triangles),
                 (back.key.colors, alone.key.colors), (back.key.uvs, alone.key.uvs)):
        assert np.array_equal(a, b)
    assert len(data) - at < len(encode_segment(second, qp)) // 4


def test_mode_2_predicts_badly_predicted_colors(rng):
    # fresh random colors predict badly; the segment still takes the
    # previous triangles, predicts every stream and decodes to the arrays
    # it decodes to alone
    first, second = predicted_pair(rng)
    key = Mesh(vertices=second.key.vertices, triangles=second.key.triangles,
               uvs=second.key.uvs, colors=rng.random((second.key.vertex_count, 3)))
    second = Segment(key=key, frames=second.frames, frame_ids=second.frame_ids)
    qp = QuantizationParams()
    data = encode_container([first, second], qp)
    assert data[_second_segment(data, segment_flags(first)) + _MODE_AT] == 2
    (_, back), _ = decode_container(data)
    (alone,), _ = decode_container(encode_container([second], qp))
    for a, b in ((back.frames, alone.frames), (back.key.triangles, alone.key.triangles),
                 (back.key.colors, alone.key.colors), (back.key.uvs, alone.key.uvs)):
        assert np.array_equal(a, b)


def test_no_prediction_across_triangle_arrays(rng):
    # the same vertex count and mesh, but the triangles in another order:
    # not connectivity-mode 2, so frame 0 is coded absolutely
    first, second = predicted_pair(rng)
    key = Mesh(vertices=second.key.vertices, triangles=second.key.triangles[::-1],
               uvs=second.key.uvs, colors=second.key.colors)
    second = Segment(key=key, frames=second.frames, frame_ids=second.frame_ids)
    qp = QuantizationParams()
    assert (encode_segment(second, qp, previous=first)
            == encode_segment(second, qp))


def test_no_prediction_across_vertex_counts(rng):
    first, _ = predicted_pair(rng)
    other = moving_segment(rng, n_frames=2, subdiv=1)
    qp = QuantizationParams()
    assert (encode_segment(other, qp, previous=first)
            == encode_segment(other, qp))


def test_first_segment_cannot_predict(rng):
    first, second = predicted_pair(rng)
    data = encode_container([first, second], QuantizationParams())
    at = _second_segment(data, segment_flags(first))
    # the predicted segment alone: connectivity-mode 2 with no predecessor
    alone = data[:8] + struct.pack("<I", 1) + data[at:]
    with pytest.raises(ContainerError, match="does not precede"):
        decode_container(alone)
    # connectivity-mode 2 on a first segment: refused before its blob would
    # be read as streams
    with pytest.raises(ContainerError, match="does not precede"):
        decode_container(_patched(data, 12 + _MODE_AT, "<B", 2))


def test_decode_segment_needs_the_previous_segment(rng):
    first, second = predicted_pair(rng)
    data = encode_container([first, second], QuantizationParams())
    flags = segment_flags(first)
    at = _second_segment(data, flags)
    with pytest.raises(ContainerError, match="does not precede"):
        decode_segment(data, flags, at)
    previous, _ = decode_segment(data, flags, 12)
    seg, end = decode_segment(data, flags, at, 3, previous=previous)
    assert end == len(data) and seg.frame_ids == (3, 4, 5)


def test_connectivity_by_reference_carries_no_blob(rng):
    # a mode-2 segment's stream blocks start right after its header: one
    # block per byte plane of three position frames (the first a residual),
    # the UVs and the colors
    first, second = predicted_pair(rng)
    data = encode_container([first, second], QuantizationParams())
    at = _second_segment(data, segment_flags(first))
    n = first.key.vertex_count
    offset = at + _HEADER.size
    for count in [3 * n] * (3 * 2) + [2 * n] * 2 + [3 * n] * 2:
        _, offset = read_block(data, offset, count)
    assert offset == len(data)
    # four bytes where a blob would be are read as a stream block
    crafted = data[:at + _HEADER.size] + b"\0" * 4 + data[at + _HEADER.size:]
    with pytest.raises(ContainerError):
        decode_container(crafted)


def test_predicted_vertex_count_must_match(rng):
    first, second = predicted_pair(rng)
    data = encode_container([first, second], QuantizationParams())
    at = _second_segment(data, segment_flags(first))
    # a count that would size gigabytes of streams is refused before
    # anything is allocated from it
    for count in (first.key.vertex_count - 1, 0xFFFFFFFF):
        crafted = _patched(data, at + 4, "<I", count)
        tracemalloc.start()
        try:
            with pytest.raises(ContainerError, match="predecessor"):
                decode_container(crafted)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def test_predicted_segment_behind_a_corrupted_predecessor(rng):
    first, second = predicted_pair(rng)
    data = encode_container([first, second], QuantizationParams())
    at = _second_segment(data, segment_flags(first))
    random.seed(7)
    refused = 0
    for _ in range(300):
        corrupted = bytearray(data)
        corrupted[random.randrange(12, at)] ^= 1 << random.randrange(8)
        try:
            decode_container(bytes(corrupted))
        except ContainerError:
            refused += 1
    assert refused > 250
    # a predecessor that decodes to other lattice values moves its
    # successor's prediction; out-of-range values are refused
    previous, _ = decode_segment(data, segment_flags(first), 12)
    shifted = Segment(key=previous.key.with_vertices(previous.frames[0] + 1.0),
                      frames=previous.frames + 1.0, frame_ids=previous.frame_ids)
    with pytest.raises(CorruptStreamError, match="out of range"):
        decode_segment(data, segment_flags(first), at, previous=shifted)
