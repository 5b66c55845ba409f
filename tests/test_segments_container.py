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
    VERSION,
    QuantizationParams,
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
from ultron.codec.connectivity import encode_connectivity
from ultron.codec.rans import PROB_TOTAL, encode_block, write_uvarint
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


def _position_payload(blob, frame_count):
    import struct
    from ultron.codec.segments import _HEADER

    (conn_len,) = struct.unpack_from("<Q", blob, _HEADER.size - 8)
    off = _HEADER.size + conn_len
    total = 0
    sizes = []
    for _ in range(frame_count):
        (length,) = struct.unpack_from("<Q", blob, off)
        off += 8 + length
        total += 8 + length
        sizes.append(length)
    return total, sizes


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
    import struct
    from ultron.codec.segments import _HEADER

    # motion below one lattice step per frame
    seg = moving_segment(rng, n_frames=20, step=0.0015, with_attrs=False)
    blob = encode_segment(seg, QuantizationParams())
    (conn_len,) = struct.unpack_from("<Q", blob, _HEADER.size - 8)
    off = _HEADER.size + conn_len
    sizes = []
    for _ in range(20):
        (length,) = struct.unpack_from("<Q", blob, off)
        off += 8 + length
        sizes.append(length)
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
    for version in (1, 2, VERSION + 1):
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


@pytest.mark.parametrize("make", [moving_segment, normals_segment],
                         ids=["colors_uvs", "stored_normals"])
def test_body_fuzz_never_crashes(rng, make):
    data = encode_container([make(rng, 3)], QuantizationParams())
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
    conn = encode_connectivity(np.zeros((0, 3), dtype=np.int64), "raw")
    positions = b"".join(encode_block(np.zeros(0, dtype=np.int64), 256)
                         for _ in range(2))
    segment = _HEADER.pack(1, 0, 10, 11, 10, *(0.0,) * 6, 1, len(conn))
    data = (struct.pack("<4sHHI", b"ULTR", VERSION, 0, 1) + segment + conn
            + struct.pack("<Q", len(positions)) + positions)
    with pytest.raises(ContainerError, match="zero vertices"):
        decode_container(data)


def test_inconsistent_segment_attributes_rejected(rng):
    with_colors = moving_segment(rng, 2, with_attrs=True)
    plain = moving_segment(rng, 2, with_attrs=False)
    with pytest.raises(ContainerError):
        encode_container([with_colors, plain], QuantizationParams())


def test_huge_plane_count_refused(rng):
    seg = moving_segment(rng, n_frames=1, subdiv=1, with_attrs=False)
    blob = encode_segment(seg, QuantizationParams())
    conn_len = _HEADER.unpack_from(blob)[-1]
    positions = _HEADER.size + conn_len
    # frame 0's first position plane declares 2**40 symbols with a
    # one-symbol alphabet, which needs no payload
    block = (
        write_uvarint(1 << 40) + write_uvarint(1)
        + write_uvarint(PROB_TOTAL) + write_uvarint(0)
    )
    crafted = blob[:positions] + struct.pack("<Q", len(block)) + block
    tracemalloc.start()
    try:
        with pytest.raises(CorruptStreamError):
            decode_segment(crafted, segment_flags(seg))
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
     "0e876f8cfa21940163f6c595de1d8493987c7dd3efc09eeeff382afd712b143a"),
    # 642 vertices, 60 frames: about 120 single-lane blocks in one batch
    (lambda: synth_segment(60, 3),
     "dff7e1ccdd8d9944e7968e3024c47fa0efbdd45521981510e68bc06622e27b6d"),
    (raw_torus_segment,
     "4bdbc48abdd3498f375d4fed7b0cfc6a103a8f1039f259314037f3e400bf1ed2"),
], ids=["icosphere5_3_frames", "smooth_60_frames", "raw_torus"])
def test_container_bytes_pinned(make, digest):
    # these containers' bytes predate coding a segment's blocks in batches
    data = encode_container([make()], QuantizationParams())
    assert hashlib.sha256(data).hexdigest() == digest


def test_late_huge_plane_refused_before_decoding():
    # a segment's block headers are all checked before any payload is
    # decoded: a color plane declaring 2**40 symbols is refused without
    # decoding the 150 position frames in front of it (2.3 MB as int64)
    seg = synth_segment(150, 3)
    blob = encode_segment(seg, QuantizationParams())
    offset = _HEADER.size + _HEADER.unpack_from(blob)[-1]
    while offset < len(blob):
        last = offset
        offset += 8 + struct.unpack_from("<Q", blob, offset)[0]
    block = (
        write_uvarint(1 << 40) + write_uvarint(1)
        + write_uvarint(PROB_TOTAL) + write_uvarint(0)
    )
    crafted = blob[:last] + struct.pack("<Q", len(block)) + block
    tracemalloc.start()
    try:
        with pytest.raises(CorruptStreamError, match="at most"):
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
