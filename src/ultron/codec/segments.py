"""Segment compression: connectivity once, vertex streams per frame.

Layout per segment (little-endian):
  header: frame-count u32, vertex-count u32, qp u8, qt u8, qn u8,
          grid 6 x f32 (min xyz, max xyz), connectivity-mode u8
          (0 edgebreaker, 1 raw, 2 the previous segment's)
  connectivity blob    (modes 0 and 1; it ends where its counts say)
  positions            per frame: one entropy block per byte plane (qp bits)
  [flag has-uv]        one frame, from the key (qt bits)
  [flag has-colors]    one frame, from the key (8 bits)
  [flag stored-normals] per frame (qn bits)

Every attribute is one stream of lattice indices with the same coding:
frame 0 absolute or against a prediction, each later frame as zigzagged
deltas against the frame before it. A frame is one entropy block per byte
plane, written back to back with no length: the plane count follows from
the bit depth, and each plane holds vertex-count x width symbols, so a
block stores only its table and payload length. Positions are quantized on
a per-segment f32 grid covering every frame; UVs on [0, 1], colors on
[0, 1] and normals on [-1, 1]. One table, _streams, gives each stream's
frames, bits and lattice range to both the encoder and the decoder.

No length precedes the connectivity blob: both of its coders write blobs
that end where their own counts say (see connectivity.py), and an
Edgebreaker blob takes its real vertex count from this header.

A segment after the first may lean on the one before it. Connectivity-mode
2 takes the previous segment's decoded triangle array, with no blob, for a
key with the previous key's vertex count and triangle array. A mode-2
segment codes every stream's frame 0 as zigzagged residuals against the
previous segment's decoded last frame of that stream (a from-key stream:
its only frame), mapped onto this segment's lattice with the pinned
rounding and clamped to it; every other segment codes frame 0 as absolute
values. A mode-2 segment decodes only after the one before it.

The byte planes of every frame and attribute are entropy-coded in one
batch, so equal-count blocks advance in one lockstep run (see rans.py);
the bytes are those of each block coded alone. The decoder checks every
block of the segment (table, payload length; see rans.read_block) before
it decodes any payload, and decodes every payload before it joins planes
and rebuilds frames.
"""

from __future__ import annotations

import struct
from itertools import islice
from typing import NamedTuple

import numpy as np

from ..errors import (ContainerError, CorruptStreamError,
                      EdgebreakerUnsupported, InvalidMeshError)
from ..mesh import Aabb, CornerTable, Mesh, build_corner_table
from ..pipeline import Segment
from .connectivity import (
    MODE_EDGEBREAKER,
    MODE_PREVIOUS,
    MODE_RAW,
    decode_connectivity,
    encode_connectivity,
    join_planes,
    read_planes,
    split_planes,
    unzigzag,
    zigzag,
)
from .quantization import (
    QuantizationParams,
    dequantize_array,
    quantize_array,
    snap_to_lattice,
    widen_to_f32,
)
from .rans import decode_blocks, encode_blocks
# not called here: segment streams reach rANS through encode_blocks and
# decode_blocks, but perfbench/tracing.py wraps these names as this layer's
# entry points
from .rans import decode_block, encode_block  # noqa: F401

FLAG_UV = 1
FLAG_NORMALS = 2
FLAG_COLORS = 4
FLAG_STORED_NORMALS = 8
KNOWN_FLAGS = FLAG_UV | FLAG_NORMALS | FLAG_COLORS | FLAG_STORED_NORMALS

_HEADER = struct.Struct("<IIBBB6fB")

COLOR_BITS = 8


def segment_flags(seg: Segment) -> int:
    flags = 0
    if seg.key.uvs is not None:
        flags |= FLAG_UV
    if seg.key.colors is not None:
        flags |= FLAG_COLORS
    if seg.normal_frames is not None:
        flags |= FLAG_NORMALS | FLAG_STORED_NORMALS
    elif seg.key.normals is not None:
        flags |= FLAG_NORMALS
    return flags


def _frame_planes(bits: int, absolute: bool) -> int:
    """Byte planes of one frame: bits for absolute lattice indices, one
    more for a zigzag residual, which lies in [-(2**bits - 1), 2**bits - 1]."""
    return (bits + 7) // 8 if absolute else (bits + 8) // 8


def _stream_planes(q: np.ndarray, bits: int,
                   prediction: np.ndarray | None = None) -> list[np.ndarray]:
    """The byte planes of an (F, n * w) lattice-index array, frame by
    frame: frame 0 absolute, or zigzag residuals against prediction (n * w
    lattice indices) when given; frame k > 0 zigzag deltas against frame
    k - 1."""
    q = np.asarray(q, dtype=np.int64)
    first = q[0] if prediction is None else zigzag(q[0] - prediction)
    planes = split_planes(first, _frame_planes(bits, prediction is None))
    for d in zigzag(np.diff(q, axis=0)):
        planes += split_planes(d, _frame_planes(bits, False))
    return planes


def _join_stream(planes, frame_count: int, count: int, width: int, bits: int,
                 what: str, prediction: np.ndarray | None = None) -> np.ndarray:
    """Inverse of _stream_planes, taking each frame's planes from the
    iterator planes; returns (frame_count, count, width)."""
    vals = np.empty((frame_count, count * width), dtype=np.int64)
    for k in range(frame_count):
        absolute = k == 0 and prediction is None
        frame = join_planes(list(islice(planes, _frame_planes(bits, absolute))))
        vals[k] = frame if absolute else unzigzag(frame)
    if prediction is not None:
        vals[0] += prediction
    np.cumsum(vals, axis=0, out=vals)
    if vals.min() < 0 or vals.max() > (1 << bits) - 1:
        raise CorruptStreamError(f"{what}: quantized value out of range")
    return vals.reshape(frame_count, count, width)


class _Stream(NamedTuple):
    what: str        # names the stream in errors
    attr: str        # the Segment attribute, or the key's when from_key
    from_key: bool   # one frame taken from the key, else one per frame
    frames: int
    width: int       # values per vertex
    bits: int
    lo: tuple        # lattice range
    hi: tuple


def _streams(flags: int, frame_count: int, qp: int, qt: int, qn: int,
             grid: tuple) -> list[_Stream]:
    """The segment's attribute streams in coding order; grid is the
    positions' (min, max)."""
    streams = [_Stream("position blob", "frames", False, frame_count, 3, qp, *grid)]
    if flags & FLAG_UV:
        streams.append(_Stream("uv blob", "uvs", True, 1, 2, qt, (0.0, 0.0), (1.0, 1.0)))
    if flags & FLAG_COLORS:
        streams.append(_Stream("color blob", "colors", True, 1, 3, COLOR_BITS,
                               (0.0,) * 3, (1.0,) * 3))
    if flags & FLAG_STORED_NORMALS:
        streams.append(_Stream("normal blob", "normal_frames", False, frame_count, 3,
                               qn, (-1.0,) * 3, (1.0,) * 3))
    return streams


def _last_frame(seg: Segment, s: _Stream) -> np.ndarray:
    """Stream s's last frame in seg: its only frame for a from-key stream."""
    if s.from_key:
        return getattr(seg.key, s.attr)
    return getattr(seg, s.attr)[-1]


def _prediction(last: np.ndarray, s: _Stream) -> np.ndarray:
    """Frame 0's prediction on stream s's lattice from the previous
    segment's decoded last frame of that stream. Encoder and decoder both
    call it on the same decoded values, so both get the same indices."""
    return snap_to_lattice(last, s.lo, s.hi, s.bits).reshape(-1)


def _grid(seg: Segment) -> Aabb:
    return widen_to_f32(Aabb.of_points(seg.frames.reshape(-1, 3)))


def _decoded_lasts(seg: Segment, qparams: QuantizationParams) -> list[np.ndarray]:
    """What decode_segment gives for the last frame of each of seg's
    streams, computed from seg itself."""
    grid = _grid(seg)
    return [
        dequantize_array(snap_to_lattice(_last_frame(seg, s), s.lo, s.hi, s.bits),
                         s.lo, s.hi, s.bits)
        for s in _streams(segment_flags(seg), seg.frame_count, qparams.qp,
                          qparams.qt, qparams.qn, (grid.min, grid.max))
    ]


def _pick_connectivity(key: Mesh, previous: Segment | None) -> tuple[int, bytes]:
    if (previous is not None
            and np.array_equal(key.triangles, previous.key.triangles)):
        return MODE_PREVIOUS, b""
    table = build_corner_table(key)
    if isinstance(table, CornerTable):
        try:
            return MODE_EDGEBREAKER, encode_connectivity(table, MODE_EDGEBREAKER)
        except EdgebreakerUnsupported:
            pass
    return MODE_RAW, encode_connectivity(key.triangles, MODE_RAW)


def encode_segment(seg: Segment, qparams: QuantizationParams, *,
                   previous: Segment | None = None) -> bytes:
    """Compress one segment into a self-delimiting blob.

    previous is the segment coded before seg with the same qparams and
    attributes; when its key has seg's key's vertex count and triangle
    array, seg takes its connectivity and codes each stream's frame 0
    against previous's decoded data, and its blob then decodes only after
    previous."""
    grid = _grid(seg)
    flags = segment_flags(seg)
    if previous is not None and (previous.key.vertex_count != seg.key.vertex_count
                                 or segment_flags(previous) != flags):
        previous = None
    mode, conn = _pick_connectivity(seg.key, previous)
    streams = _streams(flags, seg.frame_count, qparams.qp, qparams.qt,
                       qparams.qn, (grid.min, grid.max))
    lasts = (_decoded_lasts(previous, qparams) if mode == MODE_PREVIOUS
             else [None] * len(streams))

    # every plane of every frame and attribute is coded in one batch
    planes = []
    for s, last in zip(streams, lasts):
        values = getattr(seg.key if s.from_key else seg, s.attr)
        q = quantize_array(values, s.lo, s.hi, s.bits).reshape(s.frames, -1)
        planes += _stream_planes(q, s.bits,
                                 None if last is None else _prediction(last, s))

    header = _HEADER.pack(
        seg.frame_count,
        seg.key.vertex_count,
        qparams.qp,
        qparams.qt,
        qparams.qn,
        *np.asarray(grid.min, dtype=np.float32),
        *np.asarray(grid.max, dtype=np.float32),
        mode,
    )
    return b"".join([header, conn, *encode_blocks(planes)])


def decode_segment(
    data: bytes, flags: int, offset: int = 0, first_frame_id: int = 0, *,
    previous: Segment | None = None,
) -> tuple[Segment, int]:
    """Decode one segment blob; returns the segment and the end offset.

    previous is the segment decoded just before it, which a
    connectivity-mode 2 segment needs."""
    if len(data) - offset < _HEADER.size:
        raise ContainerError("truncated stream while reading segment header")
    (frame_count, vertex_count, qp, qt, qn,
     g0, g1, g2, g3, g4, g5, mode) = _HEADER.unpack_from(data, offset)
    offset += _HEADER.size
    if frame_count == 0:
        raise ContainerError("segment declares zero frames")
    if vertex_count == 0:
        raise ContainerError("segment declares zero vertices")
    if not (1 <= qp <= 30 and 1 <= qt <= 30 and 1 <= qn <= 30):
        raise ContainerError("quantization bits out of range")
    if mode not in (MODE_EDGEBREAKER, MODE_RAW, MODE_PREVIOUS):
        raise ContainerError(f"unknown connectivity mode {mode}")
    predicted = mode == MODE_PREVIOUS
    if predicted:
        if previous is None:
            raise ContainerError("segment predicts from a segment that does not precede it")
        if previous.key.vertex_count != vertex_count:
            raise ContainerError(
                f"predicted segment has {vertex_count} vertices, "
                f"its predecessor {previous.key.vertex_count}")
    gmin = np.array([g0, g1, g2], dtype=np.float64)
    gmax = np.array([g3, g4, g5], dtype=np.float64)
    if np.any(~np.isfinite(gmin)) or np.any(~np.isfinite(gmax)) or np.any(gmin > gmax):
        raise ContainerError("invalid quantization grid")
    streams = _streams(flags, frame_count, qp, qt, qn, (gmin, gmax))

    if predicted:
        triangles = previous.key.triangles
    else:
        triangles, offset = decode_connectivity(data, offset, mode, vertex_count)
        if len(triangles) and triangles.max() >= vertex_count:
            raise CorruptStreamError("triangle index exceeds vertex count")

    # every block is checked before any payload is decoded, and
    # every payload is decoded, in one batch, before any value is built
    coded = []
    for s in streams:
        for k in range(s.frames):
            nplanes = _frame_planes(s.bits, k == 0 and not predicted)
            blocks, offset = read_planes(data, offset, vertex_count * s.width, nplanes)
            coded += blocks
    planes = iter(decode_blocks(coded))
    values = {}
    for s in streams:
        pred = _prediction(_last_frame(previous, s), s) if predicted else None
        v = dequantize_array(
            _join_stream(planes, s.frames, vertex_count, s.width, s.bits, s.what, pred),
            s.lo, s.hi, s.bits)
        values[s.attr] = v[0] if s.from_key else v
    frames = values["frames"]
    normal_frames = values.get("normal_frames")

    try:
        key = Mesh(
            vertices=frames[0],
            triangles=triangles,
            normals=normal_frames[0] if normal_frames is not None else None,
            uvs=values.get("uvs"),
            colors=values.get("colors"),
        )
        seg = Segment(
            key=key,
            frames=frames,
            frame_ids=tuple(range(first_frame_id, first_frame_id + frame_count)),
            normal_frames=normal_frames,
        )
    except InvalidMeshError as exc:
        # corrupt streams can decode into structurally invalid meshes
        raise CorruptStreamError(f"decoded segment is invalid: {exc}")
    return seg, offset
