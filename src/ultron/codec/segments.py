"""Segment compression: connectivity once, vertex streams per frame.

Layout per segment (little-endian):
  header: frame-count u32, vertex-count u32, qp u8, qt u8, qn u8,
          grid 6 x f32 (min xyz, max xyz), connectivity-mode u8,
          connectivity-length u64
  connectivity blob
  positions            per frame: u64 length + blob (qp bits)
  [flag has-uv]        one frame: u64 length + blob (qt bits, from the key)
  [flag has-colors]    one frame: u64 length + blob (8 bits, from the key)
  [flag stored-normals] per frame: u64 length + blob (qn bits)

Every attribute is one stream of lattice indices with the same coding:
frame 0 absolute, each later frame as zigzagged deltas against the frame
before it. A frame's blob is one entropy block per byte plane (the plane
count follows from the bit depth). Positions are quantized on a
per-segment f32 grid covering every frame; UVs on [0, 1], colors on
[0, 1] and normals on [-1, 1].

The byte planes of every frame and attribute are entropy-coded in one
batch, so equal-count blocks advance in one lockstep run (see rans.py);
the bytes are those of each block coded alone. The decoder checks every
block header of the segment (count, table, payload length, plane count,
trailing bytes) before it decodes any payload, and decodes every payload
before it joins planes and rebuilds frames.
"""

from __future__ import annotations

import struct
from itertools import islice

import numpy as np

from ..errors import (ContainerError, CorruptStreamError,
                      EdgebreakerUnsupported, InvalidMeshError)
from ..mesh import Aabb, CornerTable, Mesh, build_corner_table
from ..pipeline import Segment
from .connectivity import (
    MODE_EDGEBREAKER,
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

_HEADER = struct.Struct("<IIBBB6fBQ")

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


def _abs_planes(bits: int) -> int:
    return (bits + 7) // 8


def _delta_planes(bits: int) -> int:
    return (bits + 8) // 8


def _stream_planes(q: np.ndarray, bits: int) -> list[list[np.ndarray]]:
    """The byte planes of an (F, n, w) lattice-index array, one list per
    frame: frame 0 absolute, frame k > 0 zigzag deltas against frame k - 1."""
    q = np.asarray(q, dtype=np.int64).reshape(len(q), -1)
    frames = [split_planes(q[0], _abs_planes(bits))]
    frames += [split_planes(d, _delta_planes(bits))
               for d in zigzag(np.diff(q, axis=0))]
    return frames


def _join_stream(planes, frame_count: int, count: int, width: int,
                 bits: int, what: str) -> np.ndarray:
    """Inverse of _stream_planes, taking each frame's planes from the
    iterator planes; returns (frame_count, count, width)."""
    vals = np.empty((frame_count, count * width), dtype=np.int64)
    for k in range(frame_count):
        nplanes = _delta_planes(bits) if k else _abs_planes(bits)
        frame = join_planes(list(islice(planes, nplanes)))
        vals[k] = unzigzag(frame) if k else frame
    np.cumsum(vals, axis=0, out=vals)
    if vals.min() < 0 or vals.max() > (1 << bits) - 1:
        raise CorruptStreamError(f"{what}: quantized value out of range")
    return vals.reshape(frame_count, count, width)


def _pick_connectivity(key: Mesh) -> tuple[int, bytes]:
    table = build_corner_table(key)
    if isinstance(table, CornerTable):
        try:
            return MODE_EDGEBREAKER, encode_connectivity(table, "edgebreaker")
        except EdgebreakerUnsupported:
            pass
    return MODE_RAW, encode_connectivity(key.triangles, "raw")


def _prefixed(blob: bytes) -> bytes:
    return struct.pack("<Q", len(blob)) + blob


class _Reader:
    def __init__(self, data: bytes, offset: int):
        self.data = data
        self.offset = offset

    def take(self, n: int, what: str) -> bytes:
        if self.offset + n > len(self.data):
            raise ContainerError(f"truncated stream while reading {what}")
        out = self.data[self.offset:self.offset + n]
        self.offset += n
        return out

    def take_prefixed(self, what: str) -> bytes:
        (n,) = struct.unpack("<Q", self.take(8, what + " length"))
        return self.take(n, what)


def encode_segment(seg: Segment, qparams: QuantizationParams) -> bytes:
    """Compress one segment into a self-delimiting blob."""
    all_points = seg.frames.reshape(-1, 3)
    grid = widen_to_f32(Aabb.of_points(all_points))
    mode, conn = _pick_connectivity(seg.key)

    header = _HEADER.pack(
        seg.frame_count,
        seg.key.vertex_count,
        qparams.qp,
        qparams.qt,
        qparams.qn,
        *np.asarray(grid.min, dtype=np.float32),
        *np.asarray(grid.max, dtype=np.float32),
        mode,
        len(conn),
    )
    parts = [header, conn]

    q_pos = quantize_array(seg.frames, grid.min, grid.max, qparams.qp)
    frames = _stream_planes(q_pos, qparams.qp)

    if seg.key.uvs is not None:
        q_uv = quantize_array(seg.key.uvs, (0.0, 0.0), (1.0, 1.0), qparams.qt)
        frames += _stream_planes(q_uv[None], qparams.qt)

    if seg.key.colors is not None:
        q_col = quantize_array(
            seg.key.colors, (0.0,) * 3, (1.0,) * 3, COLOR_BITS
        )
        frames += _stream_planes(q_col[None], COLOR_BITS)

    if seg.normal_frames is not None:
        q_n = quantize_array(seg.normal_frames, (-1.0,) * 3, (1.0,) * 3,
                             qparams.qn)
        frames += _stream_planes(q_n, qparams.qn)

    # every plane of every frame and attribute is coded in one batch
    blocks = iter(encode_blocks([p for planes in frames for p in planes], 256))
    parts += [_prefixed(b"".join(islice(blocks, len(planes))))
              for planes in frames]
    return b"".join(parts)


def decode_segment(
    data: bytes, flags: int, offset: int = 0, first_frame_id: int = 0
) -> tuple[Segment, int]:
    """Decode one segment blob; returns the segment and the end offset."""
    reader = _Reader(data, offset)
    head = reader.take(_HEADER.size, "segment header")
    (frame_count, vertex_count, qp, qt, qn,
     g0, g1, g2, g3, g4, g5, mode, conn_len) = _HEADER.unpack(head)
    if frame_count == 0:
        raise ContainerError("segment declares zero frames")
    if vertex_count == 0:
        raise ContainerError("segment declares zero vertices")
    if not (1 <= qp <= 30 and 1 <= qt <= 30 and 1 <= qn <= 30):
        raise ContainerError("quantization bits out of range")
    if mode not in (MODE_EDGEBREAKER, MODE_RAW):
        raise ContainerError(f"unknown connectivity mode {mode}")
    gmin = np.array([g0, g1, g2], dtype=np.float64)
    gmax = np.array([g3, g4, g5], dtype=np.float64)
    if np.any(~np.isfinite(gmin)) or np.any(~np.isfinite(gmax)) or np.any(gmin > gmax):
        raise ContainerError("invalid quantization grid")

    conn = reader.take(conn_len, "connectivity blob")
    mode_name = "edgebreaker" if mode == MODE_EDGEBREAKER else "raw"
    triangles = decode_connectivity(conn, mode_name)
    if len(triangles) and triangles.max() >= vertex_count:
        raise CorruptStreamError("triangle index exceeds vertex count")

    # name: frame count, values per vertex, bits, lattice range
    streams = {"position blob": (frame_count, 3, qp, gmin, gmax)}
    if flags & FLAG_UV:
        streams["uv blob"] = (1, 2, qt, (0.0, 0.0), (1.0, 1.0))
    if flags & FLAG_COLORS:
        streams["color blob"] = (1, 3, COLOR_BITS, (0.0,) * 3, (1.0,) * 3)
    if flags & FLAG_STORED_NORMALS:
        streams["normal blob"] = (frame_count, 3, qn, (-1.0,) * 3, (1.0,) * 3)
    # every block header is checked before any payload is decoded, and
    # every payload is decoded, in one batch, before any value is built
    coded = [
        block
        for what, (nframes, width, bits, _, _) in streams.items()
        for k in range(nframes)
        for block in read_planes(reader.take_prefixed(what), 0,
                                 vertex_count * width,
                                 _delta_planes(bits) if k else _abs_planes(bits))
    ]
    planes = iter(decode_blocks(coded))
    values = {
        what: dequantize_array(
            _join_stream(planes, nframes, vertex_count, width, bits, what),
            lo, hi, bits)
        for what, (nframes, width, bits, lo, hi) in streams.items()
    }
    frames = values["position blob"]
    uvs = values["uv blob"][0] if flags & FLAG_UV else None
    colors = values["color blob"][0] if flags & FLAG_COLORS else None
    normal_frames = values.get("normal blob")

    try:
        key = Mesh(
            vertices=frames[0],
            triangles=triangles,
            normals=normal_frames[0] if normal_frames is not None else None,
            uvs=uvs,
            colors=colors,
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
    return seg, reader.offset
