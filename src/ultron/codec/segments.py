"""Segment compression: connectivity once, vertex streams per frame.

Layout per segment (little-endian):
  header: frame-count u32, vertex-count u32, qp u8, qt u8, qn u8,
          grid 6 x f32 (min xyz, max xyz), connectivity-mode u8,
          connectivity-length u64
  connectivity blob
  per frame: u64 length + position blob
  [flag has-uv]      u64 length + uv blob (stored once, from the key)
  [flag has-colors]  u64 length + color blob (frame 0 absolute + one
                     delta sub-block per later frame)
  [flag stored-normals] u64 length + normal blob (same per-frame layout)

Positions are quantized on a per-segment f32 grid covering every frame.
Frame 0 is coded absolutely; later frames as zigzagged deltas of lattice
indices against the previous frame. Each blob is a sequence of per-byte-
plane entropy blocks (plane count is determined by the bit depth).
"""

from __future__ import annotations

import struct

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
from .rans import decode_block, encode_block

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


def _encode_planes(values: np.ndarray, nplanes: int) -> bytes:
    flat = values.reshape(-1)
    return b"".join(encode_block(p, 256) for p in split_planes(flat, nplanes))


def _decode_planes_at(data: bytes, offset: int, count: int, nplanes: int):
    planes = []
    for _ in range(nplanes):
        plane, offset = decode_block(data, offset, max_count=count)
        if len(plane) != count:
            raise CorruptStreamError("plane symbol count mismatch")
        planes.append(plane)
    return join_planes(planes), offset


def _decode_planes(data: bytes, count: int, nplanes: int) -> np.ndarray:
    joined, offset = _decode_planes_at(data, 0, count, nplanes)
    if offset != len(data):
        raise CorruptStreamError("trailing bytes in plane blob")
    return joined


def _decode_stream_frames(data: bytes, frame_count: int, count: int,
                          width: int, bits: int):
    """Decode a concatenated absolute+delta frame sequence from one blob."""
    offset = 0
    top = (1 << bits) - 1
    frames = []
    prev = None
    for k in range(frame_count):
        if k == 0:
            vals, offset = _decode_planes_at(data, offset, count * width,
                                             _abs_planes(bits))
        else:
            zz, offset = _decode_planes_at(data, offset, count * width,
                                           _delta_planes(bits))
            vals = prev.reshape(-1).astype(np.int64) + unzigzag(zz)
        if vals.min() < 0 or vals.max() > top:
            raise CorruptStreamError("quantized value out of range")
        prev = vals.reshape(count, width).astype(np.int32)
        frames.append(prev)
    if offset != len(data):
        raise CorruptStreamError("trailing bytes in stream blob")
    return frames, offset


def _encode_stream_frames(quantized: np.ndarray, bits: int) -> list[bytes]:
    """Frame 0 absolute, frames k>0 as zigzag deltas, one blob per frame."""
    blobs = [_encode_planes(quantized[0].astype(np.int64), _abs_planes(bits))]
    for k in range(1, len(quantized)):
        delta = quantized[k].astype(np.int64) - quantized[k - 1].astype(np.int64)
        blobs.append(_encode_planes(zigzag(delta), _delta_planes(bits)))
    return blobs


def _decode_stream_frame(
    data: bytes, prev: np.ndarray | None, count: int, width: int, bits: int
) -> np.ndarray:
    if prev is None:
        vals = _decode_planes(data, count * width, _abs_planes(bits))
    else:
        deltas = unzigzag(_decode_planes(data, count * width, _delta_planes(bits)))
        vals = prev.reshape(-1).astype(np.int64) + deltas
    top = (1 << bits) - 1
    if vals.min() < 0 or vals.max() > top:
        raise CorruptStreamError("quantized value out of range")
    return vals.reshape(count, width).astype(np.int32)


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

    quantized = np.stack([
        quantize_array(f, grid.min, grid.max, qparams.qp) for f in seg.frames
    ])
    for blob in _encode_stream_frames(quantized, qparams.qp):
        parts.append(_prefixed(blob))

    if seg.key.uvs is not None:
        q_uv = quantize_array(seg.key.uvs, (0.0, 0.0), (1.0, 1.0), qparams.qt)
        parts.append(_prefixed(_encode_planes(
            q_uv.astype(np.int64), _abs_planes(qparams.qt)
        )))

    if seg.key.colors is not None:
        q_col = quantize_array(
            seg.key.colors, (0.0,) * 3, (1.0,) * 3, COLOR_BITS
        )
        frames_col = np.broadcast_to(
            q_col, (seg.frame_count, *q_col.shape)
        )
        parts.append(_prefixed(
            b"".join(_encode_stream_frames(frames_col, COLOR_BITS))
        ))

    if seg.normal_frames is not None:
        q_n = np.stack([
            quantize_array(nf, (-1.0,) * 3, (1.0,) * 3, qparams.qn)
            for nf in seg.normal_frames
        ])
        parts.append(_prefixed(
            b"".join(_encode_stream_frames(q_n, qparams.qn))
        ))

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

    frames_q = []
    prev = None
    for _ in range(frame_count):
        blob = reader.take_prefixed("position blob")
        prev = _decode_stream_frame(blob, prev, vertex_count, 3, qp)
        frames_q.append(prev)
    frames = np.stack([
        dequantize_array(q, gmin, gmax, qp) for q in frames_q
    ])

    uvs = None
    if flags & FLAG_UV:
        blob = reader.take_prefixed("uv blob")
        q_uv = _decode_planes(blob, vertex_count * 2, _abs_planes(qt))
        top = (1 << qt) - 1
        if q_uv.min() < 0 or q_uv.max() > top:
            raise CorruptStreamError("uv index out of range")
        uvs = dequantize_array(
            q_uv.reshape(vertex_count, 2), (0.0, 0.0), (1.0, 1.0), qt
        )

    colors = None
    if flags & FLAG_COLORS:
        blob = reader.take_prefixed("color blob")
        frames_c, _ = _decode_stream_frames(
            blob, frame_count, vertex_count, 3, COLOR_BITS
        )
        # colors are per-segment constant; the last frame's copy is canonical
        colors = dequantize_array(
            frames_c[-1], (0.0,) * 3, (1.0,) * 3, COLOR_BITS
        )

    normal_frames = None
    if flags & FLAG_STORED_NORMALS:
        blob = reader.take_prefixed("normal blob")
        frames_n, _ = _decode_stream_frames(blob, frame_count, vertex_count, 3, qn)
        normal_frames = np.stack([
            dequantize_array(q, (-1.0,) * 3, (1.0,) * 3, qn) for q in frames_n
        ])

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
