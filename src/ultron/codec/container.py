"""The .ultn container: magic, version, flags, then segment blobs.

Header (12 bytes, little-endian): magic "ULTR", version u16, flags u16,
segment-count u32. Flags: bit 0 has-uv, bit 1 has-normals, bit 2
has-colors, bit 3 normals-stored-per-frame (otherwise decoders recompute
normals from geometry when bit 1 is set). Unknown versions and unknown
flag bits are rejected, as are trailing bytes. Each segment after the
first is coded against the one before it (see segments.py), so segments
decode in order.
"""

from __future__ import annotations

import struct

from ..errors import ContainerError
from ..pipeline import Segment
from .quantization import QuantizationParams
from .segments import (FLAG_NORMALS, FLAG_STORED_NORMALS, KNOWN_FLAGS,
                       decode_segment, encode_segment, segment_flags)

MAGIC = b"ULTR"
VERSION = 7

_HEADER = struct.Struct("<4sHHI")


def encode_container(
    segments: list[Segment],
    qparams: QuantizationParams = QuantizationParams(),
) -> bytes:
    flags = segment_flags(segments[0]) if segments else 0
    for i, seg in enumerate(segments):
        if segment_flags(seg) != flags:
            raise ContainerError(
                f"segment {i} attributes disagree with container flags"
            )
    parts = [_HEADER.pack(MAGIC, VERSION, flags, len(segments))]
    parts += [encode_segment(seg, qparams, previous=prev)
              for prev, seg in zip([None, *segments], segments)]
    return b"".join(parts)


def decode_container(data: bytes) -> tuple[list[Segment], int]:
    """Decode a container; returns (segments, flags)."""
    if len(data) < _HEADER.size:
        raise ContainerError("truncated container header")
    magic, version, flags, count = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise ContainerError(f"bad magic {magic!r}")
    if version != VERSION:
        raise ContainerError(f"unknown container version {version}")
    if flags & ~KNOWN_FLAGS:
        raise ContainerError(f"undefined flag bits in {flags:#06x}")

    segments = []
    offset = _HEADER.size
    next_frame_id = 0
    for _ in range(count):
        seg, offset = decode_segment(data, flags, offset, next_frame_id,
                                     previous=segments[-1] if segments else None)
        next_frame_id += seg.frame_count
        segments.append(seg)
    if offset != len(data):
        raise ContainerError(f"{len(data) - offset} trailing bytes after segments")
    return segments, flags


def container_frames(segments: list[Segment], flags: int):
    """Materialize every frame mesh of a decoded container, in order."""
    recompute = bool(flags & FLAG_NORMALS) and not flags & FLAG_STORED_NORMALS
    for seg in segments:
        for i in range(seg.frame_count):
            yield seg.frame_mesh(i, recompute_normals=recompute)
