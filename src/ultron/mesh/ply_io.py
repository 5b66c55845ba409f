"""PLY reading and writing (ascii and binary little-endian).

Vertex properties understood: x y z, nx ny nz, u v (or s t), red green blue
(uchar scaled to [0,1] or float kept as-is). Unknown scalar properties are
skipped. Faces come from a 'vertex_indices' (or 'vertex_index') list
property; polygons with more than 3 corners are fan-triangulated.

parse_ply walks the elements once for both encodings. An encoding's body
reader supplies two primitives, rows of scalar properties and
variable-length index lists; the walker does the rest. Both encodings
refuse a property named twice in one element and data after the last
element (binary tolerates a trailing line break).

The writer emits double-precision properties so binary round-trips are
bit-exact and ascii round-trips (shortest round-trip decimals) are too.
"""

from __future__ import annotations

import logging
import re
from itertools import islice

import numpy as np

from ..errors import IndexOutOfRangeError, MeshParseError, UnsupportedElementError
from .model import Mesh
from .obj_io import _fan_triangulate, _first_refused, _format_rows

logger = logging.getLogger(__name__)

_SCALAR_TYPES = {
    "char": "i1", "int8": "i1",
    "uchar": "u1", "uint8": "u1",
    "short": "i2", "int16": "i2",
    "ushort": "u2", "uint16": "u2",
    "int": "i4", "int32": "i4",
    "uint": "u4", "uint32": "u4",
    "float": "f4", "float32": "f4",
    "double": "f8", "float64": "f8",
}

# vertex property -> Mesh column; other vertex properties are skipped
_VERTEX_KEYS = {n: n for n in ("x", "y", "z", "nx", "ny", "nz", "red", "green", "blue")}
_VERTEX_KEYS.update(u="u", v="v", s="u", t="v", texture_u="u", texture_v="v")


def _parse_header(data: bytes):
    # the header ends at the first line that is exactly end_header, ended by
    # LF or CRLF; the body starts after that line's terminator
    end = re.search(rb"^end_header\r?\n", data, re.MULTILINE)
    if end is None:
        raise MeshParseError("missing end_header", offset=len(data))
    body_start = end.end()
    header_lines = data[:end.start()].decode("ascii", errors="replace").splitlines()
    if not header_lines or header_lines[0].strip() != "ply":
        raise MeshParseError("not a PLY file (missing 'ply' magic)", line=1)

    fmt = None
    elements = []  # (name, count, [(name, type) or ("__list__", name, count_t, idx_t)])
    for lineno, line in enumerate(header_lines[1:], start=2):
        parts = line.split()
        if not parts or parts[0] in ("comment", "obj_info"):
            continue
        if parts[0] == "format":
            if len(parts) < 2:
                raise MeshParseError("bad format line", line=lineno)
            fmt = parts[1]
            if fmt == "binary_big_endian":
                raise UnsupportedElementError(
                    "big-endian PLY is not supported", line=lineno
                )
            if fmt not in ("ascii", "binary_little_endian"):
                raise MeshParseError(f"unknown PLY format {fmt!r}", line=lineno)
        elif parts[0] == "element":
            if len(parts) != 3:
                raise MeshParseError("bad element line", line=lineno)
            try:
                count = int(parts[2])
            except ValueError:
                raise MeshParseError("bad element count", line=lineno)
            if count < 0:
                raise MeshParseError("negative element count", line=lineno)
            elements.append((parts[1], count, []))
        elif parts[0] == "property":
            if not elements:
                raise MeshParseError("property before any element", line=lineno)
            # property <type> <name>, or property list <count type> <index type> <name>
            is_list = parts[1:2] == ["list"]
            if len(parts) != (5 if is_list else 3):
                raise MeshParseError("bad property line", line=lineno)
            types = parts[2:4] if is_list else parts[1:2]
            for t in types:
                if t not in _SCALAR_TYPES:
                    raise MeshParseError(f"unknown type {t!r}", line=lineno)
            types = [_SCALAR_TYPES[t] for t in types]
            name = parts[-1]
            props = elements[-1][2]
            if name in [p[1] if p[0] == "__list__" else p[0] for p in props]:
                raise MeshParseError(f"property {name!r} declared twice", line=lineno)
            props.append(("__list__", name, *types) if is_list else (name, *types))
        else:
            raise MeshParseError(f"unknown header keyword {parts[0]!r}", line=lineno)
    if fmt is None:
        raise MeshParseError("PLY header missing format line")
    return fmt, elements, body_start


def parse_ply(data: bytes, *, expect_format: str | None = None) -> Mesh:
    fmt, elements, body_start = _parse_header(data)
    if expect_format is not None and fmt != expect_format:
        raise MeshParseError(
            f"PLY declares format {fmt!r}, expected {expect_format!r}"
        )
    body = (_AsciiBody if fmt == "ascii" else _BinaryBody)(data, body_start)
    columns = {}
    face_blocks = []
    fans = 0
    for name, count, props in elements:
        if name == "face":
            if len(props) != 1 or props[0][0] != "__list__" or props[0][1] not in (
                "vertex_indices", "vertex_index",
            ):
                raise UnsupportedElementError(
                    "face element must have a single vertex_indices list"
                )
            sizes, flat = body.lists(count, *props[0][2:])
            fans += int(np.count_nonzero(sizes > 3))
            face_blocks.append(_fan_triangulate(sizes, flat))
        elif any(p[0] == "__list__" for p in props):
            raise UnsupportedElementError(
                f"list property on element {name!r} is not supported"
            )
        elif name != "vertex":
            body.rows(count, props, wanted=False)
        else:
            for (prop, typ), col in zip(props, body.rows(count, props, wanted=True)):
                if prop in _VERTEX_KEYS:
                    columns[_VERTEX_KEYS[prop]] = col.astype(
                        np.uint8 if typ == "u1" else np.float64
                    )
    body.end()
    if fans:
        logger.warning("fan-triangulated %d polygonal faces", fans)

    def cols(*names):
        if all(n in columns for n in names):
            return np.stack([columns[n] for n in names], axis=1)
        return None

    vertices = cols("x", "y", "z")
    if vertices is None:
        raise MeshParseError("vertex element lacks x/y/z properties")
    colors = cols("red", "green", "blue")
    if colors is not None and colors.dtype == np.uint8:
        colors = colors / 255.0
    if len(face_blocks) == 1:
        triangles = face_blocks[0]
    else:
        triangles = np.concatenate([np.empty((0, 3), np.int64), *face_blocks])
    nv = len(vertices)
    if triangles.size and (triangles.min() < 0 or triangles.max() >= nv):
        bad = triangles[(triangles < 0) | (triangles >= nv)][0]
        raise IndexOutOfRangeError(
            f"face index {int(bad)} out of range for {nv} vertices"
        )
    return Mesh(vertices=vertices, triangles=triangles, normals=cols("nx", "ny", "nz"),
                uvs=cols("u", "v"), colors=colors)


class _AsciiBody:
    """Whitespace-separated tokens. Errors name the line of the failing token."""

    def __init__(self, data, start):
        self.data, self.start = data, start
        self.tokens = data[start:].decode("ascii", errors="replace").split()
        self.pos = 0

    def error(self, message, token, cls=MeshParseError):
        """token indexes self.tokens; past the end means the last token."""
        line = self.data[:self.start].count(b"\n") + 1
        if self.tokens:
            text = self.data[self.start:].decode("ascii", errors="replace")
            index = min(token, len(self.tokens) - 1)
            match = next(islice(re.finditer(r"\S+", text), index, None))
            line += text.count("\n", 0, match.start())
        return cls(message, line=line)

    def _first_refused(self, start, parse):
        """Index of the first token from start on that parse refuses."""
        return start + _first_refused(self.tokens[start:], parse)[0]

    def rows(self, count, props, wanted):
        """count rows of len(props) numbers, as one float64 column each."""
        start, end = self.pos, self.pos + count * len(props)
        if end > len(self.tokens):
            raise self.error("truncated ascii body while reading an element", end)
        raw = self.tokens[start:end]
        self.pos = end
        if not wanted:
            return None
        try:
            grid = np.asarray(raw, dtype=np.float64).reshape(count, len(props))
        except ValueError as exc:
            bad = self._first_refused(start, lambda t: np.asarray(t, dtype=np.float64))
            raise self.error(f"bad vertex number: {exc}", bad)
        return grid.T

    def lists(self, count, count_t, index_t):
        """count index lists, as (sizes, concatenated int64 indices)."""
        tokens, start = self.tokens, self.pos
        pos = start
        sizes, flat = [], []
        for _ in range(count):
            if pos >= len(tokens):
                raise self.error("truncated ascii body while reading face size", pos)
            try:
                k = int(tokens[pos])
            except ValueError:
                raise self.error(f"bad face size {tokens[pos]!r}", pos)
            if k < 3:
                raise self.error(f"face with {k} corners", pos)
            end = pos + 1 + k
            if end > len(tokens):
                raise self.error("truncated ascii body while reading face indices", end)
            flat += tokens[pos + 1:end]
            sizes.append(k)
            pos = end
        self.pos = pos
        try:
            flat = np.array(list(map(int, flat)), dtype=np.int64)
        except ValueError as exc:
            raise self.error(f"bad face index: {exc}", self._first_refused(start, int))
        except OverflowError:
            raise self.error("face index out of range",
                             self._first_refused(start, lambda t: np.int64(int(t))),
                             IndexOutOfRangeError)
        return np.array(sizes, dtype=np.int64), flat

    def end(self):
        if self.pos < len(self.tokens):
            raise self.error(f"{len(self.tokens) - self.pos} unexpected trailing "
                             "tokens", self.pos)


class _BinaryBody:
    """Little-endian records. Errors name the byte offset reached."""

    def __init__(self, data, start):
        self.data = data
        self.offset = start

    def error(self, message, cls=MeshParseError):
        return cls(message, offset=self.offset)

    def _advance(self, nbytes):
        if self.offset + nbytes > len(self.data):
            raise self.error("truncated binary body")
        self.offset += nbytes

    def rows(self, count, props, wanted):
        """count records of the scalar props, as one column each."""
        if not wanted:
            self._advance(count * sum(np.dtype(t).itemsize for _, t in props))
            return None
        if not props:
            return []
        dtype = np.dtype([(name, "<" + t) for name, t in props])
        start = self.offset
        self._advance(dtype.itemsize * count)
        block = np.frombuffer(self.data, dtype=dtype, count=count, offset=start)
        return [block[name] for name in dtype.names]

    def lists(self, count, count_t, index_t):
        """count index lists, as (sizes, concatenated int64 indices)."""
        data = self.data
        count_dt = np.dtype("<" + count_t)
        index_dt = np.dtype("<" + index_t)
        # fast path: an all-triangle face block read in one shot
        tri_dt = np.dtype([("n", count_dt), ("idx", index_dt, (3,))])
        if self.offset + tri_dt.itemsize * count <= len(data):
            block = np.frombuffer(data, dtype=tri_dt, count=count, offset=self.offset)
            if np.all(block["n"] == 3):
                self.offset += tri_dt.itemsize * count
                return (np.full(count, 3, dtype=np.int64),
                        block["idx"].astype(np.int64).ravel())
        sizes, flat = [], []
        for _ in range(count):
            start = self.offset
            self._advance(count_dt.itemsize)
            k = int(np.frombuffer(data, dtype=count_dt, count=1, offset=start)[0])
            if k < 3:
                raise self.error(f"face with {k} corners")
            start = self.offset
            self._advance(index_dt.itemsize * k)
            flat.append(np.frombuffer(data, dtype=index_dt, count=k, offset=start))
            sizes.append(k)
        return np.array(sizes, dtype=np.int64), np.concatenate(flat).astype(np.int64)

    def end(self):
        tail = self.data[self.offset:]
        # a trailing line break is tolerated, anything else is suspicious
        if tail.strip(b"\r\n"):
            raise self.error(f"{len(tail)} unexpected trailing bytes")


_LAYOUT = (("vertices", "x y z"), ("normals", "nx ny nz"), ("uvs", "u v"),
           ("colors", "red green blue"))


def serialize_ply(mesh: Mesh, binary: bool) -> bytes:
    present = [(getattr(mesh, a), n.split()) for a, n in _LAYOUT
               if getattr(mesh, a) is not None]
    table = np.concatenate([arr for arr, _ in present], axis=1)
    names = [n for _, ns in present for n in ns]
    head = "\n".join([
        "ply",
        "format binary_little_endian 1.0" if binary else "format ascii 1.0",
        f"element vertex {mesh.vertex_count}",
        *[f"property double {n}" for n in names],
        f"element face {mesh.triangle_count}",
        "property list uchar int vertex_indices",
        "end_header\n",
    ]).encode("ascii")

    if binary:
        tri_dt = np.dtype([("n", "<u1"), ("idx", "<i4", (3,))])
        faces = np.empty(mesh.triangle_count, dtype=tri_dt)
        faces["n"] = 3
        faces["idx"] = mesh.triangles
        return head + table.astype("<f8").tobytes() + faces.tobytes()

    text = (_format_rows(" ".join(["%r"] * len(names)) + "\n", table)
            + _format_rows("3 %d %d %d\n", mesh.triangles))
    return head + (text or "\n").encode("ascii")
