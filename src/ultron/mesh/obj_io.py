"""Wavefront OBJ reading and writing.

Supported records: v (with optional per-vertex RGB extension), vt, vn, f.
Faces may be triangles or larger convex polygons (fan-triangulated, count
logged). Polylines and points are rejected. Indices are 1-based; relative
(negative) indices are not supported.

Float output uses shortest round-trip decimal (repr), so parse(serialize(m))
reproduces arrays bit-exactly.
"""

from __future__ import annotations

import logging

import numpy as np

from ..errors import IndexOutOfRangeError, MeshParseError, UnsupportedElementError
from .model import Mesh

logger = logging.getLogger(__name__)


def _floats(parts, count, lineno, record):
    if len(parts) < count:
        raise MeshParseError(
            f"'{record}' record needs {count} values, got {len(parts)}", line=lineno
        )
    try:
        return [float(p) for p in parts[:count]]
    except ValueError as exc:
        raise MeshParseError(f"bad number in '{record}' record: {exc}", line=lineno)


def _parse_corner(token, lineno):
    """Split a face corner 'v', 'v/vt', 'v//vn' or 'v/vt/vn' into indices."""
    fields = token.split("/")
    if len(fields) > 3 or fields[0] == "":
        raise MeshParseError(f"bad face corner {token!r}", line=lineno)
    out = []
    for f in fields:
        if f == "":
            out.append(None)
            continue
        try:
            idx = int(f)
        except ValueError:
            raise MeshParseError(f"bad face corner {token!r}", line=lineno)
        if idx < 0:
            raise UnsupportedElementError(
                "relative (negative) OBJ indices are not supported", line=lineno
            )
        if idx == 0:
            raise MeshParseError("OBJ indices are 1-based; 0 is invalid", line=lineno)
        out.append(idx - 1)
    out += [None] * (3 - len(out))
    return out[0], out[1], out[2]


def parse_obj(data: bytes) -> Mesh:
    text = data.decode("utf-8", errors="replace")
    positions = []
    vertex_colors = []
    texcoords = []
    raw_normals = []
    faces = []  # (lineno, [(v, vt, vn), ...])
    fan_count = 0

    for lineno, line in enumerate(text.splitlines(), start=1):
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        key = parts[0]
        args = parts[1:]
        if key == "v":
            if len(args) not in (3, 6):
                raise MeshParseError(
                    f"'v' record needs 3 or 6 values, got {len(args)}", line=lineno
                )
            positions.append(_floats(args, 3, lineno, "v"))
            if len(args) == 6:
                vertex_colors.append(_floats(args[3:], 3, lineno, "v"))
            elif vertex_colors:
                raise MeshParseError(
                    "mixed presence of per-vertex colors on 'v' records", line=lineno
                )
        elif key == "vt":
            texcoords.append(_floats(args, 2, lineno, "vt"))
        elif key == "vn":
            raw_normals.append(_floats(args, 3, lineno, "vn"))
        elif key == "f":
            if len(args) < 3:
                raise MeshParseError("face with fewer than 3 corners", line=lineno)
            corners = [_parse_corner(tok, lineno) for tok in args]
            if len(corners) > 3:
                fan_count += 1
            for i in range(1, len(corners) - 1):
                faces.append((lineno, (corners[0], corners[i], corners[i + 1])))
        elif key in ("l", "p", "curv", "curv2", "surf"):
            raise UnsupportedElementError(
                f"'{key}' records (non-triangle geometry) are not supported",
                line=lineno,
            )
        # anything else (o, g, s, usemtl, mtllib, ...) is ignored

    if vertex_colors and len(vertex_colors) != len(positions):
        raise MeshParseError("some 'v' records carry colors and some do not")
    if fan_count:
        logger.warning("fan-triangulated %d polygonal faces", fan_count)

    nv = len(positions)
    triangles = np.zeros((len(faces), 3), dtype=np.int32)
    # for each attribute, the table row of every vertex (-1: no corner names one)
    attributes = (("uv", "vt", texcoords), ("normal", "vn", raw_normals))
    rows_of = [np.full(nv, -1, dtype=np.int64) for _ in attributes]

    def attach(k, v, ref, lineno):
        what, record, table = attributes[k]
        of_vertex = rows_of[k]
        if ref >= len(table):
            raise IndexOutOfRangeError(
                f"{what} index {ref + 1} exceeds {record} count {len(table)}",
                line=lineno,
            )
        if of_vertex[v] == -1:
            of_vertex[v] = ref
        elif of_vertex[v] != ref:
            raise UnsupportedElementError(
                f"vertex {v + 1} referenced with conflicting {what} indices; "
                "only per-vertex attributes are representable",
                line=lineno,
            )

    for row, (lineno, tri) in enumerate(faces):
        for col, (v, vt, vn) in enumerate(tri):
            if v >= nv:
                raise IndexOutOfRangeError(
                    f"vertex index {v + 1} exceeds vertex count {nv}", line=lineno
                )
            triangles[row, col] = v
            if vt is not None:
                attach(0, v, vt, lineno)
            if vn is not None:
                attach(1, v, vn, lineno)

    def per_vertex(table, of_vertex):
        assigned = of_vertex >= 0
        if table and len(table) == nv and np.all(
            of_vertex[assigned] == np.flatnonzero(assigned)
        ):
            # one record per vertex with only identity face references: take
            # the table positionally, covering vertices no face mentions
            return np.asarray(table, dtype=np.float64)
        if not assigned.any():
            return None
        out = np.zeros((nv, len(table[0])), dtype=np.float64)
        out[assigned] = np.asarray(table, dtype=np.float64)[of_vertex[assigned]]
        return out

    uvs, normals = (per_vertex(table, of_vertex)
                    for (_, _, table), of_vertex in zip(attributes, rows_of))

    return Mesh(
        vertices=np.asarray(positions, dtype=np.float64).reshape(nv, 3),
        triangles=triangles,
        normals=normals,
        uvs=uvs,
        colors=np.asarray(vertex_colors, dtype=np.float64) if vertex_colors else None,
    )


def _format_rows(row_fmt: str, table: np.ndarray) -> str:
    """row_fmt once per row of table. Floats go through %r, the shortest
    decimal that reads back to the same double."""
    return (row_fmt * len(table)) % tuple(table.ravel().tolist())


def serialize_obj(mesh: Mesh) -> bytes:
    v = mesh.vertices
    if mesh.colors is not None:
        v = np.concatenate([v, mesh.colors], axis=1)
    text = _format_rows("v" + " %r" * v.shape[1] + "\n", v)
    has_uv = mesh.uvs is not None
    has_n = mesh.normals is not None
    if has_uv:
        text += _format_rows("vt %r %r\n", mesh.uvs)
    if has_n:
        text += _format_rows("vn %r %r %r\n", mesh.normals)
    # a face corner is v, v/vt, v//vn or v/vt/vn; all three are the vertex id
    corner = "%d" + ("/%d" if has_uv else "/" if has_n else "") + ("/%d" if has_n else "")
    ids = np.repeat(mesh.triangles + 1, corner.count("%d"), axis=1)
    text += _format_rows("f" + (" " + corner) * 3 + "\n", ids)
    return (text or "\n").encode("utf-8")
