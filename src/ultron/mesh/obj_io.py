"""Wavefront OBJ reading and writing.

Supported records: v (with optional per-vertex RGB extension), vt, vn, f.
Faces may be triangles or larger convex polygons (fan-triangulated, count
logged). Polylines and points are rejected. Indices are 1-based; relative
(negative) indices are not supported.

The reader converts in bulk. It splits each line into tokens once and
groups the v, vt, vn and f records with their line numbers. Each group's
numbers go through one np.asarray call, which applies Python's float() or
int() to every token, so the accepted spellings and the doubles are
float()'s and int()'s. The checks run on whole arrays; only when one fails
does the reader look for the failing record, and it raises the error a
line-by-line reader would meet first, with the same class, message and
line.

Float output uses shortest round-trip decimal (repr), so parse(serialize(m))
reproduces arrays bit-exactly.
"""

from __future__ import annotations

import logging
from itertools import chain, compress, repeat

import numpy as np

from ..errors import IndexOutOfRangeError, MeshParseError, UnsupportedElementError
from .model import Mesh

logger = logging.getLogger(__name__)

_NON_TRIANGLE = ("l", "p", "curv", "curv2", "surf")
# the numbers read from a vt or vn record; more are ignored
_READ = {"vt": 2, "vn": 3}
_INT64 = np.iinfo(np.int64)


def _first_refused(tokens, parse):
    """Index of the first token parse refuses, and its ValueError or
    OverflowError."""
    for i, token in enumerate(tokens):
        try:
            parse(token)
        except (ValueError, OverflowError) as exc:
            return i, exc
    raise AssertionError("no token refused")


def _numbers(key, lines, records, refused):
    """The float64 numbers of one group's records, as (values, counts per
    record): all of a v record's 3 or 6, the first 2 of a vt's, the first 3
    of a vn's. A record with another count, and the record of the first
    token float() refuses, are appended to refused; values is then None."""
    sizes = np.fromiter(map(len, records), np.intp, len(records)) - 1
    if key == "v":
        needs = "3 or 6"
        counts = np.where((sizes == 3) | (sizes == 6), sizes, 0)
    else:
        needs = _READ[key]
        counts = np.where(sizes >= needs, needs, 0)
    short = np.flatnonzero(counts == 0)
    if len(short):
        refused.append(MeshParseError(
            f"'{key}' record needs {needs} values, got {sizes[short[0]]}",
            line=lines[short[0]]))
    tokens = list(chain.from_iterable(
        r[1:n + 1] for r, n in zip(records, counts.tolist())))
    try:
        values = np.asarray(tokens, dtype=np.float64)
    except ValueError:
        i, exc = _first_refused(tokens, float)
        row = np.searchsorted(np.cumsum(counts), i, side="right")
        refused.append(MeshParseError(f"bad number in '{key}' record: {exc}",
                                      line=lines[row]))
        return None, counts
    return (None if len(short) else values), counts


def _ints(tokens):
    """tokens through int(), each clamped to the int64 range, and the mask of
    those int() refuses (read as 1)."""
    try:
        return np.asarray(tokens, dtype=np.int64), np.zeros(len(tokens), bool)
    except (ValueError, OverflowError):
        pass
    values = np.ones(len(tokens), dtype=np.int64)
    refused = np.zeros(len(tokens), dtype=bool)
    for i, token in enumerate(tokens):
        try:
            values[i] = min(max(int(token), _INT64.min), _INT64.max)
        except ValueError:
            refused[i] = True
    return values, refused


def _corners(lines, records, refused):
    """The corners of the faces with at least 3, as (ids, line per corner,
    corner count per face, corner tokens): ids is (corners, 3), the 1-based
    v, vt and vn index of each corner, 0 where it names no vt or vn. A face
    with fewer corners and the first corner that is not 'v', 'v/vt', 'v//vn'
    or 'v/vt/vn' with positive indices are appended to refused."""
    sizes = np.fromiter(map(len, records), np.intp, len(records)) - 1
    polygon = sizes >= 3
    if not polygon.all():
        refused.append(MeshParseError("face with fewer than 3 corners",
                                      line=lines[np.argmin(polygon)]))
    sizes = sizes[polygon]
    corners = list(chain.from_iterable(compress((r[1:] for r in records), polygon)))
    line_of = np.repeat(np.asarray(lines, dtype=np.int64)[polygon], sizes)

    # every field of every corner, and the corner and column it sits in;
    # with as many fields as corners, no corner has a slash or an empty field
    fields = "/".join(corners).split("/") if corners else []
    if len(fields) == len(corners):
        slashes = np.zeros(len(corners), dtype=np.intp)
        named = np.ones(len(fields), dtype=bool)
    else:
        slashes = np.fromiter(map(str.count, corners, repeat("/")), np.intp,
                              len(corners))
        named = np.fromiter(map(bool, fields), bool, len(fields))
    widths = slashes + 1
    starts = np.cumsum(widths) - widths
    corner_of = np.repeat(np.arange(len(corners)), widths)
    column = np.arange(len(fields)) - starts[corner_of]
    value = np.zeros(len(fields), dtype=np.int64)
    unreadable = np.zeros(len(fields), dtype=bool)
    value[named], unreadable[named] = _ints(list(compress(fields, named)))

    malformed = (slashes > 2) | ~named[starts]
    bad_field = unreadable | (named & (value <= 0))
    bad = malformed | (np.bincount(corner_of[bad_field], minlength=len(corners)) > 0)
    if bad.any():
        k = int(np.argmax(bad))
        f = starts[k] + int(np.argmax(bad_field[starts[k]:starts[k] + widths[k]]))
        line = int(line_of[k])
        if malformed[k] or unreadable[f]:
            error = MeshParseError(f"bad face corner {corners[k]!r}", line=line)
        elif value[f] < 0:
            error = UnsupportedElementError(
                "relative (negative) OBJ indices are not supported", line=line)
        else:
            error = MeshParseError("OBJ indices are 1-based; 0 is invalid", line=line)
        refused.append(error)
    ids = np.zeros((len(corners), 3), dtype=np.int64)
    kept = column < 3
    ids[corner_of[kept], column[kept]] = value[kept]
    return ids, line_of, sizes, corners


def parse_obj(data: bytes) -> Mesh:
    text = data.decode("utf-8", errors="replace")
    groups = {key: ([], []) for key in ("v", "vt", "vn", "f")}  # lines, records
    refused = []
    for lineno, parts in enumerate(map(str.split, text.splitlines()), start=1):
        if not parts:
            continue
        group = groups.get(parts[0])
        if group is not None:
            group[0].append(lineno)
            group[1].append(parts)
        elif parts[0] in _NON_TRIANGLE:
            refused.append(UnsupportedElementError(
                f"'{parts[0]}' records (non-triangle geometry) are not supported",
                line=lineno,
            ))
            break
        # comments and other records (o, g, s, usemtl, mtllib, ...) are ignored

    v_lines = groups["v"][0]
    positions, widths = _numbers("v", *groups["v"], refused)
    six = np.flatnonzero(widths == 6)
    if len(six):
        after = np.flatnonzero(widths[six[0]:] == 3)
        if len(after):
            refused.append(MeshParseError(
                "mixed presence of per-vertex colors on 'v' records",
                line=v_lines[six[0] + after[0]]))
    texcoords, _ = _numbers("vt", *groups["vt"], refused)
    raw_normals, _ = _numbers("vn", *groups["vn"], refused)
    ids, line_of, sizes, corners = _corners(*groups["f"], refused)
    if refused:
        raise min(refused, key=lambda error: error.line)

    if len(six) and len(six) != len(widths):
        raise MeshParseError("some 'v' records carry colors and some do not")
    fans = int(np.count_nonzero(sizes > 3))
    if fans:
        logger.warning("fan-triangulated %d polygonal faces", fans)

    nv = len(widths)
    positions = positions.reshape(nv, -1) if nv else positions.reshape(0, 3)
    # each triangle's corners, in the order a face lists them
    visits = _fan_triangulate(sizes, np.arange(len(ids))).ravel()
    v, refs = ids[visits, 0] - 1, ids[visits, 1:] - 1  # -1: no vt or vn
    problems = [v >= nv]
    rows_of = []  # per attribute, the table row of every vertex (-1: none)
    attributes = (("uv", "vt", texcoords.reshape(-1, 2)),
                  ("normal", "vn", raw_normals.reshape(-1, 3)))
    for (what, record, table), ref in zip(attributes, refs.T):
        ok = (ref >= 0) & (v < nv)
        of_vertex = np.full(nv, -1, dtype=np.int64)
        # a vertex takes the row the first corner naming one gives it
        vertices, first = np.unique(v[ok], return_index=True)
        of_vertex[vertices] = ref[ok][first]
        conflict = np.zeros(len(v), dtype=bool)
        conflict[ok] = ref[ok] != of_vertex[v[ok]]
        problems += [ref >= len(table), conflict]
        rows_of.append(of_vertex)
    problems = np.stack(problems, axis=1)
    if problems.any():
        visit = int(np.argmax(problems.any(axis=1)))
        check = int(np.argmax(problems[visit]))
        corner = visits[visit]
        line = int(line_of[corner])
        index = int(corners[corner].split("/")[(check + 1) // 2])
        if check == 0:
            raise IndexOutOfRangeError(
                f"vertex index {index} exceeds vertex count {nv}", line=line)
        what, record, table = attributes[(check - 1) // 2]
        if check % 2:
            raise IndexOutOfRangeError(
                f"{what} index {index} exceeds {record} count {len(table)}",
                line=line)
        raise UnsupportedElementError(
            f"vertex {v[visit] + 1} referenced with conflicting {what} indices; "
            "only per-vertex attributes are representable",
            line=line,
        )

    def per_vertex(table, of_vertex):
        assigned = of_vertex >= 0
        if len(table) and len(table) == nv and np.all(
            of_vertex[assigned] == np.flatnonzero(assigned)
        ):
            # one record per vertex with only identity face references: take
            # the table positionally, covering vertices no face mentions
            return table
        if not assigned.any():
            return None
        out = np.zeros((nv, table.shape[1]), dtype=np.float64)
        out[assigned] = table[of_vertex[assigned]]
        return out

    uvs, normals = (per_vertex(table, of_vertex)
                    for (_, _, table), of_vertex in zip(attributes, rows_of))
    return Mesh(
        vertices=positions[:, :3],
        triangles=v.reshape(-1, 3).astype(np.int32),
        normals=normals,
        uvs=uvs,
        colors=positions[:, 3:] if len(six) else None,
    )


def _fan_triangulate(sizes, flat):
    """Polygon (a, b, c, d, ...) gives (a, b, c), (a, c, d), ..."""
    if np.all(sizes == 3):
        return flat.reshape(-1, 3)
    per = sizes - 2
    first = np.repeat(np.cumsum(sizes) - sizes, per)
    step = np.arange(per.sum()) - np.repeat(np.cumsum(per) - per, per) + 1
    return flat[np.stack([first, first + step, first + step + 1], axis=1)]


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
