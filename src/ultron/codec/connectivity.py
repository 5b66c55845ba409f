"""Connectivity coding: traversal-based (Edgebreaker CLERS) and raw modes.

Edgebreaker mode covers orientable genus-0 manifolds with boundary, in any
number of components. Boundary loops are closed with one virtual apex per
hole before coding, so the conquest machinery only ever sees closed
manifolds; the decoder strips the virtual fans afterwards. The conquest
follows the closed mesh's corner table: each active-loop slot keeps the
conquered corner facing its outgoing edge, whose opposite corner is the apex
of the next triangle. Split symbols carry explicit offsets in a side list.
A stored permutation maps traversal ranks back to input vertex ids, so
decoded triangles reference the original vertex order (attribute streams
stay aligned); the triangle list itself comes back in conquest order with
rotated corners, i.e. the same mesh, not the same array.

Raw mode delta-codes the flattened index list (zigzag, byte planes) and is
bit-exact; it is the fallback for anything Edgebreaker cannot represent.
"""

from __future__ import annotations

import struct

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from ..errors import CorruptStreamError, EdgebreakerUnsupported
from ..mesh import BOUNDARY, CornerTable, NonManifoldReport
from ..mesh.corner_table import corner_table_from_triangles
from .rans import decode_block, encode_block, read_uvarint, write_uvarint

C, L, E, R, S = range(5)

MODE_EDGEBREAKER = 0
MODE_RAW = 1


# --- helpers ----------------------------------------------------------------

def zigzag(values: np.ndarray) -> np.ndarray:
    v = np.asarray(values, dtype=np.int64)
    return np.where(v >= 0, 2 * v, -2 * v - 1)


def unzigzag(values: np.ndarray) -> np.ndarray:
    v = np.asarray(values, dtype=np.int64)
    return np.where(v & 1, -((v + 1) // 2), v // 2)


def split_planes(values: np.ndarray, nplanes: int) -> list[np.ndarray]:
    v = np.asarray(values, dtype=np.int64)
    return [(v >> (8 * p)) & 0xFF for p in range(nplanes)]


def join_planes(planes: list[np.ndarray]) -> np.ndarray:
    out = np.zeros(len(planes[0]), dtype=np.int64)
    for p, plane in enumerate(planes):
        out |= plane.astype(np.int64) << (8 * p)
    return out


def encode_planes(values: np.ndarray, nplanes: int) -> bytes:
    """One 256-symbol entropy block per byte plane, low plane first."""
    return b"".join(encode_block(p, 256) for p in split_planes(values, nplanes))


def decode_planes(data: bytes, offset: int, count: int,
                  nplanes: int) -> np.ndarray:
    """Inverse of encode_planes for the blocks from offset to the end of data;
    every plane must hold exactly count symbols."""
    if not 1 <= nplanes <= 8:
        raise CorruptStreamError(f"plane count {nplanes} out of range")
    planes = []
    for _ in range(nplanes):
        plane, offset = decode_block(data, offset, max_count=count)
        if len(plane) != count:
            raise CorruptStreamError("plane symbol count mismatch")
        planes.append(plane)
    if offset != len(data):
        raise CorruptStreamError("trailing bytes after byte planes")
    return join_planes(planes)


def pack_bits(values: np.ndarray, width: int) -> bytes:
    """Fixed-width little-endian bit packing."""
    v = np.asarray(values, dtype=np.uint64)
    n = len(v)
    if n == 0 or width == 0:
        return b""
    bits = ((v[:, None] >> np.arange(width, dtype=np.uint64)) & 1).astype(np.uint8)
    return np.packbits(bits.reshape(-1), bitorder="little").tobytes()


def unpack_bits(data: bytes, count: int, width: int) -> np.ndarray:
    if count == 0 or width == 0:
        return np.zeros(count, dtype=np.int64)
    need = (count * width + 7) // 8
    if len(data) < need:
        raise CorruptStreamError("bit-packed section truncated")
    bits = np.unpackbits(
        np.frombuffer(data[:need], dtype=np.uint8), bitorder="little"
    )[: count * width].reshape(count, width)
    return (bits.astype(np.int64) << np.arange(width, dtype=np.int64)).sum(axis=1)


# --- hole closure -----------------------------------------------------------

def _close_holes(table: CornerTable) -> tuple[np.ndarray, int]:
    """Cap every boundary loop with a fan around a fresh virtual apex."""
    tris = table.triangles().astype(np.int64)
    n_real = table.vertex_count
    boundary = np.flatnonzero(table.O == BOUNDARY)
    if len(boundary) == 0:
        return tris, n_real

    nxt = boundary + 1 - 3 * (boundary % 3 == 2)
    prv = boundary - 1 + 3 * (boundary % 3 == 0)
    # boundary edge as traversed by its (only) triangle: u -> v
    starts = table.V[nxt].astype(np.int64)
    ends = table.V[prv].astype(np.int64)
    follow = dict(zip(starts.tolist(), ends.tolist()))
    if len(follow) != len(boundary):
        raise EdgebreakerUnsupported("boundary is not a union of simple loops")

    extra = []
    apex = n_real
    seen = set()
    for u0 in starts.tolist():
        if u0 in seen:
            continue
        u = u0
        while True:
            seen.add(u)
            v = follow[u]
            # closure triangle traverses v -> u, opposite the mesh triangle
            extra.append((v, u, apex))
            u = v
            if u == u0:
                break
        apex += 1
    closed = np.concatenate([tris, np.asarray(extra, dtype=np.int64)], axis=0)
    return closed, apex


def _check_genus_zero(tris: np.ndarray, n_vertices: int) -> None:
    """Every closed component must satisfy V - E + F = 2."""
    flat = tris.reshape(-1)
    rows = np.concatenate([tris[:, 0], tris[:, 1], tris[:, 2]])
    cols = np.concatenate([tris[:, 1], tris[:, 2], tris[:, 0]])
    adj = coo_matrix(
        (np.ones(len(rows), dtype=np.int8), (rows, cols)),
        shape=(n_vertices, n_vertices),
    )
    n_comp, labels = connected_components(adj, directed=False)
    tri_label = labels[tris[:, 0]]
    used = np.zeros(n_vertices, dtype=bool)
    used[flat] = True
    for comp in np.unique(tri_label):
        v = int(np.count_nonzero(used & (labels == comp)))
        f = int(np.count_nonzero(tri_label == comp))
        if 2 * v - f != 4:  # V - 3F/2 + F == 2
            raise EdgebreakerUnsupported(
                f"component has genus > 0 (V={v}, F={f})"
            )


# --- edgebreaker encode -----------------------------------------------------

def _encode_edgebreaker(table: CornerTable) -> bytes:
    tris_closed, n_closed = _close_holes(table)
    n_real = table.vertex_count
    m = len(tris_closed)
    _check_genus_zero(tris_closed, n_closed)
    if n_closed > n_real:
        table = corner_table_from_triangles(tris_closed, n_closed)
        if isinstance(table, NonManifoldReport):
            raise EdgebreakerUnsupported(f"closed mesh: {table}")
    V = table.V.tolist()
    O = table.O.tolist()

    tri_visited = np.zeros(m, dtype=bool)
    vert_rank = np.full(n_closed, -1, dtype=np.int64)
    perm = []
    clers = []
    offsets = []
    # slot vertex / next / prev, and the conquered corner facing the slot's
    # outgoing edge: the triangle across that edge is at O[sc[slot]]
    sv, sn, sp, sc = [], [], [], []

    def new_slot(w, c):
        sv.append(w)
        sn.append(-1)
        sp.append(-1)
        sc.append(c)
        return len(sv) - 1

    def link(a, b):
        sn[a] = b
        sp[b] = a

    emitted = 0
    next_seed = 0
    while emitted < m:
        while tri_visited[next_seed]:
            next_seed += 1
        t = next_seed
        tri_visited[t] = True
        emitted += 1
        x, y, z = V[3 * t:3 * t + 3]
        for w in (x, y, z):
            vert_rank[w] = len(perm)
            perm.append(w)
        sx = new_slot(x, 3 * t + 2)
        sy = new_slot(y, 3 * t)
        sz = new_slot(z, 3 * t + 1)
        link(sx, sy)
        link(sy, sz)
        link(sz, sx)
        gate = sx
        stack = []

        while True:
            a_slot = gate
            b_slot = sn[a_slot]
            c = O[sc[a_slot]]
            if c == BOUNDARY:
                raise EdgebreakerUnsupported("open edge inside closed conquest")
            t, k = divmod(c, 3)
            if tri_visited[t]:
                raise EdgebreakerUnsupported("conquest revisited a triangle")
            tri_visited[t] = True
            emitted += 1
            w = V[c]
            # across the gate a -> b lies w -> b -> a: cn faces a -> w, cp w -> b
            cn = c - 2 if k == 2 else c + 1
            cp = c + 2 if k == 0 else c - 1

            if vert_rank[w] < 0:
                clers.append(C)
                vert_rank[w] = len(perm)
                perm.append(w)
                s = new_slot(w, cp)
                link(a_slot, s)
                link(s, b_slot)
                sc[a_slot] = cn
                gate = s
                continue
            nn = sn[b_slot]
            pp = sp[a_slot]
            if nn == pp and sv[nn] == w:
                clers.append(E)
                if stack:
                    gate = stack.pop()
                    continue
                break
            if sv[nn] == w:
                clers.append(R)
                link(a_slot, nn)
                sc[a_slot] = cn
                gate = a_slot
            elif sv[pp] == w:
                clers.append(L)
                link(pp, b_slot)
                sc[pp] = cp
                gate = pp
            else:
                clers.append(S)
                steps = 2
                s = nn
                while sv[s] != w:
                    s = sn[s]
                    steps += 1
                    if s == a_slot:
                        raise EdgebreakerUnsupported(
                            "split vertex not on the active loop"
                        )
                offsets.append(steps)
                s2 = new_slot(w, sc[s])
                link(s2, sn[s])
                link(a_slot, s2)
                link(s, b_slot)
                sc[a_slot] = cn
                sc[s] = cp
                stack.append(a_slot)
                gate = s

    head = struct.pack("<III", m, n_real, n_closed)
    clers_blob = encode_block(np.asarray(clers, dtype=np.int64), 5)
    off_blob = b"".join(
        [write_uvarint(len(offsets))] + [write_uvarint(o) for o in offsets]
    )
    width = max(int(n_closed - 1).bit_length(), 1)
    perm_arr = np.asarray(perm, dtype=np.int64)
    perm_blob = (
        write_uvarint(len(perm_arr))
        + write_uvarint(width)
        + pack_bits(perm_arr, width)
    )
    return head + clers_blob + off_blob + perm_blob


# --- edgebreaker decode -----------------------------------------------------

def _read_edgebreaker_head(data: bytes):
    """Header, CLERS block and split offsets of an Edgebreaker blob.

    Returns (m, n_real, n_closed, clers, offsets, clers_end, offsets_end).
    Every count is checked before anything is sized from it.
    """
    if len(data) < 12:
        raise CorruptStreamError("connectivity blob too short")
    m, n_real, n_closed = struct.unpack_from("<III", data, 0)
    if n_closed < n_real:
        raise CorruptStreamError("virtual vertex count below real count")
    # Each vertex costs at least one permutation bit and a closed genus-0
    # component has F = 2V - 4 triangles, so m < 2 * 8 * len(data).
    if m >= 16 * len(data):
        raise CorruptStreamError("triangle count exceeds what the blob can hold")
    # one symbol per triangle except the seed triangle of each component
    clers, clers_end = decode_block(data, 12, max_count=max(m - 1, 0))
    n_off, offset = read_uvarint(data, clers_end)
    if n_off != np.count_nonzero(clers == S):
        raise CorruptStreamError("split offset count differs from S symbols")
    offsets = np.zeros(n_off, dtype=np.int64)
    for i in range(n_off):
        offsets[i], offset = read_uvarint(data, offset)
    return m, n_real, n_closed, clers, offsets, clers_end, offset


def _decode_edgebreaker(data: bytes) -> np.ndarray:
    m, n_real, n_closed, clers, offsets, _, offset = _read_edgebreaker_head(data)
    n_perm, offset = read_uvarint(data, offset)
    width, offset = read_uvarint(data, offset)
    if width > 32 or n_perm > n_closed:
        raise CorruptStreamError("invalid permutation header")
    # each component seeds 3 vertices, each C symbol adds one
    seeds, rest = divmod(n_perm - int(np.count_nonzero(clers == C)), 3)
    if rest or seeds < min(m, 1) or m != len(clers) + seeds:
        raise CorruptStreamError("triangle count disagrees with CLERS stream")
    perm = unpack_bits(data[offset:], n_perm, width)
    offset += (n_perm * width + 7) // 8
    if offset != len(data):
        raise CorruptStreamError("trailing bytes in connectivity blob")
    if np.any(perm >= n_closed):
        raise CorruptStreamError("permutation entry out of range")

    triangles = np.empty((m, 3), dtype=np.int64)
    sv, sn, sp = [], [], []

    def new_slot(w):
        sv.append(w)
        sn.append(-1)
        sp.append(-1)
        return len(sv) - 1

    def link(a, b):
        sn[a] = b
        sp[b] = a

    sym_pos = 0
    off_pos = 0
    next_id = 0
    emitted = 0
    while emitted < m:
        if next_id + 3 > n_perm:
            raise CorruptStreamError("vertex ids exceed permutation")
        triangles[emitted] = (next_id, next_id + 1, next_id + 2)
        emitted += 1
        sx, sy, sz = new_slot(next_id), new_slot(next_id + 1), new_slot(next_id + 2)
        next_id += 3
        link(sx, sy)
        link(sy, sz)
        link(sz, sx)
        gate = sx
        stack = []

        while True:
            if emitted >= m:
                raise CorruptStreamError("too many triangles in CLERS stream")
            if sym_pos >= len(clers):
                raise CorruptStreamError("CLERS stream exhausted early")
            sym = int(clers[sym_pos])
            sym_pos += 1
            a_slot = gate
            b_slot = sn[a_slot]
            a = sv[a_slot]
            b = sv[b_slot]

            if sym == C:
                w = next_id
                next_id += 1
                if w >= n_perm:
                    raise CorruptStreamError("vertex ids exceed permutation")
                triangles[emitted] = (b, a, w)
                emitted += 1
                s = new_slot(w)
                link(a_slot, s)
                link(s, b_slot)
                gate = s
                continue
            if sym == E:
                nn = sn[b_slot]
                if nn != sp[a_slot]:
                    raise CorruptStreamError("E symbol on a loop longer than 3")
                triangles[emitted] = (b, a, sv[nn])
                emitted += 1
                if stack:
                    gate = stack.pop()
                    if emitted == m:
                        raise CorruptStreamError("stack not empty at end")
                    continue
                break
            if sym == R:
                nn = sn[b_slot]
                triangles[emitted] = (b, a, sv[nn])
                emitted += 1
                link(a_slot, nn)
                gate = a_slot
            elif sym == L:
                pp = sp[a_slot]
                triangles[emitted] = (b, a, sv[pp])
                emitted += 1
                link(pp, b_slot)
                gate = pp
            elif sym == S:
                if off_pos >= len(offsets):
                    raise CorruptStreamError("missing split offset")
                steps = int(offsets[off_pos])
                off_pos += 1
                if steps < 2:
                    raise CorruptStreamError("split offset too small")
                s = gate
                for _ in range(steps):
                    s = sn[s]
                    if s == gate:
                        raise CorruptStreamError("split offset wraps the loop")
                triangles[emitted] = (b, a, sv[s])
                emitted += 1
                s2 = new_slot(sv[s])
                link(s2, sn[s])
                link(a_slot, s2)
                link(s, b_slot)
                stack.append(a_slot)
                gate = s
            else:
                raise CorruptStreamError(f"unknown CLERS symbol {sym}")
            if emitted == m:
                raise CorruptStreamError("CLERS ended without closing loop")

    if sym_pos != len(clers) or off_pos != len(offsets):
        raise CorruptStreamError("unused symbols in connectivity blob")
    mapped = perm[triangles]
    real = ~np.any(mapped >= n_real, axis=1)
    return mapped[real].astype(np.int32)


# --- raw mode ---------------------------------------------------------------

def _encode_raw(triangles: np.ndarray) -> bytes:
    tris = np.asarray(triangles, dtype=np.int64).reshape(-1, 3)
    flat = tris.reshape(-1)
    deltas = np.diff(flat, prepend=0)
    zz = zigzag(deltas)
    top = int(zz.max()) if len(zz) else 0
    nplanes = max((top.bit_length() + 7) // 8, 1)
    return struct.pack("<IB", len(tris), nplanes) + encode_planes(zz, nplanes)


def _decode_raw(data: bytes) -> np.ndarray:
    if len(data) < 5:
        raise CorruptStreamError("raw connectivity blob too short")
    count, nplanes = struct.unpack_from("<IB", data, 0)
    flat = np.cumsum(unzigzag(decode_planes(data, 5, 3 * count, nplanes)))
    tris = flat.reshape(-1, 3)
    if len(tris) and tris.min() < 0:
        raise CorruptStreamError("negative vertex index after delta decode")
    return tris.astype(np.int32)


# --- public surface ---------------------------------------------------------

def encode_connectivity(source, mode: str) -> bytes:
    """Encode triangle connectivity.

    mode 'edgebreaker' takes a CornerTable (manifold input); mode 'raw'
    takes a triangle index array (or a CornerTable, whose triangles are
    used). Raises EdgebreakerUnsupported when the traversal coder cannot
    represent the input.
    """
    if mode == "edgebreaker":
        if not isinstance(source, CornerTable):
            raise TypeError("edgebreaker mode needs a CornerTable")
        return _encode_edgebreaker(source)
    if mode == "raw":
        tris = source.triangles() if isinstance(source, CornerTable) else source
        return _encode_raw(np.asarray(tris))
    raise ValueError(f"unknown connectivity mode {mode!r}")


def decode_connectivity(data: bytes, mode: str) -> np.ndarray:
    if mode == "edgebreaker":
        return _decode_edgebreaker(data)
    if mode == "raw":
        return _decode_raw(data)
    raise ValueError(f"unknown connectivity mode {mode!r}")


def connectivity_stats(data: bytes, mode: str) -> dict:
    """Section sizes of an encoded blob, for rate accounting."""
    if mode == "raw":
        return {"total_bytes": len(data)}
    m, _, _, clers, _, clers_end, offsets_end = _read_edgebreaker_head(data)
    return {
        "total_bytes": len(data),
        "triangles": int(m),
        "clers_bytes": clers_end - 12,
        "clers_symbols": len(clers),
        "offset_bytes": offsets_end - clers_end,
        "permutation_bytes": len(data) - offsets_end,
    }
