"""Connectivity coding: traversal-based (Edgebreaker CLERS) and raw modes.

Edgebreaker mode covers orientable genus-0 manifolds with boundary, in any
number of components. Boundary loops are closed with one virtual apex per
hole before coding, so the conquest machinery only ever sees closed
manifolds; the decoder strips the virtual fans afterwards. One conquest
state machine, `_ActiveLoops`, serves both directions: it holds the active
loops and does the loop update for each of the seed, C, L, E, R and S
steps. The encoder picks each symbol from the closed mesh's corner table
(each slot keeps the conquered corner facing its outgoing edge, whose
opposite corner is the apex of the next triangle) and the decoder reads it
from the stream. Split symbols carry explicit offsets in a side list.
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
from .rans import (CodedBlock, decode_block, decode_blocks, encode_block,
                   encode_blocks, read_block, read_uvarint, write_uvarint)

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
    return [((v >> (8 * p)) & 0xFF).astype(np.uint8) for p in range(nplanes)]


def join_planes(planes: list[np.ndarray]) -> np.ndarray:
    out = np.zeros(len(planes[0]), dtype=np.int64)
    for p, plane in enumerate(planes):
        out |= plane.astype(np.int64) << (8 * p)
    return out


def encode_planes(values: np.ndarray, nplanes: int) -> bytes:
    """One 256-symbol entropy block per byte plane, low plane first."""
    return b"".join(encode_blocks(split_planes(values, nplanes), 256))


def read_planes(data: bytes, offset: int, count: int,
                nplanes: int) -> list[CodedBlock]:
    """Parse the blocks encode_planes wrote from offset to the end of data,
    without decoding them; every plane must hold exactly count symbols."""
    if not 1 <= nplanes <= 8:
        raise CorruptStreamError(f"plane count {nplanes} out of range")
    planes = []
    for _ in range(nplanes):
        plane, offset = read_block(data, offset, max_count=count)
        if plane.count != count:
            raise CorruptStreamError("plane symbol count mismatch")
        planes.append(plane)
    if offset != len(data):
        raise CorruptStreamError("trailing bytes after byte planes")
    return planes


def decode_planes(data: bytes, offset: int, count: int,
                  nplanes: int) -> np.ndarray:
    """Inverse of encode_planes for the blocks from offset to the end of data."""
    return join_planes(decode_blocks(read_planes(data, offset, count, nplanes)))


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


# --- the conquest -----------------------------------------------------------

class _ActiveLoops:
    """The active loops of a conquest: the one state machine both coders drive.

    Slot i holds vertex v[i], its loop links next[i] and prev[i], and
    corner[i], the conquered corner facing the edge from v[i] to the next
    slot's vertex; the triangle across that edge is at the corner opposite
    it. The decoder has no corner table and stores -1 there. The gate is the
    slot a whose edge a -> b is conquered next. Each symbol method conquers
    the triangle (b, a, w) across it, given the new triangle's corners cn
    facing a -> w and cp facing w -> b, moves the gate and returns w.
    """

    def __init__(self):
        self.v, self.next, self.prev, self.corner = [], [], [], []
        self.stack = []  # gates parked by S, resumed by E
        self.gate = -1  # no open loop: between components

    def _slot(self, w, c):
        self.v.append(w)
        self.next.append(-1)
        self.prev.append(-1)
        self.corner.append(c)
        return len(self.v) - 1

    def _link(self, a, b):
        self.next[a] = b
        self.prev[b] = a

    def seed(self, x, y, z, cx, cy, cz):
        """Open a component's loop on triangle (x, y, z); cx faces x -> y."""
        sx, sy, sz = self._slot(x, cx), self._slot(y, cy), self._slot(z, cz)
        self._link(sx, sy)
        self._link(sy, sz)
        self._link(sz, sx)
        self.gate = sx

    def C(self, w, cn, cp):
        """w is a new vertex: it joins the loop between a and b."""
        a = self.gate
        s = self._slot(w, cp)
        self._link(s, self.next[a])
        self._link(a, s)
        self.corner[a] = cn
        self.gate = s
        return w

    def R(self, cn):
        """w follows b on the loop: b leaves it."""
        a = self.gate
        nn = self.next[self.next[a]]
        self._link(a, nn)
        self.corner[a] = cn
        return self.v[nn]

    def L(self, cp):
        """w precedes a on the loop: a leaves it."""
        a = self.gate
        pp = self.prev[a]
        self._link(pp, self.next[a])
        self.corner[pp] = cp
        self.gate = pp
        return self.v[pp]

    def S(self, s, cn, cp):
        """w is elsewhere on the loop, at slot s: the loop splits in two.

        a -> w -> (the slots after s) is parked; w -> b -> ... -> s is
        conquered first.
        """
        a = self.gate
        b = self.next[a]
        s2 = self._slot(self.v[s], self.corner[s])
        self._link(s2, self.next[s])
        self._link(a, s2)
        self._link(s, b)
        self.corner[a] = cn
        self.corner[s] = cp
        self.stack.append(a)
        self.gate = s
        return self.v[s]

    def E(self):
        """The loop is this triangle: resume a parked loop, if any."""
        w = self.v[self.next[self.next[self.gate]]]
        self.gate = self.stack.pop() if self.stack else -1
        return w


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

    tri_visited = [False] * m
    vert_rank = [-1] * n_closed
    perm = []
    clers = []
    offsets = []
    loops = _ActiveLoops()
    sv, sn, sp, sc = loops.v, loops.next, loops.prev, loops.corner

    for seed in range(m):
        if tri_visited[seed]:
            continue
        tri_visited[seed] = True
        x, y, z = V[3 * seed:3 * seed + 3]
        for w in (x, y, z):
            vert_rank[w] = len(perm)
            perm.append(w)
        loops.seed(x, y, z, 3 * seed + 2, 3 * seed, 3 * seed + 1)

        while loops.gate >= 0:
            a_slot = loops.gate
            c = O[sc[a_slot]]
            if c == BOUNDARY:
                raise EdgebreakerUnsupported("open edge inside closed conquest")
            t, k = divmod(c, 3)
            if tri_visited[t]:
                raise EdgebreakerUnsupported("conquest revisited a triangle")
            tri_visited[t] = True
            w = V[c]
            # across the gate a -> b lies w -> b -> a: cn faces a -> w, cp w -> b
            cn = c - 2 if k == 2 else c + 1
            cp = c + 2 if k == 0 else c - 1

            if vert_rank[w] < 0:
                clers.append(C)
                vert_rank[w] = len(perm)
                perm.append(w)
                loops.C(w, cn, cp)
                continue
            nn = sn[sn[a_slot]]
            pp = sp[a_slot]
            if nn == pp and sv[nn] == w:
                clers.append(E)
                loops.E()
            elif sv[nn] == w:
                clers.append(R)
                loops.R(cn)
            elif sv[pp] == w:
                clers.append(L)
                loops.L(cp)
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
                loops.S(s, cn, cp)

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
    offsets = []
    for _ in range(n_off):
        steps, offset = read_uvarint(data, offset)
        offsets.append(steps)
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

    symbols = clers.tolist()
    # one offset per S symbol, as _read_edgebreaker_head checked
    split_offsets = iter(offsets)
    triangles = []  # flattened rows
    loops = _ActiveLoops()
    sv, sn, sp = loops.v, loops.next, loops.prev
    sym_pos = 0
    next_id = 0
    while len(triangles) < 3 * m:
        if next_id + 3 > n_perm:
            raise CorruptStreamError("vertex ids exceed permutation")
        triangles += (next_id, next_id + 1, next_id + 2)
        loops.seed(next_id, next_id + 1, next_id + 2, -1, -1, -1)
        next_id += 3

        while loops.gate >= 0:
            if len(triangles) >= 3 * m:
                raise CorruptStreamError("loop still open after the last triangle")
            if sym_pos >= len(symbols):
                raise CorruptStreamError("CLERS stream exhausted early")
            sym = symbols[sym_pos]
            sym_pos += 1
            gate = loops.gate
            a, b = sv[gate], sv[sn[gate]]
            if sym == C:
                if next_id >= n_perm:
                    raise CorruptStreamError("vertex ids exceed permutation")
                w = loops.C(next_id, -1, -1)
                next_id += 1
            elif sym == R:
                w = loops.R(-1)
            elif sym == L:
                w = loops.L(-1)
            elif sym == S:
                steps = next(split_offsets)
                if steps < 2:
                    raise CorruptStreamError("split offset too small")
                s = gate
                for _ in range(steps):
                    s = sn[s]
                    if s == gate:
                        raise CorruptStreamError("split offset wraps the loop")
                w = loops.S(s, -1, -1)
            elif sym == E:
                if sn[sn[gate]] != sp[gate]:
                    raise CorruptStreamError("E symbol on a loop longer than 3")
                w = loops.E()
            else:
                raise CorruptStreamError(f"unknown CLERS symbol {sym}")
            triangles += (b, a, w)

    if sym_pos != len(symbols):
        raise CorruptStreamError("unused symbols in connectivity blob")
    mapped = perm[np.asarray(triangles, dtype=np.int64).reshape(-1, 3)]
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
    takes a triangle index array. Raises EdgebreakerUnsupported when the
    traversal coder cannot represent the input.
    """
    if mode == "edgebreaker":
        if not isinstance(source, CornerTable):
            raise TypeError("edgebreaker mode needs a CornerTable")
        return _encode_edgebreaker(source)
    if mode == "raw":
        return _encode_raw(source)
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
