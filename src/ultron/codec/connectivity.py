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

An Edgebreaker blob is the triangle count m (u32) and the closed vertex
count n_closed (u32, virtual apexes included), the seed count (uvarint,
one seed triangle per component), the CLERS block of m - seeds symbols, one
uvarint offset per S symbol, then 3 * seeds + (C symbols) permutation
entries of bitlen(n_closed - 1) bits each. Every other count follows from
these, so none is stored.

Raw mode delta-codes the flattened index list (zigzag, byte planes) and is
bit-exact; it is the fallback for anything Edgebreaker cannot represent.

A blob of either mode frames itself: it ends where its own counts say, so
it is decoded in place at an offset and returns its end. An Edgebreaker
blob does not store the real vertex count; the decoder takes it from the
segment header. Modes are the segment header's integers: MODE_EDGEBREAKER,
MODE_RAW and MODE_PREVIOUS, the previous segment's triangle array, which
the segment layer resolves without a blob.
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
MODE_PREVIOUS = 2


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


def read_planes(data: bytes, offset: int, count: int,
                nplanes: int) -> tuple[list[CodedBlock], int]:
    """Parse the nplanes byte-plane blocks of count symbols each at offset,
    low plane first, without decoding them. Returns the blocks and their
    end offset."""
    if not 1 <= nplanes <= 8:
        raise CorruptStreamError(f"plane count {nplanes} out of range")
    planes = []
    for _ in range(nplanes):
        plane, offset = read_block(data, offset, count)
        planes.append(plane)
    return planes, offset


def pack_bits(values: np.ndarray, width: int) -> bytes:
    """Fixed-width little-endian bit packing of values below 2**width."""
    v = np.asarray(values, dtype="<u8")
    if len(v) == 0 or width == 0:
        return b""
    low = v.view(np.uint8).reshape(-1, 8)[:, :(width + 7) // 8]
    bits = np.unpackbits(low, axis=1, bitorder="little")[:, :width]
    return np.packbits(bits, bitorder="little").tobytes()


def unpack_bits(data: bytes, count: int, width: int) -> np.ndarray:
    """Inverse of pack_bits for width <= 64."""
    if count == 0 or width == 0:
        return np.zeros(count, dtype=np.int64)
    need = (count * width + 7) // 8
    if len(data) < need:
        raise CorruptStreamError("bit-packed section truncated")
    nbytes = (width + 7) // 8
    bits = np.zeros((count, 8 * nbytes), dtype=np.uint8)
    bits[:, :width] = np.unpackbits(
        np.frombuffer(data[:need], dtype=np.uint8), bitorder="little"
    )[: count * width].reshape(count, width)
    words = np.zeros((count, 8), dtype=np.uint8)
    words[:, :nbytes] = np.packbits(bits, bitorder="little").reshape(count, nbytes)
    return words.view("<u8").reshape(-1).astype(np.int64)


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
    # two edges of each triangle join all three of its vertices
    rows = np.concatenate([tris[:, 0], tris[:, 1]])
    cols = np.concatenate([tris[:, 1], tris[:, 2]])
    adj = coo_matrix(
        (np.ones(len(rows), dtype=np.int8), (rows, cols)),
        shape=(n_vertices, n_vertices),
    )
    n_comp, labels = connected_components(adj, directed=False)
    used = np.zeros(n_vertices, dtype=bool)
    used[tris.reshape(-1)] = True
    v = np.bincount(labels[used], minlength=n_comp)
    f = np.bincount(labels[tris[:, 0]], minlength=n_comp)
    bad = np.flatnonzero((f > 0) & (2 * v - f != 4))  # V - 3F/2 + F == 2
    if len(bad):
        raise EdgebreakerUnsupported(
            f"component has genus > 0 (V={v[bad[0]]}, F={f[bad[0]]})"
        )


# --- the conquest -----------------------------------------------------------

class _ActiveLoops:
    """The active loops of a conquest: the one state machine both coders drive.

    Slot i holds vertex v[i], its loop links next[i] and prev[i], and
    corner[i], the conquered corner facing the edge from v[i] to the next
    slot's vertex; the triangle across that edge is at the corner opposite
    it. The decoder has no corner table and stores -1 there. Slots are only
    appended, so a slot's vertex never changes. The gate is the slot a whose
    edge a -> b is conquered next. Each symbol method conquers the triangle
    (b, a, w) across it, given the new triangle's corners cn facing a -> w
    and cp facing w -> b, rewrites the links it changes in place, moves the
    gate and returns w.
    """

    __slots__ = ("v", "next", "prev", "corner", "stack", "gate")

    def __init__(self):
        self.v, self.next, self.prev, self.corner = [], [], [], []
        self.stack = []  # gates parked by S, resumed by E
        self.gate = -1  # no open loop: between components

    def seed(self, x, y, z, cx, cy, cz):
        """Open a component's loop on triangle (x, y, z); cx faces x -> y."""
        s = len(self.v)
        self.v += (x, y, z)
        self.next += (s + 1, s + 2, s)
        self.prev += (s + 2, s, s + 1)
        self.corner += (cx, cy, cz)
        self.gate = s

    def C(self, w, cn, cp):
        """w is a new vertex: it joins the loop between a and b."""
        a = self.gate
        nxt = self.next
        b = nxt[a]
        s = len(nxt)
        self.v.append(w)
        nxt.append(b)
        self.prev.append(a)
        self.corner.append(cp)
        self.prev[b] = s
        nxt[a] = s
        self.corner[a] = cn
        self.gate = s
        return w

    def R(self, cn):
        """w follows b on the loop: b leaves it."""
        a = self.gate
        nxt = self.next
        nn = nxt[nxt[a]]
        nxt[a] = nn
        self.prev[nn] = a
        self.corner[a] = cn
        return self.v[nn]

    def L(self, cp):
        """w precedes a on the loop: a leaves it."""
        a = self.gate
        prv = self.prev
        pp = prv[a]
        b = self.next[a]
        self.next[pp] = b
        prv[b] = pp
        self.corner[pp] = cp
        self.gate = pp
        return self.v[pp]

    def S(self, s, cn, cp):
        """w is elsewhere on the loop, at slot s: the loop splits in two.

        a -> w -> (the slots after s) is parked; w -> b -> ... -> s is
        conquered first.
        """
        a = self.gate
        v, nxt, prv, corner = self.v, self.next, self.prev, self.corner
        b = nxt[a]
        after = nxt[s]
        s2 = len(v)
        v.append(v[s])
        nxt.append(after)
        prv.append(a)
        corner.append(corner[s])
        prv[after] = s2
        nxt[a] = s2
        nxt[s] = b
        prv[b] = s
        corner[a] = cn
        corner[s] = cp
        self.stack.append(a)
        self.gate = s
        return v[s]

    def E(self):
        """The loop is this triangle: resume a parked loop, if any."""
        nxt = self.next
        w = self.v[nxt[nxt[self.gate]]]
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
    # the conquest reads V and O at scattered corners: a memoryview reads
    # the compact int32 arrays, a list would chase one pointer per entry
    V = memoryview(table.V)
    O = memoryview(table.O)

    tri_visited = bytearray(m)
    vert_seen = bytearray(n_closed)
    perm = []
    clers = []
    offsets = []
    loops = _ActiveLoops()
    sv, sn, sp, sc = loops.v, loops.next, loops.prev, loops.corner
    conquer_C, conquer_R, conquer_L = loops.C, loops.R, loops.L
    emit, add_vertex = clers.append, perm.append

    seeds = 0
    for seed in range(m):
        if tri_visited[seed]:
            continue
        seeds += 1
        tri_visited[seed] = 1
        c = 3 * seed
        x, y, z = V[c], V[c + 1], V[c + 2]
        perm += (x, y, z)
        vert_seen[x] = vert_seen[y] = vert_seen[z] = 1
        loops.seed(x, y, z, c + 2, c, c + 1)

        while True:
            a = loops.gate
            if a < 0:
                break
            c = O[sc[a]]
            t = c // 3
            if tri_visited[t]:
                raise EdgebreakerUnsupported("conquest revisited a triangle")
            tri_visited[t] = 1
            w = V[c]
            # across the gate a -> b lies w -> b -> a: cn faces a -> w, cp w -> b
            k = c - 3 * t
            cn = c - 2 if k == 2 else c + 1
            cp = c + 2 if k == 0 else c - 1
            if not vert_seen[w]:
                vert_seen[w] = 1
                add_vertex(w)
                emit(C)
                conquer_C(w, cn, cp)
                continue
            nn = sn[sn[a]]
            if sv[nn] == w:
                if nn == sp[a]:
                    emit(E)
                    loops.E()
                else:
                    emit(R)
                    conquer_R(cn)
            elif sv[sp[a]] == w:
                emit(L)
                conquer_L(cp)
            else:
                emit(S)
                steps = 2
                s = nn
                while sv[s] != w:
                    s = sn[s]
                    steps += 1
                    if s == a:
                        raise EdgebreakerUnsupported(
                            "split vertex not on the active loop"
                        )
                offsets.append(steps)
                loops.S(s, cn, cp)

    return b"".join([
        struct.pack("<II", m, n_closed),
        write_uvarint(seeds),
        encode_block(np.asarray(clers, dtype=np.int64)),
        *map(write_uvarint, offsets),
        pack_bits(np.asarray(perm, dtype=np.int64), int(n_closed - 1).bit_length()),
    ])


# --- edgebreaker decode -----------------------------------------------------

def _decode_edgebreaker(data: bytes, offset: int,
                        n_real: int) -> tuple[np.ndarray, int]:
    # every count is checked before anything is sized from it
    if len(data) - offset < 8:
        raise CorruptStreamError("connectivity blob too short")
    m, n_closed = struct.unpack_from("<II", data, offset)
    if n_closed < n_real:
        raise CorruptStreamError("virtual vertex count below real count")
    # Each vertex costs at least one permutation bit and a closed genus-0
    # component has F = 2V - 4 triangles, so m < 2 * 8 * (bytes left).
    if m >= 16 * (len(data) - offset):
        raise CorruptStreamError("triangle count exceeds what the blob can hold")
    seeds, offset = read_uvarint(data, offset + 8)
    if not min(m, 1) <= seeds <= m:
        raise CorruptStreamError(f"{seeds} components for {m} triangles")
    # one symbol per triangle except the seed triangle of each component
    clers, offset = decode_block(data, offset, m - seeds)
    offsets = []
    for _ in range(np.count_nonzero(clers == S)):
        steps, offset = read_uvarint(data, offset)
        offsets.append(steps)
    # each component seeds 3 vertices, each C symbol adds one
    n_perm = 3 * seeds + int(np.count_nonzero(clers == C))
    if n_perm > n_closed:
        raise CorruptStreamError("permutation longer than the vertex count")
    width = (n_closed - 1).bit_length()
    need = (n_perm * width + 7) // 8
    perm = unpack_bits(data[offset:offset + need], n_perm, width)
    offset += need
    if np.any(perm >= n_closed):
        raise CorruptStreamError("permutation entry out of range")

    symbols = clers.tolist()
    n_sym = len(symbols)
    # one offset per S symbol, as read above
    split_offsets = iter(offsets)
    triangles = []  # flattened rows
    loops = _ActiveLoops()
    sv, sn, sp = loops.v, loops.next, loops.prev
    conquer_C, conquer_R, conquer_L = loops.C, loops.R, loops.L
    # the triangles so far are one per seed plus one per symbol read
    seeded = 0
    pos = 0
    next_id = 0
    while seeded + pos < m:
        if next_id + 3 > n_perm:
            raise CorruptStreamError("vertex ids exceed permutation")
        triangles += (next_id, next_id + 1, next_id + 2)
        loops.seed(next_id, next_id + 1, next_id + 2, -1, -1, -1)
        next_id += 3
        seeded += 1
        # symbol pos makes triangle seeded + pos + 1: past `last` the
        # triangle count is spent, past n_sym the stream
        last = m - seeded
        stop = min(last, n_sym)

        while True:
            gate = loops.gate
            if gate < 0:
                break
            if pos >= stop:
                raise CorruptStreamError(
                    "loop still open after the last triangle" if pos >= last
                    else "CLERS stream exhausted early"
                )
            sym = symbols[pos]
            pos += 1
            a, b = sv[gate], sv[sn[gate]]
            if sym == C:
                if next_id >= n_perm:
                    raise CorruptStreamError("vertex ids exceed permutation")
                w = conquer_C(next_id, -1, -1)
                next_id += 1
            elif sym == R:
                w = conquer_R(-1)
            elif sym == L:
                w = conquer_L(-1)
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

    mapped = perm[np.asarray(triangles, dtype=np.int64).reshape(-1, 3)]
    real = ~np.any(mapped >= n_real, axis=1)
    return mapped[real].astype(np.int32), offset


# --- raw mode ---------------------------------------------------------------

def _encode_raw(triangles: np.ndarray) -> bytes:
    tris = np.asarray(triangles, dtype=np.int64).reshape(-1, 3)
    flat = tris.reshape(-1)
    deltas = np.diff(flat, prepend=0)
    zz = zigzag(deltas)
    top = int(zz.max()) if len(zz) else 0
    nplanes = max((top.bit_length() + 7) // 8, 1)
    return b"".join([struct.pack("<IB", len(tris), nplanes),
                     *encode_blocks(split_planes(zz, nplanes))])


def _decode_raw(data: bytes, offset: int) -> tuple[np.ndarray, int]:
    if len(data) - offset < 5:
        raise CorruptStreamError("raw connectivity blob too short")
    count, nplanes = struct.unpack_from("<IB", data, offset)
    planes, offset = read_planes(data, offset + 5, 3 * count, nplanes)
    flat = np.cumsum(unzigzag(join_planes(decode_blocks(planes))))
    tris = flat.reshape(-1, 3)
    if len(tris) and tris.min() < 0:
        raise CorruptStreamError("negative vertex index after delta decode")
    return tris.astype(np.int32), offset


# --- public surface ---------------------------------------------------------

def encode_connectivity(source, mode: int) -> bytes:
    """Encode triangle connectivity: MODE_EDGEBREAKER takes a CornerTable
    (manifold input), MODE_RAW a triangle index array. Raises
    EdgebreakerUnsupported when the traversal coder cannot represent the
    input."""
    if mode == MODE_EDGEBREAKER:
        return _encode_edgebreaker(source)
    return _encode_raw(source)


def decode_connectivity(data: bytes, offset: int, mode: int,
                        vertex_count: int) -> tuple[np.ndarray, int]:
    """Decode the MODE_EDGEBREAKER or MODE_RAW blob at offset of a segment
    with vertex_count vertices; returns the triangles and the blob's end."""
    if mode == MODE_EDGEBREAKER:
        return _decode_edgebreaker(data, offset, vertex_count)
    return _decode_raw(data, offset)
