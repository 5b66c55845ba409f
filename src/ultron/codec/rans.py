"""Range-variant asymmetric numeral systems entropy coder.

32-bit state, 16-bit renormalization, static frequency tables quantized to
a 12-bit total and stored alongside each stream. A stream's symbol count is
not stored: whoever reads a block passes the count it already knows, and
read_block checks the block against it. The encoder walks the
symbols backwards so the decoder emits them forwards; each final encoder
state is flushed as 4 bytes and doubles as an integrity check (the decoder
must land back on the initial state with no bytes left over).

Large streams are interleaved over K lanes (Giesen, "Interleaved entropy
coders", arXiv:1402.3392): K = max(1, count // LANE_SYMBOLS) is derived
from the symbol count, never stored, and symbol i goes to lane i mod K.
Step t codes symbols tK .. tK + K - 1, one per lane. The payload is K
final states (two u16 words each, high word first, in lane order), then
the renormalization words in the order the decoder reads them: step
ascending, and within a step lane ascending. With one lane this is the
plain single-state layout.

Lanes of different streams are as independent as lanes of one stream, so
streams are coded in batches: encode_blocks and decode_blocks, the entry
points of this layer, take a list of symbol arrays or parsed blocks and
group the streams of equal count (hence equal K and equal step count).
Each group advances side by side, all its lanes together, in one numpy
lockstep run whose Python loop runs count / K (about LANE_SYMBOLS) times
whatever the number of streams. Each stream keeps its own table and its
own payload. A group with fewer than NUMPY_LANES lanes in all runs a
scalar loop per stream instead, cycling through its lane states, since one
numpy step costs as much as tens of scalar symbols. encode_block and
decode_block code one stream alone.
"""

from __future__ import annotations

from itertools import cycle, islice
from typing import NamedTuple

import numpy as np

from ..errors import CorruptStreamError

PROB_BITS = 12
PROB_TOTAL = 1 << PROB_BITS
RANS_L = 1 << 16
MAX_ALPHABET = PROB_TOTAL
# symbols per interleaved lane; each lane's flush costs about 3 bytes, and
# blocks under 2 * LANE_SYMBOLS keep the single-state coder's bytes
LANE_SYMBOLS = 1024
# equal-count streams with at least this many lanes in all advance them in
# numpy lockstep: they take about LANE_SYMBOLS steps either way, and one
# numpy step costs about as much as NUMPY_LANES scalar-loop symbols
# (measured with CPython 3.11 on a Xeon, for one stream and for eight: the
# two loops cross between 40 and 56 lanes, encoding first)
NUMPY_LANES = 40


def _symbol_dtype(alphabet: int):
    """The narrowest unsigned type that holds symbols below alphabet."""
    return np.uint8 if alphabet <= 256 else np.uint16


def build_frequency_table(counts) -> np.ndarray:
    """Quantize symbol counts to a table summing to PROB_TOTAL.

    Every occurring symbol keeps frequency >= 1; the assignment is
    deterministic (largest fractional remainders win ties by index).
    """
    counts = np.asarray(counts, dtype=np.int64)
    if len(counts) > MAX_ALPHABET:
        raise ValueError(f"alphabet larger than {MAX_ALPHABET}")
    total = int(counts.sum())
    if total == 0:
        # empty stream: any valid table works; give everything to symbol 0
        table = np.zeros(max(len(counts), 1), dtype=np.int64)
        table[0] = PROB_TOTAL
        return table
    scaled = counts * (PROB_TOTAL / total)
    freqs = np.floor(scaled).astype(np.int64)
    freqs[(counts > 0) & (freqs == 0)] = 1
    diff = PROB_TOTAL - int(freqs.sum())
    if diff > 0:
        remainders = scaled - np.floor(scaled)
        order = np.lexsort((np.arange(len(counts)), -remainders))
        order = order[counts[order] > 0]
        freqs += np.bincount(order[np.arange(diff) % len(order)],
                             minlength=len(freqs))
    while diff < 0:
        # too many minimum-1 promotions: take back from the largest buckets
        candidates = np.flatnonzero(freqs > 1)
        victim = candidates[np.argmax(freqs[candidates])]
        take = min(-diff, int(freqs[victim]) - 1)
        freqs[victim] -= take
        diff += take
    assert freqs.sum() == PROB_TOTAL
    return freqs


def _lane_count(count: int) -> int:
    """Interleaved lanes for a stream of count symbols."""
    return max(1, count // LANE_SYMBOLS)


def _cumulative(freqs: np.ndarray) -> np.ndarray:
    return np.concatenate([[0], np.cumsum(freqs)[:-1]])


def _by_count(counts, tables) -> dict[int, list[int]]:
    """Indices of the blocks with a payload, grouped by count; each group in
    input order. A block with no symbols, or with a one-symbol table, has no
    payload: it carries no information."""
    groups: dict[int, list[int]] = {}
    for i, (count, freqs) in enumerate(zip(counts, tables)):
        if count and len(freqs) > 1:
            groups.setdefault(count, []).append(i)
    return groups


class CodedBlock(NamedTuple):
    """A stream's count, which its caller knows, its table and its
    undecoded payload."""

    count: int
    frequencies: np.ndarray
    payload: bytes | memoryview


def _encode_scalar(
    symbols: np.ndarray, frequencies: np.ndarray, lanes: int
) -> list[int]:
    """The payload words of symbols coded over lanes states, one at a time."""
    freqs = frequencies.tolist()
    cums = _cumulative(frequencies).tolist()
    states = [RANS_L] * lanes
    words = []
    emit = words.append
    # symbols walk backwards, so lanes cycle downwards from the last one's
    last = (len(symbols) - 1) % lanes
    order = islice(cycle(range(lanes - 1, -1, -1)), lanes - 1 - last, None)
    for s, lane in zip(reversed(symbols.tolist()), order):
        x = states[lane]
        f = freqs[s]
        if x >= (f << 20):
            emit(x & 0xFFFF)
            x >>= 16
        states[lane] = ((x // f) << PROB_BITS) + (x % f) + cums[s]
    for x in reversed(states):
        emit(x & 0xFFFF)
        emit(x >> 16)
    words.reverse()
    return words


def _steps(count: int, lanes: int) -> tuple[int, int]:
    """Lockstep steps for count symbols on lanes lanes, and how many lanes
    code a symbol in the last step."""
    steps = -(-count // lanes)
    return steps, count - (steps - 1) * lanes


def _encode_lockstep(
    symbols: list[np.ndarray], tables: list[np.ndarray], lanes: int
) -> list[np.ndarray]:
    """_encode_scalar for equal-count streams, every lane of every stream
    advanced by one numpy step at a time.

    Stream b's lanes are row b of the state array, and its symbols index
    its own table at its offset in the stacked tables. One extra table
    entry (frequency PROB_TOTAL, cumulative 0) leaves a state unchanged
    and emits nothing; lanes without a symbol in the last step code it.
    States stay below 2**32: renormalization leaves x < f * 2**20, so
    (x // f) << PROB_BITS plus a remainder and cumulative frequency fits.
    """
    count = len(symbols[0])
    steps, active = _steps(count, lanes)
    offsets = np.cumsum([0] + [len(f) for f in tables])
    freq = np.concatenate(tables + [[PROB_TOTAL]]).astype(np.uint32)
    cum = np.concatenate([_cumulative(f) for f in tables] + [[0]]).astype(np.uint32)
    base = offsets[:-1, None]
    last_base = np.where(np.arange(lanes) < active, base, offsets[-1])

    padded = np.zeros((len(symbols), steps * lanes), dtype=np.result_type(*symbols))
    for row, s in zip(padded, symbols):
        row[:count] = s
    padded = padded.reshape(len(symbols), steps, lanes)

    x = np.full((len(symbols), lanes), RANS_L, dtype=np.uint32)
    idx = np.empty(x.shape, dtype=np.intp)
    emit = np.empty((steps, len(symbols), lanes), dtype=bool)
    words = []  # each step's renormalization words, stream then lane ascending
    for t in range(steps - 1, -1, -1):
        np.add(padded[:, t], last_base if t == steps - 1 else base, out=idx)
        f = freq[idx]
        e = np.greater_equal(x >> 20, f, out=emit[t])  # x >= f << 20, in 32 bits
        words.append(x[e])
        x >>= e.view(np.uint8) << 4  # by 16 if emitted
        q, r = np.divmod(x, f)
        np.left_shift(q, PROB_BITS, out=x)
        x += r
        x += cum[idx]
    emitted = emit.sum(axis=2)
    words.reverse()
    words = np.concatenate(words)
    ends = np.cumsum(emitted.ravel()).reshape(emitted.shape)
    payloads = []
    for b, n in enumerate(emitted.T):
        # stream b's words sit in one run per step; gather the runs in order
        runs = np.repeat(ends[:, b] - np.cumsum(n), n)
        runs += np.arange(len(runs))
        flush = np.stack([x[b] >> 16, x[b]], axis=1).ravel()
        payloads.append(np.concatenate([flush, words[runs]]) & 0xFFFF)
    return payloads


def _decode_scalar(
    words: np.ndarray, count: int, freqs: np.ndarray, lanes: int
) -> np.ndarray:
    """Inverse of _encode_scalar; words must hold at least the lane states."""
    slot_to_symbol = np.repeat(
        np.arange(len(freqs)), freqs
    ).tolist()  # PROB_TOTAL entries
    freq_list = freqs.tolist()
    cum_list = _cumulative(freqs).tolist()

    words = words.tolist()
    states = [(words[2 * k] << 16) | words[2 * k + 1] for k in range(lanes)]
    pos = 2 * lanes
    mask = PROB_TOTAL - 1
    nwords = len(words)
    out = []
    emit = out.append
    for lane in islice(cycle(range(lanes)), count):
        x = states[lane]
        slot = x & mask
        s = slot_to_symbol[slot]
        emit(s)
        x = freq_list[s] * (x >> PROB_BITS) + slot - cum_list[s]
        if x < RANS_L:
            if pos >= nwords:
                raise CorruptStreamError("entropy payload truncated")
            x = (x << 16) | words[pos]
            pos += 1
        states[lane] = x
    if any(x != RANS_L for x in states) or pos != nwords:
        raise CorruptStreamError("entropy payload failed integrity check")
    return np.asarray(out, dtype=_symbol_dtype(len(freqs)))


def _decode_lockstep(
    payloads: list[np.ndarray], count: int, tables: list[np.ndarray], lanes: int
) -> list[np.ndarray]:
    """Inverse of _encode_lockstep; each payload must hold at least its
    lane states.

    Each stream reads its own PROB_TOTAL-slot table at its offset in the
    stacked tables and its own words through its own pointer. In the last
    step, lanes without a symbol read one more table that leaves their
    state unchanged, once they are checked to hold the initial state.
    A stream that needs more words than its payload has reads clipped
    words until its overrun is refused after the loop.
    States stay below 2**32: f * (x >> PROB_BITS) + (slot - cum) is at
    most f * 2**20 - 1, and x << 16 only runs when x < 2**16.
    """
    steps, active = _steps(count, lanes)
    slot_symbol = [np.repeat(np.arange(len(f)), f) for f in tables]
    symbol = np.concatenate(slot_symbol + [np.zeros(PROB_TOTAL, dtype=np.intp)])
    symbol = symbol.astype(_symbol_dtype(max(len(f) for f in tables)))
    freq = np.concatenate([f[s] for f, s in zip(tables, slot_symbol)]
                          + [np.full(PROB_TOTAL, PROB_TOTAL)]).astype(np.uint32)
    slots = np.arange(PROB_TOTAL)
    bias = np.concatenate([slots - _cumulative(f)[s] for f, s in zip(tables, slot_symbol)]
                          + [slots]).astype(np.uint32)
    base = (np.arange(len(tables)) * PROB_TOTAL)[:, None]
    last_base = np.where(np.arange(lanes) < active, base, len(tables) * PROB_TOTAL)

    ends = np.cumsum([len(w) for w in payloads])
    starts = ends - [len(w) for w in payloads]
    words = np.concatenate(payloads, dtype=np.uint32)
    head = words[starts[:, None] + np.arange(2 * lanes)]
    x = (head[:, 0::2] << 16) | head[:, 1::2]
    flat = x.reshape(-1)
    pos = starts + 2 * lanes

    out = np.empty((len(tables), steps, lanes), dtype=symbol.dtype)
    idx = np.empty(x.shape, dtype=np.intp)
    edges = np.arange(len(tables) + 1) * lanes  # each stream's first lane
    stream_of = np.repeat(np.arange(len(tables)), lanes)
    rank = np.arange(x.size)
    for t in range(steps):
        if t == steps - 1:
            if np.any(x[:, active:] != RANS_L):
                raise CorruptStreamError("entropy payload failed integrity check")
            base = last_base
        np.bitwise_and(x, PROB_TOTAL - 1, out=idx)
        idx += base
        symbol.take(idx, out=out[:, t], mode="clip")
        x >>= PROB_BITS
        x *= freq[idx]
        x += bias[idx]
        need = (flat < RANS_L).nonzero()[0]
        if len(need):
            # each stream's needy lanes read its next words, lane ascending
            first = need.searchsorted(edges)
            shift = pos - first[:-1]
            src = shift[stream_of[need]]
            src += rank[:len(need)]
            flat[need] = (flat[need] << 16) | words.take(src, mode="clip")
            pos = shift + first[1:]
    if np.any(pos > ends):
        raise CorruptStreamError("entropy payload truncated")
    if np.any(x != RANS_L) or np.any(pos != ends):
        raise CorruptStreamError("entropy payload failed integrity check")
    return [row.reshape(-1)[:count] for row in out]


# --- length-prefixed blocks -------------------------------------------------

def write_uvarint(value: int) -> bytes:
    if value < 0:
        raise ValueError("uvarint must be nonnegative")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def read_uvarint(data: bytes, offset: int) -> tuple[int, int]:
    value = 0
    shift = 0
    while True:
        if offset >= len(data):
            raise CorruptStreamError("truncated varint")
        byte = data[offset]
        offset += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, offset
        shift += 7
        if shift > 63:
            raise CorruptStreamError("oversized varint")


def encode_block(symbols) -> bytes:
    """Entropy block: alphabet, table, payload length, payload. The symbol
    count is not stored: the decoder's caller knows it.

    The stored table is trimmed to the largest occurring symbol so skewed
    streams pay almost nothing.
    """
    return encode_blocks([symbols])[0]


def encode_blocks(blocks) -> list[bytes]:
    """encode_block of each symbol array, equal-count payloads coded together.

    A negative symbol, or one of MAX_ALPHABET or more, raises ValueError.
    """
    symbols = [np.asarray(block) for block in blocks]
    tables = [build_frequency_table(np.bincount(s, minlength=1)) for s in symbols]
    payloads = [b""] * len(symbols)
    for count, members in _by_count(map(len, symbols), tables).items():
        lanes = _lane_count(count)
        syms = [symbols[i] for i in members]
        group = [tables[i] for i in members]
        if lanes * len(members) >= NUMPY_LANES:
            words = _encode_lockstep(syms, group, lanes)
        else:
            words = [_encode_scalar(s, f, lanes) for s, f in zip(syms, group)]
        for i, w in zip(members, words):
            payloads[i] = np.asarray(w, dtype="<u2").tobytes()
    out = []
    for freqs, payload in zip(tables, payloads):
        parts = [write_uvarint(len(freqs))]
        parts += [write_uvarint(f) for f in freqs.tolist()]
        parts += [write_uvarint(len(payload)), payload]
        out.append(b"".join(parts))
    return out


def read_block(data: bytes, offset: int, count: int) -> tuple[CodedBlock, int]:
    """Parse the block of count symbols at offset without decoding its
    payload; returns the block and its end offset.

    This is where a block is checked: its table must sum to PROB_TOTAL, and
    its payload must be empty when it carries no information (no symbols,
    or a one-symbol table) and otherwise hold whole words and every lane's
    final state. A block that passes is safe to size count symbols from
    once the caller has bounded count.
    """
    alphabet, offset = read_uvarint(data, offset)
    if alphabet == 0 or alphabet > MAX_ALPHABET:
        raise CorruptStreamError(f"invalid alphabet size {alphabet}")
    freqs = []
    for _ in range(alphabet):
        freq, offset = read_uvarint(data, offset)
        freqs.append(freq)
    total = sum(freqs)
    if total != PROB_TOTAL:
        raise CorruptStreamError(f"frequency table sums to {total}, not {PROB_TOTAL}")
    length, offset = read_uvarint(data, offset)
    if offset + length > len(data):
        raise CorruptStreamError("entropy block overruns its container")
    if count == 0 or alphabet == 1:
        if length:
            raise CorruptStreamError("nonempty payload for a block without one")
    elif length % 2 or length < 4 * _lane_count(count):
        raise CorruptStreamError("entropy payload has invalid length")
    payload = memoryview(data)[offset:offset + length]
    return CodedBlock(count, np.asarray(freqs, dtype=np.int64), payload), offset + length


def decode_blocks(blocks: list[CodedBlock]) -> list[np.ndarray]:
    """The symbols of blocks parsed by read_block, equal-count payloads
    decoded together."""
    tables = [b.frequencies for b in blocks]
    out: list[np.ndarray] = [None] * len(blocks)
    for count, members in _by_count([b.count for b in blocks], tables).items():
        lanes = _lane_count(count)
        words = [np.frombuffer(blocks[i].payload, dtype="<u2") for i in members]
        group = [tables[i] for i in members]
        if lanes * len(members) >= NUMPY_LANES:
            symbols = _decode_lockstep(words, count, group, lanes)
        else:
            symbols = [_decode_scalar(w, count, f, lanes)
                       for w, f in zip(words, group)]
        for i, s in zip(members, symbols):
            out[i] = s
    # a block without a payload holds its one symbol, or none
    return [np.zeros(b.count, dtype=_symbol_dtype(len(f))) if s is None else s
            for b, f, s in zip(blocks, tables, out)]


def decode_block(data: bytes, offset: int, count: int) -> tuple[np.ndarray, int]:
    """Decode the block of count symbols at offset; returns the symbols and
    the block's end offset."""
    block, end = read_block(data, offset, count)
    return decode_blocks([block])[0], end
