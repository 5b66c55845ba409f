"""Range-variant asymmetric numeral systems entropy coder.

32-bit state, 16-bit renormalization, static frequency tables quantized to
a 12-bit total and stored alongside each stream. The encoder walks the
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
streams are coded in batches: streams of equal count (hence equal K and
equal step count) advance side by side, all their lanes together, in one
numpy lockstep run whose Python loop runs count / K (about LANE_SYMBOLS)
times whatever the number of streams. Each stream keeps its own table and
its own payload. A batch with fewer than NUMPY_LANES lanes in all runs a
scalar loop per stream instead, cycling through its lane states, since one
numpy step costs as much as tens of scalar symbols.
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass(frozen=True)
class SymbolStream:
    """Symbols plus the static table they are coded with.

    The symbols are kept in the narrowest unsigned type of the table.
    """

    symbols: np.ndarray
    frequencies: np.ndarray  # quantized, sums to PROB_TOTAL

    def __post_init__(self):
        syms = np.asarray(self.symbols)
        freqs = np.asarray(self.frequencies, dtype=np.int64)
        if len(freqs) > MAX_ALPHABET:
            raise ValueError(f"alphabet larger than {MAX_ALPHABET}")
        if len(syms) and (syms.min() < 0 or syms.max() >= len(freqs)):
            raise ValueError("symbol outside frequency table")
        syms = syms.astype(_symbol_dtype(len(freqs)), copy=False)
        if len(syms) and np.any(freqs[syms] == 0):
            raise ValueError("symbol with zero quantized frequency")
        object.__setattr__(self, "symbols", syms)
        object.__setattr__(self, "frequencies", freqs)

    @classmethod
    def from_symbols(cls, symbols, alphabet_size: int | None = None):
        syms = np.asarray(symbols)
        if alphabet_size is None:
            alphabet_size = int(syms.max()) + 1 if len(syms) else 1
        counts = np.bincount(syms, minlength=alphabet_size)
        return cls(syms, build_frequency_table(counts))


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


def _by_count(counts) -> dict[int, list[int]]:
    """Indices of equal counts, grouped; each group in input order."""
    groups: dict[int, list[int]] = {}
    for i, count in enumerate(counts):
        groups.setdefault(count, []).append(i)
    return groups


class CodedBlock(NamedTuple):
    """A stream's declared count, its table and its undecoded payload."""

    count: int
    frequencies: np.ndarray
    payload: bytes | memoryview


def rans_encode(stream: SymbolStream) -> bytes:
    """Encode a stream; returns the payload (tables are stored separately)."""
    return _encode_payloads([stream])[0]


def rans_decode(data: bytes, count: int, frequencies) -> np.ndarray:
    """Decode count symbols; raises CorruptStreamError on any inconsistency."""
    return _decode_payloads([CodedBlock(count, frequencies, data)])[0]


def _encode_payloads(streams: list[SymbolStream]) -> list[bytes]:
    """The payload of each stream, equal-count streams coded together."""
    payloads = [b""] * len(streams)
    for count, members in _by_count(len(s.symbols) for s in streams).items():
        if count == 0:
            continue
        lanes = _lane_count(count)
        group = [streams[i] for i in members]
        if lanes * len(group) >= NUMPY_LANES:
            words = _encode_lockstep(group, lanes)
        else:
            words = [_encode_scalar(s.symbols, s.frequencies, lanes) for s in group]
        for i, w in zip(members, words):
            payloads[i] = np.asarray(w, dtype="<u2").tobytes()
    return payloads


def _decode_payloads(blocks: list[CodedBlock]) -> list[np.ndarray]:
    """The symbols of each block, equal-count blocks decoded together.

    Every block's count, payload length and table is checked before any
    block is decoded or anything is sized from it.
    """
    tables = []
    for count, frequencies, payload in blocks:
        freqs = np.asarray(frequencies, dtype=np.int64)
        if count == 0:
            if len(payload):
                raise CorruptStreamError("nonempty payload for empty stream")
        elif len(payload) % 2 or len(payload) < 4 * _lane_count(count):
            raise CorruptStreamError("entropy payload has invalid length")
        elif (len(freqs) > MAX_ALPHABET or freqs.sum() != PROB_TOTAL
              or np.any(freqs < 0)):
            raise CorruptStreamError("invalid frequency table")
        tables.append(freqs)
    out: list[np.ndarray] = [None] * len(blocks)
    for count, members in _by_count(b.count for b in blocks).items():
        group = [tables[i] for i in members]
        if count == 0:
            symbols = [np.zeros(0, dtype=_symbol_dtype(len(f))) for f in group]
        else:
            lanes = _lane_count(count)
            words = [np.frombuffer(blocks[i].payload, dtype="<u2") for i in members]
            if lanes * len(group) >= NUMPY_LANES:
                symbols = _decode_lockstep(words, count, group, lanes)
            else:
                symbols = [_decode_scalar(w, count, f, lanes)
                           for w, f in zip(words, group)]
        for i, s in zip(members, symbols):
            out[i] = s
    return out


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


def _encode_lockstep(streams: list[SymbolStream], lanes: int) -> list[np.ndarray]:
    """_encode_scalar for equal-count streams, every lane of every stream
    advanced by one numpy step at a time.

    Stream b's lanes are row b of the state array, and its symbols index
    its own table at its offset in the stacked tables. One extra table
    entry (frequency PROB_TOTAL, cumulative 0) leaves a state unchanged
    and emits nothing; lanes without a symbol in the last step code it.
    States stay below 2**32: renormalization leaves x < f * 2**20, so
    (x // f) << PROB_BITS plus a remainder and cumulative frequency fits.
    """
    count = len(streams[0].symbols)
    steps, active = _steps(count, lanes)
    tables = [s.frequencies for s in streams]
    offsets = np.cumsum([0] + [len(f) for f in tables])
    freq = np.concatenate(tables + [[PROB_TOTAL]]).astype(np.uint32)
    cum = np.concatenate([_cumulative(f) for f in tables] + [[0]]).astype(np.uint32)
    base = offsets[:-1, None]
    last_base = np.where(np.arange(lanes) < active, base, offsets[-1])

    symbols = np.zeros((len(streams), steps * lanes),
                       dtype=np.result_type(*(s.symbols for s in streams)))
    for row, s in zip(symbols, streams):
        row[:count] = s.symbols
    symbols = symbols.reshape(len(streams), steps, lanes)

    x = np.full((len(streams), lanes), RANS_L, dtype=np.uint32)
    idx = np.empty(x.shape, dtype=np.intp)
    emit = np.empty((steps, len(streams), lanes), dtype=bool)
    words = []  # each step's renormalization words, stream then lane ascending
    for t in range(steps - 1, -1, -1):
        np.add(symbols[:, t], last_base if t == steps - 1 else base, out=idx)
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


def cross_entropy_bytes(symbols, frequencies) -> float:
    """Information content of the symbols under the quantized model."""
    syms = np.asarray(symbols, dtype=np.int64)
    if len(syms) == 0:
        return 0.0
    freqs = np.asarray(frequencies, dtype=np.float64)
    bits = -np.log2(freqs[syms] / PROB_TOTAL)
    return float(bits.sum() / 8.0)


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


def encode_block(symbols, alphabet_size: int | None = None) -> bytes:
    """Self-contained entropy block: count, table, payload length, payload.

    alphabet_size only bounds the symbols; the stored table is trimmed to
    the largest occurring symbol so skewed streams pay almost nothing.
    """
    return encode_blocks([symbols], alphabet_size)[0]


def encode_blocks(blocks, alphabet_size: int | None = None) -> list[bytes]:
    """encode_block of each symbol array, their payloads coded together."""
    streams = []
    for symbols in blocks:
        syms = np.asarray(symbols)
        if alphabet_size is not None and len(syms) and syms.max() >= alphabet_size:
            raise ValueError("symbol outside declared alphabet")
        streams.append(SymbolStream.from_symbols(syms))
    # a one-symbol alphabet carries no information: no payload at all
    coded = [s for s in streams if len(s.frequencies) > 1]
    payloads = iter(_encode_payloads(coded))
    out = []
    for stream in streams:
        payload = next(payloads) if len(stream.frequencies) > 1 else b""
        parts = [write_uvarint(len(stream.symbols))]
        parts.append(write_uvarint(len(stream.frequencies)))
        for f in stream.frequencies.tolist():
            parts.append(write_uvarint(f))
        parts.append(write_uvarint(len(payload)))
        parts.append(payload)
        out.append(b"".join(parts))
    return out


def read_block(
    data: bytes, offset: int = 0, max_count: int | None = None
) -> tuple[CodedBlock, int]:
    """Parse one block written by encode_block without decoding its payload;
    returns the block and its end offset.

    max_count, when given, bounds the declared symbol count: a larger count
    raises CorruptStreamError before anything is sized from it.
    """
    count, offset = read_uvarint(data, offset)
    if max_count is not None and count > max_count:
        raise CorruptStreamError(
            f"entropy block declares {count} symbols, at most {max_count} allowed"
        )
    alphabet, offset = read_uvarint(data, offset)
    if alphabet == 0 or alphabet > MAX_ALPHABET:
        raise CorruptStreamError(f"invalid alphabet size {alphabet}")
    freqs = np.zeros(alphabet, dtype=np.int64)
    for i in range(alphabet):
        freq, offset = read_uvarint(data, offset)
        if freq > PROB_TOTAL:
            raise CorruptStreamError(f"symbol frequency {freq} over {PROB_TOTAL}")
        freqs[i] = freq
    length, offset = read_uvarint(data, offset)
    if offset + length > len(data):
        raise CorruptStreamError("entropy block overruns its container")
    if alphabet == 1:
        if length:
            raise CorruptStreamError("unexpected payload for trivial alphabet")
        if freqs[0] != PROB_TOTAL:
            raise CorruptStreamError("invalid trivial frequency table")
    payload = memoryview(data)[offset:offset + length]
    return CodedBlock(count, freqs, payload), offset + length


def decode_blocks(blocks: list[CodedBlock]) -> list[np.ndarray]:
    """The symbols of blocks parsed by read_block, payloads decoded together."""
    coded = [b for b in blocks if len(b.frequencies) > 1]
    decoded = iter(_decode_payloads(coded))
    return [next(decoded) if len(b.frequencies) > 1
            else np.zeros(b.count, dtype=np.uint8) for b in blocks]


def decode_block(
    data: bytes, offset: int = 0, max_count: int | None = None
) -> tuple[np.ndarray, int]:
    """Decode one block written by encode_block; returns (symbols, end offset).

    max_count bounds the declared symbol count, as in read_block.
    """
    block, end = read_block(data, offset, max_count)
    return decode_blocks([block])[0], end
