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

Two loops code this one format. A block of K >= NUMPY_LANES lanes
advances all lanes at once with numpy ops, so its Python loop runs
count / K (about LANE_SYMBOLS) times; smaller blocks run a scalar loop
over the symbols, cycling through the lane states, since one numpy step
costs as much as tens of scalar symbols.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import cycle, islice

import numpy as np

from ..errors import CorruptStreamError

PROB_BITS = 12
PROB_TOTAL = 1 << PROB_BITS
RANS_L = 1 << 16
MAX_ALPHABET = PROB_TOTAL
# symbols per interleaved lane; each lane's flush costs about 3 bytes, and
# blocks under 2 * LANE_SYMBOLS keep the single-state coder's bytes
LANE_SYMBOLS = 1024
# blocks with at least this many lanes advance them in numpy lockstep: a
# block takes about LANE_SYMBOLS steps either way, and one numpy step costs
# about as much as NUMPY_LANES scalar-loop symbols (measured with CPython
# 3.11 on a Xeon: the two loops cross between 32 and 48 lanes)
NUMPY_LANES = 40


@dataclass(frozen=True)
class SymbolStream:
    """Symbols plus the static table they are coded with."""

    symbols: np.ndarray
    frequencies: np.ndarray  # quantized, sums to PROB_TOTAL

    def __post_init__(self):
        syms = np.asarray(self.symbols, dtype=np.int64)
        freqs = np.asarray(self.frequencies, dtype=np.int64)
        if len(syms) and (syms.min() < 0 or syms.max() >= len(freqs)):
            raise ValueError("symbol outside frequency table")
        if len(syms) and np.any(freqs[syms] == 0):
            raise ValueError("symbol with zero quantized frequency")
        object.__setattr__(self, "symbols", syms)
        object.__setattr__(self, "frequencies", freqs)

    @classmethod
    def from_symbols(cls, symbols, alphabet_size: int | None = None):
        syms = np.asarray(symbols, dtype=np.int64)
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


def rans_encode(stream: SymbolStream) -> bytes:
    """Encode a stream; returns the payload (tables are stored separately)."""
    symbols = stream.symbols
    if len(symbols) == 0:
        return b""
    lanes = _lane_count(len(symbols))
    encode = _encode_numpy if lanes >= NUMPY_LANES else _encode_scalar
    words = encode(symbols, stream.frequencies, lanes)
    return np.asarray(words, dtype="<u2").tobytes()


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


def _encode_numpy(
    symbols: np.ndarray, frequencies: np.ndarray, lanes: int
) -> np.ndarray:
    """_encode_scalar with all lanes advanced by one numpy step at a time.

    States stay below 2**32: renormalization leaves x < f * 2**20, so
    (x // f) << PROB_BITS plus a remainder and cumulative frequency fits.
    """
    sym_freq = frequencies.astype(np.uint32)[symbols]
    sym_cum = _cumulative(frequencies).astype(np.uint32)[symbols]
    x = np.full(lanes, RANS_L, dtype=np.uint32)
    steps = []  # each step's renormalization words, lane ascending
    for lo in range((len(symbols) - 1) // lanes * lanes, -1, -lanes):
        f = sym_freq[lo:lo + lanes]
        xs = x[:len(f)]  # the last step may code fewer symbols than lanes
        emit = (xs >> 20) >= f  # x >= f << 20, without overflowing 32 bits
        steps.append(xs[emit])
        np.right_shift(xs, emit.view(np.uint8) << 4, out=xs)  # by 16 if emitted
        q, r = np.divmod(xs, f)
        np.left_shift(q, PROB_BITS, out=xs)
        xs += r
        xs += sym_cum[lo:lo + lanes]
    steps.append(np.stack([x >> 16, x], axis=1).ravel())
    steps.reverse()
    return np.concatenate(steps) & 0xFFFF


def rans_decode(data: bytes, count: int, frequencies) -> np.ndarray:
    """Decode count symbols; raises CorruptStreamError on any inconsistency."""
    if count == 0:
        if len(data):
            raise CorruptStreamError("nonempty payload for empty stream")
        return np.zeros(0, dtype=np.int64)
    lanes = _lane_count(count)
    if len(data) % 2 or len(data) < 4 * lanes:
        raise CorruptStreamError("entropy payload has invalid length")
    freqs = np.asarray(frequencies, dtype=np.int64)
    if freqs.sum() != PROB_TOTAL or np.any(freqs < 0):
        raise CorruptStreamError("invalid frequency table")
    words = np.frombuffer(data, dtype="<u2")
    decode = _decode_numpy if lanes >= NUMPY_LANES else _decode_scalar
    return decode(words, count, freqs, lanes)


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
    return np.asarray(out, dtype=np.int64)


def _decode_numpy(
    words: np.ndarray, count: int, freqs: np.ndarray, lanes: int
) -> np.ndarray:
    """Inverse of _encode_numpy; words must hold at least the lane states.

    States stay below 2**32: f * (x >> PROB_BITS) + (slot - cum) is at
    most f * 2**20 - 1, and x << 16 only runs when x < 2**16.
    """
    slot_symbol = np.repeat(np.arange(len(freqs)), freqs)  # PROB_TOTAL entries
    slot_freq = freqs.astype(np.uint32)[slot_symbol]
    slot_bias = (np.arange(PROB_TOTAL) - _cumulative(freqs)[slot_symbol]).astype(
        np.uint32
    )
    head = words[:2 * lanes].astype(np.uint32)
    x = (head[0::2] << 16) | head[1::2]
    idle = x[:0]  # lanes without a symbol in the last step
    pos = 2 * lanes
    nwords = len(words)
    slots = np.empty(count, dtype=np.uint32)
    for lo in range(0, count, lanes):
        if lo + lanes > count:
            x, idle = x[:count - lo], x[count - lo:]
        slot = np.bitwise_and(x, PROB_TOTAL - 1, out=slots[lo:lo + lanes])
        x >>= PROB_BITS
        x *= slot_freq[slot]
        x += slot_bias[slot]
        need = np.flatnonzero(x < RANS_L)
        if len(need):
            end = pos + len(need)
            if end > nwords:
                raise CorruptStreamError("entropy payload truncated")
            x[need] = (x[need] << 16) | words[pos:end]
            pos = end
    if np.any(x != RANS_L) or np.any(idle != RANS_L) or pos != nwords:
        raise CorruptStreamError("entropy payload failed integrity check")
    return slot_symbol[slots]


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
    syms = np.asarray(symbols, dtype=np.int64)
    if alphabet_size is not None and len(syms) and syms.max() >= alphabet_size:
        raise ValueError("symbol outside declared alphabet")
    stream = SymbolStream.from_symbols(syms)
    # a one-symbol alphabet carries no information: no payload at all
    payload = b"" if len(stream.frequencies) == 1 else rans_encode(stream)
    parts = [write_uvarint(len(stream.symbols))]
    parts.append(write_uvarint(len(stream.frequencies)))
    for f in stream.frequencies.tolist():
        parts.append(write_uvarint(f))
    parts.append(write_uvarint(len(payload)))
    parts.append(payload)
    return b"".join(parts)


def decode_block(
    data: bytes, offset: int = 0, max_count: int | None = None
) -> tuple[np.ndarray, int]:
    """Decode one block written by encode_block; returns (symbols, end offset).

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
        return np.zeros(count, dtype=np.int64), offset
    symbols = rans_decode(data[offset:offset + length], count, freqs)
    return symbols, offset + length
