"""Range-variant asymmetric numeral systems entropy coder.

32-bit state, 16-bit renormalization, static frequency tables quantized to
a 12-bit total and stored alongside each stream. The encoder walks the
symbols backwards so the decoder emits them forwards; the final encoder
state is flushed as 4 bytes and doubles as an integrity check (the decoder
must land back on the initial state with no bytes left over).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import CorruptStreamError

PROB_BITS = 12
PROB_TOTAL = 1 << PROB_BITS
RANS_L = 1 << 16
MAX_ALPHABET = PROB_TOTAL


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
        for i in range(diff):
            freqs[order[i % len(order)]] += 1
    while diff < 0:
        # too many minimum-1 promotions: take back from the largest buckets
        candidates = np.flatnonzero(freqs > 1)
        victim = candidates[np.argmax(freqs[candidates])]
        take = min(-diff, int(freqs[victim]) - 1)
        freqs[victim] -= take
        diff += take
    assert freqs.sum() == PROB_TOTAL
    return freqs


def rans_encode(stream: SymbolStream) -> bytes:
    """Encode a stream; returns the payload (tables are stored separately)."""
    symbols = stream.symbols
    if len(symbols) == 0:
        return b""
    freqs = stream.frequencies.tolist()
    cums = np.concatenate([[0], np.cumsum(stream.frequencies)[:-1]]).tolist()

    x = RANS_L
    words = []
    emit = words.append
    for s in reversed(symbols.tolist()):
        f = freqs[s]
        if x >= (f << 20):
            emit(x & 0xFFFF)
            x >>= 16
        x = ((x // f) << PROB_BITS) + (x % f) + cums[s]
    emit(x & 0xFFFF)
    emit((x >> 16) & 0xFFFF)
    words.reverse()
    return np.asarray(words, dtype="<u2").tobytes()


def rans_decode(data: bytes, count: int, frequencies) -> np.ndarray:
    """Decode count symbols; raises CorruptStreamError on any inconsistency."""
    if count == 0:
        if len(data):
            raise CorruptStreamError("nonempty payload for empty stream")
        return np.zeros(0, dtype=np.int64)
    if len(data) % 2 or len(data) < 4:
        raise CorruptStreamError("entropy payload has invalid length")
    freqs = np.asarray(frequencies, dtype=np.int64)
    if freqs.sum() != PROB_TOTAL or np.any(freqs < 0):
        raise CorruptStreamError("invalid frequency table")
    cum = np.concatenate([[0], np.cumsum(freqs)[:-1]])
    slot_to_symbol = np.repeat(
        np.arange(len(freqs)), freqs
    ).tolist()  # PROB_TOTAL entries
    freq_list = freqs.tolist()
    cum_list = cum.tolist()

    words = np.frombuffer(data, dtype="<u2").tolist()
    x = (words[0] << 16) | words[1]
    pos = 2
    mask = PROB_TOTAL - 1
    nwords = len(words)
    out = [0] * count
    for i in range(count):
        slot = x & mask
        s = slot_to_symbol[slot]
        out[i] = s
        x = freq_list[s] * (x >> PROB_BITS) + slot - cum_list[s]
        if x < RANS_L:
            if pos >= nwords:
                raise CorruptStreamError("entropy payload truncated")
            x = (x << 16) | words[pos]
            pos += 1
    if x != RANS_L or pos != nwords:
        raise CorruptStreamError("entropy payload failed integrity check")
    return np.asarray(out, dtype=np.int64)


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
