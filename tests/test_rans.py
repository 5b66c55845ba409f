import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ultron.codec.rans import (
    LANE_SYMBOLS,
    NUMPY_LANES,
    PROB_TOTAL,
    SymbolStream,
    _decode_lockstep,
    _decode_scalar,
    _encode_lockstep,
    _encode_scalar,
    build_frequency_table,
    cross_entropy_bytes,
    decode_block,
    decode_blocks,
    encode_block,
    encode_blocks,
    rans_decode,
    rans_encode,
    read_block,
    read_uvarint,
    write_uvarint,
)
from ultron.errors import CorruptStreamError


def roundtrip(symbols, alphabet=None):
    stream = SymbolStream.from_symbols(symbols, alphabet)
    payload = rans_encode(stream)
    back = rans_decode(payload, len(stream.symbols), stream.frequencies)
    assert np.array_equal(back, np.asarray(symbols))
    return payload


def test_single_symbol_emits_only_flush():
    payload = roundtrip(np.zeros(1000, dtype=int))
    assert len(payload) <= 8


def test_uniform_four_symbols_two_bits_each():
    symbols = np.tile([0, 1, 2, 3], 250)
    payload = roundtrip(symbols)
    # 2 bits/symbol = 250 bytes + constant flush
    assert len(payload) <= 250 * 1.05 + 4


def test_empty_stream():
    stream = SymbolStream.from_symbols(np.zeros(0, dtype=int))
    assert rans_encode(stream) == b""
    assert len(rans_decode(b"", 0, stream.frequencies)) == 0


@given(seed=st.integers(min_value=0, max_value=2**31),
       alphabet=st.integers(min_value=1, max_value=300),
       n=st.integers(min_value=0, max_value=4000))
@settings(max_examples=50, deadline=None)
def test_roundtrip_random(seed, alphabet, n):
    r = np.random.default_rng(seed)
    # random skew: squared uniform concentrates mass on low symbols
    symbols = (r.random(n) ** 2 * alphabet).astype(np.int64)
    roundtrip(symbols)


def test_entropy_bound_on_large_streams(rng):
    for symbols in (
        rng.integers(0, 256, 50_000),
        rng.geometric(0.25, 50_000) % 128,
        np.minimum(rng.poisson(2.0, 50_000), 60),
    ):
        stream = SymbolStream.from_symbols(symbols)
        payload = rans_encode(stream)
        bound = cross_entropy_bytes(symbols, stream.frequencies)
        assert len(payload) <= bound * 1.05 + 8
        # each interleaved lane flushes its own 4-byte final state
        lanes = len(symbols) // LANE_SYMBOLS
        assert len(payload) <= bound + 4 * lanes + 8


def reference_frequency_table(counts):
    """build_frequency_table with its leftover units handed out one by one."""
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
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
        candidates = np.flatnonzero(freqs > 1)
        victim = candidates[np.argmax(freqs[candidates])]
        take = min(-diff, int(freqs[victim]) - 1)
        freqs[victim] -= take
        diff += take
    return freqs


def test_frequency_table_sums_and_keeps_occurring_symbols(rng):
    for _ in range(100):
        counts = rng.integers(0, 1000, rng.integers(1, 500))
        table = build_frequency_table(counts)
        assert table.sum() == PROB_TOTAL
        assert np.all(table[counts > 0] >= 1)
        if counts.sum():
            assert np.array_equal(table, reference_frequency_table(counts))


def test_frequency_table_many_rare_symbols():
    # forces the "take back from large buckets" path
    counts = np.concatenate([[10_000_000], np.ones(3000, dtype=int)])
    table = build_frequency_table(counts)
    assert table.sum() == PROB_TOTAL
    assert np.all(table[1:] == 1)
    assert np.array_equal(table, reference_frequency_table(counts))


@given(seed=st.integers(min_value=0, max_value=2**31),
       alphabet=st.integers(min_value=2, max_value=300),
       n=st.sampled_from([k * LANE_SYMBOLS + d for k in (1, 2, 3) for d in (-1, 0, 1)]
                         + [5 * LANE_SYMBOLS + 1]),
       skewed=st.booleans())
@settings(max_examples=60, deadline=None)
def test_roundtrip_across_lane_boundaries(seed, alphabet, n, skewed):
    r = np.random.default_rng(seed)
    draw = r.random(n) ** 2 if skewed else r.random(n)
    roundtrip((draw * alphabet).astype(np.int64))


@pytest.mark.parametrize("n", [NUMPY_LANES * LANE_SYMBOLS + d for d in (-1, 0, 1)])
@pytest.mark.parametrize("skewed", [False, True])
def test_roundtrip_where_numpy_lanes_start(rng, n, skewed):
    draw = rng.random(n) ** 2 if skewed else rng.random(n)
    roundtrip((draw * 200).astype(np.int64))


@pytest.mark.parametrize("n,lanes", [(1, 1), (2, 1), (2047, 1), (5000, 1),
                                     (2, 2), (5000, 4), (30_000, 29),
                                     (41_000, 41), (41_000, 64)])
def test_numpy_lanes_match_scalar_loop(rng, n, lanes):
    # the lockstep kernel, on the stream alone and on a batch of three
    # copies, gives the scalar loop's words and symbols for every copy
    stream = SymbolStream.from_symbols(rng.geometric(0.2, n) % 40)
    scalar = np.asarray(_encode_scalar(stream.symbols, stream.frequencies, lanes))
    words = scalar.astype("<u2")
    assert np.array_equal(_decode_scalar(words, n, stream.frequencies, lanes),
                          stream.symbols)
    for batch in (1, 3):
        for vector in _encode_lockstep([stream] * batch, lanes):
            assert np.array_equal(vector, scalar)
        back = _decode_lockstep([words] * batch, n, [stream.frequencies] * batch,
                                lanes)
        assert len(back) == batch
        assert all(np.array_equal(b, stream.symbols) for b in back)


# block sizes: empty, one symbol, one lane, the largest single lane, four
# lanes (ten such blocks make a lockstep batch) and numpy lanes on its own
_BATCH_COUNTS = [0, 1, 300, 2047, 4100, NUMPY_LANES * LANE_SYMBOLS + 40]


@given(members=st.lists(st.tuples(st.sampled_from(_BATCH_COUNTS),
                                  st.integers(min_value=1, max_value=10),
                                  st.sampled_from(["zeros", "constant", "skewed",
                                                   "wide"])),
                        min_size=1, max_size=4),
       seed=st.integers(min_value=0, max_value=2**31))
@example(members=[(4100, 10, "skewed"), (_BATCH_COUNTS[-1], 3, "wide"),
                  (0, 2, "zeros"), (1, 2, "constant"), (2047, 2, "skewed")],
         seed=7)
@settings(max_examples=25, deadline=None)
def test_batch_matches_single_blocks(members, seed):
    """encode_blocks gives every block encode_block's bytes, and one
    decode_blocks call gives every block its symbols back, whatever the
    mix of sizes, trivial and empty blocks and their order."""
    r = np.random.default_rng(seed)
    blocks = []
    for count, copies, kind in members:
        copies = min(copies, 3) if count > 10_000 else copies
        for _ in range(copies):
            if kind == "zeros":
                blocks.append(np.zeros(count, dtype=np.int64))
            elif kind == "constant":
                blocks.append(np.full(count, r.integers(1, 256)))
            elif kind == "skewed":
                blocks.append((r.random(count) ** 3 * 256).astype(np.int64))
            else:  # tables past 256 symbols are coded as uint16
                blocks.append(r.integers(0, 300, count))
    blocks = [blocks[i] for i in r.permutation(len(blocks))]
    coded = encode_blocks(blocks)
    assert coded == [encode_block(b) for b in blocks]
    data = b"".join(coded)
    parsed, offset = [], 0
    for b in blocks:
        block, offset = read_block(data, offset, max_count=len(b))
        parsed.append(block)
    assert offset == len(data)
    for got, want in zip(decode_blocks(parsed), blocks):
        assert np.array_equal(got, want)


def test_single_lane_bytes_pinned():
    # a 2,047-symbol block is the largest that stays on one lane; its bytes
    # are the single-state coder's from before lanes existed
    i = np.arange(2047, dtype=np.int64)
    s = i * 40503 % 65536
    blob = encode_block((s * s) >> 26)
    assert len(blob) == 1511
    assert hashlib.sha256(blob).hexdigest() == (
        "0e1f330753f4cfd5665ec7ff758c653569f0c14f8afbbbab1eede10f6914a613"
    )


def _with_payload(blob, payload):
    """blob, an encode_block output, with its payload replaced."""
    _, off = read_uvarint(blob, 0)
    alphabet, off = read_uvarint(blob, off)
    for _ in range(alphabet):
        _, off = read_uvarint(blob, off)
    return blob[:off] + write_uvarint(len(payload)) + payload


def _hostile_payloads(payload, lanes):
    words = np.frombuffer(payload, dtype="<u2").copy()
    head = words.copy()
    head[2 * (lanes // 2)] ^= 0x0100  # the high word of one lane's state
    body = np.flatnonzero(words[2 * lanes:-1] != words[2 * lanes + 1:])
    swapped = words.copy()
    i = 2 * lanes + body[0]
    swapped[[i, i + 1]] = swapped[[i + 1, i]]
    return {
        "short_head": payload[:4 * lanes - 2],
        "flipped_head": head.tobytes(),
        "dropped_last": payload[:-2],
        "extra_word": payload + b"\x00\x00",
        "swapped_words": swapped.tobytes(),
    }


@pytest.mark.parametrize("case", ["short_head", "flipped_head", "dropped_last",
                                  "extra_word", "swapped_words"])
# 4,096 symbols run the scalar loop on 4 lanes, the larger block numpy lanes
@pytest.mark.parametrize("n", [4096, NUMPY_LANES * LANE_SYMBOLS + 5000])
def test_hostile_multi_lane_payloads_refused(rng, n, case):
    symbols = rng.geometric(0.2, n) % 60
    blob = encode_block(symbols)
    stream = SymbolStream.from_symbols(symbols)
    lanes = n // LANE_SYMBOLS
    hostile = _with_payload(blob, _hostile_payloads(rans_encode(stream), lanes)[case])
    assert np.array_equal(decode_block(blob)[0], symbols)
    tracemalloc.start()
    try:
        with pytest.raises(CorruptStreamError):
            decode_block(hostile, 0, max_count=n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * n * 8 + (1 << 20)


@pytest.mark.parametrize("case", ["short_head", "flipped_head", "dropped_last",
                                  "extra_word", "swapped_words"])
# three 4,096-symbol blocks run the scalar loop (12 lanes in all), three of
# the larger size advance their lanes together in numpy lockstep
@pytest.mark.parametrize("n", [4096, NUMPY_LANES * LANE_SYMBOLS + 5000])
def test_hostile_batch_member_refused(rng, n, case):
    blocks = [rng.geometric(0.2, n) % 60 for _ in range(3)]
    blobs = encode_blocks(blocks)
    stream = SymbolStream.from_symbols(blocks[1])
    lanes = n // LANE_SYMBOLS
    blobs[1] = _with_payload(blobs[1],
                             _hostile_payloads(rans_encode(stream), lanes)[case])
    data = b"".join(blobs)
    tracemalloc.start()
    try:
        with pytest.raises(CorruptStreamError):
            parsed, offset = [], 0
            for _ in blocks:
                block, offset = read_block(data, offset, max_count=n)
                parsed.append(block)
            decode_blocks(parsed)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 3 * n * 8 + (1 << 20)


def test_decode_rejects_wrong_count(rng):
    symbols = rng.integers(0, 50, 5000)
    stream = SymbolStream.from_symbols(symbols)
    payload = rans_encode(stream)
    for bad_count in (4999, 5001):
        with pytest.raises(CorruptStreamError):
            rans_decode(payload, bad_count, stream.frequencies)


def test_decode_rejects_truncation(rng):
    symbols = rng.integers(0, 50, 5000)
    stream = SymbolStream.from_symbols(symbols)
    payload = rans_encode(stream)
    with pytest.raises(CorruptStreamError):
        rans_decode(payload[:-2], 5000, stream.frequencies)


def test_block_roundtrip_and_offsets(rng):
    a = rng.integers(0, 16, 300)
    b = rng.integers(0, 200, 500)
    blob = encode_block(a) + encode_block(b)
    da, off = decode_block(blob, 0)
    db, end = decode_block(blob, off)
    assert np.array_equal(da, a) and np.array_equal(db, b)
    assert end == len(blob)


def test_block_count_bound(rng):
    symbols = rng.integers(0, 5, 40)
    blob = encode_block(symbols)
    back, end = decode_block(blob, 0, max_count=40)
    assert np.array_equal(back, symbols) and end == len(blob)
    with pytest.raises(CorruptStreamError):
        decode_block(blob, 0, max_count=39)
    # a one-symbol block declaring 2**40 symbols is refused before allocating
    huge = encode_block(np.zeros(1, dtype=int))
    huge = write_uvarint(1 << 40) + huge[1:]
    tracemalloc.start()
    try:
        with pytest.raises(CorruptStreamError):
            decode_block(huge, 0, max_count=1000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_block_frequency_over_total_refused():
    # count 4, alphabet 2, then a first frequency past the int64 range
    for freq in (PROB_TOTAL + 1, 1 << 63):
        blob = (write_uvarint(4) + write_uvarint(2) + write_uvarint(freq)
                + write_uvarint(1) + write_uvarint(0))
        with pytest.raises(CorruptStreamError, match="frequency"):
            decode_block(blob)


def test_block_degenerate_is_tiny():
    blob = encode_block(np.zeros(100_000, dtype=int))
    assert len(blob) < 16


def test_symbol_outside_declared_alphabet():
    with pytest.raises(ValueError):
        encode_block(np.array([0, 1, 7]), alphabet_size=4)
