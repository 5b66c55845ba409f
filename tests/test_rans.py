import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ultron.codec.rans import (
    CodedBlock,
    LANE_SYMBOLS,
    MAX_ALPHABET,
    NUMPY_LANES,
    PROB_TOTAL,
    _decode_lockstep,
    _decode_scalar,
    _encode_lockstep,
    _encode_scalar,
    build_frequency_table,
    decode_block,
    decode_blocks,
    encode_block,
    encode_blocks,
    read_block,
    read_uvarint,
    write_uvarint,
)
from ultron.errors import CorruptStreamError


def coded(symbols):
    """symbols as one block, parsed but not decoded."""
    blob = encode_block(symbols)
    block, end = read_block(blob, 0, len(symbols))
    assert end == len(blob)
    return block


def roundtrip(symbols):
    """The rANS payload of symbols' block, checked to decode back."""
    block = coded(symbols)
    assert np.array_equal(decode_blocks([block])[0], np.asarray(symbols))
    return bytes(block.payload)


def cross_entropy_bytes(symbols, frequencies):
    """Information content of the symbols under the quantized table."""
    probs = np.asarray(frequencies)[np.asarray(symbols)] / PROB_TOTAL
    return float(-np.log2(probs).sum() / 8.0)


def test_single_symbol_emits_only_flush():
    # all ones: the table is [0, PROB_TOTAL], so the coder runs (an all-zero
    # block has a one-entry table and no payload at all)
    payload = roundtrip(np.ones(1000, dtype=int))
    assert 0 < len(payload) <= 8


def test_uniform_four_symbols_two_bits_each():
    symbols = np.tile([0, 1, 2, 3], 250)
    payload = roundtrip(symbols)
    # 2 bits/symbol = 250 bytes + constant flush
    assert len(payload) <= 250 * 1.05 + 4


def test_empty_stream():
    assert roundtrip(np.zeros(0, dtype=int)) == b""
    empty = CodedBlock(0, np.array([PROB_TOTAL - 1, 1]), b"")
    assert len(decode_blocks([empty])[0]) == 0


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
        block = coded(symbols)
        payload = block.payload
        bound = cross_entropy_bytes(symbols, block.frequencies)
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
    symbols = rng.geometric(0.2, n) % 40
    freqs = build_frequency_table(np.bincount(symbols))
    scalar = np.asarray(_encode_scalar(symbols, freqs, lanes))
    words = scalar.astype("<u2")
    assert np.array_equal(_decode_scalar(words, n, freqs, lanes), symbols)
    for batch in (1, 3):
        for vector in _encode_lockstep([symbols] * batch, [freqs] * batch, lanes):
            assert np.array_equal(vector, scalar)
        back = _decode_lockstep([words] * batch, n, [freqs] * batch, lanes)
        assert len(back) == batch
        assert all(np.array_equal(b, symbols) for b in back)


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
        block, offset = read_block(data, offset, len(b))
        parsed.append(block)
    assert offset == len(data)
    for got, want in zip(decode_blocks(parsed), blocks):
        assert np.array_equal(got, want)


def test_single_lane_bytes_pinned():
    # a 2,047-symbol block is the largest that stays on one lane; its bytes
    # are the single-state coder's from before lanes existed, without the
    # symbol count blocks no longer store
    i = np.arange(2047, dtype=np.int64)
    s = i * 40503 % 65536
    blob = encode_block((s * s) >> 26)
    assert len(blob) == 1509
    assert hashlib.sha256(blob).hexdigest() == (
        "321fd5b2eebb472554f2b411ca69f75e379fa3ee09575c4f041c311c5ae2b562"
    )


def _with_payload(blob, payload):
    """blob, an encode_block output, with its payload replaced."""
    alphabet, off = read_uvarint(blob, 0)
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
    lanes = n // LANE_SYMBOLS
    payload = bytes(read_block(blob, 0, n)[0].payload)
    hostile = _with_payload(blob, _hostile_payloads(payload, lanes)[case])
    assert np.array_equal(decode_block(blob, 0, n)[0], symbols)
    tracemalloc.start()
    try:
        with pytest.raises(CorruptStreamError):
            decode_block(hostile, 0, n)
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
    lanes = n // LANE_SYMBOLS
    payload = bytes(read_block(blobs[1], 0, n)[0].payload)
    blobs[1] = _with_payload(blobs[1], _hostile_payloads(payload, lanes)[case])
    data = b"".join(blobs)
    tracemalloc.start()
    try:
        with pytest.raises(CorruptStreamError):
            parsed, offset = [], 0
            for _ in blocks:
                block, offset = read_block(data, offset, n)
                parsed.append(block)
            decode_blocks(parsed)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 3 * n * 8 + (1 << 20)


def test_decode_rejects_wrong_count(rng):
    blob = encode_block(rng.integers(0, 50, 5000))
    for bad_count in (4999, 5001):
        with pytest.raises(CorruptStreamError):
            decode_block(blob, 0, bad_count)


def test_decode_rejects_truncation(rng):
    block = coded(rng.integers(0, 50, 5000))
    with pytest.raises(CorruptStreamError):
        decode_blocks([block._replace(payload=block.payload[:-2])])


def test_block_roundtrip_and_offsets(rng):
    a = rng.integers(0, 16, 300)
    b = rng.integers(0, 200, 500)
    blob = encode_block(a) + encode_block(b)
    da, off = decode_block(blob, 0, 300)
    db, end = decode_block(blob, off, 500)
    assert np.array_equal(da, a) and np.array_equal(db, b)
    assert end == len(blob)


def test_block_count_bound(rng):
    symbols = rng.integers(0, 5, 40)
    blob = encode_block(symbols)
    back, end = decode_block(blob, 0, 40)
    assert np.array_equal(back, symbols) and end == len(blob)
    with pytest.raises(CorruptStreamError):
        decode_block(blob, 0, 39)
    # a caller's count of 2**40 needs a payload of 2**30 lane states: the
    # block's payload is too short, and is refused before allocating
    tracemalloc.start()
    try:
        with pytest.raises(CorruptStreamError, match="invalid length"):
            decode_block(blob, 0, 1 << 40)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_block_frequency_over_total_refused():
    # alphabet 2, then a first frequency past PROB_TOTAL or the int64 range
    for freq in (PROB_TOTAL + 1, 1 << 63):
        blob = (write_uvarint(2) + write_uvarint(freq)
                + write_uvarint(1) + write_uvarint(0))
        with pytest.raises(CorruptStreamError, match="frequency"):
            decode_block(blob, 0, 4)


def test_block_degenerate_is_tiny():
    blob = encode_block(np.zeros(100_000, dtype=int))
    assert len(blob) < 16


def test_symbol_outside_block_format_refused():
    # a table holds symbols 0 .. MAX_ALPHABET - 1 and nothing else
    for symbol in (-1, MAX_ALPHABET):
        with pytest.raises(ValueError):
            encode_block(np.array([0, 1, symbol]))
