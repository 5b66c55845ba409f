import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultron.codec.rans import (
    PROB_TOTAL,
    SymbolStream,
    build_frequency_table,
    cross_entropy_bytes,
    decode_block,
    encode_block,
    rans_decode,
    rans_encode,
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


def test_frequency_table_sums_and_keeps_occurring_symbols(rng):
    for _ in range(100):
        counts = rng.integers(0, 1000, rng.integers(1, 500))
        table = build_frequency_table(counts)
        assert table.sum() == PROB_TOTAL
        assert np.all(table[counts > 0] >= 1)


def test_frequency_table_many_rare_symbols():
    # forces the "take back from large buckets" path
    counts = np.concatenate([[10_000_000], np.ones(3000, dtype=int)])
    table = build_frequency_table(counts)
    assert table.sum() == PROB_TOTAL
    assert np.all(table[1:] == 1)


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
