"""Wire and segment codec tests, anchored on the well-known first block."""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocksentinel import headers as hdr
from blocksentinel.errors import BrokenLink, InvalidCompact, MalformedSegment, WrongLength
from support import linked_headers

FIRST_BLOCK_HEX = (
    "0100000000000000000000000000000000000000000000000000000000000000"
    "000000003ba3edfd7a7b12b27ac72c3e67768f617fc81bc3888a51323a9fb8aa"
    "4b1e5e4a29ab5f49ffff001d1dac2b7c"
)
FIRST_BLOCK_HASH = "000000000019d6689c085ae165831e934ff763ae46a2a6c172b3f1b60a8ce26f"


def test_first_block_decodes_to_known_fields():
    header = hdr.decode_wire(bytes.fromhex(FIRST_BLOCK_HEX))
    assert header.version == 1
    assert header.prev_hash == bytes(32)
    assert header.timestamp == 1231006505
    assert header.n_bits == 0x1D00FFFF
    assert header.nonce == 2083236893


def test_first_block_hash_and_pow():
    header = hdr.decode_wire(bytes.fromhex(FIRST_BLOCK_HEX))
    assert hdr.hash_hex(header) == FIRST_BLOCK_HASH
    assert hdr.block_hash(header) == bytes.fromhex(FIRST_BLOCK_HASH)[::-1]
    assert hdr.check_pow(header)


def test_wire_roundtrip_is_byte_exact():
    raw = bytes.fromhex(FIRST_BLOCK_HEX)
    assert hdr.encode_wire(hdr.decode_wire(raw)) == raw
    assert len(raw) == hdr.WIRE_SIZE


@pytest.mark.parametrize("size", [0, 79, 81, 160])
def test_decode_rejects_wrong_length(size):
    with pytest.raises(WrongLength):
        hdr.decode_wire(bytes(size))


@given(
    version=st.integers(0, 2**32 - 1),
    prev=st.binary(min_size=32, max_size=32),
    merkle=st.binary(min_size=32, max_size=32),
    timestamp=st.integers(0, 2**32 - 1),
    n_bits=st.integers(0, 2**32 - 1),
    nonce=st.integers(0, 2**32 - 1),
)
def test_wire_roundtrip_any_fields(version, prev, merkle, timestamp, n_bits, nonce):
    header = hdr.BlockHeader(version, prev, merkle, timestamp, n_bits, nonce)
    assert hdr.decode_wire(hdr.encode_wire(header)) == header


@pytest.mark.parametrize("field,value", [("prev_hash", bytes(31)), ("merkle_root", bytes(33))])
def test_header_rejects_bad_digest_length(field, value):
    kwargs = dict(version=1, prev_hash=bytes(32), merkle_root=bytes(32),
                  timestamp=0, n_bits=hdr.EASY_NBITS, nonce=0)
    kwargs[field] = value
    with pytest.raises(ValueError):
        hdr.BlockHeader(**kwargs)


def test_header_rejects_out_of_range_words():
    with pytest.raises(ValueError):
        hdr.BlockHeader(2**32, bytes(32), bytes(32), 0, hdr.EASY_NBITS, 0)
    with pytest.raises(ValueError):
        hdr.BlockHeader(1, bytes(32), bytes(32), -1, hdr.EASY_NBITS, 0)


def test_target_expansion_known_value():
    expected = 0x00000000FFFF0000000000000000000000000000000000000000000000000000
    assert hdr.target_from_nbits(0x1D00FFFF) == expected
    assert hdr.target_from_nbits(hdr.EASY_NBITS) == 0x7FFFFF << (8 * 29)


def test_target_expansion_low_exponents():
    assert hdr.target_from_nbits(0x03000100) == 0x100
    assert hdr.target_from_nbits(0x02000100) == 0x1
    assert hdr.target_from_nbits(0x01010000) == 0x1


@pytest.mark.parametrize(
    "n_bits",
    [
        0x1D800000,  # sign bit
        0x1D000000,  # zero mantissa
        0x01000001,  # truncates to zero
        0x00123456,  # truncates to zero
        0xFF7FFFFF,  # overflows 256 bits
        -1,
        2**32,
    ],
)
def test_target_expansion_rejects_invalid_compacts(n_bits):
    with pytest.raises(InvalidCompact):
        hdr.target_from_nbits(n_bits)


def test_target_memo_is_bounded():
    # Peers choose the compact words, so the memo must not grow with them.
    assert 0 < hdr.target_from_nbits.cache_info().maxsize <= 256


def test_digest_is_cached_outside_the_fields():
    header = hdr.decode_wire(bytes.fromhex(FIRST_BLOCK_HEX))
    twin = hdr.decode_wire(bytes.fromhex(FIRST_BLOCK_HEX))
    assert hdr.block_hash(header) is hdr.block_hash(header)
    assert "digest" in vars(header) and "digest" not in vars(twin)
    assert [f.name for f in dataclasses.fields(header)] == [
        "version", "prev_hash", "merkle_root", "timestamp", "n_bits", "nonce"
    ]
    assert repr(header) == repr(twin) and "digest" not in repr(header)
    assert header == twin and hash(header) == hash(twin)
    bumped = dataclasses.replace(header, nonce=header.nonce + 1)
    assert hdr.block_hash(bumped) == hdr.sha256d(hdr.encode_wire(bumped))
    assert hdr.block_hash(bumped) != hdr.block_hash(header)


def test_check_pow_fails_at_impossible_difficulty():
    header = hdr.BlockHeader(1, bytes(32), bytes(32), 0, 0x03000001, 0)
    assert not hdr.check_pow(header)


# -- compact segments ------------------------------------------------------------


def test_compress_expand_roundtrip_with_field_changes():
    rng = random.Random(7)
    run = linked_headers(3, rng, version=1, n_bits=hdr.EASY_NBITS)
    bumped = hdr.BlockHeader(2, hdr.block_hash(run[-1]), rng.randbytes(32),
                             run[-1].timestamp + 600, 0x207FFFFE, rng.getrandbits(32))
    run.append(bumped)
    segment = hdr.compress(run)
    assert len(segment) == 4
    assert set(segment.changes) == {3}
    assert segment.changes[3] == hdr.FieldChange(version=2, n_bits=0x207FFFFE)
    assert hdr.expand(segment) == run


def test_compress_rejects_broken_link():
    rng = random.Random(8)
    run = linked_headers(4, rng)
    with pytest.raises(BrokenLink):
        hdr.compress([run[0], run[2], run[1], run[3]])


def test_segment_serialization_roundtrip_exact_bytes():
    rng = random.Random(9)
    run = linked_headers(5, rng)
    segment = hdr.compress(run)
    raw = hdr.serialize_segment(segment)
    assert hdr.parse_segment(raw, 5) == segment
    assert len(raw) == hdr.serialized_record_bytes(5) + 2  # no exceptions


def test_record_bytes_accounting():
    assert hdr.serialized_record_bytes(1) == 80
    assert hdr.serialized_record_bytes(2) == 120
    assert hdr.serialized_record_bytes(2016) == 80 + 40 * 2015
    with pytest.raises(ValueError):
        hdr.serialized_record_bytes(0)


def test_exception_records_are_7_or_11_bytes():
    rng = random.Random(10)
    run = linked_headers(2, rng, version=1)
    bumped = hdr.BlockHeader(7, hdr.block_hash(run[-1]), rng.randbytes(32),
                             run[-1].timestamp + 600, run[-1].n_bits, rng.getrandbits(32))
    both = hdr.BlockHeader(9, hdr.block_hash(bumped), rng.randbytes(32),
                           bumped.timestamp + 600, 0x207FFFFE, rng.getrandbits(32))
    raw_one = hdr.serialize_segment(hdr.compress(run + [bumped]))
    assert len(raw_one) == hdr.serialized_record_bytes(3) + 2 + 7
    raw_two = hdr.serialize_segment(hdr.compress(run + [bumped, both]))
    assert len(raw_two) == hdr.serialized_record_bytes(4) + 2 + 7 + 11


@pytest.mark.parametrize(
    "mutate",
    [
        lambda raw: raw[:-1],                           # truncated exception count
        lambda raw: raw + b"\x00",                      # trailing byte
        lambda raw: raw[:80],                           # records cut short
        lambda raw: b"",                                # empty
    ],
)
def test_parse_segment_rejects_malformed_bytes(mutate):
    rng = random.Random(11)
    raw = hdr.serialize_segment(hdr.compress(linked_headers(3, rng)))
    with pytest.raises(MalformedSegment):
        hdr.parse_segment(mutate(raw), 3)


def test_parse_segment_rejects_bad_exception_records():
    rng = random.Random(12)
    base = hdr.serialize_segment(hdr.compress(linked_headers(2, rng)))[:-2]
    import struct

    def with_exceptions(blob):
        return base + struct.pack("<H", 1) + blob

    for blob in (
        struct.pack("<HB", 1, 0x00),                   # no flags
        struct.pack("<HBI", 1, 0x04, 5),               # unknown flag
        struct.pack("<HBI", 0, 0x01, 5),               # index 0 is the anchor
        struct.pack("<HBI", 2, 0x01, 5),               # index beyond run
    ):
        with pytest.raises(MalformedSegment):
            hdr.parse_segment(with_exceptions(blob), 2)
    dup = base + struct.pack("<H", 2) + struct.pack("<HBI", 1, 0x01, 5) * 2
    with pytest.raises(MalformedSegment):
        hdr.parse_segment(dup, 2)
    with pytest.raises(MalformedSegment):
        hdr.parse_segment(base + struct.pack("<H", 0), 0)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_segment_roundtrip_with_random_changes(data):
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    n = data.draw(st.integers(min_value=1, max_value=8))
    run = [None] * n
    prev = bytes(32)
    version, n_bits = 1, hdr.EASY_NBITS
    for i in range(n):
        if i > 0 and data.draw(st.booleans()):
            version = data.draw(st.integers(0, 2**31 - 1))
        if i > 0 and data.draw(st.booleans()):
            n_bits = data.draw(st.sampled_from([hdr.EASY_NBITS, 0x207FFFFE, 0x1D00FFFF]))
        run[i] = hdr.BlockHeader(version, prev, rng.randbytes(32), 600 * i, n_bits, i)
        prev = hdr.block_hash(run[i])
    segment = hdr.compress(run)
    assert hdr.expand(segment) == run
    raw = hdr.serialize_segment(segment)
    assert hdr.parse_segment(raw, n) == segment


def _varied_run(n, rng):
    """Linked headers whose version and n_bits change every few heights."""
    run, prev = [], bytes(32)
    for i in range(n):
        run.append(hdr.BlockHeader(1 + i // 3, prev, rng.randbytes(32), 600 * i,
                                   hdr.EASY_NBITS - i // 4, i))
        prev = hdr.block_hash(run[-1])
    return run


def _differ_at(segment, kind, at):
    """The segment with its header at index `at` changed in one way."""
    if kind == "first":
        return dataclasses.replace(segment, first=dataclasses.replace(segment.first, nonce=7))
    if kind == "record":
        reduced = list(segment.reduced)
        reduced[at - 1] = dataclasses.replace(reduced[at - 1], nonce=reduced[at - 1].nonce + 1)
        return dataclasses.replace(segment, reduced=tuple(reduced))
    running = hdr.expand(segment)[at]
    old = segment.changes.get(at, hdr.FieldChange())
    if kind == "version":
        change = dataclasses.replace(old, version=running.version + 100)
    else:
        change = dataclasses.replace(old, n_bits=running.n_bits ^ 1)
    return dataclasses.replace(segment, changes={**segment.changes, at: change})


@pytest.mark.parametrize("known_size", ["shorter", "longer"])
@pytest.mark.parametrize("kind", ["first", "record", "version", "n_bits", "none"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_expand_reuses_exactly_the_held_prefix(kind, known_size, data):
    base = _varied_run(20, random.Random(data.draw(st.integers(0, 2**32))))
    size = data.draw(st.integers(2, 10))
    lo = data.draw(st.integers(0, 6))
    if known_size == "shorter":
        known = base[lo : lo + data.draw(st.integers(0, size - 1))]
    else:
        known = base[lo : lo + data.draw(st.integers(size, size + 3))]
    # Decoded from bytes, as off the wire: no object is shared with `known`.
    wire = hdr.serialize_segment(hdr.compress(base[lo : lo + size]))
    segment = hdr.parse_segment(wire, size)
    at = {"first": 0, "none": size}.get(kind)
    if at is None:
        at = data.draw(st.integers(1, size - 1))
    if kind != "none":
        segment = _differ_at(segment, kind, at)
    plain = hdr.expand(segment)
    reused = hdr.expand(segment, known)
    assert reused == plain
    held = min(at, len(known))
    assert all(reused[i] is known[i] for i in range(held))
    assert not any(h is k for h in reused[held:] for k in known)
    if held < len(known) and held < size:
        assert reused[held] != known[held]


def test_full_window_segment_record_section():
    rng = random.Random(13)
    run = linked_headers(2016, rng)
    raw = hdr.serialize_segment(hdr.compress(run))
    assert len(raw) == 80 + 40 * 2015 + 2
    reparsed = hdr.parse_segment(raw, 2016)
    assert hdr.expand(reparsed)[-1] == run[-1]
