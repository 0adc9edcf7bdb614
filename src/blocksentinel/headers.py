"""Block header model: 80-byte wire codec, compact difficulty arithmetic,
proof-of-work checks, and the reduced 40-byte chain segment codec.

Wire layout (little-endian):

    version     u32
    prev_hash   32 bytes, internal byte order
    merkle_root 32 bytes, internal byte order
    timestamp   u32, seconds since the Unix epoch
    n_bits      u32, compact difficulty encoding
    nonce       u32

A chain segment stores the first header in full and every later header as a
40-byte record {merkle_root, timestamp, nonce}; version and n_bits changes are
carried as sparse exception records and prev_hash is recomputed while
expanding.
"""

import functools
import hashlib
import operator
import struct
from dataclasses import dataclass, field

from .errors import BrokenLink, InvalidCompact, MalformedSegment, WrongLength

WIRE_SIZE = 80
RECORD_SIZE = 40

_WIRE = struct.Struct("<I32s32sIII")
_RECORD = struct.Struct("<32sII")
_EXC_COUNT = struct.Struct("<H")
_EXC_HEAD = struct.Struct("<HB")
_EXC_VALUE = struct.Struct("<I")

_HAS_VERSION = 0x01
_HAS_NBITS = 0x02

_U32 = 0xFFFFFFFF

# Easiest standard difficulty (about half of all hashes qualify); the
# simulator mines at this target so nonce search stays cheap.
EASY_NBITS = 0x207FFFFF


def sha256d(data: bytes) -> bytes:
    return hashlib.sha256(hashlib.sha256(data).digest()).digest()


@dataclass(frozen=True)
class BlockHeader:
    version: int
    prev_hash: bytes
    merkle_root: bytes
    timestamp: int
    n_bits: int
    nonce: int

    def __post_init__(self):
        if len(self.prev_hash) != 32 or len(self.merkle_root) != 32:
            raise ValueError("prev_hash and merkle_root must be 32 bytes")
        for name in ("version", "timestamp", "n_bits", "nonce"):
            value = getattr(self, name)
            if not 0 <= value <= _U32:
                raise ValueError(f"{name} out of u32 range: {value!r}")

    @functools.cached_property
    def digest(self) -> bytes:
        """Block hash, computed on first use; not a field, so it stays out
        of equality, hashing and repr."""
        return sha256d(encode_wire(self))


_header_fields = operator.attrgetter(
    "version", "prev_hash", "merkle_root", "timestamp", "n_bits", "nonce"
)


def encode_wire(header: BlockHeader) -> bytes:
    """Serialize a header to its canonical 80 bytes."""
    return _WIRE.pack(
        header.version,
        header.prev_hash,
        header.merkle_root,
        header.timestamp,
        header.n_bits,
        header.nonce,
    )


def decode_wire(data: bytes) -> BlockHeader:
    """Parse exactly 80 bytes into a header. Raises WrongLength otherwise."""
    if len(data) != WIRE_SIZE:
        raise WrongLength(f"expected {WIRE_SIZE} bytes, got {len(data)}")
    version, prev_hash, merkle_root, timestamp, n_bits, nonce = _WIRE.unpack(data)
    return BlockHeader(version, prev_hash, merkle_root, timestamp, n_bits, nonce)


def block_hash(header: BlockHeader) -> bytes:
    """Double SHA-256 of the wire bytes, internal byte order."""
    return header.digest


def hash_int(header: BlockHeader) -> int:
    """Block hash as the integer compared against the target."""
    return int.from_bytes(block_hash(header), "little")


def hash_hex(header: BlockHeader) -> str:
    """Block hash in conventional display order (reversed bytes)."""
    return block_hash(header)[::-1].hex()


@functools.lru_cache(maxsize=256)
def target_from_nbits(n_bits: int) -> int:
    """Expand a compact difficulty word into the full 256-bit target.

    value = mantissa * 256**(exponent - 3) with the exponent in the high
    byte and the mantissa in the low three bytes.  Raises InvalidCompact
    for a zero mantissa, a set sign bit, a value that truncates to zero,
    or a value above 2**256 - 1.  Memoised with a bounded cache, because
    peers choose the words.
    """
    if not 0 <= n_bits <= _U32:
        raise InvalidCompact(f"not a u32: {n_bits!r}")
    exponent = n_bits >> 24
    if n_bits & 0x00800000:
        raise InvalidCompact(f"sign bit set: {n_bits:#010x}")
    mantissa = n_bits & 0x007FFFFF
    if mantissa == 0:
        raise InvalidCompact(f"zero mantissa: {n_bits:#010x}")
    if exponent <= 3:
        value = mantissa >> (8 * (3 - exponent))
    else:
        value = mantissa << (8 * (exponent - 3))
    if value == 0:
        raise InvalidCompact(f"target truncates to zero: {n_bits:#010x}")
    if value.bit_length() > 256:
        raise InvalidCompact(f"target overflows 256 bits: {n_bits:#010x}")
    return value


def check_pow(header: BlockHeader) -> bool:
    """True when the header's hash satisfies its own difficulty target."""
    return hash_int(header) <= target_from_nbits(header.n_bits)


@dataclass(frozen=True)
class ReducedHeader:
    """Per-header fields kept verbatim in a segment record."""

    merkle_root: bytes
    timestamp: int
    nonce: int


@dataclass(frozen=True)
class FieldChange:
    """Sparse exception: value of version and/or n_bits from one record on."""

    version: int | None = None
    n_bits: int | None = None


@dataclass(frozen=True)
class CompactChainSegment:
    """A hash-linked run of headers at roughly half wire size.

    `first` is the full anchor header; `reduced[i]` describes the header at
    segment index i + 1; `changes` maps segment indexes to field exceptions.
    """

    first: BlockHeader
    reduced: tuple[ReducedHeader, ...] = ()
    changes: dict[int, FieldChange] = field(default_factory=dict)

    def __len__(self) -> int:
        return 1 + len(self.reduced)


def compress(headers) -> CompactChainSegment:
    """Pack a non-empty, hash-linked header run into a compact segment.

    Raises BrokenLink when a header does not link to its predecessor.
    """
    headers = list(headers)
    if not headers:
        raise ValueError("cannot compress an empty header run")
    first = headers[0]
    version, n_bits = first.version, first.n_bits
    reduced = []
    changes: dict[int, FieldChange] = {}
    prev = first
    for index, header in enumerate(headers[1:], start=1):
        if header.prev_hash != block_hash(prev):
            raise BrokenLink(f"header at segment index {index} does not link")
        if header.version != version or header.n_bits != n_bits:
            changes[index] = FieldChange(
                version=header.version if header.version != version else None,
                n_bits=header.n_bits if header.n_bits != n_bits else None,
            )
            version, n_bits = header.version, header.n_bits
        reduced.append(ReducedHeader(header.merkle_root, header.timestamp, header.nonce))
        prev = header
    return CompactChainSegment(first, tuple(reduced), changes)


def expand(segment: CompactChainSegment, known=()) -> list[BlockHeader]:
    """Rebuild the full header run, recomputing every prev_hash link.

    `known` is a held run at the segment's heights.  While the rebuilt
    headers equal it, its objects, and so their cached hashes, are reused;
    only from the first header that differs are new ones built.
    """
    first = segment.first
    held = bool(known) and known[0] == first
    headers = [known[0] if held else first]
    version, n_bits = first.version, first.n_bits
    for index, record in enumerate(segment.reduced, start=1):
        change = segment.changes.get(index)
        if change is not None:
            if change.version is not None:
                version = change.version
            if change.n_bits is not None:
                n_bits = change.n_bits
        fields = (version, block_hash(headers[-1]), record.merkle_root, record.timestamp,
                  n_bits, record.nonce)
        held = held and index < len(known) and _header_fields(known[index]) == fields
        headers.append(known[index] if held else BlockHeader(*fields))
    return headers


def serialize_segment(segment: CompactChainSegment) -> bytes:
    """Encode a segment: [80-byte first][40-byte records][u16 count][exceptions].

    Exception records are (u16 index, u8 flags) plus one u32 per flagged
    field, so each occupies 7 or 11 bytes.
    """
    parts = [encode_wire(segment.first)]
    for record in segment.reduced:
        parts.append(_RECORD.pack(record.merkle_root, record.timestamp, record.nonce))
    parts.append(_EXC_COUNT.pack(len(segment.changes)))
    for index in sorted(segment.changes):
        change = segment.changes[index]
        flags = (_HAS_VERSION if change.version is not None else 0) | (
            _HAS_NBITS if change.n_bits is not None else 0
        )
        parts.append(_EXC_HEAD.pack(index, flags))
        if change.version is not None:
            parts.append(_EXC_VALUE.pack(change.version))
        if change.n_bits is not None:
            parts.append(_EXC_VALUE.pack(change.n_bits))
    return b"".join(parts)


def serialized_record_bytes(header_count: int) -> int:
    """Size of the header records alone: 80 bytes plus 40 per later header."""
    if header_count < 1:
        raise ValueError("a segment holds at least one header")
    return WIRE_SIZE + RECORD_SIZE * (header_count - 1)


def parse_segment(data: bytes, header_count: int) -> CompactChainSegment:
    """Decode a segment that is known to carry `header_count` headers.

    The record section is not self-delimiting (40-byte records followed by
    7- or 11-byte exceptions), so the count always travels out of band,
    normally as the payload height range.  Raises MalformedSegment on any
    truncation, trailing bytes, or inconsistent exception record.
    """
    if header_count < 1:
        raise MalformedSegment(f"bad header count: {header_count}")
    need = serialized_record_bytes(header_count) + _EXC_COUNT.size
    if len(data) < need:
        raise MalformedSegment(f"need at least {need} bytes, got {len(data)}")
    first = decode_wire(data[:WIRE_SIZE])
    reduced = []
    offset = WIRE_SIZE
    for _ in range(header_count - 1):
        merkle_root, timestamp, nonce = _RECORD.unpack_from(data, offset)
        reduced.append(ReducedHeader(merkle_root, timestamp, nonce))
        offset += RECORD_SIZE
    (exc_count,) = _EXC_COUNT.unpack_from(data, offset)
    offset += _EXC_COUNT.size
    changes: dict[int, FieldChange] = {}
    for _ in range(exc_count):
        if offset + _EXC_HEAD.size > len(data):
            raise MalformedSegment("truncated exception record")
        index, flags = _EXC_HEAD.unpack_from(data, offset)
        offset += _EXC_HEAD.size
        if flags == 0 or flags & ~(_HAS_VERSION | _HAS_NBITS):
            raise MalformedSegment(f"bad exception flags: {flags:#04x}")
        if not 1 <= index < header_count:
            raise MalformedSegment(f"exception index out of range: {index}")
        if index in changes:
            raise MalformedSegment(f"duplicate exception index: {index}")
        version = n_bits = None
        if flags & _HAS_VERSION:
            if offset + _EXC_VALUE.size > len(data):
                raise MalformedSegment("truncated exception value")
            (version,) = _EXC_VALUE.unpack_from(data, offset)
            offset += _EXC_VALUE.size
        if flags & _HAS_NBITS:
            if offset + _EXC_VALUE.size > len(data):
                raise MalformedSegment("truncated exception value")
            (n_bits,) = _EXC_VALUE.unpack_from(data, offset)
            offset += _EXC_VALUE.size
        changes[index] = FieldChange(version=version, n_bits=n_bits)
    if offset != len(data):
        raise MalformedSegment(f"{len(data) - offset} trailing bytes")
    return CompactChainSegment(first, tuple(reduced), changes)
