"""Header chains for the benchmark, mined here with hashlib alone.

The package only ever receives the resulting headers, so its own hashing
and mining code is measured where a workload calls it and nowhere else.
"""

import hashlib
import random
import struct

EASY_NBITS = 0x207FFFFF
HOSTILE_NBITS = 0x1D00FFFF
VERSION = 0x20000000
EPOCH = 1_600_000_000

_WIRE = struct.Struct("<I32s32sIII")


def target(n_bits: int) -> int:
    exponent, mantissa = n_bits >> 24, n_bits & 0x007FFFFF
    return mantissa << (8 * (exponent - 3))


def wire_hash(version, prev, merkle, timestamp, n_bits, nonce) -> bytes:
    wire = _WIRE.pack(version, prev, merkle, timestamp, n_bits, nonce)
    return hashlib.sha256(hashlib.sha256(wire).digest()).digest()


def mine(rng, prev: bytes, timestamp: int, n_bits: int = EASY_NBITS):
    """Fields and hash of the first nonce that meets the target."""
    merkle = rng.randbytes(32)
    limit = target(n_bits)
    nonce = 0
    while True:
        digest = wire_hash(VERSION, prev, merkle, timestamp, n_bits, nonce)
        if int.from_bytes(digest, "little") <= limit:
            return (VERSION, prev, merkle, timestamp, n_bits, nonce), digest
        nonce += 1


class Chain:
    """One honest chain, from height 0, as package `BlockHeader`s."""

    def __init__(self, header_cls, length: int, seed: int):
        rng = random.Random(seed)
        self.header_cls = header_cls
        self.headers = []
        self.wires = []
        self.hashes = []
        prev = bytes(32)
        for height in range(length):
            fields, digest = mine(rng, prev, EPOCH + 600 * height)
            self.headers.append(header_cls(*fields))
            self.wires.append(_WIRE.pack(*fields))
            self.hashes.append(digest)
            prev = digest
        self._seed = seed

    def fork(self, parent_height: int, count: int):
        """`count` valid headers on top of `parent_height`, off the chain."""
        rng = random.Random(f"{self._seed}-fork-{parent_height}")
        prev = self.hashes[parent_height]
        out = []
        for i in range(count):
            # A minute later than the honest block at each height, so no
            # fork header can equal an honest one.
            timestamp = EPOCH + 600 * (parent_height + 1 + i) + 60
            fields, prev = mine(rng, prev, timestamp)
            out.append(self.header_cls(*fields))
        return out

    def hostile(self, parent_height: int, count: int):
        """Linked headers claiming the harder HOSTILE_NBITS without meeting it."""
        rng = random.Random(f"{self._seed}-hostile-{parent_height}")
        prev = self.hashes[parent_height]
        out = []
        limit = target(HOSTILE_NBITS)
        for i in range(count):
            timestamp = EPOCH + 600 * (parent_height + 1 + i)
            merkle = rng.randbytes(32)
            nonce = 0
            while True:
                digest = wire_hash(VERSION, prev, merkle, timestamp, HOSTILE_NBITS, nonce)
                if int.from_bytes(digest, "little") > limit:
                    break
                nonce += 1
            out.append(self.header_cls(VERSION, prev, merkle, timestamp, HOSTILE_NBITS, nonce))
            prev = digest
        return out
