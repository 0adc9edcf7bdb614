"""Shared helpers for building chains, windows, and fixtures in tests."""

import random

from blocksentinel import chainview, sim
from blocksentinel.headers import BlockHeader, block_hash

EPOCH = 1_600_000_000


def linked_headers(n, rng, version=1, n_bits=0x207FFFFF, start_unix=EPOCH):
    """Hash-linked run without proof-of-work search; fine for codec tests."""
    out = []
    prev = bytes(32)
    for i in range(n):
        header = BlockHeader(
            version, prev, rng.randbytes(32), start_unix + 600 * i, n_bits, rng.getrandbits(32)
        )
        out.append(header)
        prev = block_hash(header)
    return out


def mined_chain(n, rng, mean_minutes=10.0):
    return sim.generate_chain(mean_minutes, n, rng=rng)


def mine_suffix(parent, n, rng, n_bits=None, version=2, step_seconds=600):
    """Mine n linked blocks on top of `parent`, PoW-valid."""
    n_bits = parent.n_bits if n_bits is None else n_bits
    stamps = [parent.timestamp + (i + 1) * step_seconds for i in range(n)]
    return sim.mine_chain(block_hash(parent), stamps, n_bits, rng, version)


def window_of(headers, start_height=0, capacity=128):
    window = chainview.HeaderWindow(capacity=capacity)
    for offset, header in enumerate(headers):
        window = chainview.append(window, header, start_height + offset)
    return window


def random_nbits(rng):
    """A compact difficulty word that expands to a valid target."""
    exponent = rng.randint(3, 32)
    mantissa = rng.randint(1, 0x007FFFFF)
    return (exponent << 24) | mantissa


def eclipse_fixture(rng_seed=42, honest_blocks=30, fork_at=20, attacker_blocks=4):
    """Honest chain plus an equal-difficulty attacker branch from `fork_at`.

    Returns (honest, victim_chain) where victim_chain shares the honest
    prefix below fork_at and carries the attacker suffix above it.
    """
    rng = random.Random(rng_seed)
    honest = sim.generate_chain(10.0, honest_blocks, rng=rng)
    suffix = mine_suffix(honest[fork_at - 1], attacker_blocks, random.Random(rng_seed + 1))
    return honest, list(honest[:fork_at]) + suffix
