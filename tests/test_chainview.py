"""Window maintenance and strongest-chain comparison tests."""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocksentinel import chainview
from blocksentinel.errors import (
    HeightGap,
    InvalidRemote,
    LinkMismatch,
    PowInvalid,
    RangeMismatch,
)
from blocksentinel.headers import BlockHeader, EASY_NBITS, block_hash, target_from_nbits
from support import audit, linked_headers, mine_suffix, mined_chain, random_nbits, window_of


@pytest.fixture(scope="module")
def chain():
    return mined_chain(40, random.Random(501))


def test_empty_window_accepts_any_anchor_height(chain):
    window = chainview.append(chainview.HeaderWindow(), chain[12], 700)
    assert window.span() == chainview.HeaderRange(700, 700)
    assert window.tip() == chain[12]


def test_append_validates_height_link_and_pow(chain):
    window = window_of(chain[:3])
    with pytest.raises(HeightGap):
        chainview.append(window, chain[4], 4)
    with pytest.raises(LinkMismatch):
        chainview.append(window, chain[7], 3)
    impossible = BlockHeader(1, block_hash(chain[2]), bytes(32), 0, 0x03000001, 0)
    with pytest.raises(PowInvalid):
        chainview.append(window, impossible, 3)


def test_append_evicts_fifo(chain):
    window = window_of(chain[:8], capacity=5)
    assert len(window) == 5
    assert window.span() == chainview.HeaderRange(3, 7)
    assert window.headers[0] == chain[3]


def test_window_accessors(chain):
    window = window_of(chain[:6], start_height=100)
    assert window.tip_height() == 105
    assert window.get(102) == chain[2]
    with pytest.raises(KeyError):
        window.get(99)
    empty = chainview.HeaderWindow()
    assert empty.is_empty() and empty.span() is None
    with pytest.raises(ValueError):
        empty.tip()


def test_window_capacity_validation(chain):
    with pytest.raises(ValueError):
        chainview.HeaderWindow(capacity=0)
    with pytest.raises(ValueError):
        chainview.HeaderWindow(capacity=1, headers=tuple(chain[:2]))


def test_slice_window(chain):
    window = window_of(chain[:10])
    assert chainview.slice_window(window, chainview.HeaderRange(3, 5)) == chain[3:6]
    assert chainview.slice_window(window, chainview.HeaderRange(8, 20)) == chain[8:10]
    assert chainview.slice_window(window, chainview.HeaderRange(30, 40)) == []


def test_headers_above_old_tip(chain):
    pre = window_of(chain[:10])
    assert chainview.headers_above(pre, window_of(chain[:14])) == chain[10:14]
    assert chainview.headers_above(pre, pre) == []
    assert chainview.headers_above(pre, chainview.HeaderWindow()) == []
    assert chainview.headers_above(chainview.HeaderWindow(), pre) == []
    # Only heights the new window still holds come back.
    assert chainview.headers_above(pre, window_of(chain[12:16], 12)) == chain[12:16]


def test_audit_catches_tampering(chain):
    good = window_of(chain[:5])
    audit(good)
    broken = chainview.HeaderWindow(128, 0, (chain[0], chain[2], chain[3]))
    with pytest.raises(LinkMismatch):
        audit(broken)


def test_header_range_operations():
    r = chainview.HeaderRange(5, 9)
    assert r.size() == 5
    assert r.contains(5) and r.contains(9) and not r.contains(10)
    assert r.intersect(chainview.HeaderRange(8, 20)) == chainview.HeaderRange(8, 9)
    assert r.intersect(chainview.HeaderRange(10, 20)) is None
    assert r.intersect(None) is None
    with pytest.raises(ValueError):
        chainview.HeaderRange(3, 2)


def test_weight_is_target_sum(chain):
    view = chain[:4]
    assert chainview.weight(view) == 4 * target_from_nbits(EASY_NBITS)


def test_find_strongest_chain_requires_equal_ranges(chain):
    with pytest.raises(RangeMismatch):
        chainview.find_strongest_chain(chain[:3], chain[:4])


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32), length=st.integers(1, 64))
def test_find_strongest_chain_matches_big_integer_oracle(seed, length):
    rng = random.Random(seed)
    ours = [BlockHeader(1, bytes(32), bytes(32), 0, random_nbits(rng), 0) for _ in range(length)]
    theirs = [BlockHeader(1, bytes(32), bytes(32), 0, random_nbits(rng), 0) for _ in range(length)]
    got = chainview.find_strongest_chain(ours, theirs)
    ours_sum = sum(target_from_nbits(h.n_bits) for h in ours)
    theirs_sum = sum(target_from_nbits(h.n_bits) for h in theirs)
    if ours_sum > theirs_sum:
        assert got is chainview.ChainComparison.SERVER_STRONGER
    elif ours_sum < theirs_sum:
        assert got is chainview.ChainComparison.CLIENT_STRONGER
    else:
        assert got is chainview.ChainComparison.TIE
    # Antisymmetry: swapping the views mirrors the verdict.
    mirrored = chainview.find_strongest_chain(theirs, ours)
    pairs = {
        chainview.ChainComparison.SERVER_STRONGER: chainview.ChainComparison.CLIENT_STRONGER,
        chainview.ChainComparison.CLIENT_STRONGER: chainview.ChainComparison.SERVER_STRONGER,
        chainview.ChainComparison.TIE: chainview.ChainComparison.TIE,
    }
    assert mirrored is pairs[got]
    assert chainview.find_strongest_chain(ours, ours) is chainview.ChainComparison.TIE


# -- view matching ---------------------------------------------------------------


def test_match_views_splits_overlap_and_overhang(chain):
    window = window_of(chain[:10])
    matched = chainview.match_views(window, chain[6:14], 6)
    assert matched.start == 6
    assert list(matched.local) == chain[6:10]
    assert list(matched.remote) == chain[6:10]
    assert matched.overhang == tuple(chain[10:14])
    assert matched.fork_height() is None


def test_match_views_excludes_below_window(chain):
    window = window_of(chain[5:10], start_height=5)
    matched = chainview.match_views(window, chain[2:8], 2)
    assert matched.start == 5
    assert list(matched.remote) == chain[5:8]
    assert matched.overhang == ()


def test_match_views_disjoint_is_all_excluded(chain):
    window = window_of(chain[:3])
    matched = chainview.match_views(window, chain[10:13], 10)
    assert matched.start == 3
    assert matched.local == () and matched.remote == ()
    assert matched.overhang == ()
    assert chainview.match_views(window, chain[3:6], 3).overhang == tuple(chain[3:6])
    assert chainview.match_views(window, [], 0) == chainview.MatchedViews(3, (), (), ())
    empty = chainview.HeaderWindow()
    assert chainview.match_views(empty, chain[4:6], 4) == chainview.MatchedViews(
        4, (), (), tuple(chain[4:6])
    )


def test_match_views_rejects_broken_or_powless_runs(chain):
    window = window_of(chain[:10])
    with pytest.raises(InvalidRemote):
        chainview.match_views(window, [chain[3], chain[5]], 3)
    fake = BlockHeader(1, block_hash(chain[3]), bytes(32), 0, 0x03000001, 0)
    with pytest.raises(InvalidRemote):
        chainview.match_views(window, [chain[3], fake], 3)
    # Held objects out of order: only a prefix in place may skip its checks.
    wide = window_of(chain[:20])
    with pytest.raises(InvalidRemote):
        chainview.match_views(wide, [wide.get(10), wide.get(12), wide.get(11)], 10)


@pytest.mark.parametrize("held", [0, 5, 8])
def test_match_views_checks_pow_only_past_held_prefix(chain, monkeypatch, held):
    window = window_of(chain[:10])
    # Heights 2-13: the window's own objects first, then equal copies and
    # headers above the tip, none of which the window holds.
    run = list(window.headers[2 : 2 + held]) + [replace(h) for h in chain[2 + held : 14]]
    checked = []
    real = chainview.check_pow
    monkeypatch.setattr(chainview, "check_pow", lambda h: checked.append(h) or real(h))
    matched = chainview.match_views(window, run, 2)
    assert len(checked) == len(run) - held
    assert matched.overhang == tuple(run[8:])


def test_fork_height_finds_first_disagreement(chain):
    window = window_of(chain[:10])
    rival = mine_suffix(chain[6], 3, random.Random(502))
    matched = chainview.match_views(window, chain[5:7] + rival, 5)
    assert matched.fork_height() == 7


# -- merging ---------------------------------------------------------------------


def test_merge_tie_appends_linking_extension(chain):
    window = window_of(chain[:10])
    matched = chainview.match_views(window, chain[7:13], 7)
    comparison = chainview.find_strongest_chain(matched.local, matched.remote)
    assert comparison is chainview.ChainComparison.TIE
    merged = chainview.merge_strongest(window, matched, adopt_remote=False)
    assert merged.tip_height() == 12
    assert merged.tip() == chain[12]
    audit(merged)


def test_merge_drops_non_linking_excluded(chain):
    window = window_of(chain[:10])
    stray = mine_suffix(chain[20], 2, random.Random(503))
    matched = chainview.MatchedViews(10, (), (), tuple(stray))
    merged = chainview.merge_strongest(window, matched, adopt_remote=False)
    assert merged == window


def test_merge_adopts_remote_suffix_from_fork(chain):
    # Stronger rival branch two blocks deep: lower target, still easy to mine.
    window = window_of(chain[:10])
    rival = mine_suffix(chain[7], 2, random.Random(504), n_bits=0x203FFFFF)
    received = [chain[7]] + rival
    matched = chainview.match_views(window, received, 7)
    assert matched.fork_height() == 8
    comparison = chainview.find_strongest_chain(matched.local, matched.remote)
    assert comparison is chainview.ChainComparison.SERVER_STRONGER
    merged = chainview.merge_strongest(window, matched, adopt_remote=True)
    assert merged.tip() == rival[-1]
    assert merged.headers[:8] == tuple(chain[:8])
    audit(merged)
    again = chainview.merge_strongest(merged, chainview.match_views(merged, received, 7), True)
    assert again == merged


def test_merge_reanchors_when_divergence_is_deeper_than_received(chain):
    # The remote run disagrees at its very first height and does not link
    # to anything below, so nothing local can be kept.
    rival_chain = mined_chain(12, random.Random(505))
    window = window_of(chain[:10])
    received = rival_chain[5:9]
    matched = chainview.match_views(window, received, 5)
    assert matched.fork_height() == 5
    merged = chainview.merge_strongest(window, matched, adopt_remote=True)
    assert merged.start_height == 5
    assert tuple(merged.headers) == tuple(received)
    audit(merged)


def test_merge_respects_capacity(chain):
    window = window_of(chain[:10], capacity=10)
    matched = chainview.match_views(window, chain[7:14], 7)
    merged = chainview.merge_strongest(window, matched, adopt_remote=False)
    assert len(merged) == 10
    assert merged.span() == chainview.HeaderRange(4, 13)
