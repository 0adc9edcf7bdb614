"""Header-gossip exchange, codec, and polling tests."""

import itertools
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocksentinel import chainview, gossip
from blocksentinel.errors import MalformedBody, MalformedFields, TooLarge
from blocksentinel.gossip import GossipConfig, GossipMessage, REQUEST_ALL
from blocksentinel.chainview import ChainComparison, HeaderRange
from blocksentinel.headers import (
    BlockHeader,
    CompactChainSegment,
    ReducedHeader,
    block_hash,
    check_pow,
    compress,
    expand,
)
from support import (
    audit,
    eclipse_fixture,
    linked_headers,
    mine_suffix,
    mined_chain,
    window_of,
)


@pytest.fixture(scope="module")
def chain():
    return mined_chain(60, random.Random(801))


def segment_of(headers, beg):
    return compress(list(headers)), HeaderRange(beg, beg + len(headers) - 1)


def exchange(client, server, config=gossip.DEFAULT_CONFIG):
    """Run a complete exchange and return the updated windows plus outcome."""
    opening = gossip.client_initiate(client, config)
    served = gossip.server_respond(server, opening, config)
    fulfilled = gossip.client_fulfill(client, served.reply, config)
    server_after = served.window
    if fulfilled.follow_up is not None:
        server_after = gossip.server_respond(server_after, fulfilled.follow_up, config).window
    return fulfilled.window, server_after, fulfilled.outcome


def test_config_validation():
    with pytest.raises(ValueError):
        GossipConfig(request_span=0)
    with pytest.raises(ValueError):
        GossipConfig(expected_growth=-1)
    with pytest.raises(ValueError):
        GossipConfig(header_budget=100)


def test_message_validation(chain):
    payload, payload_range = segment_of(chain[:3], 0)
    with pytest.raises(ValueError):
        GossipMessage(None, None, payload, None)
    with pytest.raises(ValueError):
        GossipMessage(None, None, payload, HeaderRange(0, 5))
    msg = GossipMessage(HeaderRange(0, 2), REQUEST_ALL, payload, payload_range)
    assert msg.payload_range.size() == 3


def test_client_initiate_empty_window_requests_everything():
    msg = gossip.client_initiate(chainview.HeaderWindow())
    assert msg.advertised is None
    assert msg.requested is REQUEST_ALL
    assert msg.payload is None


def test_client_initiate_advertises_span_and_requests_ahead(chain):
    window = window_of(chain[:40])
    msg = gossip.client_initiate(window)
    assert msg.advertised == HeaderRange(0, 39)
    assert msg.requested == HeaderRange(0, 52)
    assert msg.payload is None


def test_client_initiate_trims_request_to_span():
    long_chain = mined_chain(100, random.Random(804))
    msg = gossip.client_initiate(window_of(long_chain))
    assert msg.requested == HeaderRange(100 - 72, 100 + 12)


def test_server_fills_request_and_asks_for_overhang(chain):
    server = window_of(chain[:30])
    client = window_of(chain[:50])
    served = gossip.server_respond(server, gossip.client_initiate(client))
    assert expand(served.reply.payload) == chain[:30]
    assert served.reply.payload_range == HeaderRange(0, 29)
    assert served.reply.requested == HeaderRange(30, 49)
    assert served.headers_accepted == 0
    assert not served.payload_rejected


def test_server_answers_request_all(chain):
    server = window_of(chain[:30])
    served = gossip.server_respond(server, gossip.client_initiate(chainview.HeaderWindow()))
    assert expand(served.reply.payload) == chain[:30]
    assert served.reply.payload_range == HeaderRange(0, 29)
    assert served.reply.requested is None


def test_lagging_client_converges_over_repeated_exchanges(chain):
    # Each exchange advances the client by at most the expected growth, so
    # a 30-block deficit closes in ceil(30 / 13) = 3 rounds.
    client = window_of(chain[:20])
    server = window_of(chain[:50])
    tips = []
    for _ in range(3):
        client, server, outcome = exchange(client, server)
        tips.append(client.tip_height())
        assert outcome.result is ChainComparison.TIE
        assert outcome.fork_height is None
        assert not outcome.eclipse_suspected
    assert tips == [32, 45, 49]
    assert client.tip() == chain[49]


def test_exchange_feeds_lagging_server(chain):
    client, server, outcome = exchange(window_of(chain[:50]), window_of(chain[:20]))
    assert server.tip_height() == 49
    assert server.tip() == chain[49]
    assert client.tip_height() == 49
    assert outcome.result is ChainComparison.TIE
    assert not outcome.eclipse_suspected


def test_exchange_equal_views_tie(chain):
    client, server, outcome = exchange(window_of(chain[:30]), window_of(chain[:30]))
    assert outcome.result is ChainComparison.TIE
    assert outcome.headers_learned == 0
    assert not outcome.eclipse_suspected


def test_eclipsed_client_detects_conflicting_continuation():
    honest, victim_chain = eclipse_fixture()
    client, server, outcome = exchange(window_of(victim_chain), window_of(honest))
    assert outcome.result is ChainComparison.REMOTE_STRONGER
    assert outcome.eclipse_suspected
    assert outcome.fork_height == 20
    assert outcome.headers_learned == 10
    assert client.tip() == honest[-1]
    assert server.tip() == honest[-1]


def test_shorter_honest_view_cannot_displace_longer_run():
    # When the honest server is behind the victim's tip there is nothing to
    # prove: the ranges tie and the victim's extra headers stay put.  The
    # server quietly refuses the conflicting suffix offered back to it.
    honest, victim_chain = eclipse_fixture()
    server = window_of(honest[:22])
    client, server_after, outcome = exchange(window_of(victim_chain), server)
    assert outcome.result is ChainComparison.TIE
    assert not outcome.eclipse_suspected
    assert client.tip() == victim_chain[-1]
    assert server_after == server


def test_repeat_exchange_is_idempotent():
    honest, victim_chain = eclipse_fixture()
    client, server, outcome = exchange(window_of(victim_chain), window_of(honest))
    client2, server2, outcome2 = exchange(client, server)
    assert client2 == client
    assert server2 == server
    assert outcome2.result is ChainComparison.TIE
    assert not outcome2.eclipse_suspected


def test_invalid_payload_rejected_but_reply_served(chain):
    server = window_of(chain[:30])
    fake = linked_headers(2, random.Random(805), n_bits=0x03000001)
    payload, payload_range = segment_of(fake, 25)
    msg = GossipMessage(HeaderRange(0, 26), HeaderRange(0, 29), payload, payload_range)
    served = gossip.server_respond(server, msg)
    assert served.payload_rejected
    assert served.headers_accepted == 0
    assert served.window == server
    assert expand(served.reply.payload) == chain[:30]


def _records(headers):
    return tuple(ReducedHeader(h.merkle_root, h.timestamp, h.nonce) for h in headers)


def _pow_failure_segment(chain):
    """Held heights 10-29, then a height-30 header that misses its target."""
    parent = chain[29]
    base = BlockHeader(
        parent.version, block_hash(parent), bytes(32), parent.timestamp + 600, parent.n_bits, 0
    )
    bad = next(h for n in itertools.count() if not check_pow(h := replace(base, nonce=n)))
    return CompactChainSegment(chain[10], _records(chain[11:30] + [bad]))


def _swapped_parent_segment(chain):
    """Held heights 10-24, a valid rival at 25, then the held records of 26-29.

    The rival is picked so that height 26's record misses its target on top
    of it: rebuilt, that header fails proof of work; reused from the window,
    it would break the link to the rival.
    """
    parent = chain[24]
    base = BlockHeader(
        parent.version, block_hash(parent), bytes(32), chain[25].timestamp, parent.n_bits, 0
    )
    for nonce in itertools.count():
        rival = replace(base, nonce=nonce)
        if check_pow(rival) and not check_pow(replace(chain[26], prev_hash=block_hash(rival))):
            return CompactChainSegment(chain[10], _records(chain[11:25] + [rival] + chain[26:30]))


@pytest.mark.parametrize(
    "build", [_pow_failure_segment, _swapped_parent_segment], ids=["pow", "link"]
)
def test_hostile_run_behind_held_prefix_is_rejected(chain, build):
    # The payload opens with headers the receiver already holds, so a
    # shortcut over the held prefix must not skip checking what follows.
    window = window_of(chain[:30])
    segment = build(chain)
    msg = GossipMessage(payload=segment, payload_range=HeaderRange(10, 9 + len(segment)))
    served = gossip.server_respond(window, msg)
    fulfilled = gossip.client_fulfill(window, msg)
    assert served.payload_rejected
    assert fulfilled.outcome.remote_invalid
    for after in (served.window, fulfilled.window):
        assert after == window
        audit(after)


def test_follow_up_covers_only_requested_overhang(chain):
    client = window_of(chain[:50])
    served = gossip.server_respond(window_of(chain[:30]), gossip.client_initiate(client))
    fulfilled = gossip.client_fulfill(client, served.reply)
    follow = fulfilled.follow_up
    assert follow is not None
    assert follow.payload_range == HeaderRange(30, 49)
    assert expand(follow.payload) == chain[30:50]
    assert follow.requested is None
    assert follow.advertised == HeaderRange(0, 49)


def test_transfer_bound_is_one_window_per_leg(chain):
    # Every payload is a slice of the sender's window, so a full exchange
    # moves at most one window's worth of headers in each direction.
    capacity = 16
    client = window_of(chain[:40], capacity=capacity)
    server = window_of(mined_chain(50, random.Random(802)), capacity=capacity)
    opening = gossip.client_initiate(client)
    assert opening.payload is None
    served = gossip.server_respond(server, opening)
    fulfilled = gossip.client_fulfill(client, served.reply)
    total = served.reply.payload_range.size() if served.reply.payload else 0
    assert total <= capacity
    if fulfilled.follow_up is not None:
        assert fulfilled.follow_up.payload_range.size() <= capacity
        total += fulfilled.follow_up.payload_range.size()
    assert total <= 2 * capacity


# -- learned-header counts -------------------------------------------------------


@pytest.fixture(scope="module")
def branches():
    """Chains indexed by height: honest, an equal-work fork and a stronger fork.

    Both forks leave the honest chain at height 20.
    """
    honest = mined_chain(40, random.Random(811))
    equal = mine_suffix(honest[19], 12, random.Random(812))
    strong = mine_suffix(honest[19], 6, random.Random(813), n_bits=0x203FFFFF)
    return {
        "honest": honest,
        "equal": honest[:20] + equal,
        "strong": honest[:20] + strong,
    }


def whole_window_learned(before, after):
    """Reference count: (height, hash) pairs of `after` missing from `before`."""

    def coverage(window):
        return {(window.start_height + i, block_hash(h)) for i, h in enumerate(window.headers)}

    return len(coverage(after) - coverage(before))


def reference_merge(window, headers, start, outcome):
    """Reference merge, one `chainview.append` per received header.

    An adopted run first cuts the window back to the heights below the
    fork, or to nothing when the run does not link to them.  Then each
    received header from there up is appended in height order; one that is
    not at the next height or does not link to the tip is skipped.
    """
    result, first = window, start
    if outcome.result is ChainComparison.REMOTE_STRONGER:
        fork = outcome.fork_height
        kept = window.headers[: fork - window.start_height]
        if kept and headers[fork - start].prev_hash != block_hash(kept[-1]):
            kept = ()
        result = chainview.HeaderWindow(window.capacity, fork - len(kept), kept)
        first = fork
    for height, header in enumerate(headers[first - start :], first):
        if not result.is_empty() and (
            height != result.tip_height() + 1 or header.prev_hash != block_hash(result.tip())
        ):
            continue
        result = chainview.append(result, header, height)
    return result


def absorb_both_ways(window, headers, start):
    """Offer one run to the server and the client side; both must agree."""
    payload, payload_range = segment_of(headers, start)
    msg = GossipMessage(payload=payload, payload_range=payload_range)
    served = gossip.server_respond(window, msg)
    fulfilled = gossip.client_fulfill(window, msg)
    assert not served.payload_rejected and not fulfilled.outcome.remote_invalid
    assert served.window == fulfilled.window
    assert served.window == reference_merge(window, headers, start, fulfilled.outcome)
    expected = whole_window_learned(window, served.window)
    assert served.headers_accepted == expected
    assert fulfilled.outcome.headers_learned == expected
    return served, fulfilled.outcome


@pytest.mark.parametrize(
    "local, window_range, capacity, anchor, remote, run_range, result, learned, span",
    [
        # Empty window, and one anchored above the received start.
        (None, None, 128, 0, "honest", (0, 9), "tie", 10, (0, 9)),
        (None, None, 128, 30, "honest", (5, 14), "tie", 10, (5, 14)),
        ("honest", (0, 29), 128, 0, "honest", (10, 29), "tie", 0, (0, 29)),
        # Overhang extension past the local tip.
        ("honest", (0, 29), 128, 0, "honest", (20, 39), "tie", 10, (0, 39)),
        # Adopted fork: the prefix below height 20 is kept.
        ("equal", (0, 31), 128, 0, "honest", (15, 39), "remote_stronger", 20, (0, 39)),
        # The first remote header does not link to the kept prefix: re-anchor.
        ("equal", (0, 31), 128, 0, "honest", (22, 39), "remote_stronger", 18, (22, 39)),
        # A stronger but shorter run replaces the longer local suffix.
        ("honest", (0, 39), 128, 0, "strong", (15, 25), "remote_stronger", 6, (0, 25)),
        # Eviction past capacity.
        ("honest", (0, 15), 16, 0, "honest", (10, 29), "tie", 14, (14, 29)),
        ("strong", (0, 25), 128, 0, "honest", (15, 39), "local_stronger", 0, (0, 25)),
        # A run starting two heights above the local tip: nothing merges.
        ("honest", (0, 29), 128, 0, "honest", (31, 39), "tie", 0, (0, 29)),
    ],
)
def test_headers_learned_matches_whole_window_count(
    branches, local, window_range, capacity, anchor, remote, run_range, result, learned, span
):
    if local is None:
        window = chainview.HeaderWindow(capacity=capacity, start_height=anchor)
    else:
        lo, hi = window_range
        window = window_of(branches[local][lo : hi + 1], start_height=lo, capacity=capacity)
    lo, hi = run_range
    served, outcome = absorb_both_ways(window, branches[remote][lo : hi + 1], lo)
    assert outcome.result is ChainComparison(result)
    assert served.comparison is outcome.result
    assert outcome.headers_learned == learned
    assert served.window.span() == HeaderRange(*span)
    if learned == 0 and outcome.result is not ChainComparison.REMOTE_STRONGER:
        assert served.window == window


@settings(max_examples=150, deadline=None)
@given(
    local=st.sampled_from(["empty", "honest", "equal", "strong"]),
    remote=st.sampled_from(["honest", "equal", "strong"]),
    capacity=st.integers(4, 48),
    bounds=st.tuples(st.integers(0, 39), st.integers(0, 39), st.integers(0, 39), st.integers(0, 39)),
)
def test_headers_learned_equivalence_fuzz(branches, local, remote, capacity, bounds):
    remote_chain = branches[remote]
    if local == "empty":
        window = chainview.HeaderWindow(capacity=capacity, start_height=bounds[0])
    else:
        local_chain = branches[local]
        lo, hi = sorted(min(b, len(local_chain) - 1) for b in bounds[:2])
        window = window_of(local_chain[lo : hi + 1], start_height=lo, capacity=capacity)
    lo, hi = sorted(min(b, len(remote_chain) - 1) for b in bounds[2:])
    absorb_both_ways(window, remote_chain[lo : hi + 1], lo)


# -- armored header fields -------------------------------------------------------


def test_field_roundtrip_with_payload(chain):
    payload, payload_range = segment_of(chain[10:20], 10)
    msg = GossipMessage(HeaderRange(0, 59), HeaderRange(48, 71), payload, payload_range)
    fields = gossip.encode_header_fields(msg)
    assert gossip.decode_header_fields(fields) == msg


def test_field_roundtrip_request_all():
    msg = GossipMessage(None, REQUEST_ALL, None, None)
    fields = gossip.encode_header_fields(msg)
    assert dict(fields)[gossip.FIELD_REQ] == "all"
    assert gossip.decode_header_fields(fields) == msg


def test_field_names_are_case_insensitive(chain):
    payload, payload_range = segment_of(chain[:10], 0)
    msg = GossipMessage(HeaderRange(0, 9), None, payload, payload_range)
    fields = [(name.upper(), value) for name, value in gossip.encode_header_fields(msg)]
    assert gossip.decode_header_fields(fields) == msg


def test_decode_accepts_mappings(chain):
    msg = GossipMessage(HeaderRange(0, 9), HeaderRange(5, 30), None, None)
    assert gossip.decode_header_fields(dict(gossip.encode_header_fields(msg))) == msg


def test_large_payload_chunks_at_kilobyte(chain):
    payload, payload_range = segment_of(chain, 0)
    msg = GossipMessage(HeaderRange(0, 59), None, payload, payload_range)
    fields = gossip.encode_header_fields(msg)
    data_fields = [(n, v) for n, v in fields if n.startswith(gossip.FIELD_DATA)]
    assert len(data_fields) > 1
    assert all(len(v) <= gossip.ARMOR_CHUNK for _, v in data_fields)
    names = [n for n, _ in data_fields]
    assert names == [f"{gossip.FIELD_DATA}-{i}" for i in range(1, len(names) + 1)]
    assert gossip.decode_header_fields(fields) == msg


def test_seventy_two_header_payload_fits_four_kilobytes():
    run = mined_chain(72, random.Random(803))
    payload, payload_range = segment_of(run, 0)
    msg = GossipMessage(HeaderRange(0, 71), None, payload, payload_range)
    fields = gossip.encode_header_fields(msg)
    armored = sum(len(v) for n, v in fields if n.startswith(gossip.FIELD_DATA))
    assert armored <= 4096
    assert gossip.decode_header_fields(fields) == msg


def test_budget_enforced(chain):
    payload, payload_range = segment_of(chain, 0)
    msg = GossipMessage(HeaderRange(0, 59), None, payload, payload_range)
    with pytest.raises(TooLarge):
        gossip.encode_header_fields(msg, budget=512)


def test_decode_budget_bounds_armored_payload(chain):
    payload, payload_range = segment_of(chain, 0)
    msg = GossipMessage(HeaderRange(0, 59), None, payload, payload_range)
    fields = gossip.encode_header_fields(msg)
    armored = sum(len(v) for n, v in fields if n.startswith(gossip.FIELD_DATA))
    assert gossip.decode_header_fields(fields, budget=armored) == msg
    with pytest.raises(TooLarge):
        gossip.decode_header_fields(fields, budget=armored - 1)
    # The size check comes before any decoding: junk over budget is TooLarge.
    junk = [
        (gossip.FIELD_ADV, "0-9"),
        (gossip.FIELD_RANGE, "0-0"),
        (f"{gossip.FIELD_DATA}-1", "!" * 257),
    ]
    with pytest.raises(TooLarge):
        gossip.decode_header_fields(junk, budget=256)


def test_decode_returns_none_without_advertisement():
    assert gossip.decode_header_fields([("Content-Type", "text/plain")]) is None
    assert gossip.decode_header_fields([]) is None


@pytest.mark.parametrize(
    "fields",
    [
        [(gossip.FIELD_ADV, "5-3")],
        [(gossip.FIELD_ADV, "abc")],
        [(gossip.FIELD_ADV, "0-9"), (gossip.FIELD_REQ, "none")],
        [(gossip.FIELD_ADV, "0-9"), (gossip.FIELD_RANGE, "0-4")],
        [
            (gossip.FIELD_ADV, "0-9"),
            (gossip.FIELD_RANGE, "0-0"),
            (f"{gossip.FIELD_DATA}-1", "!!!"),
        ],
    ],
)
def test_decode_rejects_malformed_fields(fields):
    with pytest.raises(MalformedFields):
        gossip.decode_header_fields(fields)


# -- binary body -----------------------------------------------------------------


def test_body_roundtrip_all_shapes(chain):
    payload, payload_range = segment_of(chain[:10], 0)
    cases = [
        GossipMessage(None, REQUEST_ALL, None, None),
        GossipMessage(HeaderRange(3, 9), None, None, None),
        GossipMessage(HeaderRange(0, 9), HeaderRange(10, 20), payload, payload_range),
        GossipMessage(None, None, payload, payload_range),
    ]
    for msg in cases:
        body = gossip.encode_body(msg)
        assert body.startswith(gossip.BODY_MAGIC)
        assert gossip.decode_body(body) == msg


def test_body_rejects_bad_magic():
    body = gossip.encode_body(GossipMessage(HeaderRange(0, 1), None, None, None))
    with pytest.raises(MalformedBody):
        gossip.decode_body(b"BADMAGIC" + body[8:])
    with pytest.raises(MalformedBody):
        gossip.decode_body(b"")


def test_body_rejects_truncation_and_trailing(chain):
    payload, payload_range = segment_of(chain[:10], 0)
    body = gossip.encode_body(GossipMessage(HeaderRange(0, 9), None, payload, payload_range))
    with pytest.raises(MalformedBody):
        gossip.decode_body(body[:-3])
    with pytest.raises(MalformedBody):
        gossip.decode_body(body + b"\x00")


def test_body_rejects_conflicting_request_flags():
    body = bytearray(gossip.encode_body(GossipMessage(None, REQUEST_ALL, None, None)))
    body[len(gossip.BODY_MAGIC)] |= 0x02
    with pytest.raises(MalformedBody):
        gossip.decode_body(bytes(body))


def test_transports_carry_identical_messages(chain):
    payload, payload_range = segment_of(chain[:50], 0)
    msg = GossipMessage(HeaderRange(0, 49), HeaderRange(40, 60), payload, payload_range)
    via_fields = gossip.decode_header_fields(gossip.encode_header_fields(msg))
    via_body = gossip.decode_body(gossip.encode_body(msg))
    assert via_fields == via_body == msg
    assert gossip.encode_body(via_fields) == gossip.encode_body(msg)


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    count=st.integers(1, 24),
    start=st.integers(0, 2**40),
)
def test_codec_fuzz_roundtrip(seed, count, start):
    rng = random.Random(seed)
    run = linked_headers(count, rng, version=rng.randrange(1, 5))
    payload, payload_range = segment_of(run, start)
    requested = REQUEST_ALL if rng.random() < 0.3 else HeaderRange(start, start + 100)
    msg = GossipMessage(payload_range, requested, payload, payload_range)
    assert gossip.decode_header_fields(gossip.encode_header_fields(msg)) == msg
    assert gossip.decode_body(gossip.encode_body(msg)) == msg


# -- active polling --------------------------------------------------------------


def test_active_poll_samples_and_aggregates(chain):
    addresses = [f"s{i}:1" for i in range(10)]
    server_windows = {f"s{i}:1": window_of(chain[: 30 + i]) for i in range(10)}
    contacted = []

    def send(address, msg):
        contacted.append(address)
        served = gossip.server_respond(server_windows[address], msg)
        server_windows[address] = served.window
        return served.reply

    report, window = gossip.active_poll(
        addresses, window_of(chain[:20]), 3, random.Random(9), send
    )
    assert len(set(contacted)) == 3
    assert len(report.outcomes) == 3
    assert report.failures == ()
    assert not report.eclipse_suspected
    assert window.tip_height() > 19


def test_poll_report_without_outcomes_suspects_nothing():
    assert not gossip.PollReport((), ()).eclipse_suspected


def test_active_poll_caps_sample_at_population():
    chain = mined_chain(5, random.Random(806))
    served_window = window_of(chain)

    def send(address, msg):
        return gossip.server_respond(served_window, msg).reply

    report, window = gossip.active_poll(
        ["only:1"], chainview.HeaderWindow(), 8, random.Random(9), send
    )
    assert len(report.outcomes) == 1
    assert window.tip_height() == 4


def test_active_poll_captures_failures(chain):

    def send(address, msg):
        raise OSError("connection refused")

    report, window = gossip.active_poll(
        ["down:1"], window_of(chain[:20]), 3, random.Random(9), send
    )
    assert report.outcomes == ()
    assert len(report.failures) == 1
    assert report.failures[0][0] == "down:1"
    assert "connection refused" in report.failures[0][1]
    assert window.tip_height() == 19


def test_active_poll_keeps_first_leg_when_follow_up_fails(chain):
    server_window = window_of(chain[:25])
    legs = []

    def send(address, msg):
        legs.append(msg)
        if len(legs) > 1:
            raise OSError("connection reset")
        reply = gossip.server_respond(server_window, msg).reply
        # Asking for heights the client holds forces a follow-up leg.
        return replace(reply, requested=HeaderRange(10, 19))

    report, window = gossip.active_poll(
        ["flaky:1"], window_of(chain[:20]), 1, random.Random(9), send
    )
    assert len(legs) == 2 and legs[1].payload_range == HeaderRange(10, 19)
    assert [address for address, _ in report.outcomes] == ["flaky:1"]
    assert report.outcomes[0][1].headers_learned == 5
    assert window.tip_height() == 24
    assert report.failures == (("flaky:1", "OSError: connection reset"),)


def test_exchange_absorbs_payload_on_second_reply(chain):
    segment, covered = segment_of(chain[:25], 0)
    replies = [
        GossipMessage(advertised=HeaderRange(0, 9), requested=HeaderRange(0, 9)),
        GossipMessage(advertised=covered, payload=segment, payload_range=covered),
    ]
    done, error = gossip.exchange(window_of(chain[:10]), lambda msg: replies.pop(0))
    assert error is None and replies == []
    assert done.window.tip_height() == 24
    assert done.outcome.headers_learned == 0


def test_active_poll_flags_eclipse():
    honest, victim_chain = eclipse_fixture()
    server_window = window_of(honest)

    def send(address, msg):
        return gossip.server_respond(server_window, msg).reply

    report, window = gossip.active_poll(
        ["honest:1"], window_of(victim_chain), 1, random.Random(9), send
    )
    assert report.eclipse_suspected
    assert window.tip() == honest[-1]
