"""HTTP server middleware and client daemon tests."""

import json
import random
import sys
import threading
import time
import urllib.request

import pytest

from blocksentinel import gossip, service
from blocksentinel.errors import ConfigInvalid, InvalidPayload
from blocksentinel.gossip import GossipMessage, HeaderRange, REQUEST_ALL
from blocksentinel.headers import compress, hash_hex
from support import audit, eclipse_fixture, mine_suffix, mined_chain, window_of


@pytest.fixture(scope="module")
def chain():
    return mined_chain(40, random.Random(901))


def fake_clock(start=1000.0):
    state = {"now": start}

    def clock():
        return state["now"]

    clock.advance = lambda seconds: state.__setitem__("now", state["now"] + seconds)
    return clock


# -- server state ----------------------------------------------------------------


def test_server_state_serves_and_learns(chain):
    state = service.ServerState(window_of(chain[:20]), clock=fake_clock())
    reply = state.exchange(gossip.client_initiate(window_of(chain[:30])))
    assert reply.requested == HeaderRange(20, 29)
    follow = GossipMessage(
        HeaderRange(0, 29), None, compress(chain[20:30]), HeaderRange(20, 29)
    )
    state.exchange(follow)
    assert state.window().tip_height() == 29
    status = state.status()
    assert status["version"] == service.STATUS_VERSION
    assert status["tipHeight"] == 29
    assert status["tipHash"] == hash_hex(chain[29])
    assert status["stats"]["exchanges"] == 2
    assert status["stats"]["headersAccepted"] == 10
    assert status["stats"]["headersRejected"] == 0


def test_server_state_counts_rejected_payloads(chain):
    state = service.ServerState(window_of(chain[:20]))
    from support import linked_headers

    fake = linked_headers(3, random.Random(902), n_bits=0x03000001)
    msg = GossipMessage(HeaderRange(0, 12), None, compress(fake), HeaderRange(10, 12))
    state.exchange(msg)
    assert state.status()["stats"]["headersRejected"] == 3
    assert state.window().tip_height() == 19


def test_server_state_concurrent_exchanges_converge(chain):
    # Two rival suffixes race from many threads; the heavier branch must
    # win no matter how the exchanges interleave.
    base = chain[:20]
    strong = mine_suffix(base[-1], 5, random.Random(903), n_bits=0x203FFFFF)
    weak = mine_suffix(base[-1], 3, random.Random(904))
    state = service.ServerState(window_of(base))

    def push(suffix):
        payload = compress(list(base[-1:]) + list(suffix))
        rng = HeaderRange(19, 19 + len(suffix))
        msg = GossipMessage(HeaderRange(0, rng.end), None, payload, rng)
        for _ in range(10):
            state.exchange(msg)

    threads = [
        threading.Thread(target=push, args=(suffix,))
        for suffix in (strong, weak, strong, weak)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert state.window().tip() == strong[-1]
    audit(state.window())


def test_server_state_responds_once_per_exchange_under_contention(chain, monkeypatch):
    # With a tiny switch interval eight racing threads interleave inside
    # nearly every exchange; each must still run server_respond exactly
    # once, where an optimistic retry would show up as surplus calls.
    base = chain[:20]
    strong = mine_suffix(base[-1], 5, random.Random(905), n_bits=0x203FFFFF)
    weak = mine_suffix(base[-1], 3, random.Random(906))
    calls = []
    respond = gossip.server_respond

    def counted(*args, **kwargs):
        calls.append(None)
        return respond(*args, **kwargs)

    monkeypatch.setattr(gossip, "server_respond", counted)

    def message(suffix):
        span = HeaderRange(19, 19 + len(suffix))
        return GossipMessage(HeaderRange(0, span.end), None, compress([base[-1], *suffix]), span)

    def push(state, msg):
        for _ in range(10):
            state.exchange(msg)

    messages = [message(strong), message(weak)] * 4
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            calls.clear()
            state = service.ServerState(window_of(base))
            threads = [
                threading.Thread(target=push, args=(state, msg), daemon=True)
                for msg in messages
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
            assert state.status()["stats"]["exchanges"] == len(messages) * 10
            assert len(calls) == len(messages) * 10
            assert state.window().tip() == strong[-1]
    finally:
        sys.setswitchinterval(interval)


# -- HTTP plumbing ---------------------------------------------------------------


@pytest.fixture()
def server(chain):
    handle = service.serve(initial_window=window_of(chain[:30]))
    yield handle
    handle.close()


def test_http_exchange_round_trip(chain, server):
    reply = service.http_send(server.address, gossip.client_initiate(window_of(chain[:10])))
    fulfilled = gossip.client_fulfill(window_of(chain[:10]), reply)
    assert fulfilled.window.tip_height() > 9


def test_http_request_all(chain, server):
    reply = service.http_send(server.address, GossipMessage(None, REQUEST_ALL, None, None))
    assert reply.payload_range == HeaderRange(0, 29)


def test_status_endpoint(chain, server):
    url = f"http://{server.address}{service.STATUS_PATH}"
    with urllib.request.urlopen(url) as response:
        body = json.load(response)
    assert body["tipHeight"] == 29
    assert body["tipHash"] == hash_hex(chain[29])
    assert body["version"] == service.STATUS_VERSION


def test_middleware_passes_inner_app_through(chain):
    marker = b"inner app payload: \x00\x01\x02 bytes survive"

    def inner(environ, start_response):
        start_response("200 OK", [("Content-Type", "application/octet-stream")])
        return [marker]

    handle = service.serve(app=inner, initial_window=window_of(chain[:30]))
    try:
        with urllib.request.urlopen(f"http://{handle.address}/anything") as response:
            assert response.read() == marker
        # The same request still carries gossip when asked to.
        reply = service.http_send(
            handle.address, gossip.client_initiate(window_of(chain[:10])), path="/anything"
        )
        assert reply.payload is not None
    finally:
        handle.close()


def test_middleware_drops_oversized_gossip_request(chain):
    state = service.ServerState(window_of(chain[:20]))
    before = state.window()
    middleware = service.GossipMiddleware(
        service._default_app, state, gossip.GossipConfig(header_budget=256)
    )
    msg = GossipMessage(HeaderRange(0, 39), None, compress(chain[20:40]), HeaderRange(20, 39))
    environ = {"PATH_INFO": "/"}
    for name, value in gossip.encode_header_fields(msg):
        environ["HTTP_" + name.upper().replace("-", "_")] = value
    sent = []
    body = middleware(environ, lambda status, headers, exc_info=None: sent.append(headers))
    assert b"".join(body) == b"ok\n"
    assert not [name for name, _ in sent[0] if name.lower().startswith("x-gossip")]
    assert state.window() is before
    assert state.status()["stats"]["exchanges"] == 0


def test_http_send_rejects_gossip_less_peer():
    def plain(environ, start_response):
        start_response("200 OK", [("Content-Type", "text/plain")])
        return [b"no gossip here"]

    import wsgiref.simple_server

    httpd = wsgiref.simple_server.make_server("127.0.0.1", 0, plain)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        address = f"127.0.0.1:{httpd.server_port}"
        with pytest.raises(InvalidPayload):
            service.http_send(address, GossipMessage(None, REQUEST_ALL, None, None))
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join()


# -- client daemon ---------------------------------------------------------------


def test_daemon_config_from_file(tmp_path):
    path = tmp_path / "daemon.json"
    path.write_text(
        json.dumps(
            {
                "window_capacity": 256,
                "confirmations": 4,
                "servers": ["a:1", "b:2"],
            }
        )
    )
    config = service.ClientDaemonConfig.from_file(path)
    assert config.window_capacity == 256
    assert config.confirmations == 4
    assert config.servers == ("a:1", "b:2")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"no_such_knob": 1}))
    with pytest.raises(ConfigInvalid):
        service.ClientDaemonConfig.from_file(bad)


def test_daemon_passive_exchange_updates_view(chain):
    clock = fake_clock()
    daemon = service.ClientDaemon(
        service.ClientDaemonConfig(), transport=None, clock=clock
    )
    daemon.window = window_of(chain[:10])
    server = service.ServerState(window_of(chain[:20]))
    fields = daemon.outgoing_fields("s:1")
    reply = server.exchange(gossip.decode_header_fields(fields))
    outcome = daemon.ingest_response("s:1", gossip.encode_header_fields(reply))
    assert outcome is not None
    assert outcome.headers_learned > 0
    assert daemon.window.tip_height() > 9
    assert "s:1" in daemon.directory
    assert daemon.last_view_update == clock()


def test_daemon_ingest_ignores_non_gossip_responses():
    daemon = service.ClientDaemon(service.ClientDaemonConfig(), transport=None)
    assert daemon.ingest_response("s:1", [("Content-Type", "text/html")]) is None
    assert len(daemon.directory) == 0


def test_daemon_pending_payload_rides_next_request(chain):
    daemon = service.ClientDaemon(service.ClientDaemonConfig(), transport=None)
    daemon.window = window_of(chain[:30])
    server = service.ServerState(window_of(chain[:20]))
    reply = server.exchange(gossip.decode_header_fields(daemon.outgoing_fields("s:1")))
    daemon.ingest_response("s:1", reply)
    carried = gossip.decode_header_fields(daemon.outgoing_fields("s:1"))
    assert carried.payload is not None
    assert carried.payload_range == HeaderRange(20, 29)
    follow_reply = server.exchange(carried)
    assert server.window().tip_height() == 29
    # The pending payload is consumed once sent.
    assert gossip.decode_header_fields(daemon.outgoing_fields("s:1")).payload is None


def test_daemon_raises_eclipse_alert(chain):
    honest, victim_chain = eclipse_fixture()
    clock = fake_clock()
    daemon = service.ClientDaemon(
        service.ClientDaemonConfig(), transport=None, clock=clock
    )
    daemon.window = window_of(victim_chain)
    server = service.ServerState(window_of(honest))
    reply = server.exchange(gossip.decode_header_fields(daemon.outgoing_fields("s:1")))
    outcome = daemon.ingest_response("s:1", reply)
    assert outcome.eclipse_suspected
    kinds = [alert.kind for alert in daemon.alert_log]
    assert "eclipse" in kinds
    eclipse = next(a for a in daemon.alert_log if a.kind == "eclipse")
    assert "height 20" in eclipse.detail
    assert daemon.window.tip() == honest[-1]


def test_daemon_observe_block_and_tick_alerts(chain):
    # The alert clock compares wall time against header timestamps, so the
    # fake clock starts just after the observed block was stamped.
    clock = fake_clock(start=float(chain[10].timestamp) + 5.0)
    daemon = service.ClientDaemon(
        service.ClientDaemonConfig(), transport=None, clock=clock
    )
    daemon.window = window_of(chain[:10])
    daemon.observe_network_block(chain[10], 10)
    assert daemon.window.tip_height() == 10
    assert not daemon.tick()
    # One hour of silence crosses the single-block Yellow threshold.
    clock.advance(3600.0)
    alerts_now = daemon.tick()
    assert [a.kind for a in alerts_now] == ["type1"]
    # Same level again stays quiet; escalation speaks once more.
    assert daemon.tick() == []
    clock.advance(3600.0)
    assert [a.kind for a in daemon.tick()] == ["type1"]


def test_daemon_staleness_alert():
    clock = fake_clock()
    daemon = service.ClientDaemon(
        service.ClientDaemonConfig(inactivity_alert_hours=8.0),
        transport=None,
        clock=clock,
    )
    clock.advance(8 * 3600.0 + 60.0)
    alerts_now = daemon.tick()
    assert [a.kind for a in alerts_now] == ["stale"]
    assert daemon.tick() == []


def test_daemon_active_check_detects_eclipse_end_to_end():
    honest, victim_chain = eclipse_fixture()
    handle = service.serve(initial_window=window_of(honest))
    try:
        config = service.ClientDaemonConfig(
            servers=(handle.address,), active_sample_size=1
        )
        daemon = service.ClientDaemon(config, rng=random.Random(1))
        daemon.window = window_of(victim_chain)
        report = daemon.active_check()
        assert report.eclipse_suspected()
        assert daemon.window.tip() == honest[-1]
        assert any(a.kind == "eclipse" for a in daemon.alert_log)
    finally:
        handle.close()


def test_daemon_status_shape(chain):
    daemon = service.ClientDaemon(service.ClientDaemonConfig(), transport=None)
    daemon.window = window_of(chain[:5])
    status = daemon.status()
    assert status["tipHeight"] == 4
    assert status["tipHash"] == hash_hex(chain[4])
    assert status["knownServers"] == 0


def test_run_client_daemon_smoke(chain):
    handle = service.serve(initial_window=window_of(chain[:30]))
    try:
        config = service.ClientDaemonConfig(
            servers=(handle.address,), active_sample_size=1
        )
        daemon_handle = service.run_client_daemon(
            config, tick_seconds=0.05, rng=random.Random(2)
        )
        time.sleep(0.2)
        report = daemon_handle.daemon.active_check()
        status = daemon_handle.daemon.status()
        daemon_handle.close()
        assert report.failures == ()
        assert status["tipHeight"] == 29
    finally:
        handle.close()
