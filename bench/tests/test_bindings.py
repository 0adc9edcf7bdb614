"""Binding guard: a short traced run of every workload must record each
wrapped function at least once, so a missed rebinding fails here instead
of reporting zero."""

import pytest

import gossip_http
import sim_day
import trace_analysis
import tracing


@pytest.fixture(scope="module")
def traced_tables(tmp_path_factory):
    work = tmp_path_factory.mktemp("work")
    tables = []
    for workload in (gossip_http, sim_day, trace_analysis):
        result = workload.run(work, seed=0, seconds=1.0, tracer=tracing.Tracer())
        assert result["failed"] == 0, result["errors"][:3]
        tables += result["layer"]["tables"]
    return tracing.merge_tables(*tables)


def test_every_wrapped_function_records_a_call(traced_tables):
    missing = [name for name, *_ in tracing.TARGETS if not traced_tables["calls"].get(name)]
    assert missing == []


def test_every_span_target_has_self_time(traced_tables):
    timed = [name for name, _, _, kind in tracing.TARGETS if kind != tracing.COUNT]
    assert [name for name in timed if not traced_tables["self_ns"].get(name)] == []


def test_derived_counts_are_recorded(traced_tables):
    events = traced_tables["events"]
    for name in ("gossip.headers_sent", "gossip.headers_learned", "gossip.remote_invalid",
                 "sim.events", "sim.connects", "alerts.waiting_time_quantile.misses"):
        assert events.get(name), name


def test_uninstall_restores_every_binding():
    from blocksentinel import chainview, gossip, headers, service, sim

    before = (headers.block_hash, chainview.block_hash, gossip.expand, sim.hash_int,
              service.ServerState.exchange, service.http_send)
    tracer = tracing.Tracer()
    tracer.install()
    assert chainview.block_hash is not before[1] and gossip.expand is not before[2]
    tracer.uninstall()
    after = (headers.block_hash, chainview.block_hash, gossip.expand, sim.hash_int,
             service.ServerState.exchange, service.http_send)
    assert after == before
