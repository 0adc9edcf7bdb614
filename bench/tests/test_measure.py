"""Self-tests for the benchmark's statistics and its open-loop timing."""

import random
import time

import pytest

import gossip_http
import measure
from chains import Chain
from blocksentinel import service
from blocksentinel.chainview import HeaderWindow
from blocksentinel.headers import BlockHeader


def test_tail_rule_picks_highest_percentile_with_ten_beyond():
    assert measure.tail_percentile(100_000) == 99.9
    assert measure.tail_percentile(1000) == 99.0
    assert measure.tail_percentile(999) == 95.0
    assert measure.tail_percentile(200) == 95.0
    assert measure.tail_percentile(100) == 90.0
    assert measure.tail_percentile(40) == 75.0
    assert measure.tail_percentile(20) == 50.0
    assert measure.tail_percentile(19) is None


def test_tail_of_small_sample_is_its_maximum():
    assert measure.tail([3.0, 1.0, 2.0]) == (100.0, 3.0)
    values = list(range(1, 1001))
    assert measure.tail(values) == (99.0, measure.quantile(values, 99.0))


def test_quantile_interpolates_between_ranks():
    assert measure.quantile([1, 2, 3, 4], 50.0) == 2.5
    assert measure.quantile([5], 99.0) == 5
    assert measure.median([4, 1, 3]) == 3


def test_self_time_subtracts_the_union_of_clipped_children():
    spans = [
        (1, 0, 100, 0),    # root
        (2, 10, 40, 1),    # child
        (3, 30, 60, 1),    # overlaps the first child
        (4, 15, 20, 2),    # grandchild
        (5, 90, 120, 1),   # runs past the root's end
        (6, 200, 210, 1),  # entirely outside the root
    ]
    result = measure.self_times(spans, charged={3: 4})
    assert result[1] == 100 - (60 - 10) - (100 - 90)
    assert result[2] == 30 - 5
    assert result[3] == 30 - 4
    assert result[4] == 5
    assert result[5] == 30
    assert result[6] == 10


class _SlowExchanges:
    """Stand-in whose every exchange takes SERVICE_S seconds."""

    SERVICE_S = 0.02

    def prepare(self, kind, param):
        return {"kind": kind, "param": param}

    def run(self, job):
        start = time.perf_counter()
        time.sleep(self.SERVICE_S)
        return start, time.perf_counter(), None


def test_open_loop_latency_counts_from_the_due_time():
    # Ten jobs due 1 ms apart: each waits for the one before, so latency
    # from the due time grows while service stays 20 ms.
    records = gossip_http.open_loop(_SlowExchanges(), [("in_sync", 0)] * 10, rate=1000.0)
    service_ms = _SlowExchanges.SERVICE_S * 1000.0
    assert all(r["latency_ms"] >= service_ms for r in records)
    assert records[-1]["latency_ms"] >= 4 * service_ms
    assert records[-1]["late_ms"] >= 3 * service_ms
    assert records[-1]["latency_ms"] >= records[-1]["late_ms"] + service_ms


@pytest.fixture(scope="module")
def live_server():
    chain = Chain(BlockHeader, gossip_http.TIP0 + 100, seed=7)
    start = gossip_http.TIP0 - gossip_http.WINDOW + 1
    window = HeaderWindow(
        gossip_http.WINDOW, start, tuple(chain.headers[start : gossip_http.TIP0 + 1])
    )
    handle = service.serve(initial_window=window)
    yield chain, handle.address
    handle.close()


def test_fail_ratio_counts_every_third_transport_failure(live_server):
    chain, address = live_server
    calls = 0

    def flaky(addr, msg):
        nonlocal calls
        calls += 1
        if calls % 3 == 0:
            raise ConnectionError("dropped by the test")
        return service.http_send(addr, msg)

    exchanges = gossip_http.Exchanges(chain, address, send=flaky)
    # In-sync readers make exactly one transport call each.
    jobs = [exchanges.prepare("in_sync", 0) for _ in range(9)]
    errors = [exchanges.run(job)[2] for job in jobs]
    failed = sum(1 for error in errors if error)
    assert failed == 3
    assert all("dropped by the test" in errors[i] for i in (2, 5, 8))
    assert failed / len(jobs) == pytest.approx(1 / 3)


def test_every_class_passes_its_checks(live_server):
    chain, address = live_server
    exchanges = gossip_http.Exchanges(chain, address)
    errors = []
    for kind, param in gossip_http.class_stream(random.Random(3), 40):
        errors.append(exchanges.run(exchanges.prepare(kind, param))[2])
    assert errors == [None] * 40
