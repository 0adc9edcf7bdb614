"""Connection-trace analytics tests: data-age averages, freshness, tiers."""

import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blocksentinel
from blocksentinel import metrics
from blocksentinel.errors import EmptyTrace, UnknownServer, UnknownUser
from blocksentinel.metrics import ConnectionRecord, ConnectionTrace


def trace_of(rows, t0=None, t_max=None):
    records = [ConnectionRecord(t, u, s) for t, u, s in rows]
    return ConnectionTrace.from_records(records, t0=t0, t_max=t_max)


def sawtooth_hours(times, t0, t_max):
    """Time-averaged age of the newest connection, by direct integration."""
    total = 0.0
    boundaries = [t0] + sorted(times) + [t_max]
    for a, b in zip(boundaries, boundaries[1:]):
        gap = b - a
        total += gap * gap / 2.0
    return total / (t_max - t0) / 3600.0


def test_from_records_sorts_and_defaults_window():
    trace = trace_of([(50, "u1", "s1"), (10, "u0", "s0"), (10, "u0", "s1")])
    assert [r.time for r in trace.records] == [10, 10, 50]
    assert trace.t0 == 10 and trace.t_max == 50
    assert trace.users() == ["u0", "u1"]
    assert trace.servers() == ["s0", "s1"]


def test_csv_roundtrip(tmp_path):
    trace = trace_of([(0, "u0", "s0"), (3600, "u1", "s1")])
    path = tmp_path / "trace.csv"
    metrics.write_trace_csv(trace, path)
    back = metrics.read_trace_csv(path)
    assert back.records == trace.records


def test_read_csv_rejects_garbage(tmp_path):
    bad_header = tmp_path / "bad.csv"
    bad_header.write_text("when,who,where\n1,u0,s0\n")
    with pytest.raises(EmptyTrace):
        metrics.read_trace_csv(bad_header)
    empty = tmp_path / "empty.csv"
    empty.write_text("time,user,server\n")
    with pytest.raises(EmptyTrace):
        metrics.read_trace_csv(empty)


def test_coverage_counts_users_touching_the_set():
    trace = trace_of(
        [(0, "u0", "s0"), (10, "u1", "s1"), (20, "u2", "s2"), (30, "u0", "s1")]
    )
    assert metrics.coverage(trace, {"s0"}) == pytest.approx(1 / 3)
    assert metrics.coverage(trace, {"s1"}) == pytest.approx(2 / 3)
    assert metrics.coverage(trace, {"s0", "s1", "s2"}) == pytest.approx(1.0)
    assert metrics.coverage(trace, {"far"}) == 0.0


def test_aadt_unknown_user():
    trace = trace_of([(0, "u0", "s0")])
    with pytest.raises(UnknownUser):
        metrics.aadt(trace, "ghost", {"s0"})


def test_aadt_quarter_period_fixture():
    # One connection dead-centre in a two-hour window: the age sawtooth
    # averages to T/4, exactly half an hour.
    trace = trace_of([(3600, "u0", "s0")], t0=0, t_max=7200)
    assert metrics.aadt(trace, "u0", {"s0"}, inactivity_cut_hours=None) == 0.5


def test_aadt_matches_direct_integration():
    rng = random.Random(31)
    for _ in range(25):
        times = sorted(rng.sample(range(1, 86_400), rng.randrange(1, 40)))
        rows = [(t, "u0", "s0") for t in times]
        trace = trace_of(rows, t0=0, t_max=86_400)
        ours = metrics.aadt(trace, "u0", {"s0"}, inactivity_cut_hours=None)
        assert ours == pytest.approx(sawtooth_hours(times, 0, 86_400), rel=1e-12)


def test_aadt_only_counts_chosen_servers():
    rows = [(3600, "u0", "s0"), (1800, "u0", "other")]
    trace = trace_of(rows, t0=0, t_max=7200)
    assert metrics.aadt(trace, "u0", {"s0"}, inactivity_cut_hours=None) == 0.5


def test_aadt_excises_long_gaps():
    # Window of 10h with one touch at hour 9: the 9h leading gap exceeds
    # the 8h cut and is dropped entirely, leaving a single 1h gap.
    trace = trace_of([(9 * 3600, "u0", "s0")], t0=0, t_max=10 * 3600)
    expected = (3600.0 * 3600.0 / 2.0) / 3600.0 / 3600.0
    assert metrics.aadt(trace, "u0", {"s0"}) == pytest.approx(expected)
    assert metrics.aadt(trace, "u0", {"s0"}, inactivity_cut_hours=None) == pytest.approx(
        (9.0 * 9.0 / 2.0 + 0.5) / 10.0
    )


def test_aadt_nan_when_everything_excised():
    trace = trace_of([(0, "u0", "s0"), (86_400, "u0", "s0")], t0=0, t_max=86_400)
    value = metrics.aadt(trace, "u0", {"s0"}, inactivity_cut_hours=8.0)
    assert math.isnan(value)


def test_aadt_decreases_as_server_set_grows():
    rng = random.Random(32)
    rows = []
    for server in ("s0", "s1", "s2"):
        rows.extend((rng.randrange(0, 86_400), "u0", server) for _ in range(12))
    trace = trace_of(rows, t0=0, t_max=86_400)
    widths = [
        metrics.aadt(trace, "u0", {"s0"}, inactivity_cut_hours=None),
        metrics.aadt(trace, "u0", {"s0", "s1"}, inactivity_cut_hours=None),
        metrics.aadt(trace, "u0", {"s0", "s1", "s2"}, inactivity_cut_hours=None),
    ]
    assert widths[0] >= widths[1] >= widths[2]


def test_freshness_mirrors_aadt_over_users():
    rows = [(3600, "u0", "s0"), (10_800, "u1", "s0")]
    trace = trace_of(rows, t0=0, t_max=14_400)
    by_hand = sawtooth_hours([3600, 10_800], 0, 14_400)
    assert metrics.freshness(trace, "s0") == pytest.approx(by_hand)
    assert metrics.freshness(trace, "s0", user_set={"u0"}) == pytest.approx(
        sawtooth_hours([3600], 0, 14_400)
    )
    with pytest.raises(UnknownServer):
        metrics.freshness(trace, "ghost")


def test_freshness_decreases_with_more_users():
    rng = random.Random(33)
    rows = [(rng.randrange(0, 86_400), f"u{i % 4}", "s0") for i in range(40)]
    trace = trace_of(rows, t0=0, t_max=86_400)
    one = metrics.freshness(trace, "s0", user_set={"u0"})
    two = metrics.freshness(trace, "s0", user_set={"u0", "u1"})
    everyone = metrics.freshness(trace, "s0")
    assert one >= two >= everyone


def test_freshness_ci_full_adoption_has_zero_width():
    rows = [(t * 600, f"u{t % 5}", "s0") for t in range(1, 40)]
    trace = trace_of(rows)
    mean, half_width = metrics.freshness_ci(trace, "s0", adoption_fraction=1.0)
    assert mean == pytest.approx(metrics.freshness(trace, "s0"))
    assert half_width == 0.0


def test_freshness_ci_partial_adoption():
    rng = random.Random(34)
    rows = [(rng.randrange(0, 86_400), f"u{i % 10}", "s0") for i in range(200)]
    trace = trace_of(rows, t0=0, t_max=86_400)
    mean, half_width = metrics.freshness_ci(
        trace, "s0", adoption_fraction=0.4, n_resamples=16, rng=random.Random(35)
    )
    assert half_width > 0.0
    assert mean > 0.0
    with pytest.raises(ValueError):
        metrics.freshness_ci(trace, "s0", adoption_fraction=0.0)
    with pytest.raises(ValueError):
        metrics.freshness_ci(trace, "s0", adoption_fraction=1.5)
    with pytest.raises(ValueError):
        metrics.freshness_ci(trace, "s0", adoption_fraction=0.5, n_resamples=1)


def test_package_import_leaves_scipy_stats_unloaded():
    # scipy.stats roughly doubles a cold import's time and memory; the
    # package needs only scipy.special.
    env = {**os.environ, "PYTHONPATH": str(Path(blocksentinel.__file__).parents[1])}
    probe = "import sys, blocksentinel; print('scipy.stats' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize(
    "count,tier",
    [
        (5000, 1),
        (3201, 1),
        (3200, 1),
        (1601, 1),
        (1600, 2),
        (801, 2),
        (800, 3),
        (401, 3),
        (400, 4),
        (101, 4),
        (100, 5),
        (99, 6),
        (1, 6),
        (0, 6),
    ],
)
def test_tier_bands(count, tier):
    assert metrics.tier_of(count) == tier


def test_unique_user_counts_and_assign_tiers():
    rows = [(i, f"u{i % 3}", "s0") for i in range(9)] + [(100, "u0", "s1")]
    trace = trace_of(rows)
    counts = metrics.unique_user_counts(trace)
    assert counts == {"s0": 3, "s1": 1}
    tiers = metrics.assign_tiers(trace)
    assert tiers == {"s0": 6, "s1": 6}
    with pytest.raises(EmptyTrace):
        metrics.assign_tiers(ConnectionTrace.from_records([], t0=0, t_max=1))


# -- equivalence with a row scan ---------------------------------------------------


def _row_scan_gaps(times, t0, t_max):
    points = [t0] + [t for t in times if t0 <= t <= t_max] + [t_max]
    return [b - a for a, b in zip(points, points[1:])]


def _row_scan_sawtooth_hours(gaps, cut_seconds=None):
    if cut_seconds is not None:
        gaps = [g for g in gaps if g < cut_seconds]
    duration = sum(gaps)
    if duration <= 0:
        return math.nan
    return sum(g * g for g in gaps) / 2.0 / duration / 3600.0


class RowScan:
    """The metrics recomputed by scanning every record, as a reference."""

    def __init__(self, rows, t0, t_max):
        self.records = sorted(rows)
        self.t0 = self.records[0][0] if t0 is None else t0
        self.t_max = self.records[-1][0] if t_max is None else t_max

    def users(self):
        return sorted({u for _, u, _ in self.records})

    def servers(self):
        return sorted({s for _, _, s in self.records})

    def coverage(self, server_set):
        touched = {u for _, u, s in self.records if s in server_set}
        return len(touched) / len(self.users())

    def aadt(self, user, server_set, cut_hours):
        times = [t for t, u, s in self.records if u == user and s in server_set]
        cut = None if cut_hours is None else cut_hours * 3600.0
        return _row_scan_sawtooth_hours(_row_scan_gaps(times, self.t0, self.t_max), cut)

    def freshness(self, server, user_set):
        times = [
            t for t, u, s in self.records if s == server and (user_set is None or u in user_set)
        ]
        return _row_scan_sawtooth_hours(_row_scan_gaps(times, self.t0, self.t_max))

    def unique_user_counts(self):
        return {s: len({u for _, u, s2 in self.records if s2 == s}) for s in self.servers()}


def _same(got, want):
    return type(got) is type(want) and (got == want or (math.isnan(got) and math.isnan(want)))


_times = st.one_of(
    st.integers(0, 200_000),
    st.integers(0, 12).map(lambda k: 225 * k),  # gaps of exactly the 0.0625 h cut
    st.floats(0, 200_000, allow_nan=False).map(lambda t: round(t, 3)),
)
_rows = st.lists(
    st.tuples(_times, st.sampled_from(["u0", "u1", "u10", "u2", "U9"]),
              st.sampled_from(["s0", "s1", "s10", "s2", "S9"])),
    min_size=1,
    max_size=60,
)


@settings(max_examples=150, deadline=None)
@given(rows=_rows, window=st.data())
def test_metrics_equal_a_row_scan(rows, window):
    ts = sorted(t for t, _, _ in rows)
    t0 = window.draw(st.one_of(st.none(), st.sampled_from(ts)), label="t0")
    low = ts[0] if t0 is None else t0
    t_max = window.draw(
        st.one_of(st.none(), st.sampled_from([t for t in ts if t >= low])), label="t_max"
    )
    trace = trace_of(rows, t0=t0, t_max=t_max)
    ref = RowScan(rows, t0, t_max)
    assert [(r.time, r.user, r.server) for r in trace.records] == ref.records
    assert trace.users() == ref.users() and trace.servers() == ref.servers()
    assert metrics.unique_user_counts(trace) == ref.unique_user_counts()
    everyone = ref.users()
    for server_set in ({"s0"}, {"s1", "s10", "ghost"}, set(ref.servers()), {"ghost"}):
        assert _same(metrics.coverage(trace, server_set), ref.coverage(server_set))
        for user in everyone:
            for cut in (None, 8.0, 0.0625, 0.01):
                got = metrics.aadt(trace, user, server_set, inactivity_cut_hours=cut)
                assert _same(got, ref.aadt(user, server_set, cut)), (user, server_set, cut)
    for server in ref.servers():
        for user_set in (None, set(everyone[:2]), {everyone[-1], "ghost"}):
            got = metrics.freshness(trace, server, user_set)
            assert _same(got, ref.freshness(server, user_set)), (server, user_set)


@settings(max_examples=100, deadline=None)
@given(rows=_rows, seed=st.integers(0, 2**32))
def test_shuffled_columns_give_the_sorted_trace(rows, seed):
    rows = sorted(rows)
    shuffled = random.Random(seed).sample(rows, len(rows))
    ordered = ConnectionTrace.from_columns(*zip(*rows))
    trace = ConnectionTrace.from_columns(*zip(*shuffled))
    for name in ("times", "user_codes", "server_codes"):
        got, want = getattr(trace, name), getattr(ordered, name)
        assert got.dtype == want.dtype and numpy.array_equal(got, want), name
    for name in ("user_names", "server_names", "t0", "t_max"):
        assert getattr(trace, name) == getattr(ordered, name), name


def test_nan_time_still_sorts_last():
    trace = ConnectionTrace.from_columns([5.0, math.nan, 1.0], ["u0"] * 3, ["s0"] * 3)
    assert trace.times[:2].tolist() == [1.0, 5.0] and math.isnan(trace.times[2])
