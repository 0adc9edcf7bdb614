"""Scenario simulation tests: chains, schedules, eclipse runs, invariants."""

import hashlib
import json
import math
import random
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

from blocksentinel import alerts, chainview, sim
from blocksentinel.errors import ConfigInvalid
from blocksentinel.headers import encode_wire
from blocksentinel.sim import DiurnalProfile, ScenarioConfig


def test_generate_chain_is_valid_and_deterministic():
    chain = sim.generate_chain(10.0, 25, rng=random.Random(7))
    again = sim.generate_chain(10.0, 25, rng=random.Random(7))
    assert chain == again
    window = chainview.HeaderWindow(capacity=64)
    for height, header in enumerate(chain):
        window = chainview.append(window, header, height)
    chainview.audit(window)
    stamps = [h.timestamp for h in chain]
    assert stamps == sorted(stamps)
    wire = b"".join(encode_wire(header) for header in chain)
    assert (
        hashlib.sha256(wire).hexdigest()
        == "f3fa30f9564450c57a7c3468932a9e6d3ed2705d723cd850f85038ee90d7ebde"
    )


def test_generate_chain_gap_statistics():
    # 10 000 exponential gaps at a 10-minute mean: the sample mean must sit
    # within four standard errors of 10.
    chain = sim.generate_chain(10.0, 10_001, rng=random.Random(13))
    gaps = [
        (b.timestamp - a.timestamp) / 60.0 for a, b in zip(chain, chain[1:])
    ]
    se = 10.0 / math.sqrt(len(gaps))
    assert abs(statistics.fmean(gaps) - 10.0) < 4 * se


def test_block_creation_times_bounds():
    times = sim.block_creation_times(random.Random(3), 10.0, 600.0)
    assert all(0.0 < t <= 600.0 for t in times)
    assert times == sorted(times)
    assert 30 < len(times) < 120


def test_diurnal_profile_rates():
    profile = DiurnalProfile()
    assert profile.rate_per_minute(4.0 * 60) == pytest.approx(0.25 / 60.0)
    assert profile.rate_per_minute(12.0 * 60) == pytest.approx(2.0 / 60.0)
    assert profile.peak_per_minute() == pytest.approx(2.0 / 60.0)
    with pytest.raises(ValueError):
        DiurnalProfile(slot_minutes=7)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"duration_hours": 0.0},
        {"n_users": 0},
        {"n_eclipsed": 3, "n_users": 2},
        {"n_eclipsed": 1},
        {"attacker_alpha": 1.0},
        {"tier_sizes": (1, 1), "n_servers": 4},
        {"backfill_blocks": 0},
    ],
)
def test_scenario_config_validation(kwargs):
    with pytest.raises(ConfigInvalid):
        ScenarioConfig(**kwargs)


def test_scenario_from_dict():
    config = sim.scenario_from_dict(
        {
            "seed": 5,
            "duration_hours": 2.0,
            "tier_sizes": [2, 2],
            "diurnal": {"quiet_rate_per_hour": 0.5},
        }
    )
    assert config.seed == 5
    assert config.tier_sizes == (2, 2)
    assert config.diurnal.quiet_rate_per_hour == 0.5
    with pytest.raises(ConfigInvalid):
        sim.scenario_from_dict({"no_such_knob": 1})


def test_attacker_pace_defaults_to_detection_mean_over_alpha():
    config = ScenarioConfig(
        n_eclipsed=1, eclipse_start_minutes=60.0, attacker_alpha=0.2
    )
    assert config.attacker_pace_minutes() == pytest.approx(60.0)
    explicit = ScenarioConfig(
        n_eclipsed=1,
        eclipse_start_minutes=60.0,
        attacker_alpha=0.2,
        attacker_mean_block_minutes=45.0,
    )
    assert explicit.attacker_pace_minutes() == pytest.approx(45.0)


BASE = dict(
    seed=21,
    duration_hours=6.0,
    n_users=6,
    n_servers=3,
    n_eclipsed=1,
    eclipse_start_minutes=60.0,
    attacker_alpha=0.2,
)


def test_run_scenario_is_deterministic():
    a = sim.run_scenario(ScenarioConfig(**BASE))
    b = sim.run_scenario(ScenarioConfig(**BASE))
    assert sim.events_jsonl(a.events) == sim.events_jsonl(b.events)
    assert a.detection_minutes == b.detection_minutes
    assert a.honest_heights == b.honest_heights
    different = sim.run_scenario(ScenarioConfig(**{**BASE, "seed": 22}))
    assert sim.events_jsonl(different.events) != sim.events_jsonl(a.events)


def _suspected_stronger_connect(events):
    return any(
        e["kind"] == "connect" and e["result"] == "remote_stronger" and e["eclipse_suspected"]
        for e in events
    )


def _type2_alerts_at_every_level(events):
    levels = {e["level"] for e in events if e["kind"] == "alert" and e["alert"] == "type2"}
    return levels == {"yellow", "orange", "red"}


def _plain_connects_and_minute_start(events):
    connects = [e for e in events if e["kind"] == "connect"]
    starts = [e for e in events if e["kind"] == "attack_start"]
    return (
        connects != []
        and all(list(e) == ["t", "kind", "user", "server"] for e in connects)
        and [e["t"] for e in starts] == [60.0]
    )


@pytest.mark.parametrize(
    "config, witness, expected",
    [
        # The criterion-08 scenario at seed 31 logs remote_stronger
        # connects, eclipse suspicions and learned headers, so this digest
        # pins the exchange result strings and the headers_learned counts
        # byte for byte.
        pytest.param(
            ScenarioConfig(
                seed=31,
                duration_hours=10.0,
                n_users=10,
                n_servers=5,
                tier_sizes=(1, 0, 0, 0, 0, 4),
                start_clock_hour=8.0,
                diurnal=DiurnalProfile(busy_rate_per_hour=4.0),
                n_eclipsed=1,
                eclipse_start_minutes=60.0,
                attacker_alpha=0.2,
            ),
            _suspected_stronger_connect,
            "c4c2f4e5209c5148a5de284e6b9d19148e1399f6128f80df0738cb64cd7eee98",
            id="criterion08",
        ),
        # Backdated attacker stamps under the boundary-inclusive span rule
        # raise type2 alerts at all three levels, so this digest pins the
        # span check's crossing times.
        pytest.param(
            ScenarioConfig(**BASE, boundary_inclusive=True, backdated_timestamps=True),
            _type2_alerts_at_every_level,
            "d7a861478f72ea3c9e309f745373982920741cd5ea1fbbdee91014dcc9d43247",
            id="backdated-inclusive",
        ),
        # With gossip off a connect logs only who met whom, and with the
        # eclipse starting at a set minute rather than at a block the
        # attack begins exactly at minute 60; no other pin covers either.
        pytest.param(
            ScenarioConfig(**BASE, gossip_enabled=False, eclipse_start_at_block=False),
            _plain_connects_and_minute_start,
            "818ac467f4b5e4d043aa8693f23cbf8af71143a5884114768a76a4dee3c1ad5d",
            id="gossip-off-minute",
        ),
    ],
)
def test_pinned_event_log_digest(config, witness, expected):
    result = sim.run_scenario(config)
    assert witness(result.events)
    digest = hashlib.sha256(sim.events_jsonl(result.events).encode()).hexdigest()
    assert digest == expected


def test_digest_tool_passes_on_a_recorded_sim_day_scenario():
    # The sim_day digests in bench/baseline.json are otherwise checked only
    # by the benchmark; one scenario takes about a second.
    tool = Path(__file__).resolve().parents[1] / "tools" / "check_sim_digests.py"
    out = subprocess.run([sys.executable, str(tool), "0"], capture_output=True, text=True)
    assert out.returncode == 0, out.stdout + out.stderr
    assert "0 mismatches over 1 scenarios" in out.stdout


def test_run_scenario_events_are_time_ordered():
    result = sim.run_scenario(ScenarioConfig(**BASE))
    times = [event["t"] for event in result.events]
    assert times == sorted(times)
    for event in result.events:
        assert event["t"] >= 0.0


def test_run_scenario_attacker_is_slower_for_small_alpha():
    result = sim.run_scenario(ScenarioConfig(**{**BASE, "duration_hours": 12.0}))
    honest_after = sum(
        1
        for event in result.events
        if event["kind"] == "block"
        and event["miner"] == "honest"
        and event["t"] > result.eclipse_start_minutes
    )
    assert result.attacker_blocks < honest_after


def test_run_scenario_detection_is_min_of_alert_and_gossip():
    result = sim.run_scenario(ScenarioConfig(**BASE))
    for user, detected in result.detection_minutes.items():
        candidates = [
            t
            for t in (
                result.first_alert_minutes[user],
                result.first_gossip_minutes[user],
            )
            if t is not None
        ]
        if candidates:
            assert detected == min(candidates)
        else:
            assert detected is None


def test_gossip_off_never_emits_gossip_detection():
    config = ScenarioConfig(**{**BASE, "gossip_enabled": False})
    result = sim.run_scenario(config)
    assert result.first_gossip_minutes == {"u0": None}
    kinds = {event["kind"] for event in result.events}
    assert "gossip_detection" not in kinds


def test_isolated_victim_alert_fires_at_single_block_threshold():
    # Gossip off and a silent attacker: the only signal is block silence,
    # so the first alert lands one Yellow threshold after the last block
    # the victim saw (give or take whole-second timestamp rounding).
    config = ScenarioConfig(**{**BASE, "gossip_enabled": False, "attacker_alpha": 0.0})
    result = sim.run_scenario(config)
    assert result.first_gossip_minutes == {"u0": None}
    relative = result.first_alert_minutes["u0"]
    assert relative is not None
    assert 55.25 < relative < 55.28
    assert result.detection_minutes["u0"] == relative


def test_gossip_detection_requires_evidence():
    # Replay: every flagged contact must name a server that provably held a
    # view the victim did not have yet.
    result = sim.run_scenario(ScenarioConfig(**BASE))
    detections = [e for e in result.events if e["kind"] == "gossip_detection"]
    for event in detections:
        assert event["t"] >= result.eclipse_start_minutes
        assert event["reason"] in ("conflict", "extension")
        assert event["evidence_height"] >= 0


@pytest.mark.parametrize(
    "overrides",
    [
        pytest.param({}, id="base"),
        # A gossip-free day whose u41 -> s2 connect falls just short of
        # 1541.5 s, so the raw clock and the logged event time round to
        # different seconds; the trace must follow the log.
        pytest.param(
            {"seed": 5, "n_users": 50, "duration_hours": 24.0, "gossip_enabled": False},
            id="day-seed5",
        ),
    ],
)
def test_trace_matches_connect_events(overrides):
    result = sim.run_scenario(ScenarioConfig(**{**BASE, **overrides}))
    connects = [e for e in result.events if e["kind"] == "connect"]
    assert len(result.trace.records) == len(connects)
    expected = sorted(
        (int(round(e["t"] * 60)), e["user"], e["server"]) for e in connects
    )
    got = [(r.time, r.user, r.server) for r in result.trace.records]
    assert got == expected


def test_export_trace_roundtrip():
    result = sim.run_scenario(ScenarioConfig(**BASE))
    rebuilt = sim.export_trace(result.events)
    assert rebuilt.records == result.trace.records


def test_events_jsonl_parses_line_by_line():
    result = sim.run_scenario(ScenarioConfig(**BASE))
    text = sim.events_jsonl(result.events)
    lines = text.strip().splitlines()
    assert len(lines) == len(result.events)
    for line, event in zip(lines, result.events):
        assert json.loads(line) == json.loads(json.dumps(event))


def test_attack_escape_trials_against_closed_form():
    alpha = 0.2
    closed = alerts.attacker_escape_probability(
        alerts.AttackerModel(alpha=alpha), alerts.AlertLevel.YELLOW
    )
    trials = 100_000
    estimate = sim.attack_escape_trials(alpha, trials, seed=5)
    se = math.sqrt(closed * (1.0 - closed) / trials)
    assert abs(estimate - closed) < 4 * se


def test_mine_header_satisfies_target():
    from blocksentinel.headers import check_pow

    header = sim.mine_header(1, bytes(32), bytes(32), 1_600_000_000, sim.EASY_NBITS)
    assert check_pow(header)
