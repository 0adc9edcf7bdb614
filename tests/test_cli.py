"""Command-line interface tests."""

import hashlib
import json
import random
import threading

import pytest

from blocksentinel import cli, metrics, service
from blocksentinel.metrics import ConnectionRecord, ConnectionTrace
from support import mined_chain, window_of


SCENARIO = {
    "seed": 21,
    "duration_hours": 4.0,
    "n_users": 4,
    "n_servers": 2,
    "n_eclipsed": 1,
    "eclipse_start_minutes": 60.0,
    "attacker_alpha": 0.2,
}


@pytest.fixture()
def trace_csv(tmp_path):
    rng = random.Random(41)
    records = [
        ConnectionRecord(rng.randrange(0, 86_400), f"u{i % 5}", f"s{i % 3}")
        for i in range(60)
    ]
    trace = ConnectionTrace.from_records(records, t0=0, t_max=86_400)
    path = tmp_path / "trace.csv"
    metrics.write_trace_csv(trace, path)
    return path


def test_no_command_prints_usage(capsys):
    assert cli.main([]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_command_exits_nonzero(capsys):
    assert cli.main(["no-such-command"]) == 1
    assert "invalid choice" in capsys.readouterr().err


def test_missing_required_argument_exits(capsys):
    assert cli.main(["simulate", "--out", "x"]) == 1
    assert "--scenario" in capsys.readouterr().err


def test_tables_thresholds(capsys):
    assert cli.main(["tables", "thresholds"]) == 0
    out = capsys.readouterr().out
    assert "55.26" in out
    assert "110.52" in out
    assert "165.79" in out
    assert "k=1" in out


def test_tables_thresholds_custom_k(capsys):
    assert cli.main(["tables", "thresholds", "--k", "8"]) == 0
    out = capsys.readouterr().out
    assert "k=8" in out


def test_tables_alert_probs(capsys):
    assert cli.main(["tables", "alert-probs"]) == 0
    out = capsys.readouterr().out
    assert "t(min)" in out
    assert "n<=0" in out
    assert "1.9e-01 g" in out
    assert " y" in out
    assert " r" in out


def test_tables_attack_probs(capsys):
    assert cli.main(["tables", "attack-probs", "--alpha", "0.5", "--level", "red"]) == 0
    out = capsys.readouterr().out
    assert "9.77e-01" in out
    assert "0.500" in out


def test_tables_attack_probs_bad_alpha(capsys):
    assert cli.main(["tables", "attack-probs", "--alpha", "0.33"]) == 1


def test_simulate_writes_outputs(tmp_path):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(SCENARIO))
    out = tmp_path / "out"
    assert cli.main(["simulate", "--scenario", str(scenario), "--out", str(out)]) == 0
    events = (out / "events.jsonl").read_text().strip().splitlines()
    assert events
    for line in events:
        json.loads(line)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["seed"] == 21
    assert summary["durationHours"] == 4.0
    assert summary["events"] == len(events)
    detections = json.loads((out / "detections.json").read_text())
    assert "detectionMinutes" in detections
    assert "eclipseStartMinutes" in detections
    trace = metrics.read_trace_csv(out / "trace.csv")
    assert trace.records


def test_simulate_deterministic_and_seed_override(tmp_path):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(SCENARIO))
    out_a, out_b, out_c = (tmp_path / name for name in ("a", "b", "c"))
    cli.main(["simulate", "--scenario", str(scenario), "--out", str(out_a)])
    cli.main(["simulate", "--scenario", str(scenario), "--out", str(out_b)])
    cli.main(
        ["simulate", "--scenario", str(scenario), "--out", str(out_c), "--seed", "99"]
    )
    text_a = (out_a / "events.jsonl").read_bytes()
    assert text_a == (out_b / "events.jsonl").read_bytes()
    assert text_a != (out_c / "events.jsonl").read_bytes()
    assert json.loads((out_c / "summary.json").read_text())["seed"] == 99


def test_simulate_rejects_bad_scenario(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"unknown_knob": True}))
    assert cli.main(["simulate", "--scenario", str(bad), "--out", str(tmp_path / "o")]) == 2
    missing = tmp_path / "missing.json"
    assert (
        cli.main(["simulate", "--scenario", str(missing), "--out", str(tmp_path / "o")])
        == 2
    )


def test_analyze_coverage(trace_csv, capsys):
    code = cli.main(
        [
            "analyze",
            "--trace",
            str(trace_csv),
            "--metric",
            "coverage",
            "--servers",
            "s0,s1",
        ]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["metric"] == "coverage"
    assert 0.0 <= report["coverage"] <= 1.0


def test_analyze_coverage_requires_servers(trace_csv):
    assert cli.main(["analyze", "--trace", str(trace_csv), "--metric", "coverage"]) == 1


def test_analyze_aadt_all_users(trace_csv, capsys):
    code = cli.main(
        ["analyze", "--trace", str(trace_csv), "--metric", "aadt", "--servers", "s0"]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report["hoursByUser"]) == {f"u{i}" for i in range(5)}


def test_analyze_freshness(trace_csv, capsys):
    code = cli.main(
        ["analyze", "--trace", str(trace_csv), "--metric", "freshness", "--server", "s0"]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["hours"] > 0.0


def test_analyze_freshness_ci_full_adoption(trace_csv, capsys):
    code = cli.main(
        [
            "analyze",
            "--trace",
            str(trace_csv),
            "--metric",
            "freshness-ci",
            "--server",
            "s0",
            "--adoption",
            "1.0",
        ]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["halfWidth"] == 0.0


def test_analyze_tiers_to_file(trace_csv, tmp_path):
    out = tmp_path / "tiers.json"
    code = cli.main(
        ["analyze", "--trace", str(trace_csv), "--metric", "tiers", "--out", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["tierByServer"] == {"s0": 6, "s1": 6, "s2": 6}


def test_analyze_missing_trace(tmp_path):
    missing = tmp_path / "nope.csv"
    assert cli.main(["analyze", "--trace", str(missing), "--metric", "tiers"]) == 2


@pytest.mark.parametrize(
    "row", ["abc,u1,s1", "20,u1", "20,u1,s1,extra", "", "nan,u1,s1", "-inf,u1,s1"]
)
def test_analyze_malformed_row_exits_2(tmp_path, capsys, row):
    path = tmp_path / "bad.csv"
    path.write_text(f"time,user,server\n10,u0,s0\n{row}\n30,u2,s1\n")
    assert cli.main(["analyze", "--trace", str(path), "--metric", "tiers"]) == 2
    assert "line 3" in capsys.readouterr().err


def test_serve_run_seconds_exits_cleanly():
    assert cli.main(["serve", "--run-seconds", "0.2", "--listen", "127.0.0.1:0"]) == 0


def test_serve_bad_listen():
    assert cli.main(["serve", "--listen", "no-port"]) == 1


def test_serve_window_sets_initial_window_capacity(monkeypatch):
    handed = {}

    class _Handle:
        address = "127.0.0.1:0"

        def close(self):
            pass

    def fake_serve(**kwargs):
        handed.update(kwargs)
        return _Handle()

    monkeypatch.setattr(service, "serve", fake_serve)
    assert cli.main(["serve", "--window", "16", "--run-seconds", "0"]) == 0
    window = handed["initial_window"]
    assert window.capacity == 16
    assert window.is_empty()


def test_daemon_once_against_live_server(tmp_path, capsys):
    chain = mined_chain(12, random.Random(42))
    handle = service.serve(initial_window=window_of(chain))
    try:
        config = tmp_path / "daemon.json"
        config.write_text(json.dumps({"servers": [handle.address]}))
        code = cli.main(["daemon", "--config", str(config), "--once", "--seed", "3"])
        out = capsys.readouterr().out
    finally:
        handle.close()
    assert code == 0
    report = json.loads(out)
    assert report["status"]["tipHeight"] == 11
    assert report["polled"] == [handle.address]
    assert report["failures"] == []
    assert report["eclipseSuspected"] is False


def test_daemon_run_seconds_exits_cleanly(tmp_path, capsys):
    config = tmp_path / "daemon.json"
    config.write_text(json.dumps({"servers": []}))
    argv = ["daemon", "--config", str(config), "--run-seconds", "0.2", "--tick-seconds", "0.05"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == "daemon running\n"


@pytest.mark.parametrize(
    "argv",
    [["daemon", "--once", "--active-sample", "0"], ["check", "--sample", "0"]],
)
def test_zero_sample_override_is_rejected(tmp_path, capsys, argv):
    config = tmp_path / "daemon.json"
    config.write_text(json.dumps({"servers": []}))
    assert cli.main(argv + ["--config", str(config)]) == 2
    assert "daemon settings must be positive" in capsys.readouterr().err


def test_check_rejects_servers_given_as_one_string(tmp_path, capsys):
    # tuple("127.0.0.1:9") would poll eleven one-character addresses.
    config = tmp_path / "daemon.json"
    config.write_text(json.dumps({"servers": "127.0.0.1:9"}))
    assert cli.main(["check", "--config", str(config)]) == 2
    assert "servers must be a JSON list" in capsys.readouterr().err


def test_check_command(tmp_path, capsys):
    chain = mined_chain(8, random.Random(43))
    handle = service.serve(initial_window=window_of(chain))
    try:
        config = tmp_path / "daemon.json"
        config.write_text(json.dumps({"servers": [handle.address]}))
        code = cli.main(["check", "--config", str(config), "--seed", "3"])
        out = capsys.readouterr().out
    finally:
        handle.close()
    assert code == 0
    report = json.loads(out)
    assert report["eclipseSuspected"] is False
    assert report["polled"] == [handle.address]


def test_analyze_outputs_are_pinned(tmp_path, capsys):
    # Every analyze metric over a small seeded trace with fractional
    # times, so any change in summation order shows in the digest.
    rng = random.Random(1207)
    rows = sorted(
        (rng.randrange(0, 3 * 86_400 * 20) / 20, f"u{rng.randrange(120)}", f"s{rng.randrange(7)}")
        for _ in range(900)
    )
    path = tmp_path / "trace.csv"
    path.write_text("time,user,server\n" + "".join(f"{t},{u},{s}\n" for t, u, s in rows))
    trace = ["analyze", "--trace", str(path), "--metric"]
    runs = [
        ["coverage", "--servers", "s0,ghost"],
        ["aadt", "--servers", "s0,s1"],
        ["aadt", "--servers", "s2,s5", "--user", "u7"],
        ["freshness", "--server", "s4"],
        ["freshness-ci", "--server", "s1", "--adoption", "0.5", "--seed", "3"],
        ["tiers"],
    ]
    digest = hashlib.sha256()
    for argv in runs:
        assert cli.main(trace + argv) == 0
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == "bdf9f8a1c1ce8a32f9a3efb9e37d2d17a590e06d408237efb74bcffd00afe8b4"
