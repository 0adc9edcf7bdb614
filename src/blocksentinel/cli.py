"""Command-line entry point tying the package together.

Exit codes are a stable contract: 0 success, 1 usage problems, 2 data or
file problems.
"""

import argparse
import json
import math
import random
import sys
import time
from dataclasses import replace
from pathlib import Path

from . import alerts, metrics, service, sim
from .errors import SentinelError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2

OBSERVATION_TABLE_MINUTES = (20, 40, 60, 80, 100, 120, 140, 160, 180, 240, 300, 360, 480, 600)
OBSERVATION_TABLE_COUNTS = (0, 1, 2, 3, 4, 5, 6, 7, 12, 18)

class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems instead of exiting itself."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def build_parser() -> _Parser:
    parser = _Parser(prog="sentinel", description="eclipse-attack detection toolkit")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("serve", help="run a gossip-enabled HTTP server")
    p.add_argument("--listen", default="127.0.0.1:9732", help="host:port to bind")
    p.add_argument("--window", type=int, default=2016, help="header window capacity")
    p.add_argument("--run-seconds", type=float, default=None, help="stop after this long")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("daemon", help="run the client-side daemon")
    p.add_argument("--config", required=True, help="JSON daemon config file")
    p.add_argument(
        "--active-sample", dest="sample", type=int, default=None, help="override sample size"
    )
    p.add_argument("--tick-seconds", type=float, default=60.0)
    p.add_argument("--run-seconds", type=float, default=None, help="stop after this long")
    p.add_argument("--once", action="store_true", help="one tick and active check, then exit")
    p.add_argument("--seed", type=int, default=None, help="seed server sampling")
    p.set_defaults(func=_cmd_daemon)

    p = sub.add_parser("check", help="manual active poll of known servers")
    p.add_argument("--config", required=True, help="JSON daemon config file")
    p.add_argument("--sample", type=int, default=None, help="override sample size")
    p.add_argument("--seed", type=int, default=None, help="seed server sampling")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("simulate", help="run a scenario and write its outputs")
    p.add_argument("--scenario", required=True, help="JSON scenario file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("analyze", help="compute connection-trace metrics")
    p.add_argument("--trace", required=True, help="trace CSV file")
    p.add_argument(
        "--metric",
        required=True,
        choices=["coverage", "aadt", "freshness", "freshness-ci", "tiers"],
    )
    p.add_argument("--user", default=None, help="user id (aadt; default: every user)")
    p.add_argument("--server", default=None, help="server id (freshness, freshness-ci)")
    p.add_argument("--servers", default=None, help="comma-joined server set (coverage, aadt)")
    p.add_argument("--adoption", type=float, default=None, help="user fraction (freshness-ci)")
    p.add_argument("--seed", type=int, default=0, help="resampling seed (freshness-ci)")
    p.add_argument("--out", default=None, help="write the JSON report here instead of stdout")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("tables", help="regenerate the analytic tables")
    p.add_argument("which", choices=["alert-probs", "thresholds", "attack-probs"])
    p.add_argument("--k", type=int, default=1, help="blocks per check (thresholds)")
    p.add_argument("--mean", type=float, default=12.0, help="model mean block minutes")
    p.add_argument("--alpha", type=float, default=None, help="filter attack-probs rows")
    p.add_argument(
        "--level", choices=["yellow", "orange", "red"], default=None,
        help="filter attack-probs columns",
    )
    p.set_defaults(func=_cmd_tables)

    return parser


def _split_listen(text: str) -> tuple[str, int]:
    host, sep, port = text.rpartition(":")
    if not sep or not port.isdigit():
        raise _UsageError(f"sentinel serve: bad --listen value {text!r}")
    return host or "127.0.0.1", int(port)


def _daemon_settings(args) -> tuple[service.ClientDaemonConfig, random.Random | None]:
    """Daemon config with the command's sample-size override, plus its rng."""
    config = service.ClientDaemonConfig.from_file(args.config)
    if args.sample is not None:
        config = replace(config, active_sample_size=args.sample)
    rng = random.Random(args.seed) if args.seed is not None else None
    return config, rng


def _emit(report: dict, out: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    if out is None:
        print(text)
    else:
        Path(out).write_text(text + "\n")


def _run_until_stopped(handle, run_seconds: float | None) -> int:
    """Keep `handle` running for `run_seconds` (forever when None) or until
    Ctrl-C, then close it."""
    try:
        if run_seconds is None:
            while True:
                time.sleep(3600.0)
        time.sleep(run_seconds)
    except KeyboardInterrupt:
        pass
    finally:
        handle.close()
    return EXIT_OK


def _cmd_serve(args) -> int:
    host, port = _split_listen(args.listen)
    handle = service.serve(host=host, port=port, capacity=args.window)
    print(f"serving on {handle.address}", flush=True)
    return _run_until_stopped(handle, args.run_seconds)


def _cmd_daemon(args) -> int:
    config, rng = _daemon_settings(args)
    if args.once:
        daemon = service.ClientDaemon(config, rng=rng)
        report = daemon.active_check()
        daemon.tick()
        return _emit_check(daemon, report)
    handle = service.run_client_daemon(config, tick_seconds=args.tick_seconds, rng=rng)
    print("daemon running", flush=True)
    return _run_until_stopped(handle, args.run_seconds)


def _cmd_check(args) -> int:
    config, rng = _daemon_settings(args)
    daemon = service.ClientDaemon(config, rng=rng)
    return _emit_check(daemon, daemon.active_check())


def _emit_check(daemon: service.ClientDaemon, report) -> int:
    """Print the report of one active check with the daemon's status."""
    _emit(
        {
            "polled": [address for address, _ in report.outcomes],
            "failures": list(report.failures),
            "eclipseSuspected": report.eclipse_suspected(),
            "status": daemon.status(),
        },
        None,
    )
    return EXIT_OK


def _cmd_simulate(args) -> int:
    with open(args.scenario) as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as err:
            raise SentinelError(f"scenario is not valid JSON: {err}") from err
    config = sim.scenario_from_dict(data)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    result = sim.run_scenario(config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "events.jsonl").write_text(sim.events_jsonl(result.events))
    metrics.write_trace_csv(result.trace, out / "trace.csv")
    (out / "detections.json").write_text(
        json.dumps(
            {
                "eclipseStartMinutes": result.eclipse_start_minutes,
                "detectionMinutes": result.detection_minutes,
                "firstAlertMinutes": result.first_alert_minutes,
                "firstGossipMinutes": result.first_gossip_minutes,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    (out / "summary.json").write_text(
        json.dumps(
            {
                "seed": config.seed,
                "durationHours": config.duration_hours,
                "honestBlocks": result.honest_heights[1] + 1,
                "attackerBlocks": result.attacker_blocks,
                "connections": len(result.trace.records),
                "events": len(result.events),
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {out / 'events.jsonl'} ({len(result.events)} events)")
    return EXIT_OK


def _nan_to_none(value: float) -> float | None:
    return None if math.isnan(value) else value


def _cmd_analyze(args) -> int:
    trace = metrics.read_trace_csv(args.trace)
    if args.metric == "coverage":
        if args.servers is None:
            raise _UsageError("sentinel analyze: coverage needs --servers")
        servers = args.servers.split(",")
        report = {"metric": "coverage", "servers": servers,
                  "coverage": metrics.coverage(trace, servers)}
    elif args.metric == "aadt":
        if args.servers is None:
            raise _UsageError("sentinel analyze: aadt needs --servers")
        servers = args.servers.split(",")
        users = [args.user] if args.user is not None else trace.users()
        report = {
            "metric": "aadt",
            "servers": servers,
            "hoursByUser": {
                user: _nan_to_none(metrics.aadt(trace, user, servers)) for user in users
            },
        }
    elif args.metric == "freshness":
        if args.server is None:
            raise _UsageError("sentinel analyze: freshness needs --server")
        report = {
            "metric": "freshness",
            "server": args.server,
            "hours": _nan_to_none(metrics.freshness(trace, args.server)),
        }
    elif args.metric == "freshness-ci":
        if args.server is None or args.adoption is None:
            raise _UsageError("sentinel analyze: freshness-ci needs --server and --adoption")
        mean, half = metrics.freshness_ci(
            trace, args.server, args.adoption, rng=random.Random(args.seed)
        )
        report = {
            "metric": "freshness-ci",
            "server": args.server,
            "adoption": args.adoption,
            "hours": _nan_to_none(mean),
            "halfWidth": _nan_to_none(half),
        }
    else:
        report = {"metric": "tiers", "tierByServer": metrics.assign_tiers(trace)}
    _emit(report, args.out)
    return EXIT_OK


def _format_cell(value: float) -> str:
    return f"{value:8.1e}"


def _cmd_tables(args) -> int:
    model = alerts.BlockTimingModel(mean_block_minutes=args.mean)
    if args.which == "alert-probs":
        head = "t(min)" + "".join(f"{f'n<={n}':>12}" for n in OBSERVATION_TABLE_COUNTS)
        print(head)
        for t in OBSERVATION_TABLE_MINUTES:
            cells = []
            for n in OBSERVATION_TABLE_COUNTS:
                p = alerts.prob_at_most_n_blocks(n, t, model)
                cells.append(f"{_format_cell(p)} {alerts.classify_probability(p).name[0].lower()}")
            print(f"{t:>6}" + "".join(f"{cell:>12}" for cell in cells))
        return EXIT_OK
    if args.which == "thresholds":
        if args.k < 1:
            raise _UsageError("sentinel tables: --k must be positive")
        thresholds = alerts.alert_thresholds(args.k, model)
        print(f"k={args.k} mean={args.mean:g}min")
        for level, minutes in thresholds.items():
            print(f"{level.name.lower():>8}  {minutes:8.2f} min")
        return EXIT_OK
    alphas = sorted({a for a, _ in alerts.REFERENCE_ESCAPE_PROBABILITIES})
    if args.alpha is not None:
        if args.alpha not in alphas:
            raise _UsageError(f"sentinel tables: no reference row for alpha={args.alpha:g}")
        alphas = [args.alpha]
    levels = [alerts.AlertLevel.YELLOW, alerts.AlertLevel.ORANGE, alerts.AlertLevel.RED]
    if args.level is not None:
        levels = [alerts.AlertLevel[args.level.upper()]]
    header = "alpha" + "".join(f"{lv.name.lower() + ' model':>16}{'reference':>12}" for lv in levels)
    print(header)
    for alpha in alphas:
        attacker = alerts.AttackerModel(alpha=alpha, base_mean_minutes=args.mean)
        row = [f"{alpha:5.3f}"]
        for level in levels:
            ours = alerts.attacker_escape_probability(attacker, level, detection_model=model)
            ref = alerts.REFERENCE_ESCAPE_PROBABILITIES[(alpha, level)]
            row.append(f"{ours:>16.2e}{ref:>12.2e}")
        print("".join(row))
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "func", None) is None:
            parser.print_usage(sys.stderr)
            return EXIT_USAGE
        return args.func(args)
    except _UsageError as err:
        print(str(err), file=sys.stderr)
        return EXIT_USAGE
    except SentinelError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DATA
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
