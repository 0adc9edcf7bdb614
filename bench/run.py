"""Run one benchmark workload and print its result as one JSON line.

    python3 bench/run.py --workload gossip_http --seed 0 --seconds 35 --trace 0

Run it from the repository root; it loads the package from ./src.  With
`--trace 0` the result holds the end-to-end metrics of BENCHMARK.json,
with `--trace 1` its per-layer metrics from a separately traced run.  The
last line of standard output is the result; progress and per-class
details go to standard error.  The exit code is 0 only when every output
check passed.
"""

import argparse
import json
import shutil
import sys
from pathlib import Path

import common

WORKLOADS = ("gossip_http", "sim_day", "trace_analysis")
WORK_DIR = ".bench_work"


def layer_metrics(spec: list[dict], table: dict, units: int, extra: dict) -> dict:
    """Per-layer values per unit of work, from a merged trace table."""
    extra = dict(extra)
    sent = table["events"].get("gossip.headers_sent", 0)
    learned = table["events"].get("gossip.headers_learned", 0)
    extra["gossip.learned_per_sent"] = learned / sent if sent else 0.0
    # Layers a workload does not run read 0.
    for name in ("service.ServerState.exchange.retries", "service.ServerHandle.close_ms",
                 "sim.connects", "bench.late_p99_ms"):
        extra.setdefault(name, 0)
    values = {}
    for entry in spec:
        name = entry["name"]
        if name in extra:
            value = extra[name]
        elif name.endswith(".calls"):
            value = table["calls"].get(name[: -len(".calls")], 0) / units
        elif name.endswith(".self_ms"):
            value = table["self_ns"].get(name[: -len(".self_ms")], 0) / 1e6 / units
        else:
            value = table["events"].get(name, 0) / units
        values[name] = {"value": value, "unit": entry["unit"]}
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (common.SRC / "blocksentinel" / "__init__.py").is_file():
        print(f"no package source under {common.SRC}", file=sys.stderr)
        return 2
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    baseline = json.loads((Path(__file__).with_name("baseline.json")).read_text())
    sys.path.insert(0, str(common.SRC))

    import gossip_http
    import sim_day
    import trace_analysis
    import tracing

    work = common.ROOT / WORK_DIR
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    tracer = tracing.Tracer() if args.trace else None
    if args.workload == "gossip_http":
        result = gossip_http.run(work, args.seed, args.seconds, tracer)
    elif args.workload == "sim_day":
        recorded = {int(k): v for k, v in baseline["sim_day"]["event_log_sha256"].items()}
        result = sim_day.run(work, args.seed, args.seconds, tracer, recorded)
    else:
        result = trace_analysis.run(work, args.seed, args.seconds, tracer)

    for error in result["errors"][:10]:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed, **result["details"]}),
          file=sys.stderr)
    if args.trace:
        table = tracing.merge_tables(*result["layer"]["tables"])
        per_call = {
            name: {
                "calls": calls,
                "self_ms": table["self_ns"].get(name, 0) / 1e6 / calls,
                "total_ms": table["total_ns"].get(name, 0) / 1e6 / calls,
            }
            for name, calls in sorted(table["calls"].items())
        }
        print(json.dumps({"per_call": per_call}), file=sys.stderr)
        layer = result["layer"]
        metrics = layer_metrics(spec["per_layer"], table, layer["units"], layer["extra"])
    else:
        metrics = {
            entry["name"]: {"value": result["metrics"][entry["name"]], "unit": entry["unit"]}
            for entry in spec["end_to_end"]
        }
    correct = result["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
