"""Check every recorded sim_day event log against the simulator.

Runs each of the 100 sim_day scenarios (scenario seed s*100+j for every
benchmark seed s and j in 0-9, configured by bench/sim_day.config), and
for each one compares the SHA-256 of its event log with the digest in
bench/baseline.json and checks that its connection trace is the one the
event log implies.  Exits 1 on any mismatch.  Reads bench/ and writes
nothing.  Takes a few minutes; name scenario seeds to check only those:

    python tools/check_sim_digests.py [SCENARIO_SEED ...]
"""

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import sim_day  # noqa: E402
from blocksentinel import sim  # noqa: E402


def check(scenario_seed: int, expected: str | None) -> str | None:
    """None when the scenario's log and trace match; else what differs."""
    config = sim_day.config(scenario_seed)
    result = sim.run_scenario(config)
    digest = hashlib.sha256(sim.events_jsonl(result.events).encode()).hexdigest()
    if digest != expected:
        return f"event log digest {digest[:12]} != {(expected or 'none')[:12]}"
    derived = sim.export_trace(result.events, 0.0, config.duration_minutes() * 60.0)
    if result.trace.records != derived.records:
        return "trace differs from the connect events"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("scenarios", nargs="*", type=int, help="scenario seeds (default: all)")
    args = parser.parse_args(argv)
    baseline = json.loads((ROOT / "bench" / "baseline.json").read_text())
    recorded = {int(k): v for k, v in baseline["sim_day"]["event_log_sha256"].items()}
    scenarios = args.scenarios or [
        scenario for seed in baseline["seeds"] for scenario in sim_day.scenario_seeds(seed)
    ]
    mismatches = 0
    for scenario in scenarios:
        started = time.perf_counter()
        error = check(scenario, recorded.get(scenario))
        mismatches += error is not None
        status = error or "ok"
        print(f"scenario {scenario}: {status} ({time.perf_counter() - started:.1f} s)", flush=True)
    print(f"{mismatches} mismatches over {len(scenarios)} scenarios")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
