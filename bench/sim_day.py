"""sim_day: the simulator on a fixed, seed-derived list of one-day scenarios.

Each scenario has 50 users, 10 servers in popularity tiers (1,1,2,2,2,2),
24 hours, 5 users eclipsed from minute 360 by an attacker with 20% of the
hash rate, and gossip on.  Hashing and window absorbs are most of its CPU
and there is no HTTP, so it measures headers, chainview and gossip apart
from service.
"""

import hashlib
import time

from blocksentinel import sim

import common
import measure

SCENARIOS = 10


def scenario_seeds(seed: int) -> list[int]:
    return [seed * 100 + j for j in range(SCENARIOS)]


def config(scenario_seed: int) -> sim.ScenarioConfig:
    return sim.ScenarioConfig(
        seed=scenario_seed,
        duration_hours=24.0,
        n_users=50,
        n_servers=10,
        tier_sizes=(1, 1, 2, 2, 2, 2),
        n_eclipsed=5,
        eclipse_start_minutes=360.0,
        attacker_alpha=0.2,
        gossip_enabled=True,
    )


def check(result, digest: str, expected: str | None) -> str | None:
    """None when every victim was detected by gossip and the log is the
    expected one."""
    victims = set()
    detected = set()
    for event in result.events:
        if event["kind"] == "attack_start":
            victims.update(event["victims"])
        elif event["kind"] == "gossip_detection":
            detected.add(event["user"])
    if len(victims) != result.config.n_eclipsed:
        return f"scenario {result.config.seed}: {len(victims)} victims"
    if victims - detected:
        return f"scenario {result.config.seed}: undetected {sorted(victims - detected)}"
    if expected is not None and digest != expected:
        return f"scenario {result.config.seed}: event log digest {digest[:12]} != {expected[:12]}"
    return None


def run_one(scenario_seed: int, digests: dict) -> tuple[float, int, str | None]:
    """Run one scenario; returns (wall seconds, connects, error)."""
    cfg = config(scenario_seed)
    started = time.perf_counter()
    result = sim.run_scenario(cfg)
    wall = time.perf_counter() - started
    digest = hashlib.sha256(sim.events_jsonl(result.events).encode()).hexdigest()
    error = check(result, digest, digests.get(scenario_seed))
    digests.setdefault(scenario_seed, digest)
    return wall, len(result.trace.records), error


def run(work, seed: int, seconds: float, tracer=None, recorded: dict | None = None) -> dict:
    """`recorded` maps scenario seeds to known event-log digests; every
    repeat of a scenario must also match its first run."""
    times = [common.cold_import_s() for _ in range(common.SETUP_REPEATS)]
    digests = dict(recorded or {})
    seeds = scenario_seeds(seed)
    samples, connects, walls, errors = [], 0, 0.0, []
    extra = {}
    if tracer is None:
        # Start a scenario only when the last one's time still fits.
        deadline = time.perf_counter() + seconds
        index, wall = 0, 0.0
        while not samples or time.perf_counter() + wall <= deadline:
            wall, count, error = run_one(seeds[index % len(seeds)], digests)
            samples.append(wall * 1000.0 / count)
            connects += count
            walls += wall
            if error:
                errors.append(error)
            index += 1
    else:
        plain, _, error = run_one(seeds[0], digests)
        errors.extend([error] if error else [])
        tracer.install()
        try:
            traced, connects, error = run_one(seeds[0], digests)
        finally:
            tracer.uninstall()
        errors.extend([error] if error else [])
        samples, walls = [traced * 1000.0 / connects], traced
        extra = {
            "bench.trace_overhead_ratio": traced / plain,
            "sim.connects": connects,
        }
        tracer.write_spans(work / f"spans-sim_day-{seed}.jsonl")
    percentile, tail_value = measure.tail(samples)
    result = {
        "attempted": len(samples) + (1 if tracer is not None else 0),
        "failed": len(errors),
        "errors": errors,
        "metrics": {
            "setup_s": measure.median(times),
            "peak_rss_mb": common.peak_rss_mb(),
            "op_p50_ms": measure.median(samples),
            "op_tail_ms": tail_value,
            "ops_per_s": connects / walls,
        },
        "details": {
            "scenarios_run": len(samples),
            "ms_per_connect": samples,
            "tail_percentile": percentile,
            "digests": {str(s): digests[s] for s in seeds if s in digests},
        },
    }
    if tracer is not None:
        result["layer"] = {"tables": [tracer.table()], "units": connects, "extra": extra}
    return result
