"""trace_analysis: the `sentinel analyze` and `sentinel tables` commands run
in-process over a seed-generated week-long connection trace.

The trace has 1250 users and 40 servers in six popularity tiers
(2, 4, 6, 8, 10 and 10 servers, each tier half as popular as the one
before).  Users are active on a few days a week, in sessions of
connections a few minutes apart.  Here `metrics`, `cli` and the `alerts`
closed forms do the work; headers, chainview, gossip and service do none.

Every command starts from a cold `waiting_time_quantile` cache, as a
fresh `sentinel` process would.  The outputs of coverage, aadt and
freshness are checked against a sort-once recomputation here, and the
attack-probs table against the published reference values.
"""

import contextlib
import csv
import gc
import io
import json
import math
import random
import time

from blocksentinel import alerts, cli

import common
import measure

USERS = 1250
TIER_SIZES = (2, 4, 6, 8, 10, 10)
COVERAGE_SETS = (1, 2, 5, 10, 20, 40)
CI_SERVERS = 3
THRESHOLD_KS = range(1, 13)
CUT_S = 8 * 3600.0
TOLERANCE = 1e-9


def generate(seed: int) -> tuple[list[tuple[int, str, str]], list[str]]:
    """Connection records (time, user, server) and servers by popularity."""
    rng = random.Random(seed)
    servers, weights = [], []
    for tier, size in enumerate(TIER_SIZES):
        for _ in range(size):
            servers.append(f"s{len(servers)}")
            weights.append(2.0 ** (5 - tier))
    records = []
    for index in range(USERS):
        user = f"u{index}"
        for day in rng.sample(range(7), rng.randint(1, 4)):
            t = day * 86400 + rng.uniform(6, 20) * 3600
            for _ in range(rng.randint(1, 12)):
                server = rng.choices(servers, weights)[0]
                records.append((int(t), user, server))
                t += rng.expovariate(1 / 600.0)
    records.sort()
    return records, servers


def write_csv(records, path) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["time", "user", "server"])
        writer.writerows(records)


def commands(path, servers) -> list[list[str]]:
    trace = str(path)
    top_tier = ",".join(servers[: TIER_SIZES[0]])
    seq = [
        ["analyze", "--trace", trace, "--metric", "coverage", "--servers", ",".join(servers[:n])]
        for n in COVERAGE_SETS
    ]
    seq.append(["analyze", "--trace", trace, "--metric", "aadt", "--servers", top_tier])
    seq += [["analyze", "--trace", trace, "--metric", "freshness", "--server", s] for s in servers]
    step = len(servers) // CI_SERVERS
    seq += [
        ["analyze", "--trace", trace, "--metric", "freshness-ci", "--server", s, "--adoption", "0.5"]
        for s in servers[::step][:CI_SERVERS]
    ]
    seq.append(["analyze", "--trace", trace, "--metric", "tiers"])
    seq += [["tables", "thresholds", "--k", str(k)] for k in THRESHOLD_KS]
    seq.append(["tables", "alert-probs"])
    seq.append(["tables", "attack-probs"])
    return seq


class Reference:
    """Coverage, aadt and freshness recomputed from once-sorted lists."""

    def __init__(self, records):
        self.t0 = records[0][0]
        self.t_max = records[-1][0]
        self.by_user: dict[str, list[tuple[int, str]]] = {}
        self.by_server: dict[str, list[int]] = {}
        for t, user, server in records:
            self.by_user.setdefault(user, []).append((t, server))
            self.by_server.setdefault(server, []).append(t)

    def _sawtooth_hours(self, times, cut=None) -> float:
        points = [self.t0, *times, self.t_max]
        gaps = [b - a for a, b in zip(points, points[1:])]
        if cut is not None:
            gaps = [g for g in gaps if g < cut]
        total = sum(gaps)
        return math.nan if total <= 0 else sum(g * g for g in gaps) / 2.0 / total / 3600.0

    def coverage(self, servers) -> float:
        wanted = set(servers)
        touched = sum(
            1 for visits in self.by_user.values() if any(s in wanted for _, s in visits)
        )
        return touched / len(self.by_user)

    def aadt(self, user, servers) -> float:
        wanted = set(servers)
        return self._sawtooth_hours([t for t, s in self.by_user[user] if s in wanted], CUT_S)

    def freshness(self, server) -> float:
        return self._sawtooth_hours(self.by_server[server])


def _close(got, want) -> bool:
    if got is None or (isinstance(want, float) and math.isnan(want)):
        return got is None and math.isnan(want)
    return abs(got - want) <= TOLERANCE * max(1.0, abs(want))


def check(argv, text: str, ref: Reference) -> str | None:
    """None when a command's output matches the reference."""
    if argv[0] == "tables":
        return _check_attack_probs(text) if argv[1] == "attack-probs" else None
    report = json.loads(text)
    metric = report["metric"]
    if metric == "coverage":
        ok = _close(report["coverage"], ref.coverage(report["servers"]))
    elif metric == "aadt":
        hours = report["hoursByUser"]
        ok = len(hours) == len(ref.by_user) and all(
            _close(value, ref.aadt(user, report["servers"])) for user, value in hours.items()
        )
    elif metric == "freshness":
        ok = _close(report["hours"], ref.freshness(report["server"]))
    else:
        ok = True
    return None if ok else f"{metric} differs from the reference ({' '.join(argv[3:])})"


def _check_attack_probs(text: str) -> str | None:
    """Model columns agree with the published values at two significant
    figures: within half a unit of the second digit."""
    levels = (alerts.AlertLevel.YELLOW, alerts.AlertLevel.ORANGE, alerts.AlertLevel.RED)
    rows = 0
    for line in text.splitlines()[1:]:
        cells = line.split()
        alpha = float(cells[0])
        for level, model in zip(levels, cells[1::2]):
            reference = alerts.REFERENCE_ESCAPE_PROBABILITIES[(alpha, level)]
            unit = 10.0 ** (math.floor(math.log10(reference)) - 1)
            if abs(float(model) - reference) > 0.5 * unit:
                return f"attack-probs alpha={alpha} {level.name}: {model} vs {reference:.2e}"
        rows += 1
    expected = len({a for a, _ in alerts.REFERENCE_ESCAPE_PROBABILITIES})
    return None if rows == expected else f"attack-probs printed {rows} rows, expected {expected}"


def run_sequence(seq, ref) -> tuple[list[float], list[str]]:
    """Run each command from a cold quantile cache; returns (ms, errors)."""
    samples, errors = [], []
    for argv in seq:
        alerts.waiting_time_quantile.cache_clear()
        out = io.StringIO()
        started = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        samples.append((time.perf_counter() - started) * 1000.0)
        if code != 0:
            errors.append(f"{' '.join(argv[:4])}: exit code {code}")
            continue
        error = check(argv, out.getvalue(), ref)
        if error:
            errors.append(error)
    return samples, errors


def run(work, seed: int, seconds: float, tracer=None) -> dict:
    path = work / f"trace-{seed}.csv"
    times = []
    for _ in range(common.SETUP_REPEATS):
        started = time.perf_counter()
        records, servers = generate(seed)
        write_csv(records, path)
        common.cold_import_s()
        times.append(time.perf_counter() - started)
    ref = Reference(records)
    seq = commands(path, servers)
    # The generated records and the reference recomputation live as long
    # as the run.  Frozen, they are no longer walked by every full
    # collection inside cli.main, which a fresh `sentinel` process would
    # not hold; the records the package reads are collected as usual.
    gc.freeze()
    samples, errors, sequences = [], [], 0
    extra = {}
    if tracer is None:
        # Start a sequence only when the last one's time still fits.
        deadline = time.perf_counter() + seconds
        last = 0.0
        while not samples or time.perf_counter() + last <= deadline:
            started = time.perf_counter()
            ms, errs = run_sequence(seq, ref)
            last = time.perf_counter() - started
            samples += ms
            errors += errs
            sequences += 1
    else:
        plain, errs = run_sequence(seq, ref)
        errors += errs
        tracer.install()
        try:
            samples, errs = run_sequence(seq, ref)
        finally:
            tracer.uninstall()
        errors += errs
        sequences = 1
        extra = {
            "bench.trace_overhead_ratio": sum(samples) / sum(plain),
        }
        tracer.write_spans(work / f"spans-trace_analysis-{seed}.jsonl")
    gc.unfreeze()
    percentile, tail_value = measure.tail(samples)
    analyze_n = sum(1 for argv in seq if argv[0] == "analyze")
    per_seq = [samples[i : i + len(seq)] for i in range(0, len(samples), len(seq))]
    result = {
        "attempted": len(samples) + (len(seq) if tracer is not None else 0),
        "failed": len(errors),
        "errors": errors,
        "metrics": {
            "setup_s": measure.median(times),
            "peak_rss_mb": common.peak_rss_mb(),
            "op_p50_ms": measure.median(samples),
            "op_tail_ms": tail_value,
            "ops_per_s": len(samples) / (sum(samples) / 1000.0),
        },
        "details": {
            "records": len(records),
            "users": len(ref.by_user),
            "commands_per_sequence": len(seq),
            "sequences": sequences,
            "tail_percentile": percentile,
            "analyze_s": measure.median([sum(s[:analyze_n]) / 1000.0 for s in per_seq]),
            "tables_s": measure.median([sum(s[analyze_n:]) / 1000.0 for s in per_seq]),
        },
    }
    if tracer is not None:
        result["layer"] = {"tables": [tracer.table()], "units": sequences, "extra": extra}
    return result
