"""gossip_http: light clients exchanging header gossip with a live server.

A `service.serve` server in a child process holds a full 2016-header
window.  One generator process with one thread, and so one connection at
a time, sends a seeded stream of exchanges, each one
`ClientDaemon.active_check` with sample size 1 over loopback HTTP:

    in_sync   40%  reader whose window ends on the server tip
    lagging   25%  reader 1-84 headers behind
    eclipsed  15%  reader on a 4-block fork 6 below the tip
    push      10%  holds 1-6 honest headers the server lacks
    hostile    5%  holds 1-6 linked headers claiming n_bits 0x1d00ffff
                   that fail proof of work
    status     5%  GET /gossip/status

Client windows are cut from one pre-mined honest chain relative to the
server tip.  The benchmark's own pushes are the only writes, so it knows
that tip.

Each of ten rounds first sends at a fixed rate (open loop), timing each
exchange from the moment it was due, then runs the same mix back to back
(closed loop) to measure capacity.  The server child and the generator
already fill the machine's two cores, so a second generator thread would
only add scheduling noise: at two threads the closed loop completed no
more exchanges per second than at one.
"""

import gc
import http.client
import json
import random
import resource
import select
import subprocess
import sys
import time
from pathlib import Path

from blocksentinel import gossip, service
from blocksentinel.chainview import HeaderWindow
from blocksentinel.headers import BlockHeader

import common
import measure
from chains import Chain

# Exchanges are due every 50 ms, well above the slowest class (a push,
# about 30 ms on two vCPUs), so a host running 1.4 times slower still
# finishes each one before the next is due and the tail grows with the
# host's speed, not with queueing.  At 30/s (33 ms) such a slowdown made
# pushes overlap their successors and moved the tail by 40%; at 40/s the
# backlog grew to seconds.
RATE_PER_S = 20.0
OPEN_SHARE = 0.7
# The host's speed moves by up to 1.7 times from one stretch of seconds
# to the next; ten short rounds give both phases a share of each stretch.
ROUNDS = 10
WARMUP_EXCHANGES = 40
RATE_WINDOW = 20
WINDOW = 2016
TIP0 = 2200
# Pushes add at most 6 headers each; this leaves room for ~1100 pushes.
CHAIN_LENGTH = TIP0 + 1 + 6600
MIX = (
    ("in_sync", 40),
    ("lagging", 25),
    ("eclipsed", 15),
    ("push", 10),
    ("hostile", 5),
    ("status", 5),
)
WRITES = ("push", "hostile")
BLOCK = 20
OVERHEAD_EXCHANGES = 120
STARTUP_TIMEOUT_S = 60.0


def class_stream(rng: random.Random, count: int) -> list[tuple[str, int]]:
    """`count` (class, parameter) pairs in blocks of BLOCK with the exact
    MIX shares.

    Reads are shuffled within each block.  Writes sit at evenly spaced
    slots in shuffled order, so any stretch of the stream holds its share
    of them.
    """
    reads = [kind for kind, share in MIX for _ in range(share * BLOCK // 100) if kind not in WRITES]
    writes = [kind for kind, share in MIX for _ in range(share * BLOCK // 100) if kind in WRITES]
    write_slots = {i * BLOCK // len(writes): i for i in range(len(writes))}
    kinds = []
    while len(kinds) < count:
        rng.shuffle(reads)
        rng.shuffle(writes)
        block = iter(reads)
        for slot in range(BLOCK):
            kinds.append(writes[write_slots[slot]] if slot in write_slots else next(block))
    jobs = []
    for kind in kinds[:count]:
        if kind == "lagging":
            param = rng.randint(1, 84)
        elif kind in WRITES:
            param = rng.randint(1, 6)
        else:
            param = 0
        jobs.append((kind, param))
    return jobs


class ServerChild:
    """The server process; `stop()` waits for it and returns its report."""

    def __init__(self, work: Path, headers_file: Path, start_height: int, tag: str):
        self.report_path = work / f"server-{tag}.json"
        self.spans_path = work / f"spans-gossip_http-server-{tag}.jsonl"
        self.proc = subprocess.Popen(
            [
                sys.executable,
                str(Path(__file__).with_name("server_child.py")),
                "--headers", str(headers_file),
                "--start-height", str(start_height),
                "--report", str(self.report_path),
                "--spans", str(self.spans_path),
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self._read_line()
        if not line.startswith("READY "):
            self.kill()
            raise RuntimeError(f"server child did not start: {line!r}")
        self.address = f"127.0.0.1:{int(line.split()[1])}"

    def _read_line(self) -> str:
        ready, _, _ = select.select([self.proc.stdout], [], [], STARTUP_TIMEOUT_S)
        if not ready:
            self.kill()
            raise RuntimeError("server child timed out")
        return self.proc.stdout.readline().strip()

    def trace(self) -> None:
        self.proc.stdin.write("trace\n")
        self.proc.stdin.flush()
        if self._read_line() != "TRACING":
            raise RuntimeError("server child did not start tracing")

    def stop(self) -> dict:
        self.proc.stdin.write("stop\n")
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        finally:
            self.kill()
            self.proc.stdout.close()
        if self.proc.returncode != 0:
            raise RuntimeError(f"server child exited with {self.proc.returncode}")
        return json.loads(self.report_path.read_text())

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def status(address: str) -> dict:
    host, _, port = address.partition(":")
    conn = http.client.HTTPConnection(host, int(port), timeout=10.0)
    try:
        conn.request("GET", service.STATUS_PATH)
        response = conn.getresponse()
        body = response.read()
        if response.status != 200:
            raise RuntimeError(f"status answered {response.status}")
    finally:
        conn.close()
    return json.loads(body)


class Exchanges:
    """Runs and checks single exchanges against one server.

    `send(address, message)` is the daemon's transport; by default it
    looks up `service.http_send` at call time, so a traced wrapper applies.
    """

    def __init__(self, chain: Chain, address: str, send=None):
        self.chain = chain
        self.address = address
        self.send = send or (lambda addr, msg: service.http_send(addr, msg))
        self.tip = TIP0
        self.growth = gossip.DEFAULT_CONFIG.expected_growth

    def prepare(self, kind: str, param: int) -> dict:
        """Cut the client window for one exchange from the current tip."""
        tip = self.tip
        chain = self.chain.headers
        job = {"kind": kind, "param": param, "base": tip}
        if kind == "status":
            return job
        top = {"in_sync": tip, "lagging": tip - param, "eclipsed": tip - 2}.get(kind, tip + param)
        if top >= len(chain):
            raise RuntimeError("pre-mined chain exhausted")
        start = top - WINDOW + 1
        if kind == "eclipsed":
            held = chain[start : tip - 5] + self.chain.fork(tip - 6, 4)
        elif kind == "hostile":
            held = chain[start : tip + 1] + self.chain.hostile(tip, param)
        else:
            held = chain[start : top + 1]
        job.update(top=top, start=start, window=tuple(held))
        return job

    def execute(self, job: dict) -> None:
        """The timed part: one active check (or one status scrape)."""
        if job["kind"] == "status":
            job["status"] = status(self.address)
            return
        replies = []

        def transport(address, msg):
            reply = self.send(address, msg)
            replies.append(reply)
            return reply

        config = service.ClientDaemonConfig(servers=(self.address,), active_sample_size=1)
        daemon = service.ClientDaemon(config, transport=transport, rng=random.Random(0))
        daemon.window = HeaderWindow(WINDOW, job["start"], job["window"])
        job["report"] = daemon.active_check()
        job["daemon"] = daemon
        job["replies"] = replies

    def check(self, job: dict) -> str | None:
        """None when the exchange did what the protocol promises."""
        kind, param, base = job["kind"], job["param"], job["base"]
        chain = self.chain
        if kind == "status":
            got = job["status"]
            height = got.get("tipHeight")
            # A push may be in flight: the server can be up to 6 ahead.
            if got.get("version") != "v1" or not base <= height <= self.tip + 6:
                return f"status: tip {height} outside {base}..{self.tip + 6}"
            if got.get("tipHash") != chain.hashes[height][::-1].hex():
                return f"status: tip hash differs at {height}"
            return None
        report, daemon, replies = job["report"], job["daemon"], job["replies"]
        if report.failures:
            return f"{kind}: {report.failures[0][1]}"
        if len(report.outcomes) != 1 or not replies or replies[0].advertised is None:
            return f"{kind}: no gossip reply"
        outcome = report.outcomes[0][1]
        server_tip = replies[0].advertised.end
        window = daemon.window
        # A reader asks for `growth` heights past its own tip, so it
        # catches up to the server tip or by that many headers.
        if kind in ("in_sync", "lagging"):
            expect = min(server_tip, job["top"] + 1 + self.growth)
            if outcome.eclipse_suspected:
                return f"{kind}: false eclipse alarm"
            if outcome.headers_learned != expect - job["top"]:
                return f"{kind}: learned {outcome.headers_learned}, expected {expect - job['top']}"
        elif kind == "eclipsed":
            expect = min(server_tip, job["top"] + 1 + self.growth)
            if not outcome.eclipse_suspected or outcome.fork_height != base - 5:
                return f"eclipsed: not detected (fork {outcome.fork_height})"
        else:
            expect = base + param if kind == "push" else base
            if outcome.eclipse_suspected:
                return f"{kind}: false eclipse alarm"
            if len(replies) != 2:
                return f"{kind}: no follow-up leg ({len(replies)} legs)"
            if replies[1].advertised.end != expect:
                return f"{kind}: server tip {replies[1].advertised.end}, expected {expect}"
            if kind == "hostile":
                return None
        if window.tip_height() != expect or window.tip() != chain.headers[expect]:
            return f"{kind}: client ended at {window.tip_height()}, expected {expect}"
        return None

    def run(self, job: dict) -> tuple[float, float, str | None]:
        """Execute and check a prepared job; returns (start, end, error)
        with end timed before the checks run.  A push that passes moves
        the tip the next job is cut from."""
        start = time.perf_counter()
        error = _guard(self.execute, job)
        end = time.perf_counter()
        error = error or _guard(self.check, job)
        if error is None and job["kind"] == "push":
            self.tip = job["base"] + job["param"]
        return start, end, error


def _guard(step, job: dict) -> str | None:
    """Run one step of an exchange; any exception is that exchange's failure."""
    try:
        return step(job)
    except Exception as err:  # noqa: BLE001 - any failure counts, none may stop the run
        return f"{job['kind']}: {type(err).__name__}: {err}"


def open_loop(exchanges: Exchanges, jobs, rate: float, tracer=None) -> list[dict]:
    """Send `jobs` at `rate` per second; latency counts from the due time."""
    records = []
    begin = time.perf_counter() + 0.05
    for index, (kind, param) in enumerate(jobs):
        due = begin + index / rate
        job = exchanges.prepare(kind, param)
        pause = due - time.perf_counter()
        if pause > 0:
            time.sleep(pause)
        if tracer is not None:
            tracer.set_exchange(index + 1)
        start, end, error = exchanges.run(job)
        records.append({
            "kind": kind, "latency_ms": (end - due) * 1000.0,
            "late_ms": max(0.0, start - due) * 1000.0, "error": error,
        })
    return records


def closed_loop(exchanges: Exchanges, jobs, seconds: float, tracer=None) -> tuple[list[dict], float]:
    """Run `jobs` back to back until `seconds` pass or jobs run out;
    returns the records and the wall time used."""
    records = []
    begin = time.perf_counter()
    deadline = begin + seconds
    for index, (kind, param) in enumerate(jobs):
        if time.perf_counter() >= deadline:
            break
        job = exchanges.prepare(kind, param)
        if tracer is not None:
            tracer.set_exchange(-(index + 1))
        start, end, error = exchanges.run(job)
        records.append(
            {"kind": kind, "latency_ms": (end - start) * 1000.0, "end": end, "error": error}
        )
    return records, time.perf_counter() - begin


def window_rates(records, wall: float) -> list[float]:
    """Requests per second over each run of RATE_WINDOW consecutive
    completions of one closed-loop segment; a segment too short for one
    window gives its overall rate."""
    ends = sorted(r["end"] for r in records)
    rates = [
        RATE_WINDOW / (ends[i] - ends[i - RATE_WINDOW])
        for i in range(RATE_WINDOW, len(ends), RATE_WINDOW)
    ]
    return rates or [len(records) / wall]


def setup(work: Path, seed: int) -> tuple[Chain, ServerChild, float]:
    """Mine the chain, write the server window, start the server child and
    wait for its first status reply.  Repeated; the median time counts."""
    times = []
    server = None
    for repeat in range(common.SETUP_REPEATS):
        if server is not None:
            server.stop()
        started = time.perf_counter()
        chain = Chain(BlockHeader, CHAIN_LENGTH, seed)
        headers_file = work / "server-window.bin"
        headers_file.write_bytes(b"".join(chain.wires[TIP0 - WINDOW + 1 : TIP0 + 1]))
        server = ServerChild(work, headers_file, TIP0 - WINDOW + 1, f"{seed}-{repeat}")
        status(server.address)
        times.append(time.perf_counter() - started)
    return chain, server, measure.median(times)


def summarize(records) -> dict:
    gossip_ms = [r["latency_ms"] for r in records if r["kind"] != "status"]
    by_kind = {}
    for kind, _ in MIX:
        values = [r["latency_ms"] for r in records if r["kind"] == kind]
        if values:
            by_kind[kind] = {"p50_ms": measure.median(values), "n": len(values)}
    percentile, tail = measure.tail(gossip_ms)
    return {
        "p50_ms": measure.median(gossip_ms), "tail_ms": tail,
        "tail_percentile": percentile, "n": len(gossip_ms), "by_kind": by_kind,
        "late_p99_ms": measure.quantile([r["late_ms"] for r in records], 99.0),
    }


def run(work: Path, seed: int, seconds: float, tracer=None) -> dict:
    rng = random.Random(seed)
    chain, server, setup_s = setup(work, seed)
    errors = []
    extra = {}
    # The pre-mined chain (about 80k objects) lives as long as the run.
    # Frozen, it no longer makes every full collection in this process
    # pause for 30-55 ms, pauses that took most of the open-loop tail.
    # Objects the package makes during exchanges are collected as usual,
    # and the server child is not frozen.
    gc.freeze()
    try:
        exchanges = Exchanges(chain, server.address)
        if tracer is None:
            # Untimed, so first-use costs stay out of both phases; its
            # exchanges are still checked.
            warmup, _ = closed_loop(exchanges, class_stream(rng, WARMUP_EXCHANGES), float("inf"))
            # Rounds spread both phases over the run, so one slow stretch
            # of the machine touches a part of each, not all of one.
            open_records, closed_records, rates = [], [], []
            open_seconds = seconds * OPEN_SHARE / ROUNDS
            closed_seconds = seconds * (1 - OPEN_SHARE) / ROUNDS
            for _ in range(ROUNDS):
                jobs = class_stream(rng, round(open_seconds * RATE_PER_S))
                open_records += open_loop(exchanges, jobs, RATE_PER_S)
                jobs = class_stream(rng, int(closed_seconds * 1000))
                segment, wall = closed_loop(exchanges, jobs, closed_seconds)
                closed_records += segment
                rates += window_rates(segment, wall)
            records = warmup + open_records + closed_records
        else:
            # The same fixed work untraced, then traced, gives the overhead.
            jobs = class_stream(rng, OVERHEAD_EXCHANGES)
            plain, plain_wall = closed_loop(exchanges, jobs, float("inf"))
            server.trace()
            tracer.install()
            try:
                closed_records, closed_wall = closed_loop(exchanges, jobs, float("inf"), tracer)
                open_jobs = class_stream(rng, round(seconds * OPEN_SHARE / 2 * RATE_PER_S))
                open_records = open_loop(exchanges, open_jobs, RATE_PER_S, tracer)
            finally:
                tracer.uninstall()
            extra["bench.trace_overhead_ratio"] = closed_wall / plain_wall
            records = plain + closed_records + open_records
            rates = window_rates(closed_records, closed_wall)
        final = status(server.address)
        if final["tipHeight"] != exchanges.tip:
            errors.append(f"server ended at {final['tipHeight']}, expected {exchanges.tip}")
    finally:
        gc.unfreeze()
        report = server.stop()
    errors.extend(r["error"] for r in records if r["error"])
    summary = summarize(open_records)
    completed = sum(1 for r in closed_records if r["kind"] != "status")
    result = {
        "attempted": len(records) + 1,
        "failed": len(errors),
        "errors": errors,
        "metrics": {
            "setup_s": setup_s,
            # Every child of this workload is a server, so this is the
            # server's peak.
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
            "op_p50_ms": summary["p50_ms"],
            "op_tail_ms": summary["tail_ms"],
            "ops_per_s": measure.median(rates),
        },
        "details": {
            "offered_per_s": RATE_PER_S,
            "mix_percent": dict(MIX),
            "open_loop": summary,
            "closed_loop_exchanges": completed,
            "server_close_ms": report["close_ms"],
        },
    }
    if tracer is not None:
        server_table = report["table"]
        units = len(closed_records) + len(open_records)
        extra.update(
            {
                "bench.late_p99_ms": summary["late_p99_ms"],
                "service.ServerHandle.close_ms": report["close_ms"],
                "service.ServerState.exchange.retries": (
                    server_table["calls"].get("gossip.server_respond", 0)
                    - server_table["calls"].get("service.ServerState.exchange", 0)
                ) / units,
            }
        )
        result["layer"] = {"tables": [tracer.table(), server_table], "units": units, "extra": extra}
        tracer.write_spans(work / f"spans-gossip_http-client-{seed}.jsonl")
    return result
