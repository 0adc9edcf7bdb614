"""Deterministic eclipse-attack simulator.

Virtual time is minutes from scenario start.  Honest blocks arrive as a
Poisson process; an optional attacker forks the chain at the eclipse
moment and mines on at its own pace, reusing the difficulty in force.
Users connect to popularity-weighted servers on a diurnal schedule, and
every connection runs a real gossip exchange against real header bytes,
so detection in the simulator exercises the same code paths as a
deployment.  Everything derives from one seed: identical configurations
produce byte-identical event logs.
"""

import heapq
import json
import random
from dataclasses import dataclass, field
from itertools import accumulate

from . import alerts, chainview, gossip, metrics
from .chainview import HeaderWindow
from .errors import ConfigInvalid, HeightGap, LinkMismatch
from .headers import EASY_NBITS, BlockHeader, block_hash, hash_int, target_from_nbits

_RANK_HONEST = 0
_RANK_ATTACK = 1
_RANK_ALERT = 2
_RANK_CONN = 3

DEFAULT_VERSION = 0x20000000


def mine_header(version, prev_hash, merkle_root, timestamp, n_bits) -> BlockHeader:
    """Smallest nonce whose hash meets the target; cheap at easy difficulty."""
    target = target_from_nbits(n_bits)
    nonce = 0
    while nonce <= 0xFFFFFFFF:
        header = BlockHeader(version, prev_hash, merkle_root, timestamp, n_bits, nonce)
        if hash_int(header) <= target:
            return header
        nonce += 1
    raise RuntimeError("nonce space exhausted; difficulty too high for the simulator")


def mine_chain(prev_hash, stamps, n_bits, rng, version=DEFAULT_VERSION) -> list[BlockHeader]:
    """Mine one linked header per unix stamp, drawing each merkle root after its stamp."""
    headers = []
    for stamp in stamps:
        header = mine_header(version, prev_hash, rng.randbytes(32), stamp, n_bits)
        headers.append(header)
        prev_hash = block_hash(header)
    return headers


def block_creation_times(
    rng, mean_minutes: float, until_minutes: float, start: float = 0.0
) -> list[float]:
    """Poisson arrival times in (start, until_minutes], exponential gaps."""
    times = []
    t = start
    while True:
        t += rng.expovariate(1.0 / mean_minutes)
        if t > until_minutes:
            return times
        times.append(t)


def generate_chain(
    mean_minutes: float,
    n_blocks: int,
    n_bits: int = EASY_NBITS,
    rng: random.Random | None = None,
    prev_hash: bytes = b"\x00" * 32,
    start_unix: int = 1_600_000_000,
    version: int = DEFAULT_VERSION,
) -> list[BlockHeader]:
    """Mine a linked chain whose gaps are exponential with the given mean."""
    if rng is None:
        rng = random.Random(0)
    # Lazy, so each block draws its gap before its merkle root.
    gaps = (rng.expovariate(1.0 / mean_minutes) for _ in range(n_blocks))
    stamps = (start_unix + int(round(t * 60.0)) for t in accumulate(gaps))
    return mine_chain(prev_hash, stamps, n_bits, rng, version)


@dataclass(frozen=True)
class DiurnalProfile:
    """Two-level connection intensity over the day, constant per 15-min slot."""

    slot_minutes: int = 15
    quiet_start_hour: float = 2.0
    quiet_end_hour: float = 7.5
    quiet_rate_per_hour: float = 0.25
    busy_rate_per_hour: float = 2.0

    def __post_init__(self):
        if self.slot_minutes < 1 or 1440 % self.slot_minutes:
            raise ValueError("slot length must divide the day")
        if self.quiet_rate_per_hour < 0 or self.busy_rate_per_hour <= 0:
            raise ValueError("rates must be positive")

    def rate_per_minute(self, minute_of_day: float) -> float:
        slot_start = (int(minute_of_day) // self.slot_minutes) * self.slot_minutes
        quiet = self.quiet_start_hour * 60 <= slot_start < self.quiet_end_hour * 60
        rate = self.quiet_rate_per_hour if quiet else self.busy_rate_per_hour
        return rate / 60.0

    def peak_per_minute(self) -> float:
        return max(self.quiet_rate_per_hour, self.busy_rate_per_hour) / 60.0


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int = 0
    duration_hours: float = 24.0
    n_users: int = 10
    n_servers: int = 4
    tier_sizes: tuple[int, ...] | None = None
    n_eclipsed: int = 0
    eclipse_start_minutes: float | None = None
    eclipse_start_at_block: bool = True
    attacker_alpha: float = 0.0
    attacker_mean_block_minutes: float | None = None
    backdated_timestamps: bool = False
    honest_mean_block_minutes: float = 10.0
    detection_mean_block_minutes: float = 12.0
    confirmations: int = 6
    boundary_inclusive: bool = False
    gossip_enabled: bool = True
    window_capacity: int = 512
    backfill_blocks: int = 8
    n_bits: int = EASY_NBITS
    start_unix: int = 1_600_000_000
    start_clock_hour: float = 0.0
    diurnal: DiurnalProfile = field(default_factory=DiurnalProfile)

    def __post_init__(self):
        if self.duration_hours <= 0:
            raise ConfigInvalid("duration must be positive")
        if self.n_users < 1 or self.n_servers < 1:
            raise ConfigInvalid("need at least one user and one server")
        if not 0 <= self.n_eclipsed <= self.n_users:
            raise ConfigInvalid("n_eclipsed out of range")
        if self.n_eclipsed and self.eclipse_start_minutes is None:
            raise ConfigInvalid("eclipsed users need an eclipse start time")
        if not 0.0 <= self.attacker_alpha < 1.0:
            raise ConfigInvalid("attacker_alpha must sit in [0, 1)")
        if self.honest_mean_block_minutes <= 0 or self.detection_mean_block_minutes <= 0:
            raise ConfigInvalid("mean block intervals must be positive")
        if self.tier_sizes is not None and (
            len(self.tier_sizes) > 6
            or any(n < 0 for n in self.tier_sizes)
            or sum(self.tier_sizes) != self.n_servers
        ):
            raise ConfigInvalid("tier_sizes must give six non-negative counts summing to n_servers")
        if self.backfill_blocks < 1:
            raise ConfigInvalid("need at least one backfill block to anchor the chain")

    def attacker_pace_minutes(self) -> float:
        if self.attacker_mean_block_minutes is not None:
            return self.attacker_mean_block_minutes
        return self.detection_mean_block_minutes / self.attacker_alpha

    def duration_minutes(self) -> float:
        return self.duration_hours * 60.0


_SCENARIO_SCALAR_KEYS = {
    f.name for f in ScenarioConfig.__dataclass_fields__.values() if f.name != "diurnal"
}


def scenario_from_dict(data: dict) -> ScenarioConfig:
    """Build a config from parsed JSON; unknown keys raise ConfigInvalid."""
    if not isinstance(data, dict):
        raise ConfigInvalid("scenario file must hold a JSON object")
    kwargs = {}
    for key, value in data.items():
        if key == "diurnal":
            try:
                kwargs["diurnal"] = DiurnalProfile(**value)
            except (TypeError, ValueError) as err:
                raise ConfigInvalid(f"bad diurnal profile: {err}") from err
        elif key in _SCENARIO_SCALAR_KEYS:
            if key == "tier_sizes" and value is not None:
                value = tuple(value)
            kwargs[key] = value
        else:
            raise ConfigInvalid(f"unknown scenario key: {key}")
    try:
        return ScenarioConfig(**kwargs)
    except TypeError as err:
        raise ConfigInvalid(str(err)) from err


@dataclass
class _SimUser:
    uid: str
    eclipsed: bool
    window: HeaderWindow
    alert_state: alerts.AlertState
    alert_generation: int = 0
    raised: set = field(default_factory=set)
    first_alert_minutes: float | None = None
    first_gossip_minutes: float | None = None


@dataclass(frozen=True)
class ScenarioResult:
    config: ScenarioConfig
    events: tuple[dict, ...]
    trace: metrics.ConnectionTrace
    eclipse_start_minutes: float | None
    honest_heights: tuple[int, int]
    attacker_blocks: int
    detection_minutes: dict[str, float | None]
    first_alert_minutes: dict[str, float | None]
    first_gossip_minutes: dict[str, float | None]


def _tier_weights(config: ScenarioConfig) -> list[float]:
    if config.tier_sizes is None:
        return [1.0] * config.n_servers
    weights = []
    for tier_index, count in enumerate(config.tier_sizes):
        weights.extend([2.0 ** (5 - tier_index)] * count)
    return weights


def _connection_times(config: ScenarioConfig, rng) -> list[list[float]]:
    """Per-user connection times via thinning of the peak-rate process."""
    peak = config.diurnal.peak_per_minute()
    day_offset = config.start_clock_hour * 60.0
    schedule = []
    for _ in range(config.n_users):
        times = []
        t = 0.0
        while True:
            t += rng.expovariate(peak)
            if t >= config.duration_minutes():
                break
            minute_of_day = (day_offset + t) % 1440.0
            if rng.random() * peak < config.diurnal.rate_per_minute(minute_of_day):
                times.append(t)
        schedule.append(times)
    return schedule


def run_scenario(config: ScenarioConfig) -> ScenarioResult:
    """Simulate one scenario; see the module docstring for the model."""
    rng_root = random.Random(config.seed)
    rng_chain = random.Random(rng_root.getrandbits(64))
    rng_attack = random.Random(rng_root.getrandbits(64))
    rng_conn = random.Random(rng_root.getrandbits(64))

    minute = 60.0  # seconds per virtual minute

    def minutes_to_unix(t: float) -> int:
        return config.start_unix + int(round(t * minute))

    def unix_to_minutes(stamp: int) -> float:
        return (stamp - config.start_unix) / minute

    # Honest chain: a handful of pre-start blocks anchors windows and alert
    # state, then Poisson arrivals across the scenario.
    backfill_times = []
    acc = 0.0
    for _ in range(config.backfill_blocks):
        acc += rng_chain.expovariate(1.0 / config.honest_mean_block_minutes)
        backfill_times.append(-acc)
    backfill_times.reverse()
    live_times = block_creation_times(
        rng_chain, config.honest_mean_block_minutes, config.duration_minutes()
    )
    honest_times = backfill_times + live_times
    honest_headers = mine_chain(
        b"\x00" * 32, [minutes_to_unix(t) for t in honest_times], config.n_bits, rng_chain
    )

    # Eclipse moment and attacker chain.
    eclipse_t: float | None = None
    if config.n_eclipsed:
        if config.eclipse_start_at_block:
            for t in live_times:
                if t >= config.eclipse_start_minutes:
                    eclipse_t = t
                    break
        else:
            eclipse_t = config.eclipse_start_minutes

    attack_times: list[float] = []
    attack_headers: list[BlockHeader] = []
    fork_height = None
    if eclipse_t is not None:
        fork_height = max(i for i, t in enumerate(honest_times) if t <= eclipse_t)
    if eclipse_t is not None and config.attacker_alpha > 0:
        attack_times = block_creation_times(
            rng_attack, config.attacker_pace_minutes(), config.duration_minutes(), start=eclipse_t
        )
        fork = honest_headers[fork_height]
        if config.backdated_timestamps:
            nominal = config.honest_mean_block_minutes
            stamps = [
                fork.timestamp + int(round((i + 1) * nominal * minute))
                for i in range(len(attack_times))
            ]
        else:
            stamps = [minutes_to_unix(t) for t in attack_times]
        attack_headers = mine_chain(block_hash(fork), stamps, fork.n_bits, rng_attack)

    # Users, servers, schedules.
    users = []
    for i in range(config.n_users):
        users.append(
            _SimUser(
                uid=f"u{i}",
                eclipsed=i < config.n_eclipsed and eclipse_t is not None,
                window=HeaderWindow(capacity=config.window_capacity),
                alert_state=alerts.AlertState(confirmations=config.confirmations),
            )
        )
    server_windows = [HeaderWindow(capacity=config.window_capacity) for _ in range(config.n_servers)]
    server_names = [f"s{i}" for i in range(config.n_servers)]
    weights = _tier_weights(config)
    schedule = _connection_times(config, rng_conn)

    detection_model = alerts.BlockTimingModel(
        mean_block_minutes=config.detection_mean_block_minutes,
        nominal_mean_minutes=config.honest_mean_block_minutes,
    )
    gossip_cfg = gossip.GossipConfig()

    events: list[dict] = []
    queue: list[tuple] = []
    seq = 0

    def log(now, kind, **fields):
        events.append({"t": round(now, 6), "kind": kind, **fields})

    def push(t, rank, payload):
        nonlocal seq
        heapq.heappush(queue, (t, rank, seq, payload))
        seq += 1

    def observe(user: _SimUser, headers, now: float):
        """Record arrived headers in the user's alert state and queue the
        future threshold crossings that state implies.

        Standing alerts re-arm because the window they judged no longer
        exists.
        """
        for header in headers:
            user.alert_state = alerts.observe_block(
                user.alert_state, unix_to_minutes(header.timestamp), now
            )
        user.alert_generation += 1
        user.raised.clear()
        gen = user.alert_generation
        for check, level, cross in alerts.next_crossings(
            user.alert_state, detection_model, config.boundary_inclusive
        ):
            # Nudge past the boundary: the level comparison is strict, so an
            # event landing exactly on the crossing would evaluate green.
            push(max(cross, now) + 1e-6, _RANK_ALERT, ("alert", user.uid, check, level, gen))

    def deliver(user: _SimUser, height: int, header: BlockHeader, now: float):
        user.window = chainview.append(user.window, header, height)
        observe(user, [header], now)

    def exchange(user: _SimUser, server_index: int, now: float) -> tuple[dict, list]:
        """Gossip with one server; returns the connect event's outcome fields
        and the headers the exchange brought in."""
        transferred = 0

        def send(message):
            nonlocal transferred
            served = gossip.server_respond(server_windows[server_index], message, gossip_cfg)
            server_windows[server_index] = served.window
            for leg in (message, served.reply):
                if leg.payload is not None:
                    transferred += len(leg.payload)
            return served.reply

        pre = user.window
        cx, push_error = gossip.exchange(pre, send, gossip_cfg)
        if push_error is not None:
            raise push_error
        user.window = cx.window
        new_headers = chainview.headers_above(pre, user.window)
        if new_headers:
            # Catch the alert engine up on headers gossip brought in.
            observe(user, new_headers, now)
        outcome = {
            "result": cx.outcome.result.value,
            "learned": cx.outcome.headers_learned,
            "transferred": transferred,
            "eclipse_suspected": cx.outcome.eclipse_suspected,
        }
        if cx.outcome.fork_height is not None:
            outcome["fork_height"] = cx.outcome.fork_height
        return outcome, new_headers

    # Seed everyone with the backfill prefix (heights start at 0).
    for user in users:
        for height, header in enumerate(honest_headers[: config.backfill_blocks]):
            deliver(user, height, header, now=0.0)

    for height in range(config.backfill_blocks, len(honest_headers)):
        header = honest_headers[height]
        push(honest_times[height], _RANK_HONEST, ("block", "honest", height, header))
    if eclipse_t is not None:
        push(eclipse_t, _RANK_ATTACK, ("attack_start",))
    for offset, (t, header) in enumerate(zip(attack_times, attack_headers)):
        push(t, _RANK_ATTACK, ("block", "attacker", fork_height + 1 + offset, header))
    for user_index, times in enumerate(schedule):
        for t in times:
            server_index = rng_conn.choices(range(config.n_servers), weights=weights)[0]
            push(t, _RANK_CONN, ("connect", user_index, server_index))

    while queue:
        now, rank, _, payload = heapq.heappop(queue)
        kind = payload[0]
        if kind == "block":
            _, miner, height, header = payload
            log(now, "block", height=height, miner=miner)
            attacker = miner == "attacker"
            for user in users:
                # Attacker blocks reach only the victims, and once the
                # eclipse has begun honest blocks reach everyone else.
                if user.eclipsed != attacker and (attacker or now > eclipse_t):
                    continue
                try:
                    deliver(user, height, header, now)
                except (HeightGap, LinkMismatch):
                    # Gossip already gave this user a stronger fork, which
                    # this block does not extend.
                    continue
        elif kind == "attack_start":
            log(
                now, "attack_start",
                fork_height=fork_height, victims=[u.uid for u in users if u.eclipsed],
            )
        elif kind == "alert":
            _, uid, alert_kind, level, gen = payload
            user = users[int(uid[1:])]
            if gen != user.alert_generation or (alert_kind, level) in user.raised:
                continue
            assessment = alerts.evaluate(
                user.alert_state, now, detection_model,
                boundary_inclusive=config.boundary_inclusive,
            )
            current = assessment.type1 if alert_kind == "type1" else assessment.type2
            if current < level:
                continue
            user.raised.add((alert_kind, level))
            log(now, "alert", user=user.uid, alert=alert_kind, level=level.name.lower())
            if user.eclipsed and now >= eclipse_t and user.first_alert_minutes is None:
                user.first_alert_minutes = now
        elif kind == "connect":
            _, user_index, server_index = payload
            user = users[user_index]
            server = server_names[server_index]
            outcome, new_headers = {}, []
            if config.gossip_enabled:
                outcome, new_headers = exchange(user, server_index, now)
            log(now, "connect", user=user.uid, server=server, **outcome)
            suspected = outcome.get("eclipse_suspected", False)
            if (
                user.eclipsed
                and now >= eclipse_t
                and user.first_gossip_minutes is None
                and (suspected or new_headers)
            ):
                user.first_gossip_minutes = now
                log(
                    now, "gossip_detection", user=user.uid, server=server,
                    reason="conflict" if suspected else "extension",
                    evidence_height=(
                        outcome["fork_height"] if suspected else user.window.tip_height()
                    ),
                )

    detection: dict[str, float | None] = {}
    first_alert: dict[str, float | None] = {}
    first_gossip: dict[str, float | None] = {}
    for user in users:
        if not user.eclipsed:
            continue
        first_alert[user.uid] = (
            None if user.first_alert_minutes is None else user.first_alert_minutes - eclipse_t
        )
        first_gossip[user.uid] = (
            None if user.first_gossip_minutes is None else user.first_gossip_minutes - eclipse_t
        )
        candidates = [m for m in (first_alert[user.uid], first_gossip[user.uid]) if m is not None]
        detection[user.uid] = min(candidates) if candidates else None

    return ScenarioResult(
        config=config,
        events=tuple(events),
        trace=export_trace(events, t0=0.0, t_max=config.duration_minutes() * minute),
        eclipse_start_minutes=eclipse_t,
        honest_heights=(0, len(honest_headers) - 1),
        attacker_blocks=len(attack_headers),
        detection_minutes=detection,
        first_alert_minutes=first_alert,
        first_gossip_minutes=first_gossip,
    )


def events_jsonl(events) -> str:
    """Serialize an event log one JSON object per line, key order preserved."""
    return "\n".join(json.dumps(event) for event in events) + "\n"


def export_trace(events, t0=None, t_max=None) -> metrics.ConnectionTrace:
    """Project the connection events out of an event log, times in seconds."""
    records = [
        metrics.ConnectionRecord(int(round(e["t"] * 60.0)), e["user"], e["server"])
        for e in events
        if e["kind"] == "connect"
    ]
    return metrics.ConnectionTrace.from_records(records, t0, t_max)


def attack_escape_trials(alpha: float, trials: int, seed: int = 0) -> float:
    """Fraction of simulated attacks that finish under the yellow alert bar.

    The seven-block Monte-Carlo estimate of
    alerts.attacker_escape_probability_mc on the default detection model,
    kept under the simulator's name for timing-path callers.
    """
    estimate, _ = alerts.attacker_escape_probability_mc(
        alerts.AttackerModel(alpha=alpha), alerts.AlertLevel.YELLOW, trials=trials, seed=seed
    )
    return estimate
