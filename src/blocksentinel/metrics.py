"""Connection-trace analytics: coverage, detection delay, freshness, tiers.

A trace is a list of (time, user, server) connection records over an
observation window [t0, t_max].  Times are seconds.  Results are hours.

For one user and a server set S, the detection delay at time t is the wait
until that user's next S-connection (an attack starting at t goes unnoticed
until then), with a virtual connection at t_max closing the last gap.  The
average detection delay integrates this sawtooth; each inter-connection gap
g contributes g^2/2, so the integral has an exact closed form.  Freshness
mirrors the construction backward: the age of a server's newest user
contact, growing from t0 before the first connection.
"""

import csv
import math
from dataclasses import dataclass

from scipy.special import stdtrit

from .errors import EmptyTrace, InsufficientTier, UnknownServer, UnknownUser

INACTIVITY_CUT_HOURS = 8.0

TIER_BOUNDS = (
    (1601, 3200),  # tier 1
    (801, 1600),   # tier 2
    (401, 800),    # tier 3
    (101, 400),    # tier 4
)
TIER_FIVE_EXACT = 100


@dataclass(frozen=True)
class ConnectionRecord:
    time: float
    user: str
    server: str


@dataclass(frozen=True)
class ConnectionTrace:
    """Time-sorted connection records plus the observation window."""

    records: tuple[ConnectionRecord, ...]
    t0: float
    t_max: float

    def __post_init__(self):
        if self.t_max < self.t0:
            raise ValueError("t_max before t0")

    @classmethod
    def from_records(cls, records, t0=None, t_max=None) -> "ConnectionTrace":
        """Sort records; the window defaults to their observed extent."""
        ordered = tuple(sorted(records, key=lambda r: (r.time, r.user, r.server)))
        if t0 is None:
            t0 = ordered[0].time if ordered else 0.0
        if t_max is None:
            t_max = ordered[-1].time if ordered else 0.0
        return cls(ordered, t0, t_max)

    def users(self) -> list[str]:
        return sorted({r.user for r in self.records})

    def servers(self) -> list[str]:
        return sorted({r.server for r in self.records})


def write_trace_csv(trace: ConnectionTrace, path) -> None:
    """Write `time,user,server` rows, times as integer seconds."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["time", "user", "server"])
        for record in trace.records:
            writer.writerow([int(round(record.time)), record.user, record.server])


def read_trace_csv(path, t0=None, t_max=None) -> ConnectionTrace:
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != ["time", "user", "server"]:
            raise EmptyTrace(f"not a trace file: header {header!r}")
        records = [ConnectionRecord(float(row[0]), row[1], row[2]) for row in reader]
    if not records:
        raise EmptyTrace("trace has no records")
    return ConnectionTrace.from_records(records, t0, t_max)


def coverage(trace: ConnectionTrace, server_set) -> float:
    """Fraction of users with at least one connection into `server_set`."""
    if not trace.records:
        raise EmptyTrace("coverage needs at least one record")
    server_set = set(server_set)
    users = {r.user for r in trace.records}
    touched = {r.user for r in trace.records if r.server in server_set}
    return len(touched) / len(users)


def _gap_lengths(times, t0, t_max) -> list[float]:
    """Lengths of the intervals cut by the connections and both window ends."""
    points = [t0] + [t for t in times if t0 <= t <= t_max] + [t_max]
    return [b - a for a, b in zip(points, points[1:])]


def _sawtooth_average(gaps, cut_seconds=None) -> float:
    """Mean of a process that ramps linearly across each gap.

    Every gap g contributes g^2/2 to the integral.  Gaps of cut_seconds or
    more count as planned inactivity: they are excised from the integral
    and from the normalizing duration alike.  Returns NaN when everything
    was excised.
    """
    if cut_seconds is not None:
        gaps = [g for g in gaps if g < cut_seconds]
    duration = sum(gaps)
    if duration <= 0:
        return math.nan
    return sum(g * g for g in gaps) / 2.0 / duration


def aadt(
    trace: ConnectionTrace,
    user: str,
    server_set,
    inactivity_cut_hours: float | None = INACTIVITY_CUT_HOURS,
) -> float:
    """Average attack-detection time, in hours, for one user via `server_set`.

    Pass inactivity_cut_hours=None to keep long idle gaps in the average
    instead of treating them as planned downtime.
    """
    if user not in {r.user for r in trace.records}:
        raise UnknownUser(user)
    times = sorted(r.time for r in trace.records if r.user == user and r.server in set(server_set))
    gaps = _gap_lengths(times, trace.t0, trace.t_max)
    cut = None if inactivity_cut_hours is None else inactivity_cut_hours * 3600.0
    return _sawtooth_average(gaps, cut) / 3600.0


def freshness(trace: ConnectionTrace, server: str, user_set=None) -> float:
    """Average age, in hours, of `server`'s most recent contact from `user_set`.

    Before the first connection the age grows from t0.  By the mirror
    symmetry of the two sawtooths this shares the gap closed form with
    aadt; no inactivity excision applies here.
    """
    if server not in {r.server for r in trace.records}:
        raise UnknownServer(server)
    users = None if user_set is None else set(user_set)
    times = sorted(
        r.time
        for r in trace.records
        if r.server == server and (users is None or r.user in users)
    )
    gaps = _gap_lengths(times, trace.t0, trace.t_max)
    return _sawtooth_average(gaps) / 3600.0


def freshness_ci(
    trace: ConnectionTrace,
    server: str,
    adoption_fraction: float,
    n_resamples: int = 8,
    rng=None,
) -> tuple[float, float]:
    """Freshness under partial adoption: (mean, 95% half-width) over resamples.

    Each resample draws ceil(adoption_fraction * |users|) users without
    replacement and recomputes freshness as if only they ran the protocol.
    The half-width uses the Student-t quantile at n_resamples - 1 degrees
    of freedom; a full-adoption fraction of 1.0 yields exactly 0.0.
    """
    if not 0 < adoption_fraction <= 1:
        raise ValueError("adoption_fraction must sit in (0, 1]")
    if n_resamples < 2:
        raise ValueError("need at least two resamples")
    if rng is None:
        import random

        rng = random.Random(0)
    users = trace.users()
    if not users:
        raise EmptyTrace("trace has no users")
    take = math.ceil(adoption_fraction * len(users))
    values = [
        freshness(trace, server, user_set=rng.sample(users, take))
        for _ in range(n_resamples)
    ]
    mean = sum(values) / len(values)
    variance = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
    t_crit = float(stdtrit(len(values) - 1, 0.975))
    half_width = t_crit * math.sqrt(variance / len(values))
    return mean, half_width


def unique_user_counts(trace: ConnectionTrace) -> dict[str, int]:
    counts: dict[str, set] = {}
    for record in trace.records:
        counts.setdefault(record.server, set()).add(record.user)
    return {server: len(users) for server, users in sorted(counts.items())}


def tier_of(user_count: int) -> int:
    """Popularity tier for a unique-user count; tier 1 is the most popular.

    Bands halve downward: 1601-3200, 801-1600, 401-800, 101-400; counts
    above the top band clamp into tier 1.  Tier 5 is exactly 100 users and
    tier 6 is everything below.
    """
    if user_count > TIER_BOUNDS[0][1]:
        return 1
    for tier, (lo, hi) in enumerate(TIER_BOUNDS, start=1):
        if lo <= user_count <= hi:
            return tier
    if user_count == TIER_FIVE_EXACT:
        return 5
    return 6


def assign_tiers(trace: ConnectionTrace) -> dict[str, int]:
    """Tier per server, from its unique-user count in the trace."""
    if not trace.records:
        raise EmptyTrace("cannot tier an empty trace")
    return {server: tier_of(count) for server, count in unique_user_counts(trace).items()}


def stratified_sample(tiers: dict[str, int], per_tier_counts, rng) -> set[str]:
    """Draw the requested number of servers uniformly from each tier.

    `per_tier_counts[i]` is the draw for tier i + 1.  Raises
    InsufficientTier when a tier holds fewer servers than requested.
    """
    chosen: set[str] = set()
    for index, want in enumerate(per_tier_counts):
        tier = index + 1
        members = sorted(server for server, t in tiers.items() if t == tier)
        if want > len(members):
            raise InsufficientTier(
                f"tier {tier} holds {len(members)} servers, requested {want}"
            )
        if want > 0:
            chosen.update(rng.sample(members, want))
    return chosen
