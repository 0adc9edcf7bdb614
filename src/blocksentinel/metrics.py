"""Connection-trace analytics: coverage, detection delay, freshness, tiers.

A trace is a list of (time, user, server) connection records over an
observation window [t0, t_max].  Times are seconds.  Results are hours.
It is held as columns: float64 times sorted by (time, user, server), and
integer user and server codes that index the sorted user and server names.
The rows of each user and of each server are grouped on first use, so a
metric reads only its own slice instead of scanning every record.

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
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy.special import stdtrit

from .errors import EmptyTrace, UnknownServer, UnknownUser

INACTIVITY_CUT_HOURS = 8.0

TIER_BOUNDS = (
    (1601, 3200),  # tier 1
    (801, 1600),   # tier 2
    (401, 800),    # tier 3
    (101, 400),    # tier 4
)
TIER_FIVE_EXACT = 100


class ConnectionRecord(NamedTuple):
    time: float
    user: str
    server: str


def _encode(names) -> tuple[tuple[str, ...], np.ndarray]:
    """The distinct names, sorted, and each name's index among them."""
    index = {name: code for code, name in enumerate(sorted(set(names)))}
    return tuple(index), np.fromiter(map(index.__getitem__, names), np.intp, len(names))


def _in_order(times, user_codes, server_codes) -> bool:
    """True when each row sorts at or after the row above it by (time, user,
    server).  A NaN time compares false, so it counts as out of order."""
    (t0, t1), (u0, u1), (s0, s1) = ((c[:-1], c[1:]) for c in (times, user_codes, server_codes))
    after = (t1 > t0) | (t1 == t0) & ((u1 > u0) | (u1 == u0) & (s1 >= s0))
    return np.count_nonzero(after) == after.size


def _group_rows(codes, names) -> dict[str, np.ndarray]:
    """Each name's row indices, in row order."""
    order = np.argsort(codes, kind="stable")
    bounds = np.searchsorted(codes[order], np.arange(len(names) + 1)).tolist()
    return {name: order[lo:hi] for name, lo, hi in zip(names, bounds, bounds[1:])}


def _mask(names, wanted) -> np.ndarray:
    """Which of `names` are in `wanted`, indexed by code."""
    wanted = set(wanted)
    return np.fromiter((name in wanted for name in names), bool, len(names))


@dataclass(frozen=True, eq=False)
class ConnectionTrace:
    """Connection columns plus the observation window.

    Row i is a connection at times[i] from user_names[user_codes[i]] to
    server_names[server_codes[i]].  Rows are sorted by (time, user, server)
    and both name tuples are sorted, so code order is name order.
    rows_by_user and rows_by_server map each name to its row indices in
    time order; they and `records` are built on first use.
    """

    times: np.ndarray
    user_codes: np.ndarray
    server_codes: np.ndarray
    user_names: tuple[str, ...]
    server_names: tuple[str, ...]
    t0: float
    t_max: float

    def __post_init__(self):
        if self.t_max < self.t0:
            raise ValueError("t_max before t0")

    @classmethod
    def from_records(cls, records, t0=None, t_max=None) -> "ConnectionTrace":
        """Sort (time, user, server) rows; the window defaults to their extent."""
        times, users, servers = zip(*records) if records else ((), (), ())
        return cls.from_columns(times, users, servers, t0, t_max)

    @classmethod
    def from_columns(cls, times, users, servers, t0=None, t_max=None) -> "ConnectionTrace":
        """Code the rows, sort them if out of order; the window defaults to their extent."""
        user_names, user_codes = _encode(users)
        server_names, server_codes = _encode(servers)
        times = np.array(times, dtype=np.float64)
        if not _in_order(times, user_codes, server_codes):
            order = np.lexsort((server_codes, user_codes, times))
            times, user_codes, server_codes = times[order], user_codes[order], server_codes[order]
        first, last = (float(times[0]), float(times[-1])) if times.size else (0.0, 0.0)
        return cls(times, user_codes, server_codes, user_names, server_names,
                   first if t0 is None else t0, last if t_max is None else t_max)

    @cached_property
    def records(self) -> tuple[ConnectionRecord, ...]:
        """The rows as records, built on first use."""
        users = [self.user_names[u] for u in self.user_codes.tolist()]
        servers = [self.server_names[s] for s in self.server_codes.tolist()]
        return tuple(map(ConnectionRecord, self.times.tolist(), users, servers))

    @cached_property
    def rows_by_user(self) -> dict[str, np.ndarray]:
        return _group_rows(self.user_codes, self.user_names)

    @cached_property
    def rows_by_server(self) -> dict[str, np.ndarray]:
        return _group_rows(self.server_codes, self.server_names)

    def users(self) -> list[str]:
        return list(self.user_names)

    def servers(self) -> list[str]:
        return list(self.server_names)


def write_trace_csv(trace: ConnectionTrace, path) -> None:
    """Write `time,user,server` rows, times as integer seconds."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["time", "user", "server"])
        for record in trace.records:
            writer.writerow([int(round(record.time)), record.user, record.server])


def read_trace_csv(path, t0=None, t_max=None) -> ConnectionTrace:
    """Read `time,user,server` rows; a malformed row raises EmptyTrace."""
    times, users, servers = [], [], []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, None)
            if header != ["time", "user", "server"]:
                raise EmptyTrace(f"not a trace file: header {header!r}")
            for time, user, server in reader:
                times.append(float(time))
                users.append(user)
                servers.append(server)
        except (ValueError, csv.Error) as err:
            raise EmptyTrace(f"trace line {reader.line_num}: {err}") from None
    if not times:
        raise EmptyTrace("trace has no records")
    times = np.array(times)
    nonfinite = np.flatnonzero(~np.isfinite(times))
    if nonfinite.size:
        raise EmptyTrace(f"trace line {nonfinite[0] + 2}: time is not finite")
    return ConnectionTrace.from_columns(times, users, servers, t0, t_max)


def coverage(trace: ConnectionTrace, server_set) -> float:
    """Fraction of users with at least one connection into `server_set`."""
    if not trace.times.size:
        raise EmptyTrace("coverage needs at least one record")
    into_set = _mask(trace.server_names, server_set)[trace.server_codes]
    return len(np.unique(trace.user_codes[into_set])) / len(trace.user_names)


def _sawtooth_hours(trace: ConnectionTrace, times, cut_seconds=None) -> float:
    """Mean, in hours, of a process that ramps linearly across the gaps cut
    by the sorted `times` inside the window and by both window ends.

    Every gap g contributes g^2/2 to the integral.  Gaps of cut_seconds or
    more count as planned inactivity: they are excised from the integral
    and from the normalizing duration alike.  Returns NaN when everything
    was excised.  Both sums run left to right, as over a list of rows.
    """
    inside = times[(times >= trace.t0) & (times <= trace.t_max)]
    gaps = np.diff(np.concatenate(([trace.t0], inside, [trace.t_max])))
    if cut_seconds is not None:
        gaps = gaps[gaps < cut_seconds]
    duration = sum(gaps.tolist())
    if duration <= 0:
        return math.nan
    return sum((gaps * gaps).tolist()) / 2.0 / duration / 3600.0


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
    rows = trace.rows_by_user.get(user)
    if rows is None:
        raise UnknownUser(user)
    rows = rows[_mask(trace.server_names, server_set)[trace.server_codes[rows]]]
    cut = None if inactivity_cut_hours is None else inactivity_cut_hours * 3600.0
    return _sawtooth_hours(trace, trace.times[rows], cut)


def freshness(trace: ConnectionTrace, server: str, user_set=None) -> float:
    """Average age, in hours, of `server`'s most recent contact from `user_set`.

    Before the first connection the age grows from t0.  By the mirror
    symmetry of the two sawtooths this shares the gap closed form with
    aadt; no inactivity excision applies here.
    """
    rows = trace.rows_by_server.get(server)
    if rows is None:
        raise UnknownServer(server)
    if user_set is not None:
        rows = rows[_mask(trace.user_names, user_set)[trace.user_codes[rows]]]
    return _sawtooth_hours(trace, trace.times[rows])


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
    return {
        server: len(np.unique(trace.user_codes[rows]))
        for server, rows in trace.rows_by_server.items()
    }


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
    if not trace.times.size:
        raise EmptyTrace("cannot tier an empty trace")
    return {server: tier_of(count) for server, count in unique_user_counts(trace).items()}
