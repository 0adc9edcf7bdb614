"""Timing-based eclipse alerts.

Block arrivals on the main chain are modeled as a Poisson process.  The
detection model deliberately assumes a conservative mean block interval
(12 minutes rather than the nominal 10) so that slow-but-honest periods
do not page anyone.  An observation window in which suspiciously few
blocks appeared maps to an alert level via fixed false-positive budgets:

    yellow  P < 1e-2
    orange  P < 1e-4
    red     P < 1e-6

Two checks run side by side: the time since the last block (a denial of
service leaves it growing without bound) and the span covered by the last
k+1 block timestamps (a double-spend attacker must stretch it).  The span
check adds the wall-clock gap since the last block arrived, which defeats
backdated timestamps.
"""

import enum
import functools
import math
from dataclasses import dataclass, replace

import numpy
from scipy.special import gammaincc, gammainccinv

LEVEL_PROBABILITIES = (1e-2, 1e-4, 1e-6)


class AlertLevel(enum.IntEnum):
    GREEN = 0
    YELLOW = 1
    ORANGE = 2
    RED = 3


@dataclass(frozen=True)
class BlockTimingModel:
    """Poisson block-arrival model with a conservative mean interval."""

    mean_block_minutes: float = 12.0

    def __post_init__(self):
        if self.mean_block_minutes <= 0:
            raise ValueError("mean block interval must be positive")


DEFAULT_MODEL = BlockTimingModel()


def prob_at_most_n_blocks(n: int, t_minutes: float, model: BlockTimingModel = DEFAULT_MODEL) -> float:
    """P[at most n blocks in t minutes] under the model's Poisson rate.

    This equals the survival function of an Erlang(n+1) waiting time at t.
    """
    if n < 0:
        raise ValueError("block count must be non-negative")
    if t_minutes < 0:
        raise ValueError("time must be non-negative")
    return min(float(gammaincc(n + 1, t_minutes / model.mean_block_minutes)), 1.0)


@functools.lru_cache(maxsize=4096)
def waiting_time_quantile(k_blocks: int, probability: float, model: BlockTimingModel = DEFAULT_MODEL) -> float:
    """Minutes t where P[fewer than k_blocks blocks in t] = probability.

    That is the upper quantile of an Erlang(k_blocks) waiting time: the
    mean block interval times the inverse regularized upper incomplete
    gamma function at `probability`.
    """
    if k_blocks < 1:
        raise ValueError("k_blocks must be positive")
    if not 0 < probability < 1:
        raise ValueError("probability must sit strictly between 0 and 1")
    return float(model.mean_block_minutes * gammainccinv(k_blocks, probability))


def alert_thresholds(k_blocks: int, model: BlockTimingModel = DEFAULT_MODEL) -> dict[AlertLevel, float]:
    """Observation-span thresholds in minutes for a k_blocks-deep check."""
    return {
        level: waiting_time_quantile(k_blocks, p, model)
        for level, p in zip((AlertLevel.YELLOW, AlertLevel.ORANGE, AlertLevel.RED), LEVEL_PROBABILITIES)
    }


def classify_probability(probability: float) -> AlertLevel:
    """Alert level for the probability of an observation this quiet."""
    return AlertLevel(sum(probability < p for p in LEVEL_PROBABILITIES))


def level_for_elapsed(elapsed_minutes: float, thresholds: dict[AlertLevel, float]) -> AlertLevel:
    """Highest level whose threshold is exceeded; thresholds rise with the level."""
    return AlertLevel(sum(elapsed_minutes > t for t in thresholds.values()))


@dataclass(frozen=True)
class AlertState:
    """Rolling record of the last k+1 block creation and arrival times.

    Creation timestamps are sanitized on entry: a timestamp earlier than
    its predecessor is clamped so recorded gaps are never negative.
    Times are minutes on a shared scale chosen by the caller.
    """

    confirmations: int = 6
    creation_minutes: tuple[float, ...] = ()
    arrival_minutes: tuple[float, ...] = ()

    def __post_init__(self):
        if self.confirmations < 1:
            raise ValueError("confirmations must be positive")


def observe_block(state: AlertState, created_minutes: float, arrived_minutes: float) -> AlertState:
    """Record one block; keeps the newest confirmations + 1 entries."""
    if state.creation_minutes and created_minutes < state.creation_minutes[-1]:
        created_minutes = state.creation_minutes[-1]
    keep = state.confirmations + 1
    return replace(
        state,
        creation_minutes=(state.creation_minutes + (created_minutes,))[-keep:],
        arrival_minutes=(state.arrival_minutes + (arrived_minutes,))[-keep:],
    )


@dataclass(frozen=True)
class AlertAssessment:
    type1: AlertLevel
    type2: AlertLevel
    elapsed_minutes: float | None
    span_minutes: float | None

    def worst(self) -> AlertLevel:
        return max(self.type1, self.type2)


def evaluate(
    state: AlertState,
    now_minutes: float,
    model: BlockTimingModel = DEFAULT_MODEL,
    boundary_inclusive: bool = False,
) -> AlertAssessment:
    """Current alert levels at wall-clock time `now_minutes`.

    type1 compares the age of the newest block timestamp against the
    single-block thresholds.  type2 takes the span of the tracked k+1
    creation timestamps, adds the wall-clock time since the last arrival,
    and compares against the k-deep window thresholds.  With
    `boundary_inclusive` the window's opening block counts toward the
    block tally, which shifts the type2 thresholds one Erlang stage up;
    that looser convention matches the published reference calibration.
    """
    if not state.creation_minutes:
        return AlertAssessment(AlertLevel.GREEN, AlertLevel.GREEN, None, None)
    elapsed = now_minutes - state.creation_minutes[-1]
    type1 = level_for_elapsed(elapsed, alert_thresholds(1, model))
    type2 = AlertLevel.GREEN
    span = None
    span_thresholds = _span_thresholds(state, model, boundary_inclusive)
    if span_thresholds is not None:
        delta = max(0.0, now_minutes - state.arrival_minutes[-1])
        span = (state.creation_minutes[-1] - state.creation_minutes[0]) + delta
        type2 = level_for_elapsed(span, span_thresholds)
    return AlertAssessment(type1, type2, elapsed, span)


def next_crossings(
    state: AlertState, model: BlockTimingModel = DEFAULT_MODEL, boundary_inclusive: bool = False
) -> list[tuple[str, AlertLevel, float]]:
    """(check, level, minute) at which each check reaches each level if no
    block arrives; level by level, type1 first, and type2 only once the
    state holds confirmations + 1 blocks."""
    if not state.creation_minutes:
        return []
    span_thresholds = _span_thresholds(state, model, boundary_inclusive)
    span0 = state.creation_minutes[-1] - state.creation_minutes[0]
    crossings = []
    for level, threshold in alert_thresholds(1, model).items():
        crossings.append(("type1", level, state.creation_minutes[-1] + threshold))
        if span_thresholds is not None:
            cross = state.arrival_minutes[-1] + span_thresholds[level] - span0
            crossings.append(("type2", level, cross))
    return crossings


def _span_thresholds(state: AlertState, model: BlockTimingModel, boundary_inclusive: bool):
    """type2 thresholds, or None until the state holds confirmations + 1 blocks."""
    if len(state.creation_minutes) != state.confirmations + 1:
        return None
    return alert_thresholds(state.confirmations + (2 if boundary_inclusive else 1), model)


@dataclass(frozen=True)
class AttackerModel:
    """Miner controlling an `alpha` fraction of the modeled hash rate.

    Block intervals are exponential with mean base_mean_minutes / alpha,
    on the same conservative calibration the detection model uses.
    """

    alpha: float
    base_mean_minutes: float = 12.0

    def __post_init__(self):
        if not 0 < self.alpha <= 1:
            raise ValueError("alpha must sit in (0, 1]")
        if self.base_mean_minutes <= 0:
            raise ValueError("base_mean_minutes must be positive")

    def mean_block_minutes(self) -> float:
        return self.base_mean_minutes / self.alpha


# Length of the attack chain the escape probabilities describe, the one
# REFERENCE_ESCAPE_PROBABILITIES was published for.
ESCAPE_BLOCKS = 7


def _escape_threshold(level: AlertLevel, model: BlockTimingModel) -> float:
    """Boundary-inclusive span threshold an ESCAPE_BLOCKS attack chain must beat."""
    if level == AlertLevel.GREEN:
        raise ValueError("green is not an alertable level")
    return alert_thresholds(ESCAPE_BLOCKS + 1, model)[level]


def attacker_escape_probability(
    attacker: AttackerModel,
    level: AlertLevel,
    detection_model: BlockTimingModel = DEFAULT_MODEL,
) -> float:
    """Chance the attacker finishes its ESCAPE_BLOCKS chain under the alert bar.

    The span check monitors the window in which ESCAPE_BLOCKS blocks appear,
    counted boundary-inclusive, so the threshold is the quantile one stage
    above ESCAPE_BLOCKS, and escaping means the attacker's
    Erlang(ESCAPE_BLOCKS + 1) completion time stays below it.
    """
    threshold = _escape_threshold(level, detection_model)
    pace = BlockTimingModel(attacker.mean_block_minutes())
    return 1.0 - prob_at_most_n_blocks(ESCAPE_BLOCKS, threshold, pace)


def attacker_escape_probability_mc(
    attacker: AttackerModel,
    level: AlertLevel,
    detection_model: BlockTimingModel = DEFAULT_MODEL,
    trials: int = 10**6,
    seed: int = 0,
) -> tuple[float, float]:
    """Monte-Carlo estimate of the escape probability and its standard error.

    Draws independent exponential block gaps and measures how often the
    attacker's chain completes inside the threshold; a cross-check on the
    closed form, not a replacement for it.
    """
    threshold = _escape_threshold(level, detection_model)
    if trials < 1:
        raise ValueError("trials must be positive")
    rng = numpy.random.default_rng(seed)
    gaps = rng.exponential(attacker.mean_block_minutes(), size=(trials, ESCAPE_BLOCKS + 1))
    hits = int(numpy.count_nonzero(gaps.sum(axis=1) <= threshold))
    estimate = hits / trials
    std_error = math.sqrt(max(estimate * (1.0 - estimate), 1.0 / trials) / trials)
    return estimate, std_error


# Escape probabilities published for this detection setup, used by tests
# and the CLI tables as an external cross-check: (alpha, level) -> P.
REFERENCE_ESCAPE_PROBABILITIES: dict[tuple[float, AlertLevel], float] = {
    (0.05, AlertLevel.YELLOW): 2.05e-6,
    (0.05, AlertLevel.ORANGE): 2.72e-5,
    (0.05, AlertLevel.RED): 1.40e-4,
    (0.08, AlertLevel.YELLOW): 5.78e-5,
    (0.08, AlertLevel.ORANGE): 6.40e-4,
    (0.08, AlertLevel.RED): 2.82e-3,
    (0.125, AlertLevel.YELLOW): 1.10e-3,
    (0.125, AlertLevel.ORANGE): 9.34e-3,
    (0.125, AlertLevel.RED): 3.28e-2,
    (0.2, AlertLevel.YELLOW): 1.68e-2,
    (0.2, AlertLevel.ORANGE): 9.44e-2,
    (0.2, AlertLevel.RED): 2.33e-1,
    (0.3, AlertLevel.YELLOW): 1.13e-1,
    (0.3, AlertLevel.ORANGE): 3.85e-1,
    (0.3, AlertLevel.RED): 6.46e-1,
    (0.5, AlertLevel.YELLOW): 5.47e-1,
    (0.5, AlertLevel.ORANGE): 8.85e-1,
    (0.5, AlertLevel.RED): 9.77e-1,
}
