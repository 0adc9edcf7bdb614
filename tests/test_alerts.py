"""Alert probability math, thresholds, and escape-probability tests."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from blocksentinel import alerts
from blocksentinel.alerts import (
    AlertLevel,
    AlertState,
    AttackerModel,
    BlockTimingModel,
    LEVEL_PROBABILITIES,
)
from reference_tables import (
    ANALYTIC_SINGLE_BLOCK_THRESHOLDS,
    REFERENCE_SINGLE_BLOCK_THRESHOLDS,
    REFERENCE_SIX_CONFIRMATION_THRESHOLDS,
)

MODEL = BlockTimingModel()


def test_default_model_parameters():
    assert MODEL.mean_block_minutes == 12.0
    with pytest.raises(ValueError):
        BlockTimingModel(mean_block_minutes=0.0)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(0, 40),
    minutes=st.floats(0.01, 5000.0, allow_nan=False),
)
def test_prob_at_most_matches_poisson_cdf(n, minutes):
    ours = alerts.prob_at_most_n_blocks(n, minutes, MODEL)
    reference = stats.poisson.cdf(n, minutes / 12.0)
    assert ours == pytest.approx(reference, rel=1e-12, abs=1e-300)


def test_prob_at_most_edge_cases():
    assert alerts.prob_at_most_n_blocks(5, 0.0, MODEL) == 1.0
    with pytest.raises(ValueError):
        alerts.prob_at_most_n_blocks(-1, 10.0, MODEL)
    with pytest.raises(ValueError):
        alerts.prob_at_most_n_blocks(2, -1.0, MODEL)


def test_classify_probability_boundaries():
    assert alerts.classify_probability(1.0) is AlertLevel.GREEN
    assert alerts.classify_probability(1e-2) is AlertLevel.GREEN
    assert alerts.classify_probability(9.99e-3) is AlertLevel.YELLOW
    assert alerts.classify_probability(1e-4) is AlertLevel.YELLOW
    assert alerts.classify_probability(9.99e-5) is AlertLevel.ORANGE
    assert alerts.classify_probability(1e-6) is AlertLevel.ORANGE
    assert alerts.classify_probability(9.99e-7) is AlertLevel.RED
    assert alerts.classify_probability(0.0) is AlertLevel.RED


@pytest.mark.parametrize("n_blocks", [0, 1, 7, 12])
@pytest.mark.parametrize("p_level", LEVEL_PROBABILITIES)
def test_waiting_time_quantile_self_consistent(n_blocks, p_level):
    t = alerts.waiting_time_quantile(n_blocks + 1, p_level, MODEL)
    assert alerts.prob_at_most_n_blocks(n_blocks, t, MODEL) == pytest.approx(
        p_level, abs=1e-9
    )


def test_waiting_time_quantile_monotone_in_blocks_and_probability():
    previous = 0.0
    for k in range(1, 10):
        t = alerts.waiting_time_quantile(k, 1e-4, MODEL)
        assert t > previous
        previous = t
    t_yellow = alerts.waiting_time_quantile(3, 1e-2, MODEL)
    t_red = alerts.waiting_time_quantile(3, 1e-6, MODEL)
    assert t_red > t_yellow


def test_waiting_time_quantile_validation():
    with pytest.raises(ValueError):
        alerts.waiting_time_quantile(0, 1e-2, MODEL)
    with pytest.raises(ValueError):
        alerts.waiting_time_quantile(3, 0.0, MODEL)
    with pytest.raises(ValueError):
        alerts.waiting_time_quantile(3, 1.0, MODEL)


def test_single_block_thresholds_are_exponential_quantiles():
    computed = alerts.alert_thresholds(1, MODEL)
    for level, p, exact in zip(
        (AlertLevel.YELLOW, AlertLevel.ORANGE, AlertLevel.RED),
        LEVEL_PROBABILITIES,
        ANALYTIC_SINGLE_BLOCK_THRESHOLDS,
    ):
        assert computed[level] == pytest.approx(-12.0 * math.log(p), abs=1e-9)
        assert computed[level] == pytest.approx(exact, abs=1e-9)
    for printed, exact in zip(
        REFERENCE_SINGLE_BLOCK_THRESHOLDS, ANALYTIC_SINGLE_BLOCK_THRESHOLDS
    ):
        assert abs(exact - printed) < 3.0


def test_six_confirmation_thresholds_match_published_values():
    computed = alerts.alert_thresholds(8, MODEL)
    trio = [
        computed[level]
        for level in (AlertLevel.YELLOW, AlertLevel.ORANGE, AlertLevel.RED)
    ]
    for ours, printed in zip(trio, REFERENCE_SIX_CONFIRMATION_THRESHOLDS):
        assert abs(ours - printed) < 20.0


def test_alert_thresholds_validation():
    with pytest.raises(ValueError):
        alerts.alert_thresholds(0, MODEL)


def test_level_for_elapsed_uses_strict_boundaries():
    thresholds = alerts.alert_thresholds(1, MODEL)
    yellow = thresholds[AlertLevel.YELLOW]
    assert alerts.level_for_elapsed(yellow, thresholds) is AlertLevel.GREEN
    assert alerts.level_for_elapsed(yellow + 1e-6, thresholds) is AlertLevel.YELLOW
    red = thresholds[AlertLevel.RED]
    assert alerts.level_for_elapsed(red + 1e-6, thresholds) is AlertLevel.RED
    assert alerts.level_for_elapsed(0.0, thresholds) is AlertLevel.GREEN
    assert alerts.level_for_elapsed(-5.0, thresholds) is AlertLevel.GREEN


# -- alert state -----------------------------------------------------------------


def test_alert_state_keeps_last_confirmations_plus_one():
    state = AlertState(confirmations=2)
    for i in range(5):
        state = alerts.observe_block(state, 10.0 * i, 10.0 * i + 1.0)
    assert len(state.creation_minutes) == 3
    assert state.creation_minutes == (20.0, 30.0, 40.0)
    assert state.arrival_minutes[-1] == 41.0


def test_alert_state_clamps_backward_creation_stamps():
    state = AlertState(confirmations=6)
    state = alerts.observe_block(state, 100.0, 100.0)
    state = alerts.observe_block(state, 40.0, 101.0)
    assert state.creation_minutes == (100.0, 100.0)


def test_alert_state_validation():
    with pytest.raises(ValueError):
        AlertState(confirmations=0)
    assert AlertState(confirmations=6).arrival_minutes == ()


def test_evaluate_empty_state_is_green():
    result = alerts.evaluate(AlertState(confirmations=6), 10_000.0, MODEL)
    assert result.type1 is AlertLevel.GREEN
    assert result.type2 is AlertLevel.GREEN
    assert result.elapsed_minutes is None
    assert result.span_minutes is None
    assert result.worst() is AlertLevel.GREEN


def test_evaluate_type1_crossing():
    state = alerts.observe_block(AlertState(confirmations=6), 0.0, 0.0)
    calm = alerts.evaluate(state, 55.0, MODEL)
    assert calm.type1 is AlertLevel.GREEN
    assert calm.elapsed_minutes == 55.0
    assert alerts.evaluate(state, 56.0, MODEL).type1 is AlertLevel.YELLOW
    assert alerts.evaluate(state, 111.0, MODEL).type1 is AlertLevel.ORANGE
    assert alerts.evaluate(state, 166.0, MODEL).type1 is AlertLevel.RED


def test_evaluate_type2_needs_full_history():
    state = AlertState(confirmations=6)
    for i in range(6):
        state = alerts.observe_block(state, 10.0 * i, 10.0 * i)
    partial = alerts.evaluate(state, 50.0, MODEL)
    assert partial.type2 is AlertLevel.GREEN
    assert partial.span_minutes is None
    state = alerts.observe_block(state, 60.0, 60.0)
    result = alerts.evaluate(state, 60.0, MODEL)
    assert result.span_minutes == 60.0
    assert result.type2 is AlertLevel.GREEN


def test_evaluate_type2_crossing_and_inclusive_mode():
    # Seven stamps spanning one minute, then a long quiet stretch: the
    # span grows with the clock once the last block has arrived.
    state = AlertState(confirmations=6)
    for i in range(7):
        minate = i / 6.0
        state = alerts.observe_block(state, minate, minate)
    # Span at clock t is (1 - 0) + (t - 1) = t once the last stamp is in.
    exclusive = alerts.alert_thresholds(7, MODEL)[AlertLevel.YELLOW]
    inclusive = alerts.alert_thresholds(8, MODEL)[AlertLevel.YELLOW]
    assert alerts.evaluate(state, exclusive - 0.5, MODEL).type2 is AlertLevel.GREEN
    assert alerts.evaluate(state, exclusive + 0.5, MODEL).type2 is AlertLevel.YELLOW
    easy = alerts.evaluate(state, exclusive + 0.5, MODEL, boundary_inclusive=True)
    assert easy.type2 is AlertLevel.GREEN
    assert (
        alerts.evaluate(state, inclusive + 0.5, MODEL, boundary_inclusive=True).type2
        is AlertLevel.YELLOW
    )


@settings(max_examples=200, deadline=None)
@given(
    confirmations=st.integers(1, 8),
    start=st.floats(-200.0, 200.0),
    gaps=st.lists(
        st.tuples(st.floats(0.01, 60.0), st.floats(0.01, 60.0)), min_size=1, max_size=12
    ),
    boundary_inclusive=st.booleans(),
)
def test_next_crossings_bracket_evaluate(confirmations, start, gaps, boundary_inclusive):
    empty = AlertState(confirmations=confirmations)
    assert alerts.next_crossings(empty, MODEL, boundary_inclusive) == []
    state, created, arrived = empty, start, start
    for created_gap, arrived_gap in gaps:
        created += created_gap
        arrived += arrived_gap
        state = alerts.observe_block(state, created, arrived)
    crossings = alerts.next_crossings(state, MODEL, boundary_inclusive)
    checks = ("type1", "type2") if len(gaps) > confirmations else ("type1",)
    levels = (AlertLevel.YELLOW, AlertLevel.ORANGE, AlertLevel.RED)
    assert [(check, level) for check, level, _ in crossings] == [
        (check, level) for level in levels for check in checks
    ]
    for check, level, minute in crossings:
        if minute < arrived:
            continue
        before = alerts.evaluate(state, minute - 1e-6, MODEL, boundary_inclusive)
        after = alerts.evaluate(state, minute + 1e-6, MODEL, boundary_inclusive)
        assert getattr(before, check) < level <= getattr(after, check)


def test_assessment_worst_picks_higher_level():
    a = alerts.AlertAssessment(AlertLevel.YELLOW, AlertLevel.RED, 1.0, 2.0)
    assert a.worst() is AlertLevel.RED
    b = alerts.AlertAssessment(AlertLevel.ORANGE, AlertLevel.GREEN, 1.0, None)
    assert b.worst() is AlertLevel.ORANGE


# -- attacker escape -------------------------------------------------------------


def test_attacker_model_validation():
    assert AttackerModel(alpha=0.2).mean_block_minutes() == pytest.approx(60.0)
    with pytest.raises(ValueError):
        AttackerModel(alpha=0.0)
    with pytest.raises(ValueError):
        AttackerModel(alpha=1.2)
    with pytest.raises(ValueError):
        AttackerModel(alpha=0.5, base_mean_minutes=-1.0)


def test_escape_probability_rejects_green():
    with pytest.raises(ValueError):
        alerts.attacker_escape_probability(AttackerModel(alpha=0.2), AlertLevel.GREEN)


def test_escape_probability_monotone():
    yellow = alerts.attacker_escape_probability(AttackerModel(alpha=0.2), AlertLevel.YELLOW)
    red = alerts.attacker_escape_probability(AttackerModel(alpha=0.2), AlertLevel.RED)
    assert yellow < red
    weak = alerts.attacker_escape_probability(AttackerModel(alpha=0.05), AlertLevel.RED)
    strong = alerts.attacker_escape_probability(AttackerModel(alpha=0.5), AlertLevel.RED)
    assert weak < strong


@pytest.mark.parametrize("alpha", [0.05, 0.125, 0.2, 0.3, 0.5])
@pytest.mark.parametrize("level", [AlertLevel.YELLOW, AlertLevel.ORANGE, AlertLevel.RED])
def test_escape_probability_against_monte_carlo(alpha, level):
    attacker = AttackerModel(alpha=alpha)
    closed = alerts.attacker_escape_probability(attacker, level)
    estimate, se = alerts.attacker_escape_probability_mc(
        attacker, level, trials=200_000, seed=11
    )
    assert abs(closed - estimate) <= max(4.0 * se, 1e-7)


@pytest.mark.parametrize(
    "alpha,level",
    [(0.2, AlertLevel.YELLOW), (0.3, AlertLevel.ORANGE), (0.5, AlertLevel.RED)],
)
def test_escape_probability_near_reference_measurements(alpha, level):
    published = alerts.REFERENCE_ESCAPE_PROBABILITIES[(alpha, level)]
    ours = alerts.attacker_escape_probability(AttackerModel(alpha=alpha), level)
    assert published / 3.0 < ours < published * 3.0
