import tracemalloc
from collections import defaultdict
from dataclasses import replace

import numpy as np
import pytest

from crvanet.config import ScenarioConfig, Scheme
from crvanet.engine import BLOCK, SimulationEngine, run_simulation
from crvanet.report import (
    MOVE,
    PU_OCCUPIED,
    PU_VACATED,
    SENSE,
    SU_BACKOFF,
    SU_OCCUPIED,
    SU_PREEMPTED,
    SU_VACATED,
)
from crvanet.sensing import CLASSES

_ORDER = {MOVE: 0, PU_OCCUPIED: 1, PU_VACATED: 1, SU_OCCUPIED: 2, SU_VACATED: 2,
          SU_PREEMPTED: 1, SU_BACKOFF: 2, SENSE: 2, "su-interference": 2}


def test_clock_is_exact_product():
    config = replace(ScenarioConfig(), running_time=7.92, n_vehicles=1, n_channels=2,
                     channels_per_tower=1).validate()
    report = run_simulation(config, trace=[], trace_mobility=True)
    moves = [e for e in report.trace if e.event == MOVE]
    assert len(moves) == 7920
    assert moves[7919].tick == 7919 and moves[7919].time == 7919 * 0.001
    assert all(e.time == e.tick * config.time_step for e in report.trace)


@pytest.mark.parametrize("scheme", list(Scheme))
def test_traced_and_untraced_runs_count_alike(scheme):
    config = replace(ScenarioConfig(), running_time=0.2, seed=11, scheme=scheme).validate()
    traced = run_simulation(config, trace=[])
    untraced = run_simulation(config)
    assert traced.counters == untraced.counters
    senses = [e.detail for e in traced.trace if e.event == SENSE]
    assert len(senses) == untraced.sensing_events > 0
    assert [senses.count(c) for c in CLASSES] == [
        untraced.correct_detections, untraced.false_alarms, untraced.misdetections]


def test_empty_fleet_yields_zero_counters():
    config = replace(ScenarioConfig(), n_vehicles=0, running_time=0.2).validate()
    report = run_simulation(config)
    assert report.allocations == 0
    assert report.sensing_events == 0
    assert report.false_alarms == report.misdetections == 0
    assert report.harmful_occupations == 0


def test_identical_config_and_seed_reproduce_report(short_config):
    r1 = run_simulation(short_config, trace=[])
    r2 = run_simulation(short_config, trace=[])
    assert r1 == r2


def test_different_seeds_differ(short_config):
    r1 = run_simulation(short_config)
    r2 = run_simulation(replace(short_config, seed=short_config.seed + 1).validate())
    assert r1.counters != r2.counters


def test_trace_timestamps_are_tick_products(short_config):
    report = run_simulation(short_config, trace=[])
    dt = short_config.time_step
    for event in report.trace:
        assert event.time == event.tick * dt


def test_tick_order_mobility_pu_su(short_config):
    config = replace(short_config, running_time=0.2).validate()
    report = run_simulation(config, trace=[], trace_mobility=True)
    by_tick = defaultdict(list)
    for e in report.trace:
        by_tick[e.tick].append(_ORDER[e.event])
    for tick, phases in by_tick.items():
        assert phases == sorted(phases), f"phase order broken at tick {tick}"


def test_conservation_at_every_prefix(short_config):
    report = run_simulation(short_config, trace=[])
    fa = md = cd = senses = 0
    for e in report.trace:
        if e.event == SENSE:
            senses += 1
            if e.detail == "falseAlarm":
                fa += 1
            elif e.detail == "misdetection":
                md += 1
            else:
                cd += 1
            assert fa + md + cd == senses
    assert senses == report.sensing_events
    assert (fa, md, cd) == (report.false_alarms, report.misdetections,
                            report.correct_detections)


def test_allocations_equal_su_occupied_events(short_config):
    report = run_simulation(short_config, trace=[])
    occupied = sum(1 for e in report.trace if e.event == SU_OCCUPIED)
    assert occupied == report.allocations > 0


def test_mobility_and_pu_traces_identical_across_schemes():
    def filtered(scheme):
        config = replace(ScenarioConfig(), running_time=0.3, seed=17,
                         scheme=scheme).validate()
        rep = run_simulation(config, trace=[], trace_mobility=True)
        return [e for e in rep.trace if e.event in (MOVE, PU_OCCUPIED, PU_VACATED)]

    standalone = filtered(Scheme.STANDALONE)
    cooperative = filtered(Scheme.COOPERATIVE)
    proposed = filtered(Scheme.PROPOSED)
    assert standalone == cooperative == proposed
    assert len(standalone) > 1000


def test_proposed_default_run_has_zero_misdetections():
    # strongly detectable PUs plus double-check keep the counter at zero
    config = replace(ScenarioConfig(), seed=1).validate()
    report = run_simulation(config)
    assert config.scheme is Scheme.PROPOSED
    assert report.misdetections == 0
    assert report.harmful_occupations == 0
    assert report.allocations > 0


def test_pu_alternation_per_channel(short_config):
    report = run_simulation(short_config, trace=[])
    per_channel = defaultdict(list)
    for e in report.trace:
        if e.event in (PU_OCCUPIED, PU_VACATED):
            per_channel[e.channel_id].append(e.event)
    assert len(per_channel) == short_config.n_channels
    for channel, events in per_channel.items():
        assert events[0] == PU_OCCUPIED
        for a, b in zip(events, events[1:]):
            assert a != b, f"channel {channel} broke alternation"


def test_preemption_always_paired_with_same_tick_occupation(short_config):
    report = run_simulation(short_config, trace=[])
    trace = report.trace
    preemptions = [i for i, e in enumerate(trace) if e.event == SU_PREEMPTED]
    assert preemptions, "expected some preemptions at default traffic"
    for i in preemptions:
        follow = trace[i + 1]
        assert follow.event == PU_OCCUPIED
        assert follow.tick == trace[i].tick
        assert follow.channel_id == trace[i].channel_id


def test_single_holder_per_channel_throughout(short_config):
    report = run_simulation(short_config, trace=[])
    holder = {}
    for e in report.trace:
        if e.event == SU_OCCUPIED:
            assert e.channel_id not in holder, "second holder on one channel"
            holder[e.channel_id] = e.actor_id
        elif e.event in (SU_VACATED, SU_PREEMPTED):
            assert holder.pop(e.channel_id, None) == e.actor_id


def test_backoff_advances_next_attempt_exactly(short_config):
    report = run_simulation(short_config, trace=[])
    engine_backoff = short_config.back_off_time
    # every backoff for a vehicle is followed by its next action no earlier
    # than backOffTime later, and the first retry lands exactly on it
    last_backoff = {}
    gaps = []
    for e in report.trace:
        if e.event == SU_BACKOFF:
            last_backoff[e.actor_id] = e.time
        elif e.event in (SENSE, SU_OCCUPIED) and e.actor_id in last_backoff:
            gaps.append(e.time - last_backoff.pop(e.actor_id))
    assert gaps, "expected retries after backoffs"
    for gap in gaps:
        assert gap >= engine_backoff - 1e-9
    assert min(gaps) == pytest.approx(engine_backoff, abs=1e-9)


def test_engine_reuse_is_rejected_by_fresh_runs():
    # run_simulation always builds a fresh engine: two calls cannot interfere
    config = replace(ScenarioConfig(), running_time=0.2, seed=5).validate()
    first = run_simulation(config)
    second = run_simulation(config)
    assert first == second


def test_motion_memory_is_bounded_by_the_block():
    """A 2,000-vehicle fleet moves in blocks of at most BLOCK ticks, not
    whole decision periods: a 1 s run (one 1,000-tick period) peaks at a
    few blocks of vehicles x BLOCK positions, far below one period's."""
    n = 2000
    config = replace(ScenarioConfig(), running_time=1.0, n_vehicles=n, n_channels=2,
                     channels_per_tower=1, su_gap_mean=1e6, scheme=Scheme.STANDALONE).validate()
    engine = SimulationEngine(config)
    assert engine.decision_period == 1000 and BLOCK <= 200
    block_bytes = n * BLOCK * 8
    tracemalloc.start()
    try:
        engine.run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * block_bytes < n * engine.decision_period * 8
