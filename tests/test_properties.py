"""Property tests of the run invariants over small random scenarios.

Every example is a short run (at most 0.2 s) of 0-12 vehicles on 1-2
towers with 1-5 channels each, with hold and gap means short enough that
PUs and SUs change state many times. Examples are derandomized, so the
suite sees the same scenarios on every run.
"""

from collections import defaultdict
from dataclasses import replace

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from crvanet.config import ScenarioConfig, Scheme
from crvanet.engine import SimulationEngine, run_simulation
from crvanet.report import (
    MOVE,
    PU_OCCUPIED,
    PU_VACATED,
    SENSE,
    SU_OCCUPIED,
    SU_PREEMPTED,
    SU_VACATED,
)

PROPERTY_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True, database=None,
                             suppress_health_check=[HealthCheck.too_slow])


@st.composite
def small_configs(draw, scheme=None):
    towers = draw(st.integers(1, 2))
    per_tower = draw(st.integers(1, 5))
    means = st.sampled_from([0.005, 0.02, 0.08])
    return replace(
        ScenarioConfig(),
        running_time=draw(st.integers(1, 200)) * 0.001,
        road_length=draw(st.sampled_from([300.0, 800.0, 2000.0])),
        n_vehicles=draw(st.integers(0, 12)),
        n_pu_towers=towers,
        channels_per_tower=per_tower,
        n_channels=towers * per_tower,
        pu_hold_mean=draw(means),
        pu_gap_mean=draw(means),
        su_hold_mean=draw(means),
        su_gap_mean=draw(means),
        scheme=scheme if scheme is not None else draw(st.sampled_from(list(Scheme))),
        seed=draw(st.integers(0, 2**20)),
    ).validate()


@PROPERTY_SETTINGS
@given(small_configs())
def test_single_holder_and_consistent_holder_maps(config):
    engine = SimulationEngine(config)
    report = engine.run(trace=[])
    holder, held = {}, {}   # channel -> vehicle, vehicle -> channel
    for e in report.trace:
        if e.event == SU_OCCUPIED:
            assert e.channel_id not in holder and e.actor_id not in held
            holder[e.channel_id] = e.actor_id
            held[e.actor_id] = e.channel_id
        elif e.event in (SU_VACATED, SU_PREEMPTED):
            assert holder.pop(e.channel_id) == e.actor_id
            assert held.pop(e.actor_id) == e.channel_id
    cmap = engine.channel_map
    assert {c: v for c, v in enumerate(cmap.su_holder.tolist()) if v >= 0} == holder
    assert {v: c for v, c in enumerate(cmap.su_channel.tolist()) if c >= 0} == held


@PROPERTY_SETTINGS
@given(small_configs())
def test_pu_occupy_vacate_alternate(config):
    engine = SimulationEngine(config)
    report = engine.run(trace=[])
    per_channel = defaultdict(list)
    for e in report.trace:
        if e.event in (PU_OCCUPIED, PU_VACATED):
            per_channel[e.channel_id].append(e.event)
    for channel in range(config.n_channels):
        events = per_channel[channel]
        assert events[:1] in ([], [PU_OCCUPIED])
        assert all(a != b for a, b in zip(events, events[1:]))
        assert engine.channel_map.pu_active[channel] == (events[-1:] == [PU_OCCUPIED])


@PROPERTY_SETTINGS
@given(small_configs())
def test_sense_classes_conserved(config):
    report = run_simulation(config, trace=[])
    assert report.conservation_holds()
    classes = defaultdict(int)
    for e in report.trace:
        if e.event == SENSE:
            classes[e.detail] += 1
    assert sum(classes.values()) == report.sensing_events
    assert classes["correctDetection"] == report.correct_detections
    assert classes["falseAlarm"] == report.false_alarms
    assert classes["misdetection"] == report.misdetections
    assert run_simulation(config).counters == report.counters


@PROPERTY_SETTINGS
@given(small_configs(scheme=Scheme.PROPOSED))
def test_mobility_and_pu_rows_identical_across_schemes(config):
    def rows(scheme):
        report = run_simulation(replace(config, scheme=scheme), trace=[],
                                trace_mobility=True)
        return [e for e in report.trace if e.event in (MOVE, PU_OCCUPIED, PU_VACATED)]

    assert rows(Scheme.STANDALONE) == rows(Scheme.COOPERATIVE) == rows(Scheme.PROPOSED)
