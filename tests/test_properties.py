"""Property tests of the run invariants over small random scenarios.

Every example is a short run (at most 0.2 s) of 0-12 vehicles on 1-2
towers with 1-5 channels each, with hold and gap means short enough that
PUs and SUs change state many times. The coordinator election is checked
on its own, over fleets of 1-40 vehicles. Examples are derandomized, so the
suite sees the same scenarios on every run.
"""

from collections import defaultdict
from dataclasses import replace

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from crvanet.config import ScenarioConfig, Scheme
from crvanet.coordination import elect_coordinators
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
from crvanet.scheduling import WINDOW, pu_timeline, schedule_next
from crvanet.streams import StreamBundle

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


@st.composite
def fleets(draw):
    n = draw(st.integers(1, 40))
    if draw(st.booleans()):
        positions = draw(st.lists(st.floats(0.0, 2000.0), min_size=n, max_size=n))
    else:
        # a coarse grid: equal positions, and gaps of exactly the comm range
        positions = [60.0 * k for k in draw(st.lists(st.integers(0, 33), min_size=n, max_size=n))]
    directions = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
    return np.array(positions), np.array(directions)


@PROPERTY_SETTINGS
@given(fleets())
def test_election_follows_the_rule(fleet):
    """Clusters are maximal single-direction chains whose sorted gaps are
    within comm range, ordered by direction (+1 first) then leading
    position. Forward is furthest along travel, backward the rearmost, main
    the nearest the centroid; each tie goes to the lowest id."""
    positions, directions = fleet
    comm_range = 240.0
    cluster_of, roles = elect_coordinators(positions, directions, comm_range)
    clusters = [np.flatnonzero(cluster_of == c) for c in range(len(roles))]
    assert sum(members.size for members in clusters) == len(positions)
    leads = []
    for members, (main, forward, backward) in zip(clusters, roles.tolist()):
        direction = directions[members[0]]
        assert (directions[members] == direction).all()
        assert (np.diff(np.sort(positions[members])) <= comm_range).all()
        leads.append((-direction, positions[members].min()))
        along = positions[members] * direction
        assert forward == members[along == along.max()].min()
        assert backward == members[along == along.min()].min()
        offset = np.abs(positions[members] - np.mean(positions[members]))
        assert main == members[offset == offset.min()].min()
    assert leads == sorted(leads)
    for lower, upper in zip(clusters, clusters[1:]):
        if directions[lower[0]] == directions[upper[0]]:
            assert positions[upper].min() - positions[lower].max() > comm_range


def reference_timeline(rngs, n_ticks, dt, hold_mean, gap_mean):
    """The per-tick rule the PU timeline replaces: a pending instant per
    channel, due at tick * dt >= pending - 1e-12, the next one drawn by
    schedule_next from the tick it fired at; a channel flips at most once a
    tick."""
    pending = [schedule_next(gap_mean, rng) for rng in rngs]
    active = [False] * len(rngs)
    for tick in range(n_ticks):
        now = tick * dt
        due = [c for c, instant in enumerate(pending) if now >= instant - 1e-12]
        for c in due:
            active[c] = not active[c]
            pending[c] = now + schedule_next(hold_mean if active[c] else gap_mean, rngs[c])
        yield due


# means in time steps: far below, just below, and exact multiples of one
MEAN_STEPS = st.sampled_from([1e-3, 0.3, 0.999, 1.0, 2.0, 5.0, 25.0])


@PROPERTY_SETTINGS
@given(n_channels=st.integers(1, 10), dt=st.sampled_from([1e-3, 7e-4, 1e-4]),
       hold_steps=MEAN_STEPS, gap_steps=MEAN_STEPS,
       n_ticks=st.integers(1, 3000) | st.sampled_from([WINDOW, WINDOW + 1, 2 * WINDOW + 3]),
       seed=st.integers(0, 2**32 - 1),
       fixed=st.none() | st.lists(st.sampled_from([0.0, 1e-12, 0.5, 1.0, 2.0, 3.0]), max_size=30))
def test_pu_timeline_follows_the_scalar_rule(n_channels, dt, hold_steps, gap_steps, n_ticks,
                                             seed, fixed, draw_stub):
    """Real generators, or fixed draws that turn to 1.0 once used up: zeros
    (skipped), gaps below 1e-12 s (which only the one-flip-a-tick bound
    holds back) and due instants on exact multiples of dt (which exercise
    the flip-by-flip path)."""
    def generators():
        if fixed is None:
            return StreamBundle(seed, 0, n_channels, 0).pu
        return [draw_stub(fixed[c:] + fixed[:c]) for c in range(n_channels)]

    means = (hold_steps * dt, gap_steps * dt)
    expected = list(reference_timeline(generators(), n_ticks, dt, *means))
    timeline = list(pu_timeline(generators(), n_ticks, dt, *means))
    assert timeline == expected
    assert {type(c) for channels in timeline for c in channels} <= {int}
