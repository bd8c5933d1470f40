"""Property tests of the run invariants over small random scenarios.

Every example is a short run (at most 0.2 s) of 0-12 vehicles on 1-2
towers with 1-5 channels each, with hold and gap means short enough that
PUs and SUs change state many times. One tick's PU flips are checked
against the flip-by-flip rule on maps of 1-12 channels whose idle
channels may have SU holders, traced and untraced, and the PU timeline
against the per-tick rule on real and fixed draws. The coordinator
election is checked on its own, over fleets of 1-40 vehicles. The CLI's
streamed trace is checked against the list sink on the default scenario,
at horizons of at most 0.15 s. Fleet motion in blocks is checked against
one tick at a time over fleets of 0-6 vehicles, on -0.0 and zero-speed
inputs that no run reaches. The whole engine, its agenda of due SUs
included, is checked against the plain reference engine in
test_reference_engine.py. Examples are derandomized, so the suite sees
the same scenarios on every run.
"""

import contextlib
import io
import os
import tempfile
from collections import Counter, defaultdict
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import crvanet.scheduling
from crvanet.cli import main
from crvanet.config import ScenarioConfig, Scheme, load_scenario_file
from crvanet.coordination import elect_coordinators
from crvanet.engine import SimulationEngine, run_simulation
from crvanet.mobility import Fleet
from crvanet.report import (
    MOVE,
    PU_OCCUPIED,
    PU_VACATED,
    SENSE,
    SU_BACKOFF,
    SU_INTERFERENCE,
    SU_OCCUPIED,
    SU_PREEMPTED,
    SU_VACATED,
    SimulationReport,
    TraceEvent,
    record_event,
)
from crvanet.scheduling import ChannelMap, WINDOW, pu_timeline, schedule_next, step_pu
from crvanet.sensing import CLASSES
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
    # no holder, and only no holder, sits at +inf
    assert ((cmap.su_holder_pos == np.inf) == (cmap.su_holder == -1)).all()


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


def step_pu_per_flip(channel_id, tower_id, now, tick, channel_map, streams, su_gap_mean,
                     report):
    """The PU rule one flip at a time, as step_pu applied it before it took
    a tick's flips: the reference for the per-tick step_pu."""
    if channel_map.pu_active[channel_id]:
        channel_map.pu_active[channel_id] = False
        record_event(report, PU_VACATED, tick, now, channel_id, tower_id)
    else:
        holder = channel_map.su_holder.item(channel_id)
        if holder >= 0:
            channel_map.clear_holder(channel_id)
            channel_map.schedule(holder, now + schedule_next(su_gap_mean, streams.su[holder]))
            record_event(report, SU_PREEMPTED, tick, now, channel_id, holder)
        channel_map.pu_active[channel_id] = True
        record_event(report, PU_OCCUPIED, tick, now, channel_id, tower_id)


@st.composite
def pu_ticks(draw):
    """One tick's ascending PU flips over 1-3 towers of 1-4 channels, on a
    map where each idle channel may have an SU holder (1-8 vehicles, each
    with a pending instant on the agenda); returns the step_pu arguments
    but the map and streams, and a function that builds those afresh."""
    towers, per_tower = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    n_vehicles = draw(st.integers(1, 8))
    n_channels = towers * per_tower
    active = draw(st.lists(st.booleans(), min_size=n_channels, max_size=n_channels))
    idle = [c for c in range(n_channels) if not active[c] and draw(st.booleans())]
    held = dict(zip(idle, draw(st.permutations(range(n_vehicles)))))
    flips = sorted(draw(st.sets(st.integers(0, n_channels - 1), min_size=1)))
    tick, seed = draw(st.integers(0, 10**6)), draw(st.integers(0, 2**20))
    pending = draw(st.lists(st.floats(0.0, 1e3), min_size=n_vehicles, max_size=n_vehicles))

    def fresh():
        cmap = ChannelMap(n_channels, n_vehicles)
        cmap.pu_active[:] = active
        for v, instant in enumerate(pending):
            cmap.schedule(v, instant)
        for c, v in held.items():
            cmap.set_holder(c, v, 10.0 * v + c)
        return cmap, StreamBundle(seed, n_vehicles, n_channels, towers)

    gap = draw(st.sampled_from([0.001, 0.05]))
    return (flips, per_tower, tick * 0.001, tick, gap), fresh


def map_state(cmap, streams):
    """Everything a PU flip may change, and the state of every SU generator."""
    return (cmap.pu_active.tolist(), cmap.su_holder.tolist(), cmap.su_holder_pos.tolist(),
            cmap.su_channel.tolist(), cmap.su_next.tolist(), list(cmap.agenda),
            [rng.bit_generator.state for rng in streams.su])


@settings(PROPERTY_SETTINGS, max_examples=60)
@given(pu_ticks())
def test_step_pu_applies_a_tick_flip_by_flip(case):
    """step_pu on a tick's flips leaves the map, the agenda and the SU
    generators as step_pu_per_flip on each flip in turn does, with the same
    counters; traced into a list it collects the same events, and untraced
    it makes the same record_event calls, in order and field for field."""
    (flips, per_tower, now, tick, gap), fresh = case
    cmap, streams = fresh()
    expected = SimulationReport(trace=[])
    for c in flips:
        step_pu_per_flip(c, c // per_tower, now, tick, cmap, streams, gap, expected)
    expected_state = map_state(cmap, streams)

    cmap, streams = fresh()
    traced = SimulationReport(trace=[])
    step_pu(flips, per_tower, now, tick, cmap, streams, gap, traced)
    assert map_state(cmap, streams) == expected_state
    assert traced.counters == expected.counters
    assert traced.trace == expected.trace
    assert {type(e) for e in traced.trace} == {TraceEvent}

    calls = []

    def counted(report, kind, tick, time, channel_id=-1, actor_id=-1, detail=""):
        calls.append(TraceEvent(tick, time, kind, channel_id, actor_id, detail))
        record_event(report, kind, tick, time, channel_id, actor_id, detail)

    cmap, streams = fresh()
    untraced = SimulationReport()
    with mock.patch.object(crvanet.scheduling, "record_event", counted):
        step_pu(flips, per_tower, now, tick, cmap, streams, gap, untraced)
    assert map_state(cmap, streams) == expected_state
    assert untraced.counters == expected.counters
    assert calls == expected.trace


# the counter each trace row type or sense class bumps
COUNTED_EVENTS = {SU_OCCUPIED: "allocations", SU_INTERFERENCE: "harmful_occupations",
                  SU_PREEMPTED: "preemptions", SU_BACKOFF: "backoffs", SENSE: "sensing_events"}
COUNTED_CLASSES = dict(zip(CLASSES, ("correct_detections", "false_alarms", "misdetections")))


@pytest.mark.parametrize("mobility", [False, True], ids=["plain", "mobility"])
@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
@settings(max_examples=4, deadline=None, derandomize=True, database=None)
@given(horizon_ms=st.sampled_from([1, 40, 150]), seed=st.integers(0, 2**20))
def test_cli_trace_is_the_list_trace_and_counts_the_counters(scheme, mobility, horizon_ms,
                                                             seed):
    """`simulate --trace` writes, row for row, the events a trace=[] run of
    the same config collects, each in the one-format row; and its rows per
    event type and sense class equal the counters it prints."""
    with tempfile.TemporaryDirectory() as tmp:
        scenario, trace = os.path.join(tmp, "scenario.txt"), os.path.join(tmp, "trace.csv")
        with open(scenario, "w") as fh:
            fh.write(f"scheme = {scheme.value}\nrunningTime = {horizon_ms} ms\n")
        argv = ["simulate", "--config", scenario, "--seed", str(seed), "--trace", trace]
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(argv + ["--trace-mobility"] * mobility) == 0
        with open(trace, encoding="ascii", newline="") as fh:
            written = fh.read()
        config = replace(load_scenario_file(scenario), seed=seed)
    events = run_simulation(config, trace=[], trace_mobility=mobility).trace
    assert written == "tick,time,event,channel,actor,detail\n" + "".join(
        "%d,%.6f,%s,%d,%d,%s\n" % e for e in events)

    printed = {}
    for line in out.getvalue().splitlines():
        label, _, value = line.rpartition(" ")
        printed[label.strip().replace(" ", "_")] = value
    rows = [line.split(",") for line in written.splitlines()[1:]]
    by_event = Counter(row[2] for row in rows)
    by_class = Counter(row[5] for row in rows if row[2] == SENSE)
    for event, name in COUNTED_EVENTS.items():
        assert str(by_event[event]) == printed[name], name
    for detail, name in COUNTED_CLASSES.items():
        assert str(by_class[detail]) == printed[name], name


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


def reference_election(positions, directions, comm_range):
    """The election rule written with np.split and np.mean: the reference
    that elect_coordinators' bound slices and explicit sum must equal."""
    order = np.lexsort((positions, -directions))
    first = np.ones(order.size, dtype=bool)
    first[1:] = (np.diff(directions[order]) != 0) | (np.diff(positions[order]) > comm_range)
    cluster_of = np.empty(order.size, dtype=int)
    cluster_of[order] = np.cumsum(first) - 1
    roles = []
    for members in np.split(order, np.flatnonzero(first)[1:]):
        members = np.sort(members)
        at = positions[members]
        along = at * directions[members[0]]
        main = np.abs(at - np.mean(at)).argmin()
        roles.append(members[[main, along.argmax(), along.argmin()]])
    return cluster_of, np.array(roles)


@st.composite
def elections(draw):
    """A fleet of 1-40 vehicles, sometimes all in one direction, or 2-40
    vehicles of one direction placed in pairs about a centre, so that the
    main's tie falls to the last bit of the mean; and a comm range from
    none (every distinct position alone) to the whole road (one cluster per
    direction, up to 40 members)."""
    if draw(st.booleans()):
        positions, directions = draw(fleets())
        if draw(st.booleans()):
            directions[:] = draw(st.sampled_from([1, -1]))
    else:
        centre = draw(st.floats(100.0, 1900.0))
        offsets = draw(st.lists(st.floats(0.001, 60.0), min_size=1, max_size=20))
        positions = np.array(draw(st.permutations([centre + d for d in offsets]
                                                  + [centre - d for d in offsets])))
        directions = np.full(positions.size, draw(st.sampled_from([1, -1])))
    return positions, directions, draw(st.sampled_from([0.0, 60.0, 240.0, 1e4]))


@settings(PROPERTY_SETTINGS, max_examples=150)
@given(elections())
def test_election_equals_the_reference(election):
    """elect_coordinators gives reference_election's cluster_of and roles,
    bit for bit, dtypes and shapes included."""
    cluster_of, roles = elect_coordinators(*election)
    expected_cluster_of, expected_roles = reference_election(*election)
    assert cluster_of.dtype == expected_cluster_of.dtype and roles.dtype == expected_roles.dtype
    assert cluster_of.tobytes() == expected_cluster_of.tobytes()
    assert roles.shape == expected_roles.shape and roles.tobytes() == expected_roles.tobytes()


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


@st.composite
def drawn_motions(draw):
    """0-6 vehicles on roads of 0.5 m (many wraps a tick in one column) to
    2 km, at drawn positions (-0.0 among them) and speeds (0.0 among them),
    with a decision period and block lengths to drive them by."""
    n = draw(st.integers(0, 6))
    road = draw(st.sampled_from([0.5, 3.0, 47.0, 2000.0]))
    config = replace(ScenarioConfig(), n_vehicles=n, road_length=road,
                     seed=draw(st.integers(0, 2**20))).validate()
    position = st.just(-0.0) | st.floats(0.0, road, exclude_max=True)
    speed = st.just(0.0) | st.floats(0.0, 60.0)
    return (config, draw(st.lists(position, min_size=n, max_size=n)),
            draw(st.lists(speed, min_size=n, max_size=n)), draw(st.sampled_from([1e-3, 0.05, 0.1])),
            draw(st.integers(1, 40)), draw(st.lists(st.integers(1, 50), min_size=1, max_size=8)))


PAIR = replace(ScenarioConfig(), n_vehicles=2).validate()  # one vehicle per direction


@PROPERTY_SETTINGS
@given(drawn_motions())
# a backward vehicle standing at -0.0, whose % road is 0.0
@example((PAIR, [0.0, -0.0], [0.0, 0.0], 1e-3, 40, [3]))
# a backward step to -1e-17, whose % road is the road length, and back
@example((PAIR, [0.0, 1e-17], [0.0, 2e-14], 1e-3, 40, [5, 90]))
def test_advance_in_blocks_is_one_tick_at_a_time(motion):
    """Fleet.advance(dt, k) returns the positions of k one-tick advances,
    bit for bit, the sign bit included, and each one-tick advance is
    (position + speed * direction * dt) % road. A drawn block that
    straddles a decision is cut there, as the engine cuts its blocks, and
    both fleets decide from the same positions."""
    config, positions, speeds, dt, period, blocks = motion
    single, blocked = (Fleet(config, StreamBundle(config.seed, config.n_vehicles, 0, 0))
                       for _ in range(2))
    for fleet in (single, blocked):
        fleet.positions, fleet.speeds = np.array(positions, dtype=float), np.array(speeds)
    tick = 0
    for k in blocks:
        while k > 0:
            if tick > 0 and tick % period == 0:
                single.decide()
                blocked.decide()
            ticks = min(k, period - tick % period)
            rows = blocked.advance(dt, ticks)
            expected = []
            for _ in range(ticks):
                step = (single.positions + single.speeds * single.directions * dt) % config.road_length
                expected.append(single.advance(dt))
                assert expected[-1].shape == (1, len(single))
                assert expected[-1].tobytes() == step.tobytes()
            assert rows.tobytes() == np.concatenate(expected).tobytes()
            assert blocked.positions.tobytes() == single.positions.tobytes() == rows[-1].tobytes()
            k, tick = k - ticks, tick + ticks
