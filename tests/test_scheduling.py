import itertools
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import kstest

from crvanet.config import ScenarioConfig
from crvanet.engine import SimulationEngine
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
)
from crvanet.scheduling import ChannelMap, pu_timeline, schedule_next, step_pu, step_su
from crvanet.sensing import SenseBlock
from crvanet.streams import StreamBundle


class TestScheduleNext:
    def test_sample_mean(self):
        rng = np.random.default_rng(1)
        draws = [schedule_next(0.05, rng) for _ in range(100_000)]
        assert np.mean(draws) == pytest.approx(0.05, abs=0.002)

    def test_all_positive(self):
        rng = np.random.default_rng(2)
        assert all(schedule_next(0.01, rng) > 0 for _ in range(10_000))

    def test_memorylessness(self):
        # (draw - t | draw > t) should match the original distribution
        rng = np.random.default_rng(3)
        mean = 0.05
        draws = np.array([schedule_next(mean, rng) for _ in range(200_000)])
        tail = draws[draws > mean] - mean
        result = kstest(tail, "expon", args=(0, mean))
        assert result.pvalue > 0.01

    def test_rejects_nonpositive_mean(self):
        with pytest.raises(ValueError):
            schedule_next(0.0, np.random.default_rng(0))


class TestStepPu:
    """step_pu applies one tick of the run's PU timeline; here the tick's
    only flip is channel 2's, on tower 0 of 4 channels, and its flips come
    from pu_timeline at a 1 ms step. tests/test_properties.py checks ticks
    of many flips against the flip-by-flip rule."""

    def _setup(self):
        return ChannelMap(4, 3), StreamBundle(5, 3, 4, 1)

    @staticmethod
    def _step(tick, cmap, streams):
        """step_pu at the tick into a fresh traced report; returns the recorded events."""
        report = SimulationReport(trace=[])
        step_pu([2], 4, tick * 0.001, tick, cmap, streams, 0.05, report)
        return report.trace

    @staticmethod
    def _flips(streams, n_ticks, hold, gap):
        """The ticks at which channel 2 flips."""
        timeline = pu_timeline(streams.pu, n_ticks, 0.001, hold, gap)
        return [tick for tick, channels in enumerate(timeline) if 2 in channels]

    def test_idle_before_schedule_is_noop(self, draw_stub):
        # the engine flips a PU only from its pending instant on: channel 2's
        # first gap is 5 ticks, and the run has 5
        config = replace(ScenarioConfig(), running_time=0.005, n_vehicles=0).validate()
        engine = SimulationEngine(config)
        engine.streams.pu[2] = draw_stub([5 * config.time_step / config.pu_gap_mean])
        report = engine.run(trace=[])
        events = [e for e in report.trace if e.channel_id == 2]
        assert events == []
        assert not engine.channel_map.pu_active[2]
        # one tick more, and the occupation fires at that tick
        longer = SimulationEngine(replace(config, running_time=0.006))
        longer.streams.pu[2] = draw_stub([5 * config.time_step / config.pu_gap_mean])
        events = [(e.tick, e.event) for e in longer.run(trace=[]).trace if e.channel_id == 2]
        assert events == [(5, PU_OCCUPIED)]

    def test_occupation_fires_and_draws_vacation(self):
        cmap, streams = self._setup()
        occupation, vacation = self._flips(streams, 3000, 0.1, 0.1)[:2]
        events = self._step(occupation, cmap, streams)
        assert [e.event for e in events] == [PU_OCCUPIED]
        assert cmap.pu_active[2]
        assert vacation > occupation

    def test_vacation_symmetric_branch(self):
        cmap, streams = self._setup()
        occupation, vacation, next_occupation = self._flips(streams, 3000, 0.1, 0.1)[:3]
        self._step(occupation, cmap, streams)
        events = self._step(vacation, cmap, streams)
        assert [e.event for e in events] == [PU_VACATED]
        assert not cmap.pu_active[2]
        assert next_occupation > vacation

    def test_preemption_order_and_teardown(self):
        cmap, streams = self._setup()
        cmap.set_holder(2, vehicle_id=1, position=100.0)
        report = SimulationReport(trace=[])
        step_pu([2], 4, 1.0, 1000, cmap, streams, 0.05, report)
        events = report.trace
        assert [e.event for e in events] == [SU_PREEMPTED, PU_OCCUPIED]
        assert events[0].channel_id == events[1].channel_id == 2
        assert events[0].actor_id == 1
        assert report.preemptions == 1
        assert cmap.su_holder[2] == -1
        assert cmap.su_channel[1] == -1
        assert cmap.su_next[1] > 1.0
        # rescheduled through the agenda, which the engine pops due SUs from
        assert cmap.agenda == [(cmap.su_next[1], 1)]

    def test_alternation_over_many_transitions(self):
        cmap, streams = self._setup()
        kinds = []
        for tick in self._flips(streams, 200, 0.002, 0.002):
            kinds += [e.event for e in self._step(tick, cmap, streams)]
        assert len(kinds) > 10
        for a, b in zip(kinds, kinds[1:]):
            assert a != b  # strict occupy/vacate alternation


class TestPuTimeline:
    """pu_timeline against fixed draws at a 1 ms step; tests/test_properties.py
    checks it against the scalar rule it replaces."""

    def test_zero_draw_is_skipped(self, draw_stub):
        # gap 0 (skipped) then 3 ms; hold 0, 0 (skipped) then 2 ms; gap 6 ms;
        # hold 2 ms, past the 12 ticks
        stub = draw_stub([0.0, 1.0, 0.0, 0.0, 1.0, 2.0, 1.0])
        timeline = list(pu_timeline([stub], 12, 0.001, 0.002, 0.003))
        assert [tick for tick, channels in enumerate(timeline) if channels == [0]] == [3, 5, 11]
        assert sum(map(len, timeline)) == 3

    def test_a_channel_flips_at_most_once_a_tick(self, draw_stub):
        # draws of 1e-12 make gaps of a few fs, due at once, yet each flip
        # waits for the next tick; channel 0's zero draw sends its block down
        # the flip-by-flip path, and channel 1 has the same draws without it
        tiny = [1e-12] * 3
        stubs = [draw_stub([0.0] + tiny), draw_stub(tiny)]
        timeline = list(pu_timeline(stubs, 30, 0.001, 0.002, 0.003))
        assert all(channels in ([], [0, 1]) for channels in timeline)
        # then 1.0 draws: holds of 2 ticks, gaps of 3
        assert [tick for tick, channels in enumerate(timeline) if channels] == [
            0, 1, 2, 4, 7, 9, 12, 14, 17, 19, 22, 24, 27, 29]

    def test_flips_come_in_ascending_channel_order(self):
        timeline = list(pu_timeline(StreamBundle(2, 0, 10, 0).pu, 100, 0.001, 0.0001, 0.0001))
        assert timeline[0] == []  # a draw below 1e-12 would be needed at tick 0
        assert all(channels == list(range(10)) for channels in timeline[1:])

    def test_means_past_float_range_never_flip(self):
        # half the draws times 1e308 overflow to inf: due never, and no warning
        timeline = pu_timeline(StreamBundle(3, 0, 20, 0).pu, 100, 0.001, 1e308, 1e308)
        assert all(channels == [] for channels in timeline)

    def test_memory_is_bounded_by_the_window(self):
        # 10^9 ticks at 1 us means: every channel flips on every tick after
        # the first; the blocks come WINDOW ticks at a time
        streams = StreamBundle(5, 0, 100, 0)
        tracemalloc.start()
        try:
            t0 = time.perf_counter()
            timeline = pu_timeline(streams.pu, 10**9, 0.001, 1e-6, 1e-6)
            flips = sum(map(len, itertools.islice(timeline, 10_000)))
            elapsed = time.perf_counter() - t0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert flips == 100 * 9_999
        assert elapsed < 1.0
        assert peak < 5e6


class _PinnedStrategy:
    """Test double: always proposes the given channel with a vacant decision,
    sensed as one observer's list of that one channel."""

    needs_epoch = False

    def __init__(self, channel_id, occupied=False, truth=False):
        self.channel_id = channel_id
        self.occupied = occupied
        self.truth = truth

    def attempt(self, vehicle_id, positions, now, channel_map, streams):
        if self.channel_id is None:
            return None, None
        block = SenseBlock(channel_ids=[self.channel_id], occupied=[self.occupied],
                           truth=[self.truth], statistic=[0.0])
        chosen = None if self.occupied else self.channel_id
        return block, chosen


class TestStepSu:
    """step_su on vehicle 0 (and 1), due at 0.5; hold/gap means 40/80 ms,
    back-off 10 ms."""

    def _setup(self, channel=3):
        cmap = ChannelMap(8, 2)
        report = SimulationReport(trace=[])
        positions = np.array([100.0, 150.0])

        class _Streams:
            su = [np.random.default_rng(100 + vid) for vid in range(2)]

        return cmap, report, positions, _Streams()

    @staticmethod
    def _step(vid, now, tick, strategy, cmap, report, positions, streams):
        step_su(vid, positions, now, tick, strategy, cmap, report, streams, 0.04, 0.08, 0.010)

    def test_empty_candidates_back_off_exactly(self):
        cmap, report, positions, streams = self._setup()
        self._step(0, 0.5, 500, _PinnedStrategy(None), cmap, report, positions, streams)
        assert cmap.su_next[0] == pytest.approx(0.510, abs=1e-12)
        assert [e.event for e in report.trace] == [SU_BACKOFF]
        assert report.allocations == 0

    def test_successful_occupation(self):
        cmap, report, positions, streams = self._setup()
        self._step(0, 0.5, 500, _PinnedStrategy(3), cmap, report, positions, streams)
        assert cmap.su_channel[0] == 3
        assert cmap.su_holder[3] == 0
        assert cmap.su_next[0] > 0.5
        assert report.allocations == 1
        assert [(e.event, e.channel_id) for e in report.trace] == [(SENSE, 3), (SU_OCCUPIED, 3)]

    def test_occupied_decision_backs_off(self):
        cmap, report, positions, streams = self._setup()
        self._step(0, 0.5, 500,
                   _PinnedStrategy(3, occupied=True, truth=True),
                   cmap, report, positions, streams)
        assert cmap.su_channel[0] == -1
        assert report.allocations == 0
        assert report.correct_detections == 1

    def test_same_tick_contention_first_id_wins(self):
        cmap, report, positions, streams = self._setup()
        strategy = _PinnedStrategy(3)
        self._step(0, 0.5, 500, strategy, cmap, report, positions, streams)
        self._step(1, 0.5, 500, strategy, cmap, report, positions, streams)
        assert cmap.su_holder[3] == 0
        assert cmap.su_channel[0] == 3 and cmap.su_channel[1] == -1
        assert cmap.su_next[1] == pytest.approx(0.510, abs=1e-12)
        assert report.allocations == 1
        backoffs = [e for e in report.trace if e.event == SU_BACKOFF]
        assert len(backoffs) == 1 and backoffs[0].actor_id == 1

    def test_pu_active_channel_is_harmful_not_allocation(self):
        cmap, report, positions, streams = self._setup()
        cmap.pu_active[3] = True
        self._step(0, 0.5, 500, _PinnedStrategy(3, truth=True),
                   cmap, report, positions, streams)
        assert cmap.su_channel[0] == -1
        assert cmap.su_holder[3] == -1
        assert report.allocations == 0
        assert report.harmful_occupations == 1
        assert report.misdetections == 1
        events = [e.event for e in report.trace]
        assert events == [SENSE, SU_INTERFERENCE, SU_BACKOFF]

    def test_vacate_path(self):
        cmap, report, positions, streams = self._setup()
        self._step(0, 0.5, 500, _PinnedStrategy(3), cmap, report, positions, streams)
        t_end = cmap.su_next[0]
        self._step(0, t_end, 600, _PinnedStrategy(3), cmap, report, positions, streams)
        assert cmap.su_channel[0] == -1
        assert cmap.su_holder[3] == -1
        assert cmap.su_next[0] > t_end


class TestChannelMap:
    def test_single_holder_enforced(self):
        cmap = ChannelMap(2, 3)
        cmap.set_holder(0, 1, 10.0)
        with pytest.raises(ValueError):
            cmap.set_holder(0, 2, 20.0)

    def test_clear_holder(self):
        cmap = ChannelMap(2, 5)
        cmap.set_holder(1, 4, 10.0)
        cmap.clear_holder(1)
        assert cmap.su_holder[1] == -1


def test_su_due_and_backoff(draw_stub):
    """The engine steps an SU on the first tick at its pending instant and
    never before: an idle SU at its next attempt, a transmitting SU at its
    scheduled vacation."""
    config = replace(ScenarioConfig(), running_time=0.012, n_vehicles=2, seed=3).validate()
    engine = SimulationEngine(config)
    dt = config.time_step
    cmap = engine.channel_map
    cmap.schedule(0, 5 * dt)
    cmap.set_holder(3, 1, float(engine.fleet.positions[1]))
    cmap.schedule(1, 7 * dt)
    # channel 3's first occupation is 1 s in: no preemption within the run
    engine.streams.pu[3] = draw_stub([1.0 / config.pu_gap_mean])
    report = engine.run(trace=[])
    su_events = [e for e in report.trace if e.event not in (PU_OCCUPIED, PU_VACATED, MOVE)]
    assert min(e.tick for e in su_events if e.actor_id == 0) == 5
    vacated = [e for e in su_events if e.actor_id == 1]
    assert [(e.tick, e.event) for e in vacated[:1]] == [(7, SU_VACATED)]

    # a failed attempt at 1.0 retries exactly one back-off later
    cmap = ChannelMap(8, 1)
    step_su(0, np.array([100.0]), 1.0, 1000, _PinnedStrategy(None), cmap,
            SimulationReport(), StreamBundle(0, 1, 8, 1), 0.04, 0.08, 0.01)
    assert cmap.su_next[0] == pytest.approx(1.010, abs=1e-12)


SU_EVENTS = {SENSE, SU_BACKOFF, SU_OCCUPIED, SU_VACATED, SU_INTERFERENCE}


def _first_su_tick(report, vehicle_id):
    return min(e.tick for e in report.trace if e.event in SU_EVENTS and e.actor_id == vehicle_id)


def _scan_tick(instant, dt):
    """The tick a full scan of every SU's pending instant picks."""
    return next(t for t in itertools.count() if t * dt >= instant - 1e-12)


@pytest.mark.parametrize("k", [3, 7, 10])
@pytest.mark.parametrize("offset", [-1e-12, 1e-12, 2e-12])
@pytest.mark.parametrize("ulps", [-1, 0, 1])
def test_due_bound_steps_on_the_scan_tick(k, offset, ulps):
    """The engine skips the SU phase until the earliest pending instant is
    due; an instant at k * dt + offset, or one ulp to either side of it, is
    stepped on the tick the scan of every SU picks, while the other SU
    waits past the run."""
    config = replace(ScenarioConfig(), running_time=0.015, n_vehicles=2, seed=3).validate()
    engine = SimulationEngine(config)
    dt = config.time_step
    instant = k * dt + offset
    instant = np.nextafter(instant, np.inf * ulps) if ulps else instant
    engine.channel_map.schedule(0, instant)
    engine.channel_map.schedule(1, 1.0)
    report = engine.run(trace=[])
    assert _first_su_tick(report, 0) == _scan_tick(instant, dt)
    assert all(e.actor_id != 1 for e in report.trace if e.event in SU_EVENTS)


def test_due_bound_refreshes_after_a_preemption(draw_stub):
    """A preempted SU rescheduled before every other SU's pending instant
    is stepped on time: vehicle 0 holds channel 3 until 1 s, vehicle 1 is
    due at 0.5 s, and channel 3's PU preempts vehicle 0 at tick 3, which
    then draws a 2-tick gap."""
    config = replace(ScenarioConfig(), running_time=0.012, n_vehicles=2, seed=3).validate()
    engine = SimulationEngine(config)
    engine.strategy = _PinnedStrategy(None)  # attempts back off, drawing nothing
    dt = config.time_step
    cmap = engine.channel_map
    cmap.set_holder(3, 0, float(engine.fleet.positions[0]))
    cmap.schedule(0, 1.0)
    cmap.schedule(1, 0.5)
    engine.streams.pu[3] = draw_stub([3 * dt / config.pu_gap_mean])
    engine.streams.su[0] = draw_stub([2 * dt / config.su_gap_mean])
    report = engine.run(trace=[])
    preempted = [e.tick for e in report.trace if e.event == SU_PREEMPTED]
    assert preempted == [3]
    assert _first_su_tick(report, 0) == _scan_tick(3 * dt + 2 * dt, dt) == 5


def test_agenda_steps_a_vehicle_once_a_tick(draw_stub):
    """A vehicle rescheduled to an instant it held before has two agenda
    entries for it, both current, and is still stepped once: vehicle 0
    holds channel 3 until 10 ticks in, is preempted at tick 3, draws a
    2-tick gap, backs off at tick 5 by 5 ticks, and backs off once more
    at tick 10."""
    config = replace(ScenarioConfig(), running_time=0.012, n_vehicles=2, seed=3,
                     back_off_time=0.005).validate()
    engine = SimulationEngine(config)
    engine.strategy = _PinnedStrategy(None)
    dt = config.time_step
    cmap = engine.channel_map
    cmap.set_holder(3, 0, float(engine.fleet.positions[0]))
    cmap.schedule(0, 10 * dt)
    cmap.schedule(1, 1.0)
    engine.streams.pu[3] = draw_stub([3 * dt / config.pu_gap_mean])
    engine.streams.su[0] = draw_stub([2 * dt / config.su_gap_mean])
    report = engine.run(trace=[])
    assert 5 * dt + config.back_off_time == 10 * dt
    assert [e.tick for e in report.trace if e.event == SU_PREEMPTED] == [3]
    assert [e.tick for e in report.trace if e.event == SU_BACKOFF] == [5, 10]
