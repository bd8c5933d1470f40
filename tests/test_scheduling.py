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
from crvanet.scheduling import ChannelMap, schedule_next, step_pu, step_su
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
    """step_pu flips a due machine; the channel is 2 on tower 0, the PU's
    next instant starts at 1.0."""

    def _setup(self):
        cmap = ChannelMap(4, 3)
        cmap.pu_next[2] = 1.0
        return cmap, StreamBundle(5)

    @staticmethod
    def _step(now, tick, cmap, streams, hold, gap):
        """step_pu into a fresh traced report; returns the recorded events."""
        report = SimulationReport(trace=[])
        step_pu(2, 0, now, tick, cmap, streams, hold, gap, 0.05, report)
        return report.trace

    def test_idle_before_schedule_is_noop(self):
        # the engine steps a PU only from its pending instant on
        config = replace(ScenarioConfig(), running_time=0.005, n_vehicles=0).validate()
        engine = SimulationEngine(config)
        engine.channel_map.pu_next[2] = 5 * config.time_step
        report = engine.run(collect_trace=True)
        events = [e for e in report.trace if e.channel_id == 2]
        assert events == []
        assert not engine.channel_map.pu_active[2]

    def test_occupation_fires_and_draws_vacation(self):
        cmap, streams = self._setup()
        events = self._step(1.0, 1000, cmap, streams, 0.1, 0.1)
        assert [e.event for e in events] == [PU_OCCUPIED]
        assert cmap.pu_active[2]
        assert cmap.pu_next[2] > 1.0

    def test_vacation_symmetric_branch(self):
        cmap, streams = self._setup()
        self._step(1.0, 1000, cmap, streams, 0.1, 0.1)
        vacation = cmap.pu_next[2]
        events = self._step(vacation, 2000, cmap, streams, 0.1, 0.1)
        assert [e.event for e in events] == [PU_VACATED]
        assert not cmap.pu_active[2]
        assert cmap.pu_next[2] > vacation

    def test_preemption_order_and_teardown(self):
        cmap, streams = self._setup()
        cmap.set_holder(2, vehicle_id=1, position=100.0)
        report = SimulationReport(trace=[])
        preempted = step_pu(2, 0, 1.0, 1000, cmap, streams, 0.1, 0.1, 0.05, report)
        events = report.trace
        assert [e.event for e in events] == [SU_PREEMPTED, PU_OCCUPIED]
        assert events[0].channel_id == events[1].channel_id == 2
        assert preempted == events[0].actor_id == 1
        assert report.preemptions == 1
        assert cmap.holder_of(2) is None
        assert cmap.su_channel[1] == -1
        assert cmap.su_next[1] > 1.0

    def test_alternation_over_many_transitions(self):
        cmap, streams = self._setup()
        cmap.pu_next[2] = 0.0
        kinds = []
        t = 0.0
        for _ in range(200):
            t += 0.001
            if t >= cmap.pu_next[2] - 1e-12:   # the engine's due rule
                kinds += [e.event for e in self._step(t, 0, cmap, streams, 0.002, 0.002)]
        assert len(kinds) > 10
        for a, b in zip(kinds, kinds[1:]):
            assert a != b  # strict occupy/vacate alternation


class _PinnedStrategy:
    """Test double: always proposes the given channel with a vacant decision."""

    def __init__(self, channel_id, occupied=False, truth=False):
        self.channel_id = channel_id
        self.occupied = occupied
        self.truth = truth

    def attempt(self, vehicle_id, positions, now, channel_map, streams):
        if self.channel_id is None:
            return None, None
        block = SenseBlock(
            channel_ids=np.array([self.channel_id]),
            occupied=np.array([self.occupied]),
            truth=np.array([self.truth]),
            statistic=np.zeros(1), threshold=1.0,
        )
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
            def su_stream(self, vid, _rngs={}):
                return _rngs.setdefault(vid, np.random.default_rng(100 + vid))

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
        assert cmap.holder_of(3) == 0
        assert cmap.su_next[0] > 0.5
        assert report.allocations == 1
        assert [e.event for e in report.trace] == [SENSE, SU_OCCUPIED]

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
        assert cmap.holder_of(3) == 0
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
        assert cmap.holder_of(3) is None
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
        assert cmap.holder_of(3) is None
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
        assert cmap.holder_of(1) is None


def test_su_due_and_backoff():
    """The engine steps an SU on the first tick at its pending instant and
    never before: an idle SU at its next attempt, a transmitting SU at its
    scheduled vacation."""
    config = replace(ScenarioConfig(), running_time=0.012, n_vehicles=2, seed=3).validate()
    engine = SimulationEngine(config)
    dt = config.time_step
    cmap = engine.channel_map
    cmap.su_next[0] = 5 * dt
    cmap.set_holder(3, 1, float(engine.fleet.positions[1]))
    cmap.su_next[1] = 7 * dt
    cmap.pu_next[3] = 1.0  # no preemption within the run
    report = engine.run(collect_trace=True)
    su_events = [e for e in report.trace if e.event not in (PU_OCCUPIED, PU_VACATED, MOVE)]
    assert min(e.tick for e in su_events if e.actor_id == 0) == 5
    vacated = [e for e in su_events if e.actor_id == 1]
    assert [(e.tick, e.event) for e in vacated[:1]] == [(7, SU_VACATED)]

    # a failed attempt at 1.0 retries exactly one back-off later
    cmap = ChannelMap(8, 1)
    step_su(0, np.array([100.0]), 1.0, 1000, _PinnedStrategy(None), cmap,
            SimulationReport(), StreamBundle(0), 0.04, 0.08, 0.01)
    assert cmap.su_next[0] == pytest.approx(1.010, abs=1e-12)
