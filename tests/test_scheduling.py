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
from crvanet.scheduling import (
    ChannelMap,
    PuTransmitter,
    SuRadioState,
    apply_backoff,
    schedule_next,
    step_pu,
    step_su,
)
from crvanet.sensing import ChannelState, SenseBlock


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
    def _setup(self):
        cmap = ChannelMap(4)
        pu = PuTransmitter(tower_id=0, channel_id=2, occupying=False, occupation_time=1.0)
        return pu, cmap, np.random.default_rng(5)

    @staticmethod
    def _step(pu, now, tick, cmap, hold, gap, rng, **kwargs):
        """step_pu into a fresh traced report; returns the recorded events."""
        report = SimulationReport(trace=[])
        step_pu(pu, now, tick, cmap, hold, gap, rng, report, **kwargs)
        return report.trace

    def test_idle_before_schedule_is_noop(self):
        pu, cmap, rng = self._setup()
        events = self._step(pu, 0.5, 500, cmap, 0.1, 0.1, rng)
        assert events == []
        assert not pu.occupying and not cmap.pu_active[2]

    def test_occupation_fires_and_draws_vacation(self):
        pu, cmap, rng = self._setup()
        events = self._step(pu, 1.0, 1000, cmap, 0.1, 0.1, rng)
        assert [e.event for e in events] == [PU_OCCUPIED]
        assert pu.occupying and cmap.pu_active[2]
        assert pu.vacation_time > 1.0

    def test_vacation_symmetric_branch(self):
        pu, cmap, rng = self._setup()
        self._step(pu, 1.0, 1000, cmap, 0.1, 0.1, rng)
        events = self._step(pu, pu.vacation_time, 2000, cmap, 0.1, 0.1, rng)
        assert [e.event for e in events] == [PU_VACATED]
        assert not pu.occupying and not cmap.pu_active[2]
        assert pu.occupation_time > pu.vacation_time

    def test_preemption_order_and_teardown(self):
        pu, cmap, rng = self._setup()
        su_states = [SuRadioState() for _ in range(3)]
        su_states[1].occupying = True
        su_states[1].channel_id = 2
        cmap.set_holder(2, vehicle_id=1, position=100.0)
        report = SimulationReport(trace=[])
        preempted = step_pu(pu, 1.0, 1000, cmap, 0.1, 0.1, rng, report,
                            su_states=su_states, su_gap_mean=0.05)
        events = report.trace
        assert [e.event for e in events] == [SU_PREEMPTED, PU_OCCUPIED]
        assert events[0].channel_id == events[1].channel_id == 2
        assert preempted == events[0].actor_id == 1
        assert report.preemptions == 1
        assert cmap.holder_of(2) is None
        assert not su_states[1].occupying
        assert su_states[1].occupation_time > 1.0

    def test_alternation_over_many_transitions(self):
        pu, cmap, rng = self._setup()
        pu.occupation_time = 0.0
        kinds = []
        t = 0.0
        for _ in range(200):
            t += 0.001
            kinds += [e.event for e in self._step(pu, t, 0, cmap, 0.002, 0.002, rng)]
        assert len(kinds) > 10
        for a, b in zip(kinds, kinds[1:]):
            assert a != b  # strict occupy/vacate alternation


class _PinnedStrategy:
    """Test double: always proposes the given channel with a vacant decision."""

    def __init__(self, channel_id, decision=ChannelState.VACANT, truth=ChannelState.VACANT):
        self.channel_id = channel_id
        self.decision = decision
        self.truth = truth

    def attempt(self, vehicle_id, positions, now, channel_map, streams):
        if self.channel_id is None:
            return None, None
        block = SenseBlock(
            channel_ids=np.array([self.channel_id]),
            occupied=np.array([self.decision is ChannelState.OCCUPIED]),
            truth=np.array([self.truth is ChannelState.OCCUPIED]),
            statistic=np.zeros(1), threshold=1.0,
        )
        chosen = self.channel_id if self.decision is ChannelState.VACANT else None
        return block, chosen


class TestStepSu:
    def _setup(self, channel=3):
        cmap = ChannelMap(8)
        su = SuRadioState(back_off_time=0.010, occupation_time=0.0)
        report = SimulationReport(trace=[])
        positions = np.array([100.0, 150.0])

        class _Streams:
            def su_stream(self, vid, _rngs={}):
                return _rngs.setdefault(vid, np.random.default_rng(100 + vid))

        return su, cmap, report, positions, _Streams()

    def test_empty_candidates_back_off_exactly(self):
        su, cmap, report, positions, streams = self._setup()
        step_su(0, su, positions, 0.5, 500, _PinnedStrategy(None), cmap, report,
                streams, 0.04, 0.08)
        assert su.occupation_time == pytest.approx(0.510, abs=1e-12)
        assert [e.event for e in report.trace] == [SU_BACKOFF]
        assert report.allocations == 0

    def test_successful_occupation(self):
        su, cmap, report, positions, streams = self._setup()
        step_su(0, su, positions, 0.5, 500, _PinnedStrategy(3), cmap, report,
                streams, 0.04, 0.08)
        assert su.occupying and su.channel_id == 3
        assert cmap.holder_of(3) == 0
        assert su.vacation_time > 0.5
        assert report.allocations == 1
        assert [e.event for e in report.trace] == [SENSE, SU_OCCUPIED]

    def test_occupied_decision_backs_off(self):
        su, cmap, report, positions, streams = self._setup()
        step_su(0, su, positions, 0.5, 500,
                _PinnedStrategy(3, decision=ChannelState.OCCUPIED,
                                truth=ChannelState.OCCUPIED),
                cmap, report, streams, 0.04, 0.08)
        assert not su.occupying
        assert report.allocations == 0
        assert report.correct_detections == 1

    def test_same_tick_contention_first_id_wins(self):
        su0, cmap, report, positions, streams = self._setup()
        su1 = SuRadioState(back_off_time=0.010, occupation_time=0.0)
        strategy = _PinnedStrategy(3)
        step_su(0, su0, positions, 0.5, 500, strategy, cmap, report, streams, 0.04, 0.08)
        step_su(1, su1, positions, 0.5, 500, strategy, cmap, report, streams, 0.04, 0.08)
        assert cmap.holder_of(3) == 0
        assert su0.occupying and not su1.occupying
        assert su1.occupation_time == pytest.approx(0.510, abs=1e-12)
        assert report.allocations == 1
        backoffs = [e for e in report.trace if e.event == SU_BACKOFF]
        assert len(backoffs) == 1 and backoffs[0].actor_id == 1

    def test_pu_active_channel_is_harmful_not_allocation(self):
        su, cmap, report, positions, streams = self._setup()
        cmap.pu_active[3] = True
        step_su(0, su, positions, 0.5, 500,
                _PinnedStrategy(3, truth=ChannelState.OCCUPIED), cmap, report,
                streams, 0.04, 0.08)
        assert not su.occupying
        assert cmap.holder_of(3) is None
        assert report.allocations == 0
        assert report.harmful_occupations == 1
        assert report.misdetections == 1
        events = [e.event for e in report.trace]
        assert events == [SENSE, SU_INTERFERENCE, SU_BACKOFF]

    def test_vacate_path(self):
        su, cmap, report, positions, streams = self._setup()
        step_su(0, su, positions, 0.5, 500, _PinnedStrategy(3), cmap, report,
                streams, 0.04, 0.08)
        t_end = su.vacation_time
        step_su(0, su, positions, t_end, 600, _PinnedStrategy(3), cmap, report,
                streams, 0.04, 0.08)
        assert not su.occupying and su.channel_id is None
        assert cmap.holder_of(3) is None
        assert su.occupation_time > t_end


class TestChannelMap:
    def test_single_holder_enforced(self):
        cmap = ChannelMap(2)
        cmap.set_holder(0, 1, 10.0)
        with pytest.raises(ValueError):
            cmap.set_holder(0, 2, 20.0)

    def test_clear_holder(self):
        cmap = ChannelMap(2)
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
    engine.su_states[0].occupation_time = 5 * dt
    holder = engine.su_states[1]
    holder.occupying, holder.channel_id, holder.vacation_time = True, 3, 7 * dt
    engine.channel_map.set_holder(3, 1, float(engine.fleet.positions[1]))
    engine.pu_units[3].occupation_time = 1.0  # no preemption within the run
    engine._refresh_pu_next(3)
    for v in (0, 1):
        engine._refresh_su_next(v)
    report = engine.run(collect_trace=True)
    su_events = [e for e in report.trace if e.event not in (PU_OCCUPIED, PU_VACATED, MOVE)]
    assert min(e.tick for e in su_events if e.actor_id == 0) == 5
    vacated = [e for e in su_events if e.actor_id == 1]
    assert [(e.tick, e.event) for e in vacated[:1]] == [(7, SU_VACATED)]

    su = SuRadioState(back_off_time=0.01, occupation_time=1.0)
    apply_backoff(su, 1.0)
    assert su.occupation_time == pytest.approx(1.010, abs=1e-12)
