"""The time-sliced simulation engine.

A run divides its horizon into nTimeSlices fixed steps and executes, in
every tick and in this order: vehicle movement, the tick's PU flips,
coordination when the epoch clock fires and the scheme uses one, then
sensing/occupation for every SU whose pending action is due. Speeds
change only at decisions, so positions come in blocks of ticks computed
at once; the PU flips come from the run's PU timeline, which alone reads
the PU streams, in bulk. Due SUs come off the agenda, a heap of (instant,
vehicle) that ChannelMap.schedule alone fills: a tick pops the entries
due, drops those rescheduled since, and steps the rest by ascending id.
Tick k is at k * timeStep and epoch k at k * coordinationInterval, computed
fresh so no float error accumulates. All randomness flows through streams
derived from the scenario seed, making a run a pure function of (config, seed).
"""

from __future__ import annotations

import heapq

from .config import ScenarioConfig, num_time_slices
from .coordination import make_strategy
from .mobility import Fleet
from .report import MoveRows, SimulationReport, record_event  # noqa: F401  perfbench's lookup site
from .scheduling import DUE_TOLERANCE, ChannelMap, pu_timeline, schedule_next, step_pu, step_su
from .sensing import ChannelSensor
from .streams import StreamBundle

BLOCK = 128  # most ticks of fleet motion computed at once; memory O(vehicles x BLOCK)


class SimulationEngine:
    """Owns all per-run state; one instance per (config, seed) run."""

    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.streams = StreamBundle(config.seed, config.n_vehicles, config.n_channels,
                                    config.n_pu_towers)
        self.n_ticks = num_time_slices(config.running_time, config.time_step)
        self.fleet = Fleet(config, self.streams)
        self.sensor = ChannelSensor(config)
        self.strategy = make_strategy(config, self.sensor)

        # every SU's first attempt, each drawn from its own stream
        self.channel_map = ChannelMap(config.n_channels, config.n_vehicles)
        for v, rng in enumerate(self.streams.su):
            self.channel_map.schedule(v, schedule_next(config.su_gap_mean, rng))

        self.decision_period = max(1, round(config.reaction_time / config.time_step))

    def run(self, trace=None, trace_mobility: bool = False) -> SimulationReport:
        config, channel_map, fleet = self.config, self.channel_map, self.fleet
        per_tower, report = self.sensor.per_tower, SimulationReport(trace=trace)
        dt, eps, period = config.time_step, DUE_TOLERANCE, self.decision_period
        # the coordination clock: epoch k is due at k * coordinationInterval
        has_epochs = self.strategy.needs_epoch and len(fleet) > 0
        epochs, next_epoch = 0, 0.0
        timeline = pu_timeline(self.streams.pu, self.n_ticks, dt, config.pu_hold_mean,
                               config.pu_gap_mean)
        block, row = (), 0   # the current block of fleet positions
        su_next, agenda, pop = channel_map.su_next, channel_map.agenda, heapq.heappop

        for tick, pu_flips in enumerate(timeline):
            now = tick * dt

            # 1. mobility: a Gipps decision on the reaction-time cadence; one
            #    advance moves the fleet up to the next one, BLOCK ticks at most
            if row == len(block):
                if tick % period == 0:
                    fleet.decide()
                block, row = fleet.advance(dt, min(BLOCK, period - tick % period,
                                                   self.n_ticks - tick)), 0
            fleet.positions, row = block[row], row + 1
            if trace_mobility and trace is not None:
                trace.extend(MoveRows(tick, now, fleet.positions, fleet.speeds))

            # 2. the tick's PU flips; a preempted SU is rescheduled onto the agenda
            if pu_flips:
                step_pu(pu_flips, per_tower, now, tick, channel_map, self.streams,
                        config.su_gap_mean, report)

            # 3. coordination epoch, for schemes that use one
            if has_epochs and now >= next_epoch - eps:
                self.strategy.on_epoch(now, fleet, channel_map, self.streams)
                epochs += 1
                next_epoch = epochs * config.coordination_interval

            # 4. SU sensing/occupation for the vehicles due, stale entries
            #    dropped; as x - eps rounds monotonically, due entries come first
            if agenda and now >= agenda[0][0] - eps:
                due = []
                while agenda and now >= agenda[0][0] - eps:
                    instant, v = pop(agenda)
                    if su_next.item(v) == instant and v not in due:
                        due.append(v)
                for v in sorted(due):
                    step_su(v, fleet.positions, now, tick, self.strategy, channel_map,
                            report, self.streams, config.su_hold_mean, config.su_gap_mean,
                            config.back_off_time)

        return report


def run_simulation(config: ScenarioConfig, trace=None,
                   trace_mobility: bool = False) -> SimulationReport:
    """Execute one full run; identical (config, seed) gives an identical report."""
    return SimulationEngine(config).run(trace=trace, trace_mobility=trace_mobility)
