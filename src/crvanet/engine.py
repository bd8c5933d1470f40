"""The time-sliced simulation engine.

A run divides its horizon into nTimeSlices fixed steps and executes, in
every tick and in this order: vehicle movement, the tick's PU flips,
coordination when the epoch clock fires and the scheme uses one, then
sensing/occupation for every SU with a pending action. The PU flips come
from the run's PU timeline, which alone reads the PU streams, in bulk.
Timestamps are always tickIndex * timeStep, computed fresh so no float
error accumulates. All randomness flows through per-subsystem streams
derived from the scenario seed, making a run a pure function of (config, seed).
"""

from __future__ import annotations

import numpy as np

from .config import ScenarioConfig, num_time_slices
from .coordination import make_strategy
from .mobility import Fleet
from .report import MOVE, SimulationReport, record_event
from .scheduling import ChannelMap, pu_timeline, schedule_next, step_pu, step_su
from .sensing import ChannelSensor
from .streams import StreamBundle


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
        self.channel_map.su_next[:] = [schedule_next(config.su_gap_mean, rng)
                                       for rng in self.streams.su]

        dt = config.time_step
        self.decision_period = max(1, round(config.reaction_time / dt))

    def run(self, trace=None, trace_mobility: bool = False) -> SimulationReport:
        config = self.config
        channel_map = self.channel_map
        tower_of = self.sensor.tower_of.tolist()
        report = SimulationReport(trace=trace)
        dt = config.time_step
        eps = 1e-12
        # the coordination clock: epochs fire every coordinationInterval from 0
        has_epochs = self.strategy.needs_epoch and len(self.fleet) > 0
        next_epoch = 0.0
        timeline = pu_timeline(self.streams.pu, self.n_ticks, dt, config.pu_hold_mean,
                               config.pu_gap_mean)

        for tick, pu_flips in enumerate(timeline):
            now = tick * dt

            # 1. mobility: refresh Gipps decisions on the reaction-time
            #    cadence, then advance everyone at their held speed
            if len(self.fleet) > 0:
                if tick % self.decision_period == 0:
                    self.fleet.decide()
                self.fleet.advance(dt)
                if trace_mobility and trace is not None:
                    for i, (x, v) in enumerate(zip(self.fleet.positions.tolist(),
                                                   self.fleet.speeds.tolist())):
                        record_event(report, MOVE, tick, now, -1, i, f"{x:.3f},{v:.3f}")

            # 2. the tick's PU flips
            for c in pu_flips:
                step_pu(c, tower_of[c], now, tick, channel_map, self.streams,
                        config.su_gap_mean, report)

            # 3. coordination epoch, for schemes that use one
            if has_epochs and now >= next_epoch - eps:
                self.strategy.on_epoch(now, self.fleet, channel_map, self.streams)
                next_epoch += config.coordination_interval

            # 4. SU sensing/occupation for vehicles with pending actions
            due_vehicles = np.nonzero(now >= channel_map.su_next - eps)[0]
            for v in due_vehicles.tolist():
                step_su(v, self.fleet.positions, now, tick, self.strategy, channel_map,
                        report, self.streams, config.su_hold_mean, config.su_gap_mean,
                        config.back_off_time)

        return report


def run_simulation(config: ScenarioConfig, trace=None,
                   trace_mobility: bool = False) -> SimulationReport:
    """Execute one full run; identical (config, seed) gives an identical report."""
    return SimulationEngine(config).run(trace=trace, trace_mobility=trace_mobility)
