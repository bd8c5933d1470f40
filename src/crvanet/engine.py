"""The time-sliced simulation engine.

A run divides its horizon into nTimeSlices fixed steps and executes, in
every tick and in this order: vehicle movement, PU state changes,
coordination when the epoch clock fires and the scheme uses one, then
sensing/occupation for every SU with a pending action. Timestamps are
always tickIndex * timeStep, computed fresh so no float error
accumulates. All randomness flows through per-subsystem streams derived
from the scenario seed, making a run a pure function of (config, seed).
"""

from __future__ import annotations

import numpy as np

from .config import ScenarioConfig, num_time_slices
from .coordination import make_strategy
from .mobility import Fleet
from .report import MOVE, SimulationReport, record_event
from .scheduling import (
    ChannelMap,
    PuTransmitter,
    SuRadioState,
    schedule_next,
    step_pu,
    step_su,
)
from .sensing import ChannelSensor
from .streams import StreamBundle


class SimulationEngine:
    """Owns all per-run state; one instance per (config, seed) run."""

    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.streams = StreamBundle(config.seed)
        self.n_ticks = num_time_slices(config.running_time, config.time_step)
        self.fleet = Fleet(config, self.streams)
        self.sensor = ChannelSensor(config)
        self.channel_map = ChannelMap(config.n_channels)
        self.strategy = make_strategy(config, self.sensor)

        self.pu_units = []
        for c in range(config.n_channels):
            rng = self.streams.pu_stream(c)
            pu = PuTransmitter(
                tower_id=c // config.channels_per_tower,
                channel_id=c,
                occupying=False,
                occupation_time=schedule_next(config.pu_gap_mean, rng),
            )
            self.pu_units.append(pu)

        self.su_states = []
        for v in range(config.n_vehicles):
            rng = self.streams.su_stream(v)
            su = SuRadioState(
                back_off_time=config.back_off_time,
                occupation_time=schedule_next(config.su_gap_mean, rng),
            )
            self.su_states.append(su)
            self.fleet.vehicles[v].radio = su

        # vectorized due checks: the next pending instant per channel / vehicle
        self.pu_next = np.array([pu.occupation_time for pu in self.pu_units], dtype=float)
        self.su_next = np.array([su.occupation_time for su in self.su_states], dtype=float)

        dt = config.time_step
        self.decision_period = max(1, round(config.reaction_time / dt))

    def _refresh_pu_next(self, channel_id: int) -> None:
        pu = self.pu_units[channel_id]
        self.pu_next[channel_id] = pu.vacation_time if pu.occupying else pu.occupation_time

    def _refresh_su_next(self, vehicle_id: int) -> None:
        su = self.su_states[vehicle_id]
        self.su_next[vehicle_id] = su.vacation_time if su.occupying else su.occupation_time

    def run(self, collect_trace: bool = False, trace_mobility: bool = False) -> SimulationReport:
        config = self.config
        report = SimulationReport(trace=[] if collect_trace else None)
        dt = config.time_step
        eps = 1e-12

        for tick in range(self.n_ticks):
            now = tick * dt

            # 1. mobility: refresh Gipps decisions on the reaction-time
            #    cadence, then advance everyone at their held speed
            if len(self.fleet) > 0:
                if tick % self.decision_period == 0:
                    self.fleet.decide()
                self.fleet.advance(dt)
                if trace_mobility and report.trace is not None:
                    for i in range(len(self.fleet)):
                        record_event(
                            report, MOVE, tick, now, -1, i,
                            f"{self.fleet.positions[i]:.3f},{self.fleet.speeds[i]:.3f}",
                        )

            # 2. PU state changes
            due_channels = np.nonzero(now >= self.pu_next - eps)[0]
            for c in due_channels:
                preempted = step_pu(
                    self.pu_units[c], now, tick, self.channel_map,
                    config.pu_hold_mean, config.pu_gap_mean,
                    self.streams.pu_stream(int(c)), report,
                    su_states=self.su_states,
                    su_gap_mean=config.su_gap_mean,
                    su_rngs=self.streams.su_stream,
                )
                if preempted is not None:
                    self._refresh_su_next(preempted)
                self._refresh_pu_next(int(c))

            # 3. coordination epoch, for schemes that use one
            if self.strategy.needs_epoch and len(self.fleet) > 0 and self.strategy.state.due(now):
                self.strategy.on_epoch(now, self.fleet, self.channel_map, self.streams)
                self.strategy.state.advance_epoch()

            # 4. SU sensing/occupation for vehicles with pending actions
            due_vehicles = np.nonzero(now >= self.su_next - eps)[0]
            for v in due_vehicles.tolist():
                step_su(
                    v, self.su_states[v], self.fleet.positions, now, tick,
                    self.strategy, self.channel_map, report, self.streams,
                    config.su_hold_mean, config.su_gap_mean,
                )
                self._refresh_su_next(v)

        return report


def run_simulation(config: ScenarioConfig, collect_trace: bool = False,
                   trace_mobility: bool = False) -> SimulationReport:
    """Execute one full run; identical (config, seed) gives an identical report."""
    return SimulationEngine(config).run(collect_trace=collect_trace,
                                        trace_mobility=trace_mobility)
