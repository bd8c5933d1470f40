"""PU and SU transmission lifecycles and the shared channel state.

Each licensed channel runs an occupy/vacate state machine: when its clock
passes the next scheduled event the PU flips state and draws the next
event time from the scheduling distribution (exponential hold and gap
times). A PU occupying a channel held by an SU tears the SU down first —
the abstract control-channel notification — before it starts
transmitting, so occupy events strictly alternate with vacate events and
at most one SU ever holds a channel.

SUs mirror the same pattern with an extra failure path: a failed
acquisition attempt pushes the next attempt out by exactly the back-off
time.
"""

from __future__ import annotations

import numpy as np

from .report import (
    PU_OCCUPIED,
    PU_VACATED,
    SENSE,
    SU_BACKOFF,
    SU_INTERFERENCE,
    SU_OCCUPIED,
    SU_PREEMPTED,
    SU_VACATED,
    SimulationReport,
    record_event,
)
from .sensing import CLASSES, classify_block

# trace detail of a sense event, by classify_block index
_SENSE_DETAIL = tuple(c.value for c in CLASSES)


def schedule_next(mean: float, rng: np.random.Generator) -> float:
    """Exponential holding/gap draw, strictly positive."""
    if mean <= 0:
        raise ValueError("mean must be positive")
    draw = rng.exponential(mean)
    while draw <= 0.0:  # zero has probability zero; guard anyway
        draw = rng.exponential(mean)
    return draw


class ChannelMap:
    """The shared run state of both state machines: per channel the PU
    state and the SU holder (with its position when it took the channel),
    per vehicle the channel it holds (-1 when idle), and per machine its
    only clock, the pending instant of its next action."""

    def __init__(self, n_channels: int, n_vehicles: int):
        self.n_channels = n_channels
        self.pu_active = np.zeros(n_channels, dtype=bool)
        self.su_holder = np.full(n_channels, -1, dtype=int)
        self.su_holder_pos = np.zeros(n_channels, dtype=float)
        self.su_channel = np.full(n_vehicles, -1, dtype=int)
        self.pu_next = np.zeros(n_channels, dtype=float)
        self.su_next = np.zeros(n_vehicles, dtype=float)

    def holder_of(self, channel_id: int) -> int | None:
        holder = int(self.su_holder[channel_id])
        return holder if holder >= 0 else None

    def set_holder(self, channel_id: int, vehicle_id: int, position: float) -> None:
        if self.su_holder[channel_id] >= 0:
            raise ValueError(f"channel {channel_id} already has an SU holder")
        if self.su_channel[vehicle_id] >= 0:
            raise ValueError(f"vehicle {vehicle_id} already holds a channel")
        self.su_holder[channel_id] = vehicle_id
        self.su_holder_pos[channel_id] = position
        self.su_channel[vehicle_id] = channel_id

    def clear_holder(self, channel_id: int) -> None:
        holder = self.su_holder[channel_id]
        if holder >= 0:
            self.su_channel[holder] = -1
        self.su_holder[channel_id] = -1
        self.su_holder_pos[channel_id] = 0.0


def step_pu(channel_id: int, tower_id: int, now: float, tick: int,
            channel_map: ChannelMap, streams, pu_hold_mean: float, pu_gap_mean: float,
            su_gap_mean: float, report: SimulationReport) -> int | None:
    """Flip one due PU machine, recording its events in order; returns the
    id of the SU it preempted, or None.

    Occupation preempts any SU holding the channel: the SU is cleared and
    rescheduled (its next attempt drawn from its own gap process) before
    the pu-occupied event fires.
    """
    rng = streams.pu_stream(channel_id)
    holder = None
    if channel_map.pu_active[channel_id]:
        channel_map.pu_active[channel_id] = False
        channel_map.pu_next[channel_id] = now + schedule_next(pu_gap_mean, rng)
        record_event(report, PU_VACATED, tick, now, channel_id, tower_id)
    else:
        holder = channel_map.holder_of(channel_id)
        if holder is not None:
            channel_map.clear_holder(channel_id)
            channel_map.su_next[holder] = now + schedule_next(
                su_gap_mean, streams.su_stream(holder))
            record_event(report, SU_PREEMPTED, tick, now, channel_id, holder)
        channel_map.pu_active[channel_id] = True
        channel_map.pu_next[channel_id] = now + schedule_next(pu_hold_mean, rng)
        record_event(report, PU_OCCUPIED, tick, now, channel_id, tower_id)
    return holder


def step_su(vehicle_id: int, positions: np.ndarray, now: float, tick: int,
            coord_view, channel_map: ChannelMap, report: SimulationReport, streams,
            su_hold_mean: float, su_gap_mean: float, back_off_time: float) -> None:
    """Advance one due SU by one tick, recording its events.

    Transmitting and due: tear down, schedule the next attempt. Idle and
    due: obtain and sense candidates through the active scheme, then
    occupy on success or back off on failure. Landing on a channel whose
    SU holder is set is a failure (collision avoided at the map level);
    landing on a PU-active channel is harmful interference — the
    transmission collides immediately, counted but never an allocation.
    """
    rng = streams.su_stream(vehicle_id)
    channel = int(channel_map.su_channel[vehicle_id])
    if channel >= 0:
        channel_map.clear_holder(channel)
        channel_map.su_next[vehicle_id] = now + schedule_next(su_gap_mean, rng)
        record_event(report, SU_VACATED, tick, now, channel, vehicle_id)
        return

    block, chosen = coord_view.attempt(vehicle_id, positions, now, channel_map, streams)
    if block is not None:
        classes = classify_block(block.occupied, block.truth).tolist()
        for channel, cls in zip(block.channel_ids.tolist(), classes):
            record_event(report, SENSE, tick, now, channel, vehicle_id, _SENSE_DETAIL[cls])
    if chosen is None:
        channel_map.su_next[vehicle_id] = now + back_off_time
        record_event(report, SU_BACKOFF, tick, now, -1, vehicle_id)
        return
    if channel_map.holder_of(chosen) is not None:
        channel_map.su_next[vehicle_id] = now + back_off_time
        record_event(report, SU_BACKOFF, tick, now, chosen, vehicle_id, "holder-conflict")
        return
    if channel_map.pu_active[chosen]:
        record_event(report, SU_INTERFERENCE, tick, now, chosen, vehicle_id)
        channel_map.su_next[vehicle_id] = now + back_off_time
        record_event(report, SU_BACKOFF, tick, now, chosen, vehicle_id, "pu-collision")
        return
    channel_map.set_holder(chosen, vehicle_id, float(positions[vehicle_id]))
    channel_map.su_next[vehicle_id] = now + schedule_next(su_hold_mean, rng)
    record_event(report, SU_OCCUPIED, tick, now, chosen, vehicle_id)
