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

from dataclasses import dataclass, field

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


@dataclass
class PuTransmitter:
    """One licensed channel's occupy/vacate state machine."""

    tower_id: int
    channel_id: int
    occupying: bool = False
    occupation_time: float = 0.0   # next occupy instant when idle
    vacation_time: float = 0.0     # next vacate instant when occupying


@dataclass
class SuRadioState:
    """A vehicle's opportunistic-transmission state."""

    occupying: bool = False
    channel_id: int | None = None
    occupation_time: float = 0.0   # next attempt instant when idle
    vacation_time: float = 0.0     # scheduled end of the current hold
    back_off_time: float = 0.010


class ChannelMap:
    """Per-channel ground truth shared by both state machines."""

    def __init__(self, n_channels: int):
        self.n_channels = n_channels
        self.pu_active = np.zeros(n_channels, dtype=bool)
        self.su_holder = np.full(n_channels, -1, dtype=int)
        self.su_holder_pos = np.zeros(n_channels, dtype=float)

    def holder_of(self, channel_id: int) -> int | None:
        holder = int(self.su_holder[channel_id])
        return holder if holder >= 0 else None

    def set_holder(self, channel_id: int, vehicle_id: int, position: float) -> None:
        if self.su_holder[channel_id] >= 0:
            raise ValueError(f"channel {channel_id} already has an SU holder")
        self.su_holder[channel_id] = vehicle_id
        self.su_holder_pos[channel_id] = position

    def clear_holder(self, channel_id: int) -> None:
        self.su_holder[channel_id] = -1
        self.su_holder_pos[channel_id] = 0.0


def step_pu(pu: PuTransmitter, now: float, tick: int, channel_map: ChannelMap,
            pu_hold_mean: float, pu_gap_mean: float, rng: np.random.Generator,
            report: SimulationReport,
            su_states: list[SuRadioState] | None = None,
            su_gap_mean: float = 0.05,
            su_rngs=None) -> int | None:
    """Advance one PU machine by one tick, recording its events in order;
    returns the id of the SU it preempted, or None.

    Occupation preempts any SU holding the channel: the SU is cleared and
    rescheduled (its next attempt drawn from its own gap process) before
    the pu-occupied event fires.
    """
    holder = None
    if pu.occupying:
        if now >= pu.vacation_time - 1e-12:
            pu.occupying = False
            channel_map.pu_active[pu.channel_id] = False
            pu.occupation_time = now + schedule_next(pu_gap_mean, rng)
            record_event(report, PU_VACATED, tick, now, pu.channel_id, pu.tower_id)
    else:
        if now >= pu.occupation_time - 1e-12:
            holder = channel_map.holder_of(pu.channel_id)
            if holder is not None:
                channel_map.clear_holder(pu.channel_id)
                if su_states is not None:
                    su = su_states[holder]
                    su.occupying = False
                    su.channel_id = None
                    gap_rng = su_rngs(holder) if su_rngs is not None else rng
                    su.occupation_time = now + schedule_next(su_gap_mean, gap_rng)
                record_event(report, SU_PREEMPTED, tick, now, pu.channel_id, holder)
            pu.occupying = True
            channel_map.pu_active[pu.channel_id] = True
            pu.vacation_time = now + schedule_next(pu_hold_mean, rng)
            record_event(report, PU_OCCUPIED, tick, now, pu.channel_id, pu.tower_id)
    return holder


def apply_backoff(su: SuRadioState, now: float) -> None:
    """Failed attempt: next attempt exactly one back-off later."""
    su.occupation_time = now + su.back_off_time


def step_su(vehicle_id: int, su: SuRadioState, positions: np.ndarray,
            now: float, tick: int, coord_view, channel_map: ChannelMap,
            report: SimulationReport, streams,
            su_hold_mean: float, su_gap_mean: float) -> None:
    """Advance one due SU by one tick, recording its events.

    Transmitting and due: tear down, schedule the next attempt. Idle and
    due: obtain and sense candidates through the active scheme, then
    occupy on success or back off on failure. Landing on a channel whose
    SU holder is set is a failure (collision avoided at the map level);
    landing on a PU-active channel is harmful interference — the
    transmission collides immediately, counted but never an allocation.
    """
    rng = streams.su_stream(vehicle_id)
    if su.occupying:
        channel = su.channel_id
        channel_map.clear_holder(channel)
        su.occupying = False
        su.channel_id = None
        su.occupation_time = now + schedule_next(su_gap_mean, rng)
        record_event(report, SU_VACATED, tick, now, channel, vehicle_id)
        return

    block, chosen = coord_view.attempt(vehicle_id, positions, now, channel_map, streams)
    if block is not None:
        classes = classify_block(block.occupied, block.truth).tolist()
        for channel, cls in zip(block.channel_ids.tolist(), classes):
            record_event(report, SENSE, tick, now, channel, vehicle_id, _SENSE_DETAIL[cls])
    if chosen is None:
        apply_backoff(su, now)
        record_event(report, SU_BACKOFF, tick, now, -1, vehicle_id)
        return
    if channel_map.holder_of(chosen) is not None:
        apply_backoff(su, now)
        record_event(report, SU_BACKOFF, tick, now, chosen, vehicle_id, "holder-conflict")
        return
    if channel_map.pu_active[chosen]:
        record_event(report, SU_INTERFERENCE, tick, now, chosen, vehicle_id)
        apply_backoff(su, now)
        record_event(report, SU_BACKOFF, tick, now, chosen, vehicle_id, "pu-collision")
        return
    channel_map.set_holder(chosen, vehicle_id, float(positions[vehicle_id]))
    su.occupying = True
    su.channel_id = chosen
    su.vacation_time = now + schedule_next(su_hold_mean, rng)
    record_event(report, SU_OCCUPIED, tick, now, chosen, vehicle_id)
