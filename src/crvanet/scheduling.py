"""PU and SU transmission lifecycles and the shared channel state.

Each licensed channel runs an occupy/vacate state machine with
exponential hold and gap times. Its flips never depend on the SUs, so
``pu_timeline`` draws them in bulk, a block of ticks ahead of the tick
loop, and ``step_pu`` applies a tick's flips. A PU occupying a channel
held by an SU tears the SU down first — the abstract control-channel
notification — before it starts transmitting, so occupy events strictly
alternate with vacate events and at most one SU ever holds a channel.

SUs keep a pending instant each, drawn as they go, with an extra failure
path: a failed acquisition attempt pushes the next attempt out by exactly
the back-off time. ``ChannelMap.schedule`` alone sets a pending instant
and pushes it onto the agenda, the heap the engine pops due SUs from.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from .report import (
    PU_OCCUPIED,
    PU_VACATED,
    SU_BACKOFF,
    SU_INTERFERENCE,
    SU_OCCUPIED,
    SU_PREEMPTED,
    SU_VACATED,
    PuRows,
    SimulationReport,
    record_event,
    record_senses,
)
from .sensing import classify_block

DUE_TOLERANCE = 1e-12  # s: an event is due at the first tick k with k * dt >= instant - this


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
    state and the SU holder (-1 for none) with its position when it took
    the channel (+inf for none), per vehicle the channel it holds (-1 when
    idle) and the pending instant of its next action; the agenda holds
    (instant, vehicle) for every instant scheduled and not yet popped, as
    a heap."""

    def __init__(self, n_channels: int, n_vehicles: int):
        self.n_channels = n_channels
        self.pu_active = np.zeros(n_channels, dtype=bool)
        self.su_holder = np.full(n_channels, -1, dtype=int)
        self.su_holder_pos = np.full(n_channels, math.inf)
        self.su_channel = np.full(n_vehicles, -1, dtype=int)
        self.su_next = np.zeros(n_vehicles, dtype=float)
        self.agenda: list[tuple[float, int]] = []

    def schedule(self, vehicle_id: int, instant: float) -> None:
        """Set the vehicle's pending instant; the only writer of su_next."""
        self.su_next[vehicle_id] = instant
        heapq.heappush(self.agenda, (instant, vehicle_id))

    def set_holder(self, channel_id: int, vehicle_id: int, position: float) -> None:
        if self.su_holder.item(channel_id) >= 0:
            raise ValueError(f"channel {channel_id} already has an SU holder")
        if self.su_channel.item(vehicle_id) >= 0:
            raise ValueError(f"vehicle {vehicle_id} already holds a channel")
        self.su_holder[channel_id] = vehicle_id
        self.su_holder_pos[channel_id] = position
        self.su_channel[vehicle_id] = channel_id

    def clear_holder(self, channel_id: int) -> None:
        holder = self.su_holder.item(channel_id)
        if holder >= 0:
            self.su_channel[holder] = -1
        self.su_holder[channel_id] = -1
        self.su_holder_pos[channel_id] = math.inf


WINDOW = 512  # ticks per block of the PU timeline, whose memory is O(channels x WINDOW)


def pu_timeline(rngs, n_ticks: int, dt: float, hold_mean: float, gap_mean: float):
    """Yield, for each of n_ticks ticks, the ids of the channels whose PU
    flips there, ascending. Channel c's flip j (an occupation for even j)
    is due one draw from rngs[c] after flip j-1, or after 0.0: standard
    exponential times the gap mean for even j, the hold mean for odd j, a
    draw <= 0 skipped. It fires at the first tick k after flip j-1 (from
    tick 0) with k * dt >= due - DUE_TOLERANCE. Per block of ticks, the
    steps from each draw alone are summed, every flip is checked against
    that rule at once, and a channel that fails is redone flip by flip."""
    n, span = len(rngs), min(WINDOW, n_ticks)
    width = int(min(span, 4 * span * dt / (gap_mean + hold_mean) + 16))  # draws per block
    # per channel: a block of draws, how many the last block used, time and parity of the last flip
    state = rngs, np.empty((n, width)), np.full(n, width), np.zeros(n), np.zeros(n, dtype=bool)
    for start in range(0, n_ticks, WINDOW):
        yield from _pu_block(*state, start, min(start + WINDOW, n_ticks), dt, (gap_mean, hold_mean))


@np.errstate(over="ignore")  # a draw past float range is due never
def _pu_block(rngs, x, used, base, odd, start: int, end: int, dt: float, means: tuple):
    """The flips of ticks [start, end), one list per tick; updates the state."""
    eps, (n, width) = DUE_TOLERANCE, x.shape
    rows, columns, alternating = np.arange(n), np.arange(width), np.resize(means, width + 1)
    x[columns < width - used[:, None]] = x[columns >= used[:, None]]  # the draws left unused
    for rng, row, u in zip(rngs, x, used.tolist()):
        rng.standard_exponential(out=row[width - u:])
    s = x * np.where(odd[:, None], alternating[1:], alternating[:-1])
    steps = np.ceil((s - eps) / dt)  # from each draw alone; the first from the last flip
    steps[:, 0] = np.ceil((base + s[:, 0] - eps) / dt) - start + 1
    steps = np.clip(steps, 1, end - start + 1).astype(np.int64)
    t = steps.cumsum(axis=1) + start - 1
    prev, k = t - steps, np.minimum(t, end)  # the flip before each; end for past the block
    target = prev * dt + s - eps
    target[:, 0] = base + s[:, 0] - eps
    exact = ((k == end) | (k * dt >= target)) & ((k == prev + 1) | ((k - 1) * dt < target))
    good = ((exact & (s > 0)) | (prev >= end - 1)).all(axis=1) & (t[:, -1] >= end - 1)
    fired = (t < end) & good[:, None]
    used[:] = fired.sum(axis=1)
    base[:] = np.where(used > 0, t[rows, used - 1] * dt, base)
    odd ^= used % 2 == 1
    occ = np.zeros((end - start + 1, n), dtype=bool)  # (tick, channel); a last row for the rest
    occ[np.where(fired, t - start, end - start), rows[:, None]] = True
    for c in np.flatnonzero(~good).tolist():
        ticks = _flip_ticks(c, rngs[c], x, used, base, odd, start, end, dt, means)
        occ[np.array(ticks, dtype=np.int64) - start, c] = True
    flips = np.flatnonzero(occ[:-1])  # tick-major, so ascending channels within a tick
    channels = (flips % n).tolist()
    bounds = np.searchsorted(flips, np.arange(end - start + 1) * n).tolist()
    return (channels[a:b] for a, b in zip(bounds, bounds[1:]))


def _flip_ticks(c: int, rng, x, used, base, odd, start: int, end: int, dt: float,
                means: tuple) -> list:
    """Channel c's flip ticks in [start, end), found flip by flip from its
    block of draws x[c]; updates its state."""
    draws, ticks, lo = x[c].tolist(), [], start
    now, parity = float(base[c]), bool(odd[c])
    while lo < end:
        raw = draws.pop(0) if draws else rng.standard_exponential()
        draw = raw * means[parity]
        if draw <= 0.0:
            continue
        target = now + draw - DUE_TOLERANCE
        if target > (end - 1) * dt:
            draws.insert(0, raw)
            break
        lo = max(lo, math.ceil(target / dt) - 2)
        while lo * dt < target:
            lo += 1
        ticks.append(lo)
        now, parity, lo = lo * dt, not parity, lo + 1
    used[c], base[c], odd[c] = x.shape[1] - len(draws), now, parity
    x[c, used[c]:] = draws
    return ticks


def step_pu(channel_ids: list[int], per_tower: int, now: float, tick: int, channel_map: ChannelMap,
            streams, su_gap_mean: float, report: SimulationReport) -> None:
    """Apply one tick's PU flips from the run's timeline by ascending channel,
    recording their events in order; a PU event's actor is channel // per_tower.

    Occupation preempts any SU holding the channel: the SU is cleared and
    rescheduled (its next attempt drawn from its own gap process) before
    the pu-occupied event fires. Untraced, each event is one record_event
    call; traced, the sink gets the tick's events as one PuRows.
    """
    pu_active, su_holder, rows = channel_map.pu_active, channel_map.su_holder, []
    emit = record_event if report.trace is None else (   # traced: rows, flat, 3 items a row
        lambda _report, kind, _tick, _now, channel, actor: rows.extend((kind, channel, actor)))
    for c in channel_ids:
        occupied = not pu_active[c]
        pu_active[c] = occupied
        holder = su_holder.item(c) if occupied else -1
        if holder >= 0:
            channel_map.clear_holder(c)
            channel_map.schedule(holder, now + schedule_next(su_gap_mean, streams.su[holder]))
            emit(report, SU_PREEMPTED, tick, now, c, holder)
        emit(report, PU_OCCUPIED if occupied else PU_VACATED, tick, now, c, c // per_tower)
    if rows:
        report.preemptions += rows.count(SU_PREEMPTED)
        report.trace.extend(PuRows(tick, now, rows))


def step_su(vehicle_id: int, positions: np.ndarray, now: float, tick: int,
            coord_view, channel_map: ChannelMap, report: SimulationReport, streams,
            su_hold_mean: float, su_gap_mean: float, back_off_time: float) -> None:
    """Advance one due SU by one tick, recording its events.

    Transmitting and due: tear down, schedule the next attempt. Idle and
    due: obtain and sense candidates through the active scheme, coord_view,
    recording the attempt's sensing as one block (record_senses; an
    array block is the band, recorded with its indices as channel ids),
    then occupy on success or back off on failure. Landing
    on a channel whose SU holder is set is a failure (collision avoided at
    the map level); landing on a PU-active channel is harmful interference
    — the transmission collides immediately, counted but never an
    allocation.
    """
    rng = streams.su[vehicle_id]
    channel = channel_map.su_channel.item(vehicle_id)
    if channel >= 0:
        channel_map.clear_holder(channel)
        channel_map.schedule(vehicle_id, now + schedule_next(su_gap_mean, rng))
        record_event(report, SU_VACATED, tick, now, channel, vehicle_id)
        return

    block, chosen = coord_view.attempt(vehicle_id, positions, now, channel_map, streams)
    if block is not None:
        ids, occupied, truth = block.channel_ids, block.occupied, block.truth
        if isinstance(ids, list):   # listed channels: classified pair by pair, in Python
            classes = list(map(classify_block, occupied, truth))
        else:   # an array block is the band, whose ids are its indices
            classes = classify_block(occupied, truth).tolist()
            ids = range(len(classes))
        record_senses(report, tick, now, ids, vehicle_id, classes)
    if chosen is None:
        channel_map.schedule(vehicle_id, now + back_off_time)
        record_event(report, SU_BACKOFF, tick, now, -1, vehicle_id)
        return
    if channel_map.su_holder.item(chosen) >= 0:
        channel_map.schedule(vehicle_id, now + back_off_time)
        record_event(report, SU_BACKOFF, tick, now, chosen, vehicle_id, "holder-conflict")
        return
    if channel_map.pu_active.item(chosen):
        record_event(report, SU_INTERFERENCE, tick, now, chosen, vehicle_id)
        channel_map.schedule(vehicle_id, now + back_off_time)
        record_event(report, SU_BACKOFF, tick, now, chosen, vehicle_id, "pu-collision")
        return
    channel_map.set_holder(chosen, vehicle_id, positions.item(vehicle_id))
    channel_map.schedule(vehicle_id, now + schedule_next(su_hold_mean, rng))
    record_event(report, SU_OCCUPIED, tick, now, chosen, vehicle_id)
