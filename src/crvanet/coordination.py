"""The three sensing/allocation schemes behind one strategy interface.

standalone   A vehicle trusts nobody: each attempt scans the whole band
             itself and transmits on a channel it sensed vacant.

cooperative  Vehicles sense a rotating handful of channels every epoch
             and share those decisions with neighbours in comm range. A
             requester ranks channels by an OR-fusion of the latest
             vacant votes, then verifies a short list of top-ranked
             candidates itself before transmitting — shared votes carry
             no freshness guarantee, so they are hints, not permissions.

proposed     Each cluster, a maximal chain of same-direction vehicles
             within comm range, elects a main, forward and backward
             coordinator every epoch. All three sense every channel; a
             channel is reported vacant only if all three agree
             (AND-of-vacancy). A requester takes a fresh vacant-reported
             channel and still re-senses it locally over two independent
             fading blocks before occupying, with the per-block
             false-alarm target compensated for the max-hold over both.

The engine keeps the coordination clock and calls ``on_epoch`` every
coordination interval from time 0, for the schemes with ``needs_epoch``.
An epoch is one batched sensing call (every vehicle's votes, or every
cluster's coordinators), and its results are held until the next: the
votes as an array, each cluster's report as a list of channels. Between
epochs a requester acts on reports up to one interval old, which is the
entire cost of coordination in this model. Requesters pick uniformly
among their qualifying candidates (drawn from their own stream) so
concurrent attempts spread over the spectrum instead of serializing on
the lowest channel id.

Only the sensing a vehicle performs while trying to acquire a channel is
returned from ``attempt``, as one SenseBlock, and counted in the run
report; epoch sensing is infrastructure and only updates shared state.
Switching scheme changes nothing but candidate selection and epoch work:
mobility, propagation and PU schedules draw from their own streams either
way.
"""

from __future__ import annotations

import numpy as np

from .config import ScenarioConfig, Scheme
from .scheduling import DUE_TOLERANCE, ChannelMap
from .sensing import ChannelSensor, SenseBlock

# cooperative scheme tuning
VOTE_CHANNELS_PER_EPOCH = 5   # channels each vehicle senses and shares per epoch
VERIFY_SHORTLIST = 3          # top-group candidates a requester verifies itself

# proposed scheme: re-check spans this many independent fading blocks
RECHECK_BLOCKS = 2

# votes store a sensed `occupied` decision as its integer value and no vote as
# 2, so a channel's minimum over voters ranks it: 0 any vacant, 1 occupied only
VOTE_VACANT = 0
VOTE_OCCUPIED = 1
VOTE_UNKNOWN = 2


def elect_coordinators(positions: np.ndarray, directions: np.ndarray,
                       comm_range: float) -> tuple[np.ndarray, np.ndarray]:
    """Split the fleet into clusters, maximal chains of same-direction
    vehicles whose consecutive members sit within comm range, and elect
    each cluster's coordinators. Returns each vehicle's cluster, clusters
    ordered by direction (+1 first) then leading position, and one (main,
    forward, backward) row per cluster: forward is furthest along the
    travel direction, backward the rearmost, main the nearest the cluster
    centroid; all ties go to the lowest id, and roles may coincide.

    One stable sort by direction and position makes each cluster a run of
    the sorted fleet. Its first member and the first at its last position
    are the lowest ids at its two ends: its backward and forward, or its
    forward and backward when it heads -1. Only the main reads the members
    in id order: np.mean's own sum, pairwise in id order (a reduceat sum
    can differ in the last bit), and argmin's first hit breaks the ties."""
    order = np.lexsort((positions, -directions))   # stable: ties keep id order
    at, heading = positions[order], directions[order]
    first = np.ones(order.size, dtype=bool)         # each cluster's first in that order
    np.greater(at[1:] - at[:-1], comm_range, out=first[1:])
    first[1:] |= heading[1:] != heading[:-1]
    cluster_of = np.empty(order.size, dtype=int)
    cluster_of[order] = first.cumsum() - 1
    roles, bounds = [], first.nonzero()[0].tolist() + [order.size]
    sorted_ids, sorted_at = order.tolist(), at.tolist()
    for start, end in zip(bounds, bounds[1:]):
        ends = sorted_ids[start], sorted_ids[sorted_at.index(sorted_at[end - 1], start, end)]
        members = order[start:end].copy()
        members.sort()
        here = positions[members]
        main = members.item(np.abs(here - np.add.reduce(here) / here.size).argmin())
        backward, forward = ends if heading.item(start) > 0 else ends[::-1]
        roles.append((main, forward, backward))
    return cluster_of, np.array(roles)


def pick(channels, rng: np.random.Generator) -> int | None:
    """A channel drawn uniformly from the sequence `channels`, or None if
    it is empty. A lone channel is taken without a call: integers(1) draws
    nothing (tests/test_streams.py pins this)."""
    n = len(channels)
    return int(channels[rng.integers(n) if n > 1 else 0]) if n else None


class Strategy:
    """Scheme interface: epoch work plus per-attempt candidate sensing."""

    needs_epoch = False

    def __init__(self, config: ScenarioConfig, sensor: ChannelSensor):
        self.config = config
        self.sensor = sensor

    def on_epoch(self, now: float, fleet, channel_map: ChannelMap, streams) -> None:
        """Refresh shared state; the engine calls it once per coordination
        interval, and only if needs_epoch."""

    def attempt(self, vehicle_id: int, positions: np.ndarray, now: float,
                channel_map: ChannelMap, streams) -> tuple[SenseBlock | None, int | None]:
        """Sense candidates for one acquisition attempt.

        positions is the fleet position array (the requester's own position
        is positions[vehicle_id]). Returns (the counted sensing, or None
        when nothing was sensed; channel sensed vacant to occupy, or None
        when the attempt must back off)."""
        raise NotImplementedError


class StandaloneStrategy(Strategy):
    """Full-band self-scan: no shared state, no epochs."""

    def attempt(self, vehicle_id, positions, now, channel_map, streams):
        block = self.sensor.sense_block(vehicle_id, positions.item(vehicle_id), self.sensor.band,
                                        channel_map, streams)
        # the band's ids are its indices
        return block, pick((~block.occupied).nonzero()[0], streams.su[vehicle_id])


class CooperativeStrategy(Strategy):
    """Shared independent sensing: epoch votes, OR-fused ranking, local
    verification of a short list."""

    needs_epoch = True

    def __init__(self, config: ScenarioConfig, sensor: ChannelSensor):
        super().__init__(config, sensor)
        self.votes = np.full((config.n_vehicles, config.n_channels), VOTE_UNKNOWN, dtype=np.int8)
        self._epoch_index = 0
        # epoch e senses (e * count + rotation) % nChannels, one row per vehicle
        self._count = min(VOTE_CHANNELS_PER_EPOCH, config.n_channels)
        self._vehicles = np.arange(config.n_vehicles)
        self._rotation = self._vehicles[:, None] * 7 + np.arange(self._count)

    def on_epoch(self, now, fleet, channel_map, streams):
        """Every vehicle senses its rotating handful of channels, all in
        one sensing call, and records the decisions as its votes."""
        channels = (self._epoch_index * self._count + self._rotation) % self.config.n_channels
        block = self.sensor.sense_block(self._vehicles, fleet.positions, channels, channel_map,
                                        streams)
        self.votes[self._vehicles[:, None], channels] = block.occupied
        self._epoch_index += 1

    def shortlist(self, vehicle_id: int, positions: np.ndarray,
                  rng: np.random.Generator) -> list[int]:
        """Up to VERIFY_SHORTLIST candidates drawn from the best-ranked vote
        group: vacant-voted channels first, then unvoted, then
        occupied-voted. Draws spread concurrent requesters apart."""
        # the requester and every vehicle within comm range, either direction
        near = np.abs(positions - positions.item(vehicle_id)) <= self.config.comm_range
        rank = np.minimum.reduce(self.votes.take(near.nonzero()[0], axis=0), axis=0)
        picked: list[int] = []
        for level in (VOTE_VACANT, VOTE_UNKNOWN, VOTE_OCCUPIED):
            pool = (rank == level).nonzero()[0]
            want = VERIFY_SHORTLIST - len(picked)
            if pool.size > want:
                # drawing indices takes the draws rng.choice(pool, ...) takes
                pool = pool[rng.choice(pool.size, want, replace=False)]
                pool.sort()
            picked.extend(pool.tolist())
            if len(picked) == VERIFY_SHORTLIST:   # this level filled the list
                break
        return picked

    def attempt(self, vehicle_id, positions, now, channel_map, streams):
        rng = streams.su[vehicle_id]
        shortlist = self.shortlist(vehicle_id, positions, rng)
        block = self.sensor.sense_block(vehicle_id, positions.item(vehicle_id), shortlist,
                                        channel_map, streams)
        # verification doubles as the requester's own freshest votes
        votes, vacant = self.votes[vehicle_id], []
        for channel, occupied in zip(shortlist, block.occupied):
            votes[channel] = occupied
            if not occupied:
                vacant.append(channel)
        return block, pick(vacant, rng)


class ProposedStrategy(Strategy):
    """Three-coordinator clusters with conservative fusion and a hardened
    local re-check before any occupation."""

    needs_epoch = True

    def __init__(self, config: ScenarioConfig, sensor: ChannelSensor):
        super().__init__(config, sensor)
        # each vehicle's cluster (-1 before the first epoch), each cluster's
        # report (its vacant channels, ascending) and the time it was sensed
        self.cluster_of = np.full(config.n_vehicles, -1, dtype=int)
        self.vacant: list[list[int]] = []
        self.report_time = 0.0

    def on_epoch(self, now, fleet, channel_map, streams):
        """Form clusters and elect their coordinators, then sense every
        channel at the distinct coordinators of all clusters in one call.
        A cluster's report is vacant where all of its coordinators decide
        vacant (AND-of-vacancy)."""
        self.cluster_of, roles = elect_coordinators(fleet.positions, fleet.directions,
                                                     self.config.comm_range)
        coordinators, starts = [], []   # starts: each cluster's first row in the block
        for role in roles.tolist():
            starts.append(len(coordinators))
            coordinators.extend(dict.fromkeys(role))
        block = self.sensor.sense_block(coordinators, fleet.positions.take(coordinators),
                                        self.sensor.band, channel_map, streams)
        vacant = ~np.logical_or.reduceat(block.occupied, starts, axis=0)
        self.vacant = [row.nonzero()[0].tolist() for row in vacant]
        self.report_time = now

    def candidates(self, vehicle_id: int, now: float) -> list[int]:
        """Fresh vacant-reported channels for this vehicle's cluster: its
        stored report, ascending id, which callers must not modify; empty
        when the vehicle has no cluster or the report is more than one
        coordination interval old."""
        cluster = self.cluster_of.item(vehicle_id)
        if cluster < 0 or now - self.report_time > self.config.coordination_interval + DUE_TOLERANCE:
            return []
        return self.vacant[cluster]

    def attempt(self, vehicle_id, positions, now, channel_map, streams):
        channel = pick(self.candidates(vehicle_id, now), streams.su[vehicle_id])
        if channel is None:
            return None, None
        block = self.sensor.sense_block(vehicle_id, positions.item(vehicle_id), [channel],
                                        channel_map, streams, blocks=RECHECK_BLOCKS)
        return block, None if block.occupied[0] else channel


def make_strategy(config: ScenarioConfig, sensor: ChannelSensor) -> Strategy:
    if config.scheme == Scheme.STANDALONE:
        return StandaloneStrategy(config, sensor)
    if config.scheme == Scheme.COOPERATIVE:
        return CooperativeStrategy(config, sensor)
    return ProposedStrategy(config, sensor)
