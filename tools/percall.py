"""Time each scheme's per-call costs, and the sensing calls beside them, in process.

usage: PYTHONPATH=src python3 tools/percall.py

Builds the default scenario of each scheme (seed 1) and runs it for 0.2 s,
so that the fleet, the channel map and the scheme's shared state (the
coordinators' reports, the cooperative votes) hold a mid-run state. The
sensing calls and proposed's calls are timed on proposed's state;
cooperative's attempt, shortlist and epoch and standalone's attempt on
their own scheme's state. Each of 9 rounds times every row once, 3,000
calls in turn, so that a noisy stretch of the host falls on all rows
alike rather than on one row's repeats; each figure is the row's best
round, printed in µs per call. Calls that draw advance the run's
generators, and each epoch call advances the cooperative vote rotation
and renews proposed's reports (the requester's cluster keeps reporting
vacant channels), which changes no call's cost. Each figure includes one
Python lambda call (about 0.03 µs).
Compare figures only within one session on one host.
"""

from __future__ import annotations

import math
import timeit
from dataclasses import replace

import numpy as np

from crvanet.config import ScenarioConfig, Scheme
from crvanet.coordination import RECHECK_BLOCKS, elect_coordinators
from crvanet.engine import SimulationEngine

REPEATS, NUMBER = 9, 3000


def mid_run(scheme: Scheme) -> SimulationEngine:
    """The default scenario of `scheme` (seed 1), run for 0.2 s."""
    engine = SimulationEngine(replace(ScenarioConfig(), running_time=0.2, scheme=scheme,
                                      seed=1).validate())
    engine.run()
    return engine


def calls():
    """(name, zero-argument callable) for every timed call, on mid-run engine states."""
    engine, cooperative, standalone = map(mid_run, (Scheme.PROPOSED, Scheme.COOPERATIVE,
                                                    Scheme.STANDALONE))
    config = engine.config
    sensor, cmap, streams, fleet = engine.sensor, engine.channel_map, engine.streams, engine.fleet
    strategy, positions = engine.strategy, fleet.positions
    now = strategy.report_time
    # a requester whose cluster reports vacant channels, so its attempt re-checks one
    v = next(v for v in range(len(fleet)) if strategy.candidates(v, now))
    pos, channel = float(positions[v]), strategy.candidates(v, now)[0]
    # cooperative's shortlist shapes: 3 channels over both towers, and within one
    shortlist, one_tower = [7, 42, 61], [7, 12, 42]
    vehicles = np.arange(len(fleet))
    grid = (vehicles[:, None] * 7 + np.arange(5)) % config.n_channels   # cooperative's epoch
    return [
        ("median_pu_snr", lambda: sensor.median_pu_snr(pos)),
        ("listed 1 channel x 2 blocks", lambda: sensor.sense_block(
            v, pos, [channel], cmap, streams, blocks=RECHECK_BLOCKS)),
        ("listed 3 x 1 block, 2 towers", lambda: sensor.sense_block(
            v, pos, shortlist, cmap, streams)),
        ("listed 3 x 1 block, 1 tower", lambda: sensor.sense_block(
            v, pos, one_tower, cmap, streams)),
        ("band, 1 observer x 100", lambda: sensor.sense_block(
            v, pos, sensor.band, cmap, streams)),
        ("grid, 50 observers x 5", lambda: sensor.sense_block(
            vehicles, positions, grid, cmap, streams)),
        ("elect_coordinators", lambda: elect_coordinators(
            positions, fleet.directions, config.comm_range)),
        ("ProposedStrategy.attempt", lambda: strategy.attempt(v, positions, now, cmap, streams)),
        ("ProposedStrategy.on_epoch", lambda: strategy.on_epoch(now, fleet, cmap, streams)),
        ("CooperativeStrategy.attempt", lambda: cooperative.strategy.attempt(
            v, cooperative.fleet.positions, now, cooperative.channel_map, cooperative.streams)),
        ("CooperativeStrategy.shortlist", lambda: cooperative.strategy.shortlist(
            v, cooperative.fleet.positions, cooperative.streams.su[v])),
        ("CooperativeStrategy.on_epoch", lambda: cooperative.strategy.on_epoch(
            now, cooperative.fleet, cooperative.channel_map, cooperative.streams)),
        ("StandaloneStrategy.attempt", lambda: standalone.strategy.attempt(
            v, standalone.fleet.positions, now, standalone.channel_map, standalone.streams)),
    ]


def main() -> None:
    rows = calls()
    best = [math.inf] * len(rows)
    for _ in range(REPEATS):   # rounds, each timing every row once
        for i, (_, call) in enumerate(rows):
            best[i] = min(best[i], timeit.timeit(call, number=NUMBER))
    for (name, _), seconds in zip(rows, best):
        print(f"{name:30s} {seconds / NUMBER * 1e6:8.2f} µs")


if __name__ == "__main__":
    main()
