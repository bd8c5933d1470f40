"""Bit-identity pin of the fleet's motion over 20 Gipps decisions.

The counter golden runs half a second, one decision. This pin drives the
fleet as the engine does (decide on the reaction-time cadence, advance
every tick) through 20 decisions and hashes positions and speeds right
after each decision. The dense cases (400 vehicles on the default road,
120 on a 500 m road) exercise the overtaking branch thousands of times.
The digests were recorded before the fleet moved from per-vehicle objects
to arrays; any change in the last bit of any position or speed fails.
"""

import hashlib
from dataclasses import replace

import pytest

from crvanet.config import ScenarioConfig
from crvanet.mobility import Fleet
from crvanet.streams import StreamBundle

DECISIONS = 20

# (n_vehicles, road_length) -> digest per seed 1, 2, 3
EXPECTED = {
    (0, 2000.0): ['e3b0c44298fc1c149afbf4c8996fb924', 'e3b0c44298fc1c149afbf4c8996fb924',
                  'e3b0c44298fc1c149afbf4c8996fb924'],
    (1, 2000.0): ['72988f99e7562f6da97adbf17ebbba84', '9698c4e84eb3e6a9fec7826461426486',
                  'cdbf0a75d0ba0daaa3e39349c3222b46'],
    (2, 2000.0): ['194c10644ffdd5eb32c5f91b8cf77a61', 'db8c0530d49848410f14979c11d59c0a',
                  'b0272669b48bc8bf27dc7c7e37cdddb7'],
    (3, 2000.0): ['929693248ac83a79d949ec8a58a152fd', '68fb7b32f328b2257edbc332f8ac65c5',
                  '6f7ba8b89b5e47d4b7b045826913f240'],
    (50, 2000.0): ['97decbdfd7ffc091b72fb623366c0c0f', '2ba1ec02e6c30c5b4abb14078ce480e5',
                   'aaf3ebf184f0d24c898c166e550862ee'],
    (400, 2000.0): ['c13cd896afb95bb57d29b9dd1b6f806d', 'e24dd848f8fbb30c6dbd3eaffc36b62e',
                    '29da73d37b78526b29152df6f17ad6bf'],
    (120, 500.0): ['5494d9cc9b655563d2dcc802904d4efa', 'f05d3d68a75e827287b5048f59861014',
                   '07c81eee87e7088adc404518a5a609b0'],
}

CASES = [(n, 2000.0) for n in (0, 1, 2, 3, 50, 400)] + [(120, 500.0)]


def motion_digest(n_vehicles: int, road_length: float, seed: int) -> str:
    config = replace(ScenarioConfig(), n_vehicles=n_vehicles, road_length=road_length,
                     seed=seed).validate()
    fleet = Fleet(config, StreamBundle(seed, n_vehicles, 0, 0))
    dt = config.time_step
    period = max(1, round(config.reaction_time / dt))
    digest = hashlib.sha256()
    for tick in range(DECISIONS * period):
        if tick % period == 0:
            fleet.decide()
            digest.update(fleet.positions.tobytes())
            digest.update(fleet.speeds.tobytes())
        fleet.advance(dt)
    return digest.hexdigest()[:32]


@pytest.mark.parametrize("n_vehicles,road_length", CASES)
def test_motion_matches_recorded_digest(n_vehicles, road_length):
    got = [motion_digest(n_vehicles, road_length, seed) for seed in (1, 2, 3)]
    assert got == EXPECTED[(n_vehicles, road_length)]
