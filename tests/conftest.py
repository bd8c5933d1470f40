import itertools
from dataclasses import replace

import numpy as np
import pytest

from crvanet.config import ScenarioConfig
from crvanet.scheduling import ChannelMap
from crvanet.sensing import ChannelSensor
from crvanet.streams import StreamBundle


@pytest.fixture
def default_config():
    return ScenarioConfig().validate()


@pytest.fixture
def short_config():
    """One-second default scenario, enough events for state-machine checks."""
    return replace(ScenarioConfig(), running_time=1.0, seed=42).validate()


def _sense_everywhere(config, calls, seed, pu_active=False, positions=None):
    """Every vehicle senses the band, `calls` times over, through one
    ChannelSensor.sense_block call each; no SU holds a channel, and every
    PU transmits if pu_active. Vehicles sit evenly along the road unless
    `positions` places them. Returns the sensor, the positions and one
    (vehicles, channels) SenseBlock per call."""
    sensor = ChannelSensor(config)
    cmap = ChannelMap(config.n_channels, config.n_vehicles)
    cmap.pu_active[:] = pu_active
    if positions is None:
        positions = np.linspace(0.0, config.road_length, config.n_vehicles)
    observers = np.arange(config.n_vehicles)
    streams = StreamBundle(seed, config.n_vehicles, config.n_channels, config.n_pu_towers)
    blocks = [sensor.sense_block(observers, positions, sensor.band, cmap, streams)
              for _ in range(calls)]
    return sensor, positions, blocks


@pytest.fixture
def sense_everywhere():
    return _sense_everywhere


class _DrawStub:
    """Stands in for a numpy Generator whose standard exponential draws are
    the given iterable's values in turn; exponential(scale) is scale times
    the next one, as numpy computes it."""

    def __init__(self, draws):
        self.draws = iter(draws)

    def standard_exponential(self, size=None, out=None):
        if size is None and out is None:
            return next(self.draws)
        out = np.empty(size) if out is None else out
        for i in range(out.size):
            out[i] = next(self.draws)
        return out

    def exponential(self, scale=1.0):
        return scale * next(self.draws)


@pytest.fixture(scope="session")
def draw_stub():
    """The generator stand-in: draw_stub(values), then 1.0 forever."""
    return lambda values: _DrawStub(itertools.chain(values, itertools.repeat(1.0)))


@pytest.fixture(scope="session")
def applied_fading_gains():
    """The 10^6 Rayleigh gains sense_block applied on PU-active channels
    in the default scenario (seed 10), recovered from its statistics.

    A statistic is g * (1 + snr * gain) / N, where g is the
    standard_gamma(N) draw of the observer's sensing stream and snr the
    median PU SNR at the observer; a same-seed StreamBundle replays g.
    """
    config = ScenarioConfig().validate()
    sensor, positions, blocks = _sense_everywhere(config, 200, 10, pu_active=True)
    snr = np.array([sensor.median_pu_snr(p) for p in positions.tolist()])[:, None]
    replay = StreamBundle(10, config.n_vehicles, config.n_channels, config.n_pu_towers)
    n = sensor.n_samples
    gains = []
    for block in blocks:
        g = np.array([replay.sensing[v].standard_gamma(n, size=config.n_channels)
                      for v in range(config.n_vehicles)])
        gains.append((block.statistic * n / g - 1.0) / snr)
    return np.concatenate(gains, axis=None)
