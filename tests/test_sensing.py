import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import gamma, norm

import crvanet.sensing
from crvanet.config import ScenarioConfig
from crvanet.propagation import PropagationDomainError, hata_suburban_loss
from crvanet.scheduling import ChannelMap
from crvanet.sensing import (
    CLASSES,
    ChannelSensor,
    SenseBlock,
    block_pfa,
    classify_block,
    detection_threshold,
    ndtri,
)
from crvanet.streams import StreamBundle


def _streams(config, seed):
    """A bundle of the scenario's sizes."""
    return StreamBundle(seed, config.n_vehicles, config.n_channels, config.n_pu_towers)


def _statistics(blocks):
    return np.concatenate([b.statistic for b in blocks], axis=None)


def _config_at_snr(config, snr_db):
    """config with the PU transmit power that gives a median SNR of
    snr_db at the road midpoint, the point nearest every tower."""
    sensor = ChannelSensor(config)
    loss = sensor.hata.suburban_loss(config.tower_offset / 1000.0)
    return replace(config, tx_power_pu=snr_db + loss + sensor.noise_dbw).validate()


def _at_midpoint(sense_everywhere, config, calls, seed):
    """PU-active sense_block statistics of every vehicle at the road
    midpoint."""
    midpoint = np.full(config.n_vehicles, config.road_length / 2.0)
    return sense_everywhere(config, calls, seed, pu_active=True, positions=midpoint)


def _max_hold(sensor, observers, positions, channels, cmap, now, streams, blocks):
    """A call over `blocks` fading blocks as `blocks` consecutive 1-block
    calls on the same streams: the max-hold of their statistics, decided
    against the per-block threshold (one block: the call itself)."""
    calls = [sensor.sense_block(observers, positions, channels, cmap, now, streams)
             for _ in range(blocks)]
    if blocks == 1:
        return calls[0]
    statistic = np.maximum.reduce([call.statistic for call in calls])
    threshold = sensor.threshold_for(blocks)
    return SenseBlock(calls[0].channel_ids, statistic >= threshold, calls[0].truth, statistic,
                      threshold)


def _drawn_map(config, draw):
    """A ChannelMap with a drawn share of PU-active channels and SU holders
    on about half of the channels, at drawn positions."""
    n = config.n_channels
    cmap = ChannelMap(n, config.n_vehicles)
    cmap.pu_active[:] = draw.random(n) < draw.random()
    for channel, vehicle in zip(draw.permutation(n), draw.permutation(config.n_vehicles)):
        if draw.random() < 0.5:
            cmap.set_holder(int(channel), int(vehicle), draw.uniform(0.0, config.road_length))
    return cmap


class TestDetectionThreshold:
    def test_pfa_half_gives_noise_power(self):
        assert detection_threshold(0.5, 100) == pytest.approx(1.0, abs=1e-12)

    def test_quantile_table_value(self):
        # Qinv(0.1) = 1.2816 -> lambda = 1 + 1.2816/10
        assert detection_threshold(0.1, 100) == pytest.approx(1.12816, abs=1e-4)

    def test_pfa_bounds(self):
        with pytest.raises(ValueError):
            detection_threshold(0.0, 100)
        with pytest.raises(ValueError):
            detection_threshold(1.0, 100)

    def test_small_window_rejected(self):
        with pytest.raises(ValueError):
            detection_threshold(0.1, 10)

    def test_threshold_above_noise_for_small_pfa(self):
        # statistics are normalised to the noise floor, 1.0
        assert detection_threshold(0.05, 100) > 1.0

    def test_empirical_pfa_matches_target(self, default_config, sense_everywhere):
        # 20 calls x 50 vehicles x 100 channels = 10^5 noise-only windows
        sensor, _, blocks = sense_everywhere(default_config, 20, 5)
        occupied = np.concatenate([b.occupied for b in blocks], axis=None)
        assert occupied.size == 100_000
        assert np.mean(occupied) == pytest.approx(0.1, abs=0.01)
        assert all(b.threshold == sensor.threshold_for(1) for b in blocks)


class TestNdtri:
    # central branch, both tails in x = sqrt(-2 ln y) below and above 8,
    # and the upper tail reached through 1 - y
    GRID = (0.5, 0.1, block_pfa(0.1, 2), block_pfa(0.1, 3), 0.3, 0.14, 0.13, 1e-3,
            1e-10, 1e-14, 1e-20, 1e-100, 1e-300, 5e-324, 0.7, 0.86, 0.87, 0.9,
            1 - 1e-3, 1 - 1e-12, 1 - 2**-53)

    def test_bit_identical_to_norm_isf(self):
        for p in self.GRID:
            assert -ndtri(p) == norm.isf(p), p

    def test_threshold_is_gaussian_tail(self):
        for p in (0.1, block_pfa(0.1, 2), 1e-3):
            assert detection_threshold(p, 100) == 1.0 + norm.isf(p) / 10.0

    def test_domain(self):
        for p in (0.0, 1.0, -0.1, 1.5, math.nan):
            with pytest.raises(ValueError):
                ndtri(p)


def test_runtime_imports_no_scipy():
    """A default run imports no scipy module: the runtime needs only numpy."""
    script = (
        "import sys\n"
        "import crvanet\n"
        "from crvanet.config import ScenarioConfig\n"
        "from crvanet.engine import SimulationEngine\n"
        "from dataclasses import replace\n"
        "SimulationEngine(replace(ScenarioConfig(), running_time=0.1).validate()).run()\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


class TestEnergyStatistic:
    """The statistic ChannelSensor.sense_block draws."""

    def test_noise_only_mean(self, default_config, sense_everywhere):
        stats = _statistics(sense_everywhere(default_config, 40, 1)[2])
        assert stats.size == 200_000
        assert stats.mean() == pytest.approx(1.0, rel=0.01)

    def test_zero_db_snr_doubles_mean(self, default_config, sense_everywhere):
        config = _config_at_snr(default_config, 0.0)
        sensor, positions, blocks = _at_midpoint(sense_everywhere, config, 40, 2)
        assert sensor.median_pu_snr(positions[0]) == pytest.approx(1.0)
        # unit-mean fading keeps the mean at 1 + median SNR
        assert _statistics(blocks).mean() == pytest.approx(2.0, rel=0.01)

    def test_variance_shrinks_as_1_over_n(self, default_config, sense_everywhere):
        v100 = _statistics(sense_everywhere(default_config, 20, 3)[2]).var()
        config = replace(default_config, sensing_samples=400).validate()
        v400 = _statistics(sense_everywhere(config, 20, 3)[2]).var()
        assert v100 / v400 == pytest.approx(4.0, rel=0.1)

    def test_vectorized_over_snrs(self, default_config):
        # one statistic per channel: vacant, PU-active, SU-held in range
        cmap = ChannelMap(default_config.n_channels, default_config.n_vehicles)
        cmap.pu_active[1] = True
        cmap.set_holder(2, vehicle_id=4, position=600.0)
        block = ChannelSensor(default_config).sense_block(
            0, 500.0, np.array([0, 1, 2]), cmap, 0.0, _streams(default_config, 4))
        assert block.statistic.shape == (3,)
        assert block.truth.tolist() == [False, True, True]

    def test_detection_probability_rises_with_snr(self, default_config, sense_everywhere):
        threshold = ChannelSensor(default_config).threshold_for(1)
        n = default_config.sensing_samples
        pds = []
        for snr_db in (-10.0, 0.0, 10.0):
            config = _config_at_snr(default_config, snr_db)
            _, _, blocks = _at_midpoint(sense_everywhere, config, 4, 6)
            pd = float(np.mean(_statistics(blocks) >= threshold))
            # Pd of the Gamma statistic averaged over unit-mean Rayleigh fading
            snr = 10 ** (snr_db / 10)
            expected = quad(lambda g: gamma.sf(threshold, n, scale=(1 + snr * g) / n)
                            * math.exp(-g), 0.0, math.inf)[0]
            assert pd == pytest.approx(expected, abs=0.015)
            pds.append(pd)
        assert pds[0] < pds[1] <= pds[2]
        assert pds[0] < 0.7


class TestClassification:
    PAIRS = [(False, False), (True, True), (True, False), (False, True)]  # (occupied, truth)

    def test_truth_table(self):
        occupied, truth = np.array(self.PAIRS).T
        assert [CLASSES[i] for i in classify_block(occupied, truth)] == [
            "correctDetection", "correctDetection", "falseAlarm", "misdetection"]

    def test_every_pair_maps_to_exactly_one_class(self):
        occupied, truth = np.array(self.PAIRS).T
        indices = classify_block(occupied, truth)
        assert indices.shape == (4,)
        assert set(indices.tolist()) <= set(range(len(CLASSES)))
        assert len(set(CLASSES)) == len(CLASSES) == 3

    def test_outcome_property_agrees(self, default_config):
        """On a batched (vehicles, channels) sense_block grid, the block
        classification is: correct iff the decision matches the truth,
        otherwise a false alarm iff the decision says occupied."""
        cmap = ChannelMap(default_config.n_channels, default_config.n_vehicles)
        cmap.pu_active[::3] = True
        cmap.set_holder(7, vehicle_id=4, position=600.0)
        weak = _config_at_snr(default_config, 0.0)   # weak PUs: misdetections occur
        block = ChannelSensor(weak).sense_block(
            np.arange(50), np.linspace(0.0, 2000.0, 50), np.arange(100), cmap, 0.0,
            _streams(default_config, 12))
        got = classify_block(block.occupied, block.truth)
        assert got.shape == (50, 100)
        expected = np.where(block.occupied == block.truth, 0,
                            np.where(block.occupied & ~block.truth, 1, 2))
        np.testing.assert_array_equal(got, expected)
        assert set(got.ravel().tolist()) == {0, 1, 2}
        assert classify_block(np.array([False]), np.array([True]))[0] == \
            CLASSES.index("misdetection")


def test_raising_threshold_never_adds_false_alarms(default_config, sense_everywhere):
    # fixed recorded statistic streams, swept threshold
    vacant_stats = _statistics(sense_everywhere(default_config, 4, 11)[2])
    config = _config_at_snr(default_config, 10 * math.log10(2.0))
    occupied_stats = _statistics(_at_midpoint(sense_everywhere, config, 4, 11)[2])
    thresholds = np.linspace(0.8, 1.6, 30)
    fas = [(vacant_stats >= t).sum() for t in thresholds]
    mds = [(occupied_stats < t).sum() for t in thresholds]
    assert all(b <= a for a, b in zip(fas, fas[1:]))
    assert all(b >= a for a, b in zip(mds, mds[1:]))


def test_block_pfa_compensation():
    per_block = block_pfa(0.1, 2)
    assert 1 - (1 - per_block) ** 2 == pytest.approx(0.1, abs=1e-12)
    assert block_pfa(0.1, 1) == pytest.approx(0.1)


class TestSenseChannel:
    """Sensing one channel at a time through ChannelSensor.sense_block."""

    def _sense(self, config, cmap, position, channel_id, streams):
        block = ChannelSensor(config).sense_block(
            0, position, np.array([channel_id]), cmap, 0.0, streams
        )
        assert block.channel_ids.tolist() == [channel_id]
        return block

    def test_unknown_channel_rejected(self, default_config):
        cmap = ChannelMap(default_config.n_channels, default_config.n_vehicles)
        for channel_id in (100, -1):
            with pytest.raises(ValueError):
                self._sense(default_config, cmap, 0.0, channel_id, _streams(default_config, 0))

    def test_vacant_channel_outcomes_mostly_correct(self, default_config):
        cmap = ChannelMap(default_config.n_channels, default_config.n_vehicles)
        streams = _streams(default_config, 1)
        classes = []
        for _ in range(300):
            block = self._sense(default_config, cmap, 500.0, 3, streams)
            classes.append(CLASSES[classify_block(block.occupied, block.truth)[0]])
        fa = sum(c == "falseAlarm" for c in classes)
        assert all(c != "misdetection" for c in classes)
        assert 0 < fa < 80  # ~10% of 300

    def test_pu_active_channel_detected(self, default_config):
        cmap = ChannelMap(default_config.n_channels, default_config.n_vehicles)
        cmap.pu_active[3] = True
        streams = _streams(default_config, 2)
        blocks = [self._sense(default_config, cmap, 500.0, 3, streams) for _ in range(200)]
        assert all(b.truth[0] for b in blocks)
        detected = sum(bool(b.occupied[0]) for b in blocks)
        assert detected > 190  # strong median SNR; misses need deep fades

    def test_su_holder_in_range_is_occupied_truth(self, default_config):
        cmap = ChannelMap(default_config.n_channels, default_config.n_vehicles)
        cmap.set_holder(7, vehicle_id=4, position=600.0)
        streams = _streams(default_config, 3)
        near = self._sense(default_config, cmap, 500.0, 7, streams)
        assert near.truth[0]
        far = self._sense(default_config, cmap, 1500.0, 7, streams)
        assert not far.truth[0]

    def test_decision_iff_statistic_crosses_threshold(self, default_config):
        cmap = ChannelMap(default_config.n_channels, default_config.n_vehicles)
        streams = _streams(default_config, 4)
        for _ in range(50):
            b = self._sense(default_config, cmap, 800.0, 11, streams)
            assert b.occupied[0] == (b.statistic[0] >= b.threshold)


def test_threshold_for_is_cached_and_exact(default_config, monkeypatch):
    sensor = ChannelSensor(default_config)
    n, pfa = default_config.sensing_samples, default_config.target_pfa
    uncached = detection_threshold(block_pfa(pfa, 2), n)
    single = detection_threshold(pfa, n)
    calls = []

    def counting_ndtri(q):
        calls.append(q)
        return ndtri(q)

    monkeypatch.setattr(crvanet.sensing, "ndtri", counting_ndtri)
    assert sensor.threshold_for(2) == uncached
    assert sensor.threshold_for(2) == uncached
    assert len(calls) == 1
    assert sensor.threshold_for(1) == single
    assert len(calls) == 1


def test_two_block_sense_keeps_target_pfa(default_config):
    """Max-hold over two fading blocks with the compensated per-block
    threshold must still false-alarm at ~targetPfa on vacant channels."""
    sensor = ChannelSensor(default_config)
    cmap = ChannelMap(default_config.n_channels, default_config.n_vehicles)
    streams = _streams(default_config, 99)
    hits = 0
    n = 4000
    for i in range(n):
        block = sensor.sense_block(0, 500.0, np.array([2]), cmap, 0.0, streams, blocks=2)
        hits += bool(block.occupied[0])
    assert hits / n == pytest.approx(0.1, abs=0.02)


class TestBatchedSenseBlock:
    """One sense_block call over m observers is m single-observer calls."""

    OBSERVERS = np.array([4, 0, 17, 9])
    POSITIONS = np.array([120.0, 480.0, 1010.5, 1990.0])
    # one row per observer; rows cross the tower boundary out of order
    GRID = np.array([[49, 50, 3, 98, 0], [99, 0, 1, 2, 60],
                     [10, 11, 12, 13, 14], [55, 54, 53, 52, 51]])

    @staticmethod
    def _channel_map(config):
        cmap = ChannelMap(config.n_channels, config.n_vehicles)
        cmap.pu_active[:] = np.random.default_rng(11).random(config.n_channels) < 0.5
        for channel, vehicle, position in ((3, 9, 450.0), (60, 2, 1700.0), (99, 5, 20.0)):
            cmap.set_holder(channel, vehicle, position)
        return cmap

    @pytest.mark.parametrize("blocks", [1, 2])
    @pytest.mark.parametrize("shared", [True, False], ids=["shared-channels", "grid"])
    def test_batch_equals_single_calls(self, default_config, blocks, shared):
        """Over 2 blocks, the batch is the max-hold of two consecutive 1-block
        batched calls, as observer arrays sense one block per call."""
        sensor = ChannelSensor(default_config)
        cmap = self._channel_map(default_config)
        channels = np.arange(default_config.n_channels) if shared else self.GRID
        batched, single = _streams(default_config, 5), _streams(default_config, 5)
        block = _max_hold(sensor, self.OBSERVERS, self.POSITIONS, channels, cmap, 0.25,
                          batched, blocks)
        assert block.occupied.shape == (len(self.OBSERVERS), channels.shape[-1])
        rows = [channels] * len(self.OBSERVERS) if shared else channels
        for r, (observer, position, ids) in enumerate(
                zip(self.OBSERVERS.tolist(), self.POSITIONS.tolist(), rows)):
            alone = sensor.sense_block(observer, position, ids, cmap, 0.25, single,
                                       blocks=blocks)
            np.testing.assert_array_equal(block.occupied[r], alone.occupied)
            np.testing.assert_array_equal(block.truth[r], alone.truth)
            np.testing.assert_array_equal(block.statistic[r], alone.statistic)
            assert block.threshold == alone.threshold
        # every generator was left in the same state
        for observer in self.OBSERVERS.tolist():
            for tower in range(default_config.n_pu_towers):
                assert (batched.fading[tower][observer].random()
                        == single.fading[tower][observer].random())
            assert batched.sensing[observer].random() == single.sensing[observer].random()

    @staticmethod
    def _short_grid(width):
        """One row of `width` distinct channels per observer. The rows lead
        with channels 3 (held in sensingRange of observer 4), 60 and 99
        (held out of range of observers 0 and 17) and 50; from width 2 on
        each crosses the tower boundary."""
        rng = np.random.default_rng(7)
        rows = [np.concatenate([head, rng.permutation(np.setdiff1d(np.arange(100), head))])
                for head in ([3, 50], [60, 49], [99, 0], [50, 3])]
        return np.array(rows)[:, :width]

    @pytest.mark.parametrize("blocks", [1, 2])
    @pytest.mark.parametrize("width", [1, 20, 21, 100])
    def test_short_calls_equal_batched_rows(self, default_config, monkeypatch, width, blocks):
        """Single-observer calls over listed channels, however many, take the
        Python-float path; each equals its row of the batched array path
        (over 2 blocks, the max-hold of two consecutive batched calls) bit
        for bit, and leaves every generator in the same state. Under the
        default two towers and under four, where each row spans more than
        two towers' fading streams."""
        short_calls, short = [], ChannelSensor._sense_short

        def counted(*args):
            short_calls.append(args)
            return short(*args)

        monkeypatch.setattr(ChannelSensor, "_sense_short", counted)
        four_towers = replace(default_config, n_pu_towers=4, channels_per_tower=25).validate()
        for config in (default_config, four_towers):
            short_calls.clear()
            self._check_short_calls(config, width, blocks)
            assert len(short_calls) == len(self.OBSERVERS)

    def _check_short_calls(self, config, width, blocks):
        sensor = ChannelSensor(config)
        cmap = self._channel_map(config)
        grid = self._short_grid(width)
        holders = cmap.su_holder[grid] >= 0
        distance = np.abs(cmap.su_holder_pos[grid] - self.POSITIONS[:, None])
        in_range = distance <= config.sensing_range
        assert (holders & in_range).any() and (holders & ~in_range).any()
        batched, single = _streams(config, 5), _streams(config, 5)
        block = _max_hold(sensor, self.OBSERVERS, self.POSITIONS, grid, cmap, 0.25, batched,
                          blocks)
        for r, (observer, position) in enumerate(
                zip(self.OBSERVERS.tolist(), self.POSITIONS.tolist())):
            alone = sensor.sense_block(observer, position, grid[r], cmap, 0.25, single,
                                       blocks=blocks)
            for field in ("occupied", "truth", "statistic"):
                expected, got = getattr(block, field)[r], getattr(alone, field)
                assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
            assert alone.threshold == block.threshold
        for observer in self.OBSERVERS.tolist():
            for tower in range(config.n_pu_towers):
                assert (batched.fading[tower][observer].bit_generator.state
                        == single.fading[tower][observer].bit_generator.state)
            assert (batched.sensing[observer].bit_generator.state
                    == single.sensing[observer].bit_generator.state)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_batch_equals_single_calls_on_drawn_inputs(self, data):
        """1-6 distinct observers sense a shared row or a grid of 1-25
        channels, from 1-4 towers, under a drawn PU and SU map: each row
        equals the observer's own call byte for byte, and every fading and
        sensing generator ends in the same state."""
        towers = data.draw(st.integers(1, 4), label="towers")
        per_tower = data.draw(st.integers(1, 25), label="channelsPerTower")
        config = replace(ScenarioConfig(), n_vehicles=8, n_pu_towers=towers,
                         channels_per_tower=per_tower, n_channels=towers * per_tower).validate()
        n = config.n_channels
        m = data.draw(st.integers(1, 6), label="observers")
        k = data.draw(st.integers(1, 25), label="channels")
        shared = data.draw(st.booleans(), label="shared")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        draw = np.random.default_rng(seed)
        observers = draw.permutation(config.n_vehicles)[:m]
        positions = draw.uniform(0.0, config.road_length, m)
        channels = draw.integers(0, n, k if shared else (m, k))
        cmap = _drawn_map(config, draw)

        sensor = ChannelSensor(config)
        batched, single = _streams(config, seed), _streams(config, seed)
        block = sensor.sense_block(observers, positions, channels, cmap, 0.0, batched)
        rows = [channels] * m if shared else channels
        for r, (observer, position, ids) in enumerate(
                zip(observers.tolist(), positions.tolist(), rows)):
            alone = sensor.sense_block(observer, position, ids, cmap, 0.0, single)
            for field in ("occupied", "truth", "statistic"):
                expected, got = getattr(block, field)[r], getattr(alone, field)
                assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
            assert alone.threshold == block.threshold
        for a, b in zip(batched.fading + [batched.sensing], single.fading + [single.sensing]):
            assert [g.bit_generator.state for g in a] == [g.bit_generator.state for g in b]

    @pytest.mark.parametrize("blocks", [2, 3])
    def test_listed_blocks_are_consecutive_single_blocks(self, default_config, blocks):
        """One observer's listed call over several blocks equals, byte for
        byte, the max-hold of as many consecutive 1-block calls on a twin
        bundle, and leaves every generator in the same state."""
        sensor = ChannelSensor(default_config)
        cmap = self._channel_map(default_config)
        many, one = _streams(default_config, 8), _streams(default_config, 8)
        for observer, position, ids in zip(self.OBSERVERS.tolist(), self.POSITIONS.tolist(),
                                           self._short_grid(30)):
            got = sensor.sense_block(observer, position, ids, cmap, 0.25, many, blocks=blocks)
            expected = _max_hold(sensor, observer, position, ids, cmap, 0.25, one, blocks)
            for field in ("occupied", "truth", "statistic"):
                e, g = getattr(expected, field), getattr(got, field)
                assert g.dtype == e.dtype and g.tobytes() == e.tobytes()
            assert got.threshold == expected.threshold
        for a, b in zip(many.fading + [many.sensing], one.fading + [one.sensing]):
            assert [g.bit_generator.state for g in a] == [g.bit_generator.state for g in b]

    def test_band_and_grid_calls_sense_one_block(self, default_config):
        """Only one observer's listed channels take several blocks: a band
        call or an observer array's call over 2 blocks is rejected by name
        before any draw."""
        sensor = ChannelSensor(default_config)
        cmap = self._channel_map(default_config)
        calls = [(0, 500.0, sensor.band), (self.OBSERVERS, self.POSITIONS, sensor.band),
                 (self.OBSERVERS, self.POSITIONS, self.GRID),
                 (self.OBSERVERS, self.POSITIONS, np.arange(4))]
        for observers, positions, channels in calls:
            streams, fresh = _streams(default_config, 0), _streams(default_config, 0)
            with pytest.raises(ValueError, match="sense one block, got blocks=2"):
                sensor.sense_block(observers, positions, channels, cmap, 0.0, streams, blocks=2)
            for a, b in zip(streams.fading + [streams.sensing], fresh.fading + [fresh.sensing]):
                assert [g.bit_generator.state for g in a] == [g.bit_generator.state for g in b]

    def test_repeated_observer_rejected(self, default_config):
        sensor = ChannelSensor(default_config)
        cmap = ChannelMap(default_config.n_channels, default_config.n_vehicles)
        with pytest.raises(ValueError, match="distinct observers"):
            sensor.sense_block(np.array([3, 5, 3]), np.array([0.0, 1.0, 2.0]), np.arange(4),
                               cmap, 0.0, _streams(default_config, 0))

    @pytest.mark.parametrize("channel_id", [100, -1])
    def test_unknown_channel_rejected_in_short_call(self, default_config, channel_id):
        sensor = ChannelSensor(default_config)
        cmap = ChannelMap(default_config.n_channels, default_config.n_vehicles)
        with pytest.raises(ValueError, match="unknown channel"):
            sensor.sense_block(0, 500.0, np.array([2, channel_id]), cmap, 0.0,
                               _streams(default_config, 0))

    def test_unknown_channel_rejected_in_grid(self, default_config):
        sensor = ChannelSensor(default_config)
        cmap = ChannelMap(default_config.n_channels, default_config.n_vehicles)
        for channel_id in (100, -1):
            channels = np.array([[0, 1], [2, channel_id]])
            with pytest.raises(ValueError):
                sensor.sense_block(self.OBSERVERS[:2], self.POSITIONS[:2], channels, cmap,
                                   0.0, _streams(default_config, 0))

    @pytest.mark.parametrize("shape", [(), (2, 2), (1, 20), (2, 20), (21, 1)])
    def test_one_observer_needs_1d_channels(self, default_config, shape):
        """A scalar observer given a grid (or a bare id) is rejected by name,
        whatever the grid's size."""
        sensor = ChannelSensor(default_config)
        cmap = ChannelMap(default_config.n_channels, default_config.n_vehicles)
        channels = np.arange(math.prod(shape)).reshape(shape)
        with pytest.raises(ValueError, match="one observer needs 1-D channel_ids"):
            sensor.sense_block(0, 500.0, channels, cmap, 0.0, _streams(default_config, 0))


class TestBandPath:
    """sense_block over the sensor's read-only band takes the map whole and
    the stored tower runs, and equals the same call over np.arange(n)."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_band_equals_general_path_on_drawn_inputs(self, data):
        """1-4 towers of 1-30 channels, a scalar observer or 1-6 distinct
        ones, a drawn PU and SU map: byte for byte the same results, every
        fading and sensing generator in the same state, and the map
        untouched. A band call of any size takes the array path; a scalar
        observer's np.arange(n) takes the short path."""
        towers = data.draw(st.integers(1, 4), label="towers")
        per_tower = data.draw(st.integers(1, 30), label="channelsPerTower")
        config = replace(ScenarioConfig(), n_vehicles=8, n_pu_towers=towers,
                         channels_per_tower=per_tower, n_channels=towers * per_tower).validate()
        n = config.n_channels
        m = data.draw(st.one_of(st.none(), st.integers(1, 6)), label="observers")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        draw = np.random.default_rng(seed)
        if m is None:   # a scalar observer
            observers = int(draw.integers(config.n_vehicles))
            positions = float(draw.uniform(0.0, config.road_length))
        else:
            observers = draw.permutation(config.n_vehicles)[:m]
            positions = draw.uniform(0.0, config.road_length, m)
        cmap = _drawn_map(config, draw)
        before = [a.copy() for a in (cmap.pu_active, cmap.su_holder, cmap.su_holder_pos)]

        sensor = ChannelSensor(config)
        short_calls, short = [], sensor._sense_short

        def counted(*args):
            short_calls.append(args)
            return short(*args)

        sensor._sense_short = counted
        on_band, general = _streams(config, seed), _streams(config, seed)
        got = sensor.sense_block(observers, positions, sensor.band, cmap, 0.0, on_band)
        assert not short_calls
        for a, b in zip(before, (cmap.pu_active, cmap.su_holder, cmap.su_holder_pos)):
            np.testing.assert_array_equal(a, b)
        expected = sensor.sense_block(observers, positions, np.arange(n), cmap, 0.0, general)
        assert len(short_calls) == (m is None)
        assert got.channel_ids is sensor.band and got.threshold == expected.threshold
        for field in ("occupied", "truth", "statistic"):
            e, g = getattr(expected, field), getattr(got, field)
            assert g.dtype == e.dtype and g.shape == e.shape and g.tobytes() == e.tobytes()
        for a, b in zip(on_band.fading + [on_band.sensing], general.fading + [general.sensing]):
            assert [g.bit_generator.state for g in a] == [g.bit_generator.state for g in b]

    @pytest.mark.parametrize("observers, positions", [
        (3, 700.0), (np.array([3, 0, 9]), np.array([700.0, 10.0, 1500.0]))],
        ids=["one-observer", "three-observers"])
    def test_results_never_alias_the_map(self, default_config, observers, positions):
        sensor = ChannelSensor(default_config)
        cmap = TestBatchedSenseBlock._channel_map(default_config)
        cmap.set_holder(10, 3, 690.0)   # an SU in range of observer 3
        block = sensor.sense_block(observers, positions, sensor.band, cmap, 0.0,
                                   _streams(default_config, 2))
        results = [block.occupied, block.truth, block.statistic]
        for result in results:
            for state in (cmap.pu_active, cmap.su_holder, cmap.su_holder_pos):
                assert not np.shares_memory(result, state)
        kept = [result.copy() for result in results]
        cmap.pu_active ^= True
        cmap.clear_holder(10)
        cmap.set_holder(11, 4, 700.0)
        for result, copy in zip(results, kept):
            np.testing.assert_array_equal(result, copy)

    def test_band_is_read_only(self, default_config):
        sensor = ChannelSensor(default_config)
        with pytest.raises(ValueError):
            sensor.band[0] = 5
        np.testing.assert_array_equal(sensor.band, np.arange(default_config.n_channels))

    def test_map_of_another_size_rejected(self, default_config):
        sensor = ChannelSensor(default_config)
        n = default_config.n_channels
        cmap = ChannelMap(n + 20, default_config.n_vehicles)
        with pytest.raises(ValueError, match=rf"{n + 20} channels .* band of {n}\b"):
            sensor.sense_block(0, 500.0, sensor.band, cmap, 0.0, _streams(default_config, 0))

    @pytest.mark.parametrize("map_channels", [30, 5])
    def test_short_band_against_a_map_of_another_size_rejected(self, map_channels):
        """A one-observer band of 10 channels fails as every band call does,
        naming both sizes, rather than sensing 10 channels."""
        config = replace(ScenarioConfig(), n_channels=10, channels_per_tower=5,
                         n_pu_towers=2).validate()
        sensor = ChannelSensor(config)
        cmap = ChannelMap(map_channels, config.n_vehicles)
        with pytest.raises(ValueError,
                           match=rf"channel map of {map_channels} channels for a band of 10$"):
            sensor.sense_block(0, 500.0, sensor.band, cmap, 0.0, _streams(config, 0))


class TestMedianPuSnr:
    def test_equals_hata_suburban_exactly(self, default_config):
        """Every tower stands towerOffset from the road midpoint, so the
        median SNR at a position is the Hata loss at that one distance."""
        cfg = default_config
        sensor = ChannelSensor(cfg)
        positions = np.linspace(0.0, cfg.road_length, 81).tolist()
        for position in positions:
            distance = math.hypot(position - cfg.road_length / 2.0, cfg.tower_offset)
            loss = hata_suburban_loss(cfg.frequency, cfg.base_station_height,
                                      cfg.mobile_height, distance / 1000.0)
            assert sensor.median_pu_snr(position) == 10 ** (
                (cfg.tx_power_pu - loss - sensor.noise_dbw) / 10)

    def test_out_of_range_inputs_raise(self, default_config):
        # both towers 100 m off the road at its 1000 m midpoint
        sensor = ChannelSensor(replace(default_config, tower_offset=100.0))
        with pytest.raises(PropagationDomainError):
            sensor.median_pu_snr(1000.0)   # 0.1 km
        cmap = ChannelMap(default_config.n_channels, default_config.n_vehicles)
        for channels in (np.arange(3), np.arange(21), sensor.band):
            with pytest.raises(PropagationDomainError):
                sensor.sense_block(0, 1000.0, channels, cmap, 0.0, _streams(default_config, 0))
            # an observer array, with the out-of-range observer second
            with pytest.raises(PropagationDomainError):
                sensor.sense_block(np.array([0, 1]), np.array([0.0, 1000.0]), channels, cmap,
                                   0.0, _streams(default_config, 0))
        with pytest.raises(PropagationDomainError):
            ChannelSensor(replace(default_config, frequency=2000.0))
