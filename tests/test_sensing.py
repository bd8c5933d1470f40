import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import gamma, norm

import crvanet.sensing
from crvanet.propagation import PropagationDomainError, TowerGeometry, hata_suburban_loss
from crvanet.scheduling import ChannelMap
from crvanet.sensing import (
    CLASSES,
    SMALL_CALL,
    ChannelSensor,
    block_pfa,
    classify_block,
    detection_threshold,
    ndtri,
)
from crvanet.streams import StreamBundle


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
        assert sensor.median_pu_snr(sensor.towers[0], positions[0]) == pytest.approx(1.0)
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
            0, 500.0, np.array([0, 1, 2]), cmap, 0.0, StreamBundle(4))
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
            StreamBundle(12))
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
                self._sense(default_config, cmap, 0.0, channel_id, StreamBundle(0))

    def test_vacant_channel_outcomes_mostly_correct(self, default_config):
        cmap = ChannelMap(default_config.n_channels, default_config.n_vehicles)
        streams = StreamBundle(1)
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
        streams = StreamBundle(2)
        blocks = [self._sense(default_config, cmap, 500.0, 3, streams) for _ in range(200)]
        assert all(b.truth[0] for b in blocks)
        detected = sum(bool(b.occupied[0]) for b in blocks)
        assert detected > 190  # strong median SNR; misses need deep fades

    def test_su_holder_in_range_is_occupied_truth(self, default_config):
        cmap = ChannelMap(default_config.n_channels, default_config.n_vehicles)
        cmap.set_holder(7, vehicle_id=4, position=600.0)
        streams = StreamBundle(3)
        near = self._sense(default_config, cmap, 500.0, 7, streams)
        assert near.truth[0]
        far = self._sense(default_config, cmap, 1500.0, 7, streams)
        assert not far.truth[0]

    def test_decision_iff_statistic_crosses_threshold(self, default_config):
        cmap = ChannelMap(default_config.n_channels, default_config.n_vehicles)
        streams = StreamBundle(4)
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
    streams = StreamBundle(99)
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
        sensor = ChannelSensor(default_config)
        cmap = self._channel_map(default_config)
        channels = np.arange(default_config.n_channels) if shared else self.GRID
        batched, single = StreamBundle(5), StreamBundle(5)
        block = sensor.sense_block(self.OBSERVERS, self.POSITIONS, channels, cmap, 0.25,
                                   batched, blocks=blocks)
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
                assert (batched.fading_stream(tower, observer).random()
                        == single.fading_stream(tower, observer).random())
            assert (batched.sensing_stream(observer).random()
                    == single.sensing_stream(observer).random())

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
    @pytest.mark.parametrize("width", [1, SMALL_CALL, SMALL_CALL + 1])
    def test_short_calls_equal_batched_rows(self, default_config, monkeypatch, width, blocks):
        """Single-observer calls of at most SMALL_CALL channels take the
        Python-float path; each equals its row of the batched array path
        bit for bit, and leaves every generator in the same state."""
        sensor = ChannelSensor(default_config)
        cmap = self._channel_map(default_config)
        grid = self._short_grid(width)
        holders = cmap.su_holder[grid] >= 0
        distance = np.abs(cmap.su_holder_pos[grid] - self.POSITIONS[:, None])
        in_range = distance <= default_config.sensing_range
        assert (holders & in_range).any() and (holders & ~in_range).any()
        short_calls, short = [], ChannelSensor._sense_short

        def counted(*args):
            short_calls.append(args)
            return short(*args)

        monkeypatch.setattr(ChannelSensor, "_sense_short", counted)
        batched, single = StreamBundle(5), StreamBundle(5)
        block = sensor.sense_block(self.OBSERVERS, self.POSITIONS, grid, cmap, 0.25,
                                   batched, blocks=blocks)
        for r, (observer, position) in enumerate(
                zip(self.OBSERVERS.tolist(), self.POSITIONS.tolist())):
            alone = sensor.sense_block(observer, position, grid[r], cmap, 0.25, single,
                                       blocks=blocks)
            for field in ("occupied", "truth", "statistic"):
                expected, got = getattr(block, field)[r], getattr(alone, field)
                assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
            assert alone.threshold == block.threshold
        assert len(short_calls) == (len(self.OBSERVERS) if width <= SMALL_CALL else 0)
        for observer in self.OBSERVERS.tolist():
            for tower in range(default_config.n_pu_towers):
                assert (batched.fading_stream(tower, observer).bit_generator.state
                        == single.fading_stream(tower, observer).bit_generator.state)
            assert (batched.sensing_stream(observer).bit_generator.state
                    == single.sensing_stream(observer).bit_generator.state)

    @pytest.mark.parametrize("channel_id", [100, -1])
    def test_unknown_channel_rejected_in_short_call(self, default_config, channel_id):
        sensor = ChannelSensor(default_config)
        cmap = ChannelMap(default_config.n_channels, default_config.n_vehicles)
        with pytest.raises(ValueError, match="unknown channel"):
            sensor.sense_block(0, 500.0, np.array([2, channel_id]), cmap, 0.0, StreamBundle(0))

    def test_unknown_channel_rejected_in_grid(self, default_config):
        sensor = ChannelSensor(default_config)
        cmap = ChannelMap(default_config.n_channels, default_config.n_vehicles)
        for channel_id in (100, -1):
            channels = np.array([[0, 1], [2, channel_id]])
            with pytest.raises(ValueError):
                sensor.sense_block(self.OBSERVERS[:2], self.POSITIONS[:2], channels, cmap,
                                   0.0, StreamBundle(0))

    @pytest.mark.parametrize("shape", [(), (2, 2), (1, SMALL_CALL), (2, SMALL_CALL),
                                       (SMALL_CALL + 1, 1)])
    def test_one_observer_needs_1d_channels(self, default_config, shape):
        """A scalar observer given a grid (or a bare id) is rejected by name, on
        the short path (at most SMALL_CALL entries) and on the array path."""
        sensor = ChannelSensor(default_config)
        cmap = ChannelMap(default_config.n_channels, default_config.n_vehicles)
        channels = np.arange(math.prod(shape)).reshape(shape)
        with pytest.raises(ValueError, match="one observer needs 1-D channel_ids"):
            sensor.sense_block(0, 500.0, channels, cmap, 0.0, StreamBundle(0))


class TestMedianPuSnr:
    def test_equals_hata_suburban_exactly(self, default_config):
        cfg = default_config
        sensor = ChannelSensor(cfg)
        towers = sensor.towers + [TowerGeometry(2, along_road=0.0, offset=1500.0)]
        for tower in towers:
            for position in np.linspace(0.0, cfg.road_length, 81).tolist():
                loss = hata_suburban_loss(cfg.frequency, cfg.base_station_height,
                                          cfg.mobile_height, tower.distance_to(position) / 1000.0)
                expected = 10 ** ((cfg.tx_power_pu - loss - sensor.noise_dbw) / 10)
                assert sensor.median_pu_snr(tower, position) == expected

    def test_out_of_range_inputs_raise(self, default_config):
        near = [TowerGeometry(t, along_road=1000.0, offset=100.0) for t in range(2)]
        sensor = ChannelSensor(default_config, towers=near)
        with pytest.raises(PropagationDomainError):
            sensor.median_pu_snr(near[0], 1000.0)   # 0.1 km
        with pytest.raises(PropagationDomainError):
            sensor.sense_block(0, 1000.0, np.arange(3), ChannelMap(default_config.n_channels, default_config.n_vehicles),
                               0.0, StreamBundle(0))
        with pytest.raises(PropagationDomainError):
            ChannelSensor(replace(default_config, frequency=2000.0))
