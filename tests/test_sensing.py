import math
from dataclasses import replace

import numpy as np
import pytest

import crvanet.sensing
from crvanet.propagation import PropagationDomainError, TowerGeometry, hata_suburban_loss
from crvanet.scheduling import ChannelMap
from crvanet.sensing import (
    CLASSES,
    ChannelSensor,
    ChannelState,
    Classification,
    DetectorParams,
    block_pfa,
    classify_block,
    classify_outcome,
    detection_threshold,
    energy_statistic,
)
from crvanet.streams import StreamBundle


class TestDetectionThreshold:
    def test_pfa_half_gives_noise_power(self):
        params = DetectorParams(n_samples=100, noise_power=1.0, target_pfa=0.5)
        assert detection_threshold(params) == pytest.approx(1.0, abs=1e-12)

    def test_quantile_table_value(self):
        # Qinv(0.1) = 1.2816 -> lambda = 1 + 1.2816/10
        params = DetectorParams(n_samples=100, noise_power=1.0, target_pfa=0.1)
        assert detection_threshold(params) == pytest.approx(1.12816, abs=1e-4)

    def test_scales_with_noise_power(self):
        p1 = DetectorParams(n_samples=100, noise_power=1.0, target_pfa=0.1)
        p2 = DetectorParams(n_samples=100, noise_power=3.0, target_pfa=0.1)
        assert detection_threshold(p2) == pytest.approx(3 * detection_threshold(p1))

    def test_pfa_bounds(self):
        with pytest.raises(ValueError):
            detection_threshold(DetectorParams(target_pfa=0.0))
        with pytest.raises(ValueError):
            detection_threshold(DetectorParams(target_pfa=1.0))

    def test_small_window_rejected(self):
        with pytest.raises(ValueError):
            detection_threshold(DetectorParams(n_samples=10, target_pfa=0.1))

    def test_threshold_above_noise_for_small_pfa(self):
        params = DetectorParams(n_samples=100, noise_power=2.0, target_pfa=0.05)
        assert detection_threshold(params) > 2.0

    def test_empirical_pfa_matches_target(self):
        params = DetectorParams(n_samples=100, noise_power=1.0, target_pfa=0.1).calibrated()
        rng = np.random.default_rng(5)
        stats = energy_statistic(0.0, params, rng, size=100_000)
        assert np.mean(stats >= params.threshold) == pytest.approx(0.1, abs=0.01)


class TestEnergyStatistic:
    def test_noise_only_mean(self):
        params = DetectorParams(n_samples=100, noise_power=2.0, target_pfa=0.1)
        rng = np.random.default_rng(1)
        stats = energy_statistic(0.0, params, rng, size=200_000)
        assert stats.mean() == pytest.approx(2.0, rel=0.01)

    def test_zero_db_snr_doubles_mean(self):
        params = DetectorParams(n_samples=100, noise_power=1.0, target_pfa=0.1)
        rng = np.random.default_rng(2)
        stats = energy_statistic(1.0, params, rng, size=200_000)
        assert stats.mean() == pytest.approx(2.0, rel=0.01)

    def test_variance_shrinks_as_1_over_n(self):
        rng = np.random.default_rng(3)
        v100 = energy_statistic(
            0.0, DetectorParams(n_samples=100, noise_power=1.0), rng, size=100_000
        ).var()
        v400 = energy_statistic(
            0.0, DetectorParams(n_samples=400, noise_power=1.0), rng, size=100_000
        ).var()
        assert v100 / v400 == pytest.approx(4.0, rel=0.1)

    def test_vectorized_over_snrs(self):
        params = DetectorParams(n_samples=100, noise_power=1.0)
        rng = np.random.default_rng(4)
        stats = energy_statistic(np.array([0.0, 1.0, 9.0]), params, rng)
        assert stats.shape == (3,)

    def test_negative_snr_rejected(self):
        with pytest.raises(ValueError):
            energy_statistic(-0.5, DetectorParams(), np.random.default_rng(0))

    def test_detection_probability_rises_with_snr(self):
        params = DetectorParams(n_samples=100, noise_power=1.0, target_pfa=0.1).calibrated()
        rng = np.random.default_rng(6)
        pds = []
        for snr_db in (-10.0, 0.0, 10.0):
            stats = energy_statistic(10 ** (snr_db / 10), params, rng, size=20_000)
            pds.append(np.mean(stats >= params.threshold))
        # Pd saturates to 1 above 0 dB at this window length
        assert pds[0] < pds[1] <= pds[2]
        assert pds[0] < 0.7 and pds[2] == 1.0


class TestClassification:
    def test_truth_table(self):
        V, O = ChannelState.VACANT, ChannelState.OCCUPIED
        assert classify_outcome(V, V) is Classification.CORRECT_DETECTION
        assert classify_outcome(O, O) is Classification.CORRECT_DETECTION
        assert classify_outcome(O, V) is Classification.FALSE_ALARM
        assert classify_outcome(V, O) is Classification.MISDETECTION

    def test_every_pair_maps_to_exactly_one_class(self):
        for decision in ChannelState:
            for truth in ChannelState:
                assert classify_outcome(decision, truth) in Classification

    def test_outcome_property_agrees(self):
        """The vectorised block classification equals classify_outcome for
        every (decision, truth) pair."""
        pairs = [(d, t) for d in ChannelState for t in ChannelState]
        occupied = np.array([d is ChannelState.OCCUPIED for d, _ in pairs])
        truth = np.array([t is ChannelState.OCCUPIED for _, t in pairs])
        got = [CLASSES[i] for i in classify_block(occupied, truth)]
        assert got == [classify_outcome(d, t) for d, t in pairs]
        assert classify_block(np.array([False]), np.array([True]))[0] == \
            CLASSES.index(Classification.MISDETECTION)


def test_raising_threshold_never_adds_false_alarms():
    # fixed recorded statistic stream, swept threshold
    rng = np.random.default_rng(11)
    params = DetectorParams(n_samples=100, noise_power=1.0)
    vacant_stats = energy_statistic(0.0, params, rng, size=20_000)
    occupied_stats = energy_statistic(2.0, params, rng, size=20_000)
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
        cmap = ChannelMap(default_config.n_channels)
        for channel_id in (100, -1):
            with pytest.raises(ValueError):
                self._sense(default_config, cmap, 0.0, channel_id, StreamBundle(0))

    def test_vacant_channel_outcomes_mostly_correct(self, default_config):
        cmap = ChannelMap(default_config.n_channels)
        streams = StreamBundle(1)
        classes = []
        for _ in range(300):
            block = self._sense(default_config, cmap, 500.0, 3, streams)
            classes.append(CLASSES[classify_block(block.occupied, block.truth)[0]])
        fa = sum(c is Classification.FALSE_ALARM for c in classes)
        assert all(c is not Classification.MISDETECTION for c in classes)
        assert 0 < fa < 80  # ~10% of 300

    def test_pu_active_channel_detected(self, default_config):
        cmap = ChannelMap(default_config.n_channels)
        cmap.pu_active[3] = True
        streams = StreamBundle(2)
        blocks = [self._sense(default_config, cmap, 500.0, 3, streams) for _ in range(200)]
        assert all(b.truth[0] for b in blocks)
        detected = sum(bool(b.occupied[0]) for b in blocks)
        assert detected > 190  # strong median SNR; misses need deep fades

    def test_su_holder_in_range_is_occupied_truth(self, default_config):
        cmap = ChannelMap(default_config.n_channels)
        cmap.set_holder(7, vehicle_id=4, position=600.0)
        streams = StreamBundle(3)
        near = self._sense(default_config, cmap, 500.0, 7, streams)
        assert near.truth[0]
        far = self._sense(default_config, cmap, 1500.0, 7, streams)
        assert not far.truth[0]

    def test_decision_iff_statistic_crosses_threshold(self, default_config):
        cmap = ChannelMap(default_config.n_channels)
        streams = StreamBundle(4)
        for _ in range(50):
            b = self._sense(default_config, cmap, 800.0, 11, streams)
            assert b.occupied[0] == (b.statistic[0] >= b.threshold)


def test_threshold_for_is_cached_and_exact(default_config, monkeypatch):
    sensor = ChannelSensor(default_config)
    uncached = detection_threshold(DetectorParams(
        n_samples=default_config.sensing_samples, noise_power=1.0,
        target_pfa=block_pfa(default_config.target_pfa, 2),
    ))
    calls = []
    isf = crvanet.sensing.norm.isf

    class _CountingNorm:
        @staticmethod
        def isf(q):
            calls.append(q)
            return isf(q)

    monkeypatch.setattr(crvanet.sensing, "norm", _CountingNorm)
    assert sensor.threshold_for(2) == uncached
    assert sensor.threshold_for(2) == uncached
    assert len(calls) == 1
    assert sensor.threshold_for(1) == sensor.detector.threshold
    assert len(calls) == 1


def test_two_block_sense_keeps_target_pfa(default_config):
    """Max-hold over two fading blocks with the compensated per-block
    threshold must still false-alarm at ~targetPfa on vacant channels."""
    sensor = ChannelSensor(default_config)
    cmap = ChannelMap(default_config.n_channels)
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
        cmap = ChannelMap(config.n_channels)
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

    def test_unknown_channel_rejected_in_grid(self, default_config):
        sensor = ChannelSensor(default_config)
        cmap = ChannelMap(default_config.n_channels)
        for channel_id in (100, -1):
            channels = np.array([[0, 1], [2, channel_id]])
            with pytest.raises(ValueError):
                sensor.sense_block(self.OBSERVERS[:2], self.POSITIONS[:2], channels, cmap,
                                   0.0, StreamBundle(0))


class TestMedianPuSnr:
    def test_equals_hata_suburban_exactly(self, default_config):
        cfg = default_config
        sensor = ChannelSensor(cfg)
        towers = sensor.towers + [TowerGeometry(2, along_road=0.0, offset=1500.0,
                                                first_channel=0, n_channels=1)]
        for tower in towers:
            for position in np.linspace(0.0, cfg.road_length, 81).tolist():
                loss = hata_suburban_loss(cfg.frequency, cfg.base_station_height,
                                          cfg.mobile_height, tower.distance_to(position) / 1000.0)
                expected = 10 ** ((cfg.tx_power_pu - loss - sensor.noise_dbw) / 10)
                assert sensor.median_pu_snr(tower, position) == expected

    def test_out_of_range_inputs_raise(self, default_config):
        near = [TowerGeometry(t, along_road=1000.0, offset=100.0, first_channel=50 * t,
                              n_channels=50) for t in range(2)]
        sensor = ChannelSensor(default_config, towers=near)
        with pytest.raises(PropagationDomainError):
            sensor.median_pu_snr(near[0], 1000.0)   # 0.1 km
        with pytest.raises(PropagationDomainError):
            sensor.sense_block(0, 1000.0, np.arange(3), ChannelMap(default_config.n_channels),
                               0.0, StreamBundle(0))
        with pytest.raises(PropagationDomainError):
            ChannelSensor(replace(default_config, frequency=2000.0))
