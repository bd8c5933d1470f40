import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
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


def _max_hold(sensor, observers, positions, channels, cmap, streams, blocks):
    """A call over `blocks` fading blocks as `blocks` consecutive 1-block
    calls on the same streams: the max-hold of their statistics, decided
    against the per-block threshold (one block: the call itself)."""
    calls = [sensor.sense_block(observers, positions, channels, cmap, streams)
             for _ in range(blocks)]
    if blocks == 1:
        return calls[0]
    statistic = np.maximum.reduce([call.statistic for call in calls])
    return SenseBlock(calls[0].channel_ids, statistic >= sensor.threshold_for(blocks),
                      calls[0].truth, statistic)


def _assert_listed_equals(got, expected):
    """A list call's field equals an array row bit for bit: a list of
    Python scalars, never an ndarray or numpy scalars."""
    assert type(got) is list
    assert {type(x) for x in got} <= {bool, float}
    as_array = np.array(got, dtype=expected.dtype)
    assert as_array.shape == expected.shape and as_array.tobytes() == expected.tobytes()


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
        statistics = np.concatenate([b.statistic for b in blocks], axis=None)
        np.testing.assert_array_equal(occupied, statistics >= sensor.threshold_for(1))


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
            np.array([0]), np.array([500.0]), np.array([[0, 1, 2]]), cmap,
            _streams(default_config, 4))
        assert block.statistic.shape == (1, 3)
        assert block.truth.tolist() == [[False, True, True]]

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
        """As arrays, and pair by pair as Python bools (the listed route),
        where each class is a plain int equal to the array form's."""
        occupied, truth = np.array(self.PAIRS).T
        indices = classify_block(occupied, truth)
        assert [CLASSES[i] for i in indices] == [
            "correctDetection", "correctDetection", "falseAlarm", "misdetection"]
        pairwise = [classify_block(o, t) for o, t in self.PAIRS]
        assert [type(i) for i in pairwise] == [int] * 4
        assert pairwise == indices.tolist()

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
        sensor = ChannelSensor(weak)
        block = sensor.sense_block(np.arange(50), np.linspace(0.0, 2000.0, 50), sensor.band,
                                   cmap, _streams(default_config, 12))
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
    """Sensing one channel at a time through ChannelSensor.sense_block, as a
    list: the route attempts take."""

    def _sense(self, config, cmap, position, channel_id, streams):
        block = ChannelSensor(config).sense_block(0, position, [channel_id], cmap, streams)
        assert block.channel_ids == [channel_id]
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
            classes.append(CLASSES[classify_block(np.array(block.occupied),
                                                  np.array(block.truth))[0]])
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
        """A 1-block call is decided against threshold_for(1), and the listed
        2-block call's max-hold statistic against threshold_for(2); some
        2-block statistics fall between the two thresholds."""
        sensor = ChannelSensor(default_config)
        one, two = sensor.threshold_for(1), sensor.threshold_for(2)
        cmap = ChannelMap(default_config.n_channels, default_config.n_vehicles)
        streams = _streams(default_config, 4)
        for _ in range(50):
            b = self._sense(default_config, cmap, 800.0, 11, streams)
            assert b.occupied[0] == (b.statistic[0] >= one)
        between = 0
        for _ in range(100):
            b = sensor.sense_block(0, 800.0, [11], cmap, streams, blocks=2)
            assert b.occupied[0] == (b.statistic[0] >= two)
            between += one <= b.statistic[0] < two
        assert between > 0


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
        block = sensor.sense_block(0, 500.0, [2], cmap, streams, blocks=2)
        hits += bool(block.occupied[0])
    assert hits / n == pytest.approx(0.1, abs=0.02)


def test_blocks_is_keyword_only(default_config):
    """A positional blocks is refused: callers and tracers find it by name."""
    sensor = ChannelSensor(default_config)
    cmap = ChannelMap(default_config.n_channels, default_config.n_vehicles)
    with pytest.raises(TypeError):
        sensor.sense_block(0, 500.0, [2], cmap, _streams(default_config, 0), 2)


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
        # PU-idle channel 2's SU sits exactly sensingRange from observer 0
        cmap.set_holder(2, 7, 480.0 + config.sensing_range)
        return cmap

    @pytest.mark.parametrize("blocks", [1, 2])
    @pytest.mark.parametrize("shared", [True, False], ids=["shared-channels", "grid"])
    def test_batch_equals_single_calls(self, default_config, blocks, shared):
        """Each row equals the observer's own list call and, on the band,
        byte for byte the band at that observer alone (1-D arrays). Over 2
        blocks, each array call is the max-hold of two consecutive 1-block
        calls, as array calls sense one block per call."""
        sensor = ChannelSensor(default_config)
        cmap = self._channel_map(default_config)
        channels = sensor.band if shared else self.GRID
        batched, single, own = (_streams(default_config, 5) for _ in range(3))
        block = _max_hold(sensor, self.OBSERVERS, self.POSITIONS, channels, cmap, batched, blocks)
        assert block.occupied.shape == (len(self.OBSERVERS), channels.shape[-1])
        dtypes = (block.occupied.dtype, block.truth.dtype, block.statistic.dtype)
        assert dtypes == (bool, bool, float)
        rows = [channels] * len(self.OBSERVERS) if shared else channels
        # an SU exactly sensingRange away is in range: on the band, in this
        # call's row of observer 0, and (as the rows are equal) in its list call
        band = sensor.sense_block(0, 480.0, sensor.band, cmap, _streams(default_config, 6))
        assert band.truth[2] and block.truth[1, rows[1].tolist().index(2)]
        for r, (observer, position, ids) in enumerate(
                zip(self.OBSERVERS.tolist(), self.POSITIONS.tolist(), rows)):
            alone = sensor.sense_block(observer, position, ids.tolist(), cmap, single,
                                       blocks=blocks)
            np.testing.assert_array_equal(block.occupied[r], alone.occupied)
            np.testing.assert_array_equal(block.truth[r], alone.truth)
            np.testing.assert_array_equal(block.statistic[r], alone.statistic)
            if shared:
                on_band = _max_hold(sensor, observer, position, channels, cmap, own, blocks)
                for field in ("occupied", "truth", "statistic"):
                    e, g = getattr(block, field)[r], getattr(on_band, field)
                    assert g.dtype == e.dtype and g.shape == e.shape and g.tobytes() == e.tobytes()
        # every generator was left in the same state
        for other in (single, own) if shared else (single,):
            for a, b in zip(batched.fading + [batched.sensing], other.fading + [other.sensing]):
                assert [g.bit_generator.state for g in a] == [g.bit_generator.state for g in b]

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
    def test_short_calls_equal_batched_rows(self, default_config, width, blocks):
        """Single-observer calls over a list of channels, however many, take
        the Python-float path and return lists; each equals its row of the
        batched array path (over 2 blocks, the max-hold of two consecutive
        batched calls) bit for bit, and leaves every generator in the same
        state. Under the default two towers and under four, where each row
        spans more than two towers' fading streams."""
        four_towers = replace(default_config, n_pu_towers=4).validate()
        for config in (default_config, four_towers):
            self._check_short_calls(config, width, blocks)

    def _check_short_calls(self, config, width, blocks):
        sensor = ChannelSensor(config)
        cmap = self._channel_map(config)
        grid = self._short_grid(width)
        holders = cmap.su_holder[grid] >= 0
        distance = np.abs(cmap.su_holder_pos[grid] - self.POSITIONS[:, None])
        in_range = distance <= config.sensing_range
        assert (holders & in_range).any() and (holders & ~in_range).any()
        batched, single = _streams(config, 5), _streams(config, 5)
        block = _max_hold(sensor, self.OBSERVERS, self.POSITIONS, grid, cmap, batched,
                          blocks)
        for r, (observer, position) in enumerate(
                zip(self.OBSERVERS.tolist(), self.POSITIONS.tolist())):
            alone = sensor.sense_block(observer, position, grid[r].tolist(), cmap, single,
                                       blocks=blocks)
            assert alone.channel_ids == grid[r].tolist()
            for field in ("occupied", "truth", "statistic"):
                _assert_listed_equals(getattr(alone, field), getattr(block, field)[r])
        for observer in self.OBSERVERS.tolist():
            for tower in range(config.n_pu_towers):
                assert (batched.fading[tower][observer].bit_generator.state
                        == single.fading[tower][observer].bit_generator.state)
            assert (batched.sensing[observer].bit_generator.state
                    == single.sensing[observer].bit_generator.state)

    @pytest.mark.parametrize("blocks", [2, 3])
    def test_listed_blocks_are_consecutive_single_blocks(self, default_config, blocks):
        """One observer's list call over several blocks equals, byte for
        byte, the max-hold of as many consecutive 1-block calls of its ids
        as a one-row grid on a twin bundle, and leaves every generator in
        the same state."""
        sensor = ChannelSensor(default_config)
        cmap = self._channel_map(default_config)
        many, one = _streams(default_config, 8), _streams(default_config, 8)
        for observer, position, ids in zip(self.OBSERVERS.tolist(), self.POSITIONS.tolist(),
                                           self._short_grid(30)):
            got = sensor.sense_block(observer, position, ids.tolist(), cmap, many,
                                     blocks=blocks)
            expected = _max_hold(sensor, np.array([observer]), np.array([position]), ids[None],
                                 cmap, one, blocks)
            for field in ("occupied", "truth", "statistic"):
                _assert_listed_equals(getattr(got, field), getattr(expected, field)[0])
        for a, b in zip(many.fading + [many.sensing], one.fading + [one.sensing]):
            assert [g.bit_generator.state for g in a] == [g.bit_generator.state for g in b]

    def test_su_holder_at_sensing_range_is_in_range(self, default_config):
        """An SU exactly sensingRange from the observer makes its channel
        truly occupied on every route, and one just beyond does not."""
        sensor = ChannelSensor(default_config)
        cmap = self._channel_map(default_config)
        streams = _streams(default_config, 0)
        assert not cmap.pu_active[2]
        for position, in_range in ((480.0, True), (479.0, False)):
            positions = np.array([120.0, position, 1010.5, 1990.0])   # observer 0 second
            assert sensor.sense_block(0, position, [2], cmap, streams).truth == [in_range]
            assert sensor.sense_block(0, position, [2], cmap, streams,
                                      blocks=2).truth == [in_range]
            assert sensor.sense_block(0, position, sensor.band, cmap, streams).truth[2] == in_range
            assert sensor.sense_block(self.OBSERVERS, positions, sensor.band, cmap,
                                      streams).truth[1, 2] == in_range
            assert sensor.sense_block(self.OBSERVERS, positions, self.GRID, cmap,
                                      streams).truth[1, 3] == in_range   # GRID[1, 3] is 2

    def test_band_and_grid_calls_sense_one_block(self, default_config):
        """Only one observer's list of channels takes several blocks: a call
        with an array of ids (the band at one observer or several, a grid)
        over 2 blocks is rejected by name before any draw."""
        sensor = ChannelSensor(default_config)
        cmap = self._channel_map(default_config)
        calls = [(0, 500.0, sensor.band), (self.OBSERVERS, self.POSITIONS, sensor.band),
                 (self.OBSERVERS, self.POSITIONS, self.GRID)]
        for observers, positions, channels in calls:
            streams, fresh = _streams(default_config, 0), _streams(default_config, 0)
            with pytest.raises(ValueError, match="sense one block, got blocks=2"):
                sensor.sense_block(observers, positions, channels, cmap, streams, blocks=2)
            for a, b in zip(streams.fading + [streams.sensing], fresh.fading + [fresh.sensing]):
                assert [g.bit_generator.state for g in a] == [g.bit_generator.state for g in b]

    def test_repeated_observer_rejected(self, default_config):
        sensor = ChannelSensor(default_config)
        cmap = ChannelMap(default_config.n_channels, default_config.n_vehicles)
        with pytest.raises(ValueError, match="distinct observers"):
            sensor.sense_block(np.array([3, 5, 3]), np.array([0.0, 1.0, 2.0]), sensor.band,
                               cmap, _streams(default_config, 0))

    @pytest.mark.parametrize("channel_id", [100, -1])
    def test_unknown_channel_rejected_in_short_call(self, default_config, channel_id):
        """As one observer's list, or as its one-row grid."""
        sensor = ChannelSensor(default_config)
        cmap = ChannelMap(default_config.n_channels, default_config.n_vehicles)
        for observer, position, channels in ((0, 500.0, [2, channel_id]),
                                             ([0], [500.0], np.array([[2, channel_id]]))):
            with pytest.raises(ValueError, match="unknown channel"):
                sensor.sense_block(observer, position, channels, cmap,
                                   _streams(default_config, 0))

    def test_unknown_channel_rejected_in_grid(self, default_config):
        sensor = ChannelSensor(default_config)
        cmap = ChannelMap(default_config.n_channels, default_config.n_vehicles)
        for channel_id in (100, -1):
            channels = np.array([[0, 1], [2, channel_id]])
            with pytest.raises(ValueError):
                sensor.sense_block(self.OBSERVERS[:2], self.POSITIONS[:2], channels, cmap,
                                   _streams(default_config, 0))

    @pytest.mark.parametrize("observers, positions, channels, shape", [
        (0, 500.0, np.array([2, 60]), r"\(2,\) for 1 observer"),
        (0, 500.0, np.array([], dtype=int), r"\(0,\) for 1 observer"),
        (OBSERVERS, POSITIONS, np.arange(4), r"\(4,\) for 4 observer"),
        (OBSERVERS, POSITIONS, GRID[:3], r"\(3, 5\) for 4 observer"),
        (OBSERVERS, POSITIONS, np.empty((4, 0), dtype=int), r"\(4, 0\) for 4 observer"),
        (0, 500.0, np.array(0), r"\(\) for 1 observer"),
        (0, 500.0, np.arange(4).reshape(2, 2), r"\(2, 2\) for 1 observer"),
        (0, 500.0, np.arange(20).reshape(1, 20), r"\(1, 20\) for 1 observer"),
        (0, 500.0, np.arange(40).reshape(2, 20), r"\(2, 20\) for 1 observer"),
        (0, 500.0, np.arange(21).reshape(21, 1), r"\(21, 1\) for 1 observer"),
    ], ids=["one-observer-array", "one-observer-empty", "shared-row", "rows-unlike-observers",
            "no-columns", "one-observer-bare-id", "one-observer-grid", "one-observer-one-row",
            "one-observer-two-rows", "one-observer-column"])
    def test_shapes_no_scheme_sends_rejected(self, default_config, observers, positions,
                                             channels, shape):
        """An array of ids is the band or one row of k >= 1 ids per
        observer: any other shape (one observer's array, empty or not, its
        bare id or a grid of any size, a row shared by several, a grid
        whose rows are not one per observer, a grid of no columns) is
        rejected by its shape before any draw."""
        sensor = ChannelSensor(default_config)
        cmap = self._channel_map(default_config)
        streams, fresh = _streams(default_config, 0), _streams(default_config, 0)
        with pytest.raises(ValueError, match=rf"channel_ids of shape {shape}"):
            sensor.sense_block(observers, positions, channels, cmap, streams)
        for a, b in zip(streams.fading + [streams.sensing], fresh.fading + [fresh.sensing]):
            assert [g.bit_generator.state for g in a] == [g.bit_generator.state for g in b]


class TestBandPath:
    """sense_block over the sensor's read-only band takes the map whole and
    the stored tower runs; its results equal every other route's in
    test_batch_equals_single_calls and the reference engine's."""

    @pytest.mark.parametrize("observers, positions", [
        (3, 700.0), (np.array([3, 0, 9]), np.array([700.0, 10.0, 1500.0]))],
        ids=["one-observer", "three-observers"])
    def test_results_never_alias_the_map(self, default_config, observers, positions):
        """A band call leaves the map as it was, returns the band itself as
        its channel_ids and new arrays that no later change of the map
        reaches."""
        sensor = ChannelSensor(default_config)
        cmap = TestBatchedSenseBlock._channel_map(default_config)
        cmap.set_holder(10, 3, 690.0)   # an SU in range of observer 3
        before = [a.copy() for a in (cmap.pu_active, cmap.su_holder, cmap.su_holder_pos)]
        block = sensor.sense_block(observers, positions, sensor.band, cmap,
                                   _streams(default_config, 2))
        assert block.channel_ids is sensor.band
        for a, b in zip(before, (cmap.pu_active, cmap.su_holder, cmap.su_holder_pos)):
            np.testing.assert_array_equal(a, b)   # the map untouched
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
            sensor.sense_block(0, 500.0, sensor.band, cmap, _streams(default_config, 0))

    @pytest.mark.parametrize("map_channels", [30, 5])
    def test_short_band_against_a_map_of_another_size_rejected(self, map_channels):
        """A one-observer band of 10 channels fails as every band call does,
        naming both sizes, rather than sensing 10 channels."""
        config = replace(ScenarioConfig(), n_channels=10, n_pu_towers=2).validate()
        sensor = ChannelSensor(config)
        cmap = ChannelMap(map_channels, config.n_vehicles)
        with pytest.raises(ValueError,
                           match=rf"channel map of {map_channels} channels for a band of 10$"):
            sensor.sense_block(0, 500.0, sensor.band, cmap, _streams(config, 0))


def test_channel_plan_splits_the_band_evenly():
    """Three towers over 12 channels: tower t owns channels 4t to 4t + 3."""
    sensor = ChannelSensor(replace(ScenarioConfig(), n_channels=12, n_pu_towers=3).validate())
    assert sensor.per_tower == 4


@st.composite
def hata_geometries(draw):
    """A scenario whose Hata inputs are drawn inside the model's ranges: the
    carrier frequency, both antenna heights, and a road whose towers stand
    1-20 km from every point of it."""
    offset = draw(st.floats(1000.0, 19_999.0), label="towerOffset")
    half = draw(st.floats(1.0, math.sqrt(20_000.0 ** 2 - offset ** 2) - 1.0), label="half road")
    return replace(ScenarioConfig(), road_length=2.0 * half, tower_offset=offset,
                   frequency=draw(st.floats(150.0, 1500.0), label="frequency"),
                   base_station_height=draw(st.floats(30.0, 200.0), label="baseStationHeight"),
                   mobile_height=draw(st.floats(1.0, 10.0), label="mobileHeight")).validate()


class TestMedianPuSnr:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(hata_geometries())
    @example(ScenarioConfig())
    def test_equals_hata_suburban_exactly(self, cfg):
        """Every tower stands towerOffset from the road midpoint, so the
        median SNR at a position is the Hata loss at that one distance: bit
        for bit, at 81 positions from end to end of the default road and of
        drawn roads, towers and Hata inputs."""
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
        for k in (3, 21, None):
            listed = sensor.band if k is None else list(range(k))
            with pytest.raises(PropagationDomainError):
                sensor.sense_block(0, 1000.0, listed, cmap, _streams(default_config, 0))
            # an observer array, with the out-of-range observer second
            grid = sensor.band if k is None else np.tile(np.arange(k), (2, 1))
            with pytest.raises(PropagationDomainError):
                sensor.sense_block(np.array([0, 1]), np.array([0.0, 1000.0]), grid, cmap,
                                   _streams(default_config, 0))
        with pytest.raises(PropagationDomainError):
            ChannelSensor(replace(default_config, frequency=2000.0))
