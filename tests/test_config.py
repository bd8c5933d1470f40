import math

import pytest

from crvanet.config import (
    ScenarioConfig,
    ScenarioParseError,
    ScenarioValidationError,
    Scheme,
    load_scenario,
    num_time_slices,
)


def test_empty_overrides_give_defaults():
    cfg = load_scenario("")
    assert cfg.n_channels == 100
    assert cfg.n_vehicles == 50
    assert cfg.road_length == 2000.0
    assert cfg.frequency == 150.0
    assert cfg.sensing_range == 400.0
    assert cfg.comm_range == 240.0
    assert cfg.noise_temperature == 500.0
    assert cfg.channel_bandwidth == 7e6
    assert cfg.back_off_time == 0.010
    assert cfg.coordination_interval == 0.020
    assert cfg.human_error_min == 0.25
    assert cfg.human_error_max == 0.4
    assert cfg.reaction_time == 1.0
    assert cfg.avg_speed == pytest.approx(100 / 3.6)


def test_comments_and_blank_lines_ignored():
    cfg = load_scenario("# a comment\n\nnVehicles = 10  # trailing\n")
    assert cfg.n_vehicles == 10


def test_speed_unit_conversion():
    cfg = load_scenario("avgSpeed = 100 km/h")
    assert cfg.avg_speed == pytest.approx(27.7778, abs=1e-3)


def test_distance_and_time_units():
    cfg = load_scenario("roadLength = 2 km\nbackOffTime = 10 ms\nchannelBandwidth = 7 MHz")
    assert cfg.road_length == 2000.0
    assert cfg.back_off_time == pytest.approx(0.010)
    assert cfg.channel_bandwidth == 7e6


def test_scheme_parse():
    assert load_scenario("scheme = standalone").scheme is Scheme.STANDALONE
    assert load_scenario("scheme = Cooperative").scheme is Scheme.COOPERATIVE


def test_unknown_key_rejected_with_line_number():
    with pytest.raises(ScenarioParseError) as err:
        load_scenario("nVehicles = 10\nbogusKey = 3\n")
    assert "line 2" in str(err.value)
    assert "bogusKey" in str(err.value)


def test_su_transmit_power_key_rejected():
    # SUs are sensed at a flat SNR, so an SU transmit power would change nothing
    with pytest.raises(ScenarioParseError) as err:
        load_scenario("nVehicles = 10\n# SU power\ntxPowerSu = 10 dBW\n")
    assert "line 3" in str(err.value)
    assert "txPowerSu" in str(err.value)


def test_decel_factor_accepted_and_recorded():
    assert load_scenario("decelFactor = 1.5").decel_factor == 1.5


def test_bad_number_rejected():
    with pytest.raises(ScenarioParseError) as err:
        load_scenario("nVehicles = lots")
    assert "line 1" in str(err.value)


def test_duplicate_key_rejected():
    with pytest.raises(ScenarioParseError):
        load_scenario("seed = 1\nseed = 2")


def test_channel_tower_mismatch_is_validation_error():
    with pytest.raises(ScenarioValidationError) as err:
        load_scenario("nChannels = 99\nchannelsPerTower = 50\nnPuTowers = 2")
    assert "nChannels" in str(err.value)
    assert "99" in str(err.value)


def test_target_pfa_bounds():
    with pytest.raises(ScenarioValidationError):
        load_scenario("targetPfa = 1.0")
    with pytest.raises(ScenarioValidationError):
        load_scenario("targetPfa = 0")


def test_sensing_range_must_cover_comm_range():
    with pytest.raises(ScenarioValidationError) as err:
        load_scenario("sensingRange = 100\ncommRange = 240")
    assert "sensingRange" in str(err.value)


def test_timestep_invariants():
    with pytest.raises(ScenarioValidationError):
        load_scenario("timeStep = 0")
    with pytest.raises(ScenarioValidationError):
        load_scenario("runningTime = 0.0005\ntimeStep = 0.001")


def test_short_sensing_window_rejected():
    # the Gaussian threshold approximation needs N >= 50
    with pytest.raises(ScenarioValidationError, match="sensingSamples >= 50 violated"):
        load_scenario("sensingSamples = 20")
    assert load_scenario("sensingSamples = 50").sensing_samples == 50


def test_negative_mean_rejected():
    with pytest.raises(ScenarioValidationError):
        load_scenario("puHoldMean = -5 ms")


class TestNumTimeSlices:
    def test_exact_division(self):
        assert num_time_slices(1.0, 0.001) == 1000

    def test_single_slice(self):
        assert num_time_slices(1.0, 1.0) == 1

    def test_floor_semantics(self):
        assert num_time_slices(0.0105, 0.001) == 10

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            num_time_slices(0.0, 0.001)
        with pytest.raises(ValueError):
            num_time_slices(1.0, -1.0)

    def test_no_float_drift_for_common_steps(self):
        for n in (10, 100, 1000, 10000, 60000):
            assert num_time_slices(n * 0.001, 0.001) == n
