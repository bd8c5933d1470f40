import math
import re
from dataclasses import fields, replace
from pathlib import Path

import pytest

from crvanet.config import (
    ScenarioConfig,
    ScenarioError,
    ScenarioParseError,
    ScenarioValidationError,
    Scheme,
    load_scenario,
    load_scenario_file,
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


def test_decel_factor_key_rejected():
    # braking uses a fixed comfortable deceleration, so a factor would change nothing
    with pytest.raises(ScenarioParseError) as err:
        load_scenario("nVehicles = 10\ndecelFactor = 1.5\n")
    assert "line 2" in str(err.value)
    assert "decelFactor" in str(err.value)


def test_bad_number_rejected():
    with pytest.raises(ScenarioParseError) as err:
        load_scenario("nVehicles = lots")
    assert "line 1" in str(err.value)


@pytest.mark.parametrize("text, line", [("nVehicles =", 1),
                                        ("seed = 1\nroadLength =   # m\n", 2), ("scheme =", 1)])
def test_empty_value_rejected_with_line_number(text, line):
    with pytest.raises(ScenarioParseError, match=f"^line {line}: "):
        load_scenario(text)


def test_non_utf8_file_rejected_naming_file_and_byte(tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes("seed = 1\n# caf\u00e9\n".encode("latin-1"))
    with pytest.raises(ScenarioError, match=re.escape(f"{path}: not UTF-8 text at byte 14")):
        load_scenario_file(str(path))


def test_duplicate_key_rejected():
    with pytest.raises(ScenarioParseError):
        load_scenario("seed = 1\nseed = 2")


def test_channel_tower_mismatch_is_validation_error():
    with pytest.raises(ScenarioValidationError) as err:
        load_scenario("nChannels = 99\nnPuTowers = 2")
    assert "nChannels" in str(err.value)
    assert "99" in str(err.value)


@pytest.mark.parametrize("text, named", [
    ("nChannels = 101\nnPuTowers = 2",
     "nChannels % nPuTowers == 0 violated (101 channels over 2 towers)"),
    ("nChannels = 1\nnPuTowers = 2", "nChannels >= nPuTowers violated (1 < 2)"),
    ("nPuTowers = 0", "nPuTowers >= 1 violated"),
    ("nChannels = 0\nnPuTowers = 0", "nPuTowers >= 1 violated"),
])
def test_channel_plan_violation_names_its_keys(text, named):
    """The towers must split the channels evenly; each violation is a named
    validation error, never a ZeroDivisionError from the split."""
    with pytest.raises(ScenarioValidationError, match=f"^{re.escape(named)}$"):
        load_scenario(text)


@pytest.mark.parametrize("text, named", [
    ("frequency = 100 MHz", "frequency = 100 MHz outside Hata validity [150, 1500] MHz"),
    ("frequency = 2 GHz", "frequency = 2000 MHz outside Hata validity [150, 1500] MHz"),
    ("baseStationHeight = 20 m", "baseStationHeight = 20 m outside Hata validity [30, 200] m"),
    ("mobileHeight = 12 m", "mobileHeight = 12 m outside Hata validity [1, 10] m"),
    # the model's inputs are checked before the towers' distances
    ("towerOffset = 500 m\nroadLength = 60 km\nfrequency = 100 MHz",
     "frequency = 100 MHz outside Hata validity [150, 1500] MHz"),
    # the towers too near the road's midpoint, then too far from its ends
    ("towerOffset = 500 m\nroadLength = 60 km",
     "distance = 0.5 km outside Hata validity [1, 20] km at towerOffset = 500 m, "
     "roadLength = 60000 m"),
    ("towerOffset = 19.99 km\nroadLength = 10 km",
     "distance = 20.6058 km outside Hata validity [1, 20] km at towerOffset = 19990 m, "
     "roadLength = 10000 m"),
])
def test_hata_domain_violation_names_its_keys(text, named):
    """A scenario outside Hata's ranges fails validation, naming the keys,
    instead of failing its first run inside the propagation model."""
    with pytest.raises(ScenarioValidationError, match=f"^{re.escape(named)}$"):
        load_scenario(text)


@pytest.mark.parametrize("text", [
    "towerOffset = 1 km",                       # 1 km from the midpoint
    "towerOffset = 16 km\nroadLength = 24 km",  # 20 km from the ends
    "frequency = 1500 MHz\nbaseStationHeight = 30 m\nmobileHeight = 10 m",
])
def test_hata_domain_edges_load(text):
    load_scenario(text)


def test_readme_scenario_example_loads():
    """README's one ini scenario example loads, and holds the defaults its
    comment says it holds, so a retired or renamed key in it fails here."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    examples = re.findall(r"```ini\n(.*?)```", readme, re.S)
    assert len(examples) == 1 and "comparative-study defaults" in examples[0]
    assert load_scenario(examples[0]) == ScenarioConfig()


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


def test_negative_seed_rejected():
    # the random streams are seeded from a SeedSequence, which needs seed >= 0
    with pytest.raises(ScenarioValidationError, match="seed >= 0 violated"):
        load_scenario("seed = -3")
    assert load_scenario("seed = 0").seed == 0


def test_negative_mean_rejected():
    with pytest.raises(ScenarioValidationError):
        load_scenario("puHoldMean = -5 ms")


@pytest.mark.parametrize("text, line", [
    ("seed = inf", 1),                        # int(inf) overflowed before
    ("nVehicles = 10\npuHoldMean = nan", 2),  # nan <= 0 is false, so it ran
    ("runningTime = inf", 1),                 # loaded, then failed as a run
    ("runningTime = -inf s", 1),
    ("runningTime = 1e307 min", 1),           # finite text, infinite in seconds
])
def test_non_finite_number_rejected_with_line_number(text, line):
    with pytest.raises(ScenarioParseError, match=f"^line {line}: .* is not a finite number"):
        load_scenario(text)


@pytest.mark.parametrize("field, key", [("seed", "seed"), ("pu_hold_mean", "puHoldMean"),
                                        ("running_time", "runningTime"),
                                        ("time_step", "timeStep"), ("tx_power_pu", "txPowerPu")])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_field_rejected_naming_key(field, key, value):
    with pytest.raises(ScenarioValidationError, match=f"^{key} is not finite$"):
        replace(ScenarioConfig(), **{field: value}).validate()


ALL_KEYS_TEXT = """
runningTime = 2000 ms
timeStep = 500 us
roadLength = 3 km
nVehicles = 20
nChannels = 60
nPuTowers = 3
towerOffset = 8 km
frequency = 0.2 GHz
baseStationHeight = 4000 cm
mobileHeight = 2 m
sensingRange = 0.5 km
commRange = 300 m
txPowerPu = 20 dBW
noiseTemperature = 300 K
channelBandwidth = 5 MHz
avgSpeed = 90 km/h
fleetSpeedSpread = 0.3
perVehicleSpeedDeviation = 0.05
reactionTime = 0.025 min
humanErrorMin = 0.2
humanErrorMax = 0.5
backOffTime = 20 ms
coordinationInterval = 40 ms
targetPfa = 0.05
scheme = cooperative
puHoldMean = 30 ms
puGapMean = 40 ms
suHoldMean = 50 ms
suGapMean = 0.1 s
sensingSamples = 200
seed = 7
"""


def test_every_key_loads_into_its_field():
    # names each field, so renaming one (and with it its file key) fails here
    expected = ScenarioConfig(
        running_time=2.0, time_step=0.0005, road_length=3000.0, n_vehicles=20, n_channels=60,
        n_pu_towers=3, tower_offset=8000.0, frequency=200.0,
        base_station_height=40.0, mobile_height=2.0, sensing_range=500.0, comm_range=300.0,
        tx_power_pu=20.0, noise_temperature=300.0, channel_bandwidth=5e6, avg_speed=25.0,
        fleet_speed_spread=0.3, per_vehicle_speed_deviation=0.05, reaction_time=1.5,
        human_error_min=0.2, human_error_max=0.5, back_off_time=0.02,
        coordination_interval=0.04, target_pfa=0.05, scheme=Scheme.COOPERATIVE,
        pu_hold_mean=0.03, pu_gap_mean=0.04, su_hold_mean=0.05, su_gap_mean=0.1,
        sensing_samples=200, seed=7,
    )
    assert len(ALL_KEYS_TEXT.split("=")) - 1 == len(fields(ScenarioConfig)) == 31
    assert all(getattr(expected, f.name) != f.default for f in fields(ScenarioConfig))
    assert load_scenario(ALL_KEYS_TEXT) == expected


@pytest.mark.parametrize("text, fields_set", [
    ("fleetSpeedSpread = 0", {"fleet_speed_spread": 0.0}),
    ("perVehicleSpeedDeviation = 0", {"per_vehicle_speed_deviation": 0.0}),
    ("humanErrorMin = 0\nhumanErrorMax = 0", {"human_error_min": 0.0, "human_error_max": 0.0}),
    ("txPowerPu = -10 dBW", {"tx_power_pu": -10.0}),
    ("txPowerPu = 0 dBW", {"tx_power_pu": 0.0}),
    ("nVehicles = 0", {"n_vehicles": 0}),
    ("seed = 0", {"seed": 0}),
])
def test_zero_and_negative_boundary_values_load(text, fields_set):
    # scalars, counts and dBW levels need not be positive
    assert load_scenario(text) == replace(ScenarioConfig(), **fields_set)


@pytest.mark.parametrize("key", [
    "runningTime", "timeStep", "roadLength", "towerOffset", "frequency", "baseStationHeight",
    "mobileHeight", "sensingRange", "commRange", "noiseTemperature", "channelBandwidth",
    "avgSpeed", "reactionTime", "backOffTime", "coordinationInterval", "puHoldMean",
    "puGapMean", "suHoldMean", "suGapMean",
])
def test_physical_quantity_must_be_positive(key):
    # a zero running time is shorter than the time step, which is checked first
    message = "runningTime >= timeStep" if key == "runningTime" else f"{key} > 0"
    with pytest.raises(ScenarioValidationError, match=f"^{message} violated$"):
        load_scenario(f"{key} = 0")


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
