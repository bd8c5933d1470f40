"""Scenario configuration: parsing, unit normalization and validation.

Scenario files are flat UTF-8 ``key = value`` text. Values may carry a
unit suffix ("100 km/h", "10 ms", "7 MHz"); everything is normalized to
SI on load (speeds to m/s, distances to m, times to s, bandwidth to Hz).
Transmit powers stay in dBW and the carrier frequency stays in MHz, the
units the propagation model works in. Lines starting with ``#`` are
comments; unknown keys are rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum


class ScenarioError(Exception):
    """Base class for scenario file problems."""


class ScenarioParseError(ScenarioError):
    """Malformed scenario text; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class ScenarioValidationError(ScenarioError):
    """A scenario invariant does not hold; names the violated invariant."""


class Scheme(Enum):
    STANDALONE = "standalone"
    COOPERATIVE = "cooperative"
    PROPOSED = "proposed"


@dataclass(frozen=True)
class ScenarioConfig:
    """All simulation parameters, SI-normalized and validated."""

    running_time: float = 10.0          # s
    time_step: float = 0.001            # s
    road_length: float = 2000.0         # m
    n_vehicles: int = 50
    n_channels: int = 100
    n_pu_towers: int = 2
    tower_offset: float = 10_000.0      # m, perpendicular distance to road
    channels_per_tower: int = 50
    frequency: float = 150.0            # MHz
    base_station_height: float = 50.0   # m
    mobile_height: float = 1.5          # m
    sensing_range: float = 400.0        # m
    comm_range: float = 240.0           # m
    tx_power_pu: float = 30.0           # dBW
    noise_temperature: float = 500.0    # K
    channel_bandwidth: float = 7e6      # Hz
    avg_speed: float = 100.0 / 3.6      # m/s (100 km/h)
    fleet_speed_spread: float = 0.2
    per_vehicle_speed_deviation: float = 0.1
    reaction_time: float = 1.0          # s
    human_error_min: float = 0.25
    human_error_max: float = 0.4
    back_off_time: float = 0.010        # s
    coordination_interval: float = 0.020  # s
    target_pfa: float = 0.1
    scheme: Scheme = Scheme.PROPOSED
    pu_hold_mean: float = 0.025         # s
    pu_gap_mean: float = 0.025          # s
    su_hold_mean: float = 0.040         # s
    su_gap_mean: float = 0.080          # s
    sensing_samples: int = 100          # detector window length N
    seed: int = 1

    def validate(self) -> "ScenarioConfig":
        """Check every invariant; raise ScenarioValidationError naming the first violation."""
        for key, (name, kind) in _FIELDS.items():
            if kind != "scheme" and not math.isfinite(getattr(self, name)):
                raise ScenarioValidationError(f"{key} is not finite")
        if self.time_step <= 0:
            raise ScenarioValidationError("timeStep > 0 violated")
        if self.running_time < self.time_step:
            raise ScenarioValidationError("runningTime >= timeStep violated")
        if self.n_channels != self.n_pu_towers * self.channels_per_tower:
            raise ScenarioValidationError(
                "nChannels = nPuTowers * channelsPerTower violated "
                f"({self.n_channels} != {self.n_pu_towers} * {self.channels_per_tower})"
            )
        if not (0.0 < self.target_pfa < 1.0):
            raise ScenarioValidationError("0 < targetPfa < 1 violated")
        if not (0.0 <= self.fleet_speed_spread < 1.0):
            raise ScenarioValidationError("0 <= fleetSpeedSpread < 1 violated")
        if not (0.0 <= self.per_vehicle_speed_deviation < 1.0):
            raise ScenarioValidationError("0 <= perVehicleSpeedDeviation < 1 violated")
        if not (self.sensing_range >= self.comm_range > 0.0):
            raise ScenarioValidationError("sensingRange >= commRange > 0 violated")
        if self.n_vehicles < 0:
            raise ScenarioValidationError("nVehicles >= 0 violated")
        if self.seed < 0:
            raise ScenarioValidationError("seed >= 0 violated")
        if self.n_pu_towers < 1 or self.channels_per_tower < 1:
            raise ScenarioValidationError("nPuTowers >= 1 and channelsPerTower >= 1 violated")
        for name in (
            "road_length", "tower_offset", "frequency", "base_station_height",
            "mobile_height", "noise_temperature", "channel_bandwidth", "avg_speed",
            "reaction_time", "back_off_time", "coordination_interval",
            "pu_hold_mean", "pu_gap_mean", "su_hold_mean", "su_gap_mean",
        ):
            if getattr(self, name) <= 0:
                raise ScenarioValidationError(f"{_KEY_OF[name]} > 0 violated")
        if not (0.0 <= self.human_error_min <= self.human_error_max):
            raise ScenarioValidationError("0 <= humanErrorMin <= humanErrorMax violated")
        if self.sensing_samples < 50:
            raise ScenarioValidationError("sensingSamples >= 50 violated")
        return self


# File key -> (dataclass field, unit kind). Kinds drive unit normalization.
_FIELDS: dict[str, tuple[str, str]] = {
    "runningTime": ("running_time", "time"),
    "timeStep": ("time_step", "time"),
    "roadLength": ("road_length", "distance"),
    "nVehicles": ("n_vehicles", "count"),
    "nChannels": ("n_channels", "count"),
    "nPuTowers": ("n_pu_towers", "count"),
    "towerOffset": ("tower_offset", "distance"),
    "channelsPerTower": ("channels_per_tower", "count"),
    "frequency": ("frequency", "freq_mhz"),
    "baseStationHeight": ("base_station_height", "distance"),
    "mobileHeight": ("mobile_height", "distance"),
    "sensingRange": ("sensing_range", "distance"),
    "commRange": ("comm_range", "distance"),
    "txPowerPu": ("tx_power_pu", "power_dbw"),
    "noiseTemperature": ("noise_temperature", "temperature"),
    "channelBandwidth": ("channel_bandwidth", "freq_hz"),
    "avgSpeed": ("avg_speed", "speed"),
    "fleetSpeedSpread": ("fleet_speed_spread", "scalar"),
    "perVehicleSpeedDeviation": ("per_vehicle_speed_deviation", "scalar"),
    "reactionTime": ("reaction_time", "time"),
    "humanErrorMin": ("human_error_min", "scalar"),
    "humanErrorMax": ("human_error_max", "scalar"),
    "backOffTime": ("back_off_time", "time"),
    "coordinationInterval": ("coordination_interval", "time"),
    "targetPfa": ("target_pfa", "scalar"),
    "scheme": ("scheme", "scheme"),
    "puHoldMean": ("pu_hold_mean", "time"),
    "puGapMean": ("pu_gap_mean", "time"),
    "suHoldMean": ("su_hold_mean", "time"),
    "suGapMean": ("su_gap_mean", "time"),
    "sensingSamples": ("sensing_samples", "count"),
    "seed": ("seed", "count"),
}

_KEY_OF = {field: key for key, (field, _) in _FIELDS.items()}

# Multipliers to the stored unit, per kind.
_UNIT_TABLE: dict[str, dict[str, float]] = {
    "time": {"": 1.0, "s": 1.0, "ms": 1e-3, "us": 1e-6, "min": 60.0},
    "distance": {"": 1.0, "m": 1.0, "km": 1e3, "cm": 1e-2},
    "speed": {"": 1.0, "m/s": 1.0, "mps": 1.0, "km/h": 1.0 / 3.6, "kmh": 1.0 / 3.6},
    "freq_mhz": {"": 1.0, "mhz": 1.0, "ghz": 1e3, "khz": 1e-3},
    "freq_hz": {"": 1.0, "hz": 1.0, "khz": 1e3, "mhz": 1e6, "ghz": 1e9},
    "power_dbw": {"": 1.0, "dbw": 1.0},
    "temperature": {"": 1.0, "k": 1.0},
    "scalar": {"": 1.0},
    "count": {"": 1.0},
}


def _parse_value(kind: str, raw: str, line_no: int):
    raw = raw.strip()
    if kind == "scheme":
        try:
            return Scheme(raw.lower())
        except ValueError:
            raise ScenarioParseError(
                line_no, f"unknown scheme {raw!r} (expected standalone/cooperative/proposed)"
            ) from None
    parts = raw.split(None, 1)
    num_text = parts[0]
    unit = parts[1].strip().lower() if len(parts) == 2 else ""
    # units can also be glued to the number ("10ms")
    if unit == "" and not _is_number(num_text):
        for i, ch in enumerate(num_text):
            if ch.isalpha() and not (ch in "eE" and _is_number(num_text[: i + 1] + "1")):
                num_text, unit = num_text[:i], num_text[i:].lower()
                break
    if not _is_number(num_text):
        raise ScenarioParseError(line_no, f"cannot parse number from {raw!r}")
    value = float(num_text)
    # unit "km/h" keeps its case-insensitive slash form
    table = _UNIT_TABLE[kind]
    if unit not in table:
        raise ScenarioParseError(line_no, f"unit {unit!r} not valid here (expected one of {sorted(u for u in table if u)})")
    value *= table[unit]
    if not math.isfinite(value):
        raise ScenarioParseError(line_no, f"{raw!r} is not a finite number")
    if kind == "count":
        if value != int(value):
            raise ScenarioParseError(line_no, f"expected an integer, got {raw!r}")
        return int(value)
    return value


def _is_number(text: str) -> bool:
    try:
        float(text)
        return True
    except ValueError:
        return False


def parse_overrides(config_text: str) -> dict:
    """Parse key=value lines into a dict of normalized field values."""
    overrides: dict = {}
    for line_no, line in enumerate(config_text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ScenarioParseError(line_no, f"expected key = value, got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _FIELDS:
            raise ScenarioParseError(line_no, f"unknown key {key!r}")
        field_name, kind = _FIELDS[key]
        if field_name in overrides:
            raise ScenarioParseError(line_no, f"duplicate key {key!r}")
        overrides[field_name] = _parse_value(kind, raw, line_no)
    return overrides


def load_scenario(config_text: str) -> ScenarioConfig:
    """Build a validated ScenarioConfig from key=value text.

    Keys absent from the text keep their defaults. Raises
    ScenarioParseError (with line number) or ScenarioValidationError.
    """
    overrides = parse_overrides(config_text)
    return replace(ScenarioConfig(), **overrides).validate()


def load_scenario_file(path: str) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return load_scenario(fh.read())


def num_time_slices(running_time: float, time_step: float) -> int:
    """Number of simulation ticks: floor(runningTime / timeStep).

    The tiny epsilon absorbs float quotients like 1.0/0.001 landing a hair
    under the exact integer.
    """
    if running_time <= 0 or time_step <= 0:
        raise ValueError("runningTime and timeStep must be positive")
    return int(math.floor(running_time / time_step + 1e-9))

