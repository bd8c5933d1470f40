"""Scenario configuration: parsing, unit normalization and validation.

Scenario files are flat UTF-8 ``key = value`` text; ``#`` starts a comment
and unknown keys are rejected. Each key is a ScenarioConfig field name in
camelCase (``n_pu_towers`` -> ``nPuTowers``); the field's type is its unit
kind. A value may carry a suffix of its kind, case-insensitive, spaced or
glued ("100 km/h", "10ms"): time s/ms/us/min, distance m/km/cm, speed
m/s/mps/km/h/kmh, carrier frequency MHz/GHz/kHz, bandwidth Hz/kHz/MHz/GHz,
power dBW, temperature K; counts and scalars take none. Values are stored
in SI (m/s, m, s, Hz), except that powers stay in dBW and the carrier
frequency in MHz, the units the propagation model works in. Every physical
quantity but a dBW level must be > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Annotated, get_type_hints


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


# Unit kinds. A field's kind picks the unit suffixes its value accepts
# (_UNIT_TABLE); a plain int field is a count, a plain float a unitless scalar.
Seconds = Annotated[float, "time"]
Metres = Annotated[float, "distance"]
MetresPerSecond = Annotated[float, "speed"]
MHz = Annotated[float, "freq_mhz"]
Hz = Annotated[float, "freq_hz"]
DBW = Annotated[float, "power_dbw"]
Kelvin = Annotated[float, "temperature"]

# A physical quantity must be > 0, except a level in dBW, which may be zero or negative.
_POSITIVE_KINDS = ("time", "distance", "speed", "freq_mhz", "freq_hz", "temperature")


@dataclass(frozen=True)
class ScenarioConfig:
    """All simulation parameters, SI-normalized and validated."""

    running_time: Seconds = 10.0
    time_step: Seconds = 0.001
    road_length: Metres = 2000.0
    n_vehicles: int = 50
    n_channels: int = 100
    n_pu_towers: int = 2
    tower_offset: Metres = 10_000.0     # perpendicular distance to road
    channels_per_tower: int = 50
    frequency: MHz = 150.0
    base_station_height: Metres = 50.0
    mobile_height: Metres = 1.5
    sensing_range: Metres = 400.0
    comm_range: Metres = 240.0
    tx_power_pu: DBW = 30.0
    noise_temperature: Kelvin = 500.0
    channel_bandwidth: Hz = 7e6
    avg_speed: MetresPerSecond = 100.0 / 3.6   # 100 km/h
    fleet_speed_spread: float = 0.2
    per_vehicle_speed_deviation: float = 0.1
    reaction_time: Seconds = 1.0
    human_error_min: float = 0.25
    human_error_max: float = 0.4
    back_off_time: Seconds = 0.010
    coordination_interval: Seconds = 0.020
    target_pfa: float = 0.1
    scheme: Scheme = Scheme.PROPOSED
    pu_hold_mean: Seconds = 0.025
    pu_gap_mean: Seconds = 0.025
    su_hold_mean: Seconds = 0.040
    su_gap_mean: Seconds = 0.080
    sensing_samples: int = 100          # detector window length N
    seed: int = 1

    def validate(self) -> "ScenarioConfig":
        """Check every invariant; raise ScenarioValidationError naming the first violation."""
        for key, (name, kind) in _FIELDS.items():
            if kind != "scheme" and not math.isfinite(getattr(self, name)):
                raise ScenarioValidationError(f"{key} is not finite")
        if self.running_time < self.time_step:
            raise ScenarioValidationError("runningTime >= timeStep violated")
        for key, (name, kind) in _FIELDS.items():
            if kind in _POSITIVE_KINDS and getattr(self, name) <= 0:
                raise ScenarioValidationError(f"{key} > 0 violated")
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
        if self.sensing_range < self.comm_range:
            raise ScenarioValidationError("sensingRange >= commRange > 0 violated")
        if self.n_vehicles < 0:
            raise ScenarioValidationError("nVehicles >= 0 violated")
        if self.seed < 0:
            raise ScenarioValidationError("seed >= 0 violated")
        if self.n_pu_towers < 1 or self.channels_per_tower < 1:
            raise ScenarioValidationError("nPuTowers >= 1 and channelsPerTower >= 1 violated")
        if not (0.0 <= self.human_error_min <= self.human_error_max):
            raise ScenarioValidationError("0 <= humanErrorMin <= humanErrorMax violated")
        if self.sensing_samples < 50:
            raise ScenarioValidationError("sensingSamples >= 50 violated")
        return self


def _file_key(name: str) -> str:
    """A field's scenario-file key: its name in camelCase (n_pu_towers -> nPuTowers)."""
    first, *rest = name.split("_")
    return first + "".join(word.capitalize() for word in rest)


# File key -> (dataclass field, unit kind), in field order. Kinds drive unit normalization.
_FIELDS: dict[str, tuple[str, str]] = {
    _file_key(name): (name, hint.__metadata__[0] if hasattr(hint, "__metadata__")
                      else {int: "count", float: "scalar", Scheme: "scheme"}[hint])
    for name, hint in get_type_hints(ScenarioConfig, include_extras=True).items()
}

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
    if not parts:
        raise ScenarioParseError(line_no, "missing value")
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
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{path}: not UTF-8 text at byte {exc.start}") from None
    return load_scenario(text)


def num_time_slices(running_time: float, time_step: float) -> int:
    """Number of simulation ticks: floor(runningTime / timeStep).

    The tiny epsilon absorbs float quotients like 1.0/0.001 landing a hair
    under the exact integer.
    """
    if running_time <= 0 or time_step <= 0:
        raise ValueError("runningTime and timeStep must be positive")
    return int(math.floor(running_time / time_step + 1e-9))

