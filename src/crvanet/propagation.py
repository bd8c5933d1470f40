"""Radio propagation: Hata median path loss and thermal noise.

Large-scale loss between a tower and a road position uses the Hata
suburban model (urban base form plus the suburban correction). The sensor
(sensing.ChannelSensor) composes it, with the thermal noise floor and a
Rayleigh fading gain per sensing window (a unit-mean exponential draw
from the tower's fading stream), into a received SNR:

    snr = 10**((tx - pathLoss - noise) / 10) * fadingGain

Inputs outside Hata's validity ranges are hard errors rather than
extrapolations, so a misconfigured scenario fails loudly instead of
silently skewing a comparison.
"""

from __future__ import annotations

import math

BOLTZMANN = 1.380649e-23  # J/K

# Hata (1980) validity ranges
_F_RANGE = (150.0, 1500.0)   # MHz
_HB_RANGE = (30.0, 200.0)    # m
_HM_RANGE = (1.0, 10.0)      # m
_D_RANGE = (1.0, 20.0)       # km


class PropagationDomainError(ValueError):
    """An input lies outside the Hata model's validity range."""


def _check(name: str, value: float, lo: float, hi: float, unit: str) -> None:
    if not (lo <= value <= hi):
        raise PropagationDomainError(
            f"{name} = {value:g} {unit} outside Hata validity [{lo:g}, {hi:g}] {unit}"
        )


class HataModel:
    """Hata median path loss at one carrier frequency f (MHz) and pair of
    antenna heights, base station hb and mobile hm (m).

    The frequency and heights are validated, and the distance-independent
    terms computed, once; a loss evaluation then checks only the distance.
    The terms are combined in the closed form's left-to-right order, so
    splitting the evaluation changes no bit of the result.
    """

    def __init__(self, f: float, hb: float, hm: float):
        _check("frequency", f, *_F_RANGE, "MHz")
        _check("baseStationHeight", hb, *_HB_RANGE, "m")
        _check("mobileHeight", hm, *_HM_RANGE, "m")
        log_f = math.log10(f)
        log_hb = math.log10(hb)
        a_hm = (1.1 * log_f - 0.7) * hm - (1.56 * log_f - 0.8)
        self.intercept = 69.55 + 26.16 * log_f - 13.82 * log_hb - a_hm
        self.slope = 44.9 - 6.55 * log_hb
        self.suburban_correction = 2.0 * math.log10(f / 28.0) ** 2

    def urban_loss(self, d: float) -> float:
        """Median urban path loss in dB at link distance d, km (1..20)."""
        lo, hi = _D_RANGE
        if not lo <= d <= hi:   # checked inline: the common in-range call skips _check
            _check("distance", d, lo, hi, "km")
        return self.intercept + self.slope * math.log10(d)

    def suburban_loss(self, d: float) -> float:
        """Median suburban path loss in dB: urban loss plus the suburban
        correction."""
        return self.urban_loss(d) - self.suburban_correction - 5.4


def hata_suburban_loss(f: float, hb: float, hm: float, d: float) -> float:
    """Median suburban path loss in dB: urban loss plus the suburban correction."""
    return HataModel(f, hb, hm).suburban_loss(d)


def thermal_noise_power(temperature_k: float, bandwidth_hz: float) -> float:
    """Thermal noise power 10*log10(k*T*B) in dBW."""
    if temperature_k <= 0 or bandwidth_hz <= 0:
        raise ValueError("temperature and bandwidth must be positive")
    return 10.0 * math.log10(BOLTZMANN * temperature_k * bandwidth_hz)

