"""Energy detection of channel occupancy.

The detector averages the energy of N complex baseband samples. Under a
Gaussian-signal approximation the per-sample energy of noise-plus-signal
with SNR s is exponential with mean sigma2*(1+s), so the N-sample mean
statistic is Gamma(N, sigma2*(1+s)/N) exactly — which is what we draw,
instead of simulating raw IQ samples that would change nothing at the
decision level.

The threshold is calibrated from a target false-alarm probability with
the usual Gaussian tail approximation:

    lambda = sigma2 * (1 + Qinv(pfa) / sqrt(N))

A sense block holds, per sensed channel, the decision, the ground truth
at the same instant and the statistic, plus the threshold they were
decided against; classification against truth is a pure function of
(decision, truth).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.stats import norm

from .config import ScenarioConfig
from .propagation import (
    TowerGeometry,
    build_towers,
    hata_suburban_loss,
    thermal_noise_power,
)

# SUs sensed within sensingRange are modeled at a flat, strongly detectable
# SNR instead of a full SU link budget.
SU_SENSE_SNR_DB = 20.0


class ChannelState(Enum):
    VACANT = "vacant"
    OCCUPIED = "occupied"


class Classification(Enum):
    CORRECT_DETECTION = "correctDetection"
    FALSE_ALARM = "falseAlarm"
    MISDETECTION = "misdetection"


@dataclass(frozen=True)
class DetectorParams:
    """Energy detector configuration for one sensing window."""

    n_samples: int = 100
    noise_power: float = 1.0       # linear watts (sigma^2)
    target_pfa: float = 0.1
    threshold: float = 0.0         # linear watts; fill via detection_threshold

    def calibrated(self) -> "DetectorParams":
        return DetectorParams(
            n_samples=self.n_samples,
            noise_power=self.noise_power,
            target_pfa=self.target_pfa,
            threshold=detection_threshold(self),
        )


@dataclass(frozen=True, eq=False)
class SenseBlock:
    """One observer's sensing of a set of channels, one entry per channel."""

    channel_ids: np.ndarray   # int
    occupied: np.ndarray      # bool decision: statistic >= threshold
    truth: np.ndarray         # bool: truly occupied at the observer
    statistic: np.ndarray     # linear power
    threshold: float          # linear power


def detection_threshold(params: DetectorParams) -> float:
    """Threshold achieving the target false-alarm probability on noise-only
    windows, Gaussian approximation. Requires N >= 50 so the approximation
    is well conditioned."""
    if not (0.0 < params.target_pfa < 1.0):
        raise ValueError("targetPfa must lie in (0, 1)")
    if params.n_samples < 50:
        raise ValueError("need N >= 50 samples for the Gaussian threshold approximation")
    q = norm.isf(params.target_pfa)
    return params.noise_power * (1.0 + q / math.sqrt(params.n_samples))


def energy_statistic(rx_snr_linear, params: DetectorParams, rng: np.random.Generator,
                     size: int | None = None):
    """Draw the N-sample mean-energy statistic for given received SNR(s).

    rx_snr_linear may be a scalar or an array (one statistic per entry);
    0 means the channel is truly vacant at this observer.
    """
    snr = np.asarray(rx_snr_linear, dtype=float)
    if np.any(snr < 0):
        raise ValueError("rx SNR must be >= 0")
    power = params.noise_power * (1.0 + snr)
    scale = power / params.n_samples
    if size is not None:
        return rng.gamma(params.n_samples, scale, size=size)
    if scale.ndim == 0:
        return float(rng.gamma(params.n_samples, float(scale)))
    return rng.gamma(params.n_samples, scale)


def classify_outcome(decision: ChannelState, truth: ChannelState) -> Classification:
    if decision == truth:
        return Classification.CORRECT_DETECTION
    if decision == ChannelState.OCCUPIED:
        return Classification.FALSE_ALARM
    return Classification.MISDETECTION


# the classifications classify_block returns, by index
CLASSES = (Classification.CORRECT_DETECTION, Classification.FALSE_ALARM,
           Classification.MISDETECTION)


def classify_block(occupied: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """classify_outcome over arrays of (decided occupied, truly occupied):
    one index into CLASSES per entry."""
    return np.where(occupied == truth, 0, np.where(occupied, 1, 2))


def block_pfa(target_pfa: float, blocks: int) -> float:
    """Per-block false-alarm target so that a max-hold decision over
    `blocks` independent fading blocks has overall Pfa = target_pfa."""
    if blocks < 1:
        raise ValueError("blocks must be >= 1")
    return 1.0 - (1.0 - target_pfa) ** (1.0 / blocks)


class ChannelSensor:
    """Sensing front-end for one scenario: geometry, noise floor, detector.

    Vectorized over channels for one observer. The fading draw comes from
    the (tower, observer) stream; the statistic draw from the observer's
    sensing stream, so subsystems stay independent.
    """

    def __init__(self, config: ScenarioConfig, towers: list[TowerGeometry] | None = None):
        self.config = config
        self.towers = towers if towers is not None else build_towers(
            config.n_pu_towers, config.channels_per_tower,
            config.road_length, config.tower_offset,
        )
        self.noise_dbw = thermal_noise_power(config.noise_temperature, config.channel_bandwidth)
        self.detector = DetectorParams(
            n_samples=config.sensing_samples,
            noise_power=1.0,  # statistics normalized to the noise floor
            target_pfa=config.target_pfa,
        ).calibrated()
        self.su_snr_linear = 10.0 ** (SU_SENSE_SNR_DB / 10.0)
        self.tower_of = np.repeat(np.arange(config.n_pu_towers), config.channels_per_tower)
        self._thresholds = {1: self.detector.threshold}

    def median_pu_snr(self, tower: TowerGeometry, observer_pos: float) -> float:
        """Median (no fading) linear SNR of a tower's signal at a road position."""
        d_km = tower.distance_to(observer_pos) / 1000.0
        loss = hata_suburban_loss(
            self.config.frequency, self.config.base_station_height,
            self.config.mobile_height, d_km,
        )
        return 10.0 ** ((self.config.tx_power_pu - loss - self.noise_dbw) / 10.0)

    def threshold_for(self, blocks: int) -> float:
        """Per-block threshold for a max-hold decision over `blocks`
        blocks, calibrated once per block count."""
        threshold = self._thresholds.get(blocks)
        if threshold is None:
            threshold = self._thresholds[blocks] = detection_threshold(DetectorParams(
                n_samples=self.detector.n_samples,
                noise_power=self.detector.noise_power,
                target_pfa=block_pfa(self.detector.target_pfa, blocks),
            ))
        return threshold

    def sense_block(self, observer_id: int, observer_pos: float,
                    channel_ids: np.ndarray, channel_map, now: float,
                    streams, blocks: int = 1) -> SenseBlock:
        """Sense a set of channels at one position; channel_map holds the
        ground truth at the sensing instant `now`.

        With blocks > 1 each channel is observed over that many independent
        fading blocks and decided occupied if any block's statistic crosses
        the per-block threshold (max-hold time diversity); the threshold is
        recalibrated so the overall false-alarm rate stays at targetPfa.
        """
        channel_ids = np.asarray(channel_ids, dtype=int)
        n = channel_ids.size
        if n and not (0 <= channel_ids.min() and channel_ids.max() < self.config.n_channels):
            raise ValueError(f"unknown channel in {channel_ids.tolist()}")
        threshold = self.threshold_for(blocks)
        cfg = self.config

        # Per-channel truth and median SNR contribution at this observer.
        pu_active = channel_map.pu_active[channel_ids]
        snr_median = np.zeros(n)
        towers_here = self.tower_of[channel_ids]
        tower_sel = []
        for tower in self.towers:
            sel = towers_here == tower.tower_id
            count = np.count_nonzero(sel)
            tower_sel.append((tower, sel, count))
            if count:
                snr_median[sel & pu_active] = self.median_pu_snr(tower, observer_pos)

        holders = channel_map.su_holder[channel_ids]
        holder_pos = channel_map.su_holder_pos[channel_ids]
        su_in_range = (holders >= 0) & (np.abs(holder_pos - observer_pos) <= cfg.sensing_range)
        snr_median = snr_median + np.where(su_in_range, self.su_snr_linear, 0.0)
        truth_occupied = pu_active | su_in_range

        # Independent fading per block; one statistic draw per (block, channel).
        # The statistic is drawn from its exact Gamma form directly (what
        # energy_statistic computes). standard_gamma(N) * scale is the very
        # draw gamma(N, scale) makes, bit for bit, without gamma's costly
        # checks of an array scale.
        n_samples = self.detector.n_samples
        noise = self.detector.noise_power
        stat_rng = streams.sensing_stream(observer_id)
        stat = np.zeros(n)
        for _ in range(blocks):
            gains = np.ones(n)
            for tower, sel, count in tower_sel:
                if count:
                    gains[sel] = streams.fading_stream(
                        tower.tower_id, observer_id
                    ).exponential(1.0, size=count)
            scale = noise * (1.0 + snr_median * gains) / n_samples
            stat = np.maximum(stat, stat_rng.standard_gamma(n_samples, size=n) * scale)

        return SenseBlock(channel_ids, stat >= threshold, truth_occupied, stat, threshold)
