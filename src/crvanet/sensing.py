"""Energy detection of channel occupancy: ChannelSensor.sense_block.

The detector averages the energy of N complex baseband samples. Under a
Gaussian-signal approximation the per-sample energy of noise-plus-signal
with SNR s is exponential with mean sigma2*(1+s), so the N-sample mean
statistic is Gamma(N, sigma2*(1+s)/N) exactly — which is what we draw,
instead of simulating raw IQ samples that would change nothing at the
decision level. The SNR s is the Hata median SNR times one Rayleigh
fading gain, a unit-mean exponential draw per window.

Statistics are normalised to the noise floor (sigma2 = 1). The threshold
is calibrated from a target false-alarm probability with the usual
Gaussian tail approximation (Urkowitz 1967):

    lambda = 1 + Qinv(pfa) / sqrt(N)

A sense block holds, per sensed (observer, channel) pair, the decision,
the ground truth at the same instant and the statistic, plus the
threshold they were decided against; classify_block classifies decisions
against truth. One call senses a whole grid of observers and channels;
each observer draws from its own streams exactly as it would sensing
alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.stats import norm

from .config import ScenarioConfig
from .propagation import (
    HataModel,
    TowerGeometry,
    build_towers,
    hata_suburban_loss,  # noqa: F401  unused here; perfbench/selftest.py expects this lookup site
    thermal_noise_power,
)

# SUs sensed within sensingRange are modeled at a flat, strongly detectable
# SNR instead of a full SU link budget.
SU_SENSE_SNR_DB = 20.0


class Classification(Enum):
    CORRECT_DETECTION = "correctDetection"
    FALSE_ALARM = "falseAlarm"
    MISDETECTION = "misdetection"


@dataclass(frozen=True, eq=False)
class SenseBlock:
    """Sensing of a set of channels: one entry per channel for one
    observer, one row per observer for several."""

    channel_ids: np.ndarray   # int, as passed: 1-D when shared by every observer
    occupied: np.ndarray      # bool decision: statistic >= threshold
    truth: np.ndarray         # bool: truly occupied at the observer
    statistic: np.ndarray     # linear power
    threshold: float          # linear power


def detection_threshold(target_pfa: float, n_samples: int) -> float:
    """Threshold, relative to the noise floor, achieving target_pfa on
    noise-only windows of n_samples, Gaussian approximation. Requires
    N >= 50 so the approximation is well conditioned."""
    if not (0.0 < target_pfa < 1.0):
        raise ValueError("targetPfa must lie in (0, 1)")
    if n_samples < 50:
        raise ValueError("need N >= 50 samples for the Gaussian threshold approximation")
    return 1.0 + norm.isf(target_pfa) / math.sqrt(n_samples)


# the classifications classify_block returns, by index
CLASSES = (Classification.CORRECT_DETECTION, Classification.FALSE_ALARM,
           Classification.MISDETECTION)


def classify_block(occupied: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Classify arrays of (decided occupied, truly occupied) against each
    other: one index into CLASSES per entry. Agreement is a correct
    detection, a wrong occupied decision a false alarm, a wrong vacant one
    a misdetection."""
    return np.where(occupied == truth, 0, np.where(occupied, 1, 2))


def block_pfa(target_pfa: float, blocks: int) -> float:
    """Per-block false-alarm target so that a max-hold decision over
    `blocks` independent fading blocks has overall Pfa = target_pfa."""
    if blocks < 1:
        raise ValueError("blocks must be >= 1")
    return 1.0 - (1.0 - target_pfa) ** (1.0 / blocks)


class ChannelSensor:
    """Sensing front-end for one scenario: geometry, noise floor, detector.

    Vectorized over observers and channels. The fading draws come from the
    (tower, observer) streams, the statistic draws from the observer's
    sensing stream, so subsystems stay independent.
    """

    def __init__(self, config: ScenarioConfig, towers: list[TowerGeometry] | None = None):
        self.config = config
        self.towers = towers if towers is not None else build_towers(
            config.n_pu_towers, config.road_length, config.tower_offset)
        self.noise_dbw = thermal_noise_power(config.noise_temperature, config.channel_bandwidth)
        self.hata = HataModel(config.frequency, config.base_station_height, config.mobile_height)
        self.n_samples = config.sensing_samples
        self.target_pfa = config.target_pfa
        self.su_snr_linear = 10.0 ** (SU_SENSE_SNR_DB / 10.0)
        # the tower owning each channel: contiguous blocks of channelsPerTower
        self.tower_of = np.repeat(np.arange(config.n_pu_towers), config.channels_per_tower)
        self._thresholds = {1: detection_threshold(self.target_pfa, self.n_samples)}

    def median_pu_snr(self, tower: TowerGeometry, observer_pos: float) -> float:
        """Median (no fading) linear SNR of a tower's signal at a road position."""
        loss = self.hata.suburban_loss(tower.distance_to(observer_pos) / 1000.0)
        return 10.0 ** ((self.config.tx_power_pu - loss - self.noise_dbw) / 10.0)

    def threshold_for(self, blocks: int) -> float:
        """Per-block threshold for a max-hold decision over `blocks`
        blocks, calibrated once per block count."""
        threshold = self._thresholds.get(blocks)
        if threshold is None:
            threshold = self._thresholds[blocks] = detection_threshold(
                block_pfa(self.target_pfa, blocks), self.n_samples)
        return threshold

    def sense_block(self, observer_ids, observer_pos, channel_ids: np.ndarray,
                    channel_map, now: float, streams, blocks: int = 1) -> SenseBlock:
        """Sense channels at one or more observers; channel_map holds the
        ground truth at the sensing instant `now`.

        One observer (scalar id and position) senses the 1-D channel_ids
        and gets 1-D result arrays. m observers (1-D ids and positions)
        sense either the same 1-D channel_ids or one row each of an (m, k)
        channel_ids grid, and get (m, k) result arrays. Every generator is
        drawn exactly as if each observer sensed alone, in turn.

        With blocks > 1 each channel is observed over that many independent
        fading blocks and decided occupied if any block's statistic crosses
        the per-block threshold (max-hold time diversity); the threshold is
        recalibrated so the overall false-alarm rate stays at targetPfa.
        """
        channel_ids = np.asarray(channel_ids, dtype=int)
        if channel_ids.size and not (0 <= channel_ids.min()
                                     and channel_ids.max() < self.config.n_channels):
            raise ValueError(f"unknown channel in {channel_ids.tolist()}")
        threshold = self.threshold_for(blocks)
        n_towers = len(self.towers)
        towers_here = self.tower_of[channel_ids]
        single = isinstance(observer_ids, (int, np.integer))
        if single:
            observers, positions = [int(observer_ids)], [float(observer_pos)]
            pos = positions[0]
            counts = [np.bincount(towers_here, minlength=n_towers).tolist()]
        else:
            observers = np.asarray(observer_ids, dtype=int).tolist()
            if not observers:
                raise ValueError("sense_block needs at least one observer")
            pos = np.asarray(observer_pos, dtype=float)[:, None]
            positions = pos[:, 0].tolist()
            rows = np.arange(len(observers))[:, None]
            counts = np.bincount((rows * n_towers + towers_here).ravel(),
                                 minlength=len(observers) * n_towers
                                 ).reshape(-1, n_towers).tolist()
        k = channel_ids.shape[-1]
        # draws carry a leading block axis, except for one observer's single
        # block, where 1-D arrays keep the common call cheap
        lead = () if single and blocks == 1 else (blocks,)

        # Ground truth at each observer.
        pu_active = channel_map.pu_active[channel_ids]
        holders = channel_map.su_holder[channel_ids]
        holder_pos = channel_map.su_holder_pos[channel_ids]
        su_in_range = (holders >= 0) & (np.abs(holder_pos - pos) <= self.config.sensing_range)
        truth_occupied = pu_active | su_in_range

        # counts[o][t] channels of tower t at observer o: the observer draws
        # that many gains per block from the (t, o) fading stream, then one
        # statistic per block and channel from its sensing stream. Block
        # after block from one generator is the same sequence as one draw of
        # shape (blocks, count).
        snr_table, fading, stat_draws = [], [], []
        n_samples = self.n_samples
        for observer, position, row in zip(observers, positions, counts):
            snr_row = []
            for tower, count in zip(self.towers, row):
                if count:
                    snr_row.append(self.median_pu_snr(tower, position))
                    fading.append((tower.tower_id, streams.fading_stream(
                        tower.tower_id, observer).exponential(1.0, size=lead + (count,))))
                else:
                    snr_row.append(0.0)
            snr_table.append(snr_row)
            stat_draws.append(streams.sensing_stream(observer).standard_gamma(
                n_samples, size=lead + (k,)))

        if single:
            snr_pu = np.array(snr_table[0])[towers_here]
            stat_draw = stat_draws[0]
            if len(fading) == 1:   # every channel on one tower
                gains = fading[0][1]
            else:
                gains = np.empty(lead + (k,))
                past_blocks = (slice(None),) * len(lead)   # index the channel axis
                for tower_id, draw in fading:
                    gains[past_blocks + (towers_here == tower_id,)] = draw
        else:
            # draws concatenate by observer, then tower, then position; the
            # stable tower order of each row puts them back in place
            snr_pu = np.array(snr_table)[rows, towers_here]
            stat_draw = np.stack(stat_draws, axis=1)
            gains = np.empty((blocks, len(observers), k))
            gains[:, rows, np.argsort(towers_here, axis=-1, kind="stable")] = np.concatenate(
                [draw for _, draw in fading], axis=1).reshape(blocks, -1, k)
        snr_median = (np.where(pu_active, snr_pu, 0.0)
                      + np.where(su_in_range, self.su_snr_linear, 0.0))

        # One statistic per (block, observer, channel), drawn from its exact
        # Gamma(N, (1 + snr * gain) / N) form: standard_gamma(N) * scale is
        # the very draw gamma(N, scale) makes, bit for bit, without gamma's
        # costly checks of an array scale. The decision is max-hold over
        # blocks.
        scale = (1.0 + snr_median * gains) / n_samples
        stat = stat_draw * scale
        if lead:
            stat = stat.max(axis=0)
        return SenseBlock(channel_ids, stat >= threshold, truth_occupied, stat, threshold)
