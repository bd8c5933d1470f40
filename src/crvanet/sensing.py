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

Qinv(p) = -ndtri(p), where ndtri is a port of the Cephes inverse normal
CDF (S. Moshier), bit-identical to SciPy's stats.norm.isf(p).

A sense block holds, per sensed (observer, channel) pair, the decision,
the ground truth at the same instant and the statistic, plus the
threshold they were decided against; classify_block classifies decisions
against truth. One call senses a whole grid of observers and channels;
each observer draws from its own streams exactly as it would sensing
alone. One observer's call for at most SMALL_CALL channels (cooperative
shortlists, proposed re-checks) runs the same arithmetic bit for bit in
Python floats, as numpy's fixed cost per operation would dominate it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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

# one observer's call for at most this many channels runs in Python floats:
# the array path wins from about 24 channels at one block and 20 at two
# (measured on a 2-core Xeon, Python 3.11, numpy 2.4)
SMALL_CALL = 20


@dataclass(frozen=True, eq=False)
class SenseBlock:
    """Sensing of a set of channels: one entry per channel for one
    observer, one row per observer for several."""

    channel_ids: np.ndarray   # int, as passed: 1-D when shared by every observer
    occupied: np.ndarray      # bool decision: statistic >= threshold
    truth: np.ndarray         # bool: truly occupied at the observer
    statistic: np.ndarray     # linear power
    threshold: float          # linear power


# Cephes ndtri coefficients, highest power first: P0/Q0 for the centre, P1/Q1 and P2/Q2
# for the tails in x = sqrt(-2 ln y) below and above 8. Each Q has an implied leading 1.
_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1, -5.66762857469070293439E1,
       1.39312609387279679503E1, -1.23916583867381258016E0)
_Q0 = (1.95448858338141759834E0, 4.67627912898881538453E0, 8.63602421390890590575E1,
       -2.25462687854119370527E2, 2.00260212380060660359E2, -8.20372256168333339912E1,
       1.59056225126211695515E1, -1.18331621121330003142E0)
_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1, 5.71628192246421288162E1,
       4.40805073893200834700E1, 1.46849561928858024014E1, 2.18663306850790267539E0,
       -1.40256079171354495875E-1, -3.50424626827848203418E-2, -8.57456785154685413611E-4)
_Q1 = (1.57799883256466749731E1, 4.53907635128879210584E1, 4.13172038254672030440E1,
       1.50425385692907503408E1, 2.50464946208309415979E0, -1.42182922854787788574E-1,
       -3.80806407691578277194E-2, -9.33259480895457427372E-4)
_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0, 3.93881025292474443415E0,
       1.33303460815807542389E0, 2.01485389549179081538E-1, 1.23716634817820021358E-2,
       3.01581553508235416007E-4, 2.65806974686737550832E-6, 6.23974539184983293730E-9)
_Q2 = (6.02427039364742014255E0, 3.67983563856160859403E0, 1.37702099489081330271E0,
       2.16236993594496635890E-1, 1.34204006088543189037E-2, 3.28014464682127739104E-4,
       2.89247864745380683936E-6, 6.79019408009981274425E-9)
_EXP_M2, _S2PI = 0.13533528323661269189, 2.50662827463100050242E0   # exp(-2), sqrt(2 pi)


def _horner(x: float, coefs: tuple, lead: float = 0.0) -> float:
    """Cephes polevl (lead 0) or p1evl (lead 1: an implied leading 1)."""
    for c in coefs:
        lead = lead * x + c
    return lead


def ndtri(y: float) -> float:
    """Inverse of the standard normal CDF for 0 < y < 1 (Cephes ndtri)."""
    if not 0.0 < y < 1.0:
        raise ValueError("ndtri needs 0 < y < 1")
    upper = y > 1.0 - _EXP_M2
    y = 1.0 - y if upper else y
    if y > _EXP_M2:
        y -= 0.5
        y2 = y * y
        return (y + y * (y2 * _horner(y2, _P0) / _horner(y2, _Q0, 1.0))) * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    z = 1.0 / x
    p, q = (_P1, _Q1) if x < 8.0 else (_P2, _Q2)
    x = x - math.log(x) / x - z * _horner(z, p) / _horner(z, q, 1.0)
    return x if upper else -x


def detection_threshold(target_pfa: float, n_samples: int) -> float:
    """Threshold, relative to the noise floor, achieving target_pfa on
    noise-only windows of n_samples, Gaussian approximation. Requires
    N >= 50 so the approximation is well conditioned."""
    if not (0.0 < target_pfa < 1.0):
        raise ValueError("targetPfa must lie in (0, 1)")
    if n_samples < 50:
        raise ValueError("need N >= 50 samples for the Gaussian threshold approximation")
    return 1.0 - ndtri(target_pfa) / math.sqrt(n_samples)


# the classifications classify_block returns, by index; a sense event's trace detail
CLASSES = ("correctDetection", "falseAlarm", "misdetection")


def classify_block(occupied: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Classify arrays of (decided occupied, truly occupied) against each
    other: one index into CLASSES per entry. Agreement is a correct
    detection, a wrong occupied decision a false alarm, a wrong vacant one
    a misdetection."""
    return np.where(occupied == truth, 0, np.where(occupied, 1, 2))


def block_pfa(target_pfa: float, blocks: int) -> float:
    """Per-block false-alarm target compensated for a max-hold decision
    over `blocks` independent fading blocks: an exact per-block rate gives
    overall Pfa = target_pfa. The Gaussian-tail threshold hits the
    per-block rate only approximately (ROADMAP item 1)."""
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
        drawn exactly as if each observer sensed alone, in turn. One
        observer's call for at most SMALL_CALL channels takes _sense_short,
        the same computation in Python floats, bit for bit.

        With blocks > 1 each channel is observed over that many independent
        fading blocks and decided occupied if any block's statistic crosses
        the per-block threshold (max-hold time diversity); the per-block
        false-alarm target is compensated for the max-hold, so the overall
        rate is targetPfa only as far as the Gaussian-tail threshold is
        exact (ROADMAP item 1).
        """
        channel_ids = np.asarray(channel_ids, dtype=int)
        single = isinstance(observer_ids, (int, np.integer))
        if single and channel_ids.ndim != 1:
            raise ValueError(f"one observer needs 1-D channel_ids, got shape {channel_ids.shape}")
        if single and channel_ids.size <= SMALL_CALL:
            return self._sense_short(int(observer_ids), float(observer_pos), channel_ids,
                                     channel_map, streams, blocks)
        if channel_ids.size and not (0 <= channel_ids.min()
                                     and channel_ids.max() < self.config.n_channels):
            raise ValueError(f"unknown channel in {channel_ids.tolist()}")
        threshold = self.threshold_for(blocks)
        n_towers = len(self.towers)
        towers_here = self.tower_of[channel_ids]
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

    def _sense_short(self, observer, pos, channel_ids, channel_map, streams, blocks):
        """sense_block for one observer and at most SMALL_CALL channels: the
        array path's draws and IEEE operations, in order, on Python floats."""
        ids = channel_ids.tolist()
        if not all(0 <= c < self.config.n_channels for c in ids):
            raise ValueError(f"unknown channel in {ids}")
        threshold = self.threshold_for(blocks)
        towers_here = [c // self.config.channels_per_tower for c in ids]
        snr, gains = {}, {}   # per sensed tower: median SNR, fading gains block-major
        for t, tower in enumerate(self.towers):
            count = towers_here.count(t)
            if count:
                snr[t] = self.median_pu_snr(tower, pos)
                gains[t] = iter(streams.fading_stream(tower.tower_id, observer)
                                .standard_exponential(blocks * count).tolist())
        draws = iter(streams.sensing_stream(observer).standard_gamma(
            self.n_samples, blocks * len(ids)).tolist())
        meds, truth, sensing_range, su_snr = [], [], self.config.sensing_range, self.su_snr_linear
        for t, pu, holder, holder_pos in zip(
                towers_here, channel_map.pu_active[channel_ids].tolist(),
                channel_map.su_holder[channel_ids].tolist(),
                channel_map.su_holder_pos[channel_ids].tolist()):
            su = holder >= 0 and abs(holder_pos - pos) <= sensing_range
            meds.append((snr[t] if pu else 0.0) + (su_snr if su else 0.0))
            truth.append(pu or su)
        stats, n_samples = [0.0] * len(ids), self.n_samples   # max-hold of positive statistics
        for _ in range(blocks):   # block after block, each channel takes its next draws
            stats = [max(stat, next(draws) * ((1.0 + med * next(gains[t])) / n_samples))
                     for stat, t, med in zip(stats, towers_here, meds)]
        statistic = np.array(stats)
        return SenseBlock(channel_ids, statistic >= threshold, np.array(truth, dtype=bool),
                          statistic, threshold)
