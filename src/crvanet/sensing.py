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
alone. The call's shape picks its route. The sensor's read-only `band`
(every channel, as standalone attempts and proposed epochs sense) and
observer arrays (cooperative epoch grids) take the array path over one
fading block: each observer's statistic draws fill its row of one
(observers, channels) grid, and its fading draws fill the same slots of a
gain grid, one draw per run of consecutive channels of one tower. A band
call skips the id check and the run search: it reads the channel map
whole and takes the band's tower runs, stored once. One observer's listed
channels (cooperative shortlists, proposed re-checks) run the same
arithmetic bit for bit in Python floats, as numpy's fixed cost per
operation would dominate them; this is the only route that senses over
several blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import ScenarioConfig
from .propagation import (
    HataModel,
    hata_suburban_loss,  # noqa: F401  unused here; perfbench/selftest.py expects this lookup site
    thermal_noise_power,
)

# SUs sensed within sensingRange are modeled at a flat, strongly detectable
# SNR instead of a full SU link budget.
SU_SENSE_SNR_DB = 20.0


@dataclass(frozen=True, eq=False)
class SenseBlock:
    """Sensing of a set of channels: one entry per channel for one
    observer, one row per observer for several."""

    channel_ids: np.ndarray   # int, as passed (maybe the read-only band): 1-D when shared
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
    a misdetection: a disagreement times 1 if occupied, 2 if vacant."""
    return (occupied != truth) * (2 - occupied)


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

    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.noise_dbw = thermal_noise_power(config.noise_temperature, config.channel_bandwidth)
        self.hata = HataModel(config.frequency, config.base_station_height, config.mobile_height)
        self.n_samples = config.sensing_samples
        self.target_pfa = config.target_pfa
        self.su_snr_linear = 10.0 ** (SU_SENSE_SNR_DB / 10.0)
        # the tower owning each channel: contiguous blocks of channelsPerTower
        self.tower_of = np.repeat(np.arange(config.n_pu_towers), config.channels_per_tower)
        # the whole band, read-only, and its tower runs: tower t covers
        # channels [t * channelsPerTower, (t + 1) * channelsPerTower)
        self.band = np.arange(config.n_channels)
        self.band.flags.writeable = False
        self._band_towers = list(range(config.n_pu_towers))
        self._band_starts = [t * config.channels_per_tower for t in self._band_towers]
        self._thresholds = {1: detection_threshold(self.target_pfa, self.n_samples)}

    def median_pu_snr(self, observer_pos: float) -> float:
        """Median (no fading) linear SNR of every PU tower's signal at a road
        position: each tower stands towerOffset from the road midpoint (with
        the default 2 km road and 10 km offset, 10 to 10.05 km away)."""
        distance = math.hypot(observer_pos - self.config.road_length / 2.0,
                              self.config.tower_offset)
        loss = self.hata.suburban_loss(distance / 1000.0)
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
        and gets 1-D result arrays. m distinct observers (1-D ids and
        positions) sense either the same 1-D channel_ids or one row each of
        an (m, k) channel_ids grid, and get (m, k) result arrays. Every
        generator is drawn exactly as if each observer sensed alone, in
        turn. The call's shape picks one of two routes, bit for bit the
        same computation: one observer's listed channels take _sense_short
        in Python floats; the band and observer arrays take the array path,
        whose draws land straight in preallocated (m, k) grids.

        Passing the sensor's `band` itself as channel_ids takes the band
        path: no id check, the map's arrays read whole rather than gathered
        (channel_map must hold exactly the band's channels), and the stored
        tower runs repeated per observer. Results are the same bit for bit
        and are new arrays; the SenseBlock's channel_ids is the read-only
        band.

        Only one observer's listed channels may take blocks > 1: each
        channel is observed over that many independent fading blocks and
        decided occupied if any block's statistic crosses the per-block
        threshold (max-hold time diversity); the per-block false-alarm
        target is compensated for the max-hold, so the overall rate is
        targetPfa only as far as the Gaussian-tail threshold is exact
        (ROADMAP item 1).
        """
        single = isinstance(observer_ids, (int, np.integer))
        band = channel_ids is self.band
        if not band:
            channel_ids = np.asarray(channel_ids, dtype=int)
            if single:
                if channel_ids.ndim != 1:
                    raise ValueError(
                        f"one observer needs 1-D channel_ids, got shape {channel_ids.shape}")
                return self._sense_short(int(observer_ids), float(observer_pos), channel_ids,
                                         channel_map, streams, blocks)
        elif channel_map.n_channels != channel_ids.size:
            raise ValueError(f"channel map of {channel_map.n_channels} channels "
                             f"for a band of {channel_ids.size}")
        if blocks != 1:
            raise ValueError(f"band and grid calls sense one block, got blocks={blocks}; "
                             "only one observer's listed channels take several")
        k = channel_ids.shape[-1]
        # Each observer's row of channels splits into runs of consecutive
        # channels of one tower. A run's gains come from the observer's
        # stream for that tower, in position order, so drawing every run
        # straight into its slots of the gain grid gives each stream the
        # sequence of one draw of the run's count. The statistic draws fill
        # the observer's row of its grid.
        if band:   # valid ids, the map read whole, the towers' runs stored once
            pu_active, holders, holder_pos = (channel_map.pu_active, channel_map.su_holder,
                                              channel_map.su_holder_pos)
            starts, run_towers, rows = self._band_starts, self._band_towers, 1
        else:
            # as unsigned, a negative id is larger than every valid one
            if channel_ids.size and not (np.maximum.reduce(channel_ids.view(np.uint64),
                                                           axis=None) < self.config.n_channels):
                raise ValueError(f"unknown channel in {channel_ids.tolist()}")
            pu_active = channel_map.pu_active[channel_ids]
            holders = channel_map.su_holder[channel_ids]
            holder_pos = channel_map.su_holder_pos[channel_ids]
            towers = self.tower_of[channel_ids].reshape(-1, k)   # one row shared, or one each
            run_start = np.empty(towers.shape, dtype=bool)
            run_start[:, 0] = True
            np.not_equal(towers[:, 1:], towers[:, :-1], out=run_start[:, 1:])
            starts = run_start.ravel().nonzero()[0].tolist()
            run_towers, rows = towers[run_start].tolist(), len(towers)

        threshold = self.threshold_for(1)
        # one median PU SNR per observer: every tower is as far from it
        if single:
            observers, pos = [int(observer_ids)], float(observer_pos)
            snr_pu = self.median_pu_snr(pos)
        else:
            observers = np.asarray(observer_ids, dtype=int).tolist()
            if not observers or len(set(observers)) < len(observers):
                raise ValueError(f"sense_block needs distinct observers, got {observers}")
            pos = np.asarray(observer_pos, dtype=float)[:, None]
            snr_pu = np.array(list(map(self.median_pu_snr, pos[:, 0].tolist())))[:, None]
        m = len(observers)
        # ground truth at each observer
        su_in_range = (holders >= 0) & (np.abs(holder_pos - pos) <= self.config.sensing_range)
        truth_occupied = pu_active | su_in_range
        if rows < m:
            starts = [o * k + start for o in range(m) for start in starts]
            run_towers = run_towers * m   # a new list: the band's runs are stored
        gains = np.empty((m, k))
        stat = np.empty((m, k))
        fading, flat = streams.fading, gains.reshape(-1)
        for tower, start, end in zip(run_towers, starts, starts[1:] + [m * k]):
            fading[tower][observers[start // k]].standard_exponential(out=flat[start:end])
        for o, observer in enumerate(observers):
            streams.sensing[observer].standard_gamma(self.n_samples, out=stat[o])

        # One statistic per (observer, channel), drawn from its exact
        # Gamma(N, (1 + snr * gain) / N) form: standard_gamma(N) * scale is
        # the very draw gamma(N, scale) makes, bit for bit, without gamma's
        # costly checks of an array scale.
        gains *= pu_active * snr_pu + su_in_range * self.su_snr_linear
        gains += 1.0
        gains /= self.n_samples
        stat *= gains
        statistic = stat[0] if single else stat
        return SenseBlock(channel_ids, statistic >= threshold, truth_occupied, statistic,
                          threshold)

    def _sense_short(self, observer, pos, channel_ids, channel_map, streams, blocks):
        """sense_block for one observer's listed channels: the array path's
        draws and IEEE operations, in order, on Python floats, block after
        block."""
        ids = channel_ids.tolist()
        if not all(0 <= c < self.config.n_channels for c in ids):
            raise ValueError(f"unknown channel in {ids}")
        threshold = self.threshold_for(blocks)
        towers_here = [c // self.config.channels_per_tower for c in ids]
        gains = {t: iter(streams.fading[t][observer]   # per sensed tower, block-major
                         .standard_exponential(blocks * towers_here.count(t)).tolist())
                 for t in set(towers_here)}
        draws = iter(streams.sensing[observer].standard_gamma(
            self.n_samples, blocks * len(ids)).tolist())
        snr = self.median_pu_snr(pos)
        meds, truth, sensing_range, su_snr = [], [], self.config.sensing_range, self.su_snr_linear
        for t, pu, holder, holder_pos in zip(
                towers_here, channel_map.pu_active[channel_ids].tolist(),
                channel_map.su_holder[channel_ids].tolist(),
                channel_map.su_holder_pos[channel_ids].tolist()):
            su = holder >= 0 and abs(holder_pos - pos) <= sensing_range
            meds.append((snr if pu else 0.0) + (su_snr if su else 0.0))
            truth.append(pu or su)
        stats, n_samples = [0.0] * len(ids), self.n_samples   # max-hold of positive statistics
        for _ in range(blocks):   # block after block, each channel takes its next draws
            stats = [max(stat, next(draws) * ((1.0 + med * next(gains[t])) / n_samples))
                     for stat, t, med in zip(stats, towers_here, meds)]
        statistic = np.array(stats)
        return SenseBlock(channel_ids, statistic >= threshold, np.array(truth, dtype=bool),
                          statistic, threshold)
