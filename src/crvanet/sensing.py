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
the ground truth at the same instant and the statistic; classify_block
classifies decisions against truth. The sensor owns the channel plan: the
PU towers split the band evenly, each owning one contiguous run of
channels. sense_block takes the three shapes the schemes send, each
observer drawing from its own streams exactly as it would sensing alone,
bit for bit the same computation on every route. Lists in, lists out:
one observer's listed channels (cooperative shortlists, proposed
re-checks) run in Python floats, as numpy's fixed cost per operation
would dominate them; this is the only route that senses over several
blocks. Arrays in, arrays out, over one fading block: the sensor's
read-only `band` (every channel) at one observer (standalone attempts)
or several (proposed epochs), and an (observers, k) grid of one row per
observer (cooperative epochs). Each observer's statistic draws fill its
row, and its fading draws fill the same slots of the gains, one draw per
run of consecutive channels of one tower. A band call skips the id check
and the run search: it reads the channel map whole and takes the band's
tower runs, stored once, so one observer's band costs a fading draw per
tower, one statistic draw and one pass of 1-D operations. On every route
an SU holder makes a channel truly occupied within sensingRange of the
observer; the channel map holds +inf as the position of no holder, so
the range test alone decides.
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


@dataclass(eq=False, slots=True)
class SenseBlock:
    """Sensing of a set of channels: one entry per channel for one
    observer, one row per observer for several. The fields are lists for
    one observer's list of ids, else arrays."""

    channel_ids: list | np.ndarray   # int, as passed: the list, the read-only band or the grid
    occupied: list | np.ndarray      # bool decision: statistic >= threshold
    truth: list | np.ndarray         # bool: truly occupied at the observer
    statistic: list | np.ndarray     # linear power


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


def classify_block(occupied, truth):
    """One index into CLASSES per (decided occupied, truly occupied) pair,
    of two bool arrays or of two bools (a plain int). Agreement is a
    correct detection, a wrong occupied decision a false alarm, a wrong
    vacant one a misdetection: a disagreement shifted left by the truth."""
    return (occupied ^ truth) << truth


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
        # the channel plan: the towers split the band evenly, tower t owning
        # the contiguous channels [t * per_tower, (t + 1) * per_tower)
        self.per_tower = per_tower = config.n_channels // config.n_pu_towers
        # the whole band, read-only, and its tower runs
        self.band = np.arange(config.n_channels)
        self.band.flags.writeable = False
        self._band_runs = [(t, t * per_tower, (t + 1) * per_tower)
                           for t in range(config.n_pu_towers)]
        self._thresholds = {1: detection_threshold(self.target_pfa, self.n_samples)}

    def median_pu_snr(self, observer_pos: float) -> float:
        """Median (no fading) linear SNR of every PU tower's signal at a road
        position: each tower stands towerOffset from the road midpoint (with
        the default 2 km road and 10 km offset, 10 to 10.05 km away), a
        distance ScenarioConfig.validate keeps in Hata's range."""
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

    def sense_block(self, observer_ids, observer_pos, channel_ids, channel_map, streams, *,
                    blocks: int = 1) -> SenseBlock:
        """Sense channels at one or more observers; channel_map holds the
        ground truth at the sensing instant.

        Three call shapes, each bit for bit every observer sensing alone in
        turn, every generator drawn exactly so. One observer (scalar id and
        position) given a list of ids takes _sense_listed and gets lists:
        the ids as passed and one entry each. The sensor's `band` itself
        (channel_map must hold exactly its channels), at one observer or m
        distinct ones (1-D ids and positions), reads the map whole and gets
        1-D or (m, n) arrays; an (m, k) grid of ids, k >= 1, one row for
        each of m distinct observers, gets (m, k) arrays. Any other array
        shape is rejected by name before any draw. Results are new arrays;
        the SenseBlock's channel_ids is the band or the grid.

        Only a list call may take blocks > 1 (keyword only, so perfbench's
        tracer finds it by name). Each listed channel is then observed over
        that many independent fading blocks and decided occupied if any
        block's statistic crosses the per-block threshold (max-hold time
        diversity), whose false-alarm target is compensated for the
        max-hold; the overall rate is targetPfa only as far as the
        Gaussian-tail threshold is exact (ROADMAP item 1).
        """
        single = isinstance(observer_ids, (int, np.integer))
        if single and isinstance(channel_ids, list):
            return self._sense_listed(int(observer_ids), float(observer_pos), channel_ids,
                                      channel_map, streams, blocks)
        if blocks != 1:
            raise ValueError(f"array calls sense one block, got blocks={blocks}; "
                             "only one observer's listed channels take several")
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
        # Each observer's row of channels splits into runs of consecutive
        # channels of one tower. A run's gains come from the observer's
        # stream for that tower, in position order, so drawing every run
        # straight into its slots of the flat gains gives each stream the
        # sequence of one draw of the run's count. The statistic draws fill
        # one array for one observer, else each observer's row.
        if channel_ids is self.band:   # valid ids, the map read whole, the towers' runs stored once
            if channel_map.n_channels != channel_ids.size:
                raise ValueError(f"channel map of {channel_map.n_channels} channels "
                                 f"for a band of {channel_ids.size}")
            pu_active, holder_pos = channel_map.pu_active, channel_map.su_holder_pos
            k, runs = channel_ids.size, self._band_runs
            if not single:   # each observer takes the band's runs
                runs = [(tower, o * k + start, o * k + end)
                        for o in range(m) for tower, start, end in runs]
        else:
            shape = np.shape(channel_ids)
            if single or len(shape) != 2 or shape[0] != m or not shape[1]:
                raise ValueError(f"channel_ids of shape {shape} for {m} observer(s): an array "
                                 "must be the band or one row of k >= 1 ids per observer")
            channel_ids, k = np.asarray(channel_ids, dtype=int), shape[1]
            # as unsigned, a negative id is larger than every valid one
            if not (np.maximum.reduce(channel_ids.view(np.uint64), axis=None)
                    < self.config.n_channels):
                raise ValueError(f"unknown channel in {channel_ids.tolist()}")
            pu_active = channel_map.pu_active[channel_ids]
            holder_pos = channel_map.su_holder_pos[channel_ids]
            # the rows flat: a run starts at a row's start or a new tower
            towers = (channel_ids // self.per_tower).ravel()
            run_start = np.empty(towers.size, dtype=bool)
            np.not_equal(towers[1:], towers[:-1], out=run_start[1:])
            run_start[::k] = True
            starts = run_start.nonzero()[0].tolist()
            runs = list(zip(towers[run_start].tolist(), starts, starts[1:] + [towers.size]))

        threshold = self.threshold_for(1)
        # ground truth at each observer; no SU holder sits at +inf
        su_in_range = np.abs(holder_pos - pos) <= self.config.sensing_range
        truth_occupied = pu_active | su_in_range
        gains, fading = np.empty(m * k), streams.fading
        for tower, start, end in runs:
            fading[tower][observers[start // k]].standard_exponential(out=gains[start:end])
        if single:
            stat = streams.sensing[observers[0]].standard_gamma(self.n_samples, k)
        else:
            gains, stat = gains.reshape(m, k), np.empty((m, k))
            for observer, row in zip(observers, stat):
                streams.sensing[observer].standard_gamma(self.n_samples, out=row)

        # One statistic per (observer, channel), drawn from its exact
        # Gamma(N, (1 + snr * gain) / N) form: standard_gamma(N) * scale is
        # the very draw gamma(N, scale) makes, bit for bit, without gamma's
        # costly checks of an array scale.
        gains *= pu_active * snr_pu + su_in_range * self.su_snr_linear
        gains += 1.0
        gains /= self.n_samples
        stat *= gains
        return SenseBlock(channel_ids, stat >= threshold, truth_occupied, stat)

    def _sense_listed(self, observer, pos, ids, channel_map, streams, blocks):
        """sense_block for one observer's listed channels: the array path's
        draws and IEEE operations, in order, on Python floats; lists out.
        Window b * k + i is the i-th of the k channels in block b. Each
        window's gain is one draw from its channel's tower stream, taken in
        window order: the sequence the array path's one draw per run gives
        each stream. One pass finds each channel's truth and max-hold statistic."""
        k, n_samples, per_tower = len(ids), self.n_samples, self.per_tower
        if ids and (min(ids) < 0 or max(ids) >= self.config.n_channels):
            raise ValueError(f"unknown channel in {ids}")
        threshold, windows, fading = self.threshold_for(blocks), blocks * k, streams.fading
        gains = [fading[c // per_tower][observer].standard_exponential() for c in ids * blocks]
        draws = streams.sensing[observer].standard_gamma(n_samples, windows).tolist()
        snr, su_snr = self.median_pu_snr(pos), self.su_snr_linear
        pu_at, holder_pos_at = channel_map.pu_active.item, channel_map.su_holder_pos.item
        occupied, truth, stats, sensing_range = [], [], [], self.config.sensing_range
        for i, c in enumerate(ids):
            pu = pu_at(c)
            su = abs(holder_pos_at(c) - pos) <= sensing_range
            med, stat = (snr if pu else 0.0) + (su_snr if su else 0.0), 0.0
            for w in range(i, windows, k):   # the max-hold of positive statistics
                stat = max(stat, draws[w] * ((1.0 + med * gains[w]) / n_samples))
            occupied.append(stat >= threshold)
            truth.append(pu or su)
            stats.append(stat)
        return SenseBlock(ids, occupied, truth, stats)
