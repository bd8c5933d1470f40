"""A plain reference engine: the model as README states it, in Python loops.

tests/test_reference_engine.py runs small scenarios through this module and
through crvanet.engine, and asserts equal counters and equal list traces,
move rows included. The reference shares only the model's pure pieces with
src: ScenarioConfig, StreamBundle, the Fleet's construction and its Gipps
decision, ChannelSensor.median_pu_snr, detection_threshold and block_pfa,
and the trace's TraceEvent and names. Everything src does in bulk, in
blocks, by cache or through an agenda is written here as the rule itself,
one tick at a time:

- motion: a Gipps decision every reaction time, from tick 0; each tick,
  every vehicle moves to (p + speed * direction * dt) % road;
- PU: each channel keeps the instant of its next flip, an exponential draw
  (the gap mean before an occupation, the hold mean before a vacation)
  after the tick of its last flip; every tick, the channels due flip by
  ascending id, and an occupation first preempts the channel's SU holder;
- coordination: epoch k at tick time >= k * coordinationInterval, when the
  scheme has epochs and the fleet is not empty;
- SU: every tick, every vehicle whose pending instant is due is stepped,
  by ascending id: a holder vacates, an idle vehicle attempts;
- sensing: one draw per window from each stream, the fading gain from the
  (tower, observer) stream and the Gamma statistic from the observer's,
  windows in the order sensed; a channel is truly occupied if its PU is
  active or its SU holder took it within sensingRange of the observer.

An event is due at the first tick whose time reaches its instant less
1e-12 s. Each stream is a separate generator, so only the order of the
draws within one generator matters, and a size-n draw equals n scalar
draws. `reached` counts the rare paths a run went through, so that a test
can check that its examples reached them.
"""

from collections import Counter

import numpy as np

from crvanet.config import Scheme
from crvanet.mobility import Fleet
from crvanet.report import (
    MOVE,
    PU_OCCUPIED,
    PU_VACATED,
    SENSE,
    SU_BACKOFF,
    SU_INTERFERENCE,
    SU_OCCUPIED,
    SU_PREEMPTED,
    SU_VACATED,
    TraceEvent,
)
from crvanet.sensing import ChannelSensor, block_pfa, detection_threshold
from crvanet.streams import StreamBundle

EPS = 1e-12             # s: an event is due at the first tick k with k * dt >= instant - EPS
SU_SNR = 10.0 ** 2.0    # an SU within sensingRange is sensed at a flat 20 dB
VOTES_PER_EPOCH = 5     # cooperative: channels each vehicle senses per epoch
SHORTLIST = 3           # cooperative: candidates a requester verifies
RECHECK_BLOCKS = 2      # proposed: fading blocks of a requester's re-check
VACANT, OCCUPIED, UNKNOWN = 0, 1, 2   # cooperative votes
CLASS_COUNTERS = {"correctDetection": "correct_detections", "falseAlarm": "false_alarms",
                  "misdetection": "misdetections"}


def exponential(rng, mean):
    """An exponential draw of the given mean; a draw <= 0 is drawn again."""
    draw = rng.exponential(mean)
    while draw <= 0.0:
        draw = rng.exponential(mean)
    return draw


def pick(channels, rng):
    """A uniform pick among the candidates, None if there are none; a lone
    candidate is taken without a draw."""
    if len(channels) > 1:
        return int(channels[rng.integers(len(channels))])
    return int(channels[0]) if channels else None


class ReferenceEngine:
    def __init__(self, config):
        self.config, n, m = config, config.n_vehicles, config.n_channels
        self.streams = StreamBundle(config.seed, n, m, config.n_pu_towers)
        self.fleet = Fleet(config, self.streams)
        self.positions, self.speeds = self.fleet.positions.tolist(), []
        self.directions = self.fleet.directions.tolist()
        self.median_snr = ChannelSensor(config).median_pu_snr
        self.per_tower = m // config.n_pu_towers
        self.pu_active, self.holder, self.held = [False] * m, {}, {}   # holder: c -> (v, pos)
        self.pu_next = [exponential(rng, config.pu_gap_mean) for rng in self.streams.pu]
        self.su_next = [exponential(rng, config.su_gap_mean) for rng in self.streams.su]
        self.votes = [[UNKNOWN] * m for _ in range(n)]
        self.cluster_of, self.reports, self.report_time = [-1] * n, [], 0.0
        self.counters, self.trace, self.reached = Counter(), [], Counter()

    def emit(self, kind, channel=-1, actor=-1, detail=""):
        self.trace.append(TraceEvent(self.tick, self.now, kind, channel, actor, detail))

    def run(self):
        """Returns the counters and the list trace, move rows included."""
        config, dt = self.config, self.config.time_step
        period = max(1, round(config.reaction_time / dt))
        epochs = 0
        for tick in range(int(config.running_time / dt + 1e-9)):   # floor, as config rounds it
            now = tick * dt
            self.tick, self.now = tick, now
            if tick % period == 0:
                self.fleet.positions = np.array(self.positions, dtype=float)
                self.fleet.decide()
                self.speeds = self.fleet.speeds.tolist()
            self.move(dt)
            self.flip_pus(now)
            if (config.scheme is not Scheme.STANDALONE and self.positions
                    and now >= epochs * config.coordination_interval - EPS):
                self.epoch(epochs)
                epochs += 1
            due = [v for v, instant in enumerate(self.su_next) if now >= instant - EPS]
            self.reached["due together"] += len(due) > 1
            for v in due:
                self.step_su(v)
        return self.counters, self.trace

    def move(self, dt):
        road = self.config.road_length
        for v, (x, speed, direction) in enumerate(zip(self.positions, self.speeds,
                                                      self.directions)):
            moved = x + speed * direction * dt
            self.positions[v] = moved % road
            self.reached["wrap"] += moved != self.positions[v]
            self.emit(MOVE, -1, v, f"{self.positions[v]:.3f},{speed:.3f}")

    def flip_pus(self, now):
        config = self.config
        for c, instant in enumerate(list(self.pu_next)):
            if now < instant - EPS:
                continue
            self.pu_active[c] = occupied = not self.pu_active[c]
            if occupied and c in self.holder:
                v, _ = self.holder.pop(c)
                del self.held[v]
                self.su_next[v] = now + exponential(self.streams.su[v], config.su_gap_mean)
                self.counters["preemptions"] += 1
                self.emit(SU_PREEMPTED, c, v)
            self.emit(PU_OCCUPIED if occupied else PU_VACATED, c, c // self.per_tower)
            mean = config.pu_hold_mean if occupied else config.pu_gap_mean
            self.pu_next[c] = now + exponential(self.streams.pu[c], mean)

    def sense(self, observer, channels, blocks=1):
        """[(channel, decided occupied, truly occupied)]: each channel over
        `blocks` fading blocks, window b * k + i the i-th of the k channels
        in block b, decided occupied if any window's statistic reaches the
        per-block threshold."""
        config, n = self.config, self.config.sensing_samples
        pfa = config.target_pfa if blocks == 1 else block_pfa(config.target_pfa, blocks)
        threshold, pos = detection_threshold(pfa, n), self.positions[observer]
        windows = channels * blocks
        gains = [self.streams.fading[c // self.per_tower][observer].standard_exponential()
                 for c in windows]
        draws = [self.streams.sensing[observer].standard_gamma(n) for _ in windows]
        snr, sensed = self.median_snr(pos), []
        for i, c in enumerate(channels):
            pu = self.pu_active[c]
            su = c in self.holder and abs(self.holder[c][1] - pos) <= config.sensing_range
            med = (snr if pu else 0.0) + (SU_SNR if su else 0.0)
            stat = max(draws[w] * ((1.0 + med * gains[w]) / n)
                       for w in range(i, len(windows), len(channels)))
            sensed.append((c, stat >= threshold, pu or su))
        return sensed

    def epoch(self, k):
        if self.config.scheme is Scheme.COOPERATIVE:
            n, count = self.config.n_channels, min(VOTES_PER_EPOCH, self.config.n_channels)
            for v, votes in enumerate(self.votes):
                channels = [(k * count + v * 7 + j) % n for j in range(count)]
                self.reached["row crosses towers"] += (self.towers(channels) > 1
                                                       or channels != sorted(channels))
                for c, occupied, _ in self.sense(v, channels):
                    votes[c] = int(occupied)
            return
        # proposed: every cluster's coordinators sense the band; a channel is
        # reported vacant if all of them decide it vacant
        self.reports, band, elected = [], list(range(self.config.n_channels)), self.elect()
        self.reached["several coordinators"] += len({v for _, roles in elected for v in roles}) > 1
        for index, (members, roles) in enumerate(elected):
            for v in members:
                self.cluster_of[v] = index
            occupied = set()
            for v in dict.fromkeys(roles):
                occupied.update(c for c, decided, _ in self.sense(v, band) if decided)
            self.reports.append([c for c in band if c not in occupied])
        self.report_time = self.now

    def elect(self):
        """[(members, (main, forward, backward))] per cluster: a maximal
        chain of same-direction vehicles whose gaps, in position order,
        are within commRange; clusters heading +1 first, then by position.
        Forward is furthest along the direction, backward the rearmost,
        main the nearest the members' mean position; ties go to the lowest id."""
        positions, clusters = self.positions, []
        for direction in (1, -1):
            chain = []
            for v in sorted(range(len(positions)), key=lambda v: (positions[v], v)):
                if self.directions[v] != direction:
                    continue
                if chain and positions[v] - positions[chain[-1]] > self.config.comm_range:
                    clusters.append((direction, chain))
                    chain = []
                chain.append(v)
            if chain:
                clusters.append((direction, chain))
        elected = []
        for direction, members in clusters:
            members = sorted(members)
            centroid = np.mean([positions[v] for v in members])
            main = min(members, key=lambda v: (abs(positions[v] - centroid), v))
            forward = min(members, key=lambda v: (-positions[v] * direction, v))
            backward = min(members, key=lambda v: (positions[v] * direction, v))
            elected.append((members, (main, forward, backward)))
        return elected

    def attempt(self, v):
        """The channels sensed, and the channel to occupy or None."""
        rng, scheme = self.streams.su[v], self.config.scheme
        if scheme is Scheme.STANDALONE:
            sensed = self.sense(v, list(range(self.config.n_channels)))
            return sensed, pick([c for c, occupied, _ in sensed if not occupied], rng)
        if scheme is Scheme.COOPERATIVE:
            sensed = self.sense(v, self.shortlist(v, rng))
            for c, occupied, _ in sensed:
                self.votes[v][c] = int(occupied)
            return sensed, pick([c for c, occupied, _ in sensed if not occupied], rng)
        cluster = self.cluster_of[v]
        stale = self.now - self.report_time > self.config.coordination_interval + EPS
        channel = pick([] if cluster < 0 or stale else self.reports[cluster], rng)
        if channel is None:
            return [], None
        sensed = self.sense(v, [channel], RECHECK_BLOCKS)
        self.reached["recheck occupied"] += sensed[0][1]
        return sensed, None if sensed[0][1] else channel

    def shortlist(self, v, rng):
        """Up to SHORTLIST channels, level by level: voted vacant by anyone
        within commRange (the requester included), then unvoted, then voted
        occupied; a level with more channels than are still wanted gives a
        sorted draw of them."""
        near = [self.votes[u] for u, x in enumerate(self.positions)
                if abs(x - self.positions[v]) <= self.config.comm_range]
        rank = [min(column) for column in zip(*near)]
        picked = []
        for level in (VACANT, UNKNOWN, OCCUPIED):
            pool, want = [c for c, r in enumerate(rank) if r == level], SHORTLIST - len(picked)
            if len(pool) > want:
                pool = sorted(pool[i] for i in rng.choice(len(pool), want, replace=False))
                self.reached["level drawn"] += 1
            elif pool:
                self.reached["level taken whole"] += 1
                self.reached["level of the size wanted"] += len(pool) == want
            picked += pool
            if len(picked) == SHORTLIST:
                break
        self.reached["list over towers"] += self.towers(picked) > 1
        return picked

    def towers(self, channels):
        """How many towers the channels belong to."""
        return len({c // self.per_tower for c in channels})

    def step_su(self, v):
        config, rng, now = self.config, self.streams.su[v], self.now
        if v in self.held:
            c = self.held.pop(v)
            del self.holder[c]
            self.su_next[v] = now + exponential(rng, config.su_gap_mean)
            self.emit(SU_VACATED, c, v)
            return
        sensed, chosen = self.attempt(v)
        for c, occupied, truth in sensed:
            detail = ("correctDetection" if occupied == truth
                      else "falseAlarm" if occupied else "misdetection")
            self.counters[CLASS_COUNTERS[detail]] += 1
            self.counters["sensing_events"] += 1
            self.emit(SENSE, c, v, detail)
        if chosen is None:
            self.back_off(v, -1, "")
        elif chosen in self.holder:
            self.back_off(v, chosen, "holder-conflict")
        elif self.pu_active[chosen]:
            self.counters["harmful_occupations"] += 1
            self.emit(SU_INTERFERENCE, chosen, v)
            self.back_off(v, chosen, "pu-collision")
        else:
            self.holder[chosen], self.held[v] = (v, self.positions[v]), chosen
            self.su_next[v] = now + exponential(rng, config.su_hold_mean)
            self.counters["allocations"] += 1
            self.emit(SU_OCCUPIED, chosen, v)

    def back_off(self, v, channel, detail):
        self.su_next[v] = self.now + self.config.back_off_time
        self.counters["backoffs"] += 1
        self.emit(SU_BACKOFF, channel, v, detail)
