"""Deterministic per-subsystem random streams.

A root seed fans out into independent generators, one per (domain,
entity) key, each the one ``default_rng(SeedSequence((seed, domain,
*entity)))`` gives. Changing how many draws one subsystem makes never
perturbs another, so mobility, PU schedules and vehicle parameters are
bit-identical for a seed whichever sensing scheme runs. A run builds each
domain's generators up front, in one vectorised pass (``derive``).

Domains:
    INIT      per-vehicle parameter draws (desired speed, human error)
    MOBILITY  per-vehicle driving randomization (the speed-choice draw)
    PU        per-channel PU hold/gap schedule
    SU        per-vehicle SU hold/gap schedule and attempt timing, and also
              each scheme's pick among its candidate channels, so a
              vehicle's later SU draws differ between schemes
    FADING    per-(tower, observer) small-scale fading draws
    SENSING   per-observer detector statistic draws
"""

from __future__ import annotations

from collections import defaultdict
from itertools import permutations

import numpy as np
from numpy.random.bit_generator import ISeedSequence

INIT = 0
MOBILITY = 1
PU = 2
SU = 3
FADING = 4
SENSING = 5

# numpy's SeedSequence constants (O'Neill's seed_seq_fe mixing); its pool is 4 words
_MASK = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED


class _SeedWords(ISeedSequence):
    """The four uint64 seed words PCG64 asks its seed sequence for, derived ahead."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def derive(seed: int, domain: int, entities: range, *prefix: int) -> list[np.random.Generator]:
    """The generators of keys (domain, *prefix, e) for every entity e < 2**32,
    in order: SeedSequence's pool mixing and generate_state(4, uint64) run
    on uint32 arrays over e (which wrap on overflow, as the C code does),
    and each row of seed words reaches PCG64 through ISeedSequence."""
    ids = np.asarray(entities, dtype=np.uint32)
    # every key part as SeedSequence reads an int: little-endian uint32 words
    entropy = [np.full_like(ids, n >> shift & _MASK) for n in (seed, domain, *prefix)
               for shift in range(0, max(n.bit_length(), 1), 32)] + [ids]
    h = _INIT_A

    def hashmix(value):
        nonlocal h
        value = (value ^ h) * (h := h * _MULT_A & _MASK)
        return value ^ value >> 16

    def mix_into(dst, value):
        r = pool[dst] * 0xCA01F9DD - hashmix(value) * 0x4973F715
        pool[dst] = r ^ r >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0 * ids) for i in range(4)]
    for src, dst in permutations(range(4), 2):
        mix_into(dst, pool[src])
    for word in entropy[4:]:
        for dst in range(4):
            mix_into(dst, word)
    hb = [_INIT_B * _MULT_B ** k & _MASK for k in range(9)]
    state = np.stack([(pool[i % 4] ^ hb[i]) * hb[i + 1] for i in range(8)], axis=1)
    words = (state ^ state >> 16).astype("<u4").view("<u8").astype(np.uint64)
    return [np.random.Generator(np.random.PCG64(_SeedWords(row))) for row in words]


class StreamBundle:
    """One run's generators, a list per domain (per tower for FADING), built
    up front from the run's sizes; an id past a list's end, as in a bundle
    made without sizes, derives the list's missing tail on first use."""

    def __init__(self, seed: int, n_vehicles: int = 0, n_channels: int = 0, n_towers: int = 0):
        self.seed = seed
        self.init, self.mobility, self.su, self.sensing = (
            derive(seed, domain, range(n_vehicles)) for domain in (INIT, MOBILITY, SU, SENSING))
        self.pu = derive(seed, PU, range(n_channels))
        self.fading = defaultdict(list, {t: derive(seed, FADING, range(n_vehicles), t)
                                         for t in range(n_towers)})

    def _at(self, streams: list, domain: int, entity: int, *prefix: int) -> np.random.Generator:
        if entity >= len(streams):
            streams += derive(self.seed, domain, range(len(streams), entity + 1), *prefix)
        return streams[entity]

    def init_stream(self, vehicle_id: int) -> np.random.Generator:
        return self._at(self.init, INIT, vehicle_id)

    def mobility_stream(self, vehicle_id: int) -> np.random.Generator:
        return self._at(self.mobility, MOBILITY, vehicle_id)

    def pu_stream(self, channel_id: int) -> np.random.Generator:
        return self._at(self.pu, PU, channel_id)

    def su_stream(self, vehicle_id: int) -> np.random.Generator:
        return self._at(self.su, SU, vehicle_id)

    def fading_stream(self, tower_id: int, observer_id: int) -> np.random.Generator:
        return self._at(self.fading[tower_id], FADING, observer_id, tower_id)

    def sensing_stream(self, observer_id: int) -> np.random.Generator:
        return self._at(self.sensing, SENSING, observer_id)
