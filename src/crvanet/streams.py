"""Deterministic per-subsystem random streams.

A root seed fans out into independent generators, one per (domain,
entity) key, each the one ``default_rng(SeedSequence((seed, domain,
*entity)))`` gives. Changing how many draws one subsystem makes never
perturbs another, so mobility, PU schedules and vehicle parameters are
bit-identical for a seed whichever sensing scheme runs. A run's bundle is
always built at full size: every domain's generators up front, in one
vectorised pass (``derive``), and nothing is derived later.

Domains:
    INIT      per-vehicle parameter draws (desired speed, human error)
    MOBILITY  per-vehicle driving randomization (the speed-choice draw)
    PU        per-channel PU hold/gap schedule, drawn in bulk and only by the
              run's PU timeline (scheduling.pu_timeline)
    SU        per-vehicle SU hold/gap schedule and attempt timing, and also
              each scheme's pick among its candidate channels, so a
              vehicle's later SU draws differ between schemes
    FADING    per-(tower, observer) small-scale fading draws
    SENSING   per-observer detector statistic draws
"""

from __future__ import annotations

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
    """One run's generators, all built up front from the run's sizes: a list
    per domain, indexed by entity id (``su[v]``, ``pu[c]``), and for FADING
    a list per tower, indexed by observer (``fading[t][o]``)."""

    def __init__(self, seed: int, n_vehicles: int, n_channels: int, n_towers: int):
        self.init, self.mobility, self.su, self.sensing = (
            derive(seed, domain, range(n_vehicles)) for domain in (INIT, MOBILITY, SU, SENSING))
        self.pu = derive(seed, PU, range(n_channels))
        self.fading = [derive(seed, FADING, range(n_vehicles), t) for t in range(n_towers)]
