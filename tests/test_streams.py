"""The per-entity generators against numpy's own SeedSequence derivation."""

from dataclasses import replace

import numpy as np
import pytest

from crvanet.config import ScenarioConfig, Scheme
from crvanet.engine import SimulationEngine
from crvanet.streams import FADING, INIT, MOBILITY, PU, SENSING, SU, StreamBundle

SEEDS = (0, 1, 2**32 - 1, 2**32, 2**40 + 7)
N_VEHICLES, N_CHANNELS, N_TOWERS = 50, 100, 2

# (domain, key): entity 0 and the largest id of each domain, on every tower for FADING
KEYS = (
    [(domain, (v,)) for domain in (INIT, MOBILITY, SU, SENSING) for v in (0, N_VEHICLES - 1)]
    + [(PU, (c,)) for c in (0, N_CHANNELS - 1)]
    + [(FADING, (t, v)) for t in range(N_TOWERS) for v in (0, N_VEHICLES - 1)]
)
ACCESSOR = {INIT: "init_stream", MOBILITY: "mobility_stream", SU: "su_stream",
            SENSING: "sensing_stream", FADING: "fading_stream"}


def _assert_same(rng, oracle):
    assert rng.bit_generator.state == oracle.bit_generator.state
    np.testing.assert_array_equal(rng.random(8), oracle.random(8))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("sized", [True, False])
def test_every_stream_equals_the_seed_sequence_oracle(seed, sized):
    """Built up front from the run's sizes, or derived on first use by a
    bundle without sizes (each key extends its list past the last one), a
    generator is the one SeedSequence gives. PU generators are read only in
    bulk, by the PU timeline, so only a sized bundle holds them."""
    streams = (StreamBundle(seed, N_VEHICLES, N_CHANNELS, N_TOWERS) if sized
               else StreamBundle(seed))
    assert len(streams.pu) == (N_CHANNELS if sized else 0)
    for domain, key in KEYS:
        oracle = np.random.default_rng(np.random.SeedSequence((seed, domain) + key))
        if domain == PU:
            if sized:
                _assert_same(streams.pu[key[0]], oracle)
        else:
            _assert_same(getattr(streams, ACCESSOR[domain])(*key), oracle)


@pytest.mark.parametrize("scheme", list(Scheme))
def test_a_run_builds_no_generator_after_init(scheme, monkeypatch):
    config = replace(ScenarioConfig(), running_time=0.3, seed=4, scheme=scheme).validate()
    engine = SimulationEngine(config)

    def refuse(*args, **kwargs):
        raise AssertionError("a generator was built during the run")

    for name in ("Generator", "default_rng", "SeedSequence", "PCG64"):
        monkeypatch.setattr(np.random, name, refuse)
    report = engine.run()
    assert report.sensing_events > 0
