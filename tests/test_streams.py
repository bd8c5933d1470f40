"""The per-entity generators against numpy's own SeedSequence derivation."""

from dataclasses import replace

import numpy as np
import pytest

from crvanet.config import ScenarioConfig, Scheme
from crvanet.engine import SimulationEngine
from crvanet.streams import FADING, INIT, MOBILITY, PU, SENSING, SU, StreamBundle

SEEDS = (0, 1, 2**32 - 1, 2**32, 2**40 + 7)


def _assert_same(rng, oracle):
    assert rng.bit_generator.state == oracle.bit_generator.state
    np.testing.assert_array_equal(rng.random(8), oracle.random(8))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("many_towers", [True, False])
def test_every_stream_equals_the_seed_sequence_oracle(seed, many_towers):
    """A bundle holds one generator per entity of each domain (per tower and
    observer for FADING), each the one SeedSequence gives for its key; the
    default run's sizes, and a smaller fleet under four towers."""
    n_vehicles, n_channels, n_towers = (10, 100, 4) if many_towers else (50, 100, 2)
    streams = StreamBundle(seed, n_vehicles, n_channels, n_towers)
    lists = {INIT: streams.init, MOBILITY: streams.mobility, SU: streams.su,
             SENSING: streams.sensing, PU: streams.pu}
    assert [len(entities) for entities in lists.values()] == [n_vehicles] * 4 + [n_channels]
    assert [len(row) for row in streams.fading] == [n_vehicles] * n_towers
    # entity 0 and the largest id of each domain, on every tower for FADING
    for domain, entities in lists.items():
        for e in (0, len(entities) - 1):
            oracle = np.random.default_rng(np.random.SeedSequence((seed, domain, e)))
            _assert_same(entities[e], oracle)
    for t in range(n_towers):
        for v in (0, n_vehicles - 1):
            oracle = np.random.default_rng(np.random.SeedSequence((seed, FADING, t, v)))
            _assert_same(streams.fading[t][v], oracle)


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
