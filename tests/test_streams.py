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
    # every entity of every domain, and every observer on every tower, so a
    # batched pass sliced at the wrong place fails
    for domain, entities in lists.items():
        for e, rng in enumerate(entities):
            _assert_same(rng, np.random.default_rng(np.random.SeedSequence((seed, domain, e))))
    for t, observers in enumerate(streams.fading):
        for v, rng in enumerate(observers):
            _assert_same(rng, np.random.default_rng(np.random.SeedSequence((seed, FADING, t, v))))


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


# The first draws of every Generator method the engine calls, in the forms it
# calls them, from one fixed PCG64 state (recorded with numpy 2.4.6). Every
# golden digest rests on these algorithms, which numpy may change between
# versions (NEP 19); such a change fails here by method name first.
PINNED_DRAWS = {
    "standard_gamma": (lambda rng: rng.standard_gamma(100, 4).tolist(),
                       [101.79485582362338, 98.16228311579002,
                        97.02773043898426, 107.4932305758257]),
    "standard_exponential": (lambda rng: rng.standard_exponential(4).tolist(),
                             [0.48710508570151523, 0.19496529229895246,
                              1.3601130203188903, 0.109084109601754]),
    "exponential": (lambda rng: [rng.exponential(0.025) for _ in range(3)],
                    [0.01217762714253788, 0.004874132307473812, 0.034002825507972255]),
    "integers": (lambda rng: [int(rng.integers(7)) for _ in range(6)], [2, 1, 2, 0, 4, 6]),
    "choice(replace=False)": (lambda rng: [rng.choice(10, 3, replace=False).tolist(),
                                           rng.choice(40, 5, replace=False).tolist()],
                              [[3, 8, 2], [31, 2, 5, 20, 0]]),
    "random": (lambda rng: [rng.random() for _ in range(3)],
               [0.2727755408973487, 0.06333372704672868, 0.8853879581786736]),
    "uniform": (lambda rng: [rng.uniform(0.9, 1.1) for _ in range(3)],
                [0.9545551081794698, 0.9126667454093458, 1.0770775916357347]),
}


@pytest.mark.parametrize("method", list(PINNED_DRAWS))
def test_generator_draws_are_pinned(method):
    draw, expected = PINNED_DRAWS[method]
    assert draw(np.random.Generator(np.random.PCG64(20150701))) == expected


def test_integers_of_one_draws_nothing():
    """coordination.pick takes a lone candidate without calling integers:
    integers(1) returns 0 and leaves the generator where it was, so the
    skip changes no later draw. A numpy that starts drawing here fails by
    name, before any golden digest."""
    rng = np.random.Generator(np.random.PCG64(20150701))
    state = rng.bit_generator.state
    assert [int(rng.integers(1)) for _ in range(3)] == [0, 0, 0]
    assert rng.bit_generator.state == state
