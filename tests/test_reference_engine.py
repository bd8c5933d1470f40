"""The engine against the plain reference engine (tests/reference_engine.py).

Small scenarios run through both, under every scheme, and must give the
same counters and the same list trace, move rows included. The scenarios
have 0-12 vehicles, 1-4 towers splitting 1-30 channels, horizons that
cross the fleet's BLOCK and the PU timeline's WINDOW, PU and SU means and
back-off times near timeStep, decisions every few ticks and roads short
enough to wrap. Some take their PU draws from fixed values instead of the
PU streams: zeros, which are drawn again, and due instants on exact
multiples of timeStep. Real streams give neither, and the PU timeline
redoes such a channel flip by flip. Examples are derandomized, so the
suite sees the same scenarios on every run. Run alone with
`python -m pytest tests/test_reference_engine.py`.
"""

from collections import Counter
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import crvanet.scheduling
import reference_engine
from crvanet.config import ScenarioConfig, Scheme
from crvanet.engine import BLOCK, run_simulation
from crvanet.report import COUNTERS
from crvanet.scheduling import WINDOW
from crvanet.streams import StreamBundle


@st.composite
def scenarios(draw):
    """A scenario, and None or the fixed PU draws its channels take in turn."""
    towers = draw(st.integers(1, 4))
    dt = ScenarioConfig().time_step
    steps = st.sampled_from([0.4, 1.0, 2.0, 5.0, 25.0])   # in time steps
    config = replace(
        ScenarioConfig(),
        running_time=draw(st.sampled_from([1, BLOCK + 1, WINDOW + 1]) | st.integers(1, 700)) * dt,
        road_length=draw(st.sampled_from([3.0, 47.0, 300.0, 2000.0])),
        n_vehicles=draw(st.integers(0, 12)),
        n_pu_towers=towers,
        n_channels=towers * draw(st.integers(1, 30 // towers)),
        reaction_time=draw(st.sampled_from([0.005, 0.05, 1.0])),
        pu_hold_mean=draw(steps) * dt,
        pu_gap_mean=draw(steps) * dt,
        su_hold_mean=draw(steps) * dt,
        su_gap_mean=draw(steps) * dt,
        back_off_time=draw(steps) * dt,
        seed=draw(st.integers(0, 2**20)),
    ).validate()
    fixed = st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]), max_size=30)
    return config, draw(st.none() | fixed)


# the rare paths the examples must reach, as counted by the test
PATHS = ("flip by flip", "wrap", "preemption", "level drawn", "level taken whole",
         "recheck occupied", "due together", "row crosses towers", "several coordinators",
         "list over towers", "level of the size wanted")


def test_engine_equals_the_reference(draw_stub):
    """Equal counters and list traces for every scheme on every example;
    over all of them, the examples reached the timeline's flip-by-flip
    redo (a spy on scheduling._flip_ticks), a wrap at a road end, a
    preemption, a shortlist level drawn, one taken whole and one of
    exactly the size still wanted (no draw), a shortlist over two or more
    towers, a proposed re-check decided occupied, a tick with two or more
    SUs due, a cooperative epoch row over two towers or past channel
    n - 1, and a proposed epoch of two or more distinct coordinators."""
    reached = Counter()

    @settings(max_examples=30, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(scenarios())
    def check(case):
        config, fixed = case

        class Bundle(StreamBundle):
            """The run's streams; given fixed values, channel c's PU draws
            are the values from the c-th on, then the first c, then 1.0."""

            def __init__(self, *sizes):
                super().__init__(*sizes)
                if fixed is not None:
                    self.pu = [draw_stub(fixed[c:] + fixed[:c]) for c in range(len(self.pu))]

        flip_ticks = crvanet.scheduling._flip_ticks
        for scheme in Scheme:
            scenario = replace(config, scheme=scheme)
            with mock.patch("crvanet.engine.StreamBundle", Bundle), \
                    mock.patch("reference_engine.StreamBundle", Bundle), \
                    mock.patch.object(crvanet.scheduling, "_flip_ticks",
                                      wraps=flip_ticks) as spy:
                report = run_simulation(scenario, trace=[], trace_mobility=True)
                reference = reference_engine.ReferenceEngine(scenario)
                counters, trace = reference.run()
            assert counted(report) == {name: counters[name] for name in COUNTERS}, scheme
            assert report.trace == trace, scheme
            reached.update(reference.reached)
            reached["flip by flip"] += spy.call_count
            reached["preemption"] += report.preemptions

    check()
    assert all(reached[path] for path in PATHS), reached


@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
def test_reference_default_run(scheme):
    """The default scenario, 50 vehicles over 100 channels, for 0.15 s."""
    config = replace(ScenarioConfig(), running_time=0.15, seed=7, scheme=scheme).validate()
    report = run_simulation(config, trace=[], trace_mobility=True)
    counters, trace = reference_engine.ReferenceEngine(config).run()
    assert counted(report) == {name: counters[name] for name in COUNTERS}
    assert report.trace == trace


def counted(report):
    return {name: getattr(report, name) for name in COUNTERS}
