from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crvanet.config import ScenarioConfig, Scheme
from crvanet.coordination import (
    VOTE_OCCUPIED,
    VOTE_UNKNOWN,
    VOTE_VACANT,
    CooperativeStrategy,
    ProposedStrategy,
    StandaloneStrategy,
    elect_coordinators,
    make_strategy,
    pick,
)
from crvanet.engine import SimulationEngine
from crvanet.sensing import ChannelSensor
from crvanet.streams import StreamBundle


class TestFormClusters:
    """The clusters that elect_coordinators forms."""

    def test_chain_within_comm_range(self):
        positions = np.array([0.0, 200.0, 380.0])
        directions = np.array([1, 1, 1])
        cluster_of, _ = elect_coordinators(positions, directions, 240.0)
        assert cluster_of.tolist() == [0, 0, 0]

    def test_gap_splits_clusters(self):
        positions = np.array([0.0, 500.0])
        directions = np.array([1, 1])
        cluster_of, _ = elect_coordinators(positions, directions, 240.0)
        assert cluster_of.tolist() == [0, 1]

    def test_directions_never_mix(self):
        positions = np.array([0.0, 50.0, 100.0, 150.0])
        directions = np.array([1, -1, 1, -1])
        cluster_of, _ = elect_coordinators(positions, directions, 240.0)
        assert cluster_of.tolist() == [0, 1, 0, 1]

    def test_uniform_25_vehicles_one_cluster(self):
        # 25 vehicles over 2000 m is ~83 m spacing, all chained
        positions = np.linspace(0.0, 2000.0, 25)
        directions = np.ones(25, dtype=int)
        cluster_of, roles = elect_coordinators(positions, directions, 240.0)
        assert len(roles) == 1 and (cluster_of == 0).all()

    def test_deterministic_in_positions(self):
        rng = np.random.default_rng(0)
        positions = rng.uniform(0, 2000, 30)
        directions = np.where(np.arange(30) % 2 == 0, 1, -1)
        a = elect_coordinators(positions, directions, 240.0)
        b = elect_coordinators(positions.copy(), directions.copy(), 240.0)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])


class TestSelectCoordinators:
    """The roles that elect_coordinators selects; each row is (main,
    forward, backward)."""

    def test_singleton_takes_all_roles(self):
        _, roles = elect_coordinators(np.array([120.0]), np.array([1]), 240.0)
        assert roles.tolist() == [[0, 0, 0]]

    def test_three_member_layout(self):
        positions = np.array([0.0, 100.0, 200.0])
        _, roles = elect_coordinators(positions, np.array([1, 1, 1]), 240.0)
        main, forward, backward = roles[0]
        assert backward == 0 and main == 1 and forward == 2

    def test_centroid_tie_broken_by_lower_id(self):
        # members at 0, 90, 110, 200: centroid 100; ids 1 and 2 equidistant
        positions = np.array([0.0, 90.0, 110.0, 200.0])
        _, roles = elect_coordinators(positions, np.ones(4, dtype=int), 240.0)
        assert roles[0][0] == 1

    def test_direction_flips_forward_and_backward(self):
        positions = np.array([0.0, 100.0, 200.0])
        _, roles = elect_coordinators(positions, np.array([-1, -1, -1]), 240.0)
        _, forward, backward = roles[0]
        assert forward == 0 and backward == 2

    def test_role_positions_ordered_along_travel(self):
        rng = np.random.default_rng(1)
        for direction in (1, -1):
            positions = rng.uniform(0, 2000, 12)
            # a comm range spanning the road keeps all 12 in one cluster
            _, roles = elect_coordinators(positions, np.full(12, direction), 2000.0)
            assert len(roles) == 1
            main, forward, backward = roles[0]
            fwd = positions[forward] * direction
            mid = positions[main] * direction
            back = positions[backward] * direction
            assert fwd >= mid >= back


class TestCoordinatedSense:
    """One proposed epoch: each cluster's report is the AND-of-vacancy of
    its coordinators, all sensed in one call."""

    def _setup(self, n_channels=4):
        # vehicles 0-2 chain into one cluster, vehicle 3 is alone
        config = replace(
            ScenarioConfig(), n_vehicles=4, n_channels=n_channels, scheme=Scheme.PROPOSED,
        ).validate()
        engine = SimulationEngine(config)
        engine.fleet.positions[:] = [100.0, 300.0, 500.0, 1300.0]
        engine.fleet.directions[:] = 1
        return engine

    def _epoch(self, engine, streams):
        """Run one epoch at t = 0; the first cluster's report (its vacant
        channels) and its coordinators, recomputed here."""
        fleet, strategy = engine.fleet, engine.strategy
        strategy.on_epoch(0.0, fleet, engine.channel_map, streams)
        cluster_of, roles = elect_coordinators(fleet.positions, fleet.directions,
                                               engine.config.comm_range)
        assert cluster_of.tolist() == [0, 0, 0, 1]
        assert strategy.cluster_of.tolist() == [0, 0, 0, 1]
        return strategy.vacant[0], roles[0].tolist()

    def test_all_vacant_reported_vacant(self):
        engine = self._setup()
        vacant, _ = self._epoch(engine, _streams(engine.config, 3))
        # all channels truly vacant; AND-fusion keeps most vacant
        assert len(vacant) >= 2

    def test_pu_active_channel_reported_occupied(self):
        engine = self._setup()
        engine.channel_map.pu_active[1] = True
        vacant, _ = self._epoch(engine, _streams(engine.config, 3))
        assert 1 not in vacant

    def test_fusion_is_and_of_vacancy(self):
        """One coordinator deciding occupied must mask the others' vacant
        decisions, whatever the ground truth."""
        engine = self._setup()
        fleet = engine.fleet
        fused, role = self._epoch(engine, _streams(engine.config, 3))
        per_coord = []
        for cid in dict.fromkeys(role):
            block = engine.sensor.sense_block(cid, float(fleet.positions[cid]),
                                              engine.sensor.band, engine.channel_map,
                                              _streams(engine.config, 3))
            per_coord.append(~block.occupied)
        expected = np.logical_and.reduce(np.array(per_coord))
        assert fused == np.flatnonzero(expected).tolist()


def _streams(config, seed):
    """A bundle of the scenario's sizes."""
    return StreamBundle(seed, config.n_vehicles, config.n_channels, config.n_pu_towers)


def _radio_states(streams):
    """The state of every fading and sensing generator of a bundle."""
    return [rng.bit_generator.state for rngs in streams.fading + [streams.sensing]
            for rng in rngs]


@pytest.mark.parametrize("n_vehicles", [50, 10])
def test_epoch_equals_per_coordinator_sensing(n_vehicles):
    """One epoch's single sensing call gives, bit for bit, the reports that
    sensing each coordinator alone, cluster by cluster, gives; and it
    leaves every fading and sensing generator in the same state."""
    config = replace(ScenarioConfig(), running_time=0.1, seed=9, n_vehicles=n_vehicles,
                     scheme=Scheme.PROPOSED).validate()
    engine = SimulationEngine(config)
    fleet, cmap, sensor = engine.fleet, engine.channel_map, engine.sensor
    cmap.pu_active[::3] = True
    cmap.set_holder(7, vehicle_id=0, position=float(fleet.positions[0]))
    engine.strategy.on_epoch(0.25, fleet, cmap, engine.streams)

    _, roles = elect_coordinators(fleet.positions, fleet.directions, config.comm_range)
    assert n_vehicles == 50 or len(roles) > 2   # the sparse fleet splits up
    reference = _streams(config, config.seed)
    expected = []
    for role in roles.tolist():
        vacant = np.ones(config.n_channels, dtype=bool)
        for cid in dict.fromkeys(role):
            block = sensor.sense_block(cid, float(fleet.positions[cid]), sensor.band, cmap,
                                       reference)
            vacant &= ~block.occupied
        expected.append(np.flatnonzero(vacant).tolist())
    assert engine.strategy.vacant == expected
    assert {type(c) for report in expected for c in report} == {int}
    assert any(len(report) < config.n_channels for report in expected) and any(expected)
    assert _radio_states(engine.streams) == _radio_states(reference)


class TestProposedStrategy:
    def _engine(self, **overrides):
        config = replace(ScenarioConfig(), running_time=0.1, seed=9,
                         scheme=Scheme.PROPOSED, **overrides).validate()
        return SimulationEngine(config)

    def test_no_report_means_no_candidates(self):
        engine = self._engine()
        strategy = engine.strategy
        assert strategy.candidates(0, 0.0) == []  # before any epoch

    def test_stale_report_expires(self):
        engine = self._engine()
        engine.strategy.on_epoch(0.0, engine.fleet, engine.channel_map, engine.streams)
        assert len(engine.strategy.candidates(0, 0.0)) > 0
        assert len(engine.strategy.candidates(0, 0.019)) > 0
        assert engine.strategy.candidates(0, 0.021) == []

    def test_all_occupied_report_gives_empty_list(self):
        engine = self._engine()
        engine.channel_map.pu_active[:] = True
        engine.strategy.on_epoch(0.0, engine.fleet, engine.channel_map, engine.streams)
        block, chosen = engine.strategy.attempt(
            0, engine.fleet.positions, 0.001, engine.channel_map, engine.streams
        )
        assert block is None and chosen is None

    def test_recheck_blocks_occupation_on_occupied_decision(self):
        """A vacant report alone is not enough: the requester's own re-sense
        must also say vacant."""
        engine = self._engine()
        engine.strategy.on_epoch(0.0, engine.fleet, engine.channel_map, engine.streams)
        # force every channel PU-active after the epoch: reports still say
        # vacant, but the re-check now sees strong signal
        engine.channel_map.pu_active[:] = True
        blocked = 0
        for vid in range(10):
            block, chosen = engine.strategy.attempt(
                vid, engine.fleet.positions, 0.01, engine.channel_map, engine.streams
            )
            if block is not None and chosen is None:
                blocked += 1
        assert blocked == 10  # at +33 dB median SNR double-fade misses are ~never

    def test_every_vehicle_belongs_to_a_cluster_after_epoch(self):
        engine = self._engine()
        fleet, strategy = engine.fleet, engine.strategy
        strategy.on_epoch(0.0, fleet, engine.channel_map, engine.streams)
        assert set(strategy.cluster_of.tolist()) <= set(range(len(strategy.vacant)))
        assert strategy.cluster_of.shape == (50,) and (strategy.cluster_of >= 0).all()
        # every cluster's coordinators are its own members
        _, roles = elect_coordinators(fleet.positions, fleet.directions, engine.config.comm_range)
        for idx, role in enumerate(roles.tolist()):
            assert {int(strategy.cluster_of[c]) for c in role} == {idx}

    def test_epoch_time_stamps_its_reports(self):
        """The reports of an epoch are as old as the epoch: fresh for one
        coordination interval after it, stale beyond."""
        engine = self._engine()
        fleet, strategy = engine.fleet, engine.strategy
        strategy.on_epoch(1.5, fleet, engine.channel_map, engine.streams)
        assert strategy.report_time == 1.5
        _, roles = elect_coordinators(fleet.positions, fleet.directions, engine.config.comm_range)
        assert len(strategy.vacant) == len(roles) > 0
        interval = engine.config.coordination_interval
        own_report = strategy.vacant[strategy.cluster_of[0]]
        assert len(own_report) > 0 and own_report == sorted(own_report)
        assert strategy.candidates(0, 1.5 + interval) == own_report
        assert strategy.candidates(0, 1.5 + interval + 1e-6) == []


class TestCooperativeStrategy:
    def _engine(self, **overrides):
        config = replace(ScenarioConfig(), running_time=0.1, seed=9,
                         scheme=Scheme.COOPERATIVE, **overrides).validate()
        return SimulationEngine(config)

    def test_epoch_fills_votes(self):
        engine = self._engine()
        strategy = engine.strategy
        assert (strategy.votes == VOTE_UNKNOWN).all()
        strategy.on_epoch(0.0, engine.fleet, engine.channel_map, engine.streams)
        per_vehicle = (strategy.votes != VOTE_UNKNOWN).sum(axis=1)
        assert (per_vehicle == 5).all()

    @pytest.mark.parametrize("n_channels, epoch", [(100, 0), (100, 1), (100, 23), (4, 0), (4, 3)])
    def test_epoch_votes_equal_the_reference_write(self, n_channels, epoch, monkeypatch):
        """The epoch grid built once in __init__ is the grid first written
        inline, (epoch * count + vehicle * 7 + j) % nChannels over count =
        min(5, nChannels) columns, and the votes after on_epoch equal that
        grid's fancy-index write of the sensed decisions on a copy. Epoch
        23's offset, 115, starts past channel n - 1; 4 channels take
        count = n."""
        engine = self._engine(n_channels=n_channels)
        strategy, sensor = engine.strategy, engine.sensor
        strategy.votes[:] = np.random.default_rng(epoch).integers(3, size=strategy.votes.shape)
        strategy._epoch_index = epoch
        count = min(5, n_channels)
        vehicles = np.arange(engine.config.n_vehicles)
        channels = (epoch * count + vehicles[:, None] * 7 + np.arange(count)) % n_channels
        expected, calls = strategy.votes.copy(), []

        def sense_block(*args, **kwargs):
            calls.append((args, ChannelSensor.sense_block(sensor, *args, **kwargs)))
            return calls[-1][1]

        monkeypatch.setattr(sensor, "sense_block", sense_block)
        strategy.on_epoch(0.0, engine.fleet, engine.channel_map, engine.streams)
        (args, block), = calls
        assert args[0].tolist() == vehicles.tolist()
        assert np.array_equal(args[2], channels)
        expected[vehicles[:, None], channels] = block.occupied
        assert np.array_equal(strategy.votes, expected)
        assert strategy._epoch_index == epoch + 1

    def test_shortlist_prefers_vacant_votes(self):
        engine = self._engine()
        strategy = engine.strategy
        positions = engine.fleet.positions
        strategy.votes[0, 40] = 0  # own vacant vote
        rng = np.random.default_rng(0)
        for _ in range(10):
            short = strategy.shortlist(0, positions, rng)
            assert 40 in short

    def test_shortlist_rank_order(self):
        """One vacant vote from anyone in range ranks a channel first, even
        against the requester's own occupied vote; an unvoted channel ranks
        above one that only a neighbour voted occupied; votes from beyond
        comm range count for nothing."""
        engine = self._engine()
        strategy, positions = engine.strategy, engine.fleet.positions
        in_range = np.abs(positions - positions[0]) <= engine.config.comm_range
        neighbour = int(np.nonzero(in_range)[0][1])   # [0] is the requester itself
        far = int(np.nonzero(~in_range)[0][0])
        strategy.votes[:] = VOTE_OCCUPIED
        strategy.votes[:, [10, 11, 20]] = VOTE_UNKNOWN
        strategy.votes[neighbour, 20] = VOTE_OCCUPIED   # occupied, by a neighbour only
        strategy.votes[neighbour, 30] = VOTE_VACANT     # the requester votes it occupied
        strategy.votes[far, 40] = VOTE_VACANT           # out of range
        short = strategy.shortlist(0, positions, np.random.default_rng(0))
        assert short == [30, 10, 11]

    def test_shortlist_size_capped(self):
        engine = self._engine()
        short = engine.strategy.shortlist(0, engine.fleet.positions,
                                          np.random.default_rng(1))
        assert len(short) == 3
        assert len(set(short)) == 3
        assert type(short) is list and all(type(c) is int for c in short)

    def test_attempt_senses_whole_shortlist(self):
        engine = self._engine()
        block, chosen = engine.strategy.attempt(
            0, engine.fleet.positions, 0.0, engine.channel_map, engine.streams
        )
        assert len(block.channel_ids) == 3

    def test_attempt_votes_equal_its_decisions(self):
        engine = self._engine()
        strategy = engine.strategy
        for vid in range(5):
            block, chosen = strategy.attempt(
                vid, engine.fleet.positions, 0.0, engine.channel_map, engine.streams
            )
            assert (strategy.votes[vid, block.channel_ids].tolist()
                    == [int(occupied) for occupied in block.occupied])
            assert chosen is None or not strategy.votes[vid, chosen]


class TestStandaloneStrategy:
    def test_scans_every_channel(self):
        config = replace(ScenarioConfig(), running_time=0.1, seed=9,
                         scheme=Scheme.STANDALONE).validate()
        engine = SimulationEngine(config)
        block, chosen = engine.strategy.attempt(
            0, engine.fleet.positions, 0.0, engine.channel_map, engine.streams
        )
        assert block.channel_ids.tolist() == list(range(config.n_channels))
        assert chosen is not None

    def test_all_channels_occupied_backs_off(self):
        config = replace(ScenarioConfig(), running_time=0.1, seed=9,
                         scheme=Scheme.STANDALONE).validate()
        engine = SimulationEngine(config)
        engine.channel_map.pu_active[:] = True
        misses = 0
        for vid in range(5):
            block, chosen = engine.strategy.attempt(
                vid, engine.fleet.positions, 0.0, engine.channel_map, engine.streams
            )
            misses += chosen is None
        assert misses == 5


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(channels=st.lists(st.integers(0, 99), max_size=6), as_array=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_pick_equals_the_reference_draw(channels, as_array, seed):
    """pick is the draw first written, a uniform index from integers(len)
    (None when empty), for 0-6 candidates as a list or an array, and leaves
    the generator in the reference's state: a lone candidate takes no call,
    which draws nothing (tests/test_streams.py pins integers(1))."""
    candidates = np.array(channels, dtype=int) if as_array else channels
    got_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    expected = int(candidates[ref_rng.integers(len(candidates))]) if len(candidates) else None
    got = pick(candidates, got_rng)
    assert got == expected and (got is None or type(got) is int)
    assert got_rng.bit_generator.state == ref_rng.bit_generator.state


def test_make_strategy_dispatch(default_config):
    sensor = ChannelSensor(default_config)
    assert isinstance(
        make_strategy(replace(default_config, scheme=Scheme.STANDALONE), sensor),
        StandaloneStrategy,
    )
    assert isinstance(
        make_strategy(replace(default_config, scheme=Scheme.COOPERATIVE), sensor),
        CooperativeStrategy,
    )
    assert isinstance(
        make_strategy(replace(default_config, scheme=Scheme.PROPOSED), sensor),
        ProposedStrategy,
    )
