from dataclasses import replace

import numpy as np
import pytest

from crvanet.config import ScenarioConfig, Scheme
from crvanet.coordination import (
    CooperativeStrategy,
    CoordinatorSet,
    ProposedStrategy,
    StandaloneStrategy,
    coordinated_sense,
    form_clusters,
    make_strategy,
    select_coordinators,
)
from crvanet.engine import SimulationEngine
from crvanet.scheduling import ChannelMap
from crvanet.sensing import ChannelSensor
from crvanet.streams import StreamBundle


class TestFormClusters:
    def test_chain_within_comm_range(self):
        positions = np.array([0.0, 200.0, 380.0])
        directions = np.array([1, 1, 1])
        assert form_clusters(positions, directions, 240.0) == [[0, 1, 2]]

    def test_gap_splits_clusters(self):
        positions = np.array([0.0, 500.0])
        directions = np.array([1, 1])
        assert form_clusters(positions, directions, 240.0) == [[0], [1]]

    def test_directions_never_mix(self):
        positions = np.array([0.0, 50.0, 100.0, 150.0])
        directions = np.array([1, -1, 1, -1])
        clusters = form_clusters(positions, directions, 240.0)
        assert sorted(map(sorted, clusters)) == [[0, 2], [1, 3]]

    def test_uniform_25_vehicles_one_cluster(self):
        # 25 vehicles over 2000 m is ~83 m spacing, all chained
        positions = np.linspace(0.0, 2000.0, 25)
        directions = np.ones(25, dtype=int)
        clusters = form_clusters(positions, directions, 240.0)
        assert len(clusters) == 1 and len(clusters[0]) == 25

    def test_deterministic_in_positions(self):
        rng = np.random.default_rng(0)
        positions = rng.uniform(0, 2000, 30)
        directions = np.where(np.arange(30) % 2 == 0, 1, -1)
        a = form_clusters(positions, directions, 240.0)
        b = form_clusters(positions.copy(), directions.copy(), 240.0)
        assert a == b


class TestSelectCoordinators:
    def test_singleton_takes_all_roles(self):
        cs = select_coordinators([4], np.array([0, 0, 0, 0, 120.0]), 1, 1.5)
        assert cs.main_id == cs.forward_id == cs.backward_id == 4
        assert cs.distinct_coordinators() == (4,)
        assert cs.elected_at == 1.5

    def test_three_member_layout(self):
        positions = np.array([0.0, 100.0, 200.0])
        cs = select_coordinators([0, 1, 2], positions, 1, 0.0)
        assert cs.backward_id == 0 and cs.main_id == 1 and cs.forward_id == 2

    def test_centroid_tie_broken_by_lower_id(self):
        # members at 0, 90, 110, 200: centroid 100; ids 1 and 2 equidistant
        positions = np.array([0.0, 90.0, 110.0, 200.0])
        cs = select_coordinators([0, 1, 2, 3], positions, 1, 0.0)
        assert cs.main_id == 1

    def test_direction_flips_forward_and_backward(self):
        positions = np.array([0.0, 100.0, 200.0])
        cs = select_coordinators([0, 1, 2], positions, -1, 0.0)
        assert cs.forward_id == 0 and cs.backward_id == 2

    def test_role_positions_ordered_along_travel(self):
        rng = np.random.default_rng(1)
        for direction in (1, -1):
            positions = rng.uniform(0, 2000, 12)
            cs = select_coordinators(list(range(12)), positions, direction, 0.0)
            fwd = positions[cs.forward_id] * direction
            mid = positions[cs.main_id] * direction
            back = positions[cs.backward_id] * direction
            assert fwd >= mid >= back

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError):
            select_coordinators([], np.array([]), 1, 0.0)


class TestCoordinatedSense:
    def _setup(self, n_channels=4):
        config = replace(
            ScenarioConfig(), n_vehicles=4, n_channels=n_channels,
            channels_per_tower=n_channels // 2,
        ).validate()
        sensor = ChannelSensor(config)
        cmap = ChannelMap(n_channels, config.n_vehicles)
        positions = np.array([100.0, 500.0, 900.0, 1300.0])
        return config, sensor, cmap, positions

    def test_all_vacant_reported_vacant(self):
        config, sensor, cmap, positions = self._setup()
        cs = select_coordinators([0, 1, 2], positions, 1, 0.0)
        vacant = coordinated_sense(cs, sensor, cmap, positions, 0.0, StreamBundle(3))
        # all channels truly vacant; AND-fusion keeps most vacant
        assert vacant.sum() >= 2

    def test_pu_active_channel_reported_occupied(self):
        config, sensor, cmap, positions = self._setup()
        cmap.pu_active[1] = True
        cs = select_coordinators([0, 1, 2], positions, 1, 0.0)
        vacant = coordinated_sense(cs, sensor, cmap, positions, 0.0, StreamBundle(3))
        assert not vacant[1]

    def test_fusion_is_and_of_vacancy(self):
        """One coordinator deciding occupied must mask the others' vacant
        decisions, whatever the ground truth."""
        config, sensor, cmap, positions = self._setup()
        cs = select_coordinators([0, 1, 2], positions, 1, 0.0)
        streams = StreamBundle(3)
        per_coord = []
        for cid in cs.distinct_coordinators():
            block = sensor.sense_block(cid, float(positions[cid]),
                                       np.arange(4), cmap, 0.0, StreamBundle(3))
            per_coord.append(~block.occupied)
        fused = coordinated_sense(cs, sensor, cmap, positions, 0.0, StreamBundle(3))
        expected = np.logical_and.reduce(np.array(per_coord))
        np.testing.assert_array_equal(fused, expected)


class TestProposedStrategy:
    def _engine(self, **overrides):
        config = replace(ScenarioConfig(), running_time=0.1, seed=9,
                         scheme=Scheme.PROPOSED, **overrides).validate()
        return SimulationEngine(config)

    def test_no_report_means_no_candidates(self):
        engine = self._engine()
        strategy = engine.strategy
        assert strategy.candidates(0, 0.0).size == 0  # before any epoch

    def test_stale_report_expires(self):
        engine = self._engine()
        engine.strategy.on_epoch(0.0, engine.fleet, engine.channel_map, engine.streams)
        assert engine.strategy.candidates(0, 0.0).size > 0
        assert engine.strategy.candidates(0, 0.019).size > 0
        assert engine.strategy.candidates(0, 0.021).size == 0

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
        engine.strategy.on_epoch(0.0, engine.fleet, engine.channel_map, engine.streams)
        assert set(engine.strategy.state.cluster_of) == set(range(50))
        for cs in engine.strategy.state.clusters:
            assert set(cs.distinct_coordinators()) <= set(cs.members)


class TestCooperativeStrategy:
    def _engine(self, **overrides):
        config = replace(ScenarioConfig(), running_time=0.1, seed=9,
                         scheme=Scheme.COOPERATIVE, **overrides).validate()
        return SimulationEngine(config)

    def test_epoch_fills_votes(self):
        engine = self._engine()
        strategy = engine.strategy
        assert (strategy.votes == -1).all()
        strategy.on_epoch(0.0, engine.fleet, engine.channel_map, engine.streams)
        per_vehicle = (strategy.votes != -1).sum(axis=1)
        assert (per_vehicle == 5).all()

    def test_shortlist_prefers_vacant_votes(self):
        engine = self._engine()
        strategy = engine.strategy
        positions = engine.fleet.positions
        strategy.votes[0, 40] = 0  # own vacant vote
        rng = np.random.default_rng(0)
        for _ in range(10):
            short = strategy.shortlist(0, positions, rng)
            assert 40 in short

    def test_shortlist_size_capped(self):
        engine = self._engine()
        short = engine.strategy.shortlist(0, engine.fleet.positions,
                                          np.random.default_rng(1))
        assert len(short) == 3
        assert len(set(short.tolist())) == 3

    def test_attempt_senses_whole_shortlist(self):
        engine = self._engine()
        block, chosen = engine.strategy.attempt(
            0, engine.fleet.positions, 0.0, engine.channel_map, engine.streams
        )
        assert block.channel_ids.size == 3

    def test_attempt_votes_equal_its_decisions(self):
        engine = self._engine()
        strategy = engine.strategy
        for vid in range(5):
            block, chosen = strategy.attempt(
                vid, engine.fleet.positions, 0.0, engine.channel_map, engine.streams
            )
            np.testing.assert_array_equal(strategy.votes[vid, block.channel_ids],
                                          block.occupied.astype(int))
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
