import math
from dataclasses import replace

import numpy as np
import pytest

from crvanet.config import ScenarioConfig, ScenarioValidationError
from crvanet.coordination import VOTE_OCCUPIED, VOTE_VACANT, CooperativeStrategy
from crvanet.mobility import (
    BACKWARD,
    DEFAULT_MAX_ACCEL,
    FORWARD,
    Fleet,
    gipps_free_speed,
    gipps_safe_speed,
)
from crvanet.sensing import ChannelSensor
from crvanet.streams import StreamBundle


def lone_pair(seed=0):
    """Two vehicles, one per direction, so neither has a leader."""
    config = replace(ScenarioConfig(), n_vehicles=2, seed=seed).validate()
    return Fleet(config, StreamBundle(seed)), config


class TestFreeSpeed:
    def test_no_acceleration_at_desired_speed(self):
        assert gipps_free_speed(27.78, 27.78, 1.7, 1.0) == pytest.approx(27.78)

    def test_standing_start(self):
        # 2.5 * 1.7 * 1 * 1 * sqrt(0.025) = 0.672, hand-evaluated
        assert gipps_free_speed(0.0, 27.78, 1.7, 1.0) == pytest.approx(0.6720, abs=1e-3)

    def test_never_exceeds_desired_speed(self):
        speeds = np.linspace(0.0, 1.0, 21) * 27.78
        assert np.all(gipps_free_speed(speeds, 27.78, 1.7, 1.0) <= 27.78 + 1e-12)


class TestSafeSpeed:
    # gipps_safe_speed(speed, gap, leader_speed, v_min, b, b_hat, tau)

    def test_no_leader_is_unconstrained(self):
        # a vehicle alone in its direction takes exactly the free-flow draw
        fleet, config = lone_pair(seed=5)
        before = fleet.speeds.copy()
        fleet.decide()
        free = gipps_free_speed(before, fleet.desired_speed, DEFAULT_MAX_ACCEL,
                                config.reaction_time)
        low = free - fleet.human_error * DEFAULT_MAX_ACCEL
        u = [StreamBundle(5).mobility_stream(i).random() for i in range(2)]
        np.testing.assert_array_equal(fleet.speeds,
                                      np.maximum(fleet.v_min, low + (free - low) * u))

    def test_hand_computed_braking_value(self):
        # gap=50, v=25, leader 25 m/s, b=bhat=3, tau=1:
        # -3 + sqrt(9 + 3*(100 - 25 + 625/3)) = -3 + sqrt(859)
        expected = -3.0 + math.sqrt(859.0)
        assert gipps_safe_speed(25.0, 50.0, 25.0, 0.0, 3.0, 3.0, 1.0) == pytest.approx(
            expected, abs=1e-9)

    def test_degenerate_stopped_pair_gives_zero(self):
        # gap=0 (leader at the effective length), both stopped
        assert gipps_safe_speed(0.0, 0.0, 0.0, 0.0, 3.0, 3.0, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_negative_discriminant_returns_floor(self):
        # follower far too fast, leader stopped 1 m past the effective length
        assert gipps_safe_speed(60.0, 1.0, 0.0, 12.0, 3.0, 3.0, 1.0) == 12.0


class TestUpdateVehicle:
    """One Gipps decision (Fleet.decide) and one tick (Fleet.advance) of
    vehicles without a leader."""

    def test_speed_in_draw_interval_when_floor_inactive(self):
        fleet, config = lone_pair()
        fleet.v_min[:] = 0.0
        v_des = gipps_free_speed(25.0, fleet.desired_speed, DEFAULT_MAX_ACCEL,
                                 config.reaction_time)
        for _ in range(100):
            fleet.speeds = np.full(2, 25.0)
            fleet.decide()
            width = fleet.human_error * DEFAULT_MAX_ACCEL
            assert np.all(v_des - width - 1e-9 <= fleet.speeds)
            assert np.all(fleet.speeds <= v_des + 1e-9)

    def test_floor_clamps_low_draws(self):
        fleet, _ = lone_pair(seed=1)
        # v_min just below v_des forces the max() branch often
        fleet.desired_speed[:] = 25.2
        fleet.v_min[:] = 25.1
        hits = 0
        for _ in range(150):
            fleet.speeds = np.full(2, 25.0)
            fleet.decide()
            assert np.all(fleet.speeds >= 25.1 - 1e-12)
            hits += np.count_nonzero(fleet.speeds == 25.1)
        assert hits > 0

    def test_zero_epsilon_is_deterministic(self):
        fleet, _ = lone_pair(seed=2)
        fleet.human_error[:] = 0.0
        speeds = set()
        for _ in range(10):
            fleet.speeds = np.full(2, 20.0)
            fleet.decide()
            speeds.add(round(float(fleet.speeds[0]), 12))
        assert len(speeds) == 1

    def test_position_advances_and_wraps(self):
        fleet, config = lone_pair(seed=3)
        fleet.positions[0], fleet.speeds[0] = 1999.99, 27.0
        assert fleet.directions[0] == FORWARD
        fleet.advance(0.001)
        assert 0.0 <= fleet.positions[0] < config.road_length


class TestNeighbors:
    """The comm-range neighbourhood as CooperativeStrategy.shortlist fuses
    it: the requester's own votes plus those of every vehicle within
    commRange, boundary inclusive, either travel direction."""

    @staticmethod
    def _strategy(n_vehicles):
        config = replace(ScenarioConfig(), n_vehicles=n_vehicles, comm_range=240.0).validate()
        return CooperativeStrategy(config, ChannelSensor(config))

    def _hears(self, positions, origin, other):
        """Whether origin's shortlist fuses other's votes: other alone votes
        channels 40-42 vacant, origin votes every channel occupied."""
        strategy = self._strategy(len(positions))
        strategy.votes[origin] = VOTE_OCCUPIED
        strategy.votes[other, 40:43] = VOTE_VACANT
        short = strategy.shortlist(origin, positions, np.random.default_rng(0))
        return short.tolist() == [40, 41, 42]

    def test_single_vehicle_has_no_neighbors(self):
        strategy = self._strategy(1)
        strategy.votes[0, 40:43] = VOTE_VACANT
        short = strategy.shortlist(0, np.array([100.0]), np.random.default_rng(0))
        assert short.tolist() == [40, 41, 42]

    def test_boundary_inclusive(self):
        positions = np.array([0.0, 240.0])
        assert self._hears(positions, 0, 1)
        assert self._hears(positions, 1, 0)
        assert not self._hears(np.array([0.0, 240.5]), 0, 1)

    def test_uniform_fleet_interior_count(self):
        # 80 m spacing, 240 m range: three on each side; vehicle j votes
        # channel j vacant, so the vacant group is the neighbourhood
        positions = np.arange(0.0, 2000.0, 80.0)
        strategy = self._strategy(len(positions))
        for j in range(len(positions)):
            strategy.votes[j, j] = VOTE_VACANT
        rng = np.random.default_rng(0)
        heard = set()
        for _ in range(50):
            heard.update(strategy.shortlist(10, positions, rng).tolist())
        assert heard == set(range(7, 14))
        assert len(heard - {10}) == 6

    def test_rejects_bad_range(self):
        with pytest.raises(ScenarioValidationError):
            replace(ScenarioConfig(), comm_range=0.0).validate()


class TestFleet:
    def _fleet(self, seed=1, **overrides):
        from dataclasses import replace
        config = replace(ScenarioConfig(), seed=seed, **overrides).validate()
        return Fleet(config, StreamBundle(config.seed)), config

    def test_split_across_directions(self):
        fleet, _ = self._fleet()
        forward = np.count_nonzero(fleet.directions == FORWARD)
        backward = np.count_nonzero(fleet.directions == BACKWARD)
        assert forward == 25 and backward == 25

    def test_drawn_speeds_within_fleet_spread(self):
        fleet, config = self._fleet()
        for i in range(len(fleet)):
            assert config.avg_speed * 0.8 <= fleet.desired_speed[i] <= config.avg_speed * 1.2
            assert fleet.v_min[i] == pytest.approx(0.9 * fleet.desired_speed[i])
            assert 0.25 <= fleet.human_error[i] <= 0.4

    def test_long_run_respects_speed_band_and_mean(self):
        fleet, config = self._fleet(seed=3)
        dt = config.time_step
        sums = np.zeros(len(fleet))
        ticks = 60_000  # 60 s
        for tick in range(ticks):
            if tick % 1000 == 0:
                fleet.decide()
            fleet.advance(dt)
            sums += fleet.speeds
            if tick % 1000 == 0:
                for i in range(len(fleet)):
                    assert fleet.v_min[i] - 1e-9 <= fleet.speeds[i] <= fleet.desired_speed[i] + 1e-9
        means = sums / ticks
        for i in range(len(fleet)):
            assert abs(means[i] - fleet.desired_speed[i]) <= 0.1 * fleet.desired_speed[i]
        assert np.all(np.isfinite(fleet.positions))
        assert np.all((0.0 <= fleet.positions) & (fleet.positions <= config.road_length))

    def test_every_vehicle_advances(self):
        fleet, config = self._fleet(seed=4)
        fleet.decide()
        before = fleet.positions.copy()
        fleet.advance(config.time_step)
        moved = np.abs(fleet.positions - before)
        moved = np.minimum(moved, config.road_length - moved)  # unwrap
        assert np.all(moved > 0.0)

    def test_empty_fleet(self):
        fleet, config = self._fleet(n_vehicles=0)
        fleet.decide()
        fleet.advance(config.time_step)
        assert len(fleet) == 0
